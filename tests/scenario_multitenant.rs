//! Multi-tenant smoke test: two victims share one DRAM device; an
//! attack on tenant A must not perturb tenant B — the first step toward
//! the ROADMAP's multi-tenant workload.

use dram_locker::dnn::models::{self, ModelKind};
use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, ScenarioRun, VictimSpec};

const TENANT_A_BASE: u64 = 0x400; // rows 16.. of the tiny geometry
const TENANT_B_BASE: u64 = 0x800; // rows 32.., same subarray, well apart

fn two_tenant_run(defended: bool) -> ScenarioRun {
    let mut builder = Scenario::builder()
        .label(if defended { "multi-tenant defended" } else { "multi-tenant undefended" })
        .victim(VictimSpec::model(ModelKind::Tiny, 41, TENANT_A_BASE))
        .victim(VictimSpec::model(ModelKind::Tiny, 43, TENANT_B_BASE))
        .attack(AttackSpec::BfaHammer { batch: 32 })
        .budget(Budget { max_activations: 20_000, check_interval: 8, iterations: 1 })
        .target_victim(0);
    if defended {
        builder = builder.defense(DefenseSpec::locker_adjacent());
    }
    builder.build().expect("two tenants deploy on one device")
}

#[test]
fn attack_on_tenant_a_leaves_tenant_b_untouched() {
    let victim_b = models::victim_tiny(43);
    let mut run = two_tenant_run(false);
    let report = run.run().expect("campaign runs");
    assert_eq!(report.landed_flips, 1, "undefended flip on tenant A lands: {report:?}");

    // Tenant A's weight image is corrupted...
    let tenant_a = run.reload_model(0).expect("load").expect("model victim");
    assert_ne!(tenant_a, models::victim_tiny(41).model);

    // ...tenant B's bytes and reported accuracy are bit-identical.
    let tenant_b = run.reload_model(1).expect("load").expect("model victim");
    assert_eq!(tenant_b, victim_b.model, "tenant B must be untouched");
    assert_eq!(
        report.victims[1].accuracy_before_pct, report.victims[1].accuracy_after_pct,
        "tenant B reported accuracy must not move: {report:?}"
    );
}

#[test]
fn defended_device_contains_the_attack_for_both_tenants() {
    let mut run = two_tenant_run(true);
    let report = run.run().expect("campaign runs");
    assert!(report.fully_denied(), "{report:?}");
    for (index, victim) in report.victims.iter().enumerate() {
        assert_eq!(
            victim.accuracy_before_pct, victim.accuracy_after_pct,
            "tenant {index} accuracy must be unchanged: {report:?}"
        );
    }
}

#[test]
fn guarded_ranges_cover_both_tenants() {
    let run = two_tenant_run(true);
    let ranges: Vec<(u64, u64)> =
        run.victims().iter().flat_map(|v| v.guarded_ranges().iter().copied()).collect();
    assert_eq!(ranges.len(), 2);
    assert!(ranges[0].0 == TENANT_A_BASE && ranges[1].0 == TENANT_B_BASE);
    assert!(ranges[0].1 <= TENANT_B_BASE, "tenant images must not overlap");
}
