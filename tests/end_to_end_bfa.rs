//! End-to-end Bit-Flip Attack through the full stack, composed by the
//! unified Scenario API: trained victim, quantized weights deployed to
//! DRAM, white-box bit selection, a physical RowHammer campaign through
//! the memory controller, and the victim reloading weights from DRAM —
//! with and without DRAM-Locker.

use dram_locker::dnn::models::{self, ModelKind};
use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, ScenarioRun, VictimSpec};

const WEIGHT_BASE: u64 = 0x400;

fn setup(seed: u64, defended: bool) -> ScenarioRun {
    let mut builder = Scenario::builder()
        .victim(VictimSpec::model(ModelKind::Tiny, seed, WEIGHT_BASE))
        .attack(AttackSpec::BfaHammer { batch: 48 })
        .budget(Budget { max_activations: 20_000, check_interval: 8, iterations: 1 })
        .eval_batch(32);
    if defended {
        builder = builder.defense(DefenseSpec::locker_adjacent());
    }
    builder.build().expect("scenario builds")
}

#[test]
fn undefended_hammer_lands_and_corrupts_the_model() {
    let victim = models::victim_tiny(31);
    let mut run = setup(31, false);
    let report = run.run().expect("campaign runs");
    assert_eq!(report.landed_flips, 1, "{report:?}");
    assert_eq!(report.denied, 0);

    let target = report.flipped_bits[0];
    let reloaded = run.reload_model(0).expect("load").expect("model victim");
    assert_ne!(reloaded, victim.model, "weight image must be corrupted");
    assert_eq!(
        reloaded.bit(target).expect("in range"),
        !victim.model.bit(target).expect("in range"),
        "exactly the targeted bit flipped"
    );
}

#[test]
fn dram_locker_denies_the_same_campaign() {
    let victim = models::victim_tiny(31);
    let mut run = setup(31, true);
    let report = run.run().expect("campaign runs");
    assert_eq!(report.landed_flips, 0, "{report:?}");
    assert!(report.fully_denied(), "{report:?}");

    let reloaded = run.reload_model(0).expect("load").expect("model victim");
    assert_eq!(reloaded, victim.model, "weights must be untouched");
}

#[test]
fn victim_traffic_still_flows_under_protection() {
    // The defense must not break the victim's own reads: weights load
    // correctly while the lock table is armed (no attack phase here).
    let victim = models::victim_tiny(32);
    let mut run = Scenario::builder()
        .victim(VictimSpec::model(ModelKind::Tiny, 32, WEIGHT_BASE))
        .defense(DefenseSpec::locker_adjacent())
        .build()
        .expect("scenario builds");
    let reloaded = run.reload_model(0).expect("load").expect("model victim");
    assert_eq!(reloaded, victim.model);
    let (x, y) = victim.dataset.test_sample(32, 0);
    let accuracy = reloaded.accuracy(&x, &y).expect("shapes");
    assert!((accuracy - victim.clean_accuracy).abs() < 0.2);
}

#[test]
fn attack_cost_scales_with_trh() {
    // The attacker pays at least TRH activations per flip — the knob
    // behind every defense-time argument in the paper.
    let mut run = setup(33, false);
    let trh = run.controller().dram().config().hammer.trh;
    let report = run.run().expect("campaign runs");
    assert_eq!(report.landed_flips, 1);
    assert!(report.requests >= trh, "needed {} of >= {trh}", report.requests);
}
