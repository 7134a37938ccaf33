//! End-to-end coverage of the convolutional victim subsystem: a real
//! ResNet-20-shaped CNN (conv stems, residual skips, pooling, dense
//! head) trained, quantized, deployed into DRAM rows and driven
//! through the unified Scenario pipeline — on serial and sharded
//! engines, under attack and under the locker defense.

use dram_locker::dnn::models;
use dram_locker::dnn::models::ModelKind;
use dram_locker::dnn::{QuantLayer, QuantNetwork, WeightLayout};
use dram_locker::memctrl::{AddressMapper, MemCtrlConfig};
use dram_locker::sim::{
    find, AttackSpec, Budget, ChannelRouter, DefenseSpec, EngineConfig, Scenario, VictimSpec,
};

const WEIGHT_BASE: u64 = 0x400;

/// The victim's shard-local weight-fetch trace lifted onto an
/// `n`-channel global address space, homed on channel 0.
fn fetch_trace(model: &QuantNetwork, channels: usize) -> dram_locker::memctrl::Trace {
    let config = MemCtrlConfig::tiny_for_tests();
    let mapper = AddressMapper::new(config.dram.geometry);
    let layout = WeightLayout::new(WEIGHT_BASE, mapper);
    let local = layout.fetch_trace(model, 2, 32).expect("image fits the tiny device");
    ChannelRouter::new(channels, &mapper).globalize_trace(&local, 0).expect("channel 0")
}

/// Acceptance: the ResNet-20-shaped CNN victim runs end-to-end through
/// `Scenario::builder()` on both the serial and the 2-channel sharded
/// engine, and the parallel run's report is bit-identical to the
/// serial reference.
#[test]
fn resnet20_cnn_reports_identical_on_serial_and_sharded_engines() {
    let victim = models::victim_resnet20_cnn(42);
    assert!(victim.clean_accuracy > 0.6, "clean accuracy {}", victim.clean_accuracy);
    let has_conv = victim.model.layers().iter().any(|l| matches!(l, QuantLayer::Conv(_)));
    assert!(has_conv, "the victim must be a real CNN");
    let run = |engine: EngineConfig| {
        Scenario::builder()
            .label("cnn-sharded-identity")
            .engine(engine)
            .victim(VictimSpec::model(ModelKind::Resnet20Cnn, 42, WEIGHT_BASE))
            .attack(AttackSpec::trace(fetch_trace(&victim.model, 2)))
            .defense(DefenseSpec::locker_adjacent())
            .build()
            .expect("scenario builds")
            .run()
            .expect("replay runs")
    };
    let parallel = run(EngineConfig::sharded(2));
    let serial = run(EngineConfig::serial_reference(2));
    assert_eq!(parallel, serial, "sharded run must be bit-identical to the serial reference");
    assert_eq!(parallel.channels, 2);
    assert!(parallel.requests > 0);
    // The weight fetch is the victim's own (trusted) traffic: the
    // locker must not harm it, and the model must survive intact.
    assert!(!parallel.harmed());
    assert_eq!(parallel.victims[0].accuracy_after_pct, parallel.victims[0].accuracy_before_pct);
}

/// Acceptance: the BFA catalog entry degrades the CNN's accuracy, and
/// the locker's 9.6% flip-landing rate measurably suppresses the
/// degradation of the *same* campaign.
#[test]
fn cnn_bfa_collapses_accuracy_and_locker_suppresses_it() {
    let undefended = find("cnn-bfa-vs-none").unwrap().scenario().build().unwrap().run().unwrap();
    assert!(undefended.landed_flips > 0);
    assert!(
        undefended.accuracy_delta_pct() > 20.0,
        "BFA should collapse CNN accuracy: {:?}",
        undefended.victims[0]
    );
    // Every landed flip targeted an MSB-range bit of some weighted
    // layer — conv kernels included (the ResNet-shaped victim has 22
    // weighted layers, only the last of which is dense).
    assert!(undefended.flipped_bits.iter().all(|bit| bit.bit >= 6));
    assert!(
        undefended.flipped_bits.iter().any(|bit| bit.layer < 21),
        "at least one flip must land in a conv kernel: {:?}",
        undefended.flipped_bits
    );

    let defended =
        find("cnn-bfa-vs-dram-locker").unwrap().scenario().build().unwrap().run().unwrap();
    assert!(defended.landed_flips < undefended.landed_flips);
    assert!(
        defended.accuracy_delta_pct() < undefended.accuracy_delta_pct() - 10.0,
        "locker must suppress the degradation: defended {:.1} vs undefended {:.1}",
        defended.accuracy_delta_pct(),
        undefended.accuracy_delta_pct()
    );
}

/// The physical edge-row BFA campaign against a CNN victim: the
/// gradient scan picks a conv-kernel MSB in the image's first DRAM
/// row, the hammer lands it, and the reloaded model shows exactly
/// that corruption — unless the locker denies the campaign.
#[test]
fn physical_bfa_corrupts_a_conv_kernel_and_locker_denies_it() {
    let victim = models::victim_tiny_cnn(7);
    let setup = |defended: bool| {
        let mut builder = Scenario::builder()
            .victim(VictimSpec::model(ModelKind::TinyCnn, 7, WEIGHT_BASE))
            .attack(AttackSpec::BfaHammer { batch: 32 })
            .budget(Budget { max_activations: 20_000, check_interval: 8, iterations: 1 })
            .eval_batch(32);
        if defended {
            builder = builder.defense(DefenseSpec::locker_adjacent());
        }
        builder.build().expect("scenario builds")
    };

    let mut run = setup(false);
    let report = run.run().expect("campaign runs");
    assert_eq!(report.landed_flips, 1, "{report:?}");
    let target = report.flipped_bits[0];
    let reloaded = run.reload_model(0).expect("load").expect("model victim");
    assert_ne!(reloaded, victim.model);
    assert_eq!(reloaded.bit(target).unwrap(), !victim.model.bit(target).unwrap());

    let mut run = setup(true);
    let defended = run.run().expect("campaign runs");
    assert_eq!(defended.landed_flips, 0);
    assert!(defended.fully_denied(), "{defended:?}");
    let reloaded = run.reload_model(0).expect("load").expect("model victim");
    assert_eq!(reloaded, victim.model, "weights must be untouched under the locker");
}
