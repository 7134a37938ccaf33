//! The paper's headline scenario: a quantized DNN's weights live in
//! DRAM; a co-located attacker uses RowHammer to flip the weight bit
//! progressive bit search selects. Without DRAM-Locker the flip lands
//! and accuracy drops; with the protection plan locking the
//! aggressor-candidate rows, every hammer access is denied.
//!
//! The OS already isolates the victim's own pages (an unprivileged
//! attacker cannot *address* them), so the attacker's only aggressors
//! are the unowned rows physically adjacent to the weight image —
//! exactly the rows `DefenseSpec::locker_adjacent()` locks. The
//! gradient scan that picks the most damaging reachable bit is
//! `dlk_dnn::models::best_edge_target`, the same helper the
//! `AttackSpec::BfaHammer` attack uses.
//!
//! Run with: `cargo run --release --example protect_dnn_weights`

use dram_locker::dnn::models::{self, ModelKind};
use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, VictimSpec};

const WEIGHT_BASE: u64 = 0x400;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train and quantize the victim once; both runs deploy clones.
    let victim = models::victim_tiny(21);
    println!("victim trained: clean accuracy {:.1}%", victim.clean_accuracy * 100.0);

    let run = |defended: bool| -> Result<(f64, u64), Box<dyn std::error::Error>> {
        let mut builder = Scenario::builder()
            .label(if defended { "with DRAM-Locker" } else { "without DRAM-Locker" })
            .victim(VictimSpec::model(ModelKind::Tiny, 21, WEIGHT_BASE))
            .attack(AttackSpec::BfaHammer { batch: 48 })
            .budget(Budget { max_activations: 20_000, check_interval: 8, iterations: 1 })
            .eval_batch(48);
        if defended {
            // Register the weight image with the protection framework:
            // DRAM-Locker locks the rows an attacker must hammer.
            builder = builder.defense(DefenseSpec::locker_adjacent());
        }
        let report = builder.build()?.run()?;
        if defended {
            println!("  defense actions: {}", report.mitigation_total());
        }
        println!(
            "  hammer campaign: flipped={} requests={} denied={}",
            report.landed_flips > 0,
            report.requests,
            report.denied
        );
        // The victim reloads weights from DRAM and measures accuracy.
        let accuracy = report.victims[0].accuracy_after_pct.expect("model victim");
        Ok((accuracy, report.denied))
    };

    println!("\nwithout DRAM-Locker:");
    let (acc_undefended, _) = run(false)?;
    println!("  post-attack accuracy: {acc_undefended:.1}%");

    println!("\nwith DRAM-Locker:");
    let (acc_defended, denied) = run(true)?;
    println!("  post-attack accuracy: {acc_defended:.1}% ({denied} accesses denied)");

    assert!(acc_defended >= acc_undefended);
    assert!(denied > 0, "the defense must have denied the hammer accesses");
    Ok(())
}
