//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig1a`] | Fig. 1(a) — targeted BFA vs random flips |
//! | [`fig1b`] | Fig. 1(b) — TRH per DRAM generation |
//! | [`mc_variation`] | §IV-D — SWAP error vs process variation |
//! | [`table1`] | Table I — hardware overhead comparison |
//! | [`fig7a`] | Fig. 7(a) — latency per Tref vs #BFA |
//! | [`fig7b`] | Fig. 7(b) — defense time vs threshold |
//! | [`fig8`] | Fig. 8 — BFA iterations vs accuracy, ±DRAM-Locker |
//! | [`table2`] | Table II — vs training-based defenses |
//! | [`pta`] | §V prose — PTA evaluation |
//! | [`overhead_inference`] | Table II prose — defense cost on victim traffic |
//! | [`ablation`] | design ablations — re-lock interval and lock target |
//! | [`generations`] | Fig. 1(b) × Fig. 7(b) — sweep across DRAM generations |
//! | [`defense_grid`] | channel × defense sweep through the spec-driven runner |
//!
//! The model-backed experiments take a [`Fidelity`]: `Fast` shrinks
//! models and budgets for CI, tests and the layered bench; `Full`
//! reproduces the paper-scale run. [`render`] runs them all into the
//! text `examples/paper_figures.rs` prints.

pub mod ablation;
pub mod defense_grid;
pub mod dl_model;
pub mod fig1a;
pub mod fig1b;
pub mod fig7a;
pub mod fig7b;
pub mod fig8;
pub mod generations;
pub mod mc_variation;
pub mod overhead_inference;
pub mod pta;
pub mod table1;
pub mod table2;

pub use dl_model::{DlLatencyModel, DlSecurityModel};

use dlk_dnn::models::ModelKind;
use dlk_sim::{AttackSpec, Budget, GeometrySpec, Scenario, SimError, VictimSpec};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Small models and budgets — seconds, for tests.
    Fast,
    /// Paper-scale models and budgets — minutes, for `paper_figures`.
    #[default]
    Full,
}

/// Seed of the victim the weight-bit campaigns attack.
const MODEL_SEED: u64 = 42;
/// Where the weight-bit campaigns deploy the victim's weight image.
const WEIGHT_BASE: u64 = 0x400;

/// Runs `iterations` of one weight-bit `attack` (`progressive-bfa` or
/// `random-flip`) against the seed-42 `model` victim deployed at
/// `0x400`, measuring accuracy on `eval_batch` held-out samples, and
/// returns the `(iteration, accuracy %)` curve. The victim goes on the
/// tiny test device when its image fits, on the paper-scale geometry
/// otherwise.
fn weight_campaign(
    model: ModelKind,
    attack: AttackSpec,
    iterations: usize,
    eval_batch: usize,
) -> Vec<(f64, f64)> {
    let tiny = GeometrySpec::Tiny.config();
    let image_end = WEIGHT_BASE + model.victim(MODEL_SEED).model.total_weights() as u64;
    let geometry = if image_end <= tiny.dram.geometry.capacity_bytes() {
        GeometrySpec::Tiny
    } else {
        GeometrySpec::Paper
    };
    Scenario::builder()
        .geometry(geometry)
        .victim(VictimSpec::model(model, MODEL_SEED, WEIGHT_BASE))
        .attack(attack)
        .budget(Budget { max_activations: 0, check_interval: 1, iterations })
        .eval_batch(eval_batch)
        .build()
        .expect("weight campaign scenario builds")
        .run()
        .expect("weight campaign scenario runs")
        .curve
}

/// Runs every experiment at `fidelity` and renders them in paper
/// order: the text `examples/paper_figures.rs` prints, ending with the
/// scenario catalog and the [`defense_grid`] CSV.
///
/// # Errors
///
/// Propagates the first failing scenario of the simulator-backed
/// experiments ([`pta`], [`overhead_inference`], [`ablation`],
/// [`defense_grid`]).
pub fn render(fidelity: Fidelity) -> Result<String, SimError> {
    let mut out = format!("running all paper experiments at {fidelity:?} fidelity\n\n");
    let mut put = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    put(fig1b::run().to_string());
    put(mc_variation::run(fidelity).to_string());
    put(table1::run().to_string());
    put(fig1a::run(fidelity).render());
    put(fig7a::run(fidelity).render());
    put(fig7b::run().to_string());
    for panel in fig8::run(fidelity) {
        put(panel.render());
    }
    put(table2::run(fidelity).to_string());
    put(pta::run()?.to_string());
    put(overhead_inference::run()?.to_string());
    put(ablation::run()?.to_string());
    put(generations::run().to_string());
    put("scenario catalog (run any with sim::find(name); every entry is a spec file):".into());
    for entry in dlk_sim::catalog() {
        put(format!("  {:<28} {:<20} {}", entry.name, entry.artifact, entry.description));
    }
    // The channel × defense grid through the parallel sweep runner —
    // the CSV is the figure data CI surfaces in the job log.
    let grid = defense_grid::run()?;
    put("\nsweep: hammer campaign over {1,2,4 channels} x {none, dram-locker}".into());
    put(grid.to_string());
    put("-- begin defense_grid.csv --".into());
    out.push_str(&grid.to_csv());
    out.push_str("-- end defense_grid.csv --\ndone — compare against EXPERIMENTS.md\n");
    Ok(out)
}
