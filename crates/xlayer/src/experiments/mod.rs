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
//! reproduces the paper-scale run of `examples/paper_figures.rs` and
//! EXPERIMENTS.md.

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

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Small models and budgets — seconds, for tests.
    Fast,
    /// Paper-scale models and budgets — minutes, for `paper_figures`.
    #[default]
    Full,
}
