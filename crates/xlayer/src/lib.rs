//! # dlk-xlayer — the cross-layer evaluation framework
//!
//! The Rust analogue of the paper's Fig. 6 stack (Cadence Spectre →
//! Design Compiler → CACTI → gem5 → in-house optimizer):
//!
//! - [`circuit`]: circuit-level Monte-Carlo of the in-DRAM SWAP under
//!   process variation (§IV-D: 0%, 0.14%, 9.6% erroneous SWAPs at
//!   ±0/10/20%);
//! - [`cacti`]: an analytical SRAM/CAM/DRAM latency-energy-area model
//!   standing in for CACTI + Design Compiler;
//! - [`optimizer`]: combines memory statistics with the cost models
//!   into end-to-end performance parameters;
//! - [`report`]: the figure curves ([`Series`]); every table is a
//!   [`dlk_sim::metrics::Table`];
//! - [`experiments`]: one module per table/figure of the paper —
//!   `fig1a`, `fig1b`, `mc_variation` (§IV-D), `table1`, `fig7a`,
//!   `fig7b`, `fig8`, `table2` and `pta` (§V prose).
//!
//! ## Example
//!
//! ```
//! use dlk_xlayer::circuit::{MonteCarlo, VariationConfig};
//!
//! let mc = MonteCarlo::new(VariationConfig::default());
//! let report = mc.run(0.0, 2_000, 1);
//! assert_eq!(report.failures, 0); // no variation, no failed swaps
//! ```

pub mod cacti;
pub mod circuit;
pub mod experiments;
pub mod optimizer;
pub mod report;

pub use crate::cacti::{ArrayKind, ArrayModel, CactiModel};
pub use crate::circuit::{MonteCarlo, MonteCarloReport, VariationConfig};
pub use crate::optimizer::{Optimizer, PerformanceParams};
pub use crate::report::Series;
