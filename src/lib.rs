//! # dram-locker — reproduction of DRAM-Locker (DATE 2024)
//!
//! Facade crate re-exporting the full workspace:
//!
//! - [`dram`] — cycle-level DRAM device with RowClone and RowHammer;
//! - [`memctrl`] — memory controller, address mapping, page tables;
//! - [`locker`] — the DRAM-Locker defense (lock-table + in-DRAM SWAP);
//! - [`dnn`] — quantized DNN substrate (training, inference, DRAM layout);
//! - [`attacks`] — BFA, random-flip and page-table attacks;
//! - [`defenses`] — SHADOW and other baseline RowHammer defenses;
//! - [`engine`] — sharded multi-channel execution engine with
//!   trace-driven workload replay (shards dealt over the process's one
//!   worker pool, deterministic merge);
//! - [`sim`] — the unified Scenario API: builder-driven pipelines
//!   composing victims, attacks and defenses into one run;
//! - [`xlayer`] — cross-layer evaluation framework and paper experiments;
//! - [`obs`] — zero-dependency observability: counters, log2
//!   histograms, span traces and the registry every layer reports into.
//!
//! ## Quickstart
//!
//! Every experiment is one `Scenario`: pick a victim, an attack and a
//! defense, and run. An attack is one [`sim::AttackSpec`] value (here
//! the RowHammer campaign, [`sim::AttackSpec::Hammer`]). A defense is
//! one [`sim::DefenseSpec`] value — DRAM-Locker in the paper's
//! configuration is [`sim::DefenseSpec::locker_adjacent`], and each
//! baseline has its own constructor — mounted on the memory
//! controller's request path.
//!
//! ```
//! use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, VictimSpec};
//!
//! # fn main() -> Result<(), dram_locker::sim::SimError> {
//! let mut run = Scenario::builder()
//!     .label("quickstart")
//!     .victim(VictimSpec::row(20, 0xA5))
//!     .attack(AttackSpec::Hammer { bit: 7 })
//!     .defense(DefenseSpec::locker_adjacent())
//!     .budget(Budget { max_activations: 1_000, check_interval: 8, iterations: 1 })
//!     .build()?;
//! let report = run.run()?;
//! assert!(report.fully_denied(), "every hammer access was denied");
//! assert_eq!(report.victims[0].data_intact, Some(true));
//! # Ok(())
//! # }
//! ```
//!
//! The named attack × defense scenarios of the paper's evaluation are
//! enumerable via [`sim::catalog()`].
//!
//! ## Scaling out
//!
//! Multi-channel geometries run each channel on its own shard —
//! dealt over the worker pool, merged deterministically:
//!
//! ```
//! use dram_locker::sim::{AttackSpec, EngineConfig, Scenario, VictimSpec, Workload};
//!
//! # fn main() -> Result<(), dram_locker::sim::SimError> {
//! let mut run = Scenario::builder()
//!     .engine(EngineConfig::sharded(2))
//!     .victim_on(VictimSpec::row(20, 0xA5), 0)
//!     .victim_on(VictimSpec::row(20, 0x5A), 1)
//!     .attack(AttackSpec::replay(Workload::Sequential { base: 0, len: 8, count: 256 }))
//!     .build()?;
//! let report = run.run()?;
//! assert_eq!(report.channels, 2);
//! assert!(!report.harmed());
//! # Ok(())
//! # }
//! ```
//!
//! ## Specs, sweeps, metrics
//!
//! Every scenario — including each catalog entry — is a declarative
//! [`sim::ScenarioSpec`] with a line-oriented spec-file codec
//! ([`sim::ScenarioSpec::to_text`] / [`sim::ScenarioSpec::from_text`]);
//! [`sim::Scenario::from_spec`] is the one construction path and the
//! builder above is sugar over it. Grids expand through
//! [`sim::sweep::SweepGrid`], run across worker threads through
//! [`sim::sweep::SweepRunner`] (bit-identical to serial) and export
//! CSV/markdown through [`sim::metrics::Table`].

pub use dlk_attacks as attacks;
pub use dlk_cli as cli;
pub use dlk_defenses as defenses;
pub use dlk_dnn as dnn;
pub use dlk_dram as dram;
pub use dlk_engine as engine;
pub use dlk_locker as locker;
pub use dlk_memctrl as memctrl;
pub use dlk_obs as obs;
pub use dlk_sim as sim;
pub use dlk_xlayer as xlayer;
