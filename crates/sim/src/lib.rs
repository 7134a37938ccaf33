//! # dlk-sim — the unified Scenario API
//!
//! One builder-driven pipeline for every attack/defense experiment in
//! the workspace:
//!
//! ```text
//! Scenario::builder()
//!     .geometry(..)   // GeometrySpec preset (device + mapping + scheduling)
//!     .victim(..)     // raw rows, a deployed model, or a paged model
//!     .attack(..)     // any `AttackSpec`
//!     .defense(..)    // any `DefenseSpec`, stackable
//!     .budget(..)     // activations / iterations
//!     .build()?       // deploys victims, mounts defenses
//!     .run()?         // -> RunReport
//! ```
//!
//! Attacks and defenses are uniformly *assignable* data. Every attack is
//! one [`AttackSpec`] value: the RowHammer campaign
//! ([`AttackSpec::Hammer`]), the progressive bit search
//! ([`AttackSpec::ProgressiveBfa`], [`AttackSpec::BfaHammer`]), random
//! flips ([`AttackSpec::RandomFlip`]), the page table attack
//! ([`AttackSpec::PageTable`]) and benign traffic (inference streams,
//! weight fetches and trace replays); a built scenario runs it through
//! one `match`, against the victim [`AttackSpec::check_victim`] names.
//! Every defense is one [`DefenseSpec`] value: DRAM-Locker
//! ([`DefenseSpec::locker_adjacent`]) and every baseline in
//! `dlk-defenses` (Graphene, Hydra, TWiCE, counter-per-row, RRS/SRS,
//! SHADOW). [`DefenseSpec::mount`] builds its controller hook on each
//! channel; stacked defenses share one [`HookChain`]. The unified
//! [`RunReport`] carries accuracy deltas, denied/landed flips, cycles,
//! energy and each hook's [`actions`](dlk_memctrl::DefenseHook::actions)
//! count.
//!
//! ## Paper-figure → catalog map
//!
//! [`catalog()`] enumerates the named attack × defense scenarios; each
//! maps to a paper artifact:
//!
//! | Catalog scenario | Paper artifact |
//! |------------------|----------------|
//! | `hammer-vs-none` | Fig. 4 premise (undefended flip) |
//! | `hammer-vs-dram-locker` | Fig. 4(d) lock-table denial |
//! | `hammer-vs-{graphene,hydra,twice,counter-per-row,rrs,srs}` | Table I baselines |
//! | `hammer-vs-shadow` | Fig. 7 closest competitor |
//! | `bfa-vs-none` / `bfa-vs-dram-locker` | Fig. 8 accuracy curves |
//! | `cnn-bfa-vs-none` / `cnn-bfa-vs-dram-locker` | Fig. 8 on the ResNet-20-shaped CNN |
//! | `cnn-bfa-hammer-vs-dram-locker` | Fig. 4(d) against conv kernels |
//! | `cnn-inference-2ch[-vs-dram-locker]` | CNN weight fetch on the sharded engine |
//! | `random-vs-none` | Fig. 1(a) random baseline |
//! | `pta-vs-none` / `pta-vs-dram-locker` | §V page-table attack |
//! | `inference-vs-dram-locker` | Table II prose (victim overhead) |
//!
//! ```
//! use dlk_sim::catalog;
//!
//! let entry = dlk_sim::find("hammer-vs-dram-locker").unwrap();
//! let report = entry.scenario().build().unwrap().run().unwrap();
//! assert!(report.fully_denied());
//! assert!(catalog().len() >= 6);
//! ```
//!
//! ## Specs and sweeps
//!
//! Every scenario is *data*: a [`ScenarioSpec`] with enum-keyed
//! [`AttackSpec`]/[`DefenseSpec`]/[`VictimSpec`] parts, a line-oriented
//! [`to_text`](ScenarioSpec::to_text)/[`from_text`](ScenarioSpec::from_text)
//! codec (the on-disk spec-file format) and
//! [`Scenario::from_spec`] as the one construction path, which refuses
//! a spec that breaks one of the rules [`ScenarioSpec::check`] states
//! (the [`check`] module; `dlk check` prints them). Grids expand
//! through [`sweep::SweepGrid`], execute on worker threads through
//! [`sweep::SweepRunner`] (results deterministic, bit-identical to
//! serial) and export through [`metrics::Table`]:
//!
//! ```
//! use dlk_sim::sweep::{SweepGrid, SweepRunner};
//! use dlk_sim::{metrics, DefenseSpec};
//!
//! let specs = SweepGrid::over(dlk_sim::find("hammer-vs-none").unwrap().spec)
//!     .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
//!     .expand();
//! let reports = SweepRunner::parallel().run_reports(&specs).unwrap();
//! println!("{}", metrics::Table::from_reports(&reports).to_csv());
//! ```

mod attack;
pub mod catalog;
pub mod check;
pub mod error;
pub mod metrics;
pub mod mitigation;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod victim;

pub use crate::catalog::{catalog, find, CatalogEntry, Expected};
pub use crate::check::{Finding, RuleCode, Severity};
pub use crate::error::SimError;
pub use crate::mitigation::HookChain;
pub use crate::report::{MitigationReport, RunReport, VictimReport};
pub use crate::scenario::{Budget, Scenario, ScenarioBuilder, ScenarioRun};
pub use crate::spec::{AttackSpec, DefenseSpec, GeometrySpec, ScenarioSpec};
pub use crate::sweep::{JobError, JobOutcome, JobStatus, SweepGrid, SweepResult, SweepRunner};
pub use crate::victim::{DeployedVictim, VictimSpec};

pub use dlk_dnn::models::ModelKind;
pub use dlk_engine::{ChannelRouter, EngineConfig, ShardedEngine, Workload};
/// The observability layer, re-exported so front-ends (the `dlk` CLI,
/// the serve daemon) can build registries and span recorders without a
/// direct `dlk-obs` dependency.
pub use dlk_obs as obs;
