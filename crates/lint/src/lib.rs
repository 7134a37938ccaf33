//! `dlk-lint`: the scenario-spec semantic analyzer.
//!
//! [`analyze`] validates parsed [`ScenarioSpec`](dlk_sim::ScenarioSpec)s
//! without running them — channel ranges, duplicate labels, degenerate
//! budgets, target indices, duplicate mitigations (DLK101–DLK105).
//! `dlk check` prints its findings, and `dlk run` and `dlk sweep` refuse
//! a spec with an error-severity one. Findings ([`diag`]) carry stable
//! rule codes and `file:line:col` spans, and render as an aligned text
//! listing.
//!
//! The workspace's source invariants (DLK001–DLK005) are not checked
//! here: clippy enforces three of them through lint attributes and the
//! root `clippy.toml`, and a unit test each covers the other two.

pub mod analyze;
pub mod diag;

pub use diag::{Diagnostic, Report, RuleCode, Severity};
