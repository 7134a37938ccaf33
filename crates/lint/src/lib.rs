//! `dlk-lint`: the spec checks that concern files, behind `dlk check`.
//!
//! The rules a single spec must meet (DLK101, DLK103–DLK105) live in
//! `dlk_sim::check`, where every scenario build applies them. [`analyze`]
//! adds DLK102 (duplicate labels across a spec list) and anchors each
//! finding at its record's `file:line:col`; [`diag`] collects the
//! findings into the [`Report`] that `dlk check` prints as an aligned
//! text listing.
//!
//! The workspace's source invariants (DLK001–DLK005) are not checked
//! here: clippy enforces three of them through lint attributes and the
//! root `clippy.toml`, and a unit test each covers the other two.

pub mod analyze;
pub mod diag;

pub use diag::{Diagnostic, Report};
