//! # dlk-bench — benchmark harness
//!
//! One table-driven bench binary measures every layer of the stack:
//! `benches/layers.rs` holds a `const` table of `(layer, name, unit,
//! setup)` cases, [`harness`] runs it in interleaved rounds and writes
//! one `BENCH_<layer>.json` snapshot per layer ([`snapshot`]), and
//! [`diff`] compares two snapshots (`dlk bench diff`, the CI gate).
//!
//! ```sh
//! cargo bench -p dlk-bench --bench layers   # a baseline and CI's run alike
//! ```
//!
//! The paper's tables and figures themselves print from
//! `examples/paper_figures.rs`; the bench only times their
//! regeneration (the `figures` layer).

#![allow(
    clippy::disallowed_types,
    reason = "this crate measures wall time by design; clippy.toml bans the clock elsewhere (DLK003)"
)]

pub mod diff;
pub mod harness;
pub mod snapshot;
