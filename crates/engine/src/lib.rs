//! # dlk-engine — sharded multi-channel execution with trace replay
//!
//! The execution layer between the Scenario API and the memory
//! controller: one [`ChannelShard`] per DRAM channel (its own
//! [`MemoryController`](dlk_memctrl::MemoryController), device and
//! mounted defense chain), a [`ChannelRouter`] distributing global
//! physical addresses across shards at row granularity, and a
//! [`ShardedEngine`] that replays a [`Trace`] on all shards — serially
//! in channel order, or in parallel over the process's worker
//! [`pool`](dlk_memctrl::pool) — and merges statistics and errors
//! deterministically.
//!
//! ```text
//!                    ┌────────────────────────────┐
//!   Trace op ──────► │ ChannelRouter (row % n)    │
//!                    └─────┬──────┬──────┬────────┘
//!                      ch0 ▼  ch1 ▼  ch2 ▼   …      one pool job each
//!                    ┌───────┐┌───────┐┌───────┐
//!                    │ Shard ││ Shard ││ Shard │     controller + device
//!                    │  + hook chain per channel │   + lock-table slice
//!                    └─────┬──────┬──────┬──────┘
//!                          ▼      ▼      ▼
//!                     deterministic merge (channel-id order)
//! ```
//!
//! **Determinism guarantee.** Shards share no state, each serves its
//! ops in trace order, and every merge — [`ReplayCounts`],
//! [`EngineSnapshot`], error selection — is performed in channel-id
//! order. A [`sharded`](EngineConfig::sharded) run is therefore
//! bit-identical to its
//! [`serial_reference`](EngineConfig::serial_reference); threads change
//! wall-clock time only.
//!
//! [`ShardedEngine::replay`] streams any trace through the router:
//! one [`Workload`] generates (sequential, strided, pointer-chase,
//! hammer loop, multi-tenant interleave), or one parsed from a trace
//! file via [`Trace::from_text`](dlk_memctrl::Trace::from_text).
//!
//! ```
//! use dlk_engine::{EngineConfig, ShardedEngine, Workload};
//! use dlk_memctrl::MemCtrlConfig;
//!
//! # fn main() -> Result<(), dlk_engine::EngineError> {
//! let mut engine =
//!     ShardedEngine::new(EngineConfig::sharded(2), MemCtrlConfig::tiny_for_tests())?;
//! let trace = Workload::Sequential { base: 0, len: 8, count: 64 }.trace();
//! assert_eq!(engine.replay(&trace)?.requests, 64);
//! // Row interleaving spread the stream over both shards.
//! assert!(engine.snapshot().per_channel.iter().all(|s| s.served > 0));
//! # Ok(())
//! # }
//! ```

// DLK001: the request path returns typed errors instead of panicking,
// because a panic there takes down a whole sweep worker. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod config;
pub mod engine;
pub mod error;
pub mod route;
pub mod shard;
pub mod workload;

pub use crate::config::EngineConfig;
pub use crate::engine::{EngineMetrics, EngineSnapshot, ReplayCounts, ShardedEngine};
pub use crate::error::EngineError;
pub use crate::route::ChannelRouter;
pub use crate::shard::ChannelShard;
pub use crate::workload::Workload;

pub use dlk_memctrl::Trace;
