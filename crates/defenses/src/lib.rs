//! # dlk-defenses — baseline RowHammer and DNN defenses
//!
//! Every mechanism DRAM-Locker is compared against in the paper:
//!
//! - [`traits`]: the [`RowTracker`] abstraction for counter-based
//!   trackers plus [`CounterDefenseHook`], which turns any tracker into
//!   a memory-controller defense issuing targeted row refreshes (TRR).
//!   Every tracker table is keyed through one fixed hasher, so a
//!   tracker mitigates alike in every process;
//! - [`graphene`]: Graphene's Misra-Gries heavy-hitter tracker, whose
//!   full table gives up its lowest entry;
//! - [`hydra`]: Hydra's hybrid group-counter + per-row-cache tracker;
//! - [`twice`]: TWiCE's pruned time-window counter table;
//! - [`counters`]: the exact counter-per-row tracker;
//! - [`rrs`]: Randomized Row-Swap and Secure Row-Swap — swap-based
//!   mitigations with logical-to-physical row remapping;
//! - [`shadow`]: SHADOW — intra-subarray row shuffling, the closest
//!   competitor in the paper (Fig. 7), with both a working hook and the
//!   analytical latency/defense-time model behind Fig. 7(a)/(b);
//! - [`overhead`]: the Table I hardware-overhead arithmetic for all ten
//!   frameworks at the 32 GB / 16-bank DDR4 configuration;
//! - [`pagetable_defenses`]: SoftTRR and PT-Guard — the §II page-table-
//!   only defenses whose narrow scope motivates a general-purpose
//!   lock-table;
//! - [`training`]: the training-based DNN defenses of Table II
//!   (piece-wise clustering, binary weights, capacity scaling, weight
//!   reconstruction, RA-BNN).

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

pub mod counters;
pub mod graphene;
pub mod hydra;
pub mod overhead;
pub mod pagetable_defenses;
pub mod rrs;
pub mod shadow;
pub mod training;
pub mod traits;
pub mod twice;

pub use crate::counters::CounterPerRow;
pub use crate::graphene::Graphene;
pub use crate::hydra::Hydra;
pub use crate::overhead::{table1, MemoryKind, Overhead, OverheadRow};
pub use crate::pagetable_defenses::{PtGuard, SoftTrr};
pub use crate::rrs::{RowSwapDefense, SwapPolicy};
pub use crate::shadow::{Shadow, ShadowModel};
pub use crate::training::{baseline_entry, dram_locker_entry, TableTwoEntry};
pub use crate::traits::{CounterDefenseHook, RowTracker};
pub use crate::twice::Twice;
