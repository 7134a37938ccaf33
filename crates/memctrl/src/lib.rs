//! # dlk-memctrl — memory controller for the DRAM-Locker reproduction
//!
//! Sits between workloads (DNN inference, attackers) and the
//! [`dlk_dram`] device:
//!
//! - [`request`]: read/write memory requests addressed by physical byte
//!   address. A request carries no id, and a served read returns its
//!   bytes as a [`ReadData`](dlk_dram::ReadData), short reads inline,
//!   so serving a hammer loop's reads allocates nothing;
//! - [`mapping`]: the bank-sequential physical-address-to-DRAM-coordinate
//!   mapping;
//! - [`metrics`]: per-kind latency histograms and outcome counters
//!   ([`CtrlMetrics`]) recorded on the servicing path and exposable
//!   through a shared `dlk-obs` registry;
//! - [`pagetable`]: a DRAM-resident page table — PTEs live in DRAM rows,
//!   so RowHammer flips in those rows corrupt virtual-to-physical
//!   translation (the Page Table Attack surface);
//! - [`interpose`]: the [`DefenseHook`] trait that lets defenses such as
//!   DRAM-Locker allow / deny / redirect accesses and observe
//!   activations;
//! - [`controller`]: the [`MemoryController`] tying it together;
//! - [`pool`]: the process's one worker pool, which runs every
//!   parallel section of the workspace (DNN passes, shard replays,
//!   sweep workers).
//!
//! ## Example
//!
//! ```
//! use dlk_memctrl::{MemoryController, MemCtrlConfig, MemRequest};
//!
//! # fn main() -> Result<(), dlk_memctrl::MemCtrlError> {
//! let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
//! ctrl.service(MemRequest::write(0x40, vec![1, 2, 3]))?;
//! let done = ctrl.service(MemRequest::read(0x40, 3))?;
//! assert_eq!(done.data.as_deref(), Some(&[1u8, 2, 3][..]));
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

pub mod controller;
pub mod error;
pub mod interpose;
pub mod mapping;
pub mod metrics;
pub mod pagetable;
pub mod pool;
pub mod request;
pub mod trace;

pub use crate::controller::{CompletedRequest, ControllerStats, MemCtrlConfig, MemoryController};
pub use crate::error::MemCtrlError;
pub use crate::interpose::{DefenseHook, HookAction, NoDefense};
pub use crate::mapping::AddressMapper;
pub use crate::metrics::CtrlMetrics;
pub use crate::pagetable::{PageTable, PageTableConfig, Pte, VirtAddr};
pub use crate::request::{MemRequest, RequestKind};
pub use crate::trace::{Trace, TraceOp};
