//! # dlk-locker — the DRAM-Locker defense mechanism
//!
//! The paper's contribution: a general-purpose DRAM protection scheme
//! against adversarial DNN weight attacks (BFA and page-table attacks).
//!
//! The core idea: record the rows to protect in a small SRAM
//! [`LockTable`]. Any access to a locked row without an accompanying
//! unlock is *denied* — the instruction is skipped, so an attacker's
//! hammer loop never activates the row. When the legitimate program
//! needs a locked row's data, DRAM-Locker issues a **SWAP** — three
//! RowClone copies through a buffer row — moving the data to a free,
//! unlocked row and installing an address indirection. After a
//! configurable number of R/W instructions (1k in the paper) the data
//! is swapped back and re-locked.
//!
//! Modules:
//!
//! - [`locktable`]: the SRAM lock-table (no counters — that is the
//!   point; compare `dlk-defenses`' counter-based baselines);
//! - [`isa`]: the 16-bit instruction set of Fig. 5 (`AAP` row copy,
//!   `bnez`, `done`) plus a micro-program executor;
//! - [`swap`]: the three-copy SWAP engine with process-variation error
//!   injection;
//! - [`locker`]: [`DramLocker`], the
//!   [`DefenseHook`](dlk_memctrl::DefenseHook) gluing it all together;
//! - [`software`]: the user-facing protection API ("protect these
//!   weight ranges") that compiles address ranges into lock entries.
//!
//! ## Example
//!
//! ```
//! use dlk_locker::{DramLocker, LockerConfig};
//! use dlk_memctrl::{MemCtrlConfig, MemoryController, MemRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemCtrlConfig::tiny_for_tests();
//! let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
//! let row_bytes = config.dram.geometry.row_bytes as u64;
//! // Lock physical row 10 (byte range [10*row, 11*row)).
//! locker.lock_phys_range(10 * row_bytes, 11 * row_bytes)?;
//! let mut ctrl = MemoryController::with_hook(config, Box::new(locker));
//! // An attacker's access to the locked row is denied.
//! let denied = ctrl.service(MemRequest::read(10 * row_bytes, 1).untrusted())?;
//! assert!(denied.denied);
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
pub mod error;
pub mod isa;
pub mod locker;
pub mod locktable;
pub mod software;
pub mod stats;
pub mod swap;

pub use crate::config::{LockTarget, LockerConfig};
pub use crate::error::LockerError;
pub use crate::isa::{Instruction, IsaError, MicroExecutor, MicroProgram, RegFile};
pub use crate::locker::DramLocker;
pub use crate::locktable::LockTable;
pub use crate::software::ProtectionPlan;
pub use crate::stats::LockerStats;
pub use crate::swap::{SwapEngine, SwapOutcome};
