//! # dlk-dram — cycle-level DRAM device model
//!
//! This crate is the hardware substrate of the [DRAM-Locker (DATE 2024)]
//! reproduction. It models a DRAM device at command granularity:
//!
//! - [`geometry`]: banks / subarrays / rows / columns and typed addresses;
//! - [`timing`]: DDR timing parameters (tRCD, tRP, tRAS, CL, tREFI, ...)
//!   with presets for DDR3/DDR4/LPDDR4;
//! - [`command`]: the DRAM command set — `ACT`, `PRE`, `RD`, `WR`, `REF`
//!   plus the back-to-back `AAP` (activate-activate) RowClone command;
//! - [`bank`] / [`subarray`]: bank state machines and row storage,
//!   whose timed reads return [`ReadData`] (short reads held inline);
//! - [`device`]: the [`DramDevice`] tying everything together. Its
//!   timed accesses run each PRE/ACT/RD/WR through the one per-command
//!   step that [`DramDevice::issue`] wraps, without building a
//!   [`CommandResult`] per command;
//! - [`rowhammer`]: the disturbance engine — per-row activation counters
//!   within a refresh window; crossing the RowHammer threshold (TRH) flips
//!   bits in neighbouring victim rows;
//! - [`rowclone`]: fast in-DRAM row copy (RowClone FPM/PSM) used by
//!   DRAM-Locker's SWAP operation;
//! - [`generation`]: published TRH values per DRAM generation (Fig. 1(b)
//!   of the paper);
//! - [`stats`]: command counts, cycle accounting and energy.
//!
//! The model is *command-level*: the device keeps a cycle clock, per-bank
//! busy-until times and a functional copy of row data, which is sufficient
//! to reproduce the latency/energy/security behaviour evaluated in the
//! paper without RTL-level detail.
//!
//! ## Example
//!
//! ```
//! use dlk_dram::{DramConfig, DramDevice, RowAddr};
//!
//! # fn main() -> Result<(), dlk_dram::DramError> {
//! let mut dram = DramDevice::new(DramConfig::default());
//! let row = RowAddr::new(0, 0, 42);
//! dram.write_row(row, &vec![0xAB; dram.geometry().row_bytes])?;
//! let data = dram.read_row(row)?;
//! assert!(data.iter().all(|&b| b == 0xAB));
//! # Ok(())
//! # }
//! ```
//!
//! [DRAM-Locker (DATE 2024)]: https://arxiv.org/abs/2312.09027

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

pub mod bank;
pub mod command;
pub mod device;
pub mod error;
pub mod generation;
pub mod geometry;
pub mod rowclone;
pub mod rowhammer;
pub mod stats;
pub mod subarray;
pub mod timing;

pub use crate::bank::{Bank, BankState};
pub use crate::command::{CommandKind, CommandResult, DramCommand};
pub use crate::device::{DramConfig, DramDevice};
pub use crate::error::DramError;
pub use crate::generation::DramGeneration;
pub use crate::geometry::{BankId, DramGeometry, RowAddr, RowId, SubarrayId};
pub use crate::rowclone::{CloneMode, RowCloneEngine};
pub use crate::rowhammer::{DisturbanceEvent, FlipTarget, HammerTracker, RowHammerConfig};
pub use crate::stats::{DramStats, EnergyModel};
pub use crate::subarray::ReadData;
pub use crate::timing::TimingParams;
