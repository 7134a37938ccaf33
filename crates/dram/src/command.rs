//! The DRAM command set.
//!
//! Besides the standard `ACT`/`PRE`/`RD`/`WR`/`REF` commands, the model
//! includes the RowClone `AAP` (Activate-Activate-Precharge) command pair
//! used by DRAM-Locker's SWAP: two back-to-back activations without an
//! intervening precharge copy the source row through the sense amplifiers
//! into the destination row.

use std::fmt;

use crate::geometry::RowAddr;
use crate::rowhammer::DisturbanceEvent;

/// A command issued to the DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Activate (open) a row: latch it into the bank's row buffer.
    Act(RowAddr),
    /// Precharge (close) the open row of a bank.
    Pre(u16),
    /// Read a burst from the open row at byte offset `col`.
    Rd {
        /// Bank to read from (its open row supplies the data).
        bank: u16,
        /// Byte offset within the row.
        col: usize,
    },
    /// Write a burst to the open row at byte offset `col`.
    Wr {
        /// Bank to write to.
        bank: u16,
        /// Byte offset within the row.
        col: usize,
    },
    /// Auto-refresh: refresh the next group of rows in every bank.
    Ref,
    /// RowClone AAP: copy `src` into `dst` with back-to-back activations.
    /// Fast-Parallel-Mode requires both rows to share a subarray.
    Aap {
        /// Source row (copied out of).
        src: RowAddr,
        /// Destination row (overwritten).
        dst: RowAddr,
    },
}

impl DramCommand {
    /// The kind of this command, for stats bucketing.
    pub fn kind(&self) -> CommandKind {
        match self {
            DramCommand::Act(_) => CommandKind::Act,
            DramCommand::Pre(_) => CommandKind::Pre,
            DramCommand::Rd { .. } => CommandKind::Rd,
            DramCommand::Wr { .. } => CommandKind::Wr,
            DramCommand::Ref => CommandKind::Ref,
            DramCommand::Aap { .. } => CommandKind::Aap,
        }
    }

    /// The bank this command targets, if any (REF targets all banks).
    pub fn bank(&self) -> Option<u16> {
        match self {
            DramCommand::Act(addr) => Some(addr.bank),
            DramCommand::Pre(bank) => Some(*bank),
            DramCommand::Rd { bank, .. } | DramCommand::Wr { bank, .. } => Some(*bank),
            DramCommand::Ref => None,
            DramCommand::Aap { src, .. } => Some(src.bank),
        }
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramCommand::Act(addr) => write!(f, "ACT {addr}"),
            DramCommand::Pre(bank) => write!(f, "PRE b{bank}"),
            DramCommand::Rd { bank, col } => write!(f, "RD b{bank}+{col}"),
            DramCommand::Wr { bank, col } => write!(f, "WR b{bank}+{col}"),
            DramCommand::Ref => f.write_str("REF"),
            DramCommand::Aap { src, dst } => write!(f, "AAP {src} -> {dst}"),
        }
    }
}

/// Command categories used for statistics and energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommandKind {
    /// Row activate.
    Act,
    /// Row precharge.
    Pre,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Auto refresh.
    Ref,
    /// RowClone activate-activate copy.
    Aap,
}

impl CommandKind {
    /// Number of command kinds — the length of per-kind count arrays.
    pub const COUNT: usize = 6;

    /// Dense index into per-kind count arrays, in [`CommandKind::ALL`]
    /// order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All command kinds, in [`CommandKind::index`] order.
    pub const ALL: [CommandKind; CommandKind::COUNT] = [
        CommandKind::Act,
        CommandKind::Pre,
        CommandKind::Rd,
        CommandKind::Wr,
        CommandKind::Ref,
        CommandKind::Aap,
    ];
}

/// Outcome of issuing a command to the device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommandResult {
    /// Cycle at which the command started executing (after any bank
    /// busy-until stall).
    pub start_cycle: u64,
    /// Cycle at which the bank becomes available again.
    pub done_cycle: u64,
    /// Energy consumed, picojoules.
    pub energy_pj: f64,
    /// RowHammer disturbance events triggered by this command (bit flips
    /// injected into victim rows).
    pub disturbances: Vec<DisturbanceEvent>,
}

impl CommandResult {
    /// Latency of the command in cycles.
    pub fn latency(&self) -> u64 {
        self.done_cycle - self.start_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_maps_every_variant() {
        let row = RowAddr::new(0, 0, 0);
        assert_eq!(DramCommand::Act(row).kind(), CommandKind::Act);
        assert_eq!(DramCommand::Pre(0).kind(), CommandKind::Pre);
        assert_eq!(DramCommand::Rd { bank: 0, col: 0 }.kind(), CommandKind::Rd);
        assert_eq!(DramCommand::Wr { bank: 0, col: 0 }.kind(), CommandKind::Wr);
        assert_eq!(DramCommand::Ref.kind(), CommandKind::Ref);
        assert_eq!(DramCommand::Aap { src: row, dst: row }.kind(), CommandKind::Aap);
    }

    #[test]
    fn index_follows_all_order() {
        for (at, kind) in CommandKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), at, "{kind:?}");
        }
    }

    #[test]
    fn bank_of_ref_is_none() {
        assert_eq!(DramCommand::Ref.bank(), None);
        assert_eq!(DramCommand::Pre(3).bank(), Some(3));
    }

    #[test]
    fn display_is_readable() {
        let cmd = DramCommand::Aap { src: RowAddr::new(0, 1, 2), dst: RowAddr::new(0, 1, 3) };
        assert_eq!(cmd.to_string(), "AAP b0.s1.r2 -> b0.s1.r3");
    }

    #[test]
    fn latency_is_done_minus_start() {
        let result = CommandResult { start_cycle: 10, done_cycle: 25, ..Default::default() };
        assert_eq!(result.latency(), 15);
    }
}
