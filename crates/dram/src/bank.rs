//! Bank state machine.
//!
//! Each bank is either precharged (`Idle`) or has one row latched in its
//! row buffer (`Active`). The state machine enforces legal command
//! ordering: `ACT` only from `Idle`, `RD`/`WR`/`PRE` only from `Active`.
//! Timing is tracked with a `busy_until` cycle per bank.

use crate::error::DramError;
use crate::geometry::RowAddr;
use crate::timing::TimingParams;

/// The activation state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// All rows closed; bit-lines precharged to VDD/2.
    Idle,
    /// A row is open in the row buffer.
    Active {
        /// The open row (subarray-local address within this bank).
        open_row: RowAddr,
    },
}

/// One DRAM bank: state machine plus availability bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Bank {
    state: BankState,
    busy_until: u64,
    /// Earliest cycle at which a precharge may follow the last activate
    /// (enforces tRAS).
    pre_allowed_at: u64,
}

impl Bank {
    /// Creates an idle bank available at cycle 0.
    pub fn new() -> Self {
        Self { state: BankState::Idle, busy_until: 0, pre_allowed_at: 0 }
    }

    /// Current state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowAddr> {
        match self.state {
            BankState::Idle => None,
            BankState::Active { open_row } => Some(open_row),
        }
    }

    /// Cycle at which the bank can accept its next command.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Activates `row` starting no earlier than `now`.
    ///
    /// Returns `(start, done)` cycles: the command begins at
    /// `max(now, busy_until)` and the bank accepts column commands tRCD
    /// later.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalCommand`] if a row is already open.
    pub fn activate(
        &mut self,
        row: RowAddr,
        now: u64,
        timing: &TimingParams,
    ) -> Result<(u64, u64), DramError> {
        if let BankState::Active { open_row } = self.state {
            return Err(DramError::IllegalCommand {
                detail: format!("ACT {row} while {open_row} is open"),
            });
        }
        let start = now.max(self.busy_until);
        let done = start + timing.trcd;
        self.state = BankState::Active { open_row: row };
        self.busy_until = done;
        self.pre_allowed_at = start + timing.tras;
        Ok((start, done))
    }

    /// Precharges the bank starting no earlier than `now`, honouring tRAS.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalCommand`] if the bank is already idle.
    pub fn precharge(&mut self, now: u64, timing: &TimingParams) -> Result<(u64, u64), DramError> {
        if self.state == BankState::Idle {
            return Err(DramError::IllegalCommand { detail: "PRE on idle bank".to_owned() });
        }
        let start = now.max(self.busy_until).max(self.pre_allowed_at);
        let done = start + timing.trp;
        self.state = BankState::Idle;
        self.busy_until = done;
        Ok((start, done))
    }

    /// Performs a column read on the open row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalCommand`] if no row is open.
    pub fn read(&mut self, now: u64, timing: &TimingParams) -> Result<(u64, u64), DramError> {
        self.column_access(now, timing.cl, timing.tccd, "RD")
    }

    /// Performs a column write on the open row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalCommand`] if no row is open.
    pub fn write(&mut self, now: u64, timing: &TimingParams) -> Result<(u64, u64), DramError> {
        self.column_access(now, timing.twr, timing.tccd, "WR")
    }

    fn column_access(
        &mut self,
        now: u64,
        latency: u64,
        tccd: u64,
        what: &str,
    ) -> Result<(u64, u64), DramError> {
        if self.state == BankState::Idle {
            return Err(DramError::IllegalCommand { detail: format!("{what} on idle bank") });
        }
        let start = now.max(self.busy_until);
        let done = start + latency;
        // The bank can pipeline column commands every tCCD, so it frees
        // earlier than the data is returned.
        self.busy_until = start + tccd;
        Ok((start, done))
    }

    /// Second half of a RowClone AAP: re-activate `dst` while the source
    /// row's contents still drive the sense amplifiers. Legal only from
    /// `Active` (the first ACT of the pair opened the source row).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalCommand`] if the bank is idle.
    pub fn aap_second_act(
        &mut self,
        dst: RowAddr,
        now: u64,
        timing: &TimingParams,
    ) -> Result<(u64, u64), DramError> {
        if self.state == BankState::Idle {
            return Err(DramError::IllegalCommand {
                detail: "AAP second ACT on idle bank".to_owned(),
            });
        }
        let start = now.max(self.busy_until);
        let done = start + timing.taap;
        self.state = BankState::Active { open_row: dst };
        self.busy_until = done;
        self.pre_allowed_at = self.pre_allowed_at.max(start + timing.taap);
        Ok((start, done))
    }

    /// Forces the bank idle (used by refresh).
    pub fn force_idle(&mut self, available_at: u64) {
        self.state = BankState::Idle;
        self.busy_until = self.busy_until.max(available_at);
        self.pre_allowed_at = 0;
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn act_then_read_then_pre() {
        let t = timing();
        let mut bank = Bank::new();
        let row = RowAddr::new(0, 0, 5);
        let (s0, d0) = bank.activate(row, 0, &t).unwrap();
        assert_eq!((s0, d0), (0, t.trcd));
        assert_eq!(bank.open_row(), Some(row));
        let (s1, _) = bank.read(0, &t).unwrap();
        assert_eq!(s1, t.trcd); // stalled until ACT completes
        let (s2, d2) = bank.precharge(0, &t).unwrap();
        assert!(s2 >= t.tras, "PRE must honour tRAS, started at {s2}");
        assert_eq!(d2, s2 + t.trp);
        assert_eq!(bank.state(), BankState::Idle);
    }

    #[test]
    fn double_activate_rejected() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(RowAddr::new(0, 0, 1), 0, &t).unwrap();
        let err = bank.activate(RowAddr::new(0, 0, 2), 100, &t).unwrap_err();
        assert!(matches!(err, DramError::IllegalCommand { .. }));
    }

    #[test]
    fn read_on_idle_bank_rejected() {
        let t = timing();
        let mut bank = Bank::new();
        assert!(bank.read(0, &t).is_err());
        assert!(bank.write(0, &t).is_err());
        assert!(bank.precharge(0, &t).is_err());
    }

    #[test]
    fn hammer_iteration_costs_trc() {
        // One ACT+PRE pair takes exactly tRAS + tRP when issued
        // back-to-back — the cost of one hammer.
        let t = timing();
        let mut bank = Bank::new();
        let row = RowAddr::new(0, 0, 0);
        bank.activate(row, 0, &t).unwrap();
        let (_, done) = bank.precharge(0, &t).unwrap();
        assert_eq!(done, t.row_cycle());
    }

    #[test]
    fn aap_switches_open_row() {
        let t = timing();
        let mut bank = Bank::new();
        let src = RowAddr::new(0, 0, 1);
        let dst = RowAddr::new(0, 0, 2);
        bank.activate(src, 0, &t).unwrap();
        bank.aap_second_act(dst, 0, &t).unwrap();
        assert_eq!(bank.open_row(), Some(dst));
    }

    #[test]
    fn force_idle_resets_state() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(RowAddr::new(0, 0, 1), 0, &t).unwrap();
        bank.force_idle(1000);
        assert_eq!(bank.state(), BankState::Idle);
        assert!(bank.busy_until() >= 1000);
    }

    #[test]
    fn column_commands_pipeline_at_tccd() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(RowAddr::new(0, 0, 0), 0, &t).unwrap();
        let (s1, _) = bank.read(0, &t).unwrap();
        let (s2, _) = bank.read(0, &t).unwrap();
        assert_eq!(s2 - s1, t.tccd);
    }
}
