//! Command statistics and energy accounting.

use crate::command::CommandKind;

/// Per-command energy model in picojoules.
///
/// Defaults follow the relative magnitudes reported for DDR4 and the
/// RowClone paper: an in-DRAM copy consumes roughly 74x less energy than
/// moving the same row over the memory channel (one ACT + row-of-RDs +
/// writeback), because the data never leaves the chip.
///
/// # Example
///
/// ```
/// use dlk_dram::{EnergyModel, CommandKind};
/// let e = EnergyModel::default();
/// assert!(e.energy_pj(CommandKind::Aap) < 100.0 * e.energy_pj(CommandKind::Rd));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of a row activation (pJ).
    pub act_pj: f64,
    /// Energy of a precharge (pJ).
    pub pre_pj: f64,
    /// Energy of a column read burst (pJ).
    pub rd_pj: f64,
    /// Energy of a column write burst (pJ).
    pub wr_pj: f64,
    /// Energy of one refresh command (pJ).
    pub ref_pj: f64,
    /// Energy of a RowClone AAP copy (pJ). One extra activation on top
    /// of a normal ACT; no channel transfer.
    pub aap_pj: f64,
    /// Background/static power per cycle (pJ/cycle), charged on advance.
    pub static_pj_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            act_pj: 909.0,
            pre_pj: 585.0,
            rd_pj: 470.0,
            wr_pj: 510.0,
            ref_pj: 19_000.0,
            aap_pj: 1_320.0, // two activations back-to-back, no I/O
            static_pj_per_cycle: 0.08,
        }
    }
}

impl EnergyModel {
    /// The DDR4 datasheet preset.
    ///
    /// Per-command energies derived with the Micron DDR4 power
    /// calculator methodology (`E = VDD · ΔIDD · t`) from the Micron
    /// MT40A1G8 DDR4-2400 datasheet at VDD = 1.2 V: one ACT–PRE cycle
    /// draws IDD0 − IDD3N ≈ 13 mA over tRC = 45.3 ns ≈ 0.7 nJ,
    /// apportioned ~60/40 between activation and precharge; a column
    /// read/write burst draws IDD4R/IDD4W − IDD3N ≈ 100/90 mA over
    /// 8 × tCK ≈ 6.7 ns plus I/O termination; one all-bank REF draws
    /// IDD5B − IDD3N ≈ 145 mA over tRFC = 350 ns ≈ 61 nJ spread over
    /// 8192 rows per tREFI tick ≈ 21 nJ per REF command at this scaled
    /// geometry; background power IDD3N ≈ 50 mA → 0.05 pJ/cycle
    /// per-bank share at 1.2 GHz.
    pub fn ddr4() -> Self {
        Self {
            act_pj: 420.0,
            pre_pj: 280.0,
            rd_pj: 800.0,
            wr_pj: 720.0,
            ref_pj: 21_000.0,
            aap_pj: 640.0, // two back-to-back ACTs, no I/O power
            static_pj_per_cycle: 0.05,
        }
    }

    /// The LPDDR4 datasheet preset.
    ///
    /// Same methodology from the Micron MT53B LPDDR4-3200 datasheet at
    /// VDD2 = 1.1 V / VDDQ = 0.6 V: mobile parts cut array voltage and
    /// especially I/O swing, so core operations cost ~30% less than
    /// DDR4 and read/write bursts less than half (sub-LVSTL signaling
    /// instead of POD12 termination); refresh is cheaper per command
    /// but issued twice as often (tREFW = 32 ms); deep power-down
    /// background current is an order of magnitude lower.
    pub fn lpddr4() -> Self {
        Self {
            act_pj: 300.0,
            pre_pj: 200.0,
            rd_pj: 350.0,
            wr_pj: 320.0,
            ref_pj: 14_000.0,
            aap_pj: 460.0,
            static_pj_per_cycle: 0.008,
        }
    }

    /// Energy in picojoules for one command of the given kind.
    pub fn energy_pj(&self, kind: CommandKind) -> f64 {
        match kind {
            CommandKind::Act => self.act_pj,
            CommandKind::Pre => self.pre_pj,
            CommandKind::Rd => self.rd_pj,
            CommandKind::Wr => self.wr_pj,
            CommandKind::Ref => self.ref_pj,
            CommandKind::Aap => self.aap_pj,
        }
    }
}

/// Aggregate statistics of a [`DramDevice`](crate::DramDevice).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Commands issued, indexed by [`CommandKind::index`].
    pub commands: [u64; CommandKind::COUNT],
    /// Total energy consumed, picojoules.
    pub energy_pj: f64,
    /// Total cycles elapsed on the device clock.
    pub cycles: u64,
    /// Total RowHammer disturbance events (victim-row corruptions).
    pub disturbances: u64,
    /// Total bit flips injected into stored data.
    pub bit_flips: u64,
    /// Number of row-buffer hits (RD/WR to the already-open row).
    pub row_buffer_hits: u64,
    /// Number of row-buffer misses (ACT needed before access).
    pub row_buffer_misses: u64,
}

impl DramStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one command of `kind`.
    pub fn record(&mut self, kind: CommandKind, energy_pj: f64) {
        self.commands[kind.index()] += 1;
        self.energy_pj += energy_pj;
    }

    /// Count of commands of a given kind.
    pub fn count(&self, kind: CommandKind) -> u64 {
        self.commands[kind.index()]
    }

    /// Total activations including the two implicit ACTs of each AAP.
    pub fn total_activations(&self) -> u64 {
        self.count(CommandKind::Act) + 2 * self.count(CommandKind::Aap)
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &DramStats) {
        for (n, other) in self.commands.iter_mut().zip(other.commands) {
            *n += other;
        }
        self.energy_pj += other.energy_pj;
        self.cycles = self.cycles.max(other.cycles);
        self.disturbances += other.disturbances;
        self.bit_flips += other.bit_flips;
        self.row_buffer_hits += other.row_buffer_hits;
        self.row_buffer_misses += other.row_buffer_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut stats = DramStats::new();
        stats.record(CommandKind::Act, 900.0);
        stats.record(CommandKind::Act, 900.0);
        stats.record(CommandKind::Rd, 400.0);
        assert_eq!(stats.count(CommandKind::Act), 2);
        assert_eq!(stats.count(CommandKind::Rd), 1);
        assert_eq!(stats.count(CommandKind::Wr), 0);
        assert!((stats.energy_pj - 2200.0).abs() < 1e-9);
    }

    #[test]
    fn aap_counts_double_activation() {
        let mut stats = DramStats::new();
        stats.record(CommandKind::Act, 0.0);
        stats.record(CommandKind::Aap, 0.0);
        assert_eq!(stats.total_activations(), 3);
    }

    #[test]
    fn lpddr4_is_cheaper_than_ddr4_per_command() {
        // The point of a mobile part: every operation, and especially
        // I/O (reads/writes) and background power, costs less.
        let (d, l) = (EnergyModel::ddr4(), EnergyModel::lpddr4());
        for kind in [
            CommandKind::Act,
            CommandKind::Pre,
            CommandKind::Rd,
            CommandKind::Wr,
            CommandKind::Ref,
            CommandKind::Aap,
        ] {
            assert!(l.energy_pj(kind) < d.energy_pj(kind), "{kind:?}");
        }
        assert!(l.static_pj_per_cycle < d.static_pj_per_cycle / 5.0);
        // LPDDR4's I/O saving is disproportionate: bursts cost less
        // than half, while core ops save ~30%.
        assert!(l.rd_pj < d.rd_pj / 2.0);
        assert!(l.act_pj > d.act_pj / 2.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DramStats::new();
        a.record(CommandKind::Act, 10.0);
        a.bit_flips = 2;
        let mut b = DramStats::new();
        b.record(CommandKind::Act, 5.0);
        b.record(CommandKind::Ref, 1.0);
        b.bit_flips = 3;
        a.merge(&b);
        assert_eq!(a.count(CommandKind::Act), 2);
        assert_eq!(a.count(CommandKind::Ref), 1);
        assert_eq!(a.bit_flips, 5);
        assert!((a.energy_pj - 16.0).abs() < 1e-9);
    }
}
