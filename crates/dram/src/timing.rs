//! DDR timing parameters.
//!
//! All values are in memory-clock cycles; [`TimingParams::clock_ghz`]
//! converts cycles to wall-clock time. Presets follow published datasheet
//! values for DDR4-2400 and LPDDR4-3200 (command-level
//! granularity — bus burst effects are folded into `cl`/`twr`).

/// DRAM timing parameters in clock cycles.
///
/// # Example
///
/// ```
/// use dlk_dram::TimingParams;
/// let t = TimingParams::ddr4_2400();
/// assert!(t.trcd > 0 && t.trp > 0);
/// // An ACT→RD→PRE round trip costs at least tRAS + tRP.
/// assert!(t.row_cycle() >= t.tras + t.trp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Memory clock frequency in GHz (cycle time = 1/clock_ghz ns).
    pub clock_ghz: f64,
    /// ACT-to-RD/WR delay (row to column command delay).
    pub trcd: u64,
    /// PRE-to-ACT delay (row precharge time).
    pub trp: u64,
    /// Minimum ACT-to-PRE delay (row active time).
    pub tras: u64,
    /// Column access latency (CAS latency).
    pub cl: u64,
    /// Write recovery time (last write data to PRE).
    pub twr: u64,
    /// Average refresh command interval.
    pub trefi: u64,
    /// Refresh cycle time (duration of one REF command).
    pub trfc: u64,
    /// Refresh window — time in which every row is refreshed once.
    /// RowHammer activation counters reset on this period (Tref in the
    /// paper, 64 ms for DDR4 at normal temperature).
    pub trefw: u64,
    /// Four-activate window.
    pub tfaw: u64,
    /// ACT-to-ACT delay, different banks.
    pub trrd: u64,
    /// Column-to-column delay.
    pub tccd: u64,
    /// Extra cycles for the second ACT of a RowClone AAP pair
    /// (back-to-back ACT without PRE; RowClone completes in < 100 ns).
    pub taap: u64,
}

impl TimingParams {
    /// DDR4-2400 timing (1.2 GHz clock). The paper's evaluation target.
    pub fn ddr4_2400() -> Self {
        Self {
            clock_ghz: 1.2,
            trcd: 16,
            trp: 16,
            tras: 39,
            cl: 16,
            twr: 18,
            trefi: 9360,
            trfc: 420,
            trefw: 76_800_000, // 64 ms at 1.2 GHz
            tfaw: 26,
            trrd: 6,
            tccd: 4,
            taap: 6,
        }
    }

    /// LPDDR4-3200 timing (1.6 GHz clock).
    pub fn lpddr4_3200() -> Self {
        Self {
            clock_ghz: 1.6,
            trcd: 29,
            trp: 29,
            tras: 67,
            cl: 28,
            twr: 32,
            trefi: 6248,
            trfc: 448,
            trefw: 51_200_000, // 32 ms at 1.6 GHz (LPDDR4 refreshes faster)
            tfaw: 64,
            trrd: 16,
            tccd: 8,
            taap: 8,
        }
    }

    /// The canonical DDR4 datasheet preset (DDR4-2400, 1.2 GHz clock).
    ///
    /// Constants follow JEDEC JESD79-4B speed bin DDR4-2400R and the
    /// Micron MT40A1G8 (8 Gb, x8) datasheet: tRCD = tRP = 13.32 ns
    /// (16 cycles), tRAS = 32 ns (39), CL = 16, tWR = 15 ns (18),
    /// tREFI = 7.8 µs (9360), tRFC = 350 ns (420), tREFW = 64 ms,
    /// tFAW = 21 ns (26), tRRD_L = 4.9 ns (6), tCCD_L = 4.
    pub fn ddr4() -> Self {
        Self::ddr4_2400()
    }

    /// The canonical LPDDR4 datasheet preset (LPDDR4-3200, 1.6 GHz
    /// clock).
    ///
    /// Constants follow JEDEC JESD209-4B and the Micron MT53B (8 Gb
    /// per channel) datasheet: tRCD = 18 ns (29 cycles), tRPpb = 18 ns
    /// (29), tRAS = 42 ns (67), RL = 28, tWR = 20 ns (32), tREFI ≈
    /// 3.9 µs (6248), tRFCab = 280 ns (448), tREFW = 32 ms (LPDDR4
    /// refreshes a bank group twice as often as DDR4 at standard
    /// temperature), tFAW = 40 ns (64), tRRD = 10 ns (16), tCCD = 8.
    pub fn lpddr4() -> Self {
        Self::lpddr4_3200()
    }

    /// Nanoseconds per clock cycle.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Converts a cycle count to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_ns()
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_s(&self, cycles: u64) -> f64 {
        self.cycles_to_ns(cycles) * 1e-9
    }

    /// Row cycle time tRC = tRAS + tRP: the minimum period between two
    /// ACTs to the same bank, i.e. the cost of one hammer iteration.
    pub fn row_cycle(&self) -> u64 {
        self.tras + self.trp
    }

    /// Latency in cycles of a full RowClone copy (ACT–ACT–PRE): the
    /// source activate, the back-to-back destination activate, then a
    /// precharge. Completes in well under 100 ns on DDR4, matching the
    /// RowClone paper.
    pub fn rowclone_cycles(&self) -> u64 {
        self.tras + self.taap + self.trp
    }

    /// Number of hammer (ACT+PRE) iterations that fit in one refresh
    /// window — the upper bound on what an attacker can do per window.
    pub fn hammers_per_window(&self) -> u64 {
        self.trefw / self.row_cycle()
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowclone_under_100ns_on_ddr4() {
        let t = TimingParams::ddr4_2400();
        assert!(t.cycles_to_ns(t.rowclone_cycles()) < 100.0);
    }

    #[test]
    fn refresh_window_is_64ms_on_ddr4() {
        let t = TimingParams::ddr4_2400();
        let ms = t.cycles_to_s(t.trefw) * 1e3;
        assert!((ms - 64.0).abs() < 0.1, "got {ms} ms");
    }

    #[test]
    fn hammers_per_window_exceeds_ddr4_trh() {
        // An attacker must be able to exceed DDR4 (new) TRH = 10k within
        // one refresh window, otherwise RowHammer would be impossible.
        let t = TimingParams::ddr4_2400();
        assert!(t.hammers_per_window() > 10_000);
    }

    #[test]
    fn presets_are_distinct() {
        assert_ne!(TimingParams::ddr4_2400(), TimingParams::lpddr4_3200());
    }

    #[test]
    fn datasheet_presets_match_their_speed_grades() {
        assert_eq!(TimingParams::ddr4(), TimingParams::ddr4_2400());
        assert_eq!(TimingParams::lpddr4(), TimingParams::lpddr4_3200());
        // The cited nanosecond values survive the cycle conversion.
        let d = TimingParams::ddr4();
        assert!((d.cycles_to_ns(d.trcd) - 13.32).abs() < 0.02);
        assert!((d.cycles_to_ns(d.trfc) - 350.0).abs() < 1.0);
        let l = TimingParams::lpddr4();
        assert!((l.cycles_to_ns(l.trcd) - 18.0).abs() < 0.2);
        // LPDDR4 halves the refresh window (32 ms vs DDR4's 64 ms).
        assert!((l.cycles_to_s(l.trefw) * 1e3 - 32.0).abs() < 0.1);
    }

    #[test]
    fn cycle_conversions_are_consistent() {
        let t = TimingParams::ddr4_2400();
        let ns = t.cycles_to_ns(1200);
        assert!((ns - 1000.0).abs() < 1e-9); // 1200 cycles at 1.2 GHz = 1 µs
        assert!((t.cycles_to_s(1200) - 1e-6).abs() < 1e-15);
    }
}
