//! DRAM generations and their published RowHammer thresholds.
//!
//! Reproduces the data behind Fig. 1(b) of the paper (originally from
//! Kim et al., ISCA 2020 and the SRS paper): the minimum number of
//! activations to an aggressor row needed to flip a bit in a victim row,
//! per DRAM generation. The clear downward trend motivates DRAM-Locker.

use std::fmt;

/// A DRAM generation with a published RowHammer threshold (TRH).
///
/// # Example
///
/// ```
/// use dlk_dram::DramGeneration;
/// // LPDDR4 (new) needs ~4.5x fewer hammers than DDR3 (new).
/// let ratio = DramGeneration::Ddr3New.trh() as f64
///     / DramGeneration::Lpddr4New.trh() as f64;
/// assert!(ratio > 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DramGeneration {
    /// First-generation DDR3 modules.
    Ddr3Old,
    /// Late-production DDR3 modules.
    Ddr3New,
    /// First-generation DDR4 modules.
    Ddr4Old,
    /// Late-production DDR4 modules.
    Ddr4New,
    /// First-generation LPDDR4 modules.
    Lpddr4Old,
    /// Late-production LPDDR4 modules (threshold reported as a range,
    /// 4.8k–9k; [`DramGeneration::trh`] returns the conservative lower
    /// bound).
    Lpddr4New,
}

impl DramGeneration {
    /// All generations in Fig. 1(b) order.
    pub const ALL: [DramGeneration; 6] = [
        DramGeneration::Ddr3Old,
        DramGeneration::Ddr3New,
        DramGeneration::Ddr4Old,
        DramGeneration::Ddr4New,
        DramGeneration::Lpddr4Old,
        DramGeneration::Lpddr4New,
    ];

    /// RowHammer threshold: activations within one refresh window needed
    /// to disturb a neighbouring row (lower bound where a range was
    /// reported).
    pub fn trh(&self) -> u64 {
        match self {
            DramGeneration::Ddr3Old => 139_000,
            DramGeneration::Ddr3New => 22_400,
            DramGeneration::Ddr4Old => 17_500,
            DramGeneration::Ddr4New => 10_000,
            DramGeneration::Lpddr4Old => 16_800,
            DramGeneration::Lpddr4New => 4_800,
        }
    }

    /// Upper bound of the published TRH range (equal to [`trh`] when a
    /// single value was reported).
    ///
    /// [`trh`]: DramGeneration::trh
    pub fn trh_upper(&self) -> u64 {
        match self {
            DramGeneration::Lpddr4New => 9_000,
            other => other.trh(),
        }
    }

    /// Human-readable label matching the paper's table.
    pub fn label(&self) -> &'static str {
        match self {
            DramGeneration::Ddr3Old => "DDR3 (old)",
            DramGeneration::Ddr3New => "DDR3 (new)",
            DramGeneration::Ddr4Old => "DDR4 (old)",
            DramGeneration::Ddr4New => "DDR4 (new)",
            DramGeneration::Lpddr4Old => "LPDDR4 (old)",
            DramGeneration::Lpddr4New => "LPDDR4 (new)",
        }
    }
}

impl fmt::Display for DramGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_fig1b() {
        assert_eq!(DramGeneration::Ddr3Old.trh(), 139_000);
        assert_eq!(DramGeneration::Ddr3New.trh(), 22_400);
        assert_eq!(DramGeneration::Ddr4Old.trh(), 17_500);
        assert_eq!(DramGeneration::Ddr4New.trh(), 10_000);
        assert_eq!(DramGeneration::Lpddr4Old.trh(), 16_800);
        assert_eq!(DramGeneration::Lpddr4New.trh(), 4_800);
        assert_eq!(DramGeneration::Lpddr4New.trh_upper(), 9_000);
    }

    #[test]
    fn downward_trend_within_families() {
        assert!(DramGeneration::Ddr3New.trh() < DramGeneration::Ddr3Old.trh());
        assert!(DramGeneration::Ddr4New.trh() < DramGeneration::Ddr4Old.trh());
        assert!(DramGeneration::Lpddr4New.trh() < DramGeneration::Lpddr4Old.trh());
    }

    #[test]
    fn lpddr4_new_vs_ddr3_new_ratio_about_4_5x() {
        // The paper: "LPDDR4 (new) requires approximately 4.5 times fewer
        // hammering iterations" than DDR3 (new). 22_400 / 4_800 = 4.67.
        let ratio = DramGeneration::Ddr3New.trh() as f64 / DramGeneration::Lpddr4New.trh() as f64;
        assert!((4.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_contains_every_generation_once() {
        let set: std::collections::HashSet<_> = DramGeneration::ALL.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn upper_bound_never_below_lower() {
        for gen in DramGeneration::ALL {
            assert!(gen.trh_upper() >= gen.trh());
        }
    }
}
