//! Table I: hardware overhead of RowHammer mitigation frameworks.
//!
//! All frameworks are evaluated at the paper's uniform configuration —
//! a 32 GB, 16-bank DDR4 module — so capacity and area overheads are
//! directly comparable. Where a framework's published sizing formula is
//! parametric (counters per row, tracker entries per bank, ...), the
//! formula is implemented here; the constants are chosen to match the
//! numbers the frameworks' own papers report, which are the numbers
//! Table I cites.

use std::fmt;

/// The kind of memory a framework spends its overhead in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Commodity DRAM (cheapest per bit).
    Dram,
    /// On-die SRAM.
    Sram,
    /// Content-addressable memory (most expensive per bit).
    Cam,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemoryKind::Dram => "DRAM",
            MemoryKind::Sram => "SRAM",
            MemoryKind::Cam => "CAM",
        })
    }
}

/// One memory budget of a framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Where the bytes live.
    pub kind: MemoryKind,
    /// Capacity overhead in bytes.
    pub bytes: u64,
}

impl Overhead {
    /// DRAM bytes.
    pub fn dram(bytes: u64) -> Self {
        Self { kind: MemoryKind::Dram, bytes }
    }
    /// SRAM bytes.
    pub fn sram(bytes: u64) -> Self {
        Self { kind: MemoryKind::Sram, bytes }
    }
    /// CAM bytes.
    pub fn cam(bytes: u64) -> Self {
        Self { kind: MemoryKind::Cam, bytes }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Framework name.
    pub framework: &'static str,
    /// Capacity overheads per memory kind.
    pub capacity: Vec<Overhead>,
    /// Area overhead: percent of the DRAM die, when reported that way.
    pub area_pct: Option<f64>,
    /// Area overhead: counter count, when reported that way.
    pub counters: Option<u64>,
}

impl OverheadRow {
    /// Total capacity overhead in bytes across all memory kinds.
    pub fn total_bytes(&self) -> u64 {
        self.capacity.iter().map(|o| o.bytes).sum()
    }

    /// Bytes in a specific memory kind.
    pub fn bytes_in(&self, kind: MemoryKind) -> u64 {
        self.capacity.iter().filter(|o| o.kind == kind).map(|o| o.bytes).sum()
    }
}

/// The evaluation configuration of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramSpec {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Banks in the module.
    pub banks: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
}

impl DramSpec {
    /// The paper's 32 GB, 16-bank DDR4 module with 8 KiB rows.
    pub fn paper() -> Self {
        Self { capacity_bytes: 32 << 30, banks: 16, row_bytes: 8 << 10 }
    }

    /// Total rows in the module.
    pub fn total_rows(&self) -> u64 {
        self.capacity_bytes / self.row_bytes
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.total_rows() / self.banks
    }
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Builds Table I for a DRAM module specification.
///
/// # Example
///
/// ```
/// use dlk_defenses::{table1, MemoryKind};
/// use dlk_defenses::overhead::DramSpec;
///
/// let rows = table1(&DramSpec::paper());
/// let locker = rows.iter().find(|r| r.framework == "DRAM-Locker").unwrap();
/// assert_eq!(locker.bytes_in(MemoryKind::Sram), 56 * 1024);
/// assert_eq!(locker.bytes_in(MemoryKind::Dram), 0);
/// ```
pub fn table1(spec: &DramSpec) -> Vec<OverheadRow> {
    let rows_per_bank = spec.rows_per_bank();
    vec![
        OverheadRow {
            framework: "Graphene",
            // Misra-Gries tables per bank: entries sized for the lowest
            // supported TRH; row tags in CAM, counters in SRAM. Entry
            // counts follow the Graphene paper's 0.53 MB CAM + 1.12 MB
            // SRAM total for this module size.
            capacity: vec![
                Overhead::cam((543 * KB * spec.banks) / 16),
                Overhead::sram((1147 * KB * spec.banks) / 16),
            ],
            area_pct: None,
            counters: Some(1),
        },
        OverheadRow {
            framework: "Hydra",
            // Group counters in SRAM + per-row counters spilled to DRAM.
            capacity: vec![Overhead::sram(56 * KB), Overhead::dram(4 * MB)],
            area_pct: None,
            counters: Some(1),
        },
        OverheadRow {
            framework: "TWiCE",
            // Pruned counter table: ~one entry per 1.3k rows of DRAM.
            capacity: vec![Overhead::sram(3236 * KB), Overhead::cam(1638 * KB)],
            area_pct: None,
            counters: Some(1),
        },
        OverheadRow {
            framework: "Counter per Row",
            // 16 bits per row across the module.
            capacity: vec![Overhead::dram(spec.total_rows() * 2)],
            area_pct: None,
            counters: Some(rows_per_bank / 256),
        },
        OverheadRow {
            framework: "Counter Tree",
            // 1024 counters per bank, 16 bytes of node state each.
            capacity: vec![Overhead::dram(1024 * spec.banks * 128)],
            area_pct: None,
            counters: Some(1024),
        },
        OverheadRow {
            framework: "RRS",
            // Remap table in DRAM + unreported SRAM tags.
            capacity: vec![Overhead::dram(4 * MB)],
            area_pct: None,
            counters: None,
        },
        OverheadRow {
            framework: "SRS",
            capacity: vec![Overhead::dram((126 * MB) / 100)],
            area_pct: None,
            counters: None,
        },
        OverheadRow {
            framework: "SHADOW",
            // One shuffle-tag bit group per subarray.
            capacity: vec![Overhead::dram((16 * MB) / 100)],
            area_pct: Some(0.6),
            counters: None,
        },
        OverheadRow {
            framework: "P-PIM",
            capacity: vec![Overhead::dram(4 * MB + MB / 8)],
            area_pct: Some(0.34),
            counters: None,
        },
        OverheadRow {
            framework: "DRAM-Locker",
            // The lock-table only: 56 KB SRAM, zero DRAM, no counters.
            capacity: vec![Overhead::dram(0), Overhead::sram(56 * KB)],
            area_pct: Some(0.02),
            counters: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table() -> Vec<OverheadRow> {
        table1(&DramSpec::paper())
    }

    #[test]
    fn locker_has_smallest_area_overhead() {
        let rows = paper_table();
        let locker_area =
            rows.iter().find(|r| r.framework == "DRAM-Locker").and_then(|r| r.area_pct).unwrap();
        for row in &rows {
            if let Some(area) = row.area_pct {
                assert!(locker_area <= area, "{} has smaller area", row.framework);
            }
        }
        assert!((locker_area - 0.02).abs() < 1e-9);
    }

    #[test]
    fn locker_uses_no_dram_and_no_counters() {
        let rows = paper_table();
        let locker = rows.iter().find(|r| r.framework == "DRAM-Locker").unwrap();
        assert_eq!(locker.bytes_in(MemoryKind::Dram), 0);
        assert_eq!(locker.counters, None);
        assert_eq!(locker.total_bytes(), 56 * 1024);
    }

    #[test]
    fn counter_per_row_is_the_capacity_hog() {
        let rows = paper_table();
        let cpr = rows.iter().find(|r| r.framework == "Counter per Row").unwrap();
        // 4M rows x 2B = 8 MB in DRAM at 8 KiB rows; scales with module
        // size and dwarfs every SRAM-resident scheme.
        assert!(cpr.total_bytes() >= 8 * MB);
        let locker = rows.iter().find(|r| r.framework == "DRAM-Locker").unwrap();
        assert!(cpr.total_bytes() > 100 * locker.total_bytes());
    }

    #[test]
    fn graphene_matches_published_sizing() {
        let rows = paper_table();
        let graphene = rows.iter().find(|r| r.framework == "Graphene").unwrap();
        let cam_mb = graphene.bytes_in(MemoryKind::Cam) as f64 / MB as f64;
        let sram_mb = graphene.bytes_in(MemoryKind::Sram) as f64 / MB as f64;
        assert!((cam_mb - 0.53).abs() < 0.01, "cam {cam_mb}");
        assert!((sram_mb - 1.12).abs() < 0.01, "sram {sram_mb}");
    }

    #[test]
    fn shadow_and_locker_use_least_extra_components() {
        // The paper selects SHADOW and DRAM-Locker for further analysis
        // because their added-structure footprint is smallest.
        let rows = paper_table();
        let mut totals: Vec<(&str, u64)> =
            rows.iter().map(|r| (r.framework, r.total_bytes())).collect();
        totals.sort_by_key(|&(_, b)| b);
        let two_smallest: Vec<&str> = totals.iter().take(2).map(|&(f, _)| f).collect();
        assert!(two_smallest.contains(&"DRAM-Locker"));
        assert!(two_smallest.contains(&"SHADOW"));
    }

    #[test]
    fn spec_arithmetic() {
        let spec = DramSpec::paper();
        assert_eq!(spec.total_rows(), 4 * 1024 * 1024);
        assert_eq!(spec.rows_per_bank(), 256 * 1024);
    }
}
