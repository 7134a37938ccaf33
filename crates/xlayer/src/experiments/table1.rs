//! Table I: hardware overhead comparison at 32 GB / 16-bank DDR4.

use dlk_defenses::overhead::{table1 as overhead_rows, DramSpec};
use dlk_sim::metrics::Table;

fn format_bytes(bytes: u64) -> String {
    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;
    if bytes == 0 {
        "0".to_owned()
    } else if bytes >= MB {
        format!("{:.2}MB", bytes as f64 / MB as f64)
    } else {
        format!("{}KB", bytes / KB)
    }
}

/// Builds Table I.
pub fn run() -> Table {
    let mut table = Table::new(
        "Table I: RowHammer mitigation overheads (32GB, 16-bank DDR4)",
        &["Framework", "Involved memory", "Capacity overhead", "Area overhead"],
    );
    for row in overhead_rows(&DramSpec::paper()) {
        let kinds: Vec<String> = row
            .capacity
            .iter()
            .map(|o| o.kind.to_string())
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let capacity: Vec<String> =
            row.capacity.iter().map(|o| format!("{} {}", format_bytes(o.bytes), o.kind)).collect();
        let area = match (row.area_pct, row.counters) {
            (Some(pct), _) => format!("{pct}%"),
            (None, Some(counters)) => format!("{counters} counter(s)"),
            (None, None) => "NULL".to_owned(),
        };
        table.row(vec![row.framework.to_owned(), kinds.join("-"), capacity.join(" + "), area]);
    }
    table
}

/// Returns `(framework, total_capacity_bytes)` pairs sorted ascending —
/// the ranking that motivates the paper's SHADOW/DRAM-Locker head-to-
/// head.
pub fn capacity_ranking() -> Vec<(String, u64)> {
    let mut ranking: Vec<(String, u64)> = overhead_rows(&DramSpec::paper())
        .into_iter()
        .map(|row| (row.framework.to_owned(), row.total_bytes()))
        .collect();
    ranking.sort_by_key(|&(_, bytes)| bytes);
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_frameworks_present() {
        let table = run();
        assert_eq!(table.rows().len(), 10);
        let text = table.to_string();
        for framework in [
            "Graphene",
            "Hydra",
            "TWiCE",
            "Counter per Row",
            "Counter Tree",
            "RRS",
            "SRS",
            "SHADOW",
            "P-PIM",
            "DRAM-Locker",
        ] {
            assert!(text.contains(framework), "missing {framework}");
        }
    }

    #[test]
    fn locker_row_shows_zero_dram_plus_56kb_sram() {
        let table = run();
        let locker = table.rows().iter().find(|r| r[0] == "DRAM-Locker").unwrap();
        assert!(locker[2].contains("0 DRAM"));
        assert!(locker[2].contains("56KB SRAM"));
        assert_eq!(locker[3], "0.02%");
    }

    #[test]
    fn ranking_puts_locker_first_or_second() {
        let ranking = capacity_ranking();
        let position = ranking.iter().position(|(f, _)| f == "DRAM-Locker").unwrap();
        assert!(position <= 1, "ranking {ranking:?}");
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(0), "0");
        assert_eq!(format_bytes(56 * 1024), "56KB");
        assert_eq!(format_bytes(4 * 1024 * 1024), "4.00MB");
    }

    #[test]
    fn involved_memory_column_consistent() {
        let table = run();
        let hydra = table.rows().iter().find(|r| r[0] == "Hydra").unwrap();
        assert_eq!(hydra[1], "SRAM-DRAM");
    }

    #[test]
    fn spec_uses_paper_module() {
        // 32 GB / 8 KiB rows = 4 Mi rows.
        assert_eq!(DramSpec::paper().total_rows(), 4 * 1024 * 1024);
        let _ = dlk_defenses::MemoryKind::Dram; // linked for the doc example
    }
}
