//! Fig. 1(b): RowHammer thresholds per DRAM generation.

use dlk_dram::DramGeneration;
use dlk_sim::metrics::Table;

/// Builds the Fig. 1(b) table.
pub fn run() -> Table {
    let mut table = Table::new("Fig 1(b): RowHammer thresholds", &["DRAM Generation", "TRH"]);
    for generation in DramGeneration::ALL {
        let trh = if generation.trh_upper() != generation.trh() {
            format!(
                "{:.1}K - {:.0}K",
                generation.trh() as f64 / 1000.0,
                generation.trh_upper() as f64 / 1000.0
            )
        } else if generation.trh() % 1000 == 0 {
            format!("{}K", generation.trh() / 1000)
        } else {
            format!("{:.1}K", generation.trh() as f64 / 1000.0)
        };
        table.row(vec![generation.label().to_owned(), trh]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        let table = run();
        assert_eq!(table.rows().len(), 6);
        let text = table.to_string();
        assert!(text.contains("139K"));
        assert!(text.contains("22.4K"));
        assert!(text.contains("10K"));
        assert!(text.contains("4.8K - 9K"));
    }
}
