//! Golden outputs: behaviour that a change may move only on purpose.
//!
//! - `golden/catalog.csv` holds one `dlk run <entry> --csv` row per
//!   [`sim::catalog()`] entry, in catalog order. Regenerate it with
//!   `for n in $(target/release/dlk catalog 2>/dev/null | awk '{print $1}'); do target/release/dlk run "$n" --csv | tail -n 1; done > tests/golden/catalog.csv`
//! - `golden/paper_figures_fast.txt` is `paper_figures --fast` stdout,
//!   i.e. [`experiments::render`] at [`Fidelity::Fast`]. Regenerate it
//!   with `cargo run -q --release --example paper_figures -- --fast > tests/golden/paper_figures_fast.txt`
//! - `golden/paper_figures_full.txt` is the full-fidelity stdout. It
//!   takes ~25 s in release, so CI diffs it against a release run of
//!   the example instead of a test here.
//!
//! A change that regenerates a golden says which rows moved and why.

use dram_locker::sim::{self, Scenario, SimError};
use dram_locker::xlayer::experiments::{self, Fidelity};

/// Every line where `got` differs from `want`, numbered from 1, with
/// both versions.
fn moved_lines(want: &str, got: &str) -> Vec<String> {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .map(|i| {
            let line = |lines: &[&str]| lines.get(i).copied().unwrap_or("<none>").to_owned();
            format!("line {}:\n  golden: {}\n  now:    {}", i + 1, line(&want), line(&got))
        })
        .collect()
}

#[test]
fn catalog_rows_match_the_golden() -> Result<(), SimError> {
    let golden: Vec<&str> = include_str!("golden/catalog.csv").lines().collect();
    let catalog = sim::catalog();
    assert_eq!(
        catalog.len(),
        golden.len(),
        "the catalog has {} entries and tests/golden/catalog.csv {} rows",
        catalog.len(),
        golden.len()
    );
    let mut moved = Vec::new();
    for (entry, want) in catalog.iter().zip(golden) {
        let got = Scenario::from_spec(&entry.spec)?.run()?.to_csv_row();
        if got != want {
            moved.push(format!("{}:\n  golden: {want}\n  now:    {got}", entry.name));
        }
    }
    assert!(
        moved.is_empty(),
        "{} catalog entries moved against tests/golden/catalog.csv:\n{}",
        moved.len(),
        moved.join("\n")
    );
    Ok(())
}

#[test]
fn fast_paper_figures_match_the_golden() -> Result<(), SimError> {
    let want = include_str!("golden/paper_figures_fast.txt");
    let got = experiments::render(Fidelity::Fast)?;
    let moved = moved_lines(want, &got);
    assert!(
        got == want,
        "{} lines moved against tests/golden/paper_figures_fast.txt:\n{}",
        moved.len(),
        moved.join("\n")
    );
    Ok(())
}
