//! Golden outputs: behaviour that a change may move only on purpose.
//!
//! - `golden/catalog.csv` holds one `dlk run <entry> --csv` row per
//!   [`sim::catalog()`] entry, in catalog order. Regenerate it with
//!   `for n in $(target/release/dlk catalog 2>/dev/null | awk '{print $1}'); do target/release/dlk run "$n" --csv | tail -n 1; done > tests/golden/catalog.csv`
//! - `golden/work_counts.txt` holds one line per catalog entry: its
//!   name, then `metric=value` for every metric the run reports into a
//!   fresh [`Registry`](obs::Registry), in name order, except wall-clock
//!   ones (names containing `_wall_`). Regenerate it with
//!   `for n in $(target/release/dlk catalog 2>/dev/null | awk '{print $1}'); do printf %s "$n"; target/release/dlk run "$n" --trace 2>&1 >/dev/null | awk '$1 ~ /^[a-z_]+\./ && $1 !~ /_wall_/ {printf " %s=%s", $1, $2}'; echo; done > tests/golden/work_counts.txt`
//! - `golden/paper_figures_fast.txt` is `paper_figures --fast` stdout,
//!   i.e. [`experiments::render`] at [`Fidelity::Fast`]. Regenerate it
//!   with `cargo run -q --release --example paper_figures -- --fast > tests/golden/paper_figures_fast.txt`
//! - `golden/paper_figures_full.txt` is the full-fidelity stdout. It
//!   takes ~25 s in release, so CI diffs it against a release run of
//!   the example instead of a test here.
//!
//! A change that regenerates a golden says which rows moved and why.

use dram_locker::obs::Registry;
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

/// `name metric=value ...` over every metric in `registry` whose name
/// holds no `_wall_`, in name order.
fn work_counts(name: &str, registry: &Registry) -> String {
    let mut line = name.to_owned();
    for metric in registry.to_text().lines().filter(|metric| !metric.contains("_wall_")) {
        let (metric, value) = metric.split_once(' ').expect("registry text lines are `name value`");
        line.push_str(&format!(" {metric}={value}"));
    }
    line
}

#[test]
fn catalog_rows_match_the_golden() -> Result<(), SimError> {
    let rows: Vec<&str> = include_str!("golden/catalog.csv").lines().collect();
    let counts: Vec<&str> = include_str!("golden/work_counts.txt").lines().collect();
    let catalog = sim::catalog();
    for (file, lines) in [("catalog.csv", &rows), ("work_counts.txt", &counts)] {
        assert_eq!(
            catalog.len(),
            lines.len(),
            "the catalog has {} entries and tests/golden/{file} {} lines",
            catalog.len(),
            lines.len()
        );
    }
    let mut moved = Vec::new();
    for ((entry, want_row), want_counts) in catalog.iter().zip(rows).zip(counts) {
        let registry = Registry::new();
        let mut run = Scenario::from_spec(&entry.spec)?;
        run.observe(&registry);
        let got_row = run.run()?.to_csv_row();
        let got_counts = work_counts(entry.name, &registry);
        for (file, want, got) in
            [("catalog.csv", want_row, &got_row), ("work_counts.txt", want_counts, &got_counts)]
        {
            if got != want {
                moved.push(format!("{} ({file}):\n  golden: {want}\n  now:    {got}", entry.name));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} catalog lines moved against tests/golden/:\n{}",
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
