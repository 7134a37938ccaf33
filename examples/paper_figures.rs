//! Regenerates every table and figure of the paper in one run.
//!
//! Run with: `cargo run --release --example paper_figures -- [--fast]`
//!
//! `--fast` shrinks models and budgets (seconds instead of minutes);
//! the default full mode runs the paper-scale models and budgets. The
//! text is `xlayer::experiments::render`'s; `tests/golden/` pins both
//! modes.

use dram_locker::xlayer::experiments::{render, Fidelity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity =
        if std::env::args().any(|a| a == "--fast") { Fidelity::Fast } else { Fidelity::Full };
    print!("{}", render(fidelity)?);
    Ok(())
}
