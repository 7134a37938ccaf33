//! Regenerates every table and figure of the paper in one run.
//!
//! Run with: `cargo run --release --example paper_figures -- [--fast]`
//!
//! `--fast` shrinks models and budgets (seconds instead of minutes);
//! the default full mode reproduces the paper-scale numbers recorded
//! in EXPERIMENTS.md.

use dram_locker::sim;
use dram_locker::xlayer::experiments::{
    ablation, defense_grid, fig1a, fig1b, fig7a, fig7b, fig8, generations, mc_variation,
    overhead_inference, pta, table1, table2, Fidelity,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity =
        if std::env::args().any(|a| a == "--fast") { Fidelity::Fast } else { Fidelity::Full };
    println!("running all paper experiments at {fidelity:?} fidelity\n");

    println!("{}", fig1b::run());
    println!("{}", mc_variation::run(fidelity));
    println!("{}", table1::run());

    println!("{}", fig1a::run(fidelity).render());

    let fig7a_result = fig7a::run(fidelity);
    println!("{}", fig7a_result.render());
    println!("{}", fig7b::run());

    for panel in fig8::run(fidelity) {
        println!("{}", panel.render());
    }

    println!("{}", table2::run(fidelity));
    println!("{}", pta::run()?);
    println!("{}", overhead_inference::run()?);
    println!("{}", ablation::run()?);
    println!("{}", generations::run());

    println!("scenario catalog (run any with sim::find(name); every entry is a spec file):");
    for entry in sim::catalog() {
        println!("  {:<28} {:<20} {}", entry.name, entry.artifact, entry.description);
    }

    // The channel × defense grid through the parallel sweep runner —
    // the CSV below is the figure data CI surfaces in the job log.
    let grid = defense_grid::run()?;
    println!("\nsweep: hammer campaign over {{1,2,4 channels}} x {{none, dram-locker}}");
    println!("{grid}");
    println!("-- begin defense_grid.csv --");
    print!("{}", grid.to_csv());
    println!("-- end defense_grid.csv --");

    println!("done — compare against EXPERIMENTS.md");
    Ok(())
}
