//! Chaos soak: runs the rows of [`deepum_bench::chaos::SOAK`] and checks
//! each run's robustness contract.
//!
//! Usage: `deepum_chaos [ROW...]`. With no arguments every row runs
//! (`./ci.sh --soak`); otherwise only the named rows, e.g.
//! `deepum_chaos oversub-250 serve-6`. Exits 1 if any run breaks its
//! contract, and 2 on an unknown row name.

use deepum_bench::chaos::{select, soak_row};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let rows = select(&names).unwrap_or_else(|msg| {
        eprintln!("deepum_chaos: {msg}");
        std::process::exit(2)
    });
    let (mut runs, mut failures) = (0, 0);
    for row in rows {
        let (ran, failed) = soak_row(row, row.seeds);
        runs += ran;
        failures += failed;
    }
    println!("deepum-chaos: {runs} runs, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
