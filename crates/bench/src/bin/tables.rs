//! Prints the paper's result tables (Tables 1–3) plus the scaling,
//! engine-ablation and exploration studies, and this reproduction's
//! ablations, using this reproduction's engines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p epimc-bench --bin tables -- \
//!     [table1|table2|table3|scaling|ablation|explore|symbolic|synthesis|frontend|local|serve|all]...
//!     [--timeout <seconds>] [--full] [--smoke] [--budget]
//! ```
//!
//! Every selection is one [`epimc_bench::Table`]: its grid of experiments
//! is measured, printed one row per instance id, and gated. A `MustHold`
//! field that reads `NO` — a paper-table cell whose protocol violates its
//! specification, an engine disagreement, a snapshot or post-trip
//! differential — exits 1 with or without `--budget`.
//!
//! `table1`, `table2` and `table3` reproduce the paper's tables (`TO` past
//! the per-cell timeout, `[subopt]` on a correct but suboptimal protocol);
//! `scaling` times FloodSet at t=1 as the agents grow; `ablation` compares
//! the explicit-state and symbolic engines on the SBA knowledge condition;
//! `explore` reports the explicit oracle's state space and its wall time.
//!
//! `symbolic`, `synthesis`, `frontend`, `local` and `serve` are this
//! reproduction's ablations (see each table's note). `--smoke` restricts
//! them to their CI instances, and `--budget` gates each against its own
//! checked-in budget, `crates/bench/<name>_budget.txt`, exiting 1 on a
//! regression; it is refused with a selection that has no budget.
//!
//! `--full` selects the paper-sized parameter grids (several cells will show
//! `TO` unless a generous `--timeout` is given); without it a smaller grid is
//! used so the run completes in a few minutes.
//!
//! A mistyped invocation — an unknown table or flag, a flag missing its
//! value, `--budget` with a table that has no budget gate — prints the usage
//! to stderr and exits with status 2 before any table runs, so a typo in a
//! CI step cannot pass green.

use std::time::Duration;

use epimc_bench::{gate, Table, DEFAULT_TIMEOUT, TABLES};

fn usage_error(message: &str) -> ! {
    let names: Vec<&str> = TABLES.iter().map(|table| table.name).collect();
    eprintln!("tables: {message}");
    eprintln!(
        "usage: tables [{}|all]... [--timeout <seconds>] [--full] [--smoke] [--budget]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<&Table> = Vec::new();
    let mut timeout = DEFAULT_TIMEOUT;
    let mut full = false;
    let mut smoke = false;
    let mut budget = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--timeout" => {
                let seconds: u64 = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--timeout requires a number of seconds"));
                timeout = Duration::from_secs(seconds);
            }
            "--full" => full = true,
            "--smoke" => smoke = true,
            "--budget" => budget = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            "all" => which.extend(TABLES.iter()),
            name => match TABLES.iter().find(|table| table.name == name) {
                Some(table) => which.push(table),
                None => usage_error(&format!("unknown table `{name}`")),
            },
        }
    }
    if which.is_empty() {
        which.extend(TABLES.iter());
    }
    if budget {
        if let Some(ungated) = which.iter().find(|table| table.budget.is_none()) {
            usage_error(&format!("--budget: `{}` has no budget gate", ungated.name));
        }
    }

    for table in which {
        let rows = table.rows(full, smoke, timeout);
        print!("{}", table.render(&rows));
        match gate(&rows, table.budget.filter(|_| budget)) {
            Ok(summary) if summary.is_empty() => {}
            Ok(summary) => println!("{}: {summary}", table.name),
            Err(violations) => {
                eprintln!("{}: gate failed:\n{violations}", table.name);
                std::process::exit(1);
            }
        }
        println!();
    }
}
