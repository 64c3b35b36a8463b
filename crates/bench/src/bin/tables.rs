//! Prints the paper's result tables (Tables 1–3) plus the scaling and
//! engine-ablation summaries, and this reproduction's ablations, using
//! this reproduction's engines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p epimc-bench --bin tables -- \
//!     [table1|table2|table3|scaling|ablation|explore|symbolic|synthesis|frontend|local|serve|all]...
//!     [--timeout <seconds>] [--full] [--smoke] [--budget]
//! ```
//!
//! `explore` prints the exploration ablation: sequential versus parallel
//! frontier expansion, with per-run state counts, de-duplication hits and
//! the parallel speedup (see `epimc_system::ExploreStats`).
//!
//! `symbolic` prints the symbolic-engine ablation: per-formula timings,
//! peak live BDD nodes, garbage collections and cache hit-rates across the
//! protocol families, ending with FloodSet n=8 t=3.
//!
//! `synthesis` prints the synthesis ablation: explicit versus symbolic
//! forward induction across the FloodSet / EBA families, ending at a
//! FloodSet instance the explicit engine cannot finish within the timeout.
//! A disagreement between the engines' rules fails the run.
//!
//! `frontend` prints the model-construction table: the relational
//! front-end (forward image over the round relation) building the layered
//! models, with build wall-clock, peak live nodes and the relational-product
//! / image-cache counters. Every row an exploration can reach is verified
//! against it: every explored point relationally reachable, and per layer as
//! many states as the explored points have distinct states. `--full`
//! appends FloodSet n=10, verified, and n=12, 22M states, not explored.
//!
//! `local` prints the local-engine ablation: the lazy on-the-fly engine
//! (fixpoint equation system over layers materialised on demand) versus
//! the global symbolic engine (full relational construction) answering
//! the same layer-0 knowledge query, with layers used against the
//! layers built, wall clocks, peak live nodes and warm-repeat memo hits. A
//! verdict disagreement between the engines fails the run. `--full`
//! appends the FloodSet n=12 cell.
//!
//! `serve` prints the checking-service ablation: cold (build included)
//! versus warm (cross-request denotation cache) latency of a batched
//! query against `epimc-serve`, the relational-image and cache-hit
//! counters of the warm repeat, snapshot round-trip fidelity, throughput
//! under concurrent clients, and a 50 ms deadline probe. A restored
//! snapshot or post-probe rebuild that answers differently fails the run.
//!
//! `--smoke` restricts these five ablations to their CI instances
//! (FloodSet n=4 t=1, plus EMin n=2 t=1 under omissions for `synthesis`,
//! and FloodSet n=10 t=3 for `serve`). `--budget` gates each selected
//! ablation against its own checked-in budget,
//! `crates/bench/<name>_budget.txt`, exiting 1 on a regression; it is
//! refused with any other selection.
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

use epimc_bench::{
    ablation_table, explore_table, gate, scaling_table, table1, table2, table3, ABLATIONS,
    DEFAULT_TIMEOUT,
};

/// The paper's tables and the summaries printed alongside them, in `all`
/// order (the ablations follow).
const PAPER_TABLES: [&str; 6] = ["table1", "table2", "table3", "scaling", "ablation", "explore"];

fn paper_table(name: &str, timeout: Duration, full: bool) -> String {
    match name {
        "table1" => table1(timeout, full),
        "table2" => table2(timeout, full),
        "table3" => table3(timeout, full),
        "scaling" => scaling_table(timeout, full),
        "ablation" => ablation_table(full),
        "explore" => explore_table(full),
        other => unreachable!("`{other}` is not in PAPER_TABLES"),
    }
}

/// Every selection the binary knows, in `all` order.
fn selections() -> Vec<&'static str> {
    PAPER_TABLES.into_iter().chain(ABLATIONS.iter().map(|ablation| ablation.name)).collect()
}

fn usage_error(message: &str) -> ! {
    eprintln!("tables: {message}");
    eprintln!(
        "usage: tables [{}|all]... [--timeout <seconds>] [--full] [--smoke] [--budget]",
        selections().join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<&str> = Vec::new();
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
            "all" => which.extend(selections()),
            table => match selections().into_iter().find(|known| *known == table) {
                Some(known) => which.push(known),
                None => usage_error(&format!("unknown table `{table}`")),
            },
        }
    }
    if which.is_empty() {
        which = selections();
    }
    if budget {
        if let Some(ungated) = which.iter().find(|table| PAPER_TABLES.contains(table)) {
            usage_error(&format!(
                "--budget gates the ablations only; `{ungated}` checks no budget"
            ));
        }
    }

    for name in which {
        match ABLATIONS.iter().find(|ablation| ablation.name == name) {
            None => print!("{}", paper_table(name, timeout, full)),
            Some(ablation) => {
                let rows = ablation.rows(full, smoke, timeout);
                print!("{}", ablation.render(&rows));
                match gate(&rows, budget.then_some(ablation.budget)) {
                    Ok(summary) if summary.is_empty() => {}
                    Ok(summary) => println!("{name}: {summary}"),
                    Err(violations) => {
                        eprintln!("{name}: gate failed:\n{violations}");
                        std::process::exit(1);
                    }
                }
            }
        }
        println!();
    }
}
