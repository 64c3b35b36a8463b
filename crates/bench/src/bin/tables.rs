//! Prints the paper's result tables (Tables 1–3) plus the scaling and
//! engine-ablation summaries, using this reproduction's engines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p epimc-bench --bin tables -- \
//!     [table1|table2|table3|scaling|ablation|explore|symbolic|synthesis|frontend|local|serve|all]
//!     [--timeout <seconds>] [--full] [--smoke] [--budget <file>] [--json]
//! ```
//!
//! `explore` prints the exploration ablation: sequential versus parallel
//! frontier expansion, with per-run state counts, de-duplication hits and
//! the parallel speedup (see `epimc_system::ExploreStats`).
//!
//! `symbolic` prints the symbolic-engine ablation: per-formula timings,
//! peak live BDD nodes, garbage collections and cache hit-rates across the
//! protocol families, ending with FloodSet n=8 t=3. With `--smoke` only the
//! small CI instance runs, and with `--budget <file>` the measured
//! peak-live-node counts are checked against the given budget file, exiting
//! nonzero on a regression.
//!
//! `synthesis` prints the synthesis ablation: explicit versus symbolic
//! forward induction across the FloodSet / EBA families, ending at a
//! FloodSet instance the explicit engine cannot finish within the timeout.
//! `--smoke` and `--budget <file>` work as for `symbolic` (CI runs them
//! against `crates/bench/synthesis_budget.txt`).
//!
//! `frontend` prints the model-construction table: the relational
//! front-end (forward image over the round relation) building the layered
//! models, with build wall-clock, peak live nodes, per-layer state counts
//! and the relational-product / image-cache counters. Every row an
//! exploration can reach is verified against it: every explored point
//! relationally reachable, and per layer as many states as the explored
//! points have distinct states. `--smoke`, `--budget <file>` (CI runs
//! `crates/bench/frontend_budget.txt`) and `--full` (which appends FloodSet
//! n=10, verified, and n=12, 22M states, not explored) work as for
//! `symbolic`.
//!
//! `local` prints the local-engine ablation: the lazy on-the-fly engine
//! (fixpoint equation system over layers materialised on demand) versus
//! the global symbolic engine (full relational construction) answering
//! the same layer-0 knowledge query, with layers-expanded against the
//! horizon, wall clocks, peak live nodes and warm-repeat memo hits. A
//! verdict disagreement between the engines fails the run. `--smoke` and
//! `--budget <file>` work as for `symbolic` (CI runs
//! `crates/bench/local_budget.txt`, gating layers expanded and peak live
//! nodes per instance); `--full` appends the FloodSet n=12 cell.
//!
//! `serve` prints the checking-service ablation: cold (build included)
//! versus warm (cross-request denotation cache) latency of a batched
//! query against `epimc-serve`, the relational-image and cache-hit
//! counters of the warm repeat, snapshot round-trip fidelity, and
//! throughput under concurrent clients. `--smoke` runs only the
//! acceptance instance (FloodSet n=8 t=3); `--budget <file>` gates the
//! warm-repeat metrics (CI runs `crates/bench/serve_budget.txt`: zero
//! relational images, warm wall ≤ 10% of cold).
//!
//! `--json` additionally writes the measured `symbolic`, `synthesis`,
//! `frontend`, `local` and `serve` grids as machine-readable snapshots
//! (`BENCH_symbolic.json`, `BENCH_synthesis.json`, `BENCH_frontend.json`,
//! `BENCH_local.json`, `BENCH_serve.json`, always placed at the
//! workspace root regardless of the invocation directory), so the perf
//! trajectory can be tracked across PRs.
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
    ablation_table, check_frontend_budget, check_local_budget, check_serve_budget,
    check_symbolic_budget, check_synthesis_budget, explore_table, frontend_rows,
    frontend_rows_json, local_disagreements, local_rows, local_rows_json, render_frontend_table,
    render_local_table, render_serve_table, render_symbolic_table, render_synthesis_table,
    scaling_table, serve_rows, serve_rows_json, snapshot_path, symbolic_rows, symbolic_rows_json,
    synthesis_rows, synthesis_rows_json, table1, table2, table3, DEFAULT_TIMEOUT,
};

/// The grid label recorded in the JSON snapshots.
fn grid_label(full: bool, smoke: bool) -> &'static str {
    match (smoke, full) {
        (true, _) => "smoke",
        (false, true) => "full",
        (false, false) => "default",
    }
}

fn write_snapshot(file_name: &str, contents: &str) {
    // Snapshots always land at the workspace root (resolved from the bench
    // crate's manifest directory), not wherever the binary happens to run.
    let path = snapshot_path(file_name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Every selection the binary knows.
const TABLES: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "scaling",
    "ablation",
    "explore",
    "symbolic",
    "synthesis",
    "frontend",
    "local",
    "serve",
    "all",
];

/// The selections `--budget` gates (each against its own budget file).
const BUDGETED: [&str; 5] = ["symbolic", "synthesis", "frontend", "local", "serve"];

fn usage_error(message: &str) -> ! {
    eprintln!("tables: {message}");
    eprintln!(
        "usage: tables [{}] [--timeout <seconds>] [--full] [--smoke] [--budget <file>] [--json]",
        TABLES.join("|")
    );
    std::process::exit(2);
}

fn check_budget_or_exit(result: Result<String, String>) {
    match result {
        Ok(summary) => println!("{summary}"),
        Err(violations) => {
            eprintln!("peak-live-node budget exceeded:\n{violations}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut timeout = DEFAULT_TIMEOUT;
    let mut full = epimc_bench::full_grids_requested();
    let mut smoke = false;
    let mut budget: Option<String> = None;
    let mut json = false;

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
            "--budget" => {
                let path = iter
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| usage_error("--budget requires a file path"));
                budget = Some(std::fs::read_to_string(path).unwrap_or_else(|e| {
                    usage_error(&format!("cannot read budget file {path}: {e}"))
                }));
            }
            "--json" => json = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            table if TABLES.contains(&table) => which.push(table.to_string()),
            other => usage_error(&format!("unknown table `{other}`")),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if budget.is_some() {
        if let Some(ungated) = which.iter().find(|table| !BUDGETED.contains(&table.as_str())) {
            usage_error(&format!(
                "--budget gates one of {}; `{ungated}` checks no budget",
                BUDGETED.join(", ")
            ));
        }
    }

    for selection in which {
        match selection.as_str() {
            "table1" => print!("{}", table1(timeout, full)),
            "table2" => print!("{}", table2(timeout, full)),
            "table3" => print!("{}", table3(timeout, full)),
            "scaling" => print!("{}", scaling_table(timeout, full)),
            "ablation" => print!("{}", ablation_table(full)),
            "explore" => print!("{}", explore_table(full)),
            "symbolic" => {
                let rows = symbolic_rows(full, smoke);
                print!("{}", render_symbolic_table(&rows));
                if json {
                    write_snapshot(
                        "BENCH_symbolic.json",
                        &symbolic_rows_json(&rows, grid_label(full, smoke)),
                    );
                }
                if let Some(budget) = &budget {
                    check_budget_or_exit(check_symbolic_budget(&rows, budget));
                }
            }
            "synthesis" => {
                let rows = synthesis_rows(full, smoke, timeout);
                print!("{}", render_synthesis_table(&rows));
                let disagreements = epimc_bench::synthesis_disagreements(&rows);
                if !disagreements.is_empty() {
                    eprintln!("synthesis engines disagree on: {}", disagreements.join(", "));
                    std::process::exit(1);
                }
                if json {
                    write_snapshot(
                        "BENCH_synthesis.json",
                        &synthesis_rows_json(&rows, grid_label(full, smoke)),
                    );
                }
                if let Some(budget) = &budget {
                    check_budget_or_exit(check_synthesis_budget(&rows, budget));
                }
            }
            "frontend" => {
                let rows = frontend_rows(full, smoke);
                print!("{}", render_frontend_table(&rows));
                if json {
                    write_snapshot(
                        "BENCH_frontend.json",
                        &frontend_rows_json(&rows, grid_label(full, smoke)),
                    );
                }
                if let Some(budget) = &budget {
                    check_budget_or_exit(check_frontend_budget(&rows, budget));
                }
            }
            "local" => {
                let rows = local_rows(full, smoke);
                print!("{}", render_local_table(&rows));
                let disagreements = local_disagreements(&rows);
                if !disagreements.is_empty() {
                    eprintln!("local and global engines disagree on: {}", disagreements.join(", "));
                    std::process::exit(1);
                }
                if json {
                    write_snapshot(
                        "BENCH_local.json",
                        &local_rows_json(&rows, grid_label(full, smoke)),
                    );
                }
                if let Some(budget) = &budget {
                    check_budget_or_exit(check_local_budget(&rows, budget));
                }
            }
            "serve" => {
                let rows = serve_rows(full, smoke);
                print!("{}", render_serve_table(&rows));
                if json {
                    write_snapshot(
                        "BENCH_serve.json",
                        &serve_rows_json(&rows, grid_label(full, smoke)),
                    );
                }
                if let Some(budget) = &budget {
                    check_budget_or_exit(check_serve_budget(&rows, budget));
                }
            }
            "all" => {
                print!("{}", table1(timeout, full));
                println!();
                print!("{}", table2(timeout, full));
                println!();
                print!("{}", table3(timeout, full));
                println!();
                print!("{}", scaling_table(timeout, full));
                println!();
                print!("{}", ablation_table(full));
                println!();
                print!("{}", explore_table(full));
                println!();
                let symbolic = symbolic_rows(full, smoke);
                print!("{}", render_symbolic_table(&symbolic));
                println!();
                let synthesis = synthesis_rows(full, smoke, timeout);
                print!("{}", render_synthesis_table(&synthesis));
                println!();
                let frontend = frontend_rows(full, smoke);
                print!("{}", render_frontend_table(&frontend));
                println!();
                let local = local_rows(full, smoke);
                print!("{}", render_local_table(&local));
                let local_diverged = local_disagreements(&local);
                if !local_diverged.is_empty() {
                    eprintln!(
                        "local and global engines disagree on: {}",
                        local_diverged.join(", ")
                    );
                    std::process::exit(1);
                }
                println!();
                let serve = serve_rows(full, smoke);
                print!("{}", render_serve_table(&serve));
                if json {
                    let grid = grid_label(full, smoke);
                    write_snapshot("BENCH_symbolic.json", &symbolic_rows_json(&symbolic, grid));
                    write_snapshot("BENCH_synthesis.json", &synthesis_rows_json(&synthesis, grid));
                    write_snapshot("BENCH_frontend.json", &frontend_rows_json(&frontend, grid));
                    write_snapshot("BENCH_local.json", &local_rows_json(&local, grid));
                    write_snapshot("BENCH_serve.json", &serve_rows_json(&serve, grid));
                }
            }
            other => unreachable!("selection `{other}` was validated against TABLES"),
        }
        println!();
    }
}
