//! `epimc-serve` — the checking-as-a-service daemon.
//!
//! ```text
//! epimc-serve [--addr HOST:PORT] [--node-budget NODES]
//!             [--deadline-ms MS] [--io-timeout-ms MS]
//!             [--snapshot-dir DIR]                       # serve forever
//! epimc-serve --smoke                                    # self-test, exit 0/1
//! epimc-serve --chaos [--seed N] [--smoke]               # fault-injection, exit 0/1
//! ```
//!
//! `--deadline-ms` caps the wall-clock time of every check request (the
//! per-request `deadline_ms` protocol token can only tighten it); a trip
//! answers `error budget-exceeded` and evicts the instance's warm
//! checker. `--io-timeout-ms` bounds socket reads/writes per connection
//! (default 30000; `0` disables), so a silent peer cannot pin the server.
//! `--snapshot-dir` enables `auto` snapshot paths and startup recovery:
//! snapshots are written atomically (temp file + fsync + rename), and on
//! boot every `*.snap` in the directory is restored — corrupt files are
//! quarantined to `*.snap.corrupt`, never trusted.
//!
//! `--smoke` runs the CI gate: it starts a server on an ephemeral port,
//! sends the same batched query twice (the second must be warm: zero
//! relational image computations, denotation-cache hits, and the live
//! nodes the cold reply reported after compacting its build), snapshots the
//! warm instance to a file, re-answers the batch from that snapshot in a
//! *child process*, and compares the verdicts bit-for-bit.
//!
//! `--chaos` runs the deterministic fault-injection harness (torn
//! snapshot writes, corrupt frames, hostile length prefixes, silent
//! peers, mid-request panics, budget trips), asserting after every fault
//! that the server still answers a differential batch correctly — on
//! both the default symbolic backend and the lazy local one (the
//! `check backend=local` protocol token), which must agree bit for bit.
//! The seed defaults to 0; `--smoke` shrinks the round count for CI.
//!
//! The hidden `--restore-answer SNAPSHOT SPEC... -- FORMULA...` mode is the
//! child half of the snapshot test: it restores the snapshot and prints
//! one verdict per line.

use std::process::ExitCode;

use epimc_serve::proto::parse_service_formula;
use epimc_serve::{
    answer_from_snapshot, run_chaos, ChaosOptions, Client, ModelSpec, ServeOptions, Server,
    DEFAULT_NODE_BUDGET,
};

fn usage() -> String {
    "usage: epimc-serve [--addr HOST:PORT] [--node-budget NODES] [--deadline-ms MS] \
     [--io-timeout-ms MS] [--snapshot-dir DIR] [--smoke] [--chaos [--seed N]]"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("epimc-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7517".to_string();
    let mut options = ServeOptions { node_budget: DEFAULT_NODE_BUDGET, ..Default::default() };
    let mut smoke = false;
    let mut chaos = false;
    let mut seed = 0u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next().ok_or_else(usage)?.clone(),
            "--node-budget" => {
                let value = iter.next().ok_or_else(usage)?;
                options.node_budget =
                    value.parse().map_err(|_| format!("bad --node-budget `{value}`"))?;
            }
            "--deadline-ms" => {
                let value = iter.next().ok_or_else(usage)?;
                let ms = value.parse().map_err(|_| format!("bad --deadline-ms `{value}`"))?;
                options.deadline_ms = Some(ms);
            }
            "--io-timeout-ms" => {
                let value = iter.next().ok_or_else(usage)?;
                options.io_timeout_ms =
                    value.parse().map_err(|_| format!("bad --io-timeout-ms `{value}`"))?;
            }
            "--snapshot-dir" => {
                options.snapshot_dir = Some(iter.next().ok_or_else(usage)?.clone());
            }
            "--seed" => {
                let value = iter.next().ok_or_else(usage)?;
                seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?;
            }
            "--smoke" => smoke = true,
            "--chaos" => chaos = true,
            "--restore-answer" => {
                let rest: Vec<&str> = iter.map(String::as_str).collect();
                return restore_answer(&rest);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if chaos {
        let report = run_chaos(&ChaosOptions { seed, smoke })?;
        println!("{report}");
        return Ok(());
    }
    if smoke {
        return smoke_test(options);
    }
    let node_budget = options.node_budget;
    let server =
        Server::bind(addr.as_str(), options).map_err(|error| format!("bind {addr}: {error}"))?;
    let local = server.local_addr().map_err(|error| error.to_string())?;
    println!("epimc-serve listening on {local} (node budget {node_budget})");
    server.run().map_err(|error| format!("accept loop failed: {error}"))
}

/// Child half of the cross-process snapshot test: restore and print one
/// verdict per line.
fn restore_answer(args: &[&str]) -> Result<(), String> {
    let separator =
        args.iter().position(|&arg| arg == "--").ok_or("--restore-answer needs a `--`")?;
    let (head, formulas) = args.split_at(separator);
    let formulas = &formulas[1..];
    let [path, spec_text @ ..] = head else {
        return Err("--restore-answer needs SNAPSHOT SPEC... -- FORMULA...".to_string());
    };
    let spec = ModelSpec::parse(&spec_text.join(" "))?;
    let bytes = std::fs::read(path).map_err(|error| format!("reading {path}: {error}"))?;
    let verdicts = answer_from_snapshot(&spec, &bytes, formulas)?;
    for verdict in verdicts {
        println!("{verdict}");
    }
    Ok(())
}

/// Large enough that the cold batch leaves more garbage than an automatic
/// collection tolerates: were it not collected before the cold reply, the
/// warm repeat would collect it and report fewer live nodes.
const SMOKE_SPEC: &str = "protocol=floodset n=8 t=3 values=2 failure=crash";
const SMOKE_FORMULAS: [&str; 4] = [
    "CB exists0 => decides[0].0",
    "AG (decided[1].0 => !decided[1].1)",
    "B[0] CB exists0",
    "EF decided[2]",
];

fn smoke_test(options: ServeOptions) -> Result<(), String> {
    let spec = ModelSpec::parse(SMOKE_SPEC)?;
    for formula in SMOKE_FORMULAS {
        parse_service_formula(formula)?;
    }
    let server = Server::bind("127.0.0.1:0", options).map_err(|error| format!("bind: {error}"))?;
    let addr = server.local_addr().map_err(|error| error.to_string())?;
    std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).map_err(|error| format!("connect: {error}"))?;
    client.ping().map_err(|error| format!("ping: {error}"))?;
    let cold = client.check(spec, &SMOKE_FORMULAS).map_err(|error| format!("cold: {error}"))?;
    if cold.warm {
        return Err("first query claimed to be warm".to_string());
    }
    let warm = client.check(spec, &SMOKE_FORMULAS).map_err(|error| format!("warm: {error}"))?;
    if !warm.warm {
        return Err("second identical query was not warm".to_string());
    }
    if warm.verdicts != cold.verdicts {
        return Err(format!("warm verdicts {:?} != cold {:?}", warm.verdicts, cold.verdicts));
    }
    if warm.relational_products != 0 {
        return Err(format!(
            "warm repeat performed {} relational image computations, expected 0",
            warm.relational_products
        ));
    }
    if warm.session_hits == 0 {
        return Err("warm repeat never hit the denotation cache".to_string());
    }
    if warm.live_nodes != cold.live_nodes {
        return Err(format!(
            "warm repeat holds {} live nodes, the cold reply {}: the cold build's garbage \
             outlived its reply",
            warm.live_nodes, cold.live_nodes
        ));
    }

    // Cross-process snapshot: the server writes the warm instance to a
    // file, a child process restores it and answers the same batch.
    let path = std::env::temp_dir().join(format!("epimc-serve-smoke-{}.snap", std::process::id()));
    let path_text = path.to_string_lossy().to_string();
    let bytes = client.snapshot(spec, &path_text).map_err(|error| format!("snapshot: {error}"))?;
    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let mut command = std::process::Command::new(exe);
    command.arg("--restore-answer").arg(&path_text);
    command.args(spec.to_string().split_whitespace());
    command.arg("--").args(SMOKE_FORMULAS);
    let output = command.output().map_err(|error| format!("spawning child: {error}"))?;
    let _ = std::fs::remove_file(&path);
    if !output.status.success() {
        return Err(format!(
            "restore child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let child_verdicts: Vec<bool> =
        String::from_utf8_lossy(&output.stdout).lines().map(|line| line.trim() == "true").collect();
    if child_verdicts != cold.verdicts {
        return Err(format!(
            "restored process answered {child_verdicts:?}, fresh build answered {:?}",
            cold.verdicts
        ));
    }

    println!(
        "serve smoke ok: cold {} us, warm {} us, {} snapshot bytes, \
         warm rel-products 0, {} denotation-cache hits",
        cold.wall_micros, warm.wall_micros, bytes, warm.session_hits
    );
    Ok(())
}
