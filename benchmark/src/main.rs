//! The reference benchmark of the epimc workspace: five named workloads,
//! end-to-end metrics, per-layer attribution from outside the crates. See
//! `benchmark/README.md`.

mod expected;
mod instances;
mod json;
mod probes;
mod report;
mod runner;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use crate::instances::Kind;
use crate::json::Json;
use crate::runner::{RunArgs, RunReport};

const USAGE: &str = "\
usage (from the repository root):
  epimc-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]
      one workload in this process; the last line of stdout is the result object
  epimc-benchmark all   --seed <u64> [--seconds <s>] [--smoke]   every workload, end-to-end metrics
  epimc-benchmark trace --seed <u64> [--seconds <s>]             every workload, per-layer metrics
  epimc-benchmark aa    --seed <u64> [--seconds <s>]             A/A: both sides alternating; fails on a breach
  epimc-benchmark compare <a.json> <b.json>                      two saved result files, same rule
  epimc-benchmark regen-expected                                 rewrite benchmark/expected.json
workloads: serve_cold serve_warm global_check synthesis local_lazy";

/// Flags after the subcommand, as `(name, value)`; `--smoke` and
/// `--setup-only` take none.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = if name == "smoke" || name == "setup-only" {
                String::new()
            } else {
                rest.next().ok_or_else(|| format!("`{flag}` needs a value"))?.clone()
            };
            flags.push((name.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(flag, _)| flag == name).map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text.parse().map_err(|_| format!("`--{name} {text}` is not a number")),
            None => default.ok_or_else(|| format!("`--{name}` is required")),
        }
    }
}

/// The result object of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics = report.metrics.iter().map(|metric| {
        (
            metric.name,
            Json::obj([("value", Json::Num(metric.value)), ("unit", Json::str(metric.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

fn run_one(flags: &Flags, process_start: Instant) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("`--workload` is required")?;
    let workload = Kind::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let args = RunArgs {
        workload,
        seed: flags.number("seed", None)?,
        seconds: flags.number("seconds", None)?,
        trace: flags.number::<u8>("trace", None)? != 0,
        smoke: flags.get("smoke").is_some(),
        setup_only: flags.get("setup-only").is_some(),
    };
    let report = runner::run(&args, process_start)?;
    for metric in &report.metrics {
        println!("{:28} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "failed_share                 {:>16.6} ratio ({} of {} ops)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    println!("info {}", report.info.compact());
    println!("{}", result_line(&report));
    Ok(if report.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let Some(first) = args.first() else {
        return Err(USAGE.to_string());
    };
    if first.starts_with("--") {
        return run_one(&Flags::parse(args)?, process_start);
    }
    let flags = Flags::parse(&args[1..]);
    match first.as_str() {
        "all" | "trace" | "aa" => {
            let flags = flags?;
            let suite = report::Suite {
                seed: flags.number("seed", None)?,
                seconds: flags.number("seconds", Some(report::manifest_run_seconds()?))?,
                smoke: flags.get("smoke").is_some(),
            };
            match first.as_str() {
                "all" => report::run_suite(&suite, false),
                "trace" => report::run_suite(&suite, true),
                _ => report::aa(&suite),
            }
        }
        "compare" => match &args[1..] {
            [a, b] => report::compare_files(a, b),
            _ => Err("`compare` takes two result files".to_string()),
        },
        "regen-expected" => expected::regenerate().map(|()| ExitCode::SUCCESS),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, process_start) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
