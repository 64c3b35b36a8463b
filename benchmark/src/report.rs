//! The suite commands: `all`, `trace`, `aa` and `compare`. Each workload
//! runs in a fresh child process of this binary, so memory and allocator
//! state are per workload and `peak_rss_mib` is the child's own high-water
//! mark. Result files are stamped and compared by the bounds `BENCHMARK.json`
//! fixes.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::instances::Kind;
use crate::json::Json;
use crate::runner::{median, OUT_DIR};

const MANIFEST_PATH: &str = "BENCHMARK.json";

pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string(MANIFEST_PATH)
        .map_err(|error| format!("{MANIFEST_PATH}: {error} (run from the repository root)"))?;
    Json::parse(&text).map_err(|error| format!("{MANIFEST_PATH}: {error}"))
}

pub fn manifest_run_seconds() -> Result<f64, String> {
    manifest()?.get("run_seconds").and_then(Json::as_f64).ok_or("no `run_seconds`".to_string())
}

/// First line of a command's stdout, or `unknown` when it cannot run (the
/// driver's checkout is not a git repository).
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn stamp(suite: &Suite) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_commit", Json::Str(probe_command("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(probe_command("rustc", &["-V"]))),
        ("seed", Json::Num(suite.seed as f64)),
        ("seconds", Json::Num(suite.seconds)),
        ("smoke", Json::Bool(suite.smoke)),
    ])
}

/// Runs `workload` in a child process and returns its result object with
/// the `info` line (pass and sample counts, schedule hash) folded in.
fn run_child(suite: &Suite, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if suite.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let output = command.output().map_err(|error| format!("spawning {workload}: {error}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{workload} printed no result"))?;
    let mut result = Json::parse(last).map_err(|error| format!("{workload} result: {error}"))?;
    let info = stdout
        .lines()
        .find_map(|line| line.strip_prefix("info "))
        .and_then(|text| Json::parse(text).ok())
        .unwrap_or(Json::Null);
    if let Json::Obj(fields) = &mut result {
        fields.insert("info".to_string(), info);
    }
    Ok(result)
}

/// One section of a result file: every workload, in `order`.
fn run_section(suite: &Suite, trace: bool, order: &[Kind]) -> Result<Json, String> {
    let mut section = BTreeMap::new();
    for workload in order.iter().map(|kind| kind.name()) {
        eprintln!("running {workload} ({})", if trace { "traced" } else { "untraced" });
        section.insert(workload.to_string(), run_child(suite, workload, trace)?);
    }
    Ok(Json::Obj(section))
}

fn metrics_of(result: &Json) -> impl Iterator<Item = (&String, f64, &str)> {
    result.get("metrics").and_then(Json::as_obj).into_iter().flatten().filter_map(
        |(name, metric)| {
            Some((name, metric.get("value")?.as_f64()?, metric.get("unit")?.as_str()?))
        },
    )
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn failed_share(result: &Json) -> f64 {
    count(result, "failed") / count(result, "attempted").max(1.0)
}

/// Every metric of a section by name with its unit, one column per workload.
fn print_section(section: &Json) {
    let Some(workloads) = section.as_obj() else { return };
    let mut rows: BTreeMap<(&String, &str), BTreeMap<&String, f64>> = BTreeMap::new();
    for (workload, result) in workloads {
        for (name, value, unit) in metrics_of(result) {
            rows.entry((name, unit)).or_default().insert(workload, value);
        }
    }
    print!("{:28} {:6}", "metric", "unit");
    for workload in workloads.keys() {
        print!(" {workload:>14}");
    }
    println!();
    for ((name, unit), values) in rows {
        print!("{name:28} {unit:6}");
        for workload in workloads.keys() {
            match values.get(workload) {
                Some(value) => print!(" {value:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    print!("{:28} {:6}", "failed_share", "ratio");
    for result in workloads.values() {
        print!(" {:>14.4}", failed_share(result));
    }
    println!();
}

fn any_failed(section: &Json) -> bool {
    section.as_obj().into_iter().flatten().any(|(_, result)| count(result, "failed") > 0.0)
}

fn write_result(file: &Json, name: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|error| format!("{OUT_DIR}: {error}"))?;
    let path = format!("{OUT_DIR}/{name}.json");
    std::fs::write(&path, file.pretty()).map_err(|error| format!("{path}: {error}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `all` (untraced: the end-to-end metrics) or `trace` (the per-layer
/// metrics): every workload once, printed and saved; fails on a failed op.
pub fn run_suite(suite: &Suite, trace: bool) -> Result<ExitCode, String> {
    let (key, file_name) = if trace { ("per_layer", "trace") } else { ("end_to_end", "result") };
    let section = run_section(suite, trace, &Kind::ALL)?;
    print_section(&section);
    let failed = any_failed(&section);
    let file = Json::obj([("stamp", stamp(suite)), (key, section)]);
    write_result(&file, &format!("{file_name}-seed{}", suite.seed))?;
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Untraced rounds per side of an A/A comparison. One run against one run
/// does not hold the bounds on a host whose speed drifts by a fifth from one
/// minute to the next; the median of three alternated rounds does.
const AA_ROUNDS: usize = 3;

/// One end-to-end section out of several rounds: per workload and metric the
/// median over the rounds, with the ops attempted and failed summed.
fn median_section(rounds: &[Json]) -> Json {
    let mut merged = BTreeMap::new();
    for (workload, first) in rounds[0].as_obj().into_iter().flatten() {
        let runs: Vec<&Json> = rounds.iter().filter_map(|round| round.get(workload)).collect();
        let metrics = metrics_of(first).map(|(name, _, unit)| {
            let values: Vec<f64> = runs
                .iter()
                .flat_map(|run| metrics_of(run))
                .filter(|(other, _, _)| *other == name)
                .map(|(_, value, _)| value)
                .collect();
            let metric =
                Json::obj([("value", Json::Num(median(&values))), ("unit", Json::str(unit))]);
            (name.clone(), metric)
        });
        let total = |key: &str| Json::Num(runs.iter().map(|run| count(run, key)).sum());
        let infos = runs.iter().filter_map(|run| run.get("info").cloned()).collect();
        merged.insert(
            workload.clone(),
            Json::obj([
                ("attempted", total("attempted")),
                ("failed", total("failed")),
                ("metrics", Json::obj(metrics)),
                ("info", Json::Arr(infos)),
            ]),
        );
    }
    Json::Obj(merged)
}

/// The whole benchmark on both sides of an A/A comparison, the sides
/// alternating (side b runs the workloads in reverse order): `AA_ROUNDS`
/// untraced rounds and one traced round each. The two result files must agree
/// within the bounds, and every count exactly.
pub fn aa(suite: &Suite) -> Result<ExitCode, String> {
    let reversed: Vec<Kind> = Kind::ALL.into_iter().rev().collect();
    let sides = [("a", &Kind::ALL[..]), ("b", &reversed[..])];
    let mut rounds = [Vec::new(), Vec::new()];
    for _ in 0..AA_ROUNDS {
        for (side, (_, order)) in sides.iter().enumerate() {
            rounds[side].push(run_section(suite, false, order)?);
        }
    }
    let mut files = Vec::new();
    for (side, (label, order)) in sides.iter().enumerate() {
        let file = Json::obj([
            ("stamp", stamp(suite)),
            ("end_to_end", median_section(&rounds[side])),
            ("per_layer", run_section(suite, true, order)?),
        ]);
        write_result(&file, &format!("aa-seed{}-{label}", suite.seed))?;
        files.push(file);
    }
    compare(&files[0], &files[1], true)
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
        Json::parse(&text).map_err(|error| format!("{path}: {error}"))
    };
    compare(&load(a)?, &load(b)?, false)
}

/// Applies the manifest's bounds to two result files. `b` breaches a bound
/// when it is worse than `a` by more than the bound's share of `a`; in an
/// A/A comparison (`symmetric`) either side being worse counts. A higher
/// `failed_share` and a differing count metric are breaches at any size.
fn compare(a: &Json, b: &Json, symmetric: bool) -> Result<ExitCode, String> {
    let manifest = manifest()?;
    let mut breaches = 0;
    println!(
        "{:14} {:28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    let mut row = |workload: &str, name: &str, va: f64, vb: f64, worse: f64, bound: f64| {
        let breach = worse > bound;
        breaches += usize::from(breach);
        println!(
            "{workload:14} {name:28} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%{}",
            worse * 100.0,
            bound * 100.0,
            if breach { "  BREACH" } else { "" }
        );
    };
    let sections = |key: &str| Some((a.get(key)?.as_obj()?, b.get(key)?.as_obj()?));

    if let Some((a_runs, b_runs)) = sections("end_to_end") {
        let bounds = manifest.get("end_to_end").and_then(Json::as_arr).ok_or("no `end_to_end`")?;
        for (workload, result_a) in a_runs {
            let Some(result_b) = b_runs.get(workload) else { continue };
            let values_b: BTreeMap<&String, f64> =
                metrics_of(result_b).map(|(name, value, _)| (name, value)).collect();
            for (name, va, _) in metrics_of(result_a) {
                let (Some(&vb), Some(spec)) = (
                    values_b.get(name),
                    bounds
                        .iter()
                        .find(|spec| spec.get("name").and_then(Json::as_str) == Some(name)),
                ) else {
                    continue;
                };
                let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                let lower = spec.get("better").and_then(Json::as_str) != Some("higher");
                // How much worse `b` is than `a`, as a share of `a`.
                let mut worse = if lower { (vb - va) / va } else { (va - vb) / va };
                if symmetric {
                    worse = worse.abs();
                }
                row(workload, name, va, vb, worse, bound);
            }
            let (fa, fb) = (failed_share(result_a), failed_share(result_b));
            let worse = if symmetric { (fb - fa).abs() } else { fb - fa };
            row(workload, "failed_share", fa, fb, worse, 0.0);
        }
    }
    if let Some((a_runs, b_runs)) = sections("per_layer") {
        for (workload, result_a) in a_runs {
            let Some(result_b) = b_runs.get(workload) else { continue };
            let values_b: BTreeMap<&String, f64> =
                metrics_of(result_b).map(|(name, value, _)| (name, value)).collect();
            for (name, va, unit) in metrics_of(result_a) {
                if unit != "count" {
                    continue;
                }
                if let Some(&vb) = values_b.get(name) {
                    if va != vb {
                        row(workload, name, va, vb, f64::INFINITY, 0.0);
                    }
                }
            }
        }
    }
    println!("{breaches} breach(es)");
    Ok(if breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
