//! Runs one workload in this process: set-up, an untimed warm-up pass, then
//! timed passes for the requested time; checks every answer against
//! `expected.json`; reduces the samples to the end-to-end metrics (or, in a
//! traced run, to the per-layer metrics).
//!
//! Every end-to-end timing is a statistic of one pass, and the run reports
//! the smallest value any of its timed passes gave. The host is a few cores
//! of a shared machine whose neighbours slow identical work by a fifth for
//! seconds to tens of seconds at a time; that only ever adds time, and the
//! undisturbed value repeats to within a few percent, so the fastest pass is
//! the steadiest estimate of what the program itself costs (the spreads of
//! median, lower quartile and minimum are tabulated in the README).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::expected::Expected;
use crate::instances::{schedule, schedule_hash, Kind};
use crate::json::Json;
use crate::probes;
use crate::trace::Tracer;
use crate::workloads::{Counts, Workload};

pub struct RunArgs {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One timed pass only (the later CI step).
    pub smoke: bool,
    /// Stop after the warm-up pass and report `setup_s` alone: what a run
    /// asks of its child processes.
    pub setup_only: bool,
}

/// Where traces and result files go (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

/// Timed passes every full run makes at least, however long one takes; the
/// schedule hash covers exactly these.
const MIN_PASSES: usize = 3;

/// Set-up is repeated until it has taken this long in all: about five times
/// on `local_lazy`, twice on `synthesis` and `serve_warm`, once on the two
/// workloads whose warm-up pass alone is longer.
const SETUP_SECONDS: f64 = 2.0;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Pass counts, sample counts and the schedule hash, for the stamp.
    pub info: Json,
}

/// What one pass measured.
pub struct Pass {
    pub traced: bool,
    pub wall: f64,
    /// Per op issued, in issue order: its instance and its client-side
    /// latency.
    pub ops: Vec<(usize, f64)>,
    pub counts: Counts,
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], share: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (share * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest of `values`: the figure of the run's fastest pass.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The slowest op of a pass: the largest, over the workload's ops, of the
/// op's latency in the pass — its median latency where the pass issues the
/// same op many times (`serve_warm`), so the figure names the slowest kind of
/// request, not the unluckiest single one.
fn slowest_op(pass: &Pass, instances: usize) -> f64 {
    (0..instances)
        .map(|instance| {
            let walls: Vec<f64> = pass
                .ops
                .iter()
                .filter(|&&(index, _)| index == instance)
                .map(|&(_, wall)| wall)
                .collect();
            // Zero for an instance the pass drew no request for (`serve_warm`).
            median(&walls)
        })
        .fold(0.0, f64::max)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One more set-up, process start to the end of the warm-up pass, in a child
/// process that is waited for.
fn setup_in_child(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--setup-only"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|error| format!("spawning the set-up child: {error}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(|line| Json::parse(line).ok());
    result
        .filter(|_| output.status.success())
        .and_then(|result| result.get("metrics")?.get("setup_s")?.get("value")?.as_f64())
        .ok_or_else(|| "the set-up child failed".to_string())
}

struct Runner<'a> {
    workload: Workload,
    expected: &'a Expected,
    tracer: Tracer,
    seed: u64,
    attempted: u64,
    failed: u64,
}

impl Runner<'_> {
    /// One pass over the workload's op list in the seeded order. An op that
    /// errors, panics or answers differently from `expected.json` is a
    /// failed op, and the pass goes on.
    fn pass(&mut self, pass: usize, traced: bool) -> Pass {
        let name = self.workload.kind.name();
        let order = schedule(self.workload.kind, self.workload.specs.len(), self.seed, pass);
        self.tracer.set_enabled(traced);
        self.tracer.begin_pass(pass);
        let mut counts = Counts::default();
        let mut ops = Vec::with_capacity(order.len());
        let pass_start = Instant::now();
        for index in order {
            let op = self.workload.op_id(index);
            self.tracer.begin_op(&op);
            let op_start = Instant::now();
            let (workload, tracer) = (&mut self.workload, &mut self.tracer);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("op", |tracer| workload.run_op(index, tracer))
            }))
            .unwrap_or_else(|_| Err("panicked".to_string()));
            ops.push((index, op_start.elapsed().as_secs_f64()));
            self.attempted += 1;
            let verdict = outcome.and_then(|outcome| {
                counts.merge(&outcome.counts);
                match self.expected.answer(name, &op) {
                    Some(answer) if answer == outcome.answer => Ok(()),
                    Some(answer) => Err(format!("answered {}, expected {answer}", outcome.answer)),
                    None => Err("has no entry in expected.json".to_string()),
                }
            });
            if let Err(error) = verdict {
                self.failed += 1;
                eprintln!("FAILED {name} / {op}: {error}");
            }
        }
        self.tracer.set_enabled(false);
        Pass { traced, wall: pass_start.elapsed().as_secs_f64(), ops, counts }
    }
}

pub fn run(args: &RunArgs, process_start: Instant) -> Result<RunReport, String> {
    let expected = Expected::load()?;
    let workload = Workload::set_up(args.workload)?;
    let instances = workload.specs.len();
    let mut runner = Runner {
        workload,
        expected: &expected,
        tracer: Tracer::new(process_start),
        seed: args.seed,
        attempted: 0,
        failed: 0,
    };
    // The warm-up pass fills allocator pools and page tables; it is checked
    // like any other pass but its time is set-up time.
    runner.pass(0, false);
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    if args.setup_only {
        let metrics = vec![Metric { name: "setup_s", value: setups[0], unit: "s" }];
        let (attempted, failed) = (runner.attempted, runner.failed);
        return Ok(RunReport { attempted, failed, metrics, info: Json::Null });
    }
    // Set-up is measured again, from nothing, in child processes of this
    // binary, one at a time, while that is cheap; `setup_s` is the fastest
    // of them, like every other timing.
    while !args.smoke && process_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.push(setup_in_child(args)?);
    }
    let setup_s = fastest(&setups);

    let min_passes = match (args.smoke, args.trace) {
        (true, _) => 1,
        // One untraced and one traced pass beside the warm-up: a traced run
        // also pays for the probes.
        (false, true) => 2,
        (false, false) => MIN_PASSES,
    };
    let timed_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes
        || (!args.smoke && timed_start.elapsed().as_secs_f64() < args.seconds)
    {
        // A traced run alternates untraced and traced passes, so the two
        // samples its overhead figure compares see the same machine state.
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(runner.pass(passes.len() + 1, traced));
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|pass| !pass.traced).collect();
    let latencies = |pass: &Pass| -> Vec<f64> { pass.ops.iter().map(|&(_, wall)| wall).collect() };
    let per_pass = |statistic: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        untraced.iter().map(|pass| statistic(pass)).collect()
    };
    let pass_walls = per_pass(&|pass| pass.wall);
    let slowest = per_pass(&|pass| slowest_op(pass, instances));
    let p50s = per_pass(&|pass| median(&latencies(pass)));
    let p99s = per_pass(&|pass| percentile(&latencies(pass), 0.99));
    let samples: usize = untraced.iter().map(|pass| pass.ops.len()).sum();
    let seconds =
        |values: &[f64]| Json::Arr(values.iter().map(|&value| Json::Num(value)).collect());
    let hash = schedule_hash(args.workload, instances, args.seed, MIN_PASSES);
    let info = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("setups_s", seconds(&setups)),
        ("timed_passes", Json::Num(passes.len() as f64)),
        ("untraced_passes", Json::Num(untraced.len() as f64)),
        ("ops_per_pass", Json::Num(passes[0].ops.len() as f64)),
        ("latency_samples", Json::Num(samples as f64)),
        // Per untraced pass, the statistics the end-to-end metrics are the
        // minimum of — kept so a result file shows the run's own spread.
        ("pass_walls_s", seconds(&pass_walls)),
        ("pass_slowest_op_s", seconds(&slowest)),
        ("pass_op_p50_s", seconds(&p50s)),
        ("pass_op_p99_s", seconds(&p99s)),
        ("schedule_fnv1a", Json::Str(format!("{hash:016x}"))),
    ]);

    let metrics = if args.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", args.workload.name());
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, runner.tracer.to_json().pretty()))
            .map_err(|error| format!("{path}: {error}"))?;
        probes::per_layer_metrics(&mut runner.workload, &runner.tracer, &passes)?
    } else {
        [
            ("setup_s", setup_s, "s"),
            ("pass_wall_s", fastest(&pass_walls), "s"),
            ("slowest_op_s", fastest(&slowest), "s"),
            ("op_p50_ms", fastest(&p50s) * 1e3, "ms"),
            ("op_p99_ms", fastest(&p99s) * 1e3, "ms"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
    };
    Ok(RunReport { attempted: runner.attempted, failed: runner.failed, metrics, info })
}
