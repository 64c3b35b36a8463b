//! Shared harness code for the benchmark suite.
//!
//! The paper reports three tables of running times (model checking and
//! synthesis for SBA, model checking of the Diff/Dwork–Moses protocols under
//! varying round counts, and EBA synthesis), obtained with a 10-minute
//! timeout per experiment. This crate reproduces those tables:
//!
//! * `cargo run -p epimc-bench --bin tables` prints all three tables (plus
//!   the scaling and engine-ablation summaries) in the paper's layout, using
//!   a configurable per-cell timeout;
//! * `cargo bench -p epimc-bench` runs Criterion benchmarks over the smaller
//!   parameter grid, giving statistically robust timings per cell.

use std::time::Duration;

use epimc::experiments::{format_mck_duration, with_timeout};
use epimc::prelude::*;

/// Default per-cell timeout used by the `tables` binary, mirroring the
/// 10-minute timeout of the paper (scaled down so the default run finishes
/// quickly; pass `--timeout <seconds>` for longer budgets).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// One cell of a result table.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row label components (e.g. `n`, `t`, and optionally the round count).
    pub key: Vec<String>,
    /// One rendered entry per column.
    pub entries: Vec<String>,
}

/// Renders a table in a fixed-width layout.
pub fn render_table(title: &str, key_headers: &[&str], columns: &[&str], cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let mut header = String::new();
    for key in key_headers {
        header.push_str(&format!("{key:>4} "));
    }
    for column in columns {
        header.push_str(&format!("{column:>22} "));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for cell in cells {
        let mut line = String::new();
        for key in &cell.key {
            line.push_str(&format!("{key:>4} "));
        }
        for entry in &cell.entries {
            line.push_str(&format!("{entry:>22} "));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Runs one measurement with a timeout; renders `TO` on timeout, like the
/// paper's tables.
pub fn timed_entry<F>(timeout: Duration, run: F) -> String
where
    F: FnOnce() -> ExperimentMeasurement + Send + 'static,
{
    match with_timeout(timeout, run) {
        Some(measurement) => {
            let mut entry = format_mck_duration(measurement.duration);
            if !measurement.spec_ok {
                entry.push_str(" [spec!]");
            } else if !measurement.optimal {
                entry.push_str(" [subopt]");
            }
            entry
        }
        None => "TO".to_string(),
    }
}

/// The (n, t) grid of Table 1. The `full` grid matches the paper
/// (n up to 6); the quick grid keeps every cell under a few seconds on a
/// laptop so that `cargo bench` completes promptly.
pub fn table1_grid(full: bool) -> Vec<(usize, usize)> {
    let max_n = if full { 6 } else { 4 };
    let mut grid = Vec::new();
    for n in 2..=max_n {
        for t in 1..=n {
            if !full && n == 4 && t > 2 {
                continue;
            }
            grid.push((n, t));
        }
    }
    grid
}

/// The (n, t, rounds) grid of Table 2.
pub fn table2_grid(full: bool) -> Vec<(usize, usize, u32)> {
    let max_n = if full { 4 } else { 3 };
    let mut grid = Vec::new();
    for n in 2..=max_n {
        for t in 1..=n {
            for rounds in 1..=(t as u32 + 1) {
                if !full && n == 3 && t > 2 {
                    continue;
                }
                grid.push((n, t, rounds));
            }
        }
    }
    grid
}

/// The (n, t) grid of Table 3.
pub fn table3_grid(full: bool) -> Vec<(usize, usize)> {
    let max_n = if full { 4 } else { 3 };
    let mut grid = Vec::new();
    for n in 2..=max_n {
        for t in 1..=n {
            if !full && n == 3 && t > 2 {
                continue;
            }
            grid.push((n, t));
        }
    }
    grid
}

/// Whether the full (paper-sized) grids were requested via the
/// `EPIMC_BENCH_FULL` environment variable.
pub fn full_grids_requested() -> bool {
    std::env::var("EPIMC_BENCH_FULL").map(|v| v == "1" || v == "true").unwrap_or(false)
}

/// Table 1: model checking and synthesis times for the FloodSet and Count
/// FloodSet exchanges under crash failures.
pub fn table1(timeout: Duration, full: bool) -> String {
    let mut cells = Vec::new();
    for (n, t) in table1_grid(full) {
        let flood = Experiment::crash(ProtocolKind::FloodSet, n, t);
        let count = Experiment::crash(ProtocolKind::CountFloodSet, n, t);
        let entries = vec![
            timed_entry(timeout, move || flood.model_check()),
            timed_entry(timeout, move || flood.synthesize()),
            timed_entry(timeout, move || count.model_check()),
            timed_entry(timeout, move || count.synthesize()),
        ];
        cells.push(Cell { key: vec![n.to_string(), t.to_string()], entries });
    }
    render_table(
        "Table 1: SBA running times (crash failures, |V| = 2)",
        &["n", "t"],
        &["floodset check", "floodset synth", "count check", "count synth"],
        &cells,
    )
}

/// Table 2: model checking times for the Differential and Dwork–Moses
/// protocols, with a varying number of explored rounds.
pub fn table2(timeout: Duration, full: bool) -> String {
    let mut cells = Vec::new();
    for (n, t, rounds) in table2_grid(full) {
        let diff = Experiment {
            horizon: Some(rounds),
            ..Experiment::crash(ProtocolKind::DiffFloodSet, n, t)
        };
        let dwork = Experiment { protocol: ProtocolKind::DworkMoses, ..diff };
        let entries = vec![
            timed_entry(timeout, move || diff.model_check()),
            timed_entry(timeout, move || dwork.model_check()),
        ];
        cells.push(Cell { key: vec![n.to_string(), t.to_string(), rounds.to_string()], entries });
    }
    render_table(
        "Table 2: model checking the Differential and Dwork-Moses protocols",
        &["n", "t", "rds"],
        &["differential check", "dwork-moses check"],
        &cells,
    )
}

/// Table 3: EBA synthesis times for `E_min` and `E_basic`, under crash and
/// sending-omission failures.
pub fn table3(timeout: Duration, full: bool) -> String {
    let mut cells = Vec::new();
    for (n, t) in table3_grid(full) {
        let mut entries = Vec::new();
        for protocol in [ProtocolKind::EMin, ProtocolKind::EBasic] {
            for failure in [FailureKind::Crash, FailureKind::SendOmission] {
                let experiment = Experiment::new(protocol, n, t, failure);
                entries.push(timed_entry(timeout, move || experiment.synthesize()));
            }
        }
        cells.push(Cell { key: vec![n.to_string(), t.to_string()], entries });
    }
    render_table(
        "Table 3: EBA synthesis running times",
        &["n", "t"],
        &["E_min crash", "E_min omissions", "E_basic crash", "E_basic omissions"],
        &cells,
    )
}

/// The scaling study (runtime versus number of agents, t = 1) behind the
/// paper's discussion of the blow-up threshold.
pub fn scaling_table(timeout: Duration, full: bool) -> String {
    let max_n = if full { 6 } else { 5 };
    let mut cells = Vec::new();
    for n in 2..=max_n {
        let flood = Experiment::crash(ProtocolKind::FloodSet, n, 1);
        let entries = vec![
            timed_entry(timeout, move || flood.model_check()),
            timed_entry(timeout, move || flood.synthesize()),
        ];
        cells.push(Cell { key: vec![n.to_string()], entries });
    }
    render_table(
        "Scaling: FloodSet, t = 1, runtime versus number of agents",
        &["n"],
        &["model check", "synthesis"],
        &cells,
    )
}

/// The exploration ablation: sequential versus parallel frontier expansion
/// of the FloodSet state space (t = 2), reporting per-run state counts,
/// de-duplication hits and the parallel speedup. The two explorations are
/// checked to be bit-identical before reporting.
pub fn explore_table(full: bool) -> String {
    let max_n = if full { 7 } else { 6 };
    let mut cells = Vec::new();
    for n in 4..=max_n {
        let params = Experiment::crash(ProtocolKind::FloodSet, n, 2).params();
        with_protocol!(ProtocolKind::FloodSet, |exchange, rule| {
            let sequential = StateSpace::explore_sequential(exchange, params, &rule);
            let parallel = StateSpace::explore(exchange, params, &rule);
            for (seq_layer, par_layer) in sequential.layers().iter().zip(parallel.layers()) {
                assert!(
                    seq_layer.states == par_layer.states
                        && seq_layer.successors == par_layer.successors,
                    "parallel exploration diverged from sequential"
                );
            }
            let threads = parallel.threads();
            let seq_stats = sequential.stats();
            let par_stats = parallel.stats();
            let speedup = seq_stats.total_wall().as_secs_f64()
                / par_stats.total_wall().as_secs_f64().max(1e-9);
            cells.push(Cell {
                key: vec![n.to_string(), 2.to_string()],
                entries: vec![
                    seq_stats.total_states().to_string(),
                    seq_stats.total_generated().to_string(),
                    seq_stats.total_dedup_hits().to_string(),
                    format_mck_duration(seq_stats.total_wall()),
                    format_mck_duration(par_stats.total_wall()),
                    format!("{speedup:.2}x ({threads} thr)"),
                ],
            });
        });
    }
    render_table(
        "Exploration: sequential versus parallel frontier expansion (FloodSet, t = 2)",
        &["n", "t"],
        &["states", "generated", "dedup hits", "sequential", "parallel", "speedup"],
        &cells,
    )
}

/// One row of the symbolic ablation: a stable instance id (the key used by
/// the node-budget file) plus the measured profile.
pub struct SymbolicRow {
    /// Stable identifier, e.g. `floodset-n8-t3`.
    pub id: String,
    /// The measured profile.
    pub profile: SymbolicProfile,
}

/// Whether a profile of `experiment` includes the bounded temporal formula:
/// the largest instances (six agents and up) are profiled on the knowledge
/// battery alone.
fn profiles_temporal(experiment: &Experiment) -> bool {
    experiment.n < 6
}

/// The symbolic-engine ablation grid, as data.
///
/// `smoke` restricts it to the single small instance exercised by CI
/// (`floodset-n4-t1`). The default grid spans every protocol family and
/// ends with FloodSet `n = 8, t = 3` — a ~400k-state instance that the
/// pre-GC engine could not complete — checked without the temporal battery.
pub fn symbolic_grid(full: bool, smoke: bool) -> Vec<Experiment> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![Experiment::crash(FloodSet, 4, 1)];
    }
    let mut grid = vec![
        Experiment::crash(FloodSet, 3, 1),
        Experiment::crash(FloodSet, 4, 2),
        Experiment::crash(CountFloodSet, 3, 1),
        Experiment::crash(DiffFloodSet, 3, 1),
        Experiment::crash(DworkMoses, 2, 1),
        Experiment::new(EMin, 2, 1, SendOmission),
        Experiment::new(EBasic, 2, 1, SendOmission),
        Experiment::crash(FloodSet, 6, 2),
    ];
    if full {
        grid.extend([
            Experiment::crash(CountFloodSet, 4, 1),
            Experiment::crash(DworkMoses, 3, 1),
            Experiment::crash(FloodSet, 7, 2),
        ]);
    }
    grid.push(Experiment::crash(FloodSet, 8, 3));
    grid
}

/// Measures the symbolic-engine ablation grid ([`symbolic_grid`]).
pub fn symbolic_rows(full: bool, smoke: bool) -> Vec<SymbolicRow> {
    let measure = |experiment: &Experiment| SymbolicRow {
        id: experiment.id(),
        profile: experiment
            .symbolic_profile(SymbolicOptions::default(), profiles_temporal(experiment)),
    };
    symbolic_grid(full, smoke).iter().map(measure).collect()
}

/// Renders the symbolic ablation rows as a table.
pub fn render_symbolic_table(rows: &[SymbolicRow]) -> String {
    let cells: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let profile = &row.profile;
            let stats = &profile.stats;
            let cb = profile
                .formula("B_0 CB exists0")
                .map(|f| format_mck_duration(f.duration))
                .unwrap_or_else(|| "-".to_string());
            let temporal = profile
                .formula("AG(decided_0 -> exists0)")
                .map(|f| format_mck_duration(f.duration))
                .unwrap_or_else(|| "-".to_string());
            Cell {
                key: vec![format!("{:<20}", row.id)],
                entries: vec![
                    profile.total_states.to_string(),
                    format_mck_duration(profile.build_duration),
                    cb,
                    temporal,
                    stats.peak_live_nodes.to_string(),
                    format!("{} ({})", stats.gc_runs, stats.swept_nodes),
                    format!("{:.1}%", stats.cache_hit_rate() * 100.0),
                ],
            }
        })
        .collect();
    let mut out = render_table(
        "Symbolic engine: per-formula timings, GC and cache behaviour",
        &["instance            "],
        &["states", "build", "CB check", "AG check", "peak live nodes", "gcs (swept)", "hit-rate"],
        &cells,
    );
    out.push_str(
        "'build' is the relational model construction, the checks are holds_everywhere verdicts.\n\
         CB = SBA knowledge condition (B_0 CB exists0); AG = bounded temporal formula by\n\
         pre-image ('-' where the temporal battery is skipped).\n",
    );
    out
}

/// Checks measured peak-live-node counts against a checked-in budget file.
///
/// The budget file has one `<instance-id> <max-peak-live-nodes>` pair per
/// line (`#` starts a comment). Budget entries with no matching row are
/// skipped, so one file can serve several grids — but if *no* entry
/// matches any measured row the check fails: a gate that silently checked
/// nothing (an id drifted, or a typo landed in the budget file) must not
/// pass CI. Returns a human-readable summary, or an error describing
/// every violation (used to fail CI on regressions).
pub fn check_symbolic_budget(rows: &[SymbolicRow], budget_text: &str) -> Result<String, String> {
    let measured: Vec<(String, usize)> =
        rows.iter().map(|row| (row.id.clone(), row.profile.stats.peak_live_nodes)).collect();
    check_peak_budget(&measured, budget_text)
}

/// Checks measured synthesis peak-live-node counts against a checked-in
/// budget file; same format and failure semantics as
/// [`check_symbolic_budget`].
pub fn check_synthesis_budget(rows: &[SynthesisRow], budget_text: &str) -> Result<String, String> {
    let measured: Vec<(String, usize)> =
        rows.iter().map(|row| (row.id.clone(), row.comparison.peak_live_nodes)).collect();
    check_peak_budget(&measured, budget_text)
}

/// How one budget gate words its messages: the gate's name, what one
/// measured value is called, and how a violated value is introduced.
struct GateWording {
    gate: &'static str,
    noun: &'static str,
    quantity: &'static str,
}

const NODE_GATE: GateWording =
    GateWording { gate: "node", noun: "instance", quantity: "peak live nodes" };
const SERVE_GATE: GateWording = GateWording { gate: "serve", noun: "metric", quantity: "measured" };

/// The shared budget gate over `(key, measured value)` pairs: every
/// `<key> <bound>` line of `budget_text` whose key was measured is checked,
/// and each excess joins `violations` (which may arrive holding failures
/// the caller found on its own).
fn check_budget(
    measured: &[(String, usize)],
    budget_text: &str,
    wording: &GateWording,
    mut violations: Vec<String>,
) -> Result<String, String> {
    let GateWording { gate, noun, quantity } = wording;
    let mut checked = 0usize;
    for (line_number, line) in budget_text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(budget)) = (parts.next(), parts.next()) else {
            return Err(format!("budget line {} is malformed: {line:?}", line_number + 1));
        };
        let budget: usize = budget
            .parse()
            .map_err(|_| format!("budget line {}: {budget:?} is not a number", line_number + 1))?;
        let Some(&(_, value)) = measured.iter().find(|(measured_id, _)| measured_id == id) else {
            continue;
        };
        checked += 1;
        if value > budget {
            violations.push(format!("{id}: {quantity} {value} exceeds the budget of {budget}"));
        }
    }
    if checked == 0 {
        let ids: Vec<&str> = measured.iter().map(|(id, _)| id.as_str()).collect();
        return Err(format!(
            "no budget entry matched any measured {noun} (measured: {}); \
             the budget gate would check nothing",
            ids.join(", ")
        ));
    }
    if violations.is_empty() {
        Ok(format!("{gate} budget ok ({checked} {noun}(s) checked)"))
    } else {
        Err(violations.join("\n"))
    }
}

/// The peak-live-node gate over `(instance id, measured peak)` pairs.
fn check_peak_budget(measured: &[(String, usize)], budget_text: &str) -> Result<String, String> {
    check_budget(measured, budget_text, &NODE_GATE, Vec::new())
}

/// One row of the synthesis ablation: a stable instance id (the key used by
/// the node-budget file) plus the explicit-versus-symbolic measurement.
pub struct SynthesisRow {
    /// Stable identifier, e.g. `floodset-n9-t3`.
    pub id: String,
    /// The measurement.
    pub comparison: SynthesisComparison,
}

/// The rows on which the two synthesis engines produced *different* rules
/// (rendered as `NO` in the agree column). The `tables` binary exits
/// nonzero when this is nonempty — after printing the table, so a
/// disagreement late in a long run does not discard the measurements.
pub fn synthesis_disagreements(rows: &[SynthesisRow]) -> Vec<&str> {
    rows.iter()
        .filter(|row| row.comparison.rules_agree == Some(false))
        .map(|row| row.id.as_str())
        .collect()
}

/// The synthesis ablation grid, as data: the SBA / EBA knowledge-based
/// programs synthesized explicitly and symbolically.
///
/// `smoke` restricts it to the two small CI instances. The default grid
/// climbs the FloodSet family to `n = 9, t = 3` (~1.1M states) and — the
/// headline of this ablation — `n = 10, t = 3` (~3M states), which the
/// symbolic engine completes while the explicit engine times out.
///
/// A timed-out explicit run is detached, not cancelled
/// ([`with_timeout`]'s TO semantics, as in the paper's tables), so its
/// thread keeps consuming CPU: rows measured *after* a `TO` cell run
/// degraded. The grid orders instances so the TO-prone cell comes last;
/// with a custom low `--timeout`, treat rows after the first `TO` as
/// contaminated.
pub fn synthesis_grid(full: bool, smoke: bool) -> Vec<Experiment> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![Experiment::crash(FloodSet, 4, 1), Experiment::new(EMin, 2, 1, SendOmission)];
    }
    let mut grid = vec![
        Experiment::crash(FloodSet, 4, 1),
        Experiment::crash(CountFloodSet, 3, 1),
        Experiment::new(EMin, 2, 1, SendOmission),
        Experiment::new(EMin, 3, 1, SendOmission),
        Experiment::new(EBasic, 2, 1, SendOmission),
        Experiment::crash(FloodSet, 6, 2),
        Experiment::crash(FloodSet, 7, 2),
        Experiment::crash(FloodSet, 8, 3),
    ];
    if full {
        grid.push(Experiment::crash(FloodSet, 9, 3));
    }
    grid.push(Experiment::crash(FloodSet, 10, 3));
    if full {
        // ~8.4M states: the symbolic peak stays flat (~300k live nodes) but
        // the explicit-model front-end (exploration + observation
        // precompute) dominates the wall clock, so this row only fits the
        // bench budget on a multi-core host where the parallel explorer
        // pulls its weight. Last on purpose — see the TO note above.
        grid.push(Experiment::crash(FloodSet, 11, 3));
    }
    grid
}

/// Measures the synthesis ablation grid ([`synthesis_grid`]), with the
/// explicit engine under `timeout` per cell (`TO` entries mirror the
/// paper's tables).
pub fn synthesis_rows(full: bool, smoke: bool, timeout: Duration) -> Vec<SynthesisRow> {
    let measure = |experiment: &Experiment| SynthesisRow {
        id: experiment.id(),
        comparison: experiment.compare_synthesis(timeout),
    };
    synthesis_grid(full, smoke).iter().map(measure).collect()
}

/// Renders the synthesis ablation rows as a table.
pub fn render_synthesis_table(rows: &[SynthesisRow]) -> String {
    let cells: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let comparison = &row.comparison;
            let explicit = comparison
                .explicit_duration
                .map(format_mck_duration)
                .unwrap_or_else(|| "TO".to_string());
            let agree = match comparison.rules_agree {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            };
            Cell {
                key: vec![format!("{:<20}", row.id)],
                entries: vec![
                    comparison.total_states.to_string(),
                    explicit,
                    format_mck_duration(comparison.symbolic_duration),
                    format!("{}+{}", comparison.rounds, comparison.skipped_rounds),
                    comparison.peak_live_nodes.to_string(),
                    comparison.gc_runs.to_string(),
                    agree.to_string(),
                ],
            }
        })
        .collect();
    let mut out = render_table(
        "Synthesis: explicit versus symbolic forward induction",
        &["instance            "],
        &["states", "explicit", "symbolic", "rounds+skip", "peak live nodes", "gcs", "agree"],
        &cells,
    );
    out.push_str(
        "explicit runs under the per-cell timeout ('TO' mirrors the paper's tables); \
         rounds+skip counts\nprocessed rounds plus rounds skipped by the early exit; \
         'agree' compares the engines' rules.\n",
    );
    out
}

/// One row of the front-end table: an instance's layered symbolic model
/// built relationally (forward image over the partitioned round relation,
/// no state ever enumerated) and, on verified rows, compared layer by layer
/// with an exploration of the same instance.
pub struct FrontendRow {
    /// Stable identifier (the key used by the node-budget file).
    pub id: String,
    /// Wall clock of the relational build.
    pub relational_build: Duration,
    /// Peak live nodes of the relational build's manager.
    pub relational_peak: usize,
    /// Per-layer reachable state counts, model-counted off the relational
    /// build's layer BDDs.
    pub layer_states: Vec<u128>,
    /// Fused relational-product applications during the forward images.
    pub relational_product_calls: u64,
    /// Image-operation cache hits attributed to those applications.
    pub image_cache_hits: u64,
    /// Image-operation cache misses attributed to those applications.
    pub image_cache_misses: u64,
    /// Whether the layers were verified against the explorer: every
    /// explored point relationally reachable, and each layer's state count
    /// equal to the number of distinct states among its explored points.
    /// Skipped where the exploration itself is out of reach.
    pub verified: bool,
}

impl FrontendRow {
    /// Total states across the layers (sum of the per-layer counts).
    pub fn total_states(&self) -> u128 {
        self.layer_states.iter().sum()
    }
}

/// Per layer, the number of distinct *states* among the explored points of
/// `model`. A point is keyed by what a state consists of under the clock
/// semantics — per agent its observation, nonfaulty flag, initial
/// preference and decision value — because the explorer can keep points
/// that differ only in adversary bookkeeping (EMin under omissions does).
fn distinct_layer_states<E, R>(model: &ConsensusModel<E, R>) -> Vec<u128>
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    (0..model.num_layers() as Round)
        .map(|time| {
            let states: std::collections::HashSet<Vec<u32>> = (0..model.layer_size(time))
                .map(|index| {
                    let point = PointId::new(time, index);
                    let state = model.state(point);
                    let nonfaulty = state.nonfaulty();
                    AgentId::all(model.num_agents())
                        .flat_map(|agent| {
                            let decision =
                                state.decision(agent).map_or(0, |d| d.value.index() as u32 + 1);
                            model.observation(agent, point).values().iter().copied().chain([
                                u32::from(nonfaulty.contains(agent)),
                                state.init(agent).index() as u32,
                                decision,
                            ])
                        })
                        .collect()
                })
                .collect();
            states.len() as u128
        })
        .collect()
}

fn frontend_row<E, R>(
    id: String,
    exchange: E,
    rule: R,
    params: ModelParams,
    verify: bool,
) -> FrontendRow
where
    E: InformationExchange + SymbolicEncode,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    use std::time::Instant;
    let start = Instant::now();
    let relational = SymbolicChecker::relational(
        exchange.clone(),
        params,
        rule.clone(),
        SymbolicOptions::default(),
    );
    let relational_build = start.elapsed();
    let relational_stats = relational.stats();
    let layer_states: Vec<u128> =
        (0..relational.num_layers() as Round).map(|t| relational.layer_state_count(t)).collect();

    if verify {
        let model = ConsensusModel::explore(exchange, params, rule);
        assert_eq!(
            relational.check_points(&model, &Formula::True),
            PointSet::full(&model),
            "{id}: an explored point is not relationally reachable"
        );
        assert_eq!(
            layer_states,
            distinct_layer_states(&model),
            "{id}: the relational layers hold states the explorer never reached"
        );
    }
    FrontendRow {
        id,
        relational_build,
        relational_peak: relational_stats.peak_live_nodes,
        layer_states,
        relational_product_calls: relational_stats.relational_product_calls,
        image_cache_hits: relational_stats.image_cache_hits,
        image_cache_misses: relational_stats.image_cache_misses,
        verified: verify,
    }
}

/// The front-end grid, as data: relational model construction across the
/// six protocol families. `smoke` restricts it to the single CI instance;
/// `full` appends the sizes the relational build exists for.
pub fn frontend_grid(full: bool, smoke: bool) -> Vec<Experiment> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![Experiment::crash(FloodSet, 4, 1)];
    }
    let mut grid = vec![
        Experiment::crash(CountFloodSet, 4, 1),
        Experiment::crash(DiffFloodSet, 3, 1),
        Experiment::crash(DworkMoses, 3, 1),
        Experiment::new(EMin, 3, 1, SendOmission),
        Experiment::new(EBasic, 2, 1, SendOmission),
        Experiment::crash(FloodSet, 6, 2),
        Experiment::crash(FloodSet, 8, 3),
    ];
    if full {
        grid.extend([Experiment::crash(FloodSet, 10, 3), Experiment::crash(FloodSet, 12, 3)]);
    }
    grid
}

/// Measures the front-end grid ([`frontend_grid`]), every row verified
/// against the explorer except FloodSet `n = 12` (22M states), which is out
/// of the explorer's reach.
pub fn frontend_rows(full: bool, smoke: bool) -> Vec<FrontendRow> {
    let measure = |experiment: &Experiment| {
        let (id, params, verify) = (experiment.id(), experiment.params(), experiment.n < 12);
        with_protocol!(experiment.protocol, |exchange, rule| frontend_row(
            id, exchange, rule, params, verify
        ))
    };
    frontend_grid(full, smoke).iter().map(measure).collect()
}

/// Renders the front-end ablation rows as a table.
pub fn render_frontend_table(rows: &[FrontendRow]) -> String {
    let cells: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let hits = row.image_cache_hits;
            let misses = row.image_cache_misses;
            let hit_rate = if hits + misses == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", hits as f64 / (hits + misses) as f64 * 100.0)
            };
            Cell {
                key: vec![format!("{:<20}", row.id)],
                entries: vec![
                    row.total_states().to_string(),
                    format_mck_duration(row.relational_build),
                    row.relational_peak.to_string(),
                    row.relational_product_calls.to_string(),
                    hit_rate,
                    if row.verified { "yes" } else { "-" }.to_string(),
                ],
            }
        })
        .collect();
    let mut out = render_table(
        "Front-end: relational forward image (model build), verified against the explorer",
        &["instance            "],
        &[
            "states",
            "relational build",
            "relational peak",
            "rel products",
            "img hit-rate",
            "verified",
        ],
        &cells,
    );
    out.push_str(
        "'relational build' computes the layers as forward images of the round relation (never\n\
         enumerating a state). 'verified' marks rows checked against an exploration of the same\n\
         instance: every explored point reachable, and per layer as many states as the explored\n\
         points have distinct states; 'rel products' counts fused relational-product applications.\n",
    );
    out
}

/// Checks measured relational-build peak-live-node counts against a
/// checked-in budget file; same format and failure semantics as
/// [`check_symbolic_budget`].
pub fn check_frontend_budget(rows: &[FrontendRow], budget_text: &str) -> Result<String, String> {
    let measured: Vec<(String, usize)> =
        rows.iter().map(|row| (row.id.clone(), row.relational_peak)).collect();
    check_peak_budget(&measured, budget_text)
}

/// Machine-readable rendering of the front-end table (for
/// `BENCH_frontend.json`): per-cell build wall-clock, peak live nodes,
/// relational-product and image-cache counters, and the per-layer state
/// counts.
pub fn frontend_rows_json(rows: &[FrontendRow], grid: &str) -> String {
    let cells = rows
        .iter()
        .map(|row| {
            let layers = row
                .layer_states
                .iter()
                .map(|states| states.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            json_object(&[
                ("id", json_string(&row.id)),
                ("total_states", row.total_states().to_string()),
                ("layer_states", format!("[{layers}]")),
                ("relational_build_s", json_seconds(row.relational_build)),
                ("relational_peak_live_nodes", row.relational_peak.to_string()),
                ("relational_product_calls", row.relational_product_calls.to_string()),
                ("image_cache_hits", row.image_cache_hits.to_string()),
                ("image_cache_misses", row.image_cache_misses.to_string()),
                ("verified", row.verified.to_string()),
            ])
        })
        .collect::<Vec<_>>();
    json_document("frontend", grid, cells)
}

/// One row of the local-engine ablation: a stable instance id (the key
/// prefix used by `local_budget.txt`) plus the lazy-versus-global
/// measurement.
pub struct LocalRow {
    /// Stable identifier, e.g. `floodset-n10-t3`.
    pub id: String,
    /// The measurement (see [`epimc::experiments::LocalProfile`]).
    pub profile: LocalProfile,
}

/// The layer-0 query every local row answers: the SBA knowledge condition
/// `B_0 CB exists0`, purely epistemic, so the fixpoint solver never needs
/// a layer beyond the one asked about — the laziness headline.
fn local_query() -> (String, Formula<ConsensusAtom>) {
    type F = Formula<ConsensusAtom>;
    let exists0 = F::atom(ConsensusAtom::ExistsInit(Value::new(0)));
    (
        "B_0 CB exists0 @ t=0".to_string(),
        F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists0)),
    )
}

/// The local-engine ablation grid, as data: the six protocol families.
/// The large FloodSet cells — where the global build's deeper layers are
/// pure waste for a layer-0 query — are the headline. `smoke` restricts it
/// to the single CI instance.
pub fn local_grid(full: bool, smoke: bool) -> Vec<Experiment> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![Experiment::crash(FloodSet, 4, 1)];
    }
    let mut grid = vec![
        Experiment::crash(CountFloodSet, 4, 1),
        Experiment::crash(DiffFloodSet, 3, 1),
        Experiment::crash(DworkMoses, 3, 1),
        Experiment::new(EMin, 3, 1, SendOmission),
        Experiment::new(EBasic, 2, 1, SendOmission),
        Experiment::crash(FloodSet, 6, 2),
        Experiment::crash(FloodSet, 8, 3),
        Experiment::crash(FloodSet, 10, 3),
    ];
    if full {
        grid.push(Experiment::crash(FloodSet, 12, 3));
    }
    grid
}

/// Measures the local-engine ablation grid ([`local_grid`]): the same
/// layer-0 query answered by the lazy local engine (layers on demand) and
/// the global symbolic engine (full relational construction).
pub fn local_rows(full: bool, smoke: bool) -> Vec<LocalRow> {
    let measure = |experiment: &Experiment| {
        let (query, formula) = local_query();
        LocalRow { id: experiment.id(), profile: experiment.local_profile(0, query, formula) }
    };
    local_grid(full, smoke).iter().map(measure).collect()
}

/// The rows on which the two engines disagreed (must be empty; a
/// disagreement fails the `tables -- local` run).
pub fn local_disagreements(rows: &[LocalRow]) -> Vec<&str> {
    rows.iter().filter(|row| !row.profile.agreed).map(|row| row.id.as_str()).collect()
}

/// Renders the local-engine ablation rows as a table.
pub fn render_local_table(rows: &[LocalRow]) -> String {
    let cells: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let p = &row.profile;
            Cell {
                key: vec![format!("{:<20}", row.id)],
                entries: vec![
                    format!("{}/{}", p.layers_expanded, p.horizon + 1),
                    format_mck_duration(p.local_wall),
                    format_mck_duration(p.global_wall),
                    format!("{:.1}x", p.speedup()),
                    p.local_peak_live_nodes.to_string(),
                    p.global_peak_live_nodes.to_string(),
                    p.memo_hits.to_string(),
                    if p.agreed { "yes" } else { "NO" }.to_string(),
                ],
            }
        })
        .collect();
    let mut out = render_table(
        "Local engine: on-the-fly solving versus global symbolic checking (B_0 CB exists0 @ t=0)",
        &["instance            "],
        &[
            "layers used",
            "local wall",
            "global wall",
            "speedup",
            "local peak",
            "global peak",
            "memo hits",
            "agreed",
        ],
        &cells,
    );
    out.push_str(
        "'layers used' counts the reachable layers the local engine materialised against the\n\
         layers a full build constructs; 'local wall' includes lazy construction and solving,\n\
         'global wall' the full relational build plus the same query bounded to the layer.\n\
         'memo hits' are verdict-memo and hash-consing hits after a warm repeat of the query.\n",
    );
    out
}

/// Checks the local-engine gate against a checked-in budget file: for each
/// row, `<id>-layers` bounds the layers the lazy engine may materialise
/// for the layer-0 query (a laziness regression shows up as a count jump)
/// and `<id>-peak` bounds its manager's peak live nodes. Same file format
/// and failure semantics as [`check_symbolic_budget`].
pub fn check_local_budget(rows: &[LocalRow], budget_text: &str) -> Result<String, String> {
    let measured: Vec<(String, usize)> = rows
        .iter()
        .flat_map(|row| {
            [
                (format!("{}-layers", row.id), row.profile.layers_expanded),
                (format!("{}-peak", row.id), row.profile.local_peak_live_nodes),
            ]
        })
        .collect();
    check_peak_budget(&measured, budget_text)
}

/// Machine-readable rendering of the local-engine ablation (for
/// `BENCH_local.json`): per-cell walls, layers expanded against the
/// horizon, peak live nodes of both engines, and warm-repeat memo hits.
pub fn local_rows_json(rows: &[LocalRow], grid: &str) -> String {
    let cells = rows
        .iter()
        .map(|row| {
            let p = &row.profile;
            json_object(&[
                ("id", json_string(&row.id)),
                ("query", json_string(&p.query)),
                ("layer", p.layer.to_string()),
                ("horizon", p.horizon.to_string()),
                ("layers_expanded", p.layers_expanded.to_string()),
                ("local_wall_s", json_seconds(p.local_wall)),
                ("global_wall_s", json_seconds(p.global_wall)),
                ("speedup", format!("{:.4}", p.speedup())),
                ("local_peak_live_nodes", p.local_peak_live_nodes.to_string()),
                ("global_peak_live_nodes", p.global_peak_live_nodes.to_string()),
                ("memo_hits", p.memo_hits.to_string()),
                ("settled_early", p.settled_early().to_string()),
                ("verdict", p.verdict.to_string()),
                ("agreed", p.agreed.to_string()),
            ])
        })
        .collect::<Vec<_>>();
    json_document("local", grid, cells)
}

/// One row of the serve ablation: a stable instance id (the key prefix
/// used by `serve_budget.txt`) plus the service measurement.
pub struct ServeRow {
    /// Stable identifier, e.g. `floodset-n8-t3`.
    pub id: String,
    /// The measurement (cold/warm latency, cache counters, snapshot
    /// fidelity, multi-client throughput).
    pub measurement: ServeMeasurement,
}

impl ServeRow {
    /// Warm wall-clock as an integer percentage of cold (rounded up, so a
    /// `<= 10` budget entry means a genuine ≥ 10× speedup).
    pub fn warm_wall_pct(&self) -> usize {
        let cold = self.measurement.cold.as_nanos().max(1);
        (self.measurement.warm.as_nanos() * 100).div_ceil(cold) as usize
    }
}

/// The formula batch every serve row answers: epistemic, temporal and
/// mixed operators, so the warm repeat exercises the whole denotation
/// cache rather than one code path.
pub const SERVE_FORMULAS: [&str; 4] = [
    "CB exists0 => decides[0].0",
    "AG (decided[1].0 => !decided[1].1)",
    "B[0] CB exists0",
    "EF decided[0]",
];

/// Concurrent clients of every serve row's throughput phase.
const SERVE_CLIENTS: usize = 4;

/// The serve ablation grid, as data: each instance with the number of warm
/// batches every throughput client issues.
///
/// `smoke` restricts it to the acceptance instance (`floodset-n10-t3`, the
/// smallest row whose cold batch outlasts both the warm repeat and the
/// 50 ms deadline probe by more than 3x) with a short throughput phase —
/// the row CI gates against `crates/bench/serve_budget.txt`.
pub fn serve_grid(full: bool, smoke: bool) -> Vec<(Experiment, usize)> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![(Experiment::crash(FloodSet, 10, 3), 4)];
    }
    let mut grid = vec![
        (Experiment::crash(FloodSet, 4, 1), 8),
        (Experiment::crash(CountFloodSet, 3, 1), 8),
        (Experiment::new(EMin, 2, 1, SendOmission), 8),
    ];
    if full {
        grid.push((Experiment::crash(FloodSet, 10, 3), 4));
    }
    grid.push((Experiment::crash(FloodSet, 8, 3), 4));
    grid
}

/// Measures the serve ablation grid ([`serve_grid`]): cold-build versus
/// warm-cache latency of the checking service, per instance.
pub fn serve_rows(full: bool, smoke: bool) -> Vec<ServeRow> {
    let measure = |(experiment, batches_per_client): &(Experiment, usize)| {
        let id = experiment.id();
        let spec = ModelSpec {
            protocol: experiment.protocol,
            n: experiment.n,
            t: experiment.t,
            values: experiment.num_values,
            failure: experiment.failure,
            horizon: experiment.params().horizon(),
        };
        let measurement = serve_measurement(
            &spec.to_string(),
            &SERVE_FORMULAS,
            SERVE_CLIENTS,
            *batches_per_client,
        )
        .unwrap_or_else(|error| panic!("serve measurement {id} failed: {error}"));
        ServeRow { id, measurement }
    };
    serve_grid(full, smoke).iter().map(measure).collect()
}

/// Renders the serve ablation rows as a table.
pub fn render_serve_table(rows: &[ServeRow]) -> String {
    let cells: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let m = &row.measurement;
            Cell {
                key: vec![format!("{:<20}", row.id)],
                entries: vec![
                    format_mck_duration(m.cold),
                    format_mck_duration(m.warm),
                    format!("{:.1}x", m.warm_speedup()),
                    m.warm_relational_products.to_string(),
                    m.warm_session_hits.to_string(),
                    m.snapshot_bytes.to_string(),
                    if m.snapshot_differential_ok { "yes" } else { "NO" }.to_string(),
                    format!("{}x{}", m.clients, m.throughput_batches / m.clients.max(1) as u64),
                    format!("{:.1}/s", m.batches_per_second()),
                    format!(
                        "{} {}",
                        if m.deadline_tripped { "trip" } else { "done" },
                        format_mck_duration(m.deadline_answer)
                    ),
                ],
            }
        })
        .collect();
    let mut out = render_table(
        "Serve: cold build versus warm cross-request cache (epimc-serve)",
        &["instance            "],
        &[
            "cold",
            "warm",
            "speedup",
            "warm images",
            "cache hits",
            "snap bytes",
            "snap ok",
            "clients",
            "throughput",
            "50ms probe",
        ],
        &cells,
    );
    out.push_str(
        "'cold' answers the batch on a fresh server (model construction included); 'warm'\n\
         repeats it against the cached instance — zero relational images, denotations recalled\n\
         by canonical formula hash. 'snap ok' marks rows whose snapshot restored to a checker\n\
         answering identically; 'throughput' drives N concurrent clients of warm batches.\n\
         '50ms probe' evicts the instance and re-requests it under a 50 ms deadline: 'trip'\n\
         rows answered a structured error budget-exceeded in the shown wall-clock (the budget\n\
         gate bounds it at 2x the deadline), 'done' rows built faster than the deadline.\n",
    );
    out
}

/// Checks the serve rows against a checked-in budget file. Three entries
/// per instance id: `<id>-warm-rel-products` bounds the relational image
/// computations a warm repeat may perform (0: the whole point of the warm
/// cache), `<id>-warm-wall-pct` bounds warm wall-clock as a percentage
/// of cold (10 enforces the ≥ 10× acceptance criterion), and
/// `<id>-deadline-answer-pct` bounds the wall-clock of the 50 ms deadline
/// probe's answer as a percentage of the deadline (200 enforces the
/// "deadline-exceeded is answered within 2× the deadline" criterion).
/// Comment/skip semantics match [`check_symbolic_budget`]; a failed
/// snapshot or post-trip differential fails the gate regardless of the
/// budget entries.
pub fn check_serve_budget(rows: &[ServeRow], budget_text: &str) -> Result<String, String> {
    let mut violations: Vec<String> = rows
        .iter()
        .filter(|row| !row.measurement.snapshot_differential_ok)
        .map(|row| {
            format!("{}: snapshot restore answered differently from the warm server", row.id)
        })
        .collect();
    violations.extend(rows.iter().filter(|row| !row.measurement.post_trip_differential_ok).map(
        |row| format!("{}: the rebuild after the deadline trip answered differently", row.id),
    ));
    let measured: Vec<(String, usize)> = rows
        .iter()
        .flat_map(|row| {
            [
                (
                    format!("{}-warm-rel-products", row.id),
                    row.measurement.warm_relational_products as usize,
                ),
                (format!("{}-warm-wall-pct", row.id), row.warm_wall_pct()),
                (format!("{}-deadline-answer-pct", row.id), row.measurement.deadline_answer_pct()),
            ]
        })
        .collect();
    check_budget(&measured, budget_text, &SERVE_GATE, violations)
}

/// Machine-readable rendering of the serve ablation (for
/// `BENCH_serve.json`): per-instance cold/warm wall-clocks, cache
/// counters, snapshot fidelity and multi-client throughput.
pub fn serve_rows_json(rows: &[ServeRow], grid: &str) -> String {
    let cells = rows
        .iter()
        .map(|row| {
            let m = &row.measurement;
            json_object(&[
                ("id", json_string(&row.id)),
                ("cold_s", json_seconds(m.cold)),
                ("warm_s", json_seconds(m.warm)),
                ("warm_speedup", format!("{:.4}", m.warm_speedup())),
                ("warm_wall_pct", row.warm_wall_pct().to_string()),
                ("cold_relational_products", m.cold_relational_products.to_string()),
                ("warm_relational_products", m.warm_relational_products.to_string()),
                ("warm_session_hits", m.warm_session_hits.to_string()),
                ("snapshot_bytes", m.snapshot_bytes.to_string()),
                ("snapshot_differential_ok", m.snapshot_differential_ok.to_string()),
                ("clients", m.clients.to_string()),
                ("throughput_batches", m.throughput_batches.to_string()),
                ("throughput_s", json_seconds(m.throughput_duration)),
                ("batches_per_second", format!("{:.4}", m.batches_per_second())),
                ("deadline_ms", m.deadline_ms.to_string()),
                ("deadline_answer_s", json_seconds(m.deadline_answer)),
                ("deadline_answer_pct", m.deadline_answer_pct().to_string()),
                ("deadline_tripped", m.deadline_tripped.to_string()),
                ("post_trip_differential_ok", m.post_trip_differential_ok.to_string()),
            ])
        })
        .collect::<Vec<String>>();
    json_document("serve", grid, cells)
}

/// Absolute path for a `BENCH_*.json` snapshot: the workspace root, resolved
/// from this crate's manifest directory at compile time, so snapshots land
/// next to the top-level `Cargo.toml` no matter which directory the binary
/// is invoked from (writing relative to the current working directory used
/// to scatter them).
pub fn snapshot_path(file_name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join(file_name)
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(key, value)| format!("{}: {value}", json_string(key))).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_seconds(duration: Duration) -> String {
    format!("{:.6}", duration.as_secs_f64())
}

fn json_document(table: &str, grid: &str, cells: Vec<String>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"table\": {},\n", json_string(table)));
    out.push_str(&format!("  \"grid\": {},\n", json_string(grid)));
    out.push_str("  \"cells\": [\n");
    for (index, cell) in cells.iter().enumerate() {
        let comma = if index + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!("    {cell}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn symbolic_profile_json(id: &str, profile: &SymbolicProfile) -> String {
    json_object(&[
        ("id", json_string(id)),
        ("total_states", profile.total_states.to_string()),
        ("build_wall_s", json_seconds(profile.build_duration)),
        ("check_wall_s", json_seconds(profile.total_check_duration())),
        ("peak_live_nodes", profile.stats.peak_live_nodes.to_string()),
        ("gc_runs", profile.stats.gc_runs.to_string()),
        ("swept_nodes", profile.stats.swept_nodes.to_string()),
        ("reorder_runs", profile.stats.reorder_runs.to_string()),
        ("reorder_swaps", profile.stats.reorder_swaps.to_string()),
        ("cache_hit_rate", format!("{:.4}", profile.stats.cache_hit_rate())),
        ("relational_product_calls", profile.stats.relational_product_calls.to_string()),
        ("image_cache_hits", profile.stats.image_cache_hits.to_string()),
        ("image_cache_misses", profile.stats.image_cache_misses.to_string()),
    ])
}

/// Machine-readable rendering of the symbolic ablation (for
/// `BENCH_symbolic.json`): per-cell wall-clock, peak live nodes and GC /
/// reorder counters, so the perf trajectory is diffable across PRs.
pub fn symbolic_rows_json(rows: &[SymbolicRow], grid: &str) -> String {
    let cells =
        rows.iter().map(|row| symbolic_profile_json(&row.id, &row.profile)).collect::<Vec<_>>();
    json_document("symbolic", grid, cells)
}

/// Machine-readable rendering of the synthesis ablation (for
/// `BENCH_synthesis.json`).
pub fn synthesis_rows_json(rows: &[SynthesisRow], grid: &str) -> String {
    let cells = rows
        .iter()
        .map(|row| {
            let comparison = &row.comparison;
            json_object(&[
                ("id", json_string(&row.id)),
                ("total_states", comparison.total_states.to_string()),
                (
                    "explicit_wall_s",
                    comparison
                        .explicit_duration
                        .map(json_seconds)
                        .unwrap_or_else(|| "null".to_string()),
                ),
                ("symbolic_wall_s", json_seconds(comparison.symbolic_duration)),
                ("rounds", comparison.rounds.to_string()),
                ("skipped_rounds", comparison.skipped_rounds.to_string()),
                ("peak_live_nodes", comparison.peak_live_nodes.to_string()),
                ("gc_runs", comparison.gc_runs.to_string()),
                ("reorder_runs", comparison.reorder_runs.to_string()),
                (
                    "rules_agree",
                    match comparison.rules_agree {
                        Some(agree) => agree.to_string(),
                        None => "null".to_string(),
                    },
                ),
            ])
        })
        .collect::<Vec<_>>();
    json_document("synthesis", grid, cells)
}

/// The engine ablation: explicit-state versus symbolic (BDD) evaluation of
/// the SBA knowledge condition on the same instances (the symbolic time
/// includes its relational model build, the explicit one not its
/// exploration).
pub fn ablation_table(full: bool) -> String {
    use std::time::Instant;
    let max_n = if full { 5 } else { 4 };
    let mut cells = Vec::new();
    for n in 2..=max_n {
        let params = Experiment::crash(ProtocolKind::FloodSet, n, 1).params();
        with_protocol!(ProtocolKind::FloodSet, |exchange, rule| {
            let model = ConsensusModel::explore(exchange, params, rule);
            let condition = epimc::optimality::sba_knowledge_condition(AgentId::new(0), n, 2);

            let start = Instant::now();
            let explicit = Checker::new(&model);
            let explicit_verdict = explicit.holds_everywhere(&condition);
            let explicit_time = start.elapsed();

            let start = Instant::now();
            let symbolic_checker =
                SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
            let symbolic_verdict = symbolic_checker.holds_everywhere(&condition);
            let symbolic_time = start.elapsed();
            let symbolic_stats = symbolic_checker.stats();
            assert_eq!(explicit_verdict, symbolic_verdict, "engines must agree");
            assert_eq!(
                explicit.check(&condition),
                symbolic_checker.check_points(&model, &condition),
                "engines must agree point by point"
            );

            cells.push(Cell {
                key: vec![n.to_string()],
                entries: vec![
                    format_mck_duration(explicit_time),
                    format_mck_duration(symbolic_time),
                    format!("{symbolic_stats}"),
                ],
            });
        });
    }
    render_table(
        "Ablation: explicit-state versus symbolic engine (FloodSet, t = 1, SBA knowledge condition)",
        &["n"],
        &["explicit", "symbolic", "BDD statistics"],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, peak: usize) -> SymbolicRow {
        SymbolicRow {
            id: id.to_string(),
            profile: SymbolicProfile {
                label: id.to_string(),
                total_states: 1,
                build_duration: Duration::ZERO,
                formulas: Vec::new(),
                stats: SymbolicStats { peak_live_nodes: peak, ..Default::default() },
            },
        }
    }

    fn serve_test_row(id: &str, warm_products: u64, warm_micros: u64, snap_ok: bool) -> ServeRow {
        ServeRow {
            id: id.to_string(),
            measurement: ServeMeasurement {
                label: id.to_string(),
                cold: Duration::from_millis(100),
                warm: Duration::from_micros(warm_micros),
                cold_relational_products: 500,
                warm_relational_products: warm_products,
                warm_session_hits: 4,
                snapshot_bytes: 1024,
                snapshot_differential_ok: snap_ok,
                clients: 2,
                throughput_batches: 4,
                throughput_duration: Duration::from_millis(10),
                deadline_ms: 50,
                deadline_answer: Duration::from_millis(60),
                deadline_tripped: true,
                post_trip_differential_ok: true,
            },
        }
    }

    #[test]
    fn serve_budget_gates_warm_images_wall_and_snapshot_fidelity() {
        let budget = "floodset-n8-t3-warm-rel-products 0\nfloodset-n8-t3-warm-wall-pct 10\n";
        // 2 ms warm against 100 ms cold is 2%, zero images: passes.
        let good = [serve_test_row("floodset-n8-t3", 0, 2_000, true)];
        let summary = check_serve_budget(&good, budget).unwrap();
        assert!(summary.contains("2 metric(s)"), "{summary}");
        // One warm image computation trips the zero budget.
        let images = [serve_test_row("floodset-n8-t3", 1, 2_000, true)];
        let err = check_serve_budget(&images, budget).unwrap_err();
        assert!(err.contains("warm-rel-products"), "{err}");
        // A 20 ms warm repeat is 20% of cold: trips the 10% budget.
        let slow = [serve_test_row("floodset-n8-t3", 0, 20_000, true)];
        let err = check_serve_budget(&slow, budget).unwrap_err();
        assert!(err.contains("warm-wall-pct"), "{err}");
        // A failed snapshot differential fails regardless of the budget.
        let bad_snap = [serve_test_row("floodset-n8-t3", 0, 2_000, false)];
        let err = check_serve_budget(&bad_snap, budget).unwrap_err();
        assert!(err.contains("snapshot"), "{err}");
        // A gate that checks nothing must not pass silently.
        let err = check_serve_budget(&good, "floodset-n9-t9-warm-wall-pct 10\n").unwrap_err();
        assert!(err.contains("nothing"), "{err}");
    }

    #[test]
    fn serve_budget_gates_the_deadline_probe() {
        let budget = "floodset-n8-t3-deadline-answer-pct 200\n";
        // 60 ms answer against a 50 ms deadline is 120%: passes.
        let good = [serve_test_row("floodset-n8-t3", 0, 2_000, true)];
        let summary = check_serve_budget(&good, budget).unwrap();
        assert!(summary.contains("1 metric(s)"), "{summary}");
        // A 150 ms answer is 300% of the deadline: trips the 2x gate.
        let mut slow = serve_test_row("floodset-n8-t3", 0, 2_000, true);
        slow.measurement.deadline_answer = Duration::from_millis(150);
        let err = check_serve_budget(&[slow], budget).unwrap_err();
        assert!(err.contains("deadline-answer-pct"), "{err}");
        // A wrong answer after the trip fails regardless of the budget.
        let mut bad = serve_test_row("floodset-n8-t3", 0, 2_000, true);
        bad.measurement.post_trip_differential_ok = false;
        let err = check_serve_budget(&[bad], budget).unwrap_err();
        assert!(err.contains("rebuild after the deadline trip"), "{err}");
    }

    #[test]
    fn budget_check_passes_within_budget() {
        let rows = [row("floodset-n4-t1", 1000)];
        let summary = check_symbolic_budget(&rows, "# comment\nfloodset-n4-t1 2000\n").unwrap();
        assert!(summary.contains("1 instance(s)"));
        // Entries without a matching row are skipped as long as one matches.
        let summary =
            check_symbolic_budget(&rows, "floodset-n4-t1 2000\nfloodset-n9-t9 5\n").unwrap();
        assert!(summary.contains("1 instance(s)"));
    }

    #[test]
    fn budget_check_reports_regressions() {
        let rows = [row("floodset-n4-t1", 3000)];
        let err = check_symbolic_budget(&rows, "floodset-n4-t1 2000\n").unwrap_err();
        assert!(err.contains("3000"), "{err}");
        assert!(err.contains("2000"), "{err}");
    }

    #[test]
    fn budget_check_fails_when_nothing_matches() {
        // A gate that checks nothing must not pass silently.
        let rows = [row("floodset-n4-t1", 1000)];
        let err = check_symbolic_budget(&rows, "floodset-n5-t1 2000\n").unwrap_err();
        assert!(err.contains("no budget entry matched"), "{err}");
        assert!(err.contains("floodset-n4-t1"), "{err}");
    }

    #[test]
    fn budget_check_rejects_malformed_lines() {
        let rows = [row("floodset-n4-t1", 1000)];
        assert!(check_symbolic_budget(&rows, "floodset-n4-t1\n").is_err());
        assert!(check_symbolic_budget(&rows, "floodset-n4-t1 lots\n").is_err());
    }

    fn synthesis_row(id: &str, peak: usize) -> SynthesisRow {
        SynthesisRow {
            id: id.to_string(),
            comparison: SynthesisComparison {
                label: id.to_string(),
                explicit_duration: None,
                symbolic_duration: Duration::ZERO,
                total_states: 1,
                rounds: 1,
                skipped_rounds: 0,
                peak_live_nodes: peak,
                gc_runs: 0,
                reorder_runs: 0,
                rules_agree: None,
                profile: SymbolicSynthesisProfile::default(),
            },
        }
    }

    #[test]
    fn disagreements_are_collected_not_panicked() {
        let mut agreeing = synthesis_row("floodset-n4-t1", 10);
        agreeing.comparison.rules_agree = Some(true);
        let mut diverging = synthesis_row("floodset-n5-t1", 10);
        diverging.comparison.rules_agree = Some(false);
        let timed_out = synthesis_row("floodset-n9-t3", 10); // rules_agree: None
        let rows = [agreeing, diverging, timed_out];
        assert_eq!(synthesis_disagreements(&rows), vec!["floodset-n5-t1"]);
        // The diverging row still renders (as `NO`) instead of panicking.
        assert!(render_synthesis_table(&rows).contains("NO"));
    }

    #[test]
    fn checked_in_symbolic_budget_gate_can_trip() {
        // The real `symbolic_budget.txt` shipped to CI, fed a synthetic
        // regressed snapshot: a blown-up peak on the smoke instance must
        // fail the gate, and a healthy peak must pass it. This proves the
        // checked-in file itself gates (right ids, parseable lines) rather
        // than only the gate function in isolation.
        let budget = include_str!("../symbolic_budget.txt");
        let regressed = [row("floodset-n4-t1", 100_000_000)];
        let err = check_symbolic_budget(&regressed, budget).unwrap_err();
        assert!(err.contains("floodset-n4-t1"), "{err}");
        assert!(err.contains("100000000"), "{err}");
        let healthy = [row("floodset-n4-t1", 1)];
        check_symbolic_budget(&healthy, budget).unwrap();
    }

    #[test]
    fn checked_in_synthesis_budget_gate_can_trip() {
        let budget = include_str!("../synthesis_budget.txt");
        let regressed =
            [synthesis_row("floodset-n4-t1", 100_000_000), synthesis_row("emin-n2-t1-om", 1)];
        let err = check_synthesis_budget(&regressed, budget).unwrap_err();
        assert!(err.contains("floodset-n4-t1"), "{err}");
        let healthy = [synthesis_row("floodset-n4-t1", 1), synthesis_row("emin-n2-t1-om", 1)];
        check_synthesis_budget(&healthy, budget).unwrap();
    }

    /// The budget-key drift gate: every key of every checked-in budget file
    /// must be the id of an experiment in that table's grid (smoke or full),
    /// plus the table's metric suffix where it has one. The CI smoke steps
    /// measure one row each, so a renamed id in any other row would
    /// otherwise stop being gated without anything failing.
    #[test]
    fn every_budget_key_is_the_id_of_a_grid_experiment() {
        fn ids(grid: impl Fn(bool, bool) -> Vec<Experiment>) -> Vec<String> {
            let smoke_and_full = grid(true, true).into_iter().chain(grid(true, false));
            smoke_and_full.map(|experiment| experiment.id()).collect()
        }
        let serve = |full, smoke| serve_grid(full, smoke).into_iter().map(|row| row.0).collect();
        let serve_suffixes = ["-warm-rel-products", "-warm-wall-pct", "-deadline-answer-pct"];
        let tables: [(&str, &str, Vec<String>, &[&str]); 5] = [
            ("symbolic", include_str!("../symbolic_budget.txt"), ids(symbolic_grid), &[""]),
            ("synthesis", include_str!("../synthesis_budget.txt"), ids(synthesis_grid), &[""]),
            ("frontend", include_str!("../frontend_budget.txt"), ids(frontend_grid), &[""]),
            ("local", include_str!("../local_budget.txt"), ids(local_grid), &["-layers", "-peak"]),
            ("serve", include_str!("../serve_budget.txt"), ids(serve), &serve_suffixes),
        ];
        for (table, budget, ids, suffixes) in tables {
            let keys: Vec<&str> = budget
                .lines()
                .filter_map(|line| line.split('#').next()?.split_whitespace().next())
                .collect();
            assert!(!keys.is_empty(), "{table}_budget.txt gates nothing");
            for key in keys {
                let known = ids
                    .iter()
                    .any(|id| suffixes.iter().any(|suffix| key == format!("{id}{suffix}")));
                assert!(known, "{table}_budget.txt: `{key}` names no experiment of the grid");
            }
        }
    }

    /// Ids are derived once, from the experiment: the wire name, `n`, `t`,
    /// and `-om` under sending omissions — the shape the budget files key.
    #[test]
    fn experiment_ids_keep_the_budget_file_shape() {
        assert_eq!(Experiment::crash(ProtocolKind::DworkMoses, 3, 1).id(), "dworkmoses-n3-t1");
        let omissions = Experiment::new(ProtocolKind::EBasic, 2, 1, FailureKind::SendOmission);
        assert_eq!(omissions.id(), "ebasic-n2-t1-om");
        assert_eq!(symbolic_grid(false, true)[0].id(), "floodset-n4-t1");
    }

    #[test]
    fn synthesis_budget_check_shares_the_gate_semantics() {
        let rows = [synthesis_row("floodset-n9-t3", 1000)];
        let summary = check_synthesis_budget(&rows, "floodset-n9-t3 2000\n").unwrap();
        assert!(summary.contains("1 instance(s)"));
        let err = check_synthesis_budget(&rows, "floodset-n9-t3 500\n").unwrap_err();
        assert!(err.contains("1000"), "{err}");
        let err = check_synthesis_budget(&rows, "floodset-n4-t1 500\n").unwrap_err();
        assert!(err.contains("no budget entry matched"), "{err}");
    }

    fn frontend_ablation_row(id: &str, relational_peak: usize) -> FrontendRow {
        FrontendRow {
            id: id.to_string(),
            relational_build: Duration::from_millis(20),
            relational_peak,
            layer_states: vec![2, 6, 14],
            relational_product_calls: 12,
            image_cache_hits: 9,
            image_cache_misses: 3,
            verified: true,
        }
    }

    #[test]
    fn checked_in_frontend_budget_gate_can_trip() {
        let budget = include_str!("../frontend_budget.txt");
        let regressed = [frontend_ablation_row("floodset-n4-t1", 100_000_000)];
        let err = check_frontend_budget(&regressed, budget).unwrap_err();
        assert!(err.contains("floodset-n4-t1"), "{err}");
        assert!(err.contains("100000000"), "{err}");
        let healthy = [frontend_ablation_row("floodset-n4-t1", 1)];
        check_frontend_budget(&healthy, budget).unwrap();
    }

    #[test]
    fn frontend_row_surfaces_build_comparison_and_image_counters() {
        let row = frontend_ablation_row("floodset-n4-t1", 100);
        assert_eq!(row.total_states(), 22);
        let json = frontend_rows_json(&[row], "test");
        assert!(json.contains("\"layer_states\": [2, 6, 14]"), "{json}");
        assert!(json.contains("\"relational_product_calls\": 12"), "{json}");
        assert!(json.contains("\"image_cache_hits\": 9"), "{json}");
        assert!(json.contains("\"image_cache_misses\": 3"), "{json}");
        assert!(json.contains("\"verified\": true"), "{json}");
        assert!(!json.contains("explicit"), "{json}");
        let table = frontend_ablation_row("floodset-n4-t1", 100);
        let rendered = render_frontend_table(&[table]);
        assert!(rendered.contains("75.0%"), "{rendered}");
    }

    #[test]
    fn symbolic_json_surfaces_image_counters() {
        // The relational counters ride along in every symbolic profile
        // snapshot.
        let mut measured = row("floodset-n4-t1", 10);
        measured.profile.stats.relational_product_calls = 7;
        measured.profile.stats.image_cache_hits = 4;
        measured.profile.stats.image_cache_misses = 2;
        let json = symbolic_rows_json(&[measured], "test");
        assert!(json.contains("\"relational_product_calls\": 7"), "{json}");
        assert!(json.contains("\"image_cache_hits\": 4"), "{json}");
        assert!(json.contains("\"image_cache_misses\": 2"), "{json}");
    }

    #[test]
    fn snapshots_resolve_to_the_workspace_root() {
        // Regression: `--json` used to write `BENCH_*.json` relative to the
        // current working directory, scattering snapshots when the binary
        // ran from a crate subdirectory. The path must be absolute, anchored
        // at the workspace root, and independent of the working directory.
        let path = snapshot_path("BENCH_frontend.json");
        assert!(path.is_absolute(), "{}", path.display());
        assert_eq!(path.file_name().unwrap(), "BENCH_frontend.json");
        let root = path.parent().unwrap();
        assert!(root.join("Cargo.toml").is_file(), "{} is not the workspace root", root.display());
        assert!(
            root.join("crates").join("bench").join("Cargo.toml").is_file(),
            "{} is not the workspace root",
            root.display()
        );
    }
}
