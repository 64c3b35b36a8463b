//! The `tables` binary's harness: the paper's result tables and this
//! reproduction's ablations, each described once.
//!
//! The paper reports three tables of running times (model checking and
//! synthesis for SBA, model checking of the Diff/Dwork–Moses protocols under
//! varying round counts, and EBA synthesis), obtained with a 10-minute
//! timeout per experiment; a scaling study, the explicit-versus-symbolic
//! engine ablation and the exploration table are printed alongside them,
//! and this reproduction adds five ablations of its own. Each of the eleven
//! is one [`Table`] in [`TABLES`]: a grid of experiments plus a measure that
//! returns one row of [`Field`]s. One renderer prints every table, keyed by
//! the instance id, and one [`gate`] checks every invariant and checked-in
//! node budget. `cargo run --release -p epimc-bench --bin tables -- --full`
//! selects the paper-sized grids.

use std::fmt;
use std::thread;
use std::time::{Duration, Instant};

use epimc::experiments::{format_mck_duration, with_timeout};
use epimc::prelude::*;
use epimc_serve::{answer_from_snapshot, CheckReply};

/// Default per-cell timeout used by the `tables` binary, mirroring the
/// 10-minute timeout of the paper (scaled down so the default run finishes
/// quickly; pass `--timeout <seconds>` for longer budgets).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// One measured quantity of a table row, as its table prints it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A count (states, nodes, calls); the only kind a budget gates.
    Count(u128),
    /// A wall time, printed `XmY.ZZZ` like the paper's tables.
    Wall(Duration),
    /// A timed run, printed `TO` if it ran out of time, and marked
    /// `[subopt]` if the protocol it checked meets its specification but
    /// is not optimal (one of the paper's findings, not an error).
    MaybeWall {
        /// The run's wall time; `None` if it timed out.
        wall: Option<Duration>,
        /// Whether the checked protocol is suboptimal.
        subopt: bool,
    },
    /// A percentage.
    Percent(f64),
    /// A speed-up ratio.
    Ratio(f64),
    /// A tri-state flag, printed `yes`, `NO`, or `-` where it was not
    /// measured.
    Flag(Option<bool>),
    /// Display text.
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(count) => write!(f, "{count}"),
            Value::Wall(wall) | Value::MaybeWall { wall: Some(wall), subopt: false } => {
                f.write_str(&format_mck_duration(*wall))
            }
            Value::MaybeWall { wall: Some(wall), subopt: true } => {
                write!(f, "{} [subopt]", format_mck_duration(*wall))
            }
            Value::MaybeWall { wall: None, .. } => f.write_str("TO"),
            Value::Percent(percent) => write!(f, "{percent:.1}%"),
            Value::Ratio(ratio) => write!(f, "{ratio:.2}x"),
            Value::Flag(Some(true)) => f.write_str("yes"),
            Value::Flag(Some(false)) => f.write_str("NO"),
            Value::Flag(None) => f.write_str("-"),
            Value::Text(text) => f.write_str(text),
        }
    }
}

/// What [`gate`] checks of a field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Nothing: the field is only printed.
    None,
    /// A count bounded by the table's budget file under the key
    /// `<row id><suffix>`, checked when a budget is given.
    Budget(&'static str),
    /// A flag that must not read `NO`, checked on every run.
    MustHold,
}

/// One column of one table row.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// The column header.
    pub header: &'static str,
    /// The measured value.
    pub value: Value,
    /// What the gate checks of the value.
    pub gate: Gate,
}

impl Field {
    fn new(header: &'static str, value: Value) -> Self {
        Field { header, value, gate: Gate::None }
    }

    fn budget(header: &'static str, count: u128, suffix: &'static str) -> Self {
        Field { header, value: Value::Count(count), gate: Gate::Budget(suffix) }
    }

    fn must_hold(header: &'static str, flag: Option<bool>) -> Self {
        Field { header, value: Value::Flag(flag), gate: Gate::MustHold }
    }
}

/// One measured table row: the experiment's id (the key column and the
/// budget-key prefix) and its fields.
pub type Row = (String, Vec<Field>);

/// One table of the `tables` binary, described once: `tables -- <name>`
/// measures every experiment of its grid, prints the rows under its title
/// and note, and gates them.
pub struct Table {
    /// The selection name on the `tables` command line.
    pub name: &'static str,
    /// The table's title line.
    pub title: &'static str,
    /// The explanation printed under the table.
    pub note: &'static str,
    /// The checked-in node budget (`crates/bench/<name>_budget.txt`): one
    /// `<row id><suffix> <max>` pair per line, `#` starts a comment. The
    /// paper's tables have none, and `--budget` refuses them.
    pub budget: Option<&'static str>,
    /// The experiments measured, given `(full, smoke)`; the paper's tables
    /// have no smoke grid and ignore `smoke`.
    pub grid: fn(bool, bool) -> Vec<Experiment>,
    /// Measures one experiment; the timeout bounds the paper's timed cells
    /// and the synthesis ablation's explicit engine.
    pub measure: fn(&Experiment, Duration) -> Vec<Field>,
}

impl Table {
    /// Measures the grid selected by `full` and `smoke`.
    pub fn rows(&self, full: bool, smoke: bool, timeout: Duration) -> Vec<Row> {
        let measure =
            |experiment: &Experiment| (experiment.id(), (self.measure)(experiment, timeout));
        (self.grid)(full, smoke).iter().map(measure).collect()
    }

    /// Renders `rows` in a fixed-width layout under the table's title, one
    /// line per row keyed by its instance id, followed by the note.
    pub fn render(&self, rows: &[Row]) -> String {
        let line = |key: &str, entries: Vec<String>| {
            let mut line = format!("{key:<20} ");
            for entry in entries {
                line.push_str(&format!("{entry:>22} "));
            }
            line
        };
        let headers = rows.first().map_or_else(Vec::new, |(_, fields)| {
            fields.iter().map(|field| field.header.to_string()).collect()
        });
        let header = line("instance", headers);
        let mut out = format!("{}\n{header}\n{}\n", self.title, "-".repeat(header.len()));
        for (id, fields) in rows {
            out.push_str(&line(id, fields.iter().map(|field| field.value.to_string()).collect()));
            out.push('\n');
        }
        out.push_str(self.note);
        out
    }
}

/// Parses a budget file into `(key, bound)` pairs.
fn parse_budget(text: &str) -> Result<Vec<(&str, u128)>, String> {
    let mut entries = Vec::new();
    for (line_number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(bound)) = (parts.next(), parts.next()) else {
            return Err(format!("budget line {} is malformed: {line:?}", line_number + 1));
        };
        let bound = bound
            .parse()
            .map_err(|_| format!("budget line {}: {bound:?} is not a number", line_number + 1))?;
        entries.push((key, bound));
    }
    Ok(entries)
}

/// The one gate over measured rows. Every [`Gate::MustHold`] field that
/// reads `NO` fails it. With `budget` given, every `<key> <bound>` line
/// whose key is the `<id><suffix>` of a [`Gate::Budget`] count bounds that
/// count. Lines with no measured key are skipped, so one file serves every
/// grid, but a budget that matches no key fails: a gate that checked
/// nothing (an id drifted, or a typo landed in the file) must not pass.
/// Returns a summary (empty without a budget), or every violation.
pub fn gate(rows: &[Row], budget: Option<&str>) -> Result<String, String> {
    let mut violations = Vec::new();
    let mut counts = Vec::new();
    for (id, fields) in rows {
        for field in fields {
            match (field.gate, &field.value) {
                (Gate::Budget(suffix), &Value::Count(count)) => {
                    counts.push((format!("{id}{suffix}"), field.header, count))
                }
                (Gate::Budget(_), _) => panic!("{id}: `{}` is budgeted but no count", field.header),
                (Gate::MustHold, Value::Flag(Some(false))) => {
                    violations.push(format!("{id}: {} reads NO", field.header))
                }
                _ => {}
            }
        }
    }
    let mut summary = String::new();
    if let Some(budget) = budget {
        let mut checked = 0usize;
        for (key, bound) in parse_budget(budget)? {
            let Some((_, header, count)) = counts.iter().find(|(measured, ..)| measured == key)
            else {
                continue;
            };
            checked += 1;
            if *count > bound {
                violations.push(format!("{key}: {header} {count} exceeds the budget of {bound}"));
            }
        }
        if checked == 0 {
            let keys: Vec<&str> = counts.iter().map(|(key, ..)| key.as_str()).collect();
            violations.push(format!(
                "no budget entry matched any measured key (measured: {}); \
                 the budget gate would check nothing",
                keys.join(", ")
            ));
        }
        summary = format!("budget ok ({checked} value(s) checked)");
    }
    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(violations.join("\n"))
    }
}

/// Every table `tables` measures, in `all` order: the paper's six, then
/// this reproduction's five ablations.
pub const TABLES: [Table; 11] = [
    Table {
        name: "table1",
        title: "Table 1: SBA running times (crash failures, |V| = 2)",
        note: PAPER_NOTE,
        budget: None,
        grid: table1_grid,
        measure: measure_table1,
    },
    Table {
        name: "table2",
        title: "Table 2: model checking the Differential and Dwork-Moses protocols",
        note: "'-r<rounds>' is the number of rounds explored; below t + 2 the spec check skips\n\
               Termination, which cannot hold yet.\n",
        budget: None,
        grid: table2_grid,
        measure: measure_table2,
    },
    Table {
        name: "table3",
        title: "Table 3: EBA synthesis running times",
        note: PAPER_NOTE,
        budget: None,
        grid: table3_grid,
        measure: measure_table3,
    },
    Table {
        name: "scaling",
        title: "Scaling: FloodSet, t = 1, runtime versus number of agents",
        note: PAPER_NOTE,
        budget: None,
        grid: scaling_grid,
        measure: measure_scaling,
    },
    Table {
        name: "ablation",
        title: "Ablation: explicit-state versus symbolic engine (FloodSet, t = 1, SBA knowledge condition)",
        note: "'symbolic' includes the relational model build, 'explicit' not its exploration; 'agree'\n\
               compares the engines' verdicts and satisfying point sets.\n",
        budget: None,
        grid: ablation_grid,
        measure: measure_engines,
    },
    Table {
        name: "explore",
        title: "Exploration: the explicit oracle's state space (FloodSet, t = 2)",
        note: "'generated' counts successors before de-duplication; 'wall' is the whole exploration.\n",
        budget: None,
        grid: explore_grid,
        measure: measure_explore,
    },
    Table {
        name: "symbolic",
        title: "Symbolic engine: per-formula timings, GC and cache behaviour",
        note: "'build' is the relational model construction, the checks are holds_everywhere verdicts.\n\
               CB = SBA knowledge condition (B_0 CB exists0); AG = bounded temporal formula by\n\
               pre-image ('-' where the temporal battery is skipped).\n",
        budget: Some(include_str!("../symbolic_budget.txt")),
        grid: symbolic_grid,
        measure: measure_symbolic,
    },
    Table {
        name: "synthesis",
        title: "Synthesis: explicit versus symbolic forward induction",
        note: "explicit runs under the per-cell timeout ('TO' mirrors the paper's tables); \
               rounds+skip counts\nprocessed rounds plus rounds skipped by the early exit; \
               'agree' compares the engines' rules.\n",
        budget: Some(include_str!("../synthesis_budget.txt")),
        grid: synthesis_grid,
        measure: measure_synthesis,
    },
    Table {
        name: "frontend",
        title: "Front-end: relational forward image (model build), verified against the explorer",
        note: "'relational build' computes the layers as forward images of the round relation (never\n\
               enumerating a state). 'verified' marks rows checked against an exploration of the same\n\
               instance: every explored point reachable, and per layer as many states as the explored\n\
               points have distinct states; 'rel products' counts fused relational-product applications.\n",
        budget: Some(include_str!("../frontend_budget.txt")),
        grid: frontend_grid,
        measure: measure_frontend,
    },
    Table {
        name: "local",
        title: "Local engine: lazy layers versus global symbolic checking (B_0 CB exists0 @ t=0)",
        note: "'layers used' counts the reachable layers the local engine materialised, out of the\n\
               'layers' a full build constructs; 'local wall' includes lazy construction and evaluation,\n\
               'global wall' the full relational build plus the same query bounded to the layer.\n\
               'memo hits' are verdict-memo hits after a warm repeat of the query.\n",
        budget: Some(include_str!("../local_budget.txt")),
        grid: local_grid,
        measure: measure_local,
    },
    Table {
        name: "serve",
        title: "Serve: cold build versus warm cross-request cache (epimc-serve)",
        note: "'cold' answers the batch on a fresh server (model construction included); 'warm'\n\
               repeats it against the cached instance — zero relational images, denotations recalled\n\
               by canonical formula hash. 'snap ok' marks rows whose snapshot restored to a checker\n\
               answering identically; 'throughput' drives N concurrent clients of warm batches.\n\
               '50ms probe' evicts the instance and re-requests it under a 50 ms deadline: 'trip'\n\
               rows answered a structured error budget-exceeded after 'answer % deadline' of it (the\n\
               budget gate bounds it at 200), 'done' rows built faster than the deadline; 'post-trip\n\
               ok' marks rows whose rebuild after the probe answered identically.\n",
        budget: Some(include_str!("../serve_budget.txt")),
        grid: serve_grid,
        measure: measure_serve,
    },
];

/// The note under the paper's timed tables.
const PAPER_NOTE: &str = "'TO' marks a cell past the per-cell timeout, '[subopt]' a protocol that meets its\n\
                          specification but is not optimal; 'spec ok' covers the cells that finished.\n";

/// Every `(n, t)` with `2 <= n <= max_n` and `1 <= t <= n`; the quick grid
/// (`!full`) keeps only `t <= 2` at its largest `n`.
fn nt_pairs(max_n: usize, full: bool) -> impl Iterator<Item = (usize, usize)> {
    (2..=max_n)
        .flat_map(|n| (1..=n).map(move |t| (n, t)))
        .filter(move |&(n, t)| full || n < max_n || t <= 2)
}

/// Table 1's FloodSet instances; each row also times Count FloodSet. The
/// full grid matches the paper (n up to 6).
fn table1_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 6 } else { 4 };
    nt_pairs(max_n, full).map(|(n, t)| Experiment::crash(ProtocolKind::FloodSet, n, t)).collect()
}

/// Table 2's Differential instances, one per explored round count from 1
/// to `t + 1`; each row also checks Dwork–Moses.
fn table2_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 4 } else { 3 };
    nt_pairs(max_n, full)
        .flat_map(|(n, t)| {
            (1..=t as Round + 1).map(move |rounds| Experiment {
                horizon: Some(rounds),
                ..Experiment::crash(ProtocolKind::DiffFloodSet, n, t)
            })
        })
        .collect()
}

/// Table 3's instances, keyed by `E_min` under crashes; each row also
/// synthesizes `E_min` under omissions and `E_basic` under both.
fn table3_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 4 } else { 3 };
    nt_pairs(max_n, full).map(|(n, t)| Experiment::crash(ProtocolKind::EMin, n, t)).collect()
}

/// FloodSet at `t = 1` for a growing number of agents: the scaling study
/// behind the paper's discussion of the blow-up threshold.
fn scaling_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 6 } else { 5 };
    (2..=max_n).map(|n| Experiment::crash(ProtocolKind::FloodSet, n, 1)).collect()
}

/// FloodSet at `t = 1`, where the explicit engine still fits.
fn ablation_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 5 } else { 4 };
    (2..=max_n).map(|n| Experiment::crash(ProtocolKind::FloodSet, n, 1)).collect()
}

/// FloodSet at `t = 2`, from the size where exploration takes measurable time.
fn explore_grid(full: bool, _smoke: bool) -> Vec<Experiment> {
    let max_n = if full { 7 } else { 6 };
    (4..=max_n).map(|n| Experiment::crash(ProtocolKind::FloodSet, n, 2)).collect()
}

/// The analysis a paper-table cell times: [`Experiment::model_check`] or
/// [`Experiment::synthesize`].
type Run = fn(&Experiment) -> ExperimentMeasurement;

/// Times each `(header, experiment, run)` cell of a paper-table row under
/// `timeout` (`TO` past it, as in the paper), then adds the row's
/// `spec ok`: whether every cell that finished met its specification, `-`
/// if every cell timed out.
fn paper_row(timeout: Duration, cells: &[(&'static str, Experiment, Run)]) -> Vec<Field> {
    let mut spec_ok = None;
    let mut fields: Vec<Field> = cells
        .iter()
        .map(|&(header, experiment, run)| {
            let measured = with_timeout(timeout, move || run(&experiment));
            if let Some(measured) = &measured {
                spec_ok = Some(spec_ok.unwrap_or(true) && measured.spec_ok);
            }
            let wall = measured.as_ref().map(|measured| measured.duration);
            let subopt = measured.is_some_and(|measured| !measured.optimal);
            Field::new(header, Value::MaybeWall { wall, subopt })
        })
        .collect();
    fields.push(Field::must_hold("spec ok", spec_ok));
    fields
}

/// Table 1: model checking and synthesis of FloodSet and Count FloodSet.
fn measure_table1(experiment: &Experiment, timeout: Duration) -> Vec<Field> {
    let count = Experiment { protocol: ProtocolKind::CountFloodSet, ..*experiment };
    paper_row(
        timeout,
        &[
            ("floodset check", *experiment, Experiment::model_check),
            ("floodset synth", *experiment, Experiment::synthesize),
            ("count check", count, Experiment::model_check),
            ("count synth", count, Experiment::synthesize),
        ],
    )
}

/// Table 2: model checking the Differential and Dwork–Moses protocols.
fn measure_table2(experiment: &Experiment, timeout: Duration) -> Vec<Field> {
    let dwork = Experiment { protocol: ProtocolKind::DworkMoses, ..*experiment };
    paper_row(
        timeout,
        &[
            ("differential check", *experiment, Experiment::model_check),
            ("dwork-moses check", dwork, Experiment::model_check),
        ],
    )
}

/// Table 3: EBA synthesis for `E_min` and `E_basic` under crash and
/// sending-omission failures.
fn measure_table3(experiment: &Experiment, timeout: Duration) -> Vec<Field> {
    use {FailureKind::*, ProtocolKind::*};
    let cell = |protocol, failure| Experiment { protocol, failure, ..*experiment };
    paper_row(
        timeout,
        &[
            ("E_min crash", cell(EMin, Crash), Experiment::synthesize),
            ("E_min omissions", cell(EMin, SendOmission), Experiment::synthesize),
            ("E_basic crash", cell(EBasic, Crash), Experiment::synthesize),
            ("E_basic omissions", cell(EBasic, SendOmission), Experiment::synthesize),
        ],
    )
}

/// The scaling study: model checking and synthesis of FloodSet.
fn measure_scaling(experiment: &Experiment, timeout: Duration) -> Vec<Field> {
    paper_row(
        timeout,
        &[
            ("model check", *experiment, Experiment::model_check),
            ("synthesis", *experiment, Experiment::synthesize),
        ],
    )
}

/// Evaluates the SBA knowledge condition with the explicit-state engine
/// (on an explored model) and the symbolic engine (relational build
/// included), and compares their verdicts and satisfying point sets.
fn measure_engines(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    let (n, params) = (experiment.n, experiment.params());
    with_protocol!(experiment.protocol, |exchange, rule| {
        let model = ConsensusModel::explore(exchange, params, rule);
        let condition = epimc::optimality::sba_knowledge_condition(AgentId::new(0), n, 2);

        let start = Instant::now();
        let explicit = Checker::new(&model);
        let explicit_verdict = explicit.holds_everywhere(&condition);
        let explicit_wall = start.elapsed();

        let start = Instant::now();
        let symbolic =
            SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
        let symbolic_verdict = symbolic.holds_everywhere(&condition);
        let symbolic_wall = start.elapsed();
        let stats = symbolic.stats();
        let agree = explicit_verdict == symbolic_verdict
            && explicit.check(&condition) == symbolic.check_points(&model, &condition);
        vec![
            Field::new("explicit", Value::Wall(explicit_wall)),
            Field::new("symbolic", Value::Wall(symbolic_wall)),
            Field::new("peak live nodes", Value::Count(stats.peak_live_nodes as u128)),
            Field::new("gcs", Value::Count(stats.gc_runs.into())),
            Field::new("hit-rate", Value::Percent(stats.cache_hit_rate() * 100.0)),
            Field::must_hold("agree", Some(agree)),
        ]
    })
}

/// Explores the state space, reporting state counts, de-duplication hits
/// and the wall time.
fn measure_explore(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    let params = experiment.params();
    with_protocol!(experiment.protocol, |exchange, rule| {
        let space = StateSpace::explore(exchange, params, &rule);
        let stats = space.stats();
        vec![
            Field::new("states", Value::Count(stats.total_states() as u128)),
            Field::new("generated", Value::Count(stats.total_generated().into())),
            Field::new("dedup hits", Value::Count(stats.total_dedup_hits().into())),
            Field::new("wall", Value::Wall(stats.total_wall())),
        ]
    })
}

/// `B_0 CB exists0`, the SBA knowledge condition: the symbolic battery's
/// headline formula and the local ablation's layer-0 query. Purely
/// epistemic, so the local engine never needs a layer beyond the one asked
/// about.
fn knowledge_condition() -> Formula<ConsensusAtom> {
    Formula::believes_nonfaulty(AgentId::new(0), Formula::common_belief(exists0()))
}

fn exists0() -> Formula<ConsensusAtom> {
    Formula::atom(ConsensusAtom::ExistsInit(epimc_system::Value::new(0)))
}

/// The symbolic-engine ablation grid.
///
/// `smoke` restricts it to the single small instance exercised by CI
/// (`floodset-n4-t1`). The default grid spans every protocol family and
/// ends with FloodSet `n = 8, t = 3` — a ~400k-state instance that the
/// pre-GC engine could not complete — checked without the temporal battery.
fn symbolic_grid(full: bool, smoke: bool) -> Vec<Experiment> {
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

/// Builds the checker relationally, the way the service runs it, and times
/// `holds_everywhere` on a fixed battery: `exists0`, `K_0 exists0`, the
/// knowledge condition and, below six agents, a bounded temporal formula
/// evaluated by pre-image.
fn measure_symbolic(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    type F = Formula<ConsensusAtom>;
    let agent0 = AgentId::new(0);
    let mut battery = vec![exists0(), F::knows(agent0, exists0()), knowledge_condition()];
    if experiment.n < 6 {
        battery
            .push(F::all_globally(F::implies(F::atom(ConsensusAtom::Decided(agent0)), exists0())));
    }
    let params = experiment.params();
    with_protocol!(experiment.protocol, |exchange, rule| {
        let start = Instant::now();
        let checker =
            SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
        let build = start.elapsed();
        let walls: Vec<Duration> = battery
            .iter()
            .map(|formula| {
                let start = Instant::now();
                checker.holds_everywhere(formula);
                start.elapsed()
            })
            .collect();
        let states = (0..checker.num_layers() as Round).map(|t| checker.layer_state_count(t)).sum();
        let stats = checker.stats();
        vec![
            Field::new("states", Value::Count(states)),
            Field::new("build", Value::Wall(build)),
            Field::new("CB check", Value::Wall(walls[2])),
            Field::new(
                "AG check",
                walls.get(3).map_or(Value::Text("-".into()), |w| Value::Wall(*w)),
            ),
            Field::budget("peak live nodes", stats.peak_live_nodes as u128, ""),
            Field::new(
                "gcs (swept)",
                Value::Text(format!("{} ({})", stats.gc_runs, stats.swept_nodes)),
            ),
            Field::new("hit-rate", Value::Percent(stats.cache_hit_rate() * 100.0)),
            Field::new("rel products", Value::Count(stats.relational_product_calls.into())),
            Field::new("pre-images", Value::Count(stats.preimage_calls.into())),
        ]
    })
}

/// The synthesis ablation grid: the SBA / EBA knowledge-based programs
/// synthesized explicitly and symbolically.
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
fn synthesis_grid(full: bool, smoke: bool) -> Vec<Experiment> {
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
        // precompute) dominates the wall clock, so this row's explicit run
        // is the likeliest to time out. Last on purpose — see the TO note
        // above.
        grid.push(Experiment::crash(FloodSet, 11, 3));
    }
    grid
}

/// Synthesizes the experiment's program symbolically, then explicitly
/// under `timeout`, and compares the two decision tables (`-` on `TO`).
fn measure_synthesis(experiment: &Experiment, timeout: Duration) -> Vec<Field> {
    let experiment = *experiment;
    let params = experiment.params();
    with_protocol!(experiment.protocol, |exchange, _rule| {
        let (symbolic, profile) =
            SymbolicSynthesizer::new(exchange, params).synthesize_profiled(&experiment.program());
        let explicit = with_timeout(timeout, move || {
            let start = Instant::now();
            let outcome = Synthesizer::new(exchange, params).synthesize(&experiment.program());
            (start.elapsed(), outcome.rule)
        });
        let rounds = format!("{}+{}", profile.rounds.len(), symbolic.stats.skipped_rounds);
        vec![
            Field::new("states", Value::Count(symbolic.stats.total_states as u128)),
            Field::new(
                "explicit",
                Value::MaybeWall { wall: explicit.as_ref().map(|(wall, _)| *wall), subopt: false },
            ),
            Field::new("symbolic", Value::Wall(profile.total_wall)),
            Field::new("rounds+skip", Value::Text(rounds)),
            Field::budget("peak live nodes", profile.peak_live_nodes() as u128, ""),
            Field::new("gcs", Value::Count(profile.gc_runs().into())),
            Field::must_hold("agree", explicit.map(|(_, rule)| rule == symbolic.rule)),
        ]
    })
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

/// The front-end grid: relational model construction across the six
/// protocol families. `smoke` restricts it to the single CI instance;
/// `full` appends the sizes the relational build exists for.
fn frontend_grid(full: bool, smoke: bool) -> Vec<Experiment> {
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

/// Builds the layered model relationally (forward images over the
/// partitioned round relation, no state ever enumerated) and, below twelve
/// agents (FloodSet `n = 12` has 22M states, out of the explorer's reach),
/// verifies it against an exploration: every explored point relationally
/// reachable, and each layer's state count equal to the number of distinct
/// states among its explored points.
fn measure_frontend(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    let (id, params, verify) = (experiment.id(), experiment.params(), experiment.n < 12);
    with_protocol!(experiment.protocol, |exchange, rule| {
        let start = Instant::now();
        let relational =
            SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
        let build = start.elapsed();
        let stats = relational.stats();
        let layer_states: Vec<u128> = (0..relational.num_layers() as Round)
            .map(|t| relational.layer_state_count(t))
            .collect();
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
        let lookups = (stats.image_cache_hits + stats.image_cache_misses).max(1);
        vec![
            Field::new("states", Value::Count(layer_states.iter().sum())),
            Field::new("relational build", Value::Wall(build)),
            Field::budget("relational peak", stats.peak_live_nodes as u128, ""),
            Field::new("rel products", Value::Count(stats.relational_product_calls.into())),
            Field::new(
                "img hit-rate",
                Value::Percent(stats.image_cache_hits as f64 / lookups as f64 * 100.0),
            ),
            Field::new("verified", Value::Flag(verify.then_some(true))),
        ]
    })
}

/// The local-engine ablation grid: the six protocol families. The large
/// FloodSet cells — where the global build's deeper layers are pure waste
/// for a layer-0 query — are the headline. `smoke` restricts it to the
/// single CI instance.
fn local_grid(full: bool, smoke: bool) -> Vec<Experiment> {
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

/// Answers the knowledge condition at layer 0 through the lazy local
/// engine (layers on demand, then a warm repeat that must come out of the
/// verdict memo) and through the global engine (full relational build,
/// the query bounded to the layer as `time==0 => φ`). The budget gates the
/// layers the local engine materialised and its peak live nodes.
fn measure_local(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    let (params, query) = (experiment.params(), knowledge_condition());
    with_protocol!(experiment.protocol, |exchange, rule| {
        let start = Instant::now();
        let local = LocalChecker::new(exchange, params, rule);
        let verdict = local.holds_in_layer(&query, 0);
        let local_wall = start.elapsed();
        let layers_expanded = local.stats().layers_expanded;
        let local_peak = local.symbolic_stats().peak_live_nodes;
        local.holds_in_layer(&query, 0);

        let bounded = Formula::implies(Formula::atom(ConsensusAtom::TimeIs(0)), query.clone());
        let start = Instant::now();
        let global =
            SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
        let global_verdict = global.holds_everywhere(&bounded);
        let global_wall = start.elapsed();
        vec![
            Field::budget("layers used", layers_expanded as u128, "-layers"),
            Field::new("layers", Value::Count(local.horizon() as u128 + 1)),
            Field::new("local wall", Value::Wall(local_wall)),
            Field::new("global wall", Value::Wall(global_wall)),
            Field::new(
                "speedup",
                Value::Ratio(global_wall.as_secs_f64() / local_wall.as_secs_f64().max(1e-9)),
            ),
            Field::budget("local peak", local_peak as u128, "-peak"),
            Field::new("global peak", Value::Count(global.stats().peak_live_nodes as u128)),
            Field::new("memo hits", Value::Count(local.stats().memo_hits as u128)),
            Field::must_hold("agreed", Some(verdict == global_verdict)),
        ]
    })
}

/// The formula batch every serve row answers: epistemic, temporal and
/// mixed operators, so the warm repeat exercises the whole denotation
/// cache rather than one code path.
const SERVE_FORMULAS: [&str; 4] = [
    "CB exists0 => decides[0].0",
    "AG (decided[1].0 => !decided[1].1)",
    "B[0] CB exists0",
    "EF decided[0]",
];

/// Concurrent clients of every serve row's throughput phase.
const SERVE_CLIENTS: usize = 4;

/// The deadline of the serve robustness probe, in milliseconds: far below
/// any interesting instance's cold build, far above the trip-to-answer
/// latency.
const PROBE_DEADLINE_MS: u64 = 50;

/// The serve ablation grid.
///
/// `smoke` restricts it to the acceptance instance (`floodset-n10-t3`, the
/// smallest row whose cold batch outlasts both the warm repeat and the
/// 50 ms deadline probe by more than 3x) with a short throughput phase —
/// the row CI gates against `crates/bench/serve_budget.txt`.
fn serve_grid(full: bool, smoke: bool) -> Vec<Experiment> {
    use {FailureKind::SendOmission, ProtocolKind::*};
    if smoke {
        return vec![Experiment::crash(FloodSet, 10, 3)];
    }
    let mut grid = vec![
        Experiment::crash(FloodSet, 4, 1),
        Experiment::crash(CountFloodSet, 3, 1),
        Experiment::new(EMin, 2, 1, SendOmission),
    ];
    if full {
        grid.push(Experiment::crash(FloodSet, 10, 3));
    }
    grid.push(Experiment::crash(FloodSet, 8, 3));
    grid
}

/// `part` as an integer percentage of `whole`, rounded up (so a `<= 10`
/// budget entry means a genuine ≥ 10× ratio).
fn percent_of(part: Duration, whole: Duration) -> u128 {
    (part.as_nanos() * 100).div_ceil(whole.as_nanos().max(1))
}

/// Measures the checking service on one instance: starts an in-process
/// server on an ephemeral port, issues the batch cold and warm, snapshots
/// the warm checker and differentially re-answers from the restored copy,
/// drives [`SERVE_CLIENTS`] concurrent connections issuing warm batches
/// (8 each, 4 from eight agents up), then probes robustness: the instance
/// is evicted and re-requested under a 50 ms deadline (a cold build that
/// outlasts it must answer a structured `error budget-exceeded`,
/// promptly), and the batch after the trip must rebuild and answer
/// identically. The budget gates the warm repeat's relational images, its
/// wall as a percentage of cold, and the probe's answer as a percentage of
/// the deadline.
fn measure_serve(experiment: &Experiment, _timeout: Duration) -> Vec<Field> {
    let spec = ModelSpec {
        protocol: experiment.protocol,
        n: experiment.n,
        t: experiment.t,
        values: experiment.num_values,
        failure: experiment.failure,
        horizon: experiment.params().horizon(),
    };
    let batches_per_client = if experiment.n >= 8 { 4 } else { 8 };
    serve_fields(spec, batches_per_client)
        .unwrap_or_else(|error| panic!("serve measurement {} failed: {error}", experiment.id()))
}

fn serve_fields(spec: ModelSpec, batches_per_client: usize) -> Result<Vec<Field>, String> {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default())
        .map_err(|error| format!("bind: {error}"))?;
    let addr = server.local_addr().map_err(|error| error.to_string())?;
    thread::spawn(move || server.run());

    let mut client = Client::connect(addr).map_err(|error| format!("connect: {error}"))?;
    let started = Instant::now();
    let cold =
        client.check(spec, &SERVE_FORMULAS).map_err(|error| format!("cold check: {error}"))?;
    let cold_wall = started.elapsed();
    let started = Instant::now();
    let warm =
        client.check(spec, &SERVE_FORMULAS).map_err(|error| format!("warm check: {error}"))?;
    let warm_wall = started.elapsed();

    // Snapshot the warm instance and differentially re-answer the batch
    // from the restored copy.
    let path =
        std::env::temp_dir().join(format!("epimc-serve-measure-{}.snap", std::process::id()));
    let path_text = path.to_string_lossy().to_string();
    let snapshot_bytes =
        client.snapshot(spec, &path_text).map_err(|error| format!("snapshot: {error}"))?;
    let stream = std::fs::read(&path).map_err(|error| format!("reading {path_text}: {error}"))?;
    let _ = std::fs::remove_file(&path);
    let restored = answer_from_snapshot(&spec, &stream, &SERVE_FORMULAS)?;

    // The server handles connections sequentially, so the measurement
    // connection must close before the throughput workers can be served.
    drop(client);

    let started = Instant::now();
    let workers: Vec<_> = (0..SERVE_CLIENTS)
        .map(|_| {
            thread::spawn(move || -> Result<(), String> {
                let mut client =
                    Client::connect(addr).map_err(|error| format!("connect: {error}"))?;
                for _ in 0..batches_per_client {
                    client
                        .check(spec, &SERVE_FORMULAS)
                        .map_err(|error| format!("batch: {error}"))?;
                }
                Ok(())
            })
        })
        .collect();
    for worker in workers {
        worker.join().map_err(|_| "throughput worker panicked".to_string())??;
    }
    let throughput = (SERVE_CLIENTS * batches_per_client) as f64 / started.elapsed().as_secs_f64();

    // Robustness probe: evict the warm instance, race the deadline against
    // the cold rebuild, and verify the server both answers the trip
    // promptly (structured, not a dropped connection) and rebuilds
    // correctly on the very next batch.
    let mut client = Client::connect(addr).map_err(|error| format!("connect: {error}"))?;
    client.evict_all().map_err(|error| format!("evict: {error}"))?;
    let started = Instant::now();
    let reply = client
        .check_with_deadline(spec, &SERVE_FORMULAS, Some(PROBE_DEADLINE_MS))
        .map_err(|error| format!("deadline probe: {error}"))?;
    let answer = started.elapsed();
    let tripped = matches!(reply, CheckReply::BudgetExceeded(_));
    let post = client
        .check(spec, &SERVE_FORMULAS)
        .map_err(|error| format!("post-trip rebuild: {error}"))?;

    Ok(vec![
        Field::new("cold", Value::Wall(cold_wall)),
        Field::new("warm", Value::Wall(warm_wall)),
        Field::budget("warm % cold", percent_of(warm_wall, cold_wall), "-warm-wall-pct"),
        Field::new("cold images", Value::Count(cold.relational_products.into())),
        Field::budget("warm images", warm.relational_products.into(), "-warm-rel-products"),
        Field::new("cache hits", Value::Count(warm.session_hits.into())),
        Field::new("snap bytes", Value::Count(snapshot_bytes.into())),
        Field::must_hold("snap ok", Some(restored == warm.verdicts)),
        Field::new("clients", Value::Text(format!("{SERVE_CLIENTS}x{batches_per_client}"))),
        Field::new("throughput", Value::Text(format!("{throughput:.1}/s"))),
        Field::new("50ms probe", Value::Text(if tripped { "trip" } else { "done" }.into())),
        Field::budget(
            "answer % deadline",
            percent_of(answer, Duration::from_millis(PROBE_DEADLINE_MS)),
            "-deadline-answer-pct",
        ),
        Field::must_hold("post-trip ok", Some(post.verdicts == warm.verdicts)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str) -> &'static Table {
        TABLES.iter().find(|table| table.name == name).expect("a known table")
    }

    /// The value under `header` in a measured row.
    fn value<'a>(fields: &'a [Field], header: &str) -> &'a Value {
        &fields.iter().find(|field| field.header == header).expect("a measured column").value
    }

    fn count(fields: &[Field], header: &str) -> u128 {
        match value(fields, header) {
            Value::Count(count) => *count,
            other => panic!("`{header}` is {other:?}, not a count"),
        }
    }

    fn peak_row(id: &str, peak: u128) -> Row {
        (id.to_string(), vec![Field::budget("peak live nodes", peak, "")])
    }

    /// A serve-shaped row: warm images, warm wall against a 100 ms cold
    /// batch, the deadline probe's answer against 50 ms, and both
    /// differentials.
    fn serve_row(warm_images: u128, warm: Duration, answer: Duration, snap_ok: bool) -> Row {
        let deadline = Duration::from_millis(PROBE_DEADLINE_MS);
        let fields = vec![
            Field::budget(
                "warm % cold",
                percent_of(warm, Duration::from_millis(100)),
                "-warm-wall-pct",
            ),
            Field::budget("warm images", warm_images, "-warm-rel-products"),
            Field::must_hold("snap ok", Some(snap_ok)),
            Field::budget(
                "answer % deadline",
                percent_of(answer, deadline),
                "-deadline-answer-pct",
            ),
            Field::must_hold("post-trip ok", Some(true)),
        ];
        ("floodset-n8-t3".to_string(), fields)
    }

    #[test]
    fn serve_budget_gates_warm_images_wall_and_snapshot_fidelity() {
        let budget = "floodset-n8-t3-warm-rel-products 0\nfloodset-n8-t3-warm-wall-pct 10\n";
        let (fast, answer) = (Duration::from_millis(2), Duration::from_millis(60));
        // 2 ms warm against 100 ms cold is 2%, zero images: passes.
        let summary = gate(&[serve_row(0, fast, answer, true)], Some(budget)).unwrap();
        assert!(summary.contains("2 value(s)"), "{summary}");
        // One warm image computation trips the zero budget.
        let err = gate(&[serve_row(1, fast, answer, true)], Some(budget)).unwrap_err();
        assert!(err.contains("floodset-n8-t3-warm-rel-products"), "{err}");
        // A 20 ms warm repeat is 20% of cold: trips the 10% budget.
        let slow = Duration::from_millis(20);
        let err = gate(&[serve_row(0, slow, answer, true)], Some(budget)).unwrap_err();
        assert!(err.contains("floodset-n8-t3-warm-wall-pct: warm % cold 20"), "{err}");
        // A failed snapshot differential fails with the budget met.
        let err = gate(&[serve_row(0, fast, answer, false)], Some(budget)).unwrap_err();
        assert_eq!(err, "floodset-n8-t3: snap ok reads NO");
    }

    #[test]
    fn serve_budget_gates_the_deadline_probe() {
        let budget = "floodset-n8-t3-deadline-answer-pct 200\n";
        let fast = Duration::from_millis(2);
        // A 60 ms answer against the 50 ms deadline is 120%: passes.
        gate(&[serve_row(0, fast, Duration::from_millis(60), true)], Some(budget)).unwrap();
        // A 150 ms answer is 300% of the deadline: trips the 2x gate.
        let err = gate(&[serve_row(0, fast, Duration::from_millis(150), true)], Some(budget))
            .unwrap_err();
        assert!(err.contains("floodset-n8-t3-deadline-answer-pct: answer % deadline 300"), "{err}");
        // Percentages round up, so a bound is never met by truncation.
        assert_eq!(percent_of(Duration::from_nanos(1001), Duration::from_nanos(100_000)), 2);
    }

    #[test]
    fn budget_check_passes_within_budget() {
        let rows = [peak_row("floodset-n4-t1", 1000)];
        let summary = gate(&rows, Some("# comment\nfloodset-n4-t1 2000\n")).unwrap();
        assert!(summary.contains("1 value(s)"), "{summary}");
        // Entries without a matching row are skipped as long as one matches.
        let summary = gate(&rows, Some("floodset-n4-t1 2000\nfloodset-n9-t9 5\n")).unwrap();
        assert!(summary.contains("1 value(s)"), "{summary}");
        // Without a budget no count is gated.
        assert_eq!(gate(&[peak_row("floodset-n4-t1", u128::MAX)], None), Ok(String::new()));
    }

    #[test]
    fn budget_check_reports_regressions() {
        let rows = [peak_row("floodset-n4-t1", 3000), peak_row("floodset-n5-t1", 3000)];
        let err = gate(&rows, Some("floodset-n4-t1 2000\nfloodset-n5-t1 2500\n")).unwrap_err();
        assert!(err.contains("floodset-n4-t1: peak live nodes 3000 exceeds the budget of 2000"));
        assert!(err.contains("floodset-n5-t1: peak live nodes 3000 exceeds the budget of 2500"));
    }

    #[test]
    fn budget_check_fails_when_nothing_matches() {
        // A gate that checks nothing must not pass silently.
        let rows = [peak_row("floodset-n4-t1", 1000)];
        let err = gate(&rows, Some("floodset-n5-t1 2000\n")).unwrap_err();
        assert!(err.contains("no budget entry matched"), "{err}");
        assert!(err.contains("floodset-n4-t1"), "{err}");
    }

    #[test]
    fn budget_check_rejects_malformed_lines() {
        let rows = [peak_row("floodset-n4-t1", 1000)];
        assert!(gate(&rows, Some("floodset-n4-t1\n")).unwrap_err().contains("malformed"));
        assert!(gate(&rows, Some("floodset-n4-t1 lots\n")).unwrap_err().contains("not a number"));
    }

    /// A false [`Gate::MustHold`] flag fails the gate with no budget given,
    /// naming its row; a `-` (not measured) does not.
    #[test]
    fn disagreements_are_collected_not_panicked() {
        let agree = |id: &str, flag| (id.to_string(), vec![Field::must_hold("agree", flag)]);
        let rows = [
            agree("floodset-n4-t1", Some(true)),
            agree("floodset-n5-t1", Some(false)),
            agree("floodset-n9-t3", None),
            serve_row(0, Duration::from_millis(2), Duration::from_millis(60), false),
        ];
        let err = gate(&rows, None).unwrap_err();
        assert_eq!(err, "floodset-n5-t1: agree reads NO\nfloodset-n8-t3: snap ok reads NO");
        // The diverging row still renders, as `NO`.
        assert!(table("synthesis").render(&rows[..3]).contains("NO"));
    }

    /// Every key of the ablation's checked-in budget gates at its bound:
    /// the bound itself passes and one more fails, naming the key.
    fn checked_in_budget_gate_can_trip(name: &str) {
        let budget = table(name).budget.expect("a budgeted ablation");
        for (key, bound) in parse_budget(budget).unwrap() {
            gate(&[peak_row(key, bound)], Some(budget)).unwrap();
            let err = gate(&[peak_row(key, bound + 1)], Some(budget)).unwrap_err();
            assert!(err.starts_with(&format!("{key}: ")), "{name}: {err}");
        }
    }

    #[test]
    fn checked_in_symbolic_budget_gate_can_trip() {
        checked_in_budget_gate_can_trip("symbolic");
    }

    #[test]
    fn checked_in_synthesis_budget_gate_can_trip() {
        checked_in_budget_gate_can_trip("synthesis");
    }

    #[test]
    fn checked_in_frontend_budget_gate_can_trip() {
        checked_in_budget_gate_can_trip("frontend");
    }

    #[test]
    fn checked_in_local_budget_gate_can_trip() {
        checked_in_budget_gate_can_trip("local");
    }

    #[test]
    fn checked_in_serve_budget_gate_can_trip() {
        checked_in_budget_gate_can_trip("serve");
    }

    /// The budget-key drift gate: every key of every checked-in budget file
    /// must be the id of an experiment in that table's grid (smoke or full)
    /// plus the suffix of one of its budgeted fields. The CI smoke step
    /// measures few rows, so a renamed id or suffix in any other row would
    /// otherwise stop being gated without anything failing.
    #[test]
    fn every_budget_key_is_the_id_of_a_grid_experiment() {
        let probe = Experiment::crash(ProtocolKind::FloodSet, 3, 1);
        for (ablation, budget) in TABLES.iter().filter_map(|table| Some((table, table.budget?))) {
            let suffixes: Vec<&str> = (ablation.measure)(&probe, DEFAULT_TIMEOUT)
                .iter()
                .filter_map(|field| match field.gate {
                    Gate::Budget(suffix) => Some(suffix),
                    _ => None,
                })
                .collect();
            let grid = (ablation.grid)(true, true).into_iter().chain((ablation.grid)(true, false));
            let ids: Vec<String> = grid.map(|experiment| experiment.id()).collect();
            let keys = parse_budget(budget).unwrap();
            assert!(!keys.is_empty(), "{}_budget.txt gates nothing", ablation.name);
            for (key, _) in keys {
                let known = ids
                    .iter()
                    .any(|id| suffixes.iter().any(|suffix| key == format!("{id}{suffix}")));
                assert!(known, "{}_budget.txt: `{key}` names no gated grid value", ablation.name);
            }
        }
    }

    /// Ids are derived once, from the experiment: the wire name, `n`, `t`,
    /// `-om` under sending omissions and `-r<rounds>` for a horizon
    /// override — the shape the budget files key.
    #[test]
    fn experiment_ids_keep_the_budget_file_shape() {
        assert_eq!(Experiment::crash(ProtocolKind::DworkMoses, 3, 1).id(), "dworkmoses-n3-t1");
        let omissions = Experiment::new(ProtocolKind::EBasic, 2, 1, FailureKind::SendOmission);
        assert_eq!(omissions.id(), "ebasic-n2-t1-om");
        let rounds = Experiment { horizon: Some(1), ..omissions };
        assert_eq!(rounds.id(), "ebasic-n2-t1-om-r1");
        assert_eq!(table2_grid(false, false)[0].id(), "diff-n2-t1-r1");
        assert_eq!(symbolic_grid(false, true)[0].id(), "floodset-n4-t1");
    }

    #[test]
    fn frontend_row_surfaces_build_comparison_and_image_counters() {
        let experiment = Experiment::crash(ProtocolKind::FloodSet, 3, 1);
        let fields = measure_frontend(&experiment, DEFAULT_TIMEOUT);
        assert!(count(&fields, "states") > 0);
        assert!(count(&fields, "relational peak") > 0);
        assert!(count(&fields, "rel products") > 0, "the build runs forward images");
        assert!(matches!(value(&fields, "img hit-rate"), Value::Percent(rate) if *rate >= 0.0));
        assert_eq!(value(&fields, "verified"), &Value::Flag(Some(true)));
        let rendered = table("frontend").render(&[(experiment.id(), fields)]);
        assert!(rendered.contains("floodset-n3-t1"), "{rendered}");
        assert!(rendered.contains("rel products"), "{rendered}");
    }

    #[test]
    fn symbolic_measure_reports_timings_and_stats() {
        let fields =
            measure_symbolic(&Experiment::crash(ProtocolKind::FloodSet, 3, 1), Duration::ZERO);
        assert!(count(&fields, "states") > 0);
        assert!(matches!(value(&fields, "CB check"), Value::Wall(wall) if *wall > Duration::ZERO));
        assert!(matches!(value(&fields, "AG check"), Value::Wall(_)), "below six agents");
        assert!(count(&fields, "peak live nodes") > 0);
        assert!(count(&fields, "rel products") > 0, "the build runs forward images");
        assert!(count(&fields, "pre-images") > 0, "the temporal formula runs pre-images");

        // From six agents on the temporal battery is skipped.
        let fields =
            measure_symbolic(&Experiment::crash(ProtocolKind::FloodSet, 6, 1), Duration::ZERO);
        assert_eq!(value(&fields, "AG check"), &Value::Text("-".into()));
        assert_eq!(count(&fields, "pre-images"), 0, "no temporal formula, no pre-image");
    }

    #[test]
    fn synthesis_measure_reports_agreement_and_profile() {
        let experiment = Experiment::crash(ProtocolKind::FloodSet, 3, 1);
        let fields = measure_synthesis(&experiment, Duration::from_secs(60));
        assert_eq!(value(&fields, "agree"), &Value::Flag(Some(true)));
        assert!(matches!(value(&fields, "explicit"), Value::MaybeWall { wall: Some(_), .. }));
        assert!(count(&fields, "peak live nodes") > 0);
        // Horizon t + 2 = 3 has 4 rounds; the early exit skips the last.
        assert_eq!(value(&fields, "rounds+skip"), &Value::Text("3+1".into()));

        // A timeout of zero forces the explicit engine into a `TO` cell.
        let fields = measure_synthesis(&experiment, Duration::ZERO);
        assert_eq!(value(&fields, "explicit").to_string(), "TO");
        assert_eq!(value(&fields, "agree"), &Value::Flag(None));
    }

    #[test]
    fn serve_measure_reports_a_warm_image_free_repeat() {
        let fields =
            measure_serve(&Experiment::crash(ProtocolKind::FloodSet, 3, 1), Duration::ZERO);
        assert!(count(&fields, "cold images") > 0);
        assert_eq!(count(&fields, "warm images"), 0);
        assert!(count(&fields, "cache hits") > 0);
        assert_eq!(value(&fields, "snap ok"), &Value::Flag(Some(true)));
        assert_eq!(value(&fields, "post-trip ok"), &Value::Flag(Some(true)));
        assert_eq!(value(&fields, "clients"), &Value::Text("4x8".into()));
        let Value::Text(throughput) = value(&fields, "throughput") else { panic!("text") };
        let per_second: f64 = throughput.trim_end_matches("/s").parse().unwrap();
        assert!(per_second > 0.0, "{throughput}");
    }

    /// Every timed cell of a paper-table row finished, with its wall time.
    fn walls_present(fields: &[Field]) -> bool {
        fields.iter().all(|field| !matches!(field.value, Value::MaybeWall { wall: None, .. }))
    }

    #[test]
    fn table1_measure_times_every_cell_and_checks_the_spec() {
        let experiment = table1_grid(false, false)[0];
        assert_eq!(experiment.id(), "floodset-n2-t1");
        let fields = measure_table1(&experiment, DEFAULT_TIMEOUT);
        assert!(walls_present(&fields));
        assert_eq!(value(&fields, "spec ok"), &Value::Flag(Some(true)));
        // FloodSet's textbook rule is not optimal at n = 2, t = 1; a
        // synthesized protocol always is.
        assert!(value(&fields, "floodset check").to_string().ends_with(" [subopt]"));
        assert!(!value(&fields, "floodset synth").to_string().contains("subopt"));

        // A timeout of zero times every cell out: `spec ok` is not measured.
        let fields = measure_table1(&experiment, Duration::ZERO);
        assert_eq!(value(&fields, "count synth").to_string(), "TO");
        assert_eq!(value(&fields, "spec ok"), &Value::Flag(None));
    }

    #[test]
    fn table2_rows_have_distinct_ids_and_check_the_spec() {
        for full in [false, true] {
            let ids: Vec<String> = table2_grid(full, false).iter().map(Experiment::id).collect();
            let distinct: std::collections::HashSet<&String> = ids.iter().collect();
            assert_eq!(distinct.len(), ids.len(), "{ids:?}");
        }
        let fields = measure_table2(&table2_grid(false, false)[0], DEFAULT_TIMEOUT);
        assert!(walls_present(&fields));
        assert_eq!(value(&fields, "spec ok"), &Value::Flag(Some(true)));
    }

    #[test]
    fn engine_ablation_measure_agrees() {
        let fields = measure_engines(&ablation_grid(false, false)[0], DEFAULT_TIMEOUT);
        assert!(matches!(value(&fields, "explicit"), Value::Wall(_)));
        assert!(matches!(value(&fields, "symbolic"), Value::Wall(_)));
        assert!(count(&fields, "peak live nodes") > 0);
        assert_eq!(value(&fields, "agree"), &Value::Flag(Some(true)));
    }

    #[test]
    fn explore_measure_reports_the_state_space() {
        let fields = measure_explore(&explore_grid(false, false)[0], DEFAULT_TIMEOUT);
        assert_eq!(count(&fields, "states"), 1680);
        assert!(matches!(value(&fields, "wall"), Value::Wall(_)));
        let rendered = table("explore").render(&[("floodset-n4-t2".into(), fields)]);
        assert!(rendered.contains("floodset-n4-t2"), "{rendered}");
    }
}
