//! The five workloads as lists of ops. An op is one closed-loop operation
//! against the program under test: it starts from the state the workload
//! defines (a fresh checker, an evicted or a warm server) and returns the
//! program's answer together with the exact-repeat counters the crates
//! expose. Spans are recorded around each public call the op makes.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use epimc_check::{LocalChecker, ReorderMode, SymbolicChecker, SymbolicOptions, SymbolicStats};
use epimc_serve::{CheckOutcome, Client, ModelSpec, ServeOptions, Server};
use epimc_synth::{KnowledgeBasedProgram, SymbolicSynthesizer};
use epimc_system::TableRule;

use crate::instances::{
    global_check_formulas, is_eba, short_name, specs, Fnv, Kind, COLD_BATCH, F, LOCAL_LAYERS,
    LOCAL_QUERIES, WARM_BATCH,
};
use crate::trace::Tracer;
use crate::with_protocol;

/// Counters read from `SymbolicStats` / `LocalStats` /
/// `SymbolicSynthesisProfile` / `CheckOutcome`, keyed by metric name. They
/// must repeat exactly from pass to pass; the determinism guard compares
/// them. Totals add up over the ops of a pass; high-water marks take the
/// maximum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    totals: BTreeMap<&'static str, u64>,
    peaks: BTreeMap<&'static str, u64>,
}

impl Counts {
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.totals.entry(name).or_default() += value;
    }

    pub fn peak(&mut self, name: &'static str, value: u64) {
        let slot = self.peaks.entry(name).or_default();
        *slot = (*slot).max(value);
    }

    pub fn merge(&mut self, other: &Counts) {
        for (name, value) in &other.totals {
            self.add(name, *value);
        }
        for (name, value) in &other.peaks {
            self.peak(name, *value);
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.totals.get(name).or_else(|| self.peaks.get(name)).copied().unwrap_or(0)
    }

    /// The names on which `self` and `other` differ.
    pub fn differing(&self, other: &Counts) -> Vec<&'static str> {
        let names: BTreeSet<&'static str> = [self, other]
            .into_iter()
            .flat_map(|counts| counts.totals.keys().chain(counts.peaks.keys()))
            .copied()
            .collect();
        names.into_iter().filter(|name| self.get(name) != other.get(name)).collect()
    }

    pub fn add_symbolic(&mut self, stats: &SymbolicStats) {
        self.add("bdd.ops", stats.cache_misses);
        self.add("bdd.cache_hits", stats.cache_hits);
        self.add("bdd.gc_runs", stats.gc_runs);
        self.add("bdd.swept_nodes", stats.swept_nodes);
        self.add("bdd.reorder_runs", stats.reorder_runs);
        self.add("bdd.reorder_swaps", stats.reorder_swaps);
        self.peak("bdd.peak_live_nodes", stats.peak_live_nodes as u64);
        self.add("check.rel_products", stats.relational_product_calls);
        self.add("check.reach_nodes", stats.reachable_nodes as u64);
    }
}

pub struct OpOutcome {
    /// The program's answer in the textual form `expected.json` stores: a
    /// verdict vector (`1`/`0` per formula) or a decision-table digest.
    pub answer: String,
    pub counts: Counts,
}

pub fn verdict_text(verdicts: &[bool]) -> String {
    verdicts.iter().map(|&holds| if holds { '1' } else { '0' }).collect()
}

/// Which first-evaluation span a formula is charged to: the heaviest
/// operator it contains.
pub fn eval_span(formula: &F) -> &'static str {
    let mut has_cb = false;
    formula.visit(&mut |sub| has_cb |= matches!(sub, F::CommonBelief(_)));
    if formula.is_temporal() {
        "check.eval_temporal"
    } else if has_cb {
        "check.eval_cb"
    } else if formula.is_epistemic() {
        "check.eval_knowledge"
    } else {
        "check.eval_prop"
    }
}

/// A digest of a synthesized decision table: FNV-1a over its entries in
/// sorted order (the table iterates in hash order), with the entry count.
pub fn rule_digest(rule: &TableRule) -> String {
    let mut entries: Vec<String> = rule
        .iter()
        .map(|((agent, time, observation), action)| {
            format!("{}@{time}:{:?}->{action:?}", agent.index(), observation.values())
        })
        .collect();
    entries.sort_unstable();
    let mut hash = Fnv::default();
    for entry in &entries {
        hash.write(entry.as_bytes());
        hash.write(b"\n");
    }
    format!("{} entries fnv1a={:016x}", entries.len(), hash.0)
}

pub fn program_for(spec: &ModelSpec) -> KnowledgeBasedProgram {
    if is_eba(spec) {
        KnowledgeBasedProgram::eba_p0()
    } else {
        KnowledgeBasedProgram::sba(spec.values)
    }
}

/// The options of `global_check`'s checkers: the defaults with automatic
/// sifting off. Under the default `ReorderMode::Auto` every instance of the
/// list but the smallest crosses the reorder threshold and one pass takes
/// 75 s, of which sifting is over 95 % (2.5 s with it off) — longer than a
/// whole run may take, and no longer a measure of images, knowledge
/// quantification, fixpoints and GC, which this workload exists for. The
/// other four workloads run the shipped defaults, sifting included.
pub fn global_check_options() -> SymbolicOptions {
    SymbolicOptions { reorder: ReorderMode::Static, ..SymbolicOptions::default() }
}

/// One workload, set up and ready to run ops.
pub struct Workload {
    pub kind: Kind,
    pub specs: Vec<ModelSpec>,
    /// Per instance, the formulas of its op (empty for `synthesis`).
    formulas: Vec<Vec<F>>,
    /// The connection to the in-process server of the `serve_*` workloads.
    client: Option<Client>,
}

impl Workload {
    /// Builds the workload's inputs and, for the `serve_*` workloads, binds
    /// the in-process server on an ephemeral port and connects the single
    /// client. `serve_warm` additionally pre-warms every model with its
    /// batch; all of this is set-up time.
    pub fn set_up(kind: Kind) -> Result<Workload, String> {
        let specs = specs(kind);
        let formulas = Workload::formulas_of(kind);
        let client = if kind.is_serve() {
            let server = Server::bind("127.0.0.1:0", ServeOptions::default())
                .map_err(|error| format!("bind: {error}"))?;
            let addr = server.local_addr().map_err(|error| error.to_string())?;
            // The server loops on `accept` for the life of the process; it
            // is the second (and last) thread the benchmark ever runs.
            std::thread::spawn(move || server.run());
            Some(Client::connect(addr).map_err(|error| format!("connect: {error}"))?)
        } else {
            None
        };
        let mut workload = Workload { kind, specs, formulas, client };
        if kind == Kind::ServeWarm {
            for spec in workload.specs.clone() {
                workload.request(spec, &WARM_BATCH)?;
            }
        }
        Ok(workload)
    }

    /// Per instance of `kind`, the formulas its op evaluates.
    pub fn formulas_of(kind: Kind) -> Vec<Vec<F>> {
        let parse_all = |texts: &[&str]| -> Vec<F> {
            texts
                .iter()
                .map(|text| {
                    epimc_serve::proto::parse_service_formula(text).expect("workload formula")
                })
                .collect()
        };
        specs(kind)
            .iter()
            .map(|spec| match kind {
                Kind::ServeCold => parse_all(&COLD_BATCH),
                Kind::ServeWarm => parse_all(&WARM_BATCH),
                Kind::GlobalCheck => global_check_formulas(spec),
                Kind::LocalLazy => parse_all(&LOCAL_QUERIES),
                Kind::Synthesis => Vec::new(),
            })
            .collect()
    }

    pub fn op_id(&self, index: usize) -> String {
        short_name(&self.specs[index])
    }

    pub fn formulas(&self, index: usize) -> &[F] {
        &self.formulas[index]
    }

    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("serve workloads hold a client")
    }

    fn request(&mut self, spec: ModelSpec, formulas: &[&str]) -> Result<CheckOutcome, String> {
        self.client().check(spec, formulas).map_err(|error| format!("check {spec}: {error}"))
    }

    /// One request inside a `serve.request` span. The server's own wall
    /// (`wall_micros` in the reply) becomes a child `serve.server` span with
    /// `inner` (the build or evaluation class it did) below it, so the
    /// request span's self time is what the wire, the framing and the
    /// client cost.
    fn traced_request(
        &mut self,
        tracer: &mut Tracer,
        spec: ModelSpec,
        formulas: &[&str],
        inner: &'static str,
    ) -> Result<CheckOutcome, String> {
        tracer.span("serve.request", |tracer| {
            let outcome = self.request(spec, formulas)?;
            let server_wall = Duration::from_micros(outcome.wall_micros);
            tracer.reported_child("serve.server", server_wall, |tracer| {
                tracer.reported_child(inner, server_wall, |_| ())
            });
            Ok(outcome)
        })
    }

    pub fn run_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        match self.kind {
            Kind::ServeCold => self.serve_cold_op(index, tracer),
            Kind::ServeWarm => self.serve_warm_op(index, tracer),
            Kind::GlobalCheck => self.global_check_op(index, tracer),
            Kind::Synthesis => self.synthesis_op(index, tracer),
            Kind::LocalLazy => self.local_lazy_op(index, tracer),
        }
    }

    /// Evict, then the cold batch. Untraced, the batch is one request — the
    /// service's real cold request. Traced, the same work is split so each
    /// part can be named: a `true` batch pays for the model build, then each
    /// formula is sent singly (the server's cross-request denotation cache
    /// shares subformulas between them exactly as one batch would).
    fn serve_cold_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let spec = self.specs[index];
        let mut counts = Counts::default();
        tracer.span("serve.evict", |_| self.client().evict_all()).map_err(|e| e.to_string())?;
        let verdicts = if tracer.enabled() {
            let build = self.traced_request(tracer, spec, &["true"], "check.build")?;
            counts.add("serve.cold_rel_products", build.relational_products);
            let mut verdicts = Vec::new();
            let mut live_nodes = build.live_nodes;
            let spans: Vec<&'static str> = self.formulas[index].iter().map(eval_span).collect();
            for (text, span) in COLD_BATCH.iter().zip(spans) {
                let outcome = self.traced_request(tracer, spec, &[text], span)?;
                counts.add("serve.cold_rel_products", outcome.relational_products);
                verdicts.extend(outcome.verdicts);
                live_nodes = outcome.live_nodes;
            }
            counts.peak("serve.live_nodes_held", live_nodes);
            verdicts
        } else {
            let outcome = self.request(spec, &COLD_BATCH)?;
            counts.add("serve.cold_rel_products", outcome.relational_products);
            counts.peak("serve.live_nodes_held", outcome.live_nodes);
            outcome.verdicts
        };
        Ok(OpOutcome { answer: verdict_text(&verdicts), counts })
    }

    /// An identical repeat of a warm model's batch: by contract no
    /// relational product runs, every formula is a session hit.
    fn serve_warm_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let spec = self.specs[index];
        let outcome = self.traced_request(tracer, spec, &WARM_BATCH, "check.eval_hit")?;
        let mut counts = Counts::default();
        counts.add("serve.warm_rel_products", outcome.relational_products);
        counts.add("serve.session_hits", outcome.session_hits);
        counts.add("serve.formulas_sent", WARM_BATCH.len() as u64);
        if !outcome.warm {
            return Err(format!("{spec} was not warm"));
        }
        Ok(OpOutcome { answer: verdict_text(&outcome.verdicts), counts })
    }

    /// A relational build, then every formula in one evaluation session.
    fn global_check_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let spec = self.specs[index];
        let formulas = &self.formulas[index];
        with_protocol!(spec, |exchange, rule| {
            let checker = tracer.span("check.build", |_| {
                SymbolicChecker::relational(exchange, spec.params(), rule, global_check_options())
            });
            let images_built = checker.stats().relational_product_calls;
            let mut session = checker.session();
            let verdicts: Vec<bool> = formulas
                .iter()
                .map(|formula| {
                    tracer.span(eval_span(formula), |_| {
                        checker.holds_everywhere_in_session(&mut session, formula)
                    })
                })
                .collect();
            checker.end_session(session);
            let stats = checker.stats();
            // The bypass property later claims rely on: evaluation computed
            // no relational product, so no pre-image ran.
            if stats.relational_product_calls != images_built {
                return Err(format!("{spec}: evaluation computed relational products"));
            }
            let mut counts = Counts::default();
            counts.add_symbolic(&stats);
            Ok(OpOutcome { answer: verdict_text(&verdicts), counts })
        })
    }

    /// One full `synthesize_profiled` call. The callee reports each round's
    /// wall; those become child spans, so the call's self time is what runs
    /// outside the rounds (layer extension, settledness, rule bookkeeping).
    fn synthesis_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let spec = self.specs[index];
        let program = program_for(&spec);
        with_protocol!(spec, |exchange, _rule| {
            let (outcome, profile) = tracer.span("synth.synthesize", |tracer| {
                let result =
                    SymbolicSynthesizer::new(exchange, spec.params()).synthesize_profiled(&program);
                for round in &result.1.rounds {
                    tracer.reported_child("synth.round", round.wall, |_| ());
                }
                result
            });
            let mut counts = Counts::default();
            if let Some(last) = profile.rounds.last() {
                counts.add_symbolic(&last.stats);
            }
            counts.add("synth.rounds", profile.rounds.len() as u64);
            counts.add("synth.skipped_rounds", outcome.stats.skipped_rounds as u64);
            counts.add("synth.gc_runs", profile.gc_runs());
            counts.peak("synth.peak_live_nodes", profile.peak_live_nodes() as u64);
            Ok(OpOutcome { answer: rule_digest(&outcome.rule), counts })
        })
    }

    /// A fresh lazy checker, then both queries at layers 0, 1, 2, each
    /// asked twice (the repeat must come out of the verdict memo).
    fn local_lazy_op(&mut self, index: usize, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let spec = self.specs[index];
        let formulas = &self.formulas[index];
        with_protocol!(spec, |exchange, rule| {
            let local =
                tracer.span("local.new", |_| LocalChecker::new(exchange, spec.params(), rule));
            let mut verdicts = Vec::new();
            for layer in LOCAL_LAYERS {
                for (position, formula) in formulas.iter().enumerate() {
                    let first_span = match (layer, position) {
                        (0, 0) => "local.q_first",
                        (_, 0) => "local.q_extend",
                        _ => "local.q_same_layer",
                    };
                    let first = tracer.span(first_span, |_| local.holds_in_layer(formula, layer));
                    let again =
                        tracer.span("local.q_memo", |_| local.holds_in_layer(formula, layer));
                    if first != again {
                        return Err(format!("{spec}: memoised verdict differs at layer {layer}"));
                    }
                    verdicts.push(first);
                }
            }
            // Strictly below the horizon: the laziness this workload is for.
            if local.layers_expanded() > 3 || local.layers_expanded() > local.horizon() {
                return Err(format!("{spec} expanded {} layers", local.layers_expanded()));
            }
            let stats = local.stats();
            let mut counts = Counts::default();
            counts.add_symbolic(&local.symbolic_stats());
            counts.add("local.cells", stats.cells as u64);
            counts.add("local.layers_expanded", stats.layers_expanded as u64);
            counts.add("local.memo_hits", stats.memo_hits as u64);
            counts.add("local.fallbacks", stats.fallbacks);
            Ok(OpOutcome { answer: verdict_text(&verdicts), counts })
        })
    }
}
