//! The per-layer metrics of a traced run, all measured from outside the
//! crates. Three sources: the spans the traced passes recorded, the
//! counters every pass returned (which must repeat exactly — the determinism
//! guard), and probes that time single calls into a layer's public
//! functions on the workload's own instances after the passes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use epimc_bdd::{Bdd, Var, DEFAULT_CACHE_CAPACITY};
use epimc_check::{SymbolicChecker, SymbolicOptions};
use epimc_local::EqSystem;
use epimc_logic::AgentId;
use epimc_relational::{cur, initial_cube, nxt, round_relation, ChoiceVars, SlotLayout};
use epimc_serve::proto::parse_service_formula;
use epimc_serve::{CheckOutcome, ModelSpec, Request, RequestBackend, Response};
use epimc_system::{FailureKind, Round};

use crate::instances::{Kind, COLD_BATCH, F, LOCAL_QUERIES, WARM_BATCH};
use crate::runner::{median, Metric, Pass};
use crate::trace::Tracer;
use crate::with_protocol;
use crate::workloads::{global_check_options, program_for, Counts, Workload};

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// metric a workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.rtt_ping_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.server_wall_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.warm_rel_products", "count"),
    ("serve.cold_rel_products", "count"),
    ("serve.evictions", "count"),
    ("serve.live_nodes_held", "count"),
    ("logic.parse_us", "us"),
    ("logic.hash_us", "us"),
    ("logic.formula_nodes", "count"),
    ("check.build_s", "s"),
    ("check.image_step_ms", "ms"),
    ("check.image_step_max_ms", "ms"),
    ("check.rel_products", "count"),
    ("check.reach_nodes", "count"),
    ("check.eval_prop_ms", "ms"),
    ("check.eval_knowledge_ms", "ms"),
    ("check.eval_cb_ms", "ms"),
    ("check.eval_temporal_ms", "ms"),
    ("check.eval_hit_us", "us"),
    ("check.obs_values_ms", "ms"),
    ("bdd.ops", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.swept_nodes", "count"),
    ("bdd.gc_ms", "ms"),
    ("bdd.reorder_runs", "count"),
    ("bdd.reorder_swaps", "count"),
    ("bdd.sift_s", "s"),
    ("bdd.peak_live_nodes", "count"),
    ("relational.round_relation_ms", "ms"),
    ("relational.partition_nodes", "count"),
    ("relational.initial_cube_us", "us"),
    ("local.compile_us", "us"),
    ("local.cells", "count"),
    ("local.layers_expanded", "count"),
    ("local.memo_hits", "count"),
    ("local.fallbacks", "count"),
    ("local.q_first_ms", "ms"),
    ("local.q_extend_ms", "ms"),
    ("local.q_memo_us", "us"),
    ("synth.round_ms", "ms"),
    ("synth.outside_rounds_s", "s"),
    ("synth.rounds", "count"),
    ("synth.skipped_rounds", "count"),
    ("synth.gc_runs", "count"),
    ("synth.peak_live_nodes", "count"),
    ("trace_overhead_pct", "%"),
    ("trace_attributed_pct", "%"),
];

/// Wall of `work`, with its result.
fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed())
}

/// Timing samples in seconds, keyed by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, seconds: f64) {
        self.0.entry(name).or_default().push(seconds);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The sender-interleaved variable order `relational_seed` installs (each
/// agent's current/primed pairs followed by the adversary choices gating
/// its outgoing messages); `round_relation` on a manager left in index
/// order would time a blow-up the checker never sees.
fn checker_order(layout: &SlotLayout, choice: &ChoiceVars, crash: bool) -> Vec<Var> {
    let n = layout.num_agents();
    let mut order = Vec::new();
    for (agent, slots) in layout.agents.iter().enumerate() {
        for &slot in &slots.all_slots {
            order.extend([cur(slot), nxt(slot)]);
        }
        if crash {
            order.push(choice.crash_var(agent));
        }
        order.extend((0..n).filter(|&r| r != agent).map(|r| choice.deliver_var(agent, r)));
    }
    order
}

/// Times the front-end of one instance from outside: the `relational`
/// crate's cube and round relation on a fresh manager, then the `check`
/// crate's layer-by-layer build from `relational_seed`, and on the built
/// model a repeat evaluation of each of `formulas` in one session (a
/// session hit), `observation_values` projections when `observe` is set,
/// and one forced collection. Returns the built model's counters, which
/// for `serve_cold` stand in for the ones the wire does not carry.
fn front_end_probe(
    spec: &ModelSpec,
    options: SymbolicOptions,
    formulas: &[F],
    observe: bool,
    sift: bool,
    samples: &mut Samples,
) -> Counts {
    with_protocol!(spec, |exchange, rule| {
        let params = spec.params();
        let crash = params.failure().kind() == FailureKind::Crash;
        let layout = SlotLayout::new(&exchange, &params);
        let choice = ChoiceVars::new(params.failure().kind(), spec.n, layout.num_slots);
        let mut bdd = Bdd::with_settings(DEFAULT_CACHE_CAPACITY, true);
        bdd.set_order(checker_order(&layout, &choice, crash));
        let (_, wall) = timed(|| initial_cube(&mut bdd, &layout, &exchange, &params));
        samples.push("relational.initial_cube_us", wall.as_secs_f64());
        let (round, wall) =
            timed(|| round_relation(&mut bdd, &layout, &choice, &exchange, &rule, &params, 0));
        samples.push("relational.round_relation_ms", wall.as_secs_f64());
        let mut counts = Counts::default();
        let nodes: usize = round.partitions.iter().map(|&part| bdd.node_count(part)).sum();
        counts.add("relational.partition_nodes", nodes as u64);
        drop(bdd);

        let checker = SymbolicChecker::relational_seed(exchange, params, rule, options);
        for _ in 0..params.horizon() {
            let ((), wall) = timed(|| checker.extend_layer_relational(&rule));
            samples.push("check.image_step_ms", wall.as_secs_f64());
        }
        let mut session = checker.session();
        for formula in formulas {
            let first = checker.holds_everywhere_in_session(&mut session, formula);
            let (again, wall) =
                timed(|| checker.holds_everywhere_in_session(&mut session, formula));
            assert_eq!(first, again, "{spec}: a session hit changed the verdict of {formula}");
            samples.push("check.eval_hit_us", wall.as_secs_f64());
        }
        checker.end_session(session);
        if observe {
            // One session per layer: a temporal-free condition is evaluated
            // under a layer focus, and a session is pinned to its first.
            let program = program_for(spec);
            for time in 0..=params.horizon() {
                let mut session = checker.session();
                for agent in [AgentId::new(0), AgentId::new(spec.n - 1)] {
                    let condition = program.branches[0].condition_for(agent, &params);
                    let (values, wall) = timed(|| {
                        checker.observation_values(&mut session, &condition, agent, time as Round)
                    });
                    black_box(values);
                    samples.push("check.obs_values_ms", wall.as_secs_f64());
                }
                checker.end_session(session);
            }
        }
        counts.add_symbolic(&checker.stats());
        let ((), wall) = timed(|| checker.force_gc());
        samples.push("bdd.gc_ms", wall.as_secs_f64());
        if sift {
            let ((), wall) = timed(|| checker.force_reorder());
            samples.push("bdd.sift_s", wall.as_secs_f64());
        }
        counts
    })
}

/// Wire and parser probes of the `serve_*` workloads.
fn serve_probe(
    workload: &mut Workload,
    batch: &[&str],
    samples: &mut Samples,
) -> Result<(), String> {
    const REPEATS: usize = 200;
    for _ in 0..REPEATS {
        let (reply, wall) = timed(|| workload.client().ping());
        reply.map_err(|error| format!("ping: {error}"))?;
        samples.push("serve.rtt_ping_us", wall.as_secs_f64());
    }
    for spec in workload.specs.clone() {
        let frame = Request::Check {
            spec,
            formulas: batch.iter().map(|text| text.to_string()).collect(),
            deadline_ms: None,
            backend: RequestBackend::Symbolic,
        }
        .encode();
        let reply = Response::Check(CheckOutcome {
            warm: true,
            wall_micros: 1234,
            relational_products: 0,
            session_hits: batch.len() as u64,
            live_nodes: 123_456,
            verdicts: vec![true; batch.len()],
        });
        for _ in 0..REPEATS {
            let (request, wall) = timed(|| Request::decode(black_box(&frame)));
            black_box(request.map_err(|error| format!("decode: {error}"))?);
            samples.push("serve.decode_us", wall.as_secs_f64());
            let (bytes, wall) = timed(|| black_box(&reply).encode());
            black_box(bytes);
            samples.push("serve.encode_us", wall.as_secs_f64());
        }
    }
    for text in batch {
        for _ in 0..REPEATS {
            let (formula, wall) = timed(|| parse_service_formula(black_box(text)));
            let formula = formula?;
            samples.push("logic.parse_us", wall.as_secs_f64());
            let (hash, wall) = timed(|| formula.canonical_hash());
            black_box(hash);
            samples.push("logic.hash_us", wall.as_secs_f64());
        }
    }
    Ok(())
}

pub fn per_layer_metrics(
    workload: &mut Workload,
    tracer: &Tracer,
    passes: &[Pass],
) -> Result<Vec<Metric>, String> {
    let kind = workload.kind;

    // Determinism guard: every pass starts each op from the same state, so
    // every counter must read the same in every pass, traced or not.
    let mut counts = passes[0].counts.clone();
    for pass in &passes[1..] {
        let names = counts.differing(&pass.counts);
        if !names.is_empty() {
            return Err(format!("{}: counters differ between passes: {names:?}", kind.name()));
        }
    }

    let mut samples = Samples::default();
    let self_times = tracer.self_times();
    let traced_passes: Vec<usize> =
        (1..=passes.len()).filter(|&pass| passes[pass - 1].traced).collect();
    // Per span name: one sample per span (its self time or its duration),
    // and the per-pass total of self time.
    let mut per_pass: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (span, &own) in tracer.spans().iter().zip(&self_times) {
        *per_pass.entry(span.name).or_default().entry(span.pass).or_default() += own;
        let duration = (span.end - span.start).as_secs_f64();
        match span.name {
            "serve.request" => samples.push("serve.wire_overhead_us", own),
            "serve.server" => samples.push("serve.server_wall_us", duration),
            "check.eval_hit" => samples.push("check.eval_hit_us", duration),
            "synth.round" => samples.push("synth.round_ms", duration),
            "local.q_first" => samples.push("local.q_first_ms", duration),
            "local.q_extend" => samples.push("local.q_extend_ms", duration),
            "local.q_memo" => samples.push("local.q_memo_us", duration),
            _ => {}
        }
    }
    // Median over the traced passes of a span name's self time per pass.
    let pass_total = |span: &str| -> f64 {
        let totals = per_pass.get(span);
        let values: Vec<f64> = traced_passes
            .iter()
            .map(|pass| totals.and_then(|totals| totals.get(pass)).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    };

    let wall_of = |traced: bool| -> f64 {
        let walls: Vec<f64> =
            passes.iter().filter(|pass| pass.traced == traced).map(|pass| pass.wall).collect();
        median(&walls)
    };
    let (traced_wall, untraced_wall) = (wall_of(true), wall_of(false));
    let named: f64 =
        per_pass.iter().filter(|(span, _)| **span != "op").map(|(span, _)| pass_total(span)).sum();

    // Probes on the workload's own instances.
    let formulas_total: usize = (0..workload.specs.len())
        .map(|index| workload.formulas(index).iter().map(|f| f.size()).sum::<usize>())
        .sum();
    match kind {
        Kind::ServeCold => serve_probe(workload, &COLD_BATCH, &mut samples)?,
        Kind::ServeWarm => serve_probe(workload, &WARM_BATCH, &mut samples)?,
        Kind::LocalLazy => {
            for text in LOCAL_QUERIES {
                let formula = parse_service_formula(text)?;
                for _ in 0..200 {
                    let (system, wall) = timed(|| EqSystem::compile(black_box(&formula)));
                    black_box(system.len());
                    samples.push("local.compile_us", wall.as_secs_f64());
                    let (hash, wall) = timed(|| formula.canonical_hash());
                    black_box(hash);
                    samples.push("logic.hash_us", wall.as_secs_f64());
                }
            }
        }
        Kind::GlobalCheck | Kind::Synthesis => {}
    }
    // `serve_warm`'s timed path builds nothing: no front-end to probe.
    if kind != Kind::ServeWarm {
        let options = if kind == Kind::GlobalCheck {
            global_check_options()
        } else {
            SymbolicOptions::default()
        };
        let mut probed = Counts::default();
        for (index, spec) in workload.specs.clone().iter().enumerate() {
            // One forced sift, on the first instance of the list: sifting a
            // large model takes longer than the rest of the run.
            let built = front_end_probe(
                spec,
                options,
                workload.formulas(index),
                kind == Kind::Synthesis,
                index == 0,
                &mut samples,
            );
            probed.merge(&built);
        }
        if kind == Kind::ServeCold {
            // The wire carries relational products but no kernel counters;
            // the in-process replay of the same builds and formulas supplies
            // them, and must have computed exactly the products the server
            // reported.
            if probed.get("check.rel_products") != counts.get("serve.cold_rel_products") {
                return Err(format!(
                    "serve_cold: in-process replay computed {} relational products, the server {}",
                    probed.get("check.rel_products"),
                    counts.get("serve.cold_rel_products")
                ));
            }
            counts.merge(&probed);
        } else {
            counts.add("relational.partition_nodes", probed.get("relational.partition_nodes"));
        }
    }
    let mut evictions = 0;
    if kind.is_serve() {
        let stats = workload.client().stats().map_err(|error| format!("stats: {error}"))?;
        evictions = stats.evictions;
        if kind == Kind::ServeWarm {
            // Every model stays warm for the whole run: what the server
            // holds at the end is what it held throughout.
            counts.peak("serve.live_nodes_held", stats.live_nodes);
        }
    }

    let count = |metric: &str| counts.get(metric) as f64;
    let lookups = count("bdd.ops") + count("bdd.cache_hits");
    let value = |metric: &str, unit: &str| -> f64 {
        match metric {
            "serve.session_hit_ratio" => {
                count("serve.session_hits") / count("serve.formulas_sent").max(1.0)
            }
            "serve.evictions" => evictions as f64,
            "logic.formula_nodes" => formulas_total as f64,
            "check.build_s" => pass_total("check.build"),
            "check.image_step_max_ms" => {
                samples.get("check.image_step_ms").iter().copied().fold(0.0, f64::max) * 1e3
            }
            "check.eval_prop_ms" => pass_total("check.eval_prop") * 1e3,
            "check.eval_knowledge_ms" => pass_total("check.eval_knowledge") * 1e3,
            "check.eval_cb_ms" => pass_total("check.eval_cb") * 1e3,
            "check.eval_temporal_ms" => pass_total("check.eval_temporal") * 1e3,
            "bdd.cache_hit_rate" => count("bdd.cache_hits") / lookups.max(1.0),
            "synth.outside_rounds_s" => pass_total("synth.synthesize"),
            "trace_overhead_pct" => (traced_wall - untraced_wall) / untraced_wall * 100.0,
            "trace_attributed_pct" => named / traced_wall * 100.0,
            // Every other timing is the median of its samples; the rest are
            // counters.
            _ => match unit {
                "us" => median(samples.get(metric)) * 1e6,
                "ms" => median(samples.get(metric)) * 1e3,
                "s" => median(samples.get(metric)),
                _ => count(metric),
            },
        }
    };
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, value: value(name, unit), unit })
        .collect())
}
