//! `expected.json`: the reference answer of every op, and `regen-expected`,
//! which recomputes it. An entry is `explicit` when the explicit engines
//! (`Checker` / `Synthesizer` over `ConsensusModel::explore`) produced it —
//! possible for every instance whose state count is within `STATE_CAP` — and
//! `pinned` otherwise: the symbolic answer at the commit that regenerated
//! the file, accepted only if the global and local engines agree and, for a
//! synthesized rule, if the rule passes the SBA/EBA specification when
//! checked as a `TableRule`. The timed runs never call this code.

use std::collections::BTreeMap;

use epimc_check::{Checker, LocalChecker, SymbolicChecker, SymbolicOptions};
use epimc_logic::Formula;
use epimc_serve::ModelSpec;
use epimc_synth::{SymbolicSynthesizer, Synthesizer};
use epimc_system::{ConsensusAtom, ConsensusModel, Round};

use crate::instances::{global_check_formulas, short_name, specs, Kind, F, LOCAL_LAYERS};
use crate::json::Json;
use crate::with_protocol;
use crate::workloads::{program_for, rule_digest, verdict_text, Workload};

pub const EXPECTED_PATH: &str = "benchmark/expected.json";

/// Instances with at most this many states (summed over layers) get their
/// reference answers from the explicit engines.
const STATE_CAP: u128 = 150_000;

/// `(workload, op id) -> answer`.
pub struct Expected(BTreeMap<(String, String), String>);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let text = std::fs::read_to_string(EXPECTED_PATH)
            .map_err(|error| format!("{EXPECTED_PATH}: {error} (run from the repository root)"))?;
        let json = Json::parse(&text).map_err(|error| format!("{EXPECTED_PATH}: {error}"))?;
        let entries = json.get("entries").and_then(Json::as_arr).ok_or("no `entries` array")?;
        let mut map = BTreeMap::new();
        for entry in entries {
            let field = |key: &str| -> Result<String, String> {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{EXPECTED_PATH}: entry without `{key}`"))
            };
            map.insert((field("workload")?, field("op")?), field("answer")?);
        }
        Ok(Expected(map))
    }

    pub fn answer(&self, workload: &str, op: &str) -> Option<&str> {
        self.0.get(&(workload.to_string(), op.to_string())).map(String::as_str)
    }
}

fn bounded(layer: usize, formula: &F) -> F {
    Formula::implies(Formula::atom(ConsensusAtom::TimeIs(layer as Round)), formula.clone())
}

/// The reference verdict vector of a checking op, with its source.
fn reference_verdicts(workload: Kind, spec: &ModelSpec, formulas: &[F]) -> (String, &'static str) {
    // `local_lazy` asks each query at each layer; every other workload asks
    // each formula over the whole model.
    let queries: Vec<(Option<usize>, &F)> = if workload == Kind::LocalLazy {
        LOCAL_LAYERS
            .iter()
            .flat_map(|&layer| formulas.iter().map(move |formula| (Some(layer), formula)))
            .collect()
    } else {
        formulas.iter().map(|formula| (None, formula)).collect()
    };
    with_protocol!(spec, |exchange, rule| {
        let params = spec.params();
        let global =
            SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
        let states: u128 = (0..=params.horizon()).map(|time| global.layer_state_count(time)).sum();
        if states <= STATE_CAP {
            let model = ConsensusModel::explore(exchange, params, rule);
            let checker = Checker::new(&model);
            let verdicts: Vec<bool> = queries
                .iter()
                .map(|&(layer, formula)| match layer {
                    Some(layer) => checker.holds_everywhere(&bounded(layer, formula)),
                    None => checker.holds_everywhere(formula),
                })
                .collect();
            (verdict_text(&verdicts), "explicit")
        } else {
            let local = LocalChecker::new(exchange, params, rule);
            let verdicts: Vec<bool> = queries
                .iter()
                .map(|&(layer, formula)| {
                    let (by_global, by_local) = match layer {
                        Some(layer) => (
                            global.holds_everywhere(&bounded(layer, formula)),
                            local.holds_in_layer(formula, layer),
                        ),
                        None => (global.holds_everywhere(formula), local.holds_everywhere(formula)),
                    };
                    assert_eq!(
                        by_global, by_local,
                        "{spec}: global and local engines disagree on {formula}; not pinning"
                    );
                    by_global
                })
                .collect();
            (verdict_text(&verdicts), "pinned")
        }
    })
}

/// The reference decision-table digest of a synthesis op, with its source.
fn reference_rule(spec: &ModelSpec) -> (String, &'static str) {
    let program = program_for(spec);
    with_protocol!(spec, |exchange, _rule| {
        let params = spec.params();
        let symbolic = SymbolicSynthesizer::new(exchange, params).synthesize(&program);
        if symbolic.stats.total_states as u128 <= STATE_CAP {
            let explicit = Synthesizer::new(exchange, params).synthesize(&program);
            return (rule_digest(&explicit.rule), "explicit");
        }
        let clauses = global_check_formulas(spec);
        let specification = &clauses[..clauses.len() - 2];
        let global = SymbolicChecker::relational(
            exchange,
            params,
            symbolic.rule.clone(),
            SymbolicOptions::default(),
        );
        let local = LocalChecker::new(exchange, params, symbolic.rule.clone());
        for clause in specification {
            assert!(
                global.holds_everywhere(clause) && local.holds_everywhere(clause),
                "{spec}: the synthesized rule fails {clause}; not pinning"
            );
        }
        (rule_digest(&symbolic.rule), "pinned")
    })
}

/// Recomputes every entry and rewrites `expected.json`.
pub fn regenerate() -> Result<(), String> {
    let mut entries = Vec::new();
    for kind in Kind::ALL {
        let name = kind.name();
        // The serve workloads' formulas are plain data; no server is needed
        // to compute their reference answers.
        let formulas = Workload::formulas_of(kind);
        for (index, spec) in specs(kind).iter().enumerate() {
            let (answer, source) = if kind == Kind::Synthesis {
                reference_rule(spec)
            } else {
                reference_verdicts(kind, spec, &formulas[index])
            };
            eprintln!("{name:13} {:28} {source:8} {answer}", short_name(spec));
            entries.push(Json::obj([
                ("workload", Json::str(name)),
                ("op", Json::str(short_name(spec))),
                ("answer", Json::str(answer)),
                ("source", Json::str(source)),
            ]));
        }
    }
    let file =
        Json::obj([("state_cap", Json::Num(STATE_CAP as f64)), ("entries", Json::Arr(entries))]);
    std::fs::write(EXPECTED_PATH, file.pretty())
        .map_err(|error| format!("{EXPECTED_PATH}: {error}"))
}
