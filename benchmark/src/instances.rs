//! The fixed inputs of the five workloads: model instances, formulas and
//! request schedules. `--seed` drives only the order in which they are
//! issued; the program under test sees the specs and formulas alone.

use epimc::spec::{
    agreement_formula, simultaneous_agreement_formula, termination_formula,
    uniform_agreement_formula, validity_formula,
};
use epimc_logic::{AgentId, Formula, TemporalKind};
use epimc_serve::{ModelSpec, ProtocolKind};
use epimc_system::{ConsensusAtom, FailureKind};

pub type F = Formula<ConsensusAtom>;

/// The five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeCold,
    ServeWarm,
    GlobalCheck,
    Synthesis,
    LocalLazy,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::ServeCold, Kind::ServeWarm, Kind::GlobalCheck, Kind::Synthesis, Kind::LocalLazy];

    /// The name in `BENCHMARK.json`, on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeCold => "serve_cold",
            Kind::ServeWarm => "serve_warm",
            Kind::GlobalCheck => "global_check",
            Kind::Synthesis => "synthesis",
            Kind::LocalLazy => "local_lazy",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the ops go over TCP to the in-process server.
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeCold | Kind::ServeWarm)
    }
}

/// Runs `$body` with `$exchange` and `$rule` bound to the information
/// exchange and literature decision rule of `$spec`'s protocol (the same
/// pairs `epimc-serve` instantiates).
#[macro_export]
macro_rules! with_protocol {
    ($spec:expr, |$exchange:ident, $rule:ident| $body:expr) => {{
        use epimc_protocols::{
            CountFloodSet, DiffFloodSet, DworkMoses, DworkMosesRule, EBasic, EBasicRule, EMin,
            EMinRule, FloodSet, FloodSetRule, TextbookRule,
        };
        use epimc_serve::ProtocolKind;
        match $spec.protocol {
            ProtocolKind::FloodSet => {
                let ($exchange, $rule) = (FloodSet, FloodSetRule);
                $body
            }
            ProtocolKind::CountFloodSet => {
                let ($exchange, $rule) = (CountFloodSet, TextbookRule);
                $body
            }
            ProtocolKind::DiffFloodSet => {
                let ($exchange, $rule) = (DiffFloodSet, TextbookRule);
                $body
            }
            ProtocolKind::DworkMoses => {
                let ($exchange, $rule) = (DworkMoses, DworkMosesRule);
                $body
            }
            ProtocolKind::EMin => {
                let ($exchange, $rule) = (EMin, EMinRule);
                $body
            }
            ProtocolKind::EBasic => {
                let ($exchange, $rule) = (EBasic, EBasicRule);
                $body
            }
        }
    }};
}

/// The cold batch: a common-belief implication, a safety `AG`, a nested
/// belief, and the two formulas that force pre-images through every layer.
pub const COLD_BATCH: [&str; 5] = [
    "CB exists0 => decides[0].0",
    "AG (decided[1].0 => !decided[1].1)",
    "B[0] CB exists0",
    "EF decided[0]",
    "AX AX decided[0]",
];

/// The warm batch: temporal-free, so answering it never builds a pre-image.
pub const WARM_BATCH: [&str; 4] = [
    "CB exists0 => decides[0].0",
    "B[0] CB exists0",
    "K[1] (exists0 \\/ exists1)",
    "decided[1].0 => !decided[1].1",
];

/// The two layer-bounded queries of `local_lazy`, asked at layers 0, 1, 2.
pub const LOCAL_QUERIES: [&str; 2] = ["B[0] CB exists0", "K[1] (exists0 \\/ exists1)"];
pub const LOCAL_LAYERS: [usize; 3] = [0, 1, 2];

const SERVE_COLD: [&str; 6] = [
    "protocol=floodset n=8 t=3 failure=crash",
    "protocol=count n=5 t=2 failure=crash",
    "protocol=diff n=4 t=2 failure=crash",
    "protocol=dworkmoses n=3 t=1 failure=crash",
    "protocol=emin n=4 t=2 failure=send",
    "protocol=ebasic n=4 t=3 failure=send",
];
/// `serve_warm` holds the six cold specs plus this one, its largest model,
/// which draws one request in `WARM_HEAVY_ONE_IN`.
const SERVE_WARM_HEAVY: &str = "protocol=floodset n=10 t=3 failure=crash";
const GLOBAL_CHECK: [&str; 7] = [
    "protocol=floodset n=12 t=4 failure=crash",
    "protocol=floodset n=14 t=3 failure=crash",
    "protocol=count n=6 t=2 failure=crash",
    "protocol=diff n=5 t=2 failure=crash",
    "protocol=dworkmoses n=3 t=2 failure=crash",
    "protocol=emin n=8 t=3 failure=send",
    "protocol=ebasic n=5 t=2 failure=send",
];
const SYNTHESIS: [&str; 9] = [
    "protocol=floodset n=10 t=3 failure=crash",
    "protocol=floodset n=12 t=3 failure=crash",
    "protocol=floodset n=10 t=4 failure=crash",
    "protocol=floodset n=12 t=4 failure=crash",
    "protocol=count n=6 t=2 failure=crash",
    "protocol=diff n=4 t=2 failure=crash",
    "protocol=dworkmoses n=3 t=1 failure=crash",
    "protocol=emin n=4 t=2 failure=send",
    "protocol=ebasic n=3 t=2 failure=send",
];
const LOCAL_LAZY: [&str; 7] = [
    "protocol=floodset n=10 t=3 failure=crash",
    "protocol=floodset n=12 t=4 failure=crash",
    "protocol=count n=6 t=2 failure=crash",
    "protocol=diff n=5 t=2 failure=crash",
    "protocol=dworkmoses n=3 t=2 failure=crash",
    "protocol=emin n=8 t=3 failure=send",
    "protocol=ebasic n=5 t=2 failure=send",
];

/// Requests per `serve_warm` pass — short passes, about 0.7 s each, so that a
/// run has some thirty of them and its fastest is free of the host's bursts
/// — and the share of them (one in twenty) that goes to the largest model.
pub const WARM_REQUESTS_PER_PASS: usize = 100;
const WARM_HEAVY_ONE_IN: u64 = 20;

/// The model instances of `workload`, in their fixed (unshuffled) order.
pub fn specs(workload: Kind) -> Vec<ModelSpec> {
    let texts: Vec<&str> = match workload {
        Kind::ServeCold => SERVE_COLD.to_vec(),
        Kind::ServeWarm => SERVE_COLD.iter().copied().chain([SERVE_WARM_HEAVY]).collect(),
        Kind::GlobalCheck => GLOBAL_CHECK.to_vec(),
        Kind::Synthesis => SYNTHESIS.to_vec(),
        Kind::LocalLazy => LOCAL_LAZY.to_vec(),
    };
    texts.into_iter().map(|text| ModelSpec::parse(text).expect("instance specs parse")).collect()
}

/// `floodset n=8 t=3 crash` — the instance's name in op ids and tables.
pub fn short_name(spec: &ModelSpec) -> String {
    let failure = match spec.failure {
        FailureKind::Crash => "crash",
        FailureKind::SendOmission => "send",
        FailureKind::ReceiveOmission => "receive",
        FailureKind::GeneralOmission => "general",
    };
    format!("{} n={} t={} {failure}", spec.protocol, spec.n, spec.t)
}

pub fn is_eba(spec: &ModelSpec) -> bool {
    matches!(spec.protocol, ProtocolKind::EMin | ProtocolKind::EBasic)
}

/// The formulas one `global_check` op evaluates in a single session: the
/// SBA (or EBA) specification clauses without their outer `AG` —
/// `holds_everywhere` already quantifies over every point, and keeping the
/// `AG` would route the check through pre-images — plus the SBA knowledge
/// condition for the first and the last agent.
pub fn global_check_formulas(spec: &ModelSpec) -> Vec<F> {
    let (n, k) = (spec.n, spec.values);
    let mut clauses = if is_eba(spec) {
        vec![]
    } else {
        vec![simultaneous_agreement_formula(n, k), uniform_agreement_formula(n, k)]
    };
    clauses.extend([
        agreement_formula(n, k),
        validity_formula(n, k),
        termination_formula(n, spec.horizon),
    ]);
    let mut formulas: Vec<F> = clauses.into_iter().map(strip_all_globally).collect();
    for agent in [0, n - 1] {
        formulas.push(epimc::optimality::sba_knowledge_condition(AgentId::new(agent), n, k));
    }
    formulas
}

fn strip_all_globally(formula: F) -> F {
    match formula {
        Formula::Temporal(TemporalKind::AllGlobally, body) => *body,
        other => panic!("specification clause is not an AG formula: {other}"),
    }
}

/// SplitMix64: the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The order in which pass `pass` issues its ops, as indices into the
/// workload's instance list: a pure function of `(seed, pass)`, so a run
/// that fits more passes into its time extends the schedule without
/// changing its prefix. Library workloads and `serve_cold` visit every
/// instance once, shuffled; `serve_warm` draws `WARM_REQUESTS_PER_PASS`
/// requests by weight.
pub fn schedule(workload: Kind, instances: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ (pass as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    if workload == Kind::ServeWarm {
        let heavy = instances - 1;
        return (0..WARM_REQUESTS_PER_PASS)
            .map(|_| {
                if rng.below(WARM_HEAVY_ONE_IN) == 0 {
                    heavy
                } else {
                    rng.below(heavy as u64) as usize
                }
            })
            .collect();
    }
    let mut order: Vec<usize> = (0..instances).collect();
    for pos in (1..order.len()).rev() {
        order.swap(pos, rng.below(pos as u64 + 1) as usize);
    }
    order
}

/// FNV-1a over the schedule of the warm-up pass and the first `passes`
/// timed passes — printed so two runs can be seen to have issued the same
/// requests.
pub fn schedule_hash(workload: Kind, instances: usize, seed: u64, passes: usize) -> u64 {
    let mut hash = Fnv::default();
    for pass in 0..=passes {
        for index in schedule(workload, instances, seed, pass) {
            hash.write(&(index as u32).to_le_bytes());
        }
    }
    hash.0
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}
