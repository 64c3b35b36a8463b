//! The request/response vocabulary of the checking service.
//!
//! Messages are UTF-8 text, one message per frame (see [`crate::framing`]).
//! The first line names the command; `check` requests carry one formula per
//! subsequent line. Responses start with `ok` or `error`. Everything is
//! parsed defensively into `Result`s — a malformed frame must come back to
//! the client as an `error` response, never take the server down.
//!
//! # Model specs
//!
//! A warm checker is identified by a *model spec*: space-separated
//! `key=value` tokens naming the protocol and the instance parameters, e.g.
//!
//! ```text
//! protocol=floodset n=8 t=3 values=2 failure=crash
//! ```
//!
//! `horizon` is optional and defaults to `t + 2` (the paper's convention).
//!
//! # Formula atoms
//!
//! The formula grammar is `epimc-logic`'s textual syntax. Because atom
//! identifiers cannot contain `=`, the service uses a dotted vocabulary for
//! valued propositions (`decides[1].0` rather than the display form
//! `decides[1]==0`):
//!
//! | atom              | meaning                                          |
//! |-------------------|--------------------------------------------------|
//! | `init[i].v`       | agent `i`'s initial preference is `v`            |
//! | `existsV`         | some agent initially prefers `V` (e.g. `exists0`)|
//! | `nonfaulty[i]`    | agent `i` is in the indexical nonfaulty set      |
//! | `decided[i]`      | agent `i` has decided                            |
//! | `decided[i].v`    | agent `i` has decided `v`                        |
//! | `decides[i].v`    | agent `i`'s rule decides `v` in the next round   |
//! | `time.r`          | the current time is round `r`                    |
//! | `obs[i][f].v`     | observable field `f` of agent `i` equals `v`     |
//! | `obsle[i][f].v`   | observable field `f` of agent `i` is at most `v` |

use std::fmt;

use epimc_logic::{parse_formula, AgentId, Formula};
pub use epimc_protocols::ProtocolKind;
use epimc_system::{ConsensusAtom, FailureKind, ModelParams, Round, Value};

fn failure_wire_name(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Crash => "crash",
        FailureKind::SendOmission => "send",
        FailureKind::ReceiveOmission => "receive",
        FailureKind::GeneralOmission => "general",
    }
}

fn parse_failure(token: &str) -> Result<FailureKind, String> {
    FailureKind::ALL
        .into_iter()
        .find(|&kind| failure_wire_name(kind) == token)
        .ok_or_else(|| format!("unknown failure kind `{token}` (crash/send/receive/general)"))
}

/// A fully resolved model instance: the key warm checkers are cached under.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelSpec {
    /// Which protocol to instantiate.
    pub protocol: ProtocolKind,
    /// Number of agents `n`.
    pub n: usize,
    /// Fault bound `t`.
    pub t: usize,
    /// Decision-domain size `|V|`.
    pub values: usize,
    /// Failure kind.
    pub failure: FailureKind,
    /// Exploration horizon in rounds (always resolved; parsing defaults it
    /// to `t + 2`, so equal instances compare equal as cache keys).
    pub horizon: Round,
}

impl ModelSpec {
    /// Parses space-separated `key=value` tokens into a spec, validating
    /// every bound the `ModelParams` builder would otherwise panic on.
    ///
    /// # Errors
    ///
    /// Reports the first unknown key, unparsable value, missing required
    /// key, or out-of-range parameter.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut protocol = None;
        let mut n = None;
        let mut t = None;
        let mut values = None;
        let mut failure = None;
        let mut horizon = None;
        for token in text.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected `key=value`, found `{token}`"))?;
            let number = || -> Result<usize, String> {
                value.parse::<usize>().map_err(|_| format!("`{key}` needs a number, got `{value}`"))
            };
            match key {
                "protocol" => protocol = Some(ProtocolKind::parse(value)?),
                "n" => n = Some(number()?),
                "t" => t = Some(number()?),
                "values" => values = Some(number()?),
                "failure" => failure = Some(parse_failure(value)?),
                "horizon" => horizon = Some(number()?),
                _ => return Err(format!("unknown model-spec key `{key}`")),
            }
        }
        let protocol = protocol.ok_or("model spec is missing `protocol=`")?;
        let n = n.ok_or("model spec is missing `n=`")?;
        let t = t.ok_or("model spec is missing `t=`")?;
        let values = values.unwrap_or(2);
        let failure = failure.unwrap_or(FailureKind::Crash);
        let horizon = horizon.unwrap_or(t + 2);
        if n == 0 || n > 16 {
            return Err(format!("n={n} out of range (1..=16)"));
        }
        if t > n {
            return Err(format!("fault bound t={t} exceeds n={n}"));
        }
        if values == 0 {
            return Err("the decision domain must be nonempty".to_string());
        }
        if horizon == 0 || horizon > 64 {
            return Err(format!("horizon={horizon} out of range (1..=64)"));
        }
        Ok(ModelSpec { protocol, n, t, values, failure, horizon: horizon as Round })
    }

    /// The `ModelParams` this spec resolves to (infallible: `parse` already
    /// validated every bound the builder asserts).
    pub fn params(&self) -> ModelParams {
        ModelParams::builder()
            .agents(self.n)
            .max_faulty(self.t)
            .values(self.values)
            .failure(self.failure)
            .horizon(self.horizon)
            .build()
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol={} n={} t={} values={} failure={} horizon={}",
            self.protocol,
            self.n,
            self.t,
            self.values,
            failure_wire_name(self.failure),
            self.horizon
        )
    }
}

/// The file name a spec's snapshot is stored under inside the server's
/// `--snapshot-dir` (and what startup recovery parses back into a spec):
/// every spec field is encoded, so the name alone identifies the instance.
pub fn snapshot_file_name(spec: &ModelSpec) -> String {
    format!(
        "{}-n{}-t{}-v{}-{}-h{}.snap",
        spec.protocol.wire_name(),
        spec.n,
        spec.t,
        spec.values,
        failure_wire_name(spec.failure),
        spec.horizon
    )
}

/// Inverse of [`snapshot_file_name`]: `None` when the name does not encode
/// a valid spec (startup recovery quarantines such files).
pub fn parse_snapshot_file_name(name: &str) -> Option<ModelSpec> {
    let stem = name.strip_suffix(".snap")?;
    let parts: Vec<&str> = stem.split('-').collect();
    let [protocol, n, t, values, failure, horizon] = parts.as_slice() else {
        return None;
    };
    let spec_text = format!(
        "protocol={protocol} n={} t={} values={} failure={failure} horizon={}",
        n.strip_prefix('n')?,
        t.strip_prefix('t')?,
        values.strip_prefix('v')?,
        horizon.strip_prefix('h')?
    );
    ModelSpec::parse(&spec_text).ok()
}

/// Resolves the service's dotted atom vocabulary (see the module docs).
///
/// # Errors
///
/// Describes the expected shape when the identifier matches no production.
pub fn resolve_atom(ident: &str) -> Result<ConsensusAtom, String> {
    fn indexed<'a>(ident: &'a str, name: &str) -> Option<&'a str> {
        ident.strip_prefix(name).and_then(|rest| rest.strip_prefix('['))
    }
    fn bracketed(rest: &str) -> Result<(usize, &str), String> {
        let (index, rest) =
            rest.split_once(']').ok_or_else(|| "missing `]` after index".to_string())?;
        let index = index.parse::<usize>().map_err(|_| format!("bad index `{index}`"))?;
        Ok((index, rest))
    }
    fn dotted(rest: &str) -> Result<usize, String> {
        let value = rest.strip_prefix('.').ok_or_else(|| "expected `.value`".to_string())?;
        value.parse::<usize>().map_err(|_| format!("bad value `{value}`"))
    }

    if let Some(rest) = ident.strip_prefix("exists") {
        let value = rest.parse::<usize>().map_err(|_| "expected `exists<value>`".to_string())?;
        return Ok(ConsensusAtom::ExistsInit(Value::new(value)));
    }
    if let Some(rest) = ident.strip_prefix("time.") {
        let round = rest.parse::<Round>().map_err(|_| "expected `time.<round>`".to_string())?;
        return Ok(ConsensusAtom::TimeIs(round));
    }
    if let Some(rest) = indexed(ident, "init") {
        let (agent, rest) = bracketed(rest)?;
        return Ok(ConsensusAtom::InitIs(AgentId::new(agent), Value::new(dotted(rest)?)));
    }
    if let Some(rest) = indexed(ident, "nonfaulty") {
        let (agent, rest) = bracketed(rest)?;
        if !rest.is_empty() {
            return Err("`nonfaulty[i]` takes no value".to_string());
        }
        return Ok(ConsensusAtom::Nonfaulty(AgentId::new(agent)));
    }
    if let Some(rest) = indexed(ident, "decided") {
        let (agent, rest) = bracketed(rest)?;
        if rest.is_empty() {
            return Ok(ConsensusAtom::Decided(AgentId::new(agent)));
        }
        return Ok(ConsensusAtom::DecidedValue(AgentId::new(agent), Value::new(dotted(rest)?)));
    }
    if let Some(rest) = indexed(ident, "decides") {
        let (agent, rest) = bracketed(rest)?;
        return Ok(ConsensusAtom::DecidesNow(AgentId::new(agent), Value::new(dotted(rest)?)));
    }
    for (name, at_most) in [("obsle", true), ("obs", false)] {
        if let Some(rest) = indexed(ident, name) {
            let (agent, rest) = bracketed(rest)?;
            let rest = rest
                .strip_prefix('[')
                .ok_or_else(|| format!("`{name}[i][f].v` needs a field index"))?;
            let (field, rest) = bracketed(rest)?;
            let value = dotted(rest)? as u32;
            let agent = AgentId::new(agent);
            return Ok(if at_most {
                ConsensusAtom::ObsAtMost(agent, field, value)
            } else {
                ConsensusAtom::ObsEquals(agent, field, value)
            });
        }
    }
    Err("expected init[i].v, existsV, nonfaulty[i], decided[i], decided[i].v, \
         decides[i].v, time.r, obs[i][f].v, or obsle[i][f].v"
        .to_string())
}

/// Parses one formula in the service vocabulary.
///
/// # Errors
///
/// Reports the syntax or atom-resolution error with its byte position.
pub fn parse_service_formula(text: &str) -> Result<Formula<ConsensusAtom>, String> {
    parse_formula(text, resolve_atom).map_err(|error| error.to_string())
}

/// Which engine answers a `check` batch.
///
/// The default global symbolic engine needs no wire token; `backend=local`
/// (riding ahead of the spec, like `deadline_ms=`) routes the batch through
/// the lazy local engine, which materialises reachable layers on demand and
/// memoises per-formula verdicts across requests. Verdicts are always
/// bit-identical between the two.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RequestBackend {
    /// The warm global symbolic checker (the default).
    #[default]
    Symbolic,
    /// The lazy local engine (`epimc_check::LocalChecker`).
    Local,
}

/// A request frame, decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server-wide statistics.
    Stats,
    /// Drop every warm checker (used to measure cold latency).
    Evict,
    /// Evaluate a batch of formulas against one model instance.
    Check {
        /// The instance to (re)use.
        spec: ModelSpec,
        /// Formula texts, one verdict each, in order.
        formulas: Vec<String>,
        /// Optional per-batch wall-clock deadline in milliseconds (wire
        /// token `deadline_ms=N` ahead of the spec). The server answers
        /// `error budget-exceeded` when the batch cannot finish in time;
        /// the effective deadline is the tighter of this and the server's
        /// own `--deadline-ms`.
        deadline_ms: Option<u64>,
        /// The engine answering the batch (wire token `backend=local`; the
        /// default symbolic engine is tokenless).
        backend: RequestBackend,
    },
    /// Persist the instance's warm checker to a snapshot file.
    Snapshot {
        /// The instance to snapshot (built first if cold).
        spec: ModelSpec,
        /// Filesystem path to write.
        path: String,
    },
    /// Load a snapshot file as the instance's warm checker.
    Restore {
        /// The instance the snapshot claims to be.
        spec: ModelSpec,
        /// Filesystem path to read.
        path: String,
    },
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let text = match self {
            Request::Ping => "ping".to_string(),
            Request::Stats => "stats".to_string(),
            Request::Evict => "evict".to_string(),
            Request::Check { spec, formulas, deadline_ms, backend } => {
                let mut text = String::from("check ");
                if *backend == RequestBackend::Local {
                    text.push_str("backend=local ");
                }
                if let Some(ms) = deadline_ms {
                    text.push_str(&format!("deadline_ms={ms} "));
                }
                text.push_str(&spec.to_string());
                for formula in formulas {
                    text.push('\n');
                    text.push_str(formula);
                }
                text
            }
            Request::Snapshot { spec, path } => format!("snapshot {spec}\n{path}"),
            Request::Restore { spec, path } => format!("restore {spec}\n{path}"),
        };
        text.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Reports non-UTF-8 payloads, unknown commands, and malformed specs.
    /// Formula *syntax* is not checked here — the server validates formulas
    /// so the error lands in the right response.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
        let mut lines = text.lines();
        let head = lines.next().unwrap_or("");
        let (command, rest) = head.split_once(' ').unwrap_or((head, ""));
        match command {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "evict" => Ok(Request::Evict),
            "check" => {
                // Optional tokens ride ahead of the spec, in any order (the
                // spec parser rejects unknown keys, keeping cache keys
                // exact).
                let mut deadline_ms = None;
                let mut backend = RequestBackend::default();
                let mut spec_text = rest;
                loop {
                    if let Some(tail) = spec_text.strip_prefix("deadline_ms=") {
                        let (value, remainder) = tail.split_once(' ').unwrap_or((tail, ""));
                        let ms = value
                            .parse::<u64>()
                            .map_err(|_| format!("bad deadline_ms `{value}`"))?;
                        deadline_ms = Some(ms);
                        spec_text = remainder;
                    } else if let Some(tail) = spec_text.strip_prefix("backend=") {
                        let (value, remainder) = tail.split_once(' ').unwrap_or((tail, ""));
                        backend = match value {
                            "local" => RequestBackend::Local,
                            "symbolic" => RequestBackend::Symbolic,
                            other => return Err(format!("unknown backend `{other}`")),
                        };
                        spec_text = remainder;
                    } else {
                        break;
                    }
                }
                let spec = ModelSpec::parse(spec_text)?;
                let formulas: Vec<String> = lines.map(str::to_string).collect();
                if formulas.is_empty() {
                    return Err("check request carries no formulas".to_string());
                }
                Ok(Request::Check { spec, formulas, deadline_ms, backend })
            }
            "snapshot" | "restore" => {
                let spec = ModelSpec::parse(rest)?;
                let path = lines.next().ok_or("missing snapshot path line")?.to_string();
                if path.is_empty() {
                    return Err("empty snapshot path".to_string());
                }
                Ok(if command == "snapshot" {
                    Request::Snapshot { spec, path }
                } else {
                    Request::Restore { spec, path }
                })
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// What a `check` request came back with.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckOutcome {
    /// Whether the instance was already warm (no model construction ran).
    pub warm: bool,
    /// Server-side wall time for the whole batch, in microseconds.
    pub wall_micros: u64,
    /// Relational image computations performed while answering (0 on a
    /// fully warm repeat — the acceptance bar the budget gate checks).
    pub relational_products: u64,
    /// Cross-request denotation-cache hits while answering.
    pub session_hits: u64,
    /// Live BDD nodes in the instance's manager afterwards.
    pub live_nodes: u64,
    /// One verdict per formula, in request order: does it hold everywhere?
    pub verdicts: Vec<bool>,
}

/// Server-wide statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerStats {
    /// Warm checkers currently cached.
    pub entries: u64,
    /// Live BDD nodes summed over the warm checkers.
    pub live_nodes: u64,
    /// Requests served since startup.
    pub requests: u64,
    /// Warm checkers evicted by the node-budget LRU policy.
    pub evictions: u64,
}

/// A response frame, decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// `ping` reply.
    Pong,
    /// `stats` reply.
    Stats(ServerStats),
    /// `evict` reply: how many warm checkers were dropped.
    Evicted(u64),
    /// `check` reply.
    Check(CheckOutcome),
    /// `snapshot` reply: bytes written.
    SnapshotWritten(u64),
    /// `restore` reply: layers the restored checker holds.
    Restored(u64),
    /// A `check` hit its wall-clock deadline budget; the touched instance
    /// was evicted (not poisoned), the connection and every other warm
    /// checker stay serviceable. The string carries the abort detail.
    BudgetExceeded(String),
    /// A `check` hit a server resource ceiling (live-node or operation
    /// budget); same serviceability contract as
    /// [`Response::BudgetExceeded`].
    Overloaded(String),
    /// Any other failure; the connection stays usable.
    Error(String),
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let text = match self {
            Response::Pong => "ok pong".to_string(),
            Response::Stats(stats) => format!(
                "ok stats entries={} live_nodes={} requests={} evictions={}",
                stats.entries, stats.live_nodes, stats.requests, stats.evictions
            ),
            Response::Evicted(count) => format!("ok evicted {count}"),
            Response::Check(outcome) => {
                let mut text = format!(
                    "ok check warm={} wall_us={} rel_products={} session_hits={} live_nodes={}",
                    u64::from(outcome.warm),
                    outcome.wall_micros,
                    outcome.relational_products,
                    outcome.session_hits,
                    outcome.live_nodes
                );
                for &verdict in &outcome.verdicts {
                    text.push('\n');
                    text.push_str(if verdict { "true" } else { "false" });
                }
                text
            }
            Response::SnapshotWritten(bytes) => format!("ok snapshot bytes={bytes}"),
            Response::Restored(layers) => format!("ok restored layers={layers}"),
            Response::BudgetExceeded(message) => {
                format!("error budget-exceeded {}", message.replace('\n', " "))
            }
            Response::Overloaded(message) => {
                format!("error overloaded {}", message.replace('\n', " "))
            }
            Response::Error(message) => format!("error {}", message.replace('\n', " ")),
        };
        text.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Reports non-UTF-8 payloads and any shape mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
        // The budget errors are recognisable sub-channels of `error `;
        // match them first so structured handling survives the wire.
        if let Some(message) = text.strip_prefix("error budget-exceeded") {
            return Ok(Response::BudgetExceeded(message.trim_start().to_string()));
        }
        if let Some(message) = text.strip_prefix("error overloaded") {
            return Ok(Response::Overloaded(message.trim_start().to_string()));
        }
        if let Some(message) = text.strip_prefix("error ") {
            return Ok(Response::Error(message.to_string()));
        }
        let mut lines = text.lines();
        let head = lines.next().unwrap_or("");
        let fields = |line: &str| -> Result<Vec<u64>, String> {
            line.split_whitespace()
                .filter_map(|token| token.split_once('=').map(|(_, value)| value))
                .map(|value| {
                    value.parse::<u64>().map_err(|_| format!("bad numeric field `{value}`"))
                })
                .collect()
        };
        if head == "ok pong" {
            return Ok(Response::Pong);
        }
        if let Some(rest) = head.strip_prefix("ok stats ") {
            let values = fields(rest)?;
            if values.len() != 4 {
                return Err(format!("stats response has {} fields, expected 4", values.len()));
            }
            return Ok(Response::Stats(ServerStats {
                entries: values[0],
                live_nodes: values[1],
                requests: values[2],
                evictions: values[3],
            }));
        }
        if let Some(rest) = head.strip_prefix("ok evicted ") {
            let count = rest.parse::<u64>().map_err(|_| "bad eviction count".to_string())?;
            return Ok(Response::Evicted(count));
        }
        if let Some(rest) = head.strip_prefix("ok check ") {
            let values = fields(rest)?;
            if values.len() != 5 {
                return Err(format!("check response has {} fields, expected 5", values.len()));
            }
            let verdicts = lines
                .map(|line| match line {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(format!("bad verdict line `{other}`")),
                })
                .collect::<Result<Vec<bool>, String>>()?;
            return Ok(Response::Check(CheckOutcome {
                warm: values[0] != 0,
                wall_micros: values[1],
                relational_products: values[2],
                session_hits: values[3],
                live_nodes: values[4],
                verdicts,
            }));
        }
        if let Some(rest) = head.strip_prefix("ok snapshot bytes=") {
            let bytes = rest.parse::<u64>().map_err(|_| "bad byte count".to_string())?;
            return Ok(Response::SnapshotWritten(bytes));
        }
        if let Some(rest) = head.strip_prefix("ok restored layers=") {
            let layers = rest.parse::<u64>().map_err(|_| "bad layer count".to_string())?;
            return Ok(Response::Restored(layers));
        }
        Err(format!("unrecognised response `{head}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_specs_parse_and_round_trip() {
        let spec = ModelSpec::parse("protocol=floodset n=8 t=3 values=2 failure=crash").unwrap();
        assert_eq!(spec.horizon, 5, "horizon defaults to t + 2");
        let reparsed = ModelSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.params().num_agents(), 8);
        assert!(ModelSpec::parse("protocol=floodset n=0 t=0").is_err());
        assert!(ModelSpec::parse("protocol=floodset n=3 t=9").is_err());
        assert!(ModelSpec::parse("protocol=nope n=3 t=1").is_err());
        assert!(ModelSpec::parse("n=3 t=1").is_err(), "protocol is required");
    }

    #[test]
    fn atom_vocabulary_covers_every_consensus_atom() {
        let cases = [
            ("init[2].1", ConsensusAtom::InitIs(AgentId::new(2), Value::new(1))),
            ("exists0", ConsensusAtom::ExistsInit(Value::new(0))),
            ("nonfaulty[3]", ConsensusAtom::Nonfaulty(AgentId::new(3))),
            ("decided[1]", ConsensusAtom::Decided(AgentId::new(1))),
            ("decided[1].0", ConsensusAtom::DecidedValue(AgentId::new(1), Value::new(0))),
            ("decides[0].1", ConsensusAtom::DecidesNow(AgentId::new(0), Value::new(1))),
            ("time.2", ConsensusAtom::TimeIs(2)),
            ("obs[1][0].3", ConsensusAtom::ObsEquals(AgentId::new(1), 0, 3)),
            ("obsle[1][2].0", ConsensusAtom::ObsAtMost(AgentId::new(1), 2, 0)),
        ];
        for (text, expected) in cases {
            assert_eq!(resolve_atom(text).unwrap(), expected, "atom `{text}`");
        }
        assert!(resolve_atom("garbage").is_err());
        assert!(resolve_atom("decides[0]").is_err(), "decides needs a value");
        assert!(parse_service_formula("B[0] CB exists0 /\\ !decided[1]").is_ok());
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let spec = ModelSpec::parse("protocol=count n=2 t=1 failure=send").unwrap();
        let messages = [
            Request::Ping,
            Request::Stats,
            Request::Evict,
            Request::Check {
                spec,
                formulas: vec!["CB exists0".to_string(), "decided[0]".to_string()],
                deadline_ms: None,
                backend: RequestBackend::Symbolic,
            },
            Request::Check {
                spec,
                formulas: vec!["CB exists0".to_string()],
                deadline_ms: Some(50),
                backend: RequestBackend::Symbolic,
            },
            Request::Check {
                spec,
                formulas: vec!["CB exists0".to_string()],
                deadline_ms: None,
                backend: RequestBackend::Local,
            },
            Request::Check {
                spec,
                formulas: vec!["CB exists0".to_string()],
                deadline_ms: Some(50),
                backend: RequestBackend::Local,
            },
            Request::Snapshot { spec, path: "/tmp/x.snap".to_string() },
            Request::Restore { spec, path: "/tmp/x.snap".to_string() },
        ];
        for message in messages {
            assert_eq!(Request::decode(&message.encode()).unwrap(), message);
        }
        let responses = [
            Response::Pong,
            Response::Stats(ServerStats {
                entries: 2,
                live_nodes: 12345,
                requests: 7,
                evictions: 1,
            }),
            Response::Evicted(2),
            Response::Check(CheckOutcome {
                warm: true,
                wall_micros: 42,
                relational_products: 0,
                session_hits: 9,
                live_nodes: 512,
                verdicts: vec![true, false, true],
            }),
            Response::SnapshotWritten(4096),
            Response::Restored(5),
            Response::BudgetExceeded("deadline after 12345 ops".to_string()),
            Response::Overloaded("live-node ceiling".to_string()),
            Response::Error("boom".to_string()),
        ];
        for response in responses {
            assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
        assert!(Request::decode(b"frobnicate").is_err());
        assert!(Request::decode(b"check protocol=floodset n=4 t=1").is_err(), "no formulas");
        assert!(
            Request::decode(b"check deadline_ms=abc protocol=floodset n=4 t=1\nCB exists0")
                .is_err(),
            "non-numeric deadline"
        );
        assert!(
            Request::decode(b"check backend=quantum protocol=floodset n=4 t=1\nCB exists0")
                .is_err(),
            "unknown backend"
        );
        // The tokens compose in either order.
        let either_order = Request::decode(
            b"check backend=local deadline_ms=9 protocol=floodset n=4 t=1\nCB exists0",
        )
        .unwrap();
        assert_eq!(
            Request::decode(
                b"check deadline_ms=9 backend=local protocol=floodset n=4 t=1\nCB exists0"
            )
            .unwrap(),
            either_order
        );
        assert!(Response::decode(b"ok nonsense").is_err());
    }

    #[test]
    fn snapshot_file_names_round_trip_and_reject_garbage() {
        for text in [
            "protocol=floodset n=8 t=3 values=2 failure=crash",
            "protocol=emin n=2 t=1 values=2 failure=general horizon=4",
            "protocol=count n=3 t=1 failure=send",
        ] {
            let spec = ModelSpec::parse(text).unwrap();
            let name = snapshot_file_name(&spec);
            assert_eq!(parse_snapshot_file_name(&name), Some(spec), "name `{name}`");
        }
        assert_eq!(parse_snapshot_file_name("random.snap"), None);
        assert_eq!(parse_snapshot_file_name("floodset-n8-t3-v2-crash-h5"), None, "no extension");
        assert_eq!(parse_snapshot_file_name("floodset-n99-t3-v2-crash-h5.snap"), None, "bad n");
    }
}
