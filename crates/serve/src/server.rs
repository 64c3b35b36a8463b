//! The checking server: warm checkers, the LRU node budget, and the
//! request loop.
//!
//! # Warm checkers
//!
//! The server keeps one warm checker per `(model instance, backend)` it
//! has been asked about, in a single map keyed by the instance's
//! [`ModelSpec`] with the horizon factored out plus the
//! [`RequestBackend`]. Every entry is a `Box<dyn WarmBackend>` — the
//! type-erased handle over the generic engines, instantiated for the
//! spec's protocol through [`epimc_protocols::with_protocol!`] — so the
//! server has one check path, one eviction routine and one panic/budget
//! eviction for both backends:
//!
//! * the default backend holds a fully built [`SymbolicChecker`] plus a
//!   long-lived [`EvalSession`] — the cross-request denotation cache,
//!   keyed by [`epimc_logic::Formula::canonical_hash`] — so a repeated
//!   batched query recalls every closed subformula instead of recomputing
//!   it. Asking for a longer horizon of an already warm instance *extends*
//!   the existing checker relationally (new reachable layers are forward
//!   images of the last one) instead of rebuilding it. A fully warm repeat
//!   performs **zero** relational image computations; the CI budget gate
//!   pins that down;
//! * `backend=local` holds a lazy [`LocalChecker`]. Its horizon fixes the
//!   meaning of `holds_everywhere` and of the verdict memo, so a request at
//!   a different horizon rebuilds — cheap, because construction is lazy.
//!
//! # Eviction
//!
//! Warm checkers are bounded by a *node budget*: after every request the
//! live BDD nodes of all warm managers are summed, and least-recently-used
//! entries are dropped until the total fits — lazy entries first (they
//! rebuild in one layer), and the last symbolic entry is always kept.
//! Bounding on live nodes rather than entry count makes one huge instance
//! count for what it actually costs. A request that allocated nodes on a
//! default-backend model — it built or extended the model, or evaluated
//! formulas its session did not hold — collects
//! ([`SymbolicChecker::compact`]) once its budget is disarmed and before
//! it replies. So between requests a warm entry holds its model and its
//! caches (denotations, reachable relations) and no garbage: the sum, and
//! the reply's `live_nodes`, read the same whether a batch came in one
//! request or formula by formula, and no later request pays to collect
//! what an earlier one left. A request that trips its budget or panics costs
//! exactly the entry it touched.
//!
//! # Concurrency
//!
//! Connections are served in accept order by a single thread: every warm
//! manager uses interior mutability, and the workloads are compute-bound,
//! so a lock around shared state would serialize requests anyway. Clients
//! batch formulas into one frame to amortize the round trip; concurrent
//! clients queue in the listener backlog.

use std::collections::HashMap;
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use epimc_check::{
    catch_budget, BddError, Budget, BudgetReason, EvalSession, LocalChecker, SymbolicChecker,
    SymbolicOptions, SymbolicStats,
};
use epimc_logic::{AgentId, Formula};
use epimc_protocols::with_protocol;
use epimc_relational::{SymbolicEncode, SymbolicRule};
use epimc_system::ConsensusAtom;

use crate::framing::{read_frame, write_frame};
use crate::proto::{
    parse_service_formula, parse_snapshot_file_name, snapshot_file_name, CheckOutcome, ModelSpec,
    Request, RequestBackend, Response, ServerStats,
};

/// Default node budget: warm managers may hold this many live BDD nodes in
/// total before LRU eviction kicks in.
pub const DEFAULT_NODE_BUDGET: u64 = 1 << 23;

/// Default socket read/write timeout on accepted connections, in
/// milliseconds: long enough for any legitimate batch round trip, short
/// enough that a dead client mid-frame frees the accept loop quickly.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 30_000;

/// The pseudo-path a snapshot/restore request may pass instead of a real
/// path: the server resolves it inside its `--snapshot-dir` using
/// [`snapshot_file_name`].
pub const AUTO_SNAPSHOT_PATH: &str = "auto";

/// The pseudo-formula the fault-injection harness sends to make a worker
/// panic mid-request. Only honoured when
/// [`ServeOptions::fault_injection`] is set; otherwise it is an ordinary
/// (unparsable) formula and answers a parse error.
pub const CHAOS_PANIC_FORMULA: &str = "__chaos_panic__";

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Total live-node budget across warm checkers (see the module docs).
    pub node_budget: u64,
    /// Server-wide per-`check` wall-clock deadline in milliseconds
    /// (`None` = unlimited). The effective deadline of a batch is the
    /// tighter of this and the batch's own `deadline_ms`; a trip answers
    /// `error budget-exceeded` and evicts the touched instance.
    pub deadline_ms: Option<u64>,
    /// Socket read/write timeout in milliseconds on accepted connections
    /// (`0` = no timeout). A peer that goes silent mid-frame is dropped
    /// after this long instead of wedging the single-threaded accept loop.
    pub io_timeout_ms: u64,
    /// Directory for `auto`-path snapshots. At startup every `*.snap`
    /// file in it whose name encodes a valid spec is restored as a warm
    /// checker; corrupt or unidentifiable files are quarantined (renamed
    /// `*.corrupt`), never fatal.
    pub snapshot_dir: Option<String>,
    /// Honour [`CHAOS_PANIC_FORMULA`] (deterministic fault injection for
    /// the `--chaos` harness). Off in production.
    pub fault_injection: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            node_budget: DEFAULT_NODE_BUDGET,
            deadline_ms: None,
            io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
            snapshot_dir: None,
            fault_injection: false,
        }
    }
}

/// A warm checker behind the server's map: the object-safe face of the
/// generic engines, so the server itself stays non-generic. Implemented
/// twice — for the global symbolic checker plus its session, and for the
/// lazy local checker — and instantiated per protocol by [`build`] and
/// [`restore`].
trait WarmBackend: Send {
    /// Whether a request at `horizon` can reuse this checker (extending it
    /// if need be); `false` means it must be rebuilt for that horizon.
    fn serves(&self, horizon: usize) -> bool;

    /// Makes the reachable layers cover `0 ..= horizon`. Returns whether
    /// they already did (no model construction ran).
    fn prepare(&mut self, horizon: usize) -> bool;

    /// One verdict per formula: does it hold at every point?
    fn answer(&mut self, formulas: &[Formula<ConsensusAtom>]) -> Vec<bool>;

    /// Cross-request cache hits so far (session hits, or verdict-memo hits
    /// on the lazy engine).
    fn hits(&self) -> u64;

    fn layers(&self) -> usize;

    /// The warm manager's counters, in O(1): the node budget sums their
    /// `live_nodes` after every request, and a check reply reports them
    /// and the request's `relational_product_calls`.
    fn stats(&self) -> SymbolicStats;

    /// Arms (or, with `None`, disarms) a per-request resource budget on
    /// the warm manager.
    fn set_budget(&self, budget: Option<Budget>);

    /// Collects what the request left behind, so the entry holds its
    /// model and its cross-request cache alone. Called once the request's
    /// budget is disarmed, after any request that allocated nodes. The
    /// lazy engine grows inside its queries, under its own collector, and
    /// keeps this no-op.
    fn compact(&self) {}

    /// The checker-snapshot stream of the instance, on the backend that
    /// has one (snapshot requests always go to the default backend).
    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        Err("this backend keeps no snapshot".to_string())
    }
}

/// The default backend: a fully built checker and its cross-request
/// denotation cache.
struct WarmSymbolic<E: SymbolicEncode, R: SymbolicRule<E>> {
    checker: SymbolicChecker<E, R>,
    /// `None` only transiently (taken while answering, or just ended
    /// around an extension or snapshot).
    session: Option<EvalSession>,
}

impl<E: SymbolicEncode, R: SymbolicRule<E>> WarmSymbolic<E, R> {
    /// Ends the session (releasing its cached denotations) so the checker
    /// can be extended or snapshotted.
    fn drop_session(&mut self) {
        if let Some(session) = self.session.take() {
            self.checker.end_session(session);
        }
    }
}

impl<E: SymbolicEncode, R: SymbolicRule<E> + Send> WarmBackend for WarmSymbolic<E, R> {
    fn serves(&self, _horizon: usize) -> bool {
        true
    }

    fn prepare(&mut self, horizon: usize) -> bool {
        let ready = self.checker.num_layers() > horizon;
        if !ready {
            // Extension invalidates cached denotations (the layers guard in
            // `EvalSession` enforces this), so the session ends first.
            self.drop_session();
            self.checker.extend_to(horizon + 1);
        }
        ready
    }

    fn answer(&mut self, formulas: &[Formula<ConsensusAtom>]) -> Vec<bool> {
        let mut session = self.session.take().unwrap_or_else(|| self.checker.session());
        let verdicts = formulas
            .iter()
            .map(|formula| self.checker.holds_everywhere_in_session(&mut session, formula))
            .collect();
        self.session = Some(session);
        verdicts
    }

    fn hits(&self) -> u64 {
        self.session.as_ref().map_or(0, EvalSession::hits)
    }

    fn layers(&self) -> usize {
        self.checker.num_layers()
    }

    fn stats(&self) -> SymbolicStats {
        self.checker.stats()
    }

    fn set_budget(&self, budget: Option<Budget>) {
        self.checker.set_budget(budget);
    }

    fn compact(&self) {
        self.checker.compact();
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        // The checker refuses to snapshot under live sessions (their
        // denotations are process-local); the cache restarts afterwards.
        self.drop_session();
        self.checker.snapshot()
    }
}

/// The `backend=local` engine: only layer 0 materialises at construction,
/// deeper layers appear when a query forces them, and verdicts memoise
/// across requests. Verdicts are bit-identical to the default backend;
/// only the construction strategy differs.
impl<E: SymbolicEncode, R: SymbolicRule<E> + Send> WarmBackend for LocalChecker<E, R> {
    fn serves(&self, horizon: usize) -> bool {
        self.horizon() == horizon
    }

    fn prepare(&mut self, _horizon: usize) -> bool {
        true
    }

    fn answer(&mut self, formulas: &[Formula<ConsensusAtom>]) -> Vec<bool> {
        formulas.iter().map(|formula| self.holds_everywhere(formula)).collect()
    }

    fn hits(&self) -> u64 {
        self.stats().memo_hits as u64
    }

    fn layers(&self) -> usize {
        self.layers_expanded()
    }

    fn stats(&self) -> SymbolicStats {
        self.symbolic_stats()
    }

    fn set_budget(&self, budget: Option<Budget>) {
        LocalChecker::set_budget(self, budget);
    }
}

/// Builds the instance cold with `budget` armed (when one is given): the
/// default backend constructs every layer to the spec's horizon under it —
/// a trip during construction unwinds the typed budget error — the lazy
/// one only layer 0.
fn build(
    spec: &ModelSpec,
    backend: RequestBackend,
    budget: Option<Budget>,
) -> Box<dyn WarmBackend> {
    let params = spec.params();
    with_protocol!(spec.protocol, |exchange, rule| match backend {
        RequestBackend::Symbolic => {
            let options = SymbolicOptions { budget, ..SymbolicOptions::default() };
            let checker = SymbolicChecker::relational(exchange, params, rule, options);
            Box::new(WarmSymbolic { checker, session: None })
        }
        RequestBackend::Local => {
            let checker = LocalChecker::new(exchange, params, rule);
            checker.set_budget(budget);
            Box::new(checker)
        }
    })
}

/// Restores the instance from a checker-snapshot stream.
fn restore(spec: &ModelSpec, bytes: &[u8]) -> Result<Box<dyn WarmBackend>, String> {
    let params = spec.params();
    with_protocol!(spec.protocol, |exchange, rule| {
        let checker = SymbolicChecker::restore_relational(exchange, params, rule, bytes)?;
        Ok(Box::new(WarmSymbolic { checker, session: None }))
    })
}

struct Entry {
    checker: Box<dyn WarmBackend>,
    last_used: u64,
}

/// What a warm checker is cached under: the spec with the horizon zeroed
/// out (so longer-horizon requests extend instead of duplicating the
/// instance) and the backend (so a local request never pays for a full
/// symbolic construction and vice versa).
type EntryKey = (ModelSpec, RequestBackend);

fn entry_key(spec: &ModelSpec, backend: RequestBackend) -> EntryKey {
    (ModelSpec { horizon: 0, ..*spec }, backend)
}

/// The server's shared state: warm checkers plus counters.
struct ServerState {
    entries: HashMap<EntryKey, Entry>,
    clock: u64,
    requests: u64,
    evictions: u64,
    options: ServeOptions,
}

impl ServerState {
    fn new(options: ServeOptions) -> Self {
        let mut state =
            ServerState { entries: HashMap::new(), clock: 0, requests: 0, evictions: 0, options };
        state.recover_snapshots();
        state
    }

    /// Startup-time recovery: every `*.snap` file in the snapshot
    /// directory whose name encodes a valid spec is restored as a warm
    /// checker; anything corrupt, truncated or unidentifiable is
    /// quarantined by renaming it `*.corrupt`. Recovery never fails the
    /// server — a bad snapshot costs a cold rebuild, not availability.
    fn recover_snapshots(&mut self) {
        let Some(dir) = self.options.snapshot_dir.clone() else { return };
        let Ok(listing) = std::fs::read_dir(&dir) else { return };
        for entry in listing.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|name| name.to_str()) else { continue };
            if !name.ends_with(".snap") {
                continue;
            }
            let restored = parse_snapshot_file_name(name).and_then(|spec| {
                let bytes = std::fs::read(&path).ok()?;
                // A snapshot that panics the decoder is treated the same
                // as one that reports a checksum error: quarantined.
                let checker = catch_unwind(AssertUnwindSafe(|| restore(&spec, &bytes).ok()))
                    .ok()
                    .flatten()?;
                Some((spec, checker))
            });
            match restored {
                Some((spec, checker)) => {
                    self.entries.insert(
                        entry_key(&spec, RequestBackend::Symbolic),
                        Entry { checker, last_used: 0 },
                    );
                }
                None => {
                    let quarantine = path.with_extension("snap.corrupt");
                    let _ = std::fs::rename(&path, &quarantine);
                }
            }
        }
        self.enforce_budget();
    }

    fn live_nodes(&self) -> u64 {
        self.entries.values().map(|entry| entry.checker.stats().live_nodes as u64).sum()
    }

    /// Evicts least-recently-used entries until the summed live nodes fit
    /// the budget. Lazy-engine entries go first (they rebuild in one
    /// layer), and the last symbolic entry is always kept.
    fn enforce_budget(&mut self) {
        while self.live_nodes() > self.options.node_budget {
            let is_symbolic = |key: &EntryKey| key.1 == RequestBackend::Symbolic;
            let symbolic = self.entries.keys().filter(|key| is_symbolic(key)).count();
            let oldest = self
                .entries
                .iter()
                .filter(|(key, _)| !is_symbolic(key) || symbolic > 1)
                .min_by_key(|(key, entry)| (is_symbolic(key), entry.last_used))
                .map(|(key, _)| *key);
            let Some(oldest) = oldest else { return };
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Drops the entry a failed request touched — its in-flight state is
    /// suspect, and a rebuild is cheaper than a wrong answer — leaving
    /// every other warm checker untouched.
    fn evict_touched(&mut self, key: &EntryKey) {
        if self.entries.remove(key).is_some() {
            self.evictions += 1;
        }
    }

    /// Handles one request, converting any panic that slips past the
    /// up-front validation into an `error` response instead of a dead
    /// server.
    fn dispatch(&mut self, request: Request) -> Response {
        let touched = match &request {
            Request::Check { spec, backend, .. } => Some(entry_key(spec, *backend)),
            Request::Snapshot { spec, .. } | Request::Restore { spec, .. } => {
                Some(entry_key(spec, RequestBackend::Symbolic))
            }
            _ => None,
        };
        match catch_unwind(AssertUnwindSafe(|| self.handle(request))) {
            Ok(response) => response,
            Err(payload) => {
                let message = payload
                    .downcast::<String>()
                    .map(|boxed| *boxed)
                    .or_else(|payload| payload.downcast::<&str>().map(|boxed| boxed.to_string()))
                    .or_else(|payload| {
                        // A budget trip outside the check path's own
                        // catch (e.g. during a snapshot build).
                        payload.downcast::<BddError>().map(|boxed| boxed.to_string())
                    })
                    .unwrap_or_else(|_| "non-string panic payload".to_string());
                if let Some(key) = touched {
                    self.evict_touched(&key);
                }
                Response::Error(format!("request panicked: {message}"))
            }
        }
    }

    fn handle(&mut self, request: Request) -> Response {
        self.requests += 1;
        self.clock += 1;
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(ServerStats {
                entries: self.entries.len() as u64,
                live_nodes: self.live_nodes(),
                requests: self.requests,
                evictions: self.evictions,
            }),
            Request::Evict => {
                let count = self.entries.len() as u64;
                self.entries.clear();
                Response::Evicted(count)
            }
            Request::Check { spec, formulas, deadline_ms, backend } => {
                self.check(spec, &formulas, deadline_ms, backend)
            }
            Request::Snapshot { spec, path } => {
                self.snapshot(spec, &path).unwrap_or_else(Response::Error)
            }
            Request::Restore { spec, path } => {
                self.restore(spec, &path).unwrap_or_else(Response::Error)
            }
        }
    }

    /// Looks up or builds the warm entry for `(spec, backend)`, extending
    /// its horizon when the request asks for more layers than are built.
    /// Returns the entry and whether it was already warm *and* long enough.
    /// Both a cold build and an extension run under `budget` (when given),
    /// and an existing entry is (dis)armed with it for the rest of the
    /// request.
    fn warm_entry(
        &mut self,
        spec: &ModelSpec,
        backend: RequestBackend,
        budget: Option<Budget>,
    ) -> (&mut Entry, bool) {
        let key = entry_key(spec, backend);
        let horizon = spec.horizon as usize;
        if self.entries.get(&key).is_some_and(|entry| !entry.checker.serves(horizon)) {
            self.entries.remove(&key);
        }
        let clock = self.clock;
        let existed = self.entries.contains_key(&key);
        let entry = self
            .entries
            .entry(key)
            .or_insert_with(|| Entry { checker: build(spec, backend, budget), last_used: clock });
        entry.last_used = clock;
        if existed {
            entry.checker.set_budget(budget);
        }
        let warm = entry.checker.prepare(horizon) && existed;
        (entry, warm)
    }

    /// The effective wall-clock deadline of a batch: the tighter of the
    /// server-wide `--deadline-ms` and the batch's own `deadline_ms`.
    fn effective_deadline_ms(&self, request_deadline_ms: Option<u64>) -> Option<u64> {
        match (self.options.deadline_ms, request_deadline_ms) {
            (Some(server), Some(request)) => Some(server.min(request)),
            (server, request) => server.or(request),
        }
    }

    fn check(
        &mut self,
        spec: ModelSpec,
        formula_texts: &[String],
        deadline_ms: Option<u64>,
        backend: RequestBackend,
    ) -> Response {
        // Deterministic mid-request worker panic for the chaos harness
        // (fired below, once the entry is warm); `dispatch` turns it into
        // an error response and evicts the touched entry.
        let inject_panic = self.options.fault_injection
            && formula_texts.iter().any(|text| text == CHAOS_PANIC_FORMULA);
        let mut formulas = Vec::with_capacity(formula_texts.len());
        for text in
            formula_texts.iter().filter(|text| !inject_panic || *text != CHAOS_PANIC_FORMULA)
        {
            let parsed = parse_service_formula(text)
                .and_then(|formula| validate_indices(&formula, &spec).map(|()| formula));
            match parsed {
                Ok(formula) => formulas.push(formula),
                Err(error) => return Response::Error(format!("formula `{text}`: {error}")),
            }
        }
        let budget = self
            .effective_deadline_ms(deadline_ms)
            .map(|ms| Budget::with_timeout(Duration::from_millis(ms)));
        let started = Instant::now();
        let key = entry_key(&spec, backend);
        // Read the counters before any build/extension so a cold request
        // charges its model construction to `relational_products` (an
        // entry about to be rebuilt for another horizon starts over).
        let before = self
            .entries
            .get(&key)
            .filter(|entry| entry.checker.serves(spec.horizon as usize))
            .map_or_else(SymbolicStats::default, |entry| entry.checker.stats());
        // Everything that can trip the budget — cold build, horizon
        // extension, evaluation — runs under `catch_budget`; on a trip the
        // touched entry is evicted (its in-flight state is suspect, and
        // safe-point aborts make dropping it sound), every other warm
        // checker stays untouched, and the connection stays serviceable.
        let state = &mut *self;
        let result = catch_budget(move || {
            let (entry, warm) = state.warm_entry(&spec, backend, budget);
            if inject_panic {
                panic!("injected chaos panic");
            }
            let hits_before = entry.checker.hits();
            let verdicts = entry.checker.answer(&formulas);
            entry.checker.set_budget(None);
            // Whatever allocated nodes may have left garbage: a build, an
            // extension, or formulas the session did not hold yet. A repeat
            // answered from the session allocates nothing and skips this.
            if entry.checker.stats().allocated_nodes > before.allocated_nodes {
                entry.checker.compact();
            }
            let stats = entry.checker.stats();
            CheckOutcome {
                warm,
                wall_micros: started.elapsed().as_micros() as u64,
                relational_products: stats.relational_product_calls
                    - before.relational_product_calls,
                session_hits: entry.checker.hits() - hits_before,
                live_nodes: stats.live_nodes as u64,
                verdicts,
            }
        });
        match result {
            Ok(outcome) => {
                self.enforce_budget();
                Response::Check(outcome)
            }
            Err(error) => {
                self.evict_touched(&key);
                budget_response(&error)
            }
        }
    }

    fn snapshot(&mut self, spec: ModelSpec, path: &str) -> Result<Response, String> {
        let path = self.resolve_snapshot_path(&spec, path)?;
        let (entry, _) = self.warm_entry(&spec, RequestBackend::Symbolic, None);
        let bytes = entry.checker.snapshot()?;
        write_atomic(Path::new(&path), &bytes)
            .map_err(|error| format!("writing {path}: {error}"))?;
        Ok(Response::SnapshotWritten(bytes.len() as u64))
    }

    /// Resolves the [`AUTO_SNAPSHOT_PATH`] pseudo-path inside the
    /// configured snapshot directory; real paths pass through.
    fn resolve_snapshot_path(&self, spec: &ModelSpec, path: &str) -> Result<String, String> {
        if path != AUTO_SNAPSHOT_PATH {
            return Ok(path.to_string());
        }
        let dir = self
            .options
            .snapshot_dir
            .as_deref()
            .ok_or("`auto` snapshot path needs the server to run with --snapshot-dir")?;
        Ok(Path::new(dir).join(snapshot_file_name(spec)).to_string_lossy().into_owned())
    }

    fn restore(&mut self, spec: ModelSpec, path: &str) -> Result<Response, String> {
        let path = self.resolve_snapshot_path(&spec, path)?;
        let bytes = std::fs::read(&path).map_err(|error| format!("reading {path}: {error}"))?;
        let checker = restore(&spec, &bytes)?;
        let layers = checker.layers() as u64;
        let entry = Entry { checker, last_used: self.clock };
        self.entries.insert(entry_key(&spec, RequestBackend::Symbolic), entry);
        self.enforce_budget();
        Ok(Response::Restored(layers))
    }
}

/// Checks every index a formula carries against the spec, so a stray one
/// from the wire is an `error` reply instead of an out-of-bounds panic
/// inside a checker: agents (in atoms and in knowledge/belief modalities)
/// must be below `n`, the value of a `decides[i].v` below `values`.
fn validate_indices(formula: &Formula<ConsensusAtom>, spec: &ModelSpec) -> Result<(), String> {
    let agent_in_range = |agent: AgentId| {
        if agent.index() < spec.n {
            Ok(())
        } else {
            Err(format!("agent {} out of range (n={})", agent.index(), spec.n))
        }
    };
    formula.agents().into_iter().try_for_each(agent_in_range)?;
    for atom in formula.atoms() {
        match *atom {
            ConsensusAtom::InitIs(agent, _)
            | ConsensusAtom::Nonfaulty(agent)
            | ConsensusAtom::Decided(agent)
            | ConsensusAtom::DecidedValue(agent, _)
            | ConsensusAtom::ObsEquals(agent, ..)
            | ConsensusAtom::ObsAtMost(agent, ..) => agent_in_range(agent)?,
            ConsensusAtom::DecidesNow(agent, value) => {
                agent_in_range(agent)?;
                if value.index() >= spec.values {
                    return Err(format!(
                        "value {} out of range (values={})",
                        value.index(),
                        spec.values
                    ));
                }
            }
            ConsensusAtom::ExistsInit(_)
            | ConsensusAtom::TimeIs(_)
            | ConsensusAtom::CollisionProbe(_) => {}
        }
    }
    Ok(())
}

/// Maps the typed budget error onto the wire: a deadline trip is the
/// caller's budget (`error budget-exceeded`), node/fuel ceilings are the
/// server protecting itself (`error overloaded`).
fn budget_response(error: &BddError) -> Response {
    let BddError::BudgetExceeded { reason, .. } = error;
    match reason {
        BudgetReason::Deadline => Response::BudgetExceeded(error.to_string()),
        BudgetReason::LiveNodes | BudgetReason::Ops => Response::Overloaded(error.to_string()),
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// is written, `sync_all`ed, then renamed over the target — a crash or
/// torn write mid-snapshot leaves any previous snapshot intact.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let file_name = path.file_name().and_then(|name| name.to_str()).unwrap_or("snapshot");
    let tmp = dir.join(format!(".{}.tmp-{}", file_name, std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Restores a checker snapshot and answers a batch of formulas without any
/// server — the child half of the cross-process smoke test, also usable as
/// a library shortcut.
///
/// # Errors
///
/// Reports snapshot-restore failures and formula parse errors.
pub fn answer_from_snapshot(
    spec: &ModelSpec,
    bytes: &[u8],
    formulas: &[&str],
) -> Result<Vec<bool>, String> {
    let mut checker = restore(spec, bytes)?;
    let parsed = formulas
        .iter()
        .map(|text| parse_service_formula(text).map_err(|error| format!("`{text}`: {error}")))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(checker.answer(&parsed))
}

/// A bound, not-yet-running checking server.
pub struct Server {
    listener: TcpListener,
    state: ServerState,
}

impl Server {
    /// Binds the listener. Use `"127.0.0.1:0"` for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, options: ServeOptions) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, state: ServerState::new(options) })
    }

    /// The bound address (to print, or to connect a client to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever, one connection at a time, in accept order.
    ///
    /// A malformed or panicking request turns into an `error` response (the
    /// offending warm entry is dropped, since its invariants are suspect);
    /// a failed connection is dropped; the server keeps running.
    ///
    /// # Errors
    ///
    /// Only a failure of `accept` itself ends the loop.
    pub fn run(mut self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            // A per-connection failure only ends that connection.
            let _ = self.serve_connection(stream);
        }
    }

    fn serve_connection(&mut self, mut stream: TcpStream) -> io::Result<()> {
        // Responses are written as whole frames; without this, Nagle plus
        // the client's delayed ACK stalls every reply.
        stream.set_nodelay(true)?;
        // A peer that connects and goes silent mid-frame (or stops
        // draining responses) is dropped after the I/O timeout instead of
        // wedging the single-threaded accept loop forever.
        let timeout = match self.state.options.io_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        while let Some(payload) = read_frame(&mut stream)? {
            let response = match Request::decode(&payload) {
                Ok(request) => self.state.dispatch(request),
                Err(error) => Response::Error(error),
            };
            write_frame(&mut stream, &response.encode())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floodset_spec() -> ModelSpec {
        ModelSpec::parse("protocol=floodset n=3 t=1 values=2 failure=crash").unwrap()
    }

    fn check_request(spec: ModelSpec) -> Request {
        Request::Check {
            spec,
            formulas: vec![
                "decided[0] => decided[0]".to_string(),
                "CB exists0 => decides[0].0".to_string(),
                "AG (decided[1].0 => !decided[1].1)".to_string(),
            ],
            deadline_ms: None,
            backend: RequestBackend::Symbolic,
        }
    }

    /// The same batch as [`check_request`], routed through `backend=local`.
    fn local_check_request(spec: ModelSpec) -> Request {
        match check_request(spec) {
            Request::Check { spec, formulas, deadline_ms, .. } => {
                Request::Check { spec, formulas, deadline_ms, backend: RequestBackend::Local }
            }
            other => unreachable!("check_request built {other:?}"),
        }
    }

    fn is_warm(state: &ServerState, spec: &ModelSpec, backend: RequestBackend) -> bool {
        state.entries.contains_key(&entry_key(spec, backend))
    }

    fn expect_check(response: Response) -> CheckOutcome {
        match response {
            Response::Check(outcome) => outcome,
            other => panic!("expected a check response, got {other:?}"),
        }
    }

    #[test]
    fn second_identical_batch_is_warm_and_image_free() {
        let mut state = ServerState::new(ServeOptions::default());
        let cold = expect_check(state.handle(check_request(floodset_spec())));
        assert!(!cold.warm);
        assert!(cold.relational_products > 0, "the cold build computes images");
        let warm = expect_check(state.handle(check_request(floodset_spec())));
        assert!(warm.warm);
        assert_eq!(warm.verdicts, cold.verdicts, "warm answers must match cold");
        assert_eq!(warm.relational_products, 0, "a warm repeat computes no images");
        assert!(warm.session_hits > 0, "the denotation cache must hit on a repeat");
    }

    /// The reply's `live_nodes` once the touched entry is compacted again:
    /// equal to the reply's own figure exactly when the request left no
    /// garbage behind.
    fn recompacted_live_nodes(state: &ServerState, spec: &ModelSpec) -> u64 {
        let entry = &state.entries[&entry_key(spec, RequestBackend::Symbolic)];
        entry.checker.compact();
        entry.checker.stats().live_nodes as u64
    }

    /// A request that allocates — a build, an extension, a formula the
    /// session did not hold — collects its garbage before it replies: the
    /// reply's `live_nodes` is what a second collection leaves, a warm
    /// repeat (which allocates nothing) reports the same count, and a batch
    /// sent formula by formula ends where the same batch in one request
    /// does.
    #[test]
    fn every_allocating_request_is_compacted_before_the_reply() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        let longer = ModelSpec { horizon: spec.horizon + 1, ..spec };
        for (spec, what) in [(spec, "cold build"), (longer, "extension")] {
            let built = expect_check(state.handle(check_request(spec)));
            assert!(!built.warm && built.relational_products > 0, "{what}");
            assert_eq!(built.live_nodes, recompacted_live_nodes(&state, &spec), "{what}");
            let warm = expect_check(state.handle(check_request(spec)));
            assert!(warm.warm, "{what}");
            assert_eq!(warm.verdicts, built.verdicts, "{what}");
            assert_eq!(warm.relational_products, 0, "{what}");
            assert_eq!(warm.live_nodes, built.live_nodes, "{what}: the warm repeat allocated");
        }
        let Request::Check { formulas, .. } = check_request(spec) else { unreachable!() };
        let mut split = ServerState::new(ServeOptions::default());
        let mut last = None;
        for formula in formulas {
            let single = Request::Check {
                spec,
                formulas: vec![formula],
                deadline_ms: None,
                backend: RequestBackend::Symbolic,
            };
            let outcome = expect_check(split.handle(single));
            assert_eq!(outcome.live_nodes, recompacted_live_nodes(&split, &spec));
            last = Some(outcome);
        }
        let whole =
            expect_check(ServerState::new(ServeOptions::default()).handle(check_request(spec)));
        assert_eq!(last.unwrap().live_nodes, whole.live_nodes, "split and whole batches differ");
    }

    #[test]
    fn longer_horizon_extends_the_warm_instance() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        expect_check(state.handle(check_request(spec)));
        assert_eq!(state.entries.len(), 1);
        let longer = ModelSpec { horizon: spec.horizon + 2, ..spec };
        let extended = expect_check(state.handle(check_request(longer)));
        assert!(!extended.warm, "an extension is not a warm hit");
        assert_eq!(state.entries.len(), 1, "extension reuses the entry");
        let entry = state.entries.values().next().unwrap();
        assert_eq!(entry.checker.layers(), longer.horizon as usize + 1);
        // And the shorter horizon is warm again afterwards.
        let short = expect_check(state.handle(check_request(spec)));
        assert!(short.warm);
    }

    #[test]
    fn node_budget_evicts_least_recently_used() {
        let mut state = ServerState::new(ServeOptions { node_budget: 1, ..Default::default() });
        let floodset = floodset_spec();
        let count = ModelSpec::parse("protocol=count n=2 t=1 failure=send").unwrap();
        state.handle(check_request(floodset));
        state.handle(check_request(count));
        // Both exceed a 1-node budget; only the most recent survives.
        assert_eq!(state.entries.len(), 1);
        assert!(is_warm(&state, &count, RequestBackend::Symbolic));
        assert!(state.evictions >= 1);
        match state.handle(Request::Stats) {
            Response::Stats(stats) => assert!(stats.evictions >= 1),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_formulas_and_unknown_commands_answer_errors() {
        let mut state = ServerState::new(ServeOptions::default());
        let response = state.handle(Request::Check {
            spec: floodset_spec(),
            formulas: vec!["K[0] (".to_string()],
            deadline_ms: None,
            backend: RequestBackend::Symbolic,
        });
        assert!(matches!(response, Response::Error(_)));
        let response = state.handle(Request::Check {
            spec: floodset_spec(),
            formulas: vec!["flux[3]".to_string()],
            deadline_ms: None,
            backend: RequestBackend::Symbolic,
        });
        assert!(matches!(response, Response::Error(_)));
        assert!(matches!(
            state.handle(Request::Restore {
                spec: floodset_spec(),
                path: "/nonexistent/missing.snap".to_string(),
            }),
            Response::Error(_)
        ));
    }

    /// A formula no engine can evaluate answers `error` at parse time, on
    /// both backends, before the entry is touched: a non-monotone fixpoint
    /// (whose iteration need not converge) and a free fixpoint variable
    /// (which would panic mid-evaluation). The entry stays warm.
    #[test]
    fn ill_formed_fixpoints_answer_errors_and_keep_the_entry_warm() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        for request in [check_request(spec), local_check_request(spec)] {
            let Request::Check { backend, .. } = request else { unreachable!() };
            expect_check(state.dispatch(request.clone()));
            for text in ["gfp _X0. !_X0", "lfp _X0. (_X0 <=> decided[0])", "_X0"] {
                let started = Instant::now();
                let response = state.dispatch(Request::Check {
                    spec,
                    formulas: vec![text.to_string()],
                    deadline_ms: None,
                    backend,
                });
                let elapsed = started.elapsed();
                assert!(
                    matches!(&response, Response::Error(message) if message.contains("fixpoint")),
                    "{backend:?} `{text}`: {response:?}"
                );
                assert!(elapsed < Duration::from_secs(1), "{backend:?} `{text}`: {elapsed:?}");
                assert!(is_warm(&state, &spec, backend), "{backend:?} `{text}` evicted the entry");
            }
            let again = expect_check(state.dispatch(request));
            assert!(again.warm && again.relational_products == 0, "{backend:?}: {again:?}");
        }
        assert_eq!(state.evictions, 0);
    }

    #[test]
    fn snapshot_and_restore_round_trip_through_a_file() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        let before = expect_check(state.handle(check_request(spec)));
        let path = std::env::temp_dir().join("epimc-serve-state-test.snap");
        let path_text = path.to_string_lossy().to_string();
        match state.handle(Request::Snapshot { spec, path: path_text.clone() }) {
            Response::SnapshotWritten(bytes) => assert!(bytes > 0),
            other => panic!("expected a snapshot response, got {other:?}"),
        }
        // A fresh server restores the file and answers identically without
        // any model construction.
        let mut fresh = ServerState::new(ServeOptions::default());
        match fresh.handle(Request::Restore { spec, path: path_text }) {
            Response::Restored(layers) => assert_eq!(layers, spec.horizon as u64 + 1),
            other => panic!("expected a restore response, got {other:?}"),
        }
        let restored = expect_check(fresh.handle(check_request(spec)));
        assert!(restored.warm, "a restored instance is warm");
        assert_eq!(restored.verdicts, before.verdicts);
        let _ = std::fs::remove_file(&path);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("epimc-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dir_options(dir: &std::path::Path) -> ServeOptions {
        ServeOptions {
            snapshot_dir: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up_its_temp_file() {
        let dir = temp_dir("atomic");
        let target = dir.join("value.snap");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(leftovers.len(), 1, "no temp files survive a successful write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The torn-write regression: a writer that dies after the temp file
    /// but before the rename must leave the previous snapshot intact —
    /// restorable by the running server *and* by startup recovery (which
    /// must ignore the orphaned temp file).
    #[test]
    fn torn_write_leaves_previous_snapshot_intact() {
        let dir = temp_dir("torn");
        let spec = floodset_spec();
        let mut state = ServerState::new(dir_options(&dir));
        let before = expect_check(state.handle(check_request(spec)));
        match state.handle(Request::Snapshot { spec, path: AUTO_SNAPSHOT_PATH.to_string() }) {
            Response::SnapshotWritten(bytes) => assert!(bytes > 0),
            other => panic!("expected a snapshot response, got {other:?}"),
        }
        let snap = dir.join(snapshot_file_name(&spec));
        let good = std::fs::read(&snap).unwrap();

        // A second writer dies mid-write: its temp file holds garbage and
        // never reaches the rename.
        let orphan = dir.join(format!(".{}.tmp-99999", snapshot_file_name(&spec)));
        std::fs::write(&orphan, b"torn garbage, half a snapshot").unwrap();

        assert_eq!(std::fs::read(&snap).unwrap(), good, "the previous snapshot is untouched");
        match state.handle(Request::Restore { spec, path: AUTO_SNAPSHOT_PATH.to_string() }) {
            Response::Restored(layers) => assert_eq!(layers, spec.horizon as u64 + 1),
            other => panic!("expected a restore response, got {other:?}"),
        }

        // Startup recovery restores the good snapshot and ignores the
        // orphan (only `*.snap` names are considered).
        let mut recovered = ServerState::new(dir_options(&dir));
        assert_eq!(recovered.entries.len(), 1, "recovery found the snapshot");
        let warm = expect_check(recovered.handle(check_request(spec)));
        assert!(warm.warm, "a recovered instance answers warm");
        assert_eq!(warm.verdicts, before.verdicts);
        assert!(orphan.exists(), "recovery does not touch orphaned temp files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_recovery_quarantines_corrupt_snapshots() {
        let dir = temp_dir("quarantine");
        let spec = floodset_spec();
        let mut state = ServerState::new(dir_options(&dir));
        let before = expect_check(state.handle(check_request(spec)));
        state.handle(Request::Snapshot { spec, path: AUTO_SNAPSHOT_PATH.to_string() });
        let snap = dir.join(snapshot_file_name(&spec));
        // Tear the file on disk: truncate to half.
        let bytes = std::fs::read(&snap).unwrap();
        std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
        // Plus a stray .snap file whose name encodes no spec.
        std::fs::write(dir.join("not-a-spec.snap"), b"junk").unwrap();

        let mut recovered = ServerState::new(dir_options(&dir));
        assert_eq!(recovered.entries.len(), 0, "nothing corrupt is trusted");
        assert!(!snap.exists(), "the torn snapshot was moved aside");
        assert!(snap.with_extension("snap.corrupt").exists(), "quarantined, not deleted");
        assert!(dir.join("not-a-spec.snap.corrupt").exists());
        // Availability is unharmed: the instance rebuilds cold.
        let cold = expect_check(recovered.handle(check_request(spec)));
        assert!(!cold.warm);
        assert_eq!(cold.verdicts, before.verdicts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshots written before the one-format stream: a version 1 kernel
    /// stream, and a stream under another magic as the retired checker
    /// envelope had, both intact and correctly sealed, but layouts this
    /// build no longer reads. Boot moves each aside like any unreadable
    /// file and keeps serving.
    #[test]
    fn startup_recovery_quarantines_pre_version_2_snapshots() {
        let dir = temp_dir("pre-version-2");
        let spec = floodset_spec();
        let mut state = ServerState::new(dir_options(&dir));
        let before = expect_check(state.handle(check_request(spec)));
        state.handle(Request::Snapshot { spec, path: AUTO_SNAPSHOT_PATH.to_string() });
        let snap = dir.join(snapshot_file_name(&spec));
        let bytes = std::fs::read(&snap).unwrap();
        // The kernel version follows its 4-byte magic.
        let mut version_1 = bytes.clone();
        version_1[4..8].copy_from_slice(&1u32.to_le_bytes());
        epimc_bdd::reseal_snapshot(&mut version_1);
        let mut foreign = bytes.clone();
        foreign[..4].copy_from_slice(b"XXXX");
        epimc_bdd::reseal_snapshot(&mut foreign);
        for (old, reason) in [(version_1, "unsupported snapshot version 1"), (foreign, "bad magic")]
        {
            std::fs::write(&snap, &old).unwrap();
            let error = restore(&spec, &old).err().expect("a pre-version-2 stream restored");
            assert!(error.contains(reason), "{error}");

            let mut recovered = ServerState::new(dir_options(&dir));
            assert_eq!(recovered.entries.len(), 0, "the old file is not trusted");
            assert!(!snap.exists(), "the old snapshot was moved aside");
            let quarantined = snap.with_extension("snap.corrupt");
            assert!(quarantined.exists(), "quarantined, not deleted");
            std::fs::remove_file(&quarantined).unwrap();
            let cold = expect_check(recovered.handle(check_request(spec)));
            assert!(!cold.warm);
            assert_eq!(cold.verdicts, before.verdicts);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The budget-trip eviction contract: a deadline that expires
    /// mid-check evicts exactly the touched entry; every other warm
    /// checker keeps its denotation cache (session hits unchanged), and
    /// the next request for the evicted instance rebuilds cold and
    /// succeeds.
    #[test]
    fn budget_trip_evicts_exactly_the_touched_entry() {
        let mut state = ServerState::new(ServeOptions::default());
        let floodset = floodset_spec();
        let count = ModelSpec::parse("protocol=count n=2 t=1 failure=send").unwrap();
        let floodset_cold = expect_check(state.handle(check_request(floodset)));
        expect_check(state.handle(check_request(count)));
        let count_warm = expect_check(state.handle(check_request(count)));
        assert!(count_warm.warm && count_warm.session_hits > 0);
        assert_eq!(state.entries.len(), 2);
        let evictions_before = state.evictions;

        // An expired deadline on a horizon extension of the floodset
        // entry: the extension's first GC safe point trips the budget.
        let longer = ModelSpec { horizon: floodset.horizon + 3, ..floodset };
        let response = state.handle(Request::Check {
            spec: longer,
            formulas: vec!["EF decided[2]".to_string()],
            deadline_ms: Some(0),
            backend: RequestBackend::Symbolic,
        });
        assert!(
            matches!(response, Response::BudgetExceeded(_)),
            "an expired deadline answers budget-exceeded, got {response:?}"
        );
        assert_eq!(state.evictions, evictions_before + 1, "exactly one eviction");
        assert!(!is_warm(&state, &floodset, RequestBackend::Symbolic), "the touched entry is gone");
        assert!(is_warm(&state, &count, RequestBackend::Symbolic), "the other entry survives");

        // The untouched entry is still warm, denotation cache intact.
        let still_warm = expect_check(state.handle(check_request(count)));
        assert!(still_warm.warm, "the untouched entry stays warm");
        assert!(still_warm.session_hits > 0, "its denotation cache was not dropped");
        assert_eq!(still_warm.relational_products, 0);

        // The evicted instance rebuilds cold and answers correctly.
        let rebuilt = expect_check(state.handle(check_request(floodset)));
        assert!(!rebuilt.warm, "the evicted instance rebuilds cold");
        assert_eq!(rebuilt.verdicts, floodset_cold.verdicts);
    }

    /// The `backend=local` path answers bit-identical verdicts to the
    /// default backend on the warm differential batch, and its warm
    /// repeats come from the cross-request verdict memo.
    #[test]
    fn local_backend_matches_default_backend_on_warm_batches() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        // Warm both engines with the differential batch.
        let default_cold = expect_check(state.handle(check_request(spec)));
        let local_cold = expect_check(state.handle(local_check_request(spec)));
        assert!(!local_cold.warm, "the first local batch builds its entry");
        assert_eq!(local_cold.verdicts, default_cold.verdicts, "cold batches diverge");
        // The warm differential batch must be bit-identical across engines.
        let default_warm = expect_check(state.handle(check_request(spec)));
        let local_warm = expect_check(state.handle(local_check_request(spec)));
        assert!(default_warm.warm && local_warm.warm, "both entries stay warm");
        assert_eq!(local_warm.verdicts, default_warm.verdicts, "warm batches diverge");
        assert!(local_warm.session_hits > 0, "warm repeats hit the verdict memo");
        assert_eq!(local_warm.relational_products, 0, "a memoised repeat builds nothing");
        // Both engines show up in the server's bookkeeping.
        assert_eq!(state.entries.len(), 2);
        assert!(is_warm(&state, &spec, RequestBackend::Symbolic));
        assert!(is_warm(&state, &spec, RequestBackend::Local));
    }

    /// A budget trip on the local backend evicts exactly its own entry;
    /// the symbolic entry for the same instance stays warm.
    #[test]
    fn budget_trip_on_the_local_backend_evicts_only_its_entry() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        expect_check(state.handle(check_request(spec)));
        let response = state.handle(Request::Check {
            spec,
            formulas: vec!["EF decided[2]".to_string()],
            deadline_ms: Some(0),
            backend: RequestBackend::Local,
        });
        assert!(matches!(response, Response::BudgetExceeded(_)), "got {response:?}");
        assert!(!is_warm(&state, &spec, RequestBackend::Local), "the tripped local entry is gone");
        assert!(is_warm(&state, &spec, RequestBackend::Symbolic), "the symbolic entry survives");
        // A retry without the deadline rebuilds the local entry and agrees
        // with the warm symbolic one.
        let local = expect_check(state.handle(local_check_request(spec)));
        let symbolic = expect_check(state.handle(check_request(spec)));
        assert_eq!(local.verdicts, symbolic.verdicts);
    }

    /// The wrong-entry regression: a request that panics on `backend=local`
    /// costs exactly the local entry — the symbolic entry of the same spec
    /// stays warm with its denotation cache — and counts as one eviction.
    #[test]
    fn panic_on_the_local_backend_evicts_only_its_entry() {
        let options = ServeOptions { fault_injection: true, ..Default::default() };
        let mut state = ServerState::new(options);
        let spec = floodset_spec();
        expect_check(state.dispatch(check_request(spec)));
        expect_check(state.dispatch(local_check_request(spec)));
        assert_eq!(state.entries.len(), 2);
        let evictions_before = state.evictions;

        let response = state.dispatch(Request::Check {
            spec,
            formulas: vec![CHAOS_PANIC_FORMULA.to_string()],
            deadline_ms: None,
            backend: RequestBackend::Local,
        });
        match response {
            Response::Error(message) => assert!(message.contains("panicked"), "{message}"),
            other => panic!("expected a panicked-request error, got {other:?}"),
        }
        assert!(!is_warm(&state, &spec, RequestBackend::Local), "the panicked entry is gone");
        assert!(is_warm(&state, &spec, RequestBackend::Symbolic), "the symbolic entry survives");
        assert_eq!(state.evictions, evictions_before + 1, "exactly one eviction is counted");
        match state.dispatch(Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!((stats.entries, stats.evictions), (1, evictions_before + 1));
            }
            other => panic!("expected stats, got {other:?}"),
        }

        let still_warm = expect_check(state.dispatch(check_request(spec)));
        assert!(still_warm.warm, "the symbolic entry answers warm");
        assert_eq!(still_warm.relational_products, 0);
        assert!(still_warm.session_hits > 0, "its denotation cache was not dropped");
        // And the same panic on the default backend leaves a local entry be.
        expect_check(state.dispatch(local_check_request(spec)));
        let mut panicking = check_request(spec);
        if let Request::Check { formulas, .. } = &mut panicking {
            formulas.push(CHAOS_PANIC_FORMULA.to_string());
        }
        assert!(matches!(state.dispatch(panicking), Response::Error(_)));
        assert!(!is_warm(&state, &spec, RequestBackend::Symbolic));
        assert!(is_warm(&state, &spec, RequestBackend::Local));
        assert_eq!(state.evictions, evictions_before + 2);
    }

    /// Indices the spec does not cover are refused up front — on both
    /// backends, as a formula error naming the index — instead of reaching
    /// an unchecked slice index inside a checker and costing a warm entry.
    #[test]
    fn out_of_range_indices_answer_errors_and_evict_nothing() {
        let mut state = ServerState::new(ServeOptions::default());
        let spec = floodset_spec();
        expect_check(state.dispatch(check_request(spec)));
        expect_check(state.dispatch(local_check_request(spec)));
        for backend in [RequestBackend::Symbolic, RequestBackend::Local] {
            for (text, complaint) in [
                ("nonfaulty[9]", "agent 9 out of range (n=3)"),
                ("decided[9]", "agent 9 out of range (n=3)"),
                ("K[9] exists0", "agent 9 out of range (n=3)"),
                ("B[9] exists0", "agent 9 out of range (n=3)"),
                ("AG (exists0 => !init[3].0)", "agent 3 out of range (n=3)"),
                ("decides[0].9", "value 9 out of range (values=2)"),
            ] {
                let response = state.dispatch(Request::Check {
                    spec,
                    formulas: vec!["exists0".to_string(), text.to_string()],
                    deadline_ms: None,
                    backend,
                });
                assert_eq!(
                    response,
                    Response::Error(format!("formula `{text}`: {complaint}")),
                    "{text} on {backend:?}"
                );
            }
        }
        assert_eq!(state.entries.len(), 2, "both entries stay warm");
        assert_eq!(state.evictions, 0);
        assert!(expect_check(state.dispatch(check_request(spec))).warm);
        // The largest index the spec does cover is still an ordinary query.
        let response = state.dispatch(Request::Check {
            spec,
            formulas: vec!["K[2] nonfaulty[2] => decides[2].1".to_string()],
            deadline_ms: None,
            backend: RequestBackend::Symbolic,
        });
        assert_eq!(expect_check(response).verdicts.len(), 1);
    }

    /// Every protocol of the registry through the one handle: a cold check,
    /// a warm repeat, a snapshot and a restore into a fresh server, with
    /// verdicts compared against a directly constructed checker for the
    /// pair and against the lazy backend.
    #[test]
    fn every_protocol_kind_checks_warm_snapshots_and_restores() {
        use crate::proto::ProtocolKind;
        let batch = ["CB exists0 => decides[0].0", "B[0] CB exists0", "EF decided[1]"];
        let request = |spec, backend| Request::Check {
            spec,
            formulas: batch.iter().map(|text| text.to_string()).collect(),
            deadline_ms: None,
            backend,
        };
        for kind in ProtocolKind::ALL {
            let failure = if kind.is_eventual() { "send" } else { "crash" };
            let spec = ModelSpec::parse(&format!("protocol={kind} n=2 t=1 failure={failure}"))
                .unwrap_or_else(|error| panic!("{kind}: {error}"));
            let expected: Vec<bool> = with_protocol!(kind, |exchange, rule| {
                let direct = SymbolicChecker::relational(
                    exchange,
                    spec.params(),
                    rule,
                    SymbolicOptions::default(),
                );
                batch
                    .iter()
                    .map(|text| direct.holds_everywhere(&parse_service_formula(text).unwrap()))
                    .collect()
            });

            let mut state = ServerState::new(ServeOptions::default());
            let cold = expect_check(state.dispatch(request(spec, RequestBackend::Symbolic)));
            assert!(!cold.warm && cold.relational_products > 0, "{kind}: cold build");
            assert_eq!(cold.verdicts, expected, "{kind}: cold verdicts");
            let warm = expect_check(state.dispatch(request(spec, RequestBackend::Symbolic)));
            assert!(warm.warm && warm.session_hits > 0, "{kind}: warm repeat");
            assert_eq!(warm.relational_products, 0, "{kind}: a warm repeat computes no images");
            assert_eq!(warm.verdicts, expected, "{kind}: warm verdicts");
            let local = expect_check(state.dispatch(request(spec, RequestBackend::Local)));
            assert_eq!(local.verdicts, expected, "{kind}: lazy verdicts");

            let path = std::env::temp_dir()
                .join(format!("epimc-serve-registry-{kind}-{}.snap", std::process::id()));
            let path_text = path.to_string_lossy().to_string();
            match state.dispatch(Request::Snapshot { spec, path: path_text.clone() }) {
                Response::SnapshotWritten(bytes) => assert!(bytes > 0, "{kind}"),
                other => panic!("{kind}: expected a snapshot response, got {other:?}"),
            }
            let mut fresh = ServerState::new(ServeOptions::default());
            match fresh.dispatch(Request::Restore { spec, path: path_text }) {
                Response::Restored(layers) => assert_eq!(layers, spec.horizon as u64 + 1),
                other => panic!("{kind}: expected a restore response, got {other:?}"),
            }
            let restored = expect_check(fresh.dispatch(request(spec, RequestBackend::Symbolic)));
            assert!(restored.warm, "{kind}: a restored instance is warm");
            assert_eq!(restored.relational_products, 0, "{kind}: restore builds nothing");
            assert_eq!(restored.verdicts, expected, "{kind}: restored verdicts");
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(answer_from_snapshot(&spec, &bytes, &batch).unwrap(), expected, "{kind}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// An expired deadline on a *cold build* answers budget-exceeded
    /// without ever inserting a poisoned entry, and leaves every other
    /// warm entry as it was (compaction never runs under a budget);
    /// retrying without a deadline succeeds.
    #[test]
    fn budget_trip_during_cold_build_leaves_no_entry_behind() {
        let mut state = ServerState::new(ServeOptions::default());
        let count = ModelSpec::parse("protocol=count n=2 t=1 failure=send").unwrap();
        let held = expect_check(state.handle(check_request(count)));
        let evictions_before = state.evictions;
        let spec = floodset_spec();
        let response = state.handle(Request::Check {
            spec,
            formulas: vec!["EF decided[2]".to_string()],
            deadline_ms: Some(0),
            backend: RequestBackend::Symbolic,
        });
        assert!(matches!(response, Response::BudgetExceeded(_)), "got {response:?}");
        assert!(
            !is_warm(&state, &spec, RequestBackend::Symbolic),
            "an aborted build inserts nothing"
        );
        assert_eq!(state.entries.len(), 1, "the other entry survives");
        assert_eq!(state.evictions, evictions_before, "nothing else was evicted");
        let still_warm = expect_check(state.handle(check_request(count)));
        assert!(still_warm.warm && still_warm.relational_products == 0);
        assert_eq!(still_warm.live_nodes, held.live_nodes, "the other entry changed");
        let retry = expect_check(state.handle(check_request(spec)));
        assert!(!retry.warm);
    }

    /// The server-wide `--deadline-ms` applies without any per-request
    /// token, and the per-request token can only tighten it.
    #[test]
    fn server_wide_deadline_applies_and_tightens() {
        let state = ServerState::new(ServeOptions { deadline_ms: Some(40), ..Default::default() });
        assert_eq!(state.effective_deadline_ms(None), Some(40));
        assert_eq!(state.effective_deadline_ms(Some(10)), Some(10));
        assert_eq!(state.effective_deadline_ms(Some(90)), Some(40), "requests cannot loosen it");
        let unlimited = ServerState::new(ServeOptions::default());
        assert_eq!(unlimited.effective_deadline_ms(None), None);
        assert_eq!(unlimited.effective_deadline_ms(Some(7)), Some(7));
    }

    /// A silent peer — half a length prefix, then nothing — is dropped
    /// within the configured I/O timeout instead of wedging the
    /// single-threaded accept loop.
    #[test]
    fn silent_peer_is_dropped_within_io_timeout() {
        use std::io::Read;
        let options = ServeOptions { io_timeout_ms: 200, ..Default::default() };
        let server = Server::bind("127.0.0.1:0", options).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(&[0x02, 0x00]).unwrap(); // half a prefix, then silence
        stream.set_read_timeout(Some(Duration::from_millis(2_000))).unwrap();
        let started = Instant::now();
        let mut sink = [0u8; 16];
        // The server must close (EOF / reset), not leave us blocked until
        // our own 2 s guard.
        let dropped = match stream.read(&mut sink) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        let elapsed = started.elapsed();
        assert!(dropped, "expected the server to drop the silent peer");
        assert!(
            elapsed < Duration::from_millis(1_000),
            "silent peer held the connection for {elapsed:?} under a 200 ms I/O timeout"
        );

        // And the server is still answering afterwards.
        let mut client = crate::client::Client::connect(addr).unwrap();
        client.ping().unwrap();
    }
}
