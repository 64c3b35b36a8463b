//! Checking-as-a-service: a long-running epistemic model-checking server.
//!
//! Building a symbolic model is the expensive part of answering an
//! epistemic query — constructing the reachable layers and partitioned
//! transition relations of a FloodSet instance dwarfs the fixpoint
//! computation of any single formula. A process that rebuilds the model
//! per invocation (the `epimc` binary's mode of operation) pays that cost
//! every time. This crate keeps the built state *warm* across requests:
//!
//! * **Warm managers** — one warm checker per `(model instance, backend)`,
//!   kept in a single map keyed by protocol, parameters and
//!   [`RequestBackend`], bounded by an LRU policy on total live BDD nodes
//!   (not entry count, so a huge instance is charged what it costs). The
//!   default backend's entry is a fully built relational
//!   [`epimc_check::SymbolicChecker`]; every entry sits behind one
//!   type-erased handle, so there is one check path, one eviction routine
//!   and one panic/budget eviction whatever the engine.
//! * **Cross-request denotation cache** — each warm checker holds a
//!   long-lived evaluation session whose closed-subformula denotations are
//!   keyed by [`epimc_logic::Formula::canonical_hash`]; a repeated batched
//!   query recalls every subformula and performs **zero** relational image
//!   computations.
//! * **Snapshot persistence** — a warm checker serializes (reachable
//!   layers, relations, decides-now tables, and the entire BDD manager via
//!   `epimc-bdd`'s versioned snapshot format) to a file that another
//!   process restores and answers from bit-identically.
//! * **Per-request backend selection** — a `check backend=local ...`
//!   request (see [`RequestBackend`], [`Client::check_with_backend`])
//!   answers through the lazy local engine
//!   ([`epimc_check::LocalChecker`]) instead of the warm global checker:
//!   only the model layers the query's equation system actually demands
//!   are materialised, and verdicts memoise across requests. Local
//!   entries are warmed, budgeted and evicted independently of the
//!   symbolic ones — a trip or panic costs exactly the entry the request
//!   touched — and go first under node pressure (they are cheap to
//!   rebuild). Both backends must answer bit-identically; the chaos
//!   harness checks exactly that on every differential batch.
//!
//! # Protocols
//!
//! The service instantiates no protocol itself. [`ProtocolKind`] — what
//! `protocol=` in a model spec parses to — is the registry of
//! `epimc-protocols`, re-exported here, and the generic engines are
//! instantiated for a spec's (exchange, rule) pair through
//! [`epimc_protocols::with_protocol!`], the one place the six-pair table
//! lives. A seventh protocol added there (see the `epimc-protocols` crate
//! docs) is servable, snapshot-restorable and chaos-tested with no change
//! in this crate.
//!
//! # Wire protocol
//!
//! Frames are 4-byte little-endian length prefixes followed by UTF-8 text
//! (see [`framing`]); requests and responses are single frames (see
//! [`proto`] for the commands, the model-spec grammar, and the dotted atom
//! vocabulary). The protocol is deliberately hand-rolled: the framing is
//! small enough that a schema language would cost more than it saves.
//!
//! # Robustness
//!
//! The service is built to degrade, not die:
//!
//! * **Deadlines and budgets** — every `check` runs under the tighter of
//!   the server's `--deadline-ms` and the request's own `deadline_ms`
//!   token, enforced cooperatively by the BDD manager's
//!   [`epimc_check::Budget`] (polled at GC safe points and operation-cache
//!   misses). A trip unwinds as a typed [`epimc_check::BddError`], caught
//!   at the request boundary: the touched warm checker is **evicted**
//!   (its in-flight state is suspect; safe-point aborts make dropping it
//!   sound), every other entry stays warm, and the client receives a
//!   structured `error budget-exceeded` (deadline) or `error overloaded`
//!   (node/fuel ceiling) frame instead of a dead connection.
//! * **Socket timeouts** — accepted connections carry read/write timeouts
//!   (`--io-timeout-ms`, default 30 s), so a peer that goes silent
//!   mid-frame is dropped instead of wedging the accept loop. The
//!   [`Client`] mirrors them and retries *transient* transport failures
//!   (reset, refused, broken pipe, truncated frame) under a bounded
//!   exponential backoff ([`RetryPolicy`]); timeouts and budget replies
//!   are never retried.
//! * **Atomic snapshots** — snapshot files are written to a temp file in
//!   the destination directory, `fsync`ed, then renamed over the target,
//!   so a crash mid-write leaves any previous snapshot intact. At startup
//!   (with `--snapshot-dir`) every `*.snap` file is restored; corrupt or
//!   truncated files are quarantined (`*.snap.corrupt`), never trusted
//!   and never fatal.
//! * **Fault injection** — `epimc-serve --chaos` (see [`run_chaos`])
//!   replays a seeded schedule of torn writes, corrupt frames, hostile
//!   length prefixes, silent peers, mid-request panics and budget trips,
//!   asserting after every fault that a fresh differential batch still
//!   answers bit-identically.
//!
//! # Quick start
//!
//! ```no_run
//! use epimc_serve::{Client, ModelSpec, ServeOptions, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let spec = ModelSpec::parse("protocol=floodset n=8 t=3 values=2 failure=crash").unwrap();
//! let cold = client.check(spec, &["CB exists0 => decides[0].0"]).unwrap();
//! let warm = client.check(spec, &["CB exists0 => decides[0].0"]).unwrap();
//! assert_eq!(warm.relational_products, 0, "warm repeats compute no images");
//! assert!(warm.wall_micros < cold.wall_micros);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod proto;

mod chaos;
mod client;
mod server;

pub use chaos::{run_chaos, ChaosOptions};
pub use client::{CheckReply, Client, RetryPolicy};
pub use proto::{
    CheckOutcome, ModelSpec, ProtocolKind, Request, RequestBackend, Response, ServerStats,
};
pub use server::{
    answer_from_snapshot, ServeOptions, Server, AUTO_SNAPSHOT_PATH, CHAOS_PANIC_FORMULA,
    DEFAULT_IO_TIMEOUT_MS, DEFAULT_NODE_BUDGET,
};
