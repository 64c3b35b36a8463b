//! Deterministic fault-injection harness for the checking service.
//!
//! `epimc-serve --chaos [--seed N] [--smoke]` starts a real server on an
//! ephemeral port (fault injection armed, tight I/O timeouts, a private
//! snapshot directory) and subjects it to a seeded schedule of faults —
//! torn snapshot writes, corrupted and truncated frames, hostile length
//! prefixes, silent peers, mid-request worker panics, budget trips. The
//! invariant asserted after **every** fault is the same: a fresh client
//! can still run the full differential batch and gets bit-identical
//! verdicts to the pre-fault baseline. The server never crashes; at
//! worst one warm checker is evicted and rebuilt cold.
//!
//! Everything is driven by one [`rand::rngs::StdRng`] seeded from
//! `--seed`, so a failing schedule replays exactly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{CheckReply, Client, RetryPolicy};
use crate::framing::MAX_FRAME_LEN;
use crate::proto::{snapshot_file_name, ModelSpec, RequestBackend};
use crate::server::{ServeOptions, Server, CHAOS_PANIC_FORMULA};

/// Configuration of a chaos run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosOptions {
    /// Seed of the fault schedule; equal seeds replay equal runs.
    pub seed: u64,
    /// Shrink the schedule for CI (one round of every fault instead of
    /// three).
    pub smoke: bool,
}

/// The differential instance: small enough to rebuild cold after every
/// eviction, rich enough that a corrupted manager would change verdicts.
const CHAOS_SPEC: &str = "protocol=floodset n=5 t=2 values=2 failure=crash";

/// The differential batch (mixed verdicts, knowledge + fixpoint + temporal
/// operators, so a broken warm state cannot answer it by accident).
const CHAOS_FORMULAS: [&str; 4] = [
    "CB exists0 => decides[0].0",
    "AG (decided[1].0 => !decided[1].1)",
    "B[0] CB exists0",
    "EF decided[2]",
];

/// Socket I/O timeout the chaos server runs under: short enough that the
/// silent-peer fault resolves in test time, long enough for every
/// legitimate batch on the chaos spec.
const CHAOS_IO_TIMEOUT_MS: u64 = 250;

/// The faults in the schedule, in their canonical (reporting) order.
const FAULTS: [Fault; 7] = [
    Fault::GarbageFrame,
    Fault::HostilePrefix,
    Fault::TruncatedFrame,
    Fault::SilentPeer,
    Fault::InjectedPanic,
    Fault::BudgetTrip,
    Fault::TornSnapshot,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// A well-framed payload of random bytes (rarely valid UTF-8, never a
    /// valid request).
    GarbageFrame,
    /// A length prefix past [`MAX_FRAME_LEN`]; the server must refuse the
    /// frame without allocating it.
    HostilePrefix,
    /// A prefix that promises more bytes than are sent before the peer
    /// closes.
    TruncatedFrame,
    /// A peer that sends half a length prefix and then nothing; the
    /// server must drop it within the I/O timeout instead of wedging.
    SilentPeer,
    /// [`CHAOS_PANIC_FORMULA`]: a worker panic mid-request, once on each
    /// backend; each must evict exactly the entry it touched.
    InjectedPanic,
    /// A 1 ms deadline on a cold build; must answer `error
    /// budget-exceeded` and evict cleanly.
    BudgetTrip,
    /// The snapshot file is corrupted on disk after a valid write; the
    /// running server must refuse to restore it and a second server
    /// booted on the directory must quarantine it.
    TornSnapshot,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::GarbageFrame => "garbage-frame",
            Fault::HostilePrefix => "hostile-prefix",
            Fault::TruncatedFrame => "truncated-frame",
            Fault::SilentPeer => "silent-peer",
            Fault::InjectedPanic => "injected-panic",
            Fault::BudgetTrip => "budget-trip",
            Fault::TornSnapshot => "torn-snapshot",
        }
    }
}

/// Runs the harness; returns a one-paragraph report on success, the first
/// broken invariant on failure.
///
/// # Errors
///
/// Any fault that crashes the server, wedges a connection past its
/// timeout, or changes a differential verdict fails the run.
pub fn run_chaos(options: &ChaosOptions) -> Result<String, String> {
    install_quiet_chaos_hook();
    let spec = ModelSpec::parse(CHAOS_SPEC)?;
    let snapshot_dir =
        std::env::temp_dir().join(format!("epimc-chaos-{}-{}", std::process::id(), options.seed));
    std::fs::create_dir_all(&snapshot_dir)
        .map_err(|error| format!("creating {}: {error}", snapshot_dir.display()))?;

    let serve_options = ServeOptions {
        io_timeout_ms: CHAOS_IO_TIMEOUT_MS,
        snapshot_dir: Some(snapshot_dir.to_string_lossy().into_owned()),
        fault_injection: true,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", serve_options.clone())
        .map_err(|error| format!("bind: {error}"))?;
    let addr = server.local_addr().map_err(|error| error.to_string())?;
    std::thread::spawn(move || server.run());

    let baseline = differential_batch(addr)?;
    let mut rng = StdRng::seed_from_u64(options.seed);
    let rounds = if options.smoke { 1 } else { 3 };
    let mut injected = 0usize;

    for round in 0..rounds {
        // A seeded shuffle of the fault order per round: faults must not
        // depend on which fault preceded them.
        let mut schedule = FAULTS.to_vec();
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.gen_range(0..=i));
        }
        for fault in schedule {
            inject(fault, addr, &spec, &snapshot_dir, &serve_options, &mut rng)
                .map_err(|error| format!("round {round} fault {}: {error}", fault.name()))?;
            injected += 1;
            let after = differential_batch(addr)
                .map_err(|error| format!("round {round} after {}: {error}", fault.name()))?;
            if after != baseline {
                return Err(format!(
                    "round {round}: verdicts drifted after {}: {after:?} != baseline {baseline:?}",
                    fault.name()
                ));
            }
        }
    }

    let _ = std::fs::remove_dir_all(&snapshot_dir);
    Ok(format!(
        "chaos ok: seed {}, {} faults injected over {} round(s), \
         every differential batch matched the baseline {:?}",
        options.seed, injected, rounds, baseline
    ))
}

/// Answers the differential batch on a fresh connection (dropped before
/// returning, so the single-threaded server is free for the next fault),
/// through *both* engine backends: the default symbolic path and
/// `backend=local`. Any divergence between them is itself a broken
/// invariant, so every differential probe doubles as a cross-engine check.
fn differential_batch(addr: SocketAddr) -> Result<Vec<bool>, String> {
    let spec = ModelSpec::parse(CHAOS_SPEC)?;
    let mut client = Client::connect_with(
        addr,
        RetryPolicy::default(),
        Some(Duration::from_millis(CHAOS_IO_TIMEOUT_MS * 40)),
    )
    .map_err(|error| format!("connect: {error}"))?;
    let outcome = client.check(spec, &CHAOS_FORMULAS).map_err(|error| format!("check: {error}"))?;
    let local = match client
        .check_with_backend(spec, &CHAOS_FORMULAS, None, RequestBackend::Local)
        .map_err(|error| format!("local check: {error}"))?
    {
        CheckReply::Ok(local) => local,
        other => return Err(format!("local backend answered {other:?}")),
    };
    if local.verdicts != outcome.verdicts {
        return Err(format!(
            "backend=local answered {:?}, default backend {:?}",
            local.verdicts, outcome.verdicts
        ));
    }
    Ok(outcome.verdicts)
}

fn inject(
    fault: Fault,
    addr: SocketAddr,
    spec: &ModelSpec,
    snapshot_dir: &Path,
    serve_options: &ServeOptions,
    rng: &mut StdRng,
) -> Result<(), String> {
    match fault {
        Fault::GarbageFrame => {
            let len = rng.gen_range(1..256usize);
            let mut payload = vec![0u8; len];
            for byte in &mut payload {
                *byte = rng.gen_range(0..=255u64) as u8;
            }
            let mut stream = raw_connect(addr)?;
            let mut frame = (len as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            let _ = stream.write_all(&frame);
            // The server answers an error frame (bad UTF-8 / unknown
            // command) or drops the connection; both are acceptable, a
            // hang or crash is not.
            expect_connection_settles(stream)
        }
        Fault::HostilePrefix => {
            let oversized = rng.gen_range((MAX_FRAME_LEN as u64 + 1)..=u32::MAX as u64) as u32;
            let mut stream = raw_connect(addr)?;
            let _ = stream.write_all(&oversized.to_le_bytes());
            expect_connection_settles(stream)
        }
        Fault::TruncatedFrame => {
            let claimed = rng.gen_range(64..4096usize);
            let sent = rng.gen_range(0..claimed);
            let mut stream = raw_connect(addr)?;
            let mut frame = (claimed as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&vec![b'x'; sent]);
            let _ = stream.write_all(&frame);
            drop(stream); // close mid-frame: the read side sees EOF
            Ok(())
        }
        Fault::SilentPeer => {
            let mut stream = raw_connect(addr)?;
            let _ = stream.write_all(&[0x02, 0x00]); // half a length prefix, then silence
            let started = Instant::now();
            expect_connection_settles(stream)?;
            let elapsed = started.elapsed();
            let ceiling = Duration::from_millis(CHAOS_IO_TIMEOUT_MS * 4);
            if elapsed > ceiling {
                return Err(format!(
                    "server took {elapsed:?} to drop a silent peer (I/O timeout {}ms)",
                    CHAOS_IO_TIMEOUT_MS
                ));
            }
            Ok(())
        }
        Fault::InjectedPanic => {
            let mut client = chaos_client(addr)?;
            let stats =
                |client: &mut Client| client.stats().map_err(|error| format!("stats: {error}"));
            // Each panic fires mid-request, on the entry the request just
            // warmed; it must cost exactly that entry — one counted
            // eviction — whichever engine it hit.
            for backend in [RequestBackend::Symbolic, RequestBackend::Local] {
                let evictions_before = stats(&mut client)?.evictions;
                match client.check_with_backend(*spec, &[CHAOS_PANIC_FORMULA], None, backend) {
                    Ok(reply) => {
                        return Err(format!("injected panic on {backend:?} answered {reply:?}"))
                    }
                    Err(error) if error.to_string().contains("panicked") => {}
                    Err(error) => {
                        return Err(format!(
                            "expected a panicked-request error on {backend:?}, got: {error}"
                        ))
                    }
                }
                let evictions = stats(&mut client)?.evictions;
                if evictions != evictions_before + 1 {
                    return Err(format!(
                        "a panic on {backend:?} moved evictions from {evictions_before} \
                         to {evictions}, expected exactly one"
                    ));
                }
            }
            Ok(())
        }
        Fault::BudgetTrip => {
            let mut client = chaos_client(addr)?;
            // Evict first so the 1 ms deadline races a cold build, which
            // it cannot win on this spec.
            client.evict_all().map_err(|error| format!("evict: {error}"))?;
            match client
                .check_with_deadline(*spec, &CHAOS_FORMULAS, Some(1))
                .map_err(|error| format!("deadline check: {error}"))?
            {
                CheckReply::BudgetExceeded(_) => Ok(()),
                CheckReply::Overloaded(message) => {
                    Err(format!("deadline trip answered overloaded: {message}"))
                }
                CheckReply::Ok(_) => Err("a 1 ms deadline survived a cold build".to_string()),
            }
        }
        Fault::TornSnapshot => {
            let mut client = chaos_client(addr)?;
            client.snapshot(*spec, "auto").map_err(|error| format!("snapshot: {error}"))?;
            let path = snapshot_dir.join(snapshot_file_name(spec));
            let bytes =
                std::fs::read(&path).map_err(|error| format!("reading snapshot: {error}"))?;
            // Tear it: truncate to a seeded prefix, or flip a seeded byte.
            let torn = if rng.gen_bool(0.5) {
                bytes[..rng.gen_range(0..bytes.len())].to_vec()
            } else {
                let mut torn = bytes;
                let at = rng.gen_range(0..torn.len());
                torn[at] ^= 1 << rng.gen_range(0..8u32);
                torn
            };
            std::fs::write(&path, &torn).map_err(|error| format!("tearing snapshot: {error}"))?;
            // The running server must refuse it with a structured error.
            if client.restore(*spec, "auto").is_ok() {
                return Err("server restored a torn snapshot".to_string());
            }
            drop(client);
            // A second server booted on the directory must quarantine the
            // torn file at startup and still answer the batch.
            let second = Server::bind("127.0.0.1:0", serve_options.clone())
                .map_err(|error| format!("second bind: {error}"))?;
            let second_addr = second.local_addr().map_err(|error| error.to_string())?;
            std::thread::spawn(move || second.run());
            let quarantined = path.with_extension("snap.corrupt");
            if !quarantined.exists() {
                return Err("second server did not quarantine the torn snapshot".to_string());
            }
            let first = differential_batch(addr)?;
            let rebuilt = differential_batch(second_addr)
                .map_err(|error| format!("second server: {error}"))?;
            if rebuilt != first {
                return Err(format!(
                    "second server answered {rebuilt:?}, first answered {first:?}"
                ));
            }
            let _ = std::fs::remove_file(&quarantined);
            Ok(())
        }
    }
}

/// A client for fault rounds: no retries (a fault must surface, not be
/// papered over) and a generous read timeout for cold rebuilds.
fn chaos_client(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(
        addr,
        RetryPolicy::none(),
        Some(Duration::from_millis(CHAOS_IO_TIMEOUT_MS * 40)),
    )
    .map_err(|error| format!("connect: {error}"))
}

/// The injected worker panic is the harness doing its job; printing its
/// backtrace to stderr on every round would read as a crash. The hook
/// suppresses exactly that payload and defers everything else to the
/// previous hook.
fn install_quiet_chaos_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|text| text.contains("injected chaos panic"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn raw_connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|error| format!("raw connect: {error}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(CHAOS_IO_TIMEOUT_MS * 8)))
        .map_err(|error| error.to_string())?;
    Ok(stream)
}

/// Reads until the server closes the connection (or answers and then
/// closes after we do); errors if our read times out first — that means
/// the server wedged on the fault.
fn expect_connection_settles(mut stream: TcpStream) -> Result<(), String> {
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return Ok(()),
            Ok(_) => continue,
            Err(error)
                if error.kind() == std::io::ErrorKind::WouldBlock
                    || error.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err("server neither answered nor dropped the connection".to_string())
            }
            // Reset / aborted also means the server let go of the peer.
            Err(_) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full harness, one round, fixed seed — the in-tree version of
    /// `epimc-serve --chaos --smoke`.
    #[test]
    fn chaos_smoke_round_trips_every_fault() {
        let report = run_chaos(&ChaosOptions { seed: 7, smoke: true }).expect("chaos run");
        assert!(report.contains("7 faults injected"), "unexpected report: {report}");
    }
}
