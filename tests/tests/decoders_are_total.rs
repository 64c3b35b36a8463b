//! Every decoder is total. Seeded mutations of valid inputs — bit flips,
//! byte overwrites with `0x00` and `0xff`, truncations, and, for snapshot
//! streams, every `u64` field set to `0`, `1`, `u64::MAX` and its value
//! plus 2^63 — must make each decoder return `Err` or a usable value, never
//! panic:
//!
//! * `Bdd::restore` and `SymbolicChecker::restore_relational` (FloodSet
//!   n=3 t=1 under crashes, E_min n=2 t=1 under sending omissions). Each
//!   mutated stream is resealed — the trailer checksum catches accidents,
//!   it is no MAC — so the mutation reaches the semantic checks behind it.
//!   A stream that restores must answer a fixed three-formula batch.
//! * `Request::decode`, `Response::decode`, `ModelSpec::parse`,
//!   `parse_snapshot_file_name` and `parse_service_formula`, which also
//!   refuses input nested deep enough to overflow the stack. Raw noise
//!   joins the mutations here.
//!
//! The seeds are fixed, so a failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use epimc::prelude::*;
use epimc_bdd::reseal_snapshot;
use epimc_integration::{crash_params, omission_params};
use epimc_serve::proto::{parse_service_formula, parse_snapshot_file_name};
use epimc_serve::{CheckOutcome, Request, RequestBackend, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The batch a restored checker must answer.
const BATCH: [&str; 3] = ["K[0] exists0", "CB exists0 => decides[1].0", "EF decided[1]"];

/// Random mutations per kind (bit flip, `0x00` and `0xff` overwrite,
/// truncation) and input.
const MUTATIONS: usize = 24;

/// Seeded bit flips, byte overwrites and truncations of `bytes`.
fn mutations(bytes: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..MUTATIONS {
        let mut flipped = bytes.to_vec();
        flipped[rng.gen_range(0..bytes.len())] ^= 1 << rng.gen_range(0..8u32);
        out.push(flipped);
        for value in [0x00, 0xff] {
            let mut overwritten = bytes.to_vec();
            overwritten[rng.gen_range(0..bytes.len())] = value;
            out.push(overwritten);
        }
        out.push(bytes[..rng.gen_range(0..bytes.len())].to_vec());
    }
    out
}

/// Byte offsets of every `u64` field of a kernel snapshot stream, found by
/// walking the layout the `epimc_bdd` snapshot module documents: the cache
/// capacity, each count and group length, each caller word and the nine
/// counters.
fn u64_fields(bytes: &[u8]) -> Vec<usize> {
    let read = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut fields = Vec::new();
    let mut field = |at: &mut usize, element_bytes: usize| {
        fields.push(*at);
        let count = read(*at);
        *at += 8 + count * element_bytes;
        count
    };
    // Magic, version and flags; then the cache capacity (a field, no
    // elements), the store and free-list, and the two level maps.
    let mut at = 9;
    field(&mut at, 0);
    field(&mut at, 12);
    field(&mut at, 4);
    field(&mut at, 8);
    for _ in 0..field(&mut at, 0) {
        field(&mut at, 4);
    }
    field(&mut at, 4);
    let words = field(&mut at, 0);
    let first_word = at;
    fields.extend((0..words + 9).map(|k| first_word + 8 * k));
    assert_eq!(first_word + 8 * (words + 9) + 8, bytes.len(), "layout walk missed the trailer");
    fields
}

/// Every mutation of a snapshot stream, resealed.
fn snapshot_mutations(bytes: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = mutations(bytes, rng);
    for at in u64_fields(bytes) {
        let value = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        for crafted in [0, 1, u64::MAX, value.wrapping_add(1 << 63)] {
            let mut stream = bytes.to_vec();
            stream[at..at + 8].copy_from_slice(&crafted.to_le_bytes());
            out.push(stream);
        }
    }
    for stream in &mut out {
        if stream.len() >= 8 {
            reseal_snapshot(stream);
        }
    }
    out
}

/// Restores every mutation of a checker's snapshot under `catch_unwind`;
/// returns how many restored and how many were rejected.
fn restore_is_total<E, R>(
    name: &str,
    exchange: E,
    rule: R,
    params: ModelParams,
    seed: u64,
) -> (usize, usize)
where
    E: SymbolicEncode + Clone,
    R: SymbolicRule<E> + Clone,
{
    let batch: Vec<_> = BATCH.iter().map(|text| parse_service_formula(text).unwrap()).collect();
    let checker = SymbolicChecker::relational(
        exchange.clone(),
        params,
        rule.clone(),
        SymbolicOptions::default(),
    );
    let bytes = checker.snapshot().expect("snapshot");
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut restored, mut rejected) = (0, 0);
    for (index, stream) in snapshot_mutations(&bytes, &mut rng).iter().enumerate() {
        // `restore_relational` runs `Bdd::restore` first, so this covers
        // both decoders.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let checker =
                SymbolicChecker::restore_relational(exchange.clone(), params, rule.clone(), stream);
            if let Ok(checker) = &checker {
                for formula in &batch {
                    checker.holds_everywhere(formula);
                }
            }
            checker.is_ok()
        }));
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("{name}: mutation {index} panicked a decoder or the batch"),
        }
    }
    (restored, rejected)
}

#[test]
fn snapshot_decoders_are_total() {
    let floodset = restore_is_total("floodset", FloodSet, FloodSetRule, crash_params(3, 1), 0xDEC0);
    let emin = restore_is_total("emin", EMin, EMinRule, omission_params(2, 1), 0xDEC1);
    for (name, (restored, rejected)) in [("floodset", floodset), ("emin", emin)] {
        // Both outcomes occur: counters and GC words restore, everything
        // structural is rejected.
        assert!(restored > 0 && rejected > 0, "{name}: {restored} restored, {rejected} rejected");
    }
}

/// Every wire and formula decoder on each input; a panic fails the test.
fn assert_no_decoder_panics(inputs: &[Vec<u8>]) {
    for bytes in inputs {
        let outcome = catch_unwind(|| {
            let _ = Request::decode(bytes);
            let _ = Response::decode(bytes);
            let text = String::from_utf8_lossy(bytes);
            let _ = ModelSpec::parse(&text);
            let _ = parse_snapshot_file_name(&text);
            let _ = parse_service_formula(&text);
        });
        assert!(outcome.is_ok(), "input {bytes:?} panicked a decoder");
    }
}

#[test]
fn wire_and_formula_decoders_are_total() {
    let spec = ModelSpec::parse("protocol=floodset n=4 t=1 values=2 failure=crash").unwrap();
    let payloads = [
        Request::Check {
            spec,
            formulas: BATCH.iter().map(|text| text.to_string()).collect(),
            deadline_ms: Some(50),
            backend: RequestBackend::Local,
        }
        .encode(),
        Request::Restore { spec, path: "auto".to_string() }.encode(),
        Request::Snapshot { spec, path: "auto".to_string() }.encode(),
        Response::Check(CheckOutcome {
            warm: true,
            wall_micros: 1,
            relational_products: 2,
            session_hits: 3,
            live_nodes: 4,
            verdicts: vec![true, false, true],
        })
        .encode(),
        Response::Overloaded("live-node ceiling".to_string()).encode(),
        Response::BudgetExceeded("deadline".to_string()).encode(),
        b"gfp _X0. (B[0] CB exists0 /\\ AX _X0) \\/ !(K[1] decided[0].1 => EG time.2)".to_vec(),
    ];
    // Nesting deep enough to overflow the stack is refused, not followed.
    for deep in [
        format!("{}exists0", "!".repeat(100_000)),
        format!("{}exists0{}", "(".repeat(100_000), ")".repeat(100_000)),
        format!("exists0{}", " <=> exists0".repeat(100_000)),
    ] {
        assert!(parse_service_formula(&deep).is_err(), "100 000 nesting levels parsed");
    }
    let mut rng = StdRng::seed_from_u64(0xDEC2);
    let inputs: Vec<Vec<u8>> =
        payloads.iter().flat_map(|payload| mutations(payload, &mut rng)).collect();
    assert_no_decoder_panics(&inputs);
}

/// Raw noise, derived from no valid message, panics no decoder either.
#[test]
fn corrupted_payloads_never_panic_the_decoders() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let noise: Vec<Vec<u8>> = (0..1_000)
        .map(|_| {
            let len = rng.gen_range(0..48usize);
            (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect()
        })
        .collect();
    assert_no_decoder_panics(&noise);
}
