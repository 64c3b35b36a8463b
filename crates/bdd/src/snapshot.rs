//! Versioned binary snapshots of a whole BDD manager: the one snapshot
//! format of the workspace.
//!
//! A snapshot captures everything needed to resurrect a manager in another
//! process: the struct-of-arrays node store (variables, low/high edges with
//! their complement bits, and the free-list), the learned level ↔ variable
//! order, the sifting groups, the cache capacity, and the lifetime
//! statistics counters. The caller additionally passes the external
//! [`Ref`]s it wants to survive and a list of plain `u64` words (a client's
//! own tables: the checker stores its model fingerprint, root-list lengths
//! and GC trigger state there); [`Bdd::restore`] hands both back in the
//! same order, the roots valid against the restored manager. A client
//! snapshot is therefore one such stream, never a frame around one.
//!
//! The format is a hand-rolled little-endian byte layout:
//!
//! ```text
//! magic   b"EPMC"                     version u32 (currently 2)
//! flags   u8 (bit 0: complement edges; always set — a stream with the
//!         bit clear is a two-terminal manager and is rejected)
//! cache capacity u64
//! store:  len u64, vars len×u32, lows len×u32, highs len×u32,
//!         free-list u64 + u32s        (u32::MAX tombstone sentinel kept)
//! order:  num_levels u64, level_of u32s, var_at u32s
//! groups: count u64, then per group u64 length + u32 variable indices
//! roots:  count u64 + packed u32 refs (slot << 1 | complement bit)
//! words:  count u64 + u64s            (the caller's, passed through)
//! counters: 9 × u64 (peak live, O(1) negations, gc runs, swept nodes,
//!           reorder runs, reorder swaps, relational products,
//!           image cache hits, image cache misses)
//! checksum u64: FNV-1a over every preceding byte
//! ```
//!
//! **Version policy:** [`SNAPSHOT_VERSION`] must be bumped on *any* change
//! to the layout or field order above — including changes to the
//! complement-edge convention or the tombstone sentinel — and old versions
//! are rejected, never migrated silently. Version 2 added the word
//! section. A client that changes what its words or roots mean bumps this
//! same constant: there is no second version number.
//!
//! **Restore revalidates canonicity.** Decoding never trusts the bytes:
//! lengths are bounds-checked against the remaining input before any
//! allocation, every edge and root is checked to land on an occupied slot,
//! the free-list must tombstone exactly the sentinel slots, the level maps
//! must be inverse permutations, and the final manager is passed through
//! [`Bdd::check_canonical_invariant`] (non-redundancy, ordering, the
//! never-complemented-high convention, unique-table agreement). Corrupt,
//! truncated or wrong-version input yields a [`SnapshotError`], never a
//! panic and never an unsound manager. The checksum detects accidental
//! damage only; it is no MAC, so the checks behind it are what make a
//! deliberately edited stream safe to decode (see [`reseal_snapshot`]).
//!
//! Substitutions registered via [`Bdd::register_substitution`] are *not*
//! serialized: substitution ids are allocated sequentially, so clients
//! re-register theirs after restore and obtain the same ids.

use crate::manager::{Bdd, Node, Ref, Var};
use crate::store::NodeStore;

/// Current snapshot format version. Bump on any change to the byte layout
/// or to the store invariants it encodes (see the module docs).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Magic bytes opening every snapshot.
const MAGIC: [u8; 4] = *b"EPMC";

/// The flag byte every snapshot carries: bit 0, complement edges.
const FLAG_COMPLEMENT_EDGES: u8 = 1;

/// Sentinel variable index marking the terminal slot and tombstones, as
/// stored by the node arena. Part of the format.
const SENTINEL: u32 = u32::MAX;

/// Upper bound accepted for the serialized cache capacity, 16× the default.
/// The caches are allocated up front, so anything larger is treated as
/// corruption rather than honoured with a giant allocation.
const MAX_CACHE_CAPACITY: u64 = 1 << 20;

/// An error produced while decoding a snapshot. Carries a human-readable
/// description of the first violation found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
}

impl SnapshotError {
    fn new(message: impl Into<String>) -> Self {
        SnapshotError { message: message.into() }
    }

    /// The description of the violation.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BDD snapshot rejected: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes` (standard offset basis and prime), used as
/// the snapshot trailer checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Rewrites the trailer checksum (the last eight bytes, which must exist)
/// of an edited snapshot stream, so tests can hand the semantic checks of
/// [`Bdd::restore`] a stream the checksum would otherwise stop.
pub fn reseal_snapshot(bytes: &mut [u8]) {
    let (payload, trailer) = bytes.split_at_mut(bytes.len() - 8);
    trailer.copy_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Little-endian append helpers for the encoder.
fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let raw = self.bytes.get(self.pos..self.pos + N).ok_or_else(|| {
            SnapshotError::new(format!("truncated input (expected {N} more bytes)"))
        })?;
        self.pos += N;
        Ok(raw.try_into().expect("a slice of N bytes"))
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a lifetime counter. No manager counts to 2^63, so a larger
    /// value is corruption, and would overflow on its next increment.
    fn counter(&mut self) -> Result<u64, SnapshotError> {
        let value = self.u64()?;
        if value >= 1 << 63 {
            return Err(SnapshotError::new(format!("implausible counter {value}")));
        }
        Ok(value)
    }

    /// Reads a length-prefixed count, refusing counts whose payload cannot
    /// fit in the remaining bytes (`width` bytes per element).
    fn count(&mut self, width: usize, what: &str) -> Result<usize, SnapshotError> {
        let count = self.u64()?;
        let fits = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(width))
            .is_some_and(|bytes| bytes <= self.remaining());
        if !fits {
            return Err(SnapshotError::new(format!("{what} count {count} exceeds the input")));
        }
        Ok(count as usize)
    }

    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        (0..count).map(|_| self.u32()).collect()
    }
}

impl Bdd {
    /// Serializes the manager, the given external references and the
    /// caller's `words` into the versioned snapshot format (see the module
    /// docs). The operation caches and registered substitutions are *not*
    /// captured: caches are memoisation state, and substitution ids are
    /// deterministic to re-register. `roots` and `words` come back from
    /// [`Bdd::restore`] in order.
    pub fn snapshot(&self, roots: &[Ref], words: &[u64]) -> Vec<u8> {
        let (vars, lows, highs, free) = self.store.raw_parts();
        let mut out = Vec::with_capacity(64 + vars.len() * 12);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        out.push(FLAG_COMPLEMENT_EDGES);
        put_u64(&mut out, self.ite_cache.capacity() as u64);
        put_u64(&mut out, vars.len() as u64);
        for &var in vars {
            put_u32(&mut out, var);
        }
        for &low in lows {
            put_u32(&mut out, low.raw());
        }
        for &high in highs {
            put_u32(&mut out, high.raw());
        }
        put_u64(&mut out, free.len() as u64);
        for &slot in free {
            put_u32(&mut out, slot);
        }
        put_u64(&mut out, self.level_of.len() as u64);
        for &level in &self.level_of {
            put_u32(&mut out, level);
        }
        for &var in &self.var_at {
            put_u32(&mut out, var);
        }
        put_u64(&mut out, self.groups.len() as u64);
        for group in &self.groups {
            put_u64(&mut out, group.len() as u64);
            for &var in group {
                put_u32(&mut out, var.index());
            }
        }
        put_u64(&mut out, roots.len() as u64);
        for &root in roots {
            put_u32(&mut out, root.raw());
        }
        put_u64(&mut out, words.len() as u64);
        for &word in words {
            put_u64(&mut out, word);
        }
        put_u64(&mut out, self.peak_live_nodes as u64);
        put_u64(&mut out, self.o1_negations);
        put_u64(&mut out, self.gc_runs);
        put_u64(&mut out, self.swept_nodes);
        put_u64(&mut out, self.reorder_runs);
        put_u64(&mut out, self.reorder_swaps);
        put_u64(&mut out, self.relational_product_calls);
        put_u64(&mut out, self.image_cache_hits);
        put_u64(&mut out, self.image_cache_misses);
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a snapshot produced by [`Bdd::snapshot`], revalidating every
    /// structural invariant, and returns the manager together with the
    /// caller's roots and words (same order they were passed to the
    /// encoder). The words are returned as stored: their meaning, and
    /// checking it, is the caller's.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any corruption: bad checksum, wrong
    /// magic or version, truncated input, out-of-bounds edges or roots,
    /// free-list / tombstone disagreement, non-permutation level maps,
    /// duplicate node triples, implausible cache capacities or counters, or
    /// a store that fails [`Bdd::check_canonical_invariant`]. Never panics
    /// on untrusted input.
    pub fn restore(bytes: &[u8]) -> Result<(Bdd, Vec<Ref>, Vec<u64>), SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::new("input shorter than the fixed header"));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored_checksum = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a(payload) != stored_checksum {
            return Err(SnapshotError::new("checksum mismatch (corrupt or truncated input)"));
        }
        if payload[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::new("bad magic (not an epimc BDD snapshot)"));
        }
        let mut reader = Reader::new(&payload[MAGIC.len()..]);
        let version = reader.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::new(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        match reader.u8()? {
            FLAG_COMPLEMENT_EDGES => {}
            0 => {
                return Err(SnapshotError::new(
                    "two-terminal snapshot (complement edges off): that representation was \
                     removed, and this build reads complement-edge managers only",
                ))
            }
            flags => return Err(SnapshotError::new(format!("unknown flag bits {flags:#x}"))),
        }
        let capacity = reader.u64()?;
        if capacity == 0 || capacity > MAX_CACHE_CAPACITY {
            return Err(SnapshotError::new(format!("implausible cache capacity {capacity}")));
        }

        // Node store arrays. The slot count must fit the packed-Ref space.
        let store_len = reader.count(12, "node")?;
        if store_len == 0 {
            return Err(SnapshotError::new("empty node store (terminal slot missing)"));
        }
        if store_len > (u32::MAX >> 1) as usize + 1 {
            return Err(SnapshotError::new(format!("node count {store_len} overflows Ref space")));
        }
        let vars = reader.u32_vec(store_len)?;
        let lows: Vec<Ref> = reader.u32_vec(store_len)?.into_iter().map(Ref::from_raw).collect();
        let highs: Vec<Ref> = reader.u32_vec(store_len)?.into_iter().map(Ref::from_raw).collect();
        if vars[0] != SENTINEL || lows[0] != Ref::TRUE || highs[0] != Ref::TRUE {
            return Err(SnapshotError::new("slot 0 is not the terminal node"));
        }

        // Free-list: must tombstone exactly the sentinel slots (besides 0).
        let free_len = reader.count(4, "free-list")?;
        let free = reader.u32_vec(free_len)?;
        let mut tombstoned = vec![false; store_len];
        for &slot in &free {
            let index = slot as usize;
            if index == 0 || index >= store_len {
                return Err(SnapshotError::new(format!("free-list slot {slot} out of bounds")));
            }
            if tombstoned[index] {
                return Err(SnapshotError::new(format!("free-list repeats slot {slot}")));
            }
            if vars[index] != SENTINEL {
                return Err(SnapshotError::new(format!("free-list slot {slot} is not tombstoned")));
            }
            tombstoned[index] = true;
        }
        let sentinel_slots = vars.iter().skip(1).filter(|&&var| var == SENTINEL).count();
        if sentinel_slots != free_len {
            return Err(SnapshotError::new(format!(
                "{sentinel_slots} tombstoned slots but {free_len} free-list entries"
            )));
        }

        // Level maps: var_at must be a permutation (try_set_order verifies),
        // and level_of must be its recorded inverse.
        let num_levels = reader.count(8, "level")?;
        let level_of = reader.u32_vec(num_levels)?;
        let var_at = reader.u32_vec(num_levels)?;
        // Checked before `try_set_order` materialises every variable up to
        // the largest index it is given.
        if let Some(index) = var_at.iter().find(|&&index| index as usize >= num_levels) {
            return Err(SnapshotError::new(format!("order lists unknown variable v{index}")));
        }
        let mut bdd = Bdd::with_cache_capacity(capacity as usize);
        let order: Vec<Var> = var_at.iter().map(|&index| Var::new(index)).collect();
        bdd.try_set_order(order).map_err(|message| {
            SnapshotError::new(format!("invalid serialized variable order: {message}"))
        })?;
        if bdd.level_of != level_of {
            return Err(SnapshotError::new("level_of is not the inverse of var_at"));
        }

        // Every occupied slot must test a known variable and point both
        // edges at the terminal or an occupied slot.
        let occupied =
            |r: Ref| r.index() < store_len && (r.index() == 0 || vars[r.index()] != SENTINEL);
        for slot in 1..store_len {
            if vars[slot] == SENTINEL {
                continue;
            }
            if (vars[slot] as usize) >= num_levels {
                return Err(SnapshotError::new(format!(
                    "slot {slot} tests unknown variable v{}",
                    vars[slot]
                )));
            }
            if !occupied(lows[slot]) || !occupied(highs[slot]) {
                return Err(SnapshotError::new(format!("slot {slot} has a dangling child edge")));
            }
        }

        // Groups: known, pairwise-disjoint variables.
        let group_count = reader.count(8, "group")?;
        let mut groups = Vec::with_capacity(group_count);
        let mut grouped = vec![false; num_levels];
        for _ in 0..group_count {
            let len = reader.count(4, "group member")?;
            let mut group = Vec::with_capacity(len);
            for _ in 0..len {
                let index = reader.u32()?;
                if (index as usize) >= num_levels {
                    return Err(SnapshotError::new(format!(
                        "group lists unknown variable v{index}"
                    )));
                }
                if grouped[index as usize] {
                    return Err(SnapshotError::new(format!("variable v{index} in two groups")));
                }
                grouped[index as usize] = true;
                group.push(Var::new(index));
            }
            if group.is_empty() {
                return Err(SnapshotError::new("empty variable group"));
            }
            groups.push(group);
        }

        // Roots: packed refs into the occupied part of the store.
        let root_count = reader.count(4, "root")?;
        let mut roots = Vec::with_capacity(root_count);
        for _ in 0..root_count {
            let root = Ref::from_raw(reader.u32()?);
            if !occupied(root) {
                return Err(SnapshotError::new("root reference points at a dangling slot"));
            }
            roots.push(root);
        }

        let word_count = reader.count(8, "word")?;
        let words = (0..word_count).map(|_| reader.u64()).collect::<Result<Vec<u64>, _>>()?;

        let peak_live_nodes = reader.counter()?;
        bdd.o1_negations = reader.counter()?;
        bdd.gc_runs = reader.counter()?;
        bdd.swept_nodes = reader.counter()?;
        bdd.reorder_runs = reader.counter()?;
        bdd.reorder_swaps = reader.counter()?;
        bdd.relational_product_calls = reader.counter()?;
        bdd.image_cache_hits = reader.counter()?;
        bdd.image_cache_misses = reader.counter()?;
        if reader.remaining() != 0 {
            return Err(SnapshotError::new(format!(
                "{} trailing bytes after the snapshot payload",
                reader.remaining()
            )));
        }

        // Install the store, rebuild the unique table slot by slot, and
        // re-run the full canonicity check (non-redundancy, ordering,
        // complement convention) over the untrusted structure.
        bdd.store = NodeStore::from_raw_parts(vars, lows, highs, free);
        for slot in 1..store_len {
            if bdd.store.is_free(slot) {
                continue;
            }
            let node: Node = bdd.store.get(slot);
            if bdd.unique.insert(node, Ref::from_index(slot)).is_some() {
                return Err(SnapshotError::new(format!(
                    "slot {slot} duplicates another slot's node triple"
                )));
            }
        }
        bdd.groups = groups;
        bdd.peak_live_nodes =
            usize::try_from(peak_live_nodes).unwrap_or(usize::MAX).max(bdd.store.live());
        bdd.check_canonical_invariant()
            .map_err(|message| SnapshotError::new(format!("canonicity violated: {message}")))?;
        Ok((bdd, roots, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_truth_table_order_and_counters() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let xy = bdd.and(x, y);
        let f = bdd.xor(xy, z);
        let g = bdd.not(f);
        let bytes = bdd.snapshot(&[f, g], &[7, u64::MAX]);
        let (restored, roots, words) = Bdd::restore(&bytes).expect("round trip");
        assert_eq!(roots.len(), 2);
        assert_eq!(words, [7, u64::MAX]);
        assert_eq!(restored.current_order(), bdd.current_order());
        for assignment in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|bit| assignment >> bit & 1 == 1).collect();
            assert_eq!(restored.eval_bits(roots[0], &bits), bdd.eval_bits(f, &bits));
            assert_eq!(restored.eval_bits(roots[1], &bits), bdd.eval_bits(g, &bits));
        }
        assert_eq!(restored.stats().peak_live_nodes, bdd.stats().peak_live_nodes);
        assert_eq!(restored.stats().o1_negations, bdd.stats().o1_negations);
    }

    #[test]
    fn rejects_wrong_version() {
        let bdd = Bdd::new();
        let mut bytes = bdd.snapshot(&[], &[]);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        reseal_snapshot(&mut bytes);
        let error = Bdd::restore(&bytes).unwrap_err();
        assert!(error.message().contains("version 99"), "{error}");
    }

    #[test]
    fn rejects_bad_checksum_and_truncation() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let mut bytes = bdd.snapshot(&[x], &[1, 2]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(Bdd::restore(&bytes).is_err());
        bytes[last] ^= 0xff;
        for cut in 0..bytes.len() {
            assert!(Bdd::restore(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }
}
