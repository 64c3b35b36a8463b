//! Versioned binary snapshots of a whole BDD manager.
//!
//! A snapshot captures everything needed to resurrect a manager in another
//! process: the struct-of-arrays node store (variables, low/high edges with
//! their complement bits, and the free-list), the learned level ↔ variable
//! order, the sifting groups, the cache capacity, and the lifetime
//! statistics counters. The caller additionally passes the
//! external [`Ref`]s it wants to survive; [`Bdd::restore`] hands them back
//! in the same order, valid against the restored manager.
//!
//! The workspace `serde` is a no-op compatibility stub, so the format is a
//! hand-rolled little-endian byte layout:
//!
//! ```text
//! magic   b"EPMC"                     version u32 (currently 1)
//! flags   u8 (bit 0: complement edges; always set — a stream with the
//!         bit clear is a two-terminal manager and is rejected)
//! cache capacity u64
//! store:  len u64, vars len×u32, lows len×u32, highs len×u32,
//!         free-list u64 + u32s        (u32::MAX tombstone sentinel kept)
//! order:  num_levels u64, level_of u32s, var_at u32s
//! groups: count u64, then per group u64 length + u32 variable indices
//! roots:  count u64 + packed u32 refs (slot << 1 | complement bit)
//! counters: 9 × u64 (peak live, O(1) negations, gc runs, swept nodes,
//!           reorder runs, reorder swaps, relational products,
//!           image cache hits, image cache misses)
//! checksum u64: FNV-1a over every preceding byte
//! ```
//!
//! **Version policy:** [`SNAPSHOT_VERSION`] must be bumped on *any* change
//! to the store layout or field order above — including changes to the
//! complement-edge convention or the tombstone sentinel — and old versions
//! are rejected, never migrated silently.
//!
//! **Restore revalidates canonicity.** Decoding never trusts the bytes:
//! lengths are bounds-checked against the remaining input before any
//! allocation, every edge and root is checked to land on an occupied slot,
//! the free-list must tombstone exactly the sentinel slots, the level maps
//! must be inverse permutations, and the final manager is passed through
//! [`Bdd::check_canonical_invariant`] (non-redundancy, ordering, the
//! never-complemented-high convention, unique-table agreement). Corrupt,
//! truncated or wrong-version input yields a [`SnapshotError`], never a
//! panic and never an unsound manager.
//!
//! Substitutions registered via [`Bdd::register_substitution`] are *not*
//! serialized: substitution ids are allocated sequentially, so clients
//! re-register theirs after restore and obtain the same ids.

use crate::manager::{Bdd, Node, Ref, Var};
use crate::store::NodeStore;

/// Current snapshot format version. Bump on any change to the byte layout
/// or to the store invariants it encodes (see the module docs).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic bytes opening every snapshot.
const MAGIC: [u8; 4] = *b"EPMC";

/// The flag byte every snapshot carries: bit 0, complement edges.
const FLAG_COMPLEMENT_EDGES: u8 = 1;

/// Sentinel variable index marking the terminal slot and tombstones, as
/// stored by the node arena. Part of the format.
const SENTINEL: u32 = u32::MAX;

/// Upper bound accepted for the serialized cache capacity; anything larger
/// is treated as corruption rather than honoured with a giant allocation.
const MAX_CACHE_CAPACITY: u64 = 1 << 28;

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

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        if self.remaining() < 1 {
            return Err(SnapshotError::new("truncated input (expected a byte)"));
        }
        let value = self.bytes[self.pos];
        self.pos += 1;
        Ok(value)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        if self.remaining() < 4 {
            return Err(SnapshotError::new("truncated input (expected a u32)"));
        }
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        if self.remaining() < 8 {
            return Err(SnapshotError::new("truncated input (expected a u64)"));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(raw))
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
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(self.u32()?);
        }
        Ok(values)
    }
}

impl Bdd {
    /// Serializes the manager and the given external references into the
    /// versioned snapshot format (see the module docs). The operation
    /// caches and registered substitutions are *not* captured: caches are
    /// memoisation state, and substitution ids are deterministic to
    /// re-register. `roots` come back from [`Bdd::restore`] in order.
    pub fn snapshot(&self, roots: &[Ref]) -> Vec<u8> {
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
    /// caller's roots (same order they were passed to the encoder).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any corruption: bad checksum, wrong
    /// magic or version, truncated input, out-of-bounds edges or roots,
    /// free-list / tombstone disagreement, non-permutation level maps,
    /// duplicate node triples, or a store that fails
    /// [`Bdd::check_canonical_invariant`]. Never panics on untrusted input.
    pub fn restore(bytes: &[u8]) -> Result<(Bdd, Vec<Ref>), SnapshotError> {
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

        let peak_live_nodes = reader.u64()?;
        bdd.o1_negations = reader.u64()?;
        bdd.gc_runs = reader.u64()?;
        bdd.swept_nodes = reader.u64()?;
        bdd.reorder_runs = reader.u64()?;
        bdd.reorder_swaps = reader.u64()?;
        bdd.relational_product_calls = reader.u64()?;
        bdd.image_cache_hits = reader.u64()?;
        bdd.image_cache_misses = reader.u64()?;
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
        Ok((bdd, roots))
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
        let bytes = bdd.snapshot(&[f, g]);
        let (restored, roots) = Bdd::restore(&bytes).expect("round trip");
        assert_eq!(roots.len(), 2);
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
        let mut bytes = bdd.snapshot(&[]);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let checksum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
        let error = Bdd::restore(&bytes).unwrap_err();
        assert!(error.message().contains("version 99"), "{error}");
    }

    #[test]
    fn rejects_bad_checksum_and_truncation() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let mut bytes = bdd.snapshot(&[x]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(Bdd::restore(&bytes).is_err());
        bytes[last] ^= 0xff;
        for cut in 0..bytes.len() {
            assert!(Bdd::restore(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }
}
