//! Dynamic variable reordering: in-place adjacent-level swaps and Rudell
//! *group sifting* over the unique table.
//!
//! The manager separates a variable's identity ([`Var`]) from its *level*
//! (position in the order). The primitive move is [`Bdd::swap_adjacent_levels`],
//! which exchanges two adjacent levels by rewriting only the nodes at the
//! upper level **in place** — every external [`Ref`] keeps denoting the same
//! boolean function, because a node's slot never changes, only its test
//! variable and children. [`Bdd::reorder`] builds Rudell sifting on top:
//! each variable block is moved through the whole order, the live-node count
//! is tracked after every swap, and the block is parked at the position that
//! minimised it.
//!
//! Sifting moves *blocks*, not single variables, when groups are registered
//! with [`Bdd::set_groups`]: a symbolic transition relation keeps each
//! current-state variable directly above its primed copy, and tearing such a
//! pair apart would wreck the pre-image computation that relies on the
//! pairing. A group always occupies adjacent levels and is swapped past its
//! neighbour block as a unit (an `a × b` sequence of adjacent swaps).
//!
//! # Reference validity
//!
//! [`Bdd::swap_adjacent_levels`] preserves every `Ref` (it leaves the
//! orphaned nodes of rewritten levels for the next collection).
//! [`Bdd::reorder`] has the **same contract as [`Bdd::gc`]**: it collects
//! before and after sifting, so every handle the caller still needs must be
//! passed as a root (it is remapped in place) and all other non-terminal
//! references are invalidated. The operation caches are dropped by those
//! collections (their per-epoch counters keep counting).

use crate::manager::{Bdd, Node, Ref, Var};

/// How [`Bdd::reorder`] moves variables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReorderPolicy {
    /// Rudell sifting over the variable groups registered with
    /// [`Bdd::set_groups`]: each group moves through the order as a block,
    /// so intentionally adjacent variables (e.g. the current/primed pairs of
    /// a transition relation) stay adjacent. Ungrouped variables sift as
    /// singleton blocks.
    #[default]
    GroupSift,
    /// Plain Rudell sifting of individual variables, ignoring registered
    /// groups. Groups may be torn apart; a later `GroupSift` on the same
    /// manager panics if its groups no longer occupy adjacent levels.
    Sift,
}

/// Statistics returned by one [`Bdd::reorder`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Live nodes after the initial collection, before any sifting.
    pub initial_live_nodes: usize,
    /// Live nodes after sifting and the final collection.
    pub final_live_nodes: usize,
    /// Adjacent-level swaps performed.
    pub swaps: u64,
    /// Blocks (groups or singletons) that were sifted.
    pub sifted_blocks: usize,
}

impl ReorderStats {
    /// Fraction of live nodes eliminated by the run, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.initial_live_nodes == 0 {
            0.0
        } else {
            1.0 - self.final_live_nodes as f64 / self.initial_live_nodes as f64
        }
    }
}

/// A sweep direction aborts once the live-node count exceeds the best seen
/// so far by this factor (Rudell's max-growth heuristic): best + best / 5,
/// i.e. 1.2×.
fn growth_bound(best: usize) -> usize {
    best + best / 5
}

/// Bookkeeping alive only while a [`Bdd::reorder`] call runs: exact
/// reference counts (external roots included) and per-level node lists.
/// Slot recycling itself lives in the node store's unified free-list
/// ([`crate::Bdd::gc`], `mk` and the sifter all share it), and the exact
/// live-node objective is the store's occupied count.
struct ReorderCtx {
    /// Per-slot reference count: one per parent in the store, plus one per
    /// caller root. Zero marks a dead slot awaiting reuse or the final
    /// sweep. The terminal slot is never counted (it is never freed).
    ref_count: Vec<u32>,
    /// Node slots per level. May contain stale entries for slots freed (and
    /// possibly reused elsewhere) since the list was built; consumers filter
    /// by `ref_count` and the node's actual variable.
    at_level: Vec<Vec<u32>>,
    /// Adjacent swaps performed so far.
    swaps: u64,
}

impl ReorderCtx {
    #[inline]
    fn inc(&mut self, r: Ref) {
        if !r.is_terminal() {
            self.ref_count[r.index()] += 1;
        }
    }
}

impl Bdd {
    /// Registers the variable groups that [`ReorderPolicy::GroupSift`] moves
    /// as blocks. Groups must be pairwise disjoint; each group must occupy
    /// adjacent levels by the time a group-sifting reorder runs (fresh
    /// variables are levelled in index order, so registering e.g. the pairs
    /// `[2s, 2s+1]` before any reordering satisfies this). Variables in no
    /// group sift individually.
    ///
    /// # Panics
    ///
    /// Panics if a group is empty or a variable appears in two groups.
    pub fn set_groups(&mut self, groups: Vec<Vec<Var>>) {
        let mut seen = std::collections::HashSet::new();
        for group in &groups {
            assert!(!group.is_empty(), "empty variable group");
            for &var in group {
                self.ensure_var(var);
                assert!(seen.insert(var), "variable {var} appears in two groups");
            }
        }
        self.groups = groups;
    }

    /// The variable groups registered with [`Bdd::set_groups`].
    pub fn groups(&self) -> &[Vec<Var>] {
        &self.groups
    }

    /// Exchanges the variables at `upper_level` and `upper_level + 1` by
    /// rewriting the affected nodes **in place**.
    ///
    /// Every [`Ref`] stays valid and keeps denoting the same boolean
    /// function; the operation caches also remain sound (their entries are
    /// function-level identities between surviving references). Nodes
    /// orphaned by the rewrite are left in the store for the next
    /// [`Bdd::gc`] — use [`Bdd::reorder`] for swap sequences that should
    /// track and reclaim their garbage as they go.
    ///
    /// # Panics
    ///
    /// Panics if `upper_level + 1` is not a materialised level.
    pub fn swap_adjacent_levels(&mut self, upper_level: u32) {
        let l = upper_level as usize;
        assert!(
            l + 1 < self.num_levels(),
            "swap_adjacent_levels({upper_level}): level {} does not exist",
            upper_level + 1
        );
        let x = Var::new(self.var_at[l]);
        let y = Var::new(self.var_at[l + 1]);
        // Flip the bookkeeping first so nodes rebuilt below are created at
        // their post-swap levels.
        self.var_at.swap(l, l + 1);
        self.level_of[x.index() as usize] = (l + 1) as u32;
        self.level_of[y.index() as usize] = l as u32;
        let targets: Vec<usize> = (1..self.store.len())
            .filter(|&slot| {
                !self.store.is_free(slot) && {
                    let node = self.store.get(slot);
                    node.var == x && (self.tests(node.low, y) || self.tests(node.high, y))
                }
            })
            .collect();
        for slot in targets {
            let node = self.store.get(slot);
            let (f00, f01, f10, f11) = self.swap_cofactors(node, y);
            // The two new children test x (now the lower level); `mk`
            // hash-conses them, possibly reviving structure that already
            // exists. Nodes of x that do not depend on y are untouched —
            // they simply sit one level deeper now. The stored then-edge of
            // this node is regular, so f11 is regular, so h1 comes back
            // regular and the in-place rewrite keeps the complement
            // convention.
            let h0 = self.mk(x, f00, f10);
            let h1 = self.mk(x, f01, f11);
            debug_assert_ne!(h0, h1, "swap produced a redundant node");
            self.unique.remove(&node);
            let rewritten = Node { var: y, low: h0, high: h1 };
            debug_assert!(!rewritten.high.is_complement(), "swap produced a non-canonical node");
            self.store.set(slot, rewritten);
            let previous = self.unique.insert(rewritten, Ref::from_index(slot));
            debug_assert!(previous.is_none(), "swap produced a duplicate node");
        }
        self.reorder_swaps += 1;
    }

    #[inline]
    fn tests(&self, r: Ref, var: Var) -> bool {
        !r.is_terminal() && self.store.var(r.index()) == var
    }

    /// The four cofactors of `node`'s children with respect to `y` (a child
    /// not testing `y` is constant in it). Children are resolved *through*
    /// the stored edge, so a complemented low-edge pushes its bit onto both
    /// of its cofactors.
    #[inline]
    fn swap_cofactors(&self, node: Node, y: Var) -> (Ref, Ref, Ref, Ref) {
        let (f00, f01) = if self.tests(node.low, y) {
            let slot = node.low.index();
            (self.store.low(slot).through(node.low), self.store.high(slot).through(node.low))
        } else {
            (node.low, node.low)
        };
        let (f10, f11) = if self.tests(node.high, y) {
            let slot = node.high.index();
            (self.store.low(slot).through(node.high), self.store.high(slot).through(node.high))
        } else {
            (node.high, node.high)
        };
        (f00, f01, f10, f11)
    }

    /// Asserts the structural ordering invariant over the whole store: every
    /// node's children sit strictly below it in *level*, and no node is
    /// redundant. A test/debug helper — swap bugs corrupt exactly this.
    pub fn check_level_invariant(&self) {
        for slot in 1..self.store.len() {
            if self.store.is_free(slot) {
                continue;
            }
            let node = self.store.get(slot);
            let level = self.level(node.var);
            assert!(
                self.node_level(node.low) > level && self.node_level(node.high) > level,
                "node {slot} ({:?}, level {level}) has a child at or above its level",
                node.var
            );
            assert_ne!(node.low, node.high, "node {slot} is redundant");
        }
    }

    /// Dynamic variable reordering by Rudell sifting (grouped or plain, see
    /// [`ReorderPolicy`]).
    ///
    /// Collects (rooting `roots`, exactly as [`Bdd::gc`] does), sifts every
    /// block to the position minimising the live-node count — tracking exact
    /// reference counts so the objective stays truthful mid-sift — and
    /// collects again to compact the store. **Same invalidation contract as
    /// `gc`**: the given roots are remapped in place; every other
    /// non-terminal `Ref` is invalidated, and the operation caches are
    /// cleared (counters keep their epoch).
    pub fn reorder<'a, I: IntoIterator<Item = &'a mut Ref>>(
        &mut self,
        policy: ReorderPolicy,
        roots: I,
    ) -> ReorderStats {
        let mut root_slots: Vec<&'a mut Ref> = roots.into_iter().collect();
        // Compact first: exact live counts, no pre-existing garbage, and
        // caches cleared (they would otherwise pin dead references while
        // slots get reused mid-sift).
        self.gc(root_slots.iter_mut().map(|slot| &mut **slot));
        let initial_live_nodes = self.store.live();
        self.reorder_runs += 1;
        if self.num_levels() < 2 {
            return ReorderStats {
                initial_live_nodes,
                final_live_nodes: initial_live_nodes,
                swaps: 0,
                sifted_blocks: 0,
            };
        }

        let mut blocks = self.blocks_for(policy);
        let mut ctx = ReorderCtx {
            ref_count: vec![0; self.store.len()],
            at_level: vec![Vec::new(); self.num_levels()],
            swaps: 0,
        };
        // The collection above compacted the store, so every slot from 1 on
        // is occupied.
        for slot in 1..self.store.len() {
            let node = self.store.get(slot);
            ctx.inc(node.low);
            ctx.inc(node.high);
            ctx.at_level[self.level(node.var) as usize].push(slot as u32);
        }
        for root in &root_slots {
            ctx.inc(**root);
        }

        // Sift blocks in decreasing node-count order (Rudell's heuristic:
        // the fattest levels have the most to gain), ties broken by the
        // representative variable for determinism.
        let mut schedule: Vec<(usize, Var)> = blocks
            .iter()
            .map(|block| {
                let size: usize =
                    block.iter().map(|&var| ctx.at_level[self.level(var) as usize].len()).sum();
                (size, block[0])
            })
            .collect();
        schedule.sort_unstable_by_key(|&(size, var)| (std::cmp::Reverse(size), var.index()));
        let mut sifted_blocks = 0;
        for (size, representative) in schedule {
            if size == 0 {
                continue;
            }
            let position = self.block_position(&blocks, representative);
            self.sift_block(&mut blocks, position, &mut ctx);
            sifted_blocks += 1;
        }

        let swaps = ctx.swaps;
        self.reorder_swaps += swaps;
        drop(ctx);
        // Compact the dead slots left behind by the sift; this also rebuilds
        // the unique table and remaps the caller's roots.
        self.gc(root_slots.iter_mut().map(|slot| &mut **slot));
        ReorderStats {
            initial_live_nodes,
            final_live_nodes: self.store.live(),
            swaps,
            sifted_blocks,
        }
    }

    /// The block partition of the current order for `policy`, in level
    /// order; every block occupies adjacent levels.
    fn blocks_for(&self, policy: ReorderPolicy) -> Vec<Vec<Var>> {
        let num_levels = self.num_levels();
        if policy == ReorderPolicy::Sift || self.groups.is_empty() {
            return (0..num_levels).map(|level| vec![self.var_at_level(level as u32)]).collect();
        }
        let mut owner: Vec<Option<usize>> = vec![None; num_levels];
        for (group_id, group) in self.groups.iter().enumerate() {
            let mut levels: Vec<u32> = group.iter().map(|&var| self.level(var)).collect();
            levels.sort_unstable();
            for pair in levels.windows(2) {
                assert_eq!(
                    pair[0] + 1,
                    pair[1],
                    "variable group {group_id} no longer occupies adjacent levels"
                );
            }
            for &level in &levels {
                owner[level as usize] = Some(group_id);
            }
        }
        let mut blocks = Vec::new();
        let mut level = 0;
        while level < num_levels {
            match owner[level] {
                Some(group_id) => {
                    let mut members = self.groups[group_id].clone();
                    members.sort_unstable_by_key(|&var| self.level(var));
                    level += members.len();
                    blocks.push(members);
                }
                None => {
                    blocks.push(vec![self.var_at_level(level as u32)]);
                    level += 1;
                }
            }
        }
        blocks
    }

    /// The index of the block whose first (root-most) member is
    /// `representative`.
    fn block_position(&self, blocks: &[Vec<Var>], representative: Var) -> usize {
        let level = self.level(representative);
        let mut start = 0;
        for (index, block) in blocks.iter().enumerate() {
            start += block.len();
            if (level as usize) < start {
                return index;
            }
        }
        unreachable!("level {level} beyond the block partition");
    }

    /// Sifts the block at `position` to the location minimising the live
    /// node count: sweep toward the nearer end first, then across to the
    /// other end, then park at the best position seen. Each sweep direction
    /// aborts early once the count exceeds the max-growth bound.
    fn sift_block(&mut self, blocks: &mut [Vec<Var>], position: usize, ctx: &mut ReorderCtx) {
        let last = blocks.len() - 1;
        let mut best = self.store.live();
        let mut best_position = position;
        let mut current = position;
        let down_first = last - position <= position;
        for down in [down_first, !down_first] {
            loop {
                if down {
                    if current == last {
                        break;
                    }
                    self.block_swap(blocks, current, ctx);
                    current += 1;
                } else {
                    if current == 0 {
                        break;
                    }
                    self.block_swap(blocks, current - 1, ctx);
                    current -= 1;
                }
                if self.store.live() < best {
                    best = self.store.live();
                    best_position = current;
                }
                if self.store.live() > growth_bound(best) {
                    break;
                }
            }
        }
        while current < best_position {
            self.block_swap(blocks, current, ctx);
            current += 1;
        }
        while current > best_position {
            self.block_swap(blocks, current - 1, ctx);
            current -= 1;
        }
    }

    /// Swaps the adjacent blocks at `index` and `index + 1` (an `a × b`
    /// sequence of adjacent-level swaps that slides the upper block below
    /// the lower one member by member).
    fn block_swap(&mut self, blocks: &mut [Vec<Var>], index: usize, ctx: &mut ReorderCtx) {
        let upper_len = blocks[index].len();
        let lower_len = blocks[index + 1].len();
        let start: usize = blocks[..index].iter().map(|block| block.len()).sum();
        for member in (0..upper_len).rev() {
            for step in 0..lower_len {
                self.swap_with_ctx(start + member + step, ctx);
            }
        }
        blocks.swap(index, index + 1);
    }

    /// The reference-counted adjacent-level swap used while sifting: same
    /// rewrite as [`Bdd::swap_adjacent_levels`], but nodes orphaned by the
    /// rewrite are freed immediately (cascading), their slots recycled
    /// through the store's free-list, and the per-level node lists
    /// maintained — which is what keeps a whole sifting pass
    /// O(nodes touched) instead of O(store) per swap, and the live-node
    /// objective exact.
    fn swap_with_ctx(&mut self, l: usize, ctx: &mut ReorderCtx) {
        let x = Var::new(self.var_at[l]);
        let y = Var::new(self.var_at[l + 1]);
        self.var_at.swap(l, l + 1);
        self.level_of[x.index() as usize] = (l + 1) as u32;
        self.level_of[y.index() as usize] = l as u32;
        let x_slots = std::mem::take(&mut ctx.at_level[l]);
        let y_slots = std::mem::take(&mut ctx.at_level[l + 1]);
        let mut created: Vec<u32> = Vec::new();
        for &slot in &x_slots {
            let index = slot as usize;
            // Filter stale list entries: slots freed since the list was
            // built (and possibly reused for a node of another level).
            if ctx.ref_count[index] == 0 {
                continue;
            }
            let node = self.store.get(index);
            if node.var != x {
                continue;
            }
            if !self.tests(node.low, y) && !self.tests(node.high, y) {
                continue; // Independent of y: keeps testing x, one level deeper.
            }
            let (f00, f01, f10, f11) = self.swap_cofactors(node, y);
            // Own one reference to each cofactor while the children are
            // rebuilt (protects shared structure from the cascade below).
            ctx.inc(f00);
            ctx.inc(f01);
            ctx.inc(f10);
            ctx.inc(f11);
            let h0 = self.reorder_mk(ctx, &mut created, x, f00, f10);
            let h1 = self.reorder_mk(ctx, &mut created, x, f01, f11);
            debug_assert_ne!(h0, h1, "swap produced a redundant node");
            let removed = self.unique.remove(&node);
            debug_assert_eq!(removed, Some(Ref::from_index(index)));
            // Release the node's references to its old children; orphaned
            // subgraphs are freed (and their slots recycled) right here.
            self.free_ref(ctx, node.low);
            self.free_ref(ctx, node.high);
            // f11 is regular (the stored then-edge is never complemented),
            // so h1 is regular and the rewrite stays canonical.
            let rewritten = Node { var: y, low: h0, high: h1 };
            debug_assert!(!rewritten.high.is_complement(), "swap produced a non-canonical node");
            self.store.set(index, rewritten);
            let previous = self.unique.insert(rewritten, Ref::from_index(index));
            debug_assert!(previous.is_none(), "swap produced a duplicate node");
        }
        // Rebuild the two level lists from the swap's candidates. A stale
        // slot that was freed from one of these levels and reused at another
        // is already listed at its new level — drop it here.
        let mut candidates = x_slots;
        candidates.extend(y_slots);
        candidates.extend(created);
        candidates.sort_unstable();
        candidates.dedup();
        for slot in candidates {
            let index = slot as usize;
            if ctx.ref_count[index] == 0 {
                continue;
            }
            let level = self.level(self.store.var(index)) as usize;
            if level == l || level == l + 1 {
                ctx.at_level[level].push(slot);
            }
        }
        ctx.swaps += 1;
    }

    /// Hash-consing node constructor for the sifting swap. Reference
    /// protocol: consumes one caller-owned reference on each of `low` and
    /// `high`, returns the result carrying one caller-owned reference.
    fn reorder_mk(
        &mut self,
        ctx: &mut ReorderCtx,
        created: &mut Vec<u32>,
        var: Var,
        low: Ref,
        high: Ref,
    ) -> Ref {
        if low == high {
            self.free_ref(ctx, high); // Release one of the two references.
            return low;
        }
        // Same canonicalization as `mk`: a complemented then-edge flips to
        // the negated node. Reference counts are per-slot (the complement
        // bit is stripped by `Ref::index`), so the ownership protocol is
        // untouched by the negations.
        if high.is_complement() {
            let negated = self.reorder_mk(ctx, created, var, low.negate(), high.negate());
            return negated.negate();
        }
        debug_assert!(
            self.node_level(low) > self.level(var) && self.node_level(high) > self.level(var),
            "reorder_mk would violate the level invariant"
        );
        let node = Node { var, low, high };
        if let Some(&existing) = self.unique.get(&node) {
            // The existing node already owns references to the children.
            ctx.inc(existing);
            self.free_ref(ctx, low);
            self.free_ref(ctx, high);
            return existing;
        }
        let index = self.store.alloc(node);
        if index == ctx.ref_count.len() {
            ctx.ref_count.push(0);
        }
        ctx.ref_count[index] = 1;
        self.peak_live_nodes = self.peak_live_nodes.max(self.store.live());
        self.unique.insert(node, Ref::from_index(index));
        created.push(index as u32);
        Ref::from_index(index)
    }

    /// Releases one reference to `r`; at zero the node dies — removed from
    /// the unique table, its slot recycled through the store's free-list,
    /// and its own child references released in cascade. (A node's
    /// recursion depth is bounded by the number of levels.)
    fn free_ref(&mut self, ctx: &mut ReorderCtx, r: Ref) {
        if r.is_terminal() {
            return;
        }
        let index = r.index();
        debug_assert!(ctx.ref_count[index] > 0, "reference-count underflow");
        ctx.ref_count[index] -= 1;
        if ctx.ref_count[index] == 0 {
            let node = self.store.get(index);
            let removed = self.unique.remove(&node);
            debug_assert_eq!(removed, Some(r.regular()));
            self.store.free_slot(index);
            self.free_ref(ctx, node.low);
            self.free_ref(ctx, node.high);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(bdd: &Bdd, f: Ref, num_vars: u32) -> Vec<bool> {
        (0u32..(1 << num_vars))
            .map(|bits| {
                let assignment: Vec<bool> = (0..num_vars).map(|i| bits & (1 << i) != 0).collect();
                bdd.eval_bits(f, &assignment)
            })
            .collect()
    }

    #[test]
    fn swap_preserves_semantics_and_refs() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let xy = bdd.and(x, y);
        let f = bdd.or(xy, z);
        let table = truth_table(&bdd, f, 3);
        bdd.swap_adjacent_levels(0);
        assert_eq!(bdd.level_of_var(Var::new(0)), 1);
        assert_eq!(bdd.level_of_var(Var::new(1)), 0);
        assert_eq!(bdd.var_at_level(0), Var::new(1));
        bdd.check_level_invariant();
        // The same Ref still denotes the same function.
        assert_eq!(truth_table(&bdd, f, 3), table);
        assert_eq!(bdd.stats().reorder_swaps, 1);
        // Swapping back restores the original order.
        bdd.swap_adjacent_levels(0);
        assert_eq!(bdd.var_at_level(0), Var::new(0));
        assert_eq!(truth_table(&bdd, f, 3), table);
    }

    #[test]
    fn reorder_shrinks_an_order_sensitive_function() {
        // f = (x0 ∧ x3) ∨ (x1 ∧ x4) ∨ (x2 ∧ x5) under the order
        // x0 x1 x2 x3 x4 x5 needs exponentially many nodes; the paired
        // order x0 x3 x1 x4 x2 x5 needs a linear number. Sifting must find
        // a small order.
        let mut bdd = Bdd::new();
        let mut f = Ref::FALSE;
        for pair in 0..3 {
            let a = bdd.var(Var::new(pair));
            let b = bdd.var(Var::new(pair + 3));
            let both = bdd.and(a, b);
            f = bdd.or(f, both);
        }
        let table = truth_table(&bdd, f, 6);
        bdd.gc([&mut f]);
        let before = bdd.live_nodes();
        let stats = bdd.reorder(ReorderPolicy::Sift, [&mut f]);
        assert_eq!(stats.initial_live_nodes, before);
        assert_eq!(stats.final_live_nodes, bdd.live_nodes());
        assert!(stats.swaps > 0);
        assert!(
            stats.final_live_nodes < stats.initial_live_nodes,
            "sifting must shrink the interleaving-hostile order ({} -> {})",
            stats.initial_live_nodes,
            stats.final_live_nodes
        );
        assert!(stats.reduction() > 0.0);
        bdd.check_level_invariant();
        assert_eq!(truth_table(&bdd, f, 6), table);
        assert_eq!(bdd.stats().reorder_runs, 1);
        assert_eq!(bdd.stats().reorder_swaps, stats.swaps);
    }

    #[test]
    fn group_sifting_keeps_pairs_adjacent() {
        let mut bdd = Bdd::new();
        let groups: Vec<Vec<Var>> =
            (0..3).map(|s| vec![Var::new(2 * s), Var::new(2 * s + 1)]).collect();
        bdd.set_groups(groups.clone());
        assert_eq!(bdd.groups(), &groups[..]);
        // An order-sensitive function over the *pair* variables.
        let mut f = Ref::FALSE;
        for pair in 0..3 {
            let a = bdd.var(Var::new(2 * pair));
            let b = bdd.var(Var::new((2 * pair + 3) % 6));
            let both = bdd.and(a, b);
            f = bdd.or(f, both);
        }
        let table = truth_table(&bdd, f, 6);
        bdd.reorder(ReorderPolicy::GroupSift, [&mut f]);
        bdd.check_level_invariant();
        assert_eq!(truth_table(&bdd, f, 6), table);
        // Every registered pair still occupies adjacent levels.
        for group in &groups {
            let mut levels: Vec<u32> = group.iter().map(|&v| bdd.level_of_var(v)).collect();
            levels.sort_unstable();
            assert_eq!(levels[0] + 1, levels[1], "pair {group:?} torn apart");
        }
    }

    #[test]
    fn reorder_of_an_empty_manager_is_a_no_op() {
        let mut bdd = Bdd::new();
        let stats = bdd.reorder(ReorderPolicy::GroupSift, []);
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.initial_live_nodes, 1);
        assert_eq!(stats.final_live_nodes, 1);
        assert_eq!(bdd.stats().reorder_runs, 1);
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn overlapping_groups_are_rejected() {
        let mut bdd = Bdd::new();
        bdd.set_groups(vec![vec![Var::new(0), Var::new(1)], vec![Var::new(1), Var::new(2)]]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn swap_beyond_the_levels_is_rejected() {
        let mut bdd = Bdd::new();
        let _ = bdd.var(Var::new(0));
        bdd.swap_adjacent_levels(0);
    }

    #[test]
    fn reorder_with_unmaterialised_group_members_is_safe() {
        // Groups may mention variables no diagram tests yet (the checker
        // registers current/primed pairs before the relation machinery
        // materialises the primed copies).
        let mut bdd = Bdd::new();
        bdd.set_groups(vec![vec![Var::new(0), Var::new(1)], vec![Var::new(2), Var::new(3)]]);
        let x = bdd.var(Var::new(0));
        let z = bdd.var(Var::new(2));
        let mut f = bdd.and(x, z);
        let stats = bdd.reorder(ReorderPolicy::GroupSift, [&mut f]);
        assert_eq!(stats.final_live_nodes, bdd.live_nodes());
        assert!(bdd.eval_bits(f, &[true, false, true, false]));
        assert!(!bdd.eval_bits(f, &[true, false, false, false]));
    }
}
