//! Quantification, restriction, substitution and support computation.

use std::collections::BTreeSet;

use crate::cache::FxHashSet;
use crate::manager::{Bdd, Ref, Var};

/// Identifier of a variable substitution registered with
/// [`Bdd::register_substitution`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubstId(pub(crate) u32);

impl Bdd {
    /// Restricts `f` by fixing `var` to `value` (the Shannon cofactor).
    pub fn restrict(&mut self, f: Ref, var: Var, value: bool) -> Ref {
        if f.is_terminal() {
            return f;
        }
        self.ensure_var(var);
        let top = self.node_var(f);
        if self.level(top) > self.level(var) {
            return f;
        }
        let (low, high) = (self.node_low(f), self.node_high(f));
        if top == var {
            return if value { high } else { low };
        }
        let new_low = self.restrict(low, var, value);
        let new_high = self.restrict(high, var, value);
        self.mk(top, new_low, new_high)
    }

    /// Builds the positive cube (conjunction) of a set of variables, used as
    /// the quantification set for [`Bdd::exists`] and [`Bdd::forall`].
    pub fn cube_of_vars<I: IntoIterator<Item = Var>>(&mut self, vars: I) -> Ref {
        let mut sorted: Vec<Var> = vars.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        for &var in &sorted {
            self.ensure_var(var);
        }
        // Build from the bottom of the *current order* upwards so each `mk`
        // is O(1); variable identity order may differ from level order.
        sorted.sort_unstable_by_key(|&var| self.level(var));
        let mut acc = Ref::TRUE;
        for var in sorted.into_iter().rev() {
            acc = self.mk(var, Ref::FALSE, acc);
        }
        acc
    }

    /// Existential quantification of the variables in the positive cube
    /// `cube`: `∃ vars . f`.
    pub fn exists(&mut self, f: Ref, cube: Ref) -> Ref {
        if f.is_terminal() || cube == Ref::TRUE {
            return f;
        }
        if let Some(cached) = self.exists_cache.get(&(f, cube)) {
            return cached;
        }
        self.charge_op();
        let f_var = self.node_var(f);
        let f_level = self.node_level(f);
        // Skip quantified variables whose level lies above the root of f.
        let mut cube_rest = cube;
        while cube_rest != Ref::TRUE && self.node_level(cube_rest) < f_level {
            cube_rest = self.node_high(cube_rest);
        }
        if cube_rest == Ref::TRUE {
            return f;
        }
        let cube_var = self.node_var(cube_rest);
        let (low, high) = (self.node_low(f), self.node_high(f));
        let result = if f_var == cube_var {
            let next_cube = self.node_high(cube_rest);
            let low_q = self.exists(low, next_cube);
            if low_q == Ref::TRUE {
                // Early termination: the disjunction is already true.
                Ref::TRUE
            } else {
                let high_q = self.exists(high, next_cube);
                self.or(low_q, high_q)
            }
        } else {
            // f's root level is above the next quantified variable: keep the
            // node, recurse below.
            let low_q = self.exists(low, cube_rest);
            let high_q = self.exists(high, cube_rest);
            self.mk(f_var, low_q, high_q)
        };
        self.exists_cache.insert((f, cube), result);
        result
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&mut self, f: Ref, cube: Ref) -> Ref {
        let nf = self.not(f);
        let ex = self.exists(nf, cube);
        self.not(ex)
    }

    /// Convenience wrapper: existential quantification over a slice of
    /// variables.
    pub fn exists_vars(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let cube = self.cube_of_vars(vars.iter().copied());
        self.exists(f, cube)
    }

    /// Convenience wrapper: universal quantification over a slice of
    /// variables.
    pub fn forall_vars(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let cube = self.cube_of_vars(vars.iter().copied());
        self.forall(f, cube)
    }

    /// Relational product `∃ vars . (f ∧ g)`, the workhorse of symbolic
    /// image computation.
    ///
    /// This is a genuinely *fused* operation: the conjunction is never built
    /// as a whole. Quantified variables are eliminated as soon as the
    /// recursion passes them (early quantification), with short-circuiting
    /// when one branch of the disjunction is already `true` — which is what
    /// keeps the intermediate diagrams of a partitioned transition relation
    /// small.
    pub fn and_exists(&mut self, f: Ref, g: Ref, cube: Ref) -> Ref {
        if f == Ref::FALSE || g == Ref::FALSE {
            return Ref::FALSE;
        }
        if cube == Ref::TRUE {
            return self.and(f, g);
        }
        if f == Ref::TRUE {
            return self.exists(g, cube);
        }
        if g == Ref::TRUE {
            return self.exists(f, cube);
        }
        let top_level = self.node_level(f).min(self.node_level(g));
        let top = self.var_at_level(top_level);
        // Skip quantified variables above both roots: they do not occur in
        // the conjunction, so quantifying them is the identity.
        let mut cube_rest = cube;
        while cube_rest != Ref::TRUE && self.node_level(cube_rest) < top_level {
            cube_rest = self.node_high(cube_rest);
        }
        if cube_rest == Ref::TRUE {
            return self.and(f, g);
        }
        if let Some(cached) = self.and_exists_cache.get(&(f, g, cube_rest)) {
            return cached;
        }
        self.charge_op();
        let (f_lo, f_hi) = self.cofactors(f, top);
        let (g_lo, g_hi) = self.cofactors(g, top);
        let result = if self.node_var(cube_rest) == top {
            let next_cube = self.node_high(cube_rest);
            let low = self.and_exists(f_lo, g_lo, next_cube);
            if low == Ref::TRUE {
                Ref::TRUE
            } else {
                let high = self.and_exists(f_hi, g_hi, next_cube);
                self.or(low, high)
            }
        } else {
            let low = self.and_exists(f_lo, g_lo, cube_rest);
            let high = self.and_exists(f_hi, g_hi, cube_rest);
            self.mk(top, low, high)
        };
        self.and_exists_cache.insert((f, g, cube_rest), result);
        result
    }

    /// Image-step relational product `∃ vars . (f ∧ g)` — the same fused
    /// computation as [`Bdd::and_exists`], but counted as one image step:
    /// `relational_product_calls` is incremented and the cache traffic the
    /// step generates is attributed to the `image_cache_{hits,misses}`
    /// counters of [`BddStats`](crate::BddStats). The symbolic model builder
    /// calls this for every partition it folds into a forward image, which
    /// makes the per-image cache behaviour observable in the ablation
    /// tables.
    pub fn relational_product(&mut self, f: Ref, g: Ref, cube: Ref) -> Ref {
        let hits_before = self.ite_cache.counters.hits
            + self.exists_cache.counters.hits
            + self.and_exists_cache.counters.hits;
        let misses_before = self.ite_cache.counters.misses
            + self.exists_cache.counters.misses
            + self.and_exists_cache.counters.misses;
        let result = self.and_exists(f, g, cube);
        let hits_after = self.ite_cache.counters.hits
            + self.exists_cache.counters.hits
            + self.and_exists_cache.counters.hits;
        let misses_after = self.ite_cache.counters.misses
            + self.exists_cache.counters.misses
            + self.and_exists_cache.counters.misses;
        self.relational_product_calls += 1;
        // The epoch counters can be reset mid-run by `clear_caches`;
        // saturating arithmetic keeps the attribution monotone regardless.
        self.image_cache_hits += hits_after.saturating_sub(hits_before);
        self.image_cache_misses += misses_after.saturating_sub(misses_before);
        result
    }

    /// Registers a variable renaming for use with [`Bdd::replace`].
    ///
    /// The renaming must be injective on its domain and must map each
    /// variable to a variable not in the domain (a "swap to fresh columns",
    /// which is how current-state/next-state renamings are used by the
    /// symbolic model checker).
    ///
    /// # Panics
    ///
    /// Panics if the map is not injective or if a target variable is also a
    /// source variable.
    pub fn register_substitution(&mut self, map: Vec<(Var, Var)>) -> SubstId {
        let sources: BTreeSet<Var> = map.iter().map(|(s, _)| *s).collect();
        let targets: BTreeSet<Var> = map.iter().map(|(_, t)| *t).collect();
        assert_eq!(sources.len(), map.len(), "substitution sources must be distinct");
        assert_eq!(targets.len(), map.len(), "substitution targets must be distinct");
        assert!(
            sources.intersection(&targets).next().is_none(),
            "substitution sources and targets must not overlap"
        );
        let id = SubstId(u32::try_from(self.substitutions.len()).expect("too many substitutions"));
        // Dense `variable index → target`, the identity off the domain:
        // `replace` looks a variable up once per node it rebuilds.
        let len = sources.last().map_or(0, |var| var.index() as usize + 1);
        let mut table: Vec<Var> = (0..len as u32).map(Var::new).collect();
        for (source, target) in map {
            table[source.index() as usize] = target;
        }
        self.substitutions.push(table);
        id
    }

    /// Applies a registered variable renaming to `f`.
    pub fn replace(&mut self, f: Ref, subst: SubstId) -> Ref {
        if f.is_terminal() {
            return f;
        }
        // Renaming commutes with negation, so only the regular part is
        // computed and cached; the complement bit is re-applied on the way
        // out. (`exists` has no such normalization — it does not commute.)
        if f.is_complement() {
            let regular = self.replace(f.regular(), subst);
            return regular.negate();
        }
        if let Some(cached) = self.replace_cache.get(&(f, subst.0)) {
            return cached;
        }
        self.charge_op();
        let var = self.node_var(f);
        let low = self.node_low(f);
        let high = self.node_high(f);
        let low_r = self.replace(low, subst);
        let high_r = self.replace(high, subst);
        let new_var =
            self.substitutions[subst.0 as usize].get(var.index() as usize).copied().unwrap_or(var);
        // The renamed variable may violate the ordering relative to the
        // children, so rebuild with `ite` on the fresh variable.
        let var_bdd = self.var(new_var);
        let result = self.ite(var_bdd, high_r, low_r);
        self.replace_cache.insert((f, subst.0), result);
        result
    }

    /// The set of variables on which `f` depends, sorted by index.
    pub fn support(&self, f: Ref) -> Vec<Var> {
        // Every stored node's variable has a level, so its index is below
        // `num_levels`: one flag per variable, read out in index order.
        let mut in_support = vec![false; self.num_levels()];
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            // Dedupe by slot: both polarities of a node have one support.
            if r.is_terminal() || !seen.insert(r.index()) {
                continue;
            }
            in_support[self.node_var(r).index() as usize] = true;
            stack.push(self.node_low(r));
            stack.push(self.node_high(r));
        }
        (0..in_support.len() as u32).filter(|&i| in_support[i as usize]).map(Var::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restrict_is_shannon_cofactor() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        assert_eq!(bdd.restrict(f, Var::new(0), true), y);
        assert_eq!(bdd.restrict(f, Var::new(0), false), Ref::FALSE);
        // Restricting a variable not in the support is a no-op.
        assert_eq!(bdd.restrict(f, Var::new(5), true), f);
    }

    #[test]
    fn exists_and_forall() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        let cube_x = bdd.cube_of_vars([Var::new(0)]);
        assert_eq!(bdd.exists(f, cube_x), y);
        assert_eq!(bdd.forall(f, cube_x), Ref::FALSE);
        let g = bdd.or(x, y);
        assert_eq!(bdd.forall(g, cube_x), y);
        let cube_xy = bdd.cube_of_vars([Var::new(0), Var::new(1)]);
        assert_eq!(bdd.exists(f, cube_xy), Ref::TRUE);
        assert_eq!(bdd.exists(Ref::FALSE, cube_xy), Ref::FALSE);
    }

    #[test]
    fn exists_skips_variables_not_in_support() {
        let mut bdd = Bdd::new();
        let y = bdd.var(Var::new(1));
        let cube = bdd.cube_of_vars([Var::new(0), Var::new(3)]);
        assert_eq!(bdd.exists(y, cube), y);
    }

    #[test]
    fn and_exists_matches_composition() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let f = bdd.iff(x, y);
        let g = bdd.iff(y, z);
        let cube_y = bdd.cube_of_vars([Var::new(1)]);
        let direct = bdd.and_exists(f, g, cube_y);
        let conj = bdd.and(f, g);
        let via_exists = bdd.exists(conj, cube_y);
        assert_eq!(direct, via_exists);
        // ∃y. (x⇔y)∧(y⇔z) is exactly x⇔z.
        let x_iff_z = bdd.iff(x, z);
        assert_eq!(direct, x_iff_z);
    }

    #[test]
    fn and_exists_matches_composition_on_random_pairs() {
        // Cross-validate the fused recursion against the two-step
        // composition on all pairs drawn from a pool of small functions.
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| bdd.var(Var::new(i))).collect();
        let mut pool = vec![Ref::TRUE, Ref::FALSE];
        pool.extend(vars.iter().copied());
        for i in 0..4 {
            for j in (i + 1)..4 {
                let conj = bdd.and(vars[i], vars[j]);
                let disj = bdd.or(vars[i], vars[j]);
                let xor = bdd.xor(vars[i], vars[j]);
                pool.extend([conj, disj, xor]);
            }
        }
        let cubes = [
            bdd.cube_of_vars([]),
            bdd.cube_of_vars([Var::new(0)]),
            bdd.cube_of_vars([Var::new(1), Var::new(3)]),
            bdd.cube_of_vars([Var::new(0), Var::new(1), Var::new(2), Var::new(3)]),
        ];
        for &f in &pool {
            for &g in &pool {
                for &cube in &cubes {
                    let fused = bdd.and_exists(f, g, cube);
                    let conj = bdd.and(f, g);
                    let composed = bdd.exists(conj, cube);
                    assert_eq!(fused, composed, "mismatch for {f:?} {g:?} cube {cube:?}");
                }
            }
        }
    }

    #[test]
    fn and_exists_is_cached() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let f = bdd.iff(x, y);
        let g = bdd.iff(y, z);
        let cube = bdd.cube_of_vars([Var::new(1)]);
        let first = bdd.and_exists(f, g, cube);
        let hits_before = bdd.stats().and_exists_cache_hits;
        let second = bdd.and_exists(f, g, cube);
        assert_eq!(first, second);
        assert!(bdd.stats().and_exists_cache_hits > hits_before);
    }

    #[test]
    fn replace_renames_variables() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        let subst =
            bdd.register_substitution(vec![(Var::new(0), Var::new(2)), (Var::new(1), Var::new(3))]);
        let renamed = bdd.replace(f, subst);
        let x2 = bdd.var(Var::new(2));
        let y2 = bdd.var(Var::new(3));
        let expected = bdd.and(x2, y2);
        assert_eq!(renamed, expected);
    }

    #[test]
    fn replace_handles_order_inversion() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(5));
        let ny = bdd.not(y);
        let f = bdd.and(x, ny);
        // Rename v0 -> v9, which moves it below v5 in the order.
        let subst = bdd.register_substitution(vec![(Var::new(0), Var::new(9))]);
        let renamed = bdd.replace(f, subst);
        let x9 = bdd.var(Var::new(9));
        let expected = bdd.and(x9, ny);
        assert_eq!(renamed, expected);
    }

    #[test]
    fn replace_leaves_unmapped_variables_alone() {
        // v1 lies inside the substitution's dense table (below the highest
        // source) without being a source; v7 lies past its end.
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let w = bdd.var(Var::new(7));
        let xy = bdd.and(x, y);
        let zw = bdd.xor(z, w);
        let f = bdd.or(xy, zw);
        let subst =
            bdd.register_substitution(vec![(Var::new(2), Var::new(4)), (Var::new(0), Var::new(3))]);
        let x3 = bdd.var(Var::new(3));
        let z4 = bdd.var(Var::new(4));
        let x3y = bdd.and(x3, y);
        let z4w = bdd.xor(z4, w);
        let expected = bdd.or(x3y, z4w);
        assert_eq!(bdd.replace(f, subst), expected);
    }

    #[test]
    #[should_panic(expected = "sources must be distinct")]
    fn replace_rejects_repeated_sources() {
        let mut bdd = Bdd::new();
        let _ =
            bdd.register_substitution(vec![(Var::new(0), Var::new(2)), (Var::new(0), Var::new(3))]);
    }

    #[test]
    #[should_panic(expected = "targets must be distinct")]
    fn replace_rejects_repeated_targets() {
        let mut bdd = Bdd::new();
        let _ =
            bdd.register_substitution(vec![(Var::new(0), Var::new(2)), (Var::new(1), Var::new(2))]);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn replace_rejects_overlapping_substitution() {
        let mut bdd = Bdd::new();
        let _ =
            bdd.register_substitution(vec![(Var::new(0), Var::new(1)), (Var::new(1), Var::new(2))]);
    }

    #[test]
    fn support_lists_dependencies() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let z = bdd.var(Var::new(7));
        let f = bdd.xor(x, z);
        assert_eq!(bdd.support(f), vec![Var::new(0), Var::new(7)]);
        assert!(bdd.support(Ref::TRUE).is_empty());
        // A cancelled dependency does not appear in the support.
        let g = bdd.or(x, Ref::TRUE);
        assert!(bdd.support(g).is_empty());
    }

    #[test]
    fn cube_of_vars_dedups_and_sorts() {
        let mut bdd = Bdd::new();
        let cube1 = bdd.cube_of_vars([Var::new(2), Var::new(0), Var::new(2)]);
        let cube2 = bdd.cube_of_vars([Var::new(0), Var::new(2)]);
        assert_eq!(cube1, cube2);
        assert_eq!(bdd.cube_of_vars([]), Ref::TRUE);
    }

    #[test]
    fn relational_product_counters_move() {
        let mut bdd = Bdd::new();
        assert_eq!(bdd.stats().relational_product_calls, 0);
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let f = bdd.xor(x, y);
        let ny = bdd.not(y);
        let g0 = bdd.and(ny, z);
        let g = bdd.or(g0, y);
        let cube = bdd.cube_of_vars([Var::new(1)]);
        let via_image = bdd.relational_product(f, g, cube);
        let via_and_exists = bdd.and_exists(f, g, cube);
        assert_eq!(via_image, via_and_exists);
        let stats = bdd.stats();
        assert_eq!(stats.relational_product_calls, 1);
        assert!(
            stats.image_cache_hits + stats.image_cache_misses > 0,
            "the image step must generate attributed cache traffic"
        );
        // The second (identical) product is answered from the cache and the
        // hit is attributed to the image counters.
        let again = bdd.relational_product(f, g, cube);
        assert_eq!(again, via_image);
        let stats2 = bdd.stats();
        assert_eq!(stats2.relational_product_calls, 2);
        assert!(stats2.image_cache_hits > stats.image_cache_hits);
    }
}
