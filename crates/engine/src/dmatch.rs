//! The delta-aware matcher used by semi-naive evaluation.
//!
//! Same backtracking algorithm as `co_calculus::matcher` (see its module
//! docs for the soundness argument), extended with a [`Delta`] overlay
//! walked in parallel with the database object. The search tracks whether
//! the current derivation has *touched* any `New` region; substitutions
//! whose derivations touched only `Clean` regions are skipped — the
//! identical derivation existed against the previous database state, so the
//! previous iteration already produced their head contributions.
//!
//! The equivalence `semi-naive ≡ naive` is checked property-style in
//! `tests/engine_equivalence.rs`.
//!
//! Goals are chosen in the cost order of `co_calculus::matcher` (its
//! "Goal order" section), through the same shared helpers, with one extra
//! rank: among the remaining scans, a set whose delta is not `Clean` goes
//! first, so a semi-naive round starts from its Δ goal.
//!
//! # Partitioned matching (parallel evaluation)
//!
//! The search tree of one rule body has exactly one *root* choice point:
//! the first set-member witness loop reached on the (deterministic) path
//! from the root formula, under that goal order. Until then every goal
//! solved has no choice point, so the path is one path; the root choice
//! point may be an exact probe with 0 or 1 candidates, or a scan.
//! [`delta_match_part`] splits that loop by witness
//! position modulo a [`Partition`]: part `i` of `n` tries only candidates
//! at positions `≡ i (mod n)`. The parts' solution sets are therefore
//! (a) collectively exhaustive — every candidate position belongs to some
//! part — and (b) disjoint *as derivations*, though two derivations in
//! different parts may still emit the same substitution, so callers must
//! deduplicate when merging parts. The parallel engine runs the parts of
//! each rule as independent work units and merges them back in rule order,
//! which is what keeps parallel evaluation's results and trace identical
//! to sequential evaluation's.

use crate::delta::Delta;
use co_calculus::matcher::{exact_probe, member_rank, next_goal, GoalRank};
use co_calculus::{Formula, MatchPolicy, MatchStats, Prefilter, Substitution, Var};
use co_object::lattice::intersect;
use co_object::{Object, Set};
use rustc_hash::{FxHashMap, FxHashSet};

/// One conjunctive sub-goal with its delta overlay.
#[derive(Clone, Copy)]
enum Goal<'a> {
    Sub(&'a Formula, &'a Object, &'a Delta),
    Members(&'a [Formula], &'a Set, &'a Delta),
}

/// Can satisfying this pending goal still touch a changed region?
///
/// Deltas produced by [`crate::delta::diff`] are `Clean` exactly when the
/// whole subtree is unchanged (non-`Clean` nodes always contain dirt), so a
/// structural check suffices. A `Members` goal with no members left has no
/// witness choices left to make.
fn goal_potential(g: &Goal<'_>) -> bool {
    match g {
        Goal::Sub(_, _, d) => !matches!(d, Delta::Clean),
        Goal::Members(ms, _, d) => !ms.is_empty() && !matches!(d, Delta::Clean),
    }
}

/// One slice of a partitioned match: this search explores only the root
/// choice-point candidates at positions `≡ index (mod of)`. See the module
/// docs for the exhaustiveness/disjointness argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Which slice this is (`0 ≤ index < of`).
    pub index: usize,
    /// Total number of slices.
    pub of: usize,
}

impl Partition {
    #[inline]
    fn admits(&self, i: usize) -> bool {
        i % self.of == self.index
    }
}

/// True when matching `f` can reach a witness loop that a [`Partition`]
/// could slice — i.e. `f` contains a set formula with at least one member.
/// Bodies without one (fact bodies, pure tuple/variable/constant shapes)
/// explore a single derivation path, so slicing them into partitions would
/// only run identical full searches whose duplicate results the merge then
/// discards; the parallel engine dispatches such rules as one unit.
pub fn has_choice_point(f: &Formula) -> bool {
    match f {
        Formula::Bottom | Formula::Var(_) | Formula::Atom(_) => false,
        Formula::Tuple(entries) => entries.iter().any(|(_, e)| has_choice_point(e)),
        Formula::Set(members) => !members.is_empty(),
    }
}

struct Search<'a> {
    policy: MatchPolicy,
    prefilter: &'a dyn Prefilter,
    bindings: FxHashMap<Var, Object>,
    trail: Vec<(Var, Option<Object>)>,
    out: FxHashSet<Substitution>,
    vars: &'a [Var],
    dirty: bool,
    /// Consumed (taken) by the first witness loop reached — the root choice
    /// point; `None` afterwards, so nested loops enumerate fully.
    partition: Option<Partition>,
    stats: MatchStats,
}

impl<'a> Search<'a> {
    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (v, old) = self.trail.pop().expect("trail underflow");
            match old {
                Some(o) => {
                    self.bindings.insert(v, o);
                }
                None => {
                    self.bindings.remove(&v);
                }
            }
        }
    }

    fn meet(&mut self, v: Var, o: &Object) -> Object {
        let old = self.bindings.get(&v).cloned();
        let new = match &old {
            // O(1) on interned handles: equal subtrees share a node.
            Some(cur) if cur == o => cur.clone(),
            Some(cur) => intersect(cur, o),
            None => o.clone(),
        };
        self.trail.push((v, old));
        self.bindings.insert(v, new.clone());
        new
    }

    fn emit(&mut self) {
        self.stats.raw_matches += 1;
        if !self.dirty {
            // Every region this derivation read was unchanged: the previous
            // iteration derived the same substitution. Skip.
            return;
        }
        let subst = Substitution::from_pairs(
            self.vars
                .iter()
                .map(|v| (*v, self.bindings.get(v).cloned().unwrap_or(Object::Top))),
        );
        if self.policy == MatchPolicy::Strict && subst.has_bottom_binding() {
            return;
        }
        self.out.insert(subst);
    }

    /// The goal-order key of a pending goal: the shared calculus rank, with
    /// scans over a changed set promoted to [`GoalRank::Delta`].
    fn goal_key(&self, goal: &Goal<'a>) -> (GoalRank, usize) {
        match goal {
            Goal::Members([first, ..], set, d) => {
                let rank = match member_rank(first, self.policy, |v| self.bindings.get(&v)) {
                    GoalRank::Scan if !matches!(d, Delta::Clean) => GoalRank::Delta,
                    rank => rank,
                };
                (rank, set.len())
            }
            Goal::Sub(..) | Goal::Members([], ..) => (GoalRank::Determined, 0),
        }
    }

    /// Depth-first search, best goal first; the stack is restored on
    /// return (see `co_calculus::matcher`).
    fn solve(&mut self, stack: &mut Vec<Goal<'a>>) {
        let Some(j) = next_goal(stack, |g| self.goal_key(g)) else {
            self.emit();
            return;
        };
        let goal = stack.remove(j);
        match goal {
            Goal::Sub(f, o, d) => self.solve_sub(f, o, d, stack),
            Goal::Members(ms, s, d) => self.solve_members(ms, s, d, stack),
        }
        stack.insert(j, goal);
    }

    /// Runs `body` with the dirty flag additionally set when this step
    /// touched a `New` region, restoring the previous flag afterwards so
    /// dirtiness never leaks into sibling alternatives.
    fn with_dirty<R>(&mut self, touched_new: bool, body: impl FnOnce(&mut Self) -> R) -> R {
        let saved = self.dirty;
        self.dirty |= touched_new;
        let r = body(self);
        self.dirty = saved;
        r
    }

    fn solve_sub(
        &mut self,
        f: &'a Formula,
        o: &'a Object,
        d: &'a Delta,
        stack: &mut Vec<Goal<'a>>,
    ) {
        let touched_new = matches!(d, Delta::New);
        match (f, o) {
            (Formula::Bottom, _) => self.solve(stack),
            (_, Object::Top) => self.with_dirty(touched_new, |s| s.solve(stack)),
            (Formula::Var(v), _) => {
                let mark = self.mark();
                let new = self.meet(*v, o);
                if !(self.policy == MatchPolicy::Strict && new.is_bottom()) {
                    // Binding to a changed part makes the derivation new —
                    // even when the delta is a structured Tuple/Set node
                    // (the variable captures the whole sub-object).
                    let var_touches_new = !d.is_clean();
                    self.with_dirty(var_touches_new, |s| s.solve(stack));
                }
                self.undo_to(mark);
            }
            (Formula::Atom(a), Object::Atom(b)) if a == b => {
                self.with_dirty(touched_new, |s| s.solve(stack));
            }
            (Formula::Tuple(entries), Object::Tuple(_)) => {
                let depth = stack.len();
                for (attr, fe) in entries {
                    stack.push(Goal::Sub(fe, o.dot(*attr), d.attr(*attr)));
                }
                self.with_dirty(touched_new, |s| s.solve(stack));
                stack.truncate(depth);
            }
            (Formula::Set(members), Object::Set(s)) => {
                let depth = stack.len();
                stack.push(Goal::Members(members.as_slice(), s, d));
                self.with_dirty(touched_new, |s2| s2.solve(stack));
                stack.truncate(depth);
            }
            _ => {}
        }
    }

    fn solve_members(
        &mut self,
        members: &'a [Formula],
        set: &'a Set,
        d: &'a Delta,
        stack: &mut Vec<Goal<'a>>,
    ) {
        let Some((first, rest)) = members.split_first() else {
            self.solve(stack);
            return;
        };

        // Semi-naive candidate pruning. If the derivation so far is clean
        // and no *pending* goal can reach a changed region, then only the
        // choices made from here on can make this derivation new:
        //
        // - if this set's delta is `Clean`, nothing below can be new —
        //   every derivation through it was found last iteration: fail
        //   fast;
        // - if this is the *last* member of the set formula, its witness is
        //   the only remaining chance to touch dirt — restrict candidates
        //   to the set's dirty elements. (Earlier members cannot be
        //   restricted: a later member of the same set may still pick a
        //   dirty witness.)
        let stack_potential = stack.iter().any(goal_potential);
        let only_dirty_can_matter = !self.dirty && !stack_potential;
        if only_dirty_can_matter && matches!(d, Delta::Clean) {
            return;
        }
        let dirty_flags: Option<&[bool]> = match d {
            Delta::Set(flags) if only_dirty_can_matter && rest.is_empty() => Some(flags),
            _ => None,
        };
        // The first witness loop reached is the root choice point: consume
        // the partition here (once), restricting candidates to this slice.
        let partition = self.partition.take();
        let admissible = |i: usize| {
            partition.map(|p| p.admits(i)).unwrap_or(true)
                && dirty_flags.map(|f| f.get(i) == Some(&true)).unwrap_or(true)
        };

        if let Some(hit) = exact_probe(set, first, self.policy, |v| self.bindings.get(&v)) {
            if let Some(i) = hit.filter(|&i| admissible(i)) {
                self.try_witness(first, rest, set, d, &set.elements()[i], d.element(i), stack);
            }
            return;
        }
        let candidates = {
            let bindings = &self.bindings;
            let lookup = |v: Var| bindings.get(&v).cloned();
            self.prefilter.candidates(set, first, &lookup)
        };
        match candidates {
            Some(idxs) => {
                for i in idxs {
                    if !admissible(i) {
                        continue;
                    }
                    if let Some(e) = set.elements().get(i) {
                        self.try_witness(first, rest, set, d, e, d.element(i), stack);
                    }
                }
            }
            None => {
                for (i, e) in set.elements().iter().enumerate() {
                    if !admissible(i) {
                        continue;
                    }
                    self.try_witness(first, rest, set, d, e, d.element(i), stack);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn try_witness(
        &mut self,
        first: &'a Formula,
        rest: &'a [Formula],
        set: &'a Set,
        set_delta: &'a Delta,
        e: &'a Object,
        e_delta: &'a Delta,
        stack: &mut Vec<Goal<'a>>,
    ) {
        self.stats.candidates_tried += 1;
        let mark = self.mark();
        let depth = stack.len();
        stack.push(Goal::Members(rest, set, set_delta));
        stack.push(Goal::Sub(first, e, e_delta));
        self.solve(stack);
        stack.truncate(depth);
        self.undo_to(mark);
    }
}

/// Enumerates the substitutions `σ` with `σf ≤ o` whose derivations touch
/// at least one `New` region of `delta` — the semi-naive increment.
///
/// As a special case, a *root* delta of [`Delta::New`] marks the entire
/// database as changed, making this exactly the full (naive) match of
/// `co_calculus::match_with` — including the empty derivations of fact
/// bodies. The parallel engine relies on this to run first iterations and
/// naive rounds through the same partitioned code path.
pub fn delta_match(
    f: &Formula,
    o: &Object,
    delta: &Delta,
    policy: MatchPolicy,
    prefilter: &dyn Prefilter,
) -> (Vec<Substitution>, MatchStats) {
    delta_match_part(f, o, delta, policy, prefilter, None)
}

/// [`delta_match`] restricted to one [`Partition`] slice of the root choice
/// point (`None` = the whole search). Merging the sorted outputs of all
/// `of` slices and deduplicating reproduces the unpartitioned result
/// exactly — see the module docs.
pub fn delta_match_part(
    f: &Formula,
    o: &Object,
    delta: &Delta,
    policy: MatchPolicy,
    prefilter: &dyn Prefilter,
    partition: Option<Partition>,
) -> (Vec<Substitution>, MatchStats) {
    let vars = f.variables();
    let mut search = Search {
        policy,
        prefilter,
        bindings: FxHashMap::default(),
        trail: Vec::new(),
        out: FxHashSet::default(),
        vars: &vars,
        // A root-level `New` delta means "everything changed": every
        // derivation (even the empty one of a fact body) is an increment.
        dirty: matches!(delta, Delta::New),
        partition,
        stats: MatchStats::default(),
    };
    let mut stack = Vec::new();
    stack.push(Goal::Sub(f, o, delta));
    search.solve(&mut stack);
    search.stats.matches = search.out.len() as u64;
    let mut result: Vec<Substitution> = search.out.into_iter().collect();
    result.sort_by(|a, b| a.iter().cmp(b.iter()));
    (result, search.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::diff;
    use co_calculus::{match_with, matches, wff, ScanAll};
    use co_object::obj;

    fn x() -> Var {
        Var::new("X")
    }
    fn y() -> Var {
        Var::new("Y")
    }

    fn dm(f: &Formula, o: &Object, d: &Delta) -> Vec<Substitution> {
        delta_match(f, o, d, MatchPolicy::Strict, &ScanAll).0
    }

    /// Matches through both matchers with `ScanAll` — the naive one and
    /// the semi-naive one over an all-`New` delta — checks that they agree
    /// on the substitutions and the candidates tried, and returns the
    /// naive result.
    fn both(f: &Formula, o: &Object, policy: MatchPolicy) -> (Vec<Substitution>, MatchStats) {
        let naive = match_with(f, o, policy, &ScanAll);
        let semi = delta_match(f, o, &Delta::New, policy, &ScanAll);
        assert_eq!(naive.0, semi.0, "{f} under {policy:?}");
        assert_eq!(
            naive.1.candidates_tried, semi.1.candidates_tried,
            "{f} under {policy:?}"
        );
        naive
    }

    /// `[r: {0, 1, …, 199, "s", [a: 1], {1}}]`: atoms of two kinds plus a
    /// tuple and a set, so a probe's binary search crosses kinds.
    fn wide_db() -> Object {
        let elements =
            (0..200)
                .map(Object::int)
                .chain([Object::str("s"), obj!([a: 1]), obj!({ 1 })]);
        Object::tuple([("r", Object::set(elements))])
    }

    #[test]
    fn constant_member_is_one_binary_search() {
        let db = wide_db();
        for policy in [MatchPolicy::Strict, MatchPolicy::Literal] {
            let (ms, stats) = both(&wff!([r: {7}]), &db, policy);
            assert_eq!((ms.len(), stats.candidates_tried), (1, 1));
            let (ms, stats) = both(&wff!([r: {s}]), &db, policy);
            assert_eq!((ms.len(), stats.candidates_tried), (1, 1));
            let (ms, stats) = both(&wff!([r: {700}]), &db, policy);
            assert_eq!((ms.len(), stats.candidates_tried), (0, 0));
        }
    }

    #[test]
    fn variable_bound_to_an_atom_probes_under_strict_only() {
        let db = Object::tuple([("k", obj!(7)), ("r", wide_db().dot("r").clone())]);
        let f = wff!([k: (x()), r: {(x())}]);
        let (strict, stats) = both(&f, &db, MatchPolicy::Strict);
        assert_eq!(stats.candidates_tried, 1);
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].get(x()), Some(&obj!(7)));
        // Literal keeps the ⊥ meet of 7 with every other element, so the
        // member must be scanned: the ⊥ substitution is still emitted.
        let (literal, stats) = both(&f, &db, MatchPolicy::Literal);
        assert_eq!(stats.candidates_tried, 203);
        let bindings: Vec<&Object> = literal.iter().map(|s| s.get(x()).unwrap()).collect();
        assert_eq!(bindings, [&Object::Bottom, &obj!(7)]);
    }

    #[test]
    fn variable_bound_to_a_tuple_still_matches_larger_elements() {
        let db = obj!([k: [a: 1], r: {[a: 1, b: 2], [a: 3]}]);
        let f = wff!([k: (x()), r: {(x())}]);
        let (ms, stats) = both(&f, &db, MatchPolicy::Strict);
        // Not an equality test: both elements are tried, and [a: 1] ≤
        // [a: 1, b: 2] keeps X = [a: 1].
        assert_eq!(stats.candidates_tried, 2);
        assert!(ms.iter().any(|s| s.get(x()) == Some(&obj!([a: 1]))));
    }

    #[test]
    fn a_probe_keeps_the_dirty_flag_restriction() {
        let old = obj!([r: {1, 2}]);
        let new = obj!([r: {1, 2, 3}]);
        let d = diff(&old, &new);
        // Element 3 is new: it is the increment.
        let (ms, stats) = delta_match(&wff!([r: {3}]), &new, &d, MatchPolicy::Strict, &ScanAll);
        assert_eq!((ms.len(), stats.candidates_tried), (1, 1));
        // Element 2 is clean: the previous round derived it already.
        let (ms, stats) = delta_match(&wff!([r: {2}]), &new, &d, MatchPolicy::Strict, &ScanAll);
        assert_eq!((ms.len(), stats.candidates_tried), (0, 0));
    }

    #[test]
    fn partitions_of_a_probe_root_choice_point_cover_the_full_match() {
        // The probe `{7}` ranks before the scan `{X}`, so it is the root
        // choice point the partition slices: one part holds its only
        // candidate, and the scan below it runs in full there.
        let old = obj!([r: {5, 7, 9}, s: {a, b}]);
        let new = obj!([r: {5, 7, 9}, s: {a, b, c}]);
        let f = wff!([r: {7}, s: {(x())}]);
        for (db, d) in [(&new, Delta::New), (&new, diff(&old, &new))] {
            let full = dm(&f, db, &d);
            assert!(!full.is_empty());
            for of in [1usize, 2, 3, 4] {
                let mut parts = Vec::new();
                let mut tried = 0;
                for index in 0..of {
                    let (substs, stats) = delta_match_part(
                        &f,
                        db,
                        &d,
                        MatchPolicy::Strict,
                        &ScanAll,
                        Some(Partition { index, of }),
                    );
                    parts.extend(substs);
                    tried += stats.candidates_tried;
                }
                parts.sort_by(|a, b| a.iter().cmp(b.iter()));
                parts.dedup();
                assert_eq!(parts, full, "of={of}");
                // The probe was sliced, not repeated in every part.
                let unsliced = delta_match(&f, db, &d, MatchPolicy::Strict, &ScanAll).1;
                assert_eq!(tried, unsliced.candidates_tried, "of={of}");
            }
        }
    }

    #[test]
    fn clean_delta_yields_nothing() {
        let db = obj!([r: {1, 2, 3}]);
        let f = wff!([r: {(x())}]);
        assert!(dm(&f, &db, &Delta::Clean).is_empty());
    }

    #[test]
    fn all_new_delta_equals_full_match() {
        let db = obj!([r1: {[a: 1, b: 10], [a: 2, b: 20]}, r2: {[c: 10]}]);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        let full = matches(&f, &db, MatchPolicy::Strict);
        let delta_all = dm(&f, &db, &Delta::New);
        assert_eq!(full, delta_all);
    }

    #[test]
    fn only_derivations_touching_new_elements_emit() {
        let old = obj!([r: {1, 2}]);
        let new = obj!([r: {1, 2, 3}]);
        let d = diff(&old, &new);
        let f = wff!([r: {(x())}]);
        let ms = dm(&f, &new, &d);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(3)));
    }

    #[test]
    fn joins_with_one_new_side_fire() {
        // New r2 element joins an old r1 element: the derivation touches a
        // new region, so it must be produced.
        let old = obj!([r1: {[a: 1, b: 10]}, r2: {[c: 99]}]);
        let new = obj!([r1: {[a: 1, b: 10]}, r2: {[c: 99], [c: 10]}]);
        let d = diff(&old, &new);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        let ms = dm(&f, &new, &d);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(1)));
    }

    #[test]
    fn old_old_derivations_are_skipped() {
        let old = obj!([r1: {[a: 1, b: 10]}, r2: {[c: 10]}]);
        let new = obj!([r1: {[a: 1, b: 10]}, r2: {[c: 10], [c: 77]}]);
        let d = diff(&old, &new);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        // The only derivation (1,10)↔(c:10) uses exclusively old elements.
        assert!(dm(&f, &new, &d).is_empty());
    }

    #[test]
    fn variable_bound_to_partially_new_region_counts_as_new() {
        // X captures the whole (grown) relation value: new derivation.
        let old = obj!([r: {1}]);
        let new = obj!([r: {1, 2}]);
        let d = diff(&old, &new);
        let f = wff!([r: (x())]);
        let ms = dm(&f, &new, &d);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!({1, 2})));
    }

    #[test]
    fn facts_never_fire_in_delta_mode() {
        let db = obj!([r: {1}]);
        let d = diff(&obj!([r: {}]), &db);
        assert!(dm(&Formula::Bottom, &db, &d).is_empty());
    }

    #[test]
    fn root_new_delta_fires_facts_like_a_full_match() {
        // A root `New` marks the whole database changed: the fact body's
        // empty derivation is an increment, exactly as in a naive match.
        let db = obj!([r: {1}]);
        let ms = dm(&Formula::Bottom, &db, &Delta::New);
        assert_eq!(ms.len(), 1);
        assert_eq!(matches(&Formula::Bottom, &db, MatchPolicy::Strict), ms);
    }

    #[test]
    fn partitions_cover_the_full_match_exactly() {
        let db = obj!([r1: {[a: 1, b: 10], [a: 2, b: 20], [a: 3, b: 10], [a: 4, b: 20]},
                       r2: {[c: 10], [c: 20]}]);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        let full = dm(&f, &db, &Delta::New);
        assert_eq!(full.len(), 4);
        for of in [1usize, 2, 3, 4, 7] {
            let mut merged: Vec<Substitution> = (0..of)
                .flat_map(|index| {
                    delta_match_part(
                        &f,
                        &db,
                        &Delta::New,
                        MatchPolicy::Strict,
                        &ScanAll,
                        Some(Partition { index, of }),
                    )
                    .0
                })
                .collect();
            merged.sort_by(|a, b| a.iter().cmp(b.iter()));
            merged.dedup();
            assert_eq!(merged, full, "partition of={of}");
        }
    }

    #[test]
    fn partitioned_semi_naive_increments_merge_to_the_unpartitioned_ones() {
        let old = obj!([r1: {[a: 1, b: 10]}, r2: {[c: 99]}]);
        let new = obj!([r1: {[a: 1, b: 10], [a: 2, b: 10]}, r2: {[c: 99], [c: 10]}]);
        let d = diff(&old, &new);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        let full = dm(&f, &new, &d);
        assert_eq!(full.len(), 2);
        let of = 3;
        let mut merged: Vec<Substitution> = (0..of)
            .flat_map(|index| {
                delta_match_part(
                    &f,
                    &new,
                    &d,
                    MatchPolicy::Strict,
                    &ScanAll,
                    Some(Partition { index, of }),
                )
                .0
            })
            .collect();
        merged.sort_by(|a, b| a.iter().cmp(b.iter()));
        merged.dedup();
        assert_eq!(merged, full);
    }

    #[test]
    fn dirty_flag_does_not_leak_across_alternatives() {
        // First witness (new) emits; second witness (old) must not inherit
        // the dirty flag from the failed/completed first alternative.
        let old = obj!([r: {[k: 1, v: 10]}]);
        let new = obj!([r: {[k: 1, v: 10], [k: 2, v: 20]}]);
        let d = diff(&old, &new);
        let f = wff!([r: {[k: (x()), v: (y())]}]);
        let ms = dm(&f, &new, &d);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(2)));
    }
}
