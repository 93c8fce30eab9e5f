//! The matcher: enumerating the substitutions `σ` with `σE ≤ O`.
//!
//! # Algorithm
//!
//! `σE ≤ O` decomposes by the structure of `E` (Definition 3.1):
//!
//! - constants must equal the corresponding part of `O` (or the part is ⊤);
//! - a tuple formula walks attribute-wise into `O` (missing attributes read
//!   as ⊥ — a dead end for every formula shape except variables and ⊥);
//! - a **set formula member picks a witness element** of the corresponding
//!   set in `O` — the only source of nondeterminism;
//! - a variable occurrence `X` against part `U` contributes the constraint
//!   `σX ≤ U`.
//!
//! For a fixed assignment of witnesses (a *choice function*), the variable
//! constraints `σX ≤ U₁, …, σX ≤ Uₖ` have the maximal solution
//! `σX = U₁ ∩ … ∩ Uₖ` — this is where the lattice structure (Theorem 3.6)
//! does real work. The matcher backtracks over choice functions,
//! accumulating per-variable glbs with an undo trail, and emits one maximal
//! substitution per choice function, deduplicated.
//!
//! Every satisfying substitution is pointwise below one of the emitted ones,
//! and instantiation is monotone, so unions over the emitted substitutions
//! (Definitions 4.2 and 4.4) equal unions over *all* satisfying
//! substitutions. The property tests in this module and in
//! `tests/calculus_semantics.rs` check exactly this soundness/maximality
//! contract.
//!
//! # Goal order
//!
//! The pending goals form a stack, but the search does not simply pop
//! its top: it solves the most-bound goal first (sideways information
//! passing; Bancilhon & Ramakrishnan, SIGMOD 1986). Each goal gets a
//! [`GoalRank`], best first:
//!
//! 1. no choice point — a structural sub-goal or an exhausted set formula;
//! 2. an **exact probe** — a set member that is an atom constant, or
//!    (under [`MatchPolicy::Strict`]) a variable already bound to an atom.
//!    It can match only the equal element, and canonical sets are sorted,
//!    so its candidates come from one binary search: 0 or 1 of them;
//! 3. a tuple member with a constant or bound-atom attribute — what an
//!    attribute index narrows;
//! 4. in the semi-naive matcher only, a goal whose delta is not `Clean`;
//! 5. a scan.
//!
//! Ties go to the smaller set, then to the goal nearest the top of the
//! stack, so bodies whose order already was right enumerate as before.
//! The chosen goal is removed and, on return, re-inserted where it was, so
//! the stack is restored exactly.
//!
//! Two members are never probes: a variable under [`MatchPolicy::Literal`]
//! (it may bind ⊥ against a different element, and Literal keeps that
//! substitution), and a variable bound to a tuple or set (`≤` admits
//! larger elements).
//!
//! The order changes only the enumeration, never the substitution set: a
//! substitution is one witness per set member, and the bindings it emits
//! are meets of the same constraints, which commute; Strict's ⊥ pruning is
//! monotone (a binding that reaches ⊥ stays ⊥), so it prunes the same
//! choice functions whenever it fires. `MatchStats::matches` is therefore
//! order-independent and only `candidates_tried` moves.
//!
//! Because the order follows binding, not attribute ids, the cost of a
//! rule body does not depend on which attribute the process interned
//! first. Popping goals in attribute-id order made the paper's Example 4.5
//! quadratic in one interning order and linear in the other;
//! `tests/goal_order.rs` pins both orders to linear.
//!
//! # Policies
//!
//! [`MatchPolicy::Literal`] keeps every emitted substitution — Definition
//! 4.4 verbatim. [`MatchPolicy::Strict`] (the default) additionally drops
//! substitutions that bind a variable to ⊥, matching the paper's prose
//! semantics for its §4 examples (see DESIGN.md §3.3 for the join anomaly
//! that motivates this).

use crate::{Formula, Substitution, Var};
use co_object::lattice::intersect;
use co_object::{Atom, Object, Set};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;

/// Which substitutions count as matches (see module docs and DESIGN.md §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatchPolicy {
    /// Discard substitutions binding any variable to ⊥. Matches the paper's
    /// prose semantics (joins join, selections on a missing attribute fail).
    #[default]
    Strict,
    /// Definition 4.4 verbatim: ⊥ bindings allowed.
    Literal,
}

/// A prefilter can narrow the witness candidates the matcher tries for a
/// set-formula member — the hook through which `co-engine` plugs in
/// attribute-value indexes. Implementations must be **sound**: the returned
/// candidate index list must contain every element the member could match
/// under the current bindings. `None` means "no information, try all".
pub trait Prefilter {
    /// Candidate element indices of `set` for matching `member`, given a
    /// lookup for the variable bindings accumulated so far.
    fn candidates(
        &self,
        set: &Set,
        member: &Formula,
        bindings: &dyn Fn(Var) -> Option<Object>,
    ) -> Option<Vec<usize>>;
}

/// The trivial prefilter: always scan.
pub struct ScanAll;

impl Prefilter for ScanAll {
    fn candidates(
        &self,
        _set: &Set,
        _member: &Formula,
        _bindings: &dyn Fn(Var) -> Option<Object>,
    ) -> Option<Vec<usize>> {
        None
    }
}

/// Running statistics of a match run, for the engine's reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Witness candidates tried across all choice points.
    pub candidates_tried: u64,
    /// Substitutions emitted before deduplication and policy filtering.
    pub raw_matches: u64,
    /// Substitutions surviving deduplication and policy filtering.
    pub matches: u64,
}

impl MatchStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: MatchStats) {
        self.candidates_tried += other.candidates_tried;
        self.raw_matches += other.raw_matches;
        self.matches += other.matches;
    }
}

/// The cost rank of a pending goal: the search solves the lowest rank
/// first (see [Goal order](self#goal-order)). Variants are declared in
/// rank order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GoalRank {
    /// No choice point: a structural sub-goal or an exhausted set formula.
    Determined,
    /// A set member that matches exactly one element value; see
    /// [`exact_probe`].
    Probe,
    /// A tuple member with a constant or bound-atom attribute.
    Indexable,
    /// A scan over a set that still holds changed elements (assigned by
    /// the semi-naive matcher only).
    Delta,
    /// A scan.
    Scan,
}

/// The atom `member` must equal, when it is one: an atom constant under
/// every policy, or under [`MatchPolicy::Strict`] a variable bound to an
/// atom (any other element would meet it down to ⊥, which Strict prunes).
fn probe_atom<'r, 'm: 'r, 'o: 'r>(
    member: &'m Formula,
    policy: MatchPolicy,
    bound: impl Fn(Var) -> Option<&'o Object>,
) -> Option<&'r Atom> {
    match member {
        Formula::Atom(a) => Some(a),
        Formula::Var(v) if policy == MatchPolicy::Strict => match bound(*v) {
            Some(Object::Atom(a)) => Some(a),
            _ => None,
        },
        _ => None,
    }
}

/// The witnesses of `member` in `set` when `member` is an exact probe:
/// `Some(Some(i))` when element `i` is the one it can match, `Some(None)`
/// when that element is absent, and `None` when `member` is not a probe
/// (the caller scans or asks its [`Prefilter`]). `bound` looks up the
/// variable bindings made so far.
///
/// Canonical sets are sorted, so this is one binary search and allocates
/// nothing.
pub fn exact_probe<'o>(
    set: &Set,
    member: &Formula,
    policy: MatchPolicy,
    bound: impl Fn(Var) -> Option<&'o Object>,
) -> Option<Option<usize>> {
    let atom = probe_atom(member, policy, bound)?;
    // Canonical order ranks ⊥ < atoms < tuples < sets.
    let found = set.elements().binary_search_by(|e| match e {
        Object::Atom(b) => b.cmp(atom),
        Object::Bottom => Ordering::Less,
        _ => Ordering::Greater,
    });
    Some(found.ok())
}

/// The [`GoalRank`] of a set-formula goal whose next member is `member`:
/// [`GoalRank::Probe`], [`GoalRank::Indexable`] or [`GoalRank::Scan`].
pub fn member_rank<'o>(
    member: &Formula,
    policy: MatchPolicy,
    bound: impl Fn(Var) -> Option<&'o Object>,
) -> GoalRank {
    if probe_atom(member, policy, &bound).is_some() {
        return GoalRank::Probe;
    }
    match member {
        Formula::Tuple(entries)
            if entries
                .iter()
                .any(|(_, f)| probe_atom(f, policy, &bound).is_some()) =>
        {
            GoalRank::Indexable
        }
        _ => GoalRank::Scan,
    }
}

/// The position in `goals` (a stack, top last) of the goal to solve next:
/// the lowest `key` — a rank and the size of the goal's set — with ties
/// going to the goal nearest the top.
pub fn next_goal<G>(goals: &[G], key: impl Fn(&G) -> (GoalRank, usize)) -> Option<usize> {
    let mut best: Option<(usize, (GoalRank, usize))> = None;
    for (j, g) in goals.iter().enumerate().rev() {
        let k = key(g);
        if k.0 == GoalRank::Determined {
            return Some(j);
        }
        if best.is_none_or(|(_, b)| k < b) {
            best = Some((j, k));
        }
    }
    best.map(|(j, _)| j)
}

/// One conjunctive sub-goal. `Copy` (all references) so the search can push
/// goals back verbatim when unwinding, keeping sibling alternatives sound.
#[derive(Clone, Copy)]
enum Goal<'a> {
    /// `σf ≤ o`, structurally.
    Sub(&'a Formula, &'a Object),
    /// Remaining members of a set formula, each needing a witness in `set`.
    Members(&'a [Formula], &'a Set),
}

struct Search<'a> {
    policy: MatchPolicy,
    prefilter: &'a dyn Prefilter,
    bindings: FxHashMap<Var, Object>,
    trail: Vec<(Var, Option<Object>)>,
    out: FxHashSet<Substitution>,
    vars: &'a [Var],
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

    /// Meets `v`'s binding with `o`, recording the old value on the trail;
    /// returns the new binding.
    ///
    /// Interned handles make the common cases O(1): re-meeting an equal
    /// subtree (`cur == o`, a pointer check) keeps the current handle, and
    /// "clones" are reference bumps, never deep copies.
    fn meet(&mut self, v: Var, o: &Object) -> Object {
        let old = self.bindings.get(&v).cloned();
        let new = match &old {
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
        let subst = Substitution::from_pairs(self.vars.iter().map(|v| {
            (
                *v,
                // Unconstrained variables (only possible via ⊤ parts of the
                // database) get the maximal binding ⊤.
                self.bindings.get(v).cloned().unwrap_or(Object::Top),
            )
        }));
        if self.policy == MatchPolicy::Strict && subst.has_bottom_binding() {
            return;
        }
        self.out.insert(subst);
    }

    /// The goal-order key of a pending goal (see [Goal order](self#goal-order)).
    fn goal_key(&self, goal: &Goal<'a>) -> (GoalRank, usize) {
        match goal {
            Goal::Members([first, ..], set) => (
                member_rank(first, self.policy, |v| self.bindings.get(&v)),
                set.len(),
            ),
            Goal::Sub(..) | Goal::Members([], _) => (GoalRank::Determined, 0),
        }
    }

    /// Depth-first search over the conjunctive goal stack, best goal first.
    /// On return the stack and the binding map are exactly as on entry (the
    /// trail restores bindings at each choice point; the chosen goal goes
    /// back to the position it was taken from).
    fn solve(&mut self, stack: &mut Vec<Goal<'a>>) {
        let Some(j) = next_goal(stack, |g| self.goal_key(g)) else {
            self.emit();
            return;
        };
        let goal = stack.remove(j);
        match goal {
            Goal::Sub(f, o) => self.solve_sub(f, o, stack),
            Goal::Members(ms, s) => self.solve_members(ms, s, stack),
        }
        stack.insert(j, goal);
    }

    fn solve_sub(&mut self, f: &'a Formula, o: &'a Object, stack: &mut Vec<Goal<'a>>) {
        match (f, o) {
            // σ⊥ = ⊥ ≤ anything.
            (Formula::Bottom, _) => self.solve(stack),
            // Everything is ≤ ⊤: variables below stay unconstrained.
            (_, Object::Top) => self.solve(stack),
            (Formula::Var(v), _) => {
                let mark = self.mark();
                let new = self.meet(*v, o);
                // A ⊥ binding only shrinks further; under Strict it can
                // never reach an emitted substitution, so prune here.
                if !(self.policy == MatchPolicy::Strict && new.is_bottom()) {
                    self.solve(stack);
                }
                self.undo_to(mark);
            }
            (Formula::Atom(a), Object::Atom(b)) if a == b => self.solve(stack),
            (Formula::Tuple(entries), Object::Tuple(_)) => {
                let depth = stack.len();
                for (attr, fe) in entries {
                    // Missing attributes read as ⊥; only ⊥/variable formulas
                    // survive a ⊥ part, which the arms above handle.
                    stack.push(Goal::Sub(fe, o.dot(*attr)));
                }
                self.solve(stack);
                stack.truncate(depth);
            }
            (Formula::Set(members), Object::Set(s)) => {
                let depth = stack.len();
                stack.push(Goal::Members(members.as_slice(), s));
                self.solve(stack);
                stack.truncate(depth);
            }
            // Structural mismatch (atom vs tuple, tuple vs ⊥, …): no match.
            _ => {}
        }
    }

    fn solve_members(&mut self, members: &'a [Formula], set: &'a Set, stack: &mut Vec<Goal<'a>>) {
        let Some((first, rest)) = members.split_first() else {
            self.solve(stack);
            return;
        };
        if let Some(hit) = exact_probe(set, first, self.policy, |v| self.bindings.get(&v)) {
            if let Some(i) = hit {
                self.try_witness(first, rest, set, &set.elements()[i], stack);
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
                    if let Some(e) = set.elements().get(i) {
                        self.try_witness(first, rest, set, e, stack);
                    }
                }
            }
            None => {
                // Iterate by index rather than `set.iter()` so the borrow of
                // `set` is independent of the loop body.
                for e in set.elements() {
                    self.try_witness(first, rest, set, e, stack);
                }
            }
        }
    }

    fn try_witness(
        &mut self,
        first: &'a Formula,
        rest: &'a [Formula],
        set: &'a Set,
        e: &'a Object,
        stack: &mut Vec<Goal<'a>>,
    ) {
        self.stats.candidates_tried += 1;
        let mark = self.mark();
        let depth = stack.len();
        stack.push(Goal::Members(rest, set));
        stack.push(Goal::Sub(first, e));
        self.solve(stack);
        stack.truncate(depth);
        self.undo_to(mark);
    }
}

/// Enumerates the (maximal, deduplicated) substitutions `σ` with `σf ≤ o`,
/// under `policy`, consulting `prefilter` at set-member choice points.
///
/// The returned substitutions are total over `f.variables()` and sorted in a
/// deterministic order.
pub fn match_with(
    f: &Formula,
    o: &Object,
    policy: MatchPolicy,
    prefilter: &dyn Prefilter,
) -> (Vec<Substitution>, MatchStats) {
    let vars = f.variables();
    let mut search = Search {
        policy,
        prefilter,
        bindings: FxHashMap::default(),
        trail: Vec::new(),
        out: FxHashSet::default(),
        vars: &vars,
        stats: MatchStats::default(),
    };
    let mut stack = Vec::new();
    stack.push(Goal::Sub(f, o));
    search.solve(&mut stack);
    search.stats.matches = search.out.len() as u64;
    let mut result: Vec<Substitution> = search.out.into_iter().collect();
    result.sort_by(|a, b| a.iter().cmp(b.iter()));
    (result, search.stats)
}

/// [`match_with`] with the scan-everything prefilter.
pub fn matches(f: &Formula, o: &Object, policy: MatchPolicy) -> Vec<Substitution> {
    match_with(f, o, policy, &ScanAll).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wff;
    use co_object::obj;
    use co_object::order::le;

    fn x() -> Var {
        Var::new("X")
    }
    fn y() -> Var {
        Var::new("Y")
    }
    fn z() -> Var {
        Var::new("Z")
    }

    #[test]
    fn ground_formula_matches_iff_le() {
        let db = obj!([r1: {1, 2}]);
        assert_eq!(matches(&wff!([r1: {1}]), &db, MatchPolicy::Strict).len(), 1);
        assert_eq!(matches(&wff!([r1: {3}]), &db, MatchPolicy::Strict).len(), 0);
        assert_eq!(matches(&wff!(bot), &db, MatchPolicy::Strict).len(), 1);
    }

    #[test]
    fn variable_binds_to_part() {
        let db = obj!([r1: {1, 2}]);
        let f = wff!([r1: (x())]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!({1, 2})));
    }

    #[test]
    fn set_member_variable_enumerates_elements() {
        let db = obj!([r1: {1, 2, 3}]);
        let f = wff!([r1: {(x())}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        let bound: Vec<&Object> = ms.iter().map(|s| s.get(x()).unwrap()).collect();
        assert_eq!(bound.len(), 3);
        assert!(bound.contains(&&obj!(1)));
        assert!(bound.contains(&&obj!(2)));
        assert!(bound.contains(&&obj!(3)));
    }

    #[test]
    fn selection_pattern_example_4_1_1() {
        // [R1: {[A: X, B: b]}] — select R1 tuples with B = b, bind X to A.
        let db = obj!([r1: {[a: 1, b: b], [a: 2, b: c], [a: 3, b: b]}]);
        let f = wff!([r1: {[a: (x()), b: b]}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        let bound: Vec<&Object> = ms.iter().map(|s| s.get(x()).unwrap()).collect();
        assert_eq!(bound.len(), 2);
        assert!(bound.contains(&&obj!(1)));
        assert!(bound.contains(&&obj!(3)));
    }

    #[test]
    fn shared_variable_joins_via_glb() {
        // [R1: {[a: X]}, R2: {[b: X]}] — X must fit both sides.
        let db = obj!([r1: {[a: 1], [a: 2]}, r2: {[b: 2], [b: 3]}]);
        let f = wff!([r1: {[a: (x())]}, r2: {[b: (x())]}]);
        let strict = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].get(x()), Some(&obj!(2)));
        // Literal keeps the ⊥-joined pairs too: (1,2),(1,3),(2,3) give
        // X = ⊥ (deduplicated to one substitution), plus (2,2) gives X = 2.
        let literal = matches(&f, &db, MatchPolicy::Literal);
        assert_eq!(literal.len(), 2);
        assert!(literal.iter().any(|s| s.get(x()) == Some(&Object::Bottom)));
        assert!(literal.iter().any(|s| s.get(x()) == Some(&obj!(2))));
    }

    #[test]
    fn join_binds_through_two_relations() {
        // Example 4.2(3) body: [R1: {[A:X, B:Y]}, R2: {[C:Y, D:Z]}].
        let db = obj!([
            r1: {[a: 1, b: 10], [a: 2, b: 20]},
            r2: {[c: 10, d: 100], [c: 30, d: 300]}
        ]);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y()), d: (z())]}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(1)));
        assert_eq!(ms[0].get(y()), Some(&obj!(10)));
        assert_eq!(ms[0].get(z()), Some(&obj!(100)));
    }

    #[test]
    fn missing_attribute_fails_constants_but_not_variables() {
        let db = obj!([r1: {[a: 1]}]);
        // Constant against missing attribute: no match.
        assert!(matches(&wff!([r1: {[b: 5]}]), &db, MatchPolicy::Strict).is_empty());
        // Variable against missing attribute: binds ⊥ — dropped by Strict,
        // kept by Literal.
        let f = wff!([r1: {[b: (x())]}]);
        assert!(matches(&f, &db, MatchPolicy::Strict).is_empty());
        let lit = matches(&f, &db, MatchPolicy::Literal);
        assert_eq!(lit.len(), 1);
        assert_eq!(lit[0].get(x()), Some(&Object::Bottom));
    }

    #[test]
    fn empty_set_formula_matches_any_set() {
        let db = obj!([r1: {1}]);
        assert_eq!(matches(&wff!([r1: {}]), &db, MatchPolicy::Strict).len(), 1);
        // But not a non-set.
        let db2 = obj!([r1: 5]);
        assert!(matches(&wff!([r1: {}]), &db2, MatchPolicy::Strict).is_empty());
    }

    #[test]
    fn set_member_formula_against_empty_set_fails() {
        let db = obj!([r1: {}]);
        assert!(matches(&wff!([r1: {(x())}]), &db, MatchPolicy::Strict).is_empty());
    }

    #[test]
    fn two_members_can_share_a_witness() {
        // {X, Y} against {1}: both members choose the single element.
        let db = obj!({ 1 });
        let f = wff!({(x()), (y())});
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(1)));
        assert_eq!(ms[0].get(y()), Some(&obj!(1)));
    }

    #[test]
    fn sibling_constraints_hold_across_backtracking() {
        // Regression guard for the goal-stack restore logic: the shared Y
        // constraint must be re-checked for every witness choice of the
        // first member.
        let db = obj!([r1: {[a: 1, k: 7], [a: 2, k: 8]}, r2: {[b: 7]}]);
        let f = wff!([r1: {[a: (x()), k: (y())]}, r2: {[b: (y())]}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&obj!(1)));
        assert_eq!(ms[0].get(y()), Some(&obj!(7)));
    }

    #[test]
    fn nested_set_formulas() {
        // Example 4.5's body shape: nested set matching two levels deep.
        let db = obj!([family: {
            [name: abraham, children: {[name: isaac]}],
            [name: isaac, children: {[name: esau], [name: jacob]}]
        }]);
        let f = wff!([family: {[name: (y()), children: {[name: (x())]}]}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        let pairs: Vec<(String, String)> = ms
            .iter()
            .map(|s| {
                (
                    s.get(y()).unwrap().to_string(),
                    s.get(x()).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&("abraham".into(), "isaac".into())));
        assert!(pairs.contains(&("isaac".into(), "esau".into())));
        assert!(pairs.contains(&("isaac".into(), "jacob".into())));
    }

    #[test]
    fn matching_against_top_leaves_variables_unconstrained() {
        let db = obj!([r1: top]);
        let f = wff!([r1: {[a: (x())]}]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x()), Some(&Object::Top));
    }

    #[test]
    fn soundness_every_emitted_substitution_satisfies_le() {
        let db = obj!([
            r1: {[a: 1, b: 10], [a: 2, b: 20], [a: 2]},
            r2: {[c: 10], [c: 20, d: 5]}
        ]);
        let f = wff!([r1: {[a: (x()), b: (y())]}, r2: {[c: (y())]}]);
        for policy in [MatchPolicy::Strict, MatchPolicy::Literal] {
            for s in matches(&f, &db, policy) {
                let inst = f.instantiate(&s);
                assert!(le(&inst, &db), "σE = {inst} is not ≤ db for σ = {s}");
            }
        }
    }

    #[test]
    fn duplicate_choice_functions_dedupe() {
        // Two members matching the same element produce one substitution,
        // not |choices|².
        let db = obj!({[a: 1]});
        let f = wff!({[a: (x())], [a: (x())]});
        assert_eq!(matches(&f, &db, MatchPolicy::Strict).len(), 1);
    }

    #[test]
    fn variable_repeated_across_tuple_positions_takes_glb() {
        let db = obj!([p: {1, 2}, q: {1, 3}]);
        let f = wff!([p: (x()), q: (x())]);
        let ms = matches(&f, &db, MatchPolicy::Strict);
        assert_eq!(ms.len(), 1);
        // X ≤ {1,2} and X ≤ {1,3}: maximal X is the glb {1}.
        assert_eq!(ms[0].get(x()), Some(&obj!({ 1 })));
    }

    #[test]
    fn member_rank_follows_binding_and_policy() {
        let one = obj!(1);
        let pair = obj!([a: 1]);
        let bound = |v: Var| {
            if v == x() {
                Some(&one)
            } else if v == y() {
                Some(&pair)
            } else {
                None
            }
        };
        let rank = |f: Formula, p| member_rank(&f, p, bound);
        for p in [MatchPolicy::Strict, MatchPolicy::Literal] {
            assert_eq!(rank(wff!(7), p), GoalRank::Probe);
            assert_eq!(rank(wff!([a: 7, b: (z())]), p), GoalRank::Indexable);
            assert_eq!(rank(wff!((y())), p), GoalRank::Scan);
            assert_eq!(rank(wff!((z())), p), GoalRank::Scan);
            assert_eq!(rank(wff!([b: (z())]), p), GoalRank::Scan);
        }
        // Only Strict turns an atom binding into an equality test.
        assert_eq!(rank(wff!((x())), MatchPolicy::Strict), GoalRank::Probe);
        assert_eq!(rank(wff!((x())), MatchPolicy::Literal), GoalRank::Scan);
        assert_eq!(
            rank(wff!([a: (x())]), MatchPolicy::Strict),
            GoalRank::Indexable
        );
        assert_eq!(rank(wff!([a: (x())]), MatchPolicy::Literal), GoalRank::Scan);
    }

    #[test]
    fn next_goal_takes_the_lowest_key_and_breaks_ties_towards_the_top() {
        use GoalRank::*;
        let pick = |keys: &[(GoalRank, usize)]| next_goal(keys, |k| *k);
        assert_eq!(pick(&[]), None);
        assert_eq!(pick(&[(Scan, 5), (Probe, 9), (Scan, 1)]), Some(1));
        assert_eq!(pick(&[(Scan, 5), (Scan, 3), (Scan, 3)]), Some(2));
        assert_eq!(
            pick(&[(Determined, 0), (Probe, 1), (Determined, 0)]),
            Some(2)
        );
        assert_eq!(pick(&[(Determined, 0), (Probe, 1)]), Some(0));
        assert_eq!(pick(&[(Scan, 2), (Delta, 50), (Indexable, 90)]), Some(2));
    }

    #[test]
    fn stats_are_populated() {
        let db = obj!([r1: {1, 2, 3}]);
        let f = wff!([r1: {(x())}]);
        let (ms, stats) = match_with(&f, &db, MatchPolicy::Strict, &ScanAll);
        assert_eq!(ms.len(), 3);
        assert_eq!(stats.candidates_tried, 3);
        assert_eq!(stats.matches, 3);
    }
}
