//! The fixpoint engine: orchestrates strategy, parallelism, policy,
//! indexes, guards, statistics, and tracing around the calculus semantics.
//!
//! # Parallel rounds
//!
//! With [`Parallelism::Threads`], each iteration fans rule × partition
//! work units over a worker pool: the database snapshot of the round is
//! immutable (objects are interned, so sending a handle is an `Arc` bump),
//! every unit matches one rule body — or one [`Partition`] slice of its
//! root choice point — independently, and the per-unit results are merged
//! back **in rule order** with per-rule deduplication. The merged
//! per-rule substitution lists are bit-identical to sequential
//! evaluation's, so the derived database, the trace, and even the
//! interned `NodeId`s of the fixpoint are the same in both modes (see
//! `tests/parallel_equivalence.rs` and ARCHITECTURE.md's determinism
//! section).

use crate::delta::{diff, Delta};
use crate::dmatch::{delta_match, delta_match_part, has_choice_point, Partition};
use crate::index::IndexedPrefilter;
use crate::{EngineError, EvalStats, Guard, Trace, TraceEvent};
use co_calculus::{
    match_with, ClosureMode, MatchPolicy, MatchStats, Prefilter, Program, ScanAll, Substitution,
};
use co_object::lattice::{union, union_many};
use co_object::{measure, store, Object};
use std::sync::{mpsc, Arc};
use std::time::Instant;
use threadpool::ThreadPool;

/// Registry instruments shared by every engine in the process: one
/// `engine.rounds` tick and one `engine.match_ns` / `engine.merge_ns`
/// observation per fixpoint round (resolved once — the per-round cost is
/// two `Instant` reads and three relaxed atomics).
struct EngineInstruments {
    rounds: Arc<co_obs::Counter>,
    match_ns: Arc<co_obs::Histogram>,
    merge_ns: Arc<co_obs::Histogram>,
}

fn engine_instruments() -> &'static EngineInstruments {
    static CELL: std::sync::OnceLock<EngineInstruments> = std::sync::OnceLock::new();
    CELL.get_or_init(|| EngineInstruments {
        rounds: co_obs::counter("engine.rounds"),
        match_ns: co_obs::histogram("engine.match_ns"),
        merge_ns: co_obs::histogram("engine.merge_ns"),
    })
}

/// One `engine.round` span per iteration when `CO_TRACE` is on:
/// `delta_marks` is the round's new-mark count (`u64::MAX` for an
/// all-`New` naive/first round), the `_ns` fields split the round into
/// body matching, head merge + delta computation, and the GC sweep (0
/// when none fired).
#[allow(clippy::too_many_arguments)]
fn emit_round_span(
    iteration: u64,
    delta_marks: u64,
    match_ns: u64,
    merge_ns: u64,
    gc_ns: u64,
    size: u64,
    changed: bool,
) {
    use co_obs::FieldValue as F;
    co_obs::emit(
        "engine.round",
        &[
            ("iteration", F::U64(iteration)),
            ("delta_marks", F::U64(delta_marks)),
            ("match_ns", F::U64(match_ns)),
            ("merge_ns", F::U64(merge_ns)),
            ("gc_ns", F::U64(gc_ns)),
            ("size", F::U64(size)),
            ("changed", F::Bool(changed)),
        ],
    );
}

/// Fixpoint iteration strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Re-match every rule body against the whole database each iteration.
    Naive,
    /// Match against the delta of the previous iteration (plus the full
    /// database on the first one). Requires [`ClosureMode::Inflationary`];
    /// the engine falls back to naive under `PaperLiteral`.
    #[default]
    SemiNaive,
}

/// Degree of parallelism for rule application within each fixpoint round.
///
/// Parallel evaluation is an *execution* choice, not a semantic one: for
/// any [`Strategy`] and [`ClosureMode`], the parallel engine produces the
/// same fixpoint (down to interned `NodeId` identity) and the same trace
/// as sequential evaluation. [`Engine::new`] starts from
/// [`Parallelism::Sequential`]: a parallel run builds its worker pool per
/// call, which costs more than it spreads on closures shorter than about a
/// second. Choose threads with [`Engine::parallelism`] or
/// [`Engine::threads`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// Apply rules one after another on the calling thread. The default.
    #[default]
    Sequential,
    /// Fan rule × partition work units across a pool of this many worker
    /// threads, built at the start of each run and joined at its end.
    /// `Threads(0)` and `Threads(1)` behave like `Sequential`.
    Threads(usize),
}

/// When the engine asks the object store to garbage-collect (see
/// `co_object::store::collect`).
///
/// Collection is an *execution* choice like [`Parallelism`]: it frees
/// interned nodes nobody references any more (superseded intermediate
/// databases, dropped match results) but never changes values, so the
/// fixpoint is bit-identical with any cadence (property-tested in
/// `tests/gc_soak.rs`). The engine pins its round snapshot as a GC root
/// before fanning work out, so a sweep can never free the database under
/// evaluation.
///
/// The cadence decides *when* the engine requests a sweep; *how* the
/// sweep runs is the store's affair: the cycle is sliced so interner
/// locks are never held much longer than `store::gc_pause_budget_us`.
/// The engine's `store::collect` call always sweeps on the calling thread
/// and returns after a full cycle; when the store's collector thread is
/// on, the two are serialised by the store's collect gate. So
/// `gc_sweeps`/`gc_freed_nodes` accounting and the differential oracle
/// are the same in either mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GcCadence {
    /// Never collect during a run: the seed behaviour, right for short
    /// batch evaluations.
    #[default]
    Off,
    /// Collect after every `n`-th changed round (`n ≥ 1`): bounds store
    /// growth for long-running fixpoints whose working set drifts.
    EveryRounds(u32),
}

impl GcCadence {
    /// True when a collection should run after iteration `iteration`.
    fn fires_after(self, iteration: u64) -> bool {
        match self {
            GcCadence::Off => false,
            GcCadence::EveryRounds(n) => iteration.is_multiple_of(u64::from(n.max(1))),
        }
    }
}

impl Parallelism {
    /// Effective worker count: 1 for sequential execution.
    fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// The result of a successful run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The closed database (for `Inflationary`, the minimal closed object
    /// above the input).
    pub database: Object,
    /// Run statistics.
    pub stats: EvalStats,
    /// The execution trace, when tracing was enabled.
    pub trace: Option<Trace>,
}

/// A configured fixpoint engine.
///
/// ```
/// use co_engine::Engine;
/// use co_parser::{parse_object, parse_program};
///
/// let db = parse_object(
///     "[family: {[name: abraham, children: {[name: isaac]}],
///                [name: isaac,   children: {[name: esau], [name: jacob]}]}]",
/// )
/// .unwrap();
/// let program = parse_program(
///     "[doa: {abraham}].
///      [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
/// )
/// .unwrap();
/// let out = Engine::new(program).run(&db).unwrap();
/// assert_eq!(
///     out.database.at_path(&["doa"]).unwrap(),
///     &parse_object("{abraham, isaac, esau, jacob}").unwrap()
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    pub(crate) program: Program,
    pub(crate) strategy: Strategy,
    pub(crate) mode: ClosureMode,
    pub(crate) policy: MatchPolicy,
    pub(crate) guard: Guard,
    pub(crate) use_indexes: bool,
    pub(crate) tracing: bool,
    pub(crate) parallelism: Parallelism,
    pub(crate) gc: GcCadence,
    /// The live checkpoint chain, when this engine has checkpointed (or
    /// was restored from a chain): `Engine::checkpoint` auto-selects
    /// delta snapshots against it. Shared across clones — a cloned engine
    /// continues the same chain.
    pub(crate) chain: std::sync::Arc<std::sync::Mutex<Option<crate::checkpoint::CheckpointHandle>>>,
}

impl Engine {
    /// Creates an engine with the default configuration: semi-naive,
    /// inflationary, strict matching, indexes on, default guard, no trace,
    /// [`Parallelism::Sequential`], [`GcCadence::Off`].
    pub fn new(program: Program) -> Engine {
        Engine {
            program,
            strategy: Strategy::default(),
            mode: ClosureMode::default(),
            policy: MatchPolicy::default(),
            guard: Guard::default(),
            use_indexes: true,
            tracing: false,
            parallelism: Parallelism::default(),
            gc: GcCadence::default(),
            chain: std::sync::Arc::new(std::sync::Mutex::new(None)),
        }
    }

    /// The program this engine evaluates.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// This engine's configuration applied to a different program: the
    /// strategy, mode, policy, guard, index/tracing flags, parallelism,
    /// and GC cadence are kept; the checkpoint chain is **not** shared
    /// (a chain's delta layers carry the program they were written with,
    /// so a new program starts a new chain). This is how a
    /// [`SharedEngine`](crate::SharedEngine) runs per-request programs
    /// under one server-wide configuration.
    pub fn with_program(&self, program: Program) -> Engine {
        Engine {
            program,
            chain: std::sync::Arc::new(std::sync::Mutex::new(None)),
            ..self.clone()
        }
    }

    /// The configured match policy.
    pub fn match_policy(&self) -> MatchPolicy {
        self.policy
    }

    /// Selects the iteration strategy.
    pub fn strategy(mut self, s: Strategy) -> Engine {
        self.strategy = s;
        self
    }

    /// Selects the degree of parallelism for rule application (the
    /// default is [`Parallelism::Sequential`]).
    ///
    /// ```
    /// use co_engine::{Engine, Parallelism};
    /// use co_parser::{parse_object, parse_program};
    ///
    /// let db = parse_object("[edge: {[s: a, t: b], [s: b, t: c]}]").unwrap();
    /// let program = parse_program(
    ///     "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
    ///      [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}].",
    /// )
    /// .unwrap();
    /// let sequential = Engine::new(program.clone()).run(&db).unwrap();
    /// let parallel = Engine::new(program)
    ///     .parallelism(Parallelism::Threads(4))
    ///     .run(&db)
    ///     .unwrap();
    /// // Parallel evaluation is deterministic: bit-identical fixpoint.
    /// assert_eq!(sequential.database, parallel.database);
    /// assert_eq!(sequential.database.node_id(), parallel.database.node_id());
    /// ```
    pub fn parallelism(mut self, p: Parallelism) -> Engine {
        self.parallelism = p;
        self
    }

    /// Convenience for [`Engine::parallelism`]`(Parallelism::Threads(n))`.
    pub fn threads(self, n: usize) -> Engine {
        self.parallelism(Parallelism::Threads(n))
    }

    /// Selects when the engine garbage-collects the object store.
    ///
    /// ```
    /// use co_engine::{Engine, GcCadence};
    /// use co_parser::{parse_object, parse_program};
    ///
    /// let db = parse_object("[edge: {[s: a, t: b], [s: b, t: c]}]").unwrap();
    /// let program = parse_program(
    ///     "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
    ///      [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}].",
    /// )
    /// .unwrap();
    /// let plain = Engine::new(program.clone()).run(&db).unwrap();
    /// let collected = Engine::new(program)
    ///     .gc_cadence(GcCadence::EveryRounds(1))
    ///     .run(&db)
    ///     .unwrap();
    /// // Collection frees garbage, never values: identical fixpoints.
    /// assert_eq!(plain.database, collected.database);
    /// assert!(collected.stats.gc_sweeps > 0);
    /// ```
    pub fn gc_cadence(mut self, c: GcCadence) -> Engine {
        self.gc = c;
        self
    }

    /// Convenience for [`Engine::gc_cadence`]`(GcCadence::EveryRounds(n))`.
    pub fn gc_every_rounds(self, n: u32) -> Engine {
        self.gc_cadence(GcCadence::EveryRounds(n))
    }

    /// Selects the closure mode (see `co_calculus::ClosureMode`).
    pub fn mode(mut self, m: ClosureMode) -> Engine {
        self.mode = m;
        self
    }

    /// Selects the match policy (see `co_calculus::MatchPolicy`).
    pub fn policy(mut self, p: MatchPolicy) -> Engine {
        self.policy = p;
        self
    }

    /// Installs a resource guard.
    pub fn guard(mut self, g: Guard) -> Engine {
        self.guard = g;
        self
    }

    /// Enables or disables attribute-value indexes.
    pub fn indexes(mut self, on: bool) -> Engine {
        self.use_indexes = on;
        self
    }

    /// Enables or disables tracing.
    pub fn tracing(mut self, on: bool) -> Engine {
        self.tracing = on;
        self
    }

    /// The effective strategy: semi-naive needs monotone growth, which only
    /// the inflationary mode guarantees.
    fn effective_strategy(&self) -> Strategy {
        match (self.strategy, self.mode) {
            (Strategy::SemiNaive, ClosureMode::PaperLiteral) => Strategy::Naive,
            (s, _) => s,
        }
    }

    /// Runs the engine to the closure of `db` under the program.
    pub fn run(&self, db: &Object) -> Result<RunOutcome, EngineError> {
        let start = Instant::now();
        let strategy = self.effective_strategy();
        let indexed: Option<Arc<IndexedPrefilter>> = if self.use_indexes {
            Some(Arc::new(IndexedPrefilter::new(self.policy)))
        } else {
            None
        };
        let prefilter: Arc<dyn Prefilter + Send + Sync> = match &indexed {
            Some(p) => Arc::clone(p) as Arc<dyn Prefilter + Send + Sync>,
            None => Arc::new(ScanAll),
        };
        // The worker pool lives for the whole run; per-round dispatch is a
        // boxed closure + channel round-trip per work unit, not a thread
        // spawn. The partition plan is constant for the run: oversubscribe
        // slightly (2 units per worker) so uneven rule costs still keep
        // every worker busy, slicing each rule's root choice point into
        // `base_parts` disjoint partitions — except rules whose bodies
        // have none to slice (facts, pure tuple shapes): every partition
        // of those would run the identical full search, so they dispatch
        // as a single unit.
        let workers = self.parallelism.worker_count();
        let pool: Option<(ThreadPool, Arc<Program>, Vec<usize>)> =
            if workers >= 2 && !self.program.rules().is_empty() {
                let base_parts = (workers * 2).div_ceil(self.program.rules().len()).max(1);
                let parts_per_rule = self
                    .program
                    .rules()
                    .iter()
                    .map(|r| {
                        if has_choice_point(r.body()) {
                            base_parts
                        } else {
                            1
                        }
                    })
                    .collect();
                Some((
                    ThreadPool::new(workers),
                    Arc::new(self.program.clone()),
                    parts_per_rule,
                ))
            } else {
                None
            };
        // Matching the whole database is matching against an all-`New`
        // delta (first iterations, naive rounds).
        let all_new = Arc::new(Delta::New);

        let mut stats = EvalStats::default();
        let mut trace = if self.tracing {
            Some(Trace::new())
        } else {
            None
        };
        let mut current = db.clone();
        let mut delta: Option<Arc<Delta>> = None; // None = first iteration.

        loop {
            let iteration = stats.iterations + 1;
            if iteration > self.guard.max_iterations {
                return Err(self.diverged(
                    format!(
                        "no fixpoint within {} iterations",
                        self.guard.max_iterations
                    ),
                    current,
                    stats,
                    start,
                ));
            }
            if let Some(reason) = self.guard.check_time(start.elapsed()) {
                return Err(self.diverged(reason, current, stats, start));
            }
            if let Some(t) = trace.as_mut() {
                t.record(TraceEvent::IterationStart { iteration });
            }

            // When GC can run, pin this round's snapshot as an explicit
            // root before fanning work units out: workers only ever borrow
            // `Arc` clones of it, and the pin guarantees a sweep scheduled
            // anywhere (another engine, an operator task) keeps the
            // database under evaluation alive for the whole round.
            let round_root: Option<store::Root> = match self.gc {
                GcCadence::Off => None,
                GcCadence::EveryRounds(_) => store::pin(&current),
            };

            let round_marks = match (strategy, &delta) {
                (Strategy::SemiNaive, Some(d)) => d.new_marks(),
                _ => all_new.new_marks(),
            };
            let match_start = Instant::now();

            // Match every rule body — sequentially or fanned out over the
            // pool — into one substitution list per rule, in rule order.
            let per_rule = match &pool {
                Some((pool, program, parts_per_rule)) => {
                    let round_delta = match (strategy, &delta) {
                        (Strategy::SemiNaive, Some(d)) => d,
                        _ => &all_new,
                    };
                    self.parallel_round(
                        pool,
                        program,
                        parts_per_rule,
                        &current,
                        round_delta,
                        &prefilter,
                        &mut stats,
                    )
                }
                None => self.sequential_round(
                    strategy,
                    &current,
                    delta.as_deref(),
                    prefilter.as_ref(),
                    &mut stats,
                ),
            };

            let match_elapsed = match_start.elapsed();
            let merge_start = Instant::now();

            // Collect head contributions; union them in one bulk pass
            // (quadratic-accumulation matters at scale).
            let mut contributions: Vec<Object> = Vec::new();
            for (rule_index, (substs, mstats)) in per_rule.into_iter().enumerate() {
                let rule = &self.program.rules()[rule_index];
                stats.rule_applications += 1;
                stats.matching.merge(mstats);
                for s in &substs {
                    let contribution = rule.head().instantiate(s);
                    if let Some(t) = trace.as_mut() {
                        t.record(TraceEvent::RuleFired {
                            iteration,
                            rule_index,
                            substitution: s.clone(),
                            contribution: contribution.clone(),
                        });
                    }
                    contributions.push(contribution);
                }
            }
            let applied = union_many(contributions);

            let next = match self.mode {
                ClosureMode::Inflationary => union(&current, &applied),
                ClosureMode::PaperLiteral => applied,
            };
            let changed = next != current;
            let size = measure::size(&next);
            stats.iterations = iteration;
            stats.sizes.push(size);
            if let Some(t) = trace.as_mut() {
                t.record(TraceEvent::IterationEnd {
                    iteration,
                    size,
                    changed,
                });
            }

            let instruments = engine_instruments();
            instruments.rounds.inc();
            instruments.match_ns.record_duration(match_elapsed);

            if !changed {
                let merge_elapsed = merge_start.elapsed();
                instruments.merge_ns.record_duration(merge_elapsed);
                if co_obs::trace_enabled() {
                    emit_round_span(
                        iteration,
                        round_marks,
                        match_elapsed.as_nanos() as u64,
                        merge_elapsed.as_nanos() as u64,
                        0,
                        size as u64,
                        false,
                    );
                }
                stats.elapsed = start.elapsed();
                return Ok(RunOutcome {
                    database: current,
                    stats,
                    trace,
                });
            }
            if let Some(reason) = self.guard.check_database(&next) {
                return Err(self.diverged(reason, next, stats, start));
            }

            if strategy == Strategy::SemiNaive {
                delta = Some(Arc::new(diff(&current, &next)));
            }
            if let Some(p) = &indexed {
                p.retain_reachable(&next);
            }
            // Promote `next` before a potential sweep: unpinning the round
            // root and dropping the superseded database here turns the old
            // generation into garbage this round's collection reclaims.
            drop(round_root);
            current = next;
            let merge_elapsed = merge_start.elapsed();
            instruments.merge_ns.record_duration(merge_elapsed);
            let mut gc_elapsed = std::time::Duration::ZERO;
            if self.gc.fires_after(iteration) {
                // Pin the new database, sweep, and account for it. The
                // superseded generation and this round's match
                // intermediates are the garbage being reclaimed; `current`
                // (pinned), the trace, and anything the caller holds are
                // reachable and therefore untouchable.
                let gc_start = Instant::now();
                let _db_root = store::pin(&current);
                let swept = store::collect();
                gc_elapsed = gc_start.elapsed();
                stats.gc_sweeps += 1;
                stats.gc_freed_nodes += swept.freed_nodes() as u64;
            }
            if co_obs::trace_enabled() {
                emit_round_span(
                    iteration,
                    round_marks,
                    match_elapsed.as_nanos() as u64,
                    merge_elapsed.as_nanos() as u64,
                    gc_elapsed.as_nanos() as u64,
                    size as u64,
                    true,
                );
            }
        }
    }

    /// One sequential round: every rule matched in order on this thread.
    fn sequential_round(
        &self,
        strategy: Strategy,
        current: &Object,
        delta: Option<&Delta>,
        prefilter: &dyn Prefilter,
        stats: &mut EvalStats,
    ) -> Vec<(Vec<Substitution>, MatchStats)> {
        stats.work_units += self.program.rules().len() as u64;
        self.program
            .rules()
            .iter()
            .map(|rule| match (strategy, delta) {
                (Strategy::SemiNaive, Some(d)) => {
                    delta_match(rule.body(), current, d, self.policy, prefilter)
                }
                _ => match_with(rule.body(), current, self.policy, prefilter),
            })
            .collect()
    }

    /// One parallel round: `rule × partition` work units (per the
    /// run-constant `parts_per_rule` plan) fanned over the pool, merged
    /// back in `(rule, partition)` order with per-rule deduplication —
    /// the result is bit-identical to a sequential round.
    #[allow(clippy::too_many_arguments)]
    fn parallel_round(
        &self,
        pool: &ThreadPool,
        program: &Arc<Program>,
        parts_per_rule: &[usize],
        current: &Object,
        round_delta: &Arc<Delta>,
        prefilter: &Arc<dyn Prefilter + Send + Sync>,
        stats: &mut EvalStats,
    ) -> Vec<(Vec<Substitution>, MatchStats)> {
        let total_units: usize = parts_per_rule.iter().sum();
        stats.work_units += total_units as u64;
        let (tx, rx) = mpsc::channel();
        let mut next_unit = 0usize;
        for (rule_index, &parts) in parts_per_rule.iter().enumerate() {
            for part in 0..parts {
                let tx = tx.clone();
                let program = Arc::clone(program);
                // Interned handles make these clones reference bumps.
                let db = current.clone();
                let delta = Arc::clone(round_delta);
                let prefilter = Arc::clone(prefilter);
                let policy = self.policy;
                let unit = next_unit;
                next_unit += 1;
                let partition = (parts > 1).then_some(Partition {
                    index: part,
                    of: parts,
                });
                pool.execute(move || {
                    let rule = &program.rules()[rule_index];
                    let out = delta_match_part(
                        rule.body(),
                        &db,
                        &delta,
                        policy,
                        prefilter.as_ref(),
                        partition,
                    );
                    // A send can only fail if the receiver is gone, which
                    // means the engine thread panicked; nothing to do.
                    let _ = tx.send((unit, out));
                });
            }
        }
        drop(tx);
        let mut by_unit: Vec<Option<(Vec<Substitution>, MatchStats)>> =
            (0..total_units).map(|_| None).collect();
        for (unit, out) in rx.iter() {
            by_unit[unit] = Some(out);
        }
        let mut units = by_unit.into_iter().map(|slot| {
            slot.expect("a parallel match worker panicked without delivering its result")
        });
        parts_per_rule
            .iter()
            .map(|&parts| {
                let mut substs: Vec<Substitution> = Vec::new();
                let mut mstats = MatchStats::default();
                for _ in 0..parts {
                    let (part_substs, part_stats) = units.next().expect("unit count");
                    substs.extend(part_substs);
                    mstats.merge(part_stats);
                }
                if parts > 1 {
                    // Distinct partitions can derive the same substitution
                    // through different root witnesses: dedup to match the
                    // sequential (set-semantics) result exactly. (A single
                    // unit is already sorted and deduplicated.)
                    substs.sort_by(|a, b| a.iter().cmp(b.iter()));
                    substs.dedup();
                    mstats.matches = substs.len() as u64;
                }
                (substs, mstats)
            })
            .collect()
    }

    fn diverged(
        &self,
        reason: String,
        partial: Object,
        mut stats: EvalStats,
        start: Instant,
    ) -> EngineError {
        stats.elapsed = start.elapsed();
        EngineError::Diverged {
            reason,
            partial: Box::new(partial),
            stats: Box::new(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_calculus::{wff, Rule, Var};
    use co_object::obj;

    fn x() -> Var {
        Var::new("X")
    }
    fn y() -> Var {
        Var::new("Y")
    }

    fn genealogy_db() -> Object {
        obj!([family: {
            [name: abraham, children: {[name: isaac]}],
            [name: isaac, children: {[name: esau], [name: jacob]}],
            [name: jacob, children: {[name: joseph], [name: judah]}]
        }])
    }

    fn descendants_program() -> Program {
        Program::from_rules([
            Rule::fact(wff!([doa: {abraham}])).unwrap(),
            Rule::new(
                wff!([doa: {(x())}]),
                wff!([family: {[name: (y()), children: {[name: (x())]}]}, doa: {(y())}]),
            )
            .unwrap(),
        ])
    }

    fn expected_descendants() -> Object {
        obj!({abraham, isaac, esau, jacob, joseph, judah})
    }

    #[test]
    fn all_strategy_combinations_agree_on_genealogy() {
        let db = genealogy_db();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            for use_indexes in [false, true] {
                let out = Engine::new(descendants_program())
                    .strategy(strategy)
                    .indexes(use_indexes)
                    .run(&db)
                    .unwrap();
                assert_eq!(
                    out.database.dot("doa"),
                    &expected_descendants(),
                    "strategy={strategy:?} indexes={use_indexes}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_closure() {
        let db = genealogy_db();
        let reference = co_calculus::closure(
            &descendants_program(),
            &db,
            ClosureMode::Inflationary,
            MatchPolicy::Strict,
            co_calculus::ClosureLimits::default(),
        )
        .unwrap();
        let out = Engine::new(descendants_program()).run(&db).unwrap();
        assert_eq!(out.database, reference.object);
    }

    #[test]
    fn seminaive_does_less_matching_work_than_naive() {
        // Build a long chain so the fixpoint needs many iterations.
        let n = 30;
        let family =
            Object::set((0..n).map(
                |i| obj!([name: (format!("p{i}")), children: {[name: (format!("p{}", i + 1))]}]),
            ));
        let db = Object::tuple([("family", family)]);
        let program = Program::from_rules([
            Rule::fact(wff!([doa: {p0}])).unwrap(),
            Rule::new(
                wff!([doa: {(x())}]),
                wff!([family: {[name: (y()), children: {[name: (x())]}]}, doa: {(y())}]),
            )
            .unwrap(),
        ]);
        let naive = Engine::new(program.clone())
            .strategy(Strategy::Naive)
            .indexes(false)
            .run(&db)
            .unwrap();
        let semi = Engine::new(program)
            .strategy(Strategy::SemiNaive)
            .indexes(false)
            .run(&db)
            .unwrap();
        assert_eq!(naive.database, semi.database);
        // Same number of iterations, far fewer emitted matches overall.
        assert_eq!(naive.stats.iterations, semi.stats.iterations);
        assert!(
            semi.stats.matching.matches < naive.stats.matching.matches,
            "semi-naive {} vs naive {}",
            semi.stats.matching.matches,
            naive.stats.matching.matches
        );
    }

    #[test]
    fn divergence_is_guarded() {
        // Paper Example 4.6.
        let program = Program::from_rules([
            Rule::fact(wff!([list: {1}])).unwrap(),
            Rule::new(
                wff!([list: {[head: 1, tail: (x())]}]),
                wff!([list: {(x())}]),
            )
            .unwrap(),
        ]);
        let err = Engine::new(program)
            .guard(Guard {
                max_iterations: 40,
                max_depth: 25,
                ..Guard::default()
            })
            .run(&obj!([list: {}]))
            .unwrap_err();
        match err {
            EngineError::Diverged {
                reason,
                partial,
                stats,
            } => {
                assert!(reason.contains("depth") || reason.contains("iterations"));
                assert!(measure::size(&partial) > 1);
                assert!(stats.iterations > 1);
            }
        }
    }

    #[test]
    fn paper_literal_mode_forces_naive() {
        let p = Program::from_rules([Rule::new(wff!([r: {(x())}]), wff!([r: {(x())}])).unwrap()]);
        let e = Engine::new(p).mode(ClosureMode::PaperLiteral);
        assert_eq!(e.effective_strategy(), Strategy::Naive);
    }

    #[test]
    fn tracing_records_firings() {
        let out = Engine::new(descendants_program())
            .tracing(true)
            .run(&genealogy_db())
            .unwrap();
        let trace = out.trace.unwrap();
        assert!(trace.firings().count() >= 6);
        let text = trace.render();
        assert!(text.contains("iteration 1"));
        assert!(text.contains("fixpoint"));
    }

    #[test]
    fn stats_are_recorded() {
        let out = Engine::new(descendants_program())
            .run(&genealogy_db())
            .unwrap();
        assert!(out.stats.iterations >= 3);
        assert_eq!(
            out.stats.rule_applications,
            out.stats.iterations * 2 // two rules
        );
        assert_eq!(out.stats.sizes.len() as u64, out.stats.iterations);
        assert!(out.stats.final_size().unwrap() > 0);
        assert!(out.stats.to_string().contains("iterations"));
    }

    #[test]
    fn parallel_runs_match_sequential_bit_for_bit() {
        let db = genealogy_db();
        let sequential = Engine::new(descendants_program())
            .parallelism(Parallelism::Sequential)
            .tracing(true)
            .run(&db)
            .unwrap();
        for threads in [2, 3, 4, 8] {
            for indexes in [false, true] {
                let parallel = Engine::new(descendants_program())
                    .threads(threads)
                    .indexes(indexes)
                    .tracing(true)
                    .run(&db)
                    .unwrap();
                assert_eq!(
                    parallel.database, sequential.database,
                    "threads={threads} indexes={indexes}"
                );
                // Hash-consing makes "bit-identical" checkable: the same
                // canonical value is the same interned node.
                assert_eq!(parallel.database.node_id(), sequential.database.node_id());
                // The merged trace is identical event-for-event.
                assert_eq!(
                    parallel.trace.as_ref().unwrap().events(),
                    sequential.trace.as_ref().unwrap().events(),
                    "threads={threads} indexes={indexes}"
                );
            }
        }
    }

    #[test]
    fn parallel_naive_strategy_agrees_too() {
        let db = genealogy_db();
        let sequential = Engine::new(descendants_program())
            .strategy(Strategy::Naive)
            .parallelism(Parallelism::Sequential)
            .run(&db)
            .unwrap();
        let parallel = Engine::new(descendants_program())
            .strategy(Strategy::Naive)
            .threads(4)
            .run(&db)
            .unwrap();
        assert_eq!(parallel.database, sequential.database);
        assert_eq!(parallel.stats.iterations, sequential.stats.iterations);
    }

    #[test]
    fn parallel_divergence_is_guarded_like_sequential() {
        let program = Program::from_rules([
            Rule::fact(wff!([list: {1}])).unwrap(),
            Rule::new(
                wff!([list: {[head: 1, tail: (x())]}]),
                wff!([list: {(x())}]),
            )
            .unwrap(),
        ]);
        let err = Engine::new(program)
            .threads(4)
            .guard(Guard {
                max_iterations: 40,
                max_depth: 25,
                ..Guard::default()
            })
            .run(&obj!([list: {}]))
            .unwrap_err();
        let EngineError::Diverged { reason, .. } = err;
        assert!(reason.contains("depth") || reason.contains("iterations"));
    }

    #[test]
    fn work_units_reflect_fan_out() {
        let db = genealogy_db();
        let sequential = Engine::new(descendants_program())
            .parallelism(Parallelism::Sequential)
            .run(&db)
            .unwrap();
        let parallel = Engine::new(descendants_program())
            .threads(4)
            .run(&db)
            .unwrap();
        // Two rules per iteration sequentially…
        assert_eq!(sequential.stats.work_units, sequential.stats.iterations * 2);
        // …and strictly more units when each rule is partitioned.
        assert!(parallel.stats.work_units > parallel.stats.rule_applications);
    }

    #[test]
    fn empty_program_is_a_fixpoint_immediately() {
        let out = Engine::new(Program::new()).run(&obj!([r: {1}])).unwrap();
        assert_eq!(out.database, obj!([r: {1}]));
        assert_eq!(out.stats.iterations, 1);
    }
}
