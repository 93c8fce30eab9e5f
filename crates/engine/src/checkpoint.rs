//! Engine checkpoint/restore: durable fixpoint state on the `co-wire`
//! snapshot format.
//!
//! A checkpoint captures everything a fresh process needs to continue an
//! evaluation and reach the **same** fixpoint with the **same** trace:
//!
//! - the database object (snapshot root 0), plus one root per top-level
//!   relation (so tooling can load a single relation without decoding the
//!   database wrapper — they share the node table, costing only a root
//!   reference each);
//! - the program, rendered in the concrete syntax (its `Display` form
//!   round-trips through `co_parser::parse_program` — property-tested in
//!   the parser crate);
//! - the semantic configuration: strategy, closure mode, match policy,
//!   index usage, tracing, and the full [`Guard`].
//!
//! Execution choices — [`Parallelism`](crate::Parallelism) and
//! [`GcCadence`](crate::GcCadence) — are deliberately **not** persisted:
//! they never affect results (bit-identical fixpoints and traces are the
//! engine's contract), and the restoring host's core count and memory
//! budget are what should pick them. A restored engine starts from the
//! defaults, exactly like [`Engine::new`]: [`Parallelism::Sequential`]
//! and [`GcCadence::Off`]; the caller chooses others with
//! [`Engine::parallelism`] and [`Engine::gc_cadence`].
//!
//! [`Parallelism::Sequential`]: crate::Parallelism::Sequential
//! [`GcCadence::Off`]: crate::GcCadence::Off
//!
//! The database is pinned as a GC root for the duration of the write, so
//! a concurrent or auto-triggered [`co_object::store::collect`] can never
//! free nodes mid-serialization.
//!
//! # Incremental checkpoints
//!
//! Fixpoint databases grow monotonically and mostly slowly: between two
//! checkpoints of a hot engine, the overwhelming share of interned nodes
//! is unchanged. [`Engine::checkpoint`] therefore auto-selects **delta
//! snapshots** once a chain is live: the first call writes a full
//! (version 1) snapshot, later calls write version-2 deltas carrying only
//! the nodes the chain lacks, and [`Engine::restore_chain`] replays the
//! layers — full first, then each delta — verifying every link's base
//! identity (payload checksum + cumulative node count). GC between
//! deltas is safe: the handle maps live `NodeId`s, freed ids are never
//! recycled, and content that is re-derived after a sweep simply
//! re-encodes in the next delta (never silently mis-references). Chains
//! are capped at [`co_wire::MAX_CHAIN_DEPTH`] layers; the auto mode then
//! rolls over into a fresh full snapshot, and [`co_wire::compact_chain`]
//! rewrites an existing chain offline.

use crate::{Engine, Guard, Strategy};
use co_calculus::{ClosureMode, MatchPolicy, Program};
use co_object::{store, Object};
use co_wire::codec::{put_str, put_varint, Cursor};
use co_wire::{SnapshotHandle, WireError, WriteStats};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version byte of the engine metadata blob inside the snapshot.
const META_VERSION: u8 = 1;

/// Why a checkpoint could not be written, or a snapshot not restored
/// into an engine.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying snapshot write/read failed.
    Wire(WireError),
    /// The snapshot decoded, but its engine metadata is missing or
    /// inconsistent (not an engine checkpoint, or a damaged one).
    Meta {
        /// What was wrong.
        detail: String,
    },
    /// The persisted program text failed to re-parse.
    Program {
        /// The rendered parse error.
        detail: String,
    },
    /// A delta checkpoint targeted a path that is already a layer of its
    /// own base chain: the atomic rename would destroy the base and make
    /// the chain unrestorable.
    LayerClobber {
        /// The colliding path.
        path: PathBuf,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Wire(e) => write!(f, "{e}"),
            CheckpointError::Meta { detail } => {
                write!(f, "invalid engine checkpoint metadata: {detail}")
            }
            CheckpointError::Program { detail } => {
                write!(f, "checkpoint program failed to re-parse: {detail}")
            }
            CheckpointError::LayerClobber { path } => write!(
                f,
                "delta checkpoint would overwrite `{}`, a layer of its own base chain — \
                 write a full checkpoint or pick another path",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

/// A successfully restored checkpoint: the reconfigured engine and the
/// database it was evaluating.
#[derive(Clone, Debug)]
pub struct Restored {
    /// An engine with the persisted program and semantic configuration
    /// (parallelism and GC cadence at their defaults, as from
    /// [`Engine::new`]). The restored chain is its live checkpoint handle,
    /// so a further [`Engine::checkpoint`] continues it with a delta.
    pub engine: Engine,
    /// The database object at checkpoint time, re-interned canonically.
    pub database: Object,
}

/// A handle onto a written checkpoint chain: the wire-level base identity
/// plus the on-disk layer paths, in restore order. What
/// [`Engine::checkpoint_delta`] encodes against, and what
/// [`Engine::restore_chain`] needs to reassemble the state.
#[derive(Clone, Debug)]
pub struct CheckpointHandle {
    pub(crate) wire: SnapshotHandle,
    pub(crate) layers: Vec<PathBuf>,
}

impl CheckpointHandle {
    /// The chain's layer files, oldest (the full snapshot) first — the
    /// argument [`Engine::restore_chain`] expects.
    pub fn layers(&self) -> &[PathBuf] {
        &self.layers
    }

    /// How many layers the chain has (1 = a single full snapshot).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The wire-level identity (payload checksum + cumulative node
    /// count) a delta written against this handle will declare.
    pub fn base_id(&self) -> co_wire::BaseId {
        self.wire.base_id()
    }
}

fn strategy_code(s: Strategy) -> u8 {
    match s {
        Strategy::Naive => 0,
        Strategy::SemiNaive => 1,
    }
}

fn mode_code(m: ClosureMode) -> u8 {
    match m {
        ClosureMode::Inflationary => 0,
        ClosureMode::PaperLiteral => 1,
    }
}

fn policy_code(p: MatchPolicy) -> u8 {
    match p {
        MatchPolicy::Strict => 0,
        MatchPolicy::Literal => 1,
    }
}

/// Encodes the engine metadata blob: version, config, guard, program
/// text, and the relation names pairing with snapshot roots `1..`.
fn encode_meta(engine: &Engine, relation_names: &[String]) -> Vec<u8> {
    let mut meta = vec![
        META_VERSION,
        strategy_code(engine.strategy),
        mode_code(engine.mode),
        policy_code(engine.policy),
    ];
    let mut flags = 0u8;
    if engine.use_indexes {
        flags |= 1;
    }
    if engine.tracing {
        flags |= 2;
    }
    meta.push(flags);
    put_varint(&mut meta, engine.guard.max_iterations);
    put_varint(&mut meta, engine.guard.max_size);
    put_varint(&mut meta, engine.guard.max_depth);
    match engine.guard.time_limit {
        None => meta.push(0),
        Some(d) => {
            meta.push(1);
            put_varint(&mut meta, d.as_secs());
            put_varint(&mut meta, u64::from(d.subsec_nanos()));
        }
    }
    put_str(&mut meta, &engine.program.to_string());
    put_varint(&mut meta, relation_names.len() as u64);
    for name in relation_names {
        put_str(&mut meta, name);
    }
    meta
}

/// Whether `target` names one of the chain's layer files: writing a
/// delta there would rename over its own base. Compared canonically when
/// the paths exist (so `./db.cow` and `db.cow` collide); a target that
/// does not exist yet cannot be a live layer.
fn collides_with_chain(target: &Path, layers: &[PathBuf]) -> bool {
    let canonical_target = match std::fs::canonicalize(target) {
        Ok(p) => p,
        // Not on disk (or unreadable): it cannot be a restorable layer,
        // and the raw-equality fallback still catches exact respellings.
        Err(_) => return layers.iter().any(|l| l == target),
    };
    layers
        .iter()
        .any(|l| std::fs::canonicalize(l).map_or(l == target, |c| c == canonical_target))
}

/// Decodes what [`encode_meta`] wrote.
fn decode_meta(meta: &[u8]) -> Result<(Engine, Vec<String>), CheckpointError> {
    let bad = |detail: String| CheckpointError::Meta { detail };
    let mut c = Cursor::new(meta);
    let ctx = "engine metadata";
    let wire = |e: WireError| match e {
        WireError::Truncated { .. } => CheckpointError::Meta {
            detail: "metadata truncated".into(),
        },
        e => CheckpointError::Meta {
            detail: e.to_string(),
        },
    };
    let version = c.u8(ctx).map_err(wire)?;
    if version != META_VERSION {
        return Err(bad(format!(
            "unsupported metadata version {version} (this build reads version {META_VERSION})"
        )));
    }
    let strategy = match c.u8(ctx).map_err(wire)? {
        0 => Strategy::Naive,
        1 => Strategy::SemiNaive,
        other => return Err(bad(format!("unknown strategy code {other}"))),
    };
    let mode = match c.u8(ctx).map_err(wire)? {
        0 => ClosureMode::Inflationary,
        1 => ClosureMode::PaperLiteral,
        other => return Err(bad(format!("unknown closure-mode code {other}"))),
    };
    let policy = match c.u8(ctx).map_err(wire)? {
        0 => MatchPolicy::Strict,
        1 => MatchPolicy::Literal,
        other => return Err(bad(format!("unknown match-policy code {other}"))),
    };
    let flags = c.u8(ctx).map_err(wire)?;
    if flags & !0b11 != 0 {
        return Err(bad(format!("unknown flag bits {flags:#04x}")));
    }
    let guard = Guard {
        max_iterations: c.varint(ctx).map_err(wire)?,
        max_size: c.varint(ctx).map_err(wire)?,
        max_depth: c.varint(ctx).map_err(wire)?,
        time_limit: match c.u8(ctx).map_err(wire)? {
            0 => None,
            1 => {
                let secs = c.varint(ctx).map_err(wire)?;
                let nanos = c.varint(ctx).map_err(wire)?;
                // A valid writer emits subsec nanos < 1e9; anything else
                // is corrupt — and would make `Duration::new` carry past
                // u64::MAX seconds and panic on hostile input.
                let nanos = u32::try_from(nanos)
                    .ok()
                    .filter(|n| *n < 1_000_000_000)
                    .ok_or_else(|| bad(format!("guard time-limit nanos {nanos} out of range")))?;
                Some(Duration::new(secs, nanos))
            }
            other => return Err(bad(format!("unknown time-limit presence byte {other}"))),
        },
    };
    let text = c.str(ctx).map_err(wire)?.to_owned();
    let program = if text.trim().is_empty() {
        Program::new()
    } else {
        co_parser::parse_program(&text).map_err(|e| CheckpointError::Program {
            detail: e.render(&text),
        })?
    };
    let relation_count = c.varint(ctx).map_err(wire)?;
    let mut relation_names = Vec::new();
    for _ in 0..relation_count {
        relation_names.push(c.str(ctx).map_err(wire)?.to_owned());
    }
    if c.remaining() != 0 {
        return Err(bad(format!("{} trailing metadata bytes", c.remaining())));
    }
    let engine = Engine::new(program)
        .strategy(strategy)
        .mode(mode)
        .policy(policy)
        .indexes(flags & 1 != 0)
        .tracing(flags & 2 != 0)
        .guard(guard);
    Ok((engine, relation_names))
}

impl Engine {
    /// Writes a checkpoint of this engine's configuration, program, and
    /// `db` to `path` (atomically — temp file + rename), pinning `db` as
    /// a GC root for the duration of the write.
    ///
    /// The snapshot stores the database as root 0 and each top-level
    /// relation (tuple attribute) as an additional root sharing the same
    /// node table. Restore it — in this process or a fresh one — with
    /// [`Engine::restore`]; the restored engine reaches the same fixpoint
    /// with a bit-identical trace.
    ///
    /// **Full vs delta is automatic.** The first checkpoint an engine
    /// writes is a full (version 1) snapshot. While a prior checkpoint
    /// handle is live ([`Engine::last_checkpoint`]), later calls write
    /// **delta** (version 2) snapshots carrying only the nodes the chain
    /// lacks — restore them together with [`Engine::restore_chain`]. When
    /// the chain reaches [`co_wire::MAX_CHAIN_DEPTH`] layers, the next
    /// call starts a fresh full snapshot — as does a call targeting one
    /// of the live chain's own layer files (a delta there would rename
    /// over its own base), so periodic checkpoints to a single path keep
    /// their always-restorable semantics. Use [`Engine::checkpoint_full`]
    /// / [`Engine::checkpoint_delta`] to pick explicitly.
    ///
    /// ```
    /// use co_engine::Engine;
    /// use co_parser::{parse_object, parse_program};
    ///
    /// let db = parse_object("[edge: {[s: a, t: b], [s: b, t: c]}]").unwrap();
    /// let program = parse_program(
    ///     "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
    ///      [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}].",
    /// )
    /// .unwrap();
    /// let engine = Engine::new(program);
    /// let path = std::env::temp_dir().join(format!("ckpt_doc_{}.cow", std::process::id()));
    ///
    /// engine.checkpoint(&db, &path).unwrap();
    /// let restored = Engine::restore(&path).unwrap();
    /// std::fs::remove_file(&path).unwrap();
    ///
    /// assert_eq!(restored.database, db);
    /// let before = engine.run(&db).unwrap();
    /// let after = restored.engine.run(&restored.database).unwrap();
    /// // Bit-identical continuation: same fixpoint, same interned node.
    /// assert_eq!(before.database, after.database);
    /// assert_eq!(before.database.node_id(), after.database.node_id());
    /// ```
    pub fn checkpoint(
        &self,
        db: &Object,
        path: impl AsRef<Path>,
    ) -> Result<WriteStats, CheckpointError> {
        // Auto-select: continue the live chain with a delta while there
        // is one and it has room; otherwise (first checkpoint, or the
        // chain is at MAX_CHAIN_DEPTH) start fresh with a full snapshot.
        // Writing over one of the live chain's own layers — the PR 4
        // idiom of periodic checkpoints to a single path — also falls
        // back to full: a delta there would atomically destroy its own
        // base.
        let base = self.lock_chain().clone();
        match base {
            Some(h)
                if h.depth() < co_wire::MAX_CHAIN_DEPTH
                    && !collides_with_chain(path.as_ref(), h.layers()) =>
            {
                self.checkpoint_delta(db, path, &h).map(|(stats, _)| stats)
            }
            _ => self.checkpoint_full(db, path),
        }
    }

    /// Writes a **full** (version 1) checkpoint unconditionally, making
    /// it the engine's new live chain of depth 1: the next
    /// [`Engine::checkpoint`] writes a delta against it.
    pub fn checkpoint_full(
        &self,
        db: &Object,
        path: impl AsRef<Path>,
    ) -> Result<WriteStats, CheckpointError> {
        // Pin for the whole write: the writer's own strong references
        // already keep the nodes alive, but the pin also keeps their
        // *ids* stable against a sweep triggered by a concurrent engine
        // (ids are what the node table is keyed off while we walk).
        let _pin = store::pin(db);
        let (roots, meta) = self.checkpoint_roots_meta(db);
        let (stats, wire) = co_wire::save_to_path_handle(path.as_ref(), &roots, &meta)?;
        *self.lock_chain() = Some(CheckpointHandle {
            wire,
            layers: vec![path.as_ref().to_path_buf()],
        });
        Ok(stats)
    }

    /// Writes a **delta** (version 2) checkpoint of `db` to `path`,
    /// encoding only the nodes `base` lacks. Returns the stats and the
    /// extended chain handle, which also becomes the engine's live chain
    /// (so a following [`Engine::checkpoint`] chains another delta).
    ///
    /// Fails with [`WireError::ChainTooDeep`](co_wire::WireError) when
    /// `base` is already at [`co_wire::MAX_CHAIN_DEPTH`] layers — compact
    /// first ([`co_wire::compact_chain`]) or write a full checkpoint.
    pub fn checkpoint_delta(
        &self,
        db: &Object,
        path: impl AsRef<Path>,
        base: &CheckpointHandle,
    ) -> Result<(WriteStats, CheckpointHandle), CheckpointError> {
        if base.depth() >= co_wire::MAX_CHAIN_DEPTH {
            return Err(CheckpointError::Wire(WireError::ChainTooDeep {
                depth: base.depth() + 1,
            }));
        }
        if collides_with_chain(path.as_ref(), base.layers()) {
            return Err(CheckpointError::LayerClobber {
                path: path.as_ref().to_path_buf(),
            });
        }
        let _pin = store::pin(db);
        let (roots, meta) = self.checkpoint_roots_meta(db);
        let (stats, wire) = co_wire::save_delta_to_path(path.as_ref(), &roots, &meta, &base.wire)?;
        let mut layers = base.layers.clone();
        layers.push(path.as_ref().to_path_buf());
        let handle = CheckpointHandle { wire, layers };
        *self.lock_chain() = Some(handle.clone());
        Ok((stats, handle))
    }

    /// Writes a **full** checkpoint of this engine and `db` into any
    /// writer — the transport variant of [`Engine::checkpoint_full`] for
    /// shipping a consistent snapshot over a socket or into a buffer.
    ///
    /// The engine's live chain is deliberately **not** touched: a
    /// writer-targeted snapshot has no on-disk layer path a later delta
    /// could be restored against, so chaining against it would produce
    /// unrestorable [`CheckpointHandle::layers`]. Restore the bytes with
    /// [`co_wire::read_snapshot`] + the ordinary chain entry points, or
    /// persist them and use [`Engine::restore`].
    pub fn checkpoint_full_to<W: std::io::Write>(
        &self,
        db: &Object,
        mut w: W,
    ) -> Result<WriteStats, CheckpointError> {
        // Pin for the whole write, as in `checkpoint_full`: ids are what
        // the node table is keyed off while we walk.
        let _pin = store::pin(db);
        let (roots, meta) = self.checkpoint_roots_meta(db);
        Ok(co_wire::write_snapshot(&mut w, &roots, &meta)?)
    }

    /// The engine's live checkpoint chain: set by
    /// [`Engine::checkpoint`] / [`Engine::checkpoint_full`] /
    /// [`Engine::checkpoint_delta`] and by [`Engine::restore_chain`],
    /// shared across clones. `None` until the first checkpoint.
    pub fn last_checkpoint(&self) -> Option<CheckpointHandle> {
        self.lock_chain().clone()
    }

    /// The database root plus one root per top-level relation, and the
    /// encoded engine metadata naming those relations.
    fn checkpoint_roots_meta(&self, db: &Object) -> (Vec<Object>, Vec<u8>) {
        let mut roots = vec![db.clone()];
        let mut relation_names = Vec::new();
        if let Object::Tuple(t) = db {
            for (attr, value) in t.entries() {
                relation_names.push(attr.name().to_string());
                roots.push(value.clone());
            }
        }
        let meta = encode_meta(self, &relation_names);
        (roots, meta)
    }

    fn lock_chain(&self) -> std::sync::MutexGuard<'_, Option<CheckpointHandle>> {
        self.chain
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Loads a checkpoint written by [`Engine::checkpoint`], returning
    /// the restored engine (program + semantic configuration; parallelism
    /// and GC cadence at their defaults) and the database.
    ///
    /// The database is re-interned bottom-up through the canonicalizing
    /// constructors, so it deduplicates against whatever this process's
    /// store already holds, and running the restored engine on it
    /// produces a fixpoint and trace bit-identical to what the
    /// checkpointing process would have computed — under any thread
    /// count and GC cadence.
    pub fn restore(path: impl AsRef<Path>) -> Result<Restored, CheckpointError> {
        Engine::restore_chain(&[path])
    }

    /// Loads a checkpoint **chain** — the full snapshot first, then each
    /// delta in write order (see [`CheckpointHandle::layers`]). Every
    /// link's base identity is verified; a wrong or out-of-order base is
    /// a typed [`WireError::BaseMismatch`](co_wire::WireError). The
    /// restored chain becomes the returned engine's live checkpoint
    /// handle, so continuing with [`Engine::checkpoint`] appends deltas
    /// to the same chain.
    pub fn restore_chain(layers: &[impl AsRef<Path>]) -> Result<Restored, CheckpointError> {
        let (snapshot, wire) = co_wire::load_chain(layers)?;
        let (engine, relation_names) = decode_meta(&snapshot.meta)?;
        *engine.lock_chain() = Some(CheckpointHandle {
            wire,
            layers: layers.iter().map(|p| p.as_ref().to_path_buf()).collect(),
        });
        let mut roots = snapshot.roots.into_iter();
        let database = roots.next().ok_or_else(|| CheckpointError::Meta {
            detail: "snapshot has no database root".into(),
        })?;
        // Cross-check the per-relation roots against the database: they
        // must be exactly its top-level attribute values. Catches files
        // whose roots and metadata were spliced from different snapshots.
        if roots.len() != relation_names.len() {
            return Err(CheckpointError::Meta {
                detail: format!(
                    "{} relation roots but {} relation names",
                    roots.len(),
                    relation_names.len()
                ),
            });
        }
        for (name, root) in relation_names.iter().zip(roots) {
            if database.dot(name.as_str()) != &root {
                return Err(CheckpointError::Meta {
                    detail: format!("relation root `{name}` disagrees with the database"),
                });
            }
        }
        Ok(Restored { engine, database })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::obj;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("co_engine_ckpt_{}_{name}.cow", std::process::id()))
    }

    fn sample_engine() -> Engine {
        let program = co_parser::parse_program(
            "[doa: {abraham}].
             [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
        )
        .unwrap();
        Engine::new(program)
            .strategy(Strategy::SemiNaive)
            .policy(MatchPolicy::Strict)
            .tracing(true)
            .guard(Guard {
                max_iterations: 123,
                max_size: 456,
                max_depth: 78,
                time_limit: Some(Duration::from_millis(1500)),
            })
    }

    fn sample_db() -> Object {
        obj!([family: {
            [name: abraham, children: {[name: isaac]}],
            [name: isaac, children: {[name: esau], [name: jacob]}]
        }, seen: {abraham}])
    }

    #[test]
    fn config_and_program_roundtrip() {
        let path = temp("config");
        let engine = sample_engine();
        let db = sample_db();
        engine.checkpoint(&db, &path).unwrap();
        let restored = Engine::restore(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(restored.database, db);
        assert_eq!(restored.database.node_id(), db.node_id());
        let e = &restored.engine;
        assert_eq!(e.strategy, Strategy::SemiNaive);
        assert_eq!(e.mode, ClosureMode::Inflationary);
        assert_eq!(e.policy, MatchPolicy::Strict);
        assert!(e.use_indexes);
        assert!(e.tracing);
        assert_eq!(e.guard.max_iterations, 123);
        assert_eq!(e.guard.max_size, 456);
        assert_eq!(e.guard.max_depth, 78);
        assert_eq!(e.guard.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(e.program.to_string(), engine.program.to_string());
    }

    #[test]
    fn per_relation_roots_are_recorded() {
        let path = temp("relations");
        let engine = Engine::new(Program::new());
        let db = sample_db();
        let stats = engine.checkpoint(&db, &path).unwrap();
        // database root + one per top-level relation
        assert_eq!(stats.roots, 3);
        let snap = co_wire::load_from_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(&snap.roots[0], &db);
        assert_eq!(&snap.roots[1], db.dot("family"));
        assert_eq!(&snap.roots[2], db.dot("seen"));
    }

    #[test]
    fn empty_program_and_non_tuple_database() {
        let path = temp("atom_db");
        let engine = Engine::new(Program::new());
        let db = obj!({1, 2, 3});
        engine.checkpoint(&db, &path).unwrap();
        let restored = Engine::restore(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(restored.database, db);
        assert!(restored.engine.program.is_empty());
    }

    #[test]
    fn spliced_metadata_is_rejected() {
        // A snapshot whose roots do not match its metadata must not
        // restore silently.
        let path = temp("spliced");
        let db = obj!([r: {1}]);
        let meta = encode_meta(&Engine::new(Program::new()), &["wrong_name".into()]);
        let other = obj!({ 9 });
        co_wire::save_to_path(&path, &[db, other], &meta).unwrap();
        let err = Engine::restore(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, CheckpointError::Meta { ref detail }
                if detail.contains("wrong_name")),
            "got: {err}"
        );
    }

    #[test]
    fn hostile_guard_nanos_are_rejected_not_panicking() {
        // secs near u64::MAX with subsec nanos ≥ 1e9 would make
        // `Duration::new` carry past u64::MAX seconds and panic; crafted
        // metadata must surface as a typed error instead.
        let mut meta = vec![META_VERSION, 1, 0, 0, 0b01];
        put_varint(&mut meta, 100); // guard: max_iterations
        put_varint(&mut meta, 100); // max_size
        put_varint(&mut meta, 100); // max_depth
        meta.push(1); // time limit present
        put_varint(&mut meta, u64::MAX); // secs
        put_varint(&mut meta, 1_500_000_000); // nanos ≥ 1e9: invalid
        put_str(&mut meta, ""); // empty program
        put_varint(&mut meta, 0); // no relations
        let err = decode_meta(&meta).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Meta { ref detail }
                if detail.contains("nanos 1500000000 out of range")),
            "got: {err}"
        );
    }

    #[test]
    fn auto_checkpoint_selects_full_then_delta() {
        let dir = std::env::temp_dir().join(format!("co_ckpt_auto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = sample_engine();
        assert!(engine.last_checkpoint().is_none());

        // First checkpoint: full.
        let db1 = sample_db();
        let s1 = engine.checkpoint(&db1, dir.join("0.cow")).unwrap();
        assert_eq!(s1.version, co_wire::FORMAT_VERSION);
        let h1 = engine.last_checkpoint().unwrap();
        assert_eq!(h1.depth(), 1);

        // Second checkpoint, grown database: auto-delta.
        let db2 = co_object::lattice::union(&db1, &obj!([seen: {isaac}]));
        let s2 = engine.checkpoint(&db2, dir.join("1.cow")).unwrap();
        assert_eq!(s2.version, co_wire::FORMAT_VERSION_DELTA);
        assert!(
            s2.nodes < s1.nodes,
            "delta {} < full {}",
            s2.nodes,
            s1.nodes
        );
        let h2 = engine.last_checkpoint().unwrap();
        assert_eq!(h2.depth(), 2);
        assert_eq!(h2.layers()[0], dir.join("0.cow"));
        assert_eq!(h2.layers()[1], dir.join("1.cow"));

        // The inspector agrees about what landed on disk.
        let info = co_wire::describe(dir.join("1.cow")).unwrap();
        assert!(info.is_delta());
        assert_eq!(info.base.unwrap(), h1.base_id());

        // Chain restore: the final database, engine config, and a live
        // handle for continuing the chain.
        let restored = Engine::restore_chain(h2.layers()).unwrap();
        assert_eq!(restored.database, db2);
        assert_eq!(restored.database.node_id(), db2.node_id());
        assert_eq!(restored.engine.guard.max_iterations, 123);
        let h3 = restored.engine.last_checkpoint().unwrap();
        assert_eq!(h3.depth(), 2);
        assert_eq!(h3.base_id(), h2.base_id());

        // …and the continued chain restores too.
        let db3 = co_object::lattice::union(&db2, &obj!([seen: {esau}]));
        let (s3, h4) = restored
            .engine
            .checkpoint_delta(&db3, dir.join("2.cow"), &h3)
            .unwrap();
        assert_eq!(s3.version, co_wire::FORMAT_VERSION_DELTA);
        let restored2 = Engine::restore_chain(h4.layers()).unwrap();
        assert_eq!(restored2.database, db3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_full_restarts_the_chain_and_the_cap_rolls_over() {
        let dir = std::env::temp_dir().join(format!("co_ckpt_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(Program::new());
        let mut db = obj!({ 0 });
        engine.checkpoint(&db, dir.join("full0.cow")).unwrap();

        // Drive the auto chain to the cap.
        for i in 1..co_wire::MAX_CHAIN_DEPTH as i64 {
            db = co_object::lattice::union(&db, &Object::set([Object::int(i)]));
            let stats = engine
                .checkpoint(&db, dir.join(format!("d{i}.cow")))
                .unwrap();
            assert_eq!(stats.version, co_wire::FORMAT_VERSION_DELTA);
        }
        let full_chain = engine.last_checkpoint().unwrap();
        assert_eq!(full_chain.depth(), co_wire::MAX_CHAIN_DEPTH);

        // At the cap, auto mode rolls over to a fresh full snapshot…
        let stats = engine.checkpoint(&db, dir.join("rollover.cow")).unwrap();
        assert_eq!(stats.version, co_wire::FORMAT_VERSION);
        assert_eq!(engine.last_checkpoint().unwrap().depth(), 1);

        // …and the explicit delta API refuses to exceed it.
        let err = engine
            .checkpoint_delta(&db, dir.join("too_deep.cow"), &full_chain)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Wire(WireError::ChainTooDeep { depth })
                    if depth == co_wire::MAX_CHAIN_DEPTH + 1
            ),
            "got: {err}"
        );

        // checkpoint_full always restarts, even mid-chain.
        engine.checkpoint(&db, dir.join("d_again.cow")).unwrap();
        assert_eq!(engine.last_checkpoint().unwrap().depth(), 2);
        let stats = engine.checkpoint_full(&db, dir.join("full1.cow")).unwrap();
        assert_eq!(stats.version, co_wire::FORMAT_VERSION);
        assert_eq!(engine.last_checkpoint().unwrap().depth(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointing_over_a_live_chain_layer_never_destroys_the_base() {
        // The PR 4 idiom: periodic checkpoints to ONE path. With a live
        // chain handle the auto API must not delta over its own base —
        // every overwrite of a layer falls back to a fresh full
        // snapshot, and the file stays restorable throughout.
        let dir = std::env::temp_dir().join(format!("co_ckpt_clobber_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(Program::new());
        let path = dir.join("db.cow");
        let mut db = obj!({ 0 });
        for i in 1..=3i64 {
            db = co_object::lattice::union(&db, &Object::set([Object::int(i)]));
            let stats = engine.checkpoint(&db, &path).unwrap();
            assert_eq!(
                stats.version,
                co_wire::FORMAT_VERSION,
                "overwrite #{i} must be full"
            );
            let restored = Engine::restore(&path).unwrap();
            assert_eq!(restored.database, db);
        }

        // Same idiom after a restore (which arms the chain handle).
        let restored = Engine::restore(&path).unwrap();
        let stats = restored.engine.checkpoint(&db, &path).unwrap();
        assert_eq!(stats.version, co_wire::FORMAT_VERSION);
        assert!(Engine::restore(&path).is_ok());

        // A *different* path still deltas — and respelling a layer path
        // through `./` is caught canonically by the explicit API.
        let stats = restored.engine.checkpoint(&db, dir.join("d.cow")).unwrap();
        assert_eq!(stats.version, co_wire::FORMAT_VERSION_DELTA);
        let handle = restored.engine.last_checkpoint().unwrap();
        let respelled = dir.join(".").join("d.cow");
        let err = restored
            .engine
            .checkpoint_delta(&db, &respelled, &handle)
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::LayerClobber { .. }),
            "got: {err}"
        );
        assert_eq!(
            err.to_string(),
            format!(
                "delta checkpoint would overwrite `{}`, a layer of its own base chain — \
                 write a full checkpoint or pick another path",
                respelled.display()
            )
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restoring_a_delta_without_its_base_is_typed() {
        let dir = std::env::temp_dir().join(format!("co_ckpt_nobase_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(Program::new());
        let db = obj!({1, 2});
        engine.checkpoint(&db, dir.join("0.cow")).unwrap();
        let db2 = obj!({1, 2, 3});
        engine.checkpoint(&db2, dir.join("1.cow")).unwrap();
        let err = Engine::restore(dir.join("1.cow")).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Wire(WireError::BaseRequired { .. })),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_checkpoint_snapshot_is_rejected() {
        let path = temp("bare");
        co_wire::save_to_path(&path, &[obj!({ 1 })], b"").unwrap();
        let err = Engine::restore(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, CheckpointError::Meta { .. }), "got: {err}");
    }
}
