//! The hash-consed object store: interned composite nodes with stable ids,
//! cached hashes, and precomputed structural metadata — **sharded for
//! concurrent interning**.
//!
//! # Design
//!
//! Every [`Tuple`](crate::Tuple) and [`Set`](crate::Set) interior in the
//! process is a node in one global store. Construction goes through the
//! crate-internal `intern_tuple` / `intern_set` (the only way to create the
//! node types), which deduplicate by content: **canonically-equal composites are
//! always the same `Arc` allocation**. Three properties follow:
//!
//! - **O(1) equality** — `==` on tuples, sets, and therefore whole
//!   [`Object`]s is a pointer comparison (plus an atom compare for leaves);
//!   the canonical-form invariant of `value.rs` makes this coincide with
//!   the paper's semantic equality (Definition 2.2).
//! - **O(1) hashing** — every node carries the hash of its contents,
//!   computed once at interning time from the (already cached) child
//!   hashes.
//! - **Stable identity** — every node carries a process-unique [`NodeId`]
//!   that is never recycled, so downstream layers (the engine's set
//!   indexes, the columnar arena cache) can key off identity without the
//!   ABA hazard of raw `Arc` addresses.
//!
//! Nodes also carry a [`Meta`] record — depth, node count, atom count,
//! maximum fanout, a contains-set flag, and a flatness flag — computed in
//! O(width) at interning time from the children's metadata, making the
//! measures in [`crate::measure`] O(1) for interned values.
//!
//! # Sharding
//!
//! The interner is split into [`SHARD_COUNT`] shards by hash range (the top
//! bits of the content hash select the shard), each with its own
//! reader-writer lock. Parallel evaluation threads interning different
//! values therefore contend only when they happen to land on the same
//! shard; because a node's content hash — and hence its shard — never
//! changes, sharding is invisible to callers: equal content still interns
//! to one node with one stable [`NodeId`], regardless of which thread asked
//! first. Each shard keeps hit/miss/contention counters (see
//! [`StoreStats::shards`]); a tiny lock-free thread-local L1 cache sits in
//! front of the shards and absorbs the re-interning bursts of fixpoint
//! loops.
//!
//! # Lifetime
//!
//! Interned nodes are held by strong references and live until an explicit
//! [`collect`] call sweeps them: a node is freed when nothing outside the
//! store itself references it — no live [`Object`] handle, no thread-local
//! L1 slot, and no pinned [`Root`] guard. `NodeId`s
//! are **never recycled**, even across sweeps, so a stale id held by a
//! downstream layer (an engine index, a log line) can go unused but can
//! never silently alias a different value. Long-running servers whose
//! working set drifts call [`collect`] periodically (the engine can do it
//! between fixpoint rounds — see its GC cadence knob); batch workloads
//! can ignore the whole mechanism and keep the immortal-store behaviour.
//!
//! # Observability
//!
//! [`stats`] returns a [`StoreStats`] snapshot: node counts, per-shard
//! interner hit/miss/contention counters, and GC sweep/freed-node
//! totals. Each
//! [`collect`] additionally returns a [`SweepStats`] for that sweep.
//!
//! ```
//! use co_object::{obj, store};
//!
//! let before = store::stats();
//! let a = obj!([doc_stats_example: {1, 2, 3}]);
//! let b = obj!([doc_stats_example: {1, 2, 3}]);
//! // Hash-consing: the same canonical value is the same node…
//! assert_eq!(a.node_id(), b.node_id());
//! let after = store::stats();
//! // …so re-interning it is a cache hit, visible in the counters.
//! assert!(after.intern_misses > before.intern_misses); // first build
//! assert!(after.intern_hits > before.intern_hits);     // re-build
//! ```

use crate::{Attr, Object};
use parking_lot::RwLock;
use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A stable, process-unique identifier of an interned composite node.
///
/// Ids are assigned in interning order, never reused, and shared across the
/// tuple and set namespaces (an id names one node of either kind). They are
/// meaningful only within the current process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u64);

impl NodeId {
    /// The raw id value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Precomputed structural metadata of an interned node, filled in at
/// interning time from the children's (already cached) metadata.
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    /// The paper's depth measure (Definition 3.2) of this node. Composites
    /// cannot contain ⊤, so depth is always finite here.
    pub depth: u64,
    /// Total node count of the subtree (as in [`crate::measure::size`]).
    pub size: u64,
    /// Number of atom leaves in the subtree.
    pub atom_count: u64,
    /// Maximum tuple width / set cardinality anywhere in the subtree.
    pub max_fanout: usize,
    /// True when the subtree contains a set node (including this node).
    pub contains_set: bool,
    /// True when every immediate child is an atom (a "flat" relation row /
    /// atom set) — the cheap cases for reduction and matching.
    pub flat: bool,
}

impl Meta {
    fn for_children<'a, I>(len: usize, is_set: bool, children: I) -> Meta
    where
        I: Iterator<Item = &'a Object>,
    {
        let mut depth: u64 = 1; // empty composite → depth 2 after +1
        let mut size: u64 = 1;
        let mut atom_count: u64 = 0;
        let mut max_fanout = len;
        let mut contains_set = is_set;
        let mut flat = true;
        for child in children {
            match child {
                Object::Atom(_) => {
                    depth = depth.max(1);
                    size += 1;
                    atom_count += 1;
                }
                Object::Tuple(t) => {
                    let m = t.meta();
                    depth = depth.max(m.depth);
                    size += m.size;
                    atom_count += m.atom_count;
                    max_fanout = max_fanout.max(m.max_fanout);
                    contains_set |= m.contains_set;
                    flat = false;
                }
                Object::Set(s) => {
                    let m = s.meta();
                    depth = depth.max(m.depth);
                    size += m.size;
                    atom_count += m.atom_count;
                    max_fanout = max_fanout.max(m.max_fanout);
                    contains_set = true;
                    flat = false;
                }
                // Canonical composites contain no ⊥/⊤ (⊥ is dropped, ⊤
                // propagates before interning).
                Object::Bottom | Object::Top => {
                    unreachable!("⊥/⊤ inside a canonical composite")
                }
            }
        }
        Meta {
            depth: depth + 1,
            size,
            atom_count,
            max_fanout,
            contains_set,
            flat,
        }
    }
}

/// The interned interior of a tuple object.
pub(crate) struct TupleNode {
    pub(crate) id: NodeId,
    pub(crate) hash: u64,
    pub(crate) meta: Meta,
    pub(crate) entries: Box<[(Attr, Object)]>,
}

/// The interned interior of a set object.
pub(crate) struct SetNode {
    pub(crate) id: NodeId,
    pub(crate) hash: u64,
    pub(crate) meta: Meta,
    pub(crate) elements: Box<[Object]>,
}

// ---------------------------------------------------------------------------
// The sharded interner
// ---------------------------------------------------------------------------

/// Number of interner shards (power of two). The top `log2(SHARD_COUNT)`
/// bits of a node's content hash select its shard, so threads interning
/// different values rarely touch the same lock.
pub const SHARD_COUNT: usize = 16;

/// The hash→tuple and hash→set maps of one shard, plus the ids of every
/// node the shard currently owns (kept in sync on intern and sweep) so
/// [`contains_node`] answers in O(1) instead of scanning buckets.
#[derive(Default)]
struct ShardMaps {
    tuples: FxHashMap<u64, Vec<Arc<TupleNode>>>,
    sets: FxHashMap<u64, Vec<Arc<SetNode>>>,
    ids: FxHashSet<NodeId>,
}

/// One interner shard: its maps under a reader-writer lock, plus lock-free
/// event counters.
#[derive(Default)]
struct Shard {
    maps: RwLock<ShardMaps>,
    /// Intern calls answered with an existing node (including thread-local
    /// L1 hits attributed to this shard).
    hits: AtomicU64,
    /// Intern calls that created a new node.
    misses: AtomicU64,
    /// Lock acquisitions (read or write) that had to block because another
    /// thread held the shard lock.
    contended: AtomicU64,
}

impl Shard {
    /// Read-locks the shard maps, counting the acquisition on `contended`
    /// when it could not be satisfied immediately.
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, ShardMaps> {
        self.maps.try_read().unwrap_or_else(|| {
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.maps.read()
        })
    }

    /// Write-locks the shard maps, counting contention like
    /// [`Shard::read`].
    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, ShardMaps> {
        self.maps.try_write().unwrap_or_else(|| {
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.maps.write()
        })
    }
}

fn shards() -> &'static [Shard; SHARD_COUNT] {
    static SHARDS: OnceLock<[Shard; SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| Shard::default()))
}

/// The shard owning a given content hash (top bits — the low bits index
/// hash-map buckets and the thread-local L1, keeping the three uses
/// independent).
#[inline]
fn shard_of(hash: u64) -> &'static Shard {
    &shards()[(hash >> (64 - SHARD_COUNT.trailing_zeros())) as usize]
}

/// The never-rewound id source. Kept at module scope (not inside
/// [`next_id`]) so an incremental sweep can read the current value as its
/// **sweep-epoch floor**: nodes with `id >= floor` were interned after the
/// cycle began and are never candidates for that cycle.
static NODE_ID_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_id() -> NodeId {
    NodeId(NODE_ID_COUNTER.fetch_add(1, Ordering::Relaxed))
}

// A tiny direct-mapped thread-local L1 in front of the sharded store:
// evaluation loops re-intern the same values every iteration (rule heads,
// result rows), and a hit here skips the shard lock entirely. Entries are
// `Arc` clones of canonical nodes, so pointer-equality guarantees are
// unaffected; stale slots merely miss.
const TL_CACHE_SLOTS: usize = 1 << 10;

// L1 hits are counted on per-thread atomics and summed at `stats()` time:
// the whole point of an L1 hit is to touch no shared state, so bumping a
// shared shard counter on that path would reintroduce the cross-thread
// cache-line traffic the L1 exists to avoid. Each thread registers one
// counter it alone writes; the registry keeps it alive (`Arc`) after the
// thread exits so totals stay monotone.
fn l1_hit_registry() -> &'static parking_lot::Mutex<Vec<Arc<AtomicU64>>> {
    static REGISTRY: OnceLock<parking_lot::Mutex<Vec<Arc<AtomicU64>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| parking_lot::Mutex::new(Vec::new()))
}

thread_local! {
    static TL_L1_HITS: Arc<AtomicU64> = {
        let counter = Arc::new(AtomicU64::new(0));
        l1_hit_registry().lock().push(Arc::clone(&counter));
        counter
    };
}

#[inline]
fn count_l1_hit() {
    // Uncontended: only this thread writes this counter.
    TL_L1_HITS.with(|c| c.fetch_add(1, Ordering::Relaxed));
}

fn l1_hits_total() -> u64 {
    l1_hit_registry()
        .lock()
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
}

thread_local! {
    static TL_TUPLES: std::cell::RefCell<Vec<Option<Arc<TupleNode>>>> =
        std::cell::RefCell::new(vec![None; TL_CACHE_SLOTS]);
    static TL_SETS: std::cell::RefCell<Vec<Option<Arc<SetNode>>>> =
        std::cell::RefCell::new(vec![None; TL_CACHE_SLOTS]);
}

#[inline]
fn tl_slot(hash: u64) -> usize {
    (hash as usize) & (TL_CACHE_SLOTS - 1)
}

// L1 slots hold *strong* node references: a node sitting in any thread's L1
// is simply retained by `collect` (its strong count exceeds the store's own
// reference), never freed — which keeps the hit path lock-free and makes
// resurrection-after-free impossible by construction. The price is that a
// sweep cannot reclaim nodes parked in another thread's L1. To bound that
// retention, every sweep bumps a global flush epoch; each thread compares
// its local epoch on the next intern call and clears its own caches first,
// so L1-retained garbage survives at most until its owner's next intern
// plus one more sweep.
static L1_FLUSH_EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_SEEN_EPOCH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Clears this thread's L1 caches when a [`collect`] has happened since the
/// thread last looked. Called on every intern; one relaxed load when idle.
#[inline]
fn maybe_flush_l1() {
    let current = L1_FLUSH_EPOCH.load(Ordering::Acquire);
    TL_SEEN_EPOCH.with(|seen| {
        if seen.get() != current {
            seen.set(current);
            flush_thread_caches();
        }
    });
}

/// Drops every entry of the calling thread's L1 intern caches.
///
/// [`collect`] does this for its own thread automatically and schedules it
/// for every other thread (effective at their next intern call); call it
/// directly on a worker thread that is about to idle for a long time, so
/// its cached nodes do not outlive their last real user until then.
pub fn flush_thread_caches() {
    TL_TUPLES.with(|c| {
        for slot in c.borrow_mut().iter_mut() {
            *slot = None;
        }
    });
    TL_SETS.with(|c| {
        for slot in c.borrow_mut().iter_mut() {
            *slot = None;
        }
    });
}

fn hash_tuple_entries(entries: &[(Attr, Object)]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(1); // kind discriminator: tuple
    for (a, o) in entries {
        a.hash(&mut h);
        o.hash(&mut h);
    }
    h.finish()
}

fn hash_set_elements(elements: &[Object]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(2); // kind discriminator: set
    for o in elements {
        o.hash(&mut h);
    }
    h.finish()
}

/// Interns canonical tuple entries (sorted, distinct, ⊥/⊤-free), returning
/// the shared node. Content-equal calls return the same allocation.
pub(crate) fn intern_tuple(entries: Vec<(Attr, Object)>) -> Arc<TupleNode> {
    maybe_flush_l1();
    let hash = hash_tuple_entries(&entries);
    let shard = shard_of(hash);
    // L1: lock-free thread-local hit path.
    let l1 = TL_TUPLES.with(|c| {
        let c = c.borrow();
        match &c[tl_slot(hash)] {
            Some(node) if node.hash == hash && node.entries.iter().eq(entries.iter()) => {
                Some(Arc::clone(node))
            }
            _ => None,
        }
    });
    if let Some(node) = l1 {
        count_l1_hit();
        return node;
    }
    let found = {
        let guard = shard.read();
        guard.tuples.get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|node| node.entries.iter().eq(entries.iter()))
                .map(Arc::clone)
        })
    };
    if let Some(node) = found {
        shard.hits.fetch_add(1, Ordering::Relaxed);
        TL_TUPLES.with(|c| c.borrow_mut()[tl_slot(hash)] = Some(Arc::clone(&node)));
        return node;
    }
    let mut guard = shard.write();
    let bucket = guard.tuples.entry(hash).or_default();
    // Double-check under the write lock: another thread may have interned
    // the same content between our read and write sections.
    for node in bucket.iter() {
        if node.entries.iter().eq(entries.iter()) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(node);
        }
    }
    let meta = Meta::for_children(entries.len(), false, entries.iter().map(|(_, o)| o));
    let node = Arc::new(TupleNode {
        id: next_id(),
        hash,
        meta,
        entries: entries.into_boxed_slice(),
    });
    bucket.push(Arc::clone(&node));
    guard.ids.insert(node.id);
    drop(guard);
    shard.misses.fetch_add(1, Ordering::Relaxed);
    LIVE_NODES.fetch_add(1, Ordering::Relaxed);
    TL_TUPLES.with(|c| c.borrow_mut()[tl_slot(hash)] = Some(Arc::clone(&node)));
    maybe_auto_collect();
    node
}

/// Interns canonical set elements (sorted, deduplicated, reduced,
/// ⊥/⊤-free), returning the shared node.
pub(crate) fn intern_set(elements: Vec<Object>) -> Arc<SetNode> {
    maybe_flush_l1();
    let hash = hash_set_elements(&elements);
    let shard = shard_of(hash);
    // L1: lock-free thread-local hit path.
    let l1 = TL_SETS.with(|c| {
        let c = c.borrow();
        match &c[tl_slot(hash)] {
            Some(node) if node.hash == hash && node.elements.iter().eq(elements.iter()) => {
                Some(Arc::clone(node))
            }
            _ => None,
        }
    });
    if let Some(node) = l1 {
        count_l1_hit();
        return node;
    }
    let found = {
        let guard = shard.read();
        guard.sets.get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|node| node.elements.iter().eq(elements.iter()))
                .map(Arc::clone)
        })
    };
    if let Some(node) = found {
        shard.hits.fetch_add(1, Ordering::Relaxed);
        TL_SETS.with(|c| c.borrow_mut()[tl_slot(hash)] = Some(Arc::clone(&node)));
        return node;
    }
    let mut guard = shard.write();
    let bucket = guard.sets.entry(hash).or_default();
    for node in bucket.iter() {
        if node.elements.iter().eq(elements.iter()) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(node);
        }
    }
    let meta = Meta::for_children(elements.len(), true, elements.iter());
    let node = Arc::new(SetNode {
        id: next_id(),
        hash,
        meta,
        elements: elements.into_boxed_slice(),
    });
    bucket.push(Arc::clone(&node));
    guard.ids.insert(node.id);
    drop(guard);
    shard.misses.fetch_add(1, Ordering::Relaxed);
    LIVE_NODES.fetch_add(1, Ordering::Relaxed);
    TL_SETS.with(|c| c.borrow_mut()[tl_slot(hash)] = Some(Arc::clone(&node)));
    maybe_auto_collect();
    node
}

// ---------------------------------------------------------------------------
// Garbage collection: pinned roots and the sweep
// ---------------------------------------------------------------------------

/// The pin registry: node id → number of live [`Root`] guards. Purely
/// observational belt-and-suspenders — every `Root` also *holds* its
/// object, so a pinned node's strong count already protects it from the
/// sweep — but the explicit id set lets [`collect`] report root counts and
/// double-check itself.
fn pin_registry() -> &'static parking_lot::Mutex<FxHashMap<NodeId, usize>> {
    static PINS: OnceLock<parking_lot::Mutex<FxHashMap<NodeId, usize>>> = OnceLock::new();
    PINS.get_or_init(|| parking_lot::Mutex::new(FxHashMap::default()))
}

/// An RAII guard pinning a composite object's node (and, transitively, its
/// whole subtree) across [`collect`] calls.
///
/// The engine pins its fixpoint database and per-round snapshots this way
/// before sweeping between rounds; any long-lived cache that holds only
/// `NodeId`s (not `Object`s) should pin what it expects to resolve later.
/// Dropping the guard unpins; the node then lives exactly as long as
/// ordinary references to it do.
///
/// ```
/// use co_object::{obj, store};
///
/// let db = obj!([pinned_doc_example: {1, 2, 3}]);
/// let root = store::pin(&db).expect("composites are pinnable");
/// assert_eq!(root.object(), &db);
/// assert_eq!(Some(root.id()), db.node_id());
/// // While `root` lives, a sweep will never free the node…
/// store::collect();
/// assert!(store::contains_node(root.id()));
/// ```
#[derive(Debug)]
pub struct Root {
    id: NodeId,
    object: Object,
}

impl Root {
    /// The pinned node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The pinned object.
    pub fn object(&self) -> &Object {
        &self.object
    }
}

impl Clone for Root {
    fn clone(&self) -> Root {
        pin(&self.object).expect("a Root always wraps a composite")
    }
}

impl Drop for Root {
    fn drop(&mut self) {
        let mut pins = pin_registry().lock();
        if let Some(count) = pins.get_mut(&self.id) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.id);
            }
        }
    }
}

/// Pins `o`'s interned node as a GC root, returning the RAII guard — or
/// `None` for atoms/⊥/⊤, which have no node to pin (and nothing a sweep
/// could ever free).
pub fn pin(o: &Object) -> Option<Root> {
    let id = o.node_id()?;
    *pin_registry().lock().entry(id).or_insert(0) += 1;
    Some(Root {
        id,
        object: o.clone(),
    })
}

/// Number of distinct node ids currently pinned by live [`Root`] guards.
pub fn pinned_roots() -> usize {
    pin_registry().lock().len()
}

/// True when the store still holds a node with this id. A *false* answer
/// for an id you once saw means the node was swept — and because ids are
/// never recycled, the id can never come back: dangling ids are permanently
/// detectable, never silently re-bound.
///
/// O(1) per shard (each shard keeps an id set alongside its buckets), so
/// downstream layers holding bare `NodeId`s can probe liveness freely.
pub fn contains_node(id: NodeId) -> bool {
    shards().iter().any(|shard| shard.read().ids.contains(&id))
}

/// What one [`collect`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Tuple nodes freed by this sweep.
    pub freed_tuples: usize,
    /// Set nodes freed by this sweep.
    pub freed_sets: usize,
    /// Nodes examined (live before the sweep).
    pub examined: usize,
    /// Columnar arena cache entries dropped because their set was freed
    /// (see [`crate::columnar`]).
    pub columnar_entries_swept: u64,
    /// Budgeted slices the cycle ran in (1 when the cycle fit its pause
    /// budget, or when slicing is off — see [`gc_pause_budget_us`]).
    pub slices: u32,
    /// Distinct node ids pinned by [`Root`] guards at sweep time.
    pub pinned_roots: usize,
}

impl SweepStats {
    /// Total nodes freed by this sweep.
    pub fn freed_nodes(&self) -> usize {
        self.freed_tuples + self.freed_sets
    }
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep: freed {} of {} nodes ({} tuples, {} sets) in {} slices, \
             {} columnar arenas swept, {} pinned roots",
            self.freed_nodes(),
            self.examined,
            self.freed_tuples,
            self.freed_sets,
            self.slices,
            self.columnar_entries_swept,
            self.pinned_roots,
        )
    }
}

/// Cumulative [`collect`] calls (see [`StoreStats::gc_sweeps`]).
static GC_SWEEPS: AtomicU64 = AtomicU64::new(0);
/// Cumulative nodes freed (see [`StoreStats::gc_freed_nodes`]).
static GC_FREED_NODES: AtomicU64 = AtomicU64::new(0);
/// Cumulative automatic high-water-mark collections (see
/// [`StoreStats::gc_auto_triggers`]).
static GC_AUTO_TRIGGERS: AtomicU64 = AtomicU64::new(0);
/// Cumulative budgeted sweep slices (see [`StoreStats::gc_slices`]).
static GC_SLICES: AtomicU64 = AtomicU64::new(0);
/// Live interned nodes (tuples + sets): incremented on every intern miss,
/// decremented per freed node by [`collect`]. The O(1) gauge the
/// high-water trigger reads on the intern path.
static LIVE_NODES: AtomicU64 = AtomicU64::new(0);

/// Live interned nodes right now — the O(1) gauge the high-water trigger
/// and the collector thread pace themselves off. Monotone between sweeps;
/// drops by exactly the freed-node count of each [`collect`] cycle.
pub fn live_nodes() -> u64 {
    LIVE_NODES.load(Ordering::Relaxed)
}

/// One collector at a time; others queue behind the same mutex (automatic
/// triggers skip instead of queuing — see [`maybe_auto_collect`]).
static GC_GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Set when a thread crossed the high-water mark while the [`GC_GATE`] was
/// held (or to wake the collector thread). The gate holder — or the
/// collector — re-checks and clears it, so a crossing observed during a
/// sweep is absorbed instead of silently dropped (the pre-PR-10 bug: a
/// failed `try_lock` re-armed nothing, so the mark could be overshot
/// unboundedly while an explicit sweep was parked).
static GC_NUDGE_PENDING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

// ---------------------------------------------------------------------------
// Size-triggered collection: the high-water mark
// ---------------------------------------------------------------------------

/// The configured high-water mark (`0` = automatic collection disabled).
static GC_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// The live-node count at which the next automatic collection fires
/// (`u64::MAX` = never). Re-armed with hysteresis after every auto sweep.
static GC_NEXT_AUTO: AtomicU64 = AtomicU64::new(u64::MAX);

/// The current high-water mark in live nodes: when an intern pushes the
/// live-node count past it, the store runs [`collect`] automatically
/// (counted in [`StoreStats::gc_auto_triggers`]). `0` means disabled.
///
/// Defaults to `0` (disabled); set it with [`set_gc_high_water`].
pub fn gc_high_water() -> u64 {
    GC_HIGH_WATER.load(Ordering::Relaxed)
}

/// Sets the high-water mark: once more than `nodes` interned nodes are
/// live, the store collects itself on the intern path — servers no longer
/// need to guess a GC cadence. `0` disables automatic collection.
///
/// After an automatic sweep whose survivors still exceed the mark (the
/// working set is simply that large), the next trigger is re-armed half a
/// mark above the surviving population, so a big live set degrades into
/// periodic background sweeps instead of a collect-per-intern storm.
///
/// ```
/// use co_object::{obj, store};
///
/// store::set_gc_high_water(1_000_000); // collect past a million nodes
/// let _ = obj!([high_water_doc: {1, 2}]);
/// store::set_gc_high_water(0); // back to explicit-only collection
/// ```
pub fn set_gc_high_water(nodes: u64) {
    GC_HIGH_WATER.store(nodes, Ordering::Relaxed);
    GC_NEXT_AUTO.store(if nodes == 0 { u64::MAX } else { nodes }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pause budget: incremental (sliced) sweeps
// ---------------------------------------------------------------------------

/// Default per-slice pause budget in microseconds (~2ms): long enough to
/// amortize the slice bookkeeping, short enough that a request thread
/// parked behind a shard lock never waits a full stop-the-world sweep.
pub const GC_PAUSE_BUDGET_DEFAULT_US: u64 = 2_000;

/// The configured per-slice pause budget in µs (`0` = unbudgeted: one
/// stop-the-world slice, the pre-PR-10 behaviour).
static GC_PAUSE_BUDGET_US: AtomicU64 = AtomicU64::new(GC_PAUSE_BUDGET_DEFAULT_US);

/// The per-slice GC pause budget in microseconds. A [`collect`] cycle
/// sweeps the interner in **slices**: once a slice has run for this long,
/// the sweep releases every lock it holds, records the slice's pause into
/// the `store.gc_pause_ns` histogram, yields, and resumes — so an intern
/// call never waits on a shard lock for more than about one budget, no
/// matter how large the store is. `0` disables slicing (single
/// stop-the-world slice per cycle).
///
/// Defaults to [`GC_PAUSE_BUDGET_DEFAULT_US`]; override at runtime with
/// [`set_gc_pause_budget_us`].
pub fn gc_pause_budget_us() -> u64 {
    GC_PAUSE_BUDGET_US.load(Ordering::Relaxed)
}

/// Overrides the per-slice pause budget at runtime (`0` = unbudgeted
/// stop-the-world slices). Takes effect at the next [`collect`] cycle.
pub fn set_gc_pause_budget_us(us: u64) {
    GC_PAUSE_BUDGET_US.store(us, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The collector thread
// ---------------------------------------------------------------------------

/// Collector-thread switch.
static GC_COLLECTOR_ON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the dedicated collector thread owns garbage collection.
///
/// With the collector on, the intern-path high-water trigger becomes a
/// cheap nudge (one atomic swap, at most one condvar notify) instead of an
/// inline sweep. The thread also paces itself off the live-node gauge
/// every ~20ms, so a crossing that happened while the gate was busy — or
/// right before interning went quiet — is absorbed instead of lost.
/// Explicit [`collect`] calls sweep on the caller's thread in both modes,
/// serialised with the collector's cycles by the collect gate.
///
/// Defaults to off; switch it with [`set_gc_collector`].
pub fn gc_collector_enabled() -> bool {
    GC_COLLECTOR_ON.load(Ordering::Relaxed)
}

/// Turns the dedicated collector thread on or off at runtime. The thread
/// is spawned on first enablement and lives for the process (turning the
/// collector off merely routes collection back inline; an idle collector
/// thread costs one ~20ms-interval timed wait).
pub fn set_gc_collector(on: bool) {
    GC_COLLECTOR_ON.store(on, Ordering::Relaxed);
    if on {
        let _ = collector(); // make sure the thread exists before the first nudge
    }
}

struct Collector {
    /// Guards no data: nudges notify under it, so a wake-up cannot slip
    /// between the collector's due-check and its wait.
    lock: std::sync::Mutex<()>,
    /// Wakes the collector thread (high-water nudge).
    work: std::sync::Condvar,
}

/// The collector singleton; spawns the thread on first access.
fn collector() -> &'static Collector {
    static CELL: OnceLock<&'static Collector> = OnceLock::new();
    CELL.get_or_init(|| {
        let c: &'static Collector = Box::leak(Box::new(Collector {
            lock: std::sync::Mutex::new(()),
            work: std::sync::Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("co-gc-collector".to_owned())
            .spawn(move || collector_loop(c))
            .expect("spawn the gc collector thread");
        c
    })
}

/// Leaves a wake-up for the collector thread: one atomic swap when a nudge
/// is already queued, one mutex/notify round-trip otherwise. Never sweeps
/// and never blocks on the GC gate — this is all the intern path pays.
fn nudge_collector() {
    if GC_NUDGE_PENDING.swap(true, Ordering::AcqRel) {
        return; // a nudge is already queued; the collector will see it
    }
    let _wait = collector().lock.lock().unwrap_or_else(|e| e.into_inner());
    collector().work.notify_all();
}

/// The collector thread: absorbs high-water nudges, and re-checks the
/// live-node gauge on a ~20ms pacing tick (so a crossing that raced a busy
/// gate — or happened just before interning went quiet — still gets its
/// sweep).
fn collector_loop(c: &'static Collector) {
    const PACING: std::time::Duration = std::time::Duration::from_millis(20);
    let gauge_due = || {
        let hw = gc_high_water();
        hw != 0
            && gc_collector_enabled()
            && LIVE_NODES.load(Ordering::Relaxed) >= GC_NEXT_AUTO.load(Ordering::Relaxed)
    };
    loop {
        {
            let mut idle = c.lock.lock().unwrap_or_else(|e| e.into_inner());
            while !(GC_NUDGE_PENDING.load(Ordering::Acquire) || gauge_due()) {
                let (guard, _timeout) = c
                    .work
                    .wait_timeout(idle, PACING)
                    .unwrap_or_else(|e| e.into_inner());
                idle = guard;
            }
        }
        let nudged = GC_NUDGE_PENDING.swap(false, Ordering::AcqRel);
        // A nudge only *causes* a sweep while automatic collection is
        // still armed and the collector still owns it: a stale nudge left
        // behind after the mark (or the collector) was turned off must be
        // absorbed without sweeping, or a disabled collector would keep
        // running cycles concurrently with whoever took over.
        if !((nudged || gauge_due()) && gc_collector_enabled() && gc_high_water() != 0) {
            continue;
        }
        GC_AUTO_TRIGGERS.fetch_add(1, Ordering::Relaxed);
        // Autonomous sweeps pace themselves — sleeping between slices
        // (see `Slicer`) — so background collection never monopolizes a
        // core against the serving threads.
        {
            let _gate = GC_GATE.lock();
            collect_locked(true);
        }
        let hw = gc_high_water();
        if hw != 0 {
            rearm_after_sweep(hw);
        }
    }
}

/// Intern-path check: fires an automatic collection when the live-node
/// count has crossed the armed threshold. One relaxed load when idle or
/// below the mark.
#[inline]
fn maybe_auto_collect() {
    let hw = gc_high_water();
    if hw == 0 || LIVE_NODES.load(Ordering::Relaxed) < GC_NEXT_AUTO.load(Ordering::Relaxed) {
        return;
    }
    auto_collect(hw);
}

/// The cold path of [`maybe_auto_collect`]. With the collector thread on,
/// this is a cheap nudge and the interner keeps going; inline, it runs one
/// sweep unless a collection is already in flight — in which case the
/// crossing is *recorded* ([`GC_NUDGE_PENDING`]) for the gate holder to
/// re-check on release, never silently dropped.
#[cold]
fn auto_collect(hw: u64) {
    if gc_collector_enabled() {
        nudge_collector();
        return;
    }
    {
        let Some(_gate) = GC_GATE.try_lock() else {
            // A sweep is already in flight; it will reclaim for us. Record
            // the crossing so the holder re-checks once the gate frees —
            // a silent skip would let the mark be overshot unboundedly
            // while an explicit sweep is parked.
            GC_NUDGE_PENDING.store(true, Ordering::Release);
            return;
        };
        GC_AUTO_TRIGGERS.fetch_add(1, Ordering::Relaxed);
        let _ = collect_locked(false);
        rearm_after_sweep(hw);
        // This sweep absorbs any crossing recorded while it ran.
        GC_NUDGE_PENDING.store(false, Ordering::Release);
    }
    recheck_after_gate_release();
}

/// Hysteresis: normally re-arm at the mark; when the surviving working
/// set already exceeds it, arm half a mark above the survivors instead.
fn rearm_after_sweep(hw: u64) {
    let live = LIVE_NODES.load(Ordering::Relaxed);
    let next = if live >= hw {
        live.saturating_add(hw / 2)
    } else {
        hw
    };
    GC_NEXT_AUTO.store(next, Ordering::Relaxed);
}

/// After releasing [`GC_GATE`]: absorb a high-water crossing that was
/// recorded while we held it (the recording thread skipped its sweep
/// rather than queue behind ours).
fn recheck_after_gate_release() {
    if GC_NUDGE_PENDING.swap(false, Ordering::AcqRel) {
        maybe_auto_collect();
    }
}

/// Runs `f` with garbage collection paused: no sweep — explicit,
/// automatic, or collector-thread — can start until `f` returns. On
/// release, a high-water crossing observed during the pause is absorbed
/// immediately (the regression the pre-PR-10 `try_lock` skip missed).
///
/// `f` must not call [`collect`] (it would deadlock behind its own
/// pause). Intended for latency-critical sections and for tests that need
/// a deterministically parked sweep.
pub fn with_gc_paused<R>(f: impl FnOnce() -> R) -> R {
    let result = {
        let _gate = GC_GATE.lock();
        f()
    };
    recheck_after_gate_release();
    result
}

/// Sweeps the interner, freeing every node unreachable from outside the
/// store, and purges columnar arenas cached for freed sets. Returns what
/// it did.
///
/// A node is **reachable** — and guaranteed to survive — iff something
/// other than the store itself holds it: a live [`Object`] handle anywhere
/// (including inside another retained node, or any thread's L1 intern
/// cache), or a pinned [`Root`]. The sweep runs in budgeted **slices**
/// (see [`gc_pause_budget_us`]) that hold at most one shard lock at a time
/// and release it between slices, so interning is paused for about one
/// budget at worst — never the whole cycle. Candidates are processed
/// deepest-first, so a dead parent releases its children before they are
/// examined and one pass frees every dead tree, however deep.
///
/// The cycle always runs on the caller's thread, one collection at a
/// time — also with the collector thread on ([`gc_collector_enabled`]),
/// whose autonomous cycles queue behind the same gate.
///
/// Two invariants make this safe to run at any quiescent or concurrent
/// point:
///
/// - **no resurrection**: a freed node had strong count 1 *while the shard
///   write lock was held*, so no other thread could have been cloning it
///   (every clone source is itself a strong reference, and interning new
///   references requires the lock we hold);
/// - **no id recycling**: the id counter is never rewound, so the same
///   canonical value re-interned later gets a fresh id, and any stale id
///   held downstream is detectably dead ([`contains_node`]) rather than
///   silently re-bound.
///
/// Determinism: collection never changes *values* — re-evaluating after a
/// sweep rebuilds bit-identical canonical objects (fresh ids, equal
/// structure), and objects that stayed reachable keep their ids, so
/// re-interning equal content still hits the same node.
///
/// ```
/// use co_object::{store, Object};
///
/// let before = store::stats();
/// // Build transient garbage nobody keeps…
/// for i in 0..256 {
///     let _ = Object::tuple([("collect_doc_example", Object::int(i))]);
/// }
/// let swept = store::collect();
/// // …the sweep reclaims it (our own thread's L1 is flushed first).
/// assert!(swept.freed_nodes() >= 256);
/// assert!(store::stats().gc_sweeps > before.gc_sweeps);
/// ```
pub fn collect() -> SweepStats {
    let stats = {
        let _gate = GC_GATE.lock();
        collect_locked(false)
    };
    recheck_after_gate_release();
    stats
}

/// The GC observability instruments, registered once in the global
/// [`co_obs`] registry.
struct GcInstruments {
    /// Per-**slice** pause durations: how long each budgeted slice held
    /// interner or columnar-cache locks (the time interners can actually
    /// be blocked).
    /// With slicing off (`set_gc_pause_budget_us(0)`) the single sample is
    /// the cycle's total lock-held time — the stop-the-world pause.
    pause_ns: std::sync::Arc<co_obs::Histogram>,
    /// Whole-cycle durations, slice yields included.
    cycle_ns: std::sync::Arc<co_obs::Histogram>,
    /// Cumulative slice count across all cycles.
    slices: std::sync::Arc<co_obs::Counter>,
}

fn gc_instruments() -> &'static GcInstruments {
    static CELL: OnceLock<GcInstruments> = OnceLock::new();
    CELL.get_or_init(|| GcInstruments {
        pause_ns: co_obs::histogram("store.gc_pause_ns"),
        cycle_ns: co_obs::histogram("store.gc_cycle_ns"),
        slices: co_obs::counter("store.gc_slices"),
    })
}

/// Budgets one sweep cycle into slices. A slice's **pause** is the
/// lock-held time it accumulates — the time interners can actually be
/// blocked — not wall time, so lock-free cycle work (sorting the
/// candidate worklist) never inflates a pause sample. The sweep brackets
/// every lock region with [`Slicer::locked`]/[`Slicer::unlocked`], probes
/// [`Slicer::over_budget`] inside lock-holding loops (the caller breaks
/// out and releases when it returns true), and calls
/// [`Slicer::breakpoint`] at lock-free points; a slice only ends at a
/// breakpoint, so every lock is released before the yield. Each slice's
/// pause is recorded into `store.gc_pause_ns`; with slicing off
/// (`set_gc_pause_budget_us(0)`) the single sample is the cycle's total
/// lock-held time — the stop-the-world pause.
///
/// A **paced** slicer additionally sleeps for twice the slice's own pause
/// (capped at 2× budget) after each slice: a ≤33% duty cycle. The
/// collector thread paces its autonomous sweeps so background collection
/// never monopolizes a core against the serving threads; synchronous
/// callers (explicit `collect()`, inline triggers) never pace — they want
/// the cycle done.
struct Slicer {
    /// `None` = unbudgeted (`set_gc_pause_budget_us(0)`): one slice.
    budget: Option<std::time::Duration>,
    /// Continuous-hold cap: budget/4. The pause budget bounds a *slice's*
    /// accumulated lock-held time, but an interner parked on a shard only
    /// waits out the current *region* — so [`Slicer::over_budget`] also
    /// trips when one region runs this long, forcing a release/re-acquire
    /// mid-slice. Worst-case interner wait shrinks to ~budget/4 without
    /// changing what a pause sample measures.
    region_cap: std::time::Duration,
    /// Sleep between slices (collector-thread autonomous sweeps only).
    paced: bool,
    /// Lock-held time accumulated in the current slice.
    held: std::time::Duration,
    /// Start of the lock region we are currently inside, if any.
    region: Option<std::time::Instant>,
    /// Calls to [`Slicer::over_budget`] since the region started (the
    /// clock is read every 8th call, keeping the probe cheap while
    /// bounding the unprobed window to 8 iterations — the window is part
    /// of the pause overshoot, so it must stay well under the budget).
    checks: u32,
    slices: u32,
}

impl Slicer {
    fn new(paced: bool) -> Self {
        let us = gc_pause_budget_us();
        Slicer {
            budget: (us > 0).then(|| std::time::Duration::from_micros(us)),
            region_cap: std::time::Duration::from_micros(us.max(4) / 4),
            paced,
            held: std::time::Duration::ZERO,
            region: None,
            checks: 0,
            slices: 0,
        }
    }

    /// The sweep just acquired a shard or columnar-cache lock.
    fn locked(&mut self) {
        // Re-phase the probe counter so the first clock read of a fresh
        // region comes after at most 8 iterations, not up to a full
        // window into it.
        self.checks = 0;
        self.region = Some(std::time::Instant::now());
    }

    /// The sweep just released it.
    fn unlocked(&mut self) {
        if let Some(start) = self.region.take() {
            self.held += start.elapsed();
        }
    }

    /// Lock-held time charged to the current slice so far.
    fn spent(&self) -> std::time::Duration {
        self.held
            + self
                .region
                .map_or(std::time::Duration::ZERO, |start| start.elapsed())
    }

    /// Cheap in-lock probe: true once the current slice has used its
    /// budget *or* the current lock region has run past the
    /// continuous-hold cap. The caller must release its locks and reach a
    /// [`Slicer::breakpoint`] — which only ends the slice when the full
    /// budget is spent; a cap-tripped region just re-acquires and resumes.
    fn over_budget(&mut self) -> bool {
        let Some(budget) = self.budget else {
            return false;
        };
        self.checks = self.checks.wrapping_add(1);
        if self.checks & 7 != 0 {
            return false;
        }
        self.spent() >= budget
            || self
                .region
                .is_some_and(|start| start.elapsed() >= self.region_cap)
    }

    /// Lock-free point: ends the slice here if the budget is spent.
    fn breakpoint(&mut self) {
        debug_assert!(self.region.is_none(), "breakpoint inside a lock region");
        if let Some(budget) = self.budget {
            if self.held >= budget {
                self.end_slice();
            }
        }
    }

    /// Ends the current slice: records its pause, yields so interners
    /// parked behind the just-released shard locks get scheduled (a paced
    /// slicer sleeps instead — see the duty-cycle note on [`Slicer`]),
    /// then zeroes the next slice's ledger.
    fn end_slice(&mut self) {
        let pause = self.spent();
        self.record_slice();
        match (self.paced, self.budget) {
            // Sleep 2× the slice's own pause (capped at 2× budget): a ≤33%
            // duty cycle. Besides ceding the core to serving threads
            // two-thirds of the time, the regular sleep keeps the
            // collector's scheduler vruntime low, so it is far less likely
            // to be *preempted while holding a shard lock* — which would
            // stretch the next pause sample past the budget.
            (true, Some(budget)) => std::thread::sleep((2 * pause).min(2 * budget)),
            _ => std::thread::yield_now(),
        }
        self.held = std::time::Duration::ZERO;
    }

    fn record_slice(&mut self) {
        gc_instruments().pause_ns.record_duration(self.spent());
        gc_instruments().slices.inc();
        GC_SLICES.fetch_add(1, Ordering::Relaxed);
        self.slices += 1;
    }

    /// Records the cycle's final (in-progress) slice and returns the total
    /// slice count.
    fn finish(mut self) -> u32 {
        self.record_slice();
        self.slices
    }
}

/// The body of [`collect`]; the caller holds [`GC_GATE`]. Records each
/// slice's pause into the `store.gc_pause_ns` registry histogram, the
/// whole cycle into `store.gc_cycle_ns`, and — when `CO_TRACE` is on —
/// emits a `store.gc_sweep` span for the cycle. `paced` selects the
/// collector thread's ≤33% duty cycle between slices (see [`Slicer`]).
fn collect_locked(paced: bool) -> SweepStats {
    let start = std::time::Instant::now();
    let stats = collect_locked_inner(paced);
    let cycle = start.elapsed();
    gc_instruments().cycle_ns.record_duration(cycle);
    if co_obs::trace_enabled() {
        co_obs::emit(
            "store.gc_sweep",
            &[
                ("cycle_ns", co_obs::FieldValue::U64(cycle.as_nanos() as u64)),
                ("slices", co_obs::FieldValue::U64(stats.slices as u64)),
                ("examined", co_obs::FieldValue::U64(stats.examined as u64)),
                (
                    "freed_nodes",
                    co_obs::FieldValue::U64(stats.freed_nodes() as u64),
                ),
                (
                    "pinned_roots",
                    co_obs::FieldValue::U64(stats.pinned_roots as u64),
                ),
            ],
        );
    }
    stats
}

/// One sweep cycle, in budgeted slices (see [`Slicer`]). The incremental
/// design and why it is still sound:
///
/// - **Sweep-epoch floor**: the cycle snapshots [`NODE_ID_COUNTER`] at
///   entry; any node with `id >= floor` was interned after the cycle began
///   and is never a candidate, so a value interned into an already-swept
///   shard mid-cycle cannot be freed by this cycle.
/// - **No resurrection, per shard**: a node is only removed while its own
///   shard's write lock is held and its `Arc` strong count is 1. Every
///   clone source is itself a strong reference (count ≥ 2), and interning
///   equal content routes through the very lock we hold — holding the
///   other 15 shards' locks (the pre-PR-10 design) added nothing to this
///   argument, which is what makes per-shard-lock slicing sound.
/// - **Deepest-first across slices**: candidates are gathered globally and
///   sorted by `(depth desc, shard)`, and slices never reorder them — a
///   parent (strictly deeper than its children) always drops before its
///   children are examined. Columnar arenas hold only atoms, so nothing
///   else can keep a dead child alive past its parent: one pass frees
///   every dead tree.
/// - **Pins**: the pinned-id snapshot is taken once per cycle; a node
///   pinned *after* the snapshot is safe anyway because a [`Root`] holds a
///   strong reference, which the count check sees.
fn collect_locked_inner(paced: bool) -> SweepStats {
    // Flush this thread's L1 and schedule every other thread's flush (they
    // self-flush on their next intern, bounding cross-sweep retention).
    L1_FLUSH_EPOCH.fetch_add(1, Ordering::Release);
    TL_SEEN_EPOCH.with(|seen| seen.set(L1_FLUSH_EPOCH.load(Ordering::Acquire)));
    flush_thread_caches();

    // The sweep-epoch floor: nodes interned from here on are not ours.
    let id_floor = NODE_ID_COUNTER.load(Ordering::Relaxed);
    let all = shards();
    let mut slicer = Slicer::new(paced);
    let mut stats = SweepStats::default();

    let pinned: FxHashSet<NodeId> = pin_registry().lock().keys().copied().collect();
    stats.pinned_roots = pinned.len();

    // Gather candidates: every unpinned, pre-floor node. A big shard
    // cannot be scanned under one lock hold without blowing the
    // budget, so each shard's scan is **resumable**: snapshot its
    // bucket keys under a brief lock — buckets are only ever *added*
    // while this sweep holds the gate (removal is ours alone), so the
    // key list is a stable cursor — then walk the keys in budgeted
    // chunks, releasing the lock between them. Buckets added after
    // the snapshot hold only post-floor nodes, which are out of scope
    // for this cycle anyway. Liveness is re-checked at removal time
    // under the write lock.
    // Pre-sized to the store's id count (O(1) per shard): a doubling
    // realloc of a 100k-entry worklist inside a gather region would
    // add milliseconds to that slice's pause.
    let expected: usize = all.iter().map(|s| s.read().ids.len()).sum();
    let mut candidates: Vec<(u64, usize, bool, u64, NodeId)> = Vec::with_capacity(expected);
    let mut live_seen = 0usize;
    for (si, shard) in all.iter().enumerate() {
        let (tuple_keys, set_keys) = {
            let guard = shard.read();
            slicer.locked();
            let keys = (
                guard.tuples.keys().copied().collect::<Vec<u64>>(),
                guard.sets.keys().copied().collect::<Vec<u64>>(),
            );
            drop(guard);
            slicer.unlocked();
            keys
        };
        slicer.breakpoint();
        // One chunked scan per map; the two maps' bucket types differ,
        // so the macro stamps the same resumable loop for each.
        macro_rules! chunked_scan {
            ($keys:expr, $map:ident, $is_set:expr) => {
                let keys = $keys;
                let mut k = 0usize;
                while k < keys.len() {
                    let guard = shard.read();
                    slicer.locked();
                    while k < keys.len() && !slicer.over_budget() {
                        let hash = keys[k];
                        k += 1;
                        let Some(bucket) = guard.$map.get(&hash) else {
                            continue;
                        };
                        live_seen += bucket.len();
                        for node in bucket {
                            if node.id.0 < id_floor && !pinned.contains(&node.id) {
                                candidates.push((node.meta.depth, si, $is_set, hash, node.id));
                            }
                        }
                    }
                    drop(guard);
                    slicer.unlocked();
                    slicer.breakpoint();
                }
            };
        }
        chunked_scan!(tuple_keys, tuples, false);
        chunked_scan!(set_keys, sets, true);
    }
    stats.examined = live_seen;
    // Deepest-first globally; shard as tiebreak so equal-depth runs
    // batch under one write-lock acquisition.
    candidates.sort_unstable_by_key(|c| (std::cmp::Reverse(c.0), c.1));

    // Pre-sized to the candidate count: a rehash of a 100k-id set
    // inside a shard-lock region would blow any pause budget.
    let mut freed: FxHashSet<NodeId> =
        FxHashSet::with_capacity_and_hasher(candidates.len(), Default::default());
    let mut i = 0usize;
    while i < candidates.len() {
        let run_shard = candidates[i].1;
        {
            let mut guard = all[run_shard].write();
            slicer.locked();
            while i < candidates.len() && candidates[i].1 == run_shard {
                if slicer.over_budget() {
                    break;
                }
                let (_, _, is_set, hash, id) = candidates[i];
                i += 1;
                let mut removed = false;
                if is_set {
                    if let Some(bucket) = guard.sets.get_mut(&hash) {
                        if let Some(ix) = bucket.iter().position(|n| n.id == id) {
                            // Strong count 1 = only the store's own
                            // reference.
                            if Arc::strong_count(&bucket[ix]) == 1 {
                                bucket.swap_remove(ix);
                                if bucket.is_empty() {
                                    guard.sets.remove(&hash);
                                }
                                removed = true;
                                stats.freed_sets += 1;
                            }
                        }
                    }
                } else if let Some(bucket) = guard.tuples.get_mut(&hash) {
                    if let Some(ix) = bucket.iter().position(|n| n.id == id) {
                        if Arc::strong_count(&bucket[ix]) == 1 {
                            bucket.swap_remove(ix);
                            if bucket.is_empty() {
                                guard.tuples.remove(&hash);
                            }
                            removed = true;
                            stats.freed_tuples += 1;
                        }
                    }
                }
                if removed {
                    guard.ids.remove(&id);
                    freed.insert(id);
                }
            }
        }
        // Write lock released: end the slice here if the budget is
        // spent (interners parked on this shard get in), then resume —
        // possibly re-acquiring the same shard for the rest of its run.
        slicer.unlocked();
        slicer.breakpoint();
    }

    LIVE_NODES.fetch_sub(freed.len() as u64, Ordering::Relaxed);
    // The columnar arena cache is keyed by set ids, which never come back
    // once freed: drop the entries of freed sets.
    if !freed.is_empty() {
        slicer.locked();
        stats.columnar_entries_swept = crate::columnar::purge_freed(&freed);
        slicer.unlocked();
        slicer.breakpoint();
    }

    stats.slices = slicer.finish();
    GC_SWEEPS.fetch_add(1, Ordering::Relaxed);
    GC_FREED_NODES.fetch_add(stats.freed_nodes() as u64, Ordering::Relaxed);
    stats
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Counters of one interner shard (see [`StoreStats::shards`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct interned tuple nodes owned by this shard.
    pub tuple_nodes: usize,
    /// Distinct interned set nodes owned by this shard.
    pub set_nodes: usize,
    /// Intern calls answered with an existing node under this shard's
    /// lock. Thread-local L1 hits never reach a shard and are reported
    /// separately in [`StoreStats::intern_l1_hits`].
    pub hits: u64,
    /// Intern calls that created a new node.
    pub misses: u64,
    /// Lock acquisitions that had to block behind another thread.
    pub contended: u64,
}

/// Hit/miss counters of a lattice-operation memo table. The store no
/// longer memoizes `≤`, `∪` or `∩` — the operations run directly — so
/// every value reported is zero. The type survives only so that readers of
/// [`StoreStats::le_memo`] and its siblings keep compiling until the
/// benchmark spine stops reading them (ROADMAP direction 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Always zero: nothing is memoized.
    pub hits: u64,
    /// Always zero: nothing is memoized.
    pub misses: u64,
}

/// A point-in-time snapshot of store state (diagnostics, benchmarks,
/// capacity planning). Obtain one with [`stats`].
///
/// Event counters (hits, misses, sweeps, …) are cumulative since process
/// start and monotone, so snapshot deltas (`after - before`) measure a
/// region of interest. Population gauges (node counts, `pinned_roots`)
/// move both ways once [`collect`] is in play.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct interned tuple nodes.
    pub tuple_nodes: usize,
    /// Distinct interned set nodes.
    pub set_nodes: usize,
    /// Intern calls (tuple + set) answered with an existing node: shard
    /// hits plus thread-local L1 hits.
    pub intern_hits: u64,
    /// Of [`StoreStats::intern_hits`], the calls answered by the lock-free
    /// thread-local L1 cache without touching a shard (counted on
    /// per-thread counters, so the hot path stays contention-free).
    pub intern_l1_hits: u64,
    /// Intern calls that created a new node, summed over shards.
    pub intern_misses: u64,
    /// Shard-lock acquisitions that had to block, summed over shards.
    pub intern_contended: u64,
    /// Always zero: `≤` is not memoized. Kept only until the benchmark
    /// spine stops reading it (ROADMAP direction 1 deletes it).
    pub le_memo: MemoStats,
    /// Always zero: `∪` is not memoized. Kept only until the benchmark
    /// spine stops reading it (ROADMAP direction 1 deletes it).
    pub union_memo: MemoStats,
    /// Always zero: `∩` is not memoized. Kept only until the benchmark
    /// spine stops reading it (ROADMAP direction 1 deletes it).
    pub intersect_memo: MemoStats,
    /// [`collect`] calls since process start.
    pub gc_sweeps: u64,
    /// Nodes freed by all sweeps since process start.
    pub gc_freed_nodes: u64,
    /// Of [`StoreStats::gc_sweeps`], the collections fired automatically
    /// by the high-water mark (see [`set_gc_high_water`]).
    pub gc_auto_triggers: u64,
    /// Budgeted sweep slices run by all cycles since process start (equals
    /// [`StoreStats::gc_sweeps`] when every cycle fit its pause budget).
    pub gc_slices: u64,
    /// Live interned nodes per the O(1) gauge ([`live_nodes`]); tracks
    /// `tuple_nodes + set_nodes` exactly between sweeps.
    pub live_nodes: u64,
    /// Distinct node ids currently pinned by live [`Root`] guards.
    pub pinned_roots: usize,
    /// Per-shard interner counters, indexed by shard.
    pub shards: [ShardStats; SHARD_COUNT],
}

/// Current [`StoreStats`].
pub fn stats() -> StoreStats {
    let mut s = StoreStats::default();
    for (i, shard) in shards().iter().enumerate() {
        let maps = shard.read();
        let per = ShardStats {
            tuple_nodes: maps.tuples.values().map(Vec::len).sum(),
            set_nodes: maps.sets.values().map(Vec::len).sum(),
            hits: shard.hits.load(Ordering::Relaxed),
            misses: shard.misses.load(Ordering::Relaxed),
            contended: shard.contended.load(Ordering::Relaxed),
        };
        drop(maps);
        s.shards[i] = per;
        s.tuple_nodes += per.tuple_nodes;
        s.set_nodes += per.set_nodes;
        s.intern_hits += per.hits;
        s.intern_misses += per.misses;
        s.intern_contended += per.contended;
    }
    s.intern_l1_hits = l1_hits_total();
    s.intern_hits += s.intern_l1_hits;
    s.gc_sweeps = GC_SWEEPS.load(Ordering::Relaxed);
    s.gc_freed_nodes = GC_FREED_NODES.load(Ordering::Relaxed);
    s.gc_auto_triggers = GC_AUTO_TRIGGERS.load(Ordering::Relaxed);
    s.gc_slices = GC_SLICES.load(Ordering::Relaxed);
    s.live_nodes = live_nodes();
    s.pinned_roots = pinned_roots();
    s
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "store: {} tuple nodes, {} set nodes across {} shards",
            self.tuple_nodes, self.set_nodes, SHARD_COUNT,
        )?;
        writeln!(
            f,
            "  intern: {} hits ({} thread-local), {} misses, {} contended acquisitions",
            self.intern_hits, self.intern_l1_hits, self.intern_misses, self.intern_contended
        )?;
        writeln!(
            f,
            "  gc: {} sweeps ({} auto, {} slices), {} nodes freed, {} live, {} pinned roots",
            self.gc_sweeps,
            self.gc_auto_triggers,
            self.gc_slices,
            self.gc_freed_nodes,
            self.live_nodes,
            self.pinned_roots
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    #[test]
    fn equal_composites_share_one_allocation() {
        let a = obj!([name: peter, hobbies: {chess, music}]);
        let b = obj!([hobbies: {music, chess}, name: peter]);
        assert_eq!(a, b);
        match (&a, &b) {
            (Object::Tuple(x), Object::Tuple(y)) => {
                // Same allocation, same stable id.
                assert_eq!(x.entries().as_ptr(), y.entries().as_ptr());
                assert_eq!(x.node_id(), y.node_id());
            }
            _ => panic!("expected tuples"),
        }
    }

    #[test]
    fn distinct_composites_get_distinct_ids() {
        let a = obj!({1, 2});
        let b = obj!({1, 3});
        assert_ne!(a.node_id(), b.node_id());
        assert!(a.node_id().is_some());
    }

    #[test]
    fn atoms_and_extremes_have_no_node_id() {
        assert_eq!(obj!(5).node_id(), None);
        assert_eq!(Object::Bottom.node_id(), None);
        assert_eq!(Object::Top.node_id(), None);
    }

    #[test]
    fn meta_matches_recursive_measures() {
        // First-principles recursions (NOT the `measure` module, which for
        // composites reads the very Meta fields under test).
        fn ref_depth(o: &Object) -> u64 {
            match o {
                Object::Bottom | Object::Atom(_) => 1,
                Object::Top => unreachable!(),
                Object::Tuple(t) => 1 + t.iter().map(|(_, v)| ref_depth(v)).max().unwrap_or(1),
                Object::Set(s) => 1 + s.iter().map(ref_depth).max().unwrap_or(1),
            }
        }
        fn ref_size(o: &Object) -> u64 {
            match o {
                Object::Bottom | Object::Atom(_) | Object::Top => 1,
                Object::Tuple(t) => 1 + t.iter().map(|(_, v)| ref_size(v)).sum::<u64>(),
                Object::Set(s) => 1 + s.iter().map(ref_size).sum::<u64>(),
            }
        }
        fn ref_atoms(o: &Object) -> u64 {
            match o {
                Object::Atom(_) => 1,
                Object::Bottom | Object::Top => 0,
                Object::Tuple(t) => t.iter().map(|(_, v)| ref_atoms(v)).sum(),
                Object::Set(s) => s.iter().map(ref_atoms).sum(),
            }
        }
        fn ref_fanout(o: &Object) -> usize {
            match o {
                Object::Bottom | Object::Atom(_) | Object::Top => 0,
                Object::Tuple(t) => t
                    .iter()
                    .map(|(_, v)| ref_fanout(v))
                    .max()
                    .unwrap_or(0)
                    .max(t.len()),
                Object::Set(s) => s.iter().map(ref_fanout).max().unwrap_or(0).max(s.len()),
            }
        }
        for o in [
            obj!([a: {1, 2}, b: 3]),
            obj!({[x: 1], [y: {2, {3}}]}),
            obj!({{1, 2}, {[deep: [deeper: {4, 5, 6}]]}}),
            Object::empty_set(),
            Object::empty_tuple(),
        ] {
            let meta = o.meta().expect("composite");
            assert_eq!(meta.depth, ref_depth(&o), "depth of {o}");
            assert_eq!(meta.size, ref_size(&o), "size of {o}");
            assert_eq!(meta.atom_count, ref_atoms(&o), "atom_count of {o}");
            assert_eq!(meta.max_fanout, ref_fanout(&o), "max_fanout of {o}");
        }
    }

    #[test]
    fn contains_set_and_flat_flags() {
        let flat_tuple = obj!([a: 1, b: 2]);
        let meta = flat_tuple.meta().unwrap();
        assert!(meta.flat && !meta.contains_set);

        let nested = obj!([a: {1}]);
        let meta = nested.meta().unwrap();
        assert!(!meta.flat && meta.contains_set);

        let atom_set = obj!({1, 2});
        let meta = atom_set.meta().unwrap();
        assert!(meta.flat && meta.contains_set);
    }

    #[test]
    fn store_stats_grow_monotonically() {
        let before = stats();
        let _o = obj!([unique_attr_for_store_stats: {91_182, 91_183}]);
        let after = stats();
        assert!(after.tuple_nodes > before.tuple_nodes);
        assert!(after.set_nodes > before.set_nodes);
        // New content is an intern miss; shard totals agree with the sums.
        assert!(after.intern_misses > before.intern_misses);
        let shard_tuples: usize = after.shards.iter().map(|s| s.tuple_nodes).sum();
        let shard_misses: u64 = after.shards.iter().map(|s| s.misses).sum();
        assert_eq!(shard_tuples, after.tuple_nodes);
        assert_eq!(shard_misses, after.intern_misses);
    }

    #[test]
    fn reinterning_counts_as_hits() {
        let before = stats();
        let a = obj!([unique_attr_for_hit_counter: {77_001, 77_002}]);
        let b = obj!([unique_attr_for_hit_counter: {77_001, 77_002}]);
        assert_eq!(a.node_id(), b.node_id());
        let after = stats();
        assert!(
            after.intern_hits > before.intern_hits,
            "rebuilding an existing value must count as an intern hit"
        );
    }

    #[test]
    fn parallel_interning_converges_to_one_node() {
        // Many threads race to intern the same fresh values; everyone must
        // end up with the same node per value, and the store must count the
        // duplicates as hits.
        let before = stats();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| {
                            Object::tuple([
                                ("parallel_intern_k", Object::int(i)),
                                ("parallel_intern_v", Object::int(i * 1_000_003)),
                            ])
                            .node_id()
                            .unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<NodeId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            assert_eq!(&results[0], other, "all threads see the same node ids");
        }
        let after = stats();
        // 8 threads × 64 fresh values: at most 64 (+ the atoms' parents)
        // distinct new tuple nodes; the other ~448 rebuilds were hits.
        assert!(after.intern_hits > before.intern_hits);
        assert!(after.intern_misses >= before.intern_misses + 64);
    }
}
