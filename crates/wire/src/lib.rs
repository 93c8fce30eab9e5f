//! # co-wire — hash-cons-aware binary snapshots
//!
//! The object store ([`co_object::store`]) hash-conses every composite:
//! a deeply shared structure is a DAG of distinct interned nodes, however
//! large its tree expansion. This crate turns that in-memory sharing into
//! an **on-disk asset**: a snapshot serializes a set of root objects as a
//! topologically-ordered *node table* in which each distinct node is
//! encoded exactly once and referenced by a dense local id — so the file
//! size tracks the store's node count, not the exponential tree size.
//!
//! # Format (version 1 — full snapshots)
//!
//! ```text
//! header   48 bytes  magic "COWIRE\r\n" · version u32 · reserved u32
//!                    (zero in versions 1 and 2; the columnar record
//!                    count in version 3)
//!                    · node count u64 · root count u64
//!                    · payload length u64 · FNV-1a-64 checksum u64
//! payload            symbol table   varint count, then per symbol a
//!                                   length-prefixed UTF-8 string
//!                                   (attribute names + string atoms,
//!                                   each distinct spelling once)
//!                    node table     `node count` records, children
//!                                   strictly before parents; each record
//!                                   is a tuple/set tag, a child count,
//!                                   and per child an attribute symbol
//!                                   (tuples only) plus a value
//!                    root table     `root count` values
//!                    metadata       varint length + opaque bytes for the
//!                                   embedding application (co-engine
//!                                   stores its program and config here)
//! ```
//!
//! A *value* is one tagged unit: ⊥, ⊤, an inline atom (bool/int/float,
//! strings by symbol index), or a backward reference into the node table.
//! Forward or out-of-range references are a typed error — the topological
//! order is what lets the reader work in one streaming pass.
//!
//! # Format (version 2 — delta snapshots)
//!
//! The node table is content-addressed by construction: every distinct
//! node is written exactly once, so a snapshot of a database that mostly
//! overlaps an earlier one re-pays for all the shared nodes. A **delta**
//! snapshot fixes that. [`write_delta_snapshot`] encodes, against a named
//! *base* — identified by the base's payload checksum plus its cumulative
//! node count — only the nodes the base lacks. The layout is version 1's
//! with one prepended structure:
//!
//! ```text
//! payload            base link      base checksum u64 (little-endian)
//!                                   · base node count u64
//!                    symbol table, node table, root table, metadata
//!                                   as in version 1
//! ```
//!
//! Local ids live in a **combined id space**: ids `0..base_nodes` name
//! base-resident nodes (the base's own local ids, or for a chained base
//! the concatenation of its layers), and ids from `base_nodes` upward
//! name this delta's new nodes in table order. References still point
//! strictly backwards.
//!
//! A chain `full → delta → delta → …` is restored with [`read_chain`] /
//! [`load_chain`], which streams each layer through the same bottom-up
//! re-interning pass, verifying each link: a layer whose declared base
//! identity does not match the chain restored so far is rejected with
//! [`WireError::BaseMismatch`], a delta without its base with
//! [`WireError::BaseRequired`], and chains deeper than
//! [`MAX_CHAIN_DEPTH`] with [`WireError::ChainTooDeep`] — compact them
//! first with [`compact_chain`]. [`describe`] inspects any snapshot file
//! without restoring it.
//!
//! # Format (version 3 — columnar full snapshots)
//!
//! A flat relation — a set whose elements are all same-schema tuples of
//! atoms — shares almost nothing: every row tuple is distinct, so the
//! node table pays a full record (tag, arity, and one attribute symbol
//! index per column) for every row. [`write_snapshot_columnar`] encodes
//! such sets as one **columnar** record instead:
//!
//! ```text
//! flat-set record    tag 0x12 · arity varint
//!                    · per column an attribute symbol index
//!                    · row count varint
//!                    · the cells, column-major: per column `row count`
//!                      atom values (inline tags only — never ⊥/⊤ and
//!                      never a node reference)
//! ```
//!
//! The schema is spelled once, and row tuples whose only references are
//! from columnar sets are **pruned** from the node table entirely (a row
//! tuple that is also a root or a child of an ordinary node keeps its
//! record — the columns carry an inline copy). The reader rebuilds every
//! row bottom-up through the same canonicalizing constructors as any
//! other node, so a columnar snapshot restores to bit-identical objects
//! and `NodeId`s. Eligibility and the row threshold
//! ([`columnar_min_rows`](co_object::columnar::columnar_min_rows)) are
//! [`co_object::columnar`]'s; when no set qualifies, the writer falls
//! back to a byte-identical **version 1** snapshot, and a version-3 file
//! that contains no columnar record is rejected as
//! [`WireError::Malformed`] — so a flipped version byte
//! cannot silently reinterpret a v1 payload. Deltas (version 2) never
//! emit the columnar tag.
//!
//! A version-3 header stores the columnar record count in the 4 bytes
//! that versions 1 and 2 reserve as zero: [`describe`] can report it
//! without restoring, and a flipped version byte fails **header**
//! validation in either direction (a v3 header with a zero count, or a
//! v1/v2 header with a nonzero "reserved" field, is malformed). The
//! reader additionally verifies the declared count against the records
//! actually decoded.
//!
//! **Compatibility policy:** version 1 remains readable forever — every
//! reader entry point accepts it, and full snapshots are still written as
//! version 1 so older tooling can read new checkpoints that don't use
//! deltas or the columnar fast path. Unknown versions are hard
//! [`WireError::UnsupportedVersion`] errors, never a best-effort parse.
//!
//! # Re-interning
//!
//! The reader rebuilds each node **bottom-up through the ordinary
//! canonicalizing constructors** and the hash-consing store. Two
//! consequences:
//!
//! - a loaded snapshot is structurally bit-identical to what was saved
//!   (canonical form is unique, whatever attribute-interning order the
//!   reading process happens to have), and
//! - loading **re-deduplicates against whatever is already live**: nodes
//!   the process already interned are recognized, not duplicated, so
//!   restoring a snapshot into a warm server costs only the nodes it did
//!   not already have.
//!
//! Corrupt, truncated, or wrong-version input never panics — every
//! failure is a [`WireError`] with a precise rendering.
//!
//! ```
//! use co_object::obj;
//!
//! let shared = obj!({[k: 1, v: {a, b}], [k: 2, v: {a, b}]});
//! let mut bytes = Vec::new();
//! co_wire::write_snapshot(&mut bytes, &[shared.clone()], b"").unwrap();
//! let snap = co_wire::read_snapshot(bytes.as_slice()).unwrap();
//! assert_eq!(snap.roots, vec![shared.clone()]);
//! // Same process, same content: re-interning finds the same node.
//! assert_eq!(snap.roots[0].node_id(), shared.node_id());
//! ```
//!
//! Delta round-trip, in memory:
//!
//! ```
//! use co_object::obj;
//!
//! let v1 = obj!([db: {1, 2}]);
//! let mut base = Vec::new();
//! let (_, handle) = co_wire::write_snapshot_handle(&mut base, &[v1], b"").unwrap();
//!
//! let v2 = obj!([db: {1, 2, 3}]);
//! let mut delta = Vec::new();
//! let (stats, _) =
//!     co_wire::write_delta_snapshot(&mut delta, &[v2.clone()], b"", &handle).unwrap();
//! assert!(stats.nodes < 3); // only what the base lacks
//!
//! let (snap, _) = co_wire::read_chain([base.as_slice(), delta.as_slice()]).unwrap();
//! assert_eq!(snap.roots, vec![v2]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
mod error;

pub use error::WireError;

use co_object::walk::{visit_unique_postorder, visit_unique_postorder_pruned};
use co_object::{Atom, Attr, NodeId, Object};
use codec::{checksum, put_str, put_varint, put_varint_i64, Cursor};
use rustc_hash::{FxHashMap, FxHashSet};
use std::io::{Read, Write};
use std::path::Path;

/// The eight magic bytes opening every snapshot. The `\r\n` tail detects
/// line-ending translation by transfer tools that treated the file as
/// text.
pub const MAGIC: [u8; 8] = *b"COWIRE\r\n";

/// The format version this build writes for **full** snapshots, readable
/// by every `co-wire` since PR 4 — version 1 stays readable forever.
pub const FORMAT_VERSION: u32 = 1;

/// The format version this build writes for **delta** snapshots (nodes
/// encoded against a base snapshot; restored as a chain).
pub const FORMAT_VERSION_DELTA: u32 = 2;

/// The format version [`write_snapshot_columnar`] writes when at least
/// one flat relation qualified for a columnar record (see the module
/// docs); with no qualifying set it falls back to [`FORMAT_VERSION`].
pub const FORMAT_VERSION_COLUMNAR: u32 = 3;

/// The maximum number of layers (one full + deltas) a snapshot chain may
/// have. Deeper chains are rejected with [`WireError::ChainTooDeep`];
/// compact them with [`compact_chain`]. Restore cost and failure surface
/// grow with every link, so the cap keeps both bounded.
pub const MAX_CHAIN_DEPTH: usize = 16;

/// Fixed size of the snapshot header in bytes.
pub const HEADER_LEN: usize = 48;

// Node-record tags (node table). `NODE_FLAT_SET` is only accepted in
// version-3 payloads; anywhere else it is a [`WireError::BadTag`].
const NODE_TUPLE: u8 = 0x10;
const NODE_SET: u8 = 0x11;
const NODE_FLAT_SET: u8 = 0x12;

// Value tags (inside node records and the root table).
const VAL_BOTTOM: u8 = 0x00;
const VAL_TOP: u8 = 0x01;
const VAL_FALSE: u8 = 0x02;
const VAL_TRUE: u8 = 0x03;
const VAL_INT: u8 = 0x04;
const VAL_FLOAT: u8 = 0x05;
const VAL_STR: u8 = 0x06;
const VAL_NODE: u8 = 0x07;

/// A decoded snapshot: the root objects (re-interned, canonical) and the
/// embedding application's opaque metadata blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The root objects, in the order they were passed to the writer.
    pub roots: Vec<Object>,
    /// The opaque metadata blob the writer attached (empty if none).
    pub meta: Vec<u8>,
}

/// The identity of a snapshot as a **delta base**: enough to verify that
/// a delta is being applied to the content it was written against.
///
/// The checksum is the base layer's payload checksum; the node count is
/// cumulative over the base's own chain. Together they pin the base's
/// content *and* its local-id space: two bases with equal checksums and
/// node counts decode to identical node tables, so every base-local id a
/// delta uses means the same node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaseId {
    /// Payload checksum of the base's last layer.
    pub checksum: u64,
    /// Cumulative node count of the base chain.
    pub nodes: u64,
}

/// A live handle onto a written (or restored) snapshot: what
/// [`write_delta_snapshot`] needs to encode a new layer against it.
///
/// The handle maps the **live `NodeId`** of every node in the snapshot to
/// its combined-space local id. It holds no strong references: freed ids
/// are never recycled by the store, so a stale entry can never be looked
/// up again (a re-derivation of freed content gets a fresh id, misses the
/// map, and is simply re-encoded in the next delta — larger, never
/// wrong). Handles come from [`write_snapshot_handle`],
/// [`write_delta_snapshot`], [`read_chain`], and their path variants.
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    /// Payload checksum of the newest layer.
    checksum: u64,
    /// Cumulative node count across all layers.
    count: u64,
    /// Live `NodeId` → combined-space local id.
    locals: FxHashMap<NodeId, u64>,
}

impl SnapshotHandle {
    /// The identity a delta written against this handle will declare.
    pub fn base_id(&self) -> BaseId {
        BaseId {
            checksum: self.checksum,
            nodes: self.count,
        }
    }

    /// Payload checksum of the newest layer of this snapshot.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Cumulative node count across all layers of this snapshot.
    pub fn nodes(&self) -> u64 {
        self.count
    }

    /// Whether the live node `id` is resident in this snapshot.
    pub fn contains(&self, id: NodeId) -> bool {
        self.locals.contains_key(&id)
    }
}

/// What one snapshot write produced — the inputs for capacity planning
/// and for the sharing-ratio accounting the benches record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Format version written: [`FORMAT_VERSION`] for full snapshots,
    /// [`FORMAT_VERSION_DELTA`] for deltas, [`FORMAT_VERSION_COLUMNAR`]
    /// for full snapshots that used the columnar fast path (0 for a
    /// default value that never came from a write).
    pub version: u32,
    /// Distinct composite nodes encoded (each exactly once). For a delta,
    /// only the nodes the base lacked.
    pub nodes: u64,
    /// Root values encoded.
    pub roots: u64,
    /// Distinct symbols (attribute names + string atoms) encoded.
    pub symbols: u64,
    /// Bytes of payload (everything after the header).
    pub payload_bytes: u64,
    /// Total bytes written, header included.
    pub total_bytes: u64,
    /// Distinct base-resident nodes this delta references by base-local
    /// id instead of re-encoding (0 for full snapshots). Together with
    /// `nodes`, this reconciles against a full write of the same roots:
    /// `full.nodes == delta.nodes + reachable base nodes`, of which
    /// `base_nodes_reused` are the ones referenced directly.
    pub base_nodes_reused: u64,
    /// Flat relations encoded as columnar records (0 unless the write
    /// came from [`write_snapshot_columnar`] and at least one set
    /// qualified — in which case `version` is
    /// [`FORMAT_VERSION_COLUMNAR`]). Counted in `nodes`; the row tuples
    /// the columns absorbed are not.
    pub columnar_sets: u64,
}

impl WriteStats {
    /// Average on-disk payload bytes per distinct node; `None` for a
    /// snapshot of zero composite nodes.
    pub fn bytes_per_node(&self) -> Option<f64> {
        (self.nodes > 0).then(|| self.payload_bytes as f64 / self.nodes as f64)
    }
}

impl std::fmt::Display for WriteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.version == FORMAT_VERSION_DELTA {
            write!(
                f,
                "delta snapshot: {} new nodes (+{} referenced from base), {} roots, \
                 {} symbols, {} payload bytes ({} total)",
                self.nodes,
                self.base_nodes_reused,
                self.roots,
                self.symbols,
                self.payload_bytes,
                self.total_bytes
            )
        } else {
            write!(
                f,
                "snapshot: {} nodes, {} roots, {} symbols, {} payload bytes ({} total)",
                self.nodes, self.roots, self.symbols, self.payload_bytes, self.total_bytes
            )?;
            if self.columnar_sets > 0 {
                write!(f, ", {} columnar relations", self.columnar_sets)?;
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Write-side state threaded through value encoding: the symbol table
/// under construction, this layer's local ids, and the optional base.
struct Encoder<'a> {
    symbols: Vec<String>,
    by_name: FxHashMap<String, u64>,
    /// Attributes already resolved to their symbol index: one interner
    /// read and one string hash per distinct attribute, not per entry.
    by_attr: FxHashMap<Attr, u64>,
    /// New nodes of this layer → combined-space local id.
    locals: FxHashMap<NodeId, u64>,
    base: Option<&'a SnapshotHandle>,
    /// Distinct base-resident nodes referenced (delta accounting).
    reused: FxHashSet<NodeId>,
}

impl Encoder<'_> {
    /// Interns a symbol (attribute name or string-atom payload) into the
    /// write-side symbol table, returning its dense index.
    fn symbol(&mut self, name: &str) -> u64 {
        if let Some(&ix) = self.by_name.get(name) {
            return ix;
        }
        let ix = self.symbols.len() as u64;
        self.symbols.push(name.to_owned());
        self.by_name.insert(name.to_owned(), ix);
        ix
    }

    /// The symbol index of an attribute's name — the same table, and
    /// therefore the same first-appearance order, as [`Self::symbol`].
    fn attr_symbol(&mut self, attr: Attr) -> u64 {
        if let Some(&ix) = self.by_attr.get(&attr) {
            return ix;
        }
        let ix = self.symbol(&attr.name());
        self.by_attr.insert(attr, ix);
        ix
    }

    /// Encodes one atom (inline, never a node reference) into `out` —
    /// the cell encoding of columnar records, shared with [`Self::value`].
    fn atom(&mut self, out: &mut Vec<u8>, a: &Atom) {
        match a {
            Atom::Bool(false) => out.push(VAL_FALSE),
            Atom::Bool(true) => out.push(VAL_TRUE),
            Atom::Int(v) => {
                out.push(VAL_INT);
                put_varint_i64(out, *v);
            }
            Atom::Float(v) => {
                out.push(VAL_FLOAT);
                out.extend_from_slice(&v.get().to_bits().to_le_bytes());
            }
            Atom::Str(s) => {
                out.push(VAL_STR);
                let ix = self.symbol(s);
                put_varint(out, ix);
            }
        }
    }

    /// Encodes one value (an immediate child or a root) into `out`.
    fn value(&mut self, out: &mut Vec<u8>, o: &Object) {
        match o {
            Object::Bottom => out.push(VAL_BOTTOM),
            Object::Top => out.push(VAL_TOP),
            Object::Atom(a) => self.atom(out, a),
            Object::Tuple(_) | Object::Set(_) => {
                let id = o.node_id().expect("composites have node ids");
                let local = match self.locals.get(&id) {
                    Some(&local) => local,
                    None => {
                        // Pruned from the walk, so it must be in the base.
                        let base = self.base.expect("full writes enumerate every composite");
                        self.reused.insert(id);
                        base.locals[&id]
                    }
                };
                out.push(VAL_NODE);
                put_varint(out, local);
            }
        }
    }
}

/// The crate's registry instruments, resolved once: every snapshot
/// encode/decode lands in `wire.encode_ns` / `wire.decode_ns` (one
/// observation per layer), so serving-side stalls can be attributed to
/// serialization from a [`co_obs::Snapshot`] alone.
struct WireInstruments {
    encode_ns: std::sync::Arc<co_obs::Histogram>,
    decode_ns: std::sync::Arc<co_obs::Histogram>,
}

fn wire_instruments() -> &'static WireInstruments {
    static CELL: std::sync::OnceLock<WireInstruments> = std::sync::OnceLock::new();
    CELL.get_or_init(|| WireInstruments {
        encode_ns: co_obs::histogram("wire.encode_ns"),
        decode_ns: co_obs::histogram("wire.decode_ns"),
    })
}

/// The shared writer: encodes `roots` (plus `meta`) as one layer — full
/// when `base` is `None`, a delta against `base` otherwise — and returns
/// the stats plus a handle onto the written snapshot (base included).
fn write_snapshot_impl<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
    base: Option<&SnapshotHandle>,
    columnar: bool,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    let start = std::time::Instant::now();
    let out = write_snapshot_inner(w, roots, meta, base, columnar);
    wire_instruments()
        .encode_ns
        .record_duration(start.elapsed());
    out
}

fn write_snapshot_inner<W: Write>(
    mut w: W,
    roots: &[Object],
    meta: &[u8],
    base: Option<&SnapshotHandle>,
    columnar: bool,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    let base_count = base.map_or(0, |b| b.count);

    // Pass 1: the distinct-node table, children before parents — pruned
    // at base-resident nodes for a delta (every node in a snapshot has
    // all its descendants there too, so pruning loses nothing).
    let mut nodes: Vec<Object> = Vec::new();
    match base {
        Some(b) => visit_unique_postorder_pruned(
            roots.iter(),
            |id| b.contains(id),
            |o| nodes.push(o.clone()),
        ),
        None => visit_unique_postorder(roots.iter(), |o| nodes.push(o.clone())),
    }

    // Columnar pass (full snapshots only): pick the flat relations that
    // get a `NODE_FLAT_SET` record, then prune the row tuples whose only
    // references are from those relations — their cells carry them. A
    // row tuple that is also a root, or a child of any ordinary node,
    // keeps its own record (`Encoder::value` must be able to name it).
    let mut columnar_of: FxHashMap<NodeId, std::sync::Arc<co_object::columnar::ColumnarRel>> =
        FxHashMap::default();
    if columnar && base.is_none() {
        for node in &nodes {
            if let Object::Set(s) = node {
                if let Some(cols) = co_object::columnar::arena_for(s) {
                    columnar_of.insert(s.node_id(), cols);
                }
            }
        }
        if !columnar_of.is_empty() {
            let mut prunable: FxHashSet<NodeId> = FxHashSet::default();
            for node in &nodes {
                let id = node.node_id().expect("walk yields composites");
                if columnar_of.contains_key(&id) {
                    for row in node.children() {
                        prunable.insert(row.node_id().expect("flat-relation rows are tuples"));
                    }
                }
            }
            for node in &nodes {
                let id = node.node_id().expect("walk yields composites");
                if columnar_of.contains_key(&id) {
                    continue;
                }
                for child in node.children() {
                    if let Some(cid) = child.node_id() {
                        prunable.remove(&cid);
                    }
                }
            }
            for root in roots {
                if let Some(rid) = root.node_id() {
                    prunable.remove(&rid);
                }
            }
            nodes.retain(|n| !prunable.contains(&n.node_id().expect("walk yields composites")));
        }
    }

    let mut enc = Encoder {
        symbols: Vec::new(),
        by_name: FxHashMap::default(),
        by_attr: FxHashMap::default(),
        locals: FxHashMap::default(),
        base,
        reused: FxHashSet::default(),
    };
    for (ix, node) in nodes.iter().enumerate() {
        enc.locals.insert(
            node.node_id().expect("walk yields composites"),
            base_count + ix as u64,
        );
    }

    // Pass 2: encode node records (interning symbols as they appear).
    let mut table: Vec<u8> = Vec::new();
    for node in &nodes {
        if let Some(cols) = node.node_id().and_then(|id| columnar_of.get(&id)) {
            // Columnar record: the schema spelled once, then the cells
            // column-major — all inline atoms, no node references.
            table.push(NODE_FLAT_SET);
            put_varint(&mut table, cols.arity() as u64);
            for attr in cols.schema() {
                let ix = enc.attr_symbol(*attr);
                put_varint(&mut table, ix);
            }
            put_varint(&mut table, cols.rows() as u64);
            for c in 0..cols.arity() {
                for atom in cols.column(c) {
                    enc.atom(&mut table, atom);
                }
            }
            continue;
        }
        match node {
            Object::Tuple(t) => {
                table.push(NODE_TUPLE);
                put_varint(&mut table, t.len() as u64);
                for (attr, value) in t.entries() {
                    let ix = enc.attr_symbol(*attr);
                    put_varint(&mut table, ix);
                    enc.value(&mut table, value);
                }
            }
            Object::Set(s) => {
                table.push(NODE_SET);
                put_varint(&mut table, s.len() as u64);
                for element in s.elements() {
                    enc.value(&mut table, element);
                }
            }
            _ => unreachable!("the unique walk only yields composites"),
        }
    }
    let mut root_table: Vec<u8> = Vec::new();
    for root in roots {
        enc.value(&mut root_table, root);
    }

    // Assemble the payload: [base link,] symbols, nodes, roots, metadata.
    let mut payload: Vec<u8> = Vec::new();
    if let Some(b) = base {
        payload.extend_from_slice(&b.checksum.to_le_bytes());
        payload.extend_from_slice(&b.count.to_le_bytes());
    }
    put_varint(&mut payload, enc.symbols.len() as u64);
    for s in &enc.symbols {
        put_str(&mut payload, s);
    }
    payload.extend_from_slice(&table);
    payload.extend_from_slice(&root_table);
    put_varint(&mut payload, meta.len() as u64);
    payload.extend_from_slice(meta);

    // Header last: it needs the counts and the payload checksum. A
    // columnar write with zero qualifying sets emitted no 0x12 records,
    // so it *is* a plain version-1 snapshot — label it as one.
    let version = if base.is_some() {
        FORMAT_VERSION_DELTA
    } else if !columnar_of.is_empty() {
        FORMAT_VERSION_COLUMNAR
    } else {
        FORMAT_VERSION
    };
    let sum = checksum(&payload);
    let columnar_count =
        u32::try_from(columnar_of.len()).expect("columnar record count fits the header field");
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    // Reserved in versions 1 and 2 (zero); the columnar count in v3.
    header.extend_from_slice(&columnar_count.to_le_bytes());
    header.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    header.extend_from_slice(&(roots.len() as u64).to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;

    let stats = WriteStats {
        version,
        nodes: nodes.len() as u64,
        roots: roots.len() as u64,
        symbols: enc.symbols.len() as u64,
        payload_bytes: payload.len() as u64,
        total_bytes: (HEADER_LEN + payload.len()) as u64,
        base_nodes_reused: enc.reused.len() as u64,
        columnar_sets: columnar_of.len() as u64,
    };
    let locals = match base {
        Some(b) => {
            let mut combined = b.locals.clone();
            combined.extend(enc.locals.iter().map(|(id, local)| (*id, *local)));
            combined
        }
        None => enc.locals,
    };
    let handle = SnapshotHandle {
        checksum: sum,
        count: base_count + nodes.len() as u64,
        locals,
    };
    Ok((stats, handle))
}

/// Serializes `roots` (plus `meta`, an opaque blob the reader hands back
/// verbatim) as one full (version 1) snapshot into `w`. Each distinct
/// interned node reachable from the roots is encoded exactly once,
/// children before parents.
///
/// The writer holds strong references to every root for the whole write,
/// so a concurrent [`co_object::store::collect`] cannot free anything
/// mid-serialization; callers that also want the ids pinned across later
/// sweeps should pin roots themselves (see `Engine::checkpoint`).
pub fn write_snapshot<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
) -> Result<WriteStats, WireError> {
    write_snapshot_impl(w, roots, meta, None, false).map(|(stats, _)| stats)
}

/// [`write_snapshot`], additionally returning a [`SnapshotHandle`] for
/// writing delta snapshots against the result.
pub fn write_snapshot_handle<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    write_snapshot_impl(w, roots, meta, None, false)
}

/// [`write_snapshot`], with the **columnar fast path**: flat relations
/// that qualify for a [`co_object::columnar`] arena (same-schema rows of
/// atoms, at least
/// [`columnar_min_rows`](co_object::columnar::columnar_min_rows) of them)
/// are encoded as schema-once column-major records, and their row tuples
/// — when nothing outside the relation references them — are pruned from
/// the node table. Writes [`FORMAT_VERSION_COLUMNAR`] when at least one set
/// qualified (see [`WriteStats::columnar_sets`]), otherwise falls back
/// to a byte-identical version-1 snapshot.
///
/// Restoring re-interns every row through the canonicalizing
/// constructors, so the result is bit-identical to a version-1 write of
/// the same roots — the columnar record is purely an encoding choice.
pub fn write_snapshot_columnar<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    write_snapshot_impl(w, roots, meta, None, true)
}

/// Serializes `roots` as a **delta** (version 2) snapshot against `base`:
/// only nodes the base lacks are encoded; everything already resident is
/// referenced by its base-local id. Returns the stats and a handle onto
/// the extended chain, for writing the next delta.
///
/// Restore the result with [`read_chain`] / [`load_chain`], supplying the
/// base's layers first.
pub fn write_delta_snapshot<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    write_snapshot_impl(w, roots, meta, Some(base), false)
}

// ---------------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------------

/// Runs `write` against a same-directory temporary for `path` and renames
/// the result over `path` only once fully written and synced — a crash
/// mid-write can never leave a half-snapshot under the final name, only
/// an orphan temporary (see [`is_snapshot_temp`]).
fn save_atomically<T>(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    // Unique per process AND per call: two threads checkpointing to the
    // same destination concurrently must not interleave writes into one
    // temp inode (the loser's rename would install a corrupt file).
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut buffered = std::io::BufWriter::new(file);
        let out = write(&mut buffered)?;
        buffered
            .into_inner()
            .map_err(|e| e.into_error())?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(out)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Whether `path` looks like an orphaned snapshot temporary — the
/// `<dest>.tmp.<pid>.<seq>` name [`save_to_path`] writes through before
/// its atomic rename. A crash mid-save leaves such a file next to an
/// intact `<dest>`; it is safe to ignore or delete.
pub fn is_snapshot_temp(path: impl AsRef<Path>) -> bool {
    let Some(name) = path.as_ref().file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some((_, suffix)) = name.rsplit_once(".tmp.") else {
        return false;
    };
    let mut parts = suffix.split('.');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some(pid), Some(seq), None)
            if !pid.is_empty()
                && !seq.is_empty()
                && pid.bytes().all(|b| b.is_ascii_digit())
                && seq.bytes().all(|b| b.is_ascii_digit())
    )
}

/// [`write_snapshot`] to a file, atomically: the bytes go to a
/// same-directory temporary first and are renamed over `path` only once
/// fully written, so a crash mid-write can never leave a half-snapshot
/// under the final name.
pub fn save_to_path(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
) -> Result<WriteStats, WireError> {
    save_atomically(path.as_ref(), |w| write_snapshot(w, roots, meta))
}

/// [`save_to_path`], additionally returning a [`SnapshotHandle`] for
/// writing delta snapshots against the saved file.
pub fn save_to_path_handle(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    save_atomically(path.as_ref(), |w| write_snapshot_handle(w, roots, meta))
}

/// [`write_snapshot_columnar`] to a file, atomically (same temp + rename
/// contract as [`save_to_path`]).
pub fn save_columnar_to_path(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    save_atomically(path.as_ref(), |w| write_snapshot_columnar(w, roots, meta))
}

/// [`write_delta_snapshot`] to a file, atomically (same temp + rename
/// contract as [`save_to_path`]).
pub fn save_delta_to_path(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    save_atomically(path.as_ref(), |w| {
        write_delta_snapshot(w, roots, meta, base)
    })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated snapshot header.
struct Header {
    version: u32,
    /// Columnar records declared (version 3 only; zero otherwise).
    columnar: u32,
    node_count: u64,
    root_count: u64,
    payload_len: usize,
    checksum: u64,
}

/// Reads and structurally validates the 48-byte header: magic, version
/// window, zeroed reserved bytes, and count plausibility (each node and
/// root record is at least one payload byte). The header is not covered
/// by the payload checksum, so these checks are what stands between a
/// flipped header bit and a misparse.
fn read_header<R: Read>(r: &mut R) -> Result<Header, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "header" }
        } else {
            WireError::Io(e)
        }
    })?;
    let magic: [u8; 8] = header[0..8].try_into().expect("8 bytes");
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION
        && version != FORMAT_VERSION_DELTA
        && version != FORMAT_VERSION_COLUMNAR
    {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let reserved = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if version == FORMAT_VERSION_COLUMNAR {
        if reserved == 0 {
            return Err(WireError::Malformed {
                detail: "version 3 header declares zero columnar records — a plain full \
                         snapshot must declare version 1"
                    .into(),
            });
        }
    } else if reserved != 0 {
        return Err(WireError::Malformed {
            detail: format!("reserved header bytes are not zero ({reserved:#010x})"),
        });
    }
    let node_count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if u64::from(reserved) > node_count {
        return Err(WireError::Malformed {
            detail: format!(
                "declared columnar record count {reserved} exceeds the node count {node_count}"
            ),
        });
    }
    let root_count = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(header[32..40].try_into().expect("8 bytes"));
    let declared_checksum = u64::from_le_bytes(header[40..48].try_into().expect("8 bytes"));
    if node_count > payload_len {
        return Err(WireError::Malformed {
            detail: format!(
                "declared node count {node_count} exceeds the {payload_len}-byte payload"
            ),
        });
    }
    if root_count > payload_len {
        return Err(WireError::Malformed {
            detail: format!(
                "declared root count {root_count} exceeds the {payload_len}-byte payload"
            ),
        });
    }
    let payload_len = usize::try_from(payload_len).map_err(|_| WireError::Malformed {
        detail: format!("declared payload length {payload_len} exceeds addressable memory"),
    })?;
    Ok(Header {
        version,
        columnar: reserved,
        node_count,
        root_count,
        payload_len,
        checksum: declared_checksum,
    })
}

/// Reads exactly the declared payload and verifies its checksum before
/// any of the structure is trusted.
fn read_payload<R: Read>(r: &mut R, h: &Header) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    let got = r
        .by_ref()
        .take(h.payload_len as u64)
        .read_to_end(&mut payload)?;
    if got < h.payload_len {
        return Err(WireError::Truncated { context: "payload" });
    }
    let actual = checksum(&payload);
    if actual != h.checksum {
        return Err(WireError::ChecksumMismatch {
            expected: h.checksum,
            actual,
        });
    }
    Ok(payload)
}

/// One layer's symbol table on the read side: the spellings, plus the
/// [`Attr`] each one names once some record has used it as an attribute
/// (string-atom payloads share the table and are never interned as
/// attributes).
struct Symbols {
    names: Vec<String>,
    attrs: Vec<Option<Attr>>,
}

impl Symbols {
    /// The attribute symbol `ix` names, interned on first use in this
    /// layer. `context` is appended to the out-of-range error (empty for
    /// plain node records).
    fn attr(&mut self, ix: u64, context: &str) -> Result<Attr, WireError> {
        let slot = usize::try_from(ix).unwrap_or(usize::MAX);
        let name = self.names.get(slot).ok_or_else(|| WireError::Malformed {
            detail: format!(
                "attribute symbol index {ix} out of range ({} symbols){context}",
                self.names.len()
            ),
        })?;
        Ok(*self.attrs[slot].get_or_insert_with(|| Attr::new(name)))
    }
}

/// Decodes one value; composites must be backward references into the
/// already-decoded prefix of the (combined, for chains) node table.
fn get_value(
    c: &mut Cursor<'_>,
    context: &'static str,
    nodes: &[Object],
    symbols: &[String],
    allow_extremes: bool,
) -> Result<Object, WireError> {
    let tag = c.u8(context)?;
    match tag {
        VAL_BOTTOM | VAL_TOP if !allow_extremes => Err(WireError::Malformed {
            detail: format!(
                "{} inside a composite node (canonical nodes contain neither)",
                if tag == VAL_BOTTOM { "⊥" } else { "⊤" }
            ),
        }),
        VAL_BOTTOM => Ok(Object::Bottom),
        VAL_TOP => Ok(Object::Top),
        VAL_FALSE => Ok(Object::bool(false)),
        VAL_TRUE => Ok(Object::bool(true)),
        VAL_INT => Ok(Object::int(c.varint_i64(context)?)),
        VAL_FLOAT => {
            let bytes: [u8; 8] = c.take(8, context)?.try_into().expect("8 bytes");
            Ok(Object::float(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        VAL_STR => {
            let ix = c.varint(context)?;
            let s = symbols
                .get(usize::try_from(ix).unwrap_or(usize::MAX))
                .ok_or_else(|| WireError::Malformed {
                    detail: format!(
                        "symbol index {ix} out of range ({} symbols) in {context}",
                        symbols.len()
                    ),
                })?;
            Ok(Object::str(s))
        }
        VAL_NODE => {
            let id = c.varint(context)?;
            match usize::try_from(id).ok().and_then(|ix| nodes.get(ix)) {
                Some(node) => Ok(node.clone()),
                None => Err(WireError::DanglingRef {
                    id,
                    defined: nodes.len() as u64,
                }),
            }
        }
        tag => Err(WireError::BadTag { tag, context }),
    }
}

/// Decodes one columnar (`NODE_FLAT_SET`) record into a canonical set:
/// schema, row count, then the cells column-major. Every cell must be an
/// inline atom — ⊥/⊤ are refused by `get_value` and node references are
/// refused here (a flat relation's rows contain no composites). Rows are
/// rebuilt through [`Object::try_tuple`] / [`Object::set`], so whatever
/// the writing process's attribute order was, the result re-interns to
/// the canonical node.
fn decode_flat_set(
    c: &mut Cursor<'_>,
    nodes: &[Object],
    symbols: &mut Symbols,
) -> Result<Object, WireError> {
    let context = "columnar node";
    let arity = c.varint(context)?;
    let arity = usize::try_from(arity)
        .ok()
        .filter(|&a| a > 0 && a <= c.remaining())
        .ok_or_else(|| WireError::Malformed {
            detail: format!("columnar record declares an implausible arity ({arity})"),
        })?;
    let mut schema: Vec<Attr> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let ix = c.varint(context)?;
        schema.push(symbols.attr(ix, " in columnar node")?);
    }
    let rows = c.varint(context)?;
    // Each cell is at least one payload byte, so `arity × rows` beyond
    // the remaining payload cannot be honest — fail before allocating.
    let rows = usize::try_from(rows)
        .ok()
        .filter(|&r| {
            r > 0
                && r.checked_mul(arity)
                    .is_some_and(|cells| cells <= c.remaining())
        })
        .ok_or_else(|| WireError::Malformed {
            detail: format!(
                "columnar record declares an implausible row count ({rows} rows × {arity} \
                 columns against {} remaining payload bytes)",
                c.remaining()
            ),
        })?;
    let mut columns: Vec<Vec<Object>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut column = Vec::with_capacity(rows);
        for _ in 0..rows {
            let value = get_value(c, context, nodes, &symbols.names, false)?;
            if !matches!(value, Object::Atom(_)) {
                return Err(WireError::Malformed {
                    detail: "node reference inside a columnar record (rows are atoms only)".into(),
                });
            }
            column.push(value);
        }
        columns.push(column);
    }
    let mut elements: Vec<Object> = Vec::with_capacity(rows);
    for r in 0..rows {
        let entries = schema
            .iter()
            .zip(&columns)
            .map(|(attr, column)| (*attr, column[r].clone()));
        elements.push(
            Object::try_tuple(entries).map_err(|e| WireError::Malformed {
                detail: format!("invalid columnar row: {e}"),
            })?,
        );
    }
    Ok(Object::set(elements))
}

/// One decoded chain layer: its roots and metadata (each layer carries
/// its own) and its payload checksum (the next layer's base identity).
struct Layer {
    roots: Vec<Object>,
    meta: Vec<u8>,
    checksum: u64,
}

/// Reads one layer from `r`, appending its nodes to the combined table
/// `nodes`. `base_checksum` is the payload checksum of the previously
/// restored layer (`None` when this is the first); a version-2 layer's
/// declared base link is verified against it and `nodes.len()`.
fn read_layer<R: Read>(
    r: R,
    nodes: &mut Vec<Object>,
    base_checksum: Option<u64>,
    first: bool,
) -> Result<Layer, WireError> {
    let start = std::time::Instant::now();
    let out = read_layer_inner(r, nodes, base_checksum, first);
    wire_instruments()
        .decode_ns
        .record_duration(start.elapsed());
    out
}

fn read_layer_inner<R: Read>(
    mut r: R,
    nodes: &mut Vec<Object>,
    base_checksum: Option<u64>,
    first: bool,
) -> Result<Layer, WireError> {
    let header = read_header(&mut r)?;
    let payload = read_payload(&mut r, &header)?;
    let mut c = Cursor::new(&payload);

    if header.version == FORMAT_VERSION_DELTA {
        let declared_checksum =
            u64::from_le_bytes(c.take(8, "base link")?.try_into().expect("8 bytes"));
        let declared_nodes =
            u64::from_le_bytes(c.take(8, "base link")?.try_into().expect("8 bytes"));
        match base_checksum {
            None => {
                return Err(WireError::BaseRequired {
                    checksum: declared_checksum,
                    nodes: declared_nodes,
                })
            }
            Some(found) => {
                if declared_checksum != found || declared_nodes != nodes.len() as u64 {
                    return Err(WireError::BaseMismatch {
                        expected_checksum: declared_checksum,
                        expected_nodes: declared_nodes,
                        found_checksum: found,
                        found_nodes: nodes.len() as u64,
                    });
                }
            }
        }
    } else if !first {
        return Err(WireError::Malformed {
            detail: "full snapshot in the middle of a chain — only the first layer may \
                     be full"
                .into(),
        });
    }

    // Symbol table (layer-local: every layer carries its own spellings).
    let symbol_count = c.varint("symbol table")?;
    let mut names: Vec<String> = Vec::new();
    for _ in 0..symbol_count {
        names.push(c.str("symbol table")?.to_owned());
    }
    let mut symbols = Symbols {
        attrs: vec![None; names.len()],
        names,
    };

    // Node table, bottom-up: every child reference resolves into the
    // combined prefix decoded so far (base layers included), and every
    // decoded node goes straight through the interning constructors.
    let mut columnar_records = 0u64;
    for _ in 0..header.node_count {
        let tag = c.u8("node table")?;
        let node = match tag {
            NODE_TUPLE => {
                let len = c.varint("node table")?;
                let mut entries: Vec<(Attr, Object)> = Vec::new();
                for _ in 0..len {
                    let attr = symbols.attr(c.varint("node table")?, "")?;
                    let value = get_value(&mut c, "node table", nodes, &symbols.names, false)?;
                    entries.push((attr, value));
                }
                Object::try_tuple(entries).map_err(|e| WireError::Malformed {
                    detail: format!("invalid tuple node: {e}"),
                })?
            }
            NODE_SET => {
                let len = c.varint("node table")?;
                let mut elements: Vec<Object> = Vec::new();
                for _ in 0..len {
                    elements.push(get_value(
                        &mut c,
                        "node table",
                        nodes,
                        &symbols.names,
                        false,
                    )?);
                }
                Object::set(elements)
            }
            NODE_FLAT_SET if header.version == FORMAT_VERSION_COLUMNAR => {
                columnar_records += 1;
                decode_flat_set(&mut c, nodes, &mut symbols)?
            }
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    context: "node table",
                })
            }
        };
        nodes.push(node);
    }
    if columnar_records != u64::from(header.columnar) {
        return Err(WireError::Malformed {
            detail: format!(
                "header declares {} columnar records, the node table contains {columnar_records}",
                header.columnar
            ),
        });
    }

    // Roots and metadata.
    let mut roots: Vec<Object> = Vec::new();
    for _ in 0..header.root_count {
        roots.push(get_value(
            &mut c,
            "root table",
            nodes,
            &symbols.names,
            true,
        )?);
    }
    let meta_len = c.varint("metadata")?;
    let meta_len = usize::try_from(meta_len).map_err(|_| WireError::Malformed {
        detail: format!("metadata length {meta_len} exceeds addressable memory"),
    })?;
    let meta = c.take(meta_len, "metadata")?.to_vec();
    if c.remaining() != 0 {
        return Err(WireError::Malformed {
            detail: format!(
                "{} trailing bytes after the snapshot payload",
                c.remaining()
            ),
        });
    }
    Ok(Layer {
        roots,
        meta,
        checksum: header.checksum,
    })
}

/// Reads one **full** snapshot from `r`, re-interning every node
/// bottom-up through the canonicalizing constructors — see the module
/// docs for why the result is structurally identical to what was written
/// and deduplicates against nodes already live in this process's store.
///
/// A version-2 delta is rejected with [`WireError::BaseRequired`]: deltas
/// only restore as a chain ([`read_chain`] / [`load_chain`]).
pub fn read_snapshot<R: Read>(r: R) -> Result<Snapshot, WireError> {
    let mut nodes = Vec::new();
    let layer = read_layer(r, &mut nodes, None, true)?;
    Ok(Snapshot {
        roots: layer.roots,
        meta: layer.meta,
    })
}

/// Restores a snapshot **chain** — one full layer followed by zero or
/// more deltas, oldest first — returning the last layer's snapshot (its
/// roots and metadata) and a [`SnapshotHandle`] for writing further
/// deltas against the restored state.
///
/// Every link is verified: a delta whose declared base identity (payload
/// checksum + cumulative node count) does not match the layers restored
/// before it fails with [`WireError::BaseMismatch`]; chains deeper than
/// [`MAX_CHAIN_DEPTH`] fail with [`WireError::ChainTooDeep`]; an empty
/// chain is [`WireError::Malformed`].
pub fn read_chain<R, I>(layers: I) -> Result<(Snapshot, SnapshotHandle), WireError>
where
    R: Read,
    I: IntoIterator<Item = R>,
{
    read_chain_observed(layers, |_, _| {})
}

/// A [`SnapshotHandle`] over the combined `nodes` restored so far, whose
/// newest layer hashed to `checksum`.
fn handle_from(nodes: &[Object], checksum: u64) -> SnapshotHandle {
    let mut locals: FxHashMap<NodeId, u64> = FxHashMap::default();
    locals.reserve(nodes.len());
    for (ix, node) in nodes.iter().enumerate() {
        locals.insert(
            node.node_id().expect("decoded nodes are composites"),
            ix as u64,
        );
    }
    SnapshotHandle {
        checksum,
        count: nodes.len() as u64,
        locals,
    }
}

/// [`read_chain`] with a per-layer observer: after each layer decodes,
/// `observe(depth, state)` sees the chain-so-far (depth is 1-based).
/// This is how [`compact_chain`] captures the first layer's handle
/// without restoring the base twice.
fn read_chain_observed<R, I>(
    layers: I,
    mut observe: impl FnMut(usize, &ChainState<'_>),
) -> Result<(Snapshot, SnapshotHandle), WireError>
where
    R: Read,
    I: IntoIterator<Item = R>,
{
    let mut nodes: Vec<Object> = Vec::new();
    let mut prev_checksum: Option<u64> = None;
    let mut last: Option<(Vec<Object>, Vec<u8>)> = None;
    let mut depth = 0usize;
    for r in layers {
        depth += 1;
        if depth > MAX_CHAIN_DEPTH {
            return Err(WireError::ChainTooDeep { depth });
        }
        let layer = read_layer(r, &mut nodes, prev_checksum, depth == 1)?;
        prev_checksum = Some(layer.checksum);
        observe(
            depth,
            &ChainState {
                nodes: &nodes,
                checksum: layer.checksum,
            },
        );
        last = Some((layer.roots, layer.meta));
    }
    let Some((roots, meta)) = last else {
        return Err(WireError::Malformed {
            detail: "empty snapshot chain".into(),
        });
    };
    let handle = handle_from(&nodes, prev_checksum.expect("at least one layer was read"));
    Ok((Snapshot { roots, meta }, handle))
}

/// What [`read_chain_observed`] shows its observer after each layer.
struct ChainState<'a> {
    nodes: &'a [Object],
    checksum: u64,
}

impl ChainState<'_> {
    fn handle(&self) -> SnapshotHandle {
        handle_from(self.nodes, self.checksum)
    }
}

/// [`read_snapshot`] from a file.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<Snapshot, WireError> {
    let file = std::fs::File::open(path.as_ref())?;
    read_snapshot(std::io::BufReader::new(file))
}

/// [`read_chain`] from files: `layers[0]` is the full base, the rest are
/// deltas in write order.
pub fn load_chain<P: AsRef<Path>>(layers: &[P]) -> Result<(Snapshot, SnapshotHandle), WireError> {
    if layers.len() > MAX_CHAIN_DEPTH {
        return Err(WireError::ChainTooDeep {
            depth: layers.len(),
        });
    }
    let mut files = Vec::with_capacity(layers.len());
    for p in layers {
        files.push(std::io::BufReader::new(std::fs::File::open(p.as_ref())?));
    }
    read_chain(files)
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// How [`compact_chain`] rewrites a chain into fewer layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compaction {
    /// Rewrite the whole chain as a single **full** (version 1) snapshot:
    /// self-contained, readable by any `co-wire` since version 1.
    Full,
    /// Merge every delta into a single **delta** (version 2) against the
    /// chain's first layer: the base file is reused as-is, and the new
    /// layer carries the union of all the deltas' new nodes. Useful when
    /// the base is large, replicated, or immutable.
    Rebase,
}

/// Rewrites the chain `layers` (oldest first) as `out`: one full
/// snapshot, or one delta against the chain's first layer, per `mode`.
/// The last layer's roots and metadata are preserved; intermediate
/// layers' are compacted away. Returns the write stats and a handle onto
/// the compacted snapshot (for `Rebase`, the first layer plus the merged
/// delta).
pub fn compact_chain<P: AsRef<Path>>(
    layers: &[P],
    out: impl AsRef<Path>,
    mode: Compaction,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    match mode {
        Compaction::Full => {
            let (snap, _) = load_chain(layers)?;
            save_to_path_handle(out, &snap.roots, &snap.meta)
        }
        Compaction::Rebase => {
            // One pass: restore the whole chain, capturing the first
            // layer's handle on the way through (the rebase target).
            if layers.len() > MAX_CHAIN_DEPTH {
                return Err(WireError::ChainTooDeep {
                    depth: layers.len(),
                });
            }
            let mut files = Vec::with_capacity(layers.len());
            for p in layers {
                files.push(std::io::BufReader::new(std::fs::File::open(p.as_ref())?));
            }
            let mut base: Option<SnapshotHandle> = None;
            let (snap, _) = read_chain_observed(files, |depth, state| {
                if depth == 1 {
                    base = Some(state.handle());
                }
            })?;
            let base = base.expect("a non-empty chain has a first layer");
            save_delta_to_path(out, &snap.roots, &snap.meta, &base)
        }
    }
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// What [`describe`] reports about a snapshot file, without restoring
/// (re-interning) any of it: the header fields, checksum-verified, plus
/// the base link for deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version ([`FORMAT_VERSION`], [`FORMAT_VERSION_DELTA`], or
    /// [`FORMAT_VERSION_COLUMNAR`]).
    pub version: u32,
    /// Node records in this file (for a delta: new nodes only).
    pub nodes: u64,
    /// Root values in this file.
    pub roots: u64,
    /// Payload bytes (everything after the 48-byte header).
    pub payload_bytes: u64,
    /// Total file bytes, header included.
    pub total_bytes: u64,
    /// FNV-1a-64 payload checksum — verified against the payload before
    /// this struct is returned, and the identity the next delta in a
    /// chain names this snapshot by.
    pub checksum: u64,
    /// The base this delta was written against; `None` for full
    /// snapshots.
    pub base: Option<BaseId>,
    /// Columnar records in the node table (nonzero exactly when
    /// `version` is [`FORMAT_VERSION_COLUMNAR`]).
    pub columnar_sets: u64,
}

impl SnapshotInfo {
    /// Whether this is a delta (version 2) snapshot needing a base chain.
    pub fn is_delta(&self) -> bool {
        self.base.is_some()
    }
}

impl std::fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.base {
            None => write!(
                f,
                "co-wire v{} {}snapshot: {} nodes, {} roots, {} payload bytes \
                 ({} total), checksum {:#018x}",
                self.version,
                if self.version == FORMAT_VERSION_COLUMNAR {
                    "columnar full "
                } else {
                    "full "
                },
                self.nodes,
                self.roots,
                self.payload_bytes,
                self.total_bytes,
                self.checksum
            ),
            Some(base) => write!(
                f,
                "co-wire v{} delta snapshot: {} new nodes over base {:#018x} ({} nodes), \
                 {} roots, {} payload bytes ({} total), checksum {:#018x}",
                self.version,
                self.nodes,
                base.checksum,
                base.nodes,
                self.roots,
                self.payload_bytes,
                self.total_bytes,
                self.checksum
            ),
        }
    }
}

/// Inspects the snapshot at `path` without restoring it: validates the
/// header, verifies the payload checksum, and reports the format
/// version, counts, sizes, and (for deltas) the base identity. Unknown
/// versions are [`WireError::UnsupportedVersion`] — the same hard error
/// every reader entry point gives, never a best-effort parse.
pub fn describe(path: impl AsRef<Path>) -> Result<SnapshotInfo, WireError> {
    let file = std::fs::File::open(path.as_ref())?;
    describe_snapshot(std::io::BufReader::new(file))
}

/// [`describe`] over any reader.
pub fn describe_snapshot<R: Read>(mut r: R) -> Result<SnapshotInfo, WireError> {
    let header = read_header(&mut r)?;
    let payload = read_payload(&mut r, &header)?;
    let base = if header.version == FORMAT_VERSION_DELTA {
        let mut c = Cursor::new(&payload);
        let checksum = u64::from_le_bytes(c.take(8, "base link")?.try_into().expect("8 bytes"));
        let nodes = u64::from_le_bytes(c.take(8, "base link")?.try_into().expect("8 bytes"));
        Some(BaseId { checksum, nodes })
    } else {
        None
    };
    Ok(SnapshotInfo {
        version: header.version,
        nodes: header.node_count,
        roots: header.root_count,
        payload_bytes: payload.len() as u64,
        total_bytes: (HEADER_LEN + payload.len()) as u64,
        checksum: header.checksum,
        base,
        columnar_sets: u64::from(header.columnar),
    })
}

// ---------------------------------------------------------------------------
// Naive-encoding accounting (the sharing-ratio denominator)
// ---------------------------------------------------------------------------

/// The size in bytes this snapshot's *values* would occupy in a naive
/// tree encoding — same tags, varints, and inline strings, but **no node
/// table and no symbol table**: every shared subtree re-encoded at every
/// occurrence, every attribute name spelled out inline. The ratio
/// `naive_encoding_len / WriteStats::payload_bytes` is the sharing factor
/// a snapshot gains from hash-consing (≥ 1; equal only for structures
/// with no sharing at all).
///
/// Computed arithmetically over the DAG — a bottom-up pass over the
/// distinct nodes (no call-stack recursion, so graph depth is bounded by
/// heap, like the writer's own walk) — so it is O(nodes) even when the
/// naive expansion itself would be exponential; saturates at `u64::MAX`
/// rather than overflowing.
pub fn naive_encoding_len(roots: &[Object]) -> u64 {
    fn varint_len(v: u64) -> u64 {
        (64 - u64::from(v.leading_zeros())).max(1).div_ceil(7)
    }
    /// The inline length of a non-composite value; `None` for composites
    /// (their lengths come from the memo).
    fn leaf_len(o: &Object) -> Option<u64> {
        match o {
            Object::Bottom | Object::Top | Object::Atom(Atom::Bool(_)) => Some(1),
            Object::Atom(Atom::Int(v)) => Some(1 + varint_len(((v << 1) ^ (v >> 63)) as u64)),
            Object::Atom(Atom::Float(_)) => Some(9),
            Object::Atom(Atom::Str(s)) => Some(1 + varint_len(s.len() as u64) + s.len() as u64),
            Object::Tuple(_) | Object::Set(_) => None,
        }
    }
    // Postorder: every composite child's length is memoized before its
    // parent is visited.
    let mut memo: FxHashMap<co_object::NodeId, u64> = FxHashMap::default();
    visit_unique_postorder(roots.iter(), |o| {
        let id = o.node_id().expect("the walk yields composites");
        let mut n: u64 = 1 + varint_len(o.children().len() as u64);
        if let Object::Tuple(t) = o {
            for (attr, _) in t.entries() {
                let name = attr.name();
                n = n.saturating_add(varint_len(name.len() as u64) + name.len() as u64);
            }
        }
        for child in o.children() {
            let len =
                leaf_len(child).unwrap_or_else(|| memo[&child.node_id().expect("composite child")]);
            n = n.saturating_add(len);
        }
        memo.insert(id, n);
    });
    roots.iter().fold(0u64, |acc, r| {
        let len = leaf_len(r).unwrap_or_else(|| memo[&r.node_id().expect("composite root")]);
        acc.saturating_add(len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::obj;

    #[test]
    fn empty_snapshot_roundtrips() {
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &[], b"hello").unwrap();
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.version, FORMAT_VERSION);
        assert_eq!(stats.total_bytes as usize, bytes.len());
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert!(snap.roots.is_empty());
        assert_eq!(snap.meta, b"hello");
    }

    #[test]
    fn atoms_and_extremes_roundtrip_as_roots() {
        let roots = vec![
            Object::Bottom,
            Object::Top,
            obj!(42),
            obj!(-7),
            Object::float(2.5),
            Object::bool(true),
            Object::str("héllo wörld"),
        ];
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &roots, b"").unwrap();
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
    }

    #[test]
    fn nested_objects_roundtrip_to_the_same_nodes() {
        let o = obj!([family: {
            [name: abraham, children: {[name: isaac]}],
            [name: isaac, children: {[name: esau], [name: jacob]}]
        }]);
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, std::slice::from_ref(&o), b"").unwrap();
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, vec![o.clone()]);
        // Same process: re-interning must find the identical node.
        assert_eq!(snap.roots[0].node_id(), o.node_id());
    }

    #[test]
    fn shared_subtrees_are_encoded_once() {
        // 2^20 tree expansion, 21 distinct nodes.
        let mut level = obj!({ base });
        for _ in 0..20 {
            level = Object::tuple([("l", level.clone()), ("r", level)]);
        }
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &[level.clone()], b"").unwrap();
        assert_eq!(stats.nodes, 21);
        assert!(
            bytes.len() < 1024,
            "a 21-node DAG must stay tiny on disk, got {}",
            bytes.len()
        );
        let naive = naive_encoding_len(&[level.clone()]);
        assert!(
            naive / stats.payload_bytes > 1000,
            "sharing ratio must be enormous here: naive {naive} vs {}",
            stats.payload_bytes
        );
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots[0], level);
    }

    #[test]
    fn repeated_roots_share_the_table() {
        let a = obj!({1, 2, 3});
        let roots = vec![a.clone(), a.clone(), a];
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &roots, b"").unwrap();
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.roots, 3);
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
        assert_eq!(snap.roots[0].node_id(), snap.roots[2].node_id());
    }

    #[test]
    fn save_and_load_paths() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("co_wire_test_{}.cow", std::process::id()));
        let o = obj!([r: {[a: 1], [a: 2]}]);
        save_to_path(&path, std::slice::from_ref(&o), b"meta").unwrap();
        let snap = load_from_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(snap.roots, vec![o]);
        assert_eq!(snap.meta, b"meta");
    }

    /// A flat relation of `rows` same-schema atom tuples — large enough
    /// (≥ the default `columnar_min_rows()` of 64) to qualify for a
    /// columnar arena without touching the process-global threshold.
    fn flat_relation(rows: i64) -> Object {
        Object::set((0..rows).map(|i| {
            Object::tuple([
                ("id", Object::int(i)),
                ("name", Object::str(format!("n{}", i % 7))),
                ("score", Object::float(i as f64 / 2.0)),
            ])
        }))
    }

    #[test]
    fn columnar_snapshot_roundtrips_to_identical_nodes() {
        let rel = flat_relation(100);
        let wrapper = Object::tuple([("r", rel.clone())]);
        let mut bytes = Vec::new();
        let (stats, handle) =
            write_snapshot_columnar(&mut bytes, std::slice::from_ref(&wrapper), b"m").unwrap();
        assert_eq!(stats.version, FORMAT_VERSION_COLUMNAR);
        assert_eq!(stats.columnar_sets, 1);
        // The 100 row tuples were pruned: only the set and the wrapper remain.
        assert_eq!(stats.nodes, 2);
        assert_eq!(handle.nodes(), 2);
        assert!(stats.to_string().contains("1 columnar relations"));

        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, vec![wrapper.clone()]);
        assert_eq!(snap.roots[0].node_id(), wrapper.node_id());
        assert_eq!(snap.meta, b"m");

        let info = describe_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(info.version, FORMAT_VERSION_COLUMNAR);
        assert!(!info.is_delta());
        assert!(info.to_string().contains("columnar full snapshot"));
    }

    #[test]
    fn columnar_encoding_is_smaller_than_row_encoding() {
        let rel = flat_relation(500);
        let mut row_bytes = Vec::new();
        write_snapshot(&mut row_bytes, std::slice::from_ref(&rel), b"").unwrap();
        let mut col_bytes = Vec::new();
        let (stats, _) =
            write_snapshot_columnar(&mut col_bytes, std::slice::from_ref(&rel), b"").unwrap();
        assert_eq!(stats.columnar_sets, 1);
        assert!(
            col_bytes.len() * 10 < row_bytes.len() * 8,
            "columnar must be well under 80% of the row encoding: {} vs {}",
            col_bytes.len(),
            row_bytes.len()
        );
    }

    #[test]
    fn columnar_write_without_flat_relations_is_plain_version_1() {
        let o = obj!([family: {[name: a, children: {[name: b]}]}, n: 3]);
        let mut plain = Vec::new();
        write_snapshot(&mut plain, std::slice::from_ref(&o), b"x").unwrap();
        let mut columnar = Vec::new();
        let (stats, _) =
            write_snapshot_columnar(&mut columnar, std::slice::from_ref(&o), b"x").unwrap();
        assert_eq!(stats.version, FORMAT_VERSION);
        assert_eq!(stats.columnar_sets, 0);
        assert_eq!(plain, columnar, "the fallback must be byte-identical");
    }

    #[test]
    fn externally_referenced_rows_keep_their_node_records() {
        let rel = flat_relation(80);
        let pinned_row = rel.as_set().unwrap().elements()[3].clone();
        // The row is both inside the columnar relation and a root — it
        // must stay in the node table for the root reference to resolve.
        let roots = vec![rel.clone(), pinned_row.clone()];
        let mut bytes = Vec::new();
        let (stats, _) = write_snapshot_columnar(&mut bytes, &roots, b"").unwrap();
        assert_eq!(stats.columnar_sets, 1);
        assert_eq!(stats.nodes, 2, "the relation plus the one pinned row");
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
        assert_eq!(snap.roots[1].node_id(), pinned_row.node_id());
    }

    #[test]
    fn deltas_against_a_columnar_base_roundtrip() {
        let v1 = flat_relation(70);
        let mut base = Vec::new();
        let (_, handle) =
            write_snapshot_columnar(&mut base, std::slice::from_ref(&v1), b"").unwrap();
        let v2 = co_object::lattice::union(&v1, &Object::set([Object::int(999)]));
        let mut delta = Vec::new();
        let (stats, _) =
            write_delta_snapshot(&mut delta, std::slice::from_ref(&v2), b"", &handle).unwrap();
        assert_eq!(stats.version, FORMAT_VERSION_DELTA);
        let (snap, _) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
        assert_eq!(snap.roots, vec![v2.clone()]);
        assert_eq!(snap.roots[0].node_id(), v2.node_id());
    }

    #[test]
    fn version_3_without_columnar_records_is_rejected() {
        // A plain v1 snapshot whose version byte was flipped to 3 must
        // fail typed, not silently reparse.
        let o = obj!({1, 2, 3});
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, std::slice::from_ref(&o), b"").unwrap();
        bytes[8] = 3;
        match read_snapshot(bytes.as_slice()) {
            Err(WireError::Malformed { detail }) => {
                assert!(detail.contains("zero columnar records"), "got: {detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The flip fails at the header, so `describe` refuses it too.
        assert!(matches!(
            describe_snapshot(bytes.as_slice()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn columnar_tag_outside_version_3_is_a_bad_tag() {
        let rel = flat_relation(90);
        let mut bytes = Vec::new();
        write_snapshot_columnar(&mut bytes, std::slice::from_ref(&rel), b"").unwrap();
        // A version flip alone dies at the header: v1 demands a zeroed
        // reserved field, which v3 uses for the columnar count.
        let mut flipped = bytes.clone();
        flipped[8] = 1;
        assert!(matches!(
            read_snapshot(flipped.as_slice()),
            Err(WireError::Malformed { .. })
        ));
        // Forging a fully self-consistent v1 header over the same
        // payload still fails: the columnar tag is not a v1 node tag.
        let mut forged = bytes;
        forged[8] = 1;
        forged[12..16].fill(0);
        match read_snapshot(forged.as_slice()) {
            Err(WireError::BadTag { tag, .. }) => assert_eq!(tag, NODE_FLAT_SET),
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn naive_len_counts_every_occurrence() {
        let leaf = obj!({1, 2});
        let shared = Object::tuple([("l", leaf.clone()), ("r", leaf.clone())]);
        let single = Object::tuple([("l", leaf.clone())]);
        let n_leaf = naive_encoding_len(&[leaf]);
        let n_single = naive_encoding_len(&[single]);
        let n_shared = naive_encoding_len(&[shared]);
        // The shared tuple pays for the leaf twice.
        assert!(n_shared > n_single);
        assert!(n_shared >= 2 * n_leaf);
    }

    #[test]
    fn delta_encodes_only_new_nodes_and_chains_restore() {
        let v1 = obj!([db: {[k: 1, v: {a, b}], [k: 2, v: {a, b}]}]);
        let mut base = Vec::new();
        let (base_stats, handle) =
            write_snapshot_handle(&mut base, std::slice::from_ref(&v1), b"m1").unwrap();
        assert_eq!(base_stats.version, FORMAT_VERSION);
        assert_eq!(handle.nodes(), base_stats.nodes);

        // One new fact: the new tuple, the grown relation set, the grown
        // wrapper — everything else rides on base references.
        let v2 = obj!([db: {[k: 1, v: {a, b}], [k: 2, v: {a, b}], [k: 3, v: {a, b}]}]);
        let mut delta = Vec::new();
        let (delta_stats, handle2) =
            write_delta_snapshot(&mut delta, std::slice::from_ref(&v2), b"m2", &handle).unwrap();
        assert_eq!(delta_stats.version, FORMAT_VERSION_DELTA);
        assert_eq!(delta_stats.nodes, 3, "tuple + set + wrapper are new");
        assert!(delta_stats.base_nodes_reused >= 1);
        assert_eq!(handle2.nodes(), handle.nodes() + 3);

        let (snap, restored_handle) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
        assert_eq!(snap.roots, vec![v2.clone()]);
        assert_eq!(snap.meta, b"m2");
        assert_eq!(snap.roots[0].node_id(), v2.node_id());
        assert_eq!(restored_handle.nodes(), handle2.nodes());
        assert_eq!(restored_handle.checksum(), handle2.checksum());
    }

    #[test]
    fn a_chain_of_three_deltas_restores_the_final_state() {
        let mut layers: Vec<Vec<u8>> = Vec::new();
        let mut db = obj!({ 0 });
        let mut bytes = Vec::new();
        let (_, mut handle) =
            write_snapshot_handle(&mut bytes, std::slice::from_ref(&db), b"0").unwrap();
        layers.push(bytes);
        for i in 1..=3i64 {
            db = co_object::lattice::union(&db, &Object::set([Object::int(i)]));
            let mut bytes = Vec::new();
            let (_, next) = write_delta_snapshot(
                &mut bytes,
                std::slice::from_ref(&db),
                i.to_string().as_bytes(),
                &handle,
            )
            .unwrap();
            handle = next;
            layers.push(bytes);
        }
        let (snap, _) = read_chain(layers.iter().map(|l| l.as_slice())).unwrap();
        assert_eq!(snap.roots, vec![obj!({0, 1, 2, 3})]);
        assert_eq!(snap.meta, b"3");
    }

    #[test]
    fn a_delta_alone_demands_its_base() {
        let v1 = obj!({ 1 });
        let mut base = Vec::new();
        let (_, handle) = write_snapshot_handle(&mut base, &[v1], b"").unwrap();
        let mut delta = Vec::new();
        write_delta_snapshot(&mut delta, &[obj!({1, 2})], b"", &handle).unwrap();
        let err = read_snapshot(delta.as_slice()).unwrap_err();
        assert!(
            matches!(err, WireError::BaseRequired { checksum, nodes }
                if checksum == handle.checksum() && nodes == handle.nodes()),
            "got: {err}"
        );
    }

    #[test]
    fn the_wrong_base_is_rejected() {
        let mut base_a = Vec::new();
        let (_, handle_a) = write_snapshot_handle(&mut base_a, &[obj!({ 1 })], b"").unwrap();
        let mut base_b = Vec::new();
        write_snapshot_handle(&mut base_b, &[obj!({ 2 })], b"").unwrap();
        let mut delta = Vec::new();
        write_delta_snapshot(&mut delta, &[obj!({1, 9})], b"", &handle_a).unwrap();
        let err = read_chain([base_b.as_slice(), delta.as_slice()]).unwrap_err();
        assert!(matches!(err, WireError::BaseMismatch { .. }), "got: {err}");
    }

    #[test]
    fn compaction_full_and_rebase() {
        let dir = std::env::temp_dir().join(format!("co_wire_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = obj!([db: {1, 2}]);
        let (_, h1) =
            save_to_path_handle(dir.join("0.cow"), std::slice::from_ref(&v1), b"a").unwrap();
        let v2 = obj!([db: {1, 2, 3}]);
        let (_, h2) =
            save_delta_to_path(dir.join("1.cow"), std::slice::from_ref(&v2), b"b", &h1).unwrap();
        let v3 = obj!([db: {1, 2, 3, 4}]);
        save_delta_to_path(dir.join("2.cow"), std::slice::from_ref(&v3), b"c", &h2).unwrap();
        let chain = [dir.join("0.cow"), dir.join("1.cow"), dir.join("2.cow")];

        // Full: a single self-contained v1 file.
        compact_chain(&chain, dir.join("full.cow"), Compaction::Full).unwrap();
        let info = describe(dir.join("full.cow")).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        let snap = load_from_path(dir.join("full.cow")).unwrap();
        assert_eq!(snap.roots, vec![v3.clone()]);
        assert_eq!(snap.meta, b"c");

        // Rebase: base + one merged delta replaces base + two deltas.
        compact_chain(&chain, dir.join("merged.cow"), Compaction::Rebase).unwrap();
        let info = describe(dir.join("merged.cow")).unwrap();
        assert_eq!(info.version, FORMAT_VERSION_DELTA);
        assert_eq!(info.base.unwrap().checksum, h1.checksum());
        let (snap, _) = load_chain(&[dir.join("0.cow"), dir.join("merged.cow")]).unwrap();
        assert_eq!(snap.roots, vec![v3]);
        assert_eq!(snap.meta, b"c");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chains_deeper_than_the_cap_are_rejected() {
        // A real chain one layer past the cap: the reader must refuse the
        // excess layer (after restoring the permitted prefix), typed.
        let mut layers: Vec<Vec<u8>> = Vec::new();
        let mut bytes = Vec::new();
        let (_, mut handle) = write_snapshot_handle(&mut bytes, &[obj!({ 0 })], b"").unwrap();
        layers.push(bytes);
        for i in 1..=MAX_CHAIN_DEPTH as i64 {
            let db = Object::set((0..=i).map(Object::int));
            let mut bytes = Vec::new();
            let (_, next) =
                write_delta_snapshot(&mut bytes, std::slice::from_ref(&db), b"", &handle).unwrap();
            handle = next;
            layers.push(bytes);
        }
        assert_eq!(layers.len(), MAX_CHAIN_DEPTH + 1);
        let err = read_chain(layers.iter().map(|l| l.as_slice())).unwrap_err();
        assert!(
            matches!(err, WireError::ChainTooDeep { depth } if depth == MAX_CHAIN_DEPTH + 1),
            "got: {err}"
        );
        // The cap itself is fine.
        let (snap, _) = read_chain(layers[..MAX_CHAIN_DEPTH].iter().map(|l| l.as_slice())).unwrap();
        assert_eq!(snap.roots.len(), 1);
        // An empty chain is typed, not a panic.
        let err = read_chain(std::iter::empty::<&[u8]>()).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "got: {err}");
    }

    #[test]
    fn temp_names_are_recognized() {
        assert!(is_snapshot_temp("db.cow.tmp.1234.7"));
        assert!(is_snapshot_temp("/var/data/db.cow.tmp.99.0"));
        assert!(!is_snapshot_temp("db.cow"));
        assert!(!is_snapshot_temp("db.cow.tmp"));
        assert!(!is_snapshot_temp("db.cow.tmp.12ab.7"));
        assert!(!is_snapshot_temp("db.cow.tmp.1.2.3"));
    }
}
