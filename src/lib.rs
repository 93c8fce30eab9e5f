//! # complex-objects
//!
//! A complete Rust implementation of *“A Calculus for Complex Objects”*
//! (François Bancilhon & Setrag Khoshafian, PODS 1986 / JCSS 38(2), 1989).
//!
//! The paper defines a data model in which **complex objects** are built
//! freely from atoms, tuples, and sets (no schema, no first-normal-form
//! constraint), shows that reduced objects ordered by the **sub-object**
//! relationship form a **lattice**, and uses that lattice to define a
//! **calculus** — an extension of Horn clauses in which a rule body is a
//! pattern whose instantiations are matched *below* the database object and
//! whose head instantiations are joined with the lattice union.
//!
//! # Workspace layout
//!
//! This facade crate re-exports the entire workspace (one crate per layer,
//! strictly acyclic; see `ARCHITECTURE.md` for the full picture):
//!
//! - [`object`] (`crates/object`, lib `co_object`) — the value model:
//!   atoms, ⊤/⊥, tuples, sets; canonical normalization; the sub-object
//!   order; union (lub) and intersection (glb). Composites are **interned
//!   in a hash-consed store** ([`object::store`]): canonically equal values
//!   share one allocation, so `==` is a pointer comparison, hashes are
//!   cached words, every node has a stable [`object::NodeId`] and
//!   precomputed [`object::Meta`] (depth, size, contains-set/flat flags),
//!   and the binary lattice operations are memoized by node-id pair.
//! - [`parser`] (`crates/parser`, `co_parser`) — the paper's
//!   Prolog-flavoured concrete syntax for objects, formulae, rules, and
//!   programs.
//! - [`calculus`] (`crates/core`, `co_calculus`) — well-formed formulae,
//!   substitutions, the matcher (maximal bindings via lattice glbs),
//!   interpretation, rules, and closure semantics (the paper's §4).
//! - [`engine`] (`crates/engine`, `co_engine`) — naive and semi-naive
//!   fixpoint evaluation with guards, statistics, deltas, and
//!   attribute-value indexes keyed by interned set `NodeId` (index reuse
//!   survives re-derivation; no pointer-aliasing hazards).
//! - [`relational`] (`crates/relational`, `co_relational`) — a flat
//!   relational-algebra baseline plus NF² operators, used for differential
//!   testing and benchmarks; its encoder emits interned nodes, so repeated
//!   encodings deduplicate structurally.
//! - [`schema`] (`crates/schema`, `co_schema`) — the §5 future-work item: a
//!   type system for complex objects.
//! - [`wire`] (`crates/wire`, `co_wire`) — hash-cons-aware binary
//!   snapshots: a topologically-ordered node table encodes each distinct
//!   interned node exactly once, so on-disk size tracks the DAG, not the
//!   tree expansion; the reader re-interns bottom-up and deduplicates
//!   against the live store. Version-2 **delta snapshots** encode only
//!   the nodes a base snapshot lacks and restore as verified chains
//!   (`wire::read_chain`, `wire::compact_chain`, `wire::describe`).
//!   `Engine::checkpoint` / `Engine::restore` /
//!   `Engine::restore_chain` build on it, auto-selecting deltas while a
//!   checkpoint chain is live.
//! - [`server`] (`crates/server`, `co_server`) — the multi-client serving
//!   layer: a reactor + worker-pool TCP front-end over one
//!   [`engine::SharedEngine`], where each session reads against a pinned
//!   snapshot (bit-identical to a single-threaded run quiesced at that
//!   version) while writers advance the head, and results ship back as
//!   checksummed co-wire frames.
//! - [`obs`] (`crates/obs`, `co_obs`) — the dependency-light
//!   observability core every layer above records into: atomic
//!   counters/gauges, log-bucketed mergeable histograms (p50/p99 from
//!   lock-free recording), a named global registry snapshottable over
//!   the wire (`server::Request::Metrics`), and a JSON-lines span
//!   emitter gated by `CO_TRACE`.
//!
//! Two more pieces are not re-exported: `crates/bench` (`co_bench`,
//! workload builders, the `tracecheck` binary, and the criterion benches) and
//! `vendor/` (offline in-tree shims for external crates — the build needs
//! no registry access).
//!
//! ## Quickstart
//!
//! ```
//! use complex_objects::prelude::*;
//!
//! // Build the database of paper Example 4.5 and compute the descendants
//! // of abraham with the two-rule program from the paper.
//! let db = parse_object(
//!     "[family: {[name: abraham, children: {[name: isaac]}],
//!                [name: isaac,   children: {[name: esau], [name: jacob]}]}]",
//! )
//! .unwrap();
//! let program = parse_program(
//!     "[doa: {abraham}].
//!      [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
//! )
//! .unwrap();
//! let result = Engine::new(program).run(&db).unwrap();
//! let doa = result.database.at_path(&["doa"]).unwrap();
//! assert_eq!(doa, &parse_object("{abraham, isaac, esau, jacob}").unwrap());
//! ```

pub use co_calculus as calculus;
pub use co_engine as engine;
pub use co_object as object;
pub use co_obs as obs;
pub use co_parser as parser;
pub use co_relational as relational;
pub use co_schema as schema;
pub use co_server as server;
pub use co_wire as wire;

/// Convenient single-import surface for applications and examples.
pub mod prelude {
    pub use co_calculus::{
        apply_program, apply_rule, interpret, Formula, MatchPolicy, Program, Rule, Substitution,
    };
    pub use co_engine::{
        ClosureMode, Engine, EvalStats, Guard, Parallelism, SharedEngine, Strategy,
    };
    pub use co_object::{obj, Atom, Attr, Object};
    pub use co_parser::{parse_formula, parse_object, parse_program, parse_rule};
    pub use co_relational::{Database, Relation};
    pub use co_schema::{infer_type, Type};
}
