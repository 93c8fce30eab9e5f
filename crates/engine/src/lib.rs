//! # co-engine — fixpoint evaluation for the complex-object calculus
//!
//! Production-grade evaluation of rule programs (paper Section 4) on top of
//! the reference semantics in `co-calculus`:
//!
//! - [`Engine`] — configurable fixpoint runner (builder API);
//! - [`Strategy::SemiNaive`] — delta-driven evaluation: after each
//!   iteration the engine diffs the old and new database states into a
//!   [`delta::Delta`] tree and re-derives only substitutions whose
//!   derivations touch changed regions (see `dmatch`);
//! - [`index`] — attribute-value indexes over large set objects, plugged
//!   into the matcher through the `Prefilter` hook and reused across
//!   iterations via `Arc` identity;
//! - [`Guard`] — iteration/size/depth/time limits that turn the paper's
//!   Example 4.6 divergence into a clean [`EngineError::Diverged`];
//! - [`EvalStats`] / [`Trace`] — observability;
//! - [`Engine::checkpoint`] / [`Engine::restore`] — durable snapshots of
//!   the database + program + configuration on the `co-wire` format: a
//!   restored engine (same process or a fresh one) reaches the same
//!   fixpoint with a bit-identical trace.
//!
//! The engine is differentially tested against the reference
//! `co_calculus::closure` on randomized programs
//! (`tests/engine_equivalence.rs` at the workspace root).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod checkpoint;
pub mod delta;
pub mod dmatch;
mod engine;
mod error;
mod guard;
pub mod index;
pub mod shared;
mod stats;
mod trace;

pub use checkpoint::{CheckpointError, CheckpointHandle, Restored};
pub use co_calculus::{ClosureMode, MatchPolicy};
pub use engine::{Engine, GcCadence, Parallelism, RunOutcome, Strategy};
pub use error::EngineError;
pub use guard::Guard;
pub use shared::{AdvanceOutcome, PinnedDb, SharedEngine};
pub use stats::EvalStats;
pub use trace::{Trace, TraceEvent};
