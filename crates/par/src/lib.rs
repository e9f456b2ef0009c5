//! # esvm-par
//!
//! An in-house, zero-external-dependency scoped thread pool with
//! deterministic reductions, matching the vendored-deps philosophy of
//! the rest of the workspace.
//!
//! The design centre is the workspace's determinism contract: **every
//! parallel entry point must produce bit-identical results to the
//! sequential code it replaces, for every thread count.** The pieces:
//!
//! * [`Parallelism`] — the thread-count configuration every parallel
//!   entry point takes. The default (`threads = 1`) *is* the sequential
//!   code path; `ESVM_THREADS` configures it process-wide.
//! * [`scope`] — a generation-gated pool: one [`std::thread::scope`]
//!   per call, workers persist across *generations* (batches of chunked
//!   work) so per-item dispatch costs a condvar round-trip, not a
//!   thread spawn. The worker body is fixed at scope creation;
//!   per-generation work is passed as data (the callers use an
//!   [`std::sync::RwLock`]-guarded job struct), which keeps the whole
//!   crate inside `#![forbid(unsafe_code)]`.
//! * [`par_map`] — chunked map over a slice, results in input order.
//! * [`par_min_by`] — index-ordered argmin reduction: chunk-local
//!   minima are merged in ascending chunk order with the same strict
//!   `<` the sequential scans use, so the winner (and its lowest-index
//!   tie-breaking — the paper's Eq. 7 rule) is bit-for-bit the
//!   sequential answer.
//!
//! Work distribution inside a generation is dynamic (atomic chunk
//! claiming, so an imbalanced shard cannot stall the generation), but
//! *results* never depend on which thread claimed which chunk: every
//! reduction happens on the conductor thread in chunk order.
//! [`Conductor::stats`] reports generation/chunk/steal/imbalance
//! counters for the `esvm-obs` metrics the instrumented callers export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ops;
mod pool;
mod shard;

pub use config::Parallelism;
pub use ops::{par_map, par_min_by};
pub use pool::{scope, Conductor, PoolStats};
pub use shard::ShardRouting;
