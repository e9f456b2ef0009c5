//! # esvm-par
//!
//! An in-house, zero-external-dependency scoped thread pool with
//! deterministic results, matching the vendored-deps philosophy of the
//! rest of the workspace. The allocators themselves are single-threaded;
//! this crate fans independent experiment seeds out (the Monte-Carlo
//! runner, the capacity planner and the end-to-end benchmark).
//!
//! The design centre is the workspace's determinism contract: **every
//! parallel entry point must produce bit-identical results to the
//! sequential code it replaces, for every thread count.** The pieces:
//!
//! * [`Parallelism`] — the thread-count configuration every parallel
//!   entry point takes. The default (`threads = 1`) *is* the sequential
//!   code path.
//! * [`scope`] — a generation-gated pool: one [`std::thread::scope`]
//!   per call, workers persist across *generations* (batches of chunked
//!   work) so per-item dispatch costs a condvar round-trip, not a
//!   thread spawn. The worker body is fixed at scope creation;
//!   per-generation work is passed as data, which keeps the whole
//!   crate inside `#![forbid(unsafe_code)]`.
//! * [`par_map`] — chunked map over a slice, results in input order.
//!
//! Work distribution inside a generation is dynamic (atomic chunk
//! claiming, so an expensive chunk cannot stall the generation), but
//! *results* never depend on which thread claimed which chunk:
//! [`par_map`] writes each result into its input-index slot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ops;
mod pool;

pub use config::Parallelism;
pub use ops::par_map;
pub use pool::{scope, Conductor};
