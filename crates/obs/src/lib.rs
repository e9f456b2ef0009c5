//! In-house observability layer for the esvm workspace.
//!
//! The paper's objective (Eq. 7) is a sum of three physically distinct
//! terms — run, idle and transition energy — and the allocation layers
//! (MIEC candidate scanning, local-search refinement, migration
//! consolidation, chaos repair) make thousands of micro-decisions per
//! run. This crate makes them visible without perturbing the hot paths
//! through one trait, [`Tracer`], and the destinations behind it:
//!
//! * a [`MetricsRegistry`] holding named counters, gauges and
//!   log2-bucketed histograms (with p50/p95/p99 quantiles) — on its own
//!   it is the metrics-only probe;
//! * structured [`Event`]s, streamed by a [`JsonlWriter`] as
//!   machine-readable JSON Lines;
//! * a [`CollectingTracer`] for decision provenance — RAII hierarchical
//!   spans ([`trace::SpanGuard`]), per-placement [`ExplainRecord`]s and
//!   per-span latency histograms, exportable as query-friendly JSON
//!   Lines or Chrome `trace_event` JSON;
//! * [`Telemetry`], the composite probe that sends metrics, events and
//!   spans to whichever of the three it holds.
//!
//! Each instrumented algorithm has one generic entry point taking a
//! `&T` with `T: Tracer`, and guards every counter tally, event and
//! explain-record construction behind the associated constant
//! [`Tracer::ENABLED`]. Monomorphisation then compiles the
//! [`NoopTracer`] instantiation down to the uninstrumented code — the
//! disabled path has literally zero observability instructions, which
//! the `allocators` and `local_search` benches pin.
//!
//! The crate is dependency-free (the workspace builds offline) and
//! deliberately single-threaded: the registry, the writer and the
//! tracer use interior mutability via `RefCell` so call sites can share
//! them immutably, and are therefore not `Sync`. Experiment code
//! instruments one representative seeded run per configuration rather
//! than the multi-threaded Monte-Carlo sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod names;
pub mod trace;

pub use events::{encode_json, DiscardSink, Event, FieldValue, JsonlWriter};
pub use metrics::{HistogramSummary, Log2Histogram, MetricValue, MetricsRegistry};
pub use trace::{
    CollectingTracer, DecisionKind, ExplainEntry, ExplainRecord, NoopTracer, SpanGuard, SpanId,
    SpanRecord, Telemetry, Tracer,
};
