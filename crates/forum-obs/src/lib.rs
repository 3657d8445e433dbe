//! Observability for the intention-based retrieval system.
//!
//! Zero-dependency metrics, tracing, and export layer threaded through the
//! offline pipeline (parse → CM annotation → border selection → feature
//! extraction → DBSCAN → refinement → indexing), the online query path
//! (per-cluster Algorithm 1 scans, Algorithm 2 combination), and the live
//! ingestion subsystem (`forum-ingest` records the `ingest/*` family:
//! add/update/delete counters, WAL append and compaction latencies, the
//! serving-epoch gauge). Three pieces:
//!
//! * [`Registry`] — thread-safe named counters, gauges, and log₂-bucketed
//!   latency histograms, all backed by atomics. A disabled registry costs
//!   one relaxed atomic load per operation, so instrumentation can stay in
//!   the hot paths permanently.
//! * [`Span`] — hierarchical scoped timers. Spans nest per thread
//!   (`offline` → `offline/segmentation`), always return their measured
//!   [`std::time::Duration`] (so build timings stay available even with
//!   recording off), and record a latency histogram under their path when
//!   the registry is enabled.
//! * [`export`] + [`json`] — deterministic snapshots rendered as JSON-lines
//!   (one metric per line, machine-readable) or a human report, with a
//!   hand-rolled JSON value type and parser so nothing external is needed.
//!
//! Live telemetry, layered on top (all still zero-dependency):
//!
//! * [`serve`] — an HTTP/1.1 server on `std::net::TcpListener` with the
//!   standard operational endpoints: `GET /metrics` (Prometheus text
//!   exposition via [`prometheus`]), `GET /healthz` + `GET /readyz`
//!   (liveness / readiness from a pluggable [`serve::HealthSource`]),
//!   `GET /snapshot` (the JSON-lines export), `GET /events?tail=N`.
//! * [`events`] — a bounded structured event log (WAL recoveries,
//!   compactions, epoch swaps) with an optional JSONL disk sink.
//! * [`rates`] — windowed rates (qps, ingest ops/s, WAL bytes/s) computed
//!   by diffing retained snapshots.
//! * Interpolated percentiles — [`HistogramSnapshot::quantile_est`]
//!   places p50/p90/p99 *inside* their log₂ buckets by log-linear
//!   interpolation, surfaced in the JSON export and the human report.

//! * [`trace`] — request-scoped traces: a propagated or generated id, one
//!   [`trace::TraceSpan`] per query phase with per-phase cost counters
//!   (clusters routed, postings scanned, distance evals, candidates
//!   pruned, heap displacements), retained in a sampled bounded
//!   [`TraceStore`] ring with an always-kept slow-query log, served at
//!   `GET /traces`, `GET /traces/<id>`, and `GET /slowlog`.

//!
//! Retained history and alerting, the newest layer:
//!
//! * [`timeseries`] — bounded ring-buffer series (counter rates, gauge
//!   samples, interval histogram quantiles) downsampled fine→coarse, fed
//!   by a background [`timeseries::Sampler`] thread.
//! * [`slo`] — declarative objectives with SRE-style fast/slow
//!   multi-window burn-rate alerting, an `ok → warning → firing` state
//!   machine with hysteresis, and an [`slo::AlertSink`] subscription
//!   hook.
//! * [`dashboard`] — a self-contained server-rendered HTML dashboard
//!   with inline SVG sparklines (no external assets).

pub mod dashboard;
pub mod events;
pub mod export;
pub mod json;
pub mod pool;
pub mod prometheus;
pub mod rates;
pub mod registry;
pub mod serve;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use events::{Event, EventLog};
pub use pool::{AdmissionQueue, Admitted, PoolServer};
pub use rates::RateWindow;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use slo::{AlertSink, Objective, ObjectiveKind, SloEvaluator, SloState, Transition};
pub use span::Span;
pub use timeseries::{Sample, Sampler, TimeSeries, Window};
pub use trace::{Trace, TraceCosts, TraceSpan, TraceStore};
