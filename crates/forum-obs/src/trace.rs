//! Request-scoped tracing: per-query cost accounting and a bounded trace
//! store with a slow-query log.
//!
//! Aggregate histograms ([`crate::Registry`]) answer "how is the system
//! doing"; a [`Trace`] answers "why was *this* request slow". Each trace
//! carries a propagated or generated id, a list of [`TraceSpan`]s — one
//! per phase of the paper's query path (Algorithm 1 per-cluster scans,
//! Eq. 8 scoring, Algorithm 2 owner aggregation) — and per-phase
//! [`TraceCosts`]: clusters routed, postings scanned, distance
//! evaluations, candidates pruned, and heap displacements.
//!
//! Finished traces land in a [`TraceStore`]: a bounded ring with
//! deterministic reservoir-style sampling (keep one in `sample_every`)
//! plus *always-keep-if-slow* — a request whose total latency crosses the
//! configured threshold is retained unconditionally and additionally
//! recorded in a separate slow-query ring, optionally with its EXPLAIN
//! trace attached. The hot path touches no lock: a query builds its trace
//! on the stack and the store's mutex is taken once per *finished* trace,
//! never per span.
//!
//! Cost counters are accumulated out-of-band (plain integer adds in the
//! scan scratch), so tracing never changes the order of any floating-point
//! operation: rankings are bit-identical with tracing on or off, which the
//! serve tests assert over a real socket.

use crate::json::Json;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default capacity of the main trace ring.
pub const DEFAULT_CAPACITY: usize = 256;
/// Default capacity of the slow-query ring.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;
/// The header a client uses to propagate its own trace id.
pub const TRACE_HEADER: &str = "x-intentmatch-trace";

/// Per-phase cost counters, recorded alongside wall-clock time so a slow
/// span can be attributed to *work* (postings walked, candidates pruned)
/// rather than guessed at from latency alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCosts {
    /// Intention clusters consulted (Algorithm 2 routing fan-out).
    pub clusters_routed: u64,
    /// Postings (or delta term lookups / TA sorted accesses) walked by
    /// Eq. 8 scoring.
    pub postings_scanned: u64,
    /// Centroid distance evaluations (ingest-side segment assignment).
    pub distance_evals: u64,
    /// Candidates dropped before scoring finished: zero-IDF posting lists,
    /// zero-denominator units, tombstoned owners.
    pub candidates_pruned: u64,
    /// Bounded-heap evictions in top-n selection (how contested the
    /// result list was).
    pub heap_displacements: u64,
    /// Postings skipped by impact-ordered early termination: their score
    /// upper bound proved they could not displace the top-n floor.
    pub early_exits: u64,
}

impl TraceCosts {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &TraceCosts) {
        self.clusters_routed += other.clusters_routed;
        self.postings_scanned += other.postings_scanned;
        self.distance_evals += other.distance_evals;
        self.candidates_pruned += other.candidates_pruned;
        self.heap_displacements += other.heap_displacements;
        self.early_exits += other.early_exits;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == TraceCosts::default()
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("clusters_routed", self.clusters_routed)
            .with("postings_scanned", self.postings_scanned)
            .with("distance_evals", self.distance_evals)
            .with("candidates_pruned", self.candidates_pruned)
            .with("heap_displacements", self.heap_displacements)
            .with("early_exits", self.early_exits)
    }
}

/// One timed phase of a trace, with its cost counters.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Phase name, e.g. `engine/algo2` or `shard/gather`.
    pub name: String,
    /// Offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Phase duration in nanoseconds.
    pub dur_ns: u64,
    /// Work the phase performed.
    pub costs: TraceCosts,
}

impl TraceSpan {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("name", self.name.as_str())
            .with("start_ns", self.start_ns)
            .with("dur_ns", self.dur_ns);
        if !self.costs.is_zero() {
            obj = obj.with("costs", self.costs.to_json());
        }
        obj
    }
}

/// Keeps propagated ids bounded and JSON/log-safe: up to 64 ASCII
/// graphic characters, everything else replaced by `_`.
fn sanitize_id(raw: &str) -> String {
    raw.chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_graphic() && c != '"' && c != '\\' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One request's trace, built on the caller's stack and handed to a
/// [`TraceStore`] when finished.
#[derive(Debug, Clone)]
pub struct Trace {
    id: String,
    kind: String,
    unix_ms: u64,
    started: Instant,
    spans: Vec<TraceSpan>,
    detail: Json,
    explain: Option<Json>,
    total_ns: u64,
    slow: bool,
}

impl Trace {
    /// Starts a trace of `kind` (`"query"`, `"ingest"`, …). A propagated
    /// id (e.g. from the `X-Intentmatch-Trace` header) is sanitized and
    /// used as-is; otherwise an id is generated from a process-wide atomic
    /// counter.
    pub fn begin(kind: &str, propagated_id: Option<&str>) -> Trace {
        let id = match propagated_id.map(sanitize_id).filter(|s| !s.is_empty()) {
            Some(id) => id,
            None => format!("t-{:08x}", NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)),
        };
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        Trace {
            id,
            kind: kind.to_string(),
            unix_ms,
            started: Instant::now(),
            spans: Vec::new(),
            detail: Json::Null,
            explain: None,
            total_ns: 0,
            slow: false,
        }
    }

    /// The trace id (propagated or generated).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The trace kind given to [`Trace::begin`].
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The recorded spans, in push order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Whether the finished trace crossed the store's slow threshold (set
    /// by [`TraceStore::record`]).
    pub fn is_slow(&self) -> bool {
        self.slow
    }

    /// Records a span that started at `start` (an `Instant` taken by the
    /// caller just before the phase) and ends now.
    pub fn push_span(&mut self, name: &str, start: Instant, costs: TraceCosts) {
        let start_ns = start
            .saturating_duration_since(self.started)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.push_span_ns(name, start_ns, dur_ns, costs);
    }

    /// Records a span from precomputed offsets — for phases whose duration
    /// is accumulated across a loop (e.g. the live path's per-cluster base
    /// and delta scans).
    pub fn push_span_ns(&mut self, name: &str, start_ns: u64, dur_ns: u64, costs: TraceCosts) {
        self.spans.push(TraceSpan {
            name: name.to_string(),
            start_ns,
            dur_ns,
            costs,
        });
    }

    /// Attaches request detail (document id, k, epoch, …) spliced into the
    /// trace's JSON object.
    pub fn set_detail(&mut self, detail: Json) {
        self.detail = detail;
    }

    /// Attaches an EXPLAIN trace (the slow-query log stores it alongside
    /// the cost counters).
    pub fn attach_explain(&mut self, explain: Json) {
        self.explain = Some(explain);
    }

    /// Total costs summed over all spans.
    pub fn costs(&self) -> TraceCosts {
        let mut total = TraceCosts::default();
        for s in &self.spans {
            total.merge(&s.costs);
        }
        total
    }

    /// Ends the trace, fixing its total duration. Idempotent (the first
    /// call wins). Returns the total duration.
    pub fn finish(&mut self) -> Duration {
        if self.total_ns == 0 {
            self.total_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        }
        Duration::from_nanos(self.total_ns)
    }

    /// Total duration in nanoseconds (0 until [`Trace::finish`]).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The trace as one JSON object: id, kind, timestamps, total costs,
    /// spans, the request detail spliced in, and the EXPLAIN trace when
    /// attached.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("id", self.id.as_str())
            .with("kind", self.kind.as_str())
            .with("ts_ms", self.unix_ms)
            .with("total_ns", self.total_ns)
            .with("slow", self.slow)
            .with("costs", self.costs().to_json())
            .with(
                "spans",
                Json::Arr(self.spans.iter().map(TraceSpan::to_json).collect()),
            );
        if let Json::Obj(fields) = &self.detail {
            for (k, v) in fields {
                obj = obj.with(k, v.clone());
            }
        }
        if let Some(explain) = &self.explain {
            obj = obj.with("explain", explain.clone());
        }
        obj
    }
}

struct Inner {
    ring: VecDeque<Arc<Trace>>,
    slow: VecDeque<Arc<Trace>>,
    sink: Option<File>,
}

/// A bounded, lock-cheap store of finished traces with deterministic
/// sampling, an always-kept slow-query ring, and an optional JSONL sink.
pub struct TraceStore {
    enabled: AtomicBool,
    capacity: usize,
    slow_capacity: usize,
    /// Keep one in `sample_every` non-slow traces (1 = keep all).
    sample_every: AtomicU64,
    /// Traces at least this long are always kept and land in the slow
    /// ring. `u64::MAX` disables the slow log.
    slow_threshold_ns: AtomicU64,
    seen: AtomicU64,
    kept: AtomicU64,
    slow_seen: AtomicU64,
    inner: Mutex<Inner>,
}

impl TraceStore {
    /// An enabled store retaining `capacity` traces and `slow_capacity`
    /// slow traces.
    pub fn new(capacity: usize, slow_capacity: usize) -> TraceStore {
        TraceStore {
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
            slow_capacity: slow_capacity.max(1),
            sample_every: AtomicU64::new(1),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
            seen: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            slow_seen: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                slow: VecDeque::new(),
                sink: None,
            }),
        }
    }

    /// The process-wide trace store. Starts disabled, mirroring
    /// [`crate::Registry::global`]: an operator surface (the serve CLI, a
    /// test) turns it on.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let store = TraceStore::new(DEFAULT_CAPACITY, DEFAULT_SLOW_CAPACITY);
            store.set_enabled(false);
            store
        })
    }

    /// Turns trace recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether traces are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Keeps one in `n` non-slow traces (clamped to ≥ 1). Slow traces are
    /// always kept regardless.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// Sets the slow-query latency threshold.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Whether a total duration of `ns` crosses the slow threshold.
    pub fn is_slow(&self, ns: u64) -> bool {
        ns >= self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Total finished traces offered to the store since process start.
    pub fn total_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Total traces retained (sampled in or slow).
    pub fn total_kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Total traces that crossed the slow threshold.
    pub fn total_slow(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a finished trace. Marks it slow against the threshold,
    /// applies the sampling decision (slow traces bypass it), writes kept
    /// traces to the sink, and returns the retained trace (`None` when
    /// sampled out or the store is disabled).
    pub fn record(&self, mut trace: Trace) -> Option<Arc<Trace>> {
        if !self.is_enabled() {
            return None;
        }
        if trace.total_ns == 0 {
            trace.finish();
        }
        let slow = self.is_slow(trace.total_ns);
        trace.slow = slow;
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if slow {
            self.slow_seen.fetch_add(1, Ordering::Relaxed);
        }
        let sample = self.sample_every.load(Ordering::Relaxed).max(1);
        if !slow && !n.is_multiple_of(sample) {
            return None;
        }
        self.kept.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(trace);
        let mut inner = self.lock();
        if let Some(sink) = inner.sink.as_mut() {
            // Sink failures never take the serving path down.
            let _ = writeln!(sink, "{}", trace.to_json());
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(trace.clone());
        if slow {
            if inner.slow.len() == self.slow_capacity {
                inner.slow.pop_front();
            }
            inner.slow.push_back(trace.clone());
        }
        Some(trace)
    }

    /// The last `n` retained traces, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Arc<Trace>> {
        let inner = self.lock();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// The last `n` slow traces (the slow-query log), oldest first.
    pub fn slow_tail(&self, n: usize) -> Vec<Arc<Trace>> {
        let inner = self.lock();
        let skip = inner.slow.len().saturating_sub(n);
        inner.slow.iter().skip(skip).cloned().collect()
    }

    /// Finds a retained trace by id, newest match first.
    pub fn lookup(&self, id: &str) -> Option<Arc<Trace>> {
        let inner = self.lock();
        inner
            .ring
            .iter()
            .rev()
            .chain(inner.slow.iter().rev())
            .find(|t| t.id() == id)
            .cloned()
    }

    /// Streams every *kept* trace to `path` (append mode) as JSONL.
    pub fn set_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.lock().sink = Some(file);
        Ok(())
    }

    /// Stops streaming to the on-disk sink.
    pub fn clear_sink(&self) {
        self.lock().sink = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(kind: &str, id: Option<&str>) -> Trace {
        let mut t = Trace::begin(kind, id);
        t.finish();
        t
    }

    #[test]
    fn generated_ids_are_unique_and_propagated_ids_survive() {
        let a = Trace::begin("query", None);
        let b = Trace::begin("query", None);
        assert_ne!(a.id(), b.id());
        let c = Trace::begin("query", Some("client-abc_123"));
        assert_eq!(c.id(), "client-abc_123");
        // Hostile ids are sanitized and bounded.
        let d = Trace::begin("query", Some("a\"b\\c\nd"));
        assert_eq!(d.id(), "a_b_c_d");
        let e = Trace::begin("query", Some(&"x".repeat(200)));
        assert_eq!(e.id().len(), 64);
        // Empty after sanitization → generated.
        let f = Trace::begin("query", Some(""));
        assert!(f.id().starts_with("t-"));
    }

    #[test]
    fn spans_accumulate_costs_and_render_json() {
        let mut t = Trace::begin("query", Some("t1"));
        let start = Instant::now();
        t.push_span(
            "engine/algo2",
            start,
            TraceCosts {
                clusters_routed: 3,
                postings_scanned: 120,
                candidates_pruned: 7,
                heap_displacements: 2,
                ..TraceCosts::default()
            },
        );
        t.push_span_ns(
            "live/delta_scan",
            10,
            500,
            TraceCosts {
                postings_scanned: 30,
                ..TraceCosts::default()
            },
        );
        t.set_detail(Json::obj().with("doc", 17u64).with("k", 5u64));
        t.finish();
        let total = t.costs();
        assert_eq!(total.clusters_routed, 3);
        assert_eq!(total.postings_scanned, 150);
        assert_eq!(total.candidates_pruned, 7);
        assert_eq!(total.heap_displacements, 2);

        let v = Json::parse(&t.to_json().to_string()).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("t1"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("query"));
        assert_eq!(v.get("doc").unwrap().as_u64(), Some(17));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("engine/algo2"));
        assert_eq!(
            spans[0]
                .get("costs")
                .unwrap()
                .get("postings_scanned")
                .unwrap()
                .as_u64(),
            Some(120)
        );
        assert!(v.get("total_ns").unwrap().as_u64().is_some());
    }

    #[test]
    fn ring_is_bounded_and_lookup_finds_by_id() {
        let store = TraceStore::new(4, 2);
        for i in 0..10 {
            store.record(finished("query", Some(&format!("id-{i}"))));
        }
        let tail = store.tail(100);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].id(), "id-6");
        assert_eq!(tail[3].id(), "id-9");
        assert!(store.lookup("id-9").is_some());
        assert!(store.lookup("id-2").is_none(), "fell off the ring");
        assert_eq!(store.total_seen(), 10);
        assert_eq!(store.total_kept(), 10);
        // tail(n) clamps: asking for more than retained returns what's there.
        assert_eq!(store.tail(2).len(), 2);
        assert_eq!(store.tail(2)[0].id(), "id-8");
    }

    #[test]
    fn sampling_keeps_one_in_n_but_slow_is_always_kept() {
        let store = TraceStore::new(64, 8);
        store.set_sample_every(4);
        store.set_slow_threshold(Duration::from_secs(3600));
        for _ in 0..16 {
            store.record(finished("query", None));
        }
        assert_eq!(store.total_seen(), 16);
        assert_eq!(store.total_kept(), 4, "1 in 4 sampled");
        assert_eq!(store.total_slow(), 0);

        // A trace over the threshold bypasses sampling and lands in the
        // slow ring.
        store.set_slow_threshold(Duration::from_nanos(1));
        let mut slow = Trace::begin("query", Some("slow-one"));
        std::thread::sleep(Duration::from_millis(1));
        slow.finish();
        store.record(slow);
        assert_eq!(store.total_slow(), 1);
        let log = store.slow_tail(10);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].id(), "slow-one");
        assert!(log[0].is_slow());
        // The slow trace is also visible in the main ring for /traces/<id>.
        assert!(store.lookup("slow-one").is_some());
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = TraceStore::new(8, 2);
        store.set_enabled(false);
        assert!(store.record(finished("query", None)).is_none());
        assert_eq!(store.total_seen(), 0);
        assert!(store.tail(10).is_empty());
    }

    #[test]
    fn sink_receives_kept_traces_as_jsonl() {
        let dir = std::env::temp_dir().join(format!("forum-obs-traces-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        std::fs::remove_file(&path).ok();
        let store = TraceStore::new(4, 2);
        store.set_sink(&path).unwrap();
        store.set_sample_every(2);
        for i in 0..6 {
            store.record(finished("query", Some(&format!("s-{i}"))));
        }
        store.clear_sink();
        store.record(finished("query", Some("not-sunk")));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "only kept traces are sunk");
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str(), Some("query"));
            assert!(v.get("costs").is_some());
        }
        std::fs::remove_file(&path).ok();
    }
}
