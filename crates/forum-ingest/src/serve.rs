//! The serving application: queries + telemetry over one HTTP port, over
//! either backend.
//!
//! [`ServeApp`] runs over a [`Backend`] — the live engine (an
//! [`EpochHandle`] plus its WAL) or a read-only mapped snapshot (an
//! [`intentmatch::StoreView`]) — and owns the application routes, layered
//! over [`forum_obs::serve::TelemetryRoutes`]:
//!
//! * `POST /query` (also `GET`) — related posts for a collection-resident
//!   document: `?doc=N&k=K`, or a JSON body `{"doc": N, "k": K}`. Every
//!   request passes one guard chain before any work: `k` above the
//!   configured cap is a `400` (`k = 0` answers `[]`), `?threshold=T`
//!   must be finite and drops results scoring below `T` after the merge,
//!   and `?board=B` must name a board of the boards file; it threads a
//!   document filter into the postings scans themselves (filtered
//!   documents neither surface nor consume top-n slots). Then:
//!   - on the live backend, scatter/gather across the shard set: the
//!     query's consulted clusters are partitioned by
//!     [`forum_shard::ShardPlan`], each shard runs the per-cluster step
//!     [`LiveEpoch::scan_cluster_filtered`], and results merge through
//!     the engine's single Algorithm 2 fold in consultation order — so
//!     the ranking is bit-identical for any shard count;
//!   - on the mapped backend, [`StoreView::top_k_filtered`], faulting in
//!     exactly the sections the query consults;
//!   - with `?explain=1`, the EXPLAIN trace ([`intentmatch::explain`]),
//!     whose ranking is bit-identical to the offline engine. It narrates
//!     the unfiltered compacted snapshot, so it refuses `threshold` and
//!     `board` (`400`), the mapped backend (`400`) and a live store with
//!     pending WAL writes (`409`).
//! * `GET /readyz` — per-shard readiness: `ready` when the backend and
//!   every shard are up, `degraded` while only some shards serve (status
//!   still `200` — degraded serves), `unready` (`503`) when the backend is
//!   down or no shard is ready. The mapped backend is one shard.
//! * `GET /alerts` — the SLO objectives with burn rates, alert states,
//!   and last transition times ([`SloEvaluator::to_json`]).
//! * `GET /series?name=N&window=fine|coarse` — retained samples of one
//!   derived time-series (see [`ServeApp::start_sampler`]).
//! * `GET /dashboard` — a self-contained server-rendered HTML dashboard
//!   (inline SVG sparklines, no external assets), with one status row per
//!   shard.
//! * `POST /shutdown` — stops the accept loop cleanly. Drain semantics
//!   come from the server: [`forum_shard::PoolServer`] closes its
//!   admission queue on stop and serves everything already admitted.
//! * everything else — the standard telemetry endpoints (`/metrics`,
//!   `/healthz`, `/snapshot`, `/events`, `/traces`, `/slowlog`).
//!
//! `/metrics` scrapes also feed a [`forum_obs::RateWindow`], so the
//! exposition ends with derived gauges — `serve_qps`, `ingest_ops_per_sec`,
//! `ingest_wal_bytes_per_sec` — computed by diffing the retained
//! snapshots, then the drift, trace and SLO gauges and the per-shard
//! labeled families (`serve_shard_scans`, `serve_shard_postings_scanned`,
//! `serve_shard_scan_ns`, `serve_shard_ready`).

use crate::live::{EpochHandle, LiveEpoch};
use forum_index::{DocFilter, ScanCosts, ScoreScratch};
use forum_obs::dashboard::{self, Panel, StatusRow};
use forum_obs::json::Json;
use forum_obs::serve::{HealthReport, HealthSource, Request, Response, Stopper, TelemetryRoutes};
use forum_obs::timeseries::{unix_millis, ExtraGauges, OnSample};
use forum_obs::trace::TRACE_HEADER;
use forum_obs::{
    prometheus, Objective, RateWindow, Registry, Sampler, SloEvaluator, SloState, TimeSeries,
    Trace, TraceStore, Window,
};
use forum_shard::{scatter_gather, ClusterHits, ShardPlan, ShardSet, ShardStats};
use intentmatch::engine::scan_to_trace_costs;
use intentmatch::explain;
use intentmatch::pipeline::{default_list_len, query_cluster_groups_of, QueryScratch};
use intentmatch::StoreView;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long `/metrics` scrapes are retained for rate computation.
const RATE_RETENTION: Duration = Duration::from_secs(300);

/// Synthetic drift series fed to the sampler each tick (not registry
/// metrics — they are derived from live-engine state).
pub const DRIFT_DELTA_SERIES: &str = "drift/delta_base_ratio";
/// Synthetic noise-rate series name (see [`DRIFT_DELTA_SERIES`]).
pub const DRIFT_NOISE_SERIES: &str = "drift/noise_rate";

/// Default availability target: at most 1 request in 1000 shed.
pub const DEFAULT_AVAILABILITY_TARGET: f64 = 0.999;
/// Default ceiling on pending-delta docs as a fraction of the base.
pub const DEFAULT_DELTA_RATIO_CEILING: f64 = 0.5;
/// Default ceiling on the fraction of ingested segments dropped as noise.
pub const DEFAULT_NOISE_RATE_CEILING: f64 = 0.5;
/// Latency objective ceiling when no admission deadline is configured
/// (matches `serve`'s default `--deadline-ms`).
const DEFAULT_LATENCY_DEADLINE: Duration = Duration::from_secs(2);
/// Default cap on the per-request `k` (the production guard against a
/// single request demanding an unbounded merge).
pub const DEFAULT_MAX_K: usize = 100;

/// The serving tier's standard objectives, p99 latency bounded by
/// `deadline` (the admission deadline; defaults to 2 s):
///
/// * `availability` — shed responses (`serve/shed_total`) as a fraction
///   of all requests must stay within a `1 - DEFAULT_AVAILABILITY_TARGET`
///   error budget.
/// * `latency_p99` — the sampled `serve/online_query_ns/p99` must stay
///   under the admission deadline.
/// * `drift_delta_ratio` / `drift_noise_rate` — the model-drift gauges
///   must stay under their ceilings (the re-clustering trigger signals).
pub fn default_objectives(deadline: Option<Duration>) -> Vec<Objective> {
    objectives_with(
        DEFAULT_AVAILABILITY_TARGET,
        deadline.unwrap_or(DEFAULT_LATENCY_DEADLINE),
        DEFAULT_DELTA_RATIO_CEILING,
        DEFAULT_NOISE_RATE_CEILING,
    )
}

fn objectives_with(
    availability: f64,
    latency: Duration,
    delta_ratio: f64,
    noise_rate: f64,
) -> Vec<Objective> {
    vec![
        Objective::error_ratio(
            "availability",
            vec!["serve/shed_total".into()],
            // Sheds from the pool and connection cap never reach the app's
            // dispatch, so they are not in `serve/http_requests`.
            vec!["serve/http_requests".into(), "serve/shed_total".into()],
            availability,
        ),
        Objective::upper_bound(
            "latency_p99",
            "serve/online_query_ns/p99",
            latency.as_nanos() as f64,
        ),
        Objective::upper_bound("drift_delta_ratio", DRIFT_DELTA_SERIES, delta_ratio),
        Objective::upper_bound("drift_noise_rate", DRIFT_NOISE_SERIES, noise_rate),
    ]
}

/// Parses `--slo` overrides (comma-separated or repeated `key=value`
/// items) into the standard objective set. Keys: `availability` (ratio in
/// (0, 1)), `latency_ms`, `delta_ratio`, `noise_rate`.
pub fn parse_slo_overrides(specs: &[String], deadline: Duration) -> Result<Vec<Objective>, String> {
    let mut availability = DEFAULT_AVAILABILITY_TARGET;
    let mut latency = deadline;
    let mut delta_ratio = DEFAULT_DELTA_RATIO_CEILING;
    let mut noise_rate = DEFAULT_NOISE_RATE_CEILING;
    for spec in specs {
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("bad --slo item {item:?}: expected key=value"))?;
            let v: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad --slo value in {item:?}: not a number"))?;
            match key.trim() {
                "availability" => {
                    if !(0.0..1.0).contains(&v) {
                        return Err(format!("availability must be in [0, 1), got {v}"));
                    }
                    availability = v;
                }
                "latency_ms" => {
                    if v <= 0.0 {
                        return Err(format!("latency_ms must be positive, got {v}"));
                    }
                    latency = Duration::from_secs_f64(v / 1000.0);
                }
                "delta_ratio" => {
                    if v <= 0.0 {
                        return Err(format!("delta_ratio must be positive, got {v}"));
                    }
                    delta_ratio = v;
                }
                "noise_rate" => {
                    if v <= 0.0 {
                        return Err(format!("noise_rate must be positive, got {v}"));
                    }
                    noise_rate = v;
                }
                other => {
                    return Err(format!(
                        "unknown --slo key {other:?} \
                         (availability, latency_ms, delta_ratio, noise_rate)"
                    ))
                }
            }
        }
    }
    Ok(objectives_with(
        availability,
        latency,
        delta_ratio,
        noise_rate,
    ))
}

/// Parses a boards file: one `doc_id board_name` pair per line, `#`
/// comments and blank lines ignored.
pub fn parse_boards(text: &str) -> Result<HashMap<u32, String>, String> {
    let mut map = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(board), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `doc_id board`", lineno + 1));
        };
        let id: u32 = id
            .parse()
            .map_err(|_| format!("line {}: bad doc id {id:?}", lineno + 1))?;
        map.insert(id, board.to_string());
    }
    Ok(map)
}

/// What a [`ServeApp`] answers from.
pub enum Backend {
    /// The live engine: the serving epoch handle and the WAL beside its
    /// snapshot (readiness requires the WAL to be writable).
    Live {
        /// The handle writers publish epochs through.
        handle: Arc<EpochHandle>,
        /// The store's WAL path.
        wal_path: PathBuf,
    },
    /// A read-only v2 snapshot through a zero-copy view: startup touches
    /// only the header, directory and cluster metadata, and each query
    /// faults in exactly the sections it consults.
    Mapped(Arc<StoreView>),
}

/// The state one request answers from: the live epoch current when it
/// arrived (held for the whole request), or the mapped view.
enum Pinned<'a> {
    Live(Arc<LiveEpoch>),
    Mapped(&'a StoreView),
}

impl Backend {
    fn pin(&self) -> Pinned<'_> {
        match self {
            Backend::Live { handle, .. } => Pinned::Live(handle.current()),
            Backend::Mapped(view) => Pinned::Mapped(view),
        }
    }

    /// The model-drift values: pending delta docs over the compacted base
    /// (always 0 for the read-only mapped snapshot), and the fraction of
    /// ingested segments the assign_eps gate dropped as noise.
    fn drift_values(&self) -> (f64, f64) {
        let ratio = match self.pin() {
            Pinned::Live(epoch) => epoch.delta.docs.len() as f64 / epoch.base.len().max(1) as f64,
            Pinned::Mapped(_) => 0.0,
        };
        let reg = Registry::global();
        let segments_in = reg.counter("drift/segments_in").value();
        let noise = reg.counter("ingest/noise_segments").value();
        let noise_rate = if segments_in == 0 {
            0.0
        } else {
            noise as f64 / segments_in as f64
        };
        (ratio, noise_rate)
    }
}

impl Pinned<'_> {
    fn num_docs(&self) -> usize {
        match self {
            Pinned::Live(epoch) => epoch.num_docs(),
            Pinned::Mapped(view) => view.num_docs(),
        }
    }

    /// The compacted live epoch — the only state EXPLAIN can narrate.
    fn compacted(&self) -> Option<&LiveEpoch> {
        match self {
            Pinned::Live(epoch) if !epoch.has_pending() => Some(epoch),
            _ => None,
        }
    }

    /// The backend's fields of a `/query` response and trace detail.
    fn describe(&self, out: Json) -> Json {
        match self {
            Pinned::Live(epoch) => out.with("epoch", epoch.epoch),
            Pinned::Mapped(view) => out.with("backing", view.backing_name()),
        }
    }

    /// The dashboard's state row.
    fn status_row(&self) -> StatusRow {
        let value = match self {
            Pinned::Live(epoch) => format!(
                "epoch {} · {} docs · {} pending delta docs",
                epoch.epoch,
                epoch.num_docs(),
                epoch.delta.docs.len(),
            ),
            Pinned::Mapped(view) => format!(
                "mapped ({} backing) · {} docs · {} of {} clusters resident",
                view.backing_name(),
                view.num_docs(),
                view.num_resident_clusters(),
                view.num_clusters(),
            ),
        };
        StatusRow {
            label: "store".into(),
            value,
            class: "info",
        }
    }
}

/// Whether the WAL at `path` (or, before the first append, its directory)
/// accepts writes.
fn wal_writable(path: &Path) -> bool {
    match std::fs::metadata(path) {
        Ok(m) => !m.permissions().readonly(),
        // Not created yet (lazy WAL): check the directory instead. An
        // empty parent means "current directory" — assume writable.
        Err(_) => match path.parent().filter(|d| !d.as_os_str().is_empty()) {
            Some(dir) => std::fs::metadata(dir)
                .map(|m| !m.permissions().readonly())
                .unwrap_or(false),
            None => true,
        },
    }
}

/// Backend readiness, the `detail` of `/readyz`. The live backend is
/// ready while its WAL accepts writes; the mapped view is open by
/// construction (header and directory verified), so it is always ready.
impl HealthSource for Backend {
    fn health(&self) -> HealthReport {
        match self {
            Backend::Live { handle, wal_path } => {
                let epoch = handle.current();
                let wal_ok = wal_writable(wal_path);
                HealthReport {
                    ready: wal_ok,
                    detail: Json::obj()
                        .with("store_loaded", true)
                        .with("wal_writable", wal_ok)
                        .with("epoch", epoch.epoch)
                        .with("num_docs", epoch.num_docs() as u64)
                        .with("pending_docs", epoch.delta.docs.len() as u64)
                        .with("pending_units", epoch.delta.num_units() as u64),
                }
            }
            Backend::Mapped(view) => HealthReport {
                ready: true,
                detail: Json::obj()
                    .with("store_loaded", true)
                    .with("mapped", true)
                    .with("backing", view.backing_name())
                    .with("num_docs", view.num_docs() as u64)
                    .with("num_clusters", view.num_clusters() as u64)
                    .with("resident_clusters", view.num_resident_clusters() as u64)
                    .with("store_bytes", view.file_len()),
            },
        }
    }
}

/// Configuration of the serving app.
pub struct ServeConfig {
    /// Shards the live backend's cluster scans fan out over (min 1). The
    /// mapped backend always serves as one shard.
    pub shards: usize,
    /// Upper bound on the per-request `k`; larger requests get a `400`.
    pub max_k: usize,
    /// Optional document → board map backing the `?board=` filter.
    pub boards: Option<HashMap<u32, String>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 1,
            max_k: DEFAULT_MAX_K,
            boards: None,
        }
    }
}

/// The serving app under its sharded-tier name.
pub type ShardServeApp = ServeApp;
/// The serving config under its sharded-tier name.
pub type ShardServeConfig = ServeConfig;

/// The boards file, with its board names collected once so an unknown
/// board is refused without a scan.
struct Boards {
    of_doc: HashMap<u32, String>,
    names: HashSet<String>,
}

/// The serving application: query routes over a [`Backend`], layered on
/// the standard telemetry endpoints. Build with [`ServeApp::new`] (live)
/// or [`ServeApp::with_objectives`], serve with
/// [`forum_shard::PoolServer`] (or any server that dispatches to
/// [`ServeApp::handle`]).
pub struct ServeApp {
    backend: Arc<Backend>,
    routes: TelemetryRoutes,
    stopper: Mutex<Option<Stopper>>,
    timeseries: Arc<TimeSeries>,
    slo: Arc<SloEvaluator>,
    sampler: Mutex<Option<Sampler>>,
    /// Cluster → shard routing. The intention model is frozen between
    /// rebuilds (compaction keeps every cluster), so it never changes.
    shards: ShardSet,
    stats: Arc<ShardStats>,
    max_k: usize,
    boards: Option<Boards>,
}

impl ServeApp {
    /// Builds the app over the live serving handle and the store's WAL
    /// path, with the [`default_objectives`].
    pub fn new(handle: Arc<EpochHandle>, wal_path: PathBuf, config: ServeConfig) -> Arc<ServeApp> {
        ServeApp::with_objectives(
            Backend::Live { handle, wal_path },
            config,
            default_objectives(None),
        )
    }

    /// Builds the app over `backend` with an explicit objective set (from
    /// `--slo`). All shards start ready: the shard view is routing state,
    /// warm the moment it is built.
    ///
    /// Registers the request-level metrics up front so the very first
    /// `/metrics` scrape already exposes the `serve_*` families (a scrape
    /// arriving before the first query must still show the histogram).
    pub fn with_objectives(
        backend: Backend,
        config: ServeConfig,
        objectives: Vec<Objective>,
    ) -> Arc<ServeApp> {
        let registry = Registry::global();
        registry.counter("serve/http_requests");
        registry.histogram("serve/http_request_ns");
        registry.histogram("serve/online_query_ns");

        let shards = match backend.pin() {
            Pinned::Live(epoch) => ShardSet::build(
                ShardPlan::new(config.shards),
                epoch.base.pipeline.clusters.len(),
            ),
            Pinned::Mapped(view) => ShardSet::build(ShardPlan::new(1), view.num_clusters()),
        };
        let stats = Arc::new(ShardStats::new(shards.shards()));
        stats.mark_all_ready();
        let backend = Arc::new(backend);
        let slo = Arc::new(SloEvaluator::new(objectives));
        let extra = metrics_extra(backend.clone(), slo.clone(), stats.clone());
        let boards = config.boards.map(|of_doc| Boards {
            names: of_doc.values().cloned().collect(),
            of_doc,
        });
        Arc::new(ServeApp {
            routes: TelemetryRoutes::global(backend.clone()).with_metrics_extra(extra),
            backend,
            stopper: Mutex::new(None),
            timeseries: Arc::new(TimeSeries::new()),
            slo,
            sampler: Mutex::new(None),
            shards,
            stats,
            max_k: config.max_k.max(1),
            boards,
        })
    }

    /// Installs the server's stopper so `POST /shutdown` can stop the
    /// accept loop.
    pub fn set_stopper(&self, stopper: Stopper) {
        *self.stopper.lock().unwrap_or_else(PoisonError::into_inner) = Some(stopper);
    }

    /// Per-shard readiness and cost counters (tests flip readiness here to
    /// exercise the degraded `/readyz` states).
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Starts the background sampler: every `period` it snapshots the
    /// registry into the retained time-series (plus the synthetic drift
    /// series) and re-evaluates the SLOs. Call after
    /// [`ServeApp::set_stopper`] so the sampler also exits when the
    /// server's stopper fires; a second call replaces (and shuts down)
    /// the previous sampler.
    pub fn start_sampler(&self, period: Duration) {
        let backend = self.backend.clone();
        let extras: ExtraGauges = Arc::new(move || {
            let (delta_ratio, noise_rate) = backend.drift_values();
            vec![
                (DRIFT_DELTA_SERIES.to_string(), delta_ratio),
                (DRIFT_NOISE_SERIES.to_string(), noise_rate),
            ]
        });
        let slo = self.slo.clone();
        let on_sample: OnSample = Arc::new(move |ts, unix_ms| slo.evaluate(ts, unix_ms));
        let mut builder = Sampler::builder(period)
            .with_extras(extras)
            .on_sample(on_sample);
        if let Some(stopper) = &*self.stopper.lock().unwrap_or_else(PoisonError::into_inner) {
            builder = builder.with_stopper(stopper.clone());
        }
        let sampler = builder.spawn(self.timeseries.clone());
        *self.sampler.lock().unwrap_or_else(PoisonError::into_inner) = Some(sampler);
    }

    /// Dispatches one request: application routes first, telemetry routes
    /// second, `404` otherwise. Records `serve/http_requests` and
    /// `serve/http_request_ns` once around every dispatch.
    pub fn handle(&self, req: &Request) -> Response {
        let obs = Registry::global();
        let started = Instant::now();
        let response = self.dispatch(req);
        obs.incr("serve/http_requests", 1);
        obs.record_duration("serve/http_request_ns", started.elapsed());
        response
    }

    fn dispatch(&self, req: &Request) -> Response {
        type Route = fn(&ServeApp, &Request) -> Response;
        let (methods, route): (&[&str], Route) = match req.path.as_str() {
            "/query" => (&["GET", "POST"], ServeApp::query),
            "/readyz" => (&["GET"], |app, _| app.readyz()),
            "/alerts" => (&["GET"], |app, _| {
                Response::json(200, &app.slo.to_json(unix_millis()))
            }),
            "/series" => (&["GET"], ServeApp::series),
            "/dashboard" => (&["GET"], |app, _| app.dashboard()),
            "/shutdown" => (&["POST"], |app, _| app.shutdown()),
            _ => {
                return self
                    .routes
                    .handle(req)
                    .unwrap_or_else(|| Response::not_found(&req.path))
            }
        };
        if !methods.contains(&req.method.as_str()) {
            return Response::text(405, "method not allowed\n");
        }
        route(self, req)
    }

    fn shutdown(&self) -> Response {
        match &*self.stopper.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(stopper) => {
                stopper.stop();
                Response::text(200, "stopping\n")
            }
            None => Response::text(503, "no stopper installed\n"),
        }
    }

    fn readyz(&self) -> Response {
        let report = self.backend.health();
        let readiness = self.stats.readiness();
        let ready_shards = readiness.iter().filter(|r| **r).count();
        let state = if !report.ready || ready_shards == 0 {
            "unready"
        } else if ready_shards == readiness.len() {
            "ready"
        } else {
            // Some shards serve: stay in rotation, flag the damage.
            "degraded"
        };
        let status = if state == "unready" { 503 } else { 200 };
        let shards = Json::Arr(
            readiness
                .iter()
                .enumerate()
                .map(|(i, &ready)| {
                    Json::obj()
                        .with("shard", i as u64)
                        .with("ready", ready)
                        .with("clusters_scanned", self.stats.counters(i).scans)
                })
                .collect(),
        );
        let body = Json::obj()
            .with("ready", state == "ready")
            .with("state", state)
            .with("shards", shards)
            .with("detail", report.detail);
        Response::json(status, &body)
    }

    /// `GET /series?name=<series>&window=fine|coarse` — retained samples
    /// of one series as JSON.
    fn series(&self, req: &Request) -> Response {
        let Some(name) = req.query_param("name") else {
            return Response::bad_request(
                "missing name (e.g. /series?name=serve/online_query_ns/p99)",
            );
        };
        let window_str = req.query_param("window").unwrap_or("fine");
        let Some(window) = Window::parse(window_str) else {
            return Response::bad_request(format!(
                "bad window {window_str:?} (expected fine or coarse)"
            ));
        };
        match self.timeseries.samples(name, window) {
            None => Response::text(404, format!("no series named {name:?}\n")),
            Some(samples) => Response::json(
                200,
                &Json::obj()
                    .with("name", name)
                    .with("window", window_str)
                    .with(
                        "samples",
                        Json::Arr(
                            samples
                                .iter()
                                .map(|s| {
                                    Json::obj()
                                        .with("unix_ms", s.unix_ms)
                                        .with("value", s.value)
                                })
                                .collect(),
                        ),
                    ),
            ),
        }
    }

    /// The self-contained `GET /dashboard` page: SLO rows, the backend's
    /// state, one row per shard, and the sparkline panels.
    fn dashboard(&self) -> Response {
        let ts = &self.timeseries;
        let now = unix_millis();
        let mut status: Vec<StatusRow> = self
            .slo
            .objectives()
            .iter()
            .map(|o| {
                let state = self.slo.state_of(&o.name).unwrap_or(SloState::Ok);
                StatusRow {
                    label: format!("slo {}", o.name),
                    value: format!(
                        "{} · burn {:.2} (warn {} / fire {})",
                        state.as_str(),
                        o.burn_over(ts, o.fast, now),
                        o.warn_burn,
                        o.fire_burn,
                    ),
                    class: state.as_str(),
                }
            })
            .collect();
        status.push(self.backend.pin().status_row());
        status.extend((0..self.stats.shards()).map(|i| {
            let c = self.stats.counters(i);
            let ready = self.stats.is_ready(i);
            StatusRow {
                label: format!("shard {i}"),
                value: format!(
                    "{} · {} scans · {} postings · {:.1} ms scan time",
                    if ready { "ready" } else { "down" },
                    c.scans,
                    c.postings_scanned,
                    c.scan_ns as f64 / 1e6,
                ),
                class: if ready { "ok" } else { "firing" },
            }
        }));

        let spark = |title: &str, series: &str, fmt: fn(f64) -> String| -> Panel {
            let samples = ts.samples(series, Window::Fine).unwrap_or_default();
            Panel::from_samples(title, &samples, fmt)
        };
        let panels = vec![
            spark(
                "query qps",
                "serve/online_query_ns/rate",
                dashboard::fmt_rate,
            ),
            spark(
                "query p50",
                "serve/online_query_ns/p50",
                dashboard::fmt_ns_as_ms,
            ),
            spark(
                "query p99",
                "serve/online_query_ns/p99",
                dashboard::fmt_ns_as_ms,
            ),
            spark("http req/s", "serve/http_requests", dashboard::fmt_rate),
            spark("shed/s", "serve/shed_total", dashboard::fmt_rate),
            spark("queue depth", "serve/queue_depth", dashboard::fmt_value),
            spark("ingest add/s", "ingest/added", dashboard::fmt_rate),
            spark("ingest update/s", "ingest/updated", dashboard::fmt_rate),
            spark("ingest delete/s", "ingest/deleted", dashboard::fmt_rate),
            spark("wal bytes/s", "ingest/wal_bytes", dashboard::fmt_rate),
            spark("delta/base ratio", DRIFT_DELTA_SERIES, dashboard::fmt_value),
            spark("noise rate", DRIFT_NOISE_SERIES, dashboard::fmt_value),
        ];

        let html = dashboard::render_page(
            "intentmatch serving dashboard",
            5,
            &status,
            &panels,
            &format!("intentmatch v{}", env!("CARGO_PKG_VERSION")),
        );
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: html.into_bytes(),
        }
    }

    /// The `?board=` guard: `None` when no board was asked for, the
    /// document filter when the boards file lists the board, else the
    /// `400`.
    fn board_filter<'a>(
        &'a self,
        req: &'a Request,
        body: &'a Option<Json>,
    ) -> Result<Option<impl Fn(u32) -> bool + Sync + 'a>, Response> {
        let board = req
            .query_param("board")
            .or_else(|| body.as_ref()?.get("board")?.as_str());
        let Some(board) = board else {
            return Ok(None);
        };
        match &self.boards {
            None => Err(Response::bad_request(
                "board filtering requires a boards file (--boards)",
            )),
            Some(boards) if !boards.names.contains(board) => {
                Err(Response::bad_request(format!("unknown board {board:?}")))
            }
            Some(boards) => Ok(Some(move |owner: u32| {
                boards.of_doc.get(&owner).is_some_and(|b| b == board)
            })),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let QueryParams {
            body,
            doc,
            k,
            explain,
        } = match QueryParams::parse(req) {
            Ok(params) => params,
            Err(resp) => return resp,
        };
        // The guards, before any work: a request cannot demand an
        // unbounded merge, a non-finite bar, or a board nobody posts on.
        if k > self.max_k {
            return Response::bad_request(format!(
                "k {k} is over the per-request cap of {} (--max-k)",
                self.max_k
            ));
        }
        let threshold = match param_f64(req, &body, "threshold") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let board = match self.board_filter(req, &body) {
            Ok(board) => board,
            Err(resp) => return resp,
        };
        let filtered = threshold.is_some() || board.is_some();
        if explain && filtered {
            return Response::bad_request(
                "explain narrates the unfiltered ranking: drop threshold and board",
            );
        }

        let pinned = self.backend.pin();
        if doc >= pinned.num_docs() as u64 {
            return Response::bad_request(format!(
                "doc {doc} out of range (collection has {})",
                pinned.num_docs()
            ));
        }
        let compacted = pinned.compacted();
        if explain && compacted.is_none() {
            // EXPLAIN traces the compacted snapshot (its ranking is
            // asserted bit-identical to the offline engine); refuse rather
            // than trace the wrong state.
            return match pinned {
                Pinned::Mapped(_) => Response::bad_request(
                    "explain requires the live engine: serve without --mapped",
                ),
                Pinned::Live(_) => Response::text(
                    409,
                    "explain requires a compacted store: WAL writes are pending\n",
                ),
            };
        }

        let traces = TraceStore::global();
        // A request-scoped trace when tracing is on: the caller's
        // `X-Intentmatch-Trace` id propagates; otherwise one is generated.
        // Every traced path is bit-identical to its untraced twin (cost
        // counting rides out-of-band), so tracing never moves a ranking.
        let mut qtrace = traces
            .is_enabled()
            .then(|| Trace::begin("query", req.header(TRACE_HEADER)));
        let started = Instant::now();
        let filter: Option<DocFilter> = board.as_ref().map(|f| f as DocFilter);
        let (mut ranked, explain_out, path) = match (&pinned, compacted) {
            (_, Some(epoch)) if explain => {
                let out = explain::explain_top_k(
                    &epoch.base.pipeline,
                    &epoch.base.collection,
                    doc as usize,
                    k,
                    qtrace.as_mut(),
                );
                (out.ranking(), Some(out), "explain")
            }
            (Pinned::Live(epoch), _) => {
                match self.scatter(epoch, doc as u32, k, filter, qtrace.as_mut()) {
                    Ok(ranked) => (ranked, None, "shard"),
                    Err(e) => return Response::text(500, format!("query failed: {e}\n")),
                }
            }
            (Pinned::Mapped(view), _) => {
                match self.scan_mapped(view, doc as usize, k, filter, qtrace.as_mut()) {
                    Ok(ranked) => (ranked, None, "mapped"),
                    Err(e) => return Response::text(500, format!("query failed: {e}\n")),
                }
            }
        };
        if let Some(threshold) = threshold {
            // Post-merge guard: scores are already exact, so this is a
            // pure filter — it can only shorten the list, never reorder.
            ranked.retain(|&(_, score)| score >= threshold);
        }
        Registry::global().record_duration("serve/online_query_ns", started.elapsed());

        let shards = self.shards.shards() as u64;
        let trace_id = qtrace.map(|mut t| {
            t.set_detail(
                pinned.describe(
                    Json::obj()
                        .with("path", path)
                        .with("doc", doc)
                        .with("k", k as u64)
                        .with("shards", shards),
                ),
            );
            t.finish();
            // A slow query lands in the slow log with its EXPLAIN attached
            // when the state admits one: the per-cluster candidates and
            // weights behind the slow ranking, next to the spans that say
            // where the time went. A filtered query's ranking is not the
            // one EXPLAIN narrates, so it gets none.
            if traces.is_slow(t.total_ns()) {
                if let Some(out) = &explain_out {
                    t.attach_explain(out.to_json());
                } else if let (Some(epoch), false) = (compacted, filtered) {
                    t.attach_explain(
                        explain::explain_top_k(
                            &epoch.base.pipeline,
                            &epoch.base.collection,
                            doc as usize,
                            k,
                            None,
                        )
                        .to_json(),
                    );
                }
            }
            let id = t.id().to_string();
            traces.record(t);
            id
        });

        let mut out = pinned
            .describe(Json::obj().with("query", doc).with("k", k as u64))
            .with("shards", shards)
            .with("results", results_json(&ranked));
        if let Some(explain_out) = explain_out {
            out = out.with("explain", explain_out.to_json());
        }
        if let Some(id) = trace_id {
            out = out.with("trace", id);
        }
        Response::json(200, &out)
    }

    /// The live ranking: `doc`'s consulted clusters scattered across the
    /// shard set, each scanned by [`LiveEpoch::scan_cluster_filtered`]
    /// (base and delta), gathered in consultation order. Traces
    /// `shard/scatter`, `shard/<i>/scan` and `shard/gather`.
    fn scatter(
        &self,
        epoch: &LiveEpoch,
        doc: u32,
        k: usize,
        filter: Option<DocFilter>,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(u32, f64)>, forum_shard::WorkerPanic> {
        Registry::global().incr("ingest/live_queries", 1);
        let groups = epoch.query_groups(doc).unwrap_or_default();
        let route: Vec<usize> = groups.iter().map(|(cluster, _)| *cluster).collect();
        let terms_of: HashMap<usize, &Vec<String>> = groups
            .iter()
            .map(|(cluster, terms)| (*cluster, terms))
            .collect();
        let n = default_list_len(k);
        let timing = trace.is_some();
        let outcome = scatter_gather(
            &self.shards,
            &self.stats,
            &route,
            k,
            || (ScoreScratch::new(), ScanCosts::default()),
            |(scratch, delta_costs), cluster| {
                let terms = terms_of.get(&cluster)?;
                let scan = epoch.scan_cluster_filtered(
                    cluster,
                    terms,
                    doc,
                    n,
                    filter,
                    timing,
                    scratch,
                    delta_costs,
                )?;
                let mut costs = scratch.costs.take();
                costs.merge(&delta_costs.take());
                Some(ClusterHits {
                    weight: scan.merged.weight,
                    hits: scan.merged.hits,
                    costs: scan_to_trace_costs(costs, 1),
                    scan_ns: scan.base_ns + scan.delta_ns,
                })
            },
            trace,
        )?;
        Ok(outcome.ranked)
    }

    /// The mapped ranking: [`StoreView::top_k_filtered`] with one scratch
    /// per worker thread, reused across requests — the pool's workers are
    /// long-lived, so the per-query allocation cost amortises to zero.
    /// Counts toward shard 0 and traces one `view/algo2` span.
    fn scan_mapped(
        &self,
        view: &StoreView,
        doc: usize,
        k: usize,
        filter: Option<DocFilter>,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(u32, f64)>, intentmatch::store::StoreError> {
        thread_local! {
            static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
        }
        let start = Instant::now();
        let (ranked, costs) = SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            let ranked = view.top_k_filtered(doc, k, filter, scratch);
            (ranked, scratch.take_costs())
        });
        let ranked = ranked?;
        let routed = query_cluster_groups_of(&view.doc_segments(doc)?).len() as u64;
        self.stats.record_scan(
            0,
            routed,
            costs.postings_scanned,
            start.elapsed().as_nanos() as u64,
        );
        if let Some(t) = trace {
            t.push_span("view/algo2", start, scan_to_trace_costs(costs, routed));
        }
        Ok(ranked)
    }
}

/// The scrape-time tail of `/metrics`: windowed rates, drift, trace and
/// SLO gauges, then the per-shard labeled families.
fn metrics_extra(
    backend: Arc<Backend>,
    slo: Arc<SloEvaluator>,
    stats: Arc<ShardStats>,
) -> Arc<dyn Fn(&mut String) + Send + Sync> {
    let rates = Mutex::new(RateWindow::new(RATE_RETENTION));
    Arc::new(move |out: &mut String| {
        let mut rates = rates.lock().unwrap_or_else(PoisonError::into_inner);
        rates.push(Instant::now(), Registry::global().snapshot());
        if let Some(qps) = rates.rate("serve/online_query_ns") {
            prometheus::append_gauge(out, "serve_qps", qps);
        }
        if let Some(ops) = rates.rate_sum(&["ingest/added", "ingest/updated", "ingest/deleted"]) {
            prometheus::append_gauge(out, "ingest_ops_per_sec", ops);
        }
        if let Some(bps) = rates.rate("ingest/wal_bytes") {
            prometheus::append_gauge(out, "ingest_wal_bytes_per_sec", bps);
        }
        // Drift observability: how far the live state has moved from the
        // frozen intention model since the last compaction.
        let (delta_ratio, noise_rate) = backend.drift_values();
        prometheus::append_gauge_with_help(
            out,
            "drift_delta_base_ratio",
            "Pending delta documents as a fraction of the compacted base.",
            delta_ratio,
        );
        prometheus::append_gauge_with_help(
            out,
            "drift_noise_rate",
            "Fraction of ingested segments dropped as noise by the assign_eps gate.",
            noise_rate,
        );
        let traces = TraceStore::global();
        prometheus::append_gauge_with_help(
            out,
            "traces_seen",
            "Query and ingest traces started since process start.",
            traces.total_seen() as f64,
        );
        prometheus::append_gauge_with_help(
            out,
            "traces_kept",
            "Traces retained in the trace ring after sampling.",
            traces.total_kept() as f64,
        );
        prometheus::append_gauge_with_help(
            out,
            "traces_slow",
            "Traces over the slow-query threshold (always retained).",
            traces.total_slow() as f64,
        );
        slo.append_exposition(out);

        let mut shard_family = |name: &str, help: &str, kind: &str, f: &dyn Fn(usize) -> f64| {
            let values: Vec<(String, f64)> =
                (0..stats.shards()).map(|i| (i.to_string(), f(i))).collect();
            prometheus::append_labeled_family(out, name, help, kind, "shard", &values);
        };
        shard_family(
            "serve/shard_scans",
            "Cluster scans routed to each shard.",
            "counter",
            &|i| stats.counters(i).scans as f64,
        );
        shard_family(
            "serve/shard_postings_scanned",
            "Postings walked by each shard's scans.",
            "counter",
            &|i| stats.counters(i).postings_scanned as f64,
        );
        shard_family(
            "serve/shard_scan_ns",
            "Cumulative scan wall time per shard, in nanoseconds.",
            "counter",
            &|i| stats.counters(i).scan_ns as f64,
        );
        shard_family(
            "serve/shard_ready",
            "Per-shard readiness (1 = serving).",
            "gauge",
            &|i| if stats.is_ready(i) { 1.0 } else { 0.0 },
        );
    })
}

/// A parsed `/query` request: the JSON body (when one was sent) plus the
/// query document, `k` (default 5) and whether EXPLAIN was asked for,
/// each from the query string or the body (the query string wins).
struct QueryParams {
    /// The parsed JSON body, for the filter parameters.
    body: Option<Json>,
    /// The query document.
    doc: u64,
    /// Requested result count.
    k: usize,
    /// `?explain=` other than `0`, or `"explain": true` in the body.
    explain: bool,
}

impl QueryParams {
    /// Parses `req`; the `Err` is the `400` to send back.
    fn parse(req: &Request) -> Result<QueryParams, Response> {
        let body: Option<Json> = match req.body_str().map(str::trim) {
            None => return Err(Response::bad_request("body is not UTF-8")),
            Some("") => None,
            Some(text) => match Json::parse(text) {
                Ok(v) => Some(v),
                Err(e) => return Err(Response::bad_request(format!("bad JSON body: {e}"))),
            },
        };
        let Some(doc) = param_u64(req, &body, "doc")? else {
            return Err(Response::bad_request(
                "missing doc (query param or JSON body)",
            ));
        };
        // Saturating: any k past the cap is refused by the same guard.
        let k = param_u64(req, &body, "k")?
            .unwrap_or(5)
            .try_into()
            .unwrap_or(usize::MAX);
        let explain = req.query_param("explain").is_some_and(|v| v != "0")
            || body
                .as_ref()
                .and_then(|b| b.get("explain"))
                .is_some_and(|v| *v == Json::Bool(true));
        Ok(QueryParams {
            body,
            doc,
            k,
            explain,
        })
    }
}

/// One `u64` parameter from the query string or the JSON body (the query
/// string wins).
fn param_u64(req: &Request, body: &Option<Json>, key: &str) -> Result<Option<u64>, Response> {
    if let Some(v) = req.query_param(key) {
        return v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| Response::bad_request(format!("{key} must be a number")));
    }
    match body.as_ref().and_then(|b| b.get(key)) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| Response::bad_request(format!("{key} must be a number"))),
    }
}

/// One finite `f64` parameter from the query string or JSON body.
fn param_f64(req: &Request, body: &Option<Json>, key: &str) -> Result<Option<f64>, Response> {
    let parsed = if let Some(v) = req.query_param(key) {
        v.parse::<f64>().ok()
    } else {
        match body.as_ref().and_then(|b| b.get(key)) {
            None => return Ok(None),
            Some(v) => v.as_f64(),
        }
    };
    match parsed {
        Some(v) if v.is_finite() => Ok(Some(v)),
        _ => Err(Response::bad_request(format!(
            "{key} must be a finite number"
        ))),
    }
}

/// The `results` array of a `/query` response: one `{rank, doc, score}`
/// object per ranked document.
fn results_json(ranking: &[(u32, f64)]) -> Json {
    Json::Arr(
        ranking
            .iter()
            .enumerate()
            .map(|(i, &(d, score))| {
                Json::obj()
                    .with("rank", (i + 1) as u64)
                    .with("doc", d)
                    .with("score", score)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_file_parses_and_rejects_garbage() {
        let map = parse_boards("0 hardware\n1 software\n\n# comment\n2 hardware\n").unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&0).map(String::as_str), Some("hardware"));
        assert_eq!(map.get(&1).map(String::as_str), Some("software"));
        assert!(parse_boards("0 hardware extra\n").is_err());
        assert!(parse_boards("zebra hardware\n").is_err());
        assert!(parse_boards("3\n").is_err());
    }
}
