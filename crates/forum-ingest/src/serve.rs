//! The live serving application: queries + telemetry over one HTTP port.
//!
//! [`ServeApp`] owns the application-level routes and layers them over
//! [`forum_obs::serve::TelemetryRoutes`]:
//!
//! * `POST /query` (also `GET`) — related posts for a collection-resident
//!   document: `?doc=N&k=K`, or a JSON body `{"doc": N, "k": K}`. With
//!   `?explain=1` the response carries the full EXPLAIN trace
//!   ([`intentmatch::explain`]) whose ranking is bit-identical to the
//!   offline [`intentmatch::QueryEngine`] — and therefore requires a
//!   compacted store (`409` while WAL writes are pending).
//! * `GET /alerts` — the SLO objectives with burn rates, alert states,
//!   and last transition times ([`SloEvaluator::to_json`]).
//! * `GET /series?name=N&window=fine|coarse` — retained samples of one
//!   derived time-series (see [`ServeApp::start_sampler`]).
//! * `GET /dashboard` — a self-contained server-rendered HTML dashboard
//!   (inline SVG sparklines, no external assets).
//! * `POST /shutdown` — stops the accept loop cleanly.
//! * everything else — the standard telemetry endpoints (`/metrics`,
//!   `/healthz`, `/readyz`, `/snapshot`, `/events`).
//!
//! Readiness ([`ServeHealth`]) is derived from live state: the store is
//! loaded (by construction), the WAL is writable, and the current epoch id
//! and pending-delta sizes ride along as detail. `/metrics` scrapes also
//! feed a [`forum_obs::RateWindow`], so the exposition ends with derived
//! gauges — `serve_qps`, `ingest_ops_per_sec`, `ingest_wal_bytes_per_sec` —
//! computed by diffing the retained snapshots.

use crate::live::EpochHandle;
use forum_obs::dashboard::{self, Panel, StatusRow};
use forum_obs::json::Json;
use forum_obs::serve::{HealthReport, HealthSource, Request, Response, Stopper, TelemetryRoutes};
use forum_obs::timeseries::{unix_millis, ExtraGauges, OnSample};
use forum_obs::trace::TRACE_HEADER;
use forum_obs::{
    prometheus, AlertSink, Objective, RateWindow, Registry, Sampler, SloEvaluator, SloState,
    TimeSeries, Trace, TraceStore, Window,
};
use intentmatch::explain;
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

/// The model-drift values derived from live-engine state: pending delta
/// docs over the compacted base, and the fraction of ingested segments
/// the assign_eps gate dropped as noise.
fn drift_values(handle: &EpochHandle) -> (f64, f64) {
    let epoch = handle.current();
    let ratio = epoch.delta.docs.len() as f64 / epoch.base.len().max(1) as f64;
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

/// Readiness from live-engine state, answered on `/readyz`.
pub struct ServeHealth {
    handle: Arc<EpochHandle>,
    wal_path: PathBuf,
}

impl ServeHealth {
    /// Builds the health source the sharded app composes per-shard
    /// readiness on top of.
    pub(crate) fn new(handle: Arc<EpochHandle>, wal_path: PathBuf) -> ServeHealth {
        ServeHealth { handle, wal_path }
    }
}

impl HealthSource for ServeHealth {
    fn health(&self) -> HealthReport {
        let epoch = self.handle.current();
        let wal_ok = wal_writable(&self.wal_path);
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
}

/// The serving application: query routes over an [`EpochHandle`], layered
/// on the standard telemetry endpoints.
pub struct ServeApp {
    handle: Arc<EpochHandle>,
    routes: TelemetryRoutes,
    stopper: Mutex<Option<Stopper>>,
    timeseries: Arc<TimeSeries>,
    slo: Arc<SloEvaluator>,
    sampler: Mutex<Option<Sampler>>,
}

impl ServeApp {
    /// Builds the app over the serving handle and the store's WAL path,
    /// with the [`default_objectives`].
    pub fn new(handle: Arc<EpochHandle>, wal_path: PathBuf) -> Arc<ServeApp> {
        ServeApp::with_objectives(handle, wal_path, default_objectives(None))
    }

    /// Builds the app with an explicit objective set (from `--slo`).
    ///
    /// Registers the request-level metrics up front so the very first
    /// `/metrics` scrape already exposes the `serve_*` families (a scrape
    /// arriving before the first query must still show the histogram).
    pub fn with_objectives(
        handle: Arc<EpochHandle>,
        wal_path: PathBuf,
        objectives: Vec<Objective>,
    ) -> Arc<ServeApp> {
        let registry = Registry::global();
        registry.counter("serve/http_requests");
        registry.histogram("serve/http_request_ns");
        registry.histogram("serve/online_query_ns");

        let health = Arc::new(ServeHealth {
            handle: handle.clone(),
            wal_path,
        });
        let slo = Arc::new(SloEvaluator::new(objectives));
        let rates = Mutex::new(RateWindow::new(RATE_RETENTION));
        let drift_handle = handle.clone();
        let slo_for_metrics = slo.clone();
        let extra: Arc<dyn Fn(&mut String) + Send + Sync> = Arc::new(move |out: &mut String| {
            let mut rates = rates.lock().unwrap_or_else(PoisonError::into_inner);
            rates.push(Instant::now(), Registry::global().snapshot());
            if let Some(qps) = rates.rate("serve/online_query_ns") {
                prometheus::append_gauge(out, "serve_qps", qps);
            }
            if let Some(ops) = rates.rate_sum(&["ingest/added", "ingest/updated", "ingest/deleted"])
            {
                prometheus::append_gauge(out, "ingest_ops_per_sec", ops);
            }
            if let Some(bps) = rates.rate("ingest/wal_bytes") {
                prometheus::append_gauge(out, "ingest_wal_bytes_per_sec", bps);
            }
            // Drift observability: how far the live state has moved from
            // the frozen intention model since the last compaction.
            let (delta_ratio, noise_rate) = drift_values(&drift_handle);
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
            slo_for_metrics.append_exposition(out);
        });
        Arc::new(ServeApp {
            handle,
            routes: TelemetryRoutes::global(health).with_metrics_extra(extra),
            stopper: Mutex::new(None),
            timeseries: Arc::new(TimeSeries::new()),
            slo,
            sampler: Mutex::new(None),
        })
    }

    /// Installs the server's stopper so `POST /shutdown` can stop the
    /// accept loop.
    pub fn set_stopper(&self, stopper: Stopper) {
        *self.stopper.lock().unwrap_or_else(PoisonError::into_inner) = Some(stopper);
    }

    /// The retained time-series the sampler feeds (`/series`, the
    /// dashboard, and SLO burn rates all read from here).
    pub fn timeseries(&self) -> Arc<TimeSeries> {
        self.timeseries.clone()
    }

    /// The SLO evaluator (for [`ServeApp::add_alert_sink`] and tests).
    pub fn slo(&self) -> Arc<SloEvaluator> {
        self.slo.clone()
    }

    /// Subscribes `sink` to SLO state transitions — the hook a
    /// re-clustering trigger attaches to.
    pub fn add_alert_sink(&self, sink: Arc<dyn AlertSink>) {
        self.slo.add_sink(sink);
    }

    /// Starts the background sampler: every `period` it snapshots the
    /// registry into the retained time-series (plus the synthetic drift
    /// series) and re-evaluates the SLOs. Call after
    /// [`ServeApp::set_stopper`] so the sampler also exits when the
    /// server's stopper fires; a second call replaces (and shuts down)
    /// the previous sampler.
    pub fn start_sampler(&self, period: Duration) {
        let drift_handle = self.handle.clone();
        let extras: ExtraGauges = Arc::new(move || {
            let (delta_ratio, noise_rate) = drift_values(&drift_handle);
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
    /// `serve/http_request_ns` around every dispatch.
    pub fn handle(&self, req: &Request) -> Response {
        let obs = Registry::global();
        let started = Instant::now();
        let response = self.dispatch(req);
        obs.incr("serve/http_requests", 1);
        obs.record_duration("serve/http_request_ns", started.elapsed());
        response
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/query" => {
                if req.method != "POST" && req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.query(req)
            }
            "/alerts" => {
                if req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                Response::json(200, &self.slo.to_json(unix_millis()))
            }
            "/series" => {
                if req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.series(req)
            }
            "/dashboard" => {
                if req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.dashboard_response(Vec::new(), Vec::new())
            }
            "/shutdown" => {
                if req.method != "POST" {
                    return Response::text(405, "method not allowed\n");
                }
                if let Some(stopper) = &*self.stopper.lock().unwrap_or_else(PoisonError::into_inner)
                {
                    stopper.stop();
                    Response::text(200, "stopping\n")
                } else {
                    Response::text(503, "no stopper installed\n")
                }
            }
            _ => self
                .routes
                .handle(req)
                .unwrap_or_else(|| Response::not_found(&req.path)),
        }
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

    /// The self-contained `GET /dashboard` page. The sharded app calls
    /// this with per-shard status rows; extra panels ride along the same
    /// way.
    pub fn dashboard_response(
        &self,
        extra_status: Vec<StatusRow>,
        extra_panels: Vec<Panel>,
    ) -> Response {
        let ts = &self.timeseries;
        let now = unix_millis();
        let epoch = self.handle.current();
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
        status.push(StatusRow {
            label: "epoch".into(),
            value: format!(
                "{} · {} docs · {} pending delta docs",
                epoch.epoch,
                epoch.num_docs(),
                epoch.delta.docs.len(),
            ),
            class: "info",
        });
        status.extend(extra_status);

        let spark = |title: &str, series: &str, fmt: fn(f64) -> String| -> Panel {
            let samples = ts.samples(series, Window::Fine).unwrap_or_default();
            Panel::from_samples(title, &samples, fmt)
        };
        let mut panels = vec![
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
        panels.extend(extra_panels);

        let html = dashboard::render_page(
            "intentmatch serving dashboard",
            5,
            &status,
            &panels,
            &format!(
                "epoch {} · intentmatch v{}",
                epoch.epoch,
                env!("CARGO_PKG_VERSION"),
            ),
        );
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: html.into_bytes(),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let QueryParams {
            doc, k, explain, ..
        } = match QueryParams::parse(req) {
            Ok(params) => params,
            Err(resp) => return resp,
        };
        let epoch = self.handle.current();
        if doc >= epoch.num_docs() as u64 {
            return Response::bad_request(format!(
                "doc {doc} out of range (collection has {})",
                epoch.num_docs()
            ));
        }
        let obs = Registry::global();
        let traces = TraceStore::global();
        // A request-scoped trace when tracing is on: the caller's
        // `X-Intentmatch-Trace` id propagates; otherwise one is generated.
        // Every traced path below is bit-identical to its untraced twin
        // (cost counting rides out-of-band), so enabling tracing never
        // changes a ranking.
        let mut qtrace = traces
            .is_enabled()
            .then(|| Trace::begin("query", req.header(TRACE_HEADER)));
        let started = Instant::now();
        // EXPLAIN traces the compacted snapshot (its ranking is asserted
        // bit-identical to the offline engine); refuse while delta writes
        // are pending rather than trace the wrong state.
        let (ranking, explain_out, path) = if explain {
            if epoch.has_pending() {
                return Response::text(
                    409,
                    "explain requires a compacted store: WAL writes are pending\n",
                );
            }
            let explain_out = explain::explain_top_k(
                &epoch.base.pipeline,
                &epoch.base.collection,
                doc as usize,
                k,
                qtrace.as_mut(),
            );
            (explain_out.ranking(), Some(explain_out), "explain")
        } else if epoch.has_pending() {
            (epoch.query(doc as u32, k, qtrace.as_mut()), None, "live")
        } else {
            // No delta: the offline engine's sequential scan — the same
            // Algorithm 2 as `pipeline.top_k`, bit for bit — with the
            // `engine/algo2` span and its cost counters when tracing.
            let engine =
                intentmatch::QueryEngine::new(&epoch.base.collection, &epoch.base.pipeline)
                    .with_threads(1);
            match engine.try_top_k(doc as usize, k, qtrace.as_mut()) {
                Ok(ranking) => (ranking, None, "engine"),
                Err(e) => return Response::text(500, format!("query failed: {e}\n")),
            }
        };
        obs.record_duration("serve/online_query_ns", started.elapsed());

        let trace_id = qtrace.map(|mut t| {
            t.set_detail(
                Json::obj()
                    .with("path", path)
                    .with("doc", doc)
                    .with("k", k as u64)
                    .with("epoch", epoch.epoch),
            );
            t.finish();
            // A slow query lands in the slow log with its EXPLAIN attached
            // (when the state admits one): the per-cluster candidates and
            // weights that produced the slow ranking, next to the spans
            // that say where the time went.
            if traces.is_slow(t.total_ns()) {
                if let Some(explain_out) = &explain_out {
                    t.attach_explain(explain_out.to_json());
                } else if !epoch.has_pending() {
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

        let mut out = Json::obj()
            .with("query", doc)
            .with("k", k as u64)
            .with("epoch", epoch.epoch)
            .with("results", results_json(&ranking));
        if let Some(explain_out) = explain_out {
            out = out.with("explain", explain_out.to_json());
        }
        if let Some(id) = trace_id {
            out = out.with("trace", id);
        }
        Response::json(200, &out)
    }
}

/// A parsed `/query` request — the one parser every serving app uses: the
/// JSON body (when one was sent) plus the query document, `k` (default 5)
/// and whether EXPLAIN was asked for, each from the query string or the
/// body (the query string wins).
pub(crate) struct QueryParams {
    /// The parsed JSON body, for app-specific parameters.
    pub(crate) body: Option<Json>,
    /// The query document.
    pub(crate) doc: u64,
    /// Requested result count.
    pub(crate) k: usize,
    /// `?explain=` other than `0`, or `"explain": true` in the body.
    pub(crate) explain: bool,
}

impl QueryParams {
    /// Parses `req`; the `Err` is the `400` to send back.
    pub(crate) fn parse(req: &Request) -> Result<QueryParams, Response> {
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
        let k = param_u64(req, &body, "k")?.unwrap_or(5) as usize;
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

/// The `results` array of a `/query` response: one `{rank, doc, score}`
/// object per ranked document.
pub(crate) fn results_json(ranking: &[(u32, f64)]) -> Json {
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
