//! The shard-parallel serving application.
//!
//! [`ShardServeApp`] wraps [`ServeApp`] and takes over the routes that
//! change under sharding, delegating everything else:
//!
//! * `POST /query` — scatter/gather across the shard set: the query's
//!   consulted clusters are partitioned by [`forum_shard::ShardPlan`],
//!   each shard runs the *same* per-cluster scan the sequential path uses
//!   ([`LiveEpoch::scan_cluster_filtered`]), and results merge through the
//!   engine's single Algorithm 2 combination in consultation order — so
//!   the ranking is bit-identical for any shard count. Production guards
//!   ride along: `k` is clamped to a configured cap, `?threshold=T` drops
//!   results scoring below `T` after the merge, and `?board=B` threads a
//!   document filter into the postings scans themselves (filtered
//!   documents neither surface nor consume top-n slots).
//! * `GET /readyz` — per-shard readiness: `ready` when the base store and
//!   every shard are up, `degraded` while only some shards serve (status
//!   still `200` — degraded serves), `unready` (`503`) when the base is
//!   down or no shard is ready.
//! * `GET /metrics` — the inner exposition plus per-shard labeled
//!   families (`serve_shard_scans`, `serve_shard_postings_scanned`,
//!   `serve_shard_scan_ns`, `serve_shard_ready`).
//!
//! `POST /shutdown` stays with the inner app; drain semantics come from
//! the server: [`forum_shard::PoolServer`] closes its admission queue on
//! stop and serves everything already admitted before `run` returns.

use crate::live::{EpochHandle, LiveEpoch};
use crate::serve::{default_objectives, results_json, QueryParams, ServeApp, ServeHealth};
use forum_index::{DocFilter, ScanCosts, ScoreScratch};
use forum_obs::dashboard::StatusRow;
use forum_obs::json::Json;
use forum_obs::serve::{HealthSource, Request, Response, Stopper};
use forum_obs::trace::TRACE_HEADER;
use forum_obs::{prometheus, Objective, Registry, Trace, TraceStore};
use forum_shard::{scatter_gather, ClusterHits, ShardPlan, ShardSet, ShardStats};
use intentmatch::engine::scan_to_trace_costs;
use intentmatch::pipeline::default_list_len;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Default cap on the per-request `k` (the production guard against a
/// single request demanding an unbounded merge).
pub const DEFAULT_MAX_K: usize = 100;

/// Configuration for the sharded serving tier.
pub struct ShardServeConfig {
    /// Number of shards (min 1).
    pub shards: usize,
    /// Upper bound on the per-request `k`; larger requests are clamped.
    pub max_k: usize,
    /// Optional document → board map backing the `?board=` filter.
    pub boards: Option<HashMap<u32, String>>,
}

impl Default for ShardServeConfig {
    fn default() -> ShardServeConfig {
        ShardServeConfig {
            shards: 1,
            max_k: DEFAULT_MAX_K,
            boards: None,
        }
    }
}

/// The sharded serving application. Build with [`ShardServeApp::new`],
/// serve with [`forum_shard::PoolServer`] (or any server that dispatches
/// to [`ShardServeApp::handle`]).
pub struct ShardServeApp {
    inner: Arc<ServeApp>,
    handle: Arc<EpochHandle>,
    health: ServeHealth,
    plan: ShardPlan,
    stats: ShardStats,
    /// The ownership view for the epoch it was built against; rebuilt
    /// (cheaply — it holds routing only, no index data) when the serving
    /// epoch moves.
    view: RwLock<(u64, Arc<ShardSet>)>,
    max_k: usize,
    boards: Option<HashMap<u32, String>>,
}

impl ShardServeApp {
    /// Builds the sharded app over the serving handle and WAL path. All
    /// shards start ready: the shard view is routing state, warm the
    /// moment it is built.
    pub fn new(
        handle: Arc<EpochHandle>,
        wal_path: PathBuf,
        config: ShardServeConfig,
    ) -> Arc<ShardServeApp> {
        ShardServeApp::with_objectives(handle, wal_path, config, default_objectives(None))
    }

    /// [`ShardServeApp::new`] with an explicit SLO objective set (from
    /// `--slo`), passed through to the inner [`ServeApp`].
    pub fn with_objectives(
        handle: Arc<EpochHandle>,
        wal_path: PathBuf,
        config: ShardServeConfig,
        objectives: Vec<Objective>,
    ) -> Arc<ShardServeApp> {
        let inner = ServeApp::with_objectives(handle.clone(), wal_path.clone(), objectives);
        let plan = ShardPlan::new(config.shards);
        let epoch = handle.current();
        let set = Arc::new(ShardSet::build(plan, epoch.base.pipeline.clusters.len()));
        let stats = ShardStats::new(plan.shards());
        stats.mark_all_ready();
        Arc::new(ShardServeApp {
            inner,
            health: ServeHealth::new(handle.clone(), wal_path),
            handle,
            plan,
            stats,
            view: RwLock::new((epoch.epoch, set)),
            max_k: config.max_k.max(1),
            boards: config.boards,
        })
    }

    /// Installs the server's stopper so `POST /shutdown` works.
    pub fn set_stopper(&self, stopper: Stopper) {
        self.inner.set_stopper(stopper);
    }

    /// Starts the inner app's background sampler (see
    /// [`ServeApp::start_sampler`]); call after
    /// [`ShardServeApp::set_stopper`].
    pub fn start_sampler(&self, period: Duration) {
        self.inner.start_sampler(period);
    }

    /// The inner (sequential) serving app: time-series, SLOs, and alert
    /// sinks hang off it.
    pub fn inner(&self) -> &Arc<ServeApp> {
        &self.inner
    }

    /// Per-shard readiness and cost counters (tests flip readiness here to
    /// exercise the degraded `/readyz` states).
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// The shard set for `epoch`, rebuilding the cached view if the
    /// serving epoch has moved since it was built.
    fn shard_set(&self, epoch: &LiveEpoch) -> Arc<ShardSet> {
        {
            let view = self.view.read().unwrap_or_else(PoisonError::into_inner);
            if view.0 == epoch.epoch {
                return view.1.clone();
            }
        }
        let mut view = self.view.write().unwrap_or_else(PoisonError::into_inner);
        if view.0 != epoch.epoch {
            *view = (
                epoch.epoch,
                Arc::new(ShardSet::build(
                    self.plan,
                    epoch.base.pipeline.clusters.len(),
                )),
            );
        }
        view.1.clone()
    }

    /// Dispatches one request: the shard-aware routes here, everything
    /// else through the inner app (which does its own request counting).
    pub fn handle(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/query" => self.counted(req, |req| {
                if req.method != "POST" && req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.query(req)
            }),
            "/readyz" => self.counted(req, |req| {
                if req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.readyz()
            }),
            "/metrics" => {
                let mut response = self.inner.handle(req);
                if response.status == 200 {
                    let mut extra = String::new();
                    self.append_shard_families(&mut extra);
                    response.body.extend_from_slice(extra.as_bytes());
                }
                response
            }
            "/dashboard" => self.counted(req, |req| {
                if req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.inner
                    .dashboard_response(self.shard_status_rows(), Vec::new())
            }),
            _ => self.inner.handle(req),
        }
    }

    /// Wraps a locally-owned route with the same request accounting the
    /// inner app applies to the routes it owns.
    fn counted(&self, req: &Request, f: impl FnOnce(&Request) -> Response) -> Response {
        let obs = Registry::global();
        let started = Instant::now();
        let response = f(req);
        obs.incr("serve/http_requests", 1);
        obs.record_duration("serve/http_request_ns", started.elapsed());
        response
    }

    /// Per-shard dashboard status rows: readiness plus the scan cost
    /// counters the scatter/gather path accumulates.
    fn shard_status_rows(&self) -> Vec<StatusRow> {
        (0..self.stats.shards())
            .map(|i| {
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
            })
            .collect()
    }

    /// Appends the per-shard labeled families to a `/metrics` exposition.
    fn append_shard_families(&self, out: &mut String) {
        let shards = self.stats.shards();
        let collect = |f: &dyn Fn(usize) -> f64| -> Vec<(String, f64)> {
            (0..shards).map(|i| (i.to_string(), f(i))).collect()
        };
        prometheus::append_labeled_family(
            out,
            "serve/shard_scans",
            "Cluster scans routed to each shard.",
            "counter",
            "shard",
            &collect(&|i| self.stats.counters(i).scans as f64),
        );
        prometheus::append_labeled_family(
            out,
            "serve/shard_postings_scanned",
            "Postings walked by each shard's scans.",
            "counter",
            "shard",
            &collect(&|i| self.stats.counters(i).postings_scanned as f64),
        );
        prometheus::append_labeled_family(
            out,
            "serve/shard_scan_ns",
            "Cumulative scan wall time per shard, in nanoseconds.",
            "counter",
            "shard",
            &collect(&|i| self.stats.counters(i).scan_ns as f64),
        );
        prometheus::append_labeled_family(
            out,
            "serve/shard_ready",
            "Per-shard readiness (1 = serving).",
            "gauge",
            "shard",
            &collect(&|i| if self.stats.is_ready(i) { 1.0 } else { 0.0 }),
        );
    }

    fn readyz(&self) -> Response {
        let report = self.health.health();
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
        // The per-request cap: a request cannot demand an unbounded
        // merge, it gets the configured ceiling instead.
        let k = k.min(self.max_k).max(1);
        let threshold = match param_f64(req, &body, "threshold") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let board = req.query_param("board").map(str::to_string).or_else(|| {
            body.as_ref()
                .and_then(|b| b.get("board"))
                .and_then(Json::as_str)
                .map(str::to_string)
        });
        if explain {
            // EXPLAIN is inherently a single-engine affair (it narrates the
            // sequential combination); the inner app owns it unchanged.
            return self.inner.handle(req);
        }

        let epoch = self.handle.current();
        if doc >= epoch.num_docs() as u64 {
            return Response::bad_request(format!(
                "doc {doc} out of range (collection has {})",
                epoch.num_docs()
            ));
        }
        let board_filter = match (&self.boards, &board) {
            (Some(map), Some(b)) => {
                let b = b.clone();
                Some(move |owner: u32| map.get(&owner).is_some_and(|ob| *ob == b))
            }
            (None, Some(_)) => {
                return Response::bad_request("board filtering requires a boards file (--boards)")
            }
            _ => None,
        };
        let filter: Option<DocFilter> = board_filter
            .as_ref()
            .map(|f| f as &(dyn Fn(u32) -> bool + Sync));

        let set = self.shard_set(&epoch);
        let obs = Registry::global();
        let traces = TraceStore::global();
        let mut qtrace = traces
            .is_enabled()
            .then(|| Trace::begin("query", req.header(TRACE_HEADER)));
        let started = Instant::now();
        obs.incr("ingest/live_queries", 1);

        let groups = epoch.query_groups(doc as u32).unwrap_or_default();
        let route: Vec<usize> = groups.iter().map(|(cluster, _)| *cluster).collect();
        let terms_of: HashMap<usize, &Vec<String>> = groups
            .iter()
            .map(|(cluster, terms)| (*cluster, terms))
            .collect();
        let n = default_list_len(k);
        let timing = qtrace.is_some();
        let epoch_ref = &*epoch;
        let outcome = scatter_gather(
            &set,
            &self.stats,
            &route,
            k,
            || (ScoreScratch::new(), ScanCosts::default()),
            |(scratch, delta_costs), cluster| {
                let terms = terms_of.get(&cluster)?;
                let scan = epoch_ref.scan_cluster_filtered(
                    cluster,
                    terms,
                    doc as u32,
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
            qtrace.as_mut(),
        );
        let mut ranked = match outcome {
            Ok(out) => out.ranked,
            Err(e) => return Response::text(500, format!("query failed: {e}\n")),
        };
        if let Some(threshold) = threshold {
            // Post-merge guard: scores are already exact, so this is a
            // pure filter — it can only shorten the list, never reorder.
            ranked.retain(|&(_, score)| score >= threshold);
        }
        obs.record_duration("serve/online_query_ns", started.elapsed());

        let trace_id = qtrace.map(|mut t| {
            t.set_detail(
                Json::obj()
                    .with("path", "shard")
                    .with("doc", doc)
                    .with("k", k as u64)
                    .with("shards", set.shards() as u64)
                    .with("epoch", epoch.epoch),
            );
            t.finish();
            let id = t.id().to_string();
            traces.record(t);
            id
        });

        let mut out = Json::obj()
            .with("query", doc)
            .with("k", k as u64)
            .with("epoch", epoch.epoch)
            .with("shards", set.shards() as u64)
            .with("results", results_json(&ranked));
        if let Some(id) = trace_id {
            out = out.with("trace", id);
        }
        Response::json(200, &out)
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
