//! The mapped serving application: read-only queries straight off a v2
//! store through [`intentmatch::StoreView`], no heap hydration.
//!
//! Where [`crate::serve::ServeApp`] owns a fully decoded live engine
//! (WAL, delta epochs, compaction), [`MappedServeApp`] owns only an
//! `Arc<StoreView>`: startup is O(touched pages) — header + directory +
//! cluster metadata — and each query faults in exactly the sections it
//! consults. Rankings are bit-identical to the heap engine (the view's
//! query path shares every scoring kernel; see `intentmatch::view`).
//!
//! Routes:
//!
//! * `POST /query` (also `GET`) — `?doc=N&k=K` or a JSON body
//!   `{"doc": N, "k": K}`; same response shape as the live app's
//!   non-explain path. EXPLAIN requires the hydrated engine and returns
//!   `400` here.
//! * `POST /shutdown` — stops the accept loop cleanly.
//! * everything else — the standard telemetry endpoints (`/metrics`,
//!   `/healthz`, `/readyz`, `/snapshot`, `/events`).
//!
//! The mapped reader serves a *snapshot*, not a live store: it never
//! opens the WAL, so `intentmatch serve --mapped` refuses to start while
//! WAL records are pending (see [`pending_wal_records`]) — serving a
//! snapshot that pending writes have already superseded would silently
//! drop them from every ranking.

use crate::ingest::snapshot_tag;
use crate::serve::{results_json, QueryParams};
use crate::wal;
use crate::wal_path_for;
use forum_obs::json::Json;
use forum_obs::serve::{HealthReport, HealthSource, Request, Response, Stopper, TelemetryRoutes};
use forum_obs::Registry;
use intentmatch::pipeline::QueryScratch;
use intentmatch::StoreView;
use std::cell::RefCell;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// How many WAL records are pending on top of the snapshot at
/// `store_path` — records whose tag does not match the snapshot are
/// stale leftovers `Wal::open` would discard, so they do not count.
/// A missing WAL is zero pending.
pub fn pending_wal_records(store_path: &Path) -> Result<usize, crate::IngestError> {
    let tag = snapshot_tag(store_path)?;
    let inspection = wal::inspect(&wal_path_for(store_path), tag)
        .map_err(|e| crate::IngestError::Wal(wal::WalError::Io(e)))?;
    Ok(if inspection.exists && inspection.tag_matches {
        inspection.records.len()
    } else {
        0
    })
}

/// Readiness from the mapped view, answered on `/readyz`. The view is
/// open by construction (header and directory verified), so readiness is
/// unconditional; the detail reports what is resident.
pub struct MappedHealth {
    view: Arc<StoreView>,
}

impl HealthSource for MappedHealth {
    fn health(&self) -> HealthReport {
        HealthReport {
            ready: true,
            detail: Json::obj()
                .with("store_loaded", true)
                .with("mapped", true)
                .with("backing", self.view.backing_name())
                .with("num_docs", self.view.num_docs() as u64)
                .with("num_clusters", self.view.num_clusters() as u64)
                .with(
                    "resident_clusters",
                    self.view.num_resident_clusters() as u64,
                )
                .with("store_bytes", self.view.file_len()),
        }
    }
}

/// The mapped serving application: `/query` over an `Arc<StoreView>`,
/// layered on the standard telemetry endpoints.
pub struct MappedServeApp {
    view: Arc<StoreView>,
    routes: TelemetryRoutes,
    stopper: Mutex<Option<Stopper>>,
}

impl MappedServeApp {
    /// Builds the app over an open view. Registers the request-level
    /// metrics up front so the first `/metrics` scrape already exposes
    /// the `serve_*` families.
    pub fn new(view: Arc<StoreView>) -> Arc<MappedServeApp> {
        let registry = Registry::global();
        registry.counter("serve/http_requests");
        registry.histogram("serve/http_request_ns");
        registry.histogram("serve/online_query_ns");
        let health = Arc::new(MappedHealth { view: view.clone() });
        Arc::new(MappedServeApp {
            view,
            routes: TelemetryRoutes::global(health),
            stopper: Mutex::new(None),
        })
    }

    /// The served view (tests inspect residency through this).
    pub fn view(&self) -> Arc<StoreView> {
        self.view.clone()
    }

    /// Installs the server's stopper so `POST /shutdown` can stop the
    /// accept loop.
    pub fn set_stopper(&self, stopper: Stopper) {
        *self.stopper.lock().unwrap_or_else(PoisonError::into_inner) = Some(stopper);
    }

    /// Dispatches one request; records `serve/http_requests` and
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

    fn query(&self, req: &Request) -> Response {
        let QueryParams {
            doc, k, explain, ..
        } = match QueryParams::parse(req) {
            Ok(params) => params,
            Err(resp) => return resp,
        };
        if explain {
            return Response::bad_request(
                "explain requires the hydrated engine: run serve without --mapped",
            );
        }
        if doc >= self.view.num_docs() as u64 {
            return Response::bad_request(format!(
                "doc {doc} out of range (collection has {})",
                self.view.num_docs()
            ));
        }

        // One scratch per worker thread, reused across requests — the
        // pool's workers are long-lived, so the per-query allocation cost
        // amortises to zero exactly like the offline engine's per-worker
        // scratch.
        thread_local! {
            static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
        }
        let started = Instant::now();
        let ranking =
            SCRATCH.with(|scratch| self.view.top_k(doc as usize, k, &mut scratch.borrow_mut()));
        let ranking = match ranking {
            Ok(r) => r,
            Err(e) => return Response::text(500, format!("query failed: {e}\n")),
        };
        Registry::global().record_duration("serve/online_query_ns", started.elapsed());

        Response::json(
            200,
            &Json::obj()
                .with("query", doc)
                .with("k", k as u64)
                .with("backing", self.view.backing_name())
                .with("results", results_json(&ranking)),
        )
    }
}
