//! In-process integration test of `intentmatch serve`'s application layer:
//! a real [`forum_shard::PoolServer`] on a real socket, the real
//! [`forum_ingest::ServeApp`] over a real store — health, readiness,
//! Prometheus scrape, queries (bit-identical to the offline engine),
//! EXPLAIN, the event log, and clean shutdown.

mod harness;

use forum_ingest::{wal_path_for, ServeConfig};
use forum_obs::json::Json;
use forum_obs::{prometheus, EventLog, Registry};
use harness::{bits, build_store, get, http, live_app, open_live, post, ranking_of, Served};
use intentmatch::store;
use std::net::SocketAddr;

#[test]
fn serve_app_end_to_end_over_a_real_socket() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);
    let events = EventLog::global();
    let events_was = events.is_enabled();
    events.set_enabled(true);

    let store_path = harness::temp_dir("serve").join("e2e.imp");
    build_store(&store_path, 80, 7);
    let mut live = open_live(&store_path);
    let app = live_app(&live, &store_path, ServeConfig::default());
    let served = Served::spawn(&app);
    let addr = served.addr;

    // Liveness and readiness.
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");
    let ready = Json::parse(body.trim()).unwrap();
    assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
    let detail = ready.get("detail").unwrap();
    assert_eq!(detail.get("store_loaded"), Some(&Json::Bool(true)));
    assert_eq!(detail.get("wal_writable"), Some(&Json::Bool(true)));
    assert_eq!(detail.get("num_docs").unwrap().as_u64(), Some(80));
    assert_eq!(detail.get("pending_docs").unwrap().as_u64(), Some(0));
    assert!(detail.get("epoch").unwrap().as_u64().is_some());

    // A scrape BEFORE any query must already expose the pre-registered
    // request-level histogram, and the exposition must validate.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    prometheus::validate_exposition(&metrics).expect("exposition must validate");
    assert!(
        metrics.contains("serve_online_query_ns"),
        "pre-registered histogram missing:\n{metrics}"
    );

    // Queries: bit-identical to the offline engine over the same store.
    let (coll, pipe) = store::load(&store_path).unwrap();
    for q in [0usize, 3, 17] {
        let (status, body) = post(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            bits(&ranking_of(&body)),
            bits(&pipe.top_k(&coll, q, 5)),
            "query {q} must be bit-identical to the offline engine"
        );
    }

    // EXPLAIN: same ranking, plus the trace.
    let (status, body) = get(addr, "/query?doc=3&k=5&explain=1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(bits(&ranking_of(&body)), bits(&pipe.top_k(&coll, 3, 5)));
    let v = Json::parse(body.trim()).unwrap();
    let explain = v.get("explain").expect("explain=1 must attach the trace");
    assert!(
        !explain
            .get("clusters")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty()
            || explain.get("results").is_some()
    );

    // Bad input handling.
    let (status, _) = post(addr, "/query", "{\"k\": 5}");
    assert_eq!(status, 400, "missing doc must be a 400");
    let (status, _) = get(addr, "/query?doc=99999");
    assert_eq!(status, 400, "out-of-range doc must be a 400");
    let (status, _) = post(addr, "/query", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "PUT /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    // A pending write: queries still answer (over the epoch view), but
    // EXPLAIN refuses with 409 — it traces the compacted snapshot only.
    live.add("my raid controller degrades the whole array performance")
        .unwrap();
    let (status, _) = get(addr, "/query?doc=3&k=5&explain=1");
    assert_eq!(status, 409);
    let (status, body) = get(addr, "/query?doc=3&k=5");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200);
    let ready = Json::parse(body.trim()).unwrap();
    assert_eq!(
        ready
            .get("detail")
            .unwrap()
            .get("pending_docs")
            .unwrap()
            .as_u64(),
        Some(1)
    );

    // The event log saw the epoch swaps; every line is flat JSONL.
    let (status, body) = get(addr, "/events?tail=50");
    assert_eq!(status, 200);
    let mut kinds = Vec::new();
    for line in body.lines() {
        let e = Json::parse(line).expect("event lines must parse");
        kinds.push(e.get("kind").unwrap().as_str().unwrap().to_string());
    }
    assert!(
        kinds.iter().any(|k| k == "epoch_swap"),
        "expected an epoch_swap event, got {kinds:?}"
    );

    // After the queries above, the scrape shows recorded observations and
    // the windowed-rate gauges (two spaced snapshots exist by now).
    let (_, metrics) = get(addr, "/metrics");
    let samples = prometheus::validate_exposition(&metrics).unwrap();
    assert!(samples > 0);
    assert!(metrics.contains("serve_online_query_ns_count"), "{metrics}");
    assert!(metrics.contains("serve_http_requests"), "{metrics}");

    // Clean shutdown via the route.
    served.shutdown();

    registry.set_enabled(registry_was);
    events.set_enabled(events_was);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}

/// `POST /query` with a caller-pinned `X-Intentmatch-Trace` id.
fn post_traced(addr: SocketAddr, target: &str, body: &str, trace_id: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nX-Intentmatch-Trace: {trace_id}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Two acceptance properties of the production (sharded) path, over a
/// real socket: turning tracing on must not move a single result bit, and
/// a query over the slow threshold must land in `/slowlog` with its
/// EXPLAIN and per-phase cost counters attached.
#[test]
fn tracing_is_bit_identical_and_slow_queries_reach_the_slowlog() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);

    let store_path = harness::temp_dir("serve").join("trace.imp");
    build_store(&store_path, 60, 11);
    let live = open_live(&store_path);
    let app = live_app(
        &live,
        &store_path,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    );
    let served = Served::spawn(&app);
    let addr = served.addr;

    let traces = forum_obs::TraceStore::global();
    let traces_was = traces.is_enabled();

    // Baseline rankings with tracing off: no trace id in the response.
    traces.set_enabled(false);
    let queries = [0u64, 5, 9];
    let mut baseline = Vec::new();
    for q in queries {
        let (status, body) = post(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim()).unwrap();
        assert!(
            v.get("trace").is_none(),
            "tracing off must not emit a trace id: {body}"
        );
        baseline.push(bits(&ranking_of(&body)));
    }

    // Tracing on (keep everything, nothing is slow yet): every ranking
    // must match the untraced baseline bit for bit, the caller's header
    // id must come back and resolve on /traces/<id>.
    traces.set_enabled(true);
    traces.set_sample_every(1);
    traces.set_slow_threshold(std::time::Duration::from_secs(3600));
    for (i, q) in queries.iter().enumerate() {
        let id = format!("pin-{q}");
        let (status, body) =
            post_traced(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"), &id);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            bits(&ranking_of(&body)),
            baseline[i],
            "tracing on must be bit-identical for query {q}"
        );
        let v = Json::parse(body.trim()).unwrap();
        assert_eq!(
            v.get("trace").and_then(Json::as_str),
            Some(id.as_str()),
            "propagated trace id must come back: {body}"
        );
        let (status, body) = get(addr, &format!("/traces/{id}"));
        assert_eq!(status, 200, "trace {id} must resolve: {body}");
        let t = Json::parse(body.trim()).unwrap();
        assert_eq!(t.get("kind").and_then(Json::as_str), Some("query"));
        assert!(t.get("total_ns").and_then(Json::as_u64).is_some());
        let spans = t.get("spans").and_then(Json::as_arr).unwrap();
        for span in ["shard/scatter", "shard/gather"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Json::as_str) == Some(span)),
                "the sharded trace must carry the {span} span: {body}"
            );
        }
    }

    // Slow threshold zero: the next query is by definition slow — it must
    // land in /slowlog with EXPLAIN and the per-phase cost counters.
    traces.set_slow_threshold(std::time::Duration::ZERO);
    let (status, body) = post_traced(addr, "/query", "{\"doc\": 7, \"k\": 4}", "pin-slow");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/slowlog?tail=100");
    assert_eq!(status, 200);
    let v = Json::parse(body.trim()).unwrap();
    let slow = v
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|t| t.get("id").and_then(Json::as_str) == Some("pin-slow"))
        .unwrap_or_else(|| panic!("slow query must be in the slowlog: {body}"))
        .clone();
    assert_eq!(slow.get("slow"), Some(&Json::Bool(true)));
    assert!(
        slow.get("explain").is_some(),
        "slow trace must carry its EXPLAIN: {slow:?}"
    );
    let costs = slow.get("costs").expect("slow trace must carry costs");
    assert!(
        costs
            .get("postings_scanned")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
            || costs
                .get("clusters_routed")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
        "cost counters must be populated: {slow:?}"
    );

    // Restore the global store's defaults before the sibling test's
    // scrapes see them.
    traces.set_slow_threshold(std::time::Duration::MAX);
    traces.set_enabled(traces_was);

    served.shutdown();
    registry.set_enabled(registry_was);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}
