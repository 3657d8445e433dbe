//! Socket-level integration test of the mapped serving tier: a real
//! [`forum_shard::PoolServer`] over a real [`forum_ingest::ServeApp`]
//! whose backend is an `Arc<intentmatch::StoreView>` — every ranking
//! served off the mmap view must be **bit-identical** to the heap
//! engine's, at every worker count.

mod harness;

use forum_ingest::{pending_wal_records, ServeConfig};
use forum_obs::json::Json;
use harness::{bits, build_store, get, mapped_app, open_live, post, ranking_of, Served};
use intentmatch::{store, StoreView};
use std::sync::Arc;

#[test]
fn mapped_server_matches_heap_rankings_at_every_worker_count() {
    const K: usize = 5;
    let store_path = harness::temp_dir("mapped").join("mapped-e2e.imp");
    let (coll, pipe) = build_store(&store_path, 100, 11);
    let heap: Vec<Vec<(u32, f64)>> = (0..coll.len()).map(|q| pipe.top_k(&coll, q, K)).collect();

    for workers in [1usize, 2, 4, 8] {
        let view = Arc::new(StoreView::open(&store_path).unwrap());
        let app = mapped_app(view.clone(), ServeConfig::default());
        let served = Served::spawn_with(&app, |s| s.with_workers(workers));
        let addr = served.addr;

        // Readiness reflects the mapped view, nothing resident yet.
        let (status, body) = get(addr, "/readyz");
        assert_eq!(status, 200, "{body}");
        let ready = Json::parse(body.trim()).unwrap();
        assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
        let detail = ready.get("detail").unwrap();
        assert_eq!(detail.get("mapped"), Some(&Json::Bool(true)));
        assert_eq!(
            detail.get("num_docs").unwrap().as_u64(),
            Some(coll.len() as u64)
        );

        // Every query over the socket, against the heap baseline. The
        // pool serves them across `workers` threads; scores must agree
        // bit for bit, not approximately.
        for (q, expected) in heap.iter().enumerate() {
            let (status, body) = post(addr, &format!("/query?doc={q}&k={K}"), "");
            assert_eq!(status, 200, "query {q} at {workers} workers: {body}");
            assert_eq!(
                bits(expected),
                bits(&ranking_of(&body)),
                "query {q} at {workers} workers"
            );
        }

        // Only consulted clusters materialized, and never more than exist.
        let resident = view.num_resident_clusters();
        assert!(resident > 0, "queries must have materialized something");
        assert!(resident <= view.num_clusters());

        // EXPLAIN needs the hydrated engine; the mapped reader says so.
        let (status, body) = post(addr, "/query?doc=0&explain=1", "");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("explain"), "{body}");
        // ... also when EXPLAIN is asked for in the JSON body.
        let (status, body) = post(addr, "/query", r#"{"doc": 0, "explain": true}"#);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("explain"), "{body}");

        served.shutdown();
    }
}

#[test]
fn pending_wal_records_gate_the_mapped_reader() {
    let store_path = harness::temp_dir("mapped").join("mapped-pending.imp");
    let (coll, _pipe) = build_store(&store_path, 30, 12);
    assert_eq!(pending_wal_records(&store_path).unwrap(), 0);

    // One durable write: the snapshot is now stale, the gate must trip.
    let mut live = open_live(&store_path);
    live.add_batch(&["The RAID rebuild stalls at the same block every time.".to_string()])
        .unwrap();
    assert_eq!(pending_wal_records(&store_path).unwrap(), 1);

    // Compaction folds the delta in and resets the WAL; the mapped view
    // then serves the new snapshot bit-identically to the heap engine.
    live.compact().unwrap();
    assert_eq!(pending_wal_records(&store_path).unwrap(), 0);
    drop(live);
    let view = StoreView::open(&store_path).unwrap();
    assert_eq!(view.num_docs(), coll.len() + 1);
    let (coll2, pipe2) = store::load(&store_path).unwrap();
    let mut scratch = intentmatch::pipeline::QueryScratch::new();
    for q in 0..coll2.len() {
        assert_eq!(
            bits(&pipe2.top_k(&coll2, q, 5)),
            bits(&view.top_k(q, 5, &mut scratch).unwrap()),
            "query {q}"
        );
    }
}
