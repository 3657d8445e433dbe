//! Integration tests for the shard-parallel serving tier: a real
//! [`forum_shard::PoolServer`] on a real socket, the real
//! [`forum_ingest::ServeApp`] over a real live store.
//!
//! The load-bearing property: the sharded scatter/gather ranking is
//! **bit-identical** to the sequential single-scanner path for any shard
//! count, both over a freshly-compacted store and with pending delta
//! writes. On top of that: the production guards (`k` cap, `threshold`,
//! `board` filter), per-shard readiness including the degraded state, the
//! per-shard labeled metric families, and the admission-control promise
//! that a shed request never reaches the scatter path.

mod harness;

use forum_ingest::{wal_path_for, ShardServeApp, ShardServeConfig};
use forum_obs::json::Json;
use forum_obs::{prometheus, Registry};
use forum_shard::PoolServer;
use harness::{bits, build_store, get, http_raw, open_live, post, ranking_of, Served};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_store(name: &str) -> PathBuf {
    harness::temp_dir("shard-serve").join(name)
}

/// For the same store and the same queries, every shard count produces
/// the *same bits* as the sequential single-scanner path
/// ([`forum_ingest::LiveEpoch::top_k`]) — before and after a pending
/// delta write.
#[test]
fn sharded_ranking_is_bit_identical_for_any_shard_count() {
    let store_path = temp_store("identity.imp");
    build_store(&store_path, 80, 7);
    let mut live = open_live(&store_path);

    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let app = ShardServeApp::new(
            live.handle(),
            wal_path_for(&store_path),
            ShardServeConfig {
                shards,
                ..ShardServeConfig::default()
            },
        );
        sharded.push((shards, Served::spawn(&app)));
    }

    let queries = [0u32, 3, 17, 29, 54];
    let compare = |label: &str, live: &forum_ingest::LiveStore| {
        for &q in &queries {
            // Sequential reference: the live epoch's single-scanner loop.
            let want = bits(&live.current().top_k(q, 5));
            for (shards, served) in &sharded {
                let (status, body) = post(
                    served.addr,
                    "/query",
                    &format!("{{\"doc\": {q}, \"k\": 5}}"),
                );
                assert_eq!(status, 200, "{body}");
                let v = Json::parse(body.trim()).unwrap();
                assert_eq!(v.get("shards").and_then(Json::as_u64), Some(*shards as u64));
                assert_eq!(
                    bits(&ranking_of(&body)),
                    want,
                    "{label}: query {q} over {shards} shard(s) must be bit-identical \
                     to the sequential path"
                );
            }
        }
    };

    compare("compacted store", &live);

    // A pending write moves the epoch: the delta scans join the scatter —
    // the bits must still agree.
    live.add("my raid controller degrades the whole array performance")
        .unwrap();
    live.add("the kernel driver update broke my wireless adapter again")
        .unwrap();
    compare("pending delta", &live);

    for (_, served) in sharded {
        served.shutdown();
    }
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}

/// The production guards: `k` over the configured cap is refused,
/// `threshold` is a pure post-merge filter (a prefix of the unfiltered
/// ranking), `board` threads a document filter into the scans, and the
/// per-shard labeled families land on `/metrics` and validate.
#[test]
fn production_guards_clamp_filter_and_expose_per_shard_metrics() {
    let store_path = temp_store("guards.imp");
    build_store(&store_path, 80, 11);
    let live = open_live(&store_path);

    // Even docs on "hardware", odd docs on "software".
    let boards: HashMap<u32, String> = (0u32..80)
        .map(|d| {
            (
                d,
                if d.is_multiple_of(2) {
                    "hardware"
                } else {
                    "software"
                }
                .to_string(),
            )
        })
        .collect();
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig {
            shards: 4,
            max_k: 10,
            boards: Some(boards),
        },
    );
    let served = Served::spawn(&app);
    let addr = served.addr;

    // k cap: a request for an unbounded merge is refused, naming the cap.
    let (status, body) = get(addr, "/query?doc=3&k=5000");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("10"), "the refusal must name the cap: {body}");

    // threshold: a pure post-merge filter — the surviving list is exactly
    // the prefix of the unfiltered ranking that clears the bar.
    let (status, body) = get(addr, "/query?doc=3&k=5");
    assert_eq!(status, 200, "{body}");
    let unfiltered = ranking_of(&body);
    assert!(unfiltered.len() >= 2, "need hits to threshold: {body}");
    let bar = unfiltered[1].1;
    let (status, body) = get(addr, &format!("/query?doc=3&k=5&threshold={bar}"));
    assert_eq!(status, 200, "{body}");
    let expect: Vec<_> = unfiltered
        .iter()
        .copied()
        .filter(|&(_, s)| s >= bar)
        .collect();
    assert_eq!(bits(&ranking_of(&body)), bits(&expect));
    let (status, _) = get(addr, "/query?doc=3&threshold=nan");
    assert_eq!(status, 400, "non-finite threshold must be a 400");

    // board filter: only documents on the requested board may surface.
    let (status, body) = get(addr, "/query?doc=2&k=10&board=hardware");
    assert_eq!(status, 200, "{body}");
    let hw = ranking_of(&body);
    assert!(
        hw.iter().all(|&(d, _)| d.is_multiple_of(2)),
        "board=hardware must only surface even docs: {body}"
    );
    let (status, body) = get(addr, "/query?doc=2&k=10&board=software");
    assert_eq!(status, 200, "{body}");
    assert!(
        ranking_of(&body).iter().all(|&(d, _)| d % 2 == 1),
        "board=software must only surface odd docs: {body}"
    );

    // Validation failures stay 400s.
    let (status, _) = post(addr, "/query", "{\"k\": 5}");
    assert_eq!(status, 400, "missing doc must be a 400");
    let (status, _) = get(addr, "/query?doc=99999");
    assert_eq!(status, 400, "out-of-range doc must be a 400");

    // The scrape carries the per-shard labeled families and validates —
    // including the duplicate-TYPE check, which would fire if the shard
    // families collided with the inner exposition.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    prometheus::validate_exposition(&metrics).expect("exposition must validate");
    for family in [
        "serve_shard_scans",
        "serve_shard_postings_scanned",
        "serve_shard_scan_ns",
        "serve_shard_ready",
    ] {
        for shard in 0..4 {
            assert!(
                metrics.contains(&format!("{family}{{shard=\"{shard}\"}}")),
                "missing {family}{{shard=\"{shard}\"}}:\n{metrics}"
            );
        }
    }
    // The queries above scanned clusters on every shard's behalf; the
    // readiness gauge reads 1 across the board.
    assert!(
        metrics.contains("serve_shard_ready{shard=\"0\"} 1"),
        "{metrics}"
    );

    served.shutdown();
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}

/// `/readyz` walks the three states: ready → degraded (some shards out,
/// still 200 — degraded serves) → unready (503) → ready again.
#[test]
fn readyz_reports_per_shard_degradation() {
    let store_path = temp_store("readyz.imp");
    build_store(&store_path, 40, 13);
    let live = open_live(&store_path);
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig {
            shards: 4,
            ..ShardServeConfig::default()
        },
    );
    let served = Served::spawn(&app);
    let addr = served.addr;

    let state_of = |status: u16, body: &str| -> (u16, String, Vec<bool>) {
        let v = Json::parse(body.trim()).unwrap();
        let state = v.get("state").and_then(Json::as_str).unwrap().to_string();
        let shards = v
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("ready") == Some(&Json::Bool(true)))
            .collect();
        (status, state, shards)
    };

    let (status, body) = get(addr, "/readyz");
    assert_eq!(
        state_of(status, &body),
        (200, "ready".to_string(), vec![true; 4]),
        "{body}"
    );

    app.stats().mark_unready(2);
    let (status, body) = get(addr, "/readyz");
    assert_eq!(
        state_of(status, &body),
        (200, "degraded".to_string(), vec![true, true, false, true]),
        "a partially-down shard set still serves: {body}"
    );

    for shard in 0..4 {
        app.stats().mark_unready(shard);
    }
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 503, "no ready shards means unready: {body}");
    assert_eq!(state_of(status, &body).1, "unready");

    app.stats().mark_all_ready();
    let (status, body) = get(addr, "/readyz");
    assert_eq!(state_of(status, &body).1, "ready", "{body}");

    served.shutdown();
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}

/// The admission-control promise: a shed request is refused whole — it
/// never reaches the handler, so it never starts a scatter. A single
/// wedged worker sheds the backlog with `Retry-After` instead of running
/// late queries, and the per-shard scan counters stay at zero.
#[test]
fn shed_requests_never_reach_the_scatter_path() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);
    let shed_before = registry.snapshot().counter("serve/shed_total");

    let store_path = temp_store("shed.imp");
    build_store(&store_path, 40, 17);
    let live = open_live(&store_path);
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig {
            shards: 2,
            ..ShardServeConfig::default()
        },
    );
    let inner = app.clone();
    // One worker, a one-slot queue, and a deadline shorter than the wedge:
    // everything behind the sleeper must shed, nothing may run late.
    let server = PoolServer::bind("127.0.0.1:0")
        .unwrap()
        .with_workers(1)
        .with_queue_depth(1)
        .with_deadline(Duration::from_millis(250));
    let addr = server.local_addr().unwrap();
    app.set_stopper(server.stopper().unwrap());
    let join = std::thread::spawn(move || {
        server.run(Arc::new(move |req: &forum_obs::serve::Request| {
            if req.path == "/sleep" {
                std::thread::sleep(Duration::from_millis(700));
                return forum_obs::serve::Response::text(200, "slept\n");
            }
            inner.handle(req)
        }))
    });

    // Wedge the only worker.
    let sleeper = std::thread::spawn(move || get(addr, "/sleep"));
    std::thread::sleep(Duration::from_millis(100));

    // Flood queries while the worker is wedged: every one must shed with
    // a 503 and a Retry-After hint — none may execute.
    let floods: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                http_raw(addr, "GET /query?doc=1&k=5 HTTP/1.1\r\nHost: t\r\n\r\n")
            })
        })
        .collect();
    for flood in floods {
        let raw = flood.join().unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 503"),
            "wedged pool must shed, got:\n{raw}"
        );
        assert!(
            raw.contains("Retry-After:"),
            "shed response must carry Retry-After:\n{raw}"
        );
    }
    let (status, body) = sleeper.join().unwrap();
    assert_eq!((status, body.as_str()), (200, "slept\n"));

    // The promise itself: no shed request started a scatter — the
    // per-app shard counters never moved.
    let scanned: u64 = (0..2).map(|i| app.stats().counters(i).scans).sum();
    assert_eq!(
        scanned, 0,
        "a shed request must never partially execute a scatter"
    );
    let shed_after = registry.snapshot().counter("serve/shed_total");
    assert!(
        shed_after >= shed_before + 4,
        "all four floods must be counted as shed ({shed_before} -> {shed_after})"
    );

    // The pool recovers: once the wedge clears, queries serve again.
    let (status, body) = get(addr, "/query?doc=1&k=5");
    assert_eq!(status, 200, "{body}");
    assert!(
        (0..2).map(|i| app.stats().counters(i).scans).sum::<u64>() > 0,
        "the recovered pool must scan again"
    );

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap();
    registry.set_enabled(registry_was);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}
