//! Integration tests for the observability serving surface: the
//! background sampler, `/alerts`, `/series`, and `/dashboard` on a real
//! socket, against a sampler-free 1-shard reference and a 2-shard app.
//!
//! The load-bearing property is the acceptance criterion that the
//! sampler is *pure observation*: with a sampler scraping the registry
//! every 25 ms while queries run, rankings must stay bit-identical to a
//! sampler-free server over the same store.

mod harness;

use forum_ingest::{wal_path_for, ShardServeApp, ShardServeConfig};
use forum_obs::json::Json;
use forum_obs::Registry;
use harness::{build_store, get, open_live, post, Served};
use std::time::Duration;

/// The `results` array of a `/query` response, scores as raw bits.
fn ranking_bits(body: &str) -> Vec<(u32, u64)> {
    harness::bits(&harness::ranking_of(body))
}

#[test]
fn sampler_keeps_rankings_bit_identical_and_serves_alerts_series_dashboard() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);

    let store_path = harness::temp_dir("alerting").join("alerting.imp");
    build_store(&store_path, 80, 7);
    let live = open_live(&store_path);

    // Reference: one shard, no sampler.
    let reference = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig::default(),
    );
    let ref_served = Served::spawn(&reference);
    let ref_addr = ref_served.addr;

    // Under test: the sharded app with an aggressive 25 ms sampler, so
    // dozens of scrapes and SLO evaluations land *while* queries run.
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig {
            shards: 2,
            ..ShardServeConfig::default()
        },
    );
    let served = Served::spawn(&app);
    let addr = served.addr;
    app.start_sampler(Duration::from_millis(25));

    // Bit-identity with the sampler running: every query, both servers,
    // identical bits — repeated so samples demonstrably interleave.
    for round in 0..3 {
        for doc in [0u32, 5, 17, 40, 63] {
            let body = format!("{{\"doc\": {doc}, \"k\": 5}}");
            let (s1, b1) = post(ref_addr, "/query", &body);
            let (s2, b2) = post(addr, "/query", &body);
            assert_eq!((s1, s2), (200, 200), "round {round} doc {doc}: {b1} / {b2}");
            assert_eq!(
                ranking_bits(&b1),
                ranking_bits(&b2),
                "round {round} doc {doc}: sampler changed the ranking"
            );
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    // The sampler must by now have derived per-second rate series from
    // the request counters; /series serves them as JSON.
    let mut series_body = String::new();
    for _ in 0..200 {
        let (status, body) = get(addr, "/series?name=serve/http_requests&window=fine");
        if status == 200 {
            series_body = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!series_body.is_empty(), "series never appeared");
    let series = Json::parse(series_body.trim()).unwrap();
    assert_eq!(
        series.get("name").unwrap().as_str(),
        Some("serve/http_requests")
    );
    assert_eq!(series.get("window").unwrap().as_str(), Some("fine"));
    let samples = series.get("samples").unwrap().as_arr().unwrap();
    assert!(!samples.is_empty());
    for s in samples {
        assert!(s.get("unix_ms").unwrap().as_u64().is_some());
        assert!(s.get("value").unwrap().as_f64().is_some());
    }

    // /series error paths: missing name, bad window, unknown series.
    let (status, _) = get(addr, "/series");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/series?name=serve/http_requests&window=hourly");
    assert_eq!(status, 400);
    let (status, body) = get(addr, "/series?name=no/such/series");
    assert_eq!(status, 404, "{body}");

    // /alerts: the four default objectives, all quiet under this load.
    let (status, body) = get(addr, "/alerts");
    assert_eq!(status, 200, "{body}");
    let alerts = Json::parse(body.trim()).unwrap();
    assert!(alerts.get("unix_ms").unwrap().as_u64().is_some());
    let objectives = alerts.get("objectives").unwrap().as_arr().unwrap();
    let names: Vec<&str> = objectives
        .iter()
        .map(|o| o.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "availability",
            "latency_p99",
            "drift_delta_ratio",
            "drift_noise_rate"
        ]
    );
    for o in objectives {
        assert_eq!(o.get("state").unwrap().as_str(), Some("ok"), "{o}");
        assert!(o.get("burn_fast").unwrap().as_f64().is_some());
        assert!(o.get("burn_slow").unwrap().as_f64().is_some());
    }

    // /dashboard: self-contained HTML with sparklines, SLO status rows,
    // and one row per shard.
    let (status, page) = get(addr, "/dashboard");
    assert_eq!(status, 200);
    assert!(page.starts_with("<!DOCTYPE html>"), "not an HTML page");
    assert!(page.contains("<svg"), "no sparklines");
    assert!(page.contains("slo availability"));
    assert!(page.contains("shard 0") && page.contains("shard 1"));
    for needle in ["src=", "href=", "url(", "@import", "<script"] {
        assert!(
            !page.contains(needle),
            "dashboard is not self-contained: found {needle:?}"
        );
    }
    // The 1-shard reference serves the same page with its one shard row.
    let (status, ref_page) = get(ref_addr, "/dashboard");
    assert_eq!(status, 200);
    assert!(ref_page.starts_with("<!DOCTYPE html>"));
    assert!(ref_page.contains("shard 0") && !ref_page.contains("shard 1"));

    // The new routes are GET-only.
    for target in ["/alerts", "/series?name=x", "/dashboard"] {
        let (status, _) = post(addr, target, "");
        assert_eq!(status, 405, "{target} accepted POST");
    }

    // /metrics carries the SLO families while the sampler runs.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("slo_state{objective=\"availability\"}"));
    assert!(metrics.contains("slo_burn_rate{objective=\"latency_p99\"}"));
    forum_obs::prometheus::validate_exposition(&metrics).unwrap();

    served.shutdown();
    ref_served.shutdown();

    drop(live);
    registry.set_enabled(registry_was);
}

#[test]
fn slo_overrides_parse_and_reject_bad_specs() {
    let deadline = Duration::from_millis(2000);
    let objectives = forum_ingest::parse_slo_overrides(
        &["availability=0.99,latency_ms=50".to_string()],
        deadline,
    )
    .unwrap();
    let avail = objectives
        .iter()
        .find(|o| o.name == "availability")
        .unwrap();
    match &avail.kind {
        forum_obs::ObjectiveKind::ErrorRatio { target, .. } => assert_eq!(*target, 0.99),
        k => panic!("wrong kind {k:?}"),
    }
    let latency = objectives.iter().find(|o| o.name == "latency_p99").unwrap();
    match &latency.kind {
        forum_obs::ObjectiveKind::UpperBound { ceiling, .. } => {
            assert_eq!(*ceiling, 50.0 * 1_000_000.0);
        }
        k => panic!("wrong kind {k:?}"),
    }

    assert!(
        forum_ingest::parse_slo_overrides(&["availability=1.5".to_string()], deadline).is_err()
    );
    assert!(forum_ingest::parse_slo_overrides(&["latency_ms=0".to_string()], deadline).is_err());
    assert!(forum_ingest::parse_slo_overrides(&["bogus=1".to_string()], deadline).is_err());
    assert!(forum_ingest::parse_slo_overrides(&["availability".to_string()], deadline).is_err());
}
