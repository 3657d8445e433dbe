//! Tiny-size smoke runs of every workload, untraced and traced, through
//! the real binary: each must exit 0, check its answers without a
//! mismatch, print the result line, and (traced) keep its layers apart.

use forum_obs::json::Json;
use std::process::Command;

fn run(workload: &str, trace: bool, seed: u64) -> Json {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() > 0);
    // The work directory is gone; only the traced run's spans remain.
    assert!(!dir.join(".perfbench_work").exists());
    assert_eq!(dir.join(".perfbench_out").exists(), trace);
    result.get("metrics").cloned().expect("metrics")
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn untraced_runs_report_end_to_end_metrics() {
    for workload in ["serve_zipf", "live_ingest", "build_restart"] {
        let m = run(workload, false, 3);
        for name in ["setup_s", "rss_mb", "read_ms", "op_ms", "batch_s"] {
            assert!(value(&m, name) > 0.0, "{workload}: {name} must be positive");
        }
    }
}

#[test]
fn traced_runs_keep_layers_apart() {
    let serve = run("serve_zipf", true, 4);
    let ingest = run("live_ingest", true, 4);
    let build = run("build_restart", true, 4);
    for (m, name) in [
        (&serve, "serve_zipf"),
        (&ingest, "live_ingest"),
        (&build, "build_restart"),
    ] {
        assert_eq!(obj_len(m), perfbench::PER_LAYER.len(), "{name}");
        assert!(
            value(m, "trace.coverage_pct") >= 95.0,
            "{name}: layers explain too little"
        );
        assert!(value(m, "trace.residue_pct") >= 0.0);
        let timed = value(m, "trace.timed_pct");
        assert!(
            timed > 0.0 && timed <= value(m, "trace.coverage_pct"),
            "{name}: timed share {timed}"
        );
    }
    // pool.* only where HTTP runs.
    assert!(value(&serve, "pool.accept_wait_ms") > 0.0);
    for m in [&ingest, &build] {
        assert_eq!(value(m, "pool.accept_wait_ms"), 0.0);
        assert_eq!(value(m, "pool.response_ms"), 0.0);
    }
    // Delta scans and ingest layers only under live writes.
    assert!(value(&ingest, "index.delta_units") > 0.0);
    assert!(value(&ingest, "ingest.apply_publish_ms") > 0.0);
    assert!(value(&ingest, "wal.append_ms") > 0.0);
    for m in [&serve, &build] {
        assert_eq!(value(m, "index.delta_units"), 0.0);
        assert_eq!(value(m, "ingest.apply_publish_ms"), 0.0);
        assert_eq!(value(m, "wal.append_ms"), 0.0);
    }
    // The mapped view only in build_restart.
    assert!(value(&build, "view.open_us") > 0.0);
    for m in [&serve, &ingest] {
        assert_eq!(value(m, "view.open_us"), 0.0);
        assert_eq!(value(m, "view.cluster_decode_ms"), 0.0);
    }
    assert!(value(&build, "cluster.dbscan_s") > 0.0);
    assert!(value(&build, "cluster.dist_evals") > 0.0);
}

fn obj_len(j: &Json) -> usize {
    match j {
        Json::Obj(fields) => fields.len(),
        _ => 0,
    }
}
