//! End-to-end test of the `intentmatch` CLI binary: index → stats → query
//! → add → query, through real files and the real executable — plus the
//! live path: ingest → query-while-pending → compact.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_intentmatch"))
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("intentmatch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny but varied collection: three repeated themes with variations.
fn write_posts(path: &std::path::Path, n: usize) {
    let themes = [
        "I have an HP system with a RAID 0 controller. The array shows as degraded. \
         Do you know whether the RAID 0 controller would degrade performance?",
        "My HP LaserJet printer jams on every page. I replaced the ink cartridge. \
         How can I fix the paper tray myself?",
        "The wireless card drops the connection every hour. I reinstalled the driver. \
         Is the wireless card compatible with Linux?",
        "My HP Pavilion shuts down after 15 minutes. I cleaned the fan with compressed air. \
         Should I replace the heat sink or send it for repair?",
    ];
    let extras = [
        "I am asking because I do not want to lose my data.",
        "Thanks in advance.",
        "It was fine before the update.",
        "I even called the technical department before posting here.",
    ];
    let mut f = std::fs::File::create(path).unwrap();
    for i in 0..n {
        writeln!(
            f,
            "{} {}",
            themes[i % themes.len()],
            extras[i % extras.len()]
        )
        .unwrap();
    }
}

#[test]
fn cli_full_workflow() {
    let dir = temp_dir();
    let posts = dir.join("posts.txt");
    let store = dir.join("store.imp");
    write_posts(&posts, 120);

    // index
    let out = bin()
        .args(["index", posts.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .expect("run index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(store.exists());

    // stats
    let out = bin()
        .args(["stats", store.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("posts:    120"), "{stdout}");
    assert!(stdout.contains("clusters:"), "{stdout}");

    // query by doc id
    let out = bin()
        .args(["query", store.to_str().unwrap(), "--doc", "0", "-k", "3"])
        .output()
        .expect("run query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // query by new text
    let out = bin()
        .args([
            "query",
            store.to_str().unwrap(),
            "--text",
            "My RAID array is degraded. Will performance suffer with the RAID 0 controller?",
            "-k",
            "3",
        ])
        .output()
        .expect("run query --text");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // batch query with explicit threads: per-query blocks on stdout, and
    // the same ranking the single-doc path prints.
    let out = bin()
        .args([
            "query",
            store.to_str().unwrap(),
            "--batch",
            "0,2,10-14",
            "-k",
            "3",
            "--threads",
            "4",
            "--metrics-out",
            dir.join("batch-metrics.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("run query --batch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for q in [0usize, 2, 10, 11, 12, 13, 14] {
        assert!(stdout.contains(&format!("query #{q}:")), "{stdout}");
    }
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("7 queries"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch_metrics = parse_metrics(&dir.join("batch-metrics.jsonl"));
    assert!(
        find(&batch_metrics, "online/batch_ns").is_some(),
        "missing online/batch_ns"
    );
    assert_eq!(
        find(&batch_metrics, "online/batch_queries")
            .and_then(|m| m.get("value"))
            .and_then(forum_obs::json::Json::as_u64),
        Some(7)
    );
    assert!(
        find(&batch_metrics, "online/qps")
            .and_then(|m| m.get("value"))
            .and_then(forum_obs::json::Json::as_u64)
            .is_some_and(|v| v >= 1),
        "missing or zero online/qps gauge"
    );

    // a bad batch spec fails cleanly
    let out = bin()
        .args(["query", store.to_str().unwrap(), "--batch", "9-3"])
        .output()
        .expect("run query --batch bad spec");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("start after end"));

    // add
    let more = dir.join("more.txt");
    write_posts(&more, 5);
    let out = bin()
        .args(["add", store.to_str().unwrap(), more.to_str().unwrap()])
        .output()
        .expect("run add");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("collection now 125"), "{stderr}");

    // stats reflects the growth
    let out = bin()
        .args(["stats", store.to_str().unwrap()])
        .output()
        .expect("run stats again");
    assert!(String::from_utf8_lossy(&out.stdout).contains("posts:    125"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Parses a JSON-lines metrics dump and returns the parsed objects keyed by
/// metric name, asserting every line is valid JSON.
fn parse_metrics(path: &std::path::Path) -> Vec<forum_obs::json::Json> {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(!text.is_empty(), "metrics file {path:?} is empty");
    text.lines()
        .map(|line| {
            forum_obs::json::Json::parse(line)
                .unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"))
        })
        .collect()
}

fn find<'a>(metrics: &'a [forum_obs::json::Json], name: &str) -> Option<&'a forum_obs::json::Json> {
    metrics
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
}

#[test]
fn cli_explain_and_metrics_out() {
    // Own directory (not `temp_dir()`): the other tests remove theirs on
    // completion, and tests in one binary run concurrently.
    let dir = std::env::temp_dir().join(format!("intentmatch-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let posts = dir.join("posts.txt");
    let store = dir.join("store.imp");
    // A generated corpus, not `write_posts`: EXPLAIN on a few endlessly
    // repeated themes is all zero weights (every term's probabilistic IDF
    // vanishes), which is faithful but makes the trace trivially empty.
    {
        let corpus = forum_corpus::Corpus::generate(&forum_corpus::GenConfig {
            domain: forum_corpus::Domain::TechSupport,
            num_posts: 150,
            seed: 3,
        });
        let mut f = std::fs::File::create(&posts).unwrap();
        for p in &corpus.posts {
            writeln!(f, "{}", p.text.replace('\n', " ")).unwrap();
        }
    }

    // index --metrics-out: valid JSON-lines with per-phase histograms.
    let index_metrics = dir.join("index-metrics.jsonl");
    let out = bin()
        .args([
            "index",
            posts.to_str().unwrap(),
            store.to_str().unwrap(),
            "--metrics-out",
            index_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run index --metrics-out");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = parse_metrics(&index_metrics);
    for phase in [
        "offline",
        "offline/parse_cm",
        "offline/segmentation",
        "offline/features",
        "offline/clustering",
        "offline/refinement_indexing",
    ] {
        let m = find(&metrics, phase).unwrap_or_else(|| panic!("missing {phase}"));
        assert_eq!(
            m.get("type").unwrap().as_str(),
            Some("histogram"),
            "{phase}"
        );
        assert_eq!(m.get("count").unwrap().as_u64(), Some(1), "{phase}");
        for field in ["p50", "p90", "p99", "buckets"] {
            assert!(m.get(field).is_some(), "{phase} lacks {field}");
        }
    }
    assert!(
        find(&metrics, "offline/clusters")
            .and_then(|m| m.get("value"))
            .and_then(forum_obs::json::Json::as_u64)
            .is_some_and(|v| v >= 1),
        "offline/clusters gauge missing or zero"
    );

    // query --doc --explain --metrics-out: per-cluster trace on stdout,
    // online metrics in the dump.
    let query_metrics = dir.join("query-metrics.jsonl");
    let out = bin()
        .args([
            "query",
            store.to_str().unwrap(),
            "--doc",
            "0",
            "-k",
            "3",
            "--explain",
            "--metrics-out",
            query_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run query --explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EXPLAIN query doc #0"), "{stdout}");
    assert!(stdout.contains("intention cluster"), "{stdout}");
    assert!(stdout.contains("weight="), "{stdout}");
    assert!(stdout.contains("cand"), "{stdout}");
    assert!(stdout.contains("from cluster"), "{stdout}");
    let metrics = parse_metrics(&query_metrics);
    let scans = find(&metrics, "online/algo1_scans").expect("missing online/algo1_scans");
    assert!(scans.get("value").unwrap().as_u64().is_some_and(|v| v >= 1));
    assert!(find(&metrics, "online/algo1_ns").is_some());

    // --explain needs a collection-resident query document.
    let out = bin()
        .args([
            "query",
            store.to_str().unwrap(),
            "--text",
            "some new post",
            "--explain",
        ])
        .output()
        .expect("run query --text --explain");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--explain requires --doc"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    let out = bin().output().expect("run bare");
    assert!(!out.status.success());

    let out = bin()
        .args(["query", "/nonexistent/store.imp", "--doc", "0"])
        .output()
        .expect("run query on missing store");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let dir = temp_dir();
    let posts = dir.join("p.txt");
    let store = dir.join("s.imp");
    write_posts(&posts, 30);
    assert!(bin()
        .args(["index", posts.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    // --doc out of range
    let out = bin()
        .args(["query", store.to_str().unwrap(), "--doc", "999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The live path, end to end: two identical stores, one grown with
/// WAL-durable `ingest` + `compact`, the other with `add`. `add` is the
/// same two steps in one command, so the two snapshots must be
/// byte-identical and their batch-query output must agree.
#[test]
fn cli_ingest_compact_matches_add() {
    let dir = std::env::temp_dir().join(format!("intentmatch-cli-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let posts = dir.join("posts.txt");
    let more = dir.join("more.txt");
    let ingested = dir.join("ingested.imp");
    let added = dir.join("added.imp");
    write_posts(&posts, 100);
    write_posts(&more, 12);

    for store in [&ingested, &added] {
        let out = bin()
            .args(["index", posts.to_str().unwrap(), store.to_str().unwrap()])
            .output()
            .expect("run index");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // ingest: durable in the WAL, snapshot untouched.
    let snapshot_before = std::fs::read(&ingested).unwrap();
    let out = bin()
        .args([
            "ingest",
            ingested.to_str().unwrap(),
            more.to_str().unwrap(),
            "--metrics-out",
            dir.join("ingest-metrics.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("run ingest");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ingested 12 posts"), "{stderr}");
    assert!(stderr.contains("ids 100..=111"), "{stderr}");
    let wal = dir.join("ingested.imp.wal");
    assert!(wal.exists(), "ingest should create {wal:?}");
    assert_eq!(
        std::fs::read(&ingested).unwrap(),
        snapshot_before,
        "ingest must not rewrite the snapshot"
    );
    let metrics = parse_metrics(&dir.join("ingest-metrics.jsonl"));
    assert_eq!(
        find(&metrics, "ingest/added")
            .and_then(|m| m.get("value"))
            .and_then(forum_obs::json::Json::as_u64),
        Some(12)
    );
    assert!(find(&metrics, "ingest/wal_append_ns").is_some());

    // stats and queries see the pending writes (WAL replay on open).
    let out = bin()
        .args(["stats", ingested.to_str().unwrap()])
        .output()
        .expect("run stats with pending WAL");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("posts:    112"), "{stdout}");
    assert!(stdout.contains("pending:  12 docs"), "{stdout}");

    let out = bin()
        .args([
            "query",
            ingested.to_str().unwrap(),
            "--doc",
            "105",
            "-k",
            "3",
        ])
        .output()
        .expect("query a pending doc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --explain refuses while writes are pending (it traces the snapshot).
    let out = bin()
        .args([
            "query",
            ingested.to_str().unwrap(),
            "--doc",
            "0",
            "--explain",
        ])
        .output()
        .expect("query --explain with pending WAL");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("compact"));

    // compact folds the WAL into the snapshot and truncates it.
    let out = bin()
        .args(["compact", ingested.to_str().unwrap()])
        .output()
        .expect("run compact");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("collection now 112"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["stats", ingested.to_str().unwrap()])
        .output()
        .expect("run stats after compact");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("posts:    112"), "{stdout}");
    assert!(!stdout.contains("pending:"), "{stdout}");

    // a second compact is a no-op.
    let out = bin()
        .args(["compact", ingested.to_str().unwrap()])
        .output()
        .expect("run compact again");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nothing to compact"));

    // grow the control store with `add`, then diff the rankings.
    let out = bin()
        .args(["add", added.to_str().unwrap(), more.to_str().unwrap()])
        .output()
        .expect("run add");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let batch = ["query", "", "--batch", "0-111", "-k", "5"];
    let run = |store: &std::path::Path| {
        let mut args = batch;
        args[1] = store.to_str().unwrap();
        let out = bin().args(args).output().expect("run batch query");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(
        std::fs::read(&ingested).unwrap() == std::fs::read(&added).unwrap(),
        "ingest+compact and add must write byte-identical stores"
    );
    assert_eq!(
        run(&ingested),
        run(&added),
        "ingest+compact and add must rank identically"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `add` on a store with pending WAL writes folds them in: acknowledged
/// `ingest` writes survive a later `add`.
#[test]
fn cli_add_keeps_pending_ingested_posts() {
    let dir = std::env::temp_dir().join(format!("intentmatch-cli-addwal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let posts = dir.join("posts.txt");
    let pending = dir.join("pending.txt");
    let more = dir.join("more.txt");
    let store = dir.join("store.imp");
    write_posts(&posts, 80);
    write_posts(&pending, 6);
    write_posts(&more, 4);
    let run = |args: &[&str]| {
        let out = bin().args(args).output().expect("run intentmatch");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let s = store.to_str().unwrap();
    run(&["index", posts.to_str().unwrap(), s]);
    run(&["ingest", s, pending.to_str().unwrap()]);
    assert!(run(&["stats", s]).contains("posts:    86"));
    run(&["add", s, more.to_str().unwrap()]);

    let stdout = run(&["stats", s]);
    assert!(stdout.contains("posts:    90"), "{stdout}");
    assert!(!stdout.contains("pending:"), "{stdout}");
    run(&["query", s, "--doc", "85", "-k", "3"]);

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics-out` works on every subcommand, including `add` and `stats`.
#[test]
fn cli_add_and_stats_accept_metrics_out() {
    let dir = std::env::temp_dir().join(format!("intentmatch-cli-mflag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let posts = dir.join("posts.txt");
    let more = dir.join("more.txt");
    let store = dir.join("store.imp");
    write_posts(&posts, 60);
    write_posts(&more, 4);
    assert!(bin()
        .args(["index", posts.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let add_metrics = dir.join("add-metrics.jsonl");
    let out = bin()
        .args([
            "add",
            store.to_str().unwrap(),
            more.to_str().unwrap(),
            "--metrics-out",
            add_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run add --metrics-out");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = parse_metrics(&add_metrics);
    assert_eq!(
        find(&metrics, "ingest/added")
            .and_then(|m| m.get("value"))
            .and_then(forum_obs::json::Json::as_u64),
        Some(4)
    );

    let stats_metrics = dir.join("stats-metrics.jsonl");
    let out = bin()
        .args([
            "stats",
            store.to_str().unwrap(),
            "--metrics-out",
            stats_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run stats --metrics-out");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = parse_metrics(&stats_metrics);
    // A compacted v2 store answers `stats` from the header alone: the
    // mapped view records its open cost, and no live epoch is published
    // (no hydration happened).
    assert!(find(&metrics, "offline/store_load_ns").is_some());
    assert!(find(&metrics, "store/bytes_mapped").is_some());
    assert!(find(&metrics, "ingest/epoch").is_none());

    std::fs::remove_dir_all(&dir).ok();
}

/// The `serve` subcommand through the real binary: ephemeral port, address
/// discovery on stdout, health, scrape, query, clean shutdown.
#[test]
fn cli_serve_smoke() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;

    let dir = std::env::temp_dir().join(format!("intentmatch-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let posts = dir.join("posts.txt");
    let store = dir.join("store.imp");
    write_posts(&posts, 60);
    assert!(bin()
        .args(["index", posts.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let events_out = dir.join("events.jsonl");
    let mut child = bin()
        .args([
            "serve",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--events-out",
            events_out.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");

    // The bound address is the first stdout line.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();

    let request = |raw: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(&addr).unwrap();
        std::io::Write::write_all(&mut stream, raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let status = out
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = out
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };

    let (status, body) = request("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, metrics) = request("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    forum_obs::prometheus::validate_exposition(&metrics).expect("exposition must validate");
    assert!(metrics.contains("serve_online_query_ns"), "{metrics}");

    let (status, body) = request("GET /query?doc=0&k=3 HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    let v = forum_obs::json::Json::parse(body.trim()).unwrap();
    assert!(v.get("results").is_some());

    let (status, _) = request("POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    let exit = child.wait().expect("serve must exit after shutdown");
    assert!(exit.success());

    // Events streamed to the sink (the open published an epoch).
    let text = std::fs::read_to_string(&events_out).unwrap();
    assert!(
        text.lines()
            .filter_map(|l| forum_obs::json::Json::parse(l).ok())
            .any(|e| e.get("kind").and_then(|k| k.as_str().map(String::from))
                == Some("epoch_swap".to_string())),
        "{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
