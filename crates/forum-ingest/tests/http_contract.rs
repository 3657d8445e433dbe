//! The HTTP contract of the one serving app, over a real socket, on every
//! backend: live at 1 and 3 shards, and mapped. Every malformed or
//! out-of-range request gets a specific 4xx — never a 5xx, a panic or a
//! dropped connection — and the valid edge cases (`k = 0`, `k` at the
//! cap, a board filter) answer the same way everywhere.

mod harness;

use forum_ingest::{ServeApp, ServeConfig};
use forum_obs::json::Json;
use forum_obs::serve::{Request, MAX_HEAD_BYTES};
use forum_obs::Registry;
use harness::{get, http_bytes, open_live, ranking_of, status_and_body, Served};
use intentmatch::StoreView;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The request counter is process-wide: tests that read it must not
/// overlap with tests that move it.
static SERIAL: Mutex<()> = Mutex::new(());

const MAX_K: usize = 10;

/// Even docs on "hardware", odd docs on "software".
fn boards(num_docs: u32) -> HashMap<u32, String> {
    (0..num_docs)
        .map(|d| {
            let board = if d % 2 == 0 { "hardware" } else { "software" };
            (d, board.to_string())
        })
        .collect()
}

fn config(boards: Option<HashMap<u32, String>>, shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        max_k: MAX_K,
        boards,
    }
}

fn request(line: &str) -> Vec<u8> {
    format!("{line} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

fn post_bytes(target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// One row of the sweep: a raw request and the status it must get. `plain`
/// rows go to the app without a boards file.
struct Case {
    name: &'static str,
    raw: Vec<u8>,
    status: u16,
    plain: bool,
}

fn case(name: &'static str, raw: Vec<u8>, status: u16) -> Case {
    Case {
        name,
        raw,
        status,
        plain: false,
    }
}

fn cases() -> Vec<Case> {
    let oversized = format!(
        "GET /query?doc=1 HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(MAX_HEAD_BYTES + 10)
    );
    vec![
        case("malformed request line", b"GARBAGE\r\n\r\n".to_vec(), 400),
        case(
            "non-UTF-8 body",
            post_bytes("/query", &[0xff, 0xfe, 0xfd]),
            400,
        ),
        case("bad JSON", post_bytes("/query", b"{\"doc\": "), 400),
        case("missing doc", request("GET /query?k=5"), 400),
        case("negative k", request("GET /query?doc=1&k=-1"), 400),
        case("non-numeric k", request("GET /query?doc=1&k=five"), 400),
        case("fractional k", request("GET /query?doc=1&k=1.5"), 400),
        case(
            "k above 2^64",
            request("GET /query?doc=1&k=18446744073709551616"),
            400,
        ),
        case(
            "fractional k in JSON",
            post_bytes("/query", br#"{"doc": 1, "k": 1.5}"#),
            400,
        ),
        case(
            "negative k in JSON",
            post_bytes("/query", br#"{"doc": 1, "k": -1}"#),
            400,
        ),
        case("k over the cap", request("GET /query?doc=1&k=11"), 400),
        case(
            "out-of-range doc",
            request("GET /query?doc=4000000000"),
            400,
        ),
        case(
            "doc above 2^64",
            request("GET /query?doc=18446744073709551616"),
            400,
        ),
        case(
            "NaN threshold",
            request("GET /query?doc=1&threshold=nan"),
            400,
        ),
        case(
            "infinite threshold",
            request("GET /query?doc=1&threshold=inf"),
            400,
        ),
        Case {
            plain: true,
            ..case(
                "board without a boards file",
                request("GET /query?doc=1&board=hardware"),
                400,
            )
        },
        case(
            "unknown board",
            request("GET /query?doc=1&board=kitchen"),
            400,
        ),
        case(
            "unknown board in JSON",
            post_bytes("/query", br#"{"doc": 1, "board": "kitchen"}"#),
            400,
        ),
        case(
            "explain with a board",
            request("GET /query?doc=1&explain=1&board=hardware"),
            400,
        ),
        case(
            "explain with a threshold",
            request("GET /query?doc=1&explain=1&threshold=0.1"),
            400,
        ),
        case("wrong method on /query", request("PUT /query?doc=1"), 405),
        case("wrong method on /metrics", post_bytes("/metrics", b""), 405),
        case("wrong method on /shutdown", request("GET /shutdown"), 405),
        case("unknown path", request("GET /nope"), 404),
        case("oversized head", oversized.into_bytes(), 431),
    ]
}

/// Runs the sweep and the valid edge cases against one backend's pair of
/// apps (with and without a boards file).
fn sweep(label: &str, with_boards: &Arc<ServeApp>, plain: &Arc<ServeApp>) {
    let served = Served::spawn(with_boards);
    let served_plain = Served::spawn(plain);
    for case in cases() {
        let addr = if case.plain {
            served_plain.addr
        } else {
            served.addr
        };
        let raw = http_bytes(addr, &case.raw);
        assert!(
            !raw.is_empty(),
            "{label}: {}: connection dropped",
            case.name
        );
        let (status, body) = status_and_body(&raw);
        assert_eq!(status, case.status, "{label}: {}: {raw}", case.name);
        assert!(!body.is_empty(), "{label}: {}: empty reason", case.name);
    }
    // The cap's refusal names the cap.
    let (_, body) = get(served.addr, "/query?doc=1&k=11");
    assert!(body.contains(&MAX_K.to_string()), "{label}: {body}");

    // k = 0 answers an empty ranking; k at the cap is served.
    let (status, body) = get(served.addr, "/query?doc=2&k=0");
    assert_eq!(status, 200, "{label}: {body}");
    assert!(ranking_of(&body).is_empty(), "{label}: k = 0: {body}");
    let (status, body) = get(served.addr, &format!("/query?doc=2&k={MAX_K}"));
    assert_eq!(status, 200, "{label}: {body}");
    // A known board filters inside the scans on every backend.
    let (status, body) = get(served.addr, "/query?doc=2&k=10&board=hardware");
    assert_eq!(status, 200, "{label}: {body}");
    assert!(
        ranking_of(&body).iter().all(|&(d, _)| d % 2 == 0),
        "{label}: board=hardware must only surface even docs: {body}"
    );
    // The server survived the sweep.
    let (status, _) = get(served.addr, "/healthz");
    assert_eq!(status, 200, "{label}");
    served.shutdown();
    served_plain.shutdown();
}

#[test]
fn every_backend_answers_bad_requests_with_a_clean_4xx() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let store_path = harness::temp_dir("http-contract").join("sweep.imp");
    let (coll, _) = harness::build_store(&store_path, 40, 13);
    let n = coll.len() as u32;
    let live = open_live(&store_path);
    for shards in [1, 3] {
        sweep(
            &format!("live/{shards}"),
            &harness::live_app(&live, &store_path, config(Some(boards(n)), shards)),
            &harness::live_app(&live, &store_path, config(None, shards)),
        );
    }
    let view = Arc::new(StoreView::open(&store_path).unwrap());
    sweep(
        "mapped",
        &harness::mapped_app(view.clone(), config(Some(boards(n)), 1)),
        &harness::mapped_app(view, config(None, 1)),
    );
}

/// One `?explain=1` request is one request: it moves
/// `serve/http_requests` by exactly 1.
#[test]
fn explain_request_is_counted_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);
    let store_path = harness::temp_dir("http-contract").join("count.imp");
    harness::build_store(&store_path, 40, 17);
    let live = open_live(&store_path);
    let app = harness::live_app(&live, &store_path, config(None, 2));
    let explain = Request {
        method: "GET".into(),
        path: "/query".into(),
        query: vec![
            ("doc".into(), "3".into()),
            ("k".into(), "5".into()),
            ("explain".into(), "1".into()),
        ],
        headers: Vec::new(),
        body: Vec::new(),
    };
    let before = registry.snapshot().counter("serve/http_requests");
    let resp = app.handle(&explain);
    let after = registry.snapshot().counter("serve/http_requests");
    registry.set_enabled(registry_was);
    assert_eq!(resp.status, 200);
    let body = Json::parse(std::str::from_utf8(&resp.body).unwrap().trim()).unwrap();
    assert!(body.get("explain").is_some());
    assert_eq!(after - before, 1, "one explain request, one count");
}
