//! Zero-dependency HTTP/1.1 plumbing and the standard telemetry routes.
//!
//! Two layers:
//!
//! * Protocol plumbing — [`Request`] (hand-rolled HTTP/1.1 parsing with a
//!   bounded head read and a capped body), [`Response`], the [`Handler`]
//!   type and the [`Stopper`] that ends an accept loop. The one server
//!   that runs them is [`crate::PoolServer`] (bounded admission queue,
//!   fixed worker pool, deadline-aware shedding). Connections are
//!   `Connection: close` — scrapes are one-shot, keep-alive buys nothing.
//! * [`TelemetryRoutes`] — the standard observability endpoints over a
//!   [`Registry`] + [`EventLog`] + [`TraceStore`] + a pluggable
//!   [`HealthSource`]: `GET /metrics` (Prometheus text exposition),
//!   `GET /healthz` (liveness), `GET /readyz` (readiness + state detail as
//!   JSON), `GET /snapshot` (the JSON-lines export), `GET /events?tail=N`,
//!   and the trace surface — `GET /traces?tail=N` (retained request
//!   traces), `GET /traces/<id>` (one trace by id), `GET /slowlog?tail=N`
//!   (queries over the slow threshold, with EXPLAIN attached).
//!   Application routes (`POST /query`, shutdown) layer on top: the router
//!   returns `None` for paths it does not own.
//!
//! The scrape path is allocation-light: one pre-sized `String` per
//! exposition, no per-line allocations (see [`crate::prometheus`]).

use crate::events::EventLog;
use crate::json::Json;
use crate::registry::Registry;
use crate::trace::TraceStore;
use crate::{export, prometheus};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection socket read timeout (bounds slow or stalled clients).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Cap on concurrently-draining shed responses; beyond it the connection
/// is dropped without a reply so the accept loop never waits on a slow
/// client to take its `503`.
const MAX_SHED_THREADS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method, e.g. `GET`.
    pub method: String,
    /// Decoded path without the query string, e.g. `/metrics`.
    pub path: String,
    /// Decoded `key=value` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value) beyond the always-present
    /// `Content-Type`/`Content-Length`/`Connection` trio — e.g.
    /// `Retry-After` on load-shed `503`s.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!("{value}\n").into_bytes(),
        }
    }

    /// Adds a response header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// A `503` telling the client to come back after `retry_after_secs` —
    /// the shared shape of every shedding path (admission queue overflow,
    /// deadline expiry before pickup or before dispatch).
    pub fn shed(reason: &str, retry_after_secs: u64) -> Response {
        Response::text(503, format!("{reason}\n"))
            .with_header("Retry-After", retry_after_secs.to_string())
    }

    /// `404` with the offending path.
    pub fn not_found(path: &str) -> Response {
        Response::text(404, format!("no route for {path}\n"))
    }

    /// `400` with a reason.
    pub fn bad_request(msg: impl Into<String>) -> Response {
        Response::text(400, format!("{}\n", msg.into()))
    }

    fn status_text(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            Self::status_text(self.status),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads and parses one request from `stream`. `Err` carries the response
/// to send for protocol violations.
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            if pos > MAX_HEAD_BYTES {
                return Err(Response::text(431, "request head too large\n"));
            }
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(Response::text(431, "request head too large\n"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| Response::bad_request(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(Response::bad_request("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| Response::bad_request("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(Response::bad_request("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::bad_request("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Response::bad_request("malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect();

    let content_length: usize = match headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
    {
        Some(Ok(n)) => n,
        Some(Err(_)) => return Err(Response::bad_request("bad Content-Length")),
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(Response::text(413, "request body too large\n"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| Response::bad_request(format!("body read failed: {e}")))?;
        if n == 0 {
            return Err(Response::bad_request("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: url_decode(path),
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Half-closes `stream` and drains (bounded) anything the client is still
/// sending before dropping it: closing with unread input makes TCP send
/// RST, which can destroy the in-flight response — exactly when rejecting
/// an oversized request early.
pub(crate) fn drain_and_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    let mut drained = 0usize;
    while drained < MAX_HEAD_BYTES + MAX_BODY_BYTES {
        match stream.read(&mut scratch) {
            Ok(n) if n > 0 => drained += n,
            _ => break,
        }
    }
}

/// Answers a shed connection `503` + `Retry-After` on a detached thread so
/// a client slow to take its rejection can never wedge the accept loop;
/// over [`MAX_SHED_THREADS`] concurrent drains the connection is dropped
/// unanswered (the caller has already counted the shed).
pub(crate) fn shed_off_loop(
    mut stream: TcpStream,
    reason: &'static str,
    retry_secs: u64,
    shed_active: &Arc<AtomicUsize>,
) {
    if shed_active.load(Ordering::SeqCst) >= MAX_SHED_THREADS {
        return;
    }
    shed_active.fetch_add(1, Ordering::SeqCst);
    let shed_active = shed_active.clone();
    std::thread::spawn(move || {
        let _ = Response::shed(reason, retry_secs).write_to(&mut stream);
        drain_and_close(&mut stream);
        shed_active.fetch_sub(1, Ordering::SeqCst);
    });
}

/// The handler type [`PoolServer::run`](crate::PoolServer::run) dispatches to.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Requests the accept loop to exit; cloneable into handler closures.
#[derive(Clone)]
pub struct Stopper {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl Stopper {
    pub(crate) fn new(addr: SocketAddr, stop: Arc<AtomicBool>) -> Stopper {
        Stopper { addr, stop }
    }

    /// Signals the server to stop and unblocks its accept loop. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Readiness as reported by the serving application.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Whether the process should receive traffic.
    pub ready: bool,
    /// State detail rendered into the `/readyz` body (a JSON object:
    /// store/WAL/epoch state, pending sizes, rates).
    pub detail: Json,
}

/// What `/readyz` asks the application for.
pub trait HealthSource: Send + Sync {
    /// A point-in-time readiness report.
    fn health(&self) -> HealthReport;
}

/// A [`HealthSource`] that is always ready with no detail — for tests and
/// metric-only servers with no backing store.
pub struct AlwaysReady;

impl HealthSource for AlwaysReady {
    fn health(&self) -> HealthReport {
        HealthReport {
            ready: true,
            detail: Json::obj(),
        }
    }
}

/// Scrape-time hook appending extra exposition lines (e.g. windowed-rate
/// gauges) to `/metrics`.
pub type MetricsExtra = Arc<dyn Fn(&mut String) + Send + Sync>;

/// Process start reference: `(unix seconds, monotonic instant)` pinned at
/// first telemetry initialization — close enough to process start for
/// uptime and restart-detection purposes without platform-specific
/// `/proc` parsing.
fn process_start() -> &'static (f64, Instant) {
    static START: OnceLock<(f64, Instant)> = OnceLock::new();
    START.get_or_init(|| {
        let unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        (unix, Instant::now())
    })
}

/// Appends the process self-metrics — `process_start_time_seconds`,
/// `process_uptime_seconds`, and the `build_info{version=…}` constant
/// gauge — so the dashboard can show restarts and what binary is running.
pub fn append_process_metrics(out: &mut String) {
    let (start_unix, started) = process_start();
    prometheus::append_gauge_with_help(
        out,
        "process_start_time_seconds",
        "Unix time the process started (first telemetry init).",
        *start_unix,
    );
    prometheus::append_gauge_with_help(
        out,
        "process_uptime_seconds",
        "Seconds since process start.",
        started.elapsed().as_secs_f64(),
    );
    prometheus::append_labeled_family(
        out,
        "build_info",
        "Constant 1, labeled with the built crate version.",
        "gauge",
        "version",
        &[(env!("CARGO_PKG_VERSION").to_string(), 1.0)],
    );
}

/// The standard telemetry endpoints. Construct once, call
/// [`TelemetryRoutes::handle`] from the server handler, and lay
/// application routes over the `None` case.
pub struct TelemetryRoutes {
    registry: &'static Registry,
    events: &'static EventLog,
    traces: &'static TraceStore,
    health: Arc<dyn HealthSource>,
    metrics_extra: Option<MetricsExtra>,
}

impl TelemetryRoutes {
    /// Routes over the process-wide registry, event log, and trace store.
    pub fn global(health: Arc<dyn HealthSource>) -> TelemetryRoutes {
        // Pin the process-start reference as early as possible.
        let _ = process_start();
        TelemetryRoutes {
            registry: Registry::global(),
            events: EventLog::global(),
            traces: TraceStore::global(),
            health,
            metrics_extra: None,
        }
    }

    /// Installs a scrape-time hook appending extra lines to `/metrics`.
    pub fn with_metrics_extra(mut self, extra: MetricsExtra) -> TelemetryRoutes {
        self.metrics_extra = Some(extra);
        self
    }

    /// Serves `/events` from `events` instead of the global log (tests,
    /// embedders with their own ring).
    pub fn with_events(mut self, events: &'static EventLog) -> TelemetryRoutes {
        self.events = events;
        self
    }

    /// Serves `/traces` + `/slowlog` from `traces` instead of the global
    /// store.
    pub fn with_traces(mut self, traces: &'static TraceStore) -> TelemetryRoutes {
        self.traces = traces;
        self
    }

    /// Parses `?tail=N` (defaulting to `default`); `Err` is the `400`.
    fn tail_param(req: &Request, default: usize) -> Result<usize, Response> {
        match req.query_param("tail").map(str::parse::<usize>) {
            None => Ok(default),
            Some(Ok(n)) => Ok(n),
            Some(Err(_)) => Err(Response::bad_request("tail must be a number")),
        }
    }

    /// Answers the telemetry routes; `None` means the path is not ours.
    pub fn handle(&self, req: &Request) -> Option<Response> {
        let owned = matches!(
            req.path.as_str(),
            "/metrics" | "/healthz" | "/readyz" | "/snapshot" | "/events" | "/traces" | "/slowlog"
        ) || req.path.starts_with("/traces/");
        if !owned {
            return None;
        }
        if req.method != "GET" {
            return Some(Response::text(405, "method not allowed\n"));
        }
        if let Some(id) = req.path.strip_prefix("/traces/") {
            return Some(match self.traces.lookup(id) {
                Some(trace) => Response::json(200, &trace.to_json()),
                None => Response::text(404, format!("no retained trace with id {id:?}\n")),
            });
        }
        Some(match req.path.as_str() {
            "/metrics" => {
                let scrape_started = Instant::now();
                let mut body = prometheus::render(&self.registry.snapshot());
                if let Some(extra) = &self.metrics_extra {
                    extra(&mut body);
                }
                append_process_metrics(&mut body);
                // Scrape self-cost, recorded after the snapshot was taken:
                // each scrape exposes the cost of the *previous* one.
                self.registry
                    .record_duration("obs/scrape_ns", scrape_started.elapsed());
                self.registry.incr("obs/scrape_bytes", body.len() as u64);
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    headers: Vec::new(),
                    body: body.into_bytes(),
                }
            }
            "/healthz" => Response::text(200, "ok\n"),
            "/readyz" => {
                let report = self.health.health();
                let status = if report.ready { 200 } else { 503 };
                let body = Json::obj()
                    .with("ready", report.ready)
                    .with("detail", report.detail);
                Response::json(status, &body)
            }
            "/snapshot" => Response {
                status: 200,
                content_type: "application/jsonl",
                headers: Vec::new(),
                body: export::to_json_lines(&self.registry.snapshot()).into_bytes(),
            },
            "/events" => {
                let tail = match Self::tail_param(req, 100) {
                    Ok(n) => n,
                    Err(resp) => return Some(resp),
                };
                Response {
                    status: 200,
                    content_type: "application/jsonl",
                    headers: Vec::new(),
                    body: self.events.tail_json_lines(tail).into_bytes(),
                }
            }
            "/traces" | "/slowlog" => {
                let tail = match Self::tail_param(req, 20) {
                    Ok(n) => n,
                    Err(resp) => return Some(resp),
                };
                let traces = if req.path == "/traces" {
                    self.traces.tail(tail)
                } else {
                    self.traces.slow_tail(tail)
                };
                let body = Json::obj()
                    .with("seen", self.traces.total_seen())
                    .with("kept", self.traces.total_kept())
                    .with("slow", self.traces.total_slow())
                    .with(
                        "traces",
                        Json::Arr(traces.iter().map(|t| t.to_json()).collect()),
                    );
                Response::json(200, &body)
            }
            _ => unreachable!("matched above"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
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
    }

    fn spawn_server(
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> (SocketAddr, Stopper, std::thread::JoinHandle<()>) {
        let server = crate::PoolServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stopper = server.stopper().unwrap();
        let join = std::thread::spawn(move || server.run(Arc::new(handler)));
        (addr, stopper, join)
    }

    #[test]
    fn serves_parses_and_stops() {
        let (addr, stopper, join) = spawn_server(|req| {
            assert_eq!(req.header("x-probe"), Some("42"));
            Response::text(
                200,
                format!(
                    "{} {} tail={} body={}",
                    req.method,
                    req.path,
                    req.query_param("tail").unwrap_or("-"),
                    req.body_str().unwrap_or(""),
                ),
            )
        });
        let (status, body) = request(
            addr,
            "POST /echo%20path?tail=7&x=a+b HTTP/1.1\r\nHost: x\r\nX-Probe: 42\r\n\
             Content-Length: 5\r\n\r\nhello",
        );
        assert_eq!(status, 200);
        assert_eq!(body, "POST /echo path tail=7 body=hello");
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_400_not_a_crash() {
        let (addr, stopper, join) = spawn_server(|_| Response::text(200, "unreachable"));
        let (status, _) = request(addr, "NOT-HTTP\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "GET /x HTTP/2.0 extra\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n");
        assert_eq!(status, 400);
        // Server still alive after the garbage.
        let (status, _) = request(addr, "GET /x HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_head_is_rejected_with_431() {
        let (addr, stopper, join) = spawn_server(|_| Response::text(200, "unreachable"));
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 10)
        );
        let (status, _) = request(addr, &huge);
        assert_eq!(status, 431);
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let (addr, stopper, join) = spawn_server(|_| Response::text(200, "unreachable"));
        let raw = format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let (status, _) = request(addr, &raw);
        assert_eq!(status, 413);
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn telemetry_routes_cover_the_standard_endpoints() {
        // Use a local registry? TelemetryRoutes::global reads the global
        // one; record through it with distinctive names instead.
        let registry = Registry::global();
        let was = registry.is_enabled();
        registry.set_enabled(true);
        registry.incr("servetest/hits", 3);
        registry.record("servetest/lat_ns", 512);
        let events = EventLog::global();
        let events_was = events.is_enabled();
        events.set_enabled(true);
        events.emit("servetest_event", Json::obj().with("n", 1u64));

        let routes = Arc::new(TelemetryRoutes::global(Arc::new(AlwaysReady)));
        let (addr, stopper, join) = spawn_server(move |req| {
            routes
                .handle(req)
                .unwrap_or_else(|| Response::not_found(&req.path))
        });

        let (status, body) = request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = request(addr, "GET /readyz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(
            Json::parse(body.trim()).unwrap().get("ready"),
            Some(&Json::Bool(true))
        );

        let (status, body) = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("servetest_hits 3\n"), "{body}");
        assert!(body.contains("servetest_lat_ns_bucket"), "{body}");
        // Process self-metrics ride along on every scrape.
        assert!(body.contains("process_start_time_seconds"), "{body}");
        assert!(body.contains("process_uptime_seconds"), "{body}");
        assert!(body.contains("build_info{version=\""), "{body}");
        prometheus::validate_exposition(&body).expect("exposition must validate");

        // The second scrape exposes the previous scrape's self-cost.
        let (status, body) = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("obs_scrape_ns_count"), "{body}");
        assert!(body.contains("obs_scrape_bytes"), "{body}");
        prometheus::validate_exposition(&body).expect("exposition must validate");

        let (status, body) = request(addr, "GET /snapshot HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.lines().any(|l| l.contains("servetest/hits")));

        let (status, body) = request(addr, "GET /events?tail=5 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.lines().any(|l| {
            Json::parse(l).unwrap().get("kind").unwrap().as_str() == Some("servetest_event")
        }));

        let (status, _) = request(addr, "GET /events?tail=x HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400);

        let (status, _) = request(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);

        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);

        stopper.stop();
        join.join().unwrap();
        registry.set_enabled(was);
        events.set_enabled(events_was);
    }

    #[test]
    fn trace_endpoints_serve_ring_slowlog_and_lookup() {
        use crate::trace::{Trace, TraceStore};
        // A leaked local store keeps this test isolated from anything else
        // touching the global one.
        let store: &'static TraceStore = Box::leak(Box::new(TraceStore::new(16, 8)));
        // Everything recorded here counts as slow → lands in both rings.
        store.set_slow_threshold(Duration::from_nanos(1));
        for i in 0..3 {
            let mut t = Trace::begin("query", Some(&format!("servetrace-{i}")));
            std::thread::sleep(Duration::from_millis(1));
            t.finish();
            store.record(t);
        }
        store.set_slow_threshold(Duration::from_secs(3600));
        let mut fast = Trace::begin("query", Some("servetrace-fast"));
        fast.finish();
        store.record(fast);

        let routes = Arc::new(TelemetryRoutes::global(Arc::new(AlwaysReady)).with_traces(store));
        let (addr, stopper, join) = spawn_server(move |req| {
            routes
                .handle(req)
                .unwrap_or_else(|| Response::not_found(&req.path))
        });

        // /traces?tail=N clamps like the event log and returns valid JSON.
        let (status, body) = request(addr, "GET /traces?tail=1000 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let v = Json::parse(body.trim()).unwrap();
        let traces = v.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 4, "{body}");
        assert_eq!(v.get("seen").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("slow").unwrap().as_u64(), Some(3));
        assert!(traces
            .iter()
            .any(|t| t.get("id").unwrap().as_str() == Some("servetrace-fast")));

        // /slowlog holds only the threshold-crossing traces.
        let (status, body) = request(addr, "GET /slowlog HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let v = Json::parse(body.trim()).unwrap();
        let slow = v.get("traces").unwrap().as_arr().unwrap();
        assert!(slow
            .iter()
            .all(|t| t.get("slow") == Some(&Json::Bool(true))));
        assert!(slow
            .iter()
            .any(|t| t.get("id").unwrap().as_str() == Some("servetrace-2")));
        assert!(!slow
            .iter()
            .any(|t| t.get("id").unwrap().as_str() == Some("servetrace-fast")));

        // Lookup by id, and 404 for unknown ids.
        let (status, body) = request(addr, "GET /traces/servetrace-1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let v = Json::parse(body.trim()).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("servetrace-1"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("query"));
        let (status, _) = request(addr, "GET /traces/definitely-absent HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);

        // Bad tail and wrong method behave like the other routes.
        let (status, _) = request(addr, "GET /traces?tail=x HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "POST /traces HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);

        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn events_tail_clamps_over_http_when_the_ring_has_wrapped() {
        // A leaked local ring (capacity 32) so the wraparound arithmetic is
        // exact and isolated from the global log.
        let events: &'static EventLog = Box::leak(Box::new(EventLog::new(32)));
        for i in 0..80u64 {
            events.emit("clamptest", Json::obj().with("i", i));
        }
        let routes = Arc::new(TelemetryRoutes::global(Arc::new(AlwaysReady)).with_events(events));
        let (addr, stopper, join) = spawn_server(move |req| {
            routes
                .handle(req)
                .unwrap_or_else(|| Response::not_found(&req.path))
        });
        // Asking for far more than capacity returns exactly capacity.
        let (status, body) = request(addr, "GET /events?tail=100000 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 32);
        // The retained events are the newest 32 (seq 48..=79), in order.
        let first = Json::parse(body.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("seq").unwrap().as_u64(), Some(48));
        // A small tail returns exactly that many, from the newest end.
        let (status, body) = request(addr, "GET /events?tail=7 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("seq").unwrap().as_u64(),
            Some(73)
        );
        assert_eq!(
            Json::parse(lines[6]).unwrap().get("seq").unwrap().as_u64(),
            Some(79)
        );
        stopper.stop();
        join.join().unwrap();
    }
}
