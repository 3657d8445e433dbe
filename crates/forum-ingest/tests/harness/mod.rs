//! The socket harness every serving test shares: seeded stores, a
//! [`ServeApp`] over each backend on a real [`PoolServer`], raw HTTP
//! exchanges, and ranking decoders.

#![allow(dead_code)]

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{
    default_objectives, wal_path_for, Backend, IngestConfig, LiveStore, ServeApp, ServeConfig,
};
use forum_obs::json::Json;
use forum_shard::PoolServer;
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, StoreView};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A per-process scratch directory for `tag`'s stores.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forum-ingest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds and saves a seeded TechSupport store at `path`.
pub fn build_store(path: &Path, num_posts: usize, seed: u64) -> (PostCollection, IntentPipeline) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    store::save(path, &coll, &pipe).unwrap();
    (coll, pipe)
}

/// Opens the live store at `path`.
pub fn open_live(path: &Path) -> LiveStore {
    LiveStore::open(path, PipelineConfig::default(), IngestConfig::default()).unwrap()
}

/// The app over `live`'s serving handle.
pub fn live_app(live: &LiveStore, path: &Path, config: ServeConfig) -> Arc<ServeApp> {
    ServeApp::new(live.handle(), wal_path_for(path), config)
}

/// The app over a mapped view of the store at `path`.
pub fn mapped_app(view: Arc<StoreView>, config: ServeConfig) -> Arc<ServeApp> {
    ServeApp::with_objectives(Backend::Mapped(view), config, default_objectives(None))
}

/// A [`PoolServer`] running an app on its own thread.
pub struct Served {
    pub addr: SocketAddr,
    join: JoinHandle<()>,
}

impl Served {
    /// Serves `app` on an ephemeral port with the default pool.
    pub fn spawn(app: &Arc<ServeApp>) -> Served {
        Served::spawn_with(app, |s| s)
    }

    /// Serves `app` on a pool shaped by `configure`.
    pub fn spawn_with(
        app: &Arc<ServeApp>,
        configure: impl FnOnce(PoolServer) -> PoolServer,
    ) -> Served {
        let server = configure(PoolServer::bind("127.0.0.1:0").unwrap());
        let addr = server.local_addr().unwrap();
        app.set_stopper(server.stopper().unwrap());
        let app = app.clone();
        let join = std::thread::spawn(move || {
            server.run(Arc::new(move |req: &forum_obs::serve::Request| {
                app.handle(req)
            }))
        });
        Served { addr, join }
    }

    /// `POST /shutdown`, then waits for the accept loop to drain and exit.
    pub fn shutdown(self) {
        let (status, body) = post(self.addr, "/shutdown", "");
        assert_eq!((status, body.as_str()), (200, "stopping\n"));
        self.join.join().unwrap();
    }
}

/// One HTTP exchange of raw bytes over a fresh connection; returns the
/// raw response (empty when the server dropped the connection).
pub fn http_bytes(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

/// One HTTP exchange over a fresh connection; returns the raw response.
pub fn http_raw(addr: SocketAddr, raw: &str) -> String {
    http_bytes(addr, raw.as_bytes())
}

/// Splits a raw response into (status, body); status 0 when there was no
/// parseable response.
pub fn status_and_body(out: &str) -> (u16, String) {
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

/// One HTTP exchange; returns (status, body).
pub fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    status_and_body(&http_raw(addr, raw))
}

pub fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

pub fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Collapses a ranking into comparable-by-`Eq` form (f64 → raw bits).
pub fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// The `results` array of a `/query` response as `(doc, score)` pairs.
pub fn ranking_of(body: &str) -> Vec<(u32, f64)> {
    let v = Json::parse(body.trim()).expect("query response must be JSON");
    v.get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.get("doc").unwrap().as_u64().unwrap() as u32,
                r.get("score").unwrap().as_f64().unwrap(),
            )
        })
        .collect()
}
