//! Every query backend answers every document with the same ranking, to
//! the bit.
//!
//! On one seeded corpus, for each document `q`, the rankings of:
//!
//! * `IntentPipeline::top_k` (the heap reference),
//! * the batch runner `top_k_many` over `HeapStore` at 1 and 4 threads,
//! * `StoreView` over mmap and over positioned reads,
//! * `LiveEpoch::top_k` with an empty delta,
//! * `ShardServeApp::handle` over 3 shards,
//! * the EXPLAIN trace's ranking,
//!
//! carry identical document ids and identical score bits.
//!
//! Every backend also answers `k = 0` with no results — the serving app's
//! `/query` too, live and mapped — and a `k` so large that `2k` would
//! overflow with the same ranking as `k = num_docs`.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{
    default_objectives, wal_path_for, Backend, IngestConfig, LiveStore, ServeApp, ShardServeApp,
    ShardServeConfig,
};
use forum_obs::json::Json;
use forum_obs::serve::Request;
use intentmatch::pipeline::QueryScratch;
use intentmatch::{
    explain, store, top_k_many, BackingMode, HeapStore, IntentPipeline, PipelineConfig,
    PostCollection, StoreView,
};
use std::path::PathBuf;
use std::sync::Arc;

const K: usize = 5;

type Bits = Vec<(u32, u64)>;

fn bits(hits: &[(u32, f64)]) -> Bits {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// A seeded store in its own directory, plus the in-memory build it was
/// saved from.
fn seeded_store(name: &str, num_posts: usize) -> (PathBuf, PostCollection, IntentPipeline) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed: 1515,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    let dir = std::env::temp_dir().join(format!("backends-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.imp");
    store::save(&path, &coll, &pipe).unwrap();
    let _ = std::fs::remove_file(wal_path_for(&path));
    (path, coll, pipe)
}

/// The `results` of a `/query` response body, scores as raw bits.
fn served_ranking(body: &[u8]) -> Bits {
    let text = std::str::from_utf8(body).expect("UTF-8 response");
    let v = Json::parse(text.trim()).expect("JSON response");
    v.get("results")
        .and_then(Json::as_arr)
        .expect("results array")
        .iter()
        .map(|r| {
            (
                r.get("doc").and_then(Json::as_u64).unwrap() as u32,
                r.get("score").and_then(Json::as_f64).unwrap().to_bits(),
            )
        })
        .collect()
}

fn query_request(doc: usize, k: usize) -> Request {
    Request {
        method: "GET".into(),
        path: "/query".into(),
        query: vec![("doc".into(), doc.to_string()), ("k".into(), k.to_string())],
        headers: Vec::new(),
        body: Vec::new(),
    }
}

#[test]
fn every_backend_ranks_every_document_identically() {
    let (path, coll, pipe) = seeded_store("rank", 100);
    let n = coll.len();
    let queries: Vec<usize> = (0..n).collect();

    let heap = HeapStore {
        collection: &coll,
        pipeline: &pipe,
    };
    let batch1 = top_k_many(&heap, &queries, K, 1).unwrap();
    let batch4 = top_k_many(&heap, &queries, K, 4).unwrap();

    let mmap = StoreView::open_with(&path, BackingMode::Mmap).unwrap();
    let pread = StoreView::open_with(&path, BackingMode::Pread).unwrap();
    let mut scratch = QueryScratch::new();

    let live = LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();
    let epoch = live.current();
    assert!(!epoch.has_pending());
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&path),
        ShardServeConfig {
            shards: 3,
            ..ShardServeConfig::default()
        },
    );

    let mut nonempty = 0usize;
    for q in 0..n {
        let want = bits(&pipe.top_k(&coll, q, K));
        nonempty += usize::from(!want.is_empty());
        let got = [
            ("heap batch/1", bits(&batch1[q])),
            ("heap batch/4", bits(&batch4[q])),
            ("mmap", bits(&mmap.top_k(q, K, &mut scratch).unwrap())),
            ("pread", bits(&pread.top_k(q, K, &mut scratch).unwrap())),
            ("live", bits(&epoch.top_k(q as u32, K))),
            ("shard/3", {
                let resp = app.handle(&query_request(q, K));
                assert_eq!(resp.status, 200, "doc {q}: shard status");
                served_ranking(&resp.body)
            }),
            (
                "explain",
                bits(&explain::explain_top_k(&pipe, &coll, q, K, None).ranking()),
            ),
        ];
        for (backend, ranking) in got {
            assert_eq!(ranking, want, "doc {q}: {backend} vs heap");
        }
    }
    assert!(
        nonempty * 2 > n,
        "too few non-empty rankings: {nonempty}/{n}"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn degenerate_k_is_empty_or_everything_on_every_backend() {
    let (path, coll, pipe) = seeded_store("k", 80);
    let n = coll.len();
    let heap = HeapStore {
        collection: &coll,
        pipeline: &pipe,
    };
    let view = StoreView::open(&path).unwrap();
    let mut scratch = QueryScratch::new();
    let mut live =
        LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();
    let added = live
        .add("My RAID controller reports a degraded array after the update. Is the disk failing?")
        .unwrap();
    let epoch = live.current();
    assert!(epoch.has_pending());
    let apps = [
        (
            "live app",
            ServeApp::new(
                live.handle(),
                wal_path_for(&path),
                ShardServeConfig::default(),
            ),
        ),
        (
            "mapped app",
            ServeApp::with_objectives(
                Backend::Mapped(Arc::new(StoreView::open(&path).unwrap())),
                ShardServeConfig::default(),
                default_objectives(None),
            ),
        ),
    ];

    let huge = 1usize << 63;
    for q in 0..n {
        // (backend, its document count, its top-k)
        type TopK<'a> = &'a dyn Fn(usize) -> Vec<(u32, f64)>;
        let backends: [(&str, usize, TopK); 4] = [
            ("heap", n, &|k| pipe.top_k(&coll, q, k)),
            ("heap batch", n, &|k| {
                top_k_many(&heap, &[q], k, 1).unwrap().remove(0)
            }),
            ("mapped", n, &|k| {
                view.top_k(q, k, &mut QueryScratch::new()).unwrap()
            }),
            ("live", epoch.num_docs(), &|k| epoch.top_k(q as u32, k)),
        ];
        for (backend, num_docs, top_k) in backends {
            assert!(top_k(0).is_empty(), "doc {q}: {backend} k = 0");
            assert_eq!(
                bits(&top_k(huge)),
                bits(&top_k(num_docs)),
                "doc {q}: {backend} k = 2^63"
            );
        }
        for (backend, app) in &apps {
            let resp = app.handle(&query_request(q, 0));
            assert_eq!(resp.status, 200, "doc {q}: {backend} k = 0 status");
            assert!(
                served_ranking(&resp.body).is_empty(),
                "doc {q}: {backend} k = 0"
            );
        }
    }
    assert!(epoch.top_k(added, 0).is_empty());
    assert_eq!(
        bits(&epoch.top_k(added, huge)),
        bits(&epoch.top_k(added, epoch.num_docs()))
    );
    assert!(view.top_k(0, 0, &mut scratch).unwrap().is_empty());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
