//! The live store's core contract: ingestion is a *deferral* of index
//! maintenance, not an approximation of it.
//!
//! * With nothing pending, the epoch query path is bit-identical to the
//!   offline engine.
//! * After ingest + compact, the persisted state is bit-identical to a
//!   direct offline assembly of the same documents with the same cluster
//!   assignments — for every query, at every thread count.
//! * Against a *true* full rebuild (re-segmented, re-clustered), results
//!   may differ — the frozen-centroid divergence DESIGN.md documents — but
//!   only boundedly so, which a property test pins down.
//! * A crash mid-append loses at most the torn record; the snapshot is
//!   never touched.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{wal_path_for, IngestConfig, LiveStore};
use intentmatch::pipeline::{ClusterIndex, PipelineConfig, RefinedSegment};
use intentmatch::{store, IntentPipeline, PostCollection, QueryEngine};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forum-ingest-eq-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus_texts(num_posts: usize, seed: u64) -> Vec<String> {
    Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    })
    .posts
    .iter()
    .map(|p| p.text.clone())
    .collect()
}

/// Builds and saves an offline store over a generated corpus.
fn build_store(path: &Path, num_posts: usize, seed: u64) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    store::save(path, &coll, &pipe).unwrap();
}

fn open(path: &Path) -> LiveStore {
    LiveStore::open(path, PipelineConfig::default(), IngestConfig::default()).unwrap()
}

/// Collapses a ranking into comparable-by-`Eq` form (f64 → raw bits).
fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

#[test]
fn empty_delta_epoch_is_bit_identical_to_engine() {
    let dir = temp_dir("nodelta");
    let path = dir.join("store.imp");
    build_store(&path, 120, 41);

    let live = open(&path);
    let epoch = live.current();
    assert!(!epoch.has_pending());
    let (coll, pipe) = (&epoch.base.collection, &epoch.base.pipeline);
    for q in 0..coll.len() {
        assert_eq!(
            bits(&epoch.top_k(q as u32, 5)),
            bits(&pipe.top_k(coll, q, 5)),
            "query {q}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_epoch_serves_pending_writes_and_hides_deletes() {
    let dir = temp_dir("visibility");
    let path = dir.join("store.imp");
    build_store(&path, 80, 42);
    let mut live = open(&path);
    let base_len = live.current().base.len() as u32;

    let new_texts = corpus_texts(10, 1042);
    let ids = live.add_batch(&new_texts).unwrap();
    assert_eq!(ids, (base_len..base_len + 10).collect::<Vec<_>>());

    let deleted = ids[3];
    live.delete(deleted).unwrap();
    live.update(ids[0], &new_texts[5]).unwrap();
    assert!(matches!(
        live.delete(deleted),
        Err(forum_ingest::IngestError::UnknownDoc(_))
    ));
    assert!(matches!(
        live.update(base_len + 500, "nope"),
        Err(forum_ingest::IngestError::UnknownDoc(_))
    ));

    let epoch = live.current();
    assert_eq!(epoch.num_docs(), base_len as usize + 10);
    assert_eq!(epoch.num_live_docs(), base_len as usize + 9);
    assert!(epoch.doc_text(deleted).is_none());
    assert!(epoch.top_k(deleted, 5).is_empty());
    // The updated document serves its *new* text.
    assert_eq!(epoch.doc_text(ids[0]), epoch.doc_text(ids[5]));

    // No query surfaces the deleted document, base or delta resident.
    let old_doc = 7u32;
    live.delete(old_doc).unwrap();
    let epoch = live.current();
    for q in 0..epoch.num_docs() as u32 {
        let hits = epoch.top_k(q, 8);
        assert!(
            hits.iter().all(|&(d, _)| d != deleted && d != old_doc),
            "query {q} surfaced a deleted doc: {hits:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After a mixed batch (adds, one update, one base delete, one delta
/// delete), compaction must produce exactly the state a direct offline
/// assembly of the surviving documents + assignments produces — same
/// segmentations, same refined segments, and bit-identical rankings at
/// every thread count.
#[test]
fn compact_is_bit_identical_to_direct_assembly() {
    let dir = temp_dir("oracle");
    let path = dir.join("store.imp");
    build_store(&path, 90, 43);
    let mut live = open(&path);
    let base_len = live.current().base.len() as u32;

    let new_texts = corpus_texts(14, 7043);
    let ids = live.add_batch(&new_texts).unwrap();
    live.update(5, &new_texts[2]).unwrap(); // base doc rewritten
    live.update(ids[1], &new_texts[9]).unwrap(); // delta doc rewritten
    live.delete(11).unwrap(); // base doc gone
    live.delete(ids[6]).unwrap(); // delta doc gone

    // Oracle: assemble collection + pipeline directly from the pre-compact
    // epoch's components, the way a from-scratch builder with identical
    // cluster assignments would.
    let epoch = live.current();
    let base = epoch.base.clone();
    let n = epoch.num_docs();
    let mut docs = Vec::with_capacity(n);
    let mut raw_segmentations = Vec::with_capacity(n);
    let mut doc_segments: Vec<Vec<RefinedSegment>> = Vec::with_capacity(n);
    for id in 0..n as u32 {
        if let Some(dd) = epoch.delta.doc(id) {
            docs.push(dd.doc.clone());
            raw_segmentations.push(dd.raw_seg.clone());
            doc_segments.push(dd.refined.clone());
        } else if id < base_len && !epoch.delta.deleted().contains(&id) {
            docs.push(base.collection.docs[id as usize].clone());
            raw_segmentations.push(base.pipeline.raw_segmentations[id as usize].clone());
            doc_segments.push(base.pipeline.doc_segments[id as usize].clone());
        } else {
            docs.push(forum_segment::CmDoc::new(
                forum_text::Document::parse_clean(forum_text::document::DocId(id), ""),
            ));
            raw_segmentations.push(forum_text::Segmentation::single(1));
            doc_segments.push(Vec::new());
        }
    }
    let oracle_coll = PostCollection { docs };
    let num_clusters = base.pipeline.num_clusters();
    let mut builders: Vec<forum_index::IndexBuilder> = (0..num_clusters)
        .map(|_| forum_index::IndexBuilder::new())
        .collect();
    for (d, segs) in doc_segments.iter().enumerate() {
        for seg in segs {
            let terms = intentmatch::pipeline::segment_terms(&oracle_coll, d, seg);
            builders[seg.cluster].add_unit(d as u32, &terms);
        }
    }
    let oracle_pipe = IntentPipeline {
        raw_segmentations,
        doc_segments,
        clusters: builders
            .into_iter()
            .map(|b| ClusterIndex { index: b.build() })
            .collect(),
        centroids: base.pipeline.centroids.clone(),
        num_noise: base.pipeline.num_noise,
        timings: Default::default(),
        weighted_combination: base.pipeline.weighted_combination,
        weighting: base.pipeline.weighting,
    };

    live.compact().unwrap();
    assert!(!live.has_pending());
    assert_eq!(
        std::fs::read(wal_path_for(&path)).unwrap().len(),
        16,
        "compaction must truncate the WAL to its header"
    );
    let (coll, pipe) = store::load(&path).unwrap();

    assert_eq!(coll.len(), n);
    for (a, b) in coll.docs.iter().zip(&oracle_coll.docs) {
        assert_eq!(a.doc.text, b.doc.text);
    }
    assert_eq!(pipe.raw_segmentations, oracle_pipe.raw_segmentations);
    type SegShape = Vec<Vec<(usize, Vec<(usize, usize)>)>>;
    let shape = |segs: &[Vec<RefinedSegment>]| -> SegShape {
        segs.iter()
            .map(|s| s.iter().map(|r| (r.cluster, r.ranges.clone())).collect())
            .collect()
    };
    assert_eq!(shape(&pipe.doc_segments), shape(&oracle_pipe.doc_segments));

    let queries: Vec<usize> = (0..n).collect();
    let expected: Vec<Vec<(u32, u64)>> = queries
        .iter()
        .map(|&q| bits(&oracle_pipe.top_k(&oracle_coll, q, 5)))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let engine = QueryEngine::new(&coll, &pipe).with_threads(threads);
        let got: Vec<Vec<(u32, u64)>> = engine
            .top_k_batch(&queries, 5)
            .iter()
            .map(|h| bits(h))
            .collect();
        assert_eq!(got, expected, "threads={threads}");
    }

    // The compacted store also round-trips through the live path: reopen,
    // nothing pending, epoch == engine bitwise.
    let live = open(&path);
    let epoch = live.current();
    assert!(!epoch.has_pending());
    for &q in &queries {
        assert_eq!(bits(&epoch.top_k(q as u32, 5)), expected[q], "query {q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_during_append_loses_only_the_torn_record() {
    let dir = temp_dir("crash");
    let path = dir.join("store.imp");
    build_store(&path, 60, 44);
    let snapshot = std::fs::read(&path).unwrap();

    let mut live = open(&path);
    let base_len = live.current().base.len();
    let texts = corpus_texts(3, 2044);
    live.add_batch(&texts).unwrap();
    drop(live);

    // Simulated kill mid-append: the last record's tail never reached disk.
    let wal = wal_path_for(&path);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let mut live = open(&path);
    let epoch = live.current();
    assert_eq!(
        epoch.num_docs(),
        base_len + 2,
        "the two fully durable adds must survive"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        snapshot,
        "recovery must not touch the snapshot"
    );

    // The log keeps working; the torn record's id is reused by the next
    // add (it was never acknowledged as durable).
    let id = live.add(&texts[2]).unwrap();
    assert_eq!(id as usize, base_len + 2);
    drop(live);
    let live = open(&path);
    assert_eq!(live.current().num_docs(), base_len + 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Mean top-k overlap between (a) ingest + compact under frozen centroids
/// and (b) a true full rebuild that re-segments and re-clusters everything.
fn rebuild_overlap(dir: &Path, base_posts: usize, added_posts: usize, seed: u64) -> f64 {
    let path = dir.join(format!("s{seed}.imp"));
    build_store(&path, base_posts, seed);
    let mut live = open(&path);
    let added = corpus_texts(added_posts, seed + 10_000);
    live.add_batch(&added).unwrap();
    live.compact().unwrap();
    let (coll, pipe) = store::load(&path).unwrap();

    // The rebuild sees the same documents the compacted store holds (the
    // snapshot's parse_clean texts), but re-runs the whole offline
    // pipeline, clustering included.
    let texts: Vec<String> = coll.docs.iter().map(|d| d.doc.text.clone()).collect();
    let rebuilt_coll = PostCollection::from_raw_texts(&texts);
    let rebuilt_pipe = IntentPipeline::build(&rebuilt_coll, &PipelineConfig::default());

    let k = 5;
    let mut total = 0.0;
    let mut queries = 0usize;
    for q in 0..coll.len() {
        let a: std::collections::HashSet<u32> =
            pipe.top_k(&coll, q, k).iter().map(|&(d, _)| d).collect();
        let b: std::collections::HashSet<u32> = rebuilt_pipe
            .top_k(&rebuilt_coll, q, k)
            .iter()
            .map(|&(d, _)| d)
            .collect();
        if a.is_empty() && b.is_empty() {
            continue;
        }
        total += a.intersection(&b).count() as f64 / a.len().max(b.len()) as f64;
        queries += 1;
    }
    total / queries.max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Frozen-centroid ingestion is allowed to diverge from a full rebuild
    /// (different clusters → different candidate pools), but the rankings
    /// must stay recognizably related — the divergence is bounded, not
    /// open-ended.
    #[test]
    fn compacted_results_overlap_a_full_rebuild(
        base_posts in 50usize..80,
        added in 8usize..20,
        seed in 0u64..1_000,
    ) {
        let dir = temp_dir("overlap");
        let overlap = rebuild_overlap(&dir, base_posts, added, seed);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(
            overlap >= 0.15,
            "mean top-k overlap {overlap:.3} below bound for seed {seed}"
        );
    }
}
