//! Equivalence and corruption tests for the v2 store + `StoreView`:
//!
//! * heap-decoded vs mmap vs pread query paths are **bit-identical**
//!   (scores compared by their IEEE-754 bit patterns),
//! * the property holds across 1/2/4/8 worker threads,
//! * every truncation prefix of a valid store fails `StoreView::open`
//!   cleanly (no panic, no partial state),
//! * flipping bytes in the header or any section is detected by the
//!   checksums on (at the latest) first touch of that section,
//! * v1 stores stay loadable and v1→v2 migration preserves every byte of
//!   the logical state.

use intentmatch::pipeline::{query_cluster_groups, PipelineConfig};
use intentmatch::store::{self, StoreError};
use intentmatch::store_v2;
use intentmatch::view::{top_k_many, BackingMode, HeapStore, StoreView};
use intentmatch::{IntentPipeline, PostCollection};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const K: usize = 5;

fn build(posts: usize, seed: u64) -> (PostCollection, IntentPipeline) {
    let corpus = forum_corpus::Corpus::generate(&forum_corpus::GenConfig {
        domain: forum_corpus::Domain::TechSupport,
        num_posts: posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    (coll, pipe)
}

/// One shared built state + saved v2 store for the whole test binary
/// (building the pipeline is the expensive part).
fn fixture() -> (&'static (PostCollection, IntentPipeline), &'static Path) {
    static BUILT: OnceLock<(PostCollection, IntentPipeline)> = OnceLock::new();
    static STORE: OnceLock<PathBuf> = OnceLock::new();
    let built = BUILT.get_or_init(|| build(150, 77));
    let path = STORE.get_or_init(|| {
        let dir = std::env::temp_dir().join("intentmatch-store-view-test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("fixture.imp");
        store::save(&path, &built.0, &built.1).expect("save v2");
        path
    });
    (built, path)
}

/// Scores compared as raw bit patterns: "bit-identical" means exactly
/// that, not merely approximately equal.
fn bits(results: &[(u32, f64)]) -> Vec<(u32, u64)> {
    results.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

#[test]
fn mapped_results_bit_identical_to_heap() {
    let ((coll, pipe), path) = fixture();
    let mapped = StoreView::open_with(path, BackingMode::Mmap).expect("mmap open");
    let pread = StoreView::open_with(path, BackingMode::Pread).expect("pread open");
    assert_eq!(mapped.backing_name(), "mmap");
    assert_eq!(pread.backing_name(), "pread");
    let mut scratch = intentmatch::pipeline::QueryScratch::new();
    for q in 0..coll.len() {
        let heap = pipe.top_k(coll, q, K);
        let via_mmap = mapped.top_k(q, K, &mut scratch).expect("mmap query");
        let via_pread = pread.top_k(q, K, &mut scratch).expect("pread query");
        assert_eq!(bits(&heap), bits(&via_mmap), "query {q} (mmap)");
        assert_eq!(bits(&heap), bits(&via_pread), "query {q} (pread)");
    }
}

#[test]
fn property_bit_identical_across_thread_counts() {
    let ((coll, pipe), path) = fixture();
    let queries: Vec<usize> = (0..coll.len()).collect();
    let (heap_coll, heap_pipe) = store::decode(&store::encode(coll, pipe)).expect("clone state");
    let heap = HeapStore {
        collection: &heap_coll,
        pipeline: &heap_pipe,
    };
    let baseline = top_k_many(&heap, &queries, K, 1).expect("heap baseline");
    let view = StoreView::open(path).expect("open");
    for threads in [1usize, 2, 4, 8] {
        let mapped = top_k_many(&view, &queries, K, threads).expect("mapped batch");
        assert_eq!(baseline.len(), mapped.len());
        for (q, (a, b)) in baseline.iter().zip(&mapped).enumerate() {
            assert_eq!(bits(a), bits(b), "query {q} at {threads} threads");
        }
        // The heap path over the original build sits behind the same trait.
        let original = HeapStore {
            collection: coll,
            pipeline: pipe,
        };
        let via_heap = top_k_many(&original, &queries, K, threads).expect("heap batch");
        for (q, (a, b)) in baseline.iter().zip(&via_heap).enumerate() {
            assert_eq!(bits(a), bits(b), "heap query {q} at {threads} threads");
        }
    }
}

#[test]
fn hydrated_v2_store_is_structurally_identical() {
    let ((coll, pipe), path) = fixture();
    let (coll2, pipe2) = store::load(path).expect("load v2");
    // The strongest equality we can state: the v1 encoding of the
    // hydrated state is byte-for-byte the v1 encoding of the original.
    assert_eq!(store::encode(&coll2, &pipe2), store::encode(coll, pipe));
}

#[test]
fn lazy_loading_touches_only_consulted_clusters() {
    let ((_, pipe), path) = fixture();
    let view = StoreView::open(path).expect("open");
    assert_eq!(view.num_resident_clusters(), 0, "nothing resident at open");
    let q = 0usize;
    let mut scratch = intentmatch::pipeline::QueryScratch::new();
    view.top_k(q, K, &mut scratch).expect("query");
    let consulted = query_cluster_groups(&pipe.doc_segments, q).len();
    assert_eq!(
        view.num_resident_clusters(),
        consulted,
        "exactly the consulted clusters materialize"
    );
    let resident = view.resident_clusters();
    for g in query_cluster_groups(&pipe.doc_segments, q) {
        assert!(resident[g.cluster], "cluster {} resident", g.cluster);
    }
}

#[test]
fn header_answers_stats_without_touching_sections() {
    let ((coll, pipe), path) = fixture();
    let view = StoreView::open(path).expect("open");
    assert_eq!(view.num_docs(), coll.len());
    assert_eq!(view.num_clusters(), pipe.clusters.len());
    assert_eq!(view.num_noise(), pipe.num_noise);
    assert_eq!(view.weighted_combination(), pipe.weighted_combination);
    for (c, meta) in view.cluster_meta().iter().enumerate() {
        let index = &pipe.clusters[c].index;
        assert_eq!(meta.units as usize, index.num_units(), "cluster {c}");
        assert_eq!(meta.vocab as usize, index.vocabulary().len(), "cluster {c}");
        assert_eq!(meta.postings as usize, index.num_postings(), "cluster {c}");
        assert_eq!(
            meta.avg_unique.to_bits(),
            index.avg_unique_terms().to_bits()
        );
    }
    assert_eq!(
        view.num_resident_clusters(),
        0,
        "stats must not materialize"
    );
}

#[test]
fn every_truncation_prefix_fails_cleanly() {
    // A small dedicated store: the fuzz opens the file once per prefix.
    let (tiny_coll, tiny_pipe) = build(12, 78);
    let dir = std::env::temp_dir().join("intentmatch-store-truncation-test");
    std::fs::create_dir_all(&dir).expect("create dir");
    let path = dir.join("tiny.imp");
    store::save(&path, &tiny_coll, &tiny_pipe).expect("save");
    let full = std::fs::read(&path).expect("read").len() as u64;
    assert!(StoreView::open(&path).is_ok(), "full file opens");

    // Shrink in place one byte at a time; every prefix must fail cleanly.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open for truncation");
    for cut in (0..full).rev() {
        file.set_len(cut).expect("truncate");
        match StoreView::open(&path) {
            Ok(_) => panic!("prefix {cut} of {full} must not open"),
            Err(StoreError::Io(_) | StoreError::Decode(_) | StoreError::Format(_)) => {}
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn byte_flips_are_detected_by_checksums() {
    let (coll, pipe) = build(12, 79);
    let dir = std::env::temp_dir().join("intentmatch-store-byteflip-test");
    std::fs::create_dir_all(&dir).expect("create dir");
    let path = dir.join("flip.imp");
    store::save(&path, &coll, &pipe).expect("save");
    let good = std::fs::read(&path).expect("read");
    let evil_path = dir.join("evil.imp");

    // Any header byte: open itself must fail.
    for offset in 0..store_v2::HEADER_BYTES {
        let mut evil = good.clone();
        evil[offset] ^= 0x10;
        std::fs::write(&evil_path, &evil).expect("write");
        assert!(StoreView::open(&evil_path).is_err(), "header byte {offset}");
    }

    // Any directory byte: open must fail (directory checksum).
    let view = StoreView::open(&path).expect("open good");
    let dir_offset = view.header().dir_offset as usize;
    let dir_len = view.header().dir_len as usize;
    let sections: Vec<_> = view.sections().to_vec();
    drop(view);
    for offset in (dir_offset..dir_offset + dir_len).step_by(7) {
        let mut evil = good.clone();
        evil[offset] ^= 0x10;
        std::fs::write(&evil_path, &evil).expect("write");
        assert!(
            StoreView::open(&evil_path).is_err(),
            "directory byte {offset}"
        );
    }

    // A byte inside each section: detected at (latest) first touch of
    // that section — exercised here by hydrating everything.
    for entry in &sections {
        if entry.len == 0 {
            continue;
        }
        for probe in [0, entry.len / 2, entry.len - 1] {
            let offset = (entry.offset + probe) as usize;
            let mut evil = good.clone();
            evil[offset] ^= 0x10;
            std::fs::write(&evil_path, &evil).expect("write");
            match StoreView::open(&evil_path) {
                // META is verified at open; other sections on touch.
                Err(_) => {}
                Ok(v) => {
                    let hydrate_all = || -> Result<(), StoreError> {
                        for q in 0..v.num_docs() {
                            v.document(q)?;
                            v.doc_segments(q)?;
                        }
                        for c in 0..v.num_clusters() {
                            v.cluster(c)?;
                        }
                        v.centroids()?;
                        v.raw_segmentations()?;
                        Ok(())
                    };
                    assert!(
                        hydrate_all().is_err(),
                        "flip in {} at +{probe} undetected",
                        entry.describe()
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_store_remains_loadable_and_migrates() {
    let ((coll, pipe), _) = fixture();
    let dir = std::env::temp_dir().join("intentmatch-store-v1compat-test");
    std::fs::create_dir_all(&dir).expect("create dir");
    let v1_path = dir.join("legacy.imp");
    store::save_v1(&v1_path, coll, pipe).expect("save v1");
    let head = std::fs::read(&v1_path).expect("read");
    assert_eq!(&head[0..4], b"IMP1");

    // The v1 file loads transparently…
    let (coll1, pipe1) = store::load(&v1_path).expect("load v1");
    assert_eq!(store::encode(&coll1, &pipe1), store::encode(coll, pipe));
    // …but refuses StoreView with a clear error.
    let err = StoreView::open(&v1_path).expect_err("v1 must not open as v2");
    assert!(err.to_string().contains("magic"), "got: {err}");

    // Migration = load + save; the v2 file then serves identical results.
    let v2_path = dir.join("migrated.imp");
    store::save(&v2_path, &coll1, &pipe1).expect("save v2");
    let view = StoreView::open(&v2_path).expect("open migrated");
    let mut scratch = intentmatch::pipeline::QueryScratch::new();
    for q in [0usize, 7, 42] {
        assert_eq!(
            bits(&pipe.top_k(coll, q, K)),
            bits(&view.top_k(q, K, &mut scratch).expect("query")),
            "query {q}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_builds_of_one_corpus_save_byte_identical_stores() {
    // Nothing in the build may depend on hash-seed order: every HashMap in
    // this process gets fresh keys, so two builds must agree bit for bit.
    // Generated posts rarely repeat a term, so twelve posts repeat
    // twenty-four terms 1..=24 times each; each such unit's log-tf sum
    // changes in the last bits under about half of all summation orders.
    let words = [
        "printer",
        "display",
        "router",
        "kernel",
        "monitor",
        "keyboard",
        "battery",
        "laptop",
        "screen",
        "network",
        "server",
        "backup",
        "memory",
        "graphics",
        "firmware",
        "adapter",
        "cable",
        "speaker",
        "wireless",
        "partition",
        "camera",
        "modem",
        "tablet",
        "scanner",
    ];
    let mut texts: Vec<String> = forum_corpus::Corpus::generate(&forum_corpus::GenConfig {
        domain: forum_corpus::Domain::TechSupport,
        num_posts: 150,
        seed: 78,
    })
    .posts
    .into_iter()
    .map(|p| p.text)
    .collect();
    for rotate in 0..12 {
        let mut sentence: Vec<&str> = Vec::new();
        for (i, w) in words
            .iter()
            .cycle()
            .skip(rotate * 5)
            .take(words.len())
            .enumerate()
        {
            sentence.extend(std::iter::repeat_n(*w, i + 1));
        }
        texts.push(format!("My {} failed again.", sentence.join(" ")));
    }
    let dir = std::env::temp_dir().join(format!(
        "intentmatch-store-repro-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let saved: Vec<Vec<u8>> = ["a.imp", "b.imp"]
        .iter()
        .map(|name| {
            let coll = PostCollection::from_raw_texts(&texts);
            let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
            let path = dir.join(name);
            store::save(&path, &coll, &pipe).expect("save v2");
            std::fs::read(&path).expect("read store")
        })
        .collect();
    assert!(
        saved[0] == saved[1],
        "two builds of one corpus saved different bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
