//! Determinism contract of the batch runner: whatever the thread count,
//! whatever the configuration, [`top_k_many`] over the heap backend is
//! bit-identical to the sequential [`IntentPipeline::top_k`].

use intentmatch::pipeline::PipelineConfig;
use intentmatch::{top_k_many, HeapStore, IntentPipeline, PostCollection};

use forum_corpus::{Corpus, Domain, GenConfig};
use proptest::prelude::*;

fn build(num_posts: usize, seed: u64, cfg: &PipelineConfig) -> (PostCollection, IntentPipeline) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, cfg);
    (coll, pipe)
}

/// Batch results must equal the sequential per-query path bit for bit, for
/// every thread count — the tentpole's non-negotiable invariant.
fn assert_batch_equals_sequential(coll: &PostCollection, pipe: &IntentPipeline, k: usize) {
    let queries: Vec<usize> = (0..coll.len()).collect();
    let expected: Vec<Vec<(u32, f64)>> = queries.iter().map(|&q| pipe.top_k(coll, q, k)).collect();
    for threads in [1usize, 2, 4, 8] {
        let heap = HeapStore {
            collection: coll,
            pipeline: pipe,
        };
        let got = top_k_many(&heap, &queries, k, threads).unwrap();
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn batch_matches_sequential_default_config() {
    let (coll, pipe) = build(150, 9001, &PipelineConfig::default());
    assert_batch_equals_sequential(&coll, &pipe, 5);
}

#[test]
fn batch_matches_sequential_skip_refinement() {
    // Without refinement a document may hold several segments (and several
    // index units) in one cluster — the exact shape the double-counting
    // and owner-dedup fixes target. Equivalence must hold here too.
    let cfg = PipelineConfig {
        skip_refinement: true,
        ..Default::default()
    };
    let (coll, pipe) = build(150, 9002, &cfg);
    assert_batch_equals_sequential(&coll, &pipe, 5);
}

#[test]
fn batch_matches_sequential_unweighted() {
    let cfg = PipelineConfig {
        weighted_combination: false,
        ..Default::default()
    };
    let (coll, pipe) = build(120, 9003, &cfg);
    assert_batch_equals_sequential(&coll, &pipe, 5);
}

#[test]
fn batch_keeps_input_order_and_accepts_an_empty_batch() {
    let (coll, pipe) = build(120, 31, &PipelineConfig::default());
    let heap = HeapStore {
        collection: &coll,
        pipeline: &pipe,
    };
    let queries: Vec<usize> = (0..coll.len()).rev().collect();
    let batch = top_k_many(&heap, &queries, 5, 3).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (i, &q) in queries.iter().enumerate() {
        assert_eq!(batch[i], pipe.top_k(&coll, q, 5), "slot {i} (query {q})");
    }
    assert!(top_k_many(&heap, &[], 5, 0).unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random corpora, seeds, thread counts, k and refinement settings:
    /// the batch runner always reproduces the sequential ranking exactly.
    #[test]
    fn batch_equivalence_holds_for_random_corpora(
        num_posts in 30usize..90,
        seed in 0u64..10_000,
        threads in 1usize..9,
        k in 1usize..8,
        skip_refinement in 0u32..2,
    ) {
        let cfg = PipelineConfig {
            skip_refinement: skip_refinement == 1,
            ..Default::default()
        };
        let (coll, pipe) = build(num_posts, seed, &cfg);
        let queries: Vec<usize> = (0..coll.len()).step_by(3).collect();
        let expected: Vec<Vec<(u32, f64)>> =
            queries.iter().map(|&q| pipe.top_k(&coll, q, k)).collect();
        let heap = HeapStore {
            collection: &coll,
            pipeline: &pipe,
        };
        prop_assert_eq!(top_k_many(&heap, &queries, k, threads).unwrap(), expected);
    }
}
