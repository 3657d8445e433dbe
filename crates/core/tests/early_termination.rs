//! Composition contract: `BandIndex` band pruning, duplicate collapse and
//! the prefix-blocked distance kernel (inside the DBSCAN that forms the
//! intention clusters) and impact-ordered early termination
//! (inside each cluster's index scan) must compose without changing a
//! single ranking. The clusters a query routes to are shaped by the
//! band-pruned neighbourhood scans; the postings each scan touches are
//! shaped by the per-term upper bounds — if either pruning layer were
//! inexact, the composed top-n would diverge from the exhaustive oracle
//! somewhere across random corpora, densities, and depths.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_index::{ScoreScratch, SegmentIndex};
use intentmatch::pipeline::{segment_terms, PipelineConfig};
use intentmatch::{IntentPipeline, PostCollection};
use proptest::prelude::*;
use std::collections::HashSet;

fn build(num_posts: usize, seed: u64, eps: f64) -> (PostCollection, IntentPipeline) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let mut cfg = PipelineConfig::default();
    cfg.dbscan.eps = eps;
    let pipe = IntentPipeline::build(&coll, &cfg);
    (coll, pipe)
}

/// Replays every (document, refined segment) scan of the pipeline at the
/// given depths, pruned vs exhaustive, and asserts bit-identical rankings
/// plus posting-work conservation: every posting the pruned path did not
/// score must be accounted for as an early exit.
fn assert_pruned_matches_exhaustive(
    coll: &PostCollection,
    pipe: &IntentPipeline,
    depths: &[usize],
) {
    let scheme = pipe.weighting;
    let mut scratch = ScoreScratch::new();
    let mut scans = 0usize;
    for q in 0..coll.len() {
        for seg in &pipe.doc_segments[q] {
            let terms = segment_terms(coll, q, seg);
            if terms.is_empty() {
                continue;
            }
            let query = SegmentIndex::query_from_terms(&terms);
            let index = &pipe.clusters[seg.cluster].index;
            for &n in depths {
                let pruned = index.top_owners_excluding_filtered(
                    &query,
                    n,
                    scheme,
                    Some(q as u32),
                    &HashSet::new(),
                    None,
                    &mut scratch,
                );
                let pruned_costs = scratch.costs.take();
                let exhaustive = index.top_owners_exhaustive(
                    &query,
                    n,
                    scheme,
                    Some(q as u32),
                    None,
                    &mut scratch,
                );
                let exhaustive_costs = scratch.costs.take();
                assert_eq!(
                    pruned, exhaustive,
                    "pruned+terminated top-{n} diverges (doc {q}, cluster {})",
                    seg.cluster
                );
                assert_eq!(
                    pruned_costs.postings_scanned + pruned_costs.early_exits,
                    exhaustive_costs.postings_scanned,
                    "posting-work conservation broken (doc {q}, n = {n})"
                );
                scans += 1;
            }
        }
    }
    assert!(
        scans > 0,
        "corpus produced no scans — the test checked nothing"
    );
}

/// The fixed-threshold sweep the issue asks for: eps 0 degenerates every
/// norm band to (near-)exact matches, mid is the production default, high
/// chains most segments into few dense clusters with long postings lists —
/// the regime where early termination actually fires.
#[test]
fn composes_across_density_thresholds() {
    for &eps in &[0.0, 0.7, 2.0] {
        let (coll, pipe) = build(90, 20180417, eps);
        assert_pruned_matches_exhaustive(&coll, &pipe, &[1, 5, 50]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random corpora under random seeds: the composition must hold for
    /// every density threshold and depth, not just the curated defaults.
    #[test]
    fn composes_for_random_corpora(
        posts in 30usize..80,
        seed in 1u64..10_000,
        eps_sel in 0usize..3,
    ) {
        let eps = [0.0, 0.7, 2.0][eps_sel];
        let (coll, pipe) = build(posts, seed, eps);
        assert_pruned_matches_exhaustive(&coll, &pipe, &[1, 5, 50]);
    }
}
