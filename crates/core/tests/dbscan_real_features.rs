//! Pins DBSCAN's labels on real segment features.
//!
//! The random clouds of `forum-cluster`'s property tests have neither
//! duplicate rows nor constant dimensions; the CM weight vectors of a real
//! corpus have both. This test builds the 28-dim features of 1500
//! Programming posts exactly as `IntentPipeline::build` does (default
//! strategy, auto `min_pts`), checks that the exact engine at several
//! thread counts and the sampled entry point with a sample cap covering
//! every point reproduce the textbook reference label for label, and pins
//! a digest of those labels.

use forum_cluster::{
    dbscan_matrix, dbscan_reference, dbscan_sampled_matrix, segment_features, PointMatrix,
    SEGMENT_FEATURE_DIM,
};
use forum_corpus::{Corpus, Domain, GenConfig};
use intentmatch::pipeline::PipelineConfig;
use intentmatch::PostCollection;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over each label (`u64::MAX` for noise), in point order.
fn digest(labels: &[Option<usize>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in labels {
        for b in l.map_or(u64::MAX, |c| c as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn real_feature_labels_match_the_reference_and_are_pinned() {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::Programming,
        num_posts: 1500,
        seed: 11,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let cfg = PipelineConfig::default();
    let mut features = PointMatrix::with_dim(SEGMENT_FEATURE_DIM);
    for doc in &coll.docs {
        let whole = doc.whole();
        for s in cfg.strategy.run(doc).segments() {
            features.push(&segment_features(&doc.segment_tables(s), &whole));
        }
    }
    let n = features.len();
    let mut dbscan = cfg.dbscan;
    dbscan.min_pts = (n.min(cfg.max_cluster_sample) / 50).max(8);

    let mut bits: Vec<Vec<u64>> = features
        .iter_rows()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect();
    bits.sort_unstable();
    bits.dedup();
    assert_eq!((n, n - bits.len()), (4798, 232), "(points, duplicate rows)");

    let reference = dbscan_reference(&features.to_rows(), &dbscan);
    for threads in [1usize, 2, 4] {
        let got = dbscan_matrix(&features, &dbscan, threads);
        assert_eq!(got.labels, reference.labels, "threads = {threads}");
        assert_eq!(got.num_clusters, reference.num_clusters);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sampled = dbscan_sampled_matrix(&features, &dbscan, n, 2, &mut rng);
    assert_eq!(sampled.labels, reference.labels);
    assert_eq!(sampled.num_clusters, reference.num_clusters);

    assert_eq!(
        (
            reference.num_clusters,
            reference.num_noise(),
            digest(&reference.labels)
        ),
        (9, 1015, 3_498_891_193_128_794_803),
        "(clusters, noise, label digest)"
    );
}
