//! The threshold algorithm's answers are stable under a deeper request:
//! the exact top-k of a query is a prefix — documents, scores and order —
//! of its exact top-2k. Both runs ride the same pruned per-intention
//! prefix pages (and the deepening that extends them), so a page that
//! were not an exact ranking prefix would show up here as a top-k that
//! disagrees with the head of the top-2k.

use forum_corpus::{Corpus, Domain, GenConfig};
use intentmatch::{exact_top_k, IntentPipeline, PipelineConfig, PostCollection};

#[test]
fn top_k_is_a_prefix_of_top_2k() {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: 300,
        seed: 20180417,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    let k = 5;
    let mut answered = 0usize;
    for q in 0..40 {
        let top_k = exact_top_k(&coll, &pipe, q, k);
        let top_2k = exact_top_k(&coll, &pipe, q, 2 * k);
        assert!(top_2k.len() >= top_k.len(), "query {q}");
        let bits = |hits: &[(u32, f64)]| -> Vec<(u32, u64)> {
            hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
        };
        assert_eq!(
            bits(&top_k),
            bits(&top_2k[..top_k.len()]),
            "TA top-{k} is not a prefix of top-{} for query {q}",
            2 * k
        );
        answered += usize::from(!top_k.is_empty());
    }
    assert!(answered > 20, "too few queries found anything: {answered}");
}
