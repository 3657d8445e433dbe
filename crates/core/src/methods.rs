//! The five methods of the paper's evaluation (Section 9.2, "The
//! Methods"), behind a single [`Matcher`] trait:
//!
//! | method | segmentation | clustering | matching |
//! |---|---|---|---|
//! | `FullText` | none (whole posts) | none | Eq. 7 weighting, one index |
//! | `LDA` | none | topics | θ-similarity scan |
//! | `Content-MR` | TextTiling (topic shifts) | k-means on TF/IDF | Algorithms 1 & 2 |
//! | `SentIntent-MR` | sentences | DBSCAN on CM weights | Algorithms 1 & 2 |
//! | `IntentIntent-MR` | Greedy on CM shifts | DBSCAN on CM weights | Algorithms 1 & 2 |

use crate::collection::PostCollection;
use crate::pipeline::{
    assemble_clusters, ClusterIndex, HeapMr, IntentPipeline, PipelineConfig, QueryScratch,
    RefinedSegment,
};
use forum_cluster::kmeans::{kmeans, KMeansConfig};
use forum_index::{IndexBuilder, ScoreScratch, SegmentIndex, WeightingScheme};
use forum_segment::strategies::Strategy;
use forum_segment::texttiling::{texttiling, TextTilingConfig};
use forum_text::Segment;
use forum_topics::lda::{intern_documents, Lda, LdaConfig};
use forum_topics::retrieval::{rank_by_topics, TopicSimilarity};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// A related-post retrieval method.
pub trait Matcher {
    /// The method's name as used in the paper's tables.
    fn name(&self) -> &'static str;
    /// The top-k documents most related to query document `q`.
    fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)>;
}

/// Which method to build (Table 4 row order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// LDA topic-similarity baseline.
    Lda,
    /// MySQL-style full-text matching over whole posts.
    FullText,
    /// TextTiling segmentation + TF/IDF content clusters + MR matching.
    ContentMr,
    /// Sentence "segmentation" + intention clusters + MR matching.
    SentIntentMr,
    /// The paper's full method.
    IntentIntentMr,
}

impl MethodKind {
    /// All methods, in Table 4 column order.
    pub const ALL: [MethodKind; 5] = [
        MethodKind::Lda,
        MethodKind::FullText,
        MethodKind::ContentMr,
        MethodKind::SentIntentMr,
        MethodKind::IntentIntentMr,
    ];

    /// Builds the method over a collection.
    pub fn build<'a>(self, collection: &'a PostCollection, seed: u64) -> Box<dyn Matcher + 'a> {
        match self {
            MethodKind::Lda => Box::new(LdaMatcher::build(collection, seed)),
            MethodKind::FullText => Box::new(FullTextMatcher::build(collection)),
            MethodKind::ContentMr => Box::new(ContentMrMatcher::build(collection, seed)),
            MethodKind::SentIntentMr => Box::new(MrMatcher::build(
                collection,
                PipelineConfig {
                    strategy: Strategy::Sentences,
                    seed,
                    ..Default::default()
                },
                "SentIntent-MR",
            )),
            MethodKind::IntentIntentMr => Box::new(MrMatcher::build(
                collection,
                PipelineConfig {
                    seed,
                    ..Default::default()
                },
                "IntentIntent-MR",
            )),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Lda => "LDA",
            MethodKind::FullText => "FullText",
            MethodKind::ContentMr => "Content-MR",
            MethodKind::SentIntentMr => "SentIntent-MR",
            MethodKind::IntentIntentMr => "IntentIntent-MR",
        }
    }
}

/// The FullText baseline: a single index over whole posts, Eq. 7 weighting.
pub struct FullTextMatcher<'a> {
    collection: &'a PostCollection,
    index: SegmentIndex,
}

impl<'a> FullTextMatcher<'a> {
    /// Indexes every post as one unit, with unit id = owner id = doc.
    pub fn build(collection: &'a PostCollection) -> Self {
        let mut b = IndexBuilder::new();
        for (d, _) in collection.docs.iter().enumerate() {
            b.add_unit(d as u32, &collection.doc_terms(d));
        }
        FullTextMatcher {
            collection,
            index: b.build(),
        }
    }
}

impl Matcher for FullTextMatcher<'_> {
    fn name(&self) -> &'static str {
        "FullText"
    }

    fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)> {
        let query = SegmentIndex::query_from_terms(&self.collection.doc_terms(q));
        self.index.top_owners_excluding_filtered(
            &query,
            k,
            WeightingScheme::PaperTfIdf,
            Some(q as u32),
            &HashSet::new(),
            None,
            &mut ScoreScratch::new(),
        )
    }
}

/// The LDA baseline: topic model fitted on the collection, retrieval by θ
/// similarity.
pub struct LdaMatcher {
    lda: Lda,
}

impl LdaMatcher {
    /// Fits LDA (10 topics, 150 sweeps) on the collection's term documents.
    pub fn build(collection: &PostCollection, seed: u64) -> Self {
        let term_docs: Vec<Vec<String>> = (0..collection.len())
            .map(|d| collection.doc_terms(d))
            .collect();
        let (ids, vocab) = intern_documents(&term_docs);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lda = Lda::fit(
            &ids,
            vocab.len(),
            LdaConfig {
                num_topics: 10,
                alpha: 0.5,
                beta: 0.01,
                iterations: 150,
            },
            &mut rng,
        );
        LdaMatcher { lda }
    }
}

impl Matcher for LdaMatcher {
    fn name(&self) -> &'static str {
        "LDA"
    }

    fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)> {
        rank_by_topics(&self.lda, q, k, TopicSimilarity::Cosine)
            .into_iter()
            .map(|(d, s)| (d as u32, s))
            .collect()
    }
}

/// A multiple-ranking matcher over intention clusters — covers both
/// `SentIntent-MR` and `IntentIntent-MR`, which differ only in the
/// segmentation strategy the pipeline runs.
pub struct MrMatcher<'a> {
    collection: &'a PostCollection,
    /// The underlying pipeline (exposed for experiments that inspect the
    /// clusters, e.g. Fig. 3 centroids and Table 3 granularity).
    pub pipeline: IntentPipeline,
    name: &'static str,
}

impl<'a> MrMatcher<'a> {
    /// Builds the pipeline with the given configuration.
    pub fn build(collection: &'a PostCollection, cfg: PipelineConfig, name: &'static str) -> Self {
        MrMatcher {
            collection,
            pipeline: IntentPipeline::build(collection, &cfg),
            name,
        }
    }
}

impl Matcher for MrMatcher<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)> {
        self.pipeline.top_k(self.collection, q, k)
    }
}

/// The Content-MR ablation: thematic TextTiling segmentation, TF/IDF
/// segment vectors clustered with k-means, same MR matching.
pub struct ContentMrMatcher<'a> {
    collection: &'a PostCollection,
    doc_segments: Vec<Vec<RefinedSegment>>,
    clusters: Vec<ClusterIndex>,
}

/// Dimensionality of the dense TF/IDF vectors Content-MR clusters (the
/// most frequent terms by document frequency).
const CONTENT_VECTOR_DIM: usize = 300;

/// Number of content clusters (matches the intention-cluster counts the
/// paper reports: 3–5 per dataset).
const CONTENT_CLUSTERS: usize = 5;

impl<'a> ContentMrMatcher<'a> {
    /// Builds the Content-MR structures.
    pub fn build(collection: &'a PostCollection, seed: u64) -> Self {
        // 1. Thematic segmentation.
        let tiling_cfg = TextTilingConfig::default();
        let mut seg_owner: Vec<(usize, Segment)> = Vec::new();
        let mut seg_terms: Vec<Vec<String>> = Vec::new();
        for (d, cm) in collection.docs.iter().enumerate() {
            let seg = texttiling(&cm.doc, &tiling_cfg);
            for s in seg.segments() {
                seg_owner.push((d, s));
                seg_terms.push(cm.doc.terms_in_sentences(s.first, s.end));
            }
        }

        // 2. Dense TF/IDF vectors over the top terms by document frequency.
        let mut df: HashMap<&str, usize> = HashMap::new();
        for terms in &seg_terms {
            let unique: std::collections::HashSet<&str> =
                terms.iter().map(String::as_str).collect();
            for t in unique {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        let mut by_df: Vec<(&str, usize)> = df.iter().map(|(&t, &c)| (t, c)).collect();
        by_df.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_df.truncate(CONTENT_VECTOR_DIM);
        let dim = by_df.len();
        let term_slot: HashMap<&str, usize> = by_df
            .iter()
            .enumerate()
            .map(|(i, &(t, _))| (t, i))
            .collect();
        let n_segs = seg_terms.len() as f64;
        let idf: Vec<f64> = by_df
            .iter()
            .map(|&(_, c)| (n_segs / c as f64).ln().max(0.0) + 1.0)
            .collect();
        let vectors: Vec<Vec<f64>> = seg_terms
            .iter()
            .map(|terms| {
                let mut v = vec![0.0; dim];
                for t in terms {
                    if let Some(&slot) = term_slot.get(t.as_str()) {
                        v[slot] += idf[slot];
                    }
                }
                // L2 normalize so k-means compares directions.
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for x in &mut v {
                        *x /= norm;
                    }
                }
                v
            })
            .collect();

        // 3. k-means content clusters.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let km = kmeans(
            &vectors,
            &KMeansConfig {
                k: CONTENT_CLUSTERS,
                ..Default::default()
            },
            &mut rng,
        );
        let labels: Vec<Option<usize>> = km.labels.iter().map(|&l| Some(l)).collect();

        // 4. Same refinement + indexing as the intention pipeline.
        let (doc_segments, clusters) =
            assemble_clusters(collection, &seg_owner, &labels, km.centroids.len(), false);
        ContentMrMatcher {
            collection,
            doc_segments,
            clusters,
        }
    }
}

impl Matcher for ContentMrMatcher<'_> {
    fn name(&self) -> &'static str {
        "Content-MR"
    }

    fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)> {
        HeapMr {
            collection: self.collection,
            doc_segments: &self.doc_segments,
            clusters: &self.clusters,
            weighted: true,
            scheme: forum_index::WeightingScheme::PaperTfIdf,
        }
        .top_k(q, k, None, &mut QueryScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forum_corpus::{Corpus, Domain, GenConfig};

    fn setup(n: usize) -> (Corpus, PostCollection) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: n,
            seed: 77,
        });
        let coll = PostCollection::from_corpus(&corpus);
        (corpus, coll)
    }

    #[test]
    fn all_methods_build_and_return_lists() {
        let (_, coll) = setup(60);
        for kind in MethodKind::ALL {
            let m = kind.build(&coll, 1);
            assert_eq!(m.name(), kind.name());
            let hits = m.top_k(0, 5);
            assert!(hits.len() <= 5, "{}", m.name());
            assert!(
                hits.iter().all(|&(d, _)| d as usize != 0),
                "{} returned the query",
                m.name()
            );
        }
    }

    #[test]
    fn fulltext_finds_same_problem_posts() {
        let (corpus, coll) = setup(200);
        let m = FullTextMatcher::build(&coll);
        let mut same_problem = 0usize;
        let mut total = 0usize;
        for q in 0..20 {
            for (d, _) in m.top_k(q, 5) {
                if corpus.posts[q].problem == corpus.posts[d as usize].problem {
                    same_problem += 1;
                }
                total += 1;
            }
        }
        // FullText is good at topical (problem) matching; that is exactly
        // its strength in the paper.
        assert!(
            same_problem as f64 / total.max(1) as f64 > 0.5,
            "{same_problem}/{total}"
        );
    }

    #[test]
    fn fulltext_ranks_like_the_reference_with_the_query_skipped() {
        // One unit per post, unit id = owner id = doc: the top k related
        // posts are the reference oracle's top k + 1 units with the query
        // post skipped, owners and score bits included.
        let (_, coll) = setup(150);
        let m = FullTextMatcher::build(&coll);
        let scheme = WeightingScheme::PaperTfIdf;
        for q in 0..coll.len() {
            let query = SegmentIndex::query_from_terms(&coll.doc_terms(q));
            let want: Vec<(u32, u64)> = m
                .index
                .top_n_reference(&query, 6, scheme)
                .into_iter()
                .filter(|&(unit, _)| unit.as_usize() != q)
                .take(5)
                .map(|(unit, s)| (m.index.owner(unit), s.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = m
                .top_k(q, 5)
                .into_iter()
                .map(|(d, s)| (d, s.to_bits()))
                .collect();
            assert_eq!(got, want, "doc {q}");
        }
    }

    #[test]
    fn mr_scores_are_sorted() {
        let (_, coll) = setup(80);
        let m = MethodKind::IntentIntentMr.build(&coll, 5);
        for q in 0..5 {
            let hits = m.top_k(q, 5);
            for w in hits.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn content_mr_builds_content_clusters() {
        let (_, coll) = setup(60);
        let m = ContentMrMatcher::build(&coll, 3);
        assert!(!m.clusters.is_empty());
        // Every document keeps at least one segment.
        assert!(m.doc_segments.iter().all(|s| !s.is_empty()));
    }
}
