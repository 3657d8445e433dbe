//! Exact top-k combination via Fagin's Threshold Algorithm.
//!
//! Section 7 notes that "instead of considering the top-n documents for
//! each intention, one could consider only those that are above a specific
//! threshold [Fagin, PODS'96]; however, to be fair across all the
//! intentions ... we opted for the top-n approach." This module implements
//! that alternative: the *exact* top-k under the (optionally weighted) sum
//! of per-intention scores, found with the classic threshold algorithm —
//! sorted access down each intention list in parallel, random access to
//! complete each newly seen document's aggregate, and early termination
//! once the k-th best aggregate reaches the threshold (the sum of the
//! current sorted-access frontier).
//!
//! The `ablate_combination` experiment compares it against Algorithm 2's
//! top-n truncation: TA is exact (no document that scores well overall but
//! never cracks a per-intention top-n can be missed) at the cost of deeper
//! list access.

use forum_index::{ScoreScratch, SegmentIndex, WeightingScheme};
use intentmatch::pipeline::{cluster_weight_for_terms, query_cluster_groups, ranges_terms};
use intentmatch::{IntentPipeline, PostCollection};
use std::collections::{HashMap, HashSet};

/// One intention's contribution for a given query: its weight, an *exact
/// prefix* of its ranked list (sorted access), and enough context to
/// deepen the prefix or answer random accesses exactly on demand.
///
/// Materializing the full per-intention ranking defeats the index's
/// impact-ordered early termination (a scan with `n = ∞` can never prune),
/// so TA fetches an exact top-`B` prefix, doubles `B` whenever its frontier
/// outruns the prefix, and answers random accesses for unlisted documents
/// with [`SegmentIndex::score_owner`] — which recomputes the exact Eq. 9
/// owner score bit-identically to the scan.
struct IntentionList<'a> {
    weight: f64,
    /// Exact, descending top-`sorted.len()` prefix of the intention list.
    sorted: Vec<(u32, f64)>,
    /// Random access into the prefix.
    by_doc: HashMap<u32, f64>,
    /// The prefix is the whole positive-scoring list: nothing to deepen,
    /// and absent documents score 0.
    exhausted: bool,
    index: &'a SegmentIndex,
    query: Vec<(String, u32)>,
    scheme: WeightingScheme,
    /// The query document, never listed.
    exclude: u32,
}

impl IntentionList<'_> {
    /// Replaces the prefix with the exact top-`want` page. Owner
    /// aggregation keeps each document's best unit, so `by_doc` has
    /// exactly one entry per document.
    fn fetch(&mut self, want: usize, scratch: &mut ScoreScratch) {
        let hits = self.index.top_owners_excluding_filtered(
            &self.query,
            want,
            self.scheme,
            Some(self.exclude),
            &HashSet::new(),
            None,
            scratch,
        );
        self.exhausted = hits.len() < want;
        self.by_doc = hits.iter().copied().collect();
        self.sorted = hits;
    }

    /// Re-scans the intention with a larger page until the prefix covers
    /// `depth` or the list runs dry. Each page is exact, so the prefix is
    /// always a true ranking prefix.
    fn ensure_depth(&mut self, depth: usize, scratch: &mut ScoreScratch) {
        while self.sorted.len() <= depth && !self.exhausted {
            let want = self
                .sorted
                .len()
                .max(16)
                .saturating_mul(2)
                .max(depth.saturating_add(1));
            self.fetch(want, scratch);
        }
    }

    /// The document's exact score in this intention (0 when it has none).
    fn random_access(&self, doc: u32) -> f64 {
        if let Some(&s) = self.by_doc.get(&doc) {
            return s;
        }
        if self.exhausted {
            return 0.0;
        }
        self.index
            .score_owner(&self.query, self.scheme, doc)
            .unwrap_or(0.0)
    }
}

/// Builds the per-intention lists for query document `q`, fetching an
/// exact top-`initial` prefix of each (`usize::MAX` materializes the full
/// lists, as the brute-force oracle does).
fn intention_lists<'a>(
    collection: &PostCollection,
    pipeline: &'a IntentPipeline,
    q: usize,
    initial: usize,
) -> Vec<IntentionList<'a>> {
    let mut lists = Vec::new();
    // One scratch across the per-cluster scans: `accumulate_scores` resets
    // it per query, so scores are bit-identical to fresh allocations.
    let mut scratch = ScoreScratch::new();
    // One list per *distinct* consulted cluster (see `query_cluster_groups`)
    // so no intention is counted twice under the `skip_refinement` ablation.
    for group in query_cluster_groups(&pipeline.doc_segments, q) {
        let terms = ranges_terms(collection, q, &group.ranges);
        if terms.is_empty() {
            continue;
        }
        let index = &pipeline.clusters[group.cluster].index;
        let weight = if pipeline.weighted_combination {
            cluster_weight_for_terms(index, &terms)
        } else {
            1.0
        };
        if weight <= 0.0 {
            continue;
        }
        let mut list = IntentionList {
            weight,
            sorted: Vec::new(),
            by_doc: HashMap::new(),
            exhausted: false,
            index,
            query: SegmentIndex::query_from_terms(&terms),
            scheme: pipeline.weighting,
            exclude: q as u32,
        };
        list.fetch(initial, &mut scratch);
        lists.push(list);
    }
    lists
}

/// The exact top-k documents related to `q` under the weighted sum of
/// per-intention scores, via the threshold algorithm.
pub fn exact_top_k(
    collection: &PostCollection,
    pipeline: &IntentPipeline,
    q: usize,
    k: usize,
) -> Vec<(u32, f64)> {
    // Initial prefix: a few pages of k. Deep enough that most queries
    // resolve without deepening, shallow enough that the index's early
    // termination has a real floor to prune against.
    let initial = k.max(1).saturating_mul(4).max(16);
    let mut lists = intention_lists(collection, pipeline, q, initial);
    if lists.is_empty() {
        return Vec::new();
    }

    let mut round_scratch = ScoreScratch::new();
    let mut best: Vec<(u32, f64)> = Vec::new(); // kept sorted descending
    let mut seen: HashSet<u32> = HashSet::new();
    let mut depth = 0usize;
    loop {
        // A prefix that ran out while the underlying list still has owners
        // must deepen before the frontier can be trusted as a bound.
        for l in &mut lists {
            l.ensure_depth(depth, &mut round_scratch);
        }
        // Threshold: the weighted sum of the scores at the current frontier
        // (an exhausted list contributes 0 — every document outside it
        // scores 0 there).
        let mut threshold = 0.0;
        let mut any_remaining = false;
        for l in &lists {
            if let Some(&(_, s)) = l.sorted.get(depth) {
                threshold += l.weight * s;
                any_remaining = true;
            }
        }
        if !any_remaining {
            break;
        }
        // Sorted access at this depth on every list; random access completes
        // each newly seen document.
        for i in 0..lists.len() {
            let Some(&(doc, _)) = lists[i].sorted.get(depth) else {
                continue;
            };
            if !seen.insert(doc) {
                continue;
            }
            let score: f64 = lists.iter().map(|l| l.weight * l.random_access(doc)).sum();
            let pos = best
                .binary_search_by(|probe| {
                    score
                        .partial_cmp(&probe.1)
                        .expect("scores are finite")
                        .then(probe.0.cmp(&doc))
                })
                .unwrap_or_else(|p| p);
            best.insert(pos, (doc, score));
            best.truncate(k.max(1) * 2); // keep a small buffer
        }
        // Stop when the k-th best aggregate dominates the threshold.
        if best.len() >= k && best[k - 1].1 >= threshold {
            break;
        }
        depth += 1;
    }
    best.truncate(k);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use forum_corpus::{Corpus, Domain, GenConfig};
    use intentmatch::PipelineConfig;

    fn setup() -> (PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 250,
            seed: 21,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        (coll, pipe)
    }

    /// Brute-force reference: aggregate every document's score directly.
    fn brute_force(
        collection: &PostCollection,
        pipeline: &IntentPipeline,
        q: usize,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let lists = intention_lists(collection, pipeline, q, usize::MAX);
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for l in &lists {
            for &(doc, s) in &l.sorted {
                *acc.entry(doc).or_insert(0.0) += l.weight * s;
            }
        }
        let mut out: Vec<(u32, f64)> = acc.into_iter().collect();
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    #[test]
    fn ta_matches_brute_force() {
        let (coll, pipe) = setup();
        for q in [0usize, 5, 33, 120] {
            let ta = exact_top_k(&coll, &pipe, q, 5);
            let bf = brute_force(&coll, &pipe, q, 5);
            assert_eq!(ta.len(), bf.len(), "query {q}");
            for (a, b) in ta.iter().zip(&bf) {
                // Same scores; document ties may order differently.
                assert!((a.1 - b.1).abs() < 1e-9, "query {q}: {ta:?} vs {bf:?}");
            }
        }
    }

    #[test]
    fn ta_deepening_matches_full_lists() {
        // Force the deepening path: an initial prefix of 1 makes nearly
        // every query outrun its prefix and re-scan deeper. Results must
        // still match the full-list TA exactly.
        let (coll, pipe) = setup();
        let mut deepened = false;
        for q in [0usize, 5, 33, 120] {
            let mut shallow = intention_lists(&coll, &pipe, q, 1);
            let full = intention_lists(&coll, &pipe, q, usize::MAX);
            let mut scratch = ScoreScratch::new();
            for (s, f) in shallow.iter_mut().zip(&full) {
                // Every prefix is a true ranking prefix...
                assert_eq!(s.sorted[..], f.sorted[..s.sorted.len()]);
                // ...random access is bit-identical to the full list...
                for &(doc, score) in f.sorted.iter().take(40) {
                    assert_eq!(
                        s.random_access(doc).to_bits(),
                        score.to_bits(),
                        "q={q} doc={doc}"
                    );
                }
                // ...and deepening to any depth reproduces the full list.
                let want = f.sorted.len().min(25);
                if want > 0 {
                    s.ensure_depth(want - 1, &mut scratch);
                    assert_eq!(s.sorted[..want], f.sorted[..want]);
                    deepened |= want > 1;
                }
            }
        }
        assert!(deepened, "prefix of 1 must force deepening");
    }

    #[test]
    fn ta_never_returns_query_doc() {
        let (coll, pipe) = setup();
        for q in 0..10 {
            assert!(exact_top_k(&coll, &pipe, q, 5)
                .iter()
                .all(|&(d, _)| d as usize != q));
        }
    }

    #[test]
    fn ta_scores_descend() {
        let (coll, pipe) = setup();
        let hits = exact_top_k(&coll, &pipe, 3, 10);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// TA's answers are stable under a deeper request: the exact top-k of
    /// a query is a prefix — documents, scores and order — of its exact
    /// top-2k. Both runs ride the same pruned per-intention prefix pages
    /// (and the deepening that extends them), so a page that were not an
    /// exact ranking prefix would show up here as a top-k that disagrees
    /// with the head of the top-2k.
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
}
