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

use crate::collection::PostCollection;
use crate::engine::scan_to_trace_costs;
use crate::pipeline::{query_cluster_groups, ClusterIndex, IntentPipeline, RefinedSegment};
use forum_index::{ScanCosts, ScoreScratch, SegmentIndex, WeightingScheme};
use forum_obs::Trace;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

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
}

impl IntentionList<'_> {
    /// Re-scans the intention with a larger page until the prefix covers
    /// `depth` or the list runs dry. Each page is exact, so the prefix is
    /// always a true ranking prefix.
    fn ensure_depth(
        &mut self,
        depth: usize,
        scheme: WeightingScheme,
        exclude: u32,
        scratch: &mut ScoreScratch,
        deepenings: &mut u64,
    ) {
        while self.sorted.len() <= depth && !self.exhausted {
            let want = self
                .sorted
                .len()
                .max(16)
                .saturating_mul(2)
                .max(depth.saturating_add(1));
            let hits = self.index.top_owners_excluding_filtered(
                &self.query,
                want,
                scheme,
                Some(exclude),
                &HashSet::new(),
                None,
                scratch,
            );
            self.exhausted = hits.len() < want;
            self.by_doc = hits.iter().copied().collect();
            self.sorted = hits;
            *deepenings += 1;
        }
    }

    /// The document's exact score in this intention (0 when it has none).
    fn random_access(&self, doc: u32, scheme: WeightingScheme) -> f64 {
        if let Some(&s) = self.by_doc.get(&doc) {
            return s;
        }
        if self.exhausted {
            return 0.0;
        }
        self.index
            .score_owner(&self.query, scheme, doc)
            .unwrap_or(0.0)
    }
}

/// Builds the per-intention lists for query document `q`, fetching an
/// exact top-`initial` prefix of each (`usize::MAX` materializes the full
/// lists, as the brute-force oracle does).
#[allow(clippy::too_many_arguments)] // private plumbing for two call sites
fn intention_lists<'a>(
    collection: &PostCollection,
    doc_segments: &[Vec<RefinedSegment>],
    clusters: &'a [ClusterIndex],
    q: usize,
    weighted: bool,
    scheme: WeightingScheme,
    initial: usize,
    costs: &mut ScanCosts,
) -> Vec<IntentionList<'a>> {
    let mut lists = Vec::new();
    // One scratch across the per-cluster scans: `accumulate_scores` resets
    // it per query, so scores are bit-identical to fresh allocations, and
    // the scan-work counters accumulate across every consulted cluster.
    let mut scratch = ScoreScratch::new();
    // One list per *distinct* consulted cluster (see `query_cluster_groups`)
    // so no intention is counted twice under the `skip_refinement` ablation.
    for group in query_cluster_groups(doc_segments, q) {
        let mut terms = Vec::new();
        for &(a, b) in &group.ranges {
            terms.extend(collection.docs[q].doc.terms_in_sentences(a, b));
        }
        if terms.is_empty() {
            continue;
        }
        let index = &clusters[group.cluster].index;
        let weight = if weighted {
            let mut distinct: Vec<&str> = terms.iter().map(String::as_str).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let mean = distinct.iter().map(|t| index.idf(t)).sum::<f64>() / distinct.len() as f64;
            mean * mean
        } else {
            1.0
        };
        if weight <= 0.0 {
            continue;
        }
        let query = SegmentIndex::query_from_terms(&terms);
        // Exact top-`initial` per-owner prefix, sorted descending. Owner
        // aggregation keeps each document's best unit, so `by_doc` has
        // exactly one entry per document.
        let sorted: Vec<(u32, f64)> = index.top_owners_excluding_filtered(
            &query,
            initial,
            scheme,
            Some(q as u32),
            &HashSet::new(),
            None,
            &mut scratch,
        );
        let exhausted = sorted.len() < initial;
        let by_doc = sorted.iter().copied().collect();
        lists.push(IntentionList {
            weight,
            sorted,
            by_doc,
            exhausted,
            index,
            query,
        });
    }
    costs.merge(&scratch.costs.take());
    lists
}

/// The exact top-k documents related to `q` under the weighted sum of
/// per-intention scores, via the threshold algorithm.
///
/// Observability (process-wide registry): one `online/fagin_queries` count
/// per call, the number of frontier rounds in `online/fagin_rounds`, sorted
/// accesses in `online/fagin_sorted_accesses`, and latency in
/// `online/fagin_ns`.
pub fn exact_top_k(
    collection: &PostCollection,
    pipeline: &IntentPipeline,
    q: usize,
    k: usize,
) -> Vec<(u32, f64)> {
    exact_top_k_traced(collection, pipeline, q, k, None)
}

/// [`exact_top_k`] recording `fagin/lists` (list construction with its
/// scan-work counters) and `fagin/rounds` (the TA loop; sorted accesses
/// count as postings scanned) spans into `trace` when one is supplied.
/// Results are bit-identical with or without a trace.
pub fn exact_top_k_traced(
    collection: &PostCollection,
    pipeline: &IntentPipeline,
    q: usize,
    k: usize,
    mut trace: Option<&mut Trace>,
) -> Vec<(u32, f64)> {
    let obs = forum_obs::Registry::global();
    let timer = obs.is_enabled().then(std::time::Instant::now);
    let mut sorted_accesses = 0u64;
    let mut deepenings = 0u64;
    let scheme = pipeline.weighting;
    let list_start = Instant::now();
    let mut scan_costs = ScanCosts::default();
    // Initial prefix: a few pages of k. Deep enough that most queries
    // resolve without deepening, shallow enough that the index's early
    // termination has a real floor to prune against.
    let initial = k.max(1).saturating_mul(4).max(16);
    let mut lists = intention_lists(
        collection,
        &pipeline.doc_segments,
        &pipeline.clusters,
        q,
        pipeline.weighted_combination,
        scheme,
        initial,
        &mut scan_costs,
    );
    if let Some(t) = trace.as_deref_mut() {
        t.push_span(
            "fagin/lists",
            list_start,
            scan_to_trace_costs(scan_costs, lists.len() as u64),
        );
    }
    let round_start = Instant::now();
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
            l.ensure_depth(depth, scheme, q as u32, &mut round_scratch, &mut deepenings);
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
            sorted_accesses += 1;
            if !seen.insert(doc) {
                continue;
            }
            let score: f64 = lists
                .iter()
                .map(|l| l.weight * l.random_access(doc, scheme))
                .sum();
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
    if let Some(t) = trace {
        let mut round_costs = scan_to_trace_costs(round_scratch.costs.take(), 0);
        round_costs.postings_scanned += sorted_accesses;
        t.push_span("fagin/rounds", round_start, round_costs);
    }
    if let Some(t) = timer {
        obs.incr("online/fagin_queries", 1);
        obs.incr("online/fagin_sorted_accesses", sorted_accesses);
        obs.incr("online/fagin_deepenings", deepenings);
        obs.record("online/fagin_rounds", depth as u64 + 1);
        obs.record_duration("online/fagin_ns", t.elapsed());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use forum_corpus::{Corpus, Domain, GenConfig};

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
        let lists = intention_lists(
            collection,
            &pipeline.doc_segments,
            &pipeline.clusters,
            q,
            pipeline.weighted_combination,
            pipeline.weighting,
            usize::MAX,
            &mut ScanCosts::default(),
        );
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
        let mut costs = ScanCosts::default();
        let mut deepenings = 0u64;
        for q in [0usize, 5, 33, 120] {
            let mut shallow = intention_lists(
                &coll,
                &pipe.doc_segments,
                &pipe.clusters,
                q,
                pipe.weighted_combination,
                pipe.weighting,
                1,
                &mut costs,
            );
            let full = intention_lists(
                &coll,
                &pipe.doc_segments,
                &pipe.clusters,
                q,
                pipe.weighted_combination,
                pipe.weighting,
                usize::MAX,
                &mut costs,
            );
            let mut scratch = ScoreScratch::new();
            for (s, f) in shallow.iter_mut().zip(&full) {
                // Every prefix is a true ranking prefix...
                assert_eq!(s.sorted[..], f.sorted[..s.sorted.len()]);
                // ...random access is bit-identical to the full list...
                for &(doc, score) in f.sorted.iter().take(40) {
                    assert_eq!(
                        s.random_access(doc, pipe.weighting).to_bits(),
                        score.to_bits(),
                        "q={q} doc={doc}"
                    );
                }
                // ...and deepening to any depth reproduces the full list.
                let want = f.sorted.len().min(25);
                if want > 0 {
                    s.ensure_depth(
                        want - 1,
                        pipe.weighting,
                        q as u32,
                        &mut scratch,
                        &mut deepenings,
                    );
                    assert_eq!(s.sorted[..want], f.sorted[..want]);
                }
            }
        }
        assert!(deepenings > 0, "prefix of 1 must force deepening");
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
}
