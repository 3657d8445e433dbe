//! Delta indices for live ingestion: units appended *next to* a frozen
//! base [`SegmentIndex`], scored with the base's statistics.
//!
//! A live system cannot afford to recompute per-cluster TF/IDF statistics
//! on every write. The delta keeps newly ingested units in a small
//! side-structure and scores them with the *base* index's frozen document
//! frequencies and length-normalization average ("deferred IDF refresh"):
//! a term's IDF — and therefore every score — only changes when a
//! compaction folds the delta into the base and rebuilds the statistics.
//! Consequences, by design:
//!
//! * a term that never occurs in the base index has base document
//!   frequency 0, hence IDF 0 — brand-new vocabulary starts contributing
//!   to scores only after the next compaction;
//! * base-unit scores are entirely unaffected by pending writes, so a
//!   serving epoch's ranking is stable between compactions.
//!
//! Tombstones (deleted or superseded documents) are handled on the read
//! path: [`SegmentIndex::top_owners_excluding`] over-fetches by the
//! tombstone count and filters, which returns exactly the top-n *live*
//! owners without touching the frozen postings.

use crate::index::{DocFilter, ScanCosts, ScoreScratch, SegmentIndex, WeightingScheme};
use crate::weighting::{length_normalization, log_tf};
use std::collections::HashSet;
use std::sync::Arc;

/// One delta unit: the term statistics needed to score it against any
/// query under the frozen base statistics. Terms are kept as strings —
/// the delta must not intern into (and thereby mutate) the base vocabulary.
#[derive(Debug, Clone)]
pub struct DeltaUnit {
    /// Owning document id.
    pub owner: u32,
    /// `(term, frequency)` pairs, sorted by term for deterministic lookup.
    pub freqs: Vec<(String, u32)>,
    /// Number of distinct terms.
    pub unique_terms: u32,
    /// Total term occurrences.
    pub total_terms: u32,
    /// `Σ_t (log tf(t) + 1)` — the Eq. 7/8 weight denominator.
    pub log_tf_sum: f64,
    /// `max_t (log tf(t) + 1)` — with the denominator, an upper bound on
    /// any single term's Eq. 8 weight in this unit, used by the
    /// floor-bounded scan to skip units that provably cannot rank.
    pub max_log_tf: f64,
}

/// The pending units of one cluster index, appended between compactions.
///
/// Units are immutable once pushed and held by `Arc`, so cloning a delta
/// (one per published serving epoch) copies pointers, never term tables.
#[derive(Debug, Clone, Default)]
pub struct DeltaIndex {
    units: Vec<Arc<DeltaUnit>>,
}

impl DeltaIndex {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending units.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Whether the delta holds no pending units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The pending units, in append order.
    pub fn units(&self) -> &[Arc<DeltaUnit>] {
        &self.units
    }

    /// Appends a unit with the given (already normalized) terms, owned by
    /// document `owner`.
    pub fn push_unit(&mut self, owner: u32, terms: &[String]) {
        let mut sorted: Vec<&str> = terms.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        let mut freqs: Vec<(String, u32)> = Vec::new();
        for t in sorted {
            match freqs.last_mut() {
                Some((last, f)) if last == t => *f += 1,
                _ => freqs.push((t.to_string(), 1)),
            }
        }
        let log_tf_sum = freqs.iter().map(|&(_, f)| log_tf(f)).sum();
        let max_log_tf = freqs.iter().map(|&(_, f)| log_tf(f)).fold(0.0f64, f64::max);
        let unique_terms = freqs_len(&freqs);
        self.units.push(Arc::new(DeltaUnit {
            owner,
            freqs,
            unique_terms,
            total_terms: terms.len() as u32,
            log_tf_sum,
            max_log_tf,
        }));
    }

    /// Drops every unit owned by `owner` (a deletion or supersession of a
    /// document that was itself added after the last compaction).
    pub fn remove_owner(&mut self, owner: u32) {
        self.units.retain(|u| u.owner != owner);
    }

    /// Scores the pending units against `query` with the **base** index's
    /// frozen statistics and returns the best-scoring unit per owner as
    /// `(owner, score)`, in first-appended owner order, excluding
    /// `exclude_owner` and any owner in `tombstones`. Units scoring ≤ 0
    /// are dropped, mirroring the base scan.
    ///
    /// Only [`WeightingScheme::PaperTfIdf`] is supported on the delta path
    /// (BM25 needs a global average unit length that the frozen base can't
    /// provide for mixed scoring); other schemes fall back to the paper
    /// formula.
    pub fn top_owners_frozen(
        &self,
        base: &SegmentIndex,
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
    ) -> Vec<(u32, f64)> {
        self.top_owners_frozen_counted(
            base,
            query,
            exclude_owner,
            tombstones,
            &mut ScanCosts::default(),
        )
    }

    /// [`DeltaIndex::top_owners_frozen`] that additionally accumulates work
    /// counters into `costs` (delta term lookups count as scanned postings;
    /// excluded, tombstoned, or zero-scoring units count as pruned). The
    /// scoring arithmetic and iteration order are untouched, so results are
    /// bit-identical to the uncounted call.
    pub fn top_owners_frozen_counted(
        &self,
        base: &SegmentIndex,
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        costs: &mut ScanCosts,
    ) -> Vec<(u32, f64)> {
        self.top_owners_frozen_bounded(base, query, exclude_owner, tombstones, None, costs)
    }

    /// [`DeltaIndex::top_owners_frozen_counted`] with an optional score
    /// *floor*: when the caller already holds `n` exact base-scan scores
    /// (a full result page), any delta unit whose score upper bound falls
    /// strictly below the n-th base score can never enter the merged
    /// top-n, so the term loop for it is skipped outright. The bound is
    /// `(max_t log-tf / denominator) · Σ_q qf · idf` — each term of the
    /// unit weighs at most `max_log_tf / denom`, and only query terms can
    /// contribute. Units at or above the floor are scored exactly as the
    /// unbounded scan, so every score that survives the merge is
    /// bit-identical.
    pub fn top_owners_frozen_bounded(
        &self,
        base: &SegmentIndex,
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        floor: Option<f64>,
        costs: &mut ScanCosts,
    ) -> Vec<(u32, f64)> {
        self.top_owners_frozen_filtered(base, query, exclude_owner, tombstones, None, floor, costs)
    }

    /// [`DeltaIndex::top_owners_frozen_bounded`] with a per-document
    /// visibility [`DocFilter`]: hidden owners are skipped before scoring
    /// (like tombstones), so they never occupy a merged result slot. The
    /// floor bound is unaffected — it only ever *skips* units, and hidden
    /// units were going to be dropped anyway.
    #[allow(clippy::too_many_arguments)]
    pub fn top_owners_frozen_filtered(
        &self,
        base: &SegmentIndex,
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        filter: Option<DocFilter>,
        floor: Option<f64>,
        costs: &mut ScanCosts,
    ) -> Vec<(u32, f64)> {
        let _ = WeightingScheme::PaperTfIdf;
        let avg_unique = base.avg_unique_terms();
        // Frozen IDFs depend only on the base index: resolve them once.
        let idfs: Vec<f64> = query.iter().map(|(t, _)| base.idf(t)).collect();
        let qidf_sum: f64 = query
            .iter()
            .zip(&idfs)
            .map(|((_, qf), idf)| f64::from(*qf) * idf)
            .sum();
        let floor = floor.unwrap_or(f64::NEG_INFINITY);
        let mut best: Vec<(u32, f64)> = Vec::new();
        for u in &self.units {
            if exclude_owner == Some(u.owner) || tombstones.contains(&u.owner) {
                costs.candidates_pruned += 1;
                continue;
            }
            if filter.is_some_and(|f| !f(u.owner)) {
                costs.candidates_pruned += 1;
                continue;
            }
            let nu = length_normalization(u.unique_terms as usize, avg_unique);
            let denom = u.log_tf_sum * nu;
            if denom <= 0.0 {
                costs.candidates_pruned += 1;
                continue;
            }
            // `x < -∞` is false: without a floor nothing is skipped.
            if (u.max_log_tf / denom) * qidf_sum * crate::index::BOUND_SLACK < floor {
                costs.early_exits += 1;
                continue;
            }
            let mut score = 0.0;
            for ((term, qf), idf) in query.iter().zip(&idfs) {
                let Some(tf) = lookup(&u.freqs, term) else {
                    continue;
                };
                costs.postings_scanned += 1;
                if *idf <= 0.0 {
                    continue;
                }
                score += f64::from(*qf) * (log_tf(tf) / denom) * *idf;
            }
            if score <= 0.0 {
                costs.candidates_pruned += 1;
                continue;
            }
            match best.iter_mut().find(|(o, _)| *o == u.owner) {
                Some((_, s)) => {
                    if score > *s {
                        *s = score;
                    }
                }
                None => best.push((u.owner, score)),
            }
        }
        best
    }
}

fn freqs_len(freqs: &[(String, u32)]) -> u32 {
    u32::try_from(freqs.len()).expect("too many distinct terms")
}

/// Binary search for `term` in sorted `(term, tf)` pairs.
fn lookup(freqs: &[(String, u32)], term: &str) -> Option<u32> {
    freqs
        .binary_search_by(|(t, _)| t.as_str().cmp(term))
        .ok()
        .map(|i| freqs[i].1)
}

impl SegmentIndex {
    /// [`SegmentIndex::top_owners_with_scratch`] with a *set* of excluded
    /// owners (tombstoned documents) on top of the query's own owner: the
    /// scan over-fetches by `tombstones.len()` and filters, which yields
    /// exactly the top-`n` live owners — a tombstoned owner can only
    /// occupy a slot, never change another owner's score.
    pub fn top_owners_excluding(
        &self,
        query: &[(String, u32)],
        n: usize,
        scheme: WeightingScheme,
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        scratch: &mut ScoreScratch,
    ) -> Vec<(u32, f64)> {
        self.top_owners_excluding_filtered(
            query,
            n,
            scheme,
            exclude_owner,
            tombstones,
            None,
            scratch,
        )
    }

    /// [`SegmentIndex::top_owners_excluding`] with a per-document
    /// visibility [`DocFilter`] threaded into the underlying scan. The
    /// filter is exact *inside* the scan (hidden owners never take a
    /// slot), so only tombstones need the over-fetch treatment.
    #[allow(clippy::too_many_arguments)]
    pub fn top_owners_excluding_filtered(
        &self,
        query: &[(String, u32)],
        n: usize,
        scheme: WeightingScheme,
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        filter: Option<DocFilter>,
        scratch: &mut ScoreScratch,
    ) -> Vec<(u32, f64)> {
        if tombstones.is_empty() {
            return self.top_owners_filtered(query, n, scheme, exclude_owner, filter, scratch);
        }
        let mut over = n.saturating_add(tombstones.len());
        loop {
            let mut hits =
                self.top_owners_filtered(query, over, scheme, exclude_owner, filter, scratch);
            // Fewer hits than requested means the scan ran dry: there are
            // no further positive-scoring owners to fetch.
            let exhausted = hits.len() < over;
            let before = hits.len();
            hits.retain(|(o, _)| !tombstones.contains(o));
            scratch.costs.candidates_pruned += (before - hits.len()) as u64;
            if hits.len() >= n || exhausted {
                hits.truncate(n);
                return hits;
            }
            // Every returned owner is distinct and `tombstones` is a set,
            // so at most `tombstones.len()` hits can ever be filtered and
            // one fetch of `n + len` should always suffice; this retry
            // keeps the read path returning the full page even if the
            // underlying selection ever under-delivers.
            over = over.saturating_mul(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    fn terms(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn base() -> SegmentIndex {
        let mut b = IndexBuilder::new();
        b.add_unit(0, &terms(&["raid", "disk", "controller"]));
        b.add_unit(1, &terms(&["printer", "ink", "jam"]));
        b.add_unit(2, &terms(&["wireless", "driver", "crash"]));
        b.add_unit(3, &terms(&["disk", "boot", "linux"]));
        b.build()
    }

    #[test]
    fn delta_unit_scores_like_an_appended_base_unit_with_frozen_stats() {
        // Score a delta unit directly, then verify against the closed-form
        // frozen formula: (log tf / (log_tf_sum · NU)) · idf_base.
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(9, &terms(&["raid", "raid", "boot"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let hits = delta.top_owners_frozen(&idx, &query, None, &HashSet::new());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 9);
        let nu = length_normalization(2, idx.avg_unique_terms());
        let denom = (log_tf(2) + log_tf(1)) * nu;
        let expected =
            (log_tf(2) / denom) * idx.idf("raid") + (log_tf(1) / denom) * idx.idf("boot");
        assert!((hits[0].1 - expected).abs() < 1e-15, "{}", hits[0].1);
    }

    #[test]
    fn new_vocabulary_scores_zero_until_compaction() {
        // "kubernetes" never occurs in the base: frozen df = 0 ⇒ idf = 0.
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(9, &terms(&["kubernetes", "pod"]));
        let query = SegmentIndex::query_from_terms(&terms(&["kubernetes"]));
        assert!(delta
            .top_owners_frozen(&idx, &query, None, &HashSet::new())
            .is_empty());
    }

    #[test]
    fn delta_respects_exclusions_and_keeps_best_unit_per_owner() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(9, &terms(&["raid"]));
        delta.push_unit(9, &terms(&["raid", "a", "b", "c", "d", "e"]));
        delta.push_unit(7, &terms(&["raid"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid"]));
        let hits = delta.top_owners_frozen(&idx, &query, None, &HashSet::new());
        assert_eq!(hits.len(), 2);
        let nine = hits.iter().find(|&&(o, _)| o == 9).unwrap();
        let seven = hits.iter().find(|&&(o, _)| o == 7).unwrap();
        // Owner 9's score is its best (short) unit, equal to owner 7's.
        assert_eq!(nine.1, seven.1);

        // Excluding the query owner and tombstoning work.
        assert!(delta
            .top_owners_frozen(&idx, &query, Some(9), &HashSet::from([7]))
            .is_empty());
    }

    #[test]
    fn remove_owner_drops_all_units() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(9, &terms(&["raid"]));
        delta.push_unit(9, &terms(&["boot"]));
        delta.push_unit(7, &terms(&["raid"]));
        delta.remove_owner(9);
        assert_eq!(delta.num_units(), 1);
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let hits = delta.top_owners_frozen(&idx, &query, None, &HashSet::new());
        assert_eq!(hits.iter().map(|&(o, _)| o).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn tombstone_filtering_matches_an_index_without_the_owner() {
        // Tombstoning owner 3 must return the same owners, in the same
        // order with the same scores, as scanning with owner 3 skipped —
        // over-fetch + filter is exact.
        let idx = base();
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot", "disk"]));
        let mut scratch = ScoreScratch::new();
        let tomb = HashSet::from([3u32]);
        let filtered = idx.top_owners_excluding(
            &query,
            2,
            WeightingScheme::PaperTfIdf,
            None,
            &tomb,
            &mut scratch,
        );
        let all = idx.top_owners_with(&query, 10, WeightingScheme::PaperTfIdf, None);
        let expected: Vec<(u32, f64)> = all.into_iter().filter(|&(o, _)| o != 3).take(2).collect();
        assert_eq!(filtered, expected);
        assert!(filtered.iter().all(|&(o, _)| o != 3));
    }

    #[test]
    fn overfetch_page_survives_mass_tombstoning() {
        // Regression for the over-fetch edge: tombstone every one of the
        // best-scoring owners so the entire natural first page is
        // excluded, and require the full n eligible owners that remain to
        // be returned — with exactly the scores an exclusion-aware oracle
        // assigns them.
        let mut b = IndexBuilder::new();
        for owner in 0..30u32 {
            // Lower owners score higher ("raid" repeated more).
            let reps = (31 - owner) as usize;
            let mut t = vec!["raid".to_string(); reps];
            t.push(format!("filler{owner}"));
            b.add_unit(owner, &t);
        }
        // Keep "raid" under the 50% IDF cutoff.
        for owner in 30..70u32 {
            b.add_unit(owner, &[format!("pad{owner}")]);
        }
        let idx = b.build();
        let query = SegmentIndex::query_from_terms(&terms(&["raid"]));
        let tomb: HashSet<u32> = (0..25).collect();
        let mut scratch = ScoreScratch::new();
        let hits = idx.top_owners_excluding(
            &query,
            3,
            WeightingScheme::PaperTfIdf,
            None,
            &tomb,
            &mut scratch,
        );
        assert_eq!(hits.len(), 3, "eligible owners remain, page must fill");
        assert_eq!(
            hits.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            vec![25, 26, 27]
        );
        let all = idx.top_owners_with(&query, 40, WeightingScheme::PaperTfIdf, None);
        let expected: Vec<(u32, f64)> = all
            .into_iter()
            .filter(|(o, _)| !tomb.contains(o))
            .take(3)
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn bounded_delta_scan_only_drops_sub_floor_owners() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        // Strong unit (high tf, short), weak units (diluted by filler).
        delta.push_unit(20, &terms(&["raid", "raid", "raid"]));
        delta.push_unit(21, &terms(&["raid", "x1", "x2", "x3", "x4", "x5", "x6"]));
        delta.push_unit(22, &terms(&["boot", "y1", "y2", "y3", "y4", "y5", "y6"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let unbounded = delta.top_owners_frozen(&idx, &query, None, &HashSet::new());
        assert_eq!(unbounded.len(), 3);
        let strong = unbounded.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        // A floor just below the strongest score keeps exactly that owner
        // and skips the weak units without scoring them.
        let floor = strong * 0.999;
        let mut costs = ScanCosts::default();
        let bounded = delta.top_owners_frozen_bounded(
            &idx,
            &query,
            None,
            &HashSet::new(),
            Some(floor),
            &mut costs,
        );
        assert!(costs.early_exits > 0, "weak units must be bound-skipped");
        for &(owner, score) in &bounded {
            let full = unbounded.iter().find(|&&(o, _)| o == owner).unwrap();
            assert_eq!(score.to_bits(), full.1.to_bits(), "owner {owner}");
        }
        // Every unbounded owner at or above the floor survives.
        for &(owner, score) in &unbounded {
            if score >= floor {
                assert!(bounded.iter().any(|&(o, _)| o == owner), "owner {owner}");
            }
        }
        // No floor ⇒ identical to the unbounded scan.
        let no_floor = delta.top_owners_frozen_bounded(
            &idx,
            &query,
            None,
            &HashSet::new(),
            None,
            &mut ScanCosts::default(),
        );
        assert_eq!(no_floor, unbounded);
    }

    #[test]
    fn delta_filter_hides_owners_without_touching_visible_scores() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(20, &terms(&["raid", "raid"]));
        delta.push_unit(21, &terms(&["raid"]));
        delta.push_unit(22, &terms(&["boot"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let all = delta.top_owners_frozen(&idx, &query, None, &HashSet::new());
        assert_eq!(all.len(), 3);
        let visible = |owner: u32| owner != 21;
        let filtered = delta.top_owners_frozen_filtered(
            &idx,
            &query,
            None,
            &HashSet::new(),
            Some(&visible),
            None,
            &mut ScanCosts::default(),
        );
        assert!(filtered.iter().all(|&(o, _)| o != 21));
        for &(owner, score) in &filtered {
            let full = all.iter().find(|&&(o, _)| o == owner).unwrap();
            assert_eq!(score.to_bits(), full.1.to_bits(), "owner {owner}");
        }
        assert_eq!(filtered.len(), 2);
    }

    #[test]
    fn excluding_filtered_composes_tombstones_and_visibility() {
        let idx = base();
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot", "disk"]));
        let tomb = HashSet::from([3u32]);
        let visible = |owner: u32| owner != 0;
        let mut scratch = ScoreScratch::new();
        let hits = idx.top_owners_excluding_filtered(
            &query,
            2,
            WeightingScheme::PaperTfIdf,
            None,
            &tomb,
            Some(&visible),
            &mut scratch,
        );
        let all = idx.top_owners_with(&query, 10, WeightingScheme::PaperTfIdf, None);
        let expected: Vec<(u32, f64)> = all
            .into_iter()
            .filter(|&(o, _)| o != 3 && visible(o))
            .take(2)
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn empty_tombstones_fall_through_unchanged() {
        let idx = base();
        let query = SegmentIndex::query_from_terms(&terms(&["raid"]));
        let mut scratch = ScoreScratch::new();
        let a = idx.top_owners_excluding(
            &query,
            5,
            WeightingScheme::PaperTfIdf,
            Some(1),
            &HashSet::new(),
            &mut scratch,
        );
        let b = idx.top_owners_with(&query, 5, WeightingScheme::PaperTfIdf, Some(1));
        assert_eq!(a, b);
    }
}
