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
//! Because the statistics are frozen, a unit is resolved against the base
//! once, when it is pushed: its terms become base term ids and its Eq. 7/8
//! denominator is fixed. A query then matches units by integer id.
//!
//! Tombstones (deleted or superseded documents) are handled on the read
//! path: [`SegmentIndex::top_owners_excluding_filtered`] treats a
//! tombstoned owner as invisible inside the scan, which returns exactly
//! the top-n *live* owners without touching the frozen postings.

use crate::index::{DocFilter, ScanCosts, SegmentIndex};
use crate::weighting::{length_normalization, log_tf, probabilistic_idf};
use forum_text::TermId;
use std::collections::HashSet;
use std::sync::Arc;

/// One delta unit, resolved against its cluster's frozen base index: the
/// term statistics needed to score it against any query under that
/// index's statistics. Resolution only looks terms up, so the base
/// vocabulary is never mutated.
#[derive(Debug, Clone)]
pub struct DeltaUnit {
    /// Owning document id.
    pub owner: u32,
    /// `(base term id, frequency)` of every term the base indexes, sorted
    /// by id. A term the base never saw has IDF 0 and is left out; it
    /// still counts in the statistics below.
    pub freqs: Vec<(TermId, u32)>,
    /// Number of distinct terms.
    pub unique_terms: u32,
    /// Total term occurrences.
    pub total_terms: u32,
    /// `Σ_t (log tf(t) + 1)`, summed in lexicographic term order.
    pub log_tf_sum: f64,
    /// `max_t (log tf(t) + 1)` — with the denominator, an upper bound on
    /// any single term's Eq. 8 weight in this unit, used by the
    /// floor-bounded scan to skip units that provably cannot rank.
    pub max_log_tf: f64,
    /// The Eq. 7/8 weight denominator `log_tf_sum · NU`, with `NU` taken
    /// against the base's average unique-term count.
    pub denom: f64,
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
    /// document `owner`, resolved against `base` — the frozen index every
    /// later scan of this delta must pass.
    pub fn push_unit(&mut self, base: &SegmentIndex, owner: u32, terms: &[String]) {
        let mut sorted: Vec<&str> = terms.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        let mut counts: Vec<(&str, u32)> = Vec::new();
        for t in sorted {
            match counts.last_mut() {
                Some((last, f)) if *last == t => *f += 1,
                _ => counts.push((t, 1)),
            }
        }
        let log_tf_sum: f64 = counts.iter().map(|&(_, f)| log_tf(f)).sum();
        let max_log_tf = counts
            .iter()
            .map(|&(_, f)| log_tf(f))
            .fold(0.0f64, f64::max);
        let unique_terms = u32::try_from(counts.len()).expect("too many distinct terms");
        let denom =
            log_tf_sum * length_normalization(unique_terms as usize, base.avg_unique_terms());
        let mut freqs: Vec<(TermId, u32)> = counts
            .iter()
            .filter_map(|&(t, f)| Some((base.vocab.get(t)?, f)))
            .collect();
        freqs.sort_unstable_by_key(|&(id, _)| id);
        self.units.push(Arc::new(DeltaUnit {
            owner,
            freqs,
            unique_terms,
            total_terms: terms.len() as u32,
            log_tf_sum,
            max_log_tf,
            denom,
        }));
    }

    /// Drops every unit owned by `owner` (a deletion or supersession of a
    /// document that was itself added after the last compaction).
    pub fn remove_owner(&mut self, owner: u32) {
        self.units.retain(|u| u.owner != owner);
    }

    /// Scores the pending units against `query` with the frozen
    /// statistics of `base` — the index the units were pushed against —
    /// and returns the best-scoring unit per owner as `(owner, score)`, in
    /// first-appended owner order, excluding `exclude_owner`, any owner in
    /// `tombstones` and any owner `filter` hides. Units scoring ≤ 0 are
    /// dropped, mirroring the base scan.
    ///
    /// Each unit's score is `Σ_q qf · (log tf / denom) · idf`, added in
    /// the query's term order over the terms with positive IDF. With a
    /// *floor* (the n-th exact score of a full base page), a unit whose
    /// upper bound `(max log tf / denom) · Σ_q qf · idf` falls strictly
    /// below it can never enter the merged top-n, so it is skipped
    /// unscored; every other unit is scored exactly as without a floor.
    ///
    /// `costs` counts each matched term with positive IDF as a scanned
    /// posting, each floor-skipped unit as an early exit, and each
    /// excluded, hidden or zero-scoring unit as pruned.
    ///
    /// Only [`crate::WeightingScheme::PaperTfIdf`] is supported on the delta path
    /// (BM25 needs a global average unit length that the frozen base can't
    /// provide for mixed scoring); other schemes fall back to the paper
    /// formula.
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
        if self.units.is_empty() {
            return Vec::new();
        }
        // Query terms that can contribute, in query order: (id, qf, idf).
        let terms: Vec<(TermId, f64, f64)> = query
            .iter()
            .filter_map(|(t, qf)| {
                let id = base.vocab.get(t)?;
                let idf = probabilistic_idf(base.num_units(), base.postings(id).len());
                (idf > 0.0).then_some((id, f64::from(*qf), idf))
            })
            .collect();
        let qidf_sum: f64 = terms.iter().map(|&(_, qf, idf)| qf * idf).sum();
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
            let denom = u.denom;
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
            for &(id, qf, idf) in &terms {
                let Ok(i) = u.freqs.binary_search_by_key(&id, |&(t, _)| t) else {
                    continue;
                };
                costs.postings_scanned += 1;
                score += qf * (log_tf(u.freqs[i].1) / denom) * idf;
            }
            if score <= 0.0 {
                costs.candidates_pruned += 1;
                continue;
            }
            best.push((u.owner, score));
        }
        fold_owners(best)
    }
}

/// Keeps each owner's best score, in the order owners first appear:
/// a stable sort by owner, a dedupe that keeps the max, and a sort back
/// into first-appearance order.
fn fold_owners(hits: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    let mut keyed: Vec<(u32, usize, f64)> = hits
        .into_iter()
        .enumerate()
        .map(|(i, (owner, score))| (owner, i, score))
        .collect();
    keyed.sort_unstable_by_key(|&(owner, i, _)| (owner, i));
    keyed.dedup_by(|later, kept| {
        if later.0 != kept.0 {
            return false;
        }
        if later.2 > kept.2 {
            kept.2 = later.2;
        }
        true
    });
    keyed.sort_unstable_by_key(|&(_, i, _)| i);
    keyed
        .into_iter()
        .map(|(owner, _, score)| (owner, score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBuilder, ScoreScratch, WeightingScheme};

    fn terms(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The unfloored, unfiltered delta scan.
    fn frozen(
        delta: &DeltaIndex,
        base: &SegmentIndex,
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
    ) -> Vec<(u32, f64)> {
        let mut costs = ScanCosts::default();
        delta.top_owners_frozen_filtered(
            base,
            query,
            exclude_owner,
            tombstones,
            None,
            None,
            &mut costs,
        )
    }

    /// The delta scan as it was before units were resolved to base term
    /// ids: each unit keeps `(term, tf)` strings and its statistics are
    /// derived per query, every query term is binary-searched by string in
    /// every unit, and owners fold by linear search. The id-keyed scan
    /// must match it bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_scan(
        base: &SegmentIndex,
        units: &[(u32, Vec<String>)],
        query: &[(String, u32)],
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        filter: Option<DocFilter>,
        floor: Option<f64>,
    ) -> Vec<(u32, f64)> {
        let avg_unique = base.avg_unique_terms();
        let idfs: Vec<f64> = query.iter().map(|(t, _)| base.idf(t)).collect();
        let qidf_sum: f64 = query
            .iter()
            .zip(&idfs)
            .map(|((_, qf), idf)| f64::from(*qf) * idf)
            .sum();
        let floor = floor.unwrap_or(f64::NEG_INFINITY);
        let mut best: Vec<(u32, f64)> = Vec::new();
        for (owner, unit_terms) in units {
            let owner = *owner;
            let mut sorted: Vec<&str> = unit_terms.iter().map(String::as_str).collect();
            sorted.sort_unstable();
            let mut freqs: Vec<(String, u32)> = Vec::new();
            for t in sorted {
                match freqs.last_mut() {
                    Some((last, f)) if last == t => *f += 1,
                    _ => freqs.push((t.to_string(), 1)),
                }
            }
            let log_tf_sum: f64 = freqs.iter().map(|&(_, f)| log_tf(f)).sum();
            let max_log_tf = freqs.iter().map(|&(_, f)| log_tf(f)).fold(0.0f64, f64::max);
            if exclude_owner == Some(owner) || tombstones.contains(&owner) {
                continue;
            }
            if filter.is_some_and(|f| !f(owner)) {
                continue;
            }
            let denom = log_tf_sum * length_normalization(freqs.len(), avg_unique);
            if denom <= 0.0 {
                continue;
            }
            if (max_log_tf / denom) * qidf_sum * crate::index::BOUND_SLACK < floor {
                continue;
            }
            let mut score = 0.0;
            for ((term, qf), idf) in query.iter().zip(&idfs) {
                let Ok(i) = freqs.binary_search_by(|(t, _)| t.as_str().cmp(term)) else {
                    continue;
                };
                if *idf <= 0.0 {
                    continue;
                }
                score += f64::from(*qf) * (log_tf(freqs[i].1) / denom) * *idf;
            }
            if score <= 0.0 {
                continue;
            }
            match best.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, s)) => {
                    if score > *s {
                        *s = score;
                    }
                }
                None => best.push((owner, score)),
            }
        }
        best
    }

    fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
        hits.iter().map(|&(o, s)| (o, s.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// Over generated bases, units and queries — with base-absent
        /// terms (`g`, `h`, and most pairs), terms in half the base or
        /// more (IDF 0), several units per owner, empty units, tombstones,
        /// an excluded owner, a visibility filter and floors from none to
        /// the best score — the id-keyed scan returns the reference's
        /// owners, order and score bits.
        #[test]
        fn id_keyed_scan_matches_the_string_keyed_reference(
            base_units in proptest::collection::vec(
                proptest::collection::vec("[a-f]{1,2}", 1..16),
                1..16,
            ),
            units in proptest::collection::vec(
                (0u32..6, proptest::collection::vec("[a-h]{1,2}", 0..24)),
                0..12,
            ),
            query_terms in proptest::collection::vec("[a-h]{1,2}", 0..24),
            tombs in proptest::collection::vec(0u32..6, 0..3),
            exclude in 0u32..8,
            hide in 0u32..4,
            floor_pick in 0u32..4,
        ) {
            let mut b = IndexBuilder::new();
            for (i, t) in base_units.iter().enumerate() {
                b.add_unit(100 + i as u32, t);
            }
            let idx = b.build();
            let mut delta = DeltaIndex::new();
            for (owner, t) in &units {
                delta.push_unit(&idx, *owner, t);
            }
            let query = SegmentIndex::query_from_terms(&query_terms);
            let tombstones: HashSet<u32> = tombs.into_iter().collect();
            let exclude = (exclude < 6).then_some(exclude);
            let hidden = move |owner: u32| owner % 3 != hide;
            let filter: Option<DocFilter> = (hide < 3).then_some(&hidden as DocFilter);
            let best = reference_scan(&idx, &units, &query, None, &HashSet::new(), None, None)
                .iter()
                .map(|&(_, s)| s)
                .fold(0.0, f64::max);
            let floor = match floor_pick {
                0 => None,
                1 => Some(best * 0.5),
                2 => Some(best * 0.999),
                _ => Some(best),
            };
            let expected =
                reference_scan(&idx, &units, &query, exclude, &tombstones, filter, floor);
            let got = delta.top_owners_frozen_filtered(
                &idx,
                &query,
                exclude,
                &tombstones,
                filter,
                floor,
                &mut ScanCosts::default(),
            );
            proptest::prop_assert_eq!(bits(&got), bits(&expected));
        }
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
        delta.push_unit(&idx, 9, &terms(&["raid", "raid", "boot"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let hits = frozen(&delta, &idx, &query, None, &HashSet::new());
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
        delta.push_unit(&idx, 9, &terms(&["kubernetes", "pod"]));
        let query = SegmentIndex::query_from_terms(&terms(&["kubernetes"]));
        assert!(frozen(&delta, &idx, &query, None, &HashSet::new()).is_empty());
    }

    #[test]
    fn delta_respects_exclusions_and_keeps_best_unit_per_owner() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(&idx, 9, &terms(&["raid"]));
        delta.push_unit(&idx, 9, &terms(&["raid", "a", "b", "c", "d", "e"]));
        delta.push_unit(&idx, 7, &terms(&["raid"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid"]));
        let hits = frozen(&delta, &idx, &query, None, &HashSet::new());
        assert_eq!(hits.len(), 2);
        let nine = hits.iter().find(|&&(o, _)| o == 9).unwrap();
        let seven = hits.iter().find(|&&(o, _)| o == 7).unwrap();
        // Owner 9's score is its best (short) unit, equal to owner 7's.
        assert_eq!(nine.1, seven.1);

        // Excluding the query owner and tombstoning work.
        assert!(frozen(&delta, &idx, &query, Some(9), &HashSet::from([7])).is_empty());
    }

    #[test]
    fn remove_owner_drops_all_units() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(&idx, 9, &terms(&["raid"]));
        delta.push_unit(&idx, 9, &terms(&["boot"]));
        delta.push_unit(&idx, 7, &terms(&["raid"]));
        delta.remove_owner(9);
        assert_eq!(delta.num_units(), 1);
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let hits = frozen(&delta, &idx, &query, None, &HashSet::new());
        assert_eq!(hits.iter().map(|&(o, _)| o).collect::<Vec<_>>(), vec![7]);
    }

    /// The base owner scan with tombstones and no filter.
    fn base_scan(
        idx: &SegmentIndex,
        query: &[(String, u32)],
        n: usize,
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
    ) -> Vec<(u32, f64)> {
        idx.top_owners_excluding_filtered(
            query,
            n,
            WeightingScheme::PaperTfIdf,
            exclude_owner,
            tombstones,
            None,
            &mut ScoreScratch::new(),
        )
    }

    #[test]
    fn tombstone_filtering_matches_an_index_without_the_owner() {
        // Tombstoning owner 3 must return the same owners, in the same
        // order with the same scores, as scanning with owner 3 skipped.
        let idx = base();
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot", "disk"]));
        let tomb = HashSet::from([3u32]);
        let filtered = base_scan(&idx, &query, 2, None, &tomb);
        let all = base_scan(&idx, &query, 10, None, &HashSet::new());
        let expected: Vec<(u32, f64)> = all.into_iter().filter(|&(o, _)| o != 3).take(2).collect();
        assert_eq!(filtered, expected);
        assert!(filtered.iter().all(|&(o, _)| o != 3));
    }

    #[test]
    fn page_survives_mass_tombstoning() {
        // Tombstone every one of the best-scoring owners so the entire
        // natural first page is excluded, and require the full n eligible
        // owners that remain to be returned — with exactly the scores an
        // exclusion-aware oracle assigns them.
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
        let hits = base_scan(&idx, &query, 3, None, &tomb);
        assert_eq!(hits.len(), 3, "eligible owners remain, page must fill");
        assert_eq!(
            hits.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            vec![25, 26, 27]
        );
        let all = base_scan(&idx, &query, 40, None, &HashSet::new());
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
        delta.push_unit(&idx, 20, &terms(&["raid", "raid", "raid"]));
        delta.push_unit(
            &idx,
            21,
            &terms(&["raid", "x1", "x2", "x3", "x4", "x5", "x6"]),
        );
        delta.push_unit(
            &idx,
            22,
            &terms(&["boot", "y1", "y2", "y3", "y4", "y5", "y6"]),
        );
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let unbounded = frozen(&delta, &idx, &query, None, &HashSet::new());
        assert_eq!(unbounded.len(), 3);
        let strong = unbounded.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        // A floor just below the strongest score keeps exactly that owner
        // and skips the weak units without scoring them.
        let floor = strong * 0.999;
        let mut costs = ScanCosts::default();
        let bounded = delta.top_owners_frozen_filtered(
            &idx,
            &query,
            None,
            &HashSet::new(),
            None,
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
        let no_floor = delta.top_owners_frozen_filtered(
            &idx,
            &query,
            None,
            &HashSet::new(),
            None,
            None,
            &mut ScanCosts::default(),
        );
        assert_eq!(no_floor, unbounded);
    }

    #[test]
    fn delta_filter_hides_owners_without_touching_visible_scores() {
        let idx = base();
        let mut delta = DeltaIndex::new();
        delta.push_unit(&idx, 20, &terms(&["raid", "raid"]));
        delta.push_unit(&idx, 21, &terms(&["raid"]));
        delta.push_unit(&idx, 22, &terms(&["boot"]));
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "boot"]));
        let all = frozen(&delta, &idx, &query, None, &HashSet::new());
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
        let hits = idx.top_owners_excluding_filtered(
            &query,
            2,
            WeightingScheme::PaperTfIdf,
            None,
            &tomb,
            Some(&visible),
            &mut ScoreScratch::new(),
        );
        let all = base_scan(&idx, &query, 10, None, &HashSet::new());
        let expected: Vec<(u32, f64)> = all
            .into_iter()
            .filter(|&(o, _)| o != 3 && visible(o))
            .take(2)
            .collect();
        assert_eq!(hits, expected);
    }
}
