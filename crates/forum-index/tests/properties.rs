//! Property-based tests for the index and weighting invariants.

use forum_index::weighting::{length_normalization, log_tf, probabilistic_idf};
use forum_index::{DocFilter, IndexBuilder, ScoreScratch, SegmentIndex, UnitId, WeightingScheme};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_unit_terms() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-e]{1,3}", 0..12)
}

proptest! {
    /// log-tf is monotone and zero only at zero frequency.
    #[test]
    fn log_tf_monotone(a in 0u32..1000, b in 0u32..1000) {
        if a < b {
            prop_assert!(log_tf(a) < log_tf(b));
        }
        prop_assert!(log_tf(a) >= 0.0);
    }

    /// Probabilistic IDF is non-negative and anti-monotone in document
    /// frequency.
    #[test]
    fn idf_anti_monotone(n in 1usize..10_000, df1 in 0usize..10_000, df2 in 0usize..10_000) {
        let (lo, hi) = if df1 <= df2 { (df1, df2) } else { (df2, df1) };
        let idf_lo = probabilistic_idf(n, lo);
        let idf_hi = probabilistic_idf(n, hi);
        prop_assert!(idf_lo >= 0.0 && idf_hi >= 0.0);
        if lo > 0 && hi <= n {
            prop_assert!(idf_lo >= idf_hi - 1e-12);
        }
    }

    /// Length normalization never rewards short units and is monotone in
    /// unit length.
    #[test]
    fn nu_monotone(u1 in 0usize..500, u2 in 0usize..500, avg in 0.0f64..200.0) {
        let n1 = length_normalization(u1, avg);
        let n2 = length_normalization(u2, avg);
        prop_assert!(n1 >= 1.0 && n2 >= 1.0);
        if u1 <= u2 {
            prop_assert!(n1 <= n2 + 1e-12);
        }
    }

    /// Index invariants: weights are finite and non-negative; the owner
    /// scan's scores are sorted, positive, bounded by n, and name only
    /// indexed owners.
    #[test]
    fn index_invariants(
        units in proptest::collection::vec(arb_unit_terms(), 1..20),
        query in arb_unit_terms(),
        n in 1usize..10,
    ) {
        let mut builder = IndexBuilder::new();
        for (i, terms) in units.iter().enumerate() {
            builder.add_unit(i as u32, terms);
        }
        let index = builder.build();
        prop_assert_eq!(index.num_units(), units.len());

        for (i, terms) in units.iter().enumerate() {
            for t in terms {
                let w = index.weight(t, UnitId(i as u32));
                prop_assert!(w.is_finite() && w > 0.0, "present term weight");
            }
        }

        let q = SegmentIndex::query_from_terms(&query);
        let hits = index.top_owners_excluding_filtered(
            &q,
            n,
            WeightingScheme::PaperTfIdf,
            None,
            &HashSet::new(),
            None,
            &mut ScoreScratch::new(),
        );
        prop_assert!(hits.len() <= n);
        for w in hits.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        for (owner, score) in &hits {
            prop_assert!(score.is_finite() && *score > 0.0);
            prop_assert!((*owner as usize) < units.len());
        }
    }

    /// With one unit per owner (unit id = owner id), the owner scan over
    /// reusable scratch accumulators is bit-identical — order, scores,
    /// tie-breaks — to the collect-then-sort unit reference, for both
    /// weighting schemes and any n (including n larger than the number of
    /// scoring units).
    #[test]
    fn heap_top_n_matches_reference(
        units in proptest::collection::vec(arb_unit_terms(), 1..24),
        queries in proptest::collection::vec(arb_unit_terms(), 1..4),
        n in 1usize..40,
        bm25 in 0u32..2,
    ) {
        let scheme = if bm25 == 1 {
            WeightingScheme::Bm25 { k1: 1.2, b: 0.75 }
        } else {
            WeightingScheme::PaperTfIdf
        };
        let mut builder = IndexBuilder::new();
        for (i, terms) in units.iter().enumerate() {
            builder.add_unit(i as u32, terms);
        }
        let index = builder.build();
        // One reused scratch across several queries: reuse must not leak
        // state between queries.
        let mut scratch = ScoreScratch::new();
        for query in &queries {
            let q = SegmentIndex::query_from_terms(query);
            let got = index.top_owners_excluding_filtered(
                &q,
                n,
                scheme,
                None,
                &HashSet::new(),
                None,
                &mut scratch,
            );
            let want: Vec<(u32, f64)> = index
                .top_n_reference(&q, n, scheme)
                .into_iter()
                .map(|(unit, s)| (index.owner(unit), s))
                .collect();
            prop_assert_eq!(&got, &want, "n={}, scheme={:?}", n, scheme);
        }
    }

    /// Owner aggregation returns n distinct visible owners, each scored by
    /// the max over its units, with the requested owner excluded, the
    /// tombstoned owners dropped and the filter applied inside the scan —
    /// equivalent to aggregating the full reference ranking by hand.
    #[test]
    fn top_owners_matches_manual_aggregation(
        units in proptest::collection::vec(arb_unit_terms(), 1..24),
        query in arb_unit_terms(),
        n in 1usize..10,
        exclude_sel in 0u32..4,
        tombs in proptest::collection::vec(0u32..5, 0..3),
        hide_sel in 0u32..6,
    ) {
        // 0..3 → exclude that owner; 3 → no exclusion.
        let exclude = (exclude_sel < 3).then_some(exclude_sel);
        let tombstones: HashSet<u32> = tombs.into_iter().collect();
        // 0..5 → hide that owner; 5 → no filter.
        let hide = move |owner: u32| owner != hide_sel;
        let filter: Option<DocFilter> = (hide_sel < 5).then_some(&hide as DocFilter);
        let scheme = WeightingScheme::PaperTfIdf;
        let mut builder = IndexBuilder::new();
        for (i, terms) in units.iter().enumerate() {
            // Few owners, many units each: exercises dedup heavily.
            builder.add_unit(i as u32 % 5, terms);
        }
        let index = builder.build();
        let q = SegmentIndex::query_from_terms(&query);
        let got = index.top_owners_excluding_filtered(
            &q,
            n,
            scheme,
            exclude,
            &tombstones,
            filter,
            &mut ScoreScratch::new(),
        );

        // Manual reference: full unit ranking → per-owner max → sort by
        // (score desc, owner asc) → truncate.
        let mut best: std::collections::HashMap<u32, f64> = Default::default();
        for (unit, score) in index.top_n_reference(&q, usize::MAX, scheme) {
            let owner = index.owner(unit);
            if Some(owner) == exclude
                || tombstones.contains(&owner)
                || filter.is_some_and(|f| !f(owner))
            {
                continue;
            }
            let e = best.entry(owner).or_insert(f64::MIN);
            if score > *e {
                *e = score;
            }
        }
        let mut want: Vec<(u32, f64)> = best.into_iter().collect();
        want.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
        });
        want.truncate(n);
        prop_assert_eq!(&got, &want, "n={}, exclude={:?}", n, exclude);

        // Distinctness and exclusion hold by construction of `want`, but
        // assert them on `got` directly too.
        let mut owners: Vec<u32> = got.iter().map(|&(o, _)| o).collect();
        owners.sort_unstable();
        owners.dedup();
        prop_assert_eq!(owners.len(), got.len(), "duplicate owner in result");
        if let Some(x) = exclude {
            prop_assert!(got.iter().all(|&(o, _)| o != x));
        }
        prop_assert!(got.iter().all(|(o, _)| !tombstones.contains(o)));
    }

    /// The same term can weigh differently in different indices built from
    /// different unit populations — the paper's per-intention weighting
    /// property (Fig. 5).
    #[test]
    fn weights_are_population_relative(extra in 1usize..10) {
        let term = "raid".to_string();
        // Index 1: the term is rare.
        let mut b1 = IndexBuilder::new();
        b1.add_unit(0, &[term.clone(), "disk".into()]);
        for i in 0..extra + 5 {
            b1.add_unit(1 + i as u32, &["other".into(), format!("t{i}")]);
        }
        let i1 = b1.build();
        // Index 2: the term is ubiquitous.
        let mut b2 = IndexBuilder::new();
        for i in 0..extra + 6 {
            b2.add_unit(i as u32, &[term.clone(), format!("t{i}")]);
        }
        let i2 = b2.build();
        prop_assert!(i1.idf(&term) > i2.idf(&term));
    }
}
