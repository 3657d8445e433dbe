//! Property-based tests for segmentation scoring, metrics and agreement.

use forum_segment::agreement::{observed_agreement, pairwise_agreement, Annotation};
use forum_segment::diversity::{evenness, richness, shannon};
use forum_segment::metrics::{mult_win_diff, pk, window_diff};
use forum_segment::scoring::ScoreConfig;
use forum_segment::strategies::{greedy_voting, GreedyConfig, Strategy as BorderStrategy};
use forum_segment::CmDoc;
use forum_text::{document::DocId, Document, Segmentation};
use proptest::prelude::*;

proptest! {
    /// WindowDiff and Pk are bounded in [0, 1] and zero on identity.
    #[test]
    fn metrics_are_bounded(
        num_units in 2usize..40,
        k in 1usize..10,
        seed_a in proptest::collection::vec(1usize..40, 0..10),
        seed_b in proptest::collection::vec(1usize..40, 0..10),
    ) {
        let a = Segmentation::from_borders(
            num_units, seed_a.into_iter().filter(|&b| b < num_units).collect());
        let b = Segmentation::from_borders(
            num_units, seed_b.into_iter().filter(|&b| b < num_units).collect());
        let wd = window_diff(&a, &b, k);
        let p = pk(&a, &b, k);
        prop_assert!((0.0..=1.0).contains(&wd));
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert_eq!(window_diff(&a, &a.clone(), k), 0.0);
        prop_assert_eq!(pk(&b, &b.clone(), k), 0.0);
    }

    /// multWinDiff of a hypothesis against identical references equals the
    /// single-reference WindowDiff with the shared window.
    #[test]
    fn mult_win_diff_collapses_on_identical_references(
        num_units in 2usize..40,
        hyp_borders in proptest::collection::vec(1usize..40, 0..8),
        ref_borders in proptest::collection::vec(1usize..40, 0..8),
    ) {
        let hyp = Segmentation::from_borders(
            num_units, hyp_borders.into_iter().filter(|&b| b < num_units).collect());
        let r = Segmentation::from_borders(
            num_units, ref_borders.into_iter().filter(|&b| b < num_units).collect());
        let refs = vec![r.clone(), r.clone(), r.clone()];
        let m = mult_win_diff(&refs, &hyp);
        let k = forum_segment::metrics::shared_window(&refs);
        prop_assert!((m - window_diff(&r, &hyp, k)).abs() < 1e-12);
    }

    /// Shannon diversity is non-negative and bounded by log(arity);
    /// richness and evenness live in [0, 1].
    #[test]
    fn diversity_bounds(row in proptest::collection::vec(0u32..50, 1..6)) {
        let div = shannon(&row, 10.0);
        prop_assert!(div >= 0.0);
        prop_assert!(div <= (row.len() as f64).log10() + 1e-12);
        let r = richness(&row);
        prop_assert!((0.0..=1.0).contains(&r));
        let e = evenness(&row);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&e));
    }

    /// Pairwise agreement is symmetric and bounded.
    #[test]
    fn agreement_is_symmetric(
        a in proptest::collection::vec(0usize..500, 0..8),
        b in proptest::collection::vec(0usize..500, 0..8),
        tol in 0usize..50,
    ) {
        let aa = Annotation::new(a);
        let bb = Annotation::new(b);
        let ab = pairwise_agreement(&aa, &bb, tol);
        let ba = pairwise_agreement(&bb, &aa, tol);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        // Self agreement is perfect.
        prop_assert_eq!(pairwise_agreement(&aa, &aa.clone(), tol), 1.0);
        let anns = vec![aa, bb];
        let oa = observed_agreement(&anns, tol);
        prop_assert!((0.0..=1.0).contains(&oa));
    }
}

/// Strategies always yield valid segmentations on arbitrary word soup.
#[test]
fn strategies_always_yield_valid_segmentations() {
    let words = [
        "the", "disk", "fails", "I", "tried", "it", "works", "why", "not", "ok",
    ];
    let mut texts = Vec::new();
    // Deterministic pseudo-random word soup with sentence punctuation.
    let mut state = 12345u64;
    for _ in 0..30 {
        let mut text = String::new();
        for s in 0..6 {
            for w in 0..5 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (state >> 33) as usize % words.len();
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(words[idx]);
            }
            text.push_str(if s % 3 == 0 { "? " } else { ". " });
        }
        texts.push(text);
    }
    for (i, t) in texts.iter().enumerate() {
        let cmdoc = CmDoc::new(Document::parse_clean(DocId(i as u32), t));
        let n = cmdoc.num_units();
        for strat in [
            BorderStrategy::GreedyVoting(GreedyConfig::default()),
            BorderStrategy::Greedy(GreedyConfig::default()),
            BorderStrategy::Tile(Default::default()),
            BorderStrategy::StepByStep(ScoreConfig::default()),
            BorderStrategy::Sentences,
        ] {
            let seg = strat.run(&cmdoc);
            assert_eq!(seg.num_units(), n.max(1), "{}", strat.name());
            for &b in seg.borders() {
                assert!(b >= 1 && b < n, "{} produced border {b}", strat.name());
            }
        }
    }
}

/// greedy_voting is deterministic.
#[test]
fn greedy_voting_is_deterministic() {
    let text = "I have a disk. It failed yesterday. Do you know why? \
                I tried a new cable. Nothing changed. Any advice would be appreciated.";
    let cmdoc = CmDoc::new(Document::parse_clean(DocId(0), text));
    let a = greedy_voting(&cmdoc, &GreedyConfig::default());
    let b = greedy_voting(&cmdoc, &GreedyConfig::default());
    assert_eq!(a, b);
}

mod scoring_properties {
    use forum_segment::scoring::{CoherenceFn, DepthFn, ScoreConfig};
    use forum_segment::CmDoc;
    use forum_text::{document::DocId, Document, Segment};
    use proptest::prelude::*;

    /// Deterministic word-soup post with mixed sentence styles.
    fn soup(seed: u64, sentences: usize) -> CmDoc {
        let words = [
            "I", "tried", "it", "the", "disk", "fails", "works", "you", "why", "never",
        ];
        let mut state = seed | 1;
        let mut text = String::new();
        for s in 0..sentences {
            for w in 0..4 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(words[(state >> 33) as usize % words.len()]);
            }
            text.push_str(if s % 4 == 1 { "? " } else { ". " });
        }
        CmDoc::new(Document::parse_clean(DocId(0), &text))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Coherence is bounded and depth/score are non-negative and finite
        /// for every configuration and every split point.
        #[test]
        fn scores_are_bounded(seed in 1u64..500, n in 3usize..10, split in 1usize..9) {
            prop_assume!(split < n);
            let doc = soup(seed, n);
            prop_assume!(doc.num_units() == n);
            let configs = [
                ScoreConfig::default(),
                ScoreConfig { coherence: CoherenceFn::Richness, ..Default::default() },
                ScoreConfig { depth: DepthFn::CosineDissimilarity, ..Default::default() },
                ScoreConfig { depth: DepthFn::Euclidean, ..Default::default() },
                ScoreConfig { depth: DepthFn::Manhattan, ..Default::default() },
            ];
            let left = Segment::new(0, split);
            let right = Segment::new(split, n);
            for cfg in configs {
                let coh = cfg.coherence(&doc, 0, n);
                prop_assert!(coh.is_finite() && coh <= 1.0 + 1e-12);
                let depth = cfg.depth(&doc, left, right);
                prop_assert!(depth.is_finite() && depth >= -1e-12);
                let score = cfg.border_score(&doc, left, right);
                prop_assert!(score.is_finite());
            }
        }

        /// Merging two copies of the same distribution is depth-neutral:
        /// a border between two identical-profile segments is never deep.
        #[test]
        fn identical_halves_have_shallow_borders(seed in 1u64..200, half in 2usize..5) {
            let doc = soup(seed, half);
            prop_assume!(doc.num_units() == half);
            // Duplicate the text so both halves are identical.
            let text2 = format!("{} {}", doc.doc.text, doc.doc.text);
            let doubled = CmDoc::new(Document::parse_clean(DocId(1), &text2));
            prop_assume!(doubled.num_units() == 2 * half);
            let cfg = ScoreConfig::default();
            let d = cfg.depth(
                &doubled,
                Segment::new(0, half),
                Segment::new(half, 2 * half),
            );
            // Identical halves: merged coherence equals each half's, so the
            // Eq. 3 depth is exactly zero.
            prop_assert!(d.abs() < 1e-9, "depth {d}");
        }
    }
}

mod lazy_annotation {
    use forum_segment::CmDoc;
    use forum_text::{document::DocId, Document};
    use proptest::prelude::*;

    const WORDS: [&str; 24] = [
        "I",
        "you",
        "they",
        "we",
        "tried",
        "will",
        "was",
        "installed",
        "is",
        "not",
        "never",
        "why",
        "how",
        "the",
        "disk",
        "printer",
        "works",
        "failed",
        "by",
        "help",
        "running",
        "quickly",
        "new",
        "old",
    ];

    /// A post of zero to six sentences over a vocabulary that exercises
    /// every CM (tenses, persons, questions, negation, passives): each
    /// sentence is word indices plus a terminator.
    fn post(sentences: &[(Vec<usize>, u8)]) -> String {
        let sentences: Vec<String> = sentences
            .iter()
            .map(|(words, end)| {
                let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                format!("{}{}", words.join(" "), [".", "?", "!"][*end as usize])
            })
            .collect();
        sentences.join(" ")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A document annotated on demand gives exactly what an eagerly
        /// annotated one gives: the same units, per-sentence tables, range
        /// tables for every range, and whole-document tables.
        #[test]
        fn lazy_annotation_equals_eager(
            sentences in proptest::collection::vec(
                (proptest::collection::vec(0usize..24, 1..9), 0u8..3), 0..7),
            whole_first in 0u8..2,
        ) {
            let text = post(&sentences);
            let eager = CmDoc::new(Document::parse_clean(DocId(0), &text));
            let lazy = CmDoc::parsed(Document::parse_clean(DocId(0), &text));
            let n = eager.num_units();
            prop_assert_eq!(lazy.num_units(), n);
            if whole_first == 1 {
                prop_assert_eq!(lazy.whole(), eager.whole());
            }
            prop_assert_eq!(lazy.sentences().len(), eager.sentences().len());
            for (l, e) in lazy.sentences().iter().zip(eager.sentences()) {
                prop_assert_eq!(l.tables, e.tables);
                prop_assert_eq!(l.num_words, e.num_words);
            }
            for first in 0..=n {
                for end in first..=n {
                    prop_assert_eq!(lazy.tables(first, end), eager.tables(first, end));
                }
            }
            prop_assert_eq!(lazy.whole(), eager.whole());
            prop_assert_eq!(lazy.num_units(), n);
        }
    }

    /// The edge cases by name: an empty post and a one-sentence post.
    #[test]
    fn empty_and_single_sentence_posts_annotate_alike() {
        for text in ["", "Why will the printer not work?"] {
            let eager = CmDoc::new(Document::parse_clean(DocId(0), text));
            let lazy = CmDoc::parsed(Document::parse_clean(DocId(0), text));
            assert_eq!(lazy.num_units(), eager.num_units());
            assert_eq!(lazy.whole(), eager.whole());
            assert_eq!(lazy.sentences().len(), eager.sentences().len());
        }
    }
}
