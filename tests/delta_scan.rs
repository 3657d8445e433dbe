//! Pins the live delta scan: pending units score to the same bits, rank
//! the same owners, and do the same counted work, whatever the scan's
//! internal representation.
//!
//! * A seeded base store takes 60 pending adds (some carrying vocabulary
//!   the base never saw), one update of a base document and one delete of
//!   a pending one.
//! * A digest covers every live document's `LiveEpoch::top_k(d, 10)` and,
//!   for every consulted cluster of every live document, the raw
//!   `DeltaIndex::top_owners_frozen_filtered` output without a floor,
//!   under the base page's floor (as the serving path passes it), under
//!   the base's best score as a floor, and under a visibility filter.
//! * The summed delta `postings_scanned` and `early_exits` are pinned too;
//!   `postings_scanned` counts matched query terms with positive IDF.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_index::{DocFilter, ScanCosts, ScoreScratch, SegmentIndex};
use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection};
use std::collections::HashSet;

const K: usize = 10;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ranking(&mut self, hits: &[(u32, f64)]) {
        self.word(hits.len() as u64);
        for &(id, s) in hits {
            self.word(u64::from(id));
            self.word(s.to_bits());
        }
    }
}

fn posts(domain: Domain, n: usize, seed: u64) -> Vec<String> {
    Corpus::generate(&GenConfig {
        domain,
        num_posts: n,
        seed,
    })
    .posts
    .into_iter()
    .map(|p| p.text)
    .collect()
}

#[test]
fn delta_scan_is_pinned() {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: 120,
        seed: 1818,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    let dir = std::env::temp_dir().join(format!("delta-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.imp");
    store::save(&path, &coll, &pipe).unwrap();
    let _ = std::fs::remove_file(forum_ingest::wal_path_for(&path));
    let mut live =
        LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();

    // 44 in-domain posts, 8 of them with words the base never indexed, and
    // 16 from another domain, whose vocabulary is mostly new as well.
    let mut adds = posts(Domain::TechSupport, 44, 1819);
    for (i, text) in adds.iter_mut().take(8).enumerate() {
        text.push_str(&format!(
            " The zorblax{i} kept flickering and the quuxinator{i} froze twice."
        ));
    }
    adds.extend(posts(Domain::Programming, 16, 1820));
    let ids = live.add_batch(&adds).unwrap();
    live.update(5, &posts(Domain::TechSupport, 1, 1821)[0])
        .unwrap();
    live.delete(ids[7]).unwrap();

    let epoch = live.current();
    let pipeline = &epoch.base.pipeline;
    let scheme = pipeline.weighting;
    assert!(epoch.delta.num_units() > 50, "too few pending units");
    let novel = epoch.delta.docs.iter().any(|d| {
        d.refined.iter().zip(&d.terms).any(|(seg, terms)| {
            let vocab = pipeline.clusters[seg.cluster].index.vocabulary();
            terms.iter().any(|t| vocab.get(t).is_none())
        })
    });
    assert!(novel, "no pending unit carries base-absent vocabulary");

    let mut digest = Digest::new();
    let mut costs = ScanCosts::default();
    let mut scratch = ScoreScratch::new();
    let no_tombstones = HashSet::new();
    let visible = |owner: u32| !owner.is_multiple_of(3);
    let visible: DocFilter = &visible;
    let (mut scans, mut delta_hits) = (0usize, 0usize);
    for q in (0..epoch.num_docs() as u32).filter(|&q| epoch.is_live(q)) {
        digest.ranking(&epoch.top_k(q, K));
        for (cluster, terms) in epoch.query_groups(q).unwrap() {
            if terms.is_empty() {
                continue;
            }
            let index = &pipeline.clusters[cluster].index;
            let delta = &epoch.delta.deltas[cluster];
            let query = SegmentIndex::query_from_terms(&terms);
            let n = 2 * K;
            let base = index.top_owners_excluding_filtered(
                &query,
                n,
                scheme,
                Some(q),
                epoch.delta.base_tombstones(),
                None,
                &mut scratch,
            );
            let floor = (base.len() == n).then(|| base[n - 1].1);
            let top = base.first().map(|h| h.1);
            let cases = [
                (None, None),
                (None, floor),
                (None, top),
                (Some(visible), None),
            ];
            for (filter, floor) in cases {
                let hits = delta.top_owners_frozen_filtered(
                    index,
                    &query,
                    Some(q),
                    &no_tombstones,
                    filter,
                    floor,
                    &mut costs,
                );
                delta_hits += hits.len();
                digest.ranking(&hits);
                scans += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "scans {scans} hits {delta_hits} digest {:#018x} costs {costs:?}",
        digest.0
    );
    assert!(scans > 300, "too few delta scans to pin: {scans}");
    assert!(
        delta_hits > 100,
        "delta scans found too little: {delta_hits}"
    );
    assert!(costs.early_exits > 0, "the floor must skip some units");
    assert_eq!(digest.0, 0x7e3b_4203_2b1b_54f8, "ranking digest");
    assert_eq!(costs.postings_scanned, 163_360, "postings scanned");
    assert_eq!(costs.early_exits, 2_581, "early exits");
}
