//! Pins Algorithm 1's scan kernel: the production per-cluster owner scan
//! scores exactly the postings it always scored, to the same bits.
//!
//! * For every document, the heap-loaded live epoch and the mapped store
//!   view answer with identical ids and score bits.
//! * For every consulted cluster, the production owner scan equals an
//!   owner-level max-fold of the uncached `top_n_reference` oracle, bit
//!   for bit.
//! * A digest of every ranking and the summed scan-work counters equal
//!   constants recorded before the kernel's per-unit caches existed, so a
//!   kernel change that scores a different set of postings, or any score
//!   to different bits, fails here. (`heap_displacements` is the one
//!   exception: it counts evictions during top-n selection, which depend
//!   on the order candidates are offered. The hash-map owner fold offered
//!   them in per-process random order, so that count varied run to run;
//!   the dense fold offers them in first-touch order, and the constant is
//!   the deterministic count that order gives.)

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_index::{ScanCosts, ScoreScratch, SegmentIndex, WeightingScheme};
use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::pipeline::QueryScratch;
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, StoreView};
use std::collections::{HashMap, HashSet};

const K: usize = 5;

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

/// The owner-level Algorithm 1 answer computed from the uncached oracle:
/// every unit scored by `top_n_reference`, folded to each owner's best
/// unit, `exclude` dropped, ranked (score desc, owner asc), cut to `n`.
fn reference_owners(
    index: &SegmentIndex,
    query: &[(String, u32)],
    scheme: WeightingScheme,
    exclude: u32,
    n: usize,
) -> Vec<(u32, f64)> {
    let mut best: HashMap<u32, f64> = HashMap::new();
    for (unit, s) in index.top_n_reference(query, usize::MAX, scheme) {
        let owner = index.owner(unit);
        if owner == exclude {
            continue;
        }
        let b = best.entry(owner).or_insert(f64::NEG_INFINITY);
        if s > *b {
            *b = s;
        }
    }
    let mut out: Vec<(u32, f64)> = best.into_iter().collect();
    out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out.truncate(n);
    out
}

fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

#[test]
fn scan_kernel_is_pinned_across_backends_and_oracles() {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: 120,
        seed: 1414,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    let dir = std::env::temp_dir().join(format!("scan-kernel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.imp");
    store::save(&path, &coll, &pipe).unwrap();

    let live = LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();
    let epoch = live.current();
    let view = StoreView::open(&path).unwrap();
    let scheme = epoch.base.pipeline.weighting;

    let mut digest = Digest::new();
    let mut costs = ScanCosts::default();
    let mut scratch = ScoreScratch::new();
    let mut view_scratch = QueryScratch::new();
    let mut scans = 0usize;
    for q in 0..coll.len() as u32 {
        let heap = epoch.top_k(q, K);
        let mapped = view.top_k(q as usize, K, &mut view_scratch).unwrap();
        assert_eq!(bits(&heap), bits(&mapped), "doc {q}: heap vs mapped");
        digest.ranking(&heap);

        for (cluster, terms) in epoch.query_groups(q).unwrap() {
            if terms.is_empty() {
                continue;
            }
            let index = &epoch.base.pipeline.clusters[cluster].index;
            let query = SegmentIndex::query_from_terms(&terms);
            for n in [1, 2 * K] {
                let scan = index.top_owners_excluding_filtered(
                    &query,
                    n,
                    scheme,
                    Some(q),
                    &HashSet::new(),
                    None,
                    &mut scratch,
                );
                costs.merge(&scratch.costs.take());
                let oracle = reference_owners(index, &query, scheme, q, n);
                assert_eq!(
                    bits(&scan),
                    bits(&oracle),
                    "doc {q} cluster {cluster} n {n}: scan vs reference"
                );
                digest.ranking(&scan);
                scans += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    println!("scans {scans} digest {:#018x} costs {costs:?}", digest.0);
    assert!(
        scans > 200,
        "too few cluster scans to pin the kernel: {scans}"
    );
    assert!(costs.early_exits > 0, "the corpus must exercise early exit");
    assert_eq!(digest.0, 0xe699_11aa_a610_3567, "ranking digest");
    assert_eq!(costs.postings_scanned, 116_460, "postings scanned");
    assert_eq!(costs.early_exits, 20_358, "early exits");
    assert_eq!(costs.candidates_pruned, 38_866, "candidates pruned");
    assert_eq!(costs.heap_displacements, 3_343, "heap displacements");
}
