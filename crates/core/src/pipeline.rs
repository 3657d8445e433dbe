//! The intention-based matching pipeline (Sections 4–7).
//!
//! Offline ([`IntentPipeline::build`]): segmentation → segment weight
//! vectors → DBSCAN intention clusters → segmentation refinement →
//! per-cluster full-text indices. Online ([`IntentPipeline::top_k`]):
//! Algorithm 1 per intention cluster, combined by Algorithm 2.

use crate::collection::PostCollection;
use crate::explain::ClusterTrace;
use forum_cluster::{dbscan_sampled_matrix, segment_features, DbscanConfig, PointMatrix};
use forum_index::{IndexBuilder, SegmentIndex};
use forum_obs::Registry;
use forum_segment::strategies::Strategy;
use forum_text::Segmentation;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Border-selection strategy (the paper selects Greedy with per-CM
    /// voting for the overall evaluation).
    pub strategy: Strategy,
    /// DBSCAN parameters for segment grouping. A `min_pts` of 0 means
    /// *auto*: 2% of the clustered points (at least 8). The high relative
    /// density threshold is what keeps the CM weight space from chaining
    /// into one giant cluster through sparse bridge segments.
    pub dbscan: DbscanConfig,
    /// Sample cap for [`dbscan_sampled_matrix`]; collections with more
    /// segments cluster a sample and assign the rest (Section 9.2.4 uses a
    /// large-dataset clustering library the same way). The default is high
    /// enough that realistic corpora cluster *exactly* — the banded
    /// parallel DBSCAN engine handles hundreds of thousands of segments —
    /// and sampling only kicks in beyond it.
    pub max_cluster_sample: usize,
    /// Assign DBSCAN noise segments to the nearest cluster centroid so
    /// every segment stays searchable. When false, noise segments are
    /// dropped from the indices.
    pub assign_noise: bool,
    /// Seed for the clustering sample.
    pub seed: u64,
    /// Skip the second weight type (Eq. 6) in segment features — ablation
    /// `ablate_weights`; the full method keeps both.
    pub type1_weights_only: bool,
    /// Skip segmentation refinement (concatenating same-document segments
    /// that share a cluster) — ablation `ablate_refinement`.
    pub skip_refinement: bool,
    /// Worker threads for the per-document offline phases (segmentation)
    /// and for clustering's region queries — `1` = sequential (default),
    /// `0` = one per core. Results are bit-identical for every value: the
    /// paper parallelizes segmentation for its 1.5M-post run (Section
    /// 9.2.4), and the DBSCAN engine merges worker-local clusters with a
    /// deterministic union-find.
    pub threads: usize,
    /// Combine per-intention lists with the weighted sum the paper's
    /// Section 7 sanctions ("different weights can be considered for each
    /// cluster"), using an unsupervised weight: the mean probabilistic IDF
    /// of the query segment's distinct terms within its cluster. Clusters
    /// where the query's segment is vocabulary-distinctive (requests,
    /// specific questions) count more than clusters of boilerplate context.
    /// `false` reverts to Algorithm 2's plain sum — ablation
    /// `ablate_weighted_sum`.
    pub weighted_combination: bool,
    /// Term-weighting scheme inside the per-cluster indices: the paper's
    /// Eq. 8 variant or Okapi BM25 (ablation `ablate_bm25`).
    pub weighting: forum_index::WeightingScheme,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            strategy: Strategy::GreedyVoting(Default::default()),
            dbscan: DbscanConfig {
                eps: 0.7,
                min_pts: 0, // auto
            },
            max_cluster_sample: 200_000,
            assign_noise: true,
            seed: 42,
            type1_weights_only: false,
            skip_refinement: false,
            threads: 1,
            weighted_combination: true,
            weighting: forum_index::WeightingScheme::PaperTfIdf,
        }
    }
}

/// Wall-clock cost of each offline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Border selection over all documents.
    pub segmentation: Duration,
    /// Weight-vector construction.
    pub features: Duration,
    /// DBSCAN (the paper's "segment grouping").
    pub clustering: Duration,
    /// Refinement + per-cluster index building.
    pub indexing: Duration,
}

impl BuildTimings {
    /// Total offline time.
    pub fn total(&self) -> Duration {
        self.segmentation + self.features + self.clustering + self.indexing
    }
}

/// A document's segment within one intention cluster, after refinement:
/// possibly several sentence ranges concatenated.
#[derive(Debug, Clone)]
pub struct RefinedSegment {
    /// The intention cluster this segment belongs to.
    pub cluster: usize,
    /// The sentence ranges (half-open) concatenated into this segment.
    pub ranges: Vec<(usize, usize)>,
}

/// One intention cluster's index.
#[derive(Debug)]
pub struct ClusterIndex {
    /// Full-text index whose units are this cluster's refined segments;
    /// unit owners are document ids.
    pub index: SegmentIndex,
}

/// The built pipeline.
#[derive(Debug)]
pub struct IntentPipeline {
    /// Raw (pre-refinement) segmentation of each document.
    pub raw_segmentations: Vec<Segmentation>,
    /// Refined segments per document, each tagged with its cluster.
    pub doc_segments: Vec<Vec<RefinedSegment>>,
    /// Per-cluster indices.
    pub clusters: Vec<ClusterIndex>,
    /// Cluster centroids in the 28-dim weight space (Fig. 3).
    pub centroids: Vec<Vec<f64>>,
    /// Number of segments DBSCAN labelled noise (before any reassignment).
    pub num_noise: usize,
    /// Offline phase timings.
    pub timings: BuildTimings,
    /// Whether [`IntentPipeline::top_k`] uses the weighted combination.
    pub weighted_combination: bool,
    /// The term-weighting scheme applied inside cluster indices.
    pub weighting: forum_index::WeightingScheme,
}

impl IntentPipeline {
    /// Runs the full offline phase over a collection.
    ///
    /// Observability: each phase runs under a [`forum_obs::Span`] in the
    /// process-wide registry (`offline/segmentation`, `offline/features`,
    /// `offline/clustering`, `offline/refinement_indexing`), and the
    /// parallel segmentation phase aggregates per-worker busy time into
    /// `par/worker_busy_ns`. [`BuildTimings`] is a view over the same span
    /// durations, so it stays populated even when the registry is disabled
    /// (the default).
    ///
    /// Panics if a segmentation worker panics; serving processes should
    /// prefer [`Self::try_build`].
    pub fn build(collection: &PostCollection, cfg: &PipelineConfig) -> IntentPipeline {
        Self::try_build(collection, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], but a panic in a segmentation worker is returned as
    /// [`crate::par::WorkerPanic`] (with worker id, chunk range, and the
    /// payload message) instead of aborting the caller — a long-lived
    /// process can log the poisoned build and keep serving its current
    /// epoch.
    pub fn try_build(
        collection: &PostCollection,
        cfg: &PipelineConfig,
    ) -> Result<IntentPipeline, crate::par::WorkerPanic> {
        let obs = Registry::global();
        let build_span = obs.span("offline");
        let mut timings = BuildTimings::default();

        // Phase 1: segmentation (per-document; parallel when configured).
        let span = obs.span("segmentation");
        let raw_segmentations: Vec<Segmentation> = crate::par::try_parallel_map_with(
            &collection.docs,
            cfg.threads,
            |d| cfg.strategy.run(d),
            |r| {
                obs.record("par/worker_busy_ns", r.busy.as_nanos() as u64);
                obs.incr("par/items", r.items as u64);
                obs.incr("par/workers", 1);
            },
        )?;
        timings.segmentation = span.finish();

        // Phase 2: weight vectors, one per raw segment, built directly
        // into the flat storage the clustering kernels consume.
        let span = obs.span("features");
        let feature_dim = if cfg.type1_weights_only {
            forum_nlp::cm::NUM_FEATURES
        } else {
            forum_cluster::SEGMENT_FEATURE_DIM
        };
        let mut seg_owner: Vec<(usize, forum_text::Segment)> = Vec::new();
        let mut features = PointMatrix::with_dim(feature_dim);
        for (d, seg) in raw_segmentations.iter().enumerate() {
            let whole = collection.docs[d].whole();
            for s in seg.segments() {
                let tables = collection.docs[d].segment_tables(s);
                let mut f = segment_features(&tables, &whole);
                f.truncate(feature_dim);
                seg_owner.push((d, s));
                features.push(&f);
            }
        }
        timings.features = span.finish();
        obs.gauge("offline/raw_segments").set(features.len() as i64);

        // Phase 3: segment grouping (DBSCAN).
        let span = obs.span("clustering");
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut dbscan_cfg = cfg.dbscan;
        if dbscan_cfg.min_pts == 0 {
            let effective = features.len().min(cfg.max_cluster_sample);
            dbscan_cfg.min_pts = (effective / 50).max(8);
        }
        let result = dbscan_sampled_matrix(
            &features,
            &dbscan_cfg,
            cfg.max_cluster_sample,
            cfg.threads,
            &mut rng,
        );
        let num_noise = result.num_noise();
        let cluster_stats = result.stats;
        let mut centroids = result.centroids_matrix(&features);
        let mut labels: Vec<Option<usize>> = result.labels;
        if result.num_clusters == 0 {
            // Degenerate: no density anywhere (tiny or uniform input).
            // Fall back to a single cluster holding everything.
            labels = vec![Some(0); features.len()];
            centroids = vec![mean_vector(&features)];
        } else if cfg.assign_noise {
            for (i, l) in labels.iter_mut().enumerate() {
                if l.is_none() {
                    *l = Some(nearest_centroid(features.row(i), &centroids));
                }
            }
        }
        let num_clusters = centroids.len();
        timings.clustering = span.finish();
        obs.gauge("offline/clusters").set(num_clusters as i64);
        obs.gauge("offline/noise_segments").set(num_noise as i64);
        let events = forum_obs::EventLog::global();
        if events.is_enabled() {
            // Dist-eval ratio: distance evaluations as a fraction of the
            // n² a brute-force exact run would need — how much the band,
            // the duplicate collapse and sampling actually saved.
            let n = features.len() as f64;
            let ratio = if n > 0.0 {
                cluster_stats.dist_evals as f64 / (n * n)
            } else {
                0.0
            };
            events.emit(
                "cluster_built",
                forum_obs::json::Json::obj()
                    .with("points", features.len())
                    .with("clusters", num_clusters)
                    .with("noise", num_noise)
                    .with("duration_ms", timings.clustering.as_millis() as u64)
                    .with("dist_eval_ratio", (ratio * 1e6).round() / 1e6),
            );
        }

        // Phase 4: refinement + per-cluster indexing.
        let span = obs.span("refinement_indexing");
        let (doc_segments, clusters) = assemble_clusters(
            collection,
            &seg_owner,
            &labels,
            num_clusters,
            cfg.skip_refinement,
        );
        timings.indexing = span.finish();
        build_span.finish();

        Ok(IntentPipeline {
            raw_segmentations,
            doc_segments,
            clusters,
            centroids,
            num_noise,
            timings,
            weighted_combination: cfg.weighted_combination,
            weighting: cfg.weighting,
        })
    }

    /// Number of intention clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Algorithm 1: the top-n documents related to query document `q` with
    /// respect to a single intention cluster, as `(doc, score)` — the heap
    /// step, unweighted, under the paper's Eq. 8 weighting.
    pub fn single_intention_top_n(
        &self,
        collection: &PostCollection,
        q: usize,
        cluster: usize,
        n: usize,
    ) -> Vec<(u32, f64)> {
        let heap = HeapMr {
            weighted: false,
            scheme: forum_index::WeightingScheme::PaperTfIdf,
            ..HeapMr::of(collection, self)
        };
        query_cluster_groups(&self.doc_segments, q)
            .iter()
            .find(|g| g.cluster == cluster)
            .and_then(|g| heap.step(q, g, n, &mut forum_index::ScoreScratch::new(), None))
            .map_or_else(Vec::new, |scan| scan.hits)
    }

    /// Algorithm 2: the top-k documents related to `q` across all
    /// intentions, combining per-cluster top-n lists with `n = 2k` (the
    /// paper's empirically good choice).
    pub fn top_k(&self, collection: &PostCollection, q: usize, k: usize) -> Vec<(u32, f64)> {
        HeapMr::of(collection, self).top_k(q, k, None, &mut QueryScratch::new())
    }

    /// Algorithm 2 with an explicit per-intention list length `n` (exposed
    /// for the `ablate_top_n` experiment).
    pub fn top_k_with_n(
        &self,
        collection: &PostCollection,
        q: usize,
        k: usize,
        n: usize,
    ) -> Vec<(u32, f64)> {
        HeapMr::of(collection, self).top_k(q, k, Some(n), &mut QueryScratch::new())
    }

    /// Matches a post that is *not* part of the collection: segments it,
    /// assigns each segment to the nearest intention-cluster centroid, and
    /// runs Algorithms 1 & 2 against the built indices.
    ///
    /// This is the online path a deployed system uses for a freshly
    /// submitted post (the collection-resident path, [`Self::top_k`],
    /// serves the paper's evaluation protocol where queries are sampled
    /// from the collection).
    pub fn match_new_post(
        &self,
        cfg: &PipelineConfig,
        raw_text: &str,
        k: usize,
    ) -> Vec<(u32, f64)> {
        Registry::global().incr("online/new_post_queries", 1);
        let doc = forum_text::Document::parse(forum_text::document::DocId(u32::MAX), raw_text);
        let cmdoc = forum_segment::CmDoc::new(doc);
        if cmdoc.num_units() == 0 {
            return Vec::new();
        }
        let seg = cfg.strategy.run(&cmdoc);
        let whole = cmdoc.whole();

        // Assign each raw segment to the nearest centroid, then refine:
        // same-cluster segments concatenate, as in the offline phase. The
        // refined segments come back in first-appearance order, so the
        // per-owner sums below run in the same order in every process.
        let refined = refine_assigned(seg.segments().into_iter().map(|s| {
            let mut f = forum_cluster::segment_features(&cmdoc.segment_tables(s), &whole);
            if cfg.type1_weights_only {
                f.truncate(forum_nlp::cm::NUM_FEATURES);
            }
            (nearest_centroid(&f, &self.centroids), (s.first, s.end))
        }));

        // A new post is in no index, so its scans exclude nobody.
        let Ok(out) = run_algo2(
            &refined,
            k,
            None,
            &mut QueryScratch::new(),
            |seg, n, scratch| {
                let terms = doc_ranges_terms(&cmdoc, &seg.ranges);
                let spec = ScanSpec::new(n, self.weighted_combination, self.weighting);
                Ok::<_, Infallible>(scan_cluster(
                    &self.clusters[seg.cluster].index,
                    &terms,
                    &spec,
                    scratch,
                    None,
                ))
            },
        );
        out
    }

    /// Histogram of segments-per-post for Table 3: `hist[i]` = number of
    /// posts with `i+1` segments (posts with more than `max` segments land
    /// in the last bucket). `refined` selects before/after grouping.
    pub fn granularity_histogram(&self, refined: bool, max: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max];
        let counts: Vec<usize> = if refined {
            self.doc_segments.iter().map(Vec::len).collect()
        } else {
            self.raw_segmentations
                .iter()
                .map(Segmentation::num_segments)
                .collect()
        };
        for c in counts {
            let bucket = c.clamp(1, max) - 1;
            hist[bucket] += 1;
        }
        hist
    }
}

/// Reusable per-worker query scratch: the index-level scoring scratch plus
/// Algorithm 2's combination accumulator. One per thread; the batch
/// runner [`crate::view::top_k_many`] reuses it across every query a
/// worker serves, so the steady-state online path allocates nothing
/// postings-sized.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Dense unit-score accumulators + owner aggregation (see
    /// [`forum_index::ScoreScratch`]); [`run_algo2`] scans with it inline.
    pub(crate) index: forum_index::ScoreScratch,
    /// Algorithm 2's per-document combined scores ([`fold_weighted`]).
    pub(crate) acc: HashMap<u32, f64>,
}

impl QueryScratch {
    /// An empty scratch; it grows to the working set of the queries it
    /// serves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the scan-work counters accumulated since the last take (a
    /// query's cost attribution) and resets them.
    pub fn take_costs(&mut self) -> forum_index::ScanCosts {
        self.index.costs.take()
    }
}

/// One intention cluster consulted by a query document: every refined
/// segment of the query that falls in `cluster`, with sentence ranges
/// concatenated in segment order.
///
/// After segmentation refinement a document holds at most one segment per
/// cluster, so each group is exactly one segment. Under the
/// `skip_refinement` ablation a document may hold several segments in one
/// cluster; grouping them restores Algorithm 2's "one list per intention"
/// contract (scanning the cluster once with all of the query's terms for
/// that intention) instead of scanning the same cluster once per segment —
/// which double-counted every match.
#[derive(Debug, Clone)]
pub struct QueryClusterGroup {
    /// The intention cluster.
    pub cluster: usize,
    /// The query document's sentence ranges refined into this cluster.
    pub ranges: Vec<(usize, usize)>,
}

/// Groups `doc_segments[q]` by cluster, in first-appearance order.
pub fn query_cluster_groups(
    doc_segments: &[Vec<RefinedSegment>],
    q: usize,
) -> Vec<QueryClusterGroup> {
    query_cluster_groups_of(&doc_segments[q])
}

/// [`query_cluster_groups`] over one document's segments directly — the
/// mapped store path ([`crate::view::StoreView`]) holds a single
/// document's segment list, not the whole table, and must group it
/// exactly the way the heap path does.
pub fn query_cluster_groups_of(segs: &[RefinedSegment]) -> Vec<QueryClusterGroup> {
    let mut groups: Vec<QueryClusterGroup> = Vec::new();
    for seg in segs {
        // Linear scan: a document consults a handful of clusters at most.
        match groups.iter_mut().find(|g| g.cluster == seg.cluster) {
            Some(g) => g.ranges.extend_from_slice(&seg.ranges),
            None => groups.push(QueryClusterGroup {
                cluster: seg.cluster,
                ranges: seg.ranges.clone(),
            }),
        }
    }
    groups
}

/// How Algorithm 1 scans one cluster for a query: everything a backend
/// supplies to [`scan_cluster`] besides the cluster's index and the
/// query's terms.
#[derive(Clone, Copy)]
pub struct ScanSpec<'a> {
    /// Per-intention list length: the scan returns at most `n` owners.
    pub n: usize,
    /// Weight the cluster by Eq. 6 ([`cluster_weight_for_terms`]); `false`
    /// weighs every cluster 1.0 (Algorithm 2's plain sum).
    pub weighted: bool,
    /// Term weighting inside the cluster index.
    pub scheme: forum_index::WeightingScheme,
    /// The owner never returned — the query document itself.
    pub exclude: Option<u32>,
    /// Further owners never returned (a live store's deleted and
    /// superseded base documents).
    pub tombstones: Option<&'a HashSet<u32>>,
    /// Per-document visibility, applied inside the postings scan.
    pub filter: Option<forum_index::DocFilter<'a>>,
}

impl ScanSpec<'_> {
    /// A scan of depth `n` that excludes no owner.
    pub fn new(n: usize, weighted: bool, scheme: forum_index::WeightingScheme) -> Self {
        ScanSpec {
            n,
            weighted,
            scheme,
            exclude: None,
            tombstones: None,
            filter: None,
        }
    }
}

/// One consulted cluster's part in Algorithm 2: its combination weight and
/// its Algorithm 1 top-n.
#[derive(Debug, Clone)]
pub struct WeightedHits {
    /// The cluster's combination weight (Eq. 6, or 1.0 unweighted).
    pub weight: f64,
    /// The `(term, frequency)` query the scan ran — a backend with pending
    /// units scans them with the same query.
    pub query: Vec<(String, u32)>,
    /// The top-n `(owner, score)` hits, score descending, owner ascending.
    pub hits: Vec<(u32, f64)>,
}

/// Algorithm 2's per-cluster step: `terms` (the query's terms in this
/// cluster) → the Eq. 6 cluster weight → `None` when the terms are empty
/// or the weight is ≤ 0 → otherwise one Algorithm 1 owner scan of `index`
/// under `spec`.
///
/// Every backend's step runs through here, so this is the one place a
/// cluster weight is computed and the one place a scan counts as
/// `online/algo1_scans` (latency in `online/algo1_ns`). When `explain` is
/// given, the step fills in that cluster's EXPLAIN trace.
pub fn scan_cluster(
    index: &SegmentIndex,
    terms: &[String],
    spec: &ScanSpec<'_>,
    scratch: &mut forum_index::ScoreScratch,
    explain: Option<&mut ClusterTrace>,
) -> Option<WeightedHits> {
    let weight = if spec.weighted {
        cluster_weight_for_terms(index, terms)
    } else {
        1.0
    };
    if terms.is_empty() || weight <= 0.0 {
        if let Some(trace) = explain {
            trace.record_step(terms, weight, &[]);
        }
        return None;
    }
    let obs = Registry::global();
    let timer = obs.is_enabled().then(Instant::now);
    let query = SegmentIndex::query_from_terms(terms);
    let no_tombstones = HashSet::new();
    let hits = index.top_owners_excluding_filtered(
        &query,
        spec.n,
        spec.scheme,
        spec.exclude,
        spec.tombstones.unwrap_or(&no_tombstones),
        spec.filter,
        scratch,
    );
    if let Some(t) = timer {
        obs.incr("online/algo1_scans", 1);
        obs.record_duration("online/algo1_ns", t.elapsed());
    }
    if let Some(trace) = explain {
        trace.record_step(terms, weight, &hits);
    }
    Some(WeightedHits {
        weight,
        query,
        hits,
    })
}

/// Algorithm 2's fold: adds `weight × score` into each owner's combined
/// score, taking the per-cluster lists in the order supplied (callers
/// supply them in consultation order, so every floating-point sum is the
/// same in every backend), then ranks by score descending, owner ascending
/// on ties, and truncates to `k`. `acc` is scratch; it is cleared first.
pub fn fold_weighted<'a>(
    acc: &mut HashMap<u32, f64>,
    scans: impl IntoIterator<Item = (f64, &'a [(u32, f64)])>,
    k: usize,
) -> Vec<(u32, f64)> {
    acc.clear();
    for (weight, hits) in scans {
        for &(owner, score) in hits {
            *acc.entry(owner).or_insert(0.0) += weight * score;
        }
    }
    let mut out: Vec<(u32, f64)> = acc.iter().map(|(&d, &s)| (d, s)).collect();
    out.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("scores are finite")
            .then(a.0.cmp(&b.0))
    });
    out.truncate(k);
    out
}

/// The per-intention list length Algorithm 2 uses by default: `n = 2k`,
/// the paper's empirically good choice (saturating, so no `k` overflows).
pub fn default_list_len(k: usize) -> usize {
    k.saturating_mul(2)
}

/// Algorithm 2's runner: runs `step` over a query's cluster `groups` in
/// consultation order on the calling thread, scanning with `scratch`, and
/// folds the results once ([`fold_weighted`]).
///
/// `k = 0` returns `[]` before any scan. `n` defaults to
/// [`default_list_len`]. The first step error fails the query. Parallelism
/// lives outside the runner: across queries in
/// [`crate::view::top_k_many`], within a query in the sharded fan-out.
///
/// Each call counts one query (`online/queries`) and the whole Algorithm 2
/// latency (`online/algo2_ns`).
pub fn run_algo2<G, E, F>(
    groups: &[G],
    k: usize,
    n: Option<usize>,
    scratch: &mut QueryScratch,
    mut step: F,
) -> Result<Vec<(u32, f64)>, E>
where
    F: FnMut(&G, usize, &mut forum_index::ScoreScratch) -> Result<Option<WeightedHits>, E>,
{
    if k == 0 {
        return Ok(Vec::new());
    }
    let n = n.unwrap_or_else(|| default_list_len(k));
    let obs = Registry::global();
    let timer = obs.is_enabled().then(Instant::now);
    let scans: Vec<Option<WeightedHits>> = groups
        .iter()
        .map(|g| step(g, n, &mut scratch.index))
        .collect::<Result<_, E>>()?;
    let out = fold_weighted(
        &mut scratch.acc,
        scans
            .iter()
            .flatten()
            .map(|s| (s.weight, s.hits.as_slice())),
        k,
    );
    if let Some(t) = timer {
        obs.incr("online/queries", 1);
        obs.record_duration("online/algo2_ns", t.elapsed());
    }
    Ok(out)
}

/// The heap backend of Algorithm 2: collection-resident queries over
/// in-memory cluster indices. The intention pipeline, the Content-MR
/// ablation, the batch runner and EXPLAIN all query through it.
#[derive(Clone, Copy)]
pub(crate) struct HeapMr<'a> {
    pub(crate) collection: &'a PostCollection,
    pub(crate) doc_segments: &'a [Vec<RefinedSegment>],
    pub(crate) clusters: &'a [ClusterIndex],
    pub(crate) weighted: bool,
    pub(crate) scheme: forum_index::WeightingScheme,
}

impl<'a> HeapMr<'a> {
    /// The heap backend over a built pipeline.
    pub(crate) fn of(collection: &'a PostCollection, pipeline: &'a IntentPipeline) -> Self {
        HeapMr {
            collection,
            doc_segments: &pipeline.doc_segments,
            clusters: &pipeline.clusters,
            weighted: pipeline.weighted_combination,
            scheme: pipeline.weighting,
        }
    }

    /// The step for query `q`'s `group`: its terms come from the
    /// collection, its index from the cluster table, and `q` is excluded.
    pub(crate) fn step(
        &self,
        q: usize,
        group: &QueryClusterGroup,
        n: usize,
        scratch: &mut forum_index::ScoreScratch,
        explain: Option<&mut ClusterTrace>,
    ) -> Option<WeightedHits> {
        let terms = ranges_terms(self.collection, q, &group.ranges);
        let spec = ScanSpec {
            exclude: Some(q as u32),
            ..ScanSpec::new(n, self.weighted, self.scheme)
        };
        scan_cluster(
            &self.clusters[group.cluster].index,
            &terms,
            &spec,
            scratch,
            explain,
        )
    }

    /// Algorithm 2 for query `q` on the calling thread.
    pub(crate) fn top_k(
        &self,
        q: usize,
        k: usize,
        n: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> Vec<(u32, f64)> {
        let groups = query_cluster_groups(self.doc_segments, q);
        let Ok(out) = run_algo2(&groups, k, n, scratch, |g, n, s| {
            Ok::<_, Infallible>(self.step(q, g, n, s, None))
        });
        out
    }
}

/// The unsupervised cluster weight of the weighted combination: the mean
/// probabilistic IDF of the distinct query terms within the cluster's
/// index, squared to sharpen the contrast between distinctive
/// (request-like) and boilerplate (context-like) segments.
pub fn cluster_weight_for_terms(index: &SegmentIndex, terms: &[String]) -> f64 {
    if terms.is_empty() {
        return 0.0;
    }
    // Deterministic iteration (a HashSet would make score sums vary in the
    // last ulps between runs).
    let mut distinct: Vec<&str> = terms.iter().map(String::as_str).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let total: f64 = distinct.iter().map(|t| index.idf(t)).sum();
    let mean = total / distinct.len() as f64;
    mean * mean
}

/// The segmentation-refinement and indexing phase, shared by the
/// intention pipeline and the Content-MR ablation: groups each document's
/// segments by cluster label (concatenating same-cluster segments unless
/// `skip_refinement`), then builds one full-text index per cluster.
///
/// `seg_owner[i]` is the owning document and sentence range of segment `i`;
/// `labels[i]` its cluster (`None` = dropped as noise).
pub fn assemble_clusters(
    collection: &PostCollection,
    seg_owner: &[(usize, forum_text::Segment)],
    labels: &[Option<usize>],
    num_clusters: usize,
    skip_refinement: bool,
) -> (Vec<Vec<RefinedSegment>>, Vec<ClusterIndex>) {
    let mut doc_segments: Vec<Vec<RefinedSegment>> = vec![Vec::new(); collection.len()];
    if skip_refinement {
        for (i, &(d, s)) in seg_owner.iter().enumerate() {
            if let Some(c) = labels[i] {
                doc_segments[d].push(RefinedSegment {
                    cluster: c,
                    ranges: vec![(s.first, s.end)],
                });
            }
        }
    } else {
        // Per document, concatenate same-cluster segments.
        let mut per_doc: Vec<HashMap<usize, Vec<(usize, usize)>>> =
            vec![HashMap::new(); collection.len()];
        for (i, &(d, s)) in seg_owner.iter().enumerate() {
            if let Some(c) = labels[i] {
                per_doc[d].entry(c).or_default().push((s.first, s.end));
            }
        }
        for (d, groups) in per_doc.into_iter().enumerate() {
            let mut segs: Vec<RefinedSegment> = groups
                .into_iter()
                .map(|(cluster, mut ranges)| {
                    ranges.sort_unstable();
                    RefinedSegment { cluster, ranges }
                })
                .collect();
            segs.sort_unstable_by_key(|s| s.ranges[0]);
            doc_segments[d] = segs;
        }
    }

    let mut builders: Vec<IndexBuilder> = (0..num_clusters).map(|_| IndexBuilder::new()).collect();
    for (d, segs) in doc_segments.iter().enumerate() {
        for seg in segs {
            let terms = segment_terms(collection, d, seg);
            builders[seg.cluster].add_unit(d as u32, &terms);
        }
    }
    let clusters = builders
        .into_iter()
        .map(|b| ClusterIndex { index: b.build() })
        .collect();
    (doc_segments, clusters)
}

/// Mean of a set of vectors.
fn mean_vector(vecs: &PointMatrix) -> Vec<f64> {
    if vecs.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; vecs.dim()];
    for v in vecs.iter_rows() {
        for (o, x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }
    for o in &mut out {
        *o /= vecs.len() as f64;
    }
    out
}

/// Index of the centroid nearest to `point` (the shared
/// [`forum_cluster::nearest_centroid`] assignment, un-gated: the pipeline
/// always has at least one centroid and assigns every point somewhere).
fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    forum_cluster::nearest_centroid(point, centroids)
        .map(|(i, _)| i)
        .expect("at least one finite centroid")
}

/// Refines one post's cluster-assigned raw segments, given as
/// `(cluster, (first, end))`, the way the offline phase does: segments of
/// one cluster concatenate into a single refined segment with sorted
/// ranges, and the refined segments are ordered by their first range
/// (first-appearance order). The order is a function of the input alone,
/// so anything summed over the result is reproducible across processes.
pub fn refine_assigned(
    assigned: impl IntoIterator<Item = (usize, (usize, usize))>,
) -> Vec<RefinedSegment> {
    let mut refined: Vec<RefinedSegment> = Vec::new();
    for (cluster, range) in assigned {
        // Linear scan: a post touches a handful of clusters at most.
        match refined.iter_mut().find(|s| s.cluster == cluster) {
            Some(s) => s.ranges.push(range),
            None => refined.push(RefinedSegment {
                cluster,
                ranges: vec![range],
            }),
        }
    }
    for s in &mut refined {
        s.ranges.sort_unstable();
    }
    refined.sort_unstable_by_key(|s| s.ranges[0]);
    refined
}

/// The normalized terms of a refined segment.
pub fn segment_terms(collection: &PostCollection, doc: usize, seg: &RefinedSegment) -> Vec<String> {
    ranges_terms(collection, doc, &seg.ranges)
}

/// The normalized terms of `doc`'s sentences covered by `ranges`, in range
/// order.
pub fn ranges_terms(
    collection: &PostCollection,
    doc: usize,
    ranges: &[(usize, usize)],
) -> Vec<String> {
    doc_ranges_terms(&collection.docs[doc], ranges)
}

/// [`ranges_terms`] over a single annotated document — the unit the mapped
/// store path materializes lazily, and what a post outside any collection
/// (a new or pending post) is queried with.
pub fn doc_ranges_terms(doc: &forum_segment::CmDoc, ranges: &[(usize, usize)]) -> Vec<String> {
    let mut terms = Vec::new();
    for &(first, end) in ranges {
        terms.extend(doc.doc.terms_in_sentences(first, end));
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use forum_corpus::{Corpus, Domain, GenConfig};

    fn build_small(n: usize, seed: u64) -> (Corpus, PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: n,
            seed,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        (corpus, coll, pipe)
    }

    #[test]
    fn builds_clusters_and_indices() {
        let (_, coll, pipe) = build_small(120, 1);
        assert!(pipe.num_clusters() >= 1, "no clusters formed");
        assert!(
            pipe.num_clusters() <= 16,
            "too many clusters: {}",
            pipe.num_clusters()
        );
        // Every document has at least one refined segment.
        for (d, segs) in pipe.doc_segments.iter().enumerate() {
            assert!(!segs.is_empty(), "doc {d} lost all segments");
        }
        let _ = coll;
    }

    #[test]
    fn refinement_caps_segments_at_one_per_cluster() {
        let (_, _, pipe) = build_small(80, 2);
        for segs in &pipe.doc_segments {
            let mut seen = std::collections::HashSet::new();
            for s in segs {
                assert!(seen.insert(s.cluster), "two segments in one cluster");
            }
        }
    }

    #[test]
    fn refinement_reduces_or_keeps_granularity() {
        let (_, _, pipe) = build_small(80, 3);
        for (raw, segs) in pipe.raw_segmentations.iter().zip(&pipe.doc_segments) {
            assert!(segs.len() <= raw.num_segments());
        }
    }

    #[test]
    fn top_k_returns_at_most_k_and_excludes_query() {
        let (_, coll, pipe) = build_small(100, 4);
        for q in 0..10 {
            let hits = pipe.top_k(&coll, q, 5);
            assert!(hits.len() <= 5);
            assert!(hits.iter().all(|&(d, _)| d as usize != q));
            for w in hits.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn retrieval_finds_related_posts_above_chance() {
        let (corpus, coll, pipe) = build_small(700, 5);
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in 0..30 {
            for (d, _) in pipe.top_k(&coll, q, 5) {
                if corpus.related(q, d as usize) {
                    hits += 1;
                }
                total += 1;
            }
        }
        // Chance precision = P(same problem ∧ focus ∧ component) < 1%.
        let precision = hits as f64 / total.max(1) as f64;
        assert!(
            precision > 0.08,
            "precision {precision} not far above chance ({hits}/{total})"
        );
    }

    #[test]
    fn granularity_histogram_sums_to_collection() {
        let (_, coll, pipe) = build_small(60, 6);
        let before = pipe.granularity_histogram(false, 8);
        let after = pipe.granularity_histogram(true, 8);
        assert_eq!(before.iter().sum::<usize>(), coll.len());
        assert_eq!(after.iter().sum::<usize>(), coll.len());
    }

    #[test]
    fn timings_are_populated() {
        let (_, _, pipe) = build_small(40, 7);
        assert!(pipe.timings.total() > Duration::ZERO);
    }

    #[test]
    fn deterministic_build() {
        let (_, coll, pipe1) = build_small(50, 8);
        let pipe2 = IntentPipeline::build(&coll, &PipelineConfig::default());
        assert_eq!(pipe1.num_clusters(), pipe2.num_clusters());
        let h1 = pipe1.top_k(&coll, 0, 5);
        let h2 = pipe2.top_k(&coll, 0, 5);
        assert_eq!(h1, h2);
    }

    #[test]
    fn match_new_post_finds_similar_content() {
        let (corpus, _coll, pipe) = build_small(700, 11);
        // A fresh post phrased like the corpus's tech questions.
        let text = "I have an HP system with a RAID 0 controller. \
            The RAID array does not work anymore. \
            Do you know whether the RAID 0 controller would degrade performance?";
        let hits = pipe.match_new_post(&PipelineConfig::default(), text, 5);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The top hits should be raid-storage posts (problem 0 in the tech
        // domain spec) far more often than chance.
        let raid_hits = hits
            .iter()
            .filter(|&&(d, _)| {
                Domain::TechSupport.spec().problems[corpus.posts[d as usize].problem as usize].name
                    == "raid-storage"
            })
            .count();
        let chance = 1.0 / Domain::TechSupport.spec().problems.len() as f64;
        assert!(
            raid_hits as f64 / hits.len() as f64 > 2.0 * chance,
            "{raid_hits}/{}",
            hits.len()
        );
    }

    #[test]
    fn match_new_post_is_bit_identical_across_calls() {
        // A long post spanning several intention clusters: Algorithm 2 sums
        // one score per consulted cluster into each owner, so a cluster
        // visiting order taken from a freshly seeded HashMap would change
        // those sums' last bits from call to call.
        let (corpus, _coll, pipe) = build_small(300, 14);
        let cfg = PipelineConfig::default();
        let text = corpus.posts[..8]
            .iter()
            .map(|p| p.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let doc = forum_text::Document::parse(forum_text::document::DocId(u32::MAX), &text);
        let cmdoc = forum_segment::CmDoc::new(doc);
        let whole = cmdoc.whole();
        let clusters: std::collections::HashSet<usize> = cfg
            .strategy
            .run(&cmdoc)
            .segments()
            .into_iter()
            .map(|s| {
                let mut f = forum_cluster::segment_features(&cmdoc.segment_tables(s), &whole);
                if cfg.type1_weights_only {
                    f.truncate(forum_nlp::cm::NUM_FEATURES);
                }
                nearest_centroid(&f, &pipe.centroids)
            })
            .collect();
        assert!(
            clusters.len() >= 3,
            "post spans {} clusters",
            clusters.len()
        );

        let bits = |hits: Vec<(u32, f64)>| -> Vec<(u32, u64)> {
            hits.into_iter().map(|(d, s)| (d, s.to_bits())).collect()
        };
        let first = bits(pipe.match_new_post(&cfg, &text, 10));
        assert!(!first.is_empty());
        for call in 1..50 {
            assert_eq!(
                bits(pipe.match_new_post(&cfg, &text, 10)),
                first,
                "call {call}"
            );
        }
    }

    #[test]
    fn match_new_post_empty_text() {
        let (_, _, pipe) = build_small(60, 12);
        assert!(pipe
            .match_new_post(&PipelineConfig::default(), "", 5)
            .is_empty());
    }

    #[test]
    fn single_intention_lists_respect_n() {
        let (_, coll, pipe) = build_small(100, 9);
        for c in 0..pipe.num_clusters() {
            let hits = pipe.single_intention_top_n(&coll, 0, c, 3);
            assert!(hits.len() <= 3);
        }
    }

    /// Regression (double counting): under `skip_refinement` a document may
    /// hold several segments in one cluster. Algorithm 2 must consult each
    /// cluster once with all of the query's terms for that intention —
    /// exactly what refinement would have produced — not once per segment
    /// (which scanned the same cluster repeatedly, each time with the first
    /// segment's terms, double-counting every candidate).
    #[test]
    fn unrefined_duplicate_clusters_match_refined_scoring() {
        let coll = PostCollection::from_raw_texts(&[
            "My raid controller fails. The wireless driver crashes.",
            "The raid controller in my server fails under load.",
            "A wireless driver crash after resume.",
            "Printers jam on long jobs.",
        ]);
        // Query doc 0: two separate segments refined into cluster 0 — the
        // `skip_refinement` shape (legal because refinement was skipped).
        let unrefined = vec![
            vec![
                RefinedSegment {
                    cluster: 0,
                    ranges: vec![(0, 1)],
                },
                RefinedSegment {
                    cluster: 0,
                    ranges: vec![(1, 2)],
                },
            ],
            vec![RefinedSegment {
                cluster: 0,
                ranges: vec![(0, 1)],
            }],
            vec![RefinedSegment {
                cluster: 0,
                ranges: vec![(0, 1)],
            }],
            vec![RefinedSegment {
                cluster: 0,
                ranges: vec![(0, 1)],
            }],
        ];
        // The same documents with doc 0's segments concatenated — what
        // refinement produces.
        let mut refined = unrefined.clone();
        refined[0] = vec![RefinedSegment {
            cluster: 0,
            ranges: vec![(0, 1), (1, 2)],
        }];

        // One fixed index (the unrefined build — what `skip_refinement`
        // actually indexes); only the query-side segmentation varies.
        let mut b = IndexBuilder::new();
        for (d, segs) in unrefined.iter().enumerate() {
            for seg in segs {
                b.add_unit(d as u32, &segment_terms(&coll, d, seg));
            }
        }
        let clusters = vec![ClusterIndex { index: b.build() }];

        for weighted in [false, true] {
            let backend = |doc_segments| HeapMr {
                collection: &coll,
                doc_segments,
                clusters: &clusters,
                weighted,
                scheme: forum_index::WeightingScheme::PaperTfIdf,
            };
            let got = backend(&unrefined).top_k(0, 5, Some(10), &mut QueryScratch::new());
            let want = backend(&refined).top_k(0, 5, Some(10), &mut QueryScratch::new());
            assert!(!want.is_empty(), "weighted={weighted}: degenerate setup");
            assert_eq!(
                got, want,
                "weighted={weighted}: duplicate-cluster query must score \
                 like its refined equivalent (no double counting)"
            );
        }
    }

    /// Regression (owner dedup): when one document owns several units in a
    /// cluster, Algorithm 1 must return `n` *distinct* documents, each
    /// scored by its best unit — not burn list slots on (or sum over)
    /// duplicate owners.
    #[test]
    fn single_intention_dedupes_owners_and_fills_n() {
        let coll = PostCollection::from_raw_texts(&[
            "The raid controller fails.",
            "My raid controller fails. Another raid controller failure here.",
            "A raid controller disk issue.",
            "Some raid controller trouble again.",
            // Filler below keeps the shared terms' document frequency under
            // half the units, so their probabilistic IDF stays positive.
            "Printers jam on long jobs.",
            "The laptop screen flickers.",
            "My mouse wheel broke.",
            "Keyboard keys stick sometimes.",
            "The monitor shows green lines.",
            "A fan makes loud noise.",
            "The battery drains quickly.",
            "Speakers produce static sound.",
        ]);
        let doc_segments: Vec<Vec<RefinedSegment>> = (0..coll.len())
            .map(|_| {
                vec![RefinedSegment {
                    cluster: 0,
                    ranges: vec![(0, 1)],
                }]
            })
            .collect();
        // Doc 1 owns two units (its two raid sentences) — the
        // `skip_refinement` shape again, this time on the indexed side.
        let mut b = IndexBuilder::new();
        b.add_unit(0, &ranges_terms(&coll, 0, &[(0, 1)]));
        b.add_unit(1, &ranges_terms(&coll, 1, &[(0, 1)]));
        b.add_unit(1, &ranges_terms(&coll, 1, &[(1, 2)]));
        for d in 2..coll.len() as u32 {
            b.add_unit(d, &ranges_terms(&coll, d as usize, &[(0, 1)]));
        }
        let clusters = [ClusterIndex { index: b.build() }];

        let scheme = forum_index::WeightingScheme::PaperTfIdf;
        let spec = ScanSpec {
            exclude: Some(0),
            ..ScanSpec::new(3, false, scheme)
        };
        let terms = ranges_terms(&coll, 0, &doc_segments[0][0].ranges);
        let hits = scan_cluster(
            &clusters[0].index,
            &terms,
            &spec,
            &mut forum_index::ScoreScratch::new(),
            None,
        )
        .expect("the query has terms")
        .hits;
        // All three non-query documents score > 0 on "raid", so the list
        // must hold exactly the 3 distinct owners.
        assert_eq!(hits.len(), 3, "{hits:?}");
        let mut owners: Vec<u32> = hits.iter().map(|&(d, _)| d).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners, vec![1, 2, 3], "{hits:?}");
        assert!(hits.iter().all(|&(d, _)| d != 0), "query doc leaked in");

        // Doc 1's score is its best unit, not the sum of both units.
        let index = &clusters[0].index;
        let query = SegmentIndex::query_from_terms(&ranges_terms(&coll, 0, &[(0, 1)]));
        let unit_scores: Vec<f64> = index
            .top_n_reference(&query, usize::MAX, scheme)
            .into_iter()
            .filter(|&(u, _)| index.owner(u) == 1)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(unit_scores.len(), 2, "both doc-1 units should match");
        let best = unit_scores.iter().cloned().fold(f64::MIN, f64::max);
        let doc1 = hits.iter().find(|&&(d, _)| d == 1).expect("doc 1 ranked");
        assert_eq!(doc1.1, best, "owner score must be max, not sum");
    }
}
