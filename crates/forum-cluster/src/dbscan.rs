//! DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996).
//!
//! The paper clusters segment weight vectors with DBSCAN because it (1)
//! needs no a-priori cluster count, (2) finds arbitrarily-shaped clusters
//! and (3) has a noise notion (Section 6). The production entry point is
//! [`dbscan_matrix`]: an exact engine over flat [`PointMatrix`] storage
//! that clusters each distinct row once (bit-identical duplicates carry a
//! multiplicity), prunes region-query candidates with a band on the better
//! of two Lipschitz keys — L2 norm or principal-axis projection
//! ([`BandIndex`]) — reads candidates from a two-block row copy whose
//! 8-coordinate head block serves the early distance abort
//! ([`sq_dist_bounded`](crate::sq_dist_bounded)'s order, bit for bit),
//! evaluates every surviving candidate pair **once** (half-band symmetric
//! scans), fans the pair work out across workers balanced by estimated
//! pair count, and merges the clusters through one shared lock-free
//! union-find (`AtomicDsu`) — producing labels and cluster ids
//! **bit-identical** to the textbook sequential scan ([`dbscan_reference`])
//! for every thread count.
//!
//! The equivalence rests on the sequential algorithm's output being
//! order-canonical (see DESIGN.md "Clustering at scale"): clusters are the
//! connected components of the core-point eps-graph numbered by each
//! component's minimum core index, a border point takes the smallest such
//! cluster id among its in-eps cores, and everything else is noise — all
//! properties of the *point set*, not of any traversal order.
//!
//! [`dbscan_sampled`] scales past what even the pruned exact engine can
//! cluster the way the paper's "library for very large datasets" does: it
//! clusters a uniform sample exactly, then assigns every remaining point
//! to the cluster of the nearest sampled core point within `eps` (noise
//! otherwise). The sample's core points come from the exact run's own
//! neighbour counts; the assignment runs on a band index and blocked rows
//! over just those cores.

use crate::points::{BandIndex, BlockedRows, PointMatrix, Query};
use crate::sq_dist;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbscanConfig {
    /// Neighbourhood radius (Euclidean).
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        // Calibrated for 28-dim segment weight vectors with entries in
        // [0, 1]; see the pipeline's cluster-count experiments (Table 3).
        DbscanConfig {
            eps: 1.0,
            min_pts: 8,
        }
    }
}

/// Work counters for one clustering run — the raw material for the
/// `offline/region_queries` / `offline/dist_evals` metrics and the
/// pruning-efficiency gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbscanStats {
    /// Eps-neighbourhood scans performed (the engine runs two per point:
    /// core determination, then adjacency/border collection; the sampled
    /// path adds one per point outside the sample, its assignment).
    pub region_queries: u64,
    /// Candidate pairs whose distance was actually evaluated (band
    /// survivors; the brute-force scan evaluates `n` per region query).
    /// The half-band engine evaluates each surviving unordered pair of
    /// distinct rows at most once per pass. Its core pass skips pairs
    /// whose endpoints are both core by the worker's own counts, so this
    /// counter depends on the thread count; its adjacency pass skips pairs
    /// whose endpoints are already in the same component, so in parallel
    /// runs it also depends on scheduling (the labels never do).
    pub dist_evals: u64,
    /// Points pushed onto a BFS seed queue ([`dbscan_reference`] only;
    /// the union-find engine has no queue).
    pub enqueued: u64,
}

/// Clustering outcome: `labels[i]` is `Some(cluster)` or `None` for noise.
#[derive(Debug, Clone)]
pub struct DbscanResult {
    /// Per-point cluster assignment.
    pub labels: Vec<Option<usize>>,
    /// Number of clusters found.
    pub num_clusters: usize,
    /// Work counters for the run that produced this result.
    pub stats: DbscanStats,
}

impl DbscanResult {
    /// Mean vector of each cluster, in cluster-id order (the centroids of
    /// Fig. 3). Empty input yields an empty list.
    pub fn centroids(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let dim = points.first().map_or(0, |p| p.len());
        self.centroids_of(points.len(), dim, |i| &points[i])
    }

    /// [`Self::centroids`] over flat storage.
    pub fn centroids_matrix(&self, points: &PointMatrix) -> Vec<Vec<f64>> {
        self.centroids_of(points.len(), points.dim(), |i| points.row(i))
    }

    fn centroids_of<'a>(
        &self,
        n: usize,
        dim: usize,
        row: impl Fn(usize) -> &'a [f64],
    ) -> Vec<Vec<f64>> {
        if n == 0 || self.num_clusters == 0 {
            return Vec::new();
        }
        let mut sums = vec![vec![0.0; dim]; self.num_clusters];
        let mut counts = vec![0usize; self.num_clusters];
        for (i, label) in self.labels.iter().enumerate() {
            if let Some(c) = *label {
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(row(i)) {
                    *s += v;
                }
            }
        }
        for (sum, &count) in sums.iter_mut().zip(&counts) {
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
            }
        }
        sums
    }

    /// Number of points labelled noise.
    pub fn num_noise(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }
}

/// Lock-free disjoint-set forest over `u32` slots, shared by every worker
/// of the adjacency pass. Union-by-minimum-root via compare-and-swap, find
/// with path halving.
///
/// Correctness rests on one invariant: **parent values only decrease**. A
/// union makes the larger root point at the smaller (`lo < hi`), and path
/// halving replaces `parent[x]` with its grandparent — already `≤` the old
/// parent — guarded by a CAS so a concurrent smaller write is never
/// overwritten. Monotone-decreasing parents mean the forest is acyclic at
/// every instant and every `find` terminates. `Relaxed` ordering suffices:
/// each slot is only ever CAS-transitioned through decreasing values (no
/// cross-slot ordering is relied on mid-run), and the thread join at the
/// end of the parallel pass publishes the final structure to the
/// sequential relabel. The forest *shape* depends on scheduling; the final
/// clustering never does — it reads only connectivity, which is the
/// transitive closure of the attempted unions regardless of order.
struct AtomicDsu {
    parent: Vec<AtomicU32>,
}

impl AtomicDsu {
    fn new(n: usize) -> Self {
        AtomicDsu {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            let g = self.parent[p as usize].load(Ordering::Relaxed);
            if g == p {
                return p;
            }
            // Path halving: x → grandparent. A failed CAS means another
            // thread already wrote an even smaller parent — keep it.
            let _ = self.parent[x as usize].compare_exchange(
                p,
                g,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            x = g;
        }
    }

    /// Whether `a` and `b` are currently in one component. A `true` is
    /// definitive (parent edges only ever come from real unions); a
    /// `false` may miss a union racing in on another thread, which at the
    /// call sites only costs one redundant distance evaluation.
    fn connected(&self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    fn union(&self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        while ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                // `hi` stopped being a root under us; chase the new roots.
                Err(_) => {
                    ra = self.find(hi);
                    rb = self.find(lo);
                }
            }
        }
    }
}

/// Contiguous ranges covering `0..weights.len()` with approximately equal
/// total weight per range. The half-band pair scans need this: a
/// low-key-rank point owns every band pair above it while the highest
/// rank owns none, so equal-*count* ranges would hand the first worker
/// roughly twice the distance work of the last.
fn weighted_ranges(weights: &[u64], threads: usize) -> Vec<(usize, usize)> {
    let n = weights.len();
    let threads = forum_par::auto_threads(threads).min(n).max(1);
    let total: u64 = weights.iter().sum();
    let per = total / threads as u64 + 1;
    let mut ranges = Vec::with_capacity(threads);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per && ranges.len() + 1 < threads {
            ranges.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < n {
        ranges.push((lo, n));
    }
    ranges
}

/// Groups bit-identical rows by sorting row indices on their coordinates'
/// bit patterns (no hash table, so no second copy of the rows). Returns
/// each row's class, the first row of each class, and each class's size.
fn distinct_rows(points: &PointMatrix) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = points.len();
    assert!(
        n <= u32::MAX as usize,
        "DBSCAN supports up to u32::MAX points"
    );
    let bits = |i: u32| points.row(i as usize).iter().map(|x| x.to_bits());
    let mut by_bits: Vec<u32> = (0..n as u32).collect();
    by_bits.sort_unstable_by(|&a, &b| bits(a).cmp(bits(b)).then(a.cmp(&b)));
    let mut class_of = vec![0u32; n];
    let mut firsts: Vec<u32> = Vec::new();
    let mut sizes: Vec<u32> = Vec::new();
    for (k, &i) in by_bits.iter().enumerate() {
        if k == 0 || bits(by_bits[k - 1]).ne(bits(i)) {
            firsts.push(i);
            sizes.push(0);
        }
        class_of[i as usize] = (firsts.len() - 1) as u32;
        *sizes.last_mut().expect("a class was just opened") += 1;
    }
    (class_of, firsts, sizes)
}

/// Exact DBSCAN over flat point storage, parallel across `threads` workers
/// (`0` = one per core). Output — labels *and* cluster numbering — is
/// bit-identical to [`dbscan_reference`] for every thread count.
///
/// Phases:
/// 0. **Duplicate collapse** (sequential): bit-identical rows are
///    clustered once, as one *distinct row* carrying its multiplicity.
///    Copies sit at distance 0 from each other (a NaN row neighbours
///    nothing, not even itself) and at the same distance from every other
///    point, so the collapsed neighbour counts — multiplicities summed —
///    equal the per-point ones, and every copy takes its row's label. The
///    distinct rows are indexed by [`BandIndex`] and copied in key-rank
///    order into two blocks (first 8 coordinates, then the rest).
/// 1. **Core determination** (parallel, half-band): each unordered
///    candidate pair `(r, c)` with rank `r < c` is distance-checked once —
///    from the lower rank's side — and credits each endpoint with the
///    other's multiplicity (the self-distance is checked explicitly so NaN
///    rows still neighbour nothing); `core[r] = count ≥ min_pts`. A pair
///    whose endpoints both already count `min_pts` is skipped: it cannot
///    change a core flag. Workers own contiguous rank ranges balanced by
///    half-band size, and merge their per-row count vectors at the
///    barrier.
/// 2. **Adjacency** (parallel, half-band): the same pair enumeration, now
///    into one *shared* lock-free forest. Pairs with no core endpoint are
///    skipped outright; core–core pairs already in one component skip the
///    distance arithmetic entirely (a skipped edge would connect points
///    that are already connected); surviving core–core eps-edges are
///    unioned and core–noncore eps-pairs collected as `(border, core)`.
/// 3. **Canonical relabel** (sequential, O(n·α)): scanning the input
///    points in index order assigns each component its cluster id at the
///    component's minimum core index — exactly the id the sequential
///    algorithm's outer loop would have handed it. Border rows then take
///    the minimum cluster id among their in-eps cores, and every point
///    takes its distinct row's label.
///
/// Half-band enumeration is exact even though the floating-point band
/// edges need not be symmetric: the band is a *necessary*-condition filter
/// whose slack covers key rounding, so any true eps-pair lies inside both
/// endpoints' bands, and an edge-of-band candidate visible from only one
/// side fails the exact distance check from either.
///
/// [`DbscanStats::dist_evals`] counts distinct-row pairs;
/// [`DbscanStats::region_queries`] stays two per input point.
pub fn dbscan_matrix(points: &PointMatrix, cfg: &DbscanConfig, threads: usize) -> DbscanResult {
    let started = Instant::now();
    let (result, _) = dbscan_counted(points, cfg, threads, cfg.min_pts);
    if !points.is_empty() {
        record_cluster_metrics(points.len(), &result.stats, started);
    }
    result
}

/// The engine behind [`dbscan_matrix`], publishing nothing. Also returns
/// every input point's eps-neighbour count (itself included) saturated at
/// `count_cap`: exact below the cap, the cap at or above it. Phase 1 stops
/// counting a pair only once both endpoints hold `count_cap`, so with
/// `count_cap ≥ min_pts` the core flags, and so the labels, are those of
/// [`dbscan_matrix`].
fn dbscan_counted(
    points: &PointMatrix,
    cfg: &DbscanConfig,
    threads: usize,
    count_cap: usize,
) -> (DbscanResult, Vec<u32>) {
    debug_assert!(count_cap >= cfg.min_pts);
    let n = points.len();
    if n == 0 {
        let empty = DbscanResult {
            labels: Vec::new(),
            num_clusters: 0,
            stats: DbscanStats::default(),
        };
        return (empty, Vec::new());
    }
    let eps2 = cfg.eps * cfg.eps;
    let (mut rank_of, firsts, sizes) = distinct_rows(points);
    let index = BandIndex::build_over(points, &firsts, cfg.eps);
    let m = index.len();
    // Rank space from here on: a band is a contiguous run of ranks, so the
    // scans below stream adjacent rows of the blocked copy instead of
    // chasing `order[...]` indirections all over the original matrix.
    let rows = BlockedRows::gather(
        points,
        index.order().iter().map(|&p| firsts[p as usize] as usize),
    );
    let weight: Vec<u32> = index.order().iter().map(|&p| sizes[p as usize]).collect();
    let mut rank_of_class = vec![0u32; m];
    for (r, &p) in index.order().iter().enumerate() {
        rank_of_class[p as usize] = r as u32;
    }
    for r in rank_of.iter_mut() {
        *r = rank_of_class[*r as usize];
    }
    drop((firsts, sizes, rank_of_class));
    // End of each rank's band; the upper half-band sizes (plus the self
    // check) double as the per-rank work estimate for balancing the
    // contiguous worker ranges.
    let ends = index.band_ends();
    let half_width: Vec<u64> = ends
        .iter()
        .enumerate()
        .map(|(r, &end)| (end as usize).saturating_sub(r + 1) as u64 + 1)
        .collect();
    let ranges = weighted_ranges(&half_width, threads);
    let workers = ranges.len();

    // Phase 1: symmetric half-band neighbour counts → core flags. Each
    // unordered pair is evaluated once and credited to both endpoints;
    // counts for ranks outside a worker's own range land in its private
    // count vector and merge at the barrier.
    // A worker's counts are lower bounds of the totals, so once both
    // endpoints of a pair have reached the cap (≥ `min_pts`) locally, both
    // are core whatever the pair adds: the pair is skipped, and the core
    // flags and the capped totals stay exact.
    let saturated = u32::try_from(count_cap).unwrap_or(u32::MAX);
    let pass1 = forum_par::parallel_map(&ranges, workers, |&(lo, hi)| {
        let mut counts = vec![0u32; m];
        let mut dist_evals = 0u64;
        for r in lo..hi {
            let q = rows.query(r);
            let w = weight[r];
            // Self-distance: 0 for finite rows (always ≤ eps²), NaN — and
            // therefore uncounted — for NaN rows, as in the full scan.
            dist_evals += 1;
            if rows.sq_dist_bounded(&q, r, eps2).is_some() {
                counts[r] += w;
            }
            for c in (r + 1)..ends[r] as usize {
                if counts[r] >= saturated && counts[c] >= saturated {
                    continue;
                }
                dist_evals += 1;
                if rows.sq_dist_bounded(&q, c, eps2).is_some() {
                    counts[r] += weight[c];
                    counts[c] += w;
                }
            }
        }
        (counts, dist_evals)
    });
    let mut stats = DbscanStats {
        region_queries: n as u64,
        ..DbscanStats::default()
    };
    let mut totals = vec![0u32; m];
    for (counts, dist_evals) in pass1 {
        stats.dist_evals += dist_evals;
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    let core: Vec<bool> = totals.iter().map(|&c| c as usize >= cfg.min_pts).collect();

    // Phase 2: half-band edges into one shared lock-free forest; border
    // pairs for non-core rows. Only pairs with a core endpoint matter,
    // and already-connected core pairs skip the distance entirely.
    let dsu = AtomicDsu::new(m);
    let core_ref = &core;
    let dsu_ref = &dsu;
    let pass2 = forum_par::parallel_map(&ranges, workers, |&(lo, hi)| {
        let mut borders: Vec<(u32, u32)> = Vec::new();
        let mut dist_evals = 0u64;
        for r in lo..hi {
            let q = rows.query(r);
            let r_core = core_ref[r];
            // `c` indexes the core flags, the rows, and the DSU in
            // lockstep — a range loop is the clear spelling.
            #[allow(clippy::needless_range_loop)]
            for c in (r + 1)..ends[r] as usize {
                let c_core = core_ref[c];
                if !r_core && !c_core {
                    continue;
                }
                if r_core && c_core && dsu_ref.connected(r as u32, c as u32) {
                    continue;
                }
                dist_evals += 1;
                if rows.sq_dist_bounded(&q, c, eps2).is_some() {
                    if r_core && c_core {
                        dsu_ref.union(r as u32, c as u32);
                    } else if r_core {
                        borders.push((c as u32, r as u32));
                    } else {
                        borders.push((r as u32, c as u32));
                    }
                }
            }
        }
        (borders, dist_evals)
    });
    stats.region_queries += n as u64;
    let mut border_lists: Vec<Vec<(u32, u32)>> = Vec::with_capacity(workers);
    for (borders, dist_evals) in pass2 {
        stats.dist_evals += dist_evals;
        border_lists.push(borders);
    }

    // Phase 3: canonical numbering — scanning cores in *original* index
    // order hands each component its id at the component's minimum core
    // index (rank order would number clusters by key instead, breaking
    // bit-identity with the reference engine).
    let mut root_to_id: Vec<u32> = vec![u32::MAX; m];
    let mut num_clusters = 0usize;
    for &r in &rank_of {
        if core[r as usize] {
            let root = dsu.find(r) as usize;
            if root_to_id[root] == u32::MAX {
                root_to_id[root] = num_clusters as u32;
                num_clusters += 1;
            }
        }
    }
    let mut rank_labels: Vec<Option<usize>> = (0..m as u32)
        .map(|r| core[r as usize].then(|| root_to_id[dsu.find(r) as usize] as usize))
        .collect();
    // Border rows: minimum cluster id among in-eps cores (the first
    // cluster whose expansion would have reached them sequentially).
    for borders in border_lists {
        for (b, c) in borders {
            let id = root_to_id[dsu.find(c) as usize] as usize;
            let slot = &mut rank_labels[b as usize];
            if slot.is_none_or(|cur| id < cur) {
                *slot = Some(id);
            }
        }
    }
    let labels = rank_of.iter().map(|&r| rank_labels[r as usize]).collect();
    let counts = rank_of
        .iter()
        .map(|&r| totals[r as usize].min(saturated))
        .collect();
    let result = DbscanResult {
        labels,
        num_clusters,
        stats,
    };
    (result, counts)
}

/// Publishes one run's counters to the process-wide registry (no-op while
/// observability is disabled).
fn record_cluster_metrics(n: usize, stats: &DbscanStats, started: Instant) {
    let obs = forum_obs::Registry::global();
    if !obs.is_enabled() {
        return;
    }
    obs.record_duration("offline/cluster_ns", started.elapsed());
    obs.incr("offline/region_queries", stats.region_queries);
    obs.incr("offline/dist_evals", stats.dist_evals);
    obs.gauge("offline/cluster_prune_pct")
        .set(prune_pct(n, stats.dist_evals));
}

/// Pruning efficiency: the percentage of the full n² distance matrix that
/// no distance evaluation touched — the band, the duplicate collapse and
/// the half-band symmetry together.
fn prune_pct(n: usize, dist_evals: u64) -> i64 {
    let full = (n as f64) * (n as f64);
    (100.0 * (1.0 - dist_evals as f64 / full))
        .clamp(0.0, 100.0)
        .round() as i64
}

/// Exact DBSCAN over `points`.
///
/// Runs [`dbscan_matrix`] single-threaded; kept as the convenient
/// row-slice entry point.
///
/// ```
/// use forum_cluster::{dbscan, DbscanConfig};
/// let points = vec![
///     vec![0.0], vec![0.1], vec![0.2],     // one dense blob
///     vec![9.0], vec![9.1], vec![9.2],     // another
///     vec![50.0],                          // noise
/// ];
/// let result = dbscan(&points, &DbscanConfig { eps: 0.5, min_pts: 2 });
/// assert_eq!(result.num_clusters, 2);
/// assert_eq!(result.num_noise(), 1);
/// ```
pub fn dbscan(points: &[Vec<f64>], cfg: &DbscanConfig) -> DbscanResult {
    dbscan_matrix(&PointMatrix::from_rows(points), cfg, 1)
}

/// The textbook sequential DBSCAN: one brute-force region query per point,
/// breadth-first cluster expansion. Kept as the ground truth the engine is
/// verified against (tests and the `cluster_scale` benchmark) — its output
/// defines the canonical labels [`dbscan_matrix`] must reproduce.
///
/// The seed queue tracks an `in_queue` bitmap: `queue.extend(neighbours)`
/// used to re-enqueue points already queued, growing the queue to
/// O(n·|neighbourhood|) on dense clusters. Dropping duplicates cannot
/// change labels — a point's label is fixed at its *first* dequeue, and
/// re-processing a labelled, visited point is a no-op — so the bitmap only
/// bounds memory ([`DbscanStats::enqueued`] ≤ n per cluster).
pub fn dbscan_reference(points: &[Vec<f64>], cfg: &DbscanConfig) -> DbscanResult {
    let n = points.len();
    let eps2 = cfg.eps * cfg.eps;
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut num_clusters = 0;
    let mut stats = DbscanStats::default();

    let neighbors = |i: usize, stats: &mut DbscanStats| -> Vec<usize> {
        stats.region_queries += 1;
        stats.dist_evals += n as u64;
        (0..n)
            .filter(|&j| sq_dist(&points[i], &points[j]) <= eps2)
            .collect()
    };

    // A point enqueued in any expansion is labelled by the time that
    // expansion drains, so the bitmap never needs resetting between
    // clusters: re-enqueueing an already-processed point is always a no-op.
    let mut in_queue = vec![false; n];
    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let nbrs = neighbors(i, &mut stats);
        if nbrs.len() < cfg.min_pts {
            continue; // provisionally noise; may become a border point later
        }
        let cluster = num_clusters;
        num_clusters += 1;
        labels[i] = Some(cluster);
        // Expand the cluster breadth-first.
        let mut queue: Vec<usize> = Vec::with_capacity(nbrs.len());
        for j in nbrs {
            if !in_queue[j] {
                in_queue[j] = true;
                stats.enqueued += 1;
                queue.push(j);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if labels[j].is_none() {
                labels[j] = Some(cluster);
            }
            if !visited[j] {
                visited[j] = true;
                let jn = neighbors(j, &mut stats);
                if jn.len() >= cfg.min_pts {
                    for k in jn {
                        if !in_queue[k] {
                            in_queue[k] = true;
                            stats.enqueued += 1;
                            queue.push(k);
                        }
                    }
                }
            }
        }
    }
    DbscanResult {
        labels,
        num_clusters,
        stats,
    }
}

/// Scalable DBSCAN: exact clustering of a uniform sample of up to
/// `max_sample` points, then nearest-core-point assignment of the rest.
///
/// Runs [`dbscan_sampled_matrix`] single-threaded; kept as the convenient
/// row-slice entry point.
pub fn dbscan_sampled<R: Rng>(
    points: &[Vec<f64>],
    cfg: &DbscanConfig,
    max_sample: usize,
    rng: &mut R,
) -> DbscanResult {
    dbscan_sampled_matrix(&PointMatrix::from_rows(points), cfg, max_sample, 1, rng)
}

/// [`dbscan_sampled`] over flat storage with `threads` workers: the sample
/// is clustered by the exact parallel engine, whose neighbour counts also
/// give the sample's cores, and the remaining points are assigned in
/// parallel against a band index over just the core points.
///
/// Points within `eps` of a sampled core point join that core's cluster
/// (nearest core wins; ties go to the earlier core in sample order, same
/// as the sequential scan); everything else is noise. With a sample that
/// covers the density modes, the assignment matches exact DBSCAN on all
/// but boundary points — and since `n ≤ max_sample` short-circuits into
/// [`dbscan_matrix`], a large enough `max_sample` makes it exact outright.
pub fn dbscan_sampled_matrix<R: Rng>(
    points: &PointMatrix,
    cfg: &DbscanConfig,
    max_sample: usize,
    threads: usize,
    rng: &mut R,
) -> DbscanResult {
    let started = Instant::now();
    let n = points.len();
    if n <= max_sample {
        return dbscan_matrix(points, cfg, threads);
    }
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    indices.truncate(max_sample);
    let sample = points.gather(&indices);

    // Core points of the sample: labelled points whose sample-neighbourhood
    // reaches min_pts scaled down by the sampling ratio (at least 2). The
    // engine's counts are exact up to the cap, which covers both
    // thresholds, so they answer this without a second walk of the band.
    let scaled_min = ((cfg.min_pts * max_sample) as f64 / n as f64).ceil() as usize;
    let scaled_min = scaled_min.max(2);
    let (sample_result, counts) =
        dbscan_counted(&sample, cfg, threads, cfg.min_pts.max(scaled_min));
    let mut stats = sample_result.stats;
    let mut cores: Vec<(u32, u32)> = Vec::new(); // (sample idx, cluster)
    for (si, (label, &count)) in sample_result.labels.iter().zip(&counts).enumerate() {
        if let Some(cluster) = label {
            if count as usize >= scaled_min {
                cores.push((si as u32, *cluster as u32));
            }
        }
    }

    let mut labels = vec![None; n];
    let mut in_sample = vec![false; n];
    for (&orig, label) in indices.iter().zip(&sample_result.labels) {
        labels[orig] = *label;
        in_sample[orig] = true;
    }

    // Assignment pass: each remaining point takes the cluster of its
    // nearest in-eps core, ties broken toward the earlier core in sample
    // order (`(distance, core position)` lexicographic minimum — exactly
    // what a first-strict-minimum scan over `cores` produces).
    let core_samples: Vec<u32> = cores.iter().map(|&(si, _)| si).collect();
    let core_index = BandIndex::build_over(&sample, &core_samples, cfg.eps);
    // Key-ordered blocked copy again; `p` stays the core's *position* in
    // `cores`, so the `(distance, position)` tie-break — a minimum over the
    // same candidate set, hence scan-order independent — picks the same
    // core as a scan over `cores` in order.
    let core_rows = BlockedRows::gather(
        &sample,
        core_index
            .order()
            .iter()
            .map(|&p| core_samples[p as usize] as usize),
    );
    let rest: Vec<u32> = (0..n as u32).filter(|&i| !in_sample[i as usize]).collect();
    let eps2 = cfg.eps * cfg.eps;
    let dist_evals = AtomicU64::new(0);
    let assigned = forum_par::parallel_map(&rest, threads, |&i| {
        let row = points.row(i as usize);
        let q = Query::of(row);
        let mut evals = 0u64;
        let mut best: Option<(f64, u32)> = None;
        for c in core_index.band_range(core_index.key_of(row)) {
            evals += 1;
            if let Some(d) = core_rows.sq_dist_bounded(&q, c, eps2) {
                let p = core_index.order()[c];
                if best.is_none_or(|(bd, bp)| d < bd || (d == bd && p < bp)) {
                    best = Some((d, p));
                }
            }
        }
        dist_evals.fetch_add(evals, Ordering::Relaxed);
        best.map(|(_, p)| cores[p as usize].1 as usize)
    });
    stats.region_queries += rest.len() as u64;
    stats.dist_evals += dist_evals.load(Ordering::Relaxed);
    for (&i, label) in rest.iter().zip(assigned) {
        labels[i as usize] = label;
    }
    record_cluster_metrics(n, &stats, started);
    DbscanResult {
        labels,
        num_clusters: sample_result.num_clusters,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three tight blobs plus an outlier.
    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for c in centers {
            for dx in [-0.1, 0.0, 0.1] {
                for dy in [-0.1, 0.0, 0.1] {
                    pts.push(vec![c[0] + dx, c[1] + dy]);
                }
            }
        }
        pts.push(vec![50.0, 50.0]); // outlier
        pts
    }

    /// A messier deterministic cloud: blobs with uneven density, a bridge
    /// of border points, and a few stray outliers.
    fn messy_cloud() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for k in 0..120u64 {
            let x = ((k * 2654435761) % 1000) as f64 / 250.0;
            let y = ((k * 40503) % 1000) as f64 / 250.0;
            let (cx, cy) = match k % 3 {
                0 => (0.0, 0.0),
                1 => (6.0, 1.0),
                _ => (3.0, 5.0),
            };
            pts.push(vec![cx + x, cy + y]);
        }
        pts.push(vec![100.0, 100.0]);
        pts.push(vec![-50.0, 20.0]);
        pts
    }

    #[test]
    fn finds_three_blobs_and_noise() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 3);
        assert_eq!(res.num_noise(), 1);
        assert_eq!(res.labels.last().unwrap(), &None);
    }

    #[test]
    fn points_in_same_blob_share_label() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        for chunk in res.labels[..27].chunks(9) {
            let first = chunk[0];
            assert!(first.is_some());
            assert!(chunk.iter().all(|&l| l == first));
        }
    }

    #[test]
    fn min_pts_larger_than_any_blob_means_all_noise() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 100,
            },
        );
        assert_eq!(res.num_clusters, 0);
        assert_eq!(res.num_noise(), pts.len());
    }

    #[test]
    fn large_eps_merges_everything() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 1000.0,
                min_pts: 2,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert_eq!(res.num_noise(), 0);
    }

    #[test]
    fn centroids_match_blob_centers() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        let cents = res.centroids(&pts);
        assert_eq!(cents.len(), 3);
        // First blob centered at origin.
        assert!(cents[0][0].abs() < 0.01 && cents[0][1].abs() < 0.01);
        // Flat storage produces the same centroids.
        let m = PointMatrix::from_rows(&pts);
        assert_eq!(res.centroids_matrix(&m), cents);
    }

    #[test]
    fn empty_input() {
        let res = dbscan(&[], &DbscanConfig::default());
        assert_eq!(res.num_clusters, 0);
        assert!(res.labels.is_empty());
        assert!(res.centroids(&[]).is_empty());
    }

    #[test]
    fn engine_matches_reference_on_fixed_clouds() {
        for pts in [blobs(), messy_cloud()] {
            let m = PointMatrix::from_rows(&pts);
            for cfg in [
                DbscanConfig {
                    eps: 0.5,
                    min_pts: 4,
                },
                DbscanConfig {
                    eps: 1.2,
                    min_pts: 3,
                },
                DbscanConfig {
                    eps: 0.05,
                    min_pts: 2,
                },
                // Only eps² enters the distance test, so a negative eps
                // must cluster like its magnitude.
                DbscanConfig {
                    eps: -0.5,
                    min_pts: 4,
                },
            ] {
                let reference = dbscan_reference(&pts, &cfg);
                for threads in [1usize, 2, 4, 8] {
                    let got = dbscan_matrix(&m, &cfg, threads);
                    assert_eq!(
                        got.labels, reference.labels,
                        "labels diverged at threads={threads} eps={}",
                        cfg.eps
                    );
                    assert_eq!(got.num_clusters, reference.num_clusters);
                }
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_random_cloud() {
        // Bigger than the fixed clouds so the half-band pair scan crosses
        // worker boundaries and the shared forest sees real contention.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let mut pts = Vec::new();
        for k in 0..700 {
            let (cx, cy) = match k % 4 {
                0 => (0.0, 0.0),
                1 => (3.0, 0.5),
                2 => (1.5, 3.0),
                _ => (20.0, 20.0), // sparse far group → mostly noise
            };
            let spread = if k % 4 == 3 { 8.0 } else { 1.2 };
            pts.push(vec![cx + next() * spread, cy + next() * spread]);
        }
        let cfg = DbscanConfig {
            eps: 0.35,
            min_pts: 5,
        };
        let reference = dbscan_reference(&pts, &cfg);
        let m = PointMatrix::from_rows(&pts);
        for threads in [1usize, 2, 4, 8] {
            let got = dbscan_matrix(&m, &cfg, threads);
            assert_eq!(got.labels, reference.labels, "threads = {threads}");
            assert_eq!(got.num_clusters, reference.num_clusters);
        }
    }

    #[test]
    fn atomic_dsu_connects_components_under_contention() {
        let n = 4096u32;
        let dsu = AtomicDsu::new(n as usize);
        // Four threads racing to union the same chain plus strided edges:
        // heavy CAS contention, one final component.
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let dsu = &dsu;
                scope.spawn(move || {
                    for i in 0..n - 1 {
                        dsu.union(i, i + 1);
                        if i + t + 2 < n {
                            dsu.union(i, i + t + 2);
                        }
                    }
                });
            }
        });
        for i in 0..n {
            assert_eq!(dsu.find(i), 0, "point {i} not folded into root 0");
            // The monotone-parent invariant the lock-free scheme rests on.
            assert!(dsu.parent[i as usize].load(Ordering::Relaxed) <= i);
        }
    }

    #[test]
    fn weighted_ranges_cover_and_balance() {
        // Triangular weights (the half-band shape): ranges must partition
        // the index space and no range may hog the total weight.
        let weights: Vec<u64> = (0..1000u64).map(|i| 1000 - i).collect();
        for threads in [1usize, 2, 4, 8] {
            let ranges = weighted_ranges(&weights, threads);
            assert!(ranges.len() <= threads);
            let mut next = 0usize;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next);
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, weights.len());
            if threads > 1 && ranges.len() > 1 {
                let total: u64 = weights.iter().sum();
                for &(lo, hi) in &ranges {
                    let w: u64 = weights[lo..hi].iter().sum();
                    assert!(
                        w <= total / ranges.len() as u64 * 2 + weights[lo],
                        "range {lo}..{hi} holds {w} of {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_handles_nan_points_like_reference() {
        let mut pts = blobs();
        pts.push(vec![f64::NAN, 0.0]);
        pts.push(vec![0.0, f64::NAN]);
        let cfg = DbscanConfig {
            eps: 0.5,
            min_pts: 4,
        };
        let reference = dbscan_reference(&pts, &cfg);
        let got = dbscan_matrix(&PointMatrix::from_rows(&pts), &cfg, 4);
        assert_eq!(got.labels, reference.labels);
        assert_eq!(got.labels[pts.len() - 1], None);
    }

    #[test]
    fn infinite_coordinates_match_reference_at_every_eps() {
        // An infinite coordinate neighbours nothing at finite eps, and
        // every finite point at eps = ∞ (∞² ≤ ∞); whichever key the band
        // index picks, its bands must agree.
        let mut pts: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, -(i as f64)]).collect();
        pts.push(vec![f64::NEG_INFINITY, 0.0]);
        pts.push(vec![0.0, f64::INFINITY]);
        pts.push(vec![f64::NAN, 1.0]);
        for eps in [0.5, 2.0, f64::INFINITY] {
            let cfg = DbscanConfig { eps, min_pts: 3 };
            let reference = dbscan_reference(&pts, &cfg);
            for threads in [1usize, 2] {
                let got = dbscan_matrix(&PointMatrix::from_rows(&pts), &cfg, threads);
                assert_eq!(got.labels, reference.labels, "eps {eps}, {threads} threads");
            }
        }
    }

    #[test]
    fn reference_seed_queue_stays_bounded_on_dense_blob() {
        // A single blob where every point neighbours every other: the old
        // `queue.extend(jn)` made the queue grow to ~n² entries; with the
        // in_queue bitmap each point is enqueued at most once.
        let n = 200;
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64) * 1e-4]).collect();
        let res = dbscan_reference(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert!(
            res.stats.enqueued <= n as u64,
            "queue blew up: {} enqueues for {n} points",
            res.stats.enqueued
        );
    }

    #[test]
    fn sampled_matches_exact_on_small_input() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = DbscanConfig {
            eps: 0.5,
            min_pts: 4,
        };
        let exact = dbscan(&pts, &cfg);
        let sampled = dbscan_sampled(&pts, &cfg, 10_000, &mut rng);
        assert_eq!(exact.num_clusters, sampled.num_clusters);
    }

    #[test]
    fn sampled_recovers_blobs_from_large_input() {
        // 3 blobs of 400 points each; sample only 150.
        let mut rng = StdRng::seed_from_u64(42);
        let mut pts = Vec::new();
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for c in centers {
            for k in 0..400 {
                let dx = ((k % 20) as f64 - 10.0) / 40.0;
                let dy = ((k / 20) as f64 - 10.0) / 40.0;
                pts.push(vec![c[0] + dx, c[1] + dy]);
            }
        }
        let cfg = DbscanConfig {
            eps: 0.6,
            min_pts: 5,
        };
        let res = dbscan_sampled(&pts, &cfg, 150, &mut rng);
        assert_eq!(res.num_clusters, 3);
        // Nearly every point should be assigned.
        assert!(
            res.num_noise() < pts.len() / 20,
            "noise: {}",
            res.num_noise()
        );
    }

    #[test]
    fn sampled_is_thread_count_independent() {
        let mut pts = Vec::new();
        for k in 0..900u64 {
            let cx = (k % 3) as f64 * 8.0;
            let x = ((k * 131) % 97) as f64 / 60.0;
            let y = ((k * 37) % 89) as f64 / 60.0;
            pts.push(vec![cx + x, y]);
        }
        let cfg = DbscanConfig {
            eps: 0.7,
            min_pts: 6,
        };
        let m = PointMatrix::from_rows(&pts);
        let mut rng = StdRng::seed_from_u64(9);
        let baseline = dbscan_sampled_matrix(&m, &cfg, 200, 1, &mut rng);
        for threads in [2usize, 4, 8] {
            let mut rng = StdRng::seed_from_u64(9);
            let got = dbscan_sampled_matrix(&m, &cfg, 200, threads, &mut rng);
            assert_eq!(got.labels, baseline.labels, "threads = {threads}");
            assert_eq!(got.num_clusters, baseline.num_clusters);
        }
        // And the row-slice wrapper is the threads=1 case.
        let mut rng = StdRng::seed_from_u64(9);
        let wrapper = dbscan_sampled(&pts, &cfg, 200, &mut rng);
        assert_eq!(wrapper.labels, baseline.labels);
    }

    #[test]
    fn border_points_join_a_cluster() {
        // A dense core with a border point within eps of the core but with a
        // sparse own neighbourhood.
        let mut pts: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.01]).collect();
        pts.push(vec![0.3]); // border: within eps of core points
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.3,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert_eq!(res.labels[6], Some(0));
    }

    #[test]
    fn engine_counts_pruning_work() {
        let pts = blobs();
        let res = dbscan_matrix(
            &PointMatrix::from_rows(&pts),
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
            2,
        );
        let n = pts.len() as u64;
        assert_eq!(res.stats.region_queries, 2 * n);
        // The blobs sit at distinct radii, so banding must beat brute force.
        assert!(res.stats.dist_evals < res.stats.region_queries * n);
        assert!(res.stats.dist_evals > 0);
    }
}
