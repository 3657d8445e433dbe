//! Per-query scatter/gather over the owning shards.
//!
//! One query consults an ordered list of intention clusters (the routing
//! produced by Algorithm 2's similarity weighting). [`scatter_gather`]
//! partitions that list by owning shard, runs each shard's scans on the
//! worker pool, and merges the per-cluster hit lists through
//! [`intentmatch::engine::gather_weighted_scans`] — **in the original
//! consultation order**, which is what makes the result bit-identical to
//! a single-shard engine: float accumulation order never depends on the
//! shard count, only on the routing order the sequential path would have
//! used anyway.

use crate::plan::{ShardSet, ShardStats};
use forum_obs::trace::{Trace, TraceCosts};
use forum_par::WorkerPanic;
use std::time::Instant;

/// One cluster's scan result, as produced by the owning shard's scanner.
#[derive(Debug, Clone)]
pub struct ClusterHits {
    /// The cluster's Algorithm 2 combination weight.
    pub weight: f64,
    /// Top-n `(owner, score)` hits, sorted score-desc / owner-asc.
    pub hits: Vec<(u32, f64)>,
    /// Work the scan performed (folded into the shard's trace span).
    pub costs: TraceCosts,
    /// Scan wall time in nanoseconds (base + delta).
    pub scan_ns: u64,
}

/// What [`scatter_gather`] hands back besides the ranked results.
#[derive(Debug, Default)]
pub struct ScatterOutcome {
    /// Final ranked `(owner, combined_score)` list, length ≤ k.
    pub ranked: Vec<(u32, f64)>,
    /// Clusters that actually contributed a scan (weight > 0, terms
    /// present).
    pub clusters_scanned: usize,
    /// Shards that received at least one cluster.
    pub shards_touched: usize,
}

/// Scans `route` (cluster ids in consultation order) across the shards of
/// `set`, merging into the top-`k` combined ranking.
///
/// `init` builds one scratch state per worker; `scan` runs one cluster's
/// Algorithm 1 scan against that scratch and returns `None` when the
/// cluster contributes nothing (zero weight, no usable terms). Scan
/// results are reassembled in `route` order before the weighted merge, so
/// the output is bit-identical for any shard count, including 1.
///
/// When `trace` is given, pushes `shard/scatter`, one `shard/<i>/scan`
/// per touched shard (duration = that shard's scan time, costs = its
/// scans' summed costs), and `shard/gather`. Per-shard totals are also
/// accumulated into `stats` for the `/metrics` labeled families.
pub fn scatter_gather<S, I, F>(
    set: &ShardSet,
    stats: &ShardStats,
    route: &[usize],
    k: usize,
    init: I,
    scan: F,
    mut trace: Option<&mut Trace>,
) -> Result<ScatterOutcome, WorkerPanic>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Option<ClusterHits> + Sync,
{
    // Algorithm 2's k = 0 contract: no results, and no scan at a list
    // length of zero.
    if k == 0 {
        return Ok(ScatterOutcome::default());
    }
    // Scatter: partition the routed clusters by owning shard, preserving
    // the consultation order inside each shard's work list.
    let scatter_start = Instant::now();
    let plan = set.plan();
    let mut per_shard: Vec<Vec<(usize, usize)>> = vec![Vec::new(); set.shards()];
    for (orig, &cluster) in route.iter().enumerate() {
        per_shard[plan.shard_of(cluster)].push((orig, cluster));
    }
    let work: Vec<(usize, Vec<(usize, usize)>)> = per_shard
        .into_iter()
        .enumerate()
        .filter(|(_, clusters)| !clusters.is_empty())
        .collect();
    if let Some(t) = trace.as_mut() {
        t.push_span(
            "shard/scatter",
            scatter_start,
            TraceCosts {
                clusters_routed: route.len() as u64,
                ..TraceCosts::default()
            },
        );
    }

    // Scan: one parallel task per touched shard. Workers are capped at the
    // number of touched shards; forum-par runs a single shard inline on
    // the calling thread, so S=1 has no fan-out overhead at all.
    struct ShardScan {
        shard: usize,
        results: Vec<(usize, ClusterHits)>,
        dur_ns: u64,
        costs: TraceCosts,
    }
    let shard_scans: Vec<ShardScan> = forum_par::try_parallel_map_init_with(
        &work,
        work.len(),
        &init,
        |scratch, (shard, clusters)| {
            let start = Instant::now();
            let mut results = Vec::with_capacity(clusters.len());
            let mut costs = TraceCosts::default();
            let mut scan_ns = 0u64;
            let mut postings = 0u64;
            for &(orig, cluster) in clusters {
                if let Some(hits) = scan(scratch, cluster) {
                    costs.merge(&hits.costs);
                    scan_ns += hits.scan_ns;
                    postings += hits.costs.postings_scanned;
                    results.push((orig, hits));
                }
            }
            let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            stats.record_scan(*shard, results.len() as u64, postings, scan_ns);
            ShardScan {
                shard: *shard,
                results,
                dur_ns,
                costs,
            }
        },
        |_| {},
    )?;

    // Gather: reassemble in consultation order, then run the one true
    // Algorithm 2 merge. Two shards never hold the same original index,
    // so the sort key is unique and the order fully determined.
    let gather_start = Instant::now();
    let mut ordered: Vec<(usize, ClusterHits)> = shard_scans
        .iter()
        .flat_map(|s| s.results.iter().map(|(orig, h)| (*orig, h.clone())))
        .collect();
    ordered.sort_by_key(|(orig, _)| *orig);
    let clusters_scanned = ordered.len();
    let ranked = intentmatch::engine::gather_weighted_scans(
        ordered.iter().map(|(_, h)| (h.weight, h.hits.as_slice())),
        k,
    );
    if let Some(t) = trace {
        for s in &shard_scans {
            // Accumulated-phase convention: start offset 0, measured
            // duration.
            t.push_span_ns(&format!("shard/{}/scan", s.shard), 0, s.dur_ns, s.costs);
        }
        t.push_span("shard/gather", gather_start, TraceCosts::default());
    }
    Ok(ScatterOutcome {
        ranked,
        clusters_scanned,
        shards_touched: shard_scans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;

    /// A synthetic deterministic scanner: overlapping owners across
    /// clusters with scores whose float accumulation is order-sensitive,
    /// so any merge-order drift across shard counts shows up bitwise.
    fn synth_scan(cluster: usize) -> Option<ClusterHits> {
        if cluster % 7 == 3 {
            return None; // some clusters contribute nothing
        }
        let weight = 1.0 / (cluster as f64 + 1.7);
        let hits: Vec<(u32, f64)> = (0..8)
            .map(|i| {
                let owner = ((cluster * 3 + i * 5) % 13) as u32;
                let score = 0.1 + (cluster as f64 * 0.37 + i as f64 * 0.11).sin().abs();
                (owner, score)
            })
            .collect();
        Some(ClusterHits {
            weight,
            hits,
            costs: TraceCosts {
                postings_scanned: 8,
                ..TraceCosts::default()
            },
            scan_ns: 10,
        })
    }

    fn run(shards: usize, route: &[usize], k: usize) -> ScatterOutcome {
        let set = ShardSet::build(ShardPlan::new(shards), 64);
        let stats = ShardStats::new(shards);
        scatter_gather(
            &set,
            &stats,
            route,
            k,
            || (),
            |(), cluster| synth_scan(cluster),
            None,
        )
        .unwrap()
    }

    fn bits(ranked: &[(u32, f64)]) -> Vec<(u32, u64)> {
        ranked.iter().map(|&(o, s)| (o, s.to_bits())).collect()
    }

    #[test]
    fn scatter_bit_identity_across_shard_counts() {
        // Consultation order deliberately not sorted: the gather must key
        // on original position, not cluster id.
        let route = vec![11, 2, 33, 5, 0, 27, 14, 8, 40, 63, 21, 1];
        let baseline = run(1, &route, 10);
        assert!(!baseline.ranked.is_empty());
        // The unsharded reference: feed the merge directly in route order.
        let direct: Vec<ClusterHits> = route.iter().filter_map(|&c| synth_scan(c)).collect();
        let reference = intentmatch::engine::gather_weighted_scans(
            direct.iter().map(|h| (h.weight, h.hits.as_slice())),
            10,
        );
        assert_eq!(bits(&baseline.ranked), bits(&reference));
        for shards in [2, 4, 8] {
            let sharded = run(shards, &route, 10);
            assert_eq!(
                bits(&sharded.ranked),
                bits(&baseline.ranked),
                "S={shards} must be bit-identical to S=1"
            );
            assert_eq!(sharded.clusters_scanned, baseline.clusters_scanned);
        }
    }

    #[test]
    fn outcome_reports_contributing_clusters_and_touched_shards() {
        let route = vec![0, 1, 2, 3, 4, 5, 6, 7]; // 3 routes to None (3 % 7 == 3)
        let out = run(4, &route, 5);
        assert_eq!(out.clusters_scanned, 7);
        assert_eq!(out.shards_touched, 4);
        let empty = run(4, &[], 5);
        assert!(empty.ranked.is_empty());
        assert_eq!(empty.shards_touched, 0);
        let k0 = run(4, &route, 0);
        assert!(k0.ranked.is_empty());
        assert_eq!((k0.clusters_scanned, k0.shards_touched), (0, 0));
    }

    #[test]
    fn stats_accumulate_per_owning_shard() {
        let set = ShardSet::build(ShardPlan::new(2), 16);
        let stats = ShardStats::new(2);
        let route = vec![0, 1, 2, 4]; // shard 0: {0, 2, 4}, shard 1: {1}
        scatter_gather(
            &set,
            &stats,
            &route,
            5,
            || (),
            |(), cluster| synth_scan(cluster),
            None,
        )
        .unwrap();
        assert_eq!(stats.counters(0).scans, 3);
        assert_eq!(stats.counters(1).scans, 1);
        assert_eq!(stats.counters(0).postings_scanned, 24);
        assert!(stats.counters(0).scan_ns >= 30);
    }

    #[test]
    fn trace_gets_scatter_shard_and_gather_spans() {
        let set = ShardSet::build(ShardPlan::new(4), 16);
        let stats = ShardStats::new(4);
        let mut trace = Trace::begin("query", Some("shard-span-test"));
        scatter_gather(
            &set,
            &stats,
            &[0, 1, 2, 5],
            5,
            || (),
            |(), cluster| synth_scan(cluster),
            Some(&mut trace),
        )
        .unwrap();
        trace.finish();
        let json = format!("{}", trace.to_json());
        assert!(json.contains("shard/scatter"), "{json}");
        assert!(json.contains("shard/gather"), "{json}");
        assert!(json.contains("shard/0/scan"), "{json}");
        assert!(json.contains("shard/1/scan"), "{json}");
    }

    #[test]
    fn worker_panic_is_an_error_not_a_crash() {
        let set = ShardSet::build(ShardPlan::new(2), 8);
        let stats = ShardStats::new(2);
        let result = scatter_gather(
            &set,
            &stats,
            &[0, 1],
            5,
            || (),
            |(), cluster| -> Option<ClusterHits> {
                if cluster == 1 {
                    panic!("scanner blew up");
                }
                synth_scan(cluster)
            },
            None,
        );
        assert!(result.is_err());
    }
}
