//! The online query engine: many queries, shared immutable pipeline.
//!
//! The paper's online phase (Section 7, deployed at forum scale in Section
//! 9.2.4) answers each query with a handful of per-intention index scans
//! (Algorithm 1) combined into a top-k (Algorithm 2). Those scans touch
//! only immutable state — the per-cluster indices and the query document's
//! refined segments — so a serving process can evaluate arbitrarily many
//! queries concurrently over one [`IntentPipeline`] without locks.
//!
//! [`QueryEngine`] packages that:
//!
//! * **Batch evaluation** ([`QueryEngine::top_k_batch`]): queries are
//!   partitioned over scoped worker threads (the same machinery as the
//!   offline [`crate::par`] phases). Each worker owns one
//!   [`QueryScratch`] — the dense score accumulators and combination map
//!   — reused across every query it serves, so the steady-state path
//!   performs no postings-sized allocations.
//! * **Intra-query parallelism** ([`QueryEngine::try_top_k`]): when a
//!   single query consults enough intention clusters, Algorithm 2's
//!   runner ([`crate::pipeline::run_algo2`]) runs its per-cluster steps on
//!   workers and folds them in cluster order.
//! * **Determinism**: results are bit-identical to the sequential
//!   [`IntentPipeline::top_k`] for every thread count — workers only
//!   change *where* a query is evaluated, never its scan order, score
//!   accumulation order, or tie-breaking. Asserted by the equivalence
//!   tests in `tests/engine.rs`.
//!
//! Observability (process-wide [`Registry`], when enabled): per batch,
//! `online/batch_ns` (latency), `online/batch_queries` (size) and the
//! `online/qps` gauge (batch throughput); per worker,
//! `online/worker_busy_ns` and an `online/batch_workers` count.

use crate::collection::PostCollection;
use crate::par::{try_parallel_map_init_with, WorkerPanic};
use crate::pipeline::{fold_weighted, query_cluster_groups, HeapMr, IntentPipeline, QueryScratch};
use forum_obs::{Registry, Trace, TraceCosts};
use std::collections::HashMap;
use std::time::Instant;

/// Maps index-level scan counters into the request-trace cost vocabulary.
pub fn scan_to_trace_costs(scan: forum_index::ScanCosts, clusters: u64) -> TraceCosts {
    TraceCosts {
        clusters_routed: clusters,
        postings_scanned: scan.postings_scanned,
        candidates_pruned: scan.candidates_pruned,
        heap_displacements: scan.heap_displacements,
        early_exits: scan.early_exits,
        distance_evals: 0,
    }
}

/// Default cluster count above which a single query's Algorithm 1 scans
/// run in parallel. Below it, fan-out overhead beats the scan time.
const DEFAULT_INTRA_QUERY_MIN_CLUSTERS: usize = 4;

/// Algorithm 2's fold ([`fold_weighted`]) over per-cluster scan results
/// supplied as `(weight, hits)` — which callers MUST keep in
/// cluster-consultation order, so every floating-point sum matches the
/// sequential [`IntentPipeline::top_k`] bit for bit.
///
/// The shard-parallel serving tier (`forum-shard`) merges through this,
/// so "sharded ≡ unsharded" is a structural property rather than a
/// re-implementation contract.
pub fn gather_weighted_scans<'a, I>(scans: I, k: usize) -> Vec<(u32, f64)>
where
    I: IntoIterator<Item = (f64, &'a [(u32, f64)])>,
{
    fold_weighted(&mut HashMap::new(), scans, k)
}

/// A parallel, allocation-lean evaluator of Algorithm 2 queries over a
/// shared immutable pipeline. Cheap to construct (two references and two
/// integers); hold one per serving loop.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    collection: &'a PostCollection,
    pipeline: &'a IntentPipeline,
    threads: usize,
    intra_query_min_clusters: usize,
}

impl<'a> QueryEngine<'a> {
    /// An engine over `pipeline` with one worker per core (`threads = 0`).
    pub fn new(collection: &'a PostCollection, pipeline: &'a IntentPipeline) -> Self {
        QueryEngine {
            collection,
            pipeline,
            threads: 0,
            intra_query_min_clusters: DEFAULT_INTRA_QUERY_MIN_CLUSTERS,
        }
    }

    /// The collection this engine queries.
    pub fn collection(&self) -> &'a PostCollection {
        self.collection
    }

    /// Sets the worker thread count: `1` = sequential, `0` = one per core.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the cluster count from which a single query parallelizes its
    /// per-intention scans ([`usize::MAX`] disables intra-query
    /// parallelism).
    pub fn with_intra_query_min_clusters(mut self, min: usize) -> Self {
        self.intra_query_min_clusters = min;
        self
    }

    /// The effective worker count for `items` work items.
    fn workers_for(&self, items: usize) -> usize {
        crate::par::auto_threads(self.threads).min(items.max(1))
    }

    /// Algorithm 2 for one query (`n = 2k`, the paper's choice) —
    /// bit-identical to [`IntentPipeline::top_k`].
    ///
    /// Panics if a scan worker panics; serving loops should prefer
    /// [`Self::try_top_k`].
    pub fn top_k(&self, q: usize, k: usize) -> Vec<(u32, f64)> {
        self.try_top_k(q, k, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::top_k`], returning a worker panic as an error instead of
    /// aborting the serving process: one poisoned query fails *that* query
    /// and the server keeps answering the rest.
    ///
    /// The per-cluster scans run on workers when the query consults at
    /// least `intra_query_min_clusters` clusters and more than one worker
    /// is configured. With `trace`, records an `engine/algo2` span: wall
    /// time plus the query's cost counters (clusters routed, postings
    /// scanned, candidates pruned, heap displacements). Counting is
    /// out-of-band — results are bit-identical with or without a trace.
    pub fn try_top_k(
        &self,
        q: usize,
        k: usize,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(u32, f64)>, WorkerPanic> {
        let start = Instant::now();
        let groups = query_cluster_groups(&self.pipeline.doc_segments, q);
        let workers = if groups.len() < self.intra_query_min_clusters {
            1
        } else {
            self.workers_for(groups.len())
        };
        let mut scratch = QueryScratch::new();
        let out = HeapMr::of(self.collection, self.pipeline).run(
            q,
            &groups,
            k,
            None,
            workers,
            &mut scratch,
        )?;
        if let Some(t) = trace {
            let costs = scan_to_trace_costs(scratch.take_costs(), groups.len() as u64);
            t.push_span("engine/algo2", start, costs);
        }
        Ok(out)
    }

    /// Evaluates a batch of queries (`n = 2k` each), one result list per
    /// query in input order — each bit-identical to
    /// [`IntentPipeline::top_k`] on the same query.
    ///
    /// Queries are partitioned into contiguous chunks, one per worker;
    /// each worker reuses a single [`QueryScratch`] across its chunk.
    ///
    /// Panics if a batch worker panics.
    pub fn top_k_batch(&self, queries: &[usize], k: usize) -> Vec<Vec<(u32, f64)>> {
        let obs = Registry::global();
        let timer = obs.is_enabled().then(Instant::now);
        let workers = self.workers_for(queries.len());
        let heap = HeapMr::of(self.collection, self.pipeline);
        let results = try_parallel_map_init_with(
            queries,
            workers,
            QueryScratch::new,
            |scratch, &q| heap.top_k(q, k, None, scratch),
            |r| {
                obs.record("online/worker_busy_ns", r.busy.as_nanos() as u64);
                obs.incr("online/batch_workers", 1);
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        if let Some(t) = timer {
            let elapsed = t.elapsed();
            obs.incr("online/batch_queries", queries.len() as u64);
            obs.record_duration("online/batch_ns", elapsed);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                obs.gauge("online/qps")
                    .set((queries.len() as f64 / secs) as i64);
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use forum_corpus::{Corpus, Domain, GenConfig};

    fn setup() -> (PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 120,
            seed: 31,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        (coll, pipe)
    }

    #[test]
    fn single_query_matches_pipeline() {
        let (coll, pipe) = setup();
        let engine = QueryEngine::new(&coll, &pipe);
        for q in [0usize, 3, 57, 119] {
            assert_eq!(engine.top_k(q, 5), pipe.top_k(&coll, q, 5), "query {q}");
        }
    }

    #[test]
    fn intra_query_parallel_scans_match_sequential() {
        let (coll, pipe) = setup();
        // Force the parallel per-cluster path (threshold 1) and compare
        // against the plain path on every query.
        let par = QueryEngine::new(&coll, &pipe)
            .with_threads(4)
            .with_intra_query_min_clusters(1);
        let seq = QueryEngine::new(&coll, &pipe).with_threads(1);
        for q in 0..coll.len() {
            assert_eq!(par.top_k(q, 5), seq.top_k(q, 5), "query {q}");
        }
    }

    #[test]
    fn batch_preserves_query_order() {
        let (coll, pipe) = setup();
        let engine = QueryEngine::new(&coll, &pipe).with_threads(3);
        let queries: Vec<usize> = (0..coll.len()).rev().collect();
        let batch = engine.top_k_batch(&queries, 5);
        assert_eq!(batch.len(), queries.len());
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(batch[i], pipe.top_k(&coll, q, 5), "slot {i} (query {q})");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (coll, pipe) = setup();
        let engine = QueryEngine::new(&coll, &pipe);
        assert!(engine.top_k_batch(&[], 5).is_empty());
    }
}
