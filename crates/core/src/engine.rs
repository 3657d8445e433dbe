//! Helpers the serving tiers share with the heap query path.
//!
//! The paper's online phase (Section 7) answers each query with a handful
//! of per-intention index scans (Algorithm 1) folded once into a top-k
//! (Algorithm 2). The runner lives in [`crate::pipeline::run_algo2`] and
//! the batch runner in [`crate::view::top_k_many`]; this module holds what
//! callers outside the heap path need around them:
//!
//! * [`gather_weighted_scans`] — Algorithm 2's fold over per-cluster scans
//!   computed elsewhere (the shard-parallel tier's gather step), so
//!   "sharded ≡ unsharded" holds by construction.
//! * [`scan_to_trace_costs`] — maps the index's scan counters into the
//!   request-trace cost vocabulary.

use crate::pipeline::fold_weighted;
use forum_obs::TraceCosts;
use std::collections::HashMap;

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

/// Algorithm 2's fold ([`fold_weighted`]) over per-cluster scan results
/// supplied as `(weight, hits)` — which callers MUST keep in
/// cluster-consultation order, so every floating-point sum matches the
/// sequential [`crate::IntentPipeline::top_k`] bit for bit.
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
