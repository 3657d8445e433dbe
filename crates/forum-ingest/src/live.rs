//! Epoch-swapped serving state for live ingestion.
//!
//! A serving process holds one [`EpochHandle`]; every query clones the
//! current [`LiveEpoch`] `Arc` and evaluates against that immutable view.
//! Writers build the next epoch off to the side and [`EpochHandle::publish`]
//! it in one pointer swap — a reader sees either the state before a write
//! batch or the state after it, never a half-applied batch.
//!
//! An epoch is a frozen **base** (the last compacted
//! collection + pipeline, shared by `Arc` across epochs) plus a **delta**:
//! documents ingested since the last compaction, their per-cluster
//! [`DeltaIndex`] units, and tombstones for deletions and updates. The
//! query path ([`LiveEpoch::top_k`]) mirrors the offline engine's
//! Algorithm 1 + 2 combination exactly — same scan, same float-operation
//! order — so an epoch with an empty delta is bit-identical to
//! [`intentmatch::QueryEngine`] over the base.

use forum_index::{DeltaIndex, ScanCosts, ScoreScratch, SegmentIndex};
use forum_obs::{Trace, TraceCosts};
use intentmatch::pipeline::{
    cluster_weight_for_terms, query_cluster_groups, ranges_terms, RefinedSegment,
};
use intentmatch::{IntentPipeline, PostCollection};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The last compacted state: what `intentmatch::store` persists.
#[derive(Debug)]
pub struct BaseState {
    /// The parsed, CM-annotated posts of the snapshot.
    pub collection: PostCollection,
    /// The built pipeline over them.
    pub pipeline: IntentPipeline,
}

impl BaseState {
    /// Number of documents in the compacted snapshot.
    pub fn len(&self) -> usize {
        self.collection.len()
    }

    /// Whether the snapshot holds no documents.
    pub fn is_empty(&self) -> bool {
        self.collection.is_empty()
    }
}

/// One document ingested since the last compaction, fully processed: parsed,
/// CM-annotated, segmented, and its segments assigned to existing intention
/// clusters. Everything compaction and serving need is precomputed here so
/// neither ever re-runs the NLP phases.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    /// Document id (continues the base id space; an update reuses the
    /// updated document's id).
    pub id: u32,
    /// The parsed, annotated document.
    pub doc: forum_segment::CmDoc,
    /// Its raw (pre-refinement) segmentation.
    pub raw_seg: forum_text::Segmentation,
    /// Refined segments, one per assigned cluster, sorted by first range —
    /// the same shape `IntentPipeline::doc_segments` holds.
    pub refined: Vec<RefinedSegment>,
    /// The normalized terms of each refined segment (parallel to
    /// `refined`).
    pub terms: Vec<Vec<String>>,
}

/// Everything ingested since the last compaction.
///
/// Cloning a delta state — once per published epoch — copies pointers
/// only: pending documents and their delta units are immutable behind
/// `Arc`s, and the tombstone sets are `Arc`-shared and copied on write,
/// by the mutators below, only when a delete or update changes them.
/// Epochs therefore share every pending allocation with the writer and
/// with each other.
#[derive(Debug, Clone)]
pub struct DeltaState {
    /// Pending documents, sorted by id.
    pub docs: Vec<Arc<DeltaDoc>>,
    /// One delta index per intention cluster (parallel to the base
    /// pipeline's clusters).
    pub deltas: Vec<DeltaIndex>,
    /// Ids that are dead everywhere: deleted documents.
    deleted: Arc<HashSet<u32>>,
    /// Base ids whose *base* units are dead because the document was
    /// updated — the live version is the same-id entry in `docs`.
    superseded: Arc<HashSet<u32>>,
    /// Base owners whose units must not surface: deleted ∪ superseded,
    /// restricted to base ids. Kept in step with the two sets above by
    /// the mutators, which is why all three are private.
    base_tombstones: Arc<HashSet<u32>>,
    /// Number of documents in the base this delta applies to.
    base_len: u32,
    /// The next id a fresh add receives.
    pub next_id: u32,
}

impl DeltaState {
    /// An empty delta over `num_clusters` clusters on top of a base of
    /// `base_len` documents; fresh ids start at `base_len`.
    pub fn new(num_clusters: usize, base_len: u32) -> Self {
        DeltaState {
            docs: Vec::new(),
            deltas: vec![DeltaIndex::new(); num_clusters],
            deleted: Arc::default(),
            superseded: Arc::default(),
            base_tombstones: Arc::default(),
            base_len,
            next_id: base_len,
        }
    }

    /// Whether anything is pending (documents, deletions, or updates).
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty() && self.deleted.is_empty() && self.superseded.is_empty()
    }

    /// The pending delta document with this id, if any.
    pub fn doc(&self, id: u32) -> Option<&DeltaDoc> {
        self.docs
            .binary_search_by_key(&id, |d| d.id)
            .ok()
            .map(|i| &*self.docs[i])
    }

    /// Total pending units across all cluster deltas.
    pub fn num_units(&self) -> usize {
        self.deltas.iter().map(DeltaIndex::num_units).sum()
    }

    /// Ids that are dead everywhere: deleted documents.
    pub fn deleted(&self) -> &HashSet<u32> {
        &self.deleted
    }

    /// Base ids whose *base* units are dead because the document was
    /// updated — the live version is the same-id entry in `docs`.
    pub fn superseded(&self) -> &HashSet<u32> {
        &self.superseded
    }

    /// Base owners whose units must not surface (deleted or superseded).
    pub fn base_tombstones(&self) -> &HashSet<u32> {
        &self.base_tombstones
    }

    /// Whether `id` names a live document.
    pub fn is_live(&self, id: u32) -> bool {
        id < self.next_id && !self.deleted.contains(&id)
    }

    /// Inserts a processed document (a fresh add, or the new version of an
    /// updated one) and appends its units to the per-cluster deltas.
    pub(crate) fn insert_doc(&mut self, dd: DeltaDoc) {
        for (seg, terms) in dd.refined.iter().zip(&dd.terms) {
            self.deltas[seg.cluster].push_unit(dd.id, terms);
        }
        let pos = self
            .docs
            .binary_search_by_key(&dd.id, |d| d.id)
            .unwrap_err();
        self.docs.insert(pos, Arc::new(dd));
    }

    /// Physically removes the pending document `id` (if it names one) and
    /// its delta units.
    fn remove_doc(&mut self, id: u32) {
        if let Ok(pos) = self.docs.binary_search_by_key(&id, |d| d.id) {
            let dd = self.docs.remove(pos);
            for seg in &dd.refined {
                self.deltas[seg.cluster].remove_owner(id);
            }
        }
    }

    /// Deletes live document `id`: drops its pending version and
    /// tombstones it everywhere.
    pub(crate) fn delete(&mut self, id: u32) {
        self.remove_doc(id);
        if self.superseded.contains(&id) {
            Arc::make_mut(&mut self.superseded).remove(&id);
        }
        Arc::make_mut(&mut self.deleted).insert(id);
        if id < self.base_len && !self.base_tombstones.contains(&id) {
            Arc::make_mut(&mut self.base_tombstones).insert(id);
        }
    }

    /// Drops live document `id`'s current version ahead of an update: a
    /// pending version is removed, a base version is tombstoned. The
    /// caller inserts the new version with [`DeltaState::insert_doc`].
    pub(crate) fn supersede(&mut self, id: u32) {
        self.remove_doc(id);
        if id < self.base_len && !self.superseded.contains(&id) {
            Arc::make_mut(&mut self.superseded).insert(id);
            Arc::make_mut(&mut self.base_tombstones).insert(id);
        }
    }
}

/// One immutable serving view: a shared base plus the delta as of some
/// write. Queries run against an epoch without any locking.
#[derive(Debug)]
pub struct LiveEpoch {
    /// The compacted snapshot (shared across epochs until a compaction
    /// replaces it).
    pub base: Arc<BaseState>,
    /// Pending writes applied on top of the base.
    pub delta: DeltaState,
    /// Monotone epoch counter, bumped by every publish.
    pub epoch: u64,
}

impl LiveEpoch {
    /// Builds an epoch view over `base` + `delta`.
    pub fn new(base: Arc<BaseState>, delta: DeltaState, epoch: u64) -> Self {
        debug_assert_eq!(
            delta.base_len as usize,
            base.len(),
            "delta over another base"
        );
        LiveEpoch { base, delta, epoch }
    }

    /// One past the highest assigned document id.
    pub fn num_docs(&self) -> usize {
        self.delta.next_id as usize
    }

    /// Number of documents that currently exist (assigned and not deleted).
    pub fn num_live_docs(&self) -> usize {
        self.num_docs() - self.delta.deleted.len()
    }

    /// Whether `id` names a live document.
    pub fn is_live(&self, id: u32) -> bool {
        self.delta.is_live(id)
    }

    /// Whether the epoch has uncompacted writes.
    pub fn has_pending(&self) -> bool {
        !self.delta.is_empty()
    }

    /// The (cleaned) text of a live document — from the delta if added or
    /// updated since the last compaction, else from the base.
    pub fn doc_text(&self, id: u32) -> Option<&str> {
        if !self.is_live(id) {
            return None;
        }
        if let Some(dd) = self.delta.doc(id) {
            return Some(&dd.doc.doc.text);
        }
        self.base
            .collection
            .docs
            .get(id as usize)
            .map(|d| d.doc.text.as_str())
    }

    /// The consulted clusters of query document `q`, as
    /// `(cluster, query terms)` in first-appearance order — from the delta
    /// if `q` was added or updated since the last compaction, else from the
    /// base. `None` if `q` does not name a live document.
    ///
    /// Public so the shard-parallel serving tier (`forum-shard`) can
    /// partition a query's cluster groups across shard scanners while this
    /// type keeps the single scan implementation.
    pub fn query_groups(&self, q: u32) -> Option<Vec<(usize, Vec<String>)>> {
        if !self.is_live(q) {
            return None;
        }
        if let Some(dd) = self.delta.doc(q) {
            return Some(
                dd.refined
                    .iter()
                    .zip(&dd.terms)
                    .map(|(s, t)| (s.cluster, t.clone()))
                    .collect(),
            );
        }
        let base = &*self.base;
        Some(
            query_cluster_groups(&base.pipeline.doc_segments, q as usize)
                .into_iter()
                .map(|g| {
                    let terms = ranges_terms(&base.collection, q as usize, &g.ranges);
                    (g.cluster, terms)
                })
                .collect(),
        )
    }

    /// The top-k documents related to live document `q` (Algorithm 2 with
    /// the paper's `n = 2k`).
    pub fn top_k(&self, q: u32, k: usize) -> Vec<(u32, f64)> {
        self.top_k_with_n(q, k, 2 * k)
    }

    /// Algorithm 1 + 2 over base and delta with an explicit per-intention
    /// list length `n`.
    ///
    /// Per consulted cluster: the base scan excludes tombstoned owners
    /// (exactly — see [`SegmentIndex::top_owners_excluding`]), the delta
    /// scan scores pending units under the base's frozen statistics, and
    /// the two lists merge under the engine's (score desc, owner asc)
    /// order before truncation to `n`. Base and delta owner sets are
    /// disjoint by construction (an updated document's base units are
    /// tombstoned), so the merged truncation is the true top-`n` over live
    /// documents. With an empty delta this collapses to the exact scan the
    /// batch engine runs — bit-identical scores.
    pub fn top_k_with_n(&self, q: u32, k: usize, n: usize) -> Vec<(u32, f64)> {
        self.top_k_with_n_traced(q, k, n, None)
    }

    /// [`top_k_with_n`] recording `live/base_scan` and `live/delta_scan`
    /// spans into `trace` when one is supplied — each span's duration is
    /// the wall time *accumulated* across every consulted cluster, and its
    /// costs are the summed scan-work counters for that side of the merge.
    /// Scores are bit-identical with or without a trace: the counters ride
    /// out-of-band next to the exact same float operations.
    pub fn top_k_with_n_traced(
        &self,
        q: u32,
        k: usize,
        n: usize,
        trace: Option<&mut Trace>,
    ) -> Vec<(u32, f64)> {
        forum_obs::Registry::global().incr("ingest/live_queries", 1);
        let Some(groups) = self.query_groups(q) else {
            return Vec::new();
        };
        let mut scratch = ScoreScratch::new();
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let timing = trace.is_some();
        let mut clusters_routed = 0u64;
        let (mut base_ns, mut delta_ns) = (0u64, 0u64);
        let mut delta_costs = ScanCosts::default();
        for (cluster, terms) in &groups {
            let Some(scan) = self.scan_cluster_filtered(
                *cluster,
                terms,
                q,
                n,
                None,
                timing,
                &mut scratch,
                &mut delta_costs,
            ) else {
                continue;
            };
            clusters_routed += 1;
            base_ns += scan.base_ns;
            delta_ns += scan.delta_ns;
            for (owner, score) in scan.hits {
                *acc.entry(owner).or_insert(0.0) += scan.weight * score;
            }
        }
        let mut out: Vec<(u32, f64)> = acc.into_iter().collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then(a.0.cmp(&b.0))
        });
        out.truncate(k);
        if let Some(t) = trace {
            let base_costs = scratch.costs.take();
            t.push_span_ns(
                "live/base_scan",
                0,
                base_ns,
                TraceCosts {
                    clusters_routed,
                    postings_scanned: base_costs.postings_scanned,
                    candidates_pruned: base_costs.candidates_pruned,
                    heap_displacements: base_costs.heap_displacements,
                    early_exits: base_costs.early_exits,
                    ..TraceCosts::default()
                },
            );
            t.push_span_ns(
                "live/delta_scan",
                0,
                delta_ns,
                TraceCosts {
                    postings_scanned: delta_costs.postings_scanned,
                    candidates_pruned: delta_costs.candidates_pruned,
                    heap_displacements: delta_costs.heap_displacements,
                    early_exits: delta_costs.early_exits,
                    ..TraceCosts::default()
                },
            );
        }
        out
    }

    /// One consulted cluster's merged base + delta scan for query `q` —
    /// the per-cluster body of [`LiveEpoch::top_k_with_n_traced`],
    /// extracted so the shard-parallel serving tier runs *this exact
    /// code* per shard: sharded results are bit-identical to the
    /// single-scanner loop by construction, not by re-implementation.
    ///
    /// Returns `None` when the cluster contributes nothing (empty terms
    /// or non-positive combination weight). `filter` is the per-tenant
    /// visibility hook threaded into both the base postings scan and the
    /// frozen delta scan; `timing` populates `base_ns`/`delta_ns` for
    /// trace spans. `delta_costs` accumulates the delta side's work
    /// counters (base-side counters land in `scratch.costs`).
    #[allow(clippy::too_many_arguments)]
    pub fn scan_cluster_filtered(
        &self,
        cluster: usize,
        terms: &[String],
        q: u32,
        n: usize,
        filter: Option<forum_index::DocFilter>,
        timing: bool,
        scratch: &mut ScoreScratch,
        delta_costs: &mut ScanCosts,
    ) -> Option<ClusterScan> {
        if terms.is_empty() {
            return None;
        }
        let base = &*self.base;
        let scheme = base.pipeline.weighting;
        let weighted = base.pipeline.weighted_combination;
        let index = &base.pipeline.clusters[cluster].index;
        let weight = if weighted {
            cluster_weight_for_terms(index, terms)
        } else {
            1.0
        };
        if weight <= 0.0 {
            return None;
        }
        let no_tombstones = HashSet::new();
        let query = SegmentIndex::query_from_terms(terms);
        let base_start = timing.then(Instant::now);
        let mut hits = index.top_owners_excluding_filtered(
            &query,
            n,
            scheme,
            Some(q),
            self.delta.base_tombstones(),
            filter,
            scratch,
        );
        let base_ns = base_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        // A full base page gives the delta scan a floor: its n-th
        // score is exact, so a pending unit whose upper bound falls
        // strictly below it can never survive the merged truncation.
        // (Ties are kept — the merge breaks them by owner id.)
        let floor = (hits.len() == n).then(|| hits[n - 1].1);
        let delta_start = timing.then(Instant::now);
        let delta_hits = self.delta.deltas[cluster].top_owners_frozen_filtered(
            index,
            &query,
            Some(q),
            &no_tombstones,
            filter,
            floor,
            delta_costs,
        );
        let delta_ns = delta_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        if !delta_hits.is_empty() {
            hits.extend(delta_hits);
            hits.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("scores are finite")
                    .then(a.0.cmp(&b.0))
            });
            hits.truncate(n);
        }
        Some(ClusterScan {
            weight,
            hits,
            base_ns,
            delta_ns,
        })
    }
}

/// One cluster's contribution to a query: the Eq. 6 combination weight and
/// the merged base + delta top-n, plus the scan's wall time split when
/// timing was requested.
#[derive(Debug, Clone)]
pub struct ClusterScan {
    /// The cluster's Algorithm 2 combination weight (squared mean IDF of
    /// the query's distinct terms in this cluster, or 1.0 unweighted).
    pub weight: f64,
    /// The merged `(owner, score)` top-n, (score desc, owner asc).
    pub hits: Vec<(u32, f64)>,
    /// Base-scan wall time in nanoseconds (0 unless timing requested).
    pub base_ns: u64,
    /// Delta-scan wall time in nanoseconds (0 unless timing requested).
    pub delta_ns: u64,
}

/// The swap point between writers and readers: an `Arc`-of-epoch behind a
/// lock held only for the duration of a pointer clone or store.
#[derive(Debug)]
pub struct EpochHandle {
    inner: RwLock<Arc<LiveEpoch>>,
}

impl EpochHandle {
    /// A handle serving `epoch`.
    pub fn new(epoch: Arc<LiveEpoch>) -> Self {
        EpochHandle {
            inner: RwLock::new(epoch),
        }
    }

    /// The current serving epoch. The returned `Arc` stays valid (and
    /// immutable) however many publishes happen after.
    pub fn current(&self) -> Arc<LiveEpoch> {
        self.inner.read().expect("epoch lock poisoned").clone()
    }

    /// Atomically replaces the serving epoch. In-flight readers keep their
    /// old `Arc`; new readers see `epoch`. The replaced epoch is released
    /// after the lock is dropped, so no reader waits on it; whoever holds
    /// its last reference frees it, and that only releases what no newer
    /// epoch shares.
    pub fn publish(&self, epoch: Arc<LiveEpoch>) {
        forum_obs::Registry::global()
            .gauge("ingest/epoch")
            .set(epoch.epoch as i64);
        forum_obs::EventLog::global().emit(
            "epoch_swap",
            forum_obs::json::Json::obj()
                .with("epoch", epoch.epoch)
                .with("num_docs", epoch.num_docs() as u64)
                .with("pending_units", epoch.delta.num_units() as u64),
        );
        let replaced = std::mem::replace(
            &mut *self.inner.write().expect("epoch lock poisoned"),
            epoch,
        );
        drop(replaced);
    }
}
