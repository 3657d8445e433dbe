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
//! query path ([`LiveEpoch::top_k`]) is one more backend of the offline
//! engine's Algorithm 2 ([`intentmatch::pipeline::run_algo2`]): its base
//! side runs the shared per-cluster step, then merges the delta — so an
//! epoch with an empty delta is bit-identical to the heap backend
//! ([`intentmatch::HeapStore`]) over the base. `LiveEpoch` is a
//! [`QuerySource`], so [`intentmatch::top_k_many`] batches over it.

use forum_index::{DeltaIndex, ScanCosts, ScoreScratch};
use intentmatch::pipeline::{
    query_cluster_groups, ranges_terms, run_algo2, scan_cluster, QueryScratch, RefinedSegment,
    ScanSpec, WeightedHits,
};
use intentmatch::store::StoreError;
use intentmatch::{IntentPipeline, PostCollection, QuerySource};
use std::collections::HashSet;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The last compacted state: what `intentmatch::store` persists.
#[derive(Debug)]
pub struct BaseState {
    /// The parsed posts of the snapshot. Posts restored from the store
    /// file are CM-annotated only on demand; serving never asks.
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
    /// updated one) and appends its units to the per-cluster deltas, each
    /// resolved against its cluster's index in `base`, the pipeline this
    /// delta applies to.
    pub(crate) fn insert_doc(&mut self, base: &IntentPipeline, dd: DeltaDoc) {
        for (seg, terms) in dd.refined.iter().zip(&dd.terms) {
            let index = &base.clusters[seg.cluster].index;
            self.deltas[seg.cluster].push_unit(index, dd.id, terms);
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

    /// The top-k documents related to live document `q`: Algorithm 1 + 2
    /// over base and delta, with the paper's `n = 2k` — the
    /// [`QuerySource`] query on a fresh scratch.
    pub fn top_k(&self, q: u32, k: usize) -> Vec<(u32, f64)> {
        self.query_top_k(q as usize, k, &mut QueryScratch::new())
            .expect("a live query never fails")
    }

    /// One consulted cluster's merged base + delta scan for query `q` —
    /// the step [`LiveEpoch::top_k`] hands Algorithm 2's runner, public
    /// so the shard-parallel serving tier runs *this exact code* per
    /// shard: sharded results are bit-identical to the single-scanner loop
    /// by construction, not by re-implementation.
    ///
    /// The base side is the shared per-cluster step
    /// ([`intentmatch::pipeline::scan_cluster`]) with the base tombstones
    /// invisible inside the owner scan (exactly — see
    /// [`forum_index::SegmentIndex::top_owners_excluding_filtered`]); the delta
    /// scan then scores pending units under the base's frozen statistics,
    /// and the two lists merge under the engine's (score desc, owner asc)
    /// order before truncation to `n`. Base and delta owner sets are
    /// disjoint by construction (an updated document's base units are
    /// tombstoned), so the merged truncation is the true top-`n` over live
    /// documents. With an empty delta this is exactly the heap step.
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
        let pipeline = &self.base.pipeline;
        let index = &pipeline.clusters[cluster].index;
        let spec = ScanSpec {
            exclude: Some(q),
            tombstones: Some(self.delta.base_tombstones()),
            filter,
            ..ScanSpec::new(n, pipeline.weighted_combination, pipeline.weighting)
        };
        let base_start = timing.then(Instant::now);
        let WeightedHits {
            weight,
            query,
            mut hits,
        } = scan_cluster(index, terms, &spec, scratch, None)?;
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
            &HashSet::new(),
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
            merged: WeightedHits {
                weight,
                query,
                hits,
            },
            base_ns,
            delta_ns,
        })
    }
}

/// One cluster's contribution to a live query: the merged base + delta
/// [`WeightedHits`], plus the scan's wall time split when timing was
/// requested.
#[derive(Debug, Clone)]
pub struct ClusterScan {
    /// The cluster's combination weight, its query, and the merged
    /// `(owner, score)` top-n, (score desc, owner asc).
    pub merged: WeightedHits,
    /// Base-side wall time in nanoseconds (cluster weight and base scan;
    /// 0 unless timing requested).
    pub base_ns: u64,
    /// Delta-scan wall time in nanoseconds (0 unless timing requested).
    pub delta_ns: u64,
}

/// The live backend of the batch runner ([`intentmatch::top_k_many`]):
/// the runner ([`intentmatch::pipeline::run_algo2`]) over `q`'s cluster
/// groups on the caller's scratch, with [`LiveEpoch::scan_cluster_filtered`]
/// as the step. A document the epoch does not hold answers `[]`.
impl QuerySource for LiveEpoch {
    fn num_docs(&self) -> usize {
        LiveEpoch::num_docs(self)
    }

    fn query_top_k(
        &self,
        q: usize,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError> {
        forum_obs::Registry::global().incr("ingest/live_queries", 1);
        let Ok(q) = u32::try_from(q) else {
            return Ok(Vec::new());
        };
        let Some(groups) = self.query_groups(q) else {
            return Ok(Vec::new());
        };
        run_algo2(&groups, k, None, scratch, |(cluster, terms), n, s| {
            let mut delta_costs = ScanCosts::default();
            let scan =
                self.scan_cluster_filtered(*cluster, terms, q, n, None, false, s, &mut delta_costs);
            Ok(scan.map(|scan| scan.merged))
        })
    }
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
