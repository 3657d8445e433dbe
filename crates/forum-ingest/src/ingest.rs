//! The live store: WAL-durable writes over a compacted snapshot.
//!
//! [`LiveStore::open`] loads the last snapshot (`intentmatch::store`),
//! replays the WAL beside it, and publishes the first serving epoch. Every
//! write ([`LiveStore::add`]/[`delete`](LiveStore::delete)/
//! [`update`](LiveStore::update)) is appended to the WAL and fsync'd
//! *before* it is applied in memory and published — a crash after the
//! append replays the write on reopen; a crash during it recovers the
//! state before the write. [`LiveStore::compact`] folds the delta into a
//! fresh snapshot (atomic replace), truncates the WAL, and swaps the base.
//!
//! New documents are processed with the **frozen** intention model: the
//! existing segmentation strategy segments them, and each segment is
//! assigned to the nearest existing cluster centroid — centroids are never
//! moved by ingestion (the paper's position is that intentions drift
//! slowly and grouping is re-run periodically; here, a periodic full
//! rebuild plays that role). With [`IngestConfig::assign_eps`] set,
//! segments farther than `eps` from every centroid are treated as noise
//! and dropped instead of force-assigned.

use crate::live::{BaseState, DeltaDoc, DeltaState, EpochHandle, LiveEpoch};
use crate::wal::{Wal, WalError, WalRecord};
use forum_cluster::PointMatrix;
use forum_obs::json::Json;
use forum_obs::{Trace, TraceCosts, TraceStore};
use forum_text::document::DocId;
use forum_text::{Document, Segmentation};
use intentmatch::pipeline::{doc_ranges_terms, refine_assigned, segment_terms, RefinedSegment};
use intentmatch::store::{self, StoreError};
use intentmatch::{IntentPipeline, PipelineConfig, PostCollection};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Ingestion-specific knobs on top of [`PipelineConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestConfig {
    /// Centroid-distance gate for segment assignment. `None` (the default)
    /// assigns every segment to its nearest centroid — the same rule the
    /// offline pipeline uses for noise under `assign_noise`, which keeps
    /// ingest+compact equivalent to a rebuild. `Some(eps)` drops segments
    /// farther than `eps` from every centroid as noise (the DBSCAN-faithful
    /// choice for collections whose offline build dropped noise too).
    pub assign_eps: Option<f64>,
}

/// Errors from the live store.
#[derive(Debug)]
pub enum IngestError {
    /// WAL failure (I/O or corruption).
    Wal(WalError),
    /// Snapshot load/save failure.
    Store(StoreError),
    /// A delete or update named a document that does not exist (never
    /// assigned, or already deleted).
    UnknownDoc(u32),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Wal(e) => write!(f, "{e}"),
            IngestError::Store(e) => write!(f, "{e}"),
            IngestError::UnknownDoc(id) => write!(f, "document {id} does not exist"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<WalError> for IngestError {
    fn from(e: WalError) -> Self {
        IngestError::Wal(e)
    }
}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> Self {
        IngestError::Store(e)
    }
}

/// The WAL lives beside its snapshot: `<store>.wal`.
pub fn wal_path_for(store_path: &Path) -> PathBuf {
    let mut p = store_path.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

/// The fingerprint binding a WAL to the snapshot its records apply on top
/// of: FNV-1a over the snapshot's identity bytes, folded with the file
/// length. A compaction changes the snapshot, so a WAL left behind by a
/// crash between snapshot save and WAL reset no longer matches and is
/// discarded on the next open (see `wal::Wal::open`).
///
/// For v2 stores the identity bytes are the 64-byte header plus the
/// section directory: every section's FNV checksum lives in a directory
/// entry and the directory's own checksum lives in the header, so any
/// change to any section byte changes the directory — hashing header +
/// directory binds the entire snapshot in O(sections), not O(file). A v1
/// store (or a v2 file whose header does not parse; `store::load` will
/// report the real corruption) hashes the whole file as before.
pub(crate) fn snapshot_tag(store_path: &Path) -> Result<u64, IngestError> {
    use std::io::Read as _;
    let io = |e: std::io::Error| IngestError::Store(StoreError::Io(e));
    let mut file = std::fs::File::open(store_path).map_err(io)?;
    let file_len = file.metadata().map_err(io)?.len();
    if file_len >= intentmatch::store_v2::HEADER_BYTES as u64 {
        let mut head = [0u8; intentmatch::store_v2::HEADER_BYTES];
        file.read_exact(&mut head).map_err(io)?;
        if &head[0..4] == intentmatch::store_v2::V2_MAGIC {
            let dir_offset = u64::from_le_bytes(head[8..16].try_into().unwrap());
            let dir_len = u64::from_le_bytes(head[16..24].try_into().unwrap());
            let dir_end = dir_offset.checked_add(dir_len);
            if dir_offset >= intentmatch::store_v2::HEADER_BYTES as u64
                && dir_end.is_some_and(|end| end <= file_len)
            {
                use std::io::{Seek as _, SeekFrom};
                let mut identity = head.to_vec();
                identity.resize(head.len() + dir_len as usize, 0);
                file.seek(SeekFrom::Start(dir_offset)).map_err(io)?;
                file.read_exact(&mut identity[head.len()..]).map_err(io)?;
                return Ok(crate::wal::fnv1a(&identity) ^ file_len.rotate_left(32));
            }
        }
    }
    let bytes = std::fs::read(store_path).map_err(io)?;
    Ok(crate::wal::fnv1a(&bytes) ^ (bytes.len() as u64).rotate_left(32))
}

/// How many WAL records are pending on top of the snapshot at
/// `store_path` — records whose tag does not match the snapshot are
/// stale leftovers `Wal::open` would discard, so they do not count.
/// A missing WAL is zero pending.
///
/// The mapped reader serves a snapshot, not a live store: it never opens
/// the WAL, so `intentmatch serve --mapped` refuses to start while this
/// is non-zero — serving a snapshot that pending writes have already
/// superseded would silently drop them from every ranking.
pub fn pending_wal_records(store_path: &Path) -> Result<usize, IngestError> {
    let tag = snapshot_tag(store_path)?;
    let inspection = crate::wal::inspect(&wal_path_for(store_path), tag)
        .map_err(|e| IngestError::Wal(WalError::Io(e)))?;
    Ok(if inspection.exists && inspection.tag_matches {
        inspection.records.len()
    } else {
        0
    })
}

/// A snapshot + WAL pair, open for writes, serving through an
/// [`EpochHandle`].
#[derive(Debug)]
pub struct LiveStore {
    cfg: PipelineConfig,
    ingest_cfg: IngestConfig,
    store_path: PathBuf,
    wal: Wal,
    base: Arc<BaseState>,
    /// The frozen model's centroids in flat storage, prebuilt once per
    /// base state so every ingested segment's nearest-centroid scan runs
    /// over contiguous memory with the early-abort distance kernel.
    centroid_matrix: PointMatrix,
    delta: DeltaState,
    epoch_counter: u64,
    handle: Arc<EpochHandle>,
}

impl LiveStore {
    /// Opens the snapshot at `store_path`, replays `<store>.wal` on top of
    /// it, and publishes the recovered state as the first serving epoch.
    pub fn open(
        store_path: &Path,
        cfg: PipelineConfig,
        ingest_cfg: IngestConfig,
    ) -> Result<LiveStore, IngestError> {
        let (collection, pipeline) = store::load(store_path)?;
        let tag = snapshot_tag(store_path)?;
        let base = Arc::new(BaseState {
            collection,
            pipeline,
        });
        let (wal, records) = Wal::open(&wal_path_for(store_path), tag)?;
        let delta = DeltaState::new(base.pipeline.num_clusters(), base.len() as u32);
        let epoch = Arc::new(LiveEpoch::new(base.clone(), delta.clone(), 0));
        let centroid_matrix = PointMatrix::from_rows(&base.pipeline.centroids);
        let mut live = LiveStore {
            cfg,
            ingest_cfg,
            store_path: store_path.to_path_buf(),
            wal,
            base,
            centroid_matrix,
            delta,
            epoch_counter: 0,
            handle: Arc::new(EpochHandle::new(epoch)),
        };
        let replayed = records.len();
        for rec in &records {
            live.apply_record(rec, &mut 0)?;
        }
        if replayed > 0 {
            forum_obs::Registry::global().incr("ingest/wal_replayed", replayed as u64);
            forum_obs::EventLog::global().emit(
                "wal_recovered",
                forum_obs::json::Json::obj()
                    .with("records", replayed as u64)
                    .with("store", store_path.display().to_string()),
            );
        }
        live.publish();
        Ok(live)
    }

    /// The serving handle; clone the `Arc` into however many reader
    /// threads need it.
    pub fn handle(&self) -> Arc<EpochHandle> {
        self.handle.clone()
    }

    /// The current serving epoch (a convenience for single-threaded
    /// callers).
    pub fn current(&self) -> Arc<LiveEpoch> {
        self.handle.current()
    }

    /// The pipeline configuration the store was opened with.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Number of records pending in the WAL (writes since the last
    /// compaction).
    pub fn has_pending(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Ingests one new post. Durable on return; the new epoch is published.
    pub fn add(&mut self, text: &str) -> Result<u32, IngestError> {
        let rec = WalRecord::Add {
            text: text.to_string(),
        };
        self.write_traced("add", &rec)
    }

    /// Ingests a batch of posts with one epoch publish at the end (readers
    /// see none or all of the batch).
    pub fn add_batch<S: AsRef<str>>(&mut self, texts: &[S]) -> Result<Vec<u32>, IngestError> {
        let traces = TraceStore::global();
        let trace = traces.is_enabled().then(|| Trace::begin("ingest", None));
        let timing = trace.is_some();
        let (mut wal_ns, mut apply_ns) = (0u64, 0u64);
        let mut evals = 0u64;
        let mut ids = Vec::with_capacity(texts.len());
        for t in texts {
            let rec = WalRecord::Add {
                text: t.as_ref().to_string(),
            };
            let t0 = timing.then(Instant::now);
            self.append_durable(&rec)?;
            if let Some(t0) = t0 {
                wal_ns += t0.elapsed().as_nanos() as u64;
            }
            let t1 = timing.then(Instant::now);
            ids.push(self.apply_record(&rec, &mut evals)?);
            if let Some(t1) = t1 {
                apply_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        let swap_start = Instant::now();
        self.publish();
        if let Some(mut t) = trace {
            t.push_span_ns("ingest/wal_append", 0, wal_ns, TraceCosts::default());
            t.push_span_ns(
                "ingest/apply",
                0,
                apply_ns,
                TraceCosts {
                    distance_evals: evals,
                    ..TraceCosts::default()
                },
            );
            t.push_span("ingest/epoch_swap", swap_start, TraceCosts::default());
            t.set_detail(
                Json::obj()
                    .with("op", "add_batch")
                    .with("docs", ids.len() as u64),
            );
            traces.record(t);
        }
        Ok(ids)
    }

    /// Deletes a live document. Its units stop surfacing immediately (base
    /// units via tombstone, delta units physically); the id is never
    /// reused.
    pub fn delete(&mut self, id: u32) -> Result<(), IngestError> {
        if !self.delta.is_live(id) {
            return Err(IngestError::UnknownDoc(id));
        }
        let rec = WalRecord::Delete { doc: id };
        self.write_traced("delete", &rec)?;
        Ok(())
    }

    /// Replaces a live document's text, keeping its id. The old version's
    /// units stop surfacing immediately; the new text is segmented and
    /// assigned like an add.
    pub fn update(&mut self, id: u32, text: &str) -> Result<(), IngestError> {
        if !self.delta.is_live(id) {
            return Err(IngestError::UnknownDoc(id));
        }
        let rec = WalRecord::Update {
            doc: id,
            text: text.to_string(),
        };
        self.write_traced("update", &rec)?;
        Ok(())
    }

    /// The shared single-record write path: append, apply, publish —
    /// recording an ingest-kind trace (spans `ingest/wal_append`,
    /// `ingest/apply` with its nearest-centroid distance evaluations, and
    /// `ingest/epoch_swap`) into the global [`TraceStore`] when tracing is
    /// enabled. Returns the affected document id.
    fn write_traced(&mut self, op: &str, rec: &WalRecord) -> Result<u32, IngestError> {
        let traces = TraceStore::global();
        let mut trace = traces.is_enabled().then(|| Trace::begin("ingest", None));
        let wal_start = Instant::now();
        self.append_durable(rec)?;
        if let Some(t) = trace.as_mut() {
            t.push_span("ingest/wal_append", wal_start, TraceCosts::default());
        }
        let apply_start = Instant::now();
        let mut evals = 0u64;
        let id = self.apply_record(rec, &mut evals)?;
        if let Some(t) = trace.as_mut() {
            t.push_span(
                "ingest/apply",
                apply_start,
                TraceCosts {
                    distance_evals: evals,
                    ..TraceCosts::default()
                },
            );
        }
        let swap_start = Instant::now();
        self.publish();
        if let Some(mut t) = trace {
            t.push_span("ingest/epoch_swap", swap_start, TraceCosts::default());
            t.set_detail(Json::obj().with("op", op).with("doc", id as u64));
            traces.record(t);
        }
        Ok(id)
    }

    fn append_durable(&mut self, rec: &WalRecord) -> Result<(), IngestError> {
        let obs = forum_obs::Registry::global();
        let timer = obs.is_enabled().then(Instant::now);
        self.wal.append(rec)?;
        if let Some(t) = timer {
            obs.record_duration("ingest/wal_append_ns", t.elapsed());
        }
        Ok(())
    }

    /// Applies one (already durable) record to the in-memory delta.
    /// Returns the affected document id. Shared by the write path and WAL
    /// replay — replay is re-application of the same deterministic
    /// function. `distance_evals` accumulates the number of centroid
    /// distance evaluations the record's segment assignment performed.
    fn apply_record(
        &mut self,
        rec: &WalRecord,
        distance_evals: &mut u64,
    ) -> Result<u32, IngestError> {
        let obs = forum_obs::Registry::global();
        match rec {
            WalRecord::Add { text } => {
                let id = self.delta.next_id;
                self.delta.next_id += 1;
                let dd = self.segment_and_assign(id, text, distance_evals);
                self.delta.insert_doc(&self.base.pipeline, dd);
                obs.incr("ingest/added", 1);
                Ok(id)
            }
            WalRecord::Delete { doc } => {
                let id = *doc;
                if !self.delta.is_live(id) {
                    return Err(IngestError::UnknownDoc(id));
                }
                self.delta.delete(id);
                obs.incr("ingest/deleted", 1);
                Ok(id)
            }
            WalRecord::Update { doc, text } => {
                let id = *doc;
                if !self.delta.is_live(id) {
                    return Err(IngestError::UnknownDoc(id));
                }
                self.delta.supersede(id);
                let dd = self.segment_and_assign(id, text, distance_evals);
                self.delta.insert_doc(&self.base.pipeline, dd);
                obs.incr("ingest/updated", 1);
                Ok(id)
            }
        }
    }

    /// Parses, segments, and cluster-assigns one post against the frozen
    /// model, with the snapshot's parse convention (`parse_clean`, what a
    /// reload would produce) and the optional `assign_eps` noise gate.
    ///
    /// Drift observability: every incoming segment bumps
    /// `drift/segments_in` and records its nearest-centroid distance into
    /// the `drift/centroid_dist_micros` histogram (Euclidean distance in
    /// micro-units) — a drifting intention distribution shows up as that
    /// histogram's mass migrating outward long before the noise rate moves.
    /// `distance_evals` accumulates one count per centroid compared.
    fn segment_and_assign(&self, id: u32, text: &str, distance_evals: &mut u64) -> DeltaDoc {
        let doc = Document::parse_clean(DocId(id), text);
        let cmdoc = forum_segment::CmDoc::new(doc);
        let raw_seg = if cmdoc.num_units() == 0 {
            Segmentation::single(1)
        } else {
            self.cfg.strategy.run(&cmdoc)
        };
        let whole = cmdoc.whole();
        let centroids = &self.centroid_matrix;
        let obs = forum_obs::Registry::global();

        let mut assigned: Vec<(usize, (usize, usize))> = Vec::new();
        if cmdoc.num_units() > 0 {
            for s in raw_seg.segments() {
                let mut f = forum_cluster::segment_features(&cmdoc.segment_tables(s), &whole);
                if self.cfg.type1_weights_only {
                    f.truncate(forum_nlp::cm::NUM_FEATURES);
                }
                // One full nearest-centroid scan serves both the assignment
                // and the drift histogram; the eps gate below replicates
                // `assign_nearest_matrix` exactly (NaN or negative eps
                // assigns nothing; distances compare squared).
                let nearest = forum_cluster::nearest_centroid_matrix(&f, centroids);
                *distance_evals += centroids.len() as u64;
                obs.incr("drift/segments_in", 1);
                if let Some((_, d)) = nearest {
                    obs.record("drift/centroid_dist_micros", (d.sqrt() * 1e6) as u64);
                }
                let assigned_to = match self.ingest_cfg.assign_eps {
                    None => nearest.map(|(i, _)| i),
                    Some(eps) if eps.is_nan() || eps < 0.0 => None,
                    Some(eps) => nearest.filter(|&(_, d)| d <= eps * eps).map(|(i, _)| i),
                };
                let cluster = match (assigned_to, self.ingest_cfg.assign_eps) {
                    (Some(c), _) => c,
                    (None, None) => unreachable!("at least one finite centroid"),
                    (None, Some(_)) => {
                        obs.incr("ingest/noise_segments", 1);
                        continue;
                    }
                };
                assigned.push((cluster, (s.first, s.end)));
            }
        }

        let refined = refine_assigned(assigned);
        let terms: Vec<Vec<String>> = refined
            .iter()
            .map(|seg| doc_ranges_terms(&cmdoc, &seg.ranges))
            .collect();
        DeltaDoc {
            id,
            doc: cmdoc,
            raw_seg,
            refined,
            terms,
        }
    }

    /// Publishes the current base + delta as a new serving epoch. The
    /// epoch's delta is a clone of the writer's, which shares every
    /// pending document, unit and tombstone set (see [`DeltaState`]).
    fn publish(&mut self) {
        self.epoch_counter += 1;
        let epoch = Arc::new(LiveEpoch::new(
            self.base.clone(),
            self.delta.clone(),
            self.epoch_counter,
        ));
        forum_obs::Registry::global()
            .gauge("ingest/pending_units")
            .set(self.delta.num_units() as i64);
        self.handle.publish(epoch);
    }

    /// Folds the delta into the base: rebuilds every cluster index over the
    /// merged document set (per-cluster TF/IDF statistics are recomputed,
    /// ending the deferred-IDF regime for post-compaction vocabulary),
    /// saves a fresh snapshot atomically, truncates the WAL, and publishes
    /// the compacted epoch.
    ///
    /// Deleted ids keep an empty placeholder document so ids stay stable
    /// (document id == collection index, everywhere).
    ///
    /// Index construction walks documents in id order through the same
    /// `IndexBuilder` the offline build uses, so the compacted state is
    /// bit-identical to an offline assembly of the same documents with the
    /// same cluster assignments.
    pub fn compact(&mut self) -> Result<(), IngestError> {
        if self.delta.is_empty() {
            return Ok(());
        }
        let obs = forum_obs::Registry::global();
        let started = Instant::now();
        let pending_docs = self.delta.docs.len();
        let base = &self.base;
        let n = self.delta.next_id as usize;
        let base_len = base.len();

        let mut docs = Vec::with_capacity(n);
        let mut raw_segmentations = Vec::with_capacity(n);
        let mut doc_segments: Vec<Vec<RefinedSegment>> = Vec::with_capacity(n);
        for id in 0..n as u32 {
            if let Some(dd) = self.delta.doc(id) {
                docs.push(dd.doc.clone());
                raw_segmentations.push(dd.raw_seg.clone());
                doc_segments.push(dd.refined.clone());
            } else if (id as usize) < base_len && !self.delta.deleted().contains(&id) {
                docs.push(base.collection.docs[id as usize].clone());
                raw_segmentations.push(base.pipeline.raw_segmentations[id as usize].clone());
                doc_segments.push(base.pipeline.doc_segments[id as usize].clone());
            } else {
                // Deleted: an empty placeholder keeps the id space dense.
                docs.push(forum_segment::CmDoc::new(Document::parse_clean(
                    DocId(id),
                    "",
                )));
                raw_segmentations.push(Segmentation::single(1));
                doc_segments.push(Vec::new());
            }
        }
        let collection = PostCollection { docs };

        let num_clusters = base.pipeline.num_clusters();
        let mut builders: Vec<forum_index::IndexBuilder> = (0..num_clusters)
            .map(|_| forum_index::IndexBuilder::new())
            .collect();
        for (d, segs) in doc_segments.iter().enumerate() {
            for seg in segs {
                let terms = segment_terms(&collection, d, seg);
                builders[seg.cluster].add_unit(d as u32, &terms);
            }
        }
        let clusters = builders
            .into_iter()
            .map(|b| intentmatch::pipeline::ClusterIndex { index: b.build() })
            .collect();

        let pipeline = IntentPipeline {
            raw_segmentations,
            doc_segments,
            clusters,
            centroids: base.pipeline.centroids.clone(),
            num_noise: base.pipeline.num_noise,
            timings: Default::default(),
            weighted_combination: base.pipeline.weighted_combination,
            weighting: base.pipeline.weighting,
        };

        // Snapshot first (atomic replace), then reset the WAL to an empty
        // log tagged with the new snapshot. A crash between the two leaves
        // the old log tagged with the *old* snapshot — the next open sees
        // the tag mismatch and discards it instead of replaying records
        // that are already folded into the snapshot.
        store::save(&self.store_path, &collection, &pipeline)?;
        let tag = snapshot_tag(&self.store_path)?;
        self.wal.reset(tag)?;

        self.base = Arc::new(BaseState {
            collection,
            pipeline,
        });
        self.centroid_matrix = PointMatrix::from_rows(&self.base.pipeline.centroids);
        self.delta = DeltaState::new(num_clusters, n as u32);
        let elapsed = started.elapsed();
        obs.record_duration("ingest/compact_ns", elapsed);
        forum_obs::EventLog::global().emit(
            "compaction",
            forum_obs::json::Json::obj()
                .with(
                    "duration_ms",
                    elapsed.as_millis().min(u64::MAX as u128) as u64,
                )
                .with("pending_docs", pending_docs as u64)
                .with("docs", n as u64),
        );
        self.publish();
        Ok(())
    }
}
