//! Offline store/index health audit — the engine behind
//! `intentmatch doctor`.
//!
//! [`diagnose`] inspects a store *without mutating anything*: the
//! snapshot is decoded — a sectioned store section by section through
//! `intentmatch::StoreView`, so one bad cluster does not hide the others;
//! a v1 store whole with `intentmatch::store::load` — every per-cluster
//! [`forum_index::SegmentIndex`] runs its full integrity
//! [`audit`](forum_index::SegmentIndex::audit) (postings order, stored
//! statistics vs recomputation, impact caps vs the exact Eq. 8/9
//! contributions), and the WAL is scanned read-only via
//! [`crate::wal::inspect`] — unlike `Wal::open`, no torn tail is
//! truncated and no stale log is reset, so a doctor run leaves the store
//! byte-identical.
//!
//! Findings are split into **problems** (hard failures: corruption, a
//! snapshot that does not decode, cross-section inconsistencies — the CLI
//! exits non-zero) and **warnings** (conditions `Wal::open` would repair
//! or an operator should merely know about: torn tails, stale tags, high
//! cluster skew, pending-delta buildup).

use crate::ingest::snapshot_tag;
use crate::wal::{self, WalInspection, WalRecord};
use crate::wal_path_for;
use forum_index::{IndexAudit, SegmentIndex};
use forum_obs::json::Json;
use intentmatch::pipeline::RefinedSegment;
use intentmatch::store::{self, StoreError};
use intentmatch::StoreView;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Pending-delta fraction above which the report warns that a compaction
/// is overdue (the drift objective's default ceiling).
const DELTA_RATIO_WARN: f64 = 0.5;
/// Cluster doc-count skew (max/mean) above which the report warns.
const SKEW_WARN: f64 = 4.0;

/// One cluster's health: its index audit plus the owner census.
#[derive(Debug)]
pub struct ClusterHealth {
    /// Cluster id.
    pub cluster: usize,
    /// The index integrity audit.
    pub audit: IndexAudit,
}

/// Everything [`diagnose`] found.
#[derive(Debug)]
pub struct DoctorReport {
    /// The audited snapshot.
    pub store_path: PathBuf,
    /// Snapshot size in bytes (0 when unreadable).
    pub store_bytes: u64,
    /// On-disk format version: 1 = legacy length-prefixed; 2 or 3 = the
    /// sectioned mmap-able layout, read from its header (2 = FNV-1a
    /// checksums and unit-ordered postings, 3 = XXH64 and impact-ordered
    /// postings); 0 when the magic is unrecognised.
    pub store_format: u32,
    /// Sections in the sectioned store's directory (0 for v1 stores).
    pub layout_sections: usize,
    /// The snapshot fingerprint the WAL header must match.
    pub snapshot_tag: Option<u64>,
    /// Documents in the compacted collection.
    pub num_docs: usize,
    /// Intention clusters.
    pub num_clusters: usize,
    /// Segments DBSCAN labelled noise during the offline build.
    pub num_noise: usize,
    /// Per-cluster health.
    pub clusters: Vec<ClusterHealth>,
    /// Max/mean ratio of per-cluster distinct-document counts.
    pub cluster_doc_skew: f64,
    /// Read-only WAL scan.
    pub wal: WalInspection,
    /// Pending `Add` records in the WAL.
    pub pending_adds: usize,
    /// Pending `Delete` records (tombstones) in the WAL.
    pub pending_deletes: usize,
    /// Pending `Update` records in the WAL.
    pub pending_updates: usize,
    /// Pending adds as a fraction of the compacted collection.
    pub delta_base_ratio: f64,
    /// Hard failures: the CLI exits non-zero when non-empty.
    pub problems: Vec<String>,
    /// Conditions worth knowing about that recovery handles by design.
    pub warnings: Vec<String>,
}

impl DoctorReport {
    /// Whether the store passed every hard check.
    pub fn healthy(&self) -> bool {
        self.problems.is_empty()
    }

    /// The report as JSON (`doctor --json`).
    pub fn to_json(&self) -> Json {
        let clusters = Json::Arr(
            self.clusters
                .iter()
                .map(|c| {
                    Json::obj()
                        .with("cluster", c.cluster as u64)
                        .with("units", c.audit.units as u64)
                        .with("docs", c.audit.owners as u64)
                        .with("vocabulary", c.audit.vocabulary as u64)
                        .with("postings_total", c.audit.postings_total as u64)
                        .with("postings_max", c.audit.postings_max as u64)
                        .with("postings_p50", c.audit.postings_p50 as u64)
                        .with("postings_p99", c.audit.postings_p99 as u64)
                        .with(
                            "problems",
                            Json::Arr(
                                c.audit
                                    .problems
                                    .iter()
                                    .map(|p| Json::Str(p.clone()))
                                    .collect(),
                            ),
                        )
                })
                .collect(),
        );
        let wal = Json::obj()
            .with("exists", self.wal.exists)
            .with("bytes", self.wal.bytes)
            .with("tag_matches", self.wal.tag_matches)
            .with("records", self.wal.records.len() as u64)
            .with("torn_tail_bytes", self.wal.torn_tail_bytes)
            .with(
                "problems",
                Json::Arr(
                    self.wal
                        .problems
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            );
        Json::obj()
            .with("store", self.store_path.display().to_string())
            .with("store_bytes", self.store_bytes)
            .with("store_format", u64::from(self.store_format))
            .with("layout_sections", self.layout_sections as u64)
            .with("healthy", self.healthy())
            .with("num_docs", self.num_docs as u64)
            .with("num_clusters", self.num_clusters as u64)
            .with("num_noise", self.num_noise as u64)
            .with("cluster_doc_skew", self.cluster_doc_skew)
            .with("clusters", clusters)
            .with("wal", wal)
            .with("pending_adds", self.pending_adds as u64)
            .with("pending_deletes", self.pending_deletes as u64)
            .with("pending_updates", self.pending_updates as u64)
            .with("delta_base_ratio", self.delta_base_ratio)
            .with(
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            )
            .with(
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            )
    }

    /// The human report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "store    {} ({} bytes, format v{}{})",
            self.store_path.display(),
            self.store_bytes,
            self.store_format,
            if self.store_format >= 2 {
                format!(", {} sections", self.layout_sections)
            } else {
                String::new()
            },
        );
        let _ = writeln!(
            out,
            "docs     {} in {} clusters ({} noise segments); doc skew {:.2}",
            self.num_docs, self.num_clusters, self.num_noise, self.cluster_doc_skew
        );
        for c in &self.clusters {
            let _ = writeln!(
                out,
                "  cluster {:>3}: {:>6} units, {:>6} docs, {:>7} vocab, postings \
                 total {} / p50 {} / p99 {} / max {}",
                c.cluster,
                c.audit.units,
                c.audit.owners,
                c.audit.vocabulary,
                c.audit.postings_total,
                c.audit.postings_p50,
                c.audit.postings_p99,
                c.audit.postings_max,
            );
        }
        if self.wal.exists {
            let _ = writeln!(
                out,
                "wal      {} bytes, {} record(s) ({} add / {} delete / {} update), \
                 tag {}, torn tail {} bytes; delta/base ratio {:.3}",
                self.wal.bytes,
                self.wal.records.len(),
                self.pending_adds,
                self.pending_deletes,
                self.pending_updates,
                if self.wal.tag_matches {
                    "matches"
                } else {
                    "STALE"
                },
                self.wal.torn_tail_bytes,
                self.delta_base_ratio,
            );
        } else {
            let _ = writeln!(out, "wal      none (no pending writes)");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning  {w}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM  {p}");
        }
        let _ = writeln!(
            out,
            "verdict  {}",
            if self.healthy() {
                "healthy"
            } else {
                "UNHEALTHY"
            }
        );
        out
    }
}

/// Audits the store at `store_path` read-only; see the module docs for
/// what is checked. I/O errors reading the snapshot or WAL surface as
/// problems in the report, not as `Err` — `Err` is reserved for being
/// unable to produce a report at all.
pub fn diagnose(store_path: &Path) -> DoctorReport {
    let mut report = DoctorReport {
        store_path: store_path.to_path_buf(),
        store_bytes: std::fs::metadata(store_path).map(|m| m.len()).unwrap_or(0),
        store_format: 0,
        layout_sections: 0,
        snapshot_tag: None,
        num_docs: 0,
        num_clusters: 0,
        num_noise: 0,
        clusters: Vec::new(),
        cluster_doc_skew: 0.0,
        wal: WalInspection::default(),
        pending_adds: 0,
        pending_deletes: 0,
        pending_updates: 0,
        delta_base_ratio: 0.0,
        problems: Vec::new(),
        warnings: Vec::new(),
    };

    // 0. Byte-level layout audit of sectioned stores: header and directory
    //    checksums, section bounds and 8-byte alignment, per-section
    //    payload checksums. This catches corruption structurally even in
    //    sections a mapped reader would only fault in lazily.
    match std::fs::read(store_path) {
        Ok(bytes) => {
            if bytes.len() >= 8 && &bytes[0..4] == intentmatch::store_v2::V2_MAGIC {
                // The header's version field, even when the header fails
                // its checks (an unsupported version is then reported as
                // what it is).
                report.store_format = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
                let layout = intentmatch::store_v2::audit_layout(&bytes);
                report.layout_sections = layout.sections.len();
                for problem in layout.problems {
                    report.problems.push(format!("layout: {problem}"));
                }
            } else if bytes.len() >= 4 && &bytes[0..4] == b"IMP1" {
                report.store_format = 1;
            }
        }
        Err(e) => {
            report.problems.push(format!("snapshot unreadable: {e}"));
            return report;
        }
    }

    // 1. The snapshot must decode; every decode failure is a hard fail.
    let Some(snapshot) = decode(store_path, report.store_format, &mut report.problems) else {
        return report;
    };
    report.num_docs = snapshot.num_docs;
    report.num_clusters = snapshot.clusters.len();
    report.num_noise = snapshot.num_noise;
    report.snapshot_tag = snapshot_tag(store_path).ok();
    if report.snapshot_tag.is_none() {
        report
            .problems
            .push("snapshot unreadable while fingerprinting".into());
    }

    // 2. Cross-section consistency of the decoded snapshot.
    if snapshot.num_centroids != snapshot.clusters.len() {
        report.problems.push(format!(
            "{} centroids for {} clusters",
            snapshot.num_centroids,
            snapshot.clusters.len()
        ));
    }
    if let Some(doc_segments) = &snapshot.doc_segments {
        if doc_segments.len() != snapshot.num_docs {
            report.problems.push(format!(
                "segment table covers {} docs but the collection has {}",
                doc_segments.len(),
                snapshot.num_docs
            ));
        }
        for (d, segments) in doc_segments.iter().enumerate() {
            if let Some(s) = segments
                .iter()
                .find(|s| s.cluster >= snapshot.clusters.len())
            {
                report.problems.push(format!(
                    "doc {d} has a segment in unknown cluster {}",
                    s.cluster
                ));
            }
        }
    }

    // 3. Per-cluster index audits + the owner census (orphan detection
    //    needs the collection size, which the index cannot know).
    let mut docs_per_cluster = Vec::with_capacity(snapshot.clusters.len());
    for (c, index) in snapshot.clusters.iter().enumerate() {
        let Some(index) = index else { continue };
        let audit = index.audit();
        for problem in &audit.problems {
            report.problems.push(format!("cluster {c}: {problem}"));
        }
        // The owner column is redundant with the segment table (one unit
        // per refined segment, appended in doc order), so corruption in
        // either shows up as a multiset mismatch; owners beyond the
        // collection are orphans even if the multisets happen to agree.
        let mut actual_owners: Vec<u32> = (0..index.num_units())
            .map(|u| index.owner(forum_index::UnitId(u as u32)))
            .collect();
        if let Some(&orphan) = actual_owners
            .iter()
            .find(|&&o| o as usize >= snapshot.num_docs)
        {
            report.problems.push(format!(
                "cluster {c}: a unit is owned by orphaned doc {orphan} \
                 (collection has {})",
                snapshot.num_docs
            ));
        }
        if let Some(doc_segments) = &snapshot.doc_segments {
            let mut expected_owners: Vec<u32> = doc_segments
                .iter()
                .enumerate()
                .flat_map(|(d, segs)| {
                    segs.iter()
                        .filter(|s| s.cluster == c)
                        .map(move |_| d as u32)
                })
                .collect();
            actual_owners.sort_unstable();
            expected_owners.sort_unstable();
            if actual_owners != expected_owners {
                report.problems.push(format!(
                    "cluster {c}: index owners disagree with the segment table \
                     ({} unit(s) vs {} refined segment(s))",
                    actual_owners.len(),
                    expected_owners.len()
                ));
            }
        }
        docs_per_cluster.push(audit.owners);
        report.clusters.push(ClusterHealth { cluster: c, audit });
    }
    if !docs_per_cluster.is_empty() {
        let max = *docs_per_cluster.iter().max().unwrap() as f64;
        let mean = docs_per_cluster.iter().sum::<usize>() as f64 / docs_per_cluster.len() as f64;
        report.cluster_doc_skew = if mean > 0.0 { max / mean } else { 0.0 };
        if report.cluster_doc_skew > SKEW_WARN {
            report.warnings.push(format!(
                "cluster doc counts are skewed {:.1}× over the mean \
                 (largest cluster dominates scan cost)",
                report.cluster_doc_skew
            ));
        }
    }

    // 4. Read-only WAL scan against the snapshot fingerprint.
    let wal_path = wal_path_for(store_path);
    match wal::inspect(&wal_path, report.snapshot_tag.unwrap_or(0)) {
        Ok(inspection) => report.wal = inspection,
        Err(e) => {
            report
                .problems
                .push(format!("WAL at {} unreadable: {e}", wal_path.display()));
            return report;
        }
    }
    for problem in &report.wal.problems {
        report.problems.push(format!("WAL: {problem}"));
    }
    if report.wal.exists {
        if !report.wal.tag_matches {
            report.warnings.push(
                "WAL tag does not match the snapshot (records predate it and \
                 will be discarded on the next open)"
                    .into(),
            );
        }
        if report.wal.torn_tail_bytes > 0 {
            report.warnings.push(format!(
                "WAL has a {}-byte torn tail (a crashed append; the next open \
                 truncates it)",
                report.wal.torn_tail_bytes
            ));
        }
    }
    // Replay the records in order to validate their referents: an Add
    // extends the id space, a Delete/Update must hit a live id.
    if report.wal.tag_matches {
        let mut next_doc = snapshot.num_docs as u64;
        for (i, rec) in report.wal.records.iter().enumerate() {
            match rec {
                WalRecord::Add { .. } => {
                    report.pending_adds += 1;
                    next_doc += 1;
                }
                WalRecord::Delete { doc } => {
                    report.pending_deletes += 1;
                    if u64::from(*doc) >= next_doc {
                        report.problems.push(format!(
                            "WAL record {i} deletes unknown doc {doc} \
                             (id space ends at {next_doc})"
                        ));
                    }
                }
                WalRecord::Update { doc, .. } => {
                    report.pending_updates += 1;
                    if u64::from(*doc) >= next_doc {
                        report.problems.push(format!(
                            "WAL record {i} updates unknown doc {doc} \
                             (id space ends at {next_doc})"
                        ));
                    }
                }
            }
        }
        report.delta_base_ratio = report.pending_adds as f64 / snapshot.num_docs.max(1) as f64;
        if report.delta_base_ratio > DELTA_RATIO_WARN {
            report.warnings.push(format!(
                "pending delta is {:.0}% of the base — run `intentmatch compact`",
                report.delta_base_ratio * 100.0
            ));
        }
    }
    report
}

/// What the audit reads of a decoded snapshot.
struct Snapshot {
    num_docs: usize,
    num_noise: usize,
    num_centroids: usize,
    /// Every document's refined segments; `None` when any failed to
    /// decode.
    doc_segments: Option<Vec<Vec<RefinedSegment>>>,
    /// One index per cluster; `None` for a cluster that failed to decode.
    clusters: Vec<Option<Arc<SegmentIndex>>>,
}

/// Decodes the snapshot, recording every decode failure in `problems`.
///
/// A sectioned store (`format` 2 or 3) is read section by section through
/// a [`StoreView`] — the header's counts, every document, the raw and
/// refined segmentations, the centroids and each cluster on its own — so
/// one section that fails to decode leaves the rest audited and every bad
/// cluster named. A v1 store decodes whole or not at all. `None` when
/// nothing could be read.
fn decode(store_path: &Path, format: u32, problems: &mut Vec<String>) -> Option<Snapshot> {
    let mut fail = |e: StoreError| problems.push(format!("snapshot does not load: {e}"));
    if format < 2 {
        let (collection, pipeline) = store::load(store_path).map_err(&mut fail).ok()?;
        return Some(Snapshot {
            num_docs: collection.len(),
            num_noise: pipeline.num_noise,
            num_centroids: pipeline.centroids.len(),
            doc_segments: Some(pipeline.doc_segments),
            clusters: pipeline
                .clusters
                .into_iter()
                .map(|c| Some(Arc::new(c.index)))
                .collect(),
        });
    }
    let view = StoreView::open(store_path).map_err(&mut fail).ok()?;
    if let Some(e) = (0..view.num_docs()).find_map(|d| view.doc_text(d).err()) {
        fail(e);
    }
    if let Err(e) = view.raw_segmentations() {
        fail(e);
    }
    let num_centroids = match view.centroids() {
        Ok(centroids) => centroids.len(),
        Err(e) => {
            fail(e);
            view.num_clusters()
        }
    };
    let doc_segments = (0..view.num_docs())
        .map(|d| view.doc_segments(d).map(|segs| segs.to_vec()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(&mut fail)
        .ok();
    let clusters = (0..view.num_clusters())
        .map(|c| view.cluster(c).map_err(&mut fail).ok())
        .collect();
    Some(Snapshot {
        num_docs: view.num_docs(),
        num_noise: view.num_noise(),
        num_centroids,
        doc_segments,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IngestConfig, LiveStore};
    use intentmatch::{IntentPipeline, PipelineConfig, PostCollection};

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("forum-ingest-doctor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn posts() -> Vec<String> {
        vec![
            "My RAID controller fails to rebuild the array. How do I replace the disk?".into(),
            "The wireless driver crashes after suspend. Thanks for any pointers!".into(),
            "How do I configure the printer spooler? It refuses every job.".into(),
            "The boot disk is corrupted and the array will not mount at all.".into(),
            "Bluetooth audio stutters constantly; the driver log shows timeouts.".into(),
            "What backup strategy works for incremental disk snapshots?".into(),
        ]
    }

    fn build_store(name: &str) -> PathBuf {
        let path = temp_store(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::wal_path_for(&path)).ok();
        let texts = posts();
        let collection = PostCollection::from_raw_texts(&texts);
        let pipeline = IntentPipeline::build(&collection, &PipelineConfig::default());
        intentmatch::store::save(&path, &collection, &pipeline).unwrap();
        path
    }

    /// Same corpus saved in the legacy v1 layout — the doctor must keep
    /// auditing stores that predate the sectioned format.
    fn build_store_v1(name: &str) -> PathBuf {
        let path = temp_store(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::wal_path_for(&path)).ok();
        let texts = posts();
        let collection = PostCollection::from_raw_texts(&texts);
        let pipeline = IntentPipeline::build(&collection, &PipelineConfig::default());
        intentmatch::store::save_v1(&path, &collection, &pipeline).unwrap();
        path
    }

    #[test]
    fn healthy_store_yields_no_problems() {
        let path = build_store("healthy.imp");
        let report = diagnose(&path);
        assert!(report.healthy(), "problems: {:?}", report.problems);
        assert_eq!(report.store_format, 3);
        assert!(report.layout_sections > 0);
        assert_eq!(report.num_docs, posts().len());
        assert!(report.num_clusters > 0);
        assert!(!report.wal.exists);
    }

    #[test]
    fn pending_wal_is_reported_and_left_untouched() {
        let path = build_store("pending.imp");
        {
            let mut live =
                LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();
            live.add_batch(&["The spooler daemon hangs when the printer reconnects.".to_string()])
                .unwrap();
        }
        let wal_path = crate::wal_path_for(&path);
        let before = std::fs::read(&wal_path).unwrap();
        let report = diagnose(&path);
        assert!(report.healthy(), "problems: {:?}", report.problems);
        assert_eq!(report.pending_adds, 1);
        assert!(report.wal.tag_matches);
        let after = std::fs::read(&wal_path).unwrap();
        assert_eq!(before, after, "doctor must not mutate the WAL");
    }

    /// Walks the encoded bytes of the first `SIDX` block in a **v1**
    /// store and returns the half-open range holding its unit statistics,
    /// `avg_unique`, and postings — the redundancy-bearing region every
    /// impact cap is rebuilt from at decode. (v2 stores carry FIX2 flat
    /// indexes under per-section checksums instead; see the v2 sweep
    /// below.)
    fn stats_and_postings_region(bytes: &[u8]) -> std::ops::Range<usize> {
        let u32_at =
            |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let sidx = bytes
            .windows(4)
            .position(|w| w == b"SIDX")
            .expect("store contains no SIDX block");
        let mut pos = sidx + 8; // magic + format version
        let n_terms = u32_at(pos);
        pos += 4;
        for _ in 0..n_terms {
            pos += 4 + u32_at(pos); // length-prefixed vocab term
        }
        let start = pos;
        let n_units = u32_at(pos);
        pos += 4 + n_units * 20 + 8; // units (20 bytes each) + avg_unique
        let n_lists = u32_at(pos);
        pos += 4;
        for _ in 0..n_lists {
            pos += 4 + u32_at(pos) * 8; // plist len + (unit, tf) pairs
        }
        start..pos
    }

    #[test]
    fn flipped_byte_in_index_stats_or_postings_is_a_hard_failure() {
        let path = build_store_v1("flipped.imp");
        let clean = std::fs::read(&path).unwrap();
        let region = stats_and_postings_region(&clean);
        assert!(region.len() > 40, "suspiciously small index region");
        // Sweep a byte-flip across the stats/postings region: the doctor
        // must catch (almost) every position as either a decode failure
        // or an audit problem. The only legitimate misses are the low
        // mantissa bytes of f64 statistics, where a flip stays inside the
        // audit's recomputation tolerance.
        let mut detected = 0usize;
        let mut missed = Vec::new();
        for pos in region.clone() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            std::fs::write(&path, &corrupt).unwrap();
            let report = diagnose(&path);
            if report.healthy() {
                missed.push(pos);
            } else {
                detected += 1;
            }
        }
        std::fs::write(&path, &clean).unwrap();
        let total = region.len();
        assert!(
            detected * 10 >= total * 8,
            "detected only {detected}/{total} flips; missed at {missed:?}"
        );
    }

    #[test]
    fn corrupted_unit_stats_fail_deterministically() {
        let path = build_store_v1("corrupt-stats.imp");
        let clean = std::fs::read(&path).unwrap();
        let region = stats_and_postings_region(&clean);
        // First unit record starts right after the unit count; its second
        // field is `unique_terms`, which the audit recomputes exactly from
        // the postings.
        let unique_terms_lo = region.start + 4 + 4;
        let mut corrupt = clean.clone();
        corrupt[unique_terms_lo] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        let report = diagnose(&path);
        assert!(
            !report.healthy(),
            "flipped unique_terms byte went undetected"
        );
        std::fs::write(&path, &clean).unwrap();
        assert!(diagnose(&path).healthy());
    }

    /// In the sectioned layout every checksum-covered byte (header,
    /// directory, every section payload) must be caught by the layout
    /// audit — not merely "most": a one-byte flip changes the XXH64 of
    /// the bytes it lies in. Only
    /// the ≤7 alignment-padding bytes between sections are outside any
    /// checksum, and the sweep skips exactly those.
    #[test]
    fn v2_flip_in_any_covered_byte_is_a_hard_failure() {
        let path = build_store("v2-flipped.imp");
        let clean = std::fs::read(&path).unwrap();
        let layout = intentmatch::store_v2::audit_layout(&clean);
        assert!(layout.problems.is_empty(), "clean store must audit clean");
        let header = layout.header.expect("clean store parses");

        let mut covered = vec![false; clean.len()];
        covered[..intentmatch::store_v2::HEADER_BYTES]
            .iter_mut()
            .for_each(|b| *b = true);
        let dir = header.dir_offset as usize..(header.dir_offset + header.dir_len) as usize;
        covered[dir].iter_mut().for_each(|b| *b = true);
        for s in &layout.sections {
            let range = s.offset as usize..(s.offset + s.len) as usize;
            covered[range].iter_mut().for_each(|b| *b = true);
        }
        let uncovered = covered.iter().filter(|&&c| !c).count();
        assert!(
            uncovered < 8 * layout.sections.len(),
            "only alignment padding may be uncovered, found {uncovered} bytes"
        );

        // Stride 11 keeps the sweep fast while hitting every section and
        // every byte lane of the fixed-width records.
        for pos in (0..clean.len()).step_by(11) {
            if !covered[pos] {
                continue;
            }
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            std::fs::write(&path, &corrupt).unwrap();
            let report = diagnose(&path);
            assert!(!report.healthy(), "flip at byte {pos} went undetected");
            assert!(
                report.problems.iter().any(|p| p.starts_with("layout:"))
                    || report.problems.iter().any(|p| p.contains("load")),
                "flip at byte {pos} detected but not by the layout audit: {:?}",
                report.problems
            );
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(diagnose(&path).healthy());
    }

    /// Swaps the first two postings of the first list with at least two
    /// in `cluster`'s section, then re-stamps that section's checksum, the
    /// directory's and the header's, so only the postings order is wrong.
    /// Returns the term id of the list.
    fn swap_two_postings_and_restamp(bytes: &mut [u8], cluster: u32) -> u32 {
        use intentmatch::store_v2::{self, kind, DIR_ENTRY_BYTES};
        let u32_at = |b: &[u8], pos: usize| u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap());
        let u64_at = |b: &[u8], pos: usize| u64::from_le_bytes(b[pos..pos + 8].try_into().unwrap());
        let header = store_v2::parse_header(bytes).unwrap();
        assert_eq!(header.version, store_v2::STORE_VERSION);
        let dir = header.dir_offset as usize;
        let entries =
            store_v2::parse_directory(&bytes[dir..dir + header.dir_len as usize]).unwrap();
        let pos = entries
            .iter()
            .position(|e| e.kind == kind::CLUSTER && e.index == cluster)
            .expect("cluster section");
        let sec = entries[pos].offset as usize;
        let section = &mut bytes[sec..sec + entries[pos].len as usize];
        let (n_terms, n_units) = (u32_at(section, 8) as usize, u32_at(section, 12) as usize);
        let terms = 40 + 24 * n_units;
        let postings = terms + 16 * n_terms;
        let t = (0..n_terms)
            .find(|&t| u32_at(section, terms + 16 * t + 8) >= 2)
            .expect("a list with two postings");
        let first = postings + 8 * u64_at(section, terms + 16 * t) as usize;
        let (a, b) = section[first..first + 16].split_at_mut(8);
        a.swap_with_slice(b);
        let sum = store_v2::xxh64(section);
        let entry = dir + pos * DIR_ENTRY_BYTES;
        bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        let dir_checksum = store_v2::xxh64(&bytes[dir..dir + header.dir_len as usize]);
        let head = store_v2::encode_header(&store_v2::V2Header {
            dir_checksum,
            ..header
        });
        bytes[..head.len()].copy_from_slice(&head);
        t as u32
    }

    #[test]
    fn postings_out_of_impact_order_are_refused_by_every_reader() {
        let path = build_store("swapped.imp");
        let mut bytes = std::fs::read(&path).unwrap();
        let t = swap_two_postings_and_restamp(&mut bytes, 0);
        std::fs::write(&path, &bytes).unwrap();
        let names_term = |msg: &str| msg.contains(&format!("term {t}"));
        assert!(
            intentmatch::store_v2::audit_layout(&bytes)
                .problems
                .is_empty(),
            "checksums were re-stamped"
        );

        let view = intentmatch::StoreView::open(&path).expect("header and directory are sound");
        let err = view
            .cluster(0)
            .expect_err("mapped cluster load")
            .to_string();
        assert!(names_term(&err), "mapped error names no term: {err}");
        let err = intentmatch::store::load(&path)
            .expect_err("heap load")
            .to_string();
        assert!(names_term(&err), "heap error names no term: {err}");
        let report = diagnose(&path);
        assert!(!report.healthy());
        assert!(
            report.problems.iter().any(|p| names_term(p)),
            "doctor names no term: {:?}",
            report.problems
        );
    }

    #[test]
    fn doctor_names_every_bad_cluster_and_keeps_the_counts() {
        let path = temp_store("swapped-two.imp");
        std::fs::remove_file(crate::wal_path_for(&path)).ok();
        let corpus = forum_corpus::Corpus::generate(&forum_corpus::GenConfig {
            domain: forum_corpus::Domain::TechSupport,
            num_posts: 80,
            seed: 5301,
        });
        let collection = PostCollection::from_corpus(&corpus);
        let pipeline = IntentPipeline::build(&collection, &PipelineConfig::default());
        intentmatch::store::save(&path, &collection, &pipeline).unwrap();
        let clean = diagnose(&path);
        assert!(clean.healthy(), "problems: {:?}", clean.problems);
        assert!(clean.num_clusters >= 2, "need two clusters to corrupt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = clean.num_clusters as u32 - 1;
        let terms = [
            (0, swap_two_postings_and_restamp(&mut bytes, 0)),
            (last, swap_two_postings_and_restamp(&mut bytes, last)),
        ];
        std::fs::write(&path, &bytes).unwrap();

        let report = diagnose(&path);
        for (c, t) in terms {
            assert!(
                report
                    .problems
                    .iter()
                    .any(|p| p.contains(&format!("cluster {c}:"))
                        && p.contains(&format!("term {t}:"))),
                "doctor names no bad postings in cluster {c}: {:?}",
                report.problems
            );
        }
        assert_eq!(report.problems.len(), 2, "{:?}", report.problems);
        assert_eq!(report.num_docs, clean.num_docs);
        assert_eq!(report.num_clusters, clean.num_clusters);
        assert_eq!(report.num_noise, clean.num_noise);
        // The sound clusters are still audited.
        assert_eq!(report.clusters.len(), clean.num_clusters - 2);
    }

    #[test]
    fn torn_wal_tail_is_a_warning_not_a_problem() {
        let path = build_store("torn.imp");
        {
            let mut live =
                LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();
            live.add_batch(&["The array rebuild loops forever after the swap.".to_string()])
                .unwrap();
        }
        let wal_path = crate::wal_path_for(&path);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&[0x09, 0x00, 0x00]);
        std::fs::write(&wal_path, &bytes).unwrap();
        let report = diagnose(&path);
        assert!(report.healthy(), "problems: {:?}", report.problems);
        assert!(
            report.warnings.iter().any(|w| w.contains("torn tail")),
            "warnings: {:?}",
            report.warnings
        );
        assert_eq!(report.wal.torn_tail_bytes, 3);
    }
}
