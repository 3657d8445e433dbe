//! Persistence of the offline build (Section 7's "Indexing" step, made
//! durable).
//!
//! The paper's division of labour is offline segmentation/grouping/indexing
//! versus online matching; a deployed system must be able to restart into
//! the online phase without redoing the offline one. [`save`] writes the
//! whole built state — raw post texts, segmentations, refined segments,
//! centroids and every per-cluster index — into a single versioned binary
//! file; [`load`] restores a ready-to-query
//! [`IntentPipeline`]/[`PostCollection`] pair. The format is the
//! self-describing codec of [`forum_index::codec`]; no external
//! serialization dependencies.
//!
//! Post texts are stored raw and re-parsed on load (parsing is the cheap
//! part of the offline phase; border selection, clustering and index
//! construction — the expensive parts — are restored, not re-run). The
//! restored documents are not CM-annotated: retrieval reads only their
//! terms, and a [`forum_segment::CmDoc`] annotates itself if a table is
//! ever asked for.

use crate::collection::PostCollection;
use crate::pipeline::{BuildTimings, ClusterIndex, IntentPipeline, RefinedSegment};
use forum_index::codec::{DecodeError, Reader, Writer};
use forum_index::SegmentIndex;
use forum_text::{document::DocId, Document, Segmentation};
use std::io::{Read as _, Write as _};
use std::path::Path;

/// Errors from [`save`]/[`load`]/[`crate::view::StoreView`].
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file's contents do not decode.
    Decode(DecodeError),
    /// The sectioned layout is inconsistent (bad header/directory, checksum
    /// mismatch, section invariant violated).
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Decode(e) => write!(f, "store decode error: {e}"),
            StoreError::Format(msg) => write!(f, "store format error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A query worker panic fails the query, not the process.
impl From<crate::par::WorkerPanic> for StoreError {
    fn from(e: crate::par::WorkerPanic) -> Self {
        StoreError::Format(format!("query worker panicked: {e}"))
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

const MAGIC: &[u8; 4] = b"IMP1";
const VERSION: u32 = 1;

/// Serializes a built pipeline (and the collection it was built over) into
/// a byte buffer.
pub fn encode(collection: &PostCollection, pipeline: &IntentPipeline) -> Vec<u8> {
    let mut w = Writer::new();
    w.magic(MAGIC);
    w.u32(VERSION);

    // Raw texts.
    w.u32(collection.len() as u32);
    for d in &collection.docs {
        w.string(&d.doc.text);
    }

    // Raw segmentations.
    w.u32(pipeline.raw_segmentations.len() as u32);
    for seg in &pipeline.raw_segmentations {
        w.u32(seg.num_units() as u32);
        w.u32(seg.borders().len() as u32);
        for &b in seg.borders() {
            w.u32(b as u32);
        }
    }

    // Refined segments.
    w.u32(pipeline.doc_segments.len() as u32);
    for segs in &pipeline.doc_segments {
        w.u32(segs.len() as u32);
        for s in segs {
            w.u32(s.cluster as u32);
            w.u32(s.ranges.len() as u32);
            for &(a, b) in &s.ranges {
                w.u32(a as u32);
                w.u32(b as u32);
            }
        }
    }

    // Centroids.
    w.u32(pipeline.centroids.len() as u32);
    for c in &pipeline.centroids {
        w.u32(c.len() as u32);
        for &x in c {
            w.f64(x);
        }
    }

    // Cluster indices.
    w.u32(pipeline.clusters.len() as u32);
    for c in &pipeline.clusters {
        c.index.encode(&mut w);
    }

    // Flags.
    w.u32(pipeline.weighted_combination as u32);
    w.u32(pipeline.num_noise as u32);
    w.into_bytes()
}

/// Restores a pipeline + collection pair from bytes written by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<(PostCollection, IntentPipeline), StoreError> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    let version = r.u32("store version")?;
    if version != VERSION {
        return Err(StoreError::Decode(DecodeError::at(
            "unsupported store version",
            r.position(),
        )));
    }

    // Every `with_capacity` below pre-allocates at most what the remaining
    // input could actually hold (`capacity_hint`): length fields come from
    // an untrusted file, so trusting them directly would let a corrupt
    // length abort the process on allocation before decoding fails cleanly.
    let n_docs = r.u32("doc count")? as usize;
    let mut docs = Vec::with_capacity(r.capacity_hint(n_docs, 4));
    for i in 0..n_docs {
        let text = r.string("doc text")?;
        docs.push(forum_segment::CmDoc::parsed(Document::parse_clean(
            DocId(i as u32),
            &text,
        )));
    }
    let collection = PostCollection { docs };

    let n_segs = r.u32("segmentation count")? as usize;
    let mut raw_segmentations = Vec::with_capacity(r.capacity_hint(n_segs, 8));
    for _ in 0..n_segs {
        let units = r.u32("segmentation units")?.max(1) as usize;
        let n_borders = r.u32("border count")? as usize;
        let mut borders = Vec::with_capacity(r.capacity_hint(n_borders, 4));
        for _ in 0..n_borders {
            let b = r.u32("border")? as usize;
            // `Segmentation::from_borders` asserts these invariants; a
            // corrupt file must fail with an error, not a panic.
            if b < 1 || b >= units {
                return Err(StoreError::Decode(DecodeError::at(
                    "border out of range",
                    r.position(),
                )));
            }
            borders.push(b);
        }
        raw_segmentations.push(Segmentation::from_borders(units, borders));
    }

    let n_doc_segs = r.u32("doc segment count")? as usize;
    let mut doc_segments = Vec::with_capacity(r.capacity_hint(n_doc_segs, 4));
    for _ in 0..n_doc_segs {
        let n = r.u32("refined count")? as usize;
        let mut segs = Vec::with_capacity(r.capacity_hint(n, 8));
        for _ in 0..n {
            let cluster = r.u32("cluster id")? as usize;
            let n_ranges = r.u32("range count")? as usize;
            let mut ranges = Vec::with_capacity(r.capacity_hint(n_ranges, 8));
            for _ in 0..n_ranges {
                let a = r.u32("range start")? as usize;
                let b = r.u32("range end")? as usize;
                ranges.push((a, b));
            }
            segs.push(RefinedSegment { cluster, ranges });
        }
        doc_segments.push(segs);
    }

    let n_centroids = r.u32("centroid count")? as usize;
    let mut centroids = Vec::with_capacity(r.capacity_hint(n_centroids, 4));
    for _ in 0..n_centroids {
        let dim = r.u32("centroid dim")? as usize;
        let mut c = Vec::with_capacity(r.capacity_hint(dim, 8));
        for _ in 0..dim {
            c.push(r.f64("centroid value")?);
        }
        centroids.push(c);
    }

    let n_clusters = r.u32("cluster count")? as usize;
    let mut clusters = Vec::with_capacity(r.capacity_hint(n_clusters, 4));
    for _ in 0..n_clusters {
        clusters.push(ClusterIndex {
            index: SegmentIndex::decode(&mut r)?,
        });
    }

    let weighted_combination = r.u32("weighted flag")? != 0;
    let num_noise = r.u32("noise count")? as usize;

    Ok((
        collection,
        IntentPipeline {
            raw_segmentations,
            doc_segments,
            clusters,
            centroids,
            num_noise,
            timings: BuildTimings::default(),
            weighted_combination,
            // The weighting scheme is a query-time choice; restored
            // pipelines default to the paper's scheme.
            weighting: forum_index::WeightingScheme::PaperTfIdf,
        },
    ))
}

/// Saves the built state to a file, atomically, in the sectioned
/// mmap-able layout at store version 3 ([`crate::store_v2`]).
///
/// Sections stream to a temporary sibling (`<name>.tmp`) through a
/// running checksum — peak save memory does not scale with store size —
/// then the file is synced and renamed over `path`; the containing
/// directory is synced so the rename itself is durable. A crash or
/// failure at any point leaves either the previous file intact or the
/// complete new one — never a truncated or interleaved store.
pub fn save(
    path: &Path,
    collection: &PostCollection,
    pipeline: &IntentPipeline,
) -> Result<(), StoreError> {
    crate::store_v2::save_v2(path, collection, pipeline)
}

/// Saves in the legacy v1 single-stream layout (kept for the migration
/// tests and for producing fixtures older binaries can read). New code
/// should use [`save`].
pub fn save_v1(
    path: &Path,
    collection: &PostCollection,
    pipeline: &IntentPipeline,
) -> Result<(), StoreError> {
    let bytes = encode(collection, pipeline);
    write_atomic(path, &bytes)
}

/// Writes `bytes` to `path` via a same-directory temp file + fsync + rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush file contents before the rename publishes them.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    // Make the rename durable. Directories cannot be fsynced on every
    // platform; failure here does not affect atomicity, only durability.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// Loads a built state from a file written by [`save`] (store version 3,
/// or version 2 by an older build) or
/// [`save_v1`] — the leading magic selects the decoder, so v1 stores
/// remain loadable without an explicit migration step.
///
/// This is the *full-decode* path: every section is read, verified, and
/// hydrated into heap structures. Processes that only need to answer
/// queries should open a lazy [`crate::view::StoreView`] instead.
///
/// Metrics (when the process-wide registry is enabled):
/// `offline/store_load_ns` for the whole load, and `store/bytes_mapped`
/// counts every byte touched (for this path, the entire file).
pub fn load(path: &Path) -> Result<(PostCollection, IntentPipeline), StoreError> {
    let obs = forum_obs::Registry::global();
    let timer = obs.is_enabled().then(std::time::Instant::now);
    let mut file = std::fs::File::open(path)?;
    let mut magic = [0u8; 4];
    file.read_exact(&mut magic)?;
    let out = if &magic == crate::store_v2::V2_MAGIC {
        drop(file);
        let view = crate::view::StoreView::open_inner(path, crate::view::BackingMode::Auto, false)?;
        let hydrated = crate::view::hydrate(&view)?;
        if obs.is_enabled() {
            // Hydration counted each section on verification; add the
            // header, directory, and META overhead it skipped.
            let meta_len = view
                .sections()
                .iter()
                .find(|s| s.kind == crate::store_v2::kind::META)
                .map_or(0, |s| s.len);
            obs.incr(
                "store/bytes_mapped",
                crate::store_v2::HEADER_BYTES as u64 + view.header().dir_len + meta_len,
            );
        }
        hydrated
    } else {
        let mut bytes = magic.to_vec();
        file.read_to_end(&mut bytes)?;
        if obs.is_enabled() {
            obs.incr("store/bytes_mapped", bytes.len() as u64);
        }
        decode(&bytes)?
    };
    if let Some(t) = timer {
        obs.record_duration("offline/store_load_ns", t.elapsed());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use forum_corpus::{Corpus, Domain, GenConfig};

    fn built() -> (PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 150,
            seed: 77,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        (coll, pipe)
    }

    #[test]
    fn roundtrip_preserves_retrieval() {
        let (coll, pipe) = built();
        let bytes = encode(&coll, &pipe);
        let (coll2, pipe2) = decode(&bytes).expect("decode");
        assert_eq!(coll2.len(), coll.len());
        assert_eq!(pipe2.num_clusters(), pipe.num_clusters());
        assert_eq!(pipe2.weighted_combination, pipe.weighted_combination);
        for q in [0usize, 7, 42] {
            assert_eq!(
                pipe2.top_k(&coll2, q, 5),
                pipe.top_k(&coll, q, 5),
                "query {q}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (coll, pipe) = built();
        let bytes = encode(&coll, &pipe);
        let (_, pipe2) = decode(&bytes).expect("decode");
        assert_eq!(pipe2.doc_segments.len(), pipe.doc_segments.len());
        for (a, b) in pipe2.doc_segments.iter().zip(&pipe.doc_segments) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.cluster, y.cluster);
                assert_eq!(x.ranges, y.ranges);
            }
        }
        assert_eq!(pipe2.centroids, pipe.centroids);
        let _ = coll;
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let (coll, pipe) = built();
        let bytes = encode(&coll, &pipe);
        for cut in [0usize, 4, 100, bytes.len() - 3] {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A tiny built state for the corruption sweeps: each mutation costs a
    /// full decode (including text re-parsing), so the corpus must be small
    /// for the sweep to stay dense *and* fast.
    fn built_tiny() -> (PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 12,
            seed: 78,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        (coll, pipe)
    }

    /// Adversarial corruption: stamping 0xFF over any 4 bytes — which turns
    /// every length/count field it hits into ~4 billion — must produce a
    /// clean `Err`, never a panic, abort, or multi-gigabyte allocation.
    #[test]
    fn corrupted_length_fields_fail_cleanly() {
        let (coll, pipe) = built_tiny();
        let bytes = encode(&coll, &pipe);
        // Sweep the whole file at a stride; the tiny corpus keeps it fast.
        for offset in (0..bytes.len().saturating_sub(4)).step_by(31) {
            let mut evil = bytes.clone();
            evil[offset..offset + 4].copy_from_slice(&[0xFF; 4]);
            let _ = decode(&evil); // must return (Ok or Err), not die
        }
        // Targeted hits on known leading count fields (doc count sits right
        // after magic + version) must be detected as errors.
        for offset in [8usize, 12] {
            let mut evil = bytes.clone();
            evil[offset..offset + 4].copy_from_slice(&[0xFF; 4]);
            assert!(decode(&evil).is_err(), "offset {offset}");
        }
    }

    /// Flipping single bytes of border/unit fields must never trip the
    /// assertions inside `Segmentation::from_borders`.
    #[test]
    fn corrupted_borders_error_instead_of_panicking() {
        let (coll, pipe) = built_tiny();
        let bytes = encode(&coll, &pipe);
        for offset in (0..bytes.len().saturating_sub(1)).step_by(17) {
            let mut evil = bytes.clone();
            evil[offset] ^= 0x5A;
            let _ = decode(&evil); // Ok or Err both fine; panics are not
        }
    }

    #[test]
    fn save_is_atomic_under_failure() {
        let (coll, pipe) = built();
        let dir = std::env::temp_dir().join("intentmatch-store-atomic-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.imp");

        // A good save first.
        save(&path, &coll, &pipe).expect("initial save");
        let good = std::fs::read(&path).unwrap();

        // Force the next save's temp-file creation to fail: occupy the
        // deterministic temp path with a directory.
        let tmp = dir.join("pipeline.imp.tmp");
        std::fs::create_dir(&tmp).unwrap();
        assert!(save(&path, &coll, &pipe).is_err(), "save should fail");

        // The previous good file is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), good);
        let (coll2, pipe2) = load(&path).expect("good file still loads");
        assert_eq!(pipe2.top_k(&coll2, 0, 5), pipe.top_k(&coll, 0, 5));

        // After clearing the obstruction, saving works and leaves no temp.
        std::fs::remove_dir(&tmp).unwrap();
        save(&path, &coll, &pipe).expect("save after unblocking");
        assert!(!tmp.exists(), "temp file must not be left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_load_via_file() {
        let (coll, pipe) = built();
        let dir = std::env::temp_dir().join("intentmatch-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.imp");
        save(&path, &coll, &pipe).expect("save");
        let (coll2, pipe2) = load(&path).expect("load");
        assert_eq!(pipe2.top_k(&coll2, 3, 5), pipe.top_k(&coll, 3, 5));
        std::fs::remove_file(&path).ok();
    }
}
