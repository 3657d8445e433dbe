//! `StoreView`: lazy, zero-copy access to a sectioned (`IMP2`) store
//! file of store version 2 or 3.
//!
//! [`StoreView::open`] reads only the 64-byte header, the section
//! directory, and the small per-cluster `META` records — O(header), not
//! O(store) — and memory-maps the rest (falling back to positioned reads
//! when mapping is unavailable). Documents, segment tables, and
//! per-cluster indices materialize on *first consultation* and stay
//! resident (eviction-free): forum workloads touch a small hot set of
//! intention clusters per epoch, so resident memory tracks the working
//! set instead of the corpus.
//!
//! The query path ([`StoreView::top_k`]) is one more backend of the single
//! Algorithm 2 ([`crate::pipeline::run_algo2`]): the same query grouping
//! ([`crate::pipeline::query_cluster_groups_of`]), the same per-cluster
//! step ([`crate::pipeline::scan_cluster`]) and the same fold, so results
//! are bit-identical to the heap path (asserted by unit, property, and
//! socket tests).
//!
//! Metrics (process-wide [`forum_obs::Registry`], when enabled):
//! * `offline/store_load_ns` — time to open the view,
//! * `store/bytes_mapped` — bytes whose checksums have been verified
//!   (header + directory at open, each section on first touch),
//! * `store/lazy_loads` — lazy materializations (clusters, documents,
//!   per-document segment lists).

use crate::collection::PostCollection;
use crate::pipeline::{
    doc_ranges_terms, query_cluster_groups_of, run_algo2, scan_cluster, BuildTimings, ClusterIndex,
    HeapMr, IntentPipeline, QueryScratch, RefinedSegment, ScanSpec,
};
use crate::store::StoreError;
use crate::store_v2::{self, ClusterMeta, SectionEntry, V2Header, DIR_ENTRY_BYTES, HEADER_BYTES};
use forum_index::flat::FlatIndexView;
use forum_index::{SegmentIndex, WeightingScheme};
use forum_obs::Registry;
use forum_segment::CmDoc;
use forum_text::{document::DocId, Document, Segmentation};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How [`StoreView::open_with`] should back the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackingMode {
    /// Memory-map when possible, fall back to positioned reads.
    Auto,
    /// Memory-map or fail.
    Mmap,
    /// Positioned reads only (the std-only fallback path).
    Pread,
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file (thin std-only wrapper;
    /// no external crates).
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned; the raw pointer is only ever
    // reborrowed as `&[u8]`.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn map(file: &File, len: u64) -> io::Result<Mmap> {
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large"))?;
            if len == 0 {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty file"));
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    /// Mapping is unix-only; other platforms always use positioned reads.
    pub struct Mmap;

    impl Mmap {
        pub fn map(_file: &File, _len: u64) -> io::Result<Mmap> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap unavailable on this platform",
            ))
        }

        pub fn bytes(&self) -> &[u8] {
            &[]
        }
    }
}

/// A positioned-read handle that needs no seek state.
struct PreadFile {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
}

impl PreadFile {
    fn new(file: std::fs::File) -> Self {
        #[cfg(unix)]
        {
            PreadFile { file }
        }
        #[cfg(not(unix))]
        {
            PreadFile {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.lock().expect("pread lock");
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

enum Backing {
    Mmap(sys::Mmap),
    Pread(PreadFile),
}

/// An owned byte buffer whose base is 8-aligned (backed by `Vec<u64>`),
/// so flat fixed-width records can be reinterpreted from it exactly like
/// from a page-aligned map.
pub struct AlignedBuf {
    storage: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf {
            storage: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    fn as_mut_bytes(&mut self) -> &mut [u8] {
        // Safe: u64 storage reinterpreted as bytes, no padding, len within
        // the allocation by construction.
        unsafe { std::slice::from_raw_parts_mut(self.storage.as_mut_ptr().cast::<u8>(), self.len) }
    }

    fn as_bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Bytes of one section (or sub-range): borrowed straight from the map,
/// or owned (8-aligned) when read through the pread fallback.
pub enum SectionBytes<'a> {
    /// A zero-copy slice of the mapping.
    Borrowed(&'a [u8]),
    /// An owned aligned copy (pread backing).
    Owned(AlignedBuf),
}

impl Deref for SectionBytes<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            SectionBytes::Borrowed(b) => b,
            SectionBytes::Owned(b) => b.as_bytes(),
        }
    }
}

/// A lazily-decoded offset table (`TEXTS` / `DOCSEGS` sections): byte
/// offsets of each record within the section's payload region.
struct OffsetTable {
    /// `count + 1` nondecreasing offsets; `offsets[i]..offsets[i+1]` is
    /// record `i`'s payload range.
    offsets: Vec<u64>,
    /// Absolute file offset of the payload region.
    payload_abs: u64,
}

type Cached<T> = OnceLock<Result<T, String>>;

/// Lazy, checksum-verified access to a sectioned store file.
///
/// Open is O(header); every section is verified and materialized on first
/// touch and stays resident. Safe to share across threads (`Sync`): the
/// caches are `OnceLock`s whose racing initializations are idempotent.
pub struct StoreView {
    path: PathBuf,
    backing: Backing,
    file_len: u64,
    header: V2Header,
    sections: Vec<SectionEntry>,
    /// First-touch checksum verification state, parallel to `sections`.
    verified: Vec<Cached<()>>,
    /// Directory positions of META/TEXTS/RAWSEGS/DOCSEGS/CENTROIDS.
    singles: [usize; 5],
    /// Directory position of each cluster's section.
    cluster_pos: Vec<usize>,
    /// Per-cluster summary records (decoded eagerly at open; tiny).
    meta: Vec<ClusterMeta>,
    texts_table: Cached<OffsetTable>,
    segs_table: Cached<OffsetTable>,
    doc_cache: Vec<Cached<Arc<CmDoc>>>,
    segs_cache: Vec<Cached<Arc<Vec<RefinedSegment>>>>,
    cluster_cache: Vec<Cached<Arc<SegmentIndex>>>,
    /// Query-time weighting scheme (the store does not persist it; the
    /// paper's scheme, matching what [`crate::store::load`] restores).
    weighting: WeightingScheme,
}

fn format_err(msg: impl Into<String>) -> StoreError {
    StoreError::Format(msg.into())
}

impl std::fmt::Debug for StoreView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreView")
            .field("path", &self.path)
            .field("backing", &self.backing_name())
            .field("num_docs", &self.num_docs())
            .field("num_clusters", &self.num_clusters())
            .field("resident_clusters", &self.num_resident_clusters())
            .finish_non_exhaustive()
    }
}

impl StoreView {
    /// Opens a sectioned store, mapping it when possible.
    pub fn open(path: &Path) -> Result<StoreView, StoreError> {
        Self::open_with(path, BackingMode::Auto)
    }

    /// Opens a sectioned store with an explicit backing choice.
    pub fn open_with(path: &Path, mode: BackingMode) -> Result<StoreView, StoreError> {
        Self::open_inner(path, mode, true)
    }

    pub(crate) fn open_inner(
        path: &Path,
        mode: BackingMode,
        record_metrics: bool,
    ) -> Result<StoreView, StoreError> {
        let obs = Registry::global();
        let timer = (record_metrics && obs.is_enabled()).then(Instant::now);
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES as u64 {
            return Err(format_err(format!(
                "file too short for v2 header: {file_len} bytes"
            )));
        }
        let backing = match mode {
            BackingMode::Mmap => Backing::Mmap(sys::Mmap::map(&file, file_len)?),
            BackingMode::Pread => Backing::Pread(PreadFile::new(file)),
            BackingMode::Auto => match sys::Mmap::map(&file, file_len) {
                Ok(m) => Backing::Mmap(m),
                Err(_) => Backing::Pread(PreadFile::new(file)),
            },
        };

        let header_bytes = read_backing(&backing, file_len, 0, HEADER_BYTES as u64)?;
        let header = store_v2::parse_header(&header_bytes)?;
        drop(header_bytes);

        header
            .dir_offset
            .checked_add(header.dir_len)
            .filter(|&end| end <= file_len)
            .ok_or_else(|| {
                format_err(format!(
                    "directory [{}..+{}] exceeds file length {file_len}",
                    header.dir_offset, header.dir_len
                ))
            })?;
        if header.dir_len != (header.section_count as u64) * DIR_ENTRY_BYTES as u64 {
            return Err(format_err(format!(
                "directory length {} does not match {} sections",
                header.dir_len, header.section_count
            )));
        }
        let dir_bytes = read_backing(&backing, file_len, header.dir_offset, header.dir_len)?;
        let computed = store_v2::checksum(header.version, &dir_bytes);
        if computed != header.dir_checksum {
            return Err(format_err(format!(
                "directory checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                header.dir_checksum
            )));
        }
        let sections = store_v2::parse_directory(&dir_bytes)?;
        drop(dir_bytes);
        let (singles, cluster_pos) = store_v2::validate_directory(&header, &sections, file_len)?;

        // META is tiny (24 bytes per cluster); verify and decode it now so
        // `stats` answers without touching anything else.
        let meta_entry = sections[singles[0]];
        let meta_bytes = read_backing(&backing, file_len, meta_entry.offset, meta_entry.len)?;
        if store_v2::checksum(header.version, &meta_bytes) != meta_entry.checksum {
            return Err(format_err("META section checksum mismatch"));
        }
        let meta = store_v2::decode_meta(&meta_bytes, header.num_clusters as usize)?;
        drop(meta_bytes);

        let num_docs = header.num_docs as usize;
        let num_clusters = header.num_clusters as usize;
        let mut verified: Vec<Cached<()>> = Vec::with_capacity(sections.len());
        verified.resize_with(sections.len(), OnceLock::new);
        // META was just verified.
        verified[singles[0]].set(Ok(())).ok();

        let view = StoreView {
            path: path.to_path_buf(),
            backing,
            file_len,
            header,
            sections,
            verified,
            singles,
            cluster_pos,
            meta,
            texts_table: OnceLock::new(),
            segs_table: OnceLock::new(),
            doc_cache: {
                let mut v = Vec::with_capacity(num_docs);
                v.resize_with(num_docs, OnceLock::new);
                v
            },
            segs_cache: {
                let mut v = Vec::with_capacity(num_docs);
                v.resize_with(num_docs, OnceLock::new);
                v
            },
            cluster_cache: {
                let mut v = Vec::with_capacity(num_clusters);
                v.resize_with(num_clusters, OnceLock::new);
                v
            },
            weighting: WeightingScheme::PaperTfIdf,
        };
        if record_metrics && obs.is_enabled() {
            obs.incr(
                "store/bytes_mapped",
                HEADER_BYTES as u64 + view.header.dir_len + meta_entry.len,
            );
            if let Some(t) = timer {
                obs.record_duration("offline/store_load_ns", t.elapsed());
            }
        }
        Ok(view)
    }

    /// The store file this view reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store file's length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The parsed header.
    pub fn header(&self) -> &V2Header {
        &self.header
    }

    /// The section directory.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// Per-cluster summary records (from the `META` section).
    pub fn cluster_meta(&self) -> &[ClusterMeta] {
        &self.meta
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.header.num_docs as usize
    }

    /// Number of intention clusters.
    pub fn num_clusters(&self) -> usize {
        self.header.num_clusters as usize
    }

    /// DBSCAN noise-segment count recorded at build time.
    pub fn num_noise(&self) -> usize {
        self.header.num_noise as usize
    }

    /// Whether queries combine per-intention lists weighted.
    pub fn weighted_combination(&self) -> bool {
        self.header.weighted_combination()
    }

    /// `"mmap"` or `"pread"` — which backing this view runs on.
    pub fn backing_name(&self) -> &'static str {
        match self.backing {
            Backing::Mmap(_) => "mmap",
            Backing::Pread(_) => "pread",
        }
    }

    /// The eviction-free resident bitmap: which cluster indices have been
    /// materialized so far.
    pub fn resident_clusters(&self) -> Vec<bool> {
        self.cluster_cache
            .iter()
            .map(|c| matches!(c.get(), Some(Ok(_))))
            .collect()
    }

    /// Number of resident (materialized) cluster indices.
    pub fn num_resident_clusters(&self) -> usize {
        self.resident_clusters().iter().filter(|&&r| r).count()
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<SectionBytes<'_>, StoreError> {
        read_backing(&self.backing, self.file_len, offset, len)
    }

    /// Verifies a section's checksum on first touch; later touches are
    /// free. Racing initializations both compute the same verdict.
    fn ensure_verified(&self, pos: usize) -> Result<(), StoreError> {
        let r = self.verified[pos].get_or_init(|| {
            let e = self.sections[pos];
            let data = match self.read_range(e.offset, e.len) {
                Ok(d) => d,
                Err(err) => return Err(format!("section {}: {err}", e.describe())),
            };
            let computed = store_v2::checksum(self.header.version, &data);
            if computed != e.checksum {
                return Err(format!(
                    "section {} checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                    e.describe(),
                    e.checksum
                ));
            }
            Registry::global().incr("store/bytes_mapped", e.len);
            Ok(())
        });
        r.clone().map_err(StoreError::Format)
    }

    /// Verified bytes of a whole section.
    fn section_bytes(&self, pos: usize) -> Result<SectionBytes<'_>, StoreError> {
        self.ensure_verified(pos)?;
        let e = self.sections[pos];
        self.read_range(e.offset, e.len)
    }

    fn offset_table<'a>(
        &self,
        cache: &'a Cached<OffsetTable>,
        pos: usize,
        what: &str,
    ) -> Result<&'a OffsetTable, StoreError> {
        let r = cache.get_or_init(|| {
            let build = || -> Result<OffsetTable, StoreError> {
                self.ensure_verified(pos)?;
                let e = self.sections[pos];
                let prefix_len = 8 + 8 * (self.num_docs() as u64 + 1);
                if e.len < prefix_len {
                    return Err(format_err(format!("{what} section too short")));
                }
                let prefix = self.read_range(e.offset, prefix_len)?;
                let mut r = forum_index::Reader::new(&prefix);
                let count = r.u32("record count").map_err(StoreError::Decode)? as usize;
                let _pad = r.u32("pad").map_err(StoreError::Decode)?;
                if count != self.num_docs() {
                    return Err(format_err(format!(
                        "{what} records {count} documents, header claims {}",
                        self.num_docs()
                    )));
                }
                let mut offsets = Vec::with_capacity(count + 1);
                for _ in 0..=count {
                    offsets.push(r.u64("record offset").map_err(StoreError::Decode)?);
                }
                let payload_len = e.len - prefix_len;
                if offsets[0] != 0
                    || offsets.windows(2).any(|w| w[0] > w[1])
                    || *offsets.last().expect("count+1 offsets") != payload_len
                {
                    return Err(format_err(format!("{what} offset table is inconsistent")));
                }
                Ok(OffsetTable {
                    offsets,
                    payload_abs: e.offset + prefix_len,
                })
            };
            build().map_err(cached_message)
        });
        r.as_ref().map_err(|e| StoreError::Format(e.clone()))
    }

    /// The raw text of document `q` (an owned copy; it is immediately
    /// parsed into a cached [`CmDoc`] by [`Self::document`]).
    pub fn doc_text(&self, q: usize) -> Result<String, StoreError> {
        self.check_doc(q)?;
        let table = self.offset_table(&self.texts_table, self.singles[1], "TEXTS")?;
        let (a, b) = (table.offsets[q], table.offsets[q + 1]);
        let bytes = self.read_range(table.payload_abs + a, b - a)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| format_err(format!("document {q} text is not valid UTF-8")))
    }

    /// The parsed document `q`, materialized on first touch (not
    /// CM-annotated: queries read only its terms).
    pub fn document(&self, q: usize) -> Result<Arc<CmDoc>, StoreError> {
        self.check_doc(q)?;
        let r = self.doc_cache[q].get_or_init(|| {
            let text = self.doc_text(q).map_err(cached_message)?;
            let obs = Registry::global();
            obs.incr("store/lazy_loads", 1);
            Ok(Arc::new(CmDoc::parsed(Document::parse_clean(
                DocId(q as u32),
                &text,
            ))))
        });
        r.clone().map_err(StoreError::Format)
    }

    /// Document `q`'s refined segments, materialized on first touch.
    pub fn doc_segments(&self, q: usize) -> Result<Arc<Vec<RefinedSegment>>, StoreError> {
        self.check_doc(q)?;
        let r = self.segs_cache[q].get_or_init(|| {
            let build = || -> Result<Vec<RefinedSegment>, StoreError> {
                let table = self.offset_table(&self.segs_table, self.singles[3], "DOCSEGS")?;
                let (a, b) = (table.offsets[q], table.offsets[q + 1]);
                let bytes = self.read_range(table.payload_abs + a, b - a)?;
                decode_doc_segments_record(&bytes, self.num_clusters())
            };
            match build() {
                Ok(segs) => {
                    Registry::global().incr("store/lazy_loads", 1);
                    Ok(Arc::new(segs))
                }
                Err(e) => Err(cached_message(e)),
            }
        });
        r.clone().map_err(StoreError::Format)
    }

    fn check_doc(&self, q: usize) -> Result<(), StoreError> {
        if q >= self.num_docs() {
            return Err(format_err(format!(
                "document {q} out of range ({} documents)",
                self.num_docs()
            )));
        }
        Ok(())
    }

    /// Cluster `c`'s index, materialized from its flat section on first
    /// consultation and resident thereafter.
    pub fn cluster(&self, c: usize) -> Result<Arc<SegmentIndex>, StoreError> {
        if c >= self.num_clusters() {
            return Err(format_err(format!(
                "cluster {c} out of range ({} clusters)",
                self.num_clusters()
            )));
        }
        let r = self.cluster_cache[c].get_or_init(|| match self.materialize_cluster(c) {
            Ok(ix) => {
                Registry::global().incr("store/lazy_loads", 1);
                Ok(Arc::new(ix))
            }
            Err(e) => Err(cached_message(e)),
        });
        r.clone().map_err(StoreError::Format)
    }

    /// Parses + materializes cluster `c` fresh (used by the lazy cache and
    /// by full hydration), cross-checking the `META` record. A decode
    /// failure names the cluster (and, for a bad postings list, the
    /// term).
    pub(crate) fn materialize_cluster(&self, c: usize) -> Result<SegmentIndex, StoreError> {
        let bytes = self.section_bytes(self.cluster_pos[c])?;
        let flat = FlatIndexView::parse(&bytes)?;
        let meta = &self.meta[c];
        if flat.num_units() != meta.units as usize
            || flat.num_terms() != meta.vocab as usize
            || flat.num_postings() as u64 != meta.postings
        {
            return Err(format_err(format!(
                "cluster {c} flat index disagrees with META record"
            )));
        }
        flat.materialize()
            .map_err(|e| format_err(format!("cluster {c}: {e}")))
    }

    /// Decodes all raw (pre-refinement) segmentations — full hydration
    /// and integrity checks only; the query path never needs them.
    pub fn raw_segmentations(&self) -> Result<Vec<Segmentation>, StoreError> {
        let bytes = self.section_bytes(self.singles[2])?;
        let mut r = forum_index::Reader::new(&bytes);
        let count = r.u32("segmentation count").map_err(StoreError::Decode)? as usize;
        let _pad = r.u32("pad").map_err(StoreError::Decode)?;
        let mut offsets = Vec::with_capacity(r.capacity_hint(count + 1, 8));
        for _ in 0..=count {
            offsets.push(r.u64("segmentation offset").map_err(StoreError::Decode)?);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let units = r
                .u32("segmentation units")
                .map_err(StoreError::Decode)?
                .max(1) as usize;
            let n_borders = r.u32("border count").map_err(StoreError::Decode)? as usize;
            let mut borders = Vec::with_capacity(r.capacity_hint(n_borders, 4));
            for _ in 0..n_borders {
                let b = r.u32("border").map_err(StoreError::Decode)? as usize;
                if b < 1 || b >= units {
                    return Err(format_err(format!(
                        "border {b} out of range (units {units})"
                    )));
                }
                borders.push(b);
            }
            out.push(Segmentation::from_borders(units, borders));
        }
        if !r.is_at_end() {
            return Err(format_err("trailing bytes after RAWSEGS records"));
        }
        Ok(out)
    }

    /// Decodes the centroid matrix.
    pub fn centroids(&self) -> Result<Vec<Vec<f64>>, StoreError> {
        let bytes = self.section_bytes(self.singles[4])?;
        let mut r = forum_index::Reader::new(&bytes);
        let count = r.u32("centroid count").map_err(StoreError::Decode)? as usize;
        let dim = r.u32("centroid dim").map_err(StoreError::Decode)? as usize;
        let mut out = Vec::with_capacity(r.capacity_hint(count, 8 * dim.max(1)));
        for _ in 0..count {
            let mut row = Vec::with_capacity(r.capacity_hint(dim, 8));
            for _ in 0..dim {
                row.push(r.f64("centroid value").map_err(StoreError::Decode)?);
            }
            out.push(row);
        }
        if !r.is_at_end() {
            return Err(format_err("trailing bytes after CENTROIDS records"));
        }
        Ok(out)
    }

    /// Top-k related posts for query document `q` (`n = 2k`) — the mapped
    /// backend of Algorithm 2, bit-identical to
    /// [`IntentPipeline::top_k`]. Its step resolves the consulted
    /// cluster's lazily decoded index first, so a corrupt section fails
    /// the query with an error.
    pub fn top_k(
        &self,
        q: usize,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError> {
        self.top_k_filtered(q, k, None, scratch)
    }

    /// [`Self::top_k`] over the documents `filter` admits, applied inside
    /// each postings scan (a filtered document never takes a top-n slot).
    pub fn top_k_filtered(
        &self,
        q: usize,
        k: usize,
        filter: Option<forum_index::DocFilter<'_>>,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError> {
        let segs = self.doc_segments(q)?;
        let groups = query_cluster_groups_of(&segs);
        let doc = if groups.is_empty() {
            None
        } else {
            Some(self.document(q)?)
        };
        let weighted = self.weighted_combination();
        run_algo2(&groups, k, None, scratch, |group, n, s| {
            let doc = doc.as_ref().expect("document loaded for non-empty groups");
            let index = self.cluster(group.cluster)?;
            let terms = doc_ranges_terms(doc, &group.ranges);
            let spec = ScanSpec {
                exclude: Some(q as u32),
                filter,
                ..ScanSpec::new(n, weighted, self.weighting)
            };
            Ok(scan_cluster(&index, &terms, &spec, s, None))
        })
    }
}

/// The text a lazily cached failure keeps; it is re-raised as
/// [`StoreError::Format`], so a format error keeps only its message and
/// the report does not repeat the prefix.
fn cached_message(e: StoreError) -> String {
    match e {
        StoreError::Format(msg) => msg,
        e => e.to_string(),
    }
}

fn read_backing<'a>(
    backing: &'a Backing,
    file_len: u64,
    offset: u64,
    len: u64,
) -> Result<SectionBytes<'a>, StoreError> {
    let end = offset
        .checked_add(len)
        .filter(|&end| end <= file_len)
        .ok_or_else(|| {
            format_err(format!(
                "read [{offset}..+{len}] exceeds file length {file_len}"
            ))
        })?;
    match backing {
        Backing::Mmap(m) => m
            .bytes()
            .get(offset as usize..end as usize)
            .map(SectionBytes::Borrowed)
            .ok_or_else(|| format_err("mapping shorter than file length")),
        Backing::Pread(f) => {
            let len = usize::try_from(len)
                .map_err(|_| format_err("section too large for this platform"))?;
            let mut buf = AlignedBuf::zeroed(len);
            f.read_into(offset, buf.as_mut_bytes())?;
            Ok(SectionBytes::Owned(buf))
        }
    }
}

/// Decodes one document's `DOCSEGS` record.
fn decode_doc_segments_record(
    bytes: &[u8],
    num_clusters: usize,
) -> Result<Vec<RefinedSegment>, StoreError> {
    let mut r = forum_index::Reader::new(bytes);
    let n = r.u32("refined count").map_err(StoreError::Decode)? as usize;
    let mut segs = Vec::with_capacity(r.capacity_hint(n, 8));
    for _ in 0..n {
        let cluster = r.u32("cluster id").map_err(StoreError::Decode)? as usize;
        if cluster >= num_clusters {
            return Err(format_err(format!(
                "refined segment names cluster {cluster}, store has {num_clusters}"
            )));
        }
        let n_ranges = r.u32("range count").map_err(StoreError::Decode)? as usize;
        let mut ranges = Vec::with_capacity(r.capacity_hint(n_ranges, 8));
        for _ in 0..n_ranges {
            let a = r.u32("range start").map_err(StoreError::Decode)? as usize;
            let b = r.u32("range end").map_err(StoreError::Decode)? as usize;
            ranges.push((a, b));
        }
        segs.push(RefinedSegment { cluster, ranges });
    }
    if !r.is_at_end() {
        return Err(format_err("trailing bytes after refined segments"));
    }
    Ok(segs)
}

/// Fully hydrates a sectioned store into the heap structures [`crate::store::load`]
/// returns — every section verified and decoded.
pub(crate) fn hydrate(view: &StoreView) -> Result<(PostCollection, IntentPipeline), StoreError> {
    let mut docs = Vec::with_capacity(view.num_docs());
    for i in 0..view.num_docs() {
        let text = view.doc_text(i)?;
        docs.push(CmDoc::parsed(Document::parse_clean(DocId(i as u32), &text)));
    }
    let collection = PostCollection { docs };

    let raw_segmentations = view.raw_segmentations()?;
    let mut doc_segments = Vec::with_capacity(view.num_docs());
    for i in 0..view.num_docs() {
        let table = view.offset_table(&view.segs_table, view.singles[3], "DOCSEGS")?;
        let (a, b) = (table.offsets[i], table.offsets[i + 1]);
        let bytes = view.read_range(table.payload_abs + a, b - a)?;
        doc_segments.push(decode_doc_segments_record(&bytes, view.num_clusters())?);
    }
    let centroids = view.centroids()?;
    let mut clusters = Vec::with_capacity(view.num_clusters());
    for c in 0..view.num_clusters() {
        clusters.push(ClusterIndex {
            index: view.materialize_cluster(c)?,
        });
    }
    Ok((
        collection,
        IntentPipeline {
            raw_segmentations,
            doc_segments,
            clusters,
            centroids,
            num_noise: view.num_noise(),
            timings: BuildTimings::default(),
            weighted_combination: view.weighted_combination(),
            // The weighting scheme is a query-time choice; restored
            // pipelines default to the paper's scheme (same as v1).
            weighting: WeightingScheme::PaperTfIdf,
        },
    ))
}

/// Anything that can answer Algorithm 2 top-k queries — the trait the
/// heap path ([`HeapStore`]), the mapped path ([`StoreView`]) and the live
/// epoch (`forum_ingest::LiveEpoch`) implement, so [`top_k_many`] batches
/// over any of them and equivalence tests swap them freely.
pub trait QuerySource: Sync {
    /// Number of queryable documents.
    fn num_docs(&self) -> usize;

    /// Top-k related posts for query `q` (`n = 2k`), scanning with
    /// `scratch`.
    fn query_top_k(
        &self,
        q: usize,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError>;
}

impl QuerySource for StoreView {
    fn num_docs(&self) -> usize {
        StoreView::num_docs(self)
    }

    fn query_top_k(
        &self,
        q: usize,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError> {
        self.top_k(q, k, scratch)
    }
}

/// A built (or loaded) collection and pipeline behind the [`QuerySource`]
/// trait: the heap backend, bit-identical to [`IntentPipeline::top_k`].
#[derive(Debug, Clone, Copy)]
pub struct HeapStore<'a> {
    /// The parsed collection.
    pub collection: &'a PostCollection,
    /// The pipeline built over it.
    pub pipeline: &'a IntentPipeline,
}

impl QuerySource for HeapStore<'_> {
    fn num_docs(&self) -> usize {
        self.collection.len()
    }

    fn query_top_k(
        &self,
        q: usize,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(u32, f64)>, StoreError> {
        Ok(HeapMr::of(self.collection, self.pipeline).top_k(q, k, None, scratch))
    }
}

/// The batch runner: evaluates `queries` over `source` with `threads`
/// workers (`0` = one per core), returning per-query results in input
/// order. Queries are split into contiguous chunks, one per worker, and
/// each worker reuses one [`QueryScratch`] across its chunk. Workers
/// change only where a query runs, so results are bit-identical for every
/// thread count — the property the equivalence tests sweep at 1/2/4/8
/// threads. A query error or a worker panic fails the batch.
///
/// Metrics (process-wide [`Registry`], when enabled): per batch,
/// `online/batch_ns` (latency), `online/batch_queries` (size) and the
/// `online/qps` gauge (throughput); per worker, `online/worker_busy_ns`
/// and an `online/batch_workers` count.
pub fn top_k_many<S: QuerySource>(
    source: &S,
    queries: &[usize],
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<(u32, f64)>>, StoreError> {
    let obs = Registry::global();
    let timer = obs.is_enabled().then(Instant::now);
    let results = crate::par::try_parallel_map_init_with(
        queries,
        threads,
        QueryScratch::new,
        |scratch, &q| source.query_top_k(q, k, scratch),
        |r| {
            obs.record("online/worker_busy_ns", r.busy.as_nanos() as u64);
            obs.incr("online/batch_workers", 1);
        },
    )?
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
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
    Ok(results)
}
