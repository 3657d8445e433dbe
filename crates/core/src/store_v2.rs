//! Store format v2: a zero-copy, mmap-able on-disk layout.
//!
//! v1 ([`crate::store::encode`]) is a single sequential stream — loading
//! it means decoding *everything* before the first query can run, so
//! restart cost and resident memory scale with corpus size rather than
//! working set. v2 instead writes a fixed-width header plus a **section
//! directory** (per-section kind/offset/length/FNV-1a checksum) and puts
//! every hot array in a fixed-width, 8-byte-aligned section that is
//! directly addressable from a memory map:
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 4     | magic `"IMP2"` |
//! | 4      | 4     | version (`2`, u32 LE) |
//! | 8      | 8     | directory offset |
//! | 16     | 8     | directory length in bytes |
//! | 24     | 8     | FNV-1a checksum of the directory bytes |
//! | 32     | 4     | section count |
//! | 36     | 4     | document count |
//! | 40     | 4     | cluster count |
//! | 44     | 4     | flags (bit 0 = weighted combination) |
//! | 48     | 4     | noise-segment count |
//! | 52     | 4     | reserved (0) |
//! | 56     | 8     | FNV-1a checksum of header bytes 0..56 |
//!
//! Each 32-byte directory entry is `{kind u32, index u32, offset u64,
//! len u64, checksum u64}`. Section `offset`s are 8-byte aligned (the
//! inter-section padding is *excluded* from `len` and `checksum`), so the
//! f64 centroid rows and the fixed-width `FIX2` cluster records
//! ([`forum_index::flat`]) can be reinterpreted in place from a map whose
//! base is page-aligned.
//!
//! Section kinds:
//! * `META` (1) — per-cluster `{units u32, vocab u32, postings u64,
//!   avg_unique f64}` summary records; `intentmatch stats` answers from
//!   the header + this section alone.
//! * `TEXTS` (2) — `count u32, pad u32, offsets u64×(count+1)`, then the
//!   concatenated UTF-8 post texts.
//! * `RAWSEGS` (3) — same offset-table shape over per-document
//!   `{units u32, n_borders u32, borders u32×n}` records.
//! * `DOCSEGS` (4) — offset table over per-document `{n_segs u32}` then
//!   `{cluster u32, n_ranges u32, (first, end) u32×2 × n}` per segment.
//! * `CENTROIDS` (5) — `count u32, dim u32`, then row-major f64s.
//! * `CLUSTER` (6, `index` = cluster id) — one `FIX2` flat index per
//!   intention cluster, lazily materialized on first consultation.
//!
//! [`save_v2`] streams sections straight to the temp file through a
//! running checksum (`FileEmit`) — peak save memory no longer scales
//! with store size — then writes the directory, patches the real header
//! over the placeholder, fsyncs and renames (same crash-atomicity
//! contract as v1).

use crate::collection::PostCollection;
use crate::pipeline::IntentPipeline;
use crate::store::StoreError;
use forum_index::codec::{Emit, Reader, Writer};
use forum_index::flat::encode_flat;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// v2 magic tag.
pub const V2_MAGIC: &[u8; 4] = b"IMP2";
/// v2 format version.
pub const V2_VERSION: u32 = 2;
/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 64;
/// Size of one directory entry in bytes.
pub const DIR_ENTRY_BYTES: usize = 32;
/// Header flag bit: the pipeline combines per-intention lists weighted.
pub const FLAG_WEIGHTED: u32 = 1;

/// Section kinds (the `kind` field of a directory entry).
pub mod kind {
    /// Per-cluster summary records (header-only `stats`).
    pub const META: u32 = 1;
    /// Concatenated post texts with an offset table.
    pub const TEXTS: u32 = 2;
    /// Raw (pre-refinement) segmentations.
    pub const RAWSEGS: u32 = 3;
    /// Refined segments per document.
    pub const DOCSEGS: u32 = 4;
    /// Row-major centroid matrix.
    pub const CENTROIDS: u32 = 5;
    /// One flat `FIX2` index per intention cluster (`index` = cluster id).
    pub const CLUSTER: u32 = 6;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends a running FNV-1a hash with `bytes`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The fixed-width v2 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Header {
    /// Byte offset of the section directory.
    pub dir_offset: u64,
    /// Directory length in bytes (`section_count × 32`).
    pub dir_len: u64,
    /// FNV-1a checksum of the directory bytes.
    pub dir_checksum: u64,
    /// Number of directory entries.
    pub section_count: u32,
    /// Number of documents in the store.
    pub num_docs: u32,
    /// Number of intention clusters.
    pub num_clusters: u32,
    /// Flag bits ([`FLAG_WEIGHTED`]).
    pub flags: u32,
    /// DBSCAN noise-segment count (informational).
    pub num_noise: u32,
}

impl V2Header {
    /// Whether the weighted-combination flag is set.
    pub fn weighted_combination(&self) -> bool {
        self.flags & FLAG_WEIGHTED != 0
    }
}

/// One 32-byte directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section kind (see [`kind`]).
    pub kind: u32,
    /// Per-kind index (cluster id for `CLUSTER` sections, 0 otherwise).
    pub index: u32,
    /// Byte offset of the section payload (8-aligned).
    pub offset: u64,
    /// Exact payload length in bytes (inter-section padding excluded).
    pub len: u64,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
}

impl SectionEntry {
    /// Human-readable section name for diagnostics.
    pub fn describe(&self) -> String {
        match self.kind {
            kind::META => "META".to_string(),
            kind::TEXTS => "TEXTS".to_string(),
            kind::RAWSEGS => "RAWSEGS".to_string(),
            kind::DOCSEGS => "DOCSEGS".to_string(),
            kind::CENTROIDS => "CENTROIDS".to_string(),
            kind::CLUSTER => format!("CLUSTER[{}]", self.index),
            k => format!("UNKNOWN[kind={k}]"),
        }
    }
}

/// Per-cluster summary record stored in the `META` section (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterMeta {
    /// Indexed units (refined segments) in the cluster.
    pub units: u32,
    /// Vocabulary size of the cluster index.
    pub vocab: u32,
    /// Total postings across the cluster's lists.
    pub postings: u64,
    /// Average unique-term count per unit.
    pub avg_unique: f64,
}

fn format_err(msg: impl Into<String>) -> StoreError {
    StoreError::Format(msg.into())
}

/// Encodes the 64-byte header (computing the trailing header checksum).
pub fn encode_header(h: &V2Header) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..4].copy_from_slice(V2_MAGIC);
    out[4..8].copy_from_slice(&V2_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&h.dir_offset.to_le_bytes());
    out[16..24].copy_from_slice(&h.dir_len.to_le_bytes());
    out[24..32].copy_from_slice(&h.dir_checksum.to_le_bytes());
    out[32..36].copy_from_slice(&h.section_count.to_le_bytes());
    out[36..40].copy_from_slice(&h.num_docs.to_le_bytes());
    out[40..44].copy_from_slice(&h.num_clusters.to_le_bytes());
    out[44..48].copy_from_slice(&h.flags.to_le_bytes());
    out[48..52].copy_from_slice(&h.num_noise.to_le_bytes());
    // bytes 52..56 reserved, zero.
    let checksum = fnv1a(&out[0..56]);
    out[56..64].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses and validates the 64-byte header: magic, version, and the
/// header checksum.
pub fn parse_header(bytes: &[u8]) -> Result<V2Header, StoreError> {
    if bytes.len() < HEADER_BYTES {
        return Err(format_err(format!(
            "file too short for v2 header: {} bytes",
            bytes.len()
        )));
    }
    let bytes = &bytes[..HEADER_BYTES];
    if &bytes[0..4] != V2_MAGIC {
        return Err(format_err("not a v2 store (magic mismatch)"));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let version = u32_at(4);
    if version != V2_VERSION {
        return Err(format_err(format!(
            "unsupported v2 store version {version}"
        )));
    }
    let stored = u64_at(56);
    let computed = fnv1a(&bytes[0..56]);
    if stored != computed {
        return Err(format_err(format!(
            "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(V2Header {
        dir_offset: u64_at(8),
        dir_len: u64_at(16),
        dir_checksum: u64_at(24),
        section_count: u32_at(32),
        num_docs: u32_at(36),
        num_clusters: u32_at(40),
        flags: u32_at(44),
        num_noise: u32_at(48),
    })
}

/// Parses the directory bytes (already checksum-verified by the caller)
/// into entries.
pub fn parse_directory(bytes: &[u8]) -> Result<Vec<SectionEntry>, StoreError> {
    if !bytes.len().is_multiple_of(DIR_ENTRY_BYTES) {
        return Err(format_err(format!(
            "directory length {} is not a multiple of {DIR_ENTRY_BYTES}",
            bytes.len()
        )));
    }
    let mut r = Reader::new(bytes);
    let mut entries = Vec::with_capacity(bytes.len() / DIR_ENTRY_BYTES);
    while !r.is_at_end() {
        entries.push(SectionEntry {
            kind: r.u32("section kind")?,
            index: r.u32("section index")?,
            offset: r.u64("section offset")?,
            len: r.u64("section length")?,
            checksum: r.u64("section checksum")?,
        });
    }
    Ok(entries)
}

/// Validates the directory against the header and file length: every
/// offset 8-aligned and in bounds, each singleton kind present exactly
/// once, cluster sections exactly `0..num_clusters`. Returns the
/// directory positions of `[META, TEXTS, RAWSEGS, DOCSEGS, CENTROIDS]`
/// and the per-cluster positions.
pub fn validate_directory(
    header: &V2Header,
    entries: &[SectionEntry],
    file_len: u64,
) -> Result<([usize; 5], Vec<usize>), StoreError> {
    if entries.len() != header.section_count as usize {
        return Err(format_err(format!(
            "directory has {} entries, header claims {}",
            entries.len(),
            header.section_count
        )));
    }
    let mut singles: [Option<usize>; 5] = [None; 5];
    let mut clusters: Vec<Option<usize>> = vec![None; header.num_clusters as usize];
    for (pos, e) in entries.iter().enumerate() {
        if e.offset % 8 != 0 {
            return Err(format_err(format!(
                "section {} offset {} is not 8-aligned",
                e.describe(),
                e.offset
            )));
        }
        let end = e
            .offset
            .checked_add(e.len)
            .ok_or_else(|| format_err(format!("section {} length overflows", e.describe())))?;
        if end > file_len {
            return Err(format_err(format!(
                "section {} [{}..{}] exceeds file length {}",
                e.describe(),
                e.offset,
                end,
                file_len
            )));
        }
        match e.kind {
            kind::META | kind::TEXTS | kind::RAWSEGS | kind::DOCSEGS | kind::CENTROIDS => {
                let slot = &mut singles[(e.kind - 1) as usize];
                if slot.replace(pos).is_some() {
                    return Err(format_err(format!("duplicate {} section", e.describe())));
                }
            }
            kind::CLUSTER => {
                let c = e.index as usize;
                let slot = clusters.get_mut(c).ok_or_else(|| {
                    format_err(format!(
                        "cluster section index {c} out of range (header claims {})",
                        header.num_clusters
                    ))
                })?;
                if slot.replace(pos).is_some() {
                    return Err(format_err(format!("duplicate CLUSTER[{c}] section")));
                }
            }
            k => return Err(format_err(format!("unknown section kind {k}"))),
        }
    }
    let mut resolved = [0usize; 5];
    for (i, s) in singles.iter().enumerate() {
        resolved[i] = s.ok_or_else(|| format_err(format!("missing section kind {}", i + 1)))?;
    }
    let clusters = clusters
        .into_iter()
        .enumerate()
        .map(|(c, s)| s.ok_or_else(|| format_err(format!("missing CLUSTER[{c}] section"))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((resolved, clusters))
}

/// Decodes the `META` section into per-cluster records.
pub fn decode_meta(bytes: &[u8], num_clusters: usize) -> Result<Vec<ClusterMeta>, StoreError> {
    let mut r = Reader::new(bytes);
    let n = r.u64("meta cluster count")? as usize;
    if n != num_clusters {
        return Err(format_err(format!(
            "META records {n} clusters, header claims {num_clusters}"
        )));
    }
    let mut out = Vec::with_capacity(r.capacity_hint(n, 24));
    for _ in 0..n {
        out.push(ClusterMeta {
            units: r.u32("meta units")?,
            vocab: r.u32("meta vocab")?,
            postings: r.u64("meta postings")?,
            avg_unique: r.f64("meta avg_unique")?,
        });
    }
    if !r.is_at_end() {
        return Err(format_err("trailing bytes after META records"));
    }
    Ok(out)
}

/// A buffered file sink implementing [`Emit`] with a running FNV-1a
/// checksum and byte position, stashing the first I/O error so encode
/// code stays infallible. Sections stream through this without ever
/// materializing the whole store in memory.
struct FileEmit {
    w: std::io::BufWriter<std::fs::File>,
    pos: u64,
    hash: u64,
    err: Option<std::io::Error>,
}

impl Emit for FileEmit {
    fn bytes(&mut self, b: &[u8]) {
        if self.err.is_some() {
            return;
        }
        self.hash = fnv1a_extend(self.hash, b);
        if let Err(e) = self.w.write_all(b) {
            self.err = Some(e);
            return;
        }
        self.pos += b.len() as u64;
    }
}

impl FileEmit {
    fn new(f: std::fs::File) -> Self {
        FileEmit {
            w: std::io::BufWriter::new(f),
            pos: 0,
            hash: FNV_OFFSET,
            err: None,
        }
    }

    /// Pads with zero bytes to the next 8-byte boundary (padding is
    /// written before a section resets its checksum, so it is covered by
    /// neither `len` nor `checksum`).
    fn pad_to_8(&mut self) {
        let rem = (self.pos % 8) as usize;
        if rem != 0 {
            self.bytes(&[0u8; 8][..8 - rem]);
        }
    }

    /// Streams one section: aligns, resets the running checksum, runs the
    /// body, and returns its directory entry.
    fn section(&mut self, kind: u32, index: u32, body: impl FnOnce(&mut Self)) -> SectionEntry {
        self.pad_to_8();
        let offset = self.pos;
        self.hash = FNV_OFFSET;
        body(self);
        SectionEntry {
            kind,
            index,
            offset,
            len: self.pos - offset,
            checksum: self.hash,
        }
    }

    /// Flushes and surfaces any stashed error, returning the inner file.
    fn finish(mut self) -> std::io::Result<std::fs::File> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        self.w
            .into_inner()
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// Saves the built state as a v2 store, atomically: sections stream to a
/// same-directory temp file through a running checksum, the directory and
/// patched header follow, then fsync + rename publish the result. A crash
/// or failure at any point leaves either the previous file intact or the
/// complete new one.
pub fn save_v2(
    path: &Path,
    collection: &PostCollection,
    pipeline: &IntentPipeline,
) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = write_v2(&tmp, path, collection, pipeline) {
        std::fs::remove_file(&tmp).ok();
        return Err(StoreError::Io(e));
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

fn write_v2(
    tmp: &Path,
    path: &Path,
    collection: &PostCollection,
    pipeline: &IntentPipeline,
) -> std::io::Result<()> {
    let file = std::fs::File::create(tmp)?;
    let mut emit = FileEmit::new(file);
    emit.bytes(&[0u8; HEADER_BYTES]); // placeholder, patched below

    let mut entries = Vec::with_capacity(5 + pipeline.clusters.len());

    // META: per-cluster summary records.
    entries.push(emit.section(kind::META, 0, |e| {
        e.u64(pipeline.clusters.len() as u64);
        for c in &pipeline.clusters {
            e.u32(c.index.num_units() as u32);
            e.u32(c.index.vocabulary().len() as u32);
            e.u64(c.index.num_postings() as u64);
            e.f64(c.index.avg_unique_terms());
        }
    }));

    // TEXTS: offset table + concatenated UTF-8 blob.
    entries.push(emit.section(kind::TEXTS, 0, |e| {
        e.u32(collection.len() as u32);
        e.u32(0);
        let mut off = 0u64;
        e.u64(0);
        for d in &collection.docs {
            off += d.doc.text.len() as u64;
            e.u64(off);
        }
        for d in &collection.docs {
            e.bytes(d.doc.text.as_bytes());
        }
    }));

    // RAWSEGS: offset table + per-document border records.
    entries.push(emit.section(kind::RAWSEGS, 0, |e| {
        let segs = &pipeline.raw_segmentations;
        e.u32(segs.len() as u32);
        e.u32(0);
        let mut off = 0u64;
        e.u64(0);
        for s in segs {
            off += 8 + 4 * s.borders().len() as u64;
            e.u64(off);
        }
        for s in segs {
            e.u32(s.num_units() as u32);
            e.u32(s.borders().len() as u32);
            for &b in s.borders() {
                e.u32(b as u32);
            }
        }
    }));

    // DOCSEGS: offset table + per-document refined-segment records.
    entries.push(emit.section(kind::DOCSEGS, 0, |e| {
        let table = &pipeline.doc_segments;
        e.u32(table.len() as u32);
        e.u32(0);
        let mut off = 0u64;
        e.u64(0);
        for segs in table {
            off += 4;
            for s in segs {
                off += 8 + 8 * s.ranges.len() as u64;
            }
            e.u64(off);
        }
        for segs in table {
            e.u32(segs.len() as u32);
            for s in segs {
                e.u32(s.cluster as u32);
                e.u32(s.ranges.len() as u32);
                for &(a, b) in &s.ranges {
                    e.u32(a as u32);
                    e.u32(b as u32);
                }
            }
        }
    }));

    // CENTROIDS: row-major f64 matrix (rows start 8-aligned: the section
    // is 8-aligned and the count/dim prefix is 8 bytes).
    entries.push(emit.section(kind::CENTROIDS, 0, |e| {
        let dim = pipeline.centroids.first().map_or(0, Vec::len);
        e.u32(pipeline.centroids.len() as u32);
        e.u32(dim as u32);
        for c in &pipeline.centroids {
            assert_eq!(c.len(), dim, "centroid rows must share one dimension");
            for &x in c {
                e.f64(x);
            }
        }
    }));

    // One flat FIX2 index per cluster.
    for (c, cluster) in pipeline.clusters.iter().enumerate() {
        entries.push(emit.section(kind::CLUSTER, c as u32, |e| {
            encode_flat(&cluster.index, e);
        }));
    }

    // Directory (built in memory — it is tiny — for its checksum).
    emit.pad_to_8();
    let dir_offset = emit.pos;
    let mut dw = Writer::new();
    for e in &entries {
        dw.u32(e.kind);
        dw.u32(e.index);
        dw.u64(e.offset);
        dw.u64(e.len);
        dw.u64(e.checksum);
    }
    let dir_bytes = dw.into_bytes();
    let dir_checksum = fnv1a(&dir_bytes);
    emit.bytes(&dir_bytes);

    // Patch the real header over the placeholder and publish.
    let header = encode_header(&V2Header {
        dir_offset,
        dir_len: dir_bytes.len() as u64,
        dir_checksum,
        section_count: entries.len() as u32,
        num_docs: collection.len() as u32,
        num_clusters: pipeline.clusters.len() as u32,
        flags: if pipeline.weighted_combination {
            FLAG_WEIGHTED
        } else {
            0
        },
        num_noise: pipeline.num_noise as u32,
    });
    let mut file = emit.finish()?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// The result of a byte-level layout audit ([`audit_layout`]).
#[derive(Debug)]
pub struct LayoutAudit {
    /// Parsed header, when the header itself was readable.
    pub header: Option<V2Header>,
    /// Parsed directory entries (empty when unreadable).
    pub sections: Vec<SectionEntry>,
    /// Total bytes covered by section payloads.
    pub section_bytes: u64,
    /// Integrity failures, empty when the layout is sound.
    pub problems: Vec<String>,
}

/// Audits a v2 store's byte-level layout: header and directory checksums,
/// every section checksum, offsets in bounds, 8-byte alignment, and no
/// unaccounted trailing bytes. Collects problems instead of failing fast
/// so `intentmatch doctor` can report them all.
pub fn audit_layout(bytes: &[u8]) -> LayoutAudit {
    let mut audit = LayoutAudit {
        header: None,
        sections: Vec::new(),
        section_bytes: 0,
        problems: Vec::new(),
    };
    let header = match parse_header(bytes) {
        Ok(h) => h,
        Err(e) => {
            audit.problems.push(e.to_string());
            return audit;
        }
    };
    audit.header = Some(header);
    let file_len = bytes.len() as u64;
    let dir_end = match header.dir_offset.checked_add(header.dir_len) {
        Some(end) if end <= file_len => end,
        _ => {
            audit.problems.push(format!(
                "directory [{}..+{}] exceeds file length {}",
                header.dir_offset, header.dir_len, file_len
            ));
            return audit;
        }
    };
    if dir_end != file_len {
        audit.problems.push(format!(
            "{} unaccounted bytes after the directory",
            file_len - dir_end
        ));
    }
    let dir_bytes = &bytes[header.dir_offset as usize..dir_end as usize];
    let computed = fnv1a(dir_bytes);
    if computed != header.dir_checksum {
        audit.problems.push(format!(
            "directory checksum mismatch: stored {:#018x}, computed {computed:#018x}",
            header.dir_checksum
        ));
        return audit;
    }
    let entries = match parse_directory(dir_bytes) {
        Ok(e) => e,
        Err(e) => {
            audit.problems.push(e.to_string());
            return audit;
        }
    };
    if let Err(e) = validate_directory(&header, &entries, file_len) {
        audit.problems.push(e.to_string());
    }
    for e in &entries {
        audit.section_bytes += e.len;
        let Some(end) = e.offset.checked_add(e.len).filter(|&end| end <= file_len) else {
            continue; // already reported by validate_directory
        };
        let payload = &bytes[e.offset as usize..end as usize];
        let computed = fnv1a(payload);
        if computed != e.checksum {
            audit.problems.push(format!(
                "section {} checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                e.describe(),
                e.checksum
            ));
        }
    }
    audit.sections = entries;
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = V2Header {
            dir_offset: 4096,
            dir_len: 320,
            dir_checksum: 0xdead_beef,
            section_count: 10,
            num_docs: 150,
            num_clusters: 5,
            flags: FLAG_WEIGHTED,
            num_noise: 3,
        };
        let bytes = encode_header(&h);
        let parsed = parse_header(&bytes).expect("parse");
        assert_eq!(parsed, h);
        assert!(parsed.weighted_combination());
    }

    #[test]
    fn header_flip_any_byte_is_detected() {
        let h = V2Header {
            dir_offset: 64,
            dir_len: 32,
            dir_checksum: 1,
            section_count: 1,
            num_docs: 2,
            num_clusters: 1,
            flags: 0,
            num_noise: 0,
        };
        let good = encode_header(&h);
        for i in 0..HEADER_BYTES {
            let mut evil = good;
            evil[i] ^= 0x01;
            assert!(parse_header(&evil).is_err(), "byte {i}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn directory_roundtrip_and_validation() {
        let header = V2Header {
            dir_offset: 128,
            dir_len: (6 * DIR_ENTRY_BYTES) as u64,
            dir_checksum: 0,
            section_count: 6,
            num_docs: 3,
            num_clusters: 1,
            flags: 0,
            num_noise: 0,
        };
        let mut w = Writer::new();
        let kinds = [
            (kind::META, 0),
            (kind::TEXTS, 0),
            (kind::RAWSEGS, 0),
            (kind::DOCSEGS, 0),
            (kind::CENTROIDS, 0),
            (kind::CLUSTER, 0),
        ];
        for (i, &(k, idx)) in kinds.iter().enumerate() {
            w.u32(k);
            w.u32(idx);
            w.u64(64 + 8 * i as u64);
            w.u64(8);
            w.u64(0);
        }
        let bytes = w.into_bytes();
        let entries = parse_directory(&bytes).expect("parse");
        assert_eq!(entries.len(), 6);
        let (singles, clusters) = validate_directory(&header, &entries, 4096).expect("validate");
        assert_eq!(singles, [0, 1, 2, 3, 4]);
        assert_eq!(clusters, vec![5]);

        // Misaligned offset is rejected.
        let mut bad = entries.clone();
        bad[2].offset = 67;
        assert!(validate_directory(&header, &bad, 4096).is_err());
        // Out-of-bounds section is rejected.
        let mut bad = entries.clone();
        bad[3].len = 1 << 40;
        assert!(validate_directory(&header, &bad, 4096).is_err());
        // Missing cluster section is rejected.
        let mut bad = entries;
        bad[5].index = 7;
        assert!(validate_directory(&header, &bad, 4096).is_err());
    }
}
