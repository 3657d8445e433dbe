//! Write-ahead log for live post writes.
//!
//! The atomic snapshot of `intentmatch::store` makes the *compacted* state
//! durable; the WAL makes the writes *between* compactions durable. Every
//! [`Wal::append`] encodes one [`WalRecord`], frames it, and fsyncs before
//! the write is applied in memory, so a crash loses at most the record
//! whose append was interrupted. On open the log is replayed: a torn or
//! corrupted tail is detected by the length/checksum framing and cleanly
//! truncated away (the valid prefix is recovered); structural corruption —
//! a record whose checksum passes but whose payload does not decode —
//! returns an error instead of panicking. The snapshot file is never
//! touched by recovery.
//!
//! ## On-disk format
//!
//! ```text
//! header:  "WAL1" magic (4) · u32 LE format version (4) · u64 LE tag (8)
//! record:  u32 LE payload length · u64 LE FNV-1a-64 of payload · payload
//! payload: forum_index::codec — u32 opcode, then the record's fields
//! ```
//!
//! ## The snapshot tag
//!
//! The header's `tag` binds the log to the snapshot its records apply on
//! top of (the caller passes a fingerprint of the snapshot bytes). A
//! compaction persists a fresh snapshot and then [`Wal::reset`]s the log —
//! atomically, via temp-file + rename — to an empty log tagged with the
//! *new* snapshot. If the process dies between those two steps, the next
//! [`Wal::open`] sees a tag that doesn't match the snapshot on disk,
//! concludes the log's records are already folded into that snapshot, and
//! discards them instead of replaying them twice.

use forum_index::codec::{DecodeError, Reader, Writer};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"WAL1";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
/// Per-record framing overhead: u32 length + u64 checksum.
const FRAME_LEN: usize = 12;

const OP_ADD: u32 = 1;
const OP_DELETE: u32 = 2;
const OP_UPDATE: u32 = 3;

/// One logged write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Append a new post with the given raw text.
    Add { text: String },
    /// Delete the post with this document id.
    Delete { doc: u32 },
    /// Replace the text of the post with this document id.
    Update { doc: u32, text: String },
}

/// Errors from opening or appending to a WAL.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The log is structurally corrupt (bad header, or a checksummed
    /// record whose payload does not decode) — not recoverable as a
    /// truncated tail.
    Corrupt {
        /// What failed to decode.
        context: &'static str,
        /// Byte offset of the offending record in the file.
        offset: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { context, offset } => {
                write!(f, "WAL corrupt at byte {offset}: {context}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty to detect torn or
/// bit-flipped records (this is corruption detection, not cryptography).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    match rec {
        WalRecord::Add { text } => {
            w.u32(OP_ADD);
            w.string(text);
        }
        WalRecord::Delete { doc } => {
            w.u32(OP_DELETE);
            w.u32(*doc);
        }
        WalRecord::Update { doc, text } => {
            w.u32(OP_UPDATE);
            w.u32(*doc);
            w.string(text);
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let rec = match r.u32("record opcode")? {
        OP_ADD => WalRecord::Add {
            text: r.string("add text")?,
        },
        OP_DELETE => WalRecord::Delete {
            doc: r.u32("delete doc")?,
        },
        OP_UPDATE => WalRecord::Update {
            doc: r.u32("update doc")?,
            text: r.string("update text")?,
        },
        _ => return Err(DecodeError::at("unknown record opcode", 0)),
    };
    if !r.is_at_end() {
        return Err(DecodeError::at(
            "trailing bytes in record payload",
            r.position(),
        ));
    }
    Ok(rec)
}

fn header_bytes(tag: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&tag.to_le_bytes());
    h
}

/// What a read-only [`inspect`] found in a WAL file.
#[derive(Debug, Default)]
pub struct WalInspection {
    /// Whether the file exists (a lazily-created WAL may not).
    pub exists: bool,
    /// File size in bytes.
    pub bytes: u64,
    /// The snapshot tag stamped in the header, when the header parsed.
    pub header_tag: Option<u64>,
    /// Whether the header tag matches the expected snapshot fingerprint.
    /// A mismatch means the log predates the snapshot (crash between
    /// snapshot save and WAL reset) and would be discarded on open.
    pub tag_matches: bool,
    /// Checksummed, decodable records (append order).
    pub records: Vec<WalRecord>,
    /// Bytes past the last valid record — a torn append that `Wal::open`
    /// would truncate away.
    pub torn_tail_bytes: u64,
    /// Structural problems: bad magic/version, or a checksum-valid record
    /// that does not decode. Non-empty means the store needs an operator.
    pub problems: Vec<String>,
}

/// Read-only WAL audit for `intentmatch doctor`.
///
/// Unlike [`Wal::open`] — which *repairs* (truncates torn tails, replaces
/// stale-tagged logs) — this only reports: the file is never written, so
/// a doctor run leaves the store byte-identical.
pub fn inspect(path: &Path, expected_tag: u64) -> Result<WalInspection, std::io::Error> {
    let mut out = WalInspection::default();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    out.exists = true;
    out.bytes = bytes.len() as u64;
    if bytes.len() < HEADER_LEN as usize {
        out.problems
            .push(format!("header truncated at {} bytes", bytes.len()));
        return Ok(out);
    }
    if &bytes[..4] != MAGIC {
        out.problems.push("bad magic".into());
        return Ok(out);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        out.problems
            .push(format!("unsupported WAL version {version}"));
        return Ok(out);
    }
    let tag = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    out.header_tag = Some(tag);
    out.tag_matches = tag == expected_tag;

    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        if pos + FRAME_LEN > bytes.len() {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let Some(end) = pos.checked_add(FRAME_LEN).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + FRAME_LEN..end];
        if fnv1a(payload) != checksum {
            break;
        }
        match decode_record(payload) {
            Ok(rec) => out.records.push(rec),
            Err(e) => {
                out.problems.push(format!(
                    "record at byte {pos} passes its checksum but does not \
                     decode: {}",
                    e.context
                ));
                return Ok(out);
            }
        }
        pos = end;
    }
    out.torn_tail_bytes = (bytes.len() - pos) as u64;
    Ok(out)
}

/// An append-only, checksummed write-ahead log bound to one snapshot.
///
/// The file is created lazily on the first [`Wal::append`], so read-only
/// paths (a `query` over a store with no pending writes) leave no log
/// behind.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// Open append handle; `None` until the file exists.
    file: Option<File>,
    /// Durable length of the file (header + valid records).
    len: u64,
    /// The snapshot fingerprint stamped in the header.
    tag: u64,
}

impl Wal {
    /// Opens (or prepares to create) the log at `path` and replays it.
    ///
    /// `tag` is the fingerprint of the snapshot the caller just loaded.
    /// Returns the recovered records in append order. Three recovery
    /// shapes:
    ///
    /// * header tag ≠ `tag` — the log predates the snapshot (a crash hit
    ///   the window between snapshot save and log reset during a
    ///   compaction); its records are already folded into the snapshot, so
    ///   the log is atomically replaced with an empty one and **no**
    ///   records are returned;
    /// * truncated or checksum-failing tail — a torn append; the tail is
    ///   cut off the file and the records before it are returned;
    /// * bad magic/version, or a checksum-valid record that does not
    ///   decode — [`WalError::Corrupt`].
    pub fn open(path: &Path, tag: u64) -> Result<(Wal, Vec<WalRecord>), WalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((
                    Wal {
                        path: path.to_path_buf(),
                        file: None,
                        len: HEADER_LEN,
                        tag,
                    },
                    Vec::new(),
                ));
            }
            Err(e) => return Err(e.into()),
        };

        if bytes.len() < HEADER_LEN as usize {
            // A crash during the very first header write: recover to an
            // empty log.
            let mut wal = Wal {
                path: path.to_path_buf(),
                file: None,
                len: HEADER_LEN,
                tag,
            };
            wal.reset(tag)?;
            return Ok((wal, Vec::new()));
        }
        if &bytes[..4] != MAGIC {
            return Err(WalError::Corrupt {
                context: "bad magic",
                offset: 0,
            });
        }
        if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION {
            return Err(WalError::Corrupt {
                context: "unsupported WAL version",
                offset: 4,
            });
        }
        if u64::from_le_bytes(bytes[8..16].try_into().unwrap()) != tag {
            // Stale log from before the snapshot on disk: discard.
            forum_obs::EventLog::global().emit(
                "wal_discarded_stale",
                forum_obs::json::Json::obj()
                    .with("path", path.display().to_string())
                    .with("bytes", bytes.len() as u64),
            );
            let mut wal = Wal {
                path: path.to_path_buf(),
                file: None,
                len: HEADER_LEN,
                tag,
            };
            wal.reset(tag)?;
            return Ok((wal, Vec::new()));
        }

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        while pos < bytes.len() {
            // Frame too short, length overrunning the file, or checksum
            // mismatch: a torn append — keep the prefix, drop the tail.
            if pos + FRAME_LEN > bytes.len() {
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let Some(end) = pos.checked_add(FRAME_LEN).and_then(|s| s.checked_add(len)) else {
                break;
            };
            if end > bytes.len() {
                break;
            }
            let payload = &bytes[pos + FRAME_LEN..end];
            if fnv1a(payload) != checksum {
                break;
            }
            match decode_record(payload) {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    // The checksum passed but the payload is nonsense:
                    // that is not a torn write, it is corruption (or a
                    // version skew) the operator must look at.
                    return Err(WalError::Corrupt {
                        context: e.context,
                        offset: pos as u64,
                    });
                }
            }
            pos = end;
        }

        let valid_len = pos as u64;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
            file.sync_all()?;
            forum_obs::EventLog::global().emit(
                "wal_truncated",
                forum_obs::json::Json::obj()
                    .with("path", path.display().to_string())
                    .with("dropped_bytes", bytes.len() as u64 - valid_len)
                    .with("kept_records", records.len() as u64),
            );
        }
        Ok((
            Wal {
                path: path.to_path_buf(),
                file: Some(file),
                len: valid_len,
                tag,
            },
            records,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the log holds any records past its header.
    pub fn has_records(&self) -> bool {
        self.len > HEADER_LEN
    }

    /// Creates the file and writes the header if it does not exist yet.
    fn ensure_file(&mut self) -> Result<&mut File, WalError> {
        if self.file.is_none() {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&self.path)?;
            f.write_all(&header_bytes(self.tag))?;
            f.sync_all()?;
            self.len = HEADER_LEN;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().expect("just ensured"))
    }

    /// Appends one record and fsyncs it. On return the record is durable;
    /// only then may the caller apply it in memory.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let len = self.len;
        let file = self.ensure_file()?;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::Start(len))?;
        file.write_all(&frame)?;
        file.sync_data()?;
        self.len = len + frame.len() as u64;
        forum_obs::Registry::global().incr("ingest/wal_bytes", frame.len() as u64);
        Ok(())
    }

    /// Atomically replaces the log with an empty one bound to `tag` —
    /// called after a compaction has durably snapshotted everything the
    /// log held. Temp-file + rename, so a crash leaves either the old log
    /// (whose now-stale tag makes the next open discard it) or the new
    /// empty one.
    pub fn reset(&mut self, tag: u64) -> Result<(), WalError> {
        let mut tmp_name = self.path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let write = || -> std::io::Result<File> {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&header_bytes(tag))?;
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(f)
        };
        let f = match write() {
            Ok(f) => f,
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                return Err(e.into());
            }
        };
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
        self.file = Some(f);
        self.len = HEADER_LEN;
        self.tag = tag;
        forum_obs::EventLog::global().emit(
            "wal_reset",
            forum_obs::json::Json::obj().with("path", self.path.display().to_string()),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: u64 = 0xfeed_beef;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("forum-ingest-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Add {
                text: "my raid controller fails".into(),
            },
            WalRecord::Delete { doc: 3 },
            WalRecord::Update {
                doc: 7,
                text: "actually the wireless driver crashes".into(),
            },
            WalRecord::Add {
                text: String::new(),
            },
        ]
    }

    #[test]
    fn roundtrip_append_and_replay() {
        let path = temp_wal("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, replayed) = Wal::open(&path, TAG).unwrap();
        assert!(replayed.is_empty());
        assert!(!wal.has_records());
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        assert!(wal.has_records());
        drop(wal);
        let (wal, replayed) = Wal::open(&path, TAG).unwrap();
        assert_eq!(replayed, sample_records());
        assert!(wal.has_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_without_file_creates_nothing_until_append() {
        let path = temp_wal("lazy.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, TAG).unwrap();
        assert!(!path.exists(), "open must not create the file");
        wal.append(&WalRecord::Delete { doc: 0 }).unwrap();
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates_to_header() {
        let path = temp_wal("reset.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, TAG).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.reset(TAG + 1).unwrap();
        assert!(!wal.has_records());
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        let (_, replayed) = Wal::open(&path, TAG + 1).unwrap();
        assert!(replayed.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_works_after_reset() {
        let path = temp_wal("reset-append.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, TAG).unwrap();
        wal.append(&WalRecord::Delete { doc: 1 }).unwrap();
        wal.reset(TAG + 1).unwrap();
        wal.append(&WalRecord::Delete { doc: 2 }).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path, TAG + 1).unwrap();
        assert_eq!(replayed, vec![WalRecord::Delete { doc: 2 }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_tag_discards_the_log() {
        // A crash between snapshot save and WAL reset leaves a log whose
        // records are already folded into the snapshot: opening with the
        // new snapshot's tag must discard them.
        let path = temp_wal("stale.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, TAG).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        let (wal, replayed) = Wal::open(&path, TAG + 99).unwrap();
        assert!(replayed.is_empty(), "stale records must not replay");
        assert!(!wal.has_records());
        drop(wal);
        // And the discard is durable: reopening with the *old* tag finds
        // nothing either.
        let (_, replayed) = Wal::open(&path, TAG).unwrap();
        assert!(replayed.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let path = temp_wal("torn.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, TAG).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0x17, 0x00, 0x00, 0x00, 0xAB, 0xCD]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Wal::open(&path, TAG).unwrap();
        assert_eq!(replayed, sample_records());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            full as u64,
            "torn tail must be truncated away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_an_error() {
        let path = temp_wal("badheader.wal");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00AAAABBBB").unwrap();
        assert!(matches!(
            Wal::open(&path, TAG),
            Err(WalError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
