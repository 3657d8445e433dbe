//! The flat, fixed-width cluster-index section of the store format.
//!
//! [`SegmentIndex`] serializes two ways: the length-prefixed v1 `SIDX`
//! stream ([`SegmentIndex::encode`]/[`SegmentIndex::decode`]), which must
//! be decoded front to back, and this module's `FIX2` layout, whose four
//! arrays — unit statistics, term records, postings, term text — are
//! fixed-width and 8-byte aligned, so a reader can parse the 40-byte
//! header and address any array directly from a borrowed `&[u8]` (an mmap
//! page or a pread buffer) without a decode pass. That is what makes the
//! store's lazy per-cluster materialization O(touched cluster), not
//! O(store).
//!
//! Layout (all little-endian; the slice must start 8-byte aligned):
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 4     | magic `FIX2` |
//! | 4      | 4     | version (1 or 2, see below) |
//! | 8      | 4     | `n_terms` |
//! | 12     | 4     | `n_units` |
//! | 16     | 8     | `n_postings` |
//! | 24     | 8     | `avg_unique` (f64 bits) |
//! | 32     | 8     | `term_blob_len` |
//! | 40     | 24·U  | unit records [`FlatUnit`] |
//! | …      | 16·T  | term records [`FlatTerm`] |
//! | …      | 8·P   | postings [`FlatPosting`], grouped per term |
//! | …      | B     | concatenated UTF-8 term text |
//!
//! The version says how each term's postings are ordered:
//!
//! * **version 2** (written by [`encode_flat`]; store version 3): impact
//!   order, caps descending and units ascending on equal caps — the one
//!   order the index keeps. Caps are not stored: loading recomputes each
//!   one from the unit statistics and checks that the list is strictly in
//!   that order, so a load is a linear copy and check.
//! * **version 1** (store version 2, read only): ascending unit id.
//!   Loading sorts each list into impact order once.
//!
//! [`FlatIndexView::materialize`] rebuilds a [`SegmentIndex`] through the
//! same `SegmentIndex::from_parts` constructor the v1 decode path uses
//! (caps and the owner map are derived identically), so query results
//! off a materialized cluster are bit-identical to the heap path.

use crate::codec::{DecodeError, Emit};
use crate::index::{Posting, PostingOrder, SegmentIndex, UnitId, UnitStats};
use forum_text::Vocabulary;

/// Magic tag opening a flat cluster index.
pub const FLAT_MAGIC: &[u8; 4] = b"FIX2";
/// Flat layout version [`encode_flat`] writes: postings in impact order.
pub const FLAT_VERSION: u32 = 2;
/// The older flat layout version, still read: postings in unit order.
pub const FLAT_VERSION_UNIT_ORDER: u32 = 1;
/// Fixed header bytes before the unit array.
pub const FLAT_HEADER_BYTES: usize = 40;

/// One fixed-width unit record (24 bytes, 8-aligned).
///
/// `log_tf_sum` is stored as raw IEEE-754 bits so the record is plain old
/// data: every bit pattern is a valid value, which is what makes the
/// zero-copy cast in [`FlatIndexView::parse`] sound against arbitrary
/// (corrupt) file contents.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct FlatUnit {
    /// Owning document id.
    pub owner: u32,
    /// Number of unique terms.
    pub unique_terms: u32,
    /// Total term occurrences.
    pub total_terms: u32,
    /// Explicit padding; always written as zero.
    pub pad: u32,
    /// `Σ_t (log tf(t) + 1)` as f64 bits.
    pub log_tf_sum_bits: u64,
}

/// One fixed-width term record (16 bytes, 8-aligned).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct FlatTerm {
    /// Index of this term's first posting in the postings array.
    pub post_start: u64,
    /// Number of postings.
    pub post_len: u32,
    /// Exclusive end of this term's text in the term blob; the start is
    /// the previous record's end (0 for the first term).
    pub term_end: u32,
}

/// One fixed-width posting (8 bytes).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct FlatPosting {
    /// The unit containing the term.
    pub unit: u32,
    /// Term frequency within the unit.
    pub tf: u32,
}

/// Serializes `index` in the flat layout, version [`FLAT_VERSION`]. The
/// caller is responsible for placing the output at an 8-byte-aligned
/// offset (the store writer aligns every section).
pub fn encode_flat<E: Emit>(index: &SegmentIndex, out: &mut E) {
    let n_terms = index.vocab.len();
    let n_postings = index.num_postings() as u64;
    let term_blob_len: u64 = index.vocab.iter().map(|(_, t)| t.len() as u64).sum();

    out.magic(FLAT_MAGIC);
    out.u32(FLAT_VERSION);
    out.u32(n_terms as u32);
    out.u32(index.units.len() as u32);
    out.u64(n_postings);
    out.f64(index.avg_unique);
    out.u64(term_blob_len);

    for u in &index.units {
        out.u32(u.owner);
        out.u32(u.unique_terms);
        out.u32(u.total_terms);
        out.u32(0);
        out.u64(u.log_tf_sum.to_bits());
    }

    // Term records. A v1 index may hold fewer postings lists than terms
    // (none in practice — every interned term gains a posting — but the
    // encoder must not assume it); missing trailing lists encode as empty.
    let mut post_start = 0u64;
    let mut term_end = 0u64;
    for (id, term) in index.vocab.iter() {
        let len = index.postings(id).len() as u64;
        term_end += term.len() as u64;
        out.u64(post_start);
        out.u32(len as u32);
        out.u32(u32::try_from(term_end).expect("term blob exceeds u32"));
        post_start += len;
    }

    for (id, _) in index.vocab.iter() {
        for p in index.postings(id) {
            out.u32(p.unit.0);
            out.u32(p.tf);
        }
    }

    for (_, term) in index.vocab.iter() {
        out.bytes(term.as_bytes());
    }
}

/// A parsed, zero-copy view over one flat cluster index.
///
/// Borrowing from the section bytes, all four arrays are directly
/// addressable; nothing postings-sized is allocated until
/// [`Self::materialize`].
#[derive(Debug, Clone, Copy)]
pub struct FlatIndexView<'a> {
    version: u32,
    n_terms: usize,
    n_units: usize,
    n_postings: usize,
    avg_unique: f64,
    units: &'a [FlatUnit],
    terms: &'a [FlatTerm],
    postings: &'a [FlatPosting],
    term_blob: &'a [u8],
}

fn err(context: &'static str, offset: usize) -> DecodeError {
    DecodeError::at(context, offset)
}

/// Casts `bytes` (whose length must be an exact multiple of `size_of::<T>`)
/// to a typed slice. Errors if the pointer is not aligned for `T`.
fn cast_slice<'a, T>(bytes: &'a [u8], context: &'static str) -> Result<&'a [T], DecodeError> {
    debug_assert_eq!(bytes.len() % std::mem::size_of::<T>(), 0);
    // SAFETY: `T` is one of the `repr(C)` POD records above — every bit
    // pattern is a valid value, there is no padding the cast could expose,
    // and `align_to` only yields a non-empty prefix/suffix when the
    // pointer or length is misaligned, which we reject as a format error.
    let (head, mid, tail) = unsafe { bytes.align_to::<T>() };
    if !head.is_empty() || !tail.is_empty() {
        return Err(err(context, 0));
    }
    Ok(mid)
}

impl<'a> FlatIndexView<'a> {
    /// Parses the flat header and carves the four arrays out of `bytes`
    /// with full bounds checking; O(1) beyond the header. `bytes` must be
    /// exactly one flat index (the store's section table guarantees exact
    /// lengths) and must start 8-byte aligned.
    pub fn parse(bytes: &'a [u8]) -> Result<FlatIndexView<'a>, DecodeError> {
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(err("flat index not 8-byte aligned", 0));
        }
        if bytes.len() < FLAT_HEADER_BYTES {
            return Err(err("flat index header truncated", bytes.len()));
        }
        let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
        let u64_at = |pos: usize| u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
        if &bytes[0..4] != FLAT_MAGIC {
            return Err(err("flat index magic mismatch", 0));
        }
        let version = u32_at(4);
        if version != FLAT_VERSION && version != FLAT_VERSION_UNIT_ORDER {
            return Err(err("unsupported flat index version", 4));
        }
        let n_terms = u32_at(8) as usize;
        let n_units = u32_at(12) as usize;
        let n_postings = u64_at(16);
        let avg_unique = f64::from_bits(u64_at(24));
        let term_blob_len = u64_at(32);

        // Checked arithmetic end to end: every count is untrusted.
        let array_bytes = (n_units as u64)
            .checked_mul(24)
            .and_then(|u| (n_terms as u64).checked_mul(16).map(|t| (u, t)))
            .and_then(|(u, t)| n_postings.checked_mul(8).map(|p| (u, t, p)))
            .and_then(|(u, t, p)| u.checked_add(t)?.checked_add(p)?.checked_add(term_blob_len))
            .ok_or_else(|| err("flat index sizes overflow", 8))?;
        let expected = (FLAT_HEADER_BYTES as u64)
            .checked_add(array_bytes)
            .ok_or_else(|| err("flat index sizes overflow", 8))?;
        if expected != bytes.len() as u64 {
            return Err(err("flat index length mismatch", bytes.len()));
        }
        let n_postings = n_postings as usize;
        let term_blob_len = term_blob_len as usize;

        let units_end = FLAT_HEADER_BYTES + n_units * 24;
        let terms_end = units_end + n_terms * 16;
        let postings_end = terms_end + n_postings * 8;
        let units = cast_slice::<FlatUnit>(
            &bytes[FLAT_HEADER_BYTES..units_end],
            "flat unit array misaligned",
        )?;
        let terms =
            cast_slice::<FlatTerm>(&bytes[units_end..terms_end], "flat term array misaligned")?;
        let postings = cast_slice::<FlatPosting>(
            &bytes[terms_end..postings_end],
            "flat postings array misaligned",
        )?;
        Ok(FlatIndexView {
            version,
            n_terms,
            n_units,
            n_postings,
            avg_unique,
            units,
            terms,
            postings,
            term_blob: &bytes[postings_end..postings_end + term_blob_len],
        })
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.n_terms
    }

    /// Number of units (the cluster's refined segments).
    pub fn num_units(&self) -> usize {
        self.n_units
    }

    /// Total postings.
    pub fn num_postings(&self) -> usize {
        self.n_postings
    }

    /// Average unique terms per unit.
    pub fn avg_unique(&self) -> f64 {
        self.avg_unique
    }

    /// The borrowed unit-statistics array.
    pub fn units(&self) -> &'a [FlatUnit] {
        self.units
    }

    /// The borrowed term-record array.
    pub fn terms(&self) -> &'a [FlatTerm] {
        self.terms
    }

    /// The borrowed postings array.
    pub fn postings(&self) -> &'a [FlatPosting] {
        self.postings
    }

    /// The text of term `t`, if its blob range is well-formed UTF-8.
    pub fn term_text(&self, t: usize) -> Result<&'a str, DecodeError> {
        let end = self.terms[t].term_end as usize;
        let start = if t == 0 {
            0
        } else {
            self.terms[t - 1].term_end as usize
        };
        if start > end || end > self.term_blob.len() {
            return Err(DecodeError::in_term(
                "flat term blob range out of bounds",
                t,
            ));
        }
        std::str::from_utf8(&self.term_blob[start..end])
            .map_err(|_| DecodeError::in_term("flat term text is not UTF-8", t))
    }

    /// Rebuilds a heap [`SegmentIndex`] from the view, validating every
    /// cross-reference (term blob ranges, posting ranges, unit ids) on the
    /// way. Funnels through `SegmentIndex::from_parts` — the same
    /// derived-data construction as the v1 decode — so retrieval off the
    /// result is bit-identical to a v1 roundtrip of the same index. A
    /// version-2 list is copied and checked to be strictly in impact
    /// order; a version-1 list is copied and sorted into it.
    pub fn materialize(&self) -> Result<SegmentIndex, DecodeError> {
        let mut vocab = Vocabulary::new();
        for t in 0..self.n_terms {
            vocab.intern(self.term_text(t)?);
        }
        if vocab.len() != self.n_terms {
            // A duplicated term would silently fold two postings lists
            // into one id; refuse rather than mis-rank.
            return Err(err("flat vocabulary has duplicate terms", 0));
        }
        let units: Vec<UnitStats> = self
            .units
            .iter()
            .map(|u| UnitStats {
                owner: u.owner,
                unique_terms: u.unique_terms,
                total_terms: u.total_terms,
                log_tf_sum: f64::from_bits(u.log_tf_sum_bits),
            })
            .collect();
        let mut postings: Vec<Vec<Posting>> = Vec::with_capacity(self.n_terms);
        for (t, term) in self.terms.iter().enumerate() {
            let start = usize::try_from(term.post_start)
                .map_err(|_| DecodeError::in_term("flat posting range out of bounds", t))?;
            let end = start
                .checked_add(term.post_len as usize)
                .filter(|&e| e <= self.postings.len())
                .ok_or_else(|| DecodeError::in_term("flat posting range out of bounds", t))?;
            postings.push(
                self.postings[start..end]
                    .iter()
                    .map(|p| Posting {
                        unit: UnitId(p.unit),
                        tf: p.tf,
                    })
                    .collect(),
            );
        }
        let order = if self.version == FLAT_VERSION {
            PostingOrder::Impact
        } else {
            PostingOrder::Unit
        };
        SegmentIndex::from_parts(vocab, postings, units, self.avg_unique, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{DecodeLocation, Writer};
    use crate::index::IndexBuilder;

    fn sample_index() -> SegmentIndex {
        let mut b = IndexBuilder::new();
        b.add_unit(0, &["raid".into(), "disk".into(), "raid".into()]);
        b.add_unit(1, &["printer".into(), "ink".into()]);
        b.add_unit(2, &["disk".into(), "boot".into(), "disk".into()]);
        b.add_unit(7, &["raid".into(), "boot".into()]);
        b.build()
    }

    fn flat_bytes(index: &SegmentIndex) -> Vec<u8> {
        let mut w = Writer::new();
        encode_flat(index, &mut w);
        w.into_bytes()
    }

    /// The same index as a version-1 section: each term's postings in
    /// unit order, the layout stores of version 2 hold.
    fn unit_order_bytes(index: &SegmentIndex) -> Vec<u8> {
        let mut bytes = flat_bytes(index);
        bytes[4..8].copy_from_slice(&FLAT_VERSION_UNIT_ORDER.to_le_bytes());
        let u32_at = |b: &[u8], pos: usize| u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap());
        let terms = FLAT_HEADER_BYTES + 24 * index.num_units();
        let postings = terms + 16 * index.vocabulary().len();
        let mut start = postings;
        for t in 0..index.vocabulary().len() {
            let len = u32_at(&bytes, terms + 16 * t + 8) as usize;
            let list = &mut bytes[start..start + 8 * len];
            let mut pairs: Vec<[u8; 8]> = list.chunks(8).map(|c| c.try_into().unwrap()).collect();
            pairs.sort_by_key(|p| u32::from_le_bytes(p[..4].try_into().unwrap()));
            list.copy_from_slice(&pairs.concat());
            start += 8 * len;
        }
        bytes
    }

    /// Every flat version the reader accepts, as `(name, section)`.
    fn sections_of(index: &SegmentIndex) -> [(&'static str, Vec<u8>); 2] {
        [
            ("impact order (version 2)", flat_bytes(index)),
            ("unit order (version 1)", unit_order_bytes(index)),
        ]
    }

    /// The in-memory buffer a `Writer` yields is not necessarily 8-byte
    /// aligned; copy into an aligned buffer the way the store view does.
    fn aligned(bytes: &[u8]) -> Vec<u64> {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 -> u8 view of an owned, initialized buffer.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), buf.len() * 8) };
        dst[..bytes.len()].copy_from_slice(bytes);
        buf
    }

    fn view_of(buf: &[u64], len: usize) -> FlatIndexView<'_> {
        let bytes = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) };
        FlatIndexView::parse(&bytes[..len]).expect("parse")
    }

    #[test]
    fn roundtrip_is_bit_identical_to_v1_encoding() {
        let index = sample_index();
        for (version, bytes) in sections_of(&index) {
            let buf = aligned(&bytes);
            let view = view_of(&buf, bytes.len());
            assert_eq!(view.num_units(), index.num_units());
            let rebuilt = view.materialize().expect("materialize");
            // v1 encodings cover vocab order, unit stats bits, postings,
            // and avg_unique — byte equality is bit-identity of the whole
            // index; the flat encodings add the impact order.
            let (mut w1, mut w2) = (Writer::new(), Writer::new());
            index.encode(&mut w1);
            rebuilt.encode(&mut w2);
            assert_eq!(w1.into_bytes(), w2.into_bytes(), "{version}");
            assert_eq!(flat_bytes(&index), flat_bytes(&rebuilt), "{version}");
            assert!(rebuilt.audit().problems.is_empty(), "{version}");
        }
    }

    #[test]
    fn out_of_order_postings_fail_only_in_impact_order() {
        let index = sample_index();
        for (version, mut bytes) in sections_of(&index) {
            // "disk" holds two postings; swap them.
            let t = index.vocabulary().get("disk").unwrap().as_usize();
            let terms = FLAT_HEADER_BYTES + 24 * index.num_units();
            let postings = terms + 16 * index.vocabulary().len();
            let start = u64::from_le_bytes(bytes[terms + 16 * t..][..8].try_into().unwrap());
            let first = postings + 8 * start as usize;
            let (a, b) = bytes[first..first + 16].split_at_mut(8);
            a.swap_with_slice(b);
            let buf = aligned(&bytes);
            let got = view_of(&buf, bytes.len()).materialize();
            if version.starts_with("impact") {
                let err = got.expect_err("swapped impact-order list materialized");
                assert_eq!(err.location, DecodeLocation::Term(t as u32), "{err}");
                assert!(err.to_string().contains(&format!("term {t}")), "{err}");
            } else {
                // A unit-order list is sorted on load, whatever its order.
                assert!(got
                    .expect("unit order is sorted")
                    .audit()
                    .problems
                    .is_empty());
            }
        }
    }

    #[test]
    fn retrieval_matches_after_roundtrip() {
        let index = sample_index();
        let bytes = flat_bytes(&index);
        let buf = aligned(&bytes);
        let rebuilt = view_of(&buf, bytes.len()).materialize().expect("flat");
        let query = SegmentIndex::query_from_terms(&["raid".into(), "disk".into()]);
        let scan = |idx: &SegmentIndex| {
            idx.top_owners_excluding_filtered(
                &query,
                10,
                crate::WeightingScheme::PaperTfIdf,
                None,
                &std::collections::HashSet::new(),
                None,
                &mut crate::ScoreScratch::new(),
            )
        };
        assert_eq!(scan(&index), scan(&rebuilt));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        for (version, bytes) in sections_of(&sample_index()) {
            let buf = aligned(&bytes);
            let all =
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) };
            for cut in 0..bytes.len() {
                let r = FlatIndexView::parse(&all[..cut]);
                assert!(r.is_err(), "{version}: cut {cut} parsed");
            }
        }
    }

    #[test]
    fn corrupt_counts_fail_cleanly() {
        for (_, bytes) in sections_of(&sample_index()) {
            for offset in (0..bytes.len()).step_by(3) {
                let mut evil = bytes.clone();
                evil[offset] ^= 0x5A;
                let buf = aligned(&evil);
                let all =
                    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) };
                if let Ok(view) = FlatIndexView::parse(&all[..evil.len()]) {
                    let _ = view.materialize(); // Ok or Err; never a panic
                }
            }
        }
    }

    #[test]
    fn non_finite_unit_statistics_fail_materialization() {
        for (what, log_tf_sum, avg_unique) in [
            ("NaN log-tf sum", f64::NAN, None),
            ("infinite log-tf sum", f64::NEG_INFINITY, None),
            ("NaN avg_unique", 2.0, Some(f64::NAN)),
        ] {
            let mut index = sample_index();
            index.units[0].log_tf_sum = log_tf_sum;
            if let Some(avg) = avg_unique {
                index.avg_unique = avg;
            }
            let bytes = flat_bytes(&index);
            let buf = aligned(&bytes);
            let view = view_of(&buf, bytes.len());
            assert!(view.materialize().is_err(), "{what}: materialized");
        }
    }

    #[test]
    fn misaligned_slice_is_rejected() {
        let index = sample_index();
        let bytes = flat_bytes(&index);
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let buf = aligned(&shifted);
        let all = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) };
        assert!(FlatIndexView::parse(&all[1..bytes.len() + 1]).is_err());
    }
}
