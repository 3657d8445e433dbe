//! A small self-describing binary codec used to persist indices (and, at
//! the pipeline level, the whole offline build). Little-endian, no
//! external dependencies; every compound value is length-prefixed so
//! decoding can fail cleanly instead of reading garbage.

use std::fmt;

/// Where in the input a [`DecodeError`] was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeLocation {
    /// A byte offset into the stream being read.
    Byte(usize),
    /// A term id: that term's postings list (or text) failed a
    /// structural check.
    Term(u32),
    /// A unit id: that unit's statistics are unusable (one past the last
    /// unit for the index-wide average).
    Unit(usize),
}

/// Decoding error: the byte stream does not match the expected layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
    /// Where the failure was found.
    pub location: DecodeLocation,
}

impl DecodeError {
    /// An error at byte `offset`.
    pub fn at(context: &'static str, offset: usize) -> Self {
        DecodeError {
            context,
            location: DecodeLocation::Byte(offset),
        }
    }

    /// An error in the postings list (or text) of term id `term`.
    pub fn in_term(context: &'static str, term: usize) -> Self {
        DecodeError {
            context,
            location: DecodeLocation::Term(term as u32),
        }
    }

    /// An error in the statistics of unit `unit`.
    pub fn in_unit(context: &'static str, unit: usize) -> Self {
        DecodeError {
            context,
            location: DecodeLocation::Unit(unit),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.location {
            DecodeLocation::Byte(o) => write!(f, "decode error at byte {o}: {}", self.context),
            DecodeLocation::Term(t) => write!(f, "decode error in term {t}: {}", self.context),
            DecodeLocation::Unit(u) => write!(f, "decode error in unit {u}: {}", self.context),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded byte stream.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Number of bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A safe `Vec` capacity for a collection whose on-disk length field
    /// claims `len` elements of at least `min_elem_bytes` each: the claim
    /// clamped by what the remaining input could possibly hold. Length
    /// fields come from untrusted files, so pre-allocating `len` directly
    /// would let a corrupt length abort the process on allocation; decoding
    /// still iterates the full claimed `len` and fails cleanly at
    /// end-of-input instead.
    pub fn capacity_hint(&self, len: usize, min_elem_bytes: usize) -> usize {
        len.min(self.remaining() / min_elem_bytes.max(1))
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(DecodeError::at(context, self.pos));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an f64 (IEEE-754 bits).
    pub fn f64(&mut self, context: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, context: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::at(context, self.pos))
    }

    /// Reads a fixed magic tag, failing if it does not match.
    pub fn magic(&mut self, expected: &'static [u8; 4]) -> Result<(), DecodeError> {
        let got = self.take(4, "magic")?;
        if got != expected {
            return Err(DecodeError::at("magic mismatch", self.pos - 4));
        }
        Ok(())
    }
}

/// A destination for encoded bytes.
///
/// [`Writer`] implements this over an in-memory buffer; the store's v2
/// save path implements it over a buffered file with a running checksum,
/// so sections stream to disk without ever materializing the whole store
/// in one allocation. Scalar encodings are identical across
/// implementations by construction — every default method funnels through
/// [`Emit::bytes`].
pub trait Emit {
    /// Appends raw bytes.
    fn bytes(&mut self, b: &[u8]);

    /// Appends a magic tag.
    fn magic(&mut self, tag: &[u8; 4]) {
        self.bytes(tag);
    }

    /// Appends a little-endian u32.
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an f64 as IEEE-754 bits.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    fn string(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long"));
        self.bytes(s.as_bytes());
    }
}

/// Encoding helpers over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Emit for Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a magic tag.
    pub fn magic(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.magic(b"TEST");
        w.u32(42);
        w.u64(1 << 40);
        w.f64(3.25);
        w.string("héllo");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        r.magic(b"TEST").unwrap();
        assert_eq!(r.u32("a").unwrap(), 42);
        assert_eq!(r.u64("b").unwrap(), 1 << 40);
        assert_eq!(r.f64("c").unwrap(), 3.25);
        assert_eq!(r.string("d").unwrap(), "héllo");
        assert!(r.is_at_end());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        let err = r.u64("value").unwrap_err();
        assert_eq!(err.context, "value");
    }

    #[test]
    fn magic_mismatch_errors() {
        let mut w = Writer::new();
        w.magic(b"AAAA");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.magic(b"BBBB").is_err());
    }

    #[test]
    fn string_with_invalid_utf8_errors() {
        let mut w = Writer::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&bytes);
        assert!(r.string("s").is_err());
    }
}
