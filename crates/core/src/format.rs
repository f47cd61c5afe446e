//! Binary layout primitives for the on-disk dictionary store.
//!
//! The store file format (see [`crate::store`] and DESIGN.md §4.3) is a
//! magic/version header followed by a sequence of *sections*. Every
//! section carries its own tag, payload length and checksum, so a reader
//! can reject a truncated, bit-flipped or mislabelled file *before*
//! interpreting a single payload byte. Corruption is reported as a
//! [`FormatError`]; callers treat any error as a cache miss and
//! recompute — never a panic, never a silently wrong payload.
//!
//! Everything here is process- and platform-stable by construction:
//! integers are little-endian, floats travel as `to_bits()` words, and
//! hashing is 64-bit FNV-1a (the std `DefaultHasher` makes no cross-
//! process stability promise, so it is banned from anything that touches
//! disk).

use std::fmt;

/// First bytes of every store file.
pub const MAGIC: [u8; 8] = *b"SDDSTOR\0";

/// Format version of dictionary bank checkpoints (`dict-*.sdds`). Bump
/// on any change to their layout or to what their grids mean; readers
/// reject other versions, which degrades to recomputation. Version 2
/// holds grids of one chip population shared by every pattern (version
/// 1 drew a separate population per pattern).
pub const DICTIONARY_FORMAT_VERSION: u32 = 2;

/// Format version of per-site pattern checkpoints (`pat-*.sdds`),
/// versioned apart from dictionary banks so that a dictionary change
/// does not make a store re-run ATPG.
pub const PATTERN_FORMAT_VERSION: u32 = 1;

/// Why a byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file is a store file of an incompatible version.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A section's payload hashed to something other than its recorded
    /// checksum.
    BadChecksum {
        /// The tag of the offending section.
        tag: u32,
    },
    /// A section tag other than the expected one was found.
    BadTag {
        /// What the reader was looking for.
        expected: u32,
        /// What the stream contained.
        found: u32,
    },
    /// The payload decoded but violated an internal invariant.
    Malformed(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "truncated store file"),
            FormatError::BadMagic => write!(f, "not a dictionary store file (bad magic)"),
            FormatError::BadVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            FormatError::BadChecksum { tag } => {
                write!(f, "checksum mismatch in section {tag:#x}")
            }
            FormatError::BadTag { expected, found } => {
                write!(f, "expected section {expected:#x}, found {found:#x}")
            }
            FormatError::Malformed(what) => write!(f, "malformed store payload: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Incremental 64-bit FNV-1a hash — the store's stable fingerprint and
/// checksum function. Deterministic across processes, platforms and
/// compiler versions, unlike [`std::collections::hash_map::DefaultHasher`].
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[v as u8]);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice (the section checksum function).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Growable little-endian byte sink for encoding payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Appends a framed section to `out`: tag, payload length, payload,
/// FNV-1a checksum of the payload. This is the only way payload bytes
/// enter a store file, so every byte on disk is covered by a checksum.
pub fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] at end of input.
    pub fn get_u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] at end of input.
    pub fn get_u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` little-endian `u64` words in one bounds check, appending
    /// them to `out` via a single bulk pass over the borrowed payload —
    /// the zero-copy-style path for word-array payloads (grid banks),
    /// replacing `n` individual `get_u64` calls and their per-word cursor
    /// arithmetic.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] when fewer than `n * 8` bytes remain
    /// (or the byte count overflows `usize`).
    pub fn get_u64_into(&mut self, n: usize, out: &mut Vec<u64>) -> Result<(), FormatError> {
        let n_bytes = n.checked_mul(8).ok_or(FormatError::Truncated)?;
        let bytes = self.take(n_bytes)?;
        out.reserve(n);
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] at end of input;
    /// [`FormatError::Malformed`] when the value exceeds `usize`.
    pub fn get_usize(&mut self) -> Result<usize, FormatError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| FormatError::Malformed("length exceeds address space"))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] at end of input.
    pub fn get_f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads one framed section written by [`write_section`], validating
    /// tag, length and checksum, and returns its payload.
    ///
    /// # Errors
    ///
    /// [`FormatError::BadTag`], [`FormatError::Truncated`] or
    /// [`FormatError::BadChecksum`] as appropriate.
    pub fn read_section(&mut self, expected_tag: u32) -> Result<&'a [u8], FormatError> {
        let found = self.get_u32()?;
        if found != expected_tag {
            return Err(FormatError::BadTag {
                expected: expected_tag,
                found,
            });
        }
        let len = self.get_usize()?;
        let payload = self.take(len)?;
        let recorded = self.get_u64()?;
        if checksum(payload) != recorded {
            return Err(FormatError::BadChecksum { tag: expected_tag });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        // "a" vector from the FNV reference implementation.
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn section_roundtrip() {
        let mut out = Vec::new();
        write_section(&mut out, 0xB0, b"hello");
        write_section(&mut out, 0xB1, b"");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.read_section(0xB0).unwrap(), b"hello");
        assert_eq!(r.read_section(0xB1).unwrap(), b"");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn section_detects_flipped_byte() {
        let mut out = Vec::new();
        write_section(&mut out, 7, b"payload");
        // Flip one payload bit (after the 4-byte tag + 8-byte length).
        out[12 + 3] ^= 0x10;
        let mut r = ByteReader::new(&out);
        assert_eq!(r.read_section(7), Err(FormatError::BadChecksum { tag: 7 }));
    }

    #[test]
    fn section_detects_truncation_and_wrong_tag() {
        let mut out = Vec::new();
        write_section(&mut out, 7, b"payload");
        let mut r = ByteReader::new(&out[..out.len() - 9]);
        assert_eq!(r.read_section(7), Err(FormatError::Truncated));
        let mut r = ByteReader::new(&out);
        assert_eq!(
            r.read_section(8),
            Err(FormatError::BadTag {
                expected: 8,
                found: 7
            })
        );
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u32(77);
        w.put_u64(u64::MAX);
        w.put_f64(-0.5);
        w.put_usize(123);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 77);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_usize().unwrap(), 123);
        assert!(r.get_u32().is_err());
    }

    #[test]
    fn bulk_u64_read_matches_per_word_reads() {
        let words: Vec<u64> = (0..37)
            .map(|i| (i as u64) * 0x0101_0101_0101_0101)
            .collect();
        let mut w = ByteWriter::new();
        for &word in &words {
            w.put_u64(word);
        }
        w.put_u32(0xDEAD);
        let bytes = w.into_bytes();
        let mut bulk = ByteReader::new(&bytes);
        let mut got = Vec::new();
        bulk.get_u64_into(words.len(), &mut got).unwrap();
        assert_eq!(got, words);
        // The cursor lands exactly where per-word reads leave it.
        assert_eq!(bulk.get_u32().unwrap(), 0xDEAD);
        assert_eq!(bulk.remaining(), 0);
    }

    #[test]
    fn bulk_u64_read_detects_truncation() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out = Vec::new();
        assert!(matches!(
            r.get_u64_into(3, &mut out),
            Err(FormatError::Truncated)
        ));
        // A failed bulk read consumes nothing.
        assert_eq!(r.remaining(), 16);
        assert!(out.is_empty());
        // Overflowing byte count is truncation, not a panic.
        assert!(matches!(
            r.get_u64_into(usize::MAX, &mut out),
            Err(FormatError::Truncated)
        ));
    }

    #[test]
    fn display_covers_every_variant() {
        for e in [
            FormatError::Truncated,
            FormatError::BadMagic,
            FormatError::BadVersion { found: 9 },
            FormatError::BadChecksum { tag: 1 },
            FormatError::BadTag {
                expected: 1,
                found: 2,
            },
            FormatError::Malformed("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
