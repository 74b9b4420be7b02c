//! The binary container shared by every on-disk archive: the `.exsv`
//! signature index (`serve::archive`) and the `.exsm` summary cache
//! (`incr::archive`). Each format owns only its schema; the framing, the
//! primitive encodings, hostile-input decoding and the error type live
//! here, once.
//!
//! # Layout
//!
//! ```text
//! header (32 bytes):
//!   magic            8 bytes  per format ("EXSERVIX", "EXSUMMRY")
//!   version          u32 LE   per format
//!   reserved         u32 LE   written 0, ignored on read
//!   payload_len      u64 LE   byte length of everything after the header
//!   payload_checksum u64 LE   FNV-1a 64 ([`crate::hash::fnv1a64`]) over the payload
//! payload: format-defined
//! ```
//!
//! Integers are little-endian; strings are a `u64` byte length plus UTF-8
//! bytes. A format may frame parts of its payload as tagged sections
//! (`tag u32 + byte_len u64 + body`, see [`put_section`] and
//! [`Reader::section`]).
//!
//! Reading is total: [`open`] checks the header and verifies the checksum
//! before any payload byte is decoded, every [`Reader`] read is
//! bounds-checked, declared counts are checked against the bytes that
//! remain (so a hostile count cannot drive an allocation), and every
//! failure is a typed [`ContainerError`] — never a panic.
//! [`hostile_input_sweep`] is the conformance check every format built on
//! this container runs against its own bytes.

use crate::hash::fnv1a64;
use std::fmt;
use std::path::Path;

/// Byte length of the fixed header.
const HEADER_LEN: usize = 32;

/// Why an archive was rejected (or could not be written). Every variant
/// is a deterministic verdict on the input bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// Filesystem failure in [`read_file`] / [`write_file`].
    Io(String),
    /// The first 8 bytes are not the format's magic.
    BadMagic,
    /// The header's version is not the one this reader supports.
    VersionMismatch { found: u32, supported: u32 },
    /// Decoding `context` needed more bytes than were available.
    Truncated { context: &'static str, needed: usize, available: usize },
    /// The payload does not hash to the checksum stored in the header.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// A declared element count cannot fit in the bytes that remain.
    BadCount { context: &'static str, count: u64 },
    /// A section tag other than the one required at that position.
    BadSection { found: u32, expected: u32 },
    /// An enum tag byte outside the encodable range.
    BadTag { context: &'static str, tag: u8 },
    /// A string field holding invalid UTF-8.
    BadUtf8 { context: &'static str },
    /// A recursive structure nested deeper than the format's `limit`.
    TooDeep { context: &'static str, limit: usize },
    /// Bytes left over after the last declared field.
    TrailingBytes { count: usize },
    /// Well-formed bytes describing an inconsistent structure.
    Invalid(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "io: {e}"),
            ContainerError::BadMagic => write!(f, "bad magic: not an archive of this kind"),
            ContainerError::VersionMismatch { found, supported } => {
                write!(f, "archive version {found} unsupported (reader supports {supported})")
            }
            ContainerError::Truncated { context, needed, available } => {
                write!(f, "truncated {context}: needed {needed} bytes, {available} available")
            }
            ContainerError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: header {expected:#018x}, actual {actual:#018x}"
                )
            }
            ContainerError::BadCount { context, count } => {
                write!(f, "{context} count {count} exceeds the remaining bytes")
            }
            ContainerError::BadSection { found, expected } => {
                write!(f, "bad section tag {found:#010x} (expected {expected:#010x})")
            }
            ContainerError::BadTag { context, tag } => write!(f, "bad {context} tag {tag:#04x}"),
            ContainerError::BadUtf8 { context } => write!(f, "invalid UTF-8 in {context}"),
            ContainerError::TooDeep { context, limit } => {
                write!(f, "{context} nested deeper than {limit}")
            }
            ContainerError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the last field")
            }
            ContainerError::Invalid(msg) => write!(f, "invalid archive: {msg}"),
        }
    }
}

impl std::error::Error for ContainerError {}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string: `u64` byte length, then the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tagged section: `tag`, the body's byte length, then the body
/// that `body` writes.
pub fn put_section(out: &mut Vec<u8>, tag: u32, body: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0);
    body(out);
    let len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Builds a whole archive: `payload` appends the payload after space
/// reserved for the header, which is then filled in (length and checksum
/// over the bytes written), so the payload is never copied.
pub fn write(magic: &[u8; 8], version: u32, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0; HEADER_LEN];
    payload(&mut out);
    let body = &out[HEADER_LEN..];
    let (len, sum) = (body.len() as u64, fnv1a64(body));
    out[0..8].copy_from_slice(magic);
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[16..24].copy_from_slice(&len.to_le_bytes());
    out[24..32].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Writes archive bytes to `path`.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), ContainerError> {
    std::fs::write(path, bytes).map_err(|e| ContainerError::Io(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Reads archive bytes from `path`.
pub fn read_file(path: &Path) -> Result<Vec<u8>, ContainerError> {
    std::fs::read(path).map_err(|e| ContainerError::Io(format!("{}: {e}", path.display())))
}

/// Checks the header of `bytes` against `magic` and `version`, verifies
/// the payload checksum, and returns a reader over the payload.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<Reader<'a>, ContainerError> {
    let mut cur = Reader::new(bytes);
    if cur.take(8, "magic")? != magic {
        return Err(ContainerError::BadMagic);
    }
    let found = cur.u32("version")?;
    if found != version {
        return Err(ContainerError::VersionMismatch { found, supported: version });
    }
    cur.u32("reserved")?;
    let payload_len = cur.u64("payload length")?;
    let expected = cur.u64("payload checksum")?;
    let payload = cur.take(usize::try_from(payload_len).unwrap_or(usize::MAX), "payload")?;
    cur.finish()?;
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(ContainerError::ChecksumMismatch { expected, actual });
    }
    Ok(Reader::new(payload))
}

/// Bounds-checked little-endian cursor over a byte slice. Every read
/// either succeeds or returns a typed [`ContainerError`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the input.
    #[inline]
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ContainerError> {
        let available = self.remaining();
        if n > available {
            return Err(ContainerError::Truncated { context, needed: n, available });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, ContainerError> {
        Ok(self.take(1, context)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// A declared element count whose elements each occupy at least
    /// `min_elem_bytes` (≥ 1). Rejected unless that many bytes remain, so
    /// a hostile count fails here, before the caller allocates for it.
    #[inline]
    pub fn count(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, ContainerError> {
        let n = self.u64(context)?;
        let available = self.remaining() as u64;
        if n.checked_mul(min_elem_bytes as u64).is_none_or(|bytes| bytes > available) {
            return Err(ContainerError::BadCount { context, count: n });
        }
        Ok(n as usize)
    }

    /// A string written by [`put_str`].
    #[inline]
    pub fn str(&mut self, context: &'static str) -> Result<String, ContainerError> {
        let n = self.count(1, context)?;
        let bytes = self.take(n, context)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ContainerError::BadUtf8 { context })
    }

    /// A section written by [`put_section`] whose tag must be `expected`;
    /// returns a reader over its body.
    pub fn section(&mut self, expected: u32) -> Result<Reader<'a>, ContainerError> {
        let found = self.u32("section tag")?;
        if found != expected {
            return Err(ContainerError::BadSection { found, expected });
        }
        let len = self.count(1, "section length")?;
        Ok(Reader::new(self.take(len, "section bytes")?))
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(self) -> Result<(), ContainerError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ContainerError::TrailingBytes { count }),
        }
    }
}

// ---------------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------------

/// The hostile-input sweep every format on this container must pass, run
/// by each format's tests against a small archive it wrote. `bytes` must
/// decode; `count_offsets` are payload offsets of `u64` element counts.
/// Panics, naming the case, on the first deviation:
///
/// * every strict prefix (each truncation cut) is refused;
/// * one appended byte is refused as [`ContainerError::TrailingBytes`];
/// * a flipped bit in any byte is refused with the error of the field it
///   lands in (a payload byte: [`ContainerError::ChecksumMismatch`]),
///   except in the reserved word, which is ignored;
/// * a `u64::MAX` at each count offset, checksum recomputed, is refused
///   by the decoder (before any allocation: honouring it would abort).
pub fn hostile_input_sweep<T>(
    bytes: &[u8],
    count_offsets: &[usize],
    decode: impl Fn(&[u8]) -> Result<T, ContainerError>,
) {
    use ContainerError as E;
    assert!(decode(bytes).is_ok(), "the intact archive must decode");
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}/{} accepted", bytes.len());
    }
    let longer = [bytes, &[0]].concat();
    assert!(matches!(decode(&longer), Err(E::TrailingBytes { count: 1 })), "appended byte");
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 << (at % 8);
        let err = decode(&flipped).err();
        // Header field by field, then the payload (covered by the checksum).
        let expected = matches!(
            (at, &err),
            (0..8, Some(E::BadMagic))
                | (8..12, Some(E::VersionMismatch { .. }))
                | (12..16, None)
                | (16..24, Some(E::Truncated { .. } | E::TrailingBytes { .. }))
                | (24.., Some(E::ChecksumMismatch { .. }))
        );
        assert!(expected, "flipped bit in byte {at}: {err:?}");
    }
    for &offset in count_offsets {
        let mut hostile = bytes.to_vec();
        let at = HEADER_LEN + offset;
        hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = fnv1a64(&hostile[HEADER_LEN..]);
        hostile[24..32].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&hostile).err();
        assert!(
            matches!(err, Some(ref e) if !matches!(e, E::ChecksumMismatch { .. })),
            "u64::MAX count at payload offset {offset}: {err:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTARCH";
    const TAG: u32 = u32::from_le_bytes(*b"LIST");

    /// A toy format: one section holding a counted list of strings.
    fn encode(items: &[&str]) -> Vec<u8> {
        write(MAGIC, 3, |out| {
            put_section(out, TAG, |body| {
                put_u64(body, items.len() as u64);
                for s in items {
                    put_str(body, s);
                }
            })
        })
    }

    fn decode(bytes: &[u8]) -> Result<Vec<String>, ContainerError> {
        let mut payload = open(bytes, MAGIC, 3)?;
        let mut list = payload.section(TAG)?;
        let n = list.count(8, "items")?;
        let items = (0..n).map(|_| list.str("item")).collect::<Result<_, _>>()?;
        list.finish()?;
        payload.finish()?;
        Ok(items)
    }

    #[test]
    fn header_layout_is_pinned() {
        let bytes = encode(&["a"]);
        assert_eq!(&bytes[0..8], MAGIC);
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(bytes[12..16], [0; 4]);
        assert_eq!(bytes[16..24], ((bytes.len() - HEADER_LEN) as u64).to_le_bytes());
        assert_eq!(bytes[24..32], fnv1a64(&bytes[HEADER_LEN..]).to_le_bytes());
        // Section: tag, body length, then the body.
        assert_eq!(bytes[32..36], TAG.to_le_bytes());
        assert_eq!(bytes[36..44], 17u64.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap(), ["a"]);
    }

    #[test]
    fn the_sweep_passes_on_a_toy_format() {
        // Payload offsets 12 and 20: the list count and the first string length.
        hostile_input_sweep(&encode(&["one", "two"]), &[12, 20], decode);
    }

    #[test]
    fn typed_errors_for_each_rejection() {
        let bytes = encode(&["x"]);
        assert_eq!(
            open(&bytes, MAGIC, 4).err(),
            Some(ContainerError::VersionMismatch { found: 3, supported: 4 })
        );
        assert_eq!(open(&bytes, b"OTHERFMT", 3).err(), Some(ContainerError::BadMagic));
        let mut r = open(&bytes, MAGIC, 3).unwrap();
        assert_eq!(
            r.section(u32::from_le_bytes(*b"NOPE")).err(),
            Some(ContainerError::BadSection { found: TAG, expected: u32::from_le_bytes(*b"NOPE") })
        );
        // A count of 2 needs 2 * min_elem_bytes to remain after it.
        let mut two = 2u64.to_le_bytes().to_vec();
        two.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&two).count(8, "c"), Ok(2));
        assert_eq!(
            Reader::new(&two).count(9, "c"),
            Err(ContainerError::BadCount { context: "c", count: 2 })
        );
        let mut r = Reader::new(&[0xFF, 0xFE, 1]);
        assert_eq!(
            r.str("s").err(),
            Some(ContainerError::Truncated { context: "s", needed: 8, available: 3 })
        );
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(3, "t"), Ok(&[0xFF, 0xFE, 1][..]));
        let mut bad_utf8 = 2u64.to_le_bytes().to_vec();
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            Reader::new(&bad_utf8).str("s").err(),
            Some(ContainerError::BadUtf8 { context: "s" })
        );
    }
}
