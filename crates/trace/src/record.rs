//! The OPDK record log: the one crash-safe, append-only framing under
//! every checkpoint in the workspace.
//!
//! ```text
//! magic  b"OPDK"
//! version u16 LE        (names the payload codec: 1 = sweep buckets,
//!                        2 = serve vshards)
//! fingerprint u64 LE    (hash of the run that wrote the log)
//! then, per record (append-only):
//!   marker 0xA5
//!   payload_len u32 LE  (at most MAX_RECORD_LEN)
//!   payload
//!   checksum u64 LE     (FNV-1a 64 of the payload)
//! ```
//!
//! [`RecordWriter::append`] writes each record with one `write_all`
//! and a flush, so a kill can only tear the last record.
//! [`read_log`] keeps the longest prefix of whole records — marker,
//! length within the cap and the image, checksum, and a successful
//! payload decode — and reports what follows as a damaged tail, which
//! [`RecordWriter::resume`] truncates before appending. A length field
//! beyond the cap or the image is damage (the length itself may be the
//! corrupted byte), never an allocation size. The reader works on
//! `&[u8]`, so it can be fuzzed in memory.
//!
//! Payloads are exact integers, so a restored record is bit-identical
//! to a recomputed one; the payload codecs live with their owners
//! (`opd_experiments::checkpoint`, `opd_serve::checkpoint`).

use core::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The four magic bytes opening every record log.
pub const MAGIC: &[u8; 4] = b"OPDK";
/// Header length: magic, version, fingerprint.
pub const HEADER_LEN: usize = 4 + 2 + 8;
/// The byte opening every record.
pub const RECORD_MARKER: u8 = 0xA5;
/// Cap on a record's payload length: a larger length field is a
/// corrupted one, not a real record.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 of `bytes`: tiny, dependency-free, and plenty for
/// detecting torn writes (crash safety, not adversarial integrity).
#[inline]
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash from `state` over `bytes`, so data in
/// pieces hashes without a buffer: `fnv64_extend(fnv64(a), b)` equals
/// `fnv64` of `a` followed by `b`, and `fnv64(&[])` is the start state.
#[inline]
#[must_use]
pub fn fnv64_extend(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Errors opening or reading a checkpoint's record log.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with the `OPDK` magic.
    BadMagic,
    /// The file's format version is not the one the reader decodes.
    BadVersion(u16),
    /// The file was written by a run with different parameters.
    FingerprintMismatch {
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (missing OPDK magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run (fingerprint {found:#x}, \
                 this run is {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A bounds-checked little-endian reader over one payload: a read
/// past the end is `None`, never a panic.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// The next `u32` element count, refused when that many elements
    /// of at least `min_len` bytes each cannot fit in the rest of the
    /// payload — so a decoded count never sizes an allocation beyond
    /// the payload it came from.
    pub fn count(&mut self, min_len: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_len)? <= self.buf.len() - self.pos).then_some(n)
    }

    /// Bytes consumed so far.
    fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed; decoders refuse trailing
    /// bytes, so decode is the exact inverse of encode.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// What [`read_log`] recovered from a (possibly torn) log image.
#[derive(Debug, Clone)]
pub struct RecoveredLog<T> {
    /// The fingerprint stored in the header.
    pub fingerprint: u64,
    /// The decoded payloads of the longest valid record prefix, in
    /// file order.
    pub records: Vec<T>,
    /// Length of the valid prefix; a resuming writer truncates the
    /// file here before appending.
    pub valid_len: u64,
    /// Bytes of torn or corrupt data after the prefix.
    pub damaged_tail_bytes: u64,
}

/// The header of a log of payload `version` written by the run with
/// `fingerprint`.
fn header(version: u16, fingerprint: u64) -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..4].copy_from_slice(MAGIC);
    out[4..6].copy_from_slice(&version.to_le_bytes());
    out[6..].copy_from_slice(&fingerprint.to_le_bytes());
    out
}

/// Parses a log image of payload `version`, decoding each record with
/// `decode` and stopping at the first record that is torn, corrupt, or
/// does not decode.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] for an image shorter than the
/// header or without the magic, and [`CheckpointError::BadVersion`]
/// for another version. Tail damage is not an error: it is the crash
/// being survived.
pub fn read_log<'a, T>(
    bytes: &'a [u8],
    version: u16,
    mut decode: impl FnMut(&'a [u8]) -> Option<T>,
) -> Result<RecoveredLog<T>, CheckpointError> {
    let mut c = Cursor::new(bytes);
    let (Some(magic), Some(found), Some(fingerprint)) = (c.take(4), c.take(2), c.u64()) else {
        return Err(CheckpointError::BadMagic);
    };
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let found = u16::from_le_bytes([found[0], found[1]]);
    if found != version {
        return Err(CheckpointError::BadVersion(found));
    }
    let mut records = Vec::new();
    let mut valid_len = c.pos();
    while let Some(record) = next_payload(&mut c).and_then(&mut decode) {
        records.push(record);
        valid_len = c.pos();
    }
    Ok(RecoveredLog {
        fingerprint,
        records,
        valid_len: valid_len as u64,
        damaged_tail_bytes: (bytes.len() - valid_len) as u64,
    })
}

/// The payload of the whole record at the cursor, or `None` if the
/// record is torn or corrupt (or the image ends).
fn next_payload<'a>(c: &mut Cursor<'a>) -> Option<&'a [u8]> {
    if c.u8()? != RECORD_MARKER {
        return None;
    }
    let len = c.u32()?;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = c.take(len as usize)?;
    (c.u64()? == fnv64(payload)).then_some(payload)
}

/// Appends records to a log over any [`Write`].
#[derive(Debug)]
pub struct RecordWriter<W: Write> {
    out: W,
    record: Vec<u8>,
}

impl<W: Write> RecordWriter<W> {
    /// Starts a new log on `out`: writes the header and flushes.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn start(mut out: W, version: u16, fingerprint: u64) -> io::Result<Self> {
        out.write_all(&header(version, fingerprint))?;
        out.flush()?;
        Ok(Self::append_to(out))
    }

    /// Continues a log that `out` already holds the header and whole
    /// records of.
    fn append_to(out: W) -> Self {
        RecordWriter {
            out,
            record: Vec::new(),
        }
    }

    /// Appends one checksummed record with a single `write_all` and a
    /// flush: a kill can only tear this record, which the reader then
    /// discards.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for a payload over
    /// [`MAX_RECORD_LEN`] (the reader would discard it), or any I/O
    /// error from `out`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD_LEN)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "record payload over 64 MiB")
            })?;
        self.record.clear();
        self.record.push(RECORD_MARKER);
        self.record.extend_from_slice(&len.to_le_bytes());
        self.record.extend_from_slice(payload);
        self.record.extend_from_slice(&fnv64(payload).to_le_bytes());
        self.out.write_all(&self.record)?;
        self.out.flush()
    }
}

impl RecordWriter<File> {
    /// Creates (or truncates) the log file at `path` and writes its
    /// header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn create(path: &Path, version: u16, fingerprint: u64) -> io::Result<Self> {
        Self::start(File::create(path)?, version, fingerprint)
    }

    /// Reopens the log file at `path` to continue it: recovers its
    /// whole records with `decode`, refuses another version or
    /// fingerprint, truncates the damaged tail, and positions for
    /// appending. A zero-length file — a kill between creating the
    /// file and writing its header — is a fresh start: the header is
    /// written and nothing is recovered.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] for I/O failures, a non-empty file
    /// [`read_log`] refuses, or a fingerprint other than `fingerprint`.
    pub fn resume<T>(
        path: &Path,
        version: u16,
        fingerprint: u64,
        decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> Result<(Self, RecoveredLog<T>), CheckpointError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            let fresh = RecoveredLog {
                fingerprint,
                records: Vec::new(),
                valid_len: HEADER_LEN as u64,
                damaged_tail_bytes: 0,
            };
            return Ok((Self::start(file, version, fingerprint)?, fresh));
        }
        let log = read_log(&bytes, version, decode)?;
        if log.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                found: log.fingerprint,
            });
        }
        file.set_len(log.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok((Self::append_to(file), log))
    }
}
