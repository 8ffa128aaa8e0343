//! Compact binary serialization of execution traces.
//!
//! The format is a simple versioned container so traces can be captured
//! once (e.g. a long MicroVM run) and replayed through many detector
//! configurations:
//!
//! ```text
//! magic  b"OPDT"
//! version u16 LE        (currently 1)
//! branch_count u64 LE   then branch_count packed u64 elements
//! event_count u64 LE    then per event: tag u8, id u32 LE, offset u64 LE
//! ```
//!
//! [`decode_trace`] is strict: the first malformed byte aborts the
//! decode with a typed [`CodecError`]. The resynchronizing decoder in
//! [`crate::resync`] instead skips corrupt records and keeps going —
//! use it when ingesting traces from unreliable transports.

use core::fmt;

use bytes::Bytes;

use crate::{
    BranchTrace, CallLoopEvent, CallLoopEventKind, CallLoopTrace, ExecutionTrace, LoopId, MethodId,
    ProfileElement,
};

/// The four magic bytes opening every serialized trace.
pub const MAGIC: &[u8; 4] = b"OPDT";
/// The container version this build writes and reads.
pub const VERSION: u16 = 1;
/// Bytes before the branch records: magic, version, branch count.
pub const HEADER_LEN: usize = 4 + 2 + 8;
/// Bytes per packed branch record.
pub const BRANCH_RECORD_LEN: usize = 8;
/// Bytes per call-loop event record: tag, id, offset.
pub const EVENT_RECORD_LEN: usize = 1 + 4 + 8;
/// Bytes of the event-count field between the two record regions.
pub const EVENT_COUNT_LEN: usize = 8;

pub(crate) const TAG_LOOP_ENTER: u8 = 0;
pub(crate) const TAG_LOOP_EXIT: u8 = 1;
pub(crate) const TAG_METHOD_ENTER: u8 = 2;
pub(crate) const TAG_METHOD_EXIT: u8 = 3;

/// Error produced when decoding a malformed trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer does not start with the `OPDT` magic bytes.
    BadMagic,
    /// The container version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared contents: `at_byte` is the
    /// offset of the first missing byte (the truncation point).
    Truncated {
        /// Offset at which the buffer ran out.
        at_byte: usize,
    },
    /// A packed element had reserved bits set.
    BadElement(u64),
    /// An event record had an unknown tag byte.
    BadEventTag(u8),
    /// Events were out of order or beyond the branch count.
    InconsistentEvents,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("missing OPDT magic bytes"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated { at_byte } => {
                write!(f, "trace buffer truncated at byte {at_byte}")
            }
            CodecError::BadElement(raw) => write!(f, "invalid packed element {raw:#x}"),
            CodecError::BadEventTag(t) => write!(f, "unknown event tag {t}"),
            CodecError::InconsistentEvents => {
                f.write_str("event stream inconsistent with branches")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes an execution trace into a byte buffer.
///
/// # Examples
///
/// ```
/// use opd_trace::{decode_trace, encode_trace, ExecutionTrace, MethodId, ProfileElement, TraceSink};
///
/// let mut t = ExecutionTrace::new();
/// t.record_branch(ProfileElement::new(MethodId::new(1), 2, true));
/// let bytes = encode_trace(&t);
/// assert_eq!(decode_trace(&bytes).unwrap(), t);
/// ```
#[must_use]
pub fn encode_trace(trace: &ExecutionTrace) -> Bytes {
    let branches = trace.branches();
    let events = trace.events();
    let mut buf = Vec::with_capacity(
        HEADER_LEN
            + EVENT_COUNT_LEN
            + branches.len() * BRANCH_RECORD_LEN
            + events.len() * EVENT_RECORD_LEN,
    );

    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(branches.len() as u64).to_le_bytes());
    for e in branches {
        buf.extend_from_slice(&e.raw().to_le_bytes());
    }
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        let (tag, id) = encode_event_kind(ev.kind());
        buf.push(tag);
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&ev.offset().to_le_bytes());
    }
    Bytes::from(buf)
}

pub(crate) fn encode_event_kind(kind: CallLoopEventKind) -> (u8, u32) {
    match kind {
        CallLoopEventKind::LoopEnter(l) => (TAG_LOOP_ENTER, l.index()),
        CallLoopEventKind::LoopExit(l) => (TAG_LOOP_EXIT, l.index()),
        CallLoopEventKind::MethodEnter(m) => (TAG_METHOD_ENTER, m.index()),
        CallLoopEventKind::MethodExit(m) => (TAG_METHOD_EXIT, m.index()),
    }
}

pub(crate) fn decode_event_kind(tag: u8, id: u32) -> Result<CallLoopEventKind, CodecError> {
    match tag {
        TAG_LOOP_ENTER => Ok(CallLoopEventKind::LoopEnter(LoopId::new(id))),
        TAG_LOOP_EXIT => Ok(CallLoopEventKind::LoopExit(LoopId::new(id))),
        TAG_METHOD_ENTER => Ok(CallLoopEventKind::MethodEnter(valid_method(id)?)),
        TAG_METHOD_EXIT => Ok(CallLoopEventKind::MethodExit(valid_method(id)?)),
        other => Err(CodecError::BadEventTag(other)),
    }
}

/// A positioned little-endian reader over a byte slice; every failed
/// read reports the exact truncation offset.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                at_byte: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16_le(&mut self) -> Result<u16, CodecError> {
        // Invariant: `take` returned exactly the requested length, so
        // the try_into conversions below cannot fail.
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Reads and validates the header, returning the declared branch count.
pub(crate) fn read_header(r: &mut Reader<'_>) -> Result<u64, CodecError> {
    if r.remaining() < MAGIC.len() || &r.buf[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    r.pos = MAGIC.len();
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    r.u64_le()
}

/// Decodes an execution trace from a byte buffer produced by
/// [`encode_trace`].
///
/// # Errors
///
/// Returns a [`CodecError`] if the buffer is truncated, has a bad magic
/// or version, or contains malformed records.
pub fn decode_trace(buf: &[u8]) -> Result<ExecutionTrace, CodecError> {
    let mut r = Reader::new(buf);
    let n_branches = read_header(&mut r)? as usize;
    // Validate the declared count against the remaining bytes *before*
    // allocating: each branch record is exactly 8 bytes, so a corrupted
    // count would otherwise request an absurd capacity.
    let truncated = || CodecError::Truncated { at_byte: buf.len() };
    if r.remaining()
        < n_branches
            .checked_mul(BRANCH_RECORD_LEN)
            .ok_or_else(truncated)?
    {
        return Err(truncated());
    }
    let mut branches = BranchTrace::with_capacity(n_branches);
    for _ in 0..n_branches {
        let raw = r.u64_le()?;
        let elem = ProfileElement::try_from(raw).map_err(|_| CodecError::BadElement(raw))?;
        branches.push(elem);
    }

    let n_events = r.u64_le()? as usize;
    // Same pre-allocation guard for the 13-byte event records.
    if r.remaining()
        < n_events
            .checked_mul(EVENT_RECORD_LEN)
            .ok_or_else(truncated)?
    {
        return Err(truncated());
    }
    let mut events = Vec::with_capacity(n_events);
    let mut last_offset = 0u64;
    for _ in 0..n_events {
        let tag = r.u8()?;
        let id = r.u32_le()?;
        let offset = r.u64_le()?;
        if offset < last_offset || offset > n_branches as u64 {
            return Err(CodecError::InconsistentEvents);
        }
        last_offset = offset;
        events.push(CallLoopEvent::new(decode_event_kind(tag, id)?, offset));
    }

    let events: CallLoopTrace = events.into_iter().collect();
    Ok(ExecutionTrace::from_parts(branches, events))
}

fn valid_method(id: u32) -> Result<MethodId, CodecError> {
    if id > MethodId::MAX {
        Err(CodecError::InconsistentEvents)
    } else {
        Ok(MethodId::new(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.record_method_enter(MethodId::new(1));
        t.record_loop_enter(LoopId::new(7));
        for i in 0..20 {
            t.record_branch(ProfileElement::new(MethodId::new(1), i, i % 3 == 0));
        }
        t.record_loop_exit(LoopId::new(7));
        t.record_method_exit(MethodId::new(1));
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = encode_trace(&t);
        assert_eq!(decode_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_roundtrip() {
        let t = ExecutionTrace::new();
        assert_eq!(decode_trace(&encode_trace(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_trace(b"NOPE"), Err(CodecError::BadMagic));
        assert_eq!(decode_trace(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn every_truncation_offset_reports_the_exact_cut_point() {
        // The regression the resilience layer is built on: a partial
        // final record anywhere in the container must produce a typed
        // `Truncated { at_byte }` (or `BadMagic` while still inside the
        // magic bytes) — never a slice-index panic.
        let bytes = encode_trace(&sample());
        for cut in 0..bytes.len() {
            match decode_trace(&bytes[..cut]) {
                Err(CodecError::BadMagic) => assert!(cut < MAGIC.len(), "cut {cut}"),
                Err(CodecError::Truncated { at_byte }) => {
                    assert_eq!(at_byte, cut, "cut {cut} misreported");
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_trace(&sample()).to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode_trace(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn layout_constants_match_the_encoder() {
        let t = sample();
        let bytes = encode_trace(&t);
        assert_eq!(
            bytes.len(),
            HEADER_LEN
                + t.branches().len() * BRANCH_RECORD_LEN
                + EVENT_COUNT_LEN
                + t.events().len() * EVENT_RECORD_LEN
        );
    }

    #[test]
    fn errors_display() {
        let msgs = [
            CodecError::BadMagic.to_string(),
            CodecError::Truncated { at_byte: 12 }.to_string(),
            CodecError::BadEventTag(9).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
