//! A resynchronizing streaming decoder for corrupted trace buffers.
//!
//! [`crate::decode_trace`] is strict: the first malformed record aborts
//! the whole decode. In production, traces arrive over unreliable
//! transports — a single flipped bit should cost one record, not the
//! entire sweep. [`decode_trace_resync`] therefore *never fails*: it
//! skips corrupt records, counts every skip per category in a
//! [`CorruptionReport`], and keeps going.
//!
//! Resynchronization is possible because both record regions are
//! fixed-width (8-byte packed branches, 13-byte events): after a bad
//! record the decoder is still aligned on the next record boundary, so
//! one corruption never cascades. Alignment is only lost at a truncated
//! tail, which is counted as `truncated_tail_bytes` plus the missing
//! record counts.
//!
//! The report's categories are designed to match a fault injector's
//! ledger exactly (see the `opd-faults` crate): on a seeded corruption
//! run, `bad_elements` equals the number of detectable element flips,
//! `out_of_order_events` the number of order-breaking swaps, and so on.
//!
//! There is one decoder body, [`decode_trace_resync_into`], which hands
//! each accepted record to a [`ResyncSink`]. [`decode_trace_resync`]
//! collects into an [`ExecutionTrace`]; a streaming consumer such as a
//! serve session decodes into a buffer it reuses frame after frame.

use crate::codec::{
    decode_event_kind, read_header, CodecError, Reader, BRANCH_RECORD_LEN, EVENT_RECORD_LEN,
    TAG_LOOP_ENTER, TAG_METHOD_EXIT,
};
use crate::{BranchTrace, CallLoopEvent, CallLoopTrace, ExecutionTrace, MethodId, ProfileElement};

/// Per-category counts of everything [`decode_trace_resync`] skipped.
///
/// A clean buffer decodes with a report equal to
/// `CorruptionReport::default()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CorruptionReport {
    /// Header damage (bad magic, bad version, or a cut inside the
    /// header). When set, the decode produced an empty trace.
    pub bad_header: Option<CodecError>,
    /// Branch records whose packed value had reserved bits set.
    pub bad_elements: u64,
    /// Event records with an unknown tag byte.
    pub bad_event_tags: u64,
    /// Method-event records whose id exceeded the 24-bit range.
    pub bad_event_ids: u64,
    /// Events whose offset decreased relative to the last accepted
    /// event.
    pub out_of_order_events: u64,
    /// Events whose offset pointed past the *declared* branch count —
    /// a corrupt offset field. Offsets that are merely displaced
    /// because earlier branch records were dropped are clamped, not
    /// counted here.
    pub out_of_range_events: u64,
    /// Declared branch records missing because the buffer ended early.
    pub missing_branches: u64,
    /// Declared event records missing because the buffer ended early.
    pub missing_events: u64,
    /// The buffer ended before the event-count field, so the event
    /// region's size is unknown.
    pub missing_event_count: bool,
    /// Bytes of partial trailing record discarded at the cut point.
    pub truncated_tail_bytes: u64,
}

impl CorruptionReport {
    /// Returns `true` if the buffer decoded without any damage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == CorruptionReport::default()
    }

    /// Total number of whole records skipped (corrupt or missing).
    #[must_use]
    pub fn records_lost(&self) -> u64 {
        self.bad_elements
            + self.bad_event_tags
            + self.bad_event_ids
            + self.out_of_order_events
            + self.out_of_range_events
            + self.missing_branches
            + self.missing_events
    }
}

impl core::fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        if let Some(h) = &self.bad_header {
            return write!(f, "unrecoverable header: {h}");
        }
        if self.missing_event_count {
            f.write_str("event region missing; ")?;
        }
        write!(
            f,
            "{} record(s) lost ({} bad element(s), {} bad tag(s), {} bad id(s), \
             {} out-of-order, {} out-of-range, {} missing branch(es), \
             {} missing event(s), {} tail byte(s))",
            self.records_lost(),
            self.bad_elements,
            self.bad_event_tags,
            self.bad_event_ids,
            self.out_of_order_events,
            self.out_of_range_events,
            self.missing_branches,
            self.missing_events,
            self.truncated_tail_bytes,
        )
    }
}

/// Where [`decode_trace_resync_into`] puts what it accepts from a
/// buffer: every branch in record order, then every event in record
/// order.
///
/// A sink only stores; validation and counting stay in the decoder, so
/// every sink sees the same accepted records and the decode reports
/// the same [`CorruptionReport`] whatever the sink keeps. A sink that
/// needs only the branches may ignore the events.
pub trait ResyncSink {
    /// Called once, before the first branch, with the number of whole
    /// branch records the buffer holds: a bound on the branches to
    /// come, for sizing.
    fn reserve_branches(&mut self, _records: usize) {}

    /// An accepted branch element.
    fn branch(&mut self, element: ProfileElement);

    /// An accepted event. Its offset is clamped to the number of
    /// branches accepted, and offsets never decrease from one event to
    /// the next.
    fn event(&mut self, event: CallLoopEvent);
}

/// Decodes as much of a (possibly corrupted) trace buffer as possible.
///
/// Never fails and never panics: malformed records are skipped and
/// counted in the returned [`CorruptionReport`]. Unrecoverable header
/// damage yields an empty trace with `bad_header` set. This collects
/// [`decode_trace_resync_into`]'s output into an [`ExecutionTrace`].
///
/// # Examples
///
/// ```
/// use opd_trace::{decode_trace_resync, encode_trace, ExecutionTrace, MethodId,
///                 ProfileElement, TraceSink};
///
/// let mut t = ExecutionTrace::new();
/// t.record_branch(ProfileElement::new(MethodId::new(1), 2, true));
/// let mut bytes = encode_trace(&t).to_vec();
/// bytes[14 + 7] = 0xFF; // set reserved bits in the only branch record
///
/// let (decoded, report) = decode_trace_resync(&bytes);
/// assert_eq!(decoded.branches().len(), 0);
/// assert_eq!(report.bad_elements, 1);
/// ```
#[must_use]
pub fn decode_trace_resync(buf: &[u8]) -> (ExecutionTrace, CorruptionReport) {
    let mut collected = Collect::default();
    let report = decode_trace_resync_into(buf, &mut collected);
    (collected.finish(), report)
}

/// The resync decoder: hands every record it accepts to `sink` and
/// returns the count of everything it skipped. Never fails and never
/// panics; on unrecoverable header damage the sink receives nothing
/// and `bad_header` is set.
///
/// [`decode_trace_resync`] is this decoder collecting into an
/// [`ExecutionTrace`]. A streaming consumer can decode each buffer
/// into storage it reuses instead.
///
/// # Examples
///
/// ```
/// use opd_trace::{decode_trace_resync_into, encode_trace, CallLoopEvent, ExecutionTrace,
///                 MethodId, ProfileElement, ResyncSink, TraceSink};
///
/// /// Keeps the branches, drops the events.
/// struct Branches(Vec<ProfileElement>);
///
/// impl ResyncSink for Branches {
///     fn branch(&mut self, element: ProfileElement) {
///         self.0.push(element);
///     }
///     fn event(&mut self, _: CallLoopEvent) {}
/// }
///
/// let mut t = ExecutionTrace::new();
/// t.record_method_enter(MethodId::new(1));
/// t.record_branch(ProfileElement::new(MethodId::new(1), 2, true));
/// let mut sink = Branches(Vec::new());
/// let report = decode_trace_resync_into(&encode_trace(&t), &mut sink);
/// assert!(report.is_clean());
/// assert_eq!(sink.0, t.branches().as_slice());
/// ```
pub fn decode_trace_resync_into<S: ResyncSink + ?Sized>(
    buf: &[u8],
    sink: &mut S,
) -> CorruptionReport {
    let mut report = CorruptionReport::default();
    let mut r = Reader::new(buf);

    let n_branches = match read_header(&mut r) {
        Ok(n) => n,
        Err(e) => {
            report.bad_header = Some(e);
            return report;
        }
    };

    // Branch region: fixed 8-byte records, so a bad element costs one
    // record and the next read is still aligned.
    let whole_branch_records =
        ((r.remaining() / BRANCH_RECORD_LEN) as u64).min(n_branches) as usize;
    sink.reserve_branches(whole_branch_records);
    let mut branch_len = 0u64;
    for _ in 0..whole_branch_records {
        // Invariant: `whole_branch_records` was computed from
        // `remaining()`, so this read cannot hit the end of the buffer.
        let Ok(raw) = r.u64_le() else { break };
        match ProfileElement::try_from(raw) {
            Ok(elem) => {
                sink.branch(elem);
                branch_len += 1;
            }
            Err(_) => report.bad_elements += 1,
        }
    }
    if (whole_branch_records as u64) < n_branches {
        // The buffer ended inside the branch region: everything after
        // it (including the event region) is gone.
        report.missing_branches = n_branches - whole_branch_records as u64;
        report.truncated_tail_bytes = r.remaining() as u64;
        return report;
    }

    let n_events = match r.u64_le() {
        Ok(n) => n,
        Err(_) => {
            report.missing_event_count = true;
            report.truncated_tail_bytes = r.remaining() as u64;
            return report;
        }
    };

    // Event region: fixed 13-byte records (tag, id, offset). Offsets
    // are validated against the *declared* branch count — an offset
    // within it is sound data even if earlier corrupt branch records
    // were dropped, so it is clamped to the decoded length rather than
    // discarded (one lost record must not cascade into lost events).
    let whole_event_records = ((r.remaining() / EVENT_RECORD_LEN) as u64).min(n_events) as usize;
    let mut last_offset = 0u64;
    for _ in 0..whole_event_records {
        let (Ok(tag), Ok(id), Ok(offset)) = (r.u8(), r.u32_le(), r.u64_le()) else {
            break;
        };
        if !(TAG_LOOP_ENTER..=TAG_METHOD_EXIT).contains(&tag) {
            report.bad_event_tags += 1;
            continue;
        }
        if offset < last_offset {
            report.out_of_order_events += 1;
            continue;
        }
        if offset > n_branches {
            report.out_of_range_events += 1;
            continue;
        }
        let Ok(kind) = decode_event_kind(tag, id) else {
            // The tag was valid, so only the method-id range check can
            // have failed here.
            report.bad_event_ids += 1;
            continue;
        };
        last_offset = offset;
        // Offsets were checked non-decreasing above, and clamping by a
        // constant preserves that.
        sink.event(CallLoopEvent::new(kind, offset.min(branch_len)));
    }
    if (whole_event_records as u64) < n_events {
        report.missing_events = n_events - whole_event_records as u64;
        report.truncated_tail_bytes = r.remaining() as u64;
    }
    report
}

/// The sink behind [`decode_trace_resync`]: collects both streams.
#[derive(Default)]
struct Collect {
    branches: Vec<ProfileElement>,
    events: CallLoopTrace,
}

impl ResyncSink for Collect {
    fn reserve_branches(&mut self, records: usize) {
        self.branches.reserve_exact(records);
    }

    fn branch(&mut self, element: ProfileElement) {
        self.branches.push(element);
    }

    fn event(&mut self, event: CallLoopEvent) {
        // Invariant: the decoder hands over non-decreasing offsets, so
        // this push cannot fail.
        let _ = self.events.try_push(event);
    }
}

impl Collect {
    /// Assembles the decoded streams; all offsets were validated
    /// against the decoded branch length, so this cannot fail.
    fn finish(self) -> ExecutionTrace {
        ExecutionTrace::try_from_parts(BranchTrace::from(self.branches), self.events)
            .unwrap_or_else(|_| {
                debug_assert!(false, "resync produced an inconsistent trace");
                ExecutionTrace::new()
            })
    }
}

const _: () = {
    // The resync arithmetic assumes the method-id bound checked by
    // `decode_event_kind` matches `MethodId::MAX`.
    assert!(MethodId::MAX == (1 << 24) - 1);
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_trace, EVENT_COUNT_LEN, HEADER_LEN};
    use crate::{LoopId, TraceSink};

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.record_method_enter(MethodId::new(3));
        t.record_loop_enter(LoopId::new(1));
        for i in 0..32 {
            t.record_branch(ProfileElement::new(MethodId::new(3), i, i % 2 == 0));
        }
        t.record_loop_exit(LoopId::new(1));
        t.record_method_exit(MethodId::new(3));
        t
    }

    #[test]
    fn clean_buffer_decodes_clean() {
        let t = sample();
        let (decoded, report) = decode_trace_resync(&encode_trace(&t));
        assert!(report.is_clean(), "{report}");
        assert_eq!(decoded, t);
    }

    #[test]
    fn bad_element_skipped_and_counted() {
        let t = sample();
        let mut bytes = encode_trace(&t).to_vec();
        // Corrupt branch record #5's reserved byte.
        bytes[HEADER_LEN + 5 * BRANCH_RECORD_LEN + 7] = 0xAB;
        let (decoded, report) = decode_trace_resync(&bytes);
        assert_eq!(report.bad_elements, 1);
        assert_eq!(decoded.branches().len(), t.branches().len() - 1);
        // Events are intact: resync never lost alignment.
        assert_eq!(decoded.events().len(), t.events().len());
    }

    #[test]
    fn truncated_branch_region_counts_missing() {
        let t = sample();
        let bytes = encode_trace(&t);
        // Cut in the middle of branch record #10.
        let cut = HEADER_LEN + 10 * BRANCH_RECORD_LEN + 3;
        let (decoded, report) = decode_trace_resync(&bytes[..cut]);
        assert_eq!(decoded.branches().len(), 10);
        assert_eq!(report.missing_branches, 32 - 10);
        assert_eq!(report.truncated_tail_bytes, 3);
    }

    #[test]
    fn bad_event_tag_skipped() {
        let t = sample();
        let bytes = encode_trace(&t);
        let events_at = HEADER_LEN + 32 * BRANCH_RECORD_LEN + EVENT_COUNT_LEN;
        let mut bytes = bytes.to_vec();
        bytes[events_at] = 0x77; // first event's tag
        let (decoded, report) = decode_trace_resync(&bytes);
        assert_eq!(report.bad_event_tags, 1);
        assert_eq!(decoded.events().len(), t.events().len() - 1);
    }

    #[test]
    fn out_of_range_event_skipped() {
        let t = sample();
        let mut bytes = encode_trace(&t).to_vec();
        let last_event_offset_at = bytes.len() - 8;
        bytes[last_event_offset_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let (decoded, report) = decode_trace_resync(&bytes);
        assert_eq!(report.out_of_range_events, 1);
        assert_eq!(decoded.events().len(), t.events().len() - 1);
    }

    #[test]
    fn header_damage_yields_empty_trace() {
        let (decoded, report) = decode_trace_resync(b"junk data entirely");
        assert_eq!(decoded, ExecutionTrace::new());
        assert_eq!(report.bad_header, Some(CodecError::BadMagic));
        let (_, report) = decode_trace_resync(&encode_trace(&sample())[..7]);
        assert!(matches!(
            report.bad_header,
            Some(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn every_cut_point_is_panic_free() {
        let bytes = encode_trace(&sample());
        for cut in 0..bytes.len() {
            let (_, report) = decode_trace_resync(&bytes[..cut]);
            // Something must always be reported for a strict prefix.
            assert!(!report.is_clean(), "cut {cut}");
        }
    }

    /// Records both streams as the sink decoder hands them over.
    #[derive(Default)]
    struct Recorder {
        branches: Vec<ProfileElement>,
        events: Vec<CallLoopEvent>,
    }

    impl ResyncSink for Recorder {
        fn branch(&mut self, element: ProfileElement) {
            self.branches.push(element);
        }
        fn event(&mut self, event: CallLoopEvent) {
            self.events.push(event);
        }
    }

    #[test]
    fn sink_decoder_hands_over_exactly_the_collected_trace() {
        let clean = encode_trace(&sample()).to_vec();
        let mut bad_records = clean.clone();
        bad_records[HEADER_LEN + 5 * BRANCH_RECORD_LEN + 7] = 0xAB;
        let events_at = HEADER_LEN + 32 * BRANCH_RECORD_LEN + EVENT_COUNT_LEN;
        bad_records[events_at] = 0x77;
        let mut buffers = vec![clean.clone(), bad_records];
        buffers.extend((0..clean.len()).map(|cut| clean[..cut].to_vec()));
        for buf in &buffers {
            let (trace, report) = decode_trace_resync(buf);
            let mut sink = Recorder::default();
            assert_eq!(decode_trace_resync_into(buf, &mut sink), report);
            assert_eq!(sink.branches, trace.branches().as_slice());
            assert_eq!(sink.events, trace.events().as_slice());
        }
    }

    #[test]
    fn report_displays() {
        assert_eq!(CorruptionReport::default().to_string(), "clean");
        let r = CorruptionReport {
            bad_elements: 2,
            ..CorruptionReport::default()
        };
        assert!(r.to_string().contains("2 bad element(s)"), "{r}");
    }
}
