//! Causal spans: the structured, virtual-time trace vocabulary of the
//! serve stack, plus the fixed-capacity flight ring that backs
//! per-session post-mortems.
//!
//! A [`Span`] is one completed unit of work — a frame's ingest, its
//! decode, a detector run, a supervisor backoff — stamped entirely in
//! *virtual ticks*, never wall clock, so span logs from the
//! deterministic vshard simulation are byte-identical across thread
//! counts. Causality is explicit: every span carries its session
//! (`client`), its `vshard`, and the `id` of its causal parent
//! (`0` = root), so one frame's full path
//! `frame_ingest → decode → detect → phase_event` is reconstructible
//! from the flat log.
//!
//! [`SpanRecorder`] follows the same `const ACTIVE` monomorphization
//! discipline as [`DetectorObserver`](crate::DetectorObserver):
//! instrumented code guards every span construction with
//! `if R::ACTIVE`, so the [`NullSpanRecorder`] compiles the traced
//! paths back to the plain machine code — zero allocation, zero
//! branching on live data (asserted by the repository's span suite
//! and the `BENCH_dash.json` overhead gate).

use std::collections::VecDeque;
use std::fmt;

/// What kind of work a span covers. Names are the stable snake_case
/// vocabulary used by span logs, `opd trace --kind`, and post-mortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A frame's whole path: enqueue tick to processed tick; `detail`
    /// is the frame index. The causal root of its children.
    FrameIngest,
    /// The resync decode of one frame; `detail` is the records lost
    /// to corruption (0 for a clean frame).
    Decode,
    /// The detector steps judged for one frame; `detail` is the step
    /// count.
    Detect,
    /// One phase boundary notification; `detail` is
    /// `(phase ordinal << 1) | is_end`.
    PhaseEvent,
    /// A supervisor backoff: fail tick to restart tick; `detail` is
    /// the attempt counter carried into the restart.
    Backoff,
    /// The recovery replay at a restart; `detail` is the elements
    /// replayed.
    Retry,
    /// A crash or poison hazard killed the running attempt; `detail`
    /// is the attempt that died.
    HazardKill,
    /// A wedged frame hit the supervisor deadline: wedge tick to kill
    /// tick; `detail` is the attempt that wedged.
    DeadlineKill,
    /// The session was quarantined (terminal); `detail` is the poison
    /// frame count that tripped the allowance.
    Quarantine,
}

impl SpanKind {
    /// Every kind, in lifecycle order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::FrameIngest,
        SpanKind::Decode,
        SpanKind::Detect,
        SpanKind::PhaseEvent,
        SpanKind::Backoff,
        SpanKind::Retry,
        SpanKind::HazardKill,
        SpanKind::DeadlineKill,
        SpanKind::Quarantine,
    ];

    /// Stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FrameIngest => "frame_ingest",
            SpanKind::Decode => "decode",
            SpanKind::Detect => "detect",
            SpanKind::PhaseEvent => "phase_event",
            SpanKind::Backoff => "backoff",
            SpanKind::Retry => "retry",
            SpanKind::HazardKill => "hazard_kill",
            SpanKind::DeadlineKill => "deadline_kill",
            SpanKind::Quarantine => "quarantine",
        }
    }

    /// Inverse of [`name`](SpanKind::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One completed span. Times are virtual ticks; ids are a per-session
/// monotonic sequence (so `(client, id)` is globally unique and fully
/// deterministic), and `parent` names the causal parent's id within
/// the same session (`0` = root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Per-session sequence number, starting at 1.
    pub id: u64,
    /// The causal parent's id within the same session; 0 = root.
    pub parent: u64,
    /// What work this span covers.
    pub kind: SpanKind,
    /// The session (client) this span belongs to.
    pub client: u32,
    /// The virtual shard the session runs in.
    pub vshard: u32,
    /// Virtual tick the work began.
    pub start: u64,
    /// Virtual tick the work completed (`>= start`).
    pub end: u64,
    /// Kind-specific payload (see [`SpanKind`]).
    pub detail: u64,
}

impl Span {
    /// The stable one-line `key=value` rendering used by span logs
    /// and post-mortem documents — greppable, and parsed back by
    /// [`parse_line`](Span::parse_line).
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "kind={} client={} vshard={} id={} parent={} start={} end={} detail={}",
            self.kind.name(),
            self.client,
            self.vshard,
            self.id,
            self.parent,
            self.start,
            self.end,
            self.detail
        )
    }

    /// Parses a [`to_line`](Span::to_line) rendering.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn parse_line(line: &str) -> Result<Span, String> {
        let mut kind = None;
        let (mut client, mut vshard) = (None, None);
        let (mut id, mut parent, mut start, mut end, mut detail) = (None, None, None, None, None);
        for field in line.split_ascii_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("span field `{field}` is not key=value"))?;
            let num = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("bad {key} `{v}`"))
            };
            match key {
                "kind" => {
                    kind = Some(
                        SpanKind::from_name(value)
                            .ok_or_else(|| format!("unknown span kind `{value}`"))?,
                    );
                }
                "client" => client = Some(u32::try_from(num(value)?).map_err(|e| e.to_string())?),
                "vshard" => vshard = Some(u32::try_from(num(value)?).map_err(|e| e.to_string())?),
                "id" => id = Some(num(value)?),
                "parent" => parent = Some(num(value)?),
                "start" => start = Some(num(value)?),
                "end" => end = Some(num(value)?),
                "detail" => detail = Some(num(value)?),
                other => return Err(format!("unknown span field `{other}`")),
            }
        }
        let missing = |f: &str| format!("span line is missing `{f}`");
        Ok(Span {
            id: id.ok_or_else(|| missing("id"))?,
            parent: parent.ok_or_else(|| missing("parent"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
            client: client.ok_or_else(|| missing("client"))?,
            vshard: vshard.ok_or_else(|| missing("vshard"))?,
            start: start.ok_or_else(|| missing("start"))?,
            end: end.ok_or_else(|| missing("end"))?,
            detail: detail.ok_or_else(|| missing("detail"))?,
        })
    }

    /// One-object JSON rendering (hand-rolled, like every other
    /// artifact in the repository).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"client\": {}, \"vshard\": {}, \"id\": {}, \"parent\": {}, \"start\": {}, \"end\": {}, \"detail\": {}}}",
            self.kind.name(),
            self.client,
            self.vshard,
            self.id,
            self.parent,
            self.start,
            self.end,
            self.detail
        )
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Receives spans as instrumented code completes them.
///
/// The `const ACTIVE` contract mirrors
/// [`DetectorObserver`](crate::DetectorObserver): traced code guards
/// every span construction with `if R::ACTIVE { ... }`, so a recorder
/// with `ACTIVE = false` builds no span at all.
pub trait SpanRecorder {
    /// `false` compiles span construction out entirely.
    const ACTIVE: bool = true;

    /// Called once per completed span.
    fn record(&mut self, span: &Span);

    /// Takes every span recorded so far (empty for recorders that
    /// keep none).
    fn drain(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

/// The do-nothing recorder: `ACTIVE = false`, so traced code builds
/// no span; its instance of a traced path is the untraced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSpanRecorder;

impl SpanRecorder for NullSpanRecorder {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _: &Span) {}
}

// The null recorder must never flip active: traced paths rely on the
// guard folding to `if false`.
const _: () = assert!(!NullSpanRecorder::ACTIVE);

/// Records every span into a growable log, in emission order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    /// Every recorded span, oldest first.
    pub spans: Vec<Span>,
}

impl SpanRecorder for SpanLog {
    fn record(&mut self, span: &Span) {
        self.spans.push(*span);
    }

    fn drain(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// First line of every span-log file written by `opd serve
/// --spans-out` (and how `opd trace` recognizes one).
pub const SPAN_LOG_HEADER: &str = "# opd-spans-v1";

/// Renders spans as a span-log document: the version header, then one
/// [`Span::to_line`] per span.
#[must_use]
pub fn render_span_log(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + SPAN_LOG_HEADER.len() + 1);
    out.push_str(SPAN_LOG_HEADER);
    out.push('\n');
    for s in spans {
        out.push_str(&s.to_line());
        out.push('\n');
    }
    out
}

/// Parses a [`render_span_log`] document.
///
/// # Errors
///
/// Returns a message if the header is missing or any line fails
/// [`Span::parse_line`].
pub fn parse_span_log(text: &str) -> Result<Vec<Span>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(SPAN_LOG_HEADER) => {}
        _ => return Err(format!("span log must start with `{SPAN_LOG_HEADER}`")),
    }
    lines
        .filter(|l| !l.trim().is_empty())
        .map(Span::parse_line)
        .collect()
}

/// A fixed-capacity ring of the most recent spans: the per-session
/// flight recorder. Pushing past capacity evicts the oldest span;
/// iteration is always oldest → newest.
#[derive(Debug, Clone)]
pub struct FlightRing {
    capacity: usize,
    buf: VecDeque<Span>,
    recorded: u64,
}

impl FlightRing {
    /// A ring keeping the last `capacity` spans (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(1);
        FlightRing {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            recorded: 0,
        }
    }

    /// [`new`](FlightRing::new) without the buffer pre-allocation:
    /// nothing is allocated until the first push. This is the
    /// disabled-tracing arm of traced session paths, where the ring
    /// is constructed but never pushed to — it keeps that path
    /// allocation-free.
    #[must_use]
    pub fn inert(capacity: usize) -> FlightRing {
        FlightRing {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            recorded: 0,
        }
    }

    /// Appends a span, evicting the oldest if the ring is full.
    pub fn push(&mut self, span: Span) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(span);
        self.recorded += 1;
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.buf.iter()
    }

    /// Retained span count (`<= capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans ever pushed, including evicted ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> Span {
        Span {
            id,
            parent: id.saturating_sub(1),
            kind: SpanKind::ALL[(id as usize) % SpanKind::ALL.len()],
            client: 7,
            vshard: 3,
            start: id * 2,
            end: id * 2 + 1,
            detail: id * 10,
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SpanKind::from_name("warp_core"), None);
    }

    #[test]
    fn span_line_roundtrips() {
        for id in 1..=20 {
            let s = span(id);
            assert_eq!(Span::parse_line(&s.to_line()), Ok(s));
        }
    }

    #[test]
    fn span_line_parse_rejects_malformed_input() {
        assert!(Span::parse_line("kind=frame_ingest").is_err());
        assert!(Span::parse_line(
            "kind=bogus client=0 vshard=0 id=1 parent=0 start=0 end=0 detail=0"
        )
        .is_err());
        assert!(Span::parse_line("notakeyvalue").is_err());
        assert!(Span::parse_line("kind=decode wat=1").is_err());
    }

    #[test]
    fn span_log_roundtrips_and_requires_header() {
        let spans: Vec<Span> = (1..=5).map(span).collect();
        let log = render_span_log(&spans);
        assert!(log.starts_with(SPAN_LOG_HEADER));
        assert_eq!(parse_span_log(&log), Ok(spans));
        assert!(parse_span_log("kind=decode client=0").is_err());
    }

    #[test]
    fn ring_wraparound_keeps_exactly_the_last_capacity_in_order() {
        // The flight-recorder contract: capacity + k pushes retain
        // exactly the last `capacity` spans, order preserved.
        for capacity in [1usize, 3, 8] {
            for k in [0u64, 1, 5] {
                let mut ring = FlightRing::new(capacity);
                let total = capacity as u64 + k;
                for id in 1..=total {
                    ring.push(span(id));
                }
                assert_eq!(ring.len(), capacity);
                assert_eq!(ring.total_recorded(), total);
                let kept: Vec<u64> = ring.spans().map(|s| s.id).collect();
                let expect: Vec<u64> = (total - capacity as u64 + 1..=total).collect();
                assert_eq!(kept, expect, "capacity {capacity}, k {k}");
            }
        }
    }

    // The ACTIVE contract is a compile-time fact; pin it as one.
    const _: () = assert!(!NullSpanRecorder::ACTIVE);
    const _: () = assert!(SpanLog::ACTIVE);

    #[test]
    fn null_recorder_is_inert() {
        let mut r = NullSpanRecorder;
        r.record(&span(1));
        assert!(r.drain().is_empty());
    }

    #[test]
    fn span_log_recorder_collects_in_order() {
        let mut log = SpanLog::default();
        for id in 1..=4 {
            log.record(&span(id));
        }
        let drained = log.drain();
        assert_eq!(drained.len(), 4);
        assert!(drained.windows(2).all(|w| w[0].id < w[1].id));
        assert!(log.spans.is_empty());
    }
}
