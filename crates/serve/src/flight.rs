//! Per-session flight recorders: the span tracer threaded through the
//! session paths, and the post-mortem documents it dumps when a
//! session is quarantined, deadline-killed, or killed by a hazard.
//!
//! A [`SessionTracer`] owns three things: the session's monotonic
//! span-id sequence (so `(client, id)` is deterministic and globally
//! unique), a [`FlightRing`] of the most recent spans, and the
//! generic [`SpanRecorder`] the service run collects full logs
//! through. Everything is guarded by `R::ACTIVE` at the call sites in
//! `session.rs`, so a [`NullSpanRecorder`](opd_obs::NullSpanRecorder)
//! tracer records nothing: that instance is the untraced service.
//!
//! A [`Postmortem`] is self-contained: session identity, the reason
//! and virtual tick of death, the exact counters at that instant, and
//! the flight ring's recent spans — rendered as a versioned,
//! line-oriented text document (`opd-postmortem-v1`) that
//! `opd flight` parses back without any JSON machinery.

use std::fmt;

use opd_obs::{FlightRing, Span, SpanKind, SpanRecorder};

use crate::session::SessionStats;

/// First line of every post-mortem document.
pub const POSTMORTEM_HEADER: &str = "# opd-postmortem-v1";

/// Why a post-mortem was dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostmortemReason {
    /// The session was quarantined (terminal).
    Quarantined,
    /// A wedged frame was killed at the supervisor deadline.
    DeadlineKill,
    /// A crash or poison hazard killed the running attempt.
    HazardKill,
}

impl PostmortemReason {
    /// Every reason, in severity order.
    pub const ALL: [PostmortemReason; 3] = [
        PostmortemReason::Quarantined,
        PostmortemReason::DeadlineKill,
        PostmortemReason::HazardKill,
    ];

    /// Stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PostmortemReason::Quarantined => "quarantined",
            PostmortemReason::DeadlineKill => "deadline_kill",
            PostmortemReason::HazardKill => "hazard_kill",
        }
    }

    /// Inverse of [`name`](PostmortemReason::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<PostmortemReason> {
        PostmortemReason::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for PostmortemReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A self-contained session post-mortem: who died, why, when (in
/// virtual ticks), the exact counters at death, and the flight ring's
/// recent spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// The session's client id.
    pub client: u32,
    /// The virtual shard it ran in.
    pub vshard: u32,
    /// What killed it (or its attempt).
    pub reason: PostmortemReason,
    /// Virtual tick of the event.
    pub tick: u64,
    /// The attempt counter at the event.
    pub attempt: u32,
    /// Frames in the client's stream.
    pub frames_total: u64,
    /// Frames fully processed before the event.
    pub frames_processed: u64,
    /// Elements accepted into the session log.
    pub elements_accepted: u64,
    /// Injected crashes so far.
    pub crashes: u64,
    /// Deadline kills so far.
    pub timeouts: u64,
    /// Supervisor restarts so far.
    pub restarts: u64,
    /// Frames whose decode reported corruption.
    pub corrupt_frames: u64,
    /// Queue depth at the event.
    pub queue_depth: u64,
    /// Poison frames quarantined so far.
    pub poison_frames: u32,
    /// Spans ever recorded by this session (including ones the ring
    /// evicted).
    pub spans_recorded: u64,
    /// The flight ring's retained spans, oldest first.
    pub recent: Vec<Span>,
}

impl Postmortem {
    /// A deterministic, filesystem-safe stem for the dump file.
    #[must_use]
    pub fn file_stem(&self) -> String {
        format!(
            "pm-c{:06}-t{:08}-{}",
            self.client,
            self.tick,
            self.reason.name()
        )
    }

    /// Renders the versioned text document `opd flight` consumes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256 + self.recent.len() * 80);
        out.push_str(POSTMORTEM_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "client={} vshard={} reason={} tick={} attempt={}\n",
            self.client, self.vshard, self.reason, self.tick, self.attempt
        ));
        out.push_str(&format!(
            "frames_total={} frames_processed={} elements_accepted={} crashes={} \
             timeouts={} restarts={} corrupt_frames={} queue_depth={} poison_frames={} \
             spans_recorded={}\n",
            self.frames_total,
            self.frames_processed,
            self.elements_accepted,
            self.crashes,
            self.timeouts,
            self.restarts,
            self.corrupt_frames,
            self.queue_depth,
            self.poison_frames,
            self.spans_recorded
        ));
        for s in &self.recent {
            out.push_str("span ");
            out.push_str(&s.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a [`render`](Postmortem::render) document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line or missing field.
    pub fn parse(text: &str) -> Result<Postmortem, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(POSTMORTEM_HEADER) => {}
            _ => return Err(format!("post-mortem must start with `{POSTMORTEM_HEADER}`")),
        }
        let mut fields: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        let mut reason = None;
        let mut recent = Vec::new();
        for line in lines.filter(|l| !l.trim().is_empty()) {
            if let Some(span_line) = line.strip_prefix("span ") {
                recent.push(Span::parse_line(span_line)?);
                continue;
            }
            for field in line.split_ascii_whitespace() {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("post-mortem field `{field}` is not key=value"))?;
                if key == "reason" {
                    reason = Some(
                        PostmortemReason::from_name(value)
                            .ok_or_else(|| format!("unknown post-mortem reason `{value}`"))?,
                    );
                } else {
                    let n: u64 = value.parse().map_err(|_| format!("bad {key} `{value}`"))?;
                    fields.insert(key.to_owned(), n);
                }
            }
        }
        let get = |k: &str| -> Result<u64, String> {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("post-mortem is missing `{k}`"))
        };
        let narrow = |k: &str| -> Result<u32, String> {
            u32::try_from(get(k)?).map_err(|_| format!("{k} out of range"))
        };
        Ok(Postmortem {
            client: narrow("client")?,
            vshard: narrow("vshard")?,
            reason: reason.ok_or_else(|| "post-mortem is missing `reason`".to_owned())?,
            tick: get("tick")?,
            attempt: narrow("attempt")?,
            frames_total: get("frames_total")?,
            frames_processed: get("frames_processed")?,
            elements_accepted: get("elements_accepted")?,
            crashes: get("crashes")?,
            timeouts: get("timeouts")?,
            restarts: get("restarts")?,
            corrupt_frames: get("corrupt_frames")?,
            queue_depth: get("queue_depth")?,
            poison_frames: narrow("poison_frames")?,
            spans_recorded: get("spans_recorded")?,
            recent,
        })
    }

    /// One-object JSON rendering for `opd flight --json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self.recent.iter().map(Span::to_json).collect();
        format!(
            "{{\n \"schema\": \"opd-postmortem-v1\",\n \"client\": {},\n \"vshard\": {},\n \
             \"reason\": \"{}\",\n \"tick\": {},\n \"attempt\": {},\n \"frames_total\": {},\n \
             \"frames_processed\": {},\n \"elements_accepted\": {},\n \"crashes\": {},\n \
             \"timeouts\": {},\n \"restarts\": {},\n \"corrupt_frames\": {},\n \
             \"queue_depth\": {},\n \"poison_frames\": {},\n \"spans_recorded\": {},\n \
             \"recent\": [{}]\n}}",
            self.client,
            self.vshard,
            self.reason,
            self.tick,
            self.attempt,
            self.frames_total,
            self.frames_processed,
            self.elements_accepted,
            self.crashes,
            self.timeouts,
            self.restarts,
            self.corrupt_frames,
            self.queue_depth,
            self.poison_frames,
            self.spans_recorded,
            spans.join(", ")
        )
    }
}

/// Tracing knobs for a traced service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Spans each session's flight ring retains for post-mortems.
    pub flight_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            flight_capacity: 32,
        }
    }
}

/// The per-session span tracer every session path takes. All methods
/// are cheap bookkeeping, and the call sites guard every use with
/// `R::ACTIVE`: a [`NullSpanRecorder`](opd_obs::NullSpanRecorder)
/// tracer is the untraced run.
#[derive(Debug)]
pub struct SessionTracer<R> {
    client: u32,
    vshard: u32,
    next_id: u64,
    ring: FlightRing,
    /// Where completed spans go (drained by the service run).
    pub recorder: R,
    /// Post-mortems dumped by this session, in event order.
    pub postmortems: Vec<Postmortem>,
    /// Tick the current backoff began (set at `fail`, consumed at the
    /// restart that emits the `backoff` span).
    pub(crate) backoff_since: u64,
    /// Tick the current wedge began (consumed by the deadline kill).
    pub(crate) wedge_since: u64,
}

impl<R: SpanRecorder> SessionTracer<R> {
    /// A tracer for one session.
    #[must_use]
    pub fn new(client: u32, vshard: u32, trace: &TraceConfig, recorder: R) -> SessionTracer<R> {
        SessionTracer {
            client,
            vshard,
            next_id: 0,
            // With tracing compiled out the ring is never pushed to;
            // skipping its pre-allocation keeps the untraced run free
            // of span allocations (pinned by tests/span_alloc.rs).
            ring: if R::ACTIVE {
                FlightRing::new(trace.flight_capacity)
            } else {
                FlightRing::inert(trace.flight_capacity)
            },
            recorder,
            postmortems: Vec::new(),
            backoff_since: 0,
            wedge_since: 0,
        }
    }

    /// Reserves the next span id without emitting — used when a
    /// parent's id must be known before its children are recorded.
    pub(crate) fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Emits a span under a pre-allocated id (see
    /// [`alloc_id`](SessionTracer::alloc_id)).
    pub(crate) fn emit_with_id(
        &mut self,
        id: u64,
        parent: u64,
        kind: SpanKind,
        start: u64,
        end: u64,
        detail: u64,
    ) {
        let span = Span {
            id,
            parent,
            kind,
            client: self.client,
            vshard: self.vshard,
            start,
            end,
            detail,
        };
        self.ring.push(span);
        self.recorder.record(&span);
    }

    /// Emits a span under a freshly allocated id and returns the id.
    pub(crate) fn emit(
        &mut self,
        parent: u64,
        kind: SpanKind,
        start: u64,
        end: u64,
        detail: u64,
    ) -> u64 {
        let id = self.alloc_id();
        self.emit_with_id(id, parent, kind, start, end, detail);
        id
    }

    /// Dumps a post-mortem from the session's current counters and
    /// the flight ring's retained spans.
    pub(crate) fn dump(
        &mut self,
        reason: PostmortemReason,
        tick: u64,
        attempt: u32,
        stats: &SessionStats,
        queue_depth: u64,
        poison_frames: u32,
    ) {
        let recent: Vec<Span> = self.ring.spans().copied().collect();
        self.postmortems.push(Postmortem {
            client: self.client,
            vshard: self.vshard,
            reason,
            tick,
            attempt,
            frames_total: stats.frames_total,
            frames_processed: stats.frames_processed,
            elements_accepted: stats.elements_accepted,
            crashes: stats.crashes,
            timeouts: stats.timeouts,
            restarts: stats.restarts,
            corrupt_frames: stats.corrupt_frames,
            queue_depth,
            poison_frames,
            spans_recorded: self.ring.total_recorded(),
            recent,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_obs::SpanLog;

    fn sample() -> Postmortem {
        Postmortem {
            client: 42,
            vshard: 10,
            reason: PostmortemReason::Quarantined,
            tick: 999,
            attempt: 3,
            frames_total: 8,
            frames_processed: 2,
            elements_accepted: 96,
            crashes: 4,
            timeouts: 1,
            restarts: 5,
            corrupt_frames: 0,
            queue_depth: 2,
            poison_frames: 1,
            spans_recorded: 57,
            recent: vec![Span {
                id: 57,
                parent: 0,
                kind: SpanKind::Quarantine,
                client: 42,
                vshard: 10,
                start: 999,
                end: 999,
                detail: 1,
            }],
        }
    }

    #[test]
    fn postmortem_roundtrips_through_its_text_form() {
        let pm = sample();
        let doc = pm.render();
        assert!(doc.starts_with(POSTMORTEM_HEADER));
        assert_eq!(Postmortem::parse(&doc), Ok(pm));
    }

    #[test]
    fn postmortem_parse_rejects_malformed_documents() {
        assert!(Postmortem::parse("not a postmortem").is_err());
        assert!(Postmortem::parse(POSTMORTEM_HEADER).is_err());
        let doc = sample()
            .render()
            .replace("reason=quarantined", "reason=gremlins");
        assert!(Postmortem::parse(&doc).is_err());
    }

    #[test]
    fn reason_names_roundtrip() {
        for r in PostmortemReason::ALL {
            assert_eq!(PostmortemReason::from_name(r.name()), Some(r));
        }
        assert_eq!(PostmortemReason::from_name("boredom"), None);
    }

    #[test]
    fn file_stem_is_deterministic_and_safe() {
        assert_eq!(sample().file_stem(), "pm-c000042-t00000999-quarantined");
    }

    #[test]
    fn tracer_ids_are_monotone_and_spans_reach_both_sinks() {
        let mut t = SessionTracer::new(1, 0, &TraceConfig::default(), SpanLog::default());
        let parent = t.alloc_id();
        let child = t.emit(parent, SpanKind::Decode, 5, 5, 0);
        t.emit_with_id(parent, 0, SpanKind::FrameIngest, 4, 5, 0);
        assert_eq!((parent, child), (1, 2));
        let spans = t.recorder.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[1].id, parent);
        assert_eq!(t.ring.total_recorded(), 2);
    }
}
