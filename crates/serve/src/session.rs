//! One detector session: a bounded ingest queue, an incremental
//! detector, and the state machine the supervisor drives it through.
//!
//! A session consumes *frames* — encoded trace slices — through the
//! panic-free resync decoder, feeds the decoded elements to a
//! [`PhaseDetector`] in exact `skip_factor` steps, and keeps an
//! append-only log of every element it accepted. That log is the
//! crash-recovery story: a restarted session replays it into a fresh
//! detector, which restores *exactly* the state an uninterrupted
//! session would have — incremental steps over the log equal one
//! offline run over its concatenation, so the phase stream is
//! bit-identical by construction (and re-checked per session when
//! verification is on).
//!
//! The lifecycle:
//!
//! ```text
//!            ┌──────────────────────────────────────────┐
//!            v                                          │ backoff elapsed
//! Running ──crash/poison──> BackingOff ─────────────────┘   (replay log)
//!   │ │
//!   │ └──wedge──> Wedged ──deadline──> BackingOff (as crash)
//!   │
//!   ├── retry budget exhausted: head frame quarantined (poison pill)
//!   │     too many poison frames ──> Quarantined (terminal)
//!   └── stream drained ──> Completed (terminal)
//! ```

use std::collections::VecDeque;

use opd_core::{DetectedPhase, DetectorConfig, PhaseDetector};
use opd_obs::{DetectorEvent, SpanKind, SpanRecorder};
use opd_trace::{decode_trace_resync, BranchTrace, ProfileElement};

use crate::flight::{PostmortemReason, SessionTracer};
use crate::ledger::ShedLedger;
use crate::service::{FrameSource, Subscriber};
use crate::supervisor::{keyed_hash, HazardPolicy, SupervisionPolicy};

/// What a session does when a frame arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackpressureMode {
    /// Stall the producer: the frame is delivered later, never lost.
    Block,
    /// Evict the oldest queued frame to admit the new one.
    ShedOldest,
    /// Refuse the incoming frame.
    Reject,
}

impl BackpressureMode {
    /// Every mode, in sweep order.
    pub const ALL: [BackpressureMode; 3] = [
        BackpressureMode::Block,
        BackpressureMode::ShedOldest,
        BackpressureMode::Reject,
    ];

    /// Stable lowercase name, as used by the `opd serve` CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackpressureMode::Block => "block",
            BackpressureMode::ShedOldest => "shed-oldest",
            BackpressureMode::Reject => "reject",
        }
    }
}

impl core::fmt::Display for BackpressureMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackpressureMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackpressureMode::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown backpressure mode `{s}`"))
    }
}

/// How frames flow into a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestPolicy {
    /// Bounded queue capacity, in frames (at least 1).
    pub queue_capacity: usize,
    /// What happens when the queue is full.
    pub mode: BackpressureMode,
    /// Frames the producer offers per tick while the stream lasts.
    pub arrivals_per_tick: u32,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        IngestPolicy {
            queue_capacity: 8,
            mode: BackpressureMode::Block,
            arrivals_per_tick: 2,
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Processing frames; `attempt` counts failures of the in-flight
    /// frame so far.
    Running {
        /// Failed attempts of the current in-flight frame.
        attempt: u32,
    },
    /// Crashed; the supervisor restarts it at `until`.
    BackingOff {
        /// First tick at which the restart fires.
        until: u64,
        /// Attempt counter carried into the restarted run.
        attempt: u32,
    },
    /// Stuck on a frame; the supervisor's deadline fires at `until`.
    Wedged {
        /// Tick at which the deadline kill fires.
        until: u64,
        /// Failed attempts of the in-flight frame before the wedge.
        attempt: u32,
    },
    /// Terminal: the stream drained cleanly.
    Completed,
    /// Terminal: too many poison frames.
    Quarantined,
}

/// A session's terminal disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionStatus {
    /// Drained its stream and closed its phase stream.
    Completed,
    /// Quarantined after repeated poison frames.
    Quarantined,
    /// Refused by certificate admission control; never ran.
    Rejected,
}

impl SessionStatus {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SessionStatus::Completed => "completed",
            SessionStatus::Quarantined => "quarantined",
            SessionStatus::Rejected => "rejected",
        }
    }

    /// Checkpoint wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SessionStatus::Completed => 0,
            SessionStatus::Quarantined => 1,
            SessionStatus::Rejected => 2,
        }
    }

    /// Inverse of [`code`](SessionStatus::code).
    #[must_use]
    pub fn from_code(code: u8) -> Option<SessionStatus> {
        match code {
            0 => Some(SessionStatus::Completed),
            1 => Some(SessionStatus::Quarantined),
            2 => Some(SessionStatus::Rejected),
            _ => None,
        }
    }
}

impl core::fmt::Display for SessionStatus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a session counted, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionStats {
    /// Frames the client's stream holds.
    pub frames_total: u64,
    /// Frames that made it into the queue.
    pub frames_delivered: u64,
    /// Frames decoded and fed to the detector.
    pub frames_processed: u64,
    /// Profile elements accepted into the session log.
    pub elements_accepted: u64,
    /// Detector steps judged.
    pub steps: u64,
    /// Transient crashes injected while processing.
    pub crashes: u64,
    /// Deadline kills of wedged frames.
    pub timeouts: u64,
    /// Supervisor restarts (each replays the session log).
    pub restarts: u64,
    /// Elements replayed across all restarts.
    pub replayed_elements: u64,
    /// Frames whose decode reported corruption.
    pub corrupt_frames: u64,
    /// Records the resync decoder skipped, summed over frames.
    pub corrupt_records_lost: u64,
    /// What overload handling did to this session's stream.
    pub shed: ShedLedger,
    /// Phases in the final phase stream.
    pub phase_count: u64,
    /// Digest of the final phase stream (see [`phase_digest`]).
    pub phase_digest: u64,
    /// `true` if the final phase stream matched a fresh offline run
    /// over the session log (always `true` when verification is off
    /// or the session never completed).
    pub verified: bool,
    /// Virtual tick at which the session reached a terminal state.
    pub ticks: u64,
}

impl SessionStats {
    /// Frames whose fate is decided: processed or lost to a ledger
    /// category.
    #[must_use]
    pub fn accounted_frames(&self) -> u64 {
        self.frames_processed + self.shed.lost_frames()
    }

    /// Conservation: for a terminal session, every frame of the
    /// stream is either processed or in exactly one loss category.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.accounted_frames() == self.frames_total
    }
}

/// A terminal session, as reported (and checkpointed) by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The client this session served.
    pub client: u32,
    /// Terminal disposition.
    pub status: SessionStatus,
    /// Exact counters.
    pub stats: SessionStats,
}

impl SessionReport {
    /// The report for a session refused by admission control: its
    /// whole stream is undelivered.
    #[must_use]
    pub fn rejected(client: u32, frames: u32) -> SessionReport {
        SessionReport {
            client,
            status: SessionStatus::Rejected,
            stats: SessionStats {
                frames_total: u64::from(frames),
                shed: ShedLedger {
                    undelivered_frames: u64::from(frames),
                    ..ShedLedger::default()
                },
                verified: true,
                ..SessionStats::default()
            },
        }
    }
}

/// Digest of a phase stream: a stable 64-bit summary of every
/// `(start, anchored_start, end)` triple, used for cross-run
/// bit-identity checks without storing the streams themselves.
#[must_use]
pub fn phase_digest(phases: &[DetectedPhase]) -> u64 {
    let mut words = Vec::with_capacity(phases.len() * 3 + 1);
    words.push(phases.len() as u64);
    for p in phases {
        words.push(p.start);
        words.push(p.anchored_start);
        words.push(p.end.map_or(u64::MAX, |e| e));
    }
    keyed_hash(&words)
}

/// One live detector session.
#[derive(Debug)]
pub struct Session {
    client: u32,
    config: DetectorConfig,
    ingest: IngestPolicy,
    supervision: SupervisionPolicy,
    verify: bool,
    detector: PhaseDetector,
    /// Bounded ingest queue of `(frame index, enqueue tick, encoded
    /// bytes)` — the enqueue tick is the frame-latency baseline.
    queue: VecDeque<(u32, u64, Vec<u8>)>,
    /// The frame currently being processed (held by the "worker", not
    /// the queue — eviction never touches it, retries re-use it).
    inflight: Option<(u32, u64, Vec<u8>)>,
    /// Append-only log of every accepted element: the recovery source.
    accepted: Vec<ProfileElement>,
    /// Elements already fed to the detector (a multiple of
    /// `skip_factor` until the stream drains).
    processed_upto: usize,
    /// Next frame index the producer will offer.
    next_frame: u32,
    frames_total: u32,
    lifecycle: Lifecycle,
    poison_frames: u32,
    notified_starts: usize,
    notified_ends: usize,
    /// Queue-to-processed latency of the most recently processed
    /// frame, in ticks (taken by the engine's metrics path).
    last_latency: Option<u64>,
    stats: SessionStats,
}

impl Session {
    /// Creates a session for `client` with a `frames_total`-frame
    /// stream ahead of it.
    #[must_use]
    pub fn new(
        client: u32,
        config: DetectorConfig,
        frames_total: u32,
        ingest: IngestPolicy,
        supervision: SupervisionPolicy,
        verify: bool,
    ) -> Session {
        Session {
            client,
            config,
            ingest,
            supervision,
            verify,
            detector: PhaseDetector::new(config),
            queue: VecDeque::with_capacity(ingest.queue_capacity),
            inflight: None,
            accepted: Vec::new(),
            processed_upto: 0,
            next_frame: 0,
            frames_total,
            lifecycle: Lifecycle::Running { attempt: 0 },
            poison_frames: 0,
            notified_starts: 0,
            notified_ends: 0,
            last_latency: None,
            stats: SessionStats {
                frames_total: u64::from(frames_total),
                ..SessionStats::default()
            },
        }
    }

    /// The client this session serves.
    #[must_use]
    pub fn client(&self) -> u32 {
        self.client
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn lifecycle(&self) -> Lifecycle {
        self.lifecycle
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Current queue depth, in frames.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// `false` once the session reached a terminal state.
    #[must_use]
    pub fn is_live(&self) -> bool {
        !matches!(
            self.lifecycle,
            Lifecycle::Completed | Lifecycle::Quarantined
        )
    }

    /// Queue-to-processed latency (in ticks) of the frame processed
    /// by the most recent [`step`](Session::step), if any — consumed
    /// by the engine's metrics path.
    pub fn take_last_latency(&mut self) -> Option<u64> {
        self.last_latency.take()
    }

    /// The producer side of one tick: offer up to `arrivals_per_tick`
    /// frames, applying the backpressure mode at the bounded queue.
    /// `tick` stamps each admitted frame's enqueue time.
    pub fn deliver(&mut self, source: &dyn FrameSource, tick: u64) {
        if !self.is_live() {
            return;
        }
        let mut sent = 0;
        while sent < self.ingest.arrivals_per_tick && self.next_frame < self.frames_total {
            if self.queue.len() >= self.ingest.queue_capacity {
                match self.ingest.mode {
                    BackpressureMode::Block => {
                        // The producer stalls for the rest of this
                        // tick; nothing is lost.
                        self.stats.shed.blocked_ticks += 1;
                        return;
                    }
                    BackpressureMode::ShedOldest => {
                        if self.queue.pop_front().is_some() {
                            self.stats.shed.shed_oldest_frames += 1;
                        }
                    }
                    BackpressureMode::Reject => {
                        // The incoming frame is refused (and never
                        // even fetched from the source).
                        self.next_frame += 1;
                        self.stats.shed.rejected_frames += 1;
                        sent += 1;
                        continue;
                    }
                }
            }
            let bytes = source.frame(self.client, self.next_frame);
            self.queue.push_back((self.next_frame, tick, bytes));
            self.stats.frames_delivered += 1;
            self.next_frame += 1;
            sent += 1;
        }
    }

    /// The consumer side of one tick: advance the state machine.
    ///
    /// Spans go to `tracer`; every span construction is guarded by
    /// `R::ACTIVE`, so with a `NullSpanRecorder` tracer this is the
    /// untraced step.
    pub fn step<R: SpanRecorder>(
        &mut self,
        tick: u64,
        hazards: &dyn HazardPolicy,
        subscriber: &dyn Subscriber,
        tracer: &mut SessionTracer<R>,
    ) {
        match self.lifecycle {
            Lifecycle::BackingOff { until, attempt } => {
                if tick >= until {
                    self.stats.restarts += 1;
                    let replayed_before = self.stats.replayed_elements;
                    self.replay();
                    if R::ACTIVE {
                        let backoff = tracer.emit(
                            0,
                            SpanKind::Backoff,
                            tracer.backoff_since,
                            tick,
                            u64::from(attempt),
                        );
                        tracer.emit(
                            backoff,
                            SpanKind::Retry,
                            tick,
                            tick,
                            self.stats.replayed_elements - replayed_before,
                        );
                    }
                    self.lifecycle = Lifecycle::Running { attempt };
                }
            }
            Lifecycle::Wedged { until, attempt } => {
                if tick >= until {
                    self.stats.timeouts += 1;
                    if R::ACTIVE {
                        tracer.emit(
                            0,
                            SpanKind::DeadlineKill,
                            tracer.wedge_since,
                            tick,
                            u64::from(attempt),
                        );
                        tracer.dump(
                            PostmortemReason::DeadlineKill,
                            tick,
                            attempt + 1,
                            &self.stats,
                            self.queue.len() as u64,
                            self.poison_frames,
                        );
                    }
                    self.fail(tick, attempt + 1, tracer);
                }
            }
            Lifecycle::Running { attempt } => {
                if self.inflight.is_none() {
                    self.inflight = self.queue.pop_front();
                }
                if let Some(&(frame, _, _)) = self.inflight.as_ref() {
                    if hazards.poison(self.client, frame)
                        || hazards.crash(self.client, frame, attempt)
                    {
                        self.stats.crashes += 1;
                        if R::ACTIVE {
                            tracer.emit(0, SpanKind::HazardKill, tick, tick, u64::from(attempt));
                            tracer.dump(
                                PostmortemReason::HazardKill,
                                tick,
                                attempt + 1,
                                &self.stats,
                                self.queue.len() as u64,
                                self.poison_frames,
                            );
                        }
                        self.fail(tick, attempt + 1, tracer);
                    } else if hazards.wedge(self.client, frame, attempt) {
                        if R::ACTIVE {
                            tracer.wedge_since = tick;
                        }
                        self.lifecycle = Lifecycle::Wedged {
                            until: tick + self.supervision.deadline_ticks.max(1),
                            attempt,
                        };
                    } else if let Some((frame, enqueued, bytes)) = self.inflight.take() {
                        self.ingest_frame(frame, enqueued, &bytes, tick, subscriber, tracer);
                        self.lifecycle = Lifecycle::Running { attempt: 0 };
                    }
                } else if self.next_frame >= self.frames_total {
                    self.finish(tick, subscriber, tracer);
                }
            }
            Lifecycle::Completed | Lifecycle::Quarantined => {}
        }
    }

    /// Consumes the session into its terminal report. Only meaningful
    /// once [`is_live`](Session::is_live) is `false`.
    #[must_use]
    pub fn into_report(self) -> SessionReport {
        debug_assert!(!self.is_live(), "reporting a live session");
        let status = match self.lifecycle {
            Lifecycle::Completed => SessionStatus::Completed,
            _ => SessionStatus::Quarantined,
        };
        SessionReport {
            client: self.client,
            status,
            stats: self.stats,
        }
    }

    /// Decodes one frame through the resync path and feeds every full
    /// `skip_factor` step to the detector, tracing the causal chain
    /// `frame_ingest → decode → detect → phase_event`.
    /// The ingest span's id is allocated up front so its children can
    /// name it as parent; the span itself is recorded last, once its
    /// end tick is known.
    fn ingest_frame<R: SpanRecorder>(
        &mut self,
        frame: u32,
        enqueued: u64,
        bytes: &[u8],
        tick: u64,
        subscriber: &dyn Subscriber,
        tracer: &mut SessionTracer<R>,
    ) {
        let ingest_id = if R::ACTIVE { tracer.alloc_id() } else { 0 };
        let (trace, report) = decode_trace_resync(bytes);
        if !report.is_clean() {
            self.stats.corrupt_frames += 1;
            self.stats.corrupt_records_lost += report.records_lost();
        }
        if R::ACTIVE {
            tracer.emit(
                ingest_id,
                SpanKind::Decode,
                tick,
                tick,
                report.records_lost(),
            );
        }
        self.accepted.extend_from_slice(trace.branches().as_slice());
        self.stats.elements_accepted = self.accepted.len() as u64;
        let steps_before = self.stats.steps;
        let skip = self.config.skip_factor();
        while self.accepted.len() - self.processed_upto >= skip {
            let chunk = &self.accepted[self.processed_upto..self.processed_upto + skip];
            self.detector.process(chunk);
            self.stats.steps += 1;
            self.processed_upto += skip;
        }
        let detect_id = if R::ACTIVE {
            tracer.emit(
                ingest_id,
                SpanKind::Detect,
                tick,
                tick,
                self.stats.steps - steps_before,
            )
        } else {
            0
        };
        self.stats.frames_processed += 1;
        self.last_latency = Some(tick.saturating_sub(enqueued));
        self.notify(subscriber, detect_id, tick, tracer);
        if R::ACTIVE {
            tracer.emit_with_id(
                ingest_id,
                0,
                SpanKind::FrameIngest,
                enqueued,
                tick,
                u64::from(frame),
            );
        }
    }

    /// Crash handling: back off for a bounded exponential delay, or —
    /// once the retry budget is spent — quarantine the poison frame
    /// (and, past the poison allowance, the session). Marks the
    /// backoff's start tick; the later restart closes its span.
    fn fail<R: SpanRecorder>(
        &mut self,
        tick: u64,
        next_attempt: u32,
        tracer: &mut SessionTracer<R>,
    ) {
        let backoff = self.supervision.backoff_ticks(next_attempt);
        let mut attempt = next_attempt;
        if next_attempt >= self.supervision.retry_budget {
            if self.inflight.take().is_some() {
                self.stats.shed.quarantined_frames += 1;
                self.poison_frames += 1;
            }
            if self.poison_frames > self.supervision.max_poison_frames {
                self.quarantine(tick, tracer);
                return;
            }
            // The poison pill is gone; restart fresh on the next frame.
            attempt = 0;
        }
        if R::ACTIVE {
            tracer.backoff_since = tick;
        }
        self.lifecycle = Lifecycle::BackingOff {
            until: tick + backoff,
            attempt,
        };
    }

    /// Terminal quarantine: the rest of the stream will never be
    /// delivered. Emits the terminal `quarantine` span and dumps the
    /// session's post-mortem.
    fn quarantine<R: SpanRecorder>(&mut self, tick: u64, tracer: &mut SessionTracer<R>) {
        debug_assert!(
            self.inflight.is_none(),
            "quarantine with an in-flight frame"
        );
        let upstream = u64::from(self.frames_total - self.next_frame);
        self.stats.shed.undelivered_frames += self.queue.len() as u64 + upstream;
        self.queue.clear();
        // Restore the detector to the accepted prefix so the terminal
        // phase stream is well-defined (the crash that led here lost
        // live state).
        self.replay();
        self.seal_phases();
        self.stats.verified = true;
        self.lifecycle = Lifecycle::Quarantined;
        self.stats.ticks = tick;
        if R::ACTIVE {
            tracer.emit(
                0,
                SpanKind::Quarantine,
                tick,
                tick,
                u64::from(self.poison_frames),
            );
            tracer.dump(
                PostmortemReason::Quarantined,
                tick,
                0,
                &self.stats,
                0,
                self.poison_frames,
            );
        }
    }

    /// Clean completion: judge the residual partial step, close the
    /// open phase, and (optionally) verify against an offline run. The
    /// residual step gets its own `detect` span, and the closing phase
    /// boundaries are emitted under it.
    fn finish<R: SpanRecorder>(
        &mut self,
        tick: u64,
        subscriber: &dyn Subscriber,
        tracer: &mut SessionTracer<R>,
    ) {
        let mut residual_steps = 0u64;
        if self.processed_upto < self.accepted.len() {
            let chunk = &self.accepted[self.processed_upto..];
            self.detector.process(chunk);
            self.stats.steps += 1;
            self.processed_upto = self.accepted.len();
            residual_steps = 1;
        }
        self.detector.close_open_phase();
        let detect_id = if R::ACTIVE {
            tracer.emit(0, SpanKind::Detect, tick, tick, residual_steps)
        } else {
            0
        };
        self.notify(subscriber, detect_id, tick, tracer);
        self.stats.verified = !self.verify || self.offline_matches();
        self.seal_phases();
        self.lifecycle = Lifecycle::Completed;
        self.stats.ticks = tick;
    }

    /// Event-sourced recovery: rebuild a fresh detector by replaying
    /// the accepted-element log in the same full-step chunks.
    fn replay(&mut self) {
        self.detector = PhaseDetector::new(self.config);
        let skip = self.config.skip_factor();
        for chunk in self.accepted[..self.processed_upto].chunks(skip) {
            self.detector.process(chunk);
        }
        self.stats.replayed_elements += self.processed_upto as u64;
    }

    /// Pushes phase-boundary notifications past the high-water marks —
    /// after a replay the marks make redelivery exactly-once. Every
    /// boundary also emits a `phase_event` span under `parent` (the
    /// frame's `detect` span), `detail` packing `(ordinal << 1) |
    /// is_end`.
    fn notify<R: SpanRecorder>(
        &mut self,
        subscriber: &dyn Subscriber,
        parent: u64,
        tick: u64,
        tracer: &mut SessionTracer<R>,
    ) {
        let phases = self.detector.detected_phases();
        let step = self.stats.steps;
        for (i, p) in phases.iter().enumerate().skip(self.notified_starts) {
            subscriber.on_event(
                self.client,
                DetectorEvent::PhaseStart {
                    step,
                    start: p.start,
                    anchored_start: p.anchored_start,
                },
            );
            if R::ACTIVE {
                tracer.emit(parent, SpanKind::PhaseEvent, tick, tick, (i as u64) << 1);
            }
        }
        let closed = phases.iter().take_while(|p| p.end.is_some()).count();
        for (i, p) in phases
            .iter()
            .enumerate()
            .take(closed)
            .skip(self.notified_ends)
        {
            subscriber.on_event(
                self.client,
                DetectorEvent::PhaseEnd {
                    step,
                    end: p.end.unwrap_or(0),
                },
            );
            if R::ACTIVE {
                tracer.emit(
                    parent,
                    SpanKind::PhaseEvent,
                    tick,
                    tick,
                    ((i as u64) << 1) | 1,
                );
            }
        }
        self.notified_starts = phases.len();
        self.notified_ends = closed;
    }

    /// Records the terminal phase stream's count and digest.
    fn seal_phases(&mut self) {
        let phases = self.detector.detected_phases();
        self.stats.phase_count = phases.len() as u64;
        self.stats.phase_digest = phase_digest(phases);
    }

    /// Bit-identity check: a fresh offline detector over the session
    /// log must produce the same phase stream the incremental path
    /// did.
    fn offline_matches(&self) -> bool {
        let mut offline = BranchTrace::with_capacity(self.accepted.len());
        for &e in &self.accepted {
            offline.push(e);
        }
        let mut reference = PhaseDetector::new(self.config);
        let _ = reference.run(&offline);
        reference.detected_phases() == self.detector.detected_phases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::TraceConfig;
    use crate::service::{MemorySource, NullSubscriber};
    use crate::supervisor::NoHazards;
    use opd_obs::NullSpanRecorder;

    fn drive(session: &mut Session, source: &MemorySource, hazards: &dyn HazardPolicy) -> u64 {
        let mut tracer = SessionTracer::new(0, 0, &TraceConfig::default(), NullSpanRecorder);
        let mut tick = 0;
        while session.is_live() {
            tick += 1;
            assert!(tick < 1_000_000, "session stalled");
            session.deliver(source, tick);
            session.step(tick, hazards, &NullSubscriber, &mut tracer);
        }
        tick
    }

    fn small_source(clients: u32) -> MemorySource {
        MemorySource::synthetic(clients, 8, 48)
    }

    #[test]
    fn clean_session_completes_verified() {
        let source = small_source(1);
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            IngestPolicy::default(),
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &NoHazards);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert!(r.stats.verified);
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
        assert_eq!(r.stats.frames_processed, 8);
        assert_eq!(r.stats.restarts, 0);
        assert!(r.stats.elements_accepted > 0);
        assert_ne!(r.stats.phase_digest, 0);
    }

    #[test]
    fn reject_mode_drops_overflow_but_stays_bit_identical() {
        let source = small_source(1);
        let ingest = IngestPolicy {
            queue_capacity: 1,
            mode: BackpressureMode::Reject,
            arrivals_per_tick: 4,
        };
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            ingest,
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &NoHazards);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert!(r.stats.shed.rejected_frames > 0);
        assert!(
            r.stats.verified,
            "phase stream must match offline run over accepted input"
        );
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
    }

    #[test]
    fn shed_oldest_mode_evicts_from_the_front() {
        let source = small_source(1);
        let ingest = IngestPolicy {
            queue_capacity: 1,
            mode: BackpressureMode::ShedOldest,
            arrivals_per_tick: 4,
        };
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            ingest,
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &NoHazards);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert!(r.stats.shed.shed_oldest_frames > 0);
        assert!(r.stats.verified);
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
    }

    #[test]
    fn block_mode_stalls_but_loses_nothing() {
        let source = small_source(1);
        let ingest = IngestPolicy {
            queue_capacity: 1,
            mode: BackpressureMode::Block,
            arrivals_per_tick: 4,
        };
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            ingest,
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &NoHazards);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert!(r.stats.shed.blocked_ticks > 0);
        assert_eq!(r.stats.shed.lost_frames(), 0);
        assert_eq!(r.stats.frames_processed, 8);
        assert!(r.stats.verified);
    }

    /// A scripted hazard: crashes `kills` times on one frame, then
    /// succeeds.
    struct CrashOn {
        frame: u32,
        kills: u32,
    }

    impl HazardPolicy for CrashOn {
        fn crash(&self, _: u32, frame: u32, attempt: u32) -> bool {
            frame == self.frame && attempt < self.kills
        }
        fn wedge(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn poison(&self, _: u32, _: u32) -> bool {
            false
        }
    }

    #[test]
    fn transient_crash_restarts_and_recovers_bit_identically() {
        let source = small_source(1);
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            IngestPolicy::default(),
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &CrashOn { frame: 3, kills: 2 });
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert_eq!(r.stats.crashes, 2);
        assert_eq!(r.stats.restarts, 2);
        assert!(r.stats.replayed_elements > 0);
        assert_eq!(
            r.stats.frames_processed, 8,
            "the crashing frame is retried, not lost"
        );
        assert!(r.stats.verified, "recovered session must match offline run");
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
    }

    /// Poisons one frame: every attempt crashes.
    struct PoisonFrame(u32);

    impl HazardPolicy for PoisonFrame {
        fn crash(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn wedge(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn poison(&self, _: u32, frame: u32) -> bool {
            frame == self.0
        }
    }

    #[test]
    fn poison_frame_is_quarantined_and_the_rest_flows() {
        let source = small_source(1);
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            IngestPolicy::default(),
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &PoisonFrame(2));
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert_eq!(r.stats.shed.quarantined_frames, 1);
        assert_eq!(r.stats.frames_processed, 7);
        assert!(r.stats.verified);
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
    }

    /// Everything is poison.
    struct AllPoison;

    impl HazardPolicy for AllPoison {
        fn crash(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn wedge(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn poison(&self, _: u32, _: u32) -> bool {
            true
        }
    }

    #[test]
    fn relentless_poison_quarantines_the_session_with_exact_accounting() {
        let source = small_source(1);
        let policy = SupervisionPolicy {
            max_poison_frames: 2,
            ..SupervisionPolicy::default()
        };
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            IngestPolicy::default(),
            policy,
            true,
        );
        drive(&mut s, &source, &AllPoison);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Quarantined);
        assert_eq!(r.stats.shed.quarantined_frames, 3, "{:?}", r.stats.shed);
        assert_eq!(r.stats.frames_processed, 0);
        assert!(r.stats.conservation_holds(), "{:?}", r.stats);
    }

    /// Wedges forever on one frame.
    struct WedgeOn(u32);

    impl HazardPolicy for WedgeOn {
        fn crash(&self, _: u32, _: u32, _: u32) -> bool {
            false
        }
        fn wedge(&self, _: u32, frame: u32, attempt: u32) -> bool {
            frame == self.0 && attempt == 0
        }
        fn poison(&self, _: u32, _: u32) -> bool {
            false
        }
    }

    #[test]
    fn wedged_frame_is_deadline_killed_then_retried() {
        let source = small_source(1);
        let mut s = Session::new(
            0,
            source.config_of(0),
            source.frames(0),
            IngestPolicy::default(),
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &WedgeOn(4));
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert_eq!(r.stats.timeouts, 1);
        assert_eq!(r.stats.restarts, 1);
        assert_eq!(r.stats.frames_processed, 8);
        assert!(r.stats.verified);
    }

    #[test]
    fn empty_stream_completes_immediately() {
        let source = small_source(1);
        let mut s = Session::new(
            0,
            source.config_of(0),
            0,
            IngestPolicy::default(),
            SupervisionPolicy::default(),
            true,
        );
        drive(&mut s, &source, &NoHazards);
        let r = s.into_report();
        assert_eq!(r.status, SessionStatus::Completed);
        assert_eq!(r.stats.phase_count, 0);
        assert!(r.stats.verified);
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in BackpressureMode::ALL {
            assert_eq!(m.name().parse::<BackpressureMode>(), Ok(m));
        }
        assert!("drop".parse::<BackpressureMode>().is_err());
        for code in 0..3 {
            let s = SessionStatus::from_code(code).expect("valid code");
            assert_eq!(s.code(), code);
        }
        assert_eq!(SessionStatus::from_code(9), None);
    }
}
