//! The service engine: virtual shards of sessions advanced by a
//! deterministic tick loop, in parallel across OS threads.
//!
//! Sessions are partitioned by `client % vshards` into *virtual
//! shards*. Each vshard is a single-threaded simulation — delivery,
//! backpressure, hazards, supervision all advance in virtual-time
//! ticks, and every random decision is a stateless keyed draw — so a
//! vshard's outcome is a pure function of the configuration and the
//! [`FrameSource`]. Vshards run on the sweeps' work loop,
//! [`opd_core::lpt::run_lpt`]: priced by their clients' frame counts
//! and planned longest first, each runs whole on one OS thread. That
//! makes the full service report **bit-identical across thread
//! counts** and resumable: each vshard appends to an OPDK checkpoint
//! as it completes, and a restarted run recomputes only the missing
//! ones.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use opd_analyze::ResourceCertificate;
use opd_core::lpt::{default_threads, run_lpt};
use opd_core::DetectorConfig;
use opd_obs::{
    render_span_log, CounterId, DetectorEvent, HistogramId, MetricsRegistry, NullSpanRecorder,
    Span, SpanRecorder,
};
use opd_trace::{encode_trace, ExecutionTrace, MethodId, ProfileElement, TraceSink};

use crate::checkpoint::{CheckpointError, ServeCheckpointWriter};
use crate::flight::{Postmortem, SessionTracer, TraceConfig};
use crate::ledger::ShedLedger;
use crate::session::{Session, SessionReport, SessionScratch, SessionStatus};
use crate::supervisor::{keyed_hash, keyed_hash_iter, SeededHazards};
use crate::{IngestPolicy, SupervisionPolicy};

/// Where a session's frames come from.
///
/// Implementations must be cheap to call repeatedly and **pure**: the
/// same `(client, index)` must always yield the same bytes, because a
/// retried or resumed run fetches frames again.
pub trait FrameSource: Sync {
    /// Number of clients (sessions) this source drives.
    fn clients(&self) -> u32;

    /// Number of frames in `client`'s stream.
    fn frames(&self, client: u32) -> u32;

    /// The encoded bytes of frame `index` of `client`'s stream
    /// (`index < self.frames(client)`). May be arbitrarily corrupt —
    /// sessions decode through the resync path.
    fn frame(&self, client: u32, index: u32) -> Vec<u8>;

    /// The detector configuration `client`'s session runs.
    fn detector_config(&self, client: u32) -> DetectorConfig;

    /// A resource certificate for `client`'s session, if the source
    /// can certify it — the input to admission control.
    fn certificate(&self, _client: u32) -> Option<&ResourceCertificate> {
        None
    }

    /// A stable fingerprint of everything that determines the
    /// streams, including each client's detector configuration,
    /// folded into the checkpoint fingerprint. Only runs that write or
    /// resume a checkpoint call it, so a source may compute it on
    /// demand.
    fn fingerprint(&self) -> u64;
}

/// A subscriber for phase-boundary notifications.
///
/// Sessions push [`DetectorEvent::PhaseStart`] /
/// [`DetectorEvent::PhaseEnd`] exactly once per boundary (replays
/// dedupe against a high-water mark).
pub trait Subscriber: Sync {
    /// Called for every phase boundary of every session.
    fn on_event(&self, client: u32, event: DetectorEvent);
}

/// Discards all notifications.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    fn on_event(&self, _: u32, _: DetectorEvent) {}
}

/// The service configuration: ingest, supervision, hazards,
/// admission, and sharding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Queue bound and backpressure mode.
    pub ingest: IngestPolicy,
    /// Restart, backoff, deadline, and quarantine policy.
    pub supervision: SupervisionPolicy,
    /// The injected fault model (rates zero for production ingest).
    pub hazards: SeededHazards,
    /// Per-session memory budget for certificate admission control;
    /// `None` admits everyone.
    pub admission_budget_bytes: Option<u64>,
    /// Virtual shards (the unit of parallelism, checkpointing, and
    /// resume). Independent of thread count.
    pub vshards: u32,
    /// Re-run every completed session offline and compare phase
    /// streams (the bit-identity acceptance check).
    pub verify: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ingest: IngestPolicy::default(),
            supervision: SupervisionPolicy::default(),
            hazards: SeededHazards::none(0xD15E),
            admission_budget_bytes: None,
            vshards: 64,
            verify: true,
        }
    }
}

impl ServeConfig {
    /// Fingerprints this configuration against a source, so a
    /// checkpoint is only ever resumed by the run that wrote it.
    #[must_use]
    pub fn fingerprint(&self, source: &dyn FrameSource) -> u64 {
        keyed_hash(&[
            u64::from(self.vshards),
            self.ingest.queue_capacity as u64,
            self.ingest.mode.name().len() as u64,
            u64::from(self.ingest.mode.name().as_bytes()[0]),
            u64::from(self.ingest.arrivals_per_tick),
            u64::from(self.supervision.retry_budget),
            self.supervision.backoff_base_ticks,
            self.supervision.backoff_cap_ticks,
            self.supervision.deadline_ticks,
            u64::from(self.supervision.max_poison_frames),
            self.hazards.seed,
            self.hazards.kill_rate.to_bits(),
            self.hazards.wedge_rate.to_bits(),
            self.hazards.poison_rate.to_bits(),
            self.admission_budget_bytes.map_or(u64::MAX, |b| b),
            u64::from(self.admission_budget_bytes.is_some()),
            u64::from(self.verify),
            source.fingerprint(),
        ])
    }
}

/// Engine options orthogonal to the simulated behavior: parallelism
/// and persistence. None of them can change a run's outcome.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Worker threads; `0` uses the host's available parallelism.
    pub threads: usize,
    /// Checkpoint file for crash-safe progress.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint if it exists (otherwise start it).
    pub resume: bool,
}

/// Errors from the service engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The configuration is unusable.
    Config(String),
    /// The checkpoint file could not be used.
    Checkpoint(CheckpointError),
    /// A vshard exceeded its virtual-time budget — the simulation
    /// stopped making progress (a bug guard, not an expected outcome).
    Stalled {
        /// The stalled shard.
        vshard: u32,
        /// Ticks it had consumed.
        ticks: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "serve checkpoint: {e}"),
            ServeError::Stalled { vshard, ticks } => {
                write!(f, "vshard {vshard} stalled after {ticks} ticks")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Metric ids for the service dashboard, registered once against an
/// `opd-obs` registry. Counters are tagged by vshard.
#[derive(Debug, Clone, Copy)]
pub struct ServiceMetrics {
    frames: CounterId,
    elements: CounterId,
    restarts: CounterId,
    timeouts: CounterId,
    shed: CounterId,
    corrupt_records: CounterId,
    completed: CounterId,
    quarantined: CounterId,
    step_ns: HistogramId,
    session_phases: HistogramId,
    frame_latency: HistogramId,
}

impl ServiceMetrics {
    /// Registers the dashboard's counters and histograms.
    pub fn register(registry: &mut MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            frames: registry.counter("serve.frames_processed"),
            elements: registry.counter("serve.elements_accepted"),
            restarts: registry.counter("serve.restarts"),
            timeouts: registry.counter("serve.timeouts"),
            shed: registry.counter("serve.shed_frames"),
            corrupt_records: registry.counter("serve.corrupt_records_lost"),
            completed: registry.counter("serve.sessions_completed"),
            quarantined: registry.counter("serve.sessions_quarantined"),
            step_ns: registry.histogram("serve.step_ns"),
            session_phases: registry.histogram("serve.session_phases"),
            frame_latency: registry.histogram("serve.frame_latency_ticks"),
        }
    }

    fn observe_session(&self, registry: &MetricsRegistry, vshard: u32, report: &SessionReport) {
        let tag = u64::from(vshard);
        let s = &report.stats;
        registry.add_tagged(self.frames, tag, s.frames_processed);
        registry.add_tagged(self.elements, tag, s.elements_accepted);
        registry.add_tagged(self.restarts, tag, s.restarts);
        registry.add_tagged(self.timeouts, tag, s.timeouts);
        registry.add_tagged(self.shed, tag, s.shed.lost_frames());
        registry.add_tagged(self.corrupt_records, tag, s.corrupt_records_lost);
        match report.status {
            SessionStatus::Completed => registry.add_tagged(self.completed, tag, 1),
            SessionStatus::Quarantined => registry.add_tagged(self.quarantined, tag, 1),
            SessionStatus::Rejected => {}
        }
        registry.record_tagged(self.session_phases, tag, s.phase_count);
    }
}

/// The full outcome of a service run: one terminal report per
/// session, in client order. It carries no fingerprint: only a
/// checkpointing run computes one, and it lives in the checkpoint's
/// header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Virtual shards the run was partitioned into.
    pub vshards: u32,
    /// Vshards restored from a checkpoint instead of recomputed.
    pub restored_vshards: u32,
    /// Terminal session reports, ascending by client.
    pub sessions: Vec<SessionReport>,
}

impl ServiceReport {
    fn count(&self, status: SessionStatus) -> u64 {
        self.sessions.iter().filter(|r| r.status == status).count() as u64
    }

    /// Sessions that drained their stream.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.count(SessionStatus::Completed)
    }

    /// Sessions quarantined by the supervisor.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.count(SessionStatus::Quarantined)
    }

    /// Sessions refused by admission control.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.count(SessionStatus::Rejected)
    }

    /// All shed ledgers, merged.
    #[must_use]
    pub fn shed(&self) -> ShedLedger {
        let mut total = ShedLedger::new();
        for r in &self.sessions {
            total.merge(&r.stats.shed);
        }
        total
    }

    /// Supervisor restarts, summed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.restarts).sum()
    }

    /// Deadline kills, summed.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.timeouts).sum()
    }

    /// Injected crashes, summed.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.crashes).sum()
    }

    /// Frames processed, summed.
    #[must_use]
    pub fn frames_processed(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.frames_processed).sum()
    }

    /// Elements accepted, summed.
    #[must_use]
    pub fn elements_accepted(&self) -> u64 {
        self.sessions
            .iter()
            .map(|r| r.stats.elements_accepted)
            .sum()
    }

    /// Corrupt frames seen by the resync decoder, summed.
    #[must_use]
    pub fn corrupt_frames(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.corrupt_frames).sum()
    }

    /// Records lost to corruption, summed.
    #[must_use]
    pub fn corrupt_records_lost(&self) -> u64 {
        self.sessions
            .iter()
            .map(|r| r.stats.corrupt_records_lost)
            .sum()
    }

    /// Phase boundaries detected, summed.
    #[must_use]
    pub fn phases(&self) -> u64 {
        self.sessions.iter().map(|r| r.stats.phase_count).sum()
    }

    /// Completed sessions whose phase stream did **not** match a
    /// batch offline run over the session log — the
    /// acceptance gate requires zero.
    #[must_use]
    pub fn verify_failures(&self) -> u64 {
        self.sessions
            .iter()
            .filter(|r| r.status == SessionStatus::Completed && !r.stats.verified)
            .count() as u64
    }

    /// `true` if every terminal session accounts for every frame of
    /// its stream.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.sessions.iter().all(|r| r.stats.conservation_holds())
    }

    /// A digest over every session's terminal phase stream (client,
    /// status, digest, count) — two runs with equal digests produced
    /// bit-identical phase streams for every session.
    #[must_use]
    pub fn aggregate_digest(&self) -> u64 {
        let quads = self.sessions.iter().flat_map(|r| {
            [
                u64::from(r.client),
                u64::from(r.status.code()),
                r.stats.phase_digest,
                r.stats.phase_count,
            ]
        });
        keyed_hash_iter(std::iter::once(self.sessions.len() as u64).chain(quads))
    }
}

/// Runs the service to completion with no subscriber and no metrics.
///
/// # Errors
///
/// Returns [`ServeError`] on an unusable configuration, a checkpoint
/// that cannot be read or written, or a stalled shard.
pub fn run_service(
    config: &ServeConfig,
    source: &dyn FrameSource,
    options: &ServiceOptions,
) -> Result<ServiceReport, ServeError> {
    run_service_with(config, source, options, &NullSubscriber, None)
}

/// Runs the service with phase-boundary notifications pushed to
/// `subscriber` and dashboard metrics recorded through `metrics`.
///
/// # Errors
///
/// Returns [`ServeError`] on an unusable configuration, a checkpoint
/// that cannot be read or written, or a stalled shard.
pub fn run_service_with(
    config: &ServeConfig,
    source: &dyn FrameSource,
    options: &ServiceOptions,
    subscriber: &dyn Subscriber,
    metrics: Option<(&MetricsRegistry, &ServiceMetrics)>,
) -> Result<ServiceReport, ServeError> {
    run_service_traced::<NullSpanRecorder>(
        config,
        source,
        options,
        subscriber,
        metrics,
        &TraceConfig::default(),
    )
    .map(|(report, _)| report)
}

/// A generous upper bound on the virtual ticks a vshard can need:
/// exceeded only by a livelocked state machine, never by a legal run.
fn tick_budget(sessions: &[Session], config: &ServeConfig) -> u64 {
    let max_frames = sessions
        .iter()
        .map(|s| s.stats().frames_total)
        .max()
        .unwrap_or(0);
    let worst_frame = u64::from(config.supervision.retry_budget)
        * (config.supervision.deadline_ticks + config.supervision.backoff_cap_ticks + 4);
    1_000 + 4 * (max_frames + 1) * (worst_frame + 2)
}

/// Everything a traced run observed beyond the report: the full span
/// log (ascending by client, per-session emission order within a
/// client — deterministic and thread-count invariant) and every
/// post-mortem dumped along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTrace {
    /// All recorded spans, sorted by client then emission order.
    pub spans: Vec<Span>,
    /// All post-mortems, sorted by `(client, tick)`.
    pub postmortems: Vec<Postmortem>,
}

impl ServiceTrace {
    /// The canonical span-log document (`# opd-spans-v1`) — the
    /// byte-identical-across-threads artifact.
    #[must_use]
    pub fn span_log(&self) -> String {
        render_span_log(&self.spans)
    }

    /// Span counts per kind, in [`opd_obs::SpanKind::ALL`] order.
    #[must_use]
    pub fn counts_by_kind(&self) -> Vec<(opd_obs::SpanKind, u64)> {
        opd_obs::SpanKind::ALL
            .into_iter()
            .map(|k| (k, self.spans.iter().filter(|s| s.kind == k).count() as u64))
            .collect()
    }
}

/// [`run_service_with`], with causal-span tracing: every session runs
/// under a [`SessionTracer`] whose recorder type `R` decides the cost —
/// [`opd_obs::SpanLog`] collects the full trace, and
/// [`opd_obs::NullSpanRecorder`] records nothing: that instance is
/// [`run_service_with`] itself.
///
/// A recording run refuses checkpoints (a resumed run would have no
/// spans for restored vshards).
///
/// # Errors
///
/// Returns [`ServeError`] on an unusable configuration, a checkpoint
/// that cannot be read or written (or any checkpoint, when `R`
/// records), or a stalled shard. When vshards fail, the error is the
/// one of the first failing worker in the work loop's plan order, so
/// it does not depend on timing; a worker stops at its first error and
/// the others finish their vshards first.
pub fn run_service_traced<R: SpanRecorder + Default>(
    config: &ServeConfig,
    source: &dyn FrameSource,
    options: &ServiceOptions,
    subscriber: &dyn Subscriber,
    metrics: Option<(&MetricsRegistry, &ServiceMetrics)>,
    trace: &TraceConfig,
) -> Result<(ServiceReport, ServiceTrace), ServeError> {
    if config.vshards == 0 {
        return Err(ServeError::Config("vshards must be at least 1".into()));
    }
    if config.ingest.queue_capacity == 0 {
        return Err(ServeError::Config(
            "queue capacity must be at least 1".into(),
        ));
    }
    if config.ingest.arrivals_per_tick == 0 {
        return Err(ServeError::Config(
            "arrivals per tick must be at least 1".into(),
        ));
    }
    if config.supervision.retry_budget == 0 {
        return Err(ServeError::Config("retry budget must be at least 1".into()));
    }
    if R::ACTIVE && options.checkpoint.is_some() {
        return Err(ServeError::Config(
            "tracing does not support checkpoints".into(),
        ));
    }

    let mut done: BTreeMap<u32, VshardTrace> = BTreeMap::new();
    let writer = match &options.checkpoint {
        Some(path) if options.resume && path.exists() => {
            let (w, map) = ServeCheckpointWriter::resume(path, config.fingerprint(source))?;
            done = map
                .into_iter()
                .map(|(vshard, reports)| (vshard, (reports, Vec::new(), Vec::new())))
                .collect();
            Some(Mutex::new(w))
        }
        Some(path) => Some(Mutex::new(ServeCheckpointWriter::create(
            path,
            config.fingerprint(source),
        )?)),
        None => None,
    };
    let restored_vshards = done.len() as u32;

    let pending: Vec<u32> = (0..config.vshards)
        .filter(|v| !done.contains_key(v))
        .collect();
    let threads = match options.threads {
        0 => default_threads(),
        n => n,
    };
    // Each worker's sessions reuse its scratch across the vshards it
    // runs: the free list grows to the most sessions one of them had.
    run_lpt(
        &pending,
        threads,
        SessionScratch::new,
        |pending| {
            pending
                .iter()
                .map(|&vshard| vshard_frames(vshard, config.vshards, source))
                .collect()
        },
        |&vshard, scratch| {
            let result =
                run_vshard::<R>(vshard, config, source, subscriber, metrics, trace, scratch)?;
            if let Some(w) = &writer {
                w.lock()
                    .expect("checkpoint writer lock")
                    .append(vshard, &result.0)
                    .map_err(|e| ServeError::Checkpoint(CheckpointError::Io(e)))?;
            }
            Ok::<_, ServeError>((vshard, result))
        },
        |_, (vshard, result)| {
            done.insert(vshard, result);
        },
    )?;

    let mut sessions = Vec::new();
    let mut client_spans: Vec<(u32, Vec<Span>)> = Vec::new();
    let mut postmortems = Vec::new();
    for (_, (reports, spans, pms)) in done {
        sessions.extend(reports);
        client_spans.extend(spans);
        postmortems.extend(pms);
    }
    sessions.sort_by_key(|r| r.client);
    client_spans.sort_by_key(|&(client, _)| client);
    postmortems.sort_by_key(|p| (p.client, p.tick));
    let spans = client_spans.into_iter().flat_map(|(_, s)| s).collect();
    Ok((
        ServiceReport {
            vshards: config.vshards,
            restored_vshards,
            sessions,
        },
        ServiceTrace { spans, postmortems },
    ))
}

/// The frames of every client of `vshard`: its price on the work loop.
fn vshard_frames(vshard: u32, vshards: u32, source: &dyn FrameSource) -> u64 {
    (vshard..source.clients())
        .step_by(vshards as usize)
        .map(|client| u64::from(source.frames(client)))
        .sum()
}

/// One traced vshard's output: session reports, per-client span
/// logs, and post-mortems.
type VshardTrace = (Vec<SessionReport>, Vec<(u32, Vec<Span>)>, Vec<Postmortem>);

/// Runs one vshard's sessions to completion, each under its own
/// [`SessionTracer`] when `R` records, on buffers from the worker's
/// `scratch`. All of one vshard's sessions are live together, and all
/// hand their buffers back at the end.
fn run_vshard<R: SpanRecorder + Default>(
    vshard: u32,
    config: &ServeConfig,
    source: &dyn FrameSource,
    subscriber: &dyn Subscriber,
    metrics: Option<(&MetricsRegistry, &ServiceMetrics)>,
    trace: &TraceConfig,
    scratch: &mut SessionScratch,
) -> Result<VshardTrace, ServeError> {
    let mut reports = Vec::new();
    // Sessions and their tracers live in parallel vectors: when `R`
    // records nothing the tracer vector stays empty and a single inert
    // tracer serves every session, so an untraced run allocates
    // nothing for tracing (pinned by tests/span_alloc.rs).
    let mut sessions: Vec<Session> = Vec::new();
    let mut tracers: Vec<SessionTracer<R>> = Vec::new();
    let mut inert_tracer = SessionTracer::new(0, vshard, trace, R::default());
    let mut client = vshard;
    while client < source.clients() {
        let frames = source.frames(client);
        let admitted = match (config.admission_budget_bytes, source.certificate(client)) {
            (Some(budget), Some(cert)) => cert.admits(budget),
            _ => true,
        };
        if admitted {
            if R::ACTIVE {
                tracers.push(SessionTracer::new(client, vshard, trace, R::default()));
            }
            sessions.push(Session::new(
                client,
                source.detector_config(client),
                frames,
                config.ingest,
                config.supervision,
                config.verify,
                scratch,
            ));
        } else {
            reports.push(SessionReport::rejected(client, frames));
        }
        match client.checked_add(config.vshards) {
            Some(next_client) => client = next_client,
            None => break,
        }
    }

    let budget = tick_budget(&sessions, config);
    let mut live = sessions.len();
    let mut tick = 0u64;
    while live > 0 {
        tick += 1;
        if tick > budget {
            return Err(ServeError::Stalled {
                vshard,
                ticks: tick,
            });
        }
        for (i, s) in sessions.iter_mut().enumerate() {
            if !s.is_live() {
                continue;
            }
            let tracer = if R::ACTIVE {
                &mut tracers[i]
            } else {
                &mut inert_tracer
            };
            s.deliver(source, tick);
            let before = s.stats().frames_processed;
            let t0 = metrics.map(|_| Instant::now());
            s.step(tick, &config.hazards, subscriber, tracer, scratch);
            if let (Some((registry, m)), Some(t0)) = (metrics, t0) {
                if s.stats().frames_processed > before {
                    registry.record_tagged(
                        m.step_ns,
                        u64::from(vshard),
                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                if let Some(latency) = s.take_last_latency() {
                    registry.record_tagged(m.frame_latency, u64::from(vshard), latency);
                }
            }
            if !s.is_live() {
                live -= 1;
            }
        }
    }

    let mut spans = Vec::new();
    let mut postmortems = Vec::new();
    for (i, s) in sessions.into_iter().enumerate() {
        let report = s.into_report(scratch);
        if let Some((registry, m)) = metrics {
            m.observe_session(registry, vshard, &report);
        }
        // With tracing compiled out nothing was recorded; skipping the
        // pushes keeps the disabled path free of span allocations
        // (pinned by tests/span_alloc.rs).
        if R::ACTIVE {
            let tracer = &mut tracers[i];
            spans.push((report.client, tracer.recorder.drain()));
            postmortems.append(&mut tracer.postmortems);
        }
        reports.push(report);
    }
    reports.sort_by_key(|r| r.client);
    Ok((reports, spans, postmortems))
}

/// An in-memory [`FrameSource`] — the unit-test and property-test
/// harness, and the shape external ingest adapters materialize into.
///
/// Its [`fingerprint`](FrameSource::fingerprint) hashes every frame
/// byte and every client's detector configuration each time it is
/// called; building the source hashes nothing.
#[derive(Debug, Clone, Default)]
pub struct MemorySource {
    streams: Vec<(DetectorConfig, Vec<Vec<u8>>)>,
}

impl MemorySource {
    /// An empty source; add clients with
    /// [`push_client`](MemorySource::push_client).
    #[must_use]
    pub fn new() -> MemorySource {
        MemorySource::default()
    }

    /// Appends one client's stream and returns its client id.
    pub fn push_client(&mut self, config: DetectorConfig, frames: Vec<Vec<u8>>) -> u32 {
        self.streams.push((config, frames));
        (self.streams.len() - 1) as u32
    }

    /// The detector configuration of one client (panics on an unknown
    /// client — this is a test harness).
    #[must_use]
    pub fn config_of(&self, client: u32) -> DetectorConfig {
        self.streams[client as usize].0
    }

    /// A deterministic phasey workload: every client gets `frames`
    /// frames of `elements_per_frame` elements whose branch alphabet
    /// shifts every few frames, so the detector sees real phase
    /// boundaries.
    #[must_use]
    pub fn synthetic(clients: u32, frames: u32, elements_per_frame: u32) -> MemorySource {
        let config = DetectorConfig::builder()
            .current_window(24)
            .trailing_window(24)
            .skip_factor(6)
            .build()
            .expect("static synthetic config is valid");
        let mut source = MemorySource::new();
        for c in 0..clients {
            let mut stream = Vec::with_capacity(frames as usize);
            for f in 0..frames {
                let mut t = ExecutionTrace::new();
                let regime = (u64::from(c) * 17 + u64::from(f) / 3) % 5;
                for i in 0..elements_per_frame {
                    let site = (regime * 11 + u64::from(i % 4)) as u32;
                    t.record_branch(ProfileElement::new(MethodId::new(1), site, i % 2 == 0));
                }
                stream.push(Vec::from(encode_trace(&t)));
            }
            source.push_client(config, stream);
        }
        source
    }
}

impl FrameSource for MemorySource {
    fn clients(&self) -> u32 {
        self.streams.len() as u32
    }

    fn frames(&self, client: u32) -> u32 {
        self.streams
            .get(client as usize)
            .map_or(0, |(_, f)| f.len() as u32)
    }

    fn frame(&self, client: u32, index: u32) -> Vec<u8> {
        self.streams
            .get(client as usize)
            .and_then(|(_, f)| f.get(index as usize))
            .cloned()
            .unwrap_or_default()
    }

    fn detector_config(&self, client: u32) -> DetectorConfig {
        self.config_of(client)
    }

    /// Folds, per client in order: the previous value, the frame
    /// count, FNV-1a of the config's `Debug` text, then each frame's
    /// length and FNV-1a of its bytes.
    fn fingerprint(&self) -> u64 {
        self.streams
            .iter()
            .fold(0, |fingerprint, (config, frames)| {
                let mut words = vec![
                    fingerprint,
                    frames.len() as u64,
                    opd_trace::fnv64(format!("{config:?}").as_bytes()),
                ];
                for f in frames {
                    words.push(keyed_hash(&[f.len() as u64]));
                    words.push(opd_trace::fnv64(f));
                }
                keyed_hash(&words)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn clean_service_completes_everyone_identically_across_threads() {
        let even = MemorySource::synthetic(23, 7, 36);
        // Clients of 1 to 40 frames: the vshards' frame-count prices
        // differ, so the plans above one thread reorder the vshards.
        let mut ragged = MemorySource::synthetic(23, 40, 36);
        for (c, (_, frames)) in ragged.streams.iter_mut().enumerate() {
            frames.truncate(1 + c * 17 % 40);
        }
        let prices: Vec<u64> = (0..5).map(|v| vshard_frames(v, 5, &ragged)).collect();
        assert_eq!(prices, [55, 140, 105, 78, 106]);
        let config = ServeConfig {
            vshards: 5,
            ..ServeConfig::default()
        };
        for source in [&even, &ragged] {
            let run = |threads| {
                let options = ServiceOptions {
                    threads,
                    ..ServiceOptions::default()
                };
                run_service(&config, source, &options).expect("clean run")
            };
            let one = run(1);
            for threads in [2, 8] {
                assert_eq!(one, run(threads), "outcome depends on {threads} threads");
            }
            assert_eq!(one.completed(), 23);
            assert_eq!(one.verify_failures(), 0);
            assert!(one.conservation_holds());
            assert!(one.phases() > 0);
            assert_ne!(one.aggregate_digest(), 0);
        }
    }

    /// The four detector shapes `(cw, tw, skip)` that `opd serve`
    /// rotates its clients through (`opd_experiments::serve`'s
    /// `serve_configs`).
    const SERVE_SHAPES: [(usize, usize, usize); 4] =
        [(32, 32, 4), (24, 24, 6), (48, 48, 8), (16, 48, 4)];

    /// `clients` clients over all four shapes, mixed within each of
    /// `vshards` vshards. The clients of even vshards draw on 40 or
    /// more distinct sites and those of odd vshards on 3, so on one
    /// worker each 3-site vshard reuses the buffers of a wide one.
    /// Frames carry method events, and every seventh has a corrupt
    /// branch record.
    fn mixed_source(clients: u32, vshards: u32) -> MemorySource {
        let mut source = MemorySource::new();
        for c in 0..clients {
            let (cw, tw, skip) = SERVE_SHAPES[((c / vshards + c) % 4) as usize];
            let config = DetectorConfig::builder()
                .current_window(cw)
                .trailing_window(tw)
                .skip_factor(skip)
                .build()
                .expect("serve shapes are valid");
            let wide = c % vshards % 2 == 0;
            let frames = (0..6 + c % 5)
                .map(|f| {
                    let mut t = ExecutionTrace::new();
                    t.record_method_enter(MethodId::new(1));
                    for i in 0..64 {
                        let (site, taken) = if wide {
                            (f / 2 * 13 + i % 40, (i + c) % 3 == 0)
                        } else {
                            (
                                [[0, 0, 1], [2, 2, 1]][(f / 2 % 2) as usize][(i % 3) as usize],
                                true,
                            )
                        };
                        t.record_branch(ProfileElement::new(MethodId::new(1), site, taken));
                    }
                    t.record_method_exit(MethodId::new(1));
                    let mut bytes = Vec::from(encode_trace(&t));
                    if (c + f) % 7 == 3 {
                        bytes[opd_trace::HEADER_LEN + 5 * opd_trace::BRANCH_RECORD_LEN + 7] = 0xFF;
                    }
                    bytes
                })
                .collect();
            source.push_client(config, frames);
        }
        source
    }

    /// `client`'s session run alone, on a fresh scratch, by the tick
    /// loop of [`run_vshard`]. It keeps its client id, so it draws the
    /// same hazards as in the full run.
    fn run_alone(source: &MemorySource, config: &ServeConfig, client: u32) -> SessionReport {
        let mut scratch = SessionScratch::new();
        let mut tracer = SessionTracer::new(client, 0, &TraceConfig::default(), NullSpanRecorder);
        let mut session = Session::new(
            client,
            source.detector_config(client),
            source.frames(client),
            config.ingest,
            config.supervision,
            config.verify,
            &mut scratch,
        );
        let mut tick = 0;
        while session.is_live() {
            tick += 1;
            session.deliver(source, tick);
            session.step(
                tick,
                &config.hazards,
                &NullSubscriber,
                &mut tracer,
                &mut scratch,
            );
        }
        session.into_report(&mut scratch)
    }

    #[test]
    fn reused_worker_buffers_match_fresh_sessions() {
        let vshards = 12;
        let source = mixed_source(48, vshards);
        let config = ServeConfig {
            vshards,
            supervision: SupervisionPolicy {
                max_poison_frames: 0,
                ..SupervisionPolicy::default()
            },
            hazards: SeededHazards {
                seed: 0x5EED,
                kill_rate: 0.08,
                wedge_rate: 0.03,
                poison_rate: 0.03,
            },
            ..ServeConfig::default()
        };
        let run = |threads| {
            let options = ServiceOptions {
                threads,
                ..ServiceOptions::default()
            };
            run_service(&config, &source, &options).expect("mixed run")
        };
        // One thread: one worker runs every vshard in order, so each
        // vshard's sessions reuse the buffers of the one before.
        let one = run(1);
        assert!(one.completed() > 0 && one.quarantined() > 0, "{one:?}");
        assert!(one.restarts() > 0 && one.corrupt_frames() > 0);
        assert!(one.phases() > 0);
        assert_eq!(one.verify_failures(), 0);
        for report in &one.sessions {
            assert_eq!(
                report,
                &run_alone(&source, &config, report.client),
                "client {} differs from a fresh session",
                report.client
            );
        }
        for threads in [2, 8] {
            assert_eq!(one, run(threads), "outcome depends on {threads} threads");
        }
    }

    /// A source that records, at every frame fetch, the length of a
    /// checkpoint file the run is writing.
    struct WatchingSource<'a> {
        inner: MemorySource,
        checkpoint: &'a std::path::Path,
        longest_seen: AtomicU64,
    }

    impl FrameSource for WatchingSource<'_> {
        fn clients(&self) -> u32 {
            self.inner.clients()
        }
        fn frames(&self, client: u32) -> u32 {
            self.inner.frames(client)
        }
        fn frame(&self, client: u32, index: u32) -> Vec<u8> {
            let len = std::fs::metadata(self.checkpoint).map_or(0, |m| m.len());
            self.longest_seen.fetch_max(len, Ordering::Relaxed);
            self.inner.frame(client, index)
        }
        fn detector_config(&self, client: u32) -> DetectorConfig {
            self.inner.detector_config(client)
        }
        fn fingerprint(&self) -> u64 {
            self.inner.fingerprint()
        }
    }

    #[test]
    fn checkpoint_records_land_while_the_run_goes_on() {
        let dir = std::env::temp_dir().join(format!("opd_serve_landing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let config = ServeConfig {
            vshards: 8,
            ..ServeConfig::default()
        };
        for threads in [1, 2] {
            let path = dir.join(format!("t{threads}.opdk"));
            let _ = std::fs::remove_file(&path);
            let source = WatchingSource {
                inner: MemorySource::synthetic(16, 4, 24),
                checkpoint: &path,
                longest_seen: AtomicU64::new(0),
            };
            let options = ServiceOptions {
                threads,
                checkpoint: Some(path.clone()),
                ..ServiceOptions::default()
            };
            let report = run_service(&config, &source, &options).expect("checkpointed run");
            assert_eq!(report.completed(), 16);
            assert!(
                source.longest_seen.into_inner() > opd_trace::record::HEADER_LEN as u64,
                "at {threads} thread(s) no frame fetch saw a vshard record: \
                 records must land as each vshard finishes"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_service_survives_and_stays_bit_identical() {
        let source = MemorySource::synthetic(30, 10, 30);
        let config = ServeConfig {
            vshards: 7,
            hazards: SeededHazards {
                seed: 77,
                kill_rate: 0.08,
                wedge_rate: 0.02,
                poison_rate: 0.01,
            },
            ..ServeConfig::default()
        };
        let report = run_service(&config, &source, &ServiceOptions::default()).expect("soak");
        assert_eq!(report.sessions.len(), 30);
        assert!(report.restarts() > 0, "hazards must actually fire");
        assert_eq!(report.verify_failures(), 0, "every survivor bit-identical");
        assert!(report.conservation_holds());
        let again = run_service(&config, &source, &ServiceOptions::default()).expect("soak");
        assert_eq!(report, again, "seeded soak is reproducible");
    }

    struct CountingSubscriber {
        starts: AtomicU64,
        ends: AtomicU64,
    }

    impl Subscriber for CountingSubscriber {
        fn on_event(&self, _client: u32, event: DetectorEvent) {
            match event {
                DetectorEvent::PhaseStart { .. } => {
                    self.starts.fetch_add(1, Ordering::Relaxed);
                }
                DetectorEvent::PhaseEnd { .. } => {
                    self.ends.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn subscribers_see_each_phase_boundary_exactly_once() {
        let source = MemorySource::synthetic(6, 9, 40);
        let config = ServeConfig {
            vshards: 3,
            hazards: SeededHazards {
                seed: 5,
                kill_rate: 0.1,
                wedge_rate: 0.0,
                poison_rate: 0.0,
            },
            ..ServeConfig::default()
        };
        let sub = CountingSubscriber {
            starts: AtomicU64::new(0),
            ends: AtomicU64::new(0),
        };
        let report = run_service_with(&config, &source, &ServiceOptions::default(), &sub, None)
            .expect("run");
        assert!(report.restarts() > 0, "restarts must occur to test dedup");
        let starts = sub.starts.load(Ordering::Relaxed);
        let ends = sub.ends.load(Ordering::Relaxed);
        assert_eq!(starts, report.phases(), "one PhaseStart per detected phase");
        assert_eq!(ends, report.phases(), "every phase closes at completion");
    }

    #[test]
    fn metrics_dashboard_matches_the_report() {
        let source = MemorySource::synthetic(8, 6, 30);
        let mut registry = MetricsRegistry::new(4);
        let metrics = ServiceMetrics::register(&mut registry);
        let config = ServeConfig {
            vshards: 4,
            ..ServeConfig::default()
        };
        let report = run_service_with(
            &config,
            &source,
            &ServiceOptions::default(),
            &NullSubscriber,
            Some((&registry, &metrics)),
        )
        .expect("run");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("serve.frames_processed"),
            Some(report.frames_processed())
        );
        assert_eq!(
            snap.counter("serve.sessions_completed"),
            Some(report.completed())
        );
        assert_eq!(
            snap.counter("serve.elements_accepted"),
            Some(report.elements_accepted())
        );
        let h = snap
            .histogram("serve.step_ns")
            .expect("step latency histogram registered");
        assert_eq!(h.count(), report.frames_processed());
    }

    #[test]
    fn traced_runs_match_plain_runs_bit_for_bit() {
        use opd_obs::{NullSpanRecorder, SpanLog};
        // The tracing equivalence gate: the same faulted soak through
        // the plain entry point, the disabled-tracer instance, and the
        // recording instance must produce identical reports.
        let source = MemorySource::synthetic(24, 8, 32);
        let config = ServeConfig {
            vshards: 6,
            hazards: SeededHazards {
                seed: 99,
                kill_rate: 0.06,
                wedge_rate: 0.02,
                poison_rate: 0.01,
            },
            ..ServeConfig::default()
        };
        let plain = run_service(&config, &source, &ServiceOptions::default()).expect("plain");
        let (null_traced, null_trace) = run_service_traced::<NullSpanRecorder>(
            &config,
            &source,
            &ServiceOptions::default(),
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("null-traced");
        let (recorded, trace) = run_service_traced::<SpanLog>(
            &config,
            &source,
            &ServiceOptions::default(),
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("recorded");
        assert_eq!(
            plain, null_traced,
            "disabled tracer must not change outcomes"
        );
        assert_eq!(plain, recorded, "recording must not change outcomes");
        assert!(null_trace.spans.is_empty(), "null recorder keeps nothing");
        assert!(null_trace.postmortems.is_empty());
        assert!(!trace.spans.is_empty());
        assert!(plain.restarts() > 0, "hazards must fire for a real test");
        assert!(
            !trace.postmortems.is_empty(),
            "hazard kills must dump post-mortems"
        );
    }

    #[test]
    fn span_logs_are_thread_invariant_and_causally_closed() {
        use opd_obs::{SpanKind, SpanLog};
        let source = MemorySource::synthetic(18, 7, 30);
        let config = ServeConfig {
            vshards: 5,
            hazards: SeededHazards {
                seed: 41,
                kill_rate: 0.08,
                wedge_rate: 0.03,
                poison_rate: 0.01,
            },
            ..ServeConfig::default()
        };
        let run = |threads: usize| {
            run_service_traced::<SpanLog>(
                &config,
                &source,
                &ServiceOptions {
                    threads,
                    ..ServiceOptions::default()
                },
                &NullSubscriber,
                None,
                &TraceConfig::default(),
            )
            .expect("traced run")
        };
        let (_, one) = run(1);
        let (_, many) = run(8);
        assert_eq!(
            one.span_log(),
            many.span_log(),
            "span logs must be byte-identical across thread counts"
        );
        assert_eq!(one.postmortems, many.postmortems);

        // Causal closure: every non-root parent id names a span of the
        // same session, and children never precede their parent's
        // start tick.
        use std::collections::{BTreeMap, BTreeSet};
        let mut ids: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for s in &one.spans {
            ids.entry(s.client).or_default().insert(s.id);
        }
        for s in &one.spans {
            assert!(s.end >= s.start, "{s}");
            if s.parent != 0 {
                assert!(ids[&s.client].contains(&s.parent), "dangling parent: {s}");
            }
        }
        // The causal chain exists: frames have decode and detect
        // children, and ingest roots are present.
        let count = |k: SpanKind| one.spans.iter().filter(|s| s.kind == k).count();
        assert!(count(SpanKind::FrameIngest) > 0);
        assert_eq!(count(SpanKind::FrameIngest), count(SpanKind::Decode));
        assert!(count(SpanKind::Backoff) > 0, "hazards must cause backoffs");
        assert_eq!(count(SpanKind::Backoff), count(SpanKind::Retry));
    }

    #[test]
    fn postmortems_capture_quarantine_with_recent_spans() {
        use crate::flight::PostmortemReason;
        use opd_obs::SpanLog;
        // Poison every frame of a small stream with no poison
        // allowance: the session must quarantine and dump a
        // self-contained post-mortem whose ring ends in the
        // quarantine span.
        let source = MemorySource::synthetic(2, 4, 24);
        let config = ServeConfig {
            vshards: 1,
            supervision: SupervisionPolicy {
                max_poison_frames: 0,
                ..SupervisionPolicy::default()
            },
            hazards: SeededHazards {
                seed: 7,
                kill_rate: 0.0,
                wedge_rate: 0.0,
                poison_rate: 1.0,
            },
            ..ServeConfig::default()
        };
        let (report, trace) = run_service_traced::<SpanLog>(
            &config,
            &source,
            &ServiceOptions::default(),
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("run");
        assert_eq!(report.quarantined(), 2);
        let quarantines: Vec<_> = trace
            .postmortems
            .iter()
            .filter(|p| p.reason == PostmortemReason::Quarantined)
            .collect();
        assert_eq!(quarantines.len(), 2);
        for pm in quarantines {
            assert!(!pm.recent.is_empty());
            assert_eq!(
                pm.recent.last().unwrap().kind,
                opd_obs::SpanKind::Quarantine
            );
            let parsed = Postmortem::parse(&pm.render()).expect("roundtrip");
            assert_eq!(&parsed, pm);
        }
    }

    #[test]
    fn traced_runs_refuse_checkpoints() {
        use opd_obs::SpanLog;
        let source = MemorySource::synthetic(1, 1, 10);
        let err = run_service_traced::<SpanLog>(
            &ServeConfig::default(),
            &source,
            &ServiceOptions {
                checkpoint: Some(std::path::PathBuf::from("/tmp/never.opdk")),
                ..ServiceOptions::default()
            },
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        );
        assert!(matches!(err, Err(ServeError::Config(_))));
    }

    #[test]
    fn bad_configs_are_refused() {
        let source = MemorySource::synthetic(1, 1, 10);
        for config in [
            ServeConfig {
                vshards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                ingest: IngestPolicy {
                    queue_capacity: 0,
                    ..IngestPolicy::default()
                },
                ..ServeConfig::default()
            },
            ServeConfig {
                supervision: SupervisionPolicy {
                    retry_budget: 0,
                    ..SupervisionPolicy::default()
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                run_service(&config, &source, &ServiceOptions::default()),
                Err(ServeError::Config(_))
            ));
        }
    }
}
