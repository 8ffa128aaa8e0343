//! The service dashboard study behind `opd top`, `opd metrics-dump`,
//! and the committed `BENCH_dash.json` artifact.
//!
//! [`dash_study`] runs a mid-sized fault-injected soak through the
//! traced engine ([`opd_serve::run_service_traced`]) and folds the
//! causal-span log into the service view the dashboard renders:
//! per-window session states, shed and quarantine rates, and frame
//! latency percentiles in **virtual ticks** (p50/p90/p99 computed by
//! [`HistogramSnapshot::percentile`] over `FrameIngest` span
//! durations). Everything in the study is a pure function of the
//! configuration — the rendered `dash` section of the artifact is
//! byte-identical across thread counts.
//!
//! [`SloPolicy`] is the declarative service-level-objective layer:
//! latency, shed, quarantine, and completion floors checked over the
//! study's windows, surfacing burns as `OPD-O401..O404` diagnostics
//! through the same lint [`Diagnostic`] machinery as every other
//! analyzer (so `opd top` inherits the 0/1/2 exit contract).
//!
//! [`null_span_overhead`] times the traced engine over
//! [`NullSpanRecorder`] against [`run_service`], interleaved samples,
//! median of each — the span-layer counterpart of `obs.rs`'s
//! NullObserver benchmark. Both arms are now the same instance of one
//! body, so the ratio only measures noise.

use std::time::Instant;

use opd_analyze::{Code, Diagnostic};
use opd_obs::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, NullSpanRecorder, SpanKind, SpanLog,
};
use opd_serve::{
    keyed_hash, run_service, run_service_traced, BackpressureMode, IngestPolicy, NullSubscriber,
    SeededHazards, ServeConfig, ServeError, ServiceMetrics, ServiceOptions, SupervisionPolicy,
    TraceConfig,
};

use crate::obs::OverheadReport;
use crate::report::Table;
use crate::serve::{WorkloadSource, SERVE_SEED};

/// The dashboard study's master seed.
pub const DASH_SEED: u64 = SERVE_SEED ^ 0xDA5B;

/// Clients in the committed dashboard soak.
pub const DASH_CLIENTS: u32 = 600;

/// Frames per client.
pub const DASH_FRAMES: u32 = 6;

/// Branch elements per frame.
pub const DASH_FRAME_ELEMENTS: u32 = 48;

/// Fraction of frames corrupted in flight.
pub const DASH_FAULT_RATE: f64 = 0.10;

/// Virtual shards of the dashboard soak.
pub const DASH_VSHARDS: u32 = 48;

/// Vshard-range windows the dashboard aggregates over (each window
/// covers `DASH_VSHARDS / DASH_WINDOWS` consecutive vshards).
pub const DASH_WINDOWS: u32 = 8;

/// Timing samples per arm of the span overhead benchmark.
pub const DASH_SAMPLES: usize = 5;

/// Clients in the overhead benchmark's soak (smaller than the study,
/// since each sample runs the full service twice).
pub const OVERHEAD_CLIENTS: u32 = 160;

/// The dashboard soak's frame source at the committed shape.
#[must_use]
pub fn dash_source(scale: u32, clients: u32) -> WorkloadSource {
    WorkloadSource::build(
        scale,
        clients,
        DASH_FRAMES,
        DASH_FRAME_ELEMENTS,
        DASH_FAULT_RATE,
        DASH_SEED,
    )
}

/// The dashboard soak's service configuration: a shedding queue under
/// moderate hazards, immediate poison quarantine, full verification.
#[must_use]
pub fn dash_config() -> ServeConfig {
    ServeConfig {
        ingest: IngestPolicy {
            queue_capacity: 4,
            mode: BackpressureMode::ShedOldest,
            arrivals_per_tick: 2,
        },
        supervision: SupervisionPolicy {
            max_poison_frames: 0,
            ..SupervisionPolicy::default()
        },
        hazards: SeededHazards {
            seed: DASH_SEED,
            kill_rate: 0.02,
            wedge_rate: 0.005,
            poison_rate: 0.002,
        },
        admission_budget_bytes: None,
        vshards: DASH_VSHARDS,
        verify: true,
    }
}

/// One vshard-range window of the dashboard: session states, flow
/// accounting, and the latency histogram of its `FrameIngest` spans.
#[derive(Debug, Clone)]
pub struct DashWindow {
    /// Window index (`0..DASH_WINDOWS`).
    pub index: u32,
    /// First vshard covered (inclusive).
    pub vshard_lo: u32,
    /// Last vshard covered (exclusive).
    pub vshard_hi: u32,
    /// Sessions homed in the window.
    pub sessions: u64,
    /// Sessions that drained their stream.
    pub completed: u64,
    /// Sessions quarantined by the supervisor.
    pub quarantined: u64,
    /// Frames offered across the window's sessions.
    pub frames_offered: u64,
    /// Frames that reached a detector.
    pub frames_processed: u64,
    /// Frames lost to shedding, rejection, quarantine, or
    /// non-delivery.
    pub shed_frames: u64,
    /// Phase boundaries detected.
    pub phases: u64,
    /// Frame latency (enqueue tick to processed tick), from the
    /// window's `FrameIngest` spans.
    pub latency: HistogramSnapshot,
}

impl DashWindow {
    /// Fraction of offered frames the window lost.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.frames_offered == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.shed_frames as f64 / self.frames_offered as f64
        }
    }

    /// Fraction of the window's sessions that were quarantined.
    #[must_use]
    pub fn quarantine_fraction(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.quarantined as f64 / self.sessions as f64
        }
    }

    /// The window's `q`-quantile frame latency in ticks (0.0 when no
    /// frame completed).
    #[must_use]
    pub fn latency_ticks(&self, q: f64) -> f64 {
        self.latency.percentile(q).unwrap_or(0.0)
    }
}

/// The full dashboard study: service totals, per-window views, span
/// accounting, and the run's metrics snapshot.
#[derive(Debug, Clone)]
pub struct DashStudy {
    /// Workload scale the soak ran at.
    pub scale: u32,
    /// Clients in the soak.
    pub clients: u32,
    /// Virtual shards.
    pub vshards: u32,
    /// Sessions that drained their stream.
    pub completed: u64,
    /// Sessions quarantined by the supervisor.
    pub quarantined: u64,
    /// Sessions refused by admission control.
    pub rejected: u64,
    /// Completed sessions that failed bit-identity verification
    /// (the acceptance gate requires zero).
    pub verify_failures: u64,
    /// Supervisor restarts.
    pub restarts: u64,
    /// Deadline kills.
    pub timeouts: u64,
    /// Injected crashes.
    pub crashes: u64,
    /// Frames offered across all sessions.
    pub frames_offered: u64,
    /// Frames that reached a detector.
    pub frames_processed: u64,
    /// Frames lost to shedding, rejection, quarantine, or
    /// non-delivery.
    pub shed_frames: u64,
    /// Corrupt frames seen by the resync decoder.
    pub corrupt_frames: u64,
    /// Phase boundaries detected.
    pub phases: u64,
    /// Global frame latency over every `FrameIngest` span.
    pub latency: HistogramSnapshot,
    /// Per-window views, ascending by window index.
    pub windows: Vec<DashWindow>,
    /// Span counts per kind, in [`SpanKind::ALL`] order.
    pub span_counts: Vec<(SpanKind, u64)>,
    /// A digest over the canonical span-log document — two runs with
    /// equal digests produced byte-identical span logs.
    pub span_digest: u64,
    /// Post-mortems dumped along the way.
    pub postmortems: u64,
    /// The metrics registry's post-run snapshot (includes the
    /// wall-clock `serve.step_ns` histogram — never rendered into the
    /// deterministic artifact).
    pub snapshot: MetricsSnapshot,
}

impl DashStudy {
    /// Fraction of sessions that completed cleanly.
    #[must_use]
    pub fn completion_fraction(&self) -> f64 {
        if self.clients == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.completed as f64 / f64::from(self.clients)
        }
    }

    /// The global `q`-quantile frame latency in ticks.
    #[must_use]
    pub fn latency_ticks(&self, q: f64) -> f64 {
        self.latency.percentile(q).unwrap_or(0.0)
    }

    /// Total spans recorded.
    #[must_use]
    pub fn spans_total(&self) -> u64 {
        self.span_counts.iter().map(|&(_, n)| n).sum()
    }
}

/// Runs the dashboard soak through the traced engine and folds the
/// span log into the per-window service view. Deterministic: the
/// result (excluding the snapshot's wall-clock histogram) is a pure
/// function of `scale`, independent of `threads`.
///
/// # Errors
///
/// Returns [`ServeError`] if the engine refuses the configuration or
/// a shard stalls; neither happens for the committed parameters.
pub fn dash_study(scale: u32, threads: usize) -> Result<DashStudy, ServeError> {
    let mut registry = MetricsRegistry::for_host();
    let metrics = ServiceMetrics::register(&mut registry);
    dash_study_observed(scale, DASH_CLIENTS, threads, &registry, &metrics)
}

/// [`dash_study`] with an externally owned metrics registry (so a
/// live monitor can sample [`MetricsRegistry::snapshot`] while the
/// soak runs) and an explicit client count. `opd top`'s refresh loop
/// is built on this entry point.
///
/// # Errors
///
/// Returns [`ServeError`] under the same conditions as
/// [`dash_study`].
pub fn dash_study_observed(
    scale: u32,
    clients: u32,
    threads: usize,
    registry: &MetricsRegistry,
    metrics: &ServiceMetrics,
) -> Result<DashStudy, ServeError> {
    let source = dash_source(scale, clients);
    let config = dash_config();
    let (report, trace) = run_service_traced::<SpanLog>(
        &config,
        &source,
        &ServiceOptions {
            threads,
            ..ServiceOptions::default()
        },
        &NullSubscriber,
        Some((registry, metrics)),
        &TraceConfig::default(),
    )?;

    let per_window = DASH_VSHARDS / DASH_WINDOWS;
    let window_of = |vshard: u32| (vshard / per_window).min(DASH_WINDOWS - 1);
    let mut windows: Vec<DashWindow> = (0..DASH_WINDOWS)
        .map(|index| DashWindow {
            index,
            vshard_lo: index * per_window,
            vshard_hi: (index + 1) * per_window,
            sessions: 0,
            completed: 0,
            quarantined: 0,
            frames_offered: 0,
            frames_processed: 0,
            shed_frames: 0,
            phases: 0,
            latency: HistogramSnapshot::empty(),
        })
        .collect();

    for r in &report.sessions {
        let w = &mut windows[window_of(r.client % DASH_VSHARDS) as usize];
        w.sessions += 1;
        match r.status {
            opd_serve::SessionStatus::Completed => w.completed += 1,
            opd_serve::SessionStatus::Quarantined => w.quarantined += 1,
            opd_serve::SessionStatus::Rejected => {}
        }
        w.frames_offered += r.stats.frames_total;
        w.frames_processed += r.stats.frames_processed;
        w.shed_frames += r.stats.shed.lost_frames();
        w.phases += r.stats.phase_count;
    }

    let mut latency = HistogramSnapshot::empty();
    for s in &trace.spans {
        if s.kind == SpanKind::FrameIngest {
            let ticks = s.end.saturating_sub(s.start);
            latency.record(ticks);
            windows[window_of(s.vshard) as usize].latency.record(ticks);
        }
    }

    let log = trace.span_log();
    let mut fnv = 0xCBF2_9CE4_8422_2325u64;
    for &b in log.as_bytes() {
        fnv ^= u64::from(b);
        fnv = fnv.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let span_digest = keyed_hash(&[trace.spans.len() as u64, fnv]);

    Ok(DashStudy {
        scale,
        clients,
        vshards: DASH_VSHARDS,
        completed: report.completed(),
        quarantined: report.quarantined(),
        rejected: report.rejected(),
        verify_failures: report.verify_failures(),
        restarts: report.restarts(),
        timeouts: report.timeouts(),
        crashes: report.crashes(),
        frames_offered: report.sessions.iter().map(|r| r.stats.frames_total).sum(),
        frames_processed: report.frames_processed(),
        shed_frames: report
            .sessions
            .iter()
            .map(|r| r.stats.shed.lost_frames())
            .sum(),
        corrupt_frames: report.corrupt_frames(),
        phases: report.phases(),
        latency,
        windows,
        span_counts: trace.counts_by_kind(),
        span_digest,
        postmortems: trace.postmortems.len() as u64,
        snapshot: registry.snapshot(),
    })
}

/// Declarative service-level objectives over the dashboard's windows.
///
/// Burns surface as `OPD-O401..O404` [`Diagnostic`]s — all
/// [`opd_analyze::Severity::Error`], so any burn fails `opd top`'s
/// exit contract the same way a lint error fails `opd lint`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// `OPD-O401` fires when any window's p99 frame latency exceeds
    /// this many virtual ticks.
    pub max_p99_latency_ticks: f64,
    /// `OPD-O402` fires when any window sheds more than this fraction
    /// of its offered frames.
    pub max_shed_fraction: f64,
    /// `OPD-O403` fires when any window quarantines more than this
    /// fraction of its sessions.
    pub max_quarantine_fraction: f64,
    /// `OPD-O404` fires when fewer than this fraction of all sessions
    /// complete cleanly, or any completed session fails verification.
    pub min_completion_fraction: f64,
}

impl Default for SloPolicy {
    /// Defaults sized for the committed soak: comfortably above its
    /// steady-state rates, tight enough that a regression in the
    /// supervision or backpressure layers burns through.
    fn default() -> Self {
        SloPolicy {
            max_p99_latency_ticks: 512.0,
            max_shed_fraction: 0.10,
            max_quarantine_fraction: 0.12,
            min_completion_fraction: 0.90,
        }
    }
}

impl SloPolicy {
    /// Checks every objective over the study, returning one
    /// diagnostic per burn (empty when all SLOs are met), windows in
    /// ascending order, objectives in `O401..O404` order per window.
    #[must_use]
    pub fn check(&self, study: &DashStudy) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for w in &study.windows {
            let anchor = format!(
                "window {} (vshards {}..{})",
                w.index, w.vshard_lo, w.vshard_hi
            );
            let p99 = w.latency_ticks(0.99);
            if p99 > self.max_p99_latency_ticks {
                out.push(Diagnostic::new(
                    Code::SloLatencyBurn,
                    anchor.clone(),
                    format!(
                        "p99 frame latency {p99:.1} ticks exceeds the {:.1} tick SLO",
                        self.max_p99_latency_ticks
                    ),
                ));
            }
            if w.shed_fraction() > self.max_shed_fraction {
                out.push(Diagnostic::new(
                    Code::SloShedBudget,
                    anchor.clone(),
                    format!(
                        "shed {} of {} offered frames ({:.1}%, budget {:.1}%)",
                        w.shed_frames,
                        w.frames_offered,
                        100.0 * w.shed_fraction(),
                        100.0 * self.max_shed_fraction
                    ),
                ));
            }
            if w.quarantine_fraction() > self.max_quarantine_fraction {
                out.push(Diagnostic::new(
                    Code::SloQuarantineBudget,
                    anchor,
                    format!(
                        "quarantined {} of {} sessions ({:.1}%, budget {:.1}%)",
                        w.quarantined,
                        w.sessions,
                        100.0 * w.quarantine_fraction(),
                        100.0 * self.max_quarantine_fraction
                    ),
                ));
            }
        }
        if study.completion_fraction() < self.min_completion_fraction {
            out.push(Diagnostic::new(
                Code::SloCompletionFloor,
                "service",
                format!(
                    "{} of {} sessions completed ({:.1}%, floor {:.1}%)",
                    study.completed,
                    study.clients,
                    100.0 * study.completion_fraction(),
                    100.0 * self.min_completion_fraction
                ),
            ));
        } else if study.verify_failures > 0 {
            out.push(Diagnostic::new(
                Code::SloCompletionFloor,
                "service",
                format!(
                    "{} completed session(s) failed bit-identity verification",
                    study.verify_failures
                ),
            ));
        }
        out
    }
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measures the disabled-span arm against the plain engine: the same
/// soak through [`run_service`] and through the traced engine over
/// [`NullSpanRecorder`] (one body, so the same instance), `samples`
/// interleaved samples per arm, median of each. The ratio is noise
/// around 1.0; the committed `BENCH_dash.json` records it and the
/// artifact test holds it under the 2% acceptance line.
#[must_use]
pub fn null_span_overhead(scale: u32, samples: usize) -> OverheadReport {
    let samples = samples.max(1);
    let source = dash_source(scale, OVERHEAD_CLIENTS);
    let config = dash_config();
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };

    // Warm both arms (page in code, fault the source's templates)
    // before timing anything.
    let _ = run_service(&config, &source, &options).expect("overhead warm-up runs");
    let _ = run_service_traced::<NullSpanRecorder>(
        &config,
        &source,
        &options,
        &NullSubscriber,
        None,
        &TraceConfig::default(),
    )
    .expect("overhead warm-up runs");

    let mut plain = Vec::with_capacity(samples);
    let mut instrumented = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let _ = run_service(&config, &source, &options).expect("overhead sample runs");
        plain.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));

        let t = Instant::now();
        let _ = run_service_traced::<NullSpanRecorder>(
            &config,
            &source,
            &options,
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("overhead sample runs");
        instrumented.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    OverheadReport {
        samples,
        plain_nanos: median(plain),
        instrumented_nanos: median(instrumented),
    }
}

/// Renders `BENCH_dash.json`: the deterministic dashboard section
/// (byte-identical across thread counts) plus the overhead
/// measurement, hand-built (the vendored serde_json is an inert
/// shim). The overhead numbers are passed in raw so the freshness
/// test can re-render around the committed timings.
#[must_use]
pub fn render_dash_json(
    study: &DashStudy,
    samples: usize,
    plain_nanos: u64,
    instrumented_nanos: u64,
) -> String {
    let policy = SloPolicy::default();
    let violations = policy.check(study).len();
    let config = dash_config();
    let overhead = OverheadReport {
        samples,
        plain_nanos,
        instrumented_nanos,
    };
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(" \"schema\": \"opd-bench-dash-v1\",\n");
    out.push_str(&format!(" \"scale\": {},\n", study.scale));
    out.push_str(&format!(
        " \"clients\": {}, \"frames_per_client\": {DASH_FRAMES}, \
         \"frame_elements\": {DASH_FRAME_ELEMENTS}, \"fault_rate\": {DASH_FAULT_RATE:?},\n",
        study.clients
    ));
    out.push_str(&format!(
        " \"vshards\": {}, \"windows\": {DASH_WINDOWS},\n",
        study.vshards
    ));
    out.push_str(&format!(
        " \"hazards\": {{\"kill\": {:?}, \"wedge\": {:?}, \"poison\": {:?}}},\n",
        config.hazards.kill_rate, config.hazards.wedge_rate, config.hazards.poison_rate,
    ));
    out.push_str(" \"service\": {\n");
    out.push_str(&format!(
        "  \"completed\": {}, \"quarantined\": {}, \"rejected\": {}, \"verify_failures\": {},\n",
        study.completed, study.quarantined, study.rejected, study.verify_failures,
    ));
    out.push_str(&format!(
        "  \"restarts\": {}, \"timeouts\": {}, \"crashes\": {},\n",
        study.restarts, study.timeouts, study.crashes,
    ));
    out.push_str(&format!(
        "  \"frames_offered\": {}, \"frames_processed\": {}, \"shed_frames\": {}, \
         \"corrupt_frames\": {}, \"phases\": {}\n",
        study.frames_offered,
        study.frames_processed,
        study.shed_frames,
        study.corrupt_frames,
        study.phases,
    ));
    out.push_str(" },\n");
    out.push_str(&format!(
        " \"latency_ticks\": {{\"count\": {}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}},\n",
        study.latency.count(),
        study.latency_ticks(0.50),
        study.latency_ticks(0.90),
        study.latency_ticks(0.99),
    ));
    out.push_str(" \"window_views\": [\n");
    let window_lines: Vec<String> = study
        .windows
        .iter()
        .map(|w| {
            format!(
                "  {{\"window\": {}, \"vshards\": \"{}..{}\", \"sessions\": {}, \
                 \"completed\": {}, \"quarantined\": {}, \"frames_offered\": {}, \
                 \"frames_processed\": {}, \"shed_frames\": {}, \"phases\": {}, \
                 \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}}",
                w.index,
                w.vshard_lo,
                w.vshard_hi,
                w.sessions,
                w.completed,
                w.quarantined,
                w.frames_offered,
                w.frames_processed,
                w.shed_frames,
                w.phases,
                w.latency_ticks(0.50),
                w.latency_ticks(0.90),
                w.latency_ticks(0.99),
            )
        })
        .collect();
    out.push_str(&window_lines.join(",\n"));
    out.push_str("\n ],\n");
    out.push_str(" \"spans\": {\n");
    out.push_str(&format!(
        "  \"total\": {}, \"digest\": \"{:#018x}\", \"postmortems\": {},\n",
        study.spans_total(),
        study.span_digest,
        study.postmortems,
    ));
    let count_fields: Vec<String> = study
        .span_counts
        .iter()
        .map(|&(kind, n)| format!("\"{}\": {n}", kind.name()))
        .collect();
    out.push_str(&format!("  \"counts\": {{{}}}\n", count_fields.join(", ")));
    out.push_str(" },\n");
    out.push_str(&format!(
        " \"slo\": {{\"max_p99_latency_ticks\": {:?}, \"max_shed_fraction\": {:?}, \
         \"max_quarantine_fraction\": {:?}, \"min_completion_fraction\": {:?}, \
         \"violations\": {violations}}},\n",
        policy.max_p99_latency_ticks,
        policy.max_shed_fraction,
        policy.max_quarantine_fraction,
        policy.min_completion_fraction,
    ));
    out.push_str(" \"overhead\": {\n");
    out.push_str(&format!("  \"samples\": {},\n", overhead.samples));
    out.push_str(&format!("  \"plain_nanos\": {},\n", overhead.plain_nanos));
    out.push_str(&format!(
        "  \"instrumented_nanos\": {},\n",
        overhead.instrumented_nanos
    ));
    out.push_str(&format!("  \"ratio\": {:.4}\n", overhead.ratio()));
    out.push_str(" }\n}\n");
    out
}

/// Renders the live service view `opd top` refreshes: totals, the
/// per-window table, and the SLO verdict.
#[must_use]
pub fn top_view(study: &DashStudy, policy: &SloPolicy) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "opd service dashboard — scale {}, {} clients, {} vshards\n",
        study.scale, study.clients, study.vshards
    ));
    out.push_str(&format!(
        "  sessions: {} completed, {} quarantined, {} rejected ({:.1}% completion)\n",
        study.completed,
        study.quarantined,
        study.rejected,
        100.0 * study.completion_fraction(),
    ));
    out.push_str(&format!(
        "  frames:   {}/{} processed, {} shed, {} corrupt; {} phase boundaries\n",
        study.frames_processed,
        study.frames_offered,
        study.shed_frames,
        study.corrupt_frames,
        study.phases,
    ));
    out.push_str(&format!(
        "  faults:   {} restarts, {} timeouts, {} crashes; {} post-mortem(s)\n",
        study.restarts, study.timeouts, study.crashes, study.postmortems,
    ));
    out.push_str(&format!(
        "  latency:  p50 {:.1} / p90 {:.1} / p99 {:.1} ticks over {} frames\n",
        study.latency_ticks(0.50),
        study.latency_ticks(0.90),
        study.latency_ticks(0.99),
        study.latency.count(),
    ));
    out.push_str(&format!(
        "  spans:    {} recorded (digest {:#018x})\n",
        study.spans_total(),
        study.span_digest,
    ));
    let mut t = Table::new(
        "Windows (vshard ranges)",
        &[
            "win", "vshards", "sess", "done", "quar", "frames", "shed", "phases", "p50", "p90",
            "p99",
        ],
    );
    for w in &study.windows {
        t.row(vec![
            w.index.to_string(),
            format!("{}..{}", w.vshard_lo, w.vshard_hi),
            w.sessions.to_string(),
            w.completed.to_string(),
            w.quarantined.to_string(),
            format!("{}/{}", w.frames_processed, w.frames_offered),
            w.shed_frames.to_string(),
            w.phases.to_string(),
            format!("{:.1}", w.latency_ticks(0.50)),
            format!("{:.1}", w.latency_ticks(0.90)),
            format!("{:.1}", w.latency_ticks(0.99)),
        ]);
    }
    out.push_str(&t.to_string());
    let burns = policy.check(study);
    if burns.is_empty() {
        out.push_str("\nSLO: all objectives met\n");
    } else {
        out.push_str(&format!("\nSLO: {} burn(s)\n", burns.len()));
        for d in &burns {
            out.push_str(&format!("{d}\n"));
        }
    }
    out
}

/// Renders `opd top --once --json`: the study plus the SLO verdict as
/// one JSON document.
#[must_use]
pub fn top_json(study: &DashStudy, policy: &SloPolicy) -> String {
    let burns = policy.check(study);
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str(" \"schema\": \"opd-top-v1\",\n");
    out.push_str(&format!(
        " \"scale\": {}, \"clients\": {}, \"vshards\": {},\n",
        study.scale, study.clients, study.vshards
    ));
    out.push_str(&format!(
        " \"completed\": {}, \"quarantined\": {}, \"rejected\": {}, \"verify_failures\": {},\n",
        study.completed, study.quarantined, study.rejected, study.verify_failures,
    ));
    out.push_str(&format!(
        " \"frames_processed\": {}, \"frames_offered\": {}, \"shed_frames\": {}, \"phases\": {},\n",
        study.frames_processed, study.frames_offered, study.shed_frames, study.phases,
    ));
    out.push_str(&format!(
        " \"latency_ticks\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}},\n",
        study.latency_ticks(0.50),
        study.latency_ticks(0.90),
        study.latency_ticks(0.99),
    ));
    out.push_str(&format!(
        " \"spans\": {}, \"span_digest\": \"{:#018x}\", \"postmortems\": {},\n",
        study.spans_total(),
        study.span_digest,
        study.postmortems,
    ));
    out.push_str(&format!(" \"slo_burns\": [{}]\n", {
        let items: Vec<String> = burns
            .iter()
            .map(|d| {
                format!(
                    "{{\"code\": \"{}\", \"location\": \"{}\", \"message\": \"{}\"}}",
                    d.code(),
                    d.location().replace('"', "'"),
                    d.message().replace('"', "'"),
                )
            })
            .collect();
        items.join(", ")
    }));
    out.push_str("}\n");
    out
}

/// Runs a small metered soak and returns the Prometheus-style text
/// exposition behind `opd metrics-dump`.
///
/// # Errors
///
/// Returns [`ServeError`] if the soak fails (it does not for any
/// valid `scale`/`clients`).
pub fn metrics_exposition(scale: u32, clients: u32) -> Result<MetricsSnapshot, ServeError> {
    let source = dash_source(scale, clients);
    let mut registry = MetricsRegistry::for_host();
    let metrics = ServiceMetrics::register(&mut registry);
    opd_serve::run_service_with(
        &dash_config(),
        &source,
        &ServiceOptions::default(),
        &NullSubscriber,
        Some((&registry, &metrics)),
    )?;
    Ok(registry.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_study_is_thread_invariant() {
        let one = dash_study(1, 1).expect("study runs");
        let many = dash_study(1, 3).expect("study runs");
        assert_eq!(one.span_digest, many.span_digest);
        assert_eq!(one.completed, many.completed);
        assert_eq!(one.postmortems, many.postmortems);
        assert_eq!(one.latency, many.latency);
        for (a, b) in one.windows.iter().zip(&many.windows) {
            assert_eq!(a.sessions, b.sessions);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.shed_frames, b.shed_frames);
        }
        // The rendered deterministic sections agree byte-for-byte.
        assert_eq!(
            render_dash_json(&one, 3, 100, 101),
            render_dash_json(&many, 3, 100, 101)
        );
    }

    #[test]
    fn dash_study_exercises_every_dashboard_surface() {
        let study = dash_study(1, 0).expect("study runs");
        assert_eq!(study.windows.len(), DASH_WINDOWS as usize);
        assert_eq!(
            study.windows.iter().map(|w| w.sessions).sum::<u64>(),
            u64::from(DASH_CLIENTS)
        );
        assert!(study.restarts > 0, "hazards must fire");
        assert!(study.postmortems > 0, "kills must dump post-mortems");
        assert_eq!(study.verify_failures, 0);
        // Latency observations come 1:1 from processed frames, and
        // the span-derived histogram agrees with the registry's.
        assert_eq!(study.latency.count(), study.frames_processed);
        assert_eq!(
            study.snapshot.histogram("serve.frame_latency_ticks"),
            Some(&study.latency)
        );
        assert!(study.latency_ticks(0.99) >= study.latency_ticks(0.50));
        // The committed SLO policy passes on the committed soak.
        let burns = SloPolicy::default().check(&study);
        assert!(burns.is_empty(), "default SLOs must hold: {burns:?}");
    }

    #[test]
    fn slo_burns_fire_under_an_impossible_policy() {
        let study = dash_study(1, 0).expect("study runs");
        let burns = SloPolicy {
            max_p99_latency_ticks: 0.0,
            max_shed_fraction: -1.0,
            max_quarantine_fraction: -1.0,
            min_completion_fraction: 1.1,
        }
        .check(&study);
        let codes: Vec<Code> = burns.iter().map(Diagnostic::code).collect();
        for code in [
            Code::SloLatencyBurn,
            Code::SloShedBudget,
            Code::SloQuarantineBudget,
            Code::SloCompletionFloor,
        ] {
            assert!(codes.contains(&code), "missing {code} in {codes:?}");
        }
        assert!(burns
            .iter()
            .all(|d| d.severity() == opd_analyze::Severity::Error));
    }

    #[test]
    fn dash_json_and_top_views_are_structurally_complete() {
        let study = dash_study(1, 0).expect("study runs");
        let json = render_dash_json(&study, 3, 100, 101);
        for key in [
            "\"schema\": \"opd-bench-dash-v1\"",
            "\"service\"",
            "\"latency_ticks\"",
            "\"window_views\"",
            "\"spans\"",
            "\"frame_ingest\"",
            "\"slo\"",
            "\"violations\": 0",
            "\"overhead\"",
            "\"ratio\": 1.0100",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let policy = SloPolicy::default();
        let top = top_view(&study, &policy);
        assert!(top.contains("opd service dashboard"), "{top}");
        assert!(top.contains("SLO: all objectives met"), "{top}");
        let tj = top_json(&study, &policy);
        assert!(tj.contains("\"schema\": \"opd-top-v1\""), "{tj}");
        assert!(tj.contains("\"slo_burns\": []"), "{tj}");
    }

    #[test]
    fn exposition_covers_the_service_metrics() {
        let snapshot = metrics_exposition(1, 64).expect("soak runs");
        let text = snapshot.to_prometheus();
        for key in [
            "# TYPE opd_serve_frames_processed counter",
            "# TYPE opd_serve_frame_latency_ticks histogram",
            "opd_serve_frame_latency_ticks_count",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
