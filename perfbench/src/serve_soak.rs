//! `serve_soak`: the committed soak shape through
//! `opd_serve::run_service` on one thread: 10,000 clients of 4 frames ×
//! 96 elements over the eight MicroVM workloads and the four serve
//! configs, 8% of frames corrupted, seeded kill/wedge/poison hazards.
//!
//! The seed picks one of [`SEED_CLASSES`] soak seeds, which drive
//! source offsets, fault placement and hazards. Every frame is
//! materialized into a `MemorySource` during setup, so slicing,
//! encoding and fault injection stay out of the timed region; rounds
//! repeat the soak over that one source.

use std::fmt::Write as _;
use std::time::Instant;

use opd_core::PhaseDetector;
use opd_experiments::serve::{
    soak_config, WorkloadSource, SERVE_SEED, SOAK_CLIENTS, SOAK_FAULT_RATE, SOAK_FRAMES,
    SOAK_FRAME_ELEMENTS,
};
use opd_obs::MetricsRegistry;
use opd_serve::{
    run_service, run_service_with, FrameSource, MemorySource, NullSubscriber, ServeConfig,
    ServiceMetrics, ServiceOptions, ServiceReport,
};

use crate::span::Tracer;
use crate::util::{self, least, median, repeat_for, Calibration};
use crate::{Layers, Metric, Outcome};

/// Distinct soak seeds; `--seed` selects `seed % SEED_CLASSES`, and
/// class 0 is the committed soak.
pub const SEED_CLASSES: u64 = 16;

const SOAK_REF: &str = "serve_soak.txt";

fn soak_seed(seed: u64) -> u64 {
    SERVE_SEED + seed % SEED_CLASSES
}

fn config(seed: u64) -> ServeConfig {
    let mut config = soak_config();
    config.hazards.seed = soak_seed(seed);
    config
}

fn options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

/// Builds the soak's workload source and materializes every frame.
fn materialize(seed: u64) -> MemorySource {
    let source = WorkloadSource::build(
        1,
        SOAK_CLIENTS,
        SOAK_FRAMES,
        SOAK_FRAME_ELEMENTS,
        SOAK_FAULT_RATE,
        soak_seed(seed),
    );
    let mut memory = MemorySource::new();
    for client in 0..source.clients() {
        let frames = (0..source.frames(client))
            .map(|i| source.frame(client, i))
            .collect();
        memory.push_client(source.detector_config(client), frames);
    }
    memory
}

fn frames_offered(source: &MemorySource) -> u64 {
    (0..source.clients())
        .map(|c| u64::from(source.frames(c)))
        .sum()
}

/// The recorded outcome of one seed class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    frames_processed: u64,
    digest: u64,
}

fn load_reference(seed: u64) -> Result<Expected, String> {
    let text = String::from_utf8(util::read_reference(SOAK_REF)?)
        .map_err(|e| format!("{SOAK_REF}: {e}"))?;
    let class = seed % SEED_CLASSES;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = (|| -> Option<(u64, u64, u64)> {
            Some((
                f.first()?.parse().ok()?,
                f.get(1)?.parse().ok()?,
                u64::from_str_radix(f.get(2)?, 16).ok()?,
            ))
        })();
        let (c, frames_processed, digest) =
            parsed.ok_or_else(|| format!("{SOAK_REF}: bad line {line:?}"))?;
        if c == class {
            return Ok(Expected {
                frames_processed,
                digest,
            });
        }
    }
    Err(format!("{SOAK_REF}: no entry for seed class {class}"))
}

/// `true` if a soak report passes every check.
fn report_ok(report: &ServiceReport, expected: Expected) -> bool {
    report.verify_failures() == 0
        && report.conservation_holds()
        && report.frames_processed() == expected.frames_processed
        && report.aggregate_digest() == expected.digest
}

/// Writes the reference outcomes of every seed class.
pub fn record() -> Result<(), String> {
    let mut text = String::from("# seed class, frames processed, aggregate digest\n");
    for class in 0..SEED_CLASSES {
        let source = materialize(class);
        let report = run_service(&config(class), &source, &options())
            .map_err(|e| format!("soak failed: {e}"))?;
        if report.verify_failures() != 0 || !report.conservation_holds() {
            return Err(format!("seed class {class}: soak failed its own checks"));
        }
        let _ = writeln!(
            text,
            "{class} {} {:016x}",
            report.frames_processed(),
            report.aggregate_digest()
        );
    }
    util::write_reference(SOAK_REF, text.as_bytes())
}

/// One untraced soak; returns its time and report.
fn plain_round(
    config: &ServeConfig,
    source: &MemorySource,
) -> Result<(f64, ServiceReport), String> {
    let started = Instant::now();
    let report = run_service(config, source, &options()).map_err(|e| format!("soak: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), report))
}

/// The end-to-end run: tracing off. Every round builds and
/// materializes the source again (timed as set-up), then soaks it,
/// between two host calibrations; both times are scaled to the
/// reference speed and reported as medians over rounds.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let expected = load_reference(seed)?;
    let config = config(seed);
    let mut calibration = Calibration::new();
    let mut setup_times = Vec::new();
    let mut times = Vec::new();
    let mut raw_times = Vec::new();
    let mut scales = Vec::new();
    let mut peaks = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut last = None;
    repeat_for(seconds, 3, || {
        drop(last.take());
        let before = calibration.measure();
        let mut setups = Vec::with_capacity(1);
        let source = util::timed_reps(1, &mut setups, || materialize(seed));
        util::reset_peak_rss()?;
        let (secs, report) = plain_round(&config, &source)?;
        peaks.push(util::peak_rss_mb()?);
        let after = calibration.measure();
        let scale = Calibration::scale(before, after);
        scales.push(scale);
        setup_times.extend(setups.iter().map(|s| s * scale));
        times.push(secs * scale);
        raw_times.push(secs);
        attempted += 1;
        failed += u64::from(!report_ok(&report, expected));
        last = Some((source, report));
        Ok(())
    })?;
    let (source, report) = last.expect("at least one round");
    let offered = frames_offered(&source);
    let processed = report.frames_processed();
    let wall_s = median(&times);
    println!(
        "serve_soak: {} rounds of {} clients (seed class {}), {processed}/{offered} frames; \
         soak s min/median/max raw {}, scaled {}; host scale {}; scaled setup {}; peak MiB {}",
        times.len(),
        source.clients(),
        seed % SEED_CLASSES,
        util::spread(&raw_times),
        util::spread(&times),
        util::spread(&scales),
        util::spread(&setup_times),
        util::spread(&peaks)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new(
                "config_elements_per_s",
                report.elements_accepted() as f64 / wall_s,
                "1/s",
            ),
            Metric::new("frames_per_s", processed as f64 / wall_s, "1/s"),
            Metric::new("peak_rss_mb", median(&peaks), "MiB"),
            Metric::new("ok_frac", processed as f64 / offered as f64, "ratio"),
        ],
    })
}

/// Decodes every offered frame through the resync decoder and streams
/// each client's decoded frames through a fresh detector, one span per
/// layer per client.
fn layer_pass(source: &MemorySource, tracer: &mut Tracer) {
    for client in 0..source.clients() {
        let decoded: Vec<_> = tracer.span("trace.resync.decode", |t| {
            (0..source.frames(client))
                .map(|i| {
                    let bytes = source.frame(client, i);
                    let (trace, report) = opd_trace::decode_trace_resync(&bytes);
                    t.count("trace.resync.bytes", bytes.len() as u64);
                    t.count("trace.resync.records_lost", report.records_lost());
                    trace
                })
                .collect()
        });
        tracer.span("core.detector.stream", |_| {
            // As a session does: the decoded elements in order, fed to
            // the detector one full `skip_factor` step at a time.
            let config = source.detector_config(client);
            let mut detector = PhaseDetector::new(config);
            let accepted: Vec<_> = decoded
                .iter()
                .flat_map(|t| t.branches().as_slice().iter().copied())
                .collect();
            for step in accepted.chunks_exact(config.skip_factor()) {
                std::hint::black_box(detector.process(step));
            }
        });
    }
}

/// The traced run: untraced soaks, soaks with the service's metrics
/// registry on (the traced rounds), and soaks with verification off,
/// interleaved; then one pass through the decode and detector layers.
pub fn layers(seed: u64, seconds: f64, tracer_out: &str) -> Result<Layers, String> {
    let expected = load_reference(seed)?;
    let config = config(seed);
    let unverified = ServeConfig {
        verify: false,
        ..config
    };
    let source = materialize(seed);
    let mut tracer = Tracer::new();
    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut unverified_times = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut last = None;
    repeat_for(seconds, 2, || {
        let mut registry = MetricsRegistry::new(1);
        let metrics = ServiceMetrics::register(&mut registry);
        let (secs, report) = plain_round(&config, &source)?;
        plain_times.push(secs);
        let started = Instant::now();
        let traced = tracer.span("serve_soak.round", |t| {
            t.span("serve.run", |_| {
                run_service_with(
                    &config,
                    &source,
                    &options(),
                    &NullSubscriber,
                    Some((&registry, &metrics)),
                )
            })
        });
        traced_times.push(started.elapsed().as_secs_f64());
        let traced = traced.map_err(|e| format!("soak: {e}"))?;
        let (secs, _) = plain_round(&unverified, &source)?;
        unverified_times.push(secs);
        attempted += 2;
        failed += u64::from(!report_ok(&report, expected));
        failed += u64::from(!report_ok(&traced, expected));
        last = Some((traced, registry.snapshot()));
        Ok(())
    })?;
    let rounds = traced_times.len();
    let mut layer = Tracer::new();
    layer.span("serve_soak.layers", |t| layer_pass(&source, t));
    tracer
        .write(&util::out_dir().join(tracer_out))
        .map_err(|e| format!("writing spans: {e}"))?;
    let (table, unattributed_frac) = tracer.layer_table("serve_soak.round", rounds);
    let (layer_table, _) = layer.layer_table("serve_soak.layers", 1);
    println!(
        "serve_soak traced: {rounds} rounds, per round:\n{table}decode and detector layers (one pass):\n{layer_table}"
    );

    let (report, snapshot) = last.expect("at least one round");
    let step = snapshot
        .histogram("serve.step_ns")
        .ok_or("the service registered no step histogram")?;
    let step_us = |q: f64| step.percentile(q).unwrap_or(0.0) / 1e3;
    let layer_own = layer.self_seconds();
    let layer_s = |name: &str| layer_own.get(name).copied().unwrap_or(0.0);
    let own = tracer.self_seconds();
    let verified_s = least(&plain_times);
    let run_s = own.get("serve.run").copied().unwrap_or(0.0) / rounds as f64;
    let side_pass_s = layer_s("trace.resync.decode") + layer_s("core.detector.stream");
    // Verification's cost: the median over rounds of the verified soak
    // minus the unverified soak next to it. Host noise can make that
    // negative when verification is cheap; it is then reported as 0.
    let verify_diffs: Vec<f64> = plain_times
        .iter()
        .zip(&unverified_times)
        .map(|(v, u)| v - u)
        .collect();
    let mut verify_s = median(&verify_diffs);
    if verify_s < 0.0 {
        println!(
            "serve.verify_s: the verified soak was faster than the unverified one \
             by {:.6} s (median of {rounds} pairs); reported as 0",
            -verify_s
        );
        verify_s = 0.0;
    }
    println!(
        "serve_soak: the traced soak is one opaque span (serve.run); the decode and \
         detector side pass covers {:.1}% of its time",
        100.0 * side_pass_s / run_s
    );
    Ok(Layers {
        attempted,
        failed,
        overhead_frac: least(&traced_times) / verified_s - 1.0,
        unattributed_frac,
        metrics: vec![
            Metric::new("serve.run_s", run_s, "s"),
            Metric::new("serve.verify_s", verify_s, "s"),
            Metric::new("serve.side_pass_frac", side_pass_s / run_s, "ratio"),
            Metric::new("trace.resync.decode_s", layer_s("trace.resync.decode"), "s"),
            Metric::new(
                "trace.resync.bytes",
                layer.counter("trace.resync.bytes") as f64,
                "count",
            ),
            Metric::new(
                "trace.resync.records_lost",
                layer.counter("trace.resync.records_lost") as f64,
                "count",
            ),
            Metric::new(
                "core.detector.stream_s",
                layer_s("core.detector.stream"),
                "s",
            ),
            Metric::new("serve.step_us_p50", step_us(0.5), "us"),
            Metric::new("serve.step_us_p99", step_us(0.99), "us"),
            Metric::new("serve.step_samples", step.count() as f64, "count"),
            Metric::new(
                "serve.sessions_completed",
                report.completed() as f64,
                "count",
            ),
            Metric::new(
                "serve.sessions_quarantined",
                report.quarantined() as f64,
                "count",
            ),
            Metric::new(
                "serve.frames_lost",
                report.shed().lost_frames() as f64,
                "count",
            ),
            Metric::new("serve.restarts", report.restarts() as f64, "count"),
        ],
    })
}
