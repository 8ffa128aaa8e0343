//! The allocation half of the zero-overhead-when-off claim for
//! causal spans. The plain engine is the traced engine monomorphized
//! over `NullSpanRecorder`, whose `R::ACTIVE` guards compile every span
//! construction, flight-ring push, and post-mortem dump out. The same
//! soak recorded into a `SpanLog` must report bit-identically and
//! allocate strictly more, which shows the counter sees the span layer.
//! A second pin bounds what a one-thread run allocates at all: per
//! delivered frame and per vshard, never per session, since sessions
//! run on their worker's recycled buffers.
//!
//! A counting global allocator wraps the system one. The count is
//! process-wide, so it would also see worker threads, and each test
//! holds the allocator's serialization lock so no other counting test
//! of this binary runs meanwhile.

#[path = "common/alloc.rs"]
mod alloc;

use opd_experiments::dash::{dash_config, dash_source};
use opd_obs::SpanLog;
use opd_serve::{run_service, run_service_traced, NullSubscriber, ServiceOptions, TraceConfig};

#[test]
fn span_log_service_allocates_beyond_the_null_recorder() {
    let serialized = alloc::serialize();
    let source = dash_source(1, 96);
    let config = dash_config();
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    let null_run = || run_service(&config, &source, &options).expect("plain soak runs");
    let span_run = || {
        run_service_traced::<SpanLog>(
            &config,
            &source,
            &options,
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("traced soak runs")
    };

    // Warm both arms, then pin the null path's run-to-run allocation
    // determinism before comparing against it.
    let _ = null_run();
    let _ = span_run();
    let (null_report, null) = alloc::process_allocations_during(&serialized, null_run);
    let (_, null_again) = alloc::process_allocations_during(&serialized, null_run);
    assert_eq!(
        null, null_again,
        "the null-recorder engine must allocate deterministically for this gate to mean anything"
    );

    let ((span_report, trace), recorded) = alloc::process_allocations_during(&serialized, span_run);
    assert_eq!(
        null_report, span_report,
        "recording spans must not change the report"
    );
    assert!(!trace.spans.is_empty(), "the SpanLog run records spans");
    assert!(
        recorded > null,
        "recording spans must allocate beyond the null recorder \
         (null {null}, SpanLog {recorded})"
    );
}

/// Allocations a one-thread run may make per delivered frame, in
/// quarters. The dashboard source builds each frame on demand, at
/// about 2.08 allocations a frame (1,200 for the run's 576 frames);
/// the session layer adds none per frame.
const QUARTER_ALLOCATIONS_PER_FRAME: u64 = 10;

/// Allocations a one-thread run may make per vshard on top: the
/// vshard's session, tracer and report lists, and the growth of the
/// worker's recycled session buffers.
const ALLOCATIONS_PER_VSHARD: u64 = 4;

/// Session buffers come from the worker's scratch, so a one-thread run
/// allocates per frame and per vshard, not per session. On this
/// 96-client, 48-vshard run that is 1,376 allocations against a bound
/// of 1,632; building each session's log and detectors afresh, as the
/// engine once did, took 4,598. A change that brings back per-session
/// allocation of three or more fails here.
#[test]
fn one_thread_service_allocates_per_frame_and_vshard() {
    let serialized = alloc::serialize();
    let source = dash_source(1, 96);
    let config = dash_config();
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    let run = || run_service(&config, &source, &options).expect("soak runs");
    let _ = run();
    let (report, allocations) = alloc::process_allocations_during(&serialized, run);
    let frames: u64 = report
        .sessions
        .iter()
        .map(|r| r.stats.frames_delivered)
        .sum();
    let bound = QUARTER_ALLOCATIONS_PER_FRAME * frames / 4
        + ALLOCATIONS_PER_VSHARD * u64::from(report.vshards);
    assert!(
        allocations < bound,
        "{allocations} allocations for {frames} delivered frames over {} vshards \
         (bound {bound}): something allocates per session again",
        report.vshards
    );
}
