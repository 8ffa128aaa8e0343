//! The allocation half of the zero-overhead-when-off claim for
//! causal spans: the traced service engine monomorphized over
//! `NullSpanRecorder` must allocate exactly as often as the plain
//! engine — the `R::ACTIVE` guards compile every span construction,
//! flight-ring push, and post-mortem dump out of the disabled path.
//! A counting global allocator wraps the system one. The count is
//! process-wide, so it would also see worker threads, and the test
//! holds the allocator's serialization lock so no other counting test
//! of this binary runs meanwhile.

#[path = "common/alloc.rs"]
mod alloc;

use opd_experiments::dash::{dash_config, dash_source};
use opd_obs::NullSpanRecorder;
use opd_serve::{run_service, run_service_traced, NullSubscriber, ServiceOptions, TraceConfig};

#[test]
fn null_span_traced_service_allocates_exactly_like_plain() {
    let serialized = alloc::serialize();
    let source = dash_source(1, 96);
    let config = dash_config();
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    let traced = || {
        run_service_traced::<NullSpanRecorder>(
            &config,
            &source,
            &options,
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("traced soak runs")
        .0
    };

    // Warm both arms, then pin the plain engine's run-to-run
    // allocation determinism before comparing against it.
    let _ = run_service(&config, &source, &options).expect("plain soak runs");
    let _ = traced();
    let plain_run = || run_service(&config, &source, &options).expect("plain soak runs");
    let (plain_report, plain) = alloc::process_allocations_during(&serialized, plain_run);
    let (_, plain_again) = alloc::process_allocations_during(&serialized, plain_run);
    assert_eq!(
        plain, plain_again,
        "the plain engine must allocate deterministically for this gate to mean anything"
    );

    let (traced_report, instrumented) = alloc::process_allocations_during(&serialized, traced);
    assert_eq!(
        plain_report, traced_report,
        "traced-null and plain runs must be bit-identical"
    );
    // `<=`, not `==`: the traced driver sizes its work list exactly
    // (no checkpoint-resume filter), so it may allocate slightly
    // *fewer* times — what the gate forbids is any span-layer
    // allocation on top of the plain engine.
    assert!(
        instrumented <= plain,
        "the NullSpanRecorder path must not allocate beyond the plain engine \
         (plain {plain}, traced-null {instrumented})"
    );
}
