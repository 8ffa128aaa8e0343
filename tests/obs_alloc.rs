//! The allocation half of the zero-overhead-when-off claim: a
//! steady-state detector run through the instrumented path with a
//! `NullObserver` must allocate exactly as much as the uninstrumented
//! path — nothing. A counting global allocator wraps the system one
//! and counts per thread, so no concurrent test can perturb the
//! count.

#[path = "common/alloc.rs"]
mod alloc;

use opd_core::{DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector};
use opd_microvm::workloads::Workload;
use opd_obs::NullObserver;

/// Allocations the calling thread makes during `run` (the detector
/// runs on it), so parallel neighbours cannot perturb the count.
fn allocations_during(run: impl FnOnce()) -> u64 {
    alloc::thread_allocations_during(run).1
}

#[test]
fn null_observed_steady_state_allocates_nothing() {
    let workload = Workload::Lexgen;
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(20_000)
        .run(&mut execution)
        .expect("workload executes");
    let trace = InternedTrace::from_elements(execution.branches().iter().copied());

    // Pearson similarity builds a site-union scratch per judgement,
    // so the allocation-free guarantee covers the set models; both
    // tracked-window models take the zero-allocation path.
    for model in [ModelPolicy::UnweightedSet, ModelPolicy::WeightedSet] {
        let config = DetectorConfig::builder()
            .current_window(500)
            .model(model)
            .build()
            .expect("valid config");
        let mut detector = PhaseDetector::new(config);

        // Warm-up: sizes the site tables and the phase buffer. The
        // follow-up runs reuse them via `reconfigure`, which clears
        // state but keeps capacity.
        let _ = detector.run_interned_phases_observed(&trace, &mut NullObserver);

        detector.reconfigure(config);
        let plain = allocations_during(|| {
            let _ = detector.run_interned_phases_only(&trace);
        });
        assert_eq!(plain, 0, "{model:?}: uninstrumented steady state allocated");

        detector.reconfigure(config);
        let observed = allocations_during(|| {
            let _ = detector.run_interned_phases_observed(&trace, &mut NullObserver);
        });
        assert_eq!(
            observed, 0,
            "{model:?}: null-observed steady state allocated"
        );
    }
}
