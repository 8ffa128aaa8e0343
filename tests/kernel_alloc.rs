//! Allocation discipline of the window kernel: a steady-state
//! detector run allocates nothing for any model, on every run path —
//! batch runs over an interned trace, `process` over its private log
//! (which stays bounded by the windows, however long the stream), and
//! a serve session's `process_log` over an `IdLog` reserved up front —
//! and pre-sizing the site tables from the static alphabet bound
//! (`reserve_sites`) moves every site-table growth out of the first
//! run. A counting global allocator wraps the system one and counts
//! per thread, so the tests run in parallel safely.

#[path = "common/alloc.rs"]
mod alloc;

use opd_core::{DetectorConfig, IdLog, InternedTrace, ModelPolicy, PhaseDetector};
use opd_microvm::workloads::Workload;

/// Allocations the calling thread makes during `run` (the detector
/// runs on it), so parallel neighbours cannot perturb the count.
fn allocations_during(run: impl FnOnce()) -> u64 {
    alloc::thread_allocations_during(run).1
}

fn workload_branches(fuel: u64) -> opd_trace::BranchTrace {
    let workload = Workload::Lexgen;
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(fuel)
        .run(&mut execution)
        .expect("workload executes");
    let (branches, _) = execution.into_parts();
    branches
}

fn workload_trace(fuel: u64) -> InternedTrace {
    InternedTrace::from_elements(workload_branches(fuel).iter().copied())
}

fn config_for(model: ModelPolicy) -> DetectorConfig {
    DetectorConfig::builder()
        .current_window(500)
        .model(model)
        .build()
        .expect("valid config")
}

#[test]
fn swar_steady_state_allocates_nothing_for_every_model() {
    let trace = workload_trace(20_000);
    for model in ModelPolicy::ALL_EXTENDED {
        let config = config_for(model);
        let mut detector = PhaseDetector::new(config);
        // Warm-up sizes the SWAR count/bit lanes and the phase buffer;
        // `reconfigure` clears state but keeps every capacity.
        let _ = detector.run_interned_phases_only(&trace);
        detector.reconfigure(config);
        let steady = allocations_during(|| {
            let _ = detector.run_interned_phases_only(&trace);
        });
        assert_eq!(steady, 0, "{model:?}: SWAR steady state allocated");
    }
}

#[test]
fn scalar_steady_state_allocates_nothing_for_set_models() {
    // The element-at-a-time path: `process` interns each step into a
    // private log and streams the kernel over it.
    const STREAM: usize = 20_000;
    let branches = workload_branches(60_000);
    let stream = &branches.as_slice()[..STREAM];
    for model in [ModelPolicy::UnweightedSet, ModelPolicy::WeightedSet] {
        let config = config_for(model);
        let run = |detector: &mut PhaseDetector| {
            for step in stream.chunks(config.skip_factor()) {
                detector.process(step);
            }
        };
        let mut detector = PhaseDetector::new(config);
        // The cold pass sizes every table. Its largest allocation is
        // bounded by the windows, not by the stream: the log drops the
        // ids before the TW, where an uncompacted log would hold all
        // 20,000 ids (80 KB).
        let ((), largest) = alloc::thread_max_allocation_during(|| run(&mut detector));
        let windows = config.current_window() + config.trailing_window() + config.skip_factor();
        assert!(
            largest <= 8 * windows * std::mem::size_of::<u32>(),
            "{model:?}: a {largest}-byte allocation; the private log is not compacted"
        );
        detector.reconfigure(config);
        let steady = allocations_during(|| run(&mut detector));
        assert_eq!(steady, 0, "{model:?}: warm process stream allocated");
    }
}

#[test]
fn streaming_steady_state_allocates_nothing_for_every_model() {
    let branches = workload_branches(20_000);
    let distinct = workload_trace(20_000).distinct_count() as usize;
    for model in ModelPolicy::ALL_EXTENDED {
        let config = config_for(model);
        let skip = config.skip_factor();
        let mut detector = PhaseDetector::new(config);
        detector.reserve_sites(distinct);
        // As a session does: log each 96-element frame, then consume
        // every full step. The cold pass sizes the phase buffer;
        // `reconfigure` keeps it for the measured pass.
        let stream = |detector: &mut PhaseDetector| {
            let mut log = IdLog::with_capacity(branches.len(), distinct);
            allocations_during(|| {
                for frame in branches.as_slice().chunks(96) {
                    log.extend(frame.iter().copied());
                    while log.len() - detector.elements_consumed() as usize >= skip {
                        detector.process_log(&log, skip);
                    }
                }
            })
        };
        let _ = stream(&mut detector);
        detector.reconfigure(config);
        assert_eq!(
            stream(&mut detector),
            0,
            "{model:?}: streaming steady state allocated"
        );
    }
}

#[test]
fn reserving_sites_up_front_moves_growth_out_of_the_first_streaming_run() {
    // The `process`/`run` path interns sites one at a time, so an
    // unreserved detector grows its site tables (kernel columns and
    // intern table) incrementally as new sites appear mid-trace.
    // `reserve_sites` pre-sizes them in one shot; both arms still pay
    // the same log and state-sequence allocations.
    let branches = workload_branches(20_000);
    let distinct = workload_trace(20_000).distinct_count() as usize;
    let config = config_for(ModelPolicy::WeightedSet);
    let cold = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        let _ = detector.run(&branches);
    });
    let presized = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        detector.reserve_sites(distinct);
        let _ = detector.run(&branches);
    });
    assert!(
        presized < cold,
        "pre-sizing did not remove first-run growth (cold {cold}, presized {presized})"
    );
}

#[test]
fn interned_first_runs_size_their_tables_in_one_shot() {
    // The interned paths pre-size from the trace's distinct count on
    // entry (SWAR lanes and counts), so even a cold first run performs
    // a small constant number of allocations — table sizing plus the
    // phase buffer — never per-site growth.
    let trace = workload_trace(20_000);
    let config = config_for(ModelPolicy::WeightedSet);
    let cold = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        let _ = detector.run_interned_phases_only(&trace);
    });
    assert!(
        cold <= 16,
        "cold interned run allocated {cold} times; site tables are growing incrementally"
    );
}
