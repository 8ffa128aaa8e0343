//! Tier-1 equivalence: the shared-window sweep engine must produce
//! results bit-identical to sequential per-config detector runs —
//! detected and anchored intervals alike — for the paper's full
//! policy grid (all three trailing-window strategies) on multiple
//! workloads, and for mixed multi-shape grids that exercise unit
//! planning and threaded distribution.

use opd_core::{anchored_intervals, detected_intervals, DetectorConfig, SweepEngine};
use opd_experiments::grid::{policy_grid, TwKind};
use opd_experiments::runner::{prepare_all, run_detector, sweep, sweep_many, PreparedWorkload};
use opd_microvm::workloads::Workload;

/// The paper's 20-config model × analyzer grid for every strategy:
/// Adaptive TW (the forking shared scan), Constant TW (the plain
/// shared scan), and Fixed Interval (shared windows with skip = cw).
fn full_policy_grid(cw: usize) -> Vec<DetectorConfig> {
    let mut configs = Vec::new();
    for kind in TwKind::ALL {
        configs.extend(policy_grid(kind, cw));
    }
    configs
}

fn workloads() -> Vec<PreparedWorkload> {
    prepare_all(
        &[Workload::Lexgen, Workload::Blockcomp],
        1,
        &[1_000],
        40_000,
        2,
    )
}

#[test]
fn engine_matches_sequential_over_full_policy_grid() {
    let prepared = workloads();
    let configs = full_policy_grid(500);
    let engine = SweepEngine::new(&configs);
    // Every sub-grid (20 configs each) must collapse into one shared
    // scan apiece: the Adaptive one through the forking scan, the
    // Constant and FixedInterval ones through the plain shared scan.
    assert_eq!(engine.total_scans(), 1 + 1 + 1);
    for p in &prepared {
        let total = p.interned().len() as u64;
        let all = engine.run_all(p.interned());
        for (i, &config) in configs.iter().enumerate() {
            let expected = run_detector(config, p.interned());
            assert_eq!(
                detected_intervals(&all[i], total),
                expected.detected,
                "{:?} config {i}: {config:?}",
                p.workload()
            );
            assert_eq!(
                anchored_intervals(&all[i], total),
                expected.anchored,
                "{:?} config {i}: {config:?}",
                p.workload()
            );
        }
    }
}

#[test]
fn threaded_sweep_equals_single_threaded_and_sequential() {
    let prepared = workloads();
    let configs = full_policy_grid(250);
    for p in &prepared {
        let one = sweep(p, &configs, 1);
        let four = sweep(p, &configs, 4);
        assert_eq!(one.len(), configs.len());
        for ((a, b), &config) in one.iter().zip(&four).zip(&configs) {
            let expected = run_detector(config, p.interned());
            assert_eq!(a.detected, b.detected, "{config:?}");
            assert_eq!(a.detected, expected.detected, "{config:?}");
            assert_eq!(a.anchored, b.anchored, "{config:?}");
            assert_eq!(a.anchored, expected.anchored, "{config:?}");
        }
    }
}

#[test]
fn multi_shape_multi_workload_distribution_is_exact() {
    let prepared = workloads();
    // Mixed shapes: two CW sizes per strategy, so the planner builds
    // several shared groups plus private units, and sweep_many spreads
    // (workload × unit) items over the thread pool.
    let mut configs = Vec::new();
    for cw in [200usize, 500] {
        configs.extend(full_policy_grid(cw));
    }
    let many = sweep_many(&prepared, &configs, 4);
    assert_eq!(many.len(), prepared.len());
    for (p, runs) in prepared.iter().zip(&many) {
        for (run, &config) in runs.iter().zip(&configs) {
            let expected = run_detector(config, p.interned());
            assert_eq!(run.detected, expected.detected, "{config:?}");
            assert_eq!(run.anchored, expected.anchored, "{config:?}");
        }
    }
}
