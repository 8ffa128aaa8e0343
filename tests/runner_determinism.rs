//! Thread-count independence of the sweep: results and the
//! deterministic BENCH-artifact fields must be bit-identical across
//! `--threads 1`, `2`, and `8`. The work loop (`opd_core::lpt`) hands
//! every worker's outputs to the calling thread after the join, and
//! every bucket's content depends only on its `(workload, unit)`
//! inputs, so the thread plan cannot leak into the output; this test
//! is what checks that claim.

use opd_core::DetectorConfig;
use opd_experiments::checkpoint::{run_fingerprint, sweep_many_checkpointed};
use opd_experiments::grid::{policy_grid, TwKind};
use opd_experiments::obs::sweep_many_profiled;
use opd_experiments::runner::{prepare_all, sweep_many, ConfigRun};
use opd_microvm::workloads::Workload;

const THREADS: [usize; 3] = [1, 2, 8];

fn grid() -> Vec<DetectorConfig> {
    // Mixes shared-eligible Constant-TW configs with private adaptive
    // ones, so both engine paths cross thread boundaries.
    let mut configs = policy_grid(TwKind::Constant, 500);
    configs.extend(policy_grid(TwKind::Adaptive, 250));
    configs
}

fn assert_runs_identical(a: &[Vec<ConfigRun>], b: &[Vec<ConfigRun>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: workload count");
    for (wa, wb) in a.iter().zip(b) {
        assert_eq!(wa.len(), wb.len(), "{what}: config count");
        for (ra, rb) in wa.iter().zip(wb) {
            assert_eq!(ra.detected, rb.detected, "{what}: {:?}", ra.config);
            assert_eq!(ra.anchored, rb.anchored, "{what}: {:?}", ra.config);
        }
    }
}

#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let ws = [Workload::Lexgen, Workload::Blockcomp];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000, 2);
    let configs = grid();
    let baseline = sweep_many(&prepared, &configs, THREADS[0]);
    for &threads in &THREADS[1..] {
        let runs = sweep_many(&prepared, &configs, threads);
        assert_runs_identical(&baseline, &runs, &format!("threads={threads}"));
    }
}

#[test]
fn profiled_sweep_artifact_fields_are_thread_count_independent() {
    // The deterministic BENCH_obs.json fields: per-bucket and total
    // counters must not depend on which worker ran which bucket.
    let ws = [Workload::Lexgen];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000, 2);
    let configs = grid();
    let (base_runs, base_profile) = sweep_many_profiled(&prepared, &configs, THREADS[0]);
    for &threads in &THREADS[1..] {
        let (runs, profile) = sweep_many_profiled(&prepared, &configs, threads);
        assert_runs_identical(&base_runs, &runs, &format!("profiled threads={threads}"));
        assert_eq!(profile.buckets.len(), base_profile.buckets.len());
        for (b, base) in profile.buckets.iter().zip(&base_profile.buckets) {
            assert_eq!(b.workload, base.workload);
            assert_eq!(b.unit_index, base.unit_index);
            assert_eq!(b.shared, base.shared);
            assert_eq!(b.members, base.members);
            for (key, got, want) in [
                ("scans", b.metrics.scans, base.metrics.scans),
                ("steps", b.metrics.steps, base.metrics.steps),
                (
                    "judged_steps",
                    b.metrics.judged_steps,
                    base.metrics.judged_steps,
                ),
                (
                    "compare_ops",
                    b.metrics.compare_ops,
                    base.metrics.compare_ops,
                ),
                ("elements", b.metrics.elements, base.metrics.elements),
            ] {
                assert_eq!(
                    got, want,
                    "threads={threads}: `{key}` drifted for {} unit {}",
                    b.workload, b.unit_index
                );
            }
            assert_eq!(b.static_compare_bound, base.static_compare_bound);
        }
        let (t, bt) = (profile.totals(), base_profile.totals());
        assert_eq!(
            (t.scans, t.steps, t.judged_steps, t.compare_ops, t.elements),
            (
                bt.scans,
                bt.steps,
                bt.judged_steps,
                bt.compare_ops,
                bt.elements
            ),
            "threads={threads}: sweep totals drifted"
        );
    }
}

#[test]
fn checkpointed_sweep_is_thread_count_independent_and_resumable_across_counts() {
    let dir = std::env::temp_dir().join(format!("opd_runner_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let ws = [Workload::Lexgen];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000, 2);
    let configs = grid();
    let fingerprint = run_fingerprint(&configs, &ws, 1, 50_000);
    let baseline = sweep_many(&prepared, &configs, 1);

    for &threads in &THREADS {
        let path = dir.join(format!("sweep_t{threads}.ckpt"));
        let (runs, summary) =
            sweep_many_checkpointed(&prepared, &configs, threads, &path, fingerprint, false)
                .expect("checkpointed sweep succeeds");
        assert_runs_identical(&baseline, &runs, &format!("checkpoint threads={threads}"));
        assert_eq!(summary.restored_buckets, 0);
        assert!(summary.computed_buckets > 0);

        // A checkpoint written at one thread count restores bit-identical
        // results at another: record order in the file may differ, but
        // bucket content cannot.
        let resume_threads = THREADS[(THREADS.iter().position(|&t| t == threads).unwrap() + 1) % 3];
        let (restored, summary) = sweep_many_checkpointed(
            &prepared,
            &configs,
            resume_threads,
            &path,
            fingerprint,
            true,
        )
        .expect("resume succeeds");
        assert_runs_identical(
            &baseline,
            &restored,
            &format!("resume threads={threads}->{resume_threads}"),
        );
        assert_eq!(summary.computed_buckets, 0, "everything restores");
        assert_eq!(summary.damaged_tail_bytes, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
