//! The committed `BENCH_kernel.json` artifact: structural validity,
//! the kernel-rewrite acceptance lines (SWAR full-grid sweep under
//! budget and at least the minimum speedup over the pre-rewrite
//! baseline, bit-identical results across kernels), and freshness of
//! every deterministic field — the grid size and trace shape are
//! regenerated and must match exactly (only the wall-clock timings
//! are machine-dependent).

mod common;

use common::{parse_json, Json};

use opd_experiments::grid::full_grid;
use opd_experiments::kernel_bench::{
    BASELINE_SWEEP_SECONDS, MIN_BASELINE_SPEEDUP, SWAR_BUDGET_SECONDS,
};
use opd_experiments::runner::PreparedWorkload;
use opd_microvm::workloads::Workload;

fn committed() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernel.json"))
        .expect("BENCH_kernel.json is committed at the repository root");
    parse_json(&text).expect("BENCH_kernel.json parses as one JSON document")
}

#[test]
fn committed_artifact_meets_the_acceptance_lines() {
    let doc = committed();
    assert_eq!(doc.get("schema").str(), "opd-bench-kernel-v1");
    assert_eq!(doc.get("workload").str(), "ruleng");
    assert_eq!(
        doc.get("baseline_sweep_seconds").num(),
        BASELINE_SWEEP_SECONDS
    );
    assert!(doc.get("threads").as_u64() >= 1);

    let kernels = doc.get("kernels").arr();
    assert_eq!(kernels.len(), 2);
    let swar = &kernels[0];
    let scalar = &kernels[1];
    assert_eq!(swar.get("kernel").str(), "swar");
    assert_eq!(scalar.get("kernel").str(), "scalar");

    let swar_seconds = swar.get("sweep_seconds").num();
    assert!(
        swar_seconds < SWAR_BUDGET_SECONDS,
        "recorded SWAR sweep {swar_seconds:.1}s exceeds the {SWAR_BUDGET_SECONDS:.0}s budget; \
         the artifact is a frozen record and cannot be regenerated"
    );
    let speedup = swar.get("speedup_vs_baseline").num();
    assert!(
        speedup >= MIN_BASELINE_SPEEDUP,
        "recorded SWAR speedup {speedup:.2}x is below the {MIN_BASELINE_SPEEDUP:.0}x line"
    );
    // The recorded speedup must be the recorded division, not a
    // hand-edited number (two decimals of rounding slack).
    assert!((speedup - BASELINE_SWEEP_SECONDS / swar_seconds).abs() < 0.01);
    assert!(scalar.get("sweep_seconds").num() > 0.0);
    assert!(doc.get("swar_speedup_vs_scalar").num() >= 1.0);

    assert!(
        doc.get("results_identical").boolean(),
        "the committed benchmark saw the kernels diverge"
    );
}

#[test]
fn committed_artifact_is_fresh_for_the_current_grid_and_workload() {
    // Regenerate the deterministic fields: the swept grid and the
    // benchmark trace must be the ones the committed timings measured.
    let doc = committed();
    assert_eq!(doc.get("grid_configs").as_u64(), full_grid().len() as u64);
    let scale = doc.get("scale").as_u64() as u32;
    let prepared = PreparedWorkload::prepare(Workload::Ruleng, scale, &[]);
    assert_eq!(
        doc.get("trace_elements").as_u64(),
        prepared.total_elements(),
        "stale trace_elements; the artifact is a frozen record of the kernel rewrite \
         and cannot be regenerated"
    );
    assert_eq!(
        doc.get("trace_distinct").as_u64(),
        u64::from(prepared.interned().distinct_count())
    );
}
