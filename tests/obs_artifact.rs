//! The committed `BENCH_obs.json` artifact: structural validity, the
//! ≤2% NullObserver-overhead acceptance line, and freshness of every
//! deterministic field — the per-bucket counters are regenerated by a
//! metered sweep at the artifact's recorded scale and fuel and must
//! match exactly (only wall-clock and the overhead timings are
//! machine-dependent).

mod common;

use common::{parse_json, Json};

use opd_experiments::grid::default_plan_grid;
use opd_experiments::obs::{sweep_many_profiled, OBS_SAMPLES};
use opd_experiments::runner::prepare_all;
use opd_microvm::workloads::Workload;

fn committed() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_obs.json"))
        .expect("BENCH_obs.json is committed at the repository root");
    parse_json(&text).expect("BENCH_obs.json parses as one JSON document")
}

#[test]
fn overhead_is_within_the_acceptance_line() {
    let doc = committed();
    let overhead = doc.get("overhead");
    let ratio = overhead.get("ratio").num();
    assert!(
        ratio <= 1.02,
        "recorded NullObserver overhead {:.2}% exceeds the 2% acceptance line; \
         regenerate with `cargo run --release --bin opd -- sweep --stats --write`",
        (ratio - 1.0) * 100.0
    );
    assert!(ratio > 0.5, "nonsensical overhead ratio {ratio}");
    assert_eq!(overhead.get("samples").as_u64(), OBS_SAMPLES as u64);
    assert!(overhead.get("plain_nanos").as_u64() > 0);
    assert!(overhead.get("instrumented_nanos").as_u64() > 0);
}

#[test]
fn committed_artifact_is_structurally_valid_and_current() {
    let doc = committed();
    assert_eq!(doc.get("schema").str(), "opd-bench-obs-v2");
    assert_eq!(doc.get("kernel").str(), "swar");
    let scale = doc.get("scale").as_u64() as u32;
    let fuel = doc.get("fuel").as_u64();
    let configs = default_plan_grid();
    assert_eq!(doc.get("grid_configs").as_u64(), configs.len() as u64);

    let buckets = doc.get("buckets").arr();
    assert_eq!(
        buckets.len(),
        Workload::ALL.len(),
        "the default grid collapses to one shared bucket per workload"
    );

    // Regenerate the deterministic fields at the recorded scale and
    // fuel: the metered counters must match the artifact bit-for-bit.
    let prepared = prepare_all(&Workload::ALL, scale, &[1_000], fuel, 2);
    let (_, profile) = sweep_many_profiled(&prepared, &configs, 1);
    assert_eq!(profile.buckets.len(), buckets.len());
    for (b, fresh) in buckets.iter().zip(&profile.buckets) {
        assert_eq!(b.get("workload").str(), fresh.workload);
        assert_eq!(b.get("unit").as_u64(), fresh.unit_index as u64);
        assert_eq!(b.get("kernel").str(), fresh.kernel);
        assert_eq!(b.get("shared").boolean(), fresh.shared);
        assert_eq!(b.get("members").as_u64(), fresh.members as u64);
        for (key, value) in [
            ("scans", fresh.metrics.scans),
            ("steps", fresh.metrics.steps),
            ("judged_steps", fresh.metrics.judged_steps),
            ("compare_ops", fresh.metrics.compare_ops),
            ("elements", fresh.metrics.elements),
        ] {
            assert_eq!(
                b.get(key).as_u64(),
                value,
                "stale `{key}` for {}; regenerate with \
                 `cargo run --release --bin opd -- sweep --stats --write`",
                fresh.workload
            );
        }
        assert_eq!(
            b.get("static_compare_bound").as_u64(),
            fresh.static_compare_bound.expect("bound computable"),
        );
        assert!(b.get("compare_ops").as_u64() <= b.get("static_compare_bound").as_u64());
    }

    let totals = doc.get("totals");
    let fresh_totals = profile.totals();
    assert_eq!(totals.get("scans").as_u64(), fresh_totals.scans);
    assert_eq!(totals.get("steps").as_u64(), fresh_totals.steps);
    assert_eq!(
        totals.get("judged_steps").as_u64(),
        fresh_totals.judged_steps
    );
    assert_eq!(totals.get("compare_ops").as_u64(), fresh_totals.compare_ops);
    assert_eq!(totals.get("elements").as_u64(), fresh_totals.elements);
    assert_eq!(
        totals.get("static_compare_bound").as_u64(),
        profile.static_compare_bound().expect("bound computable")
    );
    assert!(doc.get("lpt_imbalance").num() >= 1.0 || doc.get("lpt_imbalance").num() == 0.0);
    assert!(doc.get("threads").as_u64() >= 1);
}
