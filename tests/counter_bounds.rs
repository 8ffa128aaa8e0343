//! Runtime counters vs the static cost model (PR 3): the metered
//! sweep's scan, step, and element counters must match
//! `opd-analyze`'s predictions exactly, and its measured comparison
//! ops must respect the model's upper bound, for the default
//! 28-config grid on every workload. Where the model is exact
//! (scans, steps, elements) equality is asserted; comparison ops are
//! bounded above because the model charges every step while the
//! detector only judges warm ones.

use opd_analyze::{predicted_scans, ConfigCost};
use opd_core::{PhaseDetector, SweepEngine, SweepScratch, UnitKind};
use opd_experiments::grid::{default_plan_grid, policy_grid, TwKind};
use opd_experiments::obs::sweep_many_profiled;
use opd_experiments::runner::{prepare_all, PreparedWorkload};
use opd_microvm::workloads::Workload;
use opd_obs::{MeterObserver, UnitMetrics};

const FUEL: u64 = 12_000;

fn prepared_workloads() -> Vec<PreparedWorkload> {
    prepare_all(&Workload::ALL, 1, &[1_000], FUEL, 2)
}

#[test]
fn metered_counters_match_static_predictions_on_the_default_grid() {
    let configs = default_plan_grid();
    let engine = SweepEngine::new(&configs);
    for p in prepared_workloads() {
        let elements = p.total_elements();
        let alphabet = p.site_capacity() as u64;
        let mut scratch = SweepScratch::with_site_capacity(p.site_capacity());
        let mut total = UnitMetrics::new();
        for (ui, unit) in engine.units().iter().enumerate() {
            let mut metrics = UnitMetrics::new();
            let _ = engine.run_unit_metered(ui, p.interned(), &mut scratch, &mut metrics);

            let members = unit.config_indices();
            let costs: Vec<ConfigCost> = members
                .iter()
                .map(|&ci| ConfigCost::of(&configs[ci], elements, alphabet))
                .collect();
            // Scans and steps are exact: one shared scan walks the
            // trace once at the unit's common shape; a private unit
            // walks it once per member.
            let predicted_steps: u64 = if unit.is_shared() {
                costs[0].steps()
            } else {
                costs.iter().map(ConfigCost::steps).sum()
            };
            assert_eq!(
                metrics.scans,
                unit.scans() as u64,
                "workload {:?}",
                p.workload()
            );
            assert_eq!(
                metrics.steps,
                predicted_steps,
                "workload {:?}",
                p.workload()
            );
            assert_eq!(metrics.elements, metrics.scans * elements);
            // Judged steps: at most one judgement per (member, step),
            // and the sweep must actually judge something.
            assert!(metrics.judged_steps <= predicted_steps * members.len() as u64);
            assert!(metrics.judged_steps > 0);
            // Comparison ops: bounded by the model, which charges
            // every step (warm or not) at the per-step rate.
            let bound: u64 = costs
                .iter()
                .map(|c| c.compare_ops().expect("no overflow at this fuel"))
                .sum();
            assert!(
                metrics.compare_ops <= bound,
                "workload {:?} unit {ui}: {} compare ops exceed static bound {bound}",
                p.workload(),
                metrics.compare_ops
            );
            assert!(metrics.compare_ops > 0);
            total.merge(&metrics);
        }
        assert_eq!(total.scans, engine.total_scans() as u64);
        assert_eq!(total.scans, predicted_scans(&configs) as u64);
    }
}

#[test]
fn metered_counters_are_exact_on_a_shared_adaptive_unit() {
    // Adaptive-TW configs share one forking scan per shape: scans,
    // steps, and elements stay exactly predictable, and comparison
    // ops respect the static per-member bound — every fresh
    // class-or-FIFO similarity is attributable to the distinct member
    // whose judgement triggered it.
    let configs = policy_grid(TwKind::Adaptive, 400);
    let engine = SweepEngine::new(&configs);
    let p = &prepare_all(&[Workload::Lexgen], 1, &[1_000], FUEL, 1)[0];
    let elements = p.total_elements();
    let alphabet = p.site_capacity() as u64;
    let mut scratch = SweepScratch::with_site_capacity(p.site_capacity());
    let mut total = UnitMetrics::new();
    assert_eq!(engine.units().len(), 1, "one shape, one forking scan");
    for (ui, unit) in engine.units().iter().enumerate() {
        assert_eq!(unit.kind(), UnitKind::SharedAdaptive);
        assert!(unit.is_shared());
        let mut metrics = UnitMetrics::new();
        let _ = engine.run_unit_metered(ui, p.interned(), &mut scratch, &mut metrics);
        let costs: Vec<ConfigCost> = unit
            .config_indices()
            .iter()
            .map(|&ci| ConfigCost::of(&configs[ci], elements, alphabet))
            .collect();
        assert_eq!(metrics.scans, 1);
        assert_eq!(metrics.steps, costs[0].steps());
        assert_eq!(metrics.elements, metrics.scans * elements);
        let bound: u64 = costs
            .iter()
            .map(|c| c.compare_ops().expect("no overflow at this fuel"))
            .sum();
        assert!(
            metrics.compare_ops <= bound,
            "{} compare ops exceed static bound {bound}",
            metrics.compare_ops
        );
        assert!(metrics.compare_ops > 0);
        total.merge(&metrics);
    }
    assert_eq!(total.scans, predicted_scans(&configs) as u64);
}

#[test]
fn metered_judged_steps_match_private_detectors_on_every_shared_unit() {
    // The meter counts inside the event-driven scan, which visits only
    // members that can change state. Judged steps are a per-config
    // quantity all the same: on every shared unit they must equal the
    // sum of what a private, observed detector judges per member.
    let prepared = prepared_workloads();
    for configs in [default_plan_grid(), policy_grid(TwKind::Adaptive, 400)] {
        let engine = SweepEngine::new(&configs);
        for p in &prepared {
            let mut scratch = SweepScratch::with_site_capacity(p.site_capacity());
            for (ui, unit) in engine.units().iter().enumerate() {
                assert!(unit.is_shared(), "unit {ui} of these grids is shared");
                let mut metrics = UnitMetrics::new();
                let _ = engine.run_unit_metered(ui, p.interned(), &mut scratch, &mut metrics);
                let members = unit.config_indices();
                let private_judged: u64 = members
                    .iter()
                    .map(|&ci| {
                        let mut meter = MeterObserver::new();
                        let _ = PhaseDetector::new(configs[ci])
                            .run_interned_phases_observed(p.interned(), &mut meter);
                        meter.metrics.judged_steps
                    })
                    .sum();
                assert_eq!(
                    metrics.judged_steps,
                    private_judged,
                    "workload {:?} unit {ui}",
                    p.workload()
                );
                let cost = ConfigCost::of(
                    &configs[members[0]],
                    p.total_elements(),
                    p.site_capacity() as u64,
                );
                assert_eq!(metrics.steps, cost.steps(), "workload {:?}", p.workload());
            }
        }
    }
}

#[test]
fn profiled_sweep_buckets_respect_their_recorded_bounds() {
    // The same cross-check at the harness level: every bucket of a
    // threaded profiled sweep carries its own static bound and honours
    // it, and the profile's totals line up with the whole-grid
    // predictions.
    let prepared = prepared_workloads();
    let configs = default_plan_grid();
    let (_, profile) = sweep_many_profiled(&prepared, &configs, 3);
    assert_eq!(
        profile.buckets.len(),
        prepared.len() * predicted_scans(&configs)
    );
    for bucket in &profile.buckets {
        let p = &prepared[bucket.workload_index];
        let bound = bucket
            .static_compare_bound
            .expect("no overflow at this fuel");
        assert!(bucket.metrics.compare_ops <= bound, "{}", bucket.workload);
        assert_eq!(bucket.metrics.scans, 1, "default grid is one shared scan");
        assert_eq!(bucket.members, configs.len());
        assert_eq!(
            bucket.metrics.steps,
            ConfigCost::of(&configs[0], p.total_elements(), p.site_capacity() as u64).steps()
        );
        assert_eq!(bucket.metrics.elements, p.total_elements());
    }
    let totals = profile.totals();
    assert_eq!(
        totals.scans,
        (prepared.len() * predicted_scans(&configs)) as u64
    );
    assert_eq!(
        profile.static_compare_bound(),
        profile
            .buckets
            .iter()
            .map(|b| b.static_compare_bound)
            .try_fold(0u64, |acc, b| b.map(|v| acc + v))
    );
}
