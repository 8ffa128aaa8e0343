//! Certificate soundness, end to end (PR 8): every dynamic counter an
//! observed detector run produces must land inside the interval its
//! abstract-interpretation [`ResourceCertificate`] certifies, for
//! every (config × workload) pair of the default 28-config grid at
//! the pinned differential fuel — and the certified compare-op upper
//! bound must never exceed the flat cost-model bound, beating it
//! strictly on at least half the pairs (here: all of them, since the
//! certificate alone knows the detector judges nothing during
//! warm-up).

use opd_analyze::{predicted_scans, AbsInt, FlowInfo, ResourceCertificate};
use opd_core::{InternedTrace, PhaseDetector, SweepEngine};
use opd_experiments::cert::CERT_FUEL;
use opd_experiments::grid::default_plan_grid;
use opd_microvm::workloads::Workload;
use opd_microvm::Interpreter;
use opd_obs::MeterObserver;
use opd_trace::{ExecutionTrace, ProfileElement};

/// One workload's trace at the differential fuel, plus the static
/// analyses its certificates are built from.
struct Certified {
    workload: Workload,
    absint: AbsInt,
    flow: FlowInfo,
    elements: Vec<ProfileElement>,
    interned: InternedTrace,
}

fn certify_all() -> Vec<Certified> {
    Workload::ALL
        .iter()
        .map(|&workload| {
            let program = workload.program(1);
            let absint = AbsInt::of(&program);
            let flow = FlowInfo::compute(&program);
            let mut execution = ExecutionTrace::new();
            Interpreter::new(&program, workload.default_seed())
                .with_fuel(CERT_FUEL)
                .run(&mut execution)
                .expect("workload executes");
            let elements: Vec<ProfileElement> = execution.branches().iter().copied().collect();
            let interned = InternedTrace::from_elements(elements.iter().copied());
            Certified {
                workload,
                absint,
                flow,
                elements,
                interned,
            }
        })
        .collect()
}

/// The peak window occupancy of one run: elements resident in
/// CW + TW after each skip-aligned step.
fn measured_peak_occupancy(config: &opd_core::DetectorConfig, elements: &[ProfileElement]) -> u64 {
    let mut detector = PhaseDetector::new(*config);
    let mut peak = 0u64;
    for chunk in elements.chunks(config.skip_factor().max(1)) {
        detector.process(chunk);
        let (cw_len, tw_len) = detector.window_lens();
        peak = peak.max((cw_len + tw_len) as u64);
    }
    peak
}

#[test]
fn every_dynamic_counter_lands_inside_its_certified_interval() {
    let configs = default_plan_grid();
    let mut pairs = 0usize;
    let mut tighter = 0usize;
    for c in certify_all() {
        let dynamic_elements = c.elements.len() as u64;
        let dynamic_sites = u64::from(c.interned.distinct_count());
        // All grid members share one window shape, so one occupancy
        // measurement covers the whole row.
        let peak_occupancy = measured_peak_occupancy(&configs[0], &c.elements);
        for (ci, config) in configs.iter().enumerate() {
            let cert = ResourceCertificate::from_parts(&c.absint, &c.flow, config, CERT_FUEL);
            let ctx = format!("{} × config #{ci}", c.workload);
            assert!(!cert.vacuous(), "{ctx}: grid certificates must be real");

            assert!(
                cert.elements().contains(dynamic_elements),
                "{ctx}: elements"
            );
            assert!(cert.sites().contains(dynamic_sites), "{ctx}: sites");
            assert!(
                cert.occupancy().contains(peak_occupancy),
                "{ctx}: occupancy"
            );

            let mut detector = PhaseDetector::new(*config);
            let mut meter = MeterObserver::new();
            let phases = detector
                .run_interned_phases_observed(&c.interned, &mut meter)
                .len() as u64;
            assert!(cert.steps().contains(meter.metrics.steps), "{ctx}: steps");
            assert!(
                cert.judged_steps().contains(meter.metrics.judged_steps),
                "{ctx}: judged {} not in [{},{}]",
                meter.metrics.judged_steps,
                cert.judged_steps().lo(),
                cert.judged_steps().hi(),
            );
            assert!(
                cert.compare_ops().contains(meter.metrics.compare_ops),
                "{ctx}: compare ops {} not in [{},{}]",
                meter.metrics.compare_ops,
                cert.compare_ops().lo(),
                cert.compare_ops().hi(),
            );
            assert!(cert.phases().contains(phases), "{ctx}: {phases} phase(s)");
            assert!(
                cert.memory_bytes()
                    .contains(detector.kernel_footprint_bytes()),
                "{ctx}: memory {} not in [{},{}]",
                detector.kernel_footprint_bytes(),
                cert.memory_bytes().lo(),
                cert.memory_bytes().hi(),
            );

            // The certified upper bound must respect the flat cost
            // model everywhere.
            let bound = cert.cost_compare_bound().expect("no overflow at this fuel");
            assert!(cert.compare_ops().hi() <= bound, "{ctx}: cost bound");
            pairs += 1;
            if cert.tighter_than_cost_bound() {
                assert!(
                    cert.compare_ops().hi() < bound,
                    "{ctx}: tighter means strict"
                );
                tighter += 1;
            }
        }
    }
    assert_eq!(pairs, 224);
    assert!(
        tighter * 2 >= pairs,
        "certificates must beat the cost bound on at least half the pairs ({tighter}/{pairs})"
    );
    assert_eq!(
        tighter, pairs,
        "one-shape grid: warm-up slack on every pair"
    );
}

#[test]
fn certified_scan_counts_match_the_engine_plan() {
    let configs = default_plan_grid();
    let engine = SweepEngine::new(&configs);
    assert_eq!(engine.total_scans(), predicted_scans(&configs));
    for c in certify_all() {
        for config in &configs {
            let cert = ResourceCertificate::from_parts(&c.absint, &c.flow, config, CERT_FUEL);
            // Per (config, workload) the certified scan interval is
            // exact: the shared-shape grid walks each trace once.
            assert_eq!(cert.scans().lo(), 1, "{}", c.workload);
            assert_eq!(cert.scans().hi(), 1, "{}", c.workload);
        }
        assert_eq!(predicted_scans(&configs), 1, "one shape, one shared scan");
    }
}
