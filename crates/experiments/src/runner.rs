//! Workload preparation and the parallel configuration sweep.

use std::collections::BTreeMap;
use std::convert::Infallible;

use opd_analyze::{Analysis, ResourceCertificate};
use opd_baseline::{BaselineSolution, CallLoopForest};
use opd_core::lpt::run_lpt;
use opd_core::{
    anchored_intervals, detected_intervals, DetectedPhase, DetectorConfig, InternedTrace,
    PhaseDetector, SweepEngine, SweepScratch, SweepUnit,
};
use opd_microvm::workloads::Workload;
use opd_scoring::{score_intervals, AccuracyScore};
use opd_trace::{BranchTrace, PhaseInterval, TraceStats};

/// One workload executed, interned, and solved for a set of MPL
/// values — everything a sweep needs, computed once.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    workload: Workload,
    stats: TraceStats,
    branches: BranchTrace,
    interned: InternedTrace,
    oracles: BTreeMap<u64, BaselineSolution>,
    analysis: Analysis,
    fuel: u64,
}

impl PreparedWorkload {
    /// Executes `workload` at `scale`, interns its branch trace, and
    /// computes the baseline solution for every MPL in `mpls`.
    ///
    /// # Panics
    ///
    /// Panics if the workload trace is malformed, which would be a bug
    /// in the MicroVM (covered by its tests).
    #[must_use]
    pub fn prepare(workload: Workload, scale: u32, mpls: &[u64]) -> Self {
        Self::prepare_with_fuel(workload, scale, mpls, u64::MAX)
    }

    /// Like [`prepare`](PreparedWorkload::prepare) but truncates the
    /// execution after `fuel` branches — used by the benchmark suite to
    /// keep iterations short.
    ///
    /// # Panics
    ///
    /// Panics if the workload trace is malformed.
    #[must_use]
    pub fn prepare_with_fuel(workload: Workload, scale: u32, mpls: &[u64], fuel: u64) -> Self {
        let program = workload.program(scale);
        let analysis = Analysis::of(&program);
        let mut trace = opd_trace::ExecutionTrace::new();
        opd_microvm::Interpreter::new(&program, workload.default_seed())
            .with_fuel(fuel)
            .run(&mut trace)
            .expect("workload programs terminate");
        let stats = TraceStats::measure(&trace);
        let forest = CallLoopForest::build(&trace).expect("workload traces are well nested");
        let oracles = mpls.iter().map(|&mpl| (mpl, forest.solve(mpl))).collect();
        // The static alphabet bound pre-sizes the intern table so
        // interning never rehashes; it is an upper bound on the
        // distinct-element count by the soundness property the
        // differential tests check.
        let interned = InternedTrace::from_elements_with_capacity(
            trace.branches().iter().copied(),
            analysis.flow().alphabet_bound() as usize,
        );
        debug_assert!(u64::from(interned.distinct_count()) <= analysis.flow().alphabet_bound());
        let (branches, _) = trace.into_parts();
        PreparedWorkload {
            workload,
            stats,
            branches,
            interned,
            oracles,
            analysis,
            fuel,
        }
    }

    /// The workload this data came from.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The trace's dynamic execution characteristics (Table 1(a)).
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// The interned branch trace.
    #[must_use]
    pub fn interned(&self) -> &InternedTrace {
        &self.interned
    }

    /// The raw branch trace (for detectors that need the packed
    /// element values rather than interned ids).
    #[must_use]
    pub fn branches(&self) -> &BranchTrace {
        &self.branches
    }

    /// Number of profile elements in the trace.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        self.interned.len() as u64
    }

    /// The baseline solution for one of the prepared MPL values.
    ///
    /// # Panics
    ///
    /// Panics if `mpl` was not in the list passed to `prepare`.
    #[must_use]
    pub fn oracle(&self, mpl: u64) -> &BaselineSolution {
        self.oracles
            .get(&mpl)
            .unwrap_or_else(|| panic!("MPL {mpl} was not prepared"))
    }

    /// All prepared MPL values, ascending.
    #[must_use]
    pub fn mpls(&self) -> Vec<u64> {
        self.oracles.keys().copied().collect()
    }

    /// The static analysis of the workload's program: lint findings,
    /// call graph, nesting tree, and the abstract interpretation that
    /// gives the worst-case bounds and the resource certificates.
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The static alphabet bound, as a site-table capacity: no trace
    /// of this program has more distinct profile elements than this.
    #[must_use]
    pub fn site_capacity(&self) -> usize {
        self.analysis.flow().alphabet_bound() as usize
    }

    /// The fuel limit the trace was prepared under (`u64::MAX` =
    /// complete run).
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Issues one [`ResourceCertificate`] per config for this
    /// prepared workload (at the preparation fuel), or `None` if any
    /// certificate is vacuous — callers then price at the static face
    /// value ([`calibrated_unit_cost`]).
    #[must_use]
    pub fn certificates(&self, configs: &[DetectorConfig]) -> Option<Vec<ResourceCertificate>> {
        let flow = self.analysis.flow();
        let certs: Vec<ResourceCertificate> = configs
            .iter()
            .map(|c| ResourceCertificate::from_parts(self.analysis.absint(), flow, c, self.fuel))
            .collect();
        if certs.iter().any(ResourceCertificate::vacuous) {
            None
        } else {
            Some(certs)
        }
    }
}

/// The uncertified LPT price of one sweep unit: the static cost model
/// at face value (every step judged) over the workload's length and
/// *measured* distinct-site count, as derived streams are priced. The
/// sweeps fall back to it on vacuous certificates. The name is from a
/// deleted probe run that scaled this price; the benchmark still calls
/// it by that name.
#[must_use]
pub fn calibrated_unit_cost(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    prepared: &PreparedWorkload,
) -> u64 {
    opd_analyze::unit_cost(
        configs,
        unit,
        prepared.total_elements(),
        u64::from(prepared.interned().distinct_count()),
    )
}

/// The certificate-priced LPT cost of one sweep unit: the static
/// window-maintenance part at face value plus the static comparison
/// part scaled by the unit's *certified* judged-step density — the
/// midpoint of each member's judged-step interval over the midpoint
/// of its step interval. Every built-in workload certifies, so this
/// is the price every prepared sweep schedules from.
#[must_use]
pub fn certified_unit_cost(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    prepared: &PreparedWorkload,
    certs: &[ResourceCertificate],
) -> u64 {
    let (window, compare) = opd_analyze::unit_cost_parts(
        configs,
        unit,
        prepared.total_elements(),
        u64::from(prepared.interned().distinct_count()),
    );
    let mut judged: u128 = 0;
    let mut steps: u128 = 0;
    for &i in unit.config_indices() {
        judged += u128::from(certs[i].judged_steps().midpoint());
        steps += u128::from(certs[i].steps().midpoint());
    }
    if steps == 0 {
        return window.saturating_add(compare);
    }
    // judged <= steps per certificate, so the scaled part never
    // exceeds the raw bound and the u128 product cannot overflow.
    let scaled = (u128::from(compare) * judged / steps) as u64;
    window.saturating_add(scaled)
}

/// Prepares several workloads, in `workloads` order. `fuel` caps
/// every trace's length; pass `u64::MAX` for complete runs. The
/// preparations run on the sweeps' work loop: at one thread in order
/// on the calling thread, at more on up to `threads` scoped workers.
#[must_use]
pub fn prepare_all(
    workloads: &[Workload],
    scale: u32,
    mpls: &[u64],
    fuel: u64,
    threads: usize,
) -> Vec<PreparedWorkload> {
    let mut out: Vec<Option<PreparedWorkload>> = workloads.iter().map(|_| None).collect();
    let items: Vec<usize> = (0..workloads.len()).collect();
    run_lpt(
        &items,
        threads,
        || (),
        |items| vec![1; items.len()],
        |&i, _| {
            let prepared = PreparedWorkload::prepare_with_fuel(workloads[i], scale, mpls, fuel);
            Ok::<_, Infallible>((i, prepared))
        },
        |_, (i, prepared)| out[i] = Some(prepared),
    )
    .unwrap_or_else(|never| match never {});
    out.into_iter().map(|o| o.expect("slot filled")).collect()
}

/// The MPL-independent outcome of running one detector configuration
/// over one trace: the detected phase intervals, both as detected and
/// with anchored (retroactive) starts.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// The configuration that produced this run.
    pub config: DetectorConfig,
    /// Phases with detection-point starts.
    pub detected: Vec<PhaseInterval>,
    /// Phases with anchored starts (Figure 8).
    pub anchored: Vec<PhaseInterval>,
}

impl ConfigRun {
    /// Scores this run against an oracle, using detection-point
    /// boundaries.
    #[must_use]
    pub fn score(&self, oracle: &BaselineSolution) -> AccuracyScore {
        score_intervals(&self.detected, oracle)
    }

    /// Scores this run using anchored phase-start boundaries.
    #[must_use]
    pub fn anchored_score(&self, oracle: &BaselineSolution) -> AccuracyScore {
        score_intervals(&self.anchored, oracle)
    }
}

/// Runs one detector over a prepared trace. The detector run itself
/// allocates nothing per element: phases accumulate in the detector
/// and the interval views are built once at the end.
#[must_use]
pub fn run_detector(config: DetectorConfig, trace: &InternedTrace) -> ConfigRun {
    let mut detector = PhaseDetector::new(config);
    let _ = detector.run_interned_phases_only(trace);
    config_run(config, &detector.take_phases(), trace.len() as u64)
}

/// Builds interval views from one config's detected phases.
pub(crate) fn config_run(
    config: DetectorConfig,
    phases: &[DetectedPhase],
    total: u64,
) -> ConfigRun {
    ConfigRun {
        config,
        detected: detected_intervals(phases, total),
        anchored: anchored_intervals(phases, total),
    }
}

/// Runs many configurations over one prepared workload through the
/// [`SweepEngine`] (same-shape Constant-TW configs share one trace
/// scan), spreading engine units over `threads` threads. Results are
/// in `configs` order and bit-identical to sequential
/// [`run_detector`] calls.
#[must_use]
pub fn sweep(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    threads: usize,
) -> Vec<ConfigRun> {
    let mut per_workload = sweep_many(std::slice::from_ref(prepared), configs, threads);
    per_workload.pop().expect("one workload in, one out")
}

/// Runs many configurations over many prepared workloads, distributing
/// `(workload × engine unit)` work items over `threads` threads with a
/// longest-processing-time-first plan. Returns one `configs`-ordered
/// vector per workload, in `prepared` order.
///
/// At one thread the items run unpriced in `(workload, unit)` order
/// on the calling thread. Each worker carries a [`SweepScratch`] so
/// private-path detector allocations are reused across the units it
/// runs.
#[must_use]
pub fn sweep_many(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
) -> Vec<Vec<ConfigRun>> {
    let engine = SweepEngine::new(configs);
    let items: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|wi| (0..engine.units().len()).map(move |ui| (wi, ui)))
        .collect();
    let mut cells = vec![vec![None; configs.len()]; prepared.len()];
    let sites = max_site_capacity(prepared);
    run_lpt(
        &items,
        threads,
        || SweepScratch::with_site_capacity(sites),
        |items| unit_prices(prepared, configs, &engine, items),
        |&(wi, ui), scratch| {
            let p = &prepared[wi];
            let total = p.interned().len() as u64;
            let runs: Vec<(usize, ConfigRun)> = engine
                .run_unit(ui, p.interned(), scratch)
                .into_iter()
                .map(|(ci, phases)| (ci, config_run(configs[ci], &phases, total)))
                .collect();
            Ok::<_, Infallible>((wi, runs))
        },
        |_, (wi, runs)| {
            for (ci, run) in runs {
                cells[wi][ci] = Some(run);
            }
        },
    )
    .unwrap_or_else(|never| match never {});
    filled(cells)
}

/// Runs each stream's configs over its interned trace through the
/// [`SweepEngine`]: the [`sweep_many`] of derived streams (sampled,
/// site or method profiles), which carry no preparation to price them
/// by. `(stream × engine unit)` items spread over `threads` threads,
/// priced by the static cost model at each stream's measured length
/// and alphabet. Returns one `configs`-ordered vector per stream, in
/// `streams` order, bit-identical to sequential [`run_detector`] calls.
#[must_use]
pub(crate) fn sweep_streams(
    streams: &[(&InternedTrace, &[DetectorConfig])],
    threads: usize,
) -> Vec<Vec<ConfigRun>> {
    let engines: Vec<SweepEngine> = streams.iter().map(|&(_, c)| SweepEngine::new(c)).collect();
    let items: Vec<(usize, usize)> = engines
        .iter()
        .enumerate()
        .flat_map(|(si, e)| (0..e.units().len()).map(move |ui| (si, ui)))
        .collect();
    let mut cells: Vec<Vec<Option<ConfigRun>>> =
        streams.iter().map(|(_, c)| vec![None; c.len()]).collect();
    let sites = streams
        .iter()
        .map(|(t, _)| t.distinct_count() as usize)
        .max()
        .unwrap_or(0);
    run_lpt(
        &items,
        threads,
        || SweepScratch::with_site_capacity(sites),
        |items| {
            items
                .iter()
                .map(|&(si, ui)| {
                    let (trace, configs) = streams[si];
                    opd_analyze::unit_cost(
                        configs,
                        &engines[si].units()[ui],
                        trace.len() as u64,
                        u64::from(trace.distinct_count()),
                    )
                })
                .collect()
        },
        |&(si, ui), scratch| {
            let (trace, configs) = streams[si];
            let total = trace.len() as u64;
            let runs: Vec<(usize, ConfigRun)> = engines[si]
                .run_unit(ui, trace, scratch)
                .into_iter()
                .map(|(ci, phases)| (ci, config_run(configs[ci], &phases, total)))
                .collect();
            Ok::<_, Infallible>((si, runs))
        },
        |_, (si, runs)| {
            for (ci, run) in runs {
                cells[si][ci] = Some(run);
            }
        },
    )
    .unwrap_or_else(|never| match never {});
    filled(cells)
}

/// LPT prices of `(workload, unit)` items: the static
/// window-maintenance and comparison-op bounds of the unit's members,
/// with the comparison part scaled by the certified judged-step
/// density when every member certifies non-vacuously (the normal
/// case), else at face value.
pub(crate) fn unit_prices(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    engine: &SweepEngine,
    items: &[(usize, usize)],
) -> Vec<u64> {
    let certs: Vec<_> = prepared.iter().map(|p| p.certificates(configs)).collect();
    items
        .iter()
        .map(|&(wi, ui)| {
            let (p, unit) = (&prepared[wi], &engine.units()[ui]);
            match &certs[wi] {
                Some(certs) => certified_unit_cost(configs, unit, p, certs),
                None => calibrated_unit_cost(configs, unit, p),
            }
        })
        .collect()
}

/// The largest static alphabet bound among `prepared`: every worker's
/// detector site tables are pre-sized to it, so no unit run grows them
/// mid-scan.
pub(crate) fn max_site_capacity(prepared: &[PreparedWorkload]) -> usize {
    prepared
        .iter()
        .map(PreparedWorkload::site_capacity)
        .max()
        .unwrap_or(0)
}

/// Unwraps a sweep's `(workload, config)` grid once every cell is set.
pub(crate) fn filled(cells: Vec<Vec<Option<ConfigRun>>>) -> Vec<Vec<ConfigRun>> {
    cells
        .into_iter()
        .map(|w| {
            w.into_iter()
                .map(|o| o.expect("every (workload, config) cell filled"))
                .collect()
        })
        .collect()
}

/// The best combined score among `runs` against one oracle.
#[must_use]
pub fn best_combined(runs: &[ConfigRun], oracle: &BaselineSolution) -> f64 {
    runs.iter()
        .map(|r| r.score(oracle).combined())
        .fold(0.0, f64::max)
}

/// The best combined score using anchored boundaries.
#[must_use]
pub fn best_combined_anchored(runs: &[ConfigRun], oracle: &BaselineSolution) -> f64 {
    runs.iter()
        .map(|r| r.anchored_score(oracle).combined())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{policy_grid, TwKind};
    use opd_core::lpt::lpt_plan;

    fn small_prepared() -> PreparedWorkload {
        PreparedWorkload::prepare_with_fuel(Workload::Lexgen, 1, &[1_000, 10_000], 60_000)
    }

    #[test]
    fn prepare_computes_oracles_per_mpl() {
        let p = small_prepared();
        assert_eq!(p.mpls(), vec![1_000, 10_000]);
        assert_eq!(p.total_elements(), 60_000);
        assert!(p.oracle(1_000).phase_count() >= p.oracle(10_000).phase_count());
        assert_eq!(p.stats().dynamic_branches, 60_000);
        assert_eq!(p.workload(), Workload::Lexgen);
    }

    #[test]
    fn static_analysis_rides_along_and_bounds_the_alphabet() {
        let p = small_prepared();
        assert!(p.analysis().is_clean());
        assert!(p.interned().distinct_count() as usize <= p.site_capacity());
        assert!(p.analysis().bounds().branches() >= p.total_elements());
    }

    #[test]
    #[should_panic(expected = "was not prepared")]
    fn missing_mpl_panics() {
        let p = small_prepared();
        let _ = p.oracle(77);
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let p = small_prepared();
        let configs = policy_grid(TwKind::Constant, 500);
        let parallel = sweep(&p, &configs, 4);
        let sequential: Vec<ConfigRun> = configs
            .iter()
            .map(|&c| run_detector(c, p.interned()))
            .collect();
        assert_eq!(parallel.len(), sequential.len());
        for (a, b) in parallel.iter().zip(&sequential) {
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.anchored, b.anchored);
        }
    }

    #[test]
    fn scores_are_in_range() {
        let p = small_prepared();
        let configs = policy_grid(TwKind::Adaptive, 500);
        let runs = sweep(&p, &configs, 2);
        let oracle = p.oracle(1_000);
        for r in &runs {
            let s = r.score(oracle).combined();
            assert!((0.0..=1.0).contains(&s), "{s}");
            let a = r.anchored_score(oracle).combined();
            assert!((0.0..=1.0).contains(&a), "{a}");
        }
        assert!(best_combined(&runs, oracle) > 0.0);
        assert!(best_combined_anchored(&runs, oracle) > 0.0);
    }

    #[test]
    fn sweep_many_matches_per_workload_sweeps() {
        let ws = [Workload::Lexgen, Workload::Blockcomp];
        let prepared = prepare_all(&ws, 1, &[1_000], 50_000, 2);
        // A grid mixing shared-eligible and private configs.
        let mut configs = policy_grid(TwKind::Constant, 500);
        configs.extend(policy_grid(TwKind::Adaptive, 250));
        let many = sweep_many(&prepared, &configs, 3);
        assert_eq!(many.len(), prepared.len());
        for (p, runs) in prepared.iter().zip(&many) {
            assert_eq!(runs.len(), configs.len());
            for (run, &config) in runs.iter().zip(&configs) {
                let expected = run_detector(config, p.interned());
                assert_eq!(run.detected, expected.detected, "{config:?}");
                assert_eq!(run.anchored, expected.anchored, "{config:?}");
            }
        }
    }

    #[test]
    fn prepare_all_is_order_preserving_at_any_thread_count() {
        let ws = [Workload::Lexgen, Workload::Blockcomp, Workload::Tracer];
        for threads in [1, 2, 8] {
            let prepared = prepare_all(&ws, 1, &[10_000], 20_000, threads);
            let order: Vec<Workload> = prepared.iter().map(PreparedWorkload::workload).collect();
            assert_eq!(order, ws, "threads {threads}");
        }
    }

    #[test]
    fn sweep_streams_matches_sequential_runs_per_stream() {
        let p = small_prepared();
        let sampled = InternedTrace::from(&opd_trace::subsample(p.branches(), 3));
        let constant = policy_grid(TwKind::Constant, 500);
        let adaptive = policy_grid(TwKind::Adaptive, 250);
        let streams = [
            (p.interned(), constant.as_slice()),
            (&sampled, adaptive.as_slice()),
        ];
        for threads in [1, 3] {
            let runs = sweep_streams(&streams, threads);
            assert_eq!(runs.len(), streams.len());
            for ((trace, configs), runs) in streams.iter().zip(&runs) {
                assert_eq!(runs.len(), configs.len());
                for (run, &config) in runs.iter().zip(configs.iter()) {
                    let expected = run_detector(config, trace);
                    assert_eq!(run.detected, expected.detected, "{config:?}");
                    assert_eq!(run.anchored, expected.anchored, "{config:?}");
                }
            }
        }
    }

    #[test]
    fn lpt_imbalance_stays_small_on_the_plan_grid() {
        // The static-cost LPT plan for (8 workloads × the 28-config
        // shared-scan grid) must spread load evenly: the heaviest
        // bucket may exceed the mean by at most 15%.
        let prepared = prepare_all(&Workload::ALL, 1, &[1_000], 60_000, 2);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut costs = Vec::new();
        for p in &prepared {
            for unit in engine.units() {
                costs.push(opd_analyze::unit_cost(
                    &configs,
                    unit,
                    p.total_elements(),
                    p.site_capacity() as u64,
                ));
            }
        }
        assert_eq!(costs.len(), 8, "one shared unit per workload");
        let threads = 4;
        let plan = lpt_plan(&costs, threads);
        let loads: Vec<u64> = plan
            .iter()
            .map(|bucket| bucket.iter().map(|&i| costs[i]).sum())
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / threads as f64;
        assert!(
            max <= mean * 1.15,
            "LPT imbalance {:.1}% exceeds 15% (loads {loads:?})",
            (max / mean - 1.0) * 100.0
        );
    }

    #[test]
    fn certificates_issue_for_every_workload_and_price_the_sweep() {
        // The prices the parallel sweep schedules from (certificate
        // midpoints, as every workload certifies) must track the
        // measured load: plan from `unit_prices`, re-weigh with
        // metered costs, max bucket within 20% of the mean and of the
        // measured-optimal plan.
        let prepared = prepare_all(&Workload::ALL, 1, &[1_000], 60_000, 2);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut items = Vec::new();
        for (wi, p) in prepared.iter().enumerate() {
            let certs = p
                .certificates(&configs)
                .expect("workload certificates are never vacuous");
            assert_eq!(certs.len(), configs.len());
            for cert in &certs {
                assert!(!cert.truncated() || p.fuel() < u64::MAX);
                assert!(cert.judged_steps().hi() <= cert.steps().hi());
            }
            items.extend((0..engine.units().len()).map(|ui| (wi, ui)));
        }
        let certified = unit_prices(&prepared, &configs, &engine, &items);
        let measured: Vec<u64> = items
            .iter()
            .map(|&(wi, ui)| {
                let p = &prepared[wi];
                let mut scratch = SweepScratch::with_site_capacity(p.site_capacity());
                let mut metrics = opd_obs::UnitMetrics::new();
                let _ = engine.run_unit_metered(ui, p.interned(), &mut scratch, &mut metrics);
                let (window, _) = opd_analyze::unit_cost_parts(
                    &configs,
                    &engine.units()[ui],
                    p.total_elements(),
                    u64::from(p.interned().distinct_count()),
                );
                window + metrics.compare_ops
            })
            .collect();
        let threads = 4;
        let plan = lpt_plan(&certified, threads);
        let loads: Vec<u64> = plan
            .iter()
            .map(|bucket| bucket.iter().map(|&i| measured[i]).sum())
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / threads as f64;
        assert!(
            max <= mean * 1.20,
            "certified LPT imbalance {:.1}% exceeds 20% (loads {loads:?})",
            (max / mean - 1.0) * 100.0
        );
        let ideal = lpt_plan(&measured, threads);
        let ideal_max = ideal
            .iter()
            .map(|bucket| bucket.iter().map(|&i| measured[i]).sum::<u64>())
            .max()
            .unwrap() as f64;
        assert!(
            max <= ideal_max * 1.20,
            "certified plan max {max} vs measured-optimal max {ideal_max}"
        );
    }

    #[test]
    fn detected_and_anchored_differ_for_adaptive() {
        let p = small_prepared();
        let cfg = policy_grid(TwKind::Adaptive, 500)[0];
        let run = run_detector(cfg, p.interned());
        if !run.detected.is_empty() {
            // Anchored starts never come after detected starts.
            for (d, a) in run.detected.iter().zip(&run.anchored) {
                assert!(a.start() <= d.start());
            }
        }
    }
}
