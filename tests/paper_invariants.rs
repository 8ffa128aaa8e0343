//! Invariants the paper's methodology implies, checked across crates:
//! the scoring metric's extremes, the headline comparisons of
//! Sections 4–5, and the compress anomaly of Figure 5.

use opd::baseline::BaselineSolution;
use opd::core::ModelPolicy;
use opd::experiments::grid::{analyzer_grid, half_mpl_cw, policy_grid, TwKind};
use opd::experiments::runner::{best_combined, sweep, PreparedWorkload};
use opd::microvm::workloads::Workload;
use opd::scoring::score_intervals;

#[test]
fn oracle_phases_scored_against_themselves_are_perfect() {
    for w in [Workload::Lexgen, Workload::Ruleng] {
        let trace = w.trace(1);
        let oracle = BaselineSolution::compute(&trace, 10_000).expect("well nested");
        let score = score_intervals(oracle.phases(), &oracle);
        assert!((score.combined() - 1.0).abs() < 1e-12, "{w}: {score}");
    }
}

#[test]
fn empty_detector_scores_exactly_its_correlation_half() {
    let trace = Workload::Lexgen.trace(1);
    let oracle = BaselineSolution::compute(&trace, 10_000).expect("well nested");
    let score = score_intervals(&[], &oracle);
    // No boundaries detected: sensitivity 0, no false positives; the
    // combined score is corr/2 + 1/4.
    let expected = score.correlation / 2.0 + 0.25;
    assert!((score.combined() - expected).abs() < 1e-12);
}

#[test]
fn skip_factor_one_beats_fixed_interval_at_small_mpl() {
    // The paper's Figure 4 headline, on two benchmarks at MPL = 1K.
    for w in [Workload::Audiodec, Workload::Tracer] {
        let prepared = PreparedWorkload::prepare(w, 1, &[1_000]);
        let cw = half_mpl_cw(1_000);
        let oracle = prepared.oracle(1_000);
        let fixed = best_combined(
            &sweep(&prepared, &policy_grid(TwKind::FixedInterval, cw), 1),
            oracle,
        );
        let constant = best_combined(
            &sweep(&prepared, &policy_grid(TwKind::Constant, cw), 1),
            oracle,
        );
        let adaptive = best_combined(
            &sweep(&prepared, &policy_grid(TwKind::Adaptive, cw), 1),
            oracle,
        );
        assert!(
            constant > fixed && adaptive > fixed,
            "{w}: fixed {fixed:.3} constant {constant:.3} adaptive {adaptive:.3}"
        );
    }
}

#[test]
fn weighted_model_wins_on_the_compress_analogue() {
    // Figure 5's anomaly: _201_compress is the one benchmark where the
    // weighted model clearly beats the unweighted one, because its
    // phases share a working set and differ only in frequencies.
    let prepared = PreparedWorkload::prepare(Workload::Blockcomp, 1, &[1_000]);
    let oracle = prepared.oracle(1_000);
    let cw = half_mpl_cw(1_000);
    let weighted = best_combined(
        &sweep(
            &prepared,
            &analyzer_grid(TwKind::Constant, cw, ModelPolicy::WeightedSet),
            1,
        ),
        oracle,
    );
    let unweighted = best_combined(
        &sweep(
            &prepared,
            &analyzer_grid(TwKind::Constant, cw, ModelPolicy::UnweightedSet),
            1,
        ),
        oracle,
    );
    assert!(
        weighted > unweighted * 1.25,
        "weighted {weighted:.3} vs unweighted {unweighted:.3}"
    );
}

#[test]
fn unweighted_model_wins_on_a_typical_benchmark() {
    // ... while on ordinary benchmarks the unweighted model is at
    // least as accurate (Section 4.3's general conclusion).
    let prepared = PreparedWorkload::prepare(Workload::Audiodec, 1, &[1_000]);
    let oracle = prepared.oracle(1_000);
    let cw = half_mpl_cw(1_000);
    let weighted = best_combined(
        &sweep(
            &prepared,
            &analyzer_grid(TwKind::Constant, cw, ModelPolicy::WeightedSet),
            1,
        ),
        oracle,
    );
    let unweighted = best_combined(
        &sweep(
            &prepared,
            &analyzer_grid(TwKind::Constant, cw, ModelPolicy::UnweightedSet),
            1,
        ),
        oracle,
    );
    assert!(
        unweighted >= weighted,
        "unweighted {unweighted:.3} vs weighted {weighted:.3}"
    );
}

#[test]
fn cw_smaller_than_mpl_beats_cw_larger_than_mpl() {
    // Table 2's conclusion, spot-checked on one benchmark at MPL 10K.
    let prepared = PreparedWorkload::prepare(Workload::Querydb, 1, &[10_000]);
    let oracle = prepared.oracle(10_000);
    let small = best_combined(
        &sweep(&prepared, &policy_grid(TwKind::Constant, 5_000), 1),
        oracle,
    );
    let large = best_combined(
        &sweep(&prepared, &policy_grid(TwKind::Constant, 50_000), 1),
        oracle,
    );
    assert!(small > large, "small {small:.3} vs large {large:.3}");
}

#[test]
fn figure_2_walkthrough() {
    // The paper's Figure 2 narrative, row by row, for both trailing
    // window policies (skipFactor 1, CW = TW = 5):
    //   A/B: windows filling            -> T
    //   C:   full but dissimilar        -> T
    //   D:   new phase detected         -> P
    //   E:   phase continues            -> P  (adaptive TW grows)
    //   F:   phase ends                 -> T  (windows flushed, CW
    //                                          re-seeded with the last
    //                                          skipFactor elements)
    //   G:   refilling                  -> T
    use opd::core::{AnalyzerPolicy, DetectorConfig, PhaseDetector, TwPolicy};
    use opd::trace::{MethodId, PhaseState, ProfileElement};

    let elem = |site: u32| ProfileElement::new(MethodId::new(0), site, true);

    for policy in [TwPolicy::Constant, TwPolicy::Adaptive] {
        let config = DetectorConfig::builder()
            .current_window(5)
            .trailing_window(5)
            .skip_factor(1)
            .tw_policy(policy)
            .analyzer(AnalyzerPolicy::Threshold(0.6))
            .build()
            .unwrap();
        let mut d = PhaseDetector::new(config);

        // Rows A-B: ten distinct transition elements fill the windows.
        for site in 0..10 {
            assert_eq!(
                d.process(&[elem(site)]),
                PhaseState::Transition,
                "{policy}: fill"
            );
        }
        // Row C: full windows, disjoint contents: still T.
        assert_eq!(
            d.process(&[elem(10)]),
            PhaseState::Transition,
            "{policy}: row C"
        );

        // Feed a stable phase (one repeated site). The detector turns
        // P once the repeated site dominates both windows (row D) —
        // necessarily after the true phase start.
        let mut first_p = None;
        for i in 0..20 {
            if d.process(&[elem(100)]).is_phase() {
                first_p = Some(i);
                break;
            }
        }
        let first_p = first_p.expect("phase detected (row D)");
        assert!(first_p >= 5, "detection is necessarily late, got {first_p}");

        // Row E: the phase continues.
        for _ in 0..30 {
            assert_eq!(
                d.process(&[elem(100)]),
                PhaseState::Phase,
                "{policy}: row E"
            );
        }
        let (_, tw_len) = d.window_lens();
        if policy == TwPolicy::Adaptive {
            assert!(
                tw_len > config.trailing_window(),
                "adaptive TW holds the whole phase (Figure 2b)"
            );
        } else {
            assert_eq!(tw_len, 5, "constant TW stays fixed (Figure 2a)");
        }

        // Row F: the phase ends at the first dissimilar element.
        assert_eq!(
            d.process(&[elem(200)]),
            PhaseState::Transition,
            "{policy}: row F"
        );
        // The windows were flushed and the CW re-seeded with the last
        // skipFactor (= 1) elements.
        assert_eq!(d.window_lens(), (1, 0), "{policy}: flushed, CW re-seeded");

        // Row G: refilling keeps reporting T.
        for site in 201..209 {
            assert_eq!(
                d.process(&[elem(site)]),
                PhaseState::Transition,
                "{policy}: row G"
            );
        }
    }
}

#[test]
fn online_detectors_are_necessarily_late() {
    // Section 3.2: a perfect correlation score is impossible online —
    // the windows must fill before the first phase can be reported.
    let prepared = PreparedWorkload::prepare(Workload::Lexgen, 1, &[10_000]);
    let oracle = prepared.oracle(10_000);
    let runs = sweep(&prepared, &policy_grid(TwKind::Adaptive, 5_000), 1);
    for run in &runs {
        let s = run.score(oracle);
        assert!(s.correlation < 1.0, "online detector cannot be perfect");
    }
}
