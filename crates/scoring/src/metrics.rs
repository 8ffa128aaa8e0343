//! Correlation and the top-level scoring entry points.

use opd_baseline::BaselineSolution;
use opd_trace::{intervals_of, PhaseInterval, StateSeq};

use crate::matching::for_each_match;
use crate::score::AccuracyScore;

/// Fraction of the `total` profile elements labelled identically by
/// two interval sets (`P` where both have a phase, `T` where neither
/// does).
///
/// Both lists must be sorted and disjoint.
///
/// # Examples
///
/// ```
/// use opd_scoring::correlation;
/// use opd_trace::PhaseInterval;
///
/// let a = [PhaseInterval::new(0, 50)];
/// let b = [PhaseInterval::new(25, 75)];
/// // Agree on [0,25) vs... both in phase on [25,50): 25 elements;
/// // both in transition on [75,100): 25 elements.
/// assert_eq!(correlation(&a, &b, 100), 0.5);
/// ```
#[must_use]
pub fn correlation(a: &[PhaseInterval], b: &[PhaseInterval], total: u64) -> f64 {
    if total == 0 {
        return 1.0;
    }
    let in_a: u64 = a.iter().map(|p| p.len()).sum();
    let in_b: u64 = b.iter().map(|p| p.len()).sum();
    let both_in_phase = overlap(a, b);
    // bothInTransition = total - |A ∪ B|.
    let both_in_transition = total - (in_a + in_b - both_in_phase);
    (both_in_phase + both_in_transition) as f64 / total as f64
}

/// Total overlap (in elements) between two sorted, disjoint interval
/// lists, by a linear merge.
fn overlap(a: &[PhaseInterval], b: &[PhaseInterval]) -> u64 {
    let (mut i, mut j, mut sum) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].start().max(b[j].start());
        let hi = a[i].end().min(b[j].end());
        if lo < hi {
            sum += hi - lo;
        }
        if a[i].end() <= b[j].end() {
            i += 1;
        } else {
            j += 1;
        }
    }
    sum
}

/// Scores a set of detected phase intervals against the baseline
/// solution.
///
/// This is the core metric; [`score_states`] is the convenience
/// wrapper for detector state sequences. It counts matched boundaries
/// through the same walk as [`match_phases`](crate::match_phases) and
/// allocates nothing. Degenerate cases follow the natural conventions:
/// with no baseline boundaries sensitivity is 1, and with no detected
/// boundaries there are no false positives.
#[must_use]
pub fn score_intervals(detected: &[PhaseInterval], baseline: &BaselineSolution) -> AccuracyScore {
    let total = baseline.total_elements();
    let corr = correlation(detected, baseline.phases(), total);
    let mut pairs = 0;
    for_each_match(detected, baseline.phases(), |_, _| pairs += 1);
    let matched = pairs * 2;
    let baseline_boundaries = baseline.phases().len() * 2;
    let detected_boundaries = detected.len() * 2;
    let sensitivity = if baseline_boundaries == 0 {
        1.0
    } else {
        matched as f64 / baseline_boundaries as f64
    };
    let false_positives = if detected_boundaries == 0 {
        0.0
    } else {
        (detected_boundaries - matched) as f64 / detected_boundaries as f64
    };
    AccuracyScore::new(
        corr,
        sensitivity,
        false_positives,
        matched,
        baseline_boundaries,
        detected_boundaries,
    )
}

/// Scores a detector's per-element state sequence against the baseline
/// solution.
///
/// # Panics
///
/// Panics if the state sequence is longer than the baseline's element
/// count (they must describe the same trace).
#[must_use]
pub fn score_states(states: &StateSeq, baseline: &BaselineSolution) -> AccuracyScore {
    assert!(
        states.len() as u64 <= baseline.total_elements(),
        "detector labelled {} elements but the trace has {}",
        states.len(),
        baseline.total_elements()
    );
    score_intervals(&intervals_of(states), baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::PhaseState;

    fn iv(s: u64, e: u64) -> PhaseInterval {
        PhaseInterval::new(s, e)
    }

    fn baseline(phases: &[(u64, u64)], total: u64) -> BaselineSolution {
        // Build through the public API: a synthetic trace with loops
        // at exactly the requested offsets.
        use opd_trace::{ExecutionTrace, LoopId, MethodId, ProfileElement, TraceSink};
        let mut t = ExecutionTrace::new();
        let mut off = 0u64;
        let pad = |t: &mut ExecutionTrace, upto: u64, off: &mut u64| {
            while *off < upto {
                t.record_branch(ProfileElement::new(
                    MethodId::new(0),
                    (*off % 9) as u32,
                    true,
                ));
                *off += 1;
            }
        };
        for (i, &(s, e)) in phases.iter().enumerate() {
            pad(&mut t, s, &mut off);
            t.record_loop_enter(LoopId::new(i as u32));
            pad(&mut t, e, &mut off);
            t.record_loop_exit(LoopId::new(i as u32));
        }
        pad(&mut t, total, &mut off);
        let sol = BaselineSolution::compute(&t, 1).unwrap();
        assert_eq!(sol.phases().len(), phases.len());
        sol
    }

    #[test]
    fn perfect_detection_scores_one() {
        let b = baseline(&[(10, 40), (60, 90)], 100);
        let s = score_intervals(b.phases(), &b);
        assert!((s.combined() - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn no_detection_scores_correlation_only() {
        let b = baseline(&[(0, 50)], 100);
        let s = score_intervals(&[], &b);
        // Correlation: agree on the 50 transition elements = 0.5;
        // sensitivity 0; no detected boundaries so no false positives.
        assert!((s.correlation - 0.5).abs() < 1e-12);
        assert_eq!(s.sensitivity, 0.0);
        assert_eq!(s.false_positives, 0.0);
        assert!((s.combined() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn late_detector_scores_high_but_not_perfect() {
        let b = baseline(&[(10, 40), (60, 90)], 100);
        let s = score_intervals(&[iv(15, 42), iv(65, 92)], &b);
        assert_eq!(s.sensitivity, 1.0);
        assert_eq!(s.false_positives, 0.0);
        assert!(s.correlation < 1.0);
        assert!(s.combined() > 0.8, "{s}");
    }

    #[test]
    fn spurious_phases_raise_false_positives() {
        let b = baseline(&[(10, 40)], 100);
        let s = score_intervals(&[iv(12, 41), iv(50, 55), iv(70, 80)], &b);
        assert_eq!(s.matched_boundaries, 2);
        assert_eq!(s.detected_boundaries, 6);
        assert!((s.false_positives - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_overlap_arithmetic() {
        assert_eq!(correlation(&[iv(0, 50)], &[iv(25, 75)], 100), 0.5);
        assert_eq!(correlation(&[], &[], 100), 1.0);
        assert_eq!(correlation(&[iv(0, 100)], &[], 100), 0.0);
        assert_eq!(correlation(&[], &[], 0), 1.0);
        let many_a = [iv(0, 10), iv(20, 30), iv(40, 50)];
        let many_b = [iv(5, 25), iv(45, 60)];
        // overlap: [5,10)+[20,25)+[45,50) = 15; inA=30, inB=35;
        // bothT = 100 - (30+35-15) = 50; corr = (15+50)/100.
        assert!((correlation(&many_a, &many_b, 100) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn score_states_wrapper_agrees_with_intervals() {
        let b = baseline(&[(4, 10)], 16);
        let states: StateSeq = (0..16)
            .map(|i| {
                if (5..11).contains(&i) {
                    PhaseState::Phase
                } else {
                    PhaseState::Transition
                }
            })
            .collect();
        let via_states = score_states(&states, &b);
        let via_intervals = score_intervals(&[iv(5, 11)], &b);
        assert_eq!(via_states, via_intervals);
    }

    #[test]
    #[should_panic(expected = "labelled")]
    fn mismatched_lengths_rejected() {
        let b = baseline(&[(0, 5)], 10);
        let states: StateSeq = (0..20).map(|_| PhaseState::Transition).collect();
        let _ = score_states(&states, &b);
    }

    #[test]
    fn empty_baseline_and_empty_detection_is_perfect() {
        let b = baseline(&[], 50);
        let s = score_intervals(&[], &b);
        assert!((s.combined() - 1.0).abs() < 1e-12);
    }
}
