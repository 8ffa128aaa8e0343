//! Boundary matching between detected and baseline phases, under the
//! three constraints of Section 3.2:
//!
//! 1. the detected phase must start at or after the baseline phase's
//!    start and before its end;
//! 2. the detected phase must end at or after the baseline phase's end
//!    and before the start of the next baseline phase;
//! 3. when several detected phases satisfy 1–2 for one baseline phase,
//!    the one whose boundaries are closest matches.
//!
//! A matched detected phase contributes two matched boundaries (its
//! start and its end).

use opd_trace::PhaseInterval;

/// The result of matching detected phases against baseline phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Pairs `(detected index, baseline index)` of matched phases, at
    /// most one per baseline phase and one per detected phase.
    pub pairs: Vec<(usize, usize)>,
    /// Number of detected phases.
    pub detected_count: usize,
    /// Number of baseline phases.
    pub baseline_count: usize,
}

impl MatchOutcome {
    /// Matched boundaries: two per matched phase pair.
    #[must_use]
    pub fn matched_boundaries(&self) -> usize {
        self.pairs.len() * 2
    }

    /// Detected boundaries that matched nothing.
    #[must_use]
    pub fn unmatched_detected_boundaries(&self) -> usize {
        self.detected_count * 2 - self.matched_boundaries()
    }
}

/// Matches detected phases to baseline phases.
///
/// Both lists must be sorted and disjoint (as produced by the detector
/// and the baseline solution).
#[must_use]
pub fn match_phases(detected: &[PhaseInterval], baseline: &[PhaseInterval]) -> MatchOutcome {
    let mut pairs = Vec::new();
    for_each_match(detected, baseline, |di, bi| pairs.push((di, bi)));
    MatchOutcome {
        pairs,
        detected_count: detected.len(),
        baseline_count: baseline.len(),
    }
}

/// The one walk behind [`match_phases`] and the scorer's count: calls
/// `matched(detected index, baseline index)` once per matched pair, in
/// baseline order, without allocating. Detected starts ascend, so the
/// candidates for one baseline phase are consecutive: one merge pointer
/// finds each start's baseline phase, and a run's closest candidate
/// (the first among equals) is reported when the run ends.
pub(crate) fn for_each_match(
    detected: &[PhaseInterval],
    baseline: &[PhaseInterval],
    mut matched: impl FnMut(usize, usize),
) {
    let (mut bi, mut best) = (0, None::<(usize, u64)>);
    for (di, d) in detected.iter().enumerate() {
        while bi < baseline.len() && baseline[bi].end() <= d.start() {
            if let Some((best_di, _)) = best.take() {
                matched(best_di, bi);
            }
            bi += 1;
        }
        let Some(&b) = baseline.get(bi) else { break };
        // Constraint 1: d starts inside b. Constraint 2: d ends at or
        // after b's end and before the next baseline phase starts.
        let next_start = baseline.get(bi + 1).map_or(u64::MAX, |n| n.start());
        if !b.contains(d.start()) || d.end() < b.end() || d.end() >= next_start {
            continue;
        }
        // Constraint 3: the closest candidate wins.
        let distance = (d.start() - b.start()) + (d.end() - b.end());
        if !matches!(best, Some((_, prev)) if prev <= distance) {
            best = Some((di, distance));
        }
    }
    if let Some((best_di, _)) = best {
        matched(best_di, bi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> PhaseInterval {
        PhaseInterval::new(s, e)
    }

    #[test]
    fn exact_match() {
        let out = match_phases(&[iv(10, 20)], &[iv(10, 20)]);
        assert_eq!(out.pairs, vec![(0, 0)]);
        assert_eq!(out.matched_boundaries(), 2);
        assert_eq!(out.unmatched_detected_boundaries(), 0);
    }

    #[test]
    fn late_detection_still_matches() {
        // Online detectors are late: start within the baseline phase,
        // end shortly after it — both constraints hold.
        let out = match_phases(&[iv(14, 23)], &[iv(10, 20), iv(40, 60)]);
        assert_eq!(out.pairs, vec![(0, 0)]);
    }

    #[test]
    fn start_before_baseline_fails_constraint_one() {
        let out = match_phases(&[iv(5, 25)], &[iv(10, 20)]);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn end_too_early_fails_constraint_two() {
        let out = match_phases(&[iv(12, 18)], &[iv(10, 20)]);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn end_reaching_next_phase_fails_constraint_two() {
        let out = match_phases(&[iv(12, 45)], &[iv(10, 20), iv(40, 60)]);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn closest_candidate_wins() {
        // Two detected phases satisfy the constraints for one baseline
        // phase; the closer one matches, the other counts as
        // unmatched.
        let out = match_phases(&[iv(11, 21), iv(15, 30)], &[iv(10, 20), iv(40, 60)]);
        assert_eq!(out.pairs, vec![(0, 0)]);
        assert_eq!(out.unmatched_detected_boundaries(), 2);
    }

    #[test]
    fn each_baseline_phase_matched_independently() {
        let out = match_phases(
            &[iv(10, 20), iv(45, 62), iv(90, 95)],
            &[iv(10, 20), iv(40, 60), iv(70, 80)],
        );
        assert_eq!(out.pairs, vec![(0, 0), (1, 1)]);
        assert_eq!(out.matched_boundaries(), 4);
        assert_eq!(out.unmatched_detected_boundaries(), 2);
    }

    #[test]
    fn last_phase_has_open_upper_bound() {
        let out = match_phases(&[iv(55, 500)], &[iv(10, 20), iv(50, 60)]);
        assert_eq!(out.pairs, vec![(0, 1)]);
    }

    #[test]
    fn empty_inputs() {
        let out = match_phases(&[], &[]);
        assert!(out.pairs.is_empty());
        assert_eq!(out.matched_boundaries(), 0);
        let out = match_phases(&[iv(0, 5)], &[]);
        assert_eq!(out.unmatched_detected_boundaries(), 2);
        let out = match_phases(&[], &[iv(0, 5)]);
        assert_eq!(out.baseline_count, 1);
    }

    #[test]
    fn detected_start_in_gap_matches_nothing() {
        let out = match_phases(&[iv(25, 65)], &[iv(10, 20), iv(60, 70)]);
        assert!(out.pairs.is_empty());
    }
}
