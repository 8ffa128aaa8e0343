//! Similarity analyzers: mapping similarity values to phase/transition
//! states.

use core::fmt;

use opd_trace::PhaseState;

/// The analyzer policy of the framework (Section 2).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AnalyzerPolicy {
    /// Fixed threshold: report `P` when the similarity value is at
    /// least the threshold.
    Threshold(f64),
    /// Adaptive threshold: report `P` when the similarity value is at
    /// least `delta` below the running average of similarity values of
    /// the current phase.
    ///
    /// The paper does not pin down the bootstrap; this implementation
    /// initializes the running average optimistically to `1.0` at each
    /// `resetStats`, so a new phase is entered when the similarity
    /// reaches `1 - delta`, after which the cumulative in-phase mean
    /// adapts the threshold (see DESIGN.md §3).
    Average {
        /// How far below the running average a value may fall and still
        /// count as in phase.
        delta: f64,
    },
}

impl fmt::Display for AnalyzerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzerPolicy::Threshold(t) => write!(f, "threshold({t})"),
            AnalyzerPolicy::Average { delta } => write!(f, "average({delta})"),
        }
    }
}

/// The running average an [`AnalyzerPolicy::Average`] threshold sits
/// `delta` below: `sum / count`, or the optimistic `1.0` before any
/// in-phase value was folded in.
pub(crate) fn running_average(sum: f64, count: u64) -> f64 {
    if count == 0 {
        1.0
    } else {
        sum / count as f64
    }
}

/// The runtime state of an analyzer: the `processValue` /
/// `updateStats` / `resetStats` trio from Figure 3 of the paper.
///
/// # Examples
///
/// ```
/// use opd_core::{Analyzer, AnalyzerPolicy};
///
/// let mut a = Analyzer::new(AnalyzerPolicy::Threshold(0.6));
/// assert!(a.judge(0.7).is_phase());
/// assert!(a.judge(0.5).is_transition());
/// ```
#[derive(Debug, Clone)]
pub struct Analyzer {
    policy: AnalyzerPolicy,
    sum: f64,
    count: u64,
}

impl Analyzer {
    /// Creates an analyzer with empty phase statistics.
    #[must_use]
    pub fn new(policy: AnalyzerPolicy) -> Self {
        Analyzer {
            policy,
            sum: 0.0,
            count: 0,
        }
    }

    /// Returns the analyzer's policy.
    #[must_use]
    pub fn policy(&self) -> AnalyzerPolicy {
        self.policy
    }

    /// The effective threshold the next value will be compared against.
    #[must_use]
    pub fn effective_threshold(&self) -> f64 {
        match self.policy {
            AnalyzerPolicy::Threshold(t) => t,
            AnalyzerPolicy::Average { delta } => running_average(self.sum, self.count) - delta,
        }
    }

    /// `processValue`: maps a similarity value to a state.
    #[must_use]
    pub fn judge(&self, similarity: f64) -> PhaseState {
        if similarity >= self.effective_threshold() {
            PhaseState::Phase
        } else {
            PhaseState::Transition
        }
    }

    /// `updateStats`: folds an in-phase similarity value into the
    /// running statistics.
    pub fn update(&mut self, similarity: f64) {
        self.sum += similarity;
        self.count += 1;
    }

    /// `resetStats`: clears the phase statistics (called when a new
    /// phase starts).
    pub fn reset(&mut self) {
        self.sum = 0.0;
        self.count = 0;
    }

    /// The analyzer's confidence in the state it would assign to
    /// `similarity`: how far the value sits from the decision
    /// threshold, normalized to the room available on that side
    /// (Section 2 lists a state-confidence level as an optional
    /// detector feature).
    ///
    /// Returns a value in `[0, 1]`; `0` means the value lies exactly
    /// on the threshold, `1` that it is as far from it as possible.
    #[must_use]
    pub fn confidence(&self, similarity: f64) -> f64 {
        let t = self.effective_threshold().clamp(0.0, 1.0);
        let room = if similarity >= t { 1.0 - t } else { t };
        if room <= 0.0 {
            1.0
        } else {
            ((similarity - t).abs() / room).clamp(0.0, 1.0)
        }
    }

    /// The running statistics `(sum, count)` are `stats`: a sweep
    /// cohort hands its shared statistics to a member leaving it.
    pub(crate) fn set_stats(&mut self, (sum, count): (f64, u64)) {
        self.sum = sum;
        self.count = count;
    }

    /// Number of values folded in since the last reset.
    #[must_use]
    pub fn sample_count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_inclusive() {
        let a = Analyzer::new(AnalyzerPolicy::Threshold(0.5));
        assert!(a.judge(0.5).is_phase());
        assert!(a.judge(0.499_999).is_transition());
        assert!(a.judge(1.0).is_phase());
        assert!(a.judge(0.0).is_transition());
    }

    #[test]
    fn average_bootstrap_requires_high_similarity() {
        // Fresh stats: avg = 1.0, so P needs sim >= 1 - delta.
        let a = Analyzer::new(AnalyzerPolicy::Average { delta: 0.1 });
        assert!(a.judge(0.95).is_phase());
        assert!(a.judge(0.85).is_transition());
    }

    #[test]
    fn average_adapts_to_phase_values() {
        // Paper example: running average 0.88, delta 0.02 => values of
        // 0.86 or higher are in phase.
        let mut a = Analyzer::new(AnalyzerPolicy::Average { delta: 0.02 });
        a.update(0.88);
        a.update(0.88);
        assert!((a.effective_threshold() - 0.86).abs() < 1e-12);
        assert!(a.judge(0.86).is_phase());
        assert!(a.judge(0.859).is_transition());
    }

    #[test]
    fn reset_restores_bootstrap() {
        let mut a = Analyzer::new(AnalyzerPolicy::Average { delta: 0.3 });
        a.update(0.2);
        assert!(a.judge(0.2).is_phase()); // avg 0.2 - 0.3 < 0.2
        a.reset();
        assert_eq!(a.sample_count(), 0);
        assert!(a.judge(0.69).is_transition()); // back to 1 - 0.3
        assert!(a.judge(0.7).is_phase());
    }

    #[test]
    fn update_accumulates_mean() {
        let mut a = Analyzer::new(AnalyzerPolicy::Average { delta: 0.0 });
        for v in [0.5, 0.7, 0.9] {
            a.update(v);
        }
        assert_eq!(a.sample_count(), 3);
        assert!((a.effective_threshold() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn threshold_stats_do_not_affect_judgement() {
        let mut a = Analyzer::new(AnalyzerPolicy::Threshold(0.6));
        a.update(0.1);
        a.update(0.1);
        assert!(a.judge(0.6).is_phase());
        assert_eq!(a.effective_threshold(), 0.6);
    }

    #[test]
    fn display_names() {
        assert_eq!(AnalyzerPolicy::Threshold(0.5).to_string(), "threshold(0.5)");
        assert_eq!(
            AnalyzerPolicy::Average { delta: 0.05 }.to_string(),
            "average(0.05)"
        );
    }

    #[test]
    fn confidence_is_distance_from_threshold() {
        let a = Analyzer::new(AnalyzerPolicy::Threshold(0.5));
        assert_eq!(a.confidence(0.5), 0.0);
        assert!((a.confidence(1.0) - 1.0).abs() < 1e-12);
        assert!((a.confidence(0.0) - 1.0).abs() < 1e-12);
        assert!((a.confidence(0.75) - 0.5).abs() < 1e-12);
        assert!((a.confidence(0.25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn confidence_handles_extreme_thresholds() {
        let hi = Analyzer::new(AnalyzerPolicy::Threshold(1.0));
        // No room above the threshold: any value at/above it is fully
        // confident.
        assert_eq!(hi.confidence(1.0), 1.0);
        let lo = Analyzer::new(AnalyzerPolicy::Threshold(0.0));
        // A value sitting exactly on the threshold is never confident.
        assert_eq!(lo.confidence(0.0), 0.0);
        assert!((lo.confidence(0.7) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn confidence_follows_adaptive_threshold() {
        let mut a = Analyzer::new(AnalyzerPolicy::Average { delta: 0.1 });
        a.update(0.8);
        a.update(0.8); // threshold now 0.7
        assert!(a.confidence(0.7) < 1e-12);
        assert!(a.confidence(0.9) > a.confidence(0.75));
    }
}
