//! The detector parameter spaces of the paper's study.

use core::fmt;

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, ConfigError, DetectorConfig, ModelPolicy, ResizePolicy, TwPolicy,
};

/// The MPL values of Table 1(b), Table 2, and Figure 7.
pub const MPLS_TABLE1: [u64; 6] = [1_000, 5_000, 10_000, 25_000, 50_000, 100_000];

/// The MPL values of Figures 4 and 8 (Table 1's plus 200K).
pub const MPLS_FIG4: [u64; 7] = [1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 200_000];

/// The MPL values of Figures 5 and 6.
pub const MPLS_MAIN: [u64; 4] = [1_000, 10_000, 50_000, 100_000];

/// The current-window sizes considered in Section 4.2.
pub const CW_SIZES: [usize; 7] = [500, 1_000, 5_000, 10_000, 25_000, 50_000, 100_000];

/// The fixed-threshold analyzer values of Figure 6.
pub const THRESHOLD_VALUES: [f64; 4] = [0.5, 0.6, 0.7, 0.8];

/// The average-analyzer delta values of Figure 6.
pub const AVERAGE_DELTAS: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4];

/// The three trailing-window strategies compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwKind {
    /// Adaptive TW, skip factor 1 (RN anchor + sliding resize unless
    /// overridden).
    Adaptive,
    /// Constant TW, skip factor 1.
    Constant,
    /// Constant TW with skip factor = CW size = TW size — the policy
    /// most common in prior work.
    FixedInterval,
}

impl TwKind {
    /// All three strategies, in the paper's presentation order.
    pub const ALL: [TwKind; 3] = [TwKind::Adaptive, TwKind::Constant, TwKind::FixedInterval];

    /// A short label matching the paper's terminology.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TwKind::Adaptive => "Adaptive TW",
            TwKind::Constant => "Constant TW",
            TwKind::FixedInterval => "Fixed Interval",
        }
    }
}

impl fmt::Display for TwKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's ten analyzers: four fixed thresholds and six
/// average-deltas (Figure 6).
#[must_use]
pub fn paper_analyzers() -> Vec<AnalyzerPolicy> {
    THRESHOLD_VALUES
        .iter()
        .map(|&t| AnalyzerPolicy::Threshold(t))
        .chain(
            AVERAGE_DELTAS
                .iter()
                .map(|&delta| AnalyzerPolicy::Average { delta }),
        )
        .collect()
}

/// Builds one detector configuration for a trailing-window strategy.
///
/// # Errors
///
/// Propagates [`ConfigError`] for invalid sizes or analyzer parameters.
pub fn config_for(
    kind: TwKind,
    cw: usize,
    model: ModelPolicy,
    analyzer: AnalyzerPolicy,
) -> Result<DetectorConfig, ConfigError> {
    let builder = DetectorConfig::builder()
        .current_window(cw)
        .trailing_window(cw)
        .model(model)
        .analyzer(analyzer);
    match kind {
        TwKind::Adaptive => builder
            .tw_policy(TwPolicy::Adaptive)
            .anchor(AnchorPolicy::RightmostNoisy)
            .resize(ResizePolicy::Slide)
            .skip_factor(1)
            .build(),
        TwKind::Constant => builder.tw_policy(TwPolicy::Constant).skip_factor(1).build(),
        TwKind::FixedInterval => builder
            .tw_policy(TwPolicy::Constant)
            .skip_factor(cw)
            .build(),
    }
}

/// All model × analyzer configurations for one strategy and CW size
/// (2 × 10 = 20 detectors), the per-cell sweep of Sections 4.2–4.4.
#[must_use]
pub fn policy_grid(kind: TwKind, cw: usize) -> Vec<DetectorConfig> {
    let mut out = Vec::with_capacity(20);
    for model in ModelPolicy::ALL {
        for analyzer in paper_analyzers() {
            out.push(config_for(kind, cw, model, analyzer).expect("grid parameters are valid"));
        }
    }
    out
}

/// Like [`policy_grid`] but restricted to one model (Figure 6 uses the
/// unweighted model only).
#[must_use]
pub fn analyzer_grid(kind: TwKind, cw: usize, model: ModelPolicy) -> Vec<DetectorConfig> {
    paper_analyzers()
        .into_iter()
        .map(|a| config_for(kind, cw, model, a).expect("grid parameters are valid"))
        .collect()
}

/// All model × analyzer configurations for the adaptive policy with an
/// explicit anchor and resize choice (Figure 7 compares RN/LNN and
/// Slide/Move).
#[must_use]
pub fn adaptive_grid(cw: usize, anchor: AnchorPolicy, resize: ResizePolicy) -> Vec<DetectorConfig> {
    let mut out = Vec::with_capacity(20);
    for model in ModelPolicy::ALL {
        for analyzer in paper_analyzers() {
            out.push(
                DetectorConfig::builder()
                    .current_window(cw)
                    .trailing_window(cw)
                    .skip_factor(1)
                    .tw_policy(TwPolicy::Adaptive)
                    .anchor(anchor)
                    .resize(resize)
                    .model(model)
                    .analyzer(analyzer)
                    .build()
                    .expect("grid parameters are valid"),
            );
        }
    }
    out
}

/// The full study grid: over 10,000 distinct detector instantiations
/// (Section 4.1 reports "over 10,000 different algorithms").
///
/// Sweeps CW sizes, TW/CW ratios (½×, 1×, 2×), skip factors (1,
/// CW/10, CW), both models, an extended analyzer set, and — for the
/// adaptive policy — both anchor and both resize policies.
#[must_use]
pub fn full_grid() -> Vec<DetectorConfig> {
    let mut analyzers: Vec<AnalyzerPolicy> = Vec::new();
    for i in 0..13u32 {
        analyzers.push(AnalyzerPolicy::Threshold(f64::from(30 + 5 * i) / 100.0));
    }
    for delta in [0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4] {
        analyzers.push(AnalyzerPolicy::Average { delta });
    }

    let mut out = Vec::new();
    for &cw in &CW_SIZES {
        for tw in [cw / 2, cw, cw * 2] {
            let tw = tw.max(1);
            for skip in [1, (cw / 10).max(1), cw] {
                for model in ModelPolicy::ALL {
                    for &analyzer in &analyzers {
                        let base = DetectorConfig::builder()
                            .current_window(cw)
                            .trailing_window(tw)
                            .skip_factor(skip)
                            .model(model)
                            .analyzer(analyzer);
                        out.push(
                            base.clone()
                                .tw_policy(TwPolicy::Constant)
                                .build()
                                .expect("valid constant config"),
                        );
                        for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy]
                        {
                            for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                                out.push(
                                    base.clone()
                                        .tw_policy(TwPolicy::Adaptive)
                                        .anchor(anchor)
                                        .resize(resize)
                                        .build()
                                        .expect("valid adaptive config"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The fixed-threshold values the shared-window benchmark grid adds on
/// top of [`paper_analyzers`].
pub const EXTRA_THRESHOLDS: [f64; 8] = [0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.9, 0.95];

/// The default benchmark grid: 28 same-shape Constant-TW configs at
/// CW 500 — the 20-config [`policy_grid`] plus eight extra unweighted
/// thresholds ([`EXTRA_THRESHOLDS`]). Every member shares one trace
/// scan in the sweep engine, and `opd sweep` and `opd certify` run
/// this grid by default.
#[must_use]
pub fn default_plan_grid() -> Vec<DetectorConfig> {
    let mut configs = policy_grid(TwKind::Constant, 500);
    for t in EXTRA_THRESHOLDS {
        configs.push(
            config_for(
                TwKind::Constant,
                500,
                ModelPolicy::UnweightedSet,
                AnalyzerPolicy::Threshold(t),
            )
            .expect("grid parameters are valid"),
        );
    }
    configs
}

/// The CW size the analysis sections use: half the MPL (Section 4.2
/// concludes CW = ½·MPL and uses it "for the remainder of the paper").
#[must_use]
pub fn half_mpl_cw(mpl: u64) -> usize {
    ((mpl / 2) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_analyzers_count_and_order() {
        let a = paper_analyzers();
        assert_eq!(a.len(), 10);
        assert_eq!(a[0], AnalyzerPolicy::Threshold(0.5));
        assert_eq!(a[4], AnalyzerPolicy::Average { delta: 0.01 });
    }

    #[test]
    fn policy_grid_has_twenty_configs() {
        for kind in TwKind::ALL {
            let g = policy_grid(kind, 1_000);
            assert_eq!(g.len(), 20, "{kind}");
            for c in &g {
                assert_eq!(c.current_window(), 1_000);
            }
        }
    }

    #[test]
    fn fixed_interval_configs_have_skip_equal_cw() {
        let g = policy_grid(TwKind::FixedInterval, 500);
        assert!(g.iter().all(|c| c.is_fixed_interval()));
        let g = policy_grid(TwKind::Constant, 500);
        assert!(g.iter().all(|c| c.skip_factor() == 1));
    }

    #[test]
    fn full_grid_exceeds_ten_thousand() {
        let g = full_grid();
        assert!(g.len() > 10_000, "only {} configs", g.len());
        assert_eq!(g.len(), 13_230);
    }

    #[test]
    fn default_plan_grid_is_one_shared_shape() {
        let g = default_plan_grid();
        assert_eq!(g.len(), 28);
        assert!(g.iter().all(|c| c.shares_windows()));
        assert_eq!(
            g.iter()
                .map(DetectorConfig::shape)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
    }

    #[test]
    fn half_mpl() {
        assert_eq!(half_mpl_cw(100_000), 50_000);
        assert_eq!(half_mpl_cw(1), 1);
    }

    #[test]
    fn labels() {
        assert_eq!(TwKind::FixedInterval.label(), "Fixed Interval");
        assert_eq!(format!("{}", TwKind::Adaptive), "Adaptive TW");
    }
}
