//! Detector configuration: one point in the framework's parameter
//! space.

use core::fmt;

use crate::analyzer::AnalyzerPolicy;
use crate::model::ModelPolicy;
use crate::window::{AnchorPolicy, ResizePolicy, TwPolicy};

/// Error produced when a detector configuration is invalid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A window size was zero.
    ZeroWindow,
    /// The skip factor was zero.
    ZeroSkipFactor,
    /// A threshold was not a finite number in `[0, 1]`.
    BadThreshold(f64),
    /// An average-analyzer delta was not a finite number in `[0, 1]`.
    BadDelta(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWindow => f.write_str("window sizes must be at least 1"),
            ConfigError::ZeroSkipFactor => f.write_str("skip factor must be at least 1"),
            ConfigError::BadThreshold(t) => write!(f, "threshold {t} not in [0, 1]"),
            ConfigError::BadDelta(d) => write!(f, "average delta {d} not in [0, 1]"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A window shape `(cw, tw, skip)`: the part of a configuration that
/// determines window evolution under the Constant TW policy.
///
/// This is the grouping key of the sweep engine ([`crate::SweepEngine`]
/// shares one trace scan among all shareable configs of equal shape)
/// and of the static sweep cost model in `opd-analyze`, which predicts
/// scan counts from shapes alone without running a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConfigShape {
    /// Current-window capacity, in profile elements.
    pub cw: usize,
    /// Trailing-window (initial) capacity, in profile elements.
    pub tw: usize,
    /// Elements consumed per detector step.
    pub skip: usize,
}

impl ConfigShape {
    /// The shape of `config`.
    #[must_use]
    pub fn of(config: &DetectorConfig) -> Self {
        ConfigShape {
            cw: config.current_window(),
            tw: config.trailing_window(),
            skip: config.skip_factor(),
        }
    }

    /// Detector steps taken over a trace of `elements` profile
    /// elements: one per (possibly partial) chunk of `skip` elements.
    /// A zero skip (unreachable from a validated config) counts as 1.
    #[must_use]
    pub fn steps(&self, elements: u64) -> u64 {
        elements.div_ceil((self.skip as u64).max(1))
    }
}

impl fmt::Display for ConfigShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cw={} tw={} skip={}", self.cw, self.tw, self.skip)
    }
}

/// A complete, validated parameterization of the phase detection
/// framework.
///
/// Construct with [`DetectorConfig::builder`], or use
/// [`DetectorConfig::fixed_interval`] for the configuration most common
/// in prior work (skip factor = CW size = TW size, constant TW).
///
/// # Examples
///
/// ```
/// use opd_core::{AnalyzerPolicy, DetectorConfig, ModelPolicy, TwPolicy};
///
/// let config = DetectorConfig::builder()
///     .current_window(5_000)
///     .tw_policy(TwPolicy::Adaptive)
///     .model(ModelPolicy::UnweightedSet)
///     .analyzer(AnalyzerPolicy::Average { delta: 0.05 })
///     .build()?;
/// assert_eq!(config.trailing_window(), 5_000); // defaults to CW size
/// assert_eq!(config.skip_factor(), 1);
/// # Ok::<(), opd_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DetectorConfig {
    cw_size: usize,
    tw_size: usize,
    skip_factor: usize,
    tw_policy: TwPolicy,
    anchor: AnchorPolicy,
    resize: ResizePolicy,
    model: ModelPolicy,
    analyzer: AnalyzerPolicy,
}

impl DetectorConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder::new()
    }

    /// The fixed-interval configuration used by most prior systems
    /// (Dhodapkar & Smith and others): skip factor = CW size = TW size,
    /// constant trailing window.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroWindow`] if `window` is zero.
    pub fn fixed_interval(
        window: usize,
        model: ModelPolicy,
        analyzer: AnalyzerPolicy,
    ) -> Result<Self, ConfigError> {
        DetectorConfigBuilder::new()
            .current_window(window)
            .trailing_window(window)
            .skip_factor(window)
            .tw_policy(TwPolicy::Constant)
            .model(model)
            .analyzer(analyzer)
            .build()
    }

    /// Size of the current window, in profile elements.
    #[must_use]
    pub fn current_window(&self) -> usize {
        self.cw_size
    }

    /// Initial (and, for the constant policy, permanent) size of the
    /// trailing window.
    #[must_use]
    pub fn trailing_window(&self) -> usize {
        self.tw_size
    }

    /// Number of profile elements consumed per detector step.
    #[must_use]
    pub fn skip_factor(&self) -> usize {
        self.skip_factor
    }

    /// The trailing-window management policy.
    #[must_use]
    pub fn tw_policy(&self) -> TwPolicy {
        self.tw_policy
    }

    /// The anchor-point policy applied at phase starts.
    #[must_use]
    pub fn anchor(&self) -> AnchorPolicy {
        self.anchor
    }

    /// The window-resizing policy applied at phase starts (adaptive
    /// trailing window only).
    #[must_use]
    pub fn resize(&self) -> ResizePolicy {
        self.resize
    }

    /// The similarity model.
    #[must_use]
    pub fn model(&self) -> ModelPolicy {
        self.model
    }

    /// The similarity analyzer.
    #[must_use]
    pub fn analyzer(&self) -> AnalyzerPolicy {
        self.analyzer
    }

    /// `true` when this is a fixed-interval detector (skip factor
    /// equals both window sizes, constant TW).
    #[must_use]
    pub fn is_fixed_interval(&self) -> bool {
        self.tw_policy == TwPolicy::Constant
            && self.skip_factor == self.cw_size
            && self.tw_size == self.cw_size
    }

    /// The window shape `(cw, tw, skip)` of this configuration.
    #[must_use]
    pub fn shape(&self) -> ConfigShape {
        ConfigShape::of(self)
    }

    /// Whether this config may share windows *directly* with
    /// same-shape configs in a sweep: constant trailing window (the
    /// windows evolve as a pure FIFO regardless of phase decisions)
    /// and `skip ≤ cw` (a flush keeping more than `cw` elements
    /// transiently over-fills a private CW — a state a shared window
    /// never visits). See the `sweep` module docs for the full
    /// argument.
    #[must_use]
    pub fn shares_windows(&self) -> bool {
        self.tw_policy == TwPolicy::Constant && self.skip_factor <= self.cw_size
    }

    /// Whether this config may share windows through the *forking*
    /// adaptive scan: an adaptive-TW config deviates from the
    /// same-shape FIFO only while inside a phase (the anchor/resize
    /// mutation at phase entry, then TW growth), and after the
    /// phase-exit flush its refilled state is again FIFO-identical —
    /// so in-Transition members can judge off one shared FIFO and
    /// in-Phase members off copy-on-entry forks. Needs the same
    /// `skip ≤ cw` bound as [`shares_windows`](Self::shares_windows).
    #[must_use]
    pub fn shares_windows_adaptively(&self) -> bool {
        self.tw_policy == TwPolicy::Adaptive && self.skip_factor <= self.cw_size
    }
}

impl fmt::Display for DetectorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cw={} tw={} skip={} {} {} {}",
            self.cw_size, self.tw_size, self.skip_factor, self.tw_policy, self.model, self.analyzer
        )?;
        if self.tw_policy == TwPolicy::Adaptive {
            write!(f, " {} {}", self.anchor, self.resize)?;
        }
        Ok(())
    }
}

/// Builder for [`DetectorConfig`].
///
/// Defaults: CW 5 000 elements, TW equal to CW, skip factor 1, constant
/// trailing window, unweighted model, fixed threshold 0.5, RN anchor,
/// sliding resize.
#[derive(Debug, Clone)]
pub struct DetectorConfigBuilder {
    cw_size: usize,
    tw_size: Option<usize>,
    skip_factor: usize,
    tw_policy: TwPolicy,
    anchor: AnchorPolicy,
    resize: ResizePolicy,
    model: ModelPolicy,
    analyzer: AnalyzerPolicy,
}

impl Default for DetectorConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectorConfigBuilder {
    /// Creates a builder with the documented defaults.
    #[must_use]
    pub fn new() -> Self {
        DetectorConfigBuilder {
            cw_size: 5_000,
            tw_size: None,
            skip_factor: 1,
            tw_policy: TwPolicy::Constant,
            anchor: AnchorPolicy::RightmostNoisy,
            resize: ResizePolicy::Slide,
            model: ModelPolicy::UnweightedSet,
            analyzer: AnalyzerPolicy::Threshold(0.5),
        }
    }

    /// Sets the current-window size.
    #[must_use]
    pub fn current_window(mut self, size: usize) -> Self {
        self.cw_size = size;
        self
    }

    /// Sets the trailing-window size (defaults to the CW size).
    #[must_use]
    pub fn trailing_window(mut self, size: usize) -> Self {
        self.tw_size = Some(size);
        self
    }

    /// Sets the skip factor.
    #[must_use]
    pub fn skip_factor(mut self, skip: usize) -> Self {
        self.skip_factor = skip;
        self
    }

    /// Sets the trailing-window policy.
    #[must_use]
    pub fn tw_policy(mut self, policy: TwPolicy) -> Self {
        self.tw_policy = policy;
        self
    }

    /// Sets the anchor policy.
    #[must_use]
    pub fn anchor(mut self, anchor: AnchorPolicy) -> Self {
        self.anchor = anchor;
        self
    }

    /// Sets the resize policy.
    #[must_use]
    pub fn resize(mut self, resize: ResizePolicy) -> Self {
        self.resize = resize;
        self
    }

    /// Sets the similarity model.
    #[must_use]
    pub fn model(mut self, model: ModelPolicy) -> Self {
        self.model = model;
        self
    }

    /// Sets the analyzer.
    #[must_use]
    pub fn analyzer(mut self, analyzer: AnalyzerPolicy) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero-sized windows, a zero skip
    /// factor, or analyzer parameters outside `[0, 1]`.
    pub fn build(self) -> Result<DetectorConfig, ConfigError> {
        let tw_size = self.tw_size.unwrap_or(self.cw_size);
        if self.cw_size == 0 || tw_size == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.skip_factor == 0 {
            return Err(ConfigError::ZeroSkipFactor);
        }
        match self.analyzer {
            AnalyzerPolicy::Threshold(t) if !(0.0..=1.0).contains(&t) => {
                return Err(ConfigError::BadThreshold(t));
            }
            AnalyzerPolicy::Average { delta } if !(0.0..=1.0).contains(&delta) => {
                return Err(ConfigError::BadDelta(delta));
            }
            _ => {}
        }
        Ok(DetectorConfig {
            cw_size: self.cw_size,
            tw_size,
            skip_factor: self.skip_factor,
            tw_policy: self.tw_policy,
            anchor: self.anchor,
            resize: self.resize,
            model: self.model,
            analyzer: self.analyzer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = DetectorConfig::builder().build().unwrap();
        assert_eq!(c.current_window(), 5_000);
        assert_eq!(c.trailing_window(), 5_000);
        assert_eq!(c.skip_factor(), 1);
        assert_eq!(c.tw_policy(), TwPolicy::Constant);
        assert_eq!(c.model(), ModelPolicy::UnweightedSet);
        assert!(!c.is_fixed_interval());
    }

    #[test]
    fn fixed_interval_preset() {
        let c = DetectorConfig::fixed_interval(
            1_000,
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Threshold(0.5),
        )
        .unwrap();
        assert!(c.is_fixed_interval());
        assert_eq!(c.skip_factor(), 1_000);
    }

    #[test]
    fn zero_sizes_rejected() {
        assert_eq!(
            DetectorConfig::builder().current_window(0).build(),
            Err(ConfigError::ZeroWindow)
        );
        assert_eq!(
            DetectorConfig::builder().trailing_window(0).build(),
            Err(ConfigError::ZeroWindow)
        );
        assert_eq!(
            DetectorConfig::builder().skip_factor(0).build(),
            Err(ConfigError::ZeroSkipFactor)
        );
    }

    #[test]
    fn bad_analyzer_params_rejected() {
        assert_eq!(
            DetectorConfig::builder()
                .analyzer(AnalyzerPolicy::Threshold(1.5))
                .build(),
            Err(ConfigError::BadThreshold(1.5))
        );
        assert_eq!(
            DetectorConfig::builder()
                .analyzer(AnalyzerPolicy::Average { delta: -0.1 })
                .build(),
            Err(ConfigError::BadDelta(-0.1))
        );
        let nan = f64::NAN;
        assert!(matches!(
            DetectorConfig::builder()
                .analyzer(AnalyzerPolicy::Threshold(nan))
                .build(),
            Err(ConfigError::BadThreshold(_))
        ));
    }

    #[test]
    fn display_includes_key_parameters() {
        let c = DetectorConfig::builder()
            .current_window(500)
            .tw_policy(TwPolicy::Adaptive)
            .build()
            .unwrap();
        let text = format!("{c}");
        assert!(text.contains("cw=500"), "{text}");
        assert!(text.contains("adaptive"), "{text}");
    }

    #[test]
    fn errors_display() {
        for e in [
            ConfigError::ZeroWindow,
            ConfigError::ZeroSkipFactor,
            ConfigError::BadThreshold(2.0),
            ConfigError::BadDelta(2.0),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
