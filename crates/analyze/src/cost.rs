//! The static sweep cost model.
//!
//! PR 2's program analysis bounds what a workload can *emit* (branch
//! events, alphabet size); this module bounds what a detector config
//! must *do* with those events, without running anything:
//!
//! * **Exact scan counts** — [`predicted_scans`] replicates the sweep
//!   engine's grouping rule (one scan per distinct shape per TW
//!   policy among window-sharing configs — Constant groups share
//!   directly, Adaptive groups through the forking scan — and one per
//!   private config) and therefore
//!   matches [`opd_core::SweepEngine::total_scans`] exactly;
//!   `tests/cert_bounds.rs` checks this agreement on the default and
//!   full grids.
//! * **Comparison-op upper bounds** — per config × workload, from the
//!   static element and alphabet bounds, with checked arithmetic
//!   (overflow surfaces as `None`, never as a wrapped number).
//! * **Schedulable unit costs** — [`unit_cost`] prices one
//!   [`SweepUnit`] for LPT distribution, replacing the old heuristic
//!   `SweepUnit::cost()` (a fixed 8:1 scan-to-member weighting that
//!   ignored trace length, skip factor, and model entirely).
//!
//! The per-step op counts mirror the *default* (SWAR) window kernel
//! of `opd-core` — the one every sweep runs on unless explicitly
//! switched to the scalar reference. Below the rank-mode skip cutoff
//! the kernel judges densely: the unweighted model popcounts the
//! membership bit lanes (one `u64` per 64 alphabet sites), the
//! weighted model min-sums the per-site count columns, and Pearson
//! pays both a count pass and a lane pass. From
//! [`opd_core::RANK_MODE_MIN_SKIP`] upward the kernel may answer each
//! judge from the per-trace rank index instead — three rank lookups
//! and a reduction per site, for every model — which dominates the
//! dense costs, so that regime is bounded by the rank cost whether or
//! not the trace is rank-eligible. Window maintenance costs a
//! constant per element (count/bit updates over the dirty spans) —
//! once per scan for a shared group, once per member otherwise.

use std::collections::HashSet;

use opd_core::{DetectorConfig, ModelPolicy, SweepUnit, RANK_MODE_MIN_SKIP};

/// Relative weight of one element's window maintenance (count and
/// membership-bit updates over the dirty spans, warm tracking).
const WINDOW_OPS_PER_ELEMENT: u64 = 8;

/// Comparison ops one judged step costs for `config` against a trace
/// whose alphabet (distinct-site count) is at most `alphabet`,
/// modeling the default (SWAR) kernel; degenerate zero bounds still
/// cost the fixed judge overhead.
pub(crate) fn per_step_ops(config: &DetectorConfig, alphabet: u64) -> u64 {
    let d = alphabet.max(1);
    if config.skip_factor() >= RANK_MODE_MIN_SKIP {
        // Rank mode (or the dense judging it dominates): three rank
        // lookups and a reduction per site, every model.
        return d.saturating_mul(4).saturating_add(2);
    }
    let lanes = d.div_ceil(64);
    match config.model() {
        // One popcount pass over the membership bit lanes.
        ModelPolicy::UnweightedSet => lanes.saturating_add(2),
        // One min-sum pass over the per-site count columns.
        ModelPolicy::WeightedSet => d.saturating_add(2),
        // A count pass for the moment sums plus a lane pass for the
        // union and shared supports.
        ModelPolicy::Pearson => d.saturating_add(lanes).saturating_add(2),
    }
}

/// Static cost of running one config over one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigCost {
    steps: u64,
    window_ops: u64,
    compare_ops: Option<u64>,
}

impl ConfigCost {
    /// Costs `config` against a trace of at most `elements` profile
    /// elements drawn from at most `alphabet` distinct sites (both
    /// typically static bounds from [`crate::Analysis`]).
    #[must_use]
    pub fn of(config: &DetectorConfig, elements: u64, alphabet: u64) -> Self {
        let steps = config.shape().steps(elements);
        ConfigCost {
            steps,
            window_ops: elements.saturating_mul(WINDOW_OPS_PER_ELEMENT),
            compare_ops: steps.checked_mul(per_step_ops(config, alphabet)),
        }
    }

    /// Detector steps taken: `ceil(elements / skip)`. No pricing path
    /// reads it; `tests/counter_bounds.rs` uses it as the oracle for
    /// the metered engine's step counts.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Window-maintenance ops (a constant per consumed element).
    #[must_use]
    pub fn window_ops(&self) -> u64 {
        self.window_ops
    }

    /// Upper bound on comparison ops across all judged steps; `None`
    /// when the checked product overflowed `u64`.
    #[must_use]
    pub fn compare_ops(&self) -> Option<u64> {
        self.compare_ops
    }
}

/// Trace scans a sweep over `configs` performs, predicted statically:
/// one per distinct shape among Constant-TW window-sharing configs,
/// one per distinct shape among adaptively sharing configs (the
/// forking scan), plus one per private config. Matches
/// `SweepEngine::total_scans()` exactly — the grouping rule here is
/// the engine's planning rule, including its separate shape maps per
/// TW policy.
#[must_use]
pub fn predicted_scans(configs: &[DetectorConfig]) -> usize {
    let mut constant_shapes = HashSet::new();
    let mut adaptive_shapes = HashSet::new();
    let mut scans = 0usize;
    for config in configs {
        if config.shares_windows() {
            if constant_shapes.insert(config.shape()) {
                scans += 1;
            }
        } else if config.shares_windows_adaptively() {
            if adaptive_shapes.insert(config.shape()) {
                scans += 1;
            }
        } else {
            scans += 1;
        }
    }
    scans
}

/// Statically derived cost of one planned sweep unit over a trace of
/// at most `elements` elements and `alphabet` distinct sites, for LPT
/// work distribution. Shared groups pay window maintenance once plus
/// each member's per-step residue; private units pay both per member.
/// Saturates (never wraps) so overflowed bounds rank heaviest.
#[must_use]
pub fn unit_cost(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    elements: u64,
    alphabet: u64,
) -> u64 {
    let (window, compare) = unit_cost_parts(configs, unit, elements, alphabet);
    window.saturating_add(compare)
}

/// [`unit_cost`] split into its `(window maintenance, comparison)`
/// parts. The comparison part is a worst case assuming *every* step is
/// judged; a scheduler that knows a judged-step density for the trace
/// at hand can scale it before summing (the experiment runner's
/// certified LPT pricing scales it by certificate midpoints).
#[must_use]
pub fn unit_cost_parts(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    elements: u64,
    alphabet: u64,
) -> (u64, u64) {
    let mut window = if unit.is_shared() {
        elements.saturating_mul(WINDOW_OPS_PER_ELEMENT)
    } else {
        0
    };
    let mut compare = 0u64;
    for &i in unit.config_indices() {
        let member = ConfigCost::of(&configs[i], elements, alphabet);
        if !unit.is_shared() {
            window = window.saturating_add(member.window_ops());
        }
        compare = compare.saturating_add(member.compare_ops().unwrap_or(u64::MAX));
    }
    (window, compare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_core::{AnalyzerPolicy, SweepEngine, TwPolicy};

    fn grid() -> Vec<DetectorConfig> {
        let mut configs = Vec::new();
        for cw in [16usize, 32] {
            for model in [ModelPolicy::UnweightedSet, ModelPolicy::WeightedSet] {
                configs.push(
                    DetectorConfig::builder()
                        .current_window(cw)
                        .model(model)
                        .build()
                        .unwrap(),
                );
            }
        }
        configs.push(
            DetectorConfig::builder()
                .current_window(16)
                .tw_policy(TwPolicy::Adaptive)
                .build()
                .unwrap(),
        );
        configs.push(
            DetectorConfig::builder()
                .current_window(4)
                .skip_factor(9)
                .build()
                .unwrap(),
        );
        configs
    }

    #[test]
    fn predicted_scans_match_the_engine_exactly() {
        let configs = grid();
        let engine = SweepEngine::new(&configs);
        assert_eq!(predicted_scans(&configs), engine.total_scans());
        // 2 constant shapes + 1 adaptive shape + 1 private (skip>cw).
        assert_eq!(predicted_scans(&configs), 4);
        assert_eq!(predicted_scans(&[]), 0);
    }

    #[test]
    fn steps_and_ops_reflect_skip_and_model() {
        let unweighted = DetectorConfig::builder()
            .current_window(10)
            .skip_factor(3)
            .build()
            .unwrap();
        let c = ConfigCost::of(&unweighted, 100, 1_000);
        assert_eq!(c.steps(), 34); // ceil(100 / 3)
                                   // 16 lanes cover a 1000-site alphabet: 34 * (16 + 2).
        assert_eq!(c.compare_ops(), Some(612));
        let pearson = DetectorConfig::builder()
            .current_window(10)
            .trailing_window(20)
            .model(ModelPolicy::Pearson)
            .build()
            .unwrap();
        // 5 count columns + 1 lane + 2 per step, 100 steps.
        assert_eq!(ConfigCost::of(&pearson, 100, 5).compare_ops(), Some(800));
        // Same window maintenance, dearer comparisons.
        let (p, u) = (
            ConfigCost::of(&pearson, 100, 5),
            ConfigCost::of(&unweighted, 100, 5),
        );
        assert_eq!(p.window_ops(), u.window_ops());
        assert!(p.compare_ops().unwrap() > u.compare_ops().unwrap());
    }

    #[test]
    fn rank_mode_skips_are_priced_per_site() {
        // At skip >= RANK_MODE_MIN_SKIP the kernel may judge through
        // the rank index: 4 ops per site + 2, regardless of model.
        for model in ModelPolicy::ALL_EXTENDED {
            let config = DetectorConfig::builder()
                .current_window(100)
                .skip_factor(50)
                .model(model)
                .build()
                .unwrap();
            let c = ConfigCost::of(&config, 100, 5);
            assert_eq!(c.steps(), 2);
            assert_eq!(c.compare_ops(), Some(2 * (4 * 5 + 2)), "{model}");
        }
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let adaptive_weighted = DetectorConfig::builder()
            .current_window(usize::MAX)
            .model(ModelPolicy::WeightedSet)
            .tw_policy(TwPolicy::Adaptive)
            .build()
            .unwrap();
        let c = ConfigCost::of(&adaptive_weighted, u64::MAX, u64::MAX);
        assert_eq!(c.compare_ops(), None);
        assert_eq!(c.window_ops(), u64::MAX);
        // Saturated, maximal cost for scheduling purposes.
        let configs = [adaptive_weighted];
        let engine = SweepEngine::new(&configs);
        assert_eq!(
            unit_cost(&configs, &engine.units()[0], u64::MAX, u64::MAX),
            u64::MAX
        );
    }

    #[test]
    fn shared_units_amortize_window_maintenance() {
        let mk = |analyzer| {
            DetectorConfig::builder()
                .current_window(100)
                .analyzer(AnalyzerPolicy::Threshold(analyzer))
                .build()
                .unwrap()
        };
        let shared_pair = [mk(0.5), mk(0.7)];
        let engine = SweepEngine::new(&shared_pair);
        assert_eq!(engine.units().len(), 1);
        let shared = unit_cost(&shared_pair, &engine.units()[0], 10_000, 50);
        let solo = [mk(0.5)];
        let solo_engine = SweepEngine::new(&solo);
        let one = unit_cost(&solo, &solo_engine.units()[0], 10_000, 50);
        // Two members cost far less than twice one member: the scan
        // is shared, only the judge residue doubles.
        assert!(shared < one * 2);
        assert!(shared > one);
    }
}
