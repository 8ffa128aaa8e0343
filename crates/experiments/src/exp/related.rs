//! Extension study: related-work detectors against the framework.
//!
//! Section 6 of the paper argues that the detectors of Dhodapkar &
//! Smith (fixed interval, unweighted, threshold 0.5), Lu et al. (PC
//! sample-range test), and Das et al. (Pearson coefficient) are all
//! (near-)instantiations of the framework. This experiment runs each
//! against the same oracles as the paper's own detectors:
//!
//! * `framework best` — best score across the paper's Constant/
//!   Adaptive grids at CW = ½·MPL;
//! * `dhodapkar-smith` — fixed interval, CW = TW = skip = 100K-scaled
//!   window, unweighted model, threshold 0.5 (their published
//!   parameters, window scaled to MPL);
//! * `pearson` — the framework with the Pearson model (Das et al.),
//!   best across analyzers;
//! * `pc-range` — Lu et al.'s detector with a window of ½·MPL.
//!
//! The framework, Dhodapkar-Smith and Pearson grids of every MPL run in
//! one `sweep_many` over every workload; only PC-range runs privately.

use core::fmt;
use core::ops::Range;

use opd_core::{run_online, AnalyzerPolicy, DetectorConfig, ModelPolicy, PcRangeDetector};
use opd_scoring::score_intervals;
use opd_trace::intervals_of;

use crate::exp::{avg, best_scores, push_grid, ExpOptions};
use crate::grid::{analyzer_grid, half_mpl_cw, policy_grid, TwKind, MPLS_MAIN};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{prepare_all, sweep_many, PreparedWorkload};

/// Scores for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelatedRow {
    /// The minimum phase length.
    pub mpl: u64,
    /// Best framework score (Constant + Adaptive grids).
    pub framework: f64,
    /// Dhodapkar & Smith's published configuration.
    pub dhodapkar_smith: f64,
    /// Framework with the Pearson model (Das et al.), best analyzer.
    pub pearson: f64,
    /// Lu et al.'s PC-range detector.
    pub pc_range: f64,
}

/// The extension-study result.
#[derive(Debug, Clone)]
pub struct RelatedResult {
    /// One row per MPL value.
    pub rows: Vec<RelatedRow>,
}

impl RelatedResult {
    /// `true` if the framework's best detector beats every
    /// related-work detector at every MPL.
    #[must_use]
    pub fn framework_wins(&self) -> bool {
        self.rows.iter().all(|r| {
            r.framework >= r.dhodapkar_smith
                && r.framework >= r.pearson
                && r.framework >= r.pc_range
        })
    }
}

fn pc_range_score(p: &PreparedWorkload, mpl: u64, window: usize) -> f64 {
    // The PC-range detector consumes raw element values (its "sampled
    // PCs"), not interned ids.
    let mut det = PcRangeDetector::new(window.max(1), 2.0).expect("valid parameters");
    let states = run_online(&mut det, p.branches());
    score_intervals(&intervals_of(&states), p.oracle(mpl)).combined()
}

/// Runs the extension study.
#[must_use]
pub fn run(opts: &ExpOptions) -> RelatedResult {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_MAIN,
        opts.fuel,
        opts.threads,
    );
    // Per MPL: the framework's Constant + Adaptive grids as one range,
    // Dhodapkar & Smith's single config, and the Pearson grid.
    let mut configs = Vec::new();
    let ranges: Vec<[Range<usize>; 3]> = MPLS_MAIN
        .iter()
        .map(|&mpl| {
            let cw = half_mpl_cw(mpl);
            let ds_config = DetectorConfig::fixed_interval(
                cw,
                ModelPolicy::UnweightedSet,
                AnalyzerPolicy::Threshold(0.5),
            )
            .expect("valid config");
            [
                push_grid(
                    &mut configs,
                    policy_grid(TwKind::Constant, cw)
                        .into_iter()
                        .chain(policy_grid(TwKind::Adaptive, cw)),
                ),
                push_grid(&mut configs, [ds_config]),
                push_grid(
                    &mut configs,
                    analyzer_grid(TwKind::Constant, cw, ModelPolicy::Pearson),
                ),
            ]
        })
        .collect();
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let rows = MPLS_MAIN
        .iter()
        .zip(&ranges)
        .map(|(&mpl, [framework, ds, pearson])| RelatedRow {
            mpl,
            framework: avg(best_scores(&prepared, &runs, framework, mpl)),
            dhodapkar_smith: avg(best_scores(&prepared, &runs, ds, mpl)),
            pearson: avg(best_scores(&prepared, &runs, pearson, mpl)),
            pc_range: avg(prepared
                .iter()
                .map(|p| pc_range_score(p, mpl, half_mpl_cw(mpl)))),
        })
        .collect();
    RelatedResult { rows }
}

impl fmt::Display for RelatedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Extension study: the framework vs related-work detectors (average score)",
            &[
                "MPL",
                "Framework best",
                "Dhodapkar-Smith",
                "Pearson (Das)",
                "PC-range (Lu)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_score(r.framework),
                fmt_score(r.dhodapkar_smith),
                fmt_score(r.pearson),
                fmt_score(r.pc_range),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;

    #[test]
    fn small_run_shapes() {
        let opts = ExpOptions {
            workloads: vec![Workload::Lexgen],
            fuel: 30_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 4);
        for r in &result.rows {
            for v in [r.framework, r.dhodapkar_smith, r.pearson, r.pc_range] {
                assert!((0.0..=1.0).contains(&v), "{r:?}");
            }
            // The full grid subsumes the Dhodapkar-Smith point, so the
            // framework's best can never be worse than... their skip
            // factor differs (fixed interval), so only sanity-check
            // both are valid scores here; the ordering claim is
            // checked on full traces in the integration tests.
        }
        assert!(result.to_string().contains("PC-range"));
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    #[test]
    fn framework_wins_requires_every_row() {
        let mk = |fw: f64| RelatedRow {
            mpl: 1_000,
            framework: fw,
            dhodapkar_smith: 0.5,
            pearson: 0.5,
            pc_range: 0.4,
        };
        assert!(RelatedResult {
            rows: vec![mk(0.6), mk(0.9)]
        }
        .framework_wins());
        assert!(!RelatedResult {
            rows: vec![mk(0.6), mk(0.45)]
        }
        .framework_wins());
    }
}
