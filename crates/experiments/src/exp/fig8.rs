//! Figure 8: detecting the *beginning* of a phase with the anchoring
//! policy (Section 5).
//!
//! Detected phase-start boundaries are replaced by the anchor
//! positions before scoring, and the Constant and Adaptive policies
//! are compared per MPL.
//!
//! All (MPL, policy) grids run in one `sweep_many` over every workload.

use core::fmt;
use core::ops::Range;

use crate::exp::{avg, push_grid, ExpOptions};
use crate::grid::{half_mpl_cw, policy_grid, TwKind, MPLS_FIG4};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{best_combined_anchored, prepare_all, sweep_many};

/// Anchored-boundary scores for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// The minimum phase length.
    pub mpl: u64,
    /// Average best anchored score, Constant TW.
    pub constant: f64,
    /// Average best anchored score, Adaptive TW.
    pub adaptive: f64,
}

/// The regenerated Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// One row per MPL value.
    pub rows: Vec<Fig8Row>,
}

impl Fig8Result {
    /// `true` if the Adaptive TW wins at every MPL — the paper's
    /// Figure 8 finding.
    #[must_use]
    pub fn adaptive_wins_everywhere(&self) -> bool {
        self.rows.iter().all(|r| r.adaptive >= r.constant)
    }
}

/// Runs the Figure 8 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig8Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_FIG4,
        opts.fuel,
        opts.threads,
    );
    let mut configs = Vec::new();
    let ranges: Vec<[Range<usize>; 2]> = MPLS_FIG4
        .iter()
        .map(|&mpl| {
            [TwKind::Constant, TwKind::Adaptive]
                .map(|kind| push_grid(&mut configs, policy_grid(kind, half_mpl_cw(mpl))))
        })
        .collect();
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let rows = MPLS_FIG4
        .iter()
        .zip(&ranges)
        .map(|(&mpl, [constant, adaptive])| {
            let score = |grid: &Range<usize>| {
                avg(prepared
                    .iter()
                    .zip(&runs)
                    .map(|(p, runs)| best_combined_anchored(&runs[grid.clone()], p.oracle(mpl))))
            };
            Fig8Row {
                mpl,
                constant: score(constant),
                adaptive: score(adaptive),
            }
        })
        .collect();
    Fig8Result { rows }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 8: anchored phase-start boundaries (average best score)",
            &["MPL", "Constant TW", "Adaptive TW"],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_score(r.constant),
                fmt_score(r.adaptive),
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
            workloads: vec![Workload::Parsegen],
            fuel: 25_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 7);
        for r in &result.rows {
            assert!((0.0..=1.0).contains(&r.constant), "{r:?}");
            assert!((0.0..=1.0).contains(&r.adaptive), "{r:?}");
        }
        assert!(result.to_string().contains("Adaptive TW"));
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    #[test]
    fn adaptive_wins_everywhere_is_per_row() {
        let winning = Fig8Result {
            rows: vec![
                Fig8Row {
                    mpl: 1_000,
                    constant: 0.5,
                    adaptive: 0.6,
                },
                Fig8Row {
                    mpl: 10_000,
                    constant: 0.7,
                    adaptive: 0.7,
                },
            ],
        };
        assert!(winning.adaptive_wins_everywhere());
        let losing = Fig8Result {
            rows: vec![Fig8Row {
                mpl: 1_000,
                constant: 0.8,
                adaptive: 0.6,
            }],
        };
        assert!(!losing.adaptive_wins_everywhere());
    }
}
