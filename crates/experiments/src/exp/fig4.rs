//! Figure 4: skip factor and Fixed Interval versus Constant/Adaptive
//! trailing windows (Section 4.2).
//!
//! For every MPL, the three strategies are compared with CW = ½·MPL,
//! taking the average over benchmarks of the best score across all
//! model/analyzer combinations. Fixed Interval uses skip factor = CW
//! size; the other two use skip factor 1.
//!
//! All (MPL, strategy) grids run in one `sweep_many` over every workload.

use core::fmt;
use core::ops::Range;

use crate::exp::{avg, best_scores, push_grid, ExpOptions};
use crate::grid::{half_mpl_cw, policy_grid, TwKind, MPLS_FIG4};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{prepare_all, sweep_many};

/// Scores for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// The minimum phase length.
    pub mpl: u64,
    /// Average best score, Fixed Interval (skip = CW size).
    pub fixed_interval: f64,
    /// Average best score, Constant TW (skip 1).
    pub constant: f64,
    /// Average best score, Adaptive TW (skip 1).
    pub adaptive: f64,
}

/// The regenerated Figure 4 series.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// One row per MPL value.
    pub rows: Vec<Fig4Row>,
}

impl Fig4Result {
    /// `true` if, averaged over MPL values, skip factor 1 beats the
    /// fixed-interval policy — the paper's headline Figure 4 finding.
    #[must_use]
    pub fn skip_one_wins(&self) -> bool {
        let fixed = avg(self.rows.iter().map(|r| r.fixed_interval));
        let constant = avg(self.rows.iter().map(|r| r.constant));
        let adaptive = avg(self.rows.iter().map(|r| r.adaptive));
        constant > fixed && adaptive > fixed
    }
}

/// Runs the Figure 4 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig4Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_FIG4,
        opts.fuel,
        opts.threads,
    );
    let mut configs = Vec::new();
    let ranges: Vec<[Range<usize>; 3]> = MPLS_FIG4
        .iter()
        .map(|&mpl| {
            TwKind::ALL.map(|kind| push_grid(&mut configs, policy_grid(kind, half_mpl_cw(mpl))))
        })
        .collect();
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let rows = MPLS_FIG4
        .iter()
        .zip(&ranges)
        .map(|(&mpl, [adaptive, constant, fixed])| Fig4Row {
            mpl,
            adaptive: avg(best_scores(&prepared, &runs, adaptive, mpl)),
            constant: avg(best_scores(&prepared, &runs, constant, mpl)),
            fixed_interval: avg(best_scores(&prepared, &runs, fixed, mpl)),
        })
        .collect();
    Fig4Result { rows }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 4: average best score vs MPL (CW = 1/2 MPL)",
            &[
                "MPL",
                "Fixed Interval",
                "Constant TW (skip 1)",
                "Adaptive TW (skip 1)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_score(r.fixed_interval),
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
            workloads: vec![Workload::Audiodec],
            fuel: 30_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 7);
        for r in &result.rows {
            for v in [r.fixed_interval, r.constant, r.adaptive] {
                assert!((0.0..=1.0).contains(&v), "{r:?}");
            }
        }
        assert!(result.to_string().contains("200K"));
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    fn row(mpl: u64, fixed: f64, constant: f64, adaptive: f64) -> Fig4Row {
        Fig4Row {
            mpl,
            fixed_interval: fixed,
            constant,
            adaptive,
        }
    }

    #[test]
    fn skip_one_wins_judges_averages() {
        let good = Fig4Result {
            rows: vec![row(1_000, 0.4, 0.7, 0.75), row(10_000, 0.5, 0.6, 0.65)],
        };
        assert!(good.skip_one_wins());
        let bad = Fig4Result {
            rows: vec![row(1_000, 0.9, 0.5, 0.5)],
        };
        assert!(!bad.skip_one_wins());
    }
}
