//! Figure 7: window resizing and anchoring at phase starts
//! (Section 5): Slide versus Move (a) and RN versus LNN (b).
//!
//! All (MPL, variant) grids run in one `sweep_many` over every
//! workload; the three variants of an MPL share one adaptive scan.

use core::fmt;
use core::ops::Range;

use opd_core::{AnchorPolicy, ResizePolicy};

use crate::exp::{avg, best_scores, pct_improvement, push_grid, ExpOptions};
use crate::grid::{adaptive_grid, half_mpl_cw, MPLS_TABLE1};
use crate::report::{fmt_mpl, fmt_pct, Table};
use crate::runner::{prepare_all, sweep_many};

/// Improvements for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// The minimum phase length.
    pub mpl: u64,
    /// Percent improvement of Slide over Move resizing (RN anchor).
    pub slide_over_move: f64,
    /// Percent improvement of RN over LNN anchoring (Slide resizing).
    pub rn_over_lnn: f64,
}

/// The regenerated Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// One row per MPL value.
    pub rows: Vec<Fig7Row>,
}

impl Fig7Result {
    /// Average improvement of Slide over Move across MPL values.
    #[must_use]
    pub fn average_slide_improvement(&self) -> f64 {
        avg(self.rows.iter().map(|r| r.slide_over_move))
    }

    /// Average improvement of RN over LNN across MPL values.
    #[must_use]
    pub fn average_rn_improvement(&self) -> f64 {
        avg(self.rows.iter().map(|r| r.rn_over_lnn))
    }
}

/// Runs the Figure 7 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig7Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_TABLE1,
        opts.fuel,
        opts.threads,
    );
    let variants = [
        (AnchorPolicy::RightmostNoisy, ResizePolicy::Slide),
        (AnchorPolicy::RightmostNoisy, ResizePolicy::Move),
        (AnchorPolicy::LeftmostNonNoisy, ResizePolicy::Slide),
    ];
    // All three variants of one MPL share a window shape, so they run
    // as one shared adaptive scan per workload.
    let mut configs = Vec::new();
    let ranges: Vec<[Range<usize>; 3]> = MPLS_TABLE1
        .iter()
        .map(|&mpl| {
            let cw = half_mpl_cw(mpl);
            variants
                .map(|(anchor, resize)| push_grid(&mut configs, adaptive_grid(cw, anchor, resize)))
        })
        .collect();
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let rows = MPLS_TABLE1
        .iter()
        .zip(&ranges)
        .map(|(&mpl, [rn_slide, rn_move, lnn_slide])| {
            // Average of best scores per variant across benchmarks.
            let score = |grid| avg(best_scores(&prepared, &runs, grid, mpl));
            let rn_slide = score(rn_slide);
            Fig7Row {
                mpl,
                slide_over_move: pct_improvement(rn_slide, score(rn_move)),
                rn_over_lnn: pct_improvement(rn_slide, score(lnn_slide)),
            }
        })
        .collect();
    Fig7Result { rows }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 7: % improvement from resize and anchor policies (Adaptive TW)",
            &["MPL", "(a) Slide vs Move (RN)", "(b) RN vs LNN (Slide)"],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_pct(r.slide_over_move),
                fmt_pct(r.rn_over_lnn),
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
            workloads: vec![Workload::Ruleng],
            fuel: 25_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 6);
        for r in &result.rows {
            assert!(r.slide_over_move.is_finite());
            assert!(r.rn_over_lnn.is_finite());
        }
        let _ = result.average_slide_improvement();
        let _ = result.average_rn_improvement();
        assert!(result.to_string().contains("Slide vs Move"));
    }
}
