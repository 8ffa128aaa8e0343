//! Figure 5: weighted versus unweighted similarity models
//! (Section 4.3), with and without the compress analogue.
//!
//! All (MPL, policy, model) grids run in one `sweep_many` over every
//! workload.

use core::fmt;

use opd_core::ModelPolicy;
use opd_microvm::workloads::Workload;

use crate::exp::{avg, best_scores, push_grid, ExpOptions};
use crate::grid::{analyzer_grid, half_mpl_cw, TwKind, MPLS_MAIN};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{prepare_all, sweep_many};

/// Scores for one (MPL, TW policy) group of Figure 5's bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Cell {
    /// The minimum phase length.
    pub mpl: u64,
    /// The trailing-window policy (Constant or Adaptive).
    pub kind: TwKind,
    /// Average best score, weighted model, all benchmarks.
    pub weighted: f64,
    /// Average best score, unweighted model, all benchmarks.
    pub unweighted: f64,
    /// Weighted, excluding the compress analogue.
    pub weighted_no_compress: f64,
    /// Unweighted, excluding the compress analogue.
    pub unweighted_no_compress: f64,
}

/// The regenerated Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One cell per (MPL, policy), MPL-major.
    pub cells: Vec<Fig5Cell>,
}

impl Fig5Result {
    /// `true` if the unweighted model wins on average once the
    /// compress analogue is excluded — the paper's Section 4.3
    /// conclusion.
    #[must_use]
    pub fn unweighted_wins_without_compress(&self) -> bool {
        avg(self.cells.iter().map(|c| c.unweighted_no_compress))
            >= avg(self.cells.iter().map(|c| c.weighted_no_compress))
    }
}

/// Runs the Figure 5 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig5Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_MAIN,
        opts.fuel,
        opts.threads,
    );
    let kinds = [TwKind::Constant, TwKind::Adaptive];
    let models = [ModelPolicy::WeightedSet, ModelPolicy::UnweightedSet];
    // One (MPL, policy) cell per entry: its [weighted, unweighted] grids.
    let mut configs = Vec::new();
    let mut requested = Vec::new();
    for &mpl in &MPLS_MAIN {
        let cw = half_mpl_cw(mpl);
        for kind in kinds {
            let ranges =
                models.map(|model| push_grid(&mut configs, analyzer_grid(kind, cw, model)));
            requested.push((mpl, kind, ranges));
        }
    }
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let is_compress: Vec<bool> = prepared
        .iter()
        .map(|p| p.workload() == Workload::Blockcomp)
        .collect();
    let without = |scores: &[f64]| {
        avg(scores
            .iter()
            .zip(&is_compress)
            .filter(|&(_, &c)| !c)
            .map(|(&s, _)| s))
    };
    let cells = requested
        .iter()
        .map(|(mpl, kind, [weighted, unweighted])| {
            let weighted: Vec<f64> = best_scores(&prepared, &runs, weighted, *mpl).collect();
            let unweighted: Vec<f64> = best_scores(&prepared, &runs, unweighted, *mpl).collect();
            Fig5Cell {
                mpl: *mpl,
                kind: *kind,
                weighted: avg(weighted.iter().copied()),
                unweighted: avg(unweighted.iter().copied()),
                weighted_no_compress: without(&weighted),
                unweighted_no_compress: without(&unweighted),
            }
        })
        .collect();
    Fig5Result { cells }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 5: weighted vs unweighted model (average best score)",
            &[
                "MPL / Policy",
                "Weighted",
                "Unweighted",
                "Weighted w/o compress",
                "Unweighted w/o compress",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                format!("{} {}", fmt_mpl(c.mpl), c.kind),
                fmt_score(c.weighted),
                fmt_score(c.unweighted),
                fmt_score(c.weighted_no_compress),
                fmt_score(c.unweighted_no_compress),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_shapes() {
        let opts = ExpOptions {
            workloads: vec![Workload::Blockcomp, Workload::Lexgen],
            fuel: 30_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        // 4 MPL values x 2 policies.
        assert_eq!(result.cells.len(), 8);
        for c in &result.cells {
            for v in [
                c.weighted,
                c.unweighted,
                c.weighted_no_compress,
                c.unweighted_no_compress,
            ] {
                assert!((0.0..=1.0).contains(&v), "{c:?}");
            }
        }
        assert!(result.to_string().contains("w/o compress"));
    }
}
