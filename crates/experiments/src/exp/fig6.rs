//! Figure 6: Threshold versus Average analyzers (Section 4.4), for
//! the Constant TW (a) and Adaptive TW (b) policies.
//!
//! The unweighted model is used throughout (the paper restricts the
//! analyzer study to it after Section 4.3).
//!
//! All (MPL, policy) analyzer grids run in one `sweep_many` over every
//! workload.

use core::fmt;

use opd_core::{AnalyzerPolicy, ModelPolicy};

use crate::exp::{avg, push_grid, ExpOptions};
use crate::grid::{analyzer_grid, half_mpl_cw, paper_analyzers, TwKind, MPLS_MAIN};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{prepare_all, sweep_many};

/// One bar of Figure 6: an analyzer's average score for one MPL and
/// policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Bar {
    /// The minimum phase length.
    pub mpl: u64,
    /// The trailing-window policy (Constant = subgraph (a), Adaptive =
    /// subgraph (b)).
    pub kind: TwKind,
    /// The analyzer this bar describes.
    pub analyzer: AnalyzerPolicy,
    /// Average score across benchmarks.
    pub score: f64,
}

/// The regenerated Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All bars: MPL-major, policy-second, analyzers in the paper's
    /// order (four thresholds then six deltas).
    pub bars: Vec<Fig6Bar>,
}

impl Fig6Result {
    /// The bars of one subgraph.
    #[must_use]
    pub fn bars_for(&self, kind: TwKind) -> Vec<&Fig6Bar> {
        self.bars.iter().filter(|b| b.kind == kind).collect()
    }
}

/// Runs the Figure 6 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig6Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_MAIN,
        opts.fuel,
        opts.threads,
    );
    // One grid per (MPL, policy): the ten analyzers, in paper order.
    let mut configs = Vec::new();
    let mut requested = Vec::new();
    for &mpl in &MPLS_MAIN {
        for kind in [TwKind::Constant, TwKind::Adaptive] {
            let grid = analyzer_grid(kind, half_mpl_cw(mpl), ModelPolicy::UnweightedSet);
            requested.push((mpl, kind, push_grid(&mut configs, grid)));
        }
    }
    let runs = sweep_many(&prepared, &configs, opts.threads);
    let mut bars = Vec::new();
    for (mpl, kind, grid) in requested {
        for (i, analyzer) in grid.zip(paper_analyzers()) {
            let score = avg(prepared
                .iter()
                .zip(&runs)
                .map(|(p, runs)| runs[i].score(p.oracle(mpl)).combined()));
            bars.push(Fig6Bar {
                mpl,
                kind,
                analyzer,
                score,
            });
        }
    }
    Fig6Result { bars }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in [TwKind::Constant, TwKind::Adaptive] {
            let title = format!(
                "Figure 6({}): analyzers under the {} policy (average score, unweighted model)",
                if kind == TwKind::Constant { "a" } else { "b" },
                kind
            );
            let mut headers: Vec<String> = vec!["MPL".into()];
            for a in paper_analyzers() {
                headers.push(a.to_string());
            }
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut t = Table::new(&title, &header_refs);
            for &mpl in &MPLS_MAIN {
                let mut cells = vec![fmt_mpl(mpl)];
                for bar in self.bars.iter().filter(|b| b.kind == kind && b.mpl == mpl) {
                    cells.push(fmt_score(bar.score));
                }
                t.row(cells);
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;

    #[test]
    fn small_run_shapes() {
        let opts = ExpOptions {
            workloads: vec![Workload::Querydb],
            fuel: 30_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        // 4 MPLs x 2 policies x 10 analyzers.
        assert_eq!(result.bars.len(), 80);
        assert_eq!(result.bars_for(TwKind::Constant).len(), 40);
        for b in &result.bars {
            assert!((0.0..=1.0).contains(&b.score), "{b:?}");
        }
        let text = result.to_string();
        assert!(text.contains("Figure 6(a)"), "{text}");
        assert!(text.contains("threshold(0.5)"), "{text}");
        assert!(text.contains("average(0.4)"), "{text}");
    }
}
