//! Phase-aware optimization study: how detector accuracy translates
//! into client benefit (the paper's Section 7 future work #3).
//!
//! Three clients with different economics each derive their MPL from
//! their cost model ([`opd_client::recommended_mpl`]); for every
//! workload we compare the net benefit of optimizing
//!
//! * the **oracle**'s phases (the offline upper bound),
//! * the phases of the best framework detector (best accuracy score
//!   among the Constant + Adaptive grids at CW = ½·MPL),
//! * the phases of the prior-art fixed-interval detector.
//!
//! All three clients' grids run in one `sweep_many` over every workload.

use core::fmt;
use core::ops::Range;

use opd_client::{recommended_mpl, simulate_intervals, CostModel};
use opd_scoring::score_intervals;

use crate::exp::{avg, push_grid, ExpOptions};
use crate::grid::{half_mpl_cw, policy_grid, TwKind};
use crate::report::{fmt_pct, Table};
use crate::runner::{prepare_all, sweep_many, ConfigRun};

/// One client's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRow {
    /// Human label of the client.
    pub client: &'static str,
    /// The MPL the client derived from its cost model.
    pub mpl: u64,
    /// Average net benefit (% of baseline cost) optimizing the
    /// oracle's phases.
    pub oracle_benefit: f64,
    /// Average net benefit using the best framework detector.
    pub detector_benefit: f64,
    /// Average net benefit using the fixed-interval detector.
    pub fixed_benefit: f64,
}

impl ClientRow {
    /// Fraction of the oracle's benefit the framework detector
    /// captures (0 when the oracle itself gains nothing).
    #[must_use]
    pub fn capture_ratio(&self) -> f64 {
        if self.oracle_benefit <= 0.0 {
            0.0
        } else {
            self.detector_benefit / self.oracle_benefit
        }
    }
}

/// The client study result.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// One row per client economics.
    pub rows: Vec<ClientRow>,
}

/// The three clients studied: (label, apply cost, speedup, revert
/// cost).
#[must_use]
pub fn client_models() -> Vec<(&'static str, CostModel)> {
    vec![
        (
            "lightweight (0.5K apply, 1.2x)",
            CostModel::new(500, 1.2, 50).expect("valid model"),
        ),
        (
            "moderate (5K apply, 1.3x)",
            CostModel::new(5_000, 1.3, 500).expect("valid model"),
        ),
        (
            "heavyweight (20K apply, 1.5x)",
            CostModel::new(20_000, 1.5, 2_000).expect("valid model"),
        ),
    ]
}

fn best_by_score<'a>(
    runs: &'a [ConfigRun],
    oracle: &opd_baseline::BaselineSolution,
) -> Option<&'a ConfigRun> {
    runs.iter().max_by(|a, b| {
        score_intervals(&a.detected, oracle)
            .combined()
            .total_cmp(&score_intervals(&b.detected, oracle).combined())
    })
}

/// Runs the client study.
#[must_use]
pub fn run(opts: &ExpOptions) -> ClientResult {
    let models = client_models();
    let mpls: Vec<u64> = models.iter().map(|(_, m)| recommended_mpl(m)).collect();
    let prepared = prepare_all(&opts.workloads, opts.scale, &mpls, opts.fuel, opts.threads);
    // Per client: the framework's Constant + Adaptive grids as one
    // range, then the fixed-interval grid.
    let mut configs = Vec::new();
    let ranges: Vec<[Range<usize>; 2]> = mpls
        .iter()
        .map(|&mpl| {
            let cw = half_mpl_cw(mpl);
            [
                push_grid(
                    &mut configs,
                    policy_grid(TwKind::Constant, cw)
                        .into_iter()
                        .chain(policy_grid(TwKind::Adaptive, cw)),
                ),
                push_grid(&mut configs, policy_grid(TwKind::FixedInterval, cw)),
            ]
        })
        .collect();
    let runs = sweep_many(&prepared, &configs, opts.threads);

    let rows = models
        .into_iter()
        .zip(mpls)
        .zip(&ranges)
        .map(|(((client, model), mpl), [framework, fixed])| {
            let mut oracle_b = Vec::new();
            let mut detector_b = Vec::new();
            let mut fixed_b = Vec::new();
            for (p, runs) in prepared.iter().zip(&runs) {
                let oracle = p.oracle(mpl);
                let truth = oracle.phases();
                let total = p.total_elements();
                oracle_b.push(simulate_intervals(truth, truth, total, &model).net_benefit_pct());
                if let Some(best) = best_by_score(&runs[framework.clone()], oracle) {
                    detector_b.push(
                        simulate_intervals(&best.detected, truth, total, &model).net_benefit_pct(),
                    );
                }
                if let Some(best) = best_by_score(&runs[fixed.clone()], oracle) {
                    fixed_b.push(
                        simulate_intervals(&best.detected, truth, total, &model).net_benefit_pct(),
                    );
                }
            }
            ClientRow {
                client,
                mpl,
                oracle_benefit: avg(oracle_b),
                detector_benefit: avg(detector_b),
                fixed_benefit: avg(fixed_b),
            }
        })
        .collect();
    ClientResult { rows }
}

impl fmt::Display for ClientResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Phase-aware optimization: net benefit (% of baseline cost)",
            &[
                "Client",
                "MPL",
                "Oracle",
                "Best detector",
                "Fixed interval",
                "Capture",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.client.to_owned(),
                crate::report::fmt_mpl(r.mpl),
                fmt_pct(r.oracle_benefit),
                fmt_pct(r.detector_benefit),
                fmt_pct(r.fixed_benefit),
                format!("{:.0}%", 100.0 * r.capture_ratio()),
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
            fuel: 60_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            // The oracle never loses: it only optimizes phases that
            // satisfy an MPL beyond the client's break-even length.
            assert!(r.oracle_benefit >= 0.0, "{r:?}");
            assert!(r.capture_ratio().is_finite());
        }
        assert!(result.to_string().contains("Oracle"));
    }

    #[test]
    fn clients_have_distinct_mpls() {
        let mpls: Vec<u64> = client_models()
            .iter()
            .map(|(_, m)| recommended_mpl(m))
            .collect();
        assert!(mpls[0] < mpls[1] && mpls[1] < mpls[2], "{mpls:?}");
    }
}
