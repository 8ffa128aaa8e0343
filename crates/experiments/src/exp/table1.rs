//! Table 1: benchmark characteristics (a) and baseline phases per MPL
//! value (b).
//!
//! It runs no detector: both parts come from the prepared traces and
//! oracles.

use core::fmt;

use opd_trace::TraceStats;

use crate::exp::ExpOptions;
use crate::grid::MPLS_TABLE1;
use crate::report::{fmt_mpl, fmt_pct, Table};
use crate::runner::prepare_all;

/// Per-benchmark phase statistics for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MplCell {
    /// The minimum phase length.
    pub mpl: u64,
    /// Number of baseline phases (Table 1(b), "# Phases").
    pub phases: usize,
    /// Percentage of profile elements in phase ("% in Phase").
    pub percent_in_phase: f64,
}

/// One benchmark's row across both halves of Table 1.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload name.
    pub name: &'static str,
    /// The paper benchmark this stands in for.
    pub paper_benchmark: &'static str,
    /// Dynamic execution characteristics (Table 1(a)).
    pub stats: TraceStats,
    /// Baseline phases per MPL (Table 1(b)).
    pub per_mpl: Vec<MplCell>,
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One row per workload, in the paper's order.
    pub rows: Vec<BenchRow>,
    /// The MPL values of part (b).
    pub mpls: Vec<u64>,
}

/// Runs the Table 1 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Table1Result {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &MPLS_TABLE1,
        opts.fuel,
        opts.threads,
    );
    let rows = prepared
        .iter()
        .map(|p| BenchRow {
            name: p.workload().name(),
            paper_benchmark: p.workload().paper_benchmark(),
            stats: *p.stats(),
            per_mpl: MPLS_TABLE1
                .iter()
                .map(|&mpl| {
                    let oracle = p.oracle(mpl);
                    MplCell {
                        mpl,
                        phases: oracle.phase_count(),
                        percent_in_phase: oracle.percent_in_phase(),
                    }
                })
                .collect(),
        })
        .collect();
    Table1Result {
        rows,
        mpls: MPLS_TABLE1.to_vec(),
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut a = Table::new(
            "Table 1(a): Benchmark Characteristics",
            &[
                "Benchmark",
                "Analogue of",
                "Dynamic Branches",
                "Loop Executions",
                "Method Invocations",
                "Recursion Roots",
            ],
        );
        for r in &self.rows {
            a.row(vec![
                r.name.to_owned(),
                r.paper_benchmark.to_owned(),
                r.stats.dynamic_branches.to_string(),
                r.stats.loop_executions.to_string(),
                r.stats.method_invocations.to_string(),
                r.stats.recursion_roots.to_string(),
            ]);
        }
        writeln!(f, "{a}")?;

        let mut headers: Vec<String> = vec!["Benchmark".into()];
        for &mpl in &self.mpls {
            headers.push(format!("{} #Ph", fmt_mpl(mpl)));
            headers.push(format!("{} %in", fmt_mpl(mpl)));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut b = Table::new("Table 1(b): Baseline Phases per MPL", &header_refs);
        for r in &self.rows {
            let mut cells = vec![r.name.to_owned()];
            for cell in &r.per_mpl {
                cells.push(cell.phases.to_string());
                cells.push(fmt_pct(cell.percent_in_phase));
            }
            b.row(cells);
        }
        write!(f, "{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;

    #[test]
    fn small_run_produces_rows() {
        let opts = ExpOptions {
            workloads: vec![Workload::Lexgen, Workload::Audiodec],
            fuel: 120_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert_eq!(row.per_mpl.len(), 6);
            assert!(row.stats.dynamic_branches > 0);
            // Phase counts are non-increasing in MPL.
            for w in row.per_mpl.windows(2) {
                assert!(w[0].phases >= w[1].phases, "{row:?}");
            }
        }
        let text = result.to_string();
        assert!(text.contains("Table 1(a)"), "{text}");
        assert!(text.contains("lexgen"), "{text}");
        assert!(text.contains("100K #Ph"), "{text}");
    }
}
