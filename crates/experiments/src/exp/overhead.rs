//! Overhead study: the cost of online phase detection.
//!
//! Section 7 of the paper names three overhead sources in a
//! phase-aware optimization system — profile collection, phase
//! detection, and phase consumption — and plans "to investigate and
//! optimize the overhead of accurate phase detection". This experiment
//! measures the second source for every framework configuration
//! family: sustained detector throughput in profile elements per
//! second, and the relative slowdown versus the cheapest family.
//!
//! It alone runs private detectors, one per (family, workload), on
//! purpose: a shared scan would not time any one family.

use core::fmt;
use std::time::Instant;

use opd_core::{AnalyzerPolicy, ModelPolicy, PhaseDetector};
use opd_microvm::workloads::Workload;

use crate::exp::ExpOptions;
use crate::grid::{config_for, TwKind};
use crate::report::Table;
use crate::runner::PreparedWorkload;

/// Throughput of one configuration family.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Family label.
    pub family: String,
    /// Elements processed per second (median of the workloads).
    pub elements_per_sec: f64,
    /// Nanoseconds per profile element.
    pub ns_per_element: f64,
}

/// The overhead-study result.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// One row per (policy, model) family, fastest first.
    pub rows: Vec<OverheadRow>,
    /// Total elements measured per family.
    pub elements: u64,
}

impl OverheadResult {
    /// Throughput ratio between the fastest and slowest family.
    #[must_use]
    pub fn spread(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(fast), Some(slow)) if slow.elements_per_sec > 0.0 => {
                fast.elements_per_sec / slow.elements_per_sec
            }
            _ => 1.0,
        }
    }
}

/// Runs the overhead study. The detector families are timed over the
/// prepared workloads' interned traces (profile collection and
/// scoring excluded, exactly the "phase detection" slice of the
/// paper's overhead taxonomy).
#[must_use]
pub fn run(opts: &ExpOptions) -> OverheadResult {
    // A small, representative workload set keeps wall time sensible.
    let workloads: Vec<Workload> = opts.workloads.iter().copied().take(3).collect();
    let prepared: Vec<PreparedWorkload> = workloads
        .iter()
        .map(|&w| PreparedWorkload::prepare_with_fuel(w, opts.scale, &[10_000], opts.fuel))
        .collect();
    let total_elements: u64 = prepared.iter().map(PreparedWorkload::total_elements).sum();

    let families: Vec<(String, TwKind, ModelPolicy)> = TwKind::ALL
        .iter()
        .flat_map(|&kind| {
            ModelPolicy::ALL_EXTENDED
                .iter()
                .map(move |&model| (format!("{kind} / {model}"), kind, model))
        })
        .collect();

    let mut rows: Vec<OverheadRow> = families
        .into_iter()
        .map(|(family, kind, model)| {
            let config = config_for(kind, 5_000, model, AnalyzerPolicy::Threshold(0.6))
                .expect("grid parameters are valid");
            let started = Instant::now();
            for p in &prepared {
                let mut detector = PhaseDetector::new(config);
                let states = detector.run_interned(p.interned());
                std::hint::black_box(states.len());
            }
            let elapsed = started.elapsed().as_secs_f64();
            let eps = if elapsed > 0.0 {
                total_elements as f64 / elapsed
            } else {
                f64::INFINITY
            };
            OverheadRow {
                family,
                elements_per_sec: eps,
                ns_per_element: 1e9 / eps,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.elements_per_sec.total_cmp(&a.elements_per_sec));

    OverheadResult {
        rows,
        elements: total_elements,
    }
}

impl fmt::Display for OverheadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            &format!(
                "Detection overhead per configuration family ({} elements each)",
                self.elements
            ),
            &["Family", "Melem/s", "ns/element"],
        );
        for r in &self.rows {
            t.row(vec![
                r.family.clone(),
                format!("{:.1}", r.elements_per_sec / 1e6),
                format!("{:.1}", r.ns_per_element),
            ]);
        }
        writeln!(f, "{t}")?;
        write!(f, "fastest/slowest throughput ratio: {:.2}x", self.spread())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_families() {
        let opts = ExpOptions {
            workloads: vec![Workload::Lexgen],
            fuel: 20_000,
            threads: 1,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        // 3 policies x 3 models.
        assert_eq!(result.rows.len(), 9);
        for r in &result.rows {
            assert!(r.elements_per_sec > 0.0, "{r:?}");
        }
        assert!(result.spread() >= 1.0);
        // Sorted fastest first.
        for w in result.rows.windows(2) {
            assert!(w[0].elements_per_sec >= w[1].elements_per_sec);
        }
        assert!(result.to_string().contains("ns/element"));
    }
}
