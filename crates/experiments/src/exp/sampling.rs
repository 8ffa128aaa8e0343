//! Sampling study: profile-collection overhead versus detection
//! accuracy.
//!
//! Profile collection is the first overhead source the paper's
//! Section 7 lists. Sampling every k-th branch cuts that overhead by
//! k×; this experiment measures what it costs in accuracy. The
//! detector runs on the subsampled stream with its window scaled down
//! by the same stride (so the windows still span ½·MPL *original*
//! elements), its detected intervals are mapped back to full-trace
//! offsets, and the usual score is computed against the unsampled
//! oracle.
//!
//! Every (stride, workload) sampled stream and its grid run through the
//! sweep engine in one `runner::sweep_streams` call.

use core::fmt;

use opd_core::{DetectorConfig, InternedTrace, ModelPolicy};
use opd_scoring::score_intervals;
use opd_trace::{subsample, upsample_intervals};

use crate::exp::{avg, ExpOptions};
use crate::grid::{analyzer_grid, half_mpl_cw, TwKind};
use crate::report::{fmt_score, Table};
use crate::runner::{prepare_all, sweep_streams};

/// The sampling strides studied.
pub const STRIDES: [usize; 5] = [1, 2, 4, 8, 16];

/// The MPL the study is run at.
pub const SAMPLING_MPL: u64 = 10_000;

/// Accuracy at one sampling stride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingRow {
    /// Keep every `stride`-th profile element.
    pub stride: usize,
    /// Average best score across workloads (Constant TW grid).
    pub score: f64,
    /// Score retained relative to the unsampled run.
    pub retention: f64,
}

/// The sampling-study result.
#[derive(Debug, Clone)]
pub struct SamplingResult {
    /// One row per stride, ascending.
    pub rows: Vec<SamplingRow>,
}

impl SamplingResult {
    /// The largest stride retaining at least `fraction` of the
    /// unsampled score.
    #[must_use]
    pub fn max_stride_retaining(&self, fraction: f64) -> usize {
        self.rows
            .iter()
            .filter(|r| r.retention >= fraction)
            .map(|r| r.stride)
            .max()
            .unwrap_or(1)
    }
}

/// Runs the sampling study.
#[must_use]
pub fn run(opts: &ExpOptions) -> SamplingResult {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &[SAMPLING_MPL],
        opts.fuel,
        opts.threads,
    );
    let cw_full = half_mpl_cw(SAMPLING_MPL);

    // Window sized in *sampled* elements so it still spans ~½·MPL
    // original elements.
    let grids: Vec<Vec<DetectorConfig>> = STRIDES
        .iter()
        .map(|&stride| {
            let cw = (cw_full / stride).max(1);
            analyzer_grid(TwKind::Constant, cw, ModelPolicy::UnweightedSet)
        })
        .collect();
    // Stride-major: every workload's stream at one stride, then the next.
    let sampled: Vec<InternedTrace> = STRIDES
        .iter()
        .flat_map(|&stride| {
            prepared
                .iter()
                .map(move |p| InternedTrace::from(&subsample(p.branches(), stride)))
        })
        .collect();
    let workloads = prepared.len();
    let streams: Vec<(&InternedTrace, &[DetectorConfig])> = sampled
        .iter()
        .enumerate()
        .map(|(i, trace)| (trace, grids[i / workloads].as_slice()))
        .collect();
    let runs = sweep_streams(&streams, opts.threads);

    let mut rows: Vec<SamplingRow> = STRIDES
        .iter()
        .enumerate()
        .map(|(si, &stride)| {
            let runs = &runs[si * workloads..(si + 1) * workloads];
            let score = avg(prepared.iter().zip(runs).map(|(p, runs)| {
                let oracle = p.oracle(SAMPLING_MPL);
                let total = p.total_elements();
                runs.iter()
                    .map(|run| {
                        let detected = upsample_intervals(&run.detected, stride, total);
                        score_intervals(&detected, oracle).combined()
                    })
                    .fold(0.0f64, f64::max)
            }));
            SamplingRow {
                stride,
                score,
                retention: 0.0,
            }
        })
        .collect();

    let full = rows.first().map_or(0.0, |r| r.score);
    for r in &mut rows {
        r.retention = if full > 0.0 { r.score / full } else { 0.0 };
    }
    SamplingResult { rows }
}

impl fmt::Display for SamplingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Sampling study: accuracy vs profile-collection stride (MPL 10K)",
            &["Stride", "Collection cost", "Avg best score", "Retention"],
        );
        for r in &self.rows {
            t.row(vec![
                format!("1/{}", r.stride),
                format!("{:.1}%", 100.0 / r.stride as f64),
                fmt_score(r.score),
                format!("{:.0}%", 100.0 * r.retention),
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
            workloads: vec![Workload::Querydb],
            fuel: 60_000,
            threads: 1,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 5);
        assert_eq!(result.rows[0].stride, 1);
        assert!((result.rows[0].retention - 1.0).abs() < 1e-12);
        for r in &result.rows {
            assert!((0.0..=1.0).contains(&r.score), "{r:?}");
        }
        assert!(result.max_stride_retaining(0.0) >= 1);
        assert!(result.to_string().contains("Retention"));
    }
}
