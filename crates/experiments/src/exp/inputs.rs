//! Input-generality study: the same framework over different profile
//! kinds.
//!
//! Section 2 of the paper: "Our abstract representation of an input
//! allows a wide variety of inputs, such as the methods invoked,
//! basic blocks, branches, addresses loaded, or instructions executed
//! to be considered. This work considers dynamic branch traces." This
//! experiment runs the identical detector over three input streams —
//! the paper's taken-bit branch elements, taken-bit-stripped *sites*
//! (a basic-block-like profile), and *method invocations* (the
//! method-level profiles of Georges et al.) — and scores all three
//! against the same branch-offset oracle.
//!
//! Every (workload, stream) pair and its grid run through the sweep
//! engine in one `runner::sweep_streams` call.
//!
//! # Known bug under a fuel cap
//!
//! The method stream always comes from an *uncapped* re-run of the
//! workload (it records only method entries, see [`MethodProfile`]).
//! Under [`ExpOptions::fuel`] the branch trace and its oracle are
//! capped, so the method column scores intervals from the whole run
//! against the capped oracle (invocations past the cap map to the
//! trace end), and its window is sized by the ratio of *uncapped*
//! invocations to *capped* branches, which is too large. Complete runs
//! (`fuel = u64::MAX`, as in EXPERIMENTS.md) are unaffected. Fixing it
//! changes the benchmark's pinned `inputs` digest, so it waits for a
//! change that re-records the benchmark's references.

use core::fmt;

use opd_core::{DetectorConfig, InternedTrace, ModelPolicy};
use opd_microvm::workloads::Workload;
use opd_microvm::Interpreter;
use opd_scoring::score_intervals;
use opd_trace::{site_profile, MethodProfile, PhaseInterval};

use crate::exp::{avg, ExpOptions};
use crate::grid::{analyzer_grid, half_mpl_cw, TwKind};
use crate::report::{fmt_score, Table};
use crate::runner::{best_combined, prepare_all, sweep_streams};

/// The MPL the study is run at.
pub const INPUTS_MPL: u64 = 10_000;

/// Scores for one workload across input kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct InputsRow {
    /// Workload name.
    pub workload: &'static str,
    /// Best score on the paper's branch elements (site + taken bit).
    pub branches: f64,
    /// Best score on taken-bit-stripped sites.
    pub sites: f64,
    /// Best score on method-invocation elements, or `None` when the
    /// workload makes too few invocations for windows to fill.
    pub methods: Option<f64>,
}

/// The input-generality result.
#[derive(Debug, Clone)]
pub struct InputsResult {
    /// One row per workload.
    pub rows: Vec<InputsRow>,
}

impl InputsResult {
    /// Average score per input kind (methods averaged over the
    /// workloads where they apply).
    #[must_use]
    pub fn averages(&self) -> (f64, f64, f64) {
        (
            avg(self.rows.iter().map(|r| r.branches)),
            avg(self.rows.iter().map(|r| r.sites)),
            avg(self.rows.iter().filter_map(|r| r.methods)),
        )
    }
}

/// The method-level profile of one complete run of `workload`: the
/// interpreter records only method entries and their branch offsets.
fn method_profile(workload: Workload, scale: u32) -> MethodProfile {
    let mut methods = MethodProfile::new();
    Interpreter::new(&workload.program(scale), workload.default_seed())
        .run(&mut methods)
        .expect("workload programs terminate");
    methods
}

/// Runs the input-generality study.
#[must_use]
pub fn run(opts: &ExpOptions) -> InputsResult {
    let prepared = prepare_all(
        &opts.workloads,
        opts.scale,
        &[INPUTS_MPL],
        opts.fuel,
        opts.threads,
    );
    let cw = half_mpl_cw(INPUTS_MPL);
    let grid = analyzer_grid(TwKind::Constant, cw, ModelPolicy::UnweightedSet);

    // Site stream: same positions, coarser element identity.
    let sites: Vec<InternedTrace> = prepared
        .iter()
        .map(|p| InternedTrace::from(&site_profile(p.branches())))
        .collect();
    // Method stream: element k sits at the k-th invocation's branch
    // offset; windows sized proportionally. Workloads making too few
    // invocations for windows to fill have none.
    let methods: Vec<Option<(MethodProfile, InternedTrace, Vec<DetectorConfig>)>> = prepared
        .iter()
        .map(|p| {
            let profile = method_profile(p.workload(), opts.scale);
            let len = profile.elements().len();
            (len >= 64).then(|| {
                let ratio = len as f64 / p.total_elements().max(1) as f64;
                let cw_m = ((cw as f64 * ratio).ceil() as usize).max(4);
                let interned = InternedTrace::from(profile.elements());
                let grid = analyzer_grid(TwKind::Constant, cw_m, ModelPolicy::UnweightedSet);
                (profile, interned, grid)
            })
        })
        .collect();

    // Per workload: its branch, site and (if any) method streams.
    let mut streams: Vec<(&InternedTrace, &[DetectorConfig])> = Vec::new();
    for ((p, sites), methods) in prepared.iter().zip(&sites).zip(&methods) {
        streams.push((p.interned(), &grid));
        streams.push((sites, &grid));
        if let Some((_, interned, grid)) = methods {
            streams.push((interned, grid));
        }
    }
    let mut runs = sweep_streams(&streams, opts.threads).into_iter();

    let rows = prepared
        .iter()
        .zip(&methods)
        .map(|(p, methods)| {
            let oracle = p.oracle(INPUTS_MPL);
            let total = p.total_elements();
            let mut next = || runs.next().expect("one run list per stream");
            let branches = best_combined(&next(), oracle);
            let sites = best_combined(&next(), oracle);
            let methods = methods.as_ref().map(|(profile, _, _)| {
                // Clamp to the prepared trace length: under a fuel cap
                // the uncapped re-run is longer than the prepared
                // trace, so trailing invocations map to its end.
                let offsets = profile.offsets();
                let map = |o: u64| -> u64 {
                    offsets.get(o as usize).copied().unwrap_or(total).min(total)
                };
                next()
                    .iter()
                    .map(|run| {
                        let mapped: Vec<PhaseInterval> = run
                            .detected
                            .iter()
                            .filter_map(|iv| {
                                let (start, end) = (map(iv.start()), map(iv.end()));
                                (start < end).then(|| PhaseInterval::new(start, end))
                            })
                            .collect();
                        score_intervals(&mapped, oracle).combined()
                    })
                    .fold(0.0f64, f64::max)
            });
            InputsRow {
                workload: p.workload().name(),
                branches,
                sites,
                methods,
            }
        })
        .collect();
    InputsResult { rows }
}

impl fmt::Display for InputsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Input generality: best score per profile kind (MPL 10K, Constant TW, unweighted)",
            &["Benchmark", "Branches", "Sites", "Methods"],
        );
        for r in &self.rows {
            t.row(vec![
                r.workload.to_owned(),
                fmt_score(r.branches),
                fmt_score(r.sites),
                r.methods.map_or("n/a".to_owned(), fmt_score),
            ]);
        }
        let (b, s, m) = self.averages();
        t.row(vec![
            "Average".to_owned(),
            fmt_score(b),
            fmt_score(s),
            fmt_score(m),
        ]);
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
            workloads: vec![Workload::Tracer],
            fuel: 60_000,
            threads: 1,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 1);
        let r = &result.rows[0];
        assert!((0.0..=1.0).contains(&r.branches), "{r:?}");
        assert!((0.0..=1.0).contains(&r.sites), "{r:?}");
        // Tracer makes tens of thousands of invocations even truncated
        // ... but the truncated run must simply not panic either way.
        if let Some(m) = r.methods {
            assert!((0.0..=1.0).contains(&m), "{r:?}");
        }
        let text = result.to_string();
        assert!(text.contains("Methods"), "{text}");
    }
}
