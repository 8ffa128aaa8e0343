//! One module per paper artifact: Table 1, Table 2, Figures 4–8.
//!
//! Every module exposes `run(&ExpOptions) -> …Result`; results carry
//! the structured data and render the paper-style table via
//! `Display`.
//!
//! Each experiment is a list of config grids plus a projection. It
//! appends every grid it needs (across its MPLs, policies, models and
//! variants) to one config union, runs that union through the sweep
//! engine once per prepared set, and renders its table from the runs.
//! Grids with the same window shape then share one trace scan,
//! whichever MPL or variant asked for them.

use core::ops::Range;

use opd_core::lpt::default_threads;
use opd_core::DetectorConfig;
use opd_microvm::workloads::Workload;

use crate::runner::{best_combined, ConfigRun, PreparedWorkload};

pub mod client;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod inputs;
pub mod overhead;
pub mod related;
pub mod sampling;
pub mod scaling;
pub mod table1;
pub mod table2;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Workload scale factor.
    pub scale: u32,
    /// Worker threads for the configuration sweeps.
    pub threads: usize,
    /// Which workloads to evaluate (default: all eight).
    pub workloads: Vec<Workload>,
    /// Optional cap on trace length (branches); `u64::MAX` runs the
    /// workloads to completion. Used by tests and benches.
    pub fuel: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1,
            threads: default_threads(),
            workloads: Workload::ALL.to_vec(),
            fuel: u64::MAX,
        }
    }
}

impl ExpOptions {
    /// Options from command-line flags.
    #[must_use]
    pub fn from_cli(cli: crate::cli::CliOpts) -> Self {
        ExpOptions {
            scale: cli.scale,
            threads: cli.threads,
            ..ExpOptions::default()
        }
    }
}

/// Arithmetic mean; 0 for an empty iterator.
pub(crate) fn avg(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Appends one grid to an experiment's config union and returns the
/// range its runs will occupy in a sweep over the union, so one sweep
/// serves every projection.
pub(crate) fn push_grid(
    configs: &mut Vec<DetectorConfig>,
    grid: impl IntoIterator<Item = DetectorConfig>,
) -> Range<usize> {
    let start = configs.len();
    configs.extend(grid);
    start..configs.len()
}

/// The best combined score of one grid's runs on each workload against
/// its `mpl` oracle, in `prepared` order.
pub(crate) fn best_scores<'a>(
    prepared: &'a [PreparedWorkload],
    runs: &'a [Vec<ConfigRun>],
    grid: &'a Range<usize>,
    mpl: u64,
) -> impl Iterator<Item = f64> + 'a {
    prepared
        .iter()
        .zip(runs)
        .map(move |(p, runs)| best_combined(&runs[grid.clone()], p.oracle(mpl)))
}

/// Percent improvement of `new` over `base`; 0 when `base` is 0.
pub(crate) fn pct_improvement(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_and_improvement() {
        assert_eq!(avg([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(avg(std::iter::empty()), 0.0);
        assert!((pct_improvement(1.2, 1.0) - 20.0).abs() < 1e-12);
        assert_eq!(pct_improvement(1.0, 0.0), 0.0);
    }

    #[test]
    fn pushed_grids_get_consecutive_ranges() {
        use crate::grid::{policy_grid, TwKind};
        let mut configs = Vec::new();
        let a = push_grid(&mut configs, policy_grid(TwKind::Constant, 500));
        let b = push_grid(&mut configs, std::iter::empty());
        let c = push_grid(&mut configs, policy_grid(TwKind::Adaptive, 500));
        assert_eq!((a, b, c), (0..20, 20..20, 20..40));
        assert_eq!(configs[20..40], policy_grid(TwKind::Adaptive, 500)[..]);
    }

    #[test]
    fn default_options_cover_all_workloads() {
        let o = ExpOptions::default();
        assert_eq!(o.workloads.len(), 8);
        assert_eq!(o.scale, 1);
        assert_eq!(o.fuel, u64::MAX);
    }
}
