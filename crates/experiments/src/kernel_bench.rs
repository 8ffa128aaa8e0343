//! The acceptance lines recorded in `BENCH_kernel.json`, the frozen
//! record of the SWAR kernel rewrite: one full-grid sweep of `ruleng`
//! timed on the SWAR kernel and on the scalar deque kernel it
//! replaced, diffed configuration by configuration.
//!
//! The scalar kernel is gone, so the artifact cannot be regenerated;
//! the artifact test re-checks its committed numbers against these
//! lines and re-derives its deterministic fields. Equivalence of every
//! run path is checked against the executable spec instead
//! (`tests/kernel_equivalence.rs`).

/// Sweep-only wall-clock of the pre-rewrite engine on this grid and
/// workload (one thread), measured immediately before the kernel
/// rewrite landed. The artifact's speedup lines are relative to this.
pub const BASELINE_SWEEP_SECONDS: f64 = 108.8;

/// The acceptance budget for the SWAR sweep (sweep only, one thread).
pub const SWAR_BUDGET_SECONDS: f64 = 20.0;

/// Minimum accepted speedup of the SWAR sweep over the baseline.
pub const MIN_BASELINE_SPEEDUP: f64 = 5.0;
