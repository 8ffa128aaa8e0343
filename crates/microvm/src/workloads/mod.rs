//! Synthetic workloads mirroring the control-flow character of the
//! paper's benchmark suite (seven SPECjvm98 programs plus JLex).
//!
//! Each workload is a deterministic function of a `scale` factor that
//! multiplies the amount of top-level work. The mapping to the paper's
//! benchmarks (and the signature each analogue reproduces) is:
//!
//! | Workload | Paper benchmark | Signature |
//! |----------|-----------------|-----------|
//! | [`blockcomp`] | `_201_compress` | few long, regular phases whose branch *sets* coincide but whose *frequencies* differ — the case where the weighted model beats the unweighted one |
//! | [`ruleng`] | `_202_jess` | many medium match/fire cycles |
//! | [`tracer`] | `_205_raytrace` | nested pixel loops with recursive ray casts |
//! | [`querydb`] | `_209_db` | repeated query scans with periodic sort bursts |
//! | [`srccomp`] | `_213_javac` | recursion-heavy, irregular phases |
//! | [`audiodec`] | `_222_mpegaudio` | thousands of short frame-decode loops inside two long channel passes |
//! | [`parsegen`] | `_228_jack` | repeated sequential invocations of the same parse method |
//! | [`lexgen`] | JLex | a pipeline of distinct long-running stages |

use opd_trace::ExecutionTrace;

use crate::{Interpreter, Program};

mod audiodec;
mod blockcomp;
mod lexgen;
mod parsegen;
mod querydb;
mod ruleng;
mod srccomp;
mod tracer;

pub use audiodec::audiodec;
pub use blockcomp::blockcomp;
pub use lexgen::lexgen;
pub use parsegen::parsegen;
pub use querydb::querydb;
pub use ruleng::ruleng;
pub use srccomp::srccomp;
pub use tracer::tracer;

/// The eight synthetic benchmarks, identified for sweeps and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// `_201_compress` analogue.
    Blockcomp,
    /// `_202_jess` analogue.
    Ruleng,
    /// `_205_raytrace` analogue.
    Tracer,
    /// `_209_db` analogue.
    Querydb,
    /// `_213_javac` analogue.
    Srccomp,
    /// `_222_mpegaudio` analogue.
    Audiodec,
    /// `_228_jack` analogue.
    Parsegen,
    /// JLex analogue.
    Lexgen,
}

impl Workload {
    /// All workloads, in the paper's table order.
    pub const ALL: [Workload; 8] = [
        Workload::Blockcomp,
        Workload::Ruleng,
        Workload::Tracer,
        Workload::Querydb,
        Workload::Srccomp,
        Workload::Audiodec,
        Workload::Parsegen,
        Workload::Lexgen,
    ];

    /// The workload's short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Blockcomp => "blockcomp",
            Workload::Ruleng => "ruleng",
            Workload::Tracer => "tracer",
            Workload::Querydb => "querydb",
            Workload::Srccomp => "srccomp",
            Workload::Audiodec => "audiodec",
            Workload::Parsegen => "parsegen",
            Workload::Lexgen => "lexgen",
        }
    }

    /// The paper benchmark this workload stands in for.
    #[must_use]
    pub fn paper_benchmark(self) -> &'static str {
        match self {
            Workload::Blockcomp => "_201_compress",
            Workload::Ruleng => "_202_jess",
            Workload::Tracer => "_205_raytrace",
            Workload::Querydb => "_209_db",
            Workload::Srccomp => "_213_javac",
            Workload::Audiodec => "_222_mpegaudio",
            Workload::Parsegen => "_228_jack",
            Workload::Lexgen => "JLex",
        }
    }

    /// Builds the workload's program at the given scale
    /// (`scale == 0` is treated as 1).
    #[must_use]
    pub fn program(self, scale: u32) -> Program {
        let scale = scale.max(1);
        match self {
            Workload::Blockcomp => blockcomp(scale),
            Workload::Ruleng => ruleng(scale),
            Workload::Tracer => tracer(scale),
            Workload::Querydb => querydb(scale),
            Workload::Srccomp => srccomp(scale),
            Workload::Audiodec => audiodec(scale),
            Workload::Parsegen => parsegen(scale),
            Workload::Lexgen => lexgen(scale),
        }
    }

    /// The fixed seed used by the paper-reproduction experiments.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        0xC602_0060_u64.wrapping_mul(self as u64 + 1)
    }

    /// Executes the workload and returns its full trace — the
    /// convenience entry point used throughout the examples and
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails to run, which would be a
    /// bug in the workload definitions (they are covered by tests).
    #[must_use]
    pub fn trace(self, scale: u32) -> ExecutionTrace {
        let program = self.program(scale);
        let mut trace = ExecutionTrace::new();
        Interpreter::new(&program, self.default_seed())
            .run(&mut trace)
            .expect("workload programs terminate");
        trace
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::TraceStats;

    #[test]
    fn all_workloads_build_and_run() {
        for w in Workload::ALL {
            let trace = w.trace(1);
            let stats = TraceStats::measure(&trace);
            assert!(
                stats.dynamic_branches > 50_000,
                "{w}: too few branches ({})",
                stats.dynamic_branches
            );
            assert!(
                stats.dynamic_branches < 2_000_000,
                "{w}: too many branches ({})",
                stats.dynamic_branches
            );
            assert!(stats.loop_executions > 0, "{w}: no loops");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = Workload::Ruleng.trace(1);
        let b = Workload::Ruleng.trace(1);
        assert_eq!(a, b);
        // The full-study trace's pinned shape: a change here moves
        // every recorded full-length result.
        assert_eq!(a.branches().len(), 429_025);
        let distinct: std::collections::HashSet<_> = a.branches().iter().collect();
        assert_eq!(distinct.len(), 36);
    }

    #[test]
    fn scale_increases_work() {
        let small = TraceStats::measure(&Workload::Lexgen.trace(1));
        let large = TraceStats::measure(&Workload::Lexgen.trace(2));
        assert!(large.dynamic_branches > small.dynamic_branches);
    }

    #[test]
    fn recursive_workloads_have_recursion_roots() {
        for w in [Workload::Srccomp, Workload::Tracer] {
            let stats = TraceStats::measure(&w.trace(1));
            assert!(stats.recursion_roots > 0, "{w}: expected recursion");
        }
    }

    #[test]
    fn names_and_paper_benchmarks_unique() {
        let mut names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(format!("{}", Workload::Querydb), "querydb");
        assert_eq!(Workload::Blockcomp.paper_benchmark(), "_201_compress");
    }

    #[test]
    fn zero_scale_is_clamped() {
        let t = Workload::Audiodec.program(0);
        let u = Workload::Audiodec.program(1);
        assert_eq!(t, u);
    }
}
