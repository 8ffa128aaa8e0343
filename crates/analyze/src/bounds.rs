//! Exact worst-case bounds of one program execution: the upper ends
//! of the abstract interpretation's intervals, read through
//! [`AbsInt::bounds`](crate::AbsInt::bounds).
//!
//! All arithmetic is checked: if any bound exceeds `u64`, the result is
//! saturated and flagged ([`StaticBounds::overflowed`]), which the lint
//! engine reports as `OPD-E004`.

use opd_microvm::Interpreter;

/// Worst-case bounds for a whole program execution.
///
/// Every bound is inclusive and sound: no run of the program (any seed,
/// unlimited fuel) can exceed it. The companion soundness tests compare
/// these against observed [`opd_microvm::RunSummary`] values and the
/// dynamic call-loop forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticBounds {
    pub(crate) branches: u64,
    pub(crate) events: u64,
    pub(crate) call_depth: u64,
    pub(crate) nest_depth: u64,
    pub(crate) overflowed: bool,
}

impl StaticBounds {
    /// Maximum number of profile elements any run can emit.
    #[must_use]
    pub fn branches(self) -> u64 {
        self.branches
    }

    /// Maximum number of call-loop events any run can emit.
    #[must_use]
    pub fn events(self) -> u64 {
        self.events
    }

    /// Maximum call-stack depth any run can reach (the entry frame
    /// counts as 1, matching [`opd_microvm::RunSummary::max_depth`]).
    #[must_use]
    pub fn call_depth(self) -> u64 {
        self.call_depth
    }

    /// Maximum nesting depth of the dynamic call-loop tree (the entry
    /// method execution counts as 1) — the ceiling on how many phase
    /// nesting levels the oracle hierarchy can expose.
    #[must_use]
    pub fn nest_depth(self) -> u64 {
        self.nest_depth
    }

    /// `true` if any bound overflowed `u64` (or the evaluation had to
    /// bail out of an unboundedly deep chain); overflowed bounds are
    /// saturated to `u64::MAX` and reported as `OPD-E004`.
    #[must_use]
    pub fn overflowed(self) -> bool {
        self.overflowed
    }

    /// `true` if the worst-case call depth exceeds the interpreter's
    /// default limit — the `OPD-W007` condition.
    #[must_use]
    pub fn exceeds_depth_limit(self) -> bool {
        self.call_depth > Interpreter::DEFAULT_DEPTH_LIMIT as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbsInt;
    use opd_microvm::{ArgExpr, ProgramBuilder, TakenDist, Trip};
    use opd_trace::ExecutionTrace;

    fn bounds_of(b: &mut ProgramBuilder) -> StaticBounds {
        AbsInt::of(&b.build().unwrap()).bounds()
    }

    #[test]
    fn flat_loop_bounds_are_exact() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Fixed(7), |l| {
                l.branch(TakenDist::Always);
                l.branch(TakenDist::Never);
            });
        });
        let s = bounds_of(&mut b);
        assert_eq!(s.branches(), 14);
        assert_eq!(s.events(), 2 + 2); // entry method + one loop
        assert_eq!(s.call_depth(), 1);
        assert_eq!(s.nest_depth(), 2); // method > loop
        assert!(!s.overflowed());
    }

    #[test]
    fn bounds_match_a_deterministic_run_exactly() {
        let mut b = ProgramBuilder::new();
        let helper = b.declare("helper");
        let main = b.declare("main");
        b.define(helper, |f| {
            f.repeat(Trip::Fixed(3), |l| {
                l.branch(TakenDist::Alternating);
            });
        });
        b.define(main, |f| {
            f.repeat(Trip::Fixed(5), |l| {
                l.call(helper, ArgExpr::Const(0));
            });
        });
        let p = b.entry(main).build().unwrap();
        let s = AbsInt::of(&p).bounds();
        let mut t = ExecutionTrace::new();
        let run = Interpreter::new(&p, 1).run(&mut t).unwrap();
        // Fully deterministic control flow: bounds are equalities.
        assert_eq!(s.branches(), run.branches);
        assert_eq!(s.events(), run.events);
        assert_eq!(s.call_depth(), run.max_depth as u64);
    }

    #[test]
    fn guarded_recursion_bounds_by_argument() {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        let main = b.declare("main");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.if_arg_positive(|g| {
                g.call(rec, ArgExpr::Dec);
            });
        });
        b.define(main, |f| {
            f.call(rec, ArgExpr::Const(5));
        });
        b.entry(main);
        let s = bounds_of(&mut b);
        assert_eq!(s.branches(), 6); // args 5,4,3,2,1,0
        assert_eq!(s.call_depth(), 7); // main + six rec frames
        assert!(!s.overflowed());
    }

    #[test]
    fn unguarded_recursion_saturates() {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        b.define(rec, |f| {
            f.call(rec, ArgExpr::Const(1));
        });
        let s = bounds_of(&mut b);
        assert!(s.overflowed());
        assert!(s.exceeds_depth_limit());
    }

    #[test]
    fn nested_huge_loops_overflow_u64() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Fixed(4_000_000_000), |a| {
                a.repeat(Trip::Fixed(4_000_000_000), |c| {
                    c.repeat(Trip::Fixed(4_000_000_000), |d| {
                        d.branch(TakenDist::Always);
                    });
                });
            });
        });
        let s = bounds_of(&mut b);
        assert!(s.overflowed());
        assert_eq!(s.branches(), u64::MAX);
    }

    #[test]
    fn deep_dec_recursion_exceeds_interpreter_limit() {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.if_arg_positive(|g| {
                g.call(rec, ArgExpr::Dec);
            });
        });
        b.entry_arg(600);
        let s = bounds_of(&mut b);
        assert!(!s.overflowed()); // 601 frames: precisely evaluable
        assert_eq!(s.call_depth(), 601);
        assert!(s.exceeds_depth_limit());
    }

    #[test]
    fn half_recursion_is_logarithmic() {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.if_arg_positive(|g| {
                g.call(rec, ArgExpr::Half);
            });
        });
        b.entry_arg(1 << 20);
        let s = bounds_of(&mut b);
        assert!(!s.overflowed());
        assert_eq!(s.call_depth(), 22); // 2^20 halves to 0 in 21 steps
        assert!(!s.exceeds_depth_limit());
    }
}
