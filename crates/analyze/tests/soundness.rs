//! Differential soundness tests: every static claim the analyzer
//! makes must dominate what the interpreter and the oracle observe
//! dynamically, for every built-in workload — plus one deliberately
//! broken program per error diagnostic code.

use opd_analyze::{Analysis, Code, DeadKind, Diagnostic, Severity};
use opd_baseline::CallLoopForest;
use opd_core::InternedTrace;
use opd_microvm::workloads::Workload;
use opd_microvm::{
    parse_program, ArgExpr, Interpreter, ParseError, ProgramBuilder, TakenDist, Trip,
};
use opd_trace::ExecutionTrace;

#[test]
fn workloads_lint_clean_at_deny_level() {
    for w in Workload::ALL {
        let a = Analysis::of(&w.program(1));
        assert!(a.is_clean(), "{w}: {:?}", a.diagnostics());
        assert_eq!(a.error_count() + a.warning_count(), 0, "{w}");
    }
}

#[test]
fn static_bounds_dominate_dynamic_observations() {
    for w in Workload::ALL {
        for scale in [1, 2] {
            let program = w.program(scale);
            let a = Analysis::of(&program);
            let bounds = a.bounds();
            assert!(!bounds.overflowed(), "{w}@{scale}");

            let mut trace = ExecutionTrace::new();
            let summary = Interpreter::new(&program, w.default_seed())
                .run(&mut trace)
                .expect("workloads terminate");

            assert!(
                summary.branches <= bounds.branches(),
                "{w}@{scale}: {} dynamic branches > static bound {}",
                summary.branches,
                bounds.branches()
            );
            assert!(
                summary.events <= bounds.events(),
                "{w}@{scale}: {} dynamic events > static bound {}",
                summary.events,
                bounds.events()
            );
            assert!(
                summary.max_depth as u64 <= bounds.call_depth(),
                "{w}@{scale}: dynamic depth {} > static bound {}",
                summary.max_depth,
                bounds.call_depth()
            );

            let interned = InternedTrace::from(trace.branches());
            assert!(
                u64::from(interned.distinct_count()) <= a.flow().alphabet_bound(),
                "{w}@{scale}: {} distinct elements > alphabet bound {}",
                interned.distinct_count(),
                a.flow().alphabet_bound()
            );
        }
    }
}

#[test]
fn static_nesting_tree_is_a_supergraph_of_every_oracle_forest() {
    for w in Workload::ALL {
        let a = Analysis::of(&w.program(1));
        let forest = CallLoopForest::build(&w.trace(1)).expect("well-nested");
        assert!(a.nesting().is_supergraph_of(&forest), "{w}");
        // Edge-set inclusion, stated directly on the construct sets.
        for edge in forest.construct_edges() {
            assert!(a.nesting().edges().contains(&edge), "{w}: missing {edge:?}");
        }
        assert!(
            u64::from(forest.max_depth()) <= a.bounds().nest_depth(),
            "{w}: dynamic nest depth {} > static bound {}",
            forest.max_depth(),
            a.bounds().nest_depth()
        );
    }
}

// One deliberately broken program per error code.

#[test]
fn unguarded_recursion_is_rejected_with_e002() {
    let mut b = ProgramBuilder::new();
    let f = b.declare("spin");
    b.define(f, |body| {
        body.branch(TakenDist::Always);
        body.call(f, ArgExpr::Const(7)); // neither guarded nor decreasing
    });
    let a = Analysis::of(&b.build().unwrap());
    let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
    assert!(codes.contains(&Code::UnguardedRecursion), "{codes:?}");
    assert_eq!(Code::UnguardedRecursion.severity(), Severity::Error);
    assert!(a.error_count() >= 1);
}

#[test]
fn u64_overflowing_loop_nest_is_rejected_with_e004() {
    let mut b = ProgramBuilder::new();
    let f = b.declare("huge");
    b.define(f, |body| {
        body.repeat(Trip::Fixed(4_000_000_000), |l1| {
            l1.repeat(Trip::Fixed(4_000_000_000), |l2| {
                l2.repeat(Trip::Fixed(4_000_000_000), |l3| {
                    l3.branch(TakenDist::Alternating);
                });
            });
        });
    });
    let a = Analysis::of(&b.build().unwrap());
    let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
    assert!(codes.contains(&Code::BoundOverflow), "{codes:?}");
    assert_eq!(Code::BoundOverflow.severity(), Severity::Error);
    assert!(a.bounds().overflowed());
}

#[test]
fn overflow_confined_to_a_dead_arm_is_not_reported() {
    // The same u64-overflowing nest, but in the taken arm of a branch
    // that is never taken: the abstract interpreter follows only the
    // live arm, so the bounds stay finite and exact, while the flow
    // analysis still reports the arm as dead code.
    let mut b = ProgramBuilder::new();
    let f = b.declare("guarded_huge");
    b.define(f, |body| {
        body.cond(
            TakenDist::Never,
            |dead| {
                dead.repeat(Trip::Fixed(4_000_000_000), |l1| {
                    l1.repeat(Trip::Fixed(4_000_000_000), |l2| {
                        l2.repeat(Trip::Fixed(4_000_000_000), |l3| {
                            l3.branch(TakenDist::Alternating);
                        });
                    });
                });
            },
            |live| {
                live.branch(TakenDist::Always);
            },
        );
    });
    let a = Analysis::of(&b.build().unwrap());
    let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
    assert!(!codes.contains(&Code::BoundOverflow), "{codes:?}");
    assert!(codes.contains(&Code::DeadCode), "{codes:?}");
    let dead: Vec<DeadKind> = a.flow().dead_sites().iter().map(|d| d.kind).collect();
    assert_eq!(dead, [DeadKind::DeadThenArm(0)]); // the guard is site @0
    let bounds = a.bounds();
    assert!(!bounds.overflowed());
    assert_eq!(bounds.branches(), 2); // the guard and the live arm's site
    assert_eq!(bounds.events(), 2); // the entry method's enter/exit
    assert_eq!(bounds.nest_depth(), 1);
}

#[test]
fn structurally_invalid_listing_maps_to_e005() {
    // The parser funnels through the same shared `Program::validate`
    // the builder uses, so an inverted trip range (a defect the line
    // scanner cannot see) surfaces as a BuildError; its diagnostic
    // mapping is the stable OPD-E005 code.
    let listing = "\
// program: 1 functions, 1 loops, 1 branch sites, entry f0 (arg 0)
fn main (f0) // entry {
  loop L0 x[5..=2] {
    branch @0 p=0.5
  }
}
";
    let err = match parse_program(listing) {
        Err(ParseError::Build(err)) => err,
        other => panic!("expected a build error, got {other:?}"),
    };
    let probe = opd_microvm::workloads::Workload::Lexgen.program(1);
    let diag = Diagnostic::from_build_error(&probe, &err);
    assert_eq!(diag.code(), Code::InvalidStructure);
    assert_eq!(diag.severity(), Severity::Error);
    assert!(
        diag.message().contains("inverted range"),
        "{}",
        diag.message()
    );
}

#[test]
fn depth_limit_breach_warns_w007() {
    let mut b = ProgramBuilder::new();
    let f = b.declare("ladder");
    b.define(f, |body| {
        body.branch(TakenDist::Always);
        body.if_arg_positive(|g| {
            g.call(f, ArgExpr::Dec);
        });
    });
    b.entry_arg(700); // terminates, but deeper than the interpreter allows
    let a = Analysis::of(&b.build().unwrap());
    let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
    assert!(codes.contains(&Code::CallDepthBound), "{codes:?}");
    assert_eq!(Code::CallDepthBound.severity(), Severity::Warning);
    assert!(!a.bounds().overflowed());
    assert_eq!(a.bounds().call_depth(), 701);
}

#[test]
fn ladders_past_the_analysis_depth_cap_warn_w007_not_e004() {
    // The same ladder from entry argument 5,000 terminates after 5,001
    // calls, deeper than the abstract interpreter follows (1,024): the
    // lint reports the depth, not an overflow, and the certificates
    // stay vacuous because no count was ever bounded.
    let mut b = ProgramBuilder::new();
    let f = b.declare("ladder");
    b.define(f, |body| {
        body.branch(TakenDist::Always);
        body.if_arg_positive(|g| {
            g.call(f, ArgExpr::Dec);
        });
    });
    b.entry_arg(5_000);
    let a = Analysis::of(&b.build().unwrap());
    let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
    assert_eq!(codes, [Code::CallDepthBound]);
    let message = a.diagnostics()[0].message();
    assert!(message.contains("call depth at least 1,024"), "{message}");
    let bounds = a.bounds();
    assert!(bounds.depth_capped());
    assert!(bounds.overflowed());
    assert!(a.absint().overflowed());
    let config = opd_core::DetectorConfig::builder()
        .current_window(50)
        .build()
        .expect("valid config");
    let cert = opd_analyze::ResourceCertificate::from_parts(a.absint(), a.flow(), &config, 1_000);
    assert!(cert.vacuous());
}
