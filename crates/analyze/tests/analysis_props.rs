//! Property tests: for arbitrary generated programs, everything the
//! interpreter and the oracle observe dynamically stays within the
//! analyzer's static bounds.

use proptest::prelude::*;

use opd_analyze::Analysis;
use opd_baseline::CallLoopForest;
use opd_core::InternedTrace;
use opd_microvm::{ArgExpr, Interpreter, ProgramBuilder, TakenDist, Trip};
use opd_trace::ExecutionTrace;

/// A recipe for one statement, interpreted into builder calls with
/// bounded nesting (mirrors the generator in `opd-microvm`'s property
/// tests, with variable trips, draw arguments, halving recursion and
/// one-sided conditionals added).
#[derive(Debug, Clone)]
enum StmtSpec {
    Branch(u8),
    Loop(u8, Vec<StmtSpec>),
    VarLoop(u8, Vec<StmtSpec>),
    Cond(u8, Vec<StmtSpec>, Vec<StmtSpec>),
    CallHelper(u8),
    /// A helper call with a `Draw(lo, lo + span)` argument.
    DrawHelper(u8, u8),
    /// Guarded self-recursion by `Half` (`true`) or `Dec` (`false`).
    Recurse(bool),
}

fn arb_stmt(depth: u32) -> impl Strategy<Value = StmtSpec> {
    let leaf = prop_oneof![
        (0u8..=4).prop_map(StmtSpec::Branch),
        (0u8..=5).prop_map(StmtSpec::CallHelper),
        ((0u8..=3), (0u8..=3)).prop_map(|(lo, span)| StmtSpec::DrawHelper(lo, span)),
        any::<bool>().prop_map(StmtSpec::Recurse),
    ];
    leaf.prop_recursive(depth, 20, 4, |inner| {
        prop_oneof![
            ((1u8..5), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, body)| StmtSpec::Loop(n, body)),
            ((1u8..4), prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(n, body)| StmtSpec::VarLoop(n, body)),
            (
                0u8..=4,
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner, 0..3)
            )
                .prop_map(|(tag, t, e)| StmtSpec::Cond(tag, t, e)),
        ]
    })
}

fn dist_of(tag: u8) -> TakenDist {
    match tag {
        0 => TakenDist::Always,
        1 => TakenDist::Never,
        2 => TakenDist::Bernoulli(0.5),
        3 => TakenDist::Alternating,
        _ => TakenDist::Periodic(3),
    }
}

fn emit(
    specs: &[StmtSpec],
    b: &mut opd_microvm::BlockBuilder<'_>,
    helper: opd_microvm::FuncId,
    me: opd_microvm::FuncId,
) {
    for spec in specs {
        match spec {
            StmtSpec::Branch(tag) => {
                b.branch(dist_of(*tag));
            }
            StmtSpec::Loop(n, body) => {
                b.repeat(Trip::Fixed(u32::from(*n)), |l| emit(body, l, helper, me));
            }
            StmtSpec::VarLoop(n, body) => {
                let hi = u32::from(*n);
                b.repeat(Trip::Uniform(1, hi.max(1)), |l| emit(body, l, helper, me));
            }
            StmtSpec::Cond(tag, t, e) => {
                b.cond(
                    dist_of(*tag),
                    |tb| emit(t, tb, helper, me),
                    |eb| emit(e, eb, helper, me),
                );
            }
            StmtSpec::CallHelper(arg) => {
                b.call(helper, ArgExpr::Const(u32::from(*arg)));
            }
            StmtSpec::DrawHelper(lo, span) => {
                let lo = u32::from(*lo);
                b.call(helper, ArgExpr::Draw(lo, lo + u32::from(*span)));
            }
            StmtSpec::Recurse(half) => {
                let arg = if *half { ArgExpr::Half } else { ArgExpr::Dec };
                b.if_arg_positive(|g| {
                    g.call(me, arg);
                });
            }
        }
    }
}

fn build_program(specs: &[StmtSpec], entry_arg: u32) -> Option<opd_microvm::Program> {
    let mut b = ProgramBuilder::new();
    let helper = b.declare("helper");
    let main = b.declare("main");
    b.define(helper, |f| {
        f.branch(TakenDist::Bernoulli(0.6));
        f.repeat(Trip::Arg, |l| {
            l.branch(TakenDist::Alternating);
        });
    });
    b.define(main, |f| {
        // Guarantee at least one branch so traces are never empty.
        f.branch(TakenDist::Always);
        emit(specs, f, helper, main);
    });
    b.entry(main).entry_arg(entry_arg);
    b.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_observations_never_exceed_static_bounds(
        specs in prop::collection::vec(arb_stmt(3), 1..6),
        entry_arg in 0u32..6,
        seed in any::<u64>(),
    ) {
        let Some(program) = build_program(&specs, entry_arg) else {
            return Ok(());
        };
        let analysis = Analysis::of(&program);
        let bounds = analysis.bounds();
        prop_assert!(!bounds.overflowed());
        prop_assert_eq!(analysis.error_count(), 0);

        let mut trace = ExecutionTrace::new();
        // Fuel caps runaway (but still terminating) cases; a truncated
        // run only ever observes *less*, so the bounds must still hold.
        let summary = Interpreter::new(&program, seed)
            .with_fuel(200_000)
            .run(&mut trace)
            .expect("generated programs terminate within limits");

        prop_assert!(summary.branches <= bounds.branches());
        prop_assert!(summary.events <= bounds.events());
        prop_assert!(summary.max_depth as u64 <= bounds.call_depth());

        let interned = InternedTrace::from(trace.branches());
        prop_assert!(
            u64::from(interned.distinct_count()) <= analysis.flow().alphabet_bound()
        );

        let forest = CallLoopForest::build(&trace).expect("well nested");
        prop_assert!(analysis.nesting().is_supergraph_of(&forest));
        prop_assert!(u64::from(forest.max_depth()) <= bounds.nest_depth());
        for edge in forest.construct_edges() {
            prop_assert!(analysis.nesting().edges().contains(&edge));
        }
    }
}
