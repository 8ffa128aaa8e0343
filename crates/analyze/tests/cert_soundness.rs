//! Property tests for the resource certificates: for arbitrary
//! generated programs × arbitrary detector configs × arbitrary fuel,
//! every obs-free dynamic counter (elements, steps, interned sites,
//! detected phases, peak window occupancy, kernel memory) lands
//! inside the interval its [`ResourceCertificate`] certifies, and the
//! certified compare-op bound never exceeds the flat cost model.
//!
//! On failure the message carries the full MicroVM listing and the
//! config, so every counterexample is replayable as
//! `opd trace <listing> --config ...`.

use proptest::prelude::*;

use opd_analyze::{AbsInt, FlowInfo, ResourceCertificate};
use opd_core::{
    AnalyzerPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector, TwPolicy,
};
use opd_microvm::{ArgExpr, Interpreter, ProgramBuilder, TakenDist, Trip};
use opd_trace::{ExecutionTrace, ProfileElement};

/// A recipe for one statement (the `analysis_props` generator, kept
/// in lockstep so the two suites stress the same program space).
#[derive(Debug, Clone)]
enum StmtSpec {
    Branch(u8),
    Loop(u8, Vec<StmtSpec>),
    VarLoop(u8, Vec<StmtSpec>),
    Cond(Vec<StmtSpec>, Vec<StmtSpec>),
    CallHelper(u8),
    Recurse,
}

fn arb_stmt(depth: u32) -> impl Strategy<Value = StmtSpec> {
    let leaf = prop_oneof![
        (0u8..=4).prop_map(StmtSpec::Branch),
        (0u8..=5).prop_map(StmtSpec::CallHelper),
        Just(StmtSpec::Recurse),
    ];
    leaf.prop_recursive(depth, 20, 4, |inner| {
        prop_oneof![
            ((1u8..5), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, body)| StmtSpec::Loop(n, body)),
            ((1u8..4), prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(n, body)| StmtSpec::VarLoop(n, body)),
            (
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner, 0..3)
            )
                .prop_map(|(t, e)| StmtSpec::Cond(t, e)),
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
            StmtSpec::Cond(t, e) => {
                b.cond(
                    TakenDist::Bernoulli(0.5),
                    |tb| emit(t, tb, helper, me),
                    |eb| emit(e, eb, helper, me),
                );
            }
            StmtSpec::CallHelper(arg) => {
                b.call(helper, ArgExpr::Const(u32::from(*arg)));
            }
            StmtSpec::Recurse => {
                b.if_arg_positive(|g| {
                    g.call(me, ArgExpr::Dec);
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
        f.branch(TakenDist::Always);
        emit(specs, f, helper, main);
    });
    b.entry(main).entry_arg(entry_arg);
    b.build().ok()
}

/// A valid-by-construction detector config: every tag combination
/// builds (the shimmed proptest has no `prop_filter`).
fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (0u8..5, 0u8..4, 0u8..4, 0u8..2, 0u8..3, 0u8..4).prop_map(
        |(cw, tw, skip, policy, model, analyzer)| {
            DetectorConfig::builder()
                .current_window([2usize, 4, 8, 37, 100][cw as usize])
                .trailing_window([2usize, 5, 16, 64][tw as usize])
                .skip_factor([1usize, 2, 5, 40][skip as usize])
                .tw_policy(if policy == 0 {
                    TwPolicy::Constant
                } else {
                    TwPolicy::Adaptive
                })
                .model(match model {
                    0 => ModelPolicy::UnweightedSet,
                    1 => ModelPolicy::WeightedSet,
                    _ => ModelPolicy::Pearson,
                })
                .analyzer(match analyzer {
                    0 => AnalyzerPolicy::Threshold(0.0),
                    1 => AnalyzerPolicy::Threshold(0.5),
                    2 => AnalyzerPolicy::Average { delta: 0.1 },
                    _ => AnalyzerPolicy::Average { delta: 1.0 },
                })
                .build()
                .expect("all generated combinations are valid")
        },
    )
}

/// The peak CW + TW occupancy over a skip-aligned run.
fn measured_peak_occupancy(config: &DetectorConfig, elements: &[ProfileElement]) -> u64 {
    let mut detector = PhaseDetector::new(*config);
    let mut peak = 0u64;
    for chunk in elements.chunks(config.skip_factor().max(1)) {
        detector.process(chunk);
        let (cw_len, tw_len) = detector.window_lens();
        peak = peak.max((cw_len + tw_len) as u64);
    }
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_counters_stay_inside_their_certificates(
        specs in prop::collection::vec(arb_stmt(3), 1..6),
        entry_arg in 0u32..6,
        config in arb_config(),
        seed in any::<u64>(),
        fuel_tag in 0u8..3,
    ) {
        let Some(program) = build_program(&specs, entry_arg) else {
            return Ok(());
        };
        let fuel = [150u64, 5_000, 200_000][fuel_tag as usize];
        let absint = AbsInt::of(&program);
        let flow = FlowInfo::compute(&program);
        let cert = ResourceCertificate::from_parts(&absint, &flow, &config, fuel);
        // The counterexample, replayable by hand: full IR + config.
        let ctx = || format!("config: {config:?}\nfuel: {fuel}\nprogram:\n{}", program.dump());

        let mut trace = ExecutionTrace::new();
        Interpreter::new(&program, seed)
            .with_fuel(fuel)
            .run(&mut trace)
            .expect("generated programs terminate within limits");
        let elements: Vec<ProfileElement> = trace.branches().iter().copied().collect();
        let interned = InternedTrace::from_elements(elements.iter().copied());

        prop_assert!(
            cert.elements().contains(elements.len() as u64),
            "elements {} not in [{},{}]\n{}",
            elements.len(), cert.elements().lo(), cert.elements().hi(), ctx()
        );
        prop_assert!(
            cert.sites().contains(u64::from(interned.distinct_count())),
            "sites {} not in [{},{}]\n{}",
            interned.distinct_count(), cert.sites().lo(), cert.sites().hi(), ctx()
        );

        let steps = (elements.len() as u64).div_ceil(config.skip_factor().max(1) as u64);
        prop_assert!(
            cert.steps().contains(steps),
            "steps {steps} not in [{},{}]\n{}",
            cert.steps().lo(), cert.steps().hi(), ctx()
        );

        let mut detector = PhaseDetector::new(config);
        let phases = detector.run_interned_phases_only(&interned).len() as u64;
        prop_assert!(
            cert.phases().contains(phases),
            "phases {phases} not in [{},{}]\n{}",
            cert.phases().lo(), cert.phases().hi(), ctx()
        );
        prop_assert!(
            cert.memory_bytes().contains(detector.kernel_footprint_bytes()),
            "memory {} not in [{},{}]\n{}",
            detector.kernel_footprint_bytes(),
            cert.memory_bytes().lo(), cert.memory_bytes().hi(), ctx()
        );

        let peak = measured_peak_occupancy(&config, &elements);
        prop_assert!(
            cert.occupancy().contains(peak),
            "occupancy {peak} not in [{},{}]\n{}",
            cert.occupancy().lo(), cert.occupancy().hi(), ctx()
        );

        // The certificate may never claim more compare ops than the
        // flat cost model admits (vacuous certs carry no claim).
        if let Some(bound) = cert.cost_compare_bound() {
            if !cert.vacuous() {
                prop_assert!(
                    cert.compare_ops().hi() <= bound,
                    "certified hi {} exceeds cost bound {bound}\n{}",
                    cert.compare_ops().hi(), ctx()
                );
            }
        }

        // Admission is monotone in the budget.
        prop_assert!(cert.admits(u64::MAX), "{}", ctx());
        prop_assert!(
            !cert.admits(cert.memory_bytes().hi().saturating_sub(1))
                || cert.memory_bytes().hi() == 0,
            "{}",
            ctx()
        );
    }
}
