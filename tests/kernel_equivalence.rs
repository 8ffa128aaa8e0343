//! The kernel-differential suite: the SWAR (default) window kernel
//! must be bit-identical to the scalar reference — same per-element
//! state sequence, same detected and anchored phases, same final
//! similarity — on every MicroVM workload and on arbitrary traces.
//! The grids cross all three similarity models with both TW policies,
//! both anchors, both resize policies, and skip factors on both sides
//! of the rank-mode cutoff, so the dense incremental path, the
//! rank-index path, mid-phase flushes (`clear_keep_last`), and
//! adaptive TW growth are all exercised against the reference.
//!
//! Each case also streams the trace the way a serve session does:
//! interned into an `IdLog` frame by frame and consumed through
//! `process_log` (SWAR, always dense), straight through, with a crash
//! and replay from an arbitrary prefix, and on a detector reused via
//! `reconfigure` after a dense batch run dirtied its SWAR columns.

use proptest::prelude::*;

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, IdLog, InternedTrace, KernelKind, ModelPolicy,
    PhaseDetector, ResizePolicy, TwPolicy, RANK_MODE_MIN_SKIP,
};
use opd_microvm::workloads::Workload;
use opd_trace::{BranchTrace, MethodId, ProfileElement, StateSeq};

const FUEL: u64 = 12_000;

fn branches(workload: Workload) -> BranchTrace {
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(FUEL)
        .run(&mut execution)
        .expect("workload executes");
    execution.into_parts().0
}

/// Every policy axis crossed, with skip factors below and above the
/// rank-mode cutoff.
fn differential_grid() -> Vec<DetectorConfig> {
    let mut configs = Vec::new();
    for model in ModelPolicy::ALL_EXTENDED {
        for tw_policy in [TwPolicy::Constant, TwPolicy::Adaptive] {
            for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
                for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                    for skip in [1, 7, RANK_MODE_MIN_SKIP, 50] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(400)
                                .trailing_window(300)
                                .skip_factor(skip)
                                .tw_policy(tw_policy)
                                .anchor(anchor)
                                .resize(resize)
                                .model(model)
                                .build()
                                .expect("valid config"),
                        );
                    }
                }
            }
        }
    }
    configs
}

/// How the streaming arms cut a trace into frames: frame lengths
/// (cycled; zero-length frames are allowed, as after a resync skip)
/// and the frame before which the replay arm crashes.
#[derive(Debug, Clone, Copy)]
struct Framing<'a> {
    frames: &'a [usize],
    crash_at: usize,
}

const FRAMING: Framing<'static> = Framing {
    frames: &[96, 1, 0, 250, 7, 40],
    crash_at: 5,
};

/// Streams `elements` into `detector` as a serve session does: each
/// frame is interned into the log, every full `skip` step is consumed
/// as soon as it is logged, and the residual step closes the stream.
/// With `crash`, the detector is discarded before frame
/// `framing.crash_at` is logged and a fresh one replays the log's
/// full-step prefix.
fn stream_session(
    mut detector: PhaseDetector,
    elements: &[ProfileElement],
    framing: Framing<'_>,
    crash: bool,
) -> (PhaseDetector, StateSeq) {
    let config = *detector.config();
    let skip = config.skip_factor();
    let unconsumed = |d: &PhaseDetector, log: &IdLog| log.len() - d.elements_consumed() as usize;
    let mut log = IdLog::new();
    let mut states = StateSeq::with_capacity(elements.len());
    let mut rest = elements;
    for (frame, &len) in framing.frames.iter().cycle().enumerate() {
        if rest.is_empty() {
            break;
        }
        if crash && frame == framing.crash_at {
            detector = PhaseDetector::new(config);
            for _ in 0..log.len() / skip {
                detector.process_log(&log, skip);
            }
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        log.extend(head.iter().copied());
        while unconsumed(&detector, &log) >= skip {
            states.push_n(detector.process_log(&log, skip), skip);
        }
    }
    let residual = unconsumed(&detector, &log);
    if residual > 0 {
        states.push_n(detector.process_log(&log, residual), residual);
    }
    detector.close_open_phase();
    (detector, states)
}

fn assert_kernels_agree(
    elements: &[ProfileElement],
    config: DetectorConfig,
    framing: Framing<'_>,
    context: &str,
) {
    let trace = InternedTrace::from_elements(elements.iter().copied());
    let mut scalar = PhaseDetector::with_kernel(config, KernelKind::Scalar);
    let scalar_seq = scalar.run_interned(&trace);
    let mut swar = PhaseDetector::with_kernel(config, KernelKind::Swar);
    let swar_seq = swar.run_interned(&trace);

    // A dense batch run leaves nonzero SWAR columns behind, which
    // `reconfigure` must clear before the stream starts over.
    let dirty_config = DetectorConfig::builder()
        .current_window(9)
        .trailing_window(5)
        .build()
        .expect("valid config");
    let mut reused = PhaseDetector::with_kernel(dirty_config, KernelKind::Swar);
    let _ = reused.run_interned(&trace);
    reused.reconfigure(config);

    let arms = [
        ("swar batch", (swar, swar_seq)),
        (
            "stream",
            stream_session(PhaseDetector::new(config), elements, framing, false),
        ),
        (
            "stream with replay",
            stream_session(PhaseDetector::new(config), elements, framing, true),
        ),
        (
            "stream after reconfigure",
            stream_session(reused, elements, framing, false),
        ),
    ];
    for (arm, (detector, seq)) in arms {
        assert_eq!(scalar_seq, seq, "{context}: {arm}: state sequence");
        assert_eq!(
            scalar.detected_phases(),
            detector.detected_phases(),
            "{context}: {arm}: phases"
        );
        assert_eq!(
            scalar.last_similarity(),
            detector.last_similarity(),
            "{context}: {arm}: last similarity"
        );
        assert_eq!(
            scalar.state(),
            detector.state(),
            "{context}: {arm}: final state"
        );
    }
}

#[test]
fn kernels_agree_on_every_workload() {
    let configs = differential_grid();
    for &workload in &Workload::ALL {
        let trace = branches(workload);
        for &config in &configs {
            assert_kernels_agree(
                trace.as_slice(),
                config,
                FRAMING,
                &format!("{workload:?} {config:?}"),
            );
        }
    }
}

#[test]
fn kernels_agree_on_degenerate_traces() {
    let config = differential_grid()[0];
    // Empty trace, single element, single repeated site.
    let e = |o| ProfileElement::new(MethodId::new(0), o, false);
    for elements in [
        vec![],
        vec![e(0)],
        vec![e(0); 1_000],
        (0..700u32).map(|i| e(i % 3)).collect(),
    ] {
        for &cfg in &[config, differential_grid()[47]] {
            assert_kernels_agree(&elements, cfg, FRAMING, &format!("degenerate {cfg:?}"));
        }
    }
}

#[test]
fn kernels_agree_when_new_sites_arrive_after_warm_up() {
    // Five sites until the windows have long been warm, then a
    // working set that keeps sliding onto fresh sites — one every 40
    // elements, 155 in all — so the streaming log's distinct count
    // crosses the 64- and 128-site lane boundaries mid-stream.
    let e = |o| ProfileElement::new(MethodId::new(2), o, true);
    let elements: Vec<_> = (0..3_000u32)
        .map(|i| e(i % 5))
        .chain((0..6_000u32).map(|i| e(5 + i / 40 + i % 6)))
        .collect();
    for config in differential_grid() {
        assert_kernels_agree(
            &elements,
            config,
            FRAMING,
            &format!("late sites {config:?}"),
        );
    }
}

fn arb_element() -> impl Strategy<Value = ProfileElement> {
    // 13 methods × 10 offsets × taken-bit: up to 260 distinct sites,
    // comfortably crossing the 64-site lane boundary (and a second
    // one) so multi-lane bitset handling is exercised.
    (0u32..13, 0u32..10, any::<bool>())
        .prop_map(|(m, o, t)| ProfileElement::new(MethodId::new(m), o, t))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = BranchTrace> {
    prop::collection::vec(arb_element(), 0..max_len).prop_map(BranchTrace::from)
}

/// Frame length patterns; the first frame is never empty, so the
/// stream always makes progress.
fn arb_frames() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..120, 1..6).prop_map(|mut frames| {
        frames[0] += 1;
        frames
    })
}

fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (
        1usize..50,
        1usize..50,
        // Crosses RANK_MODE_MIN_SKIP so both judging modes appear.
        1usize..48,
        prop_oneof![Just(TwPolicy::Constant), Just(TwPolicy::Adaptive)],
        prop_oneof![
            Just(AnchorPolicy::RightmostNoisy),
            Just(AnchorPolicy::LeftmostNonNoisy)
        ],
        prop_oneof![Just(ResizePolicy::Slide), Just(ResizePolicy::Move)],
        prop_oneof![
            Just(ModelPolicy::UnweightedSet),
            Just(ModelPolicy::WeightedSet),
            Just(ModelPolicy::Pearson)
        ],
        prop_oneof![
            (0.0f64..=1.0).prop_map(AnalyzerPolicy::Threshold),
            (0.0f64..=1.0).prop_map(|delta| AnalyzerPolicy::Average { delta }),
        ],
    )
        .prop_map(|(cw, tw, skip, twp, anchor, resize, model, analyzer)| {
            DetectorConfig::builder()
                .current_window(cw)
                .trailing_window(tw)
                .skip_factor(skip)
                .tw_policy(twp)
                .anchor(anchor)
                .resize(resize)
                .model(model)
                .analyzer(analyzer)
                .build()
                .expect("generated parameters are valid")
        })
}

proptest! {
    #[test]
    fn kernels_agree_on_arbitrary_traces(
        trace in arb_trace(600),
        config in arb_config(),
        frames in arb_frames(),
        crash_at in 0usize..12,
    ) {
        let framing = Framing { frames: &frames, crash_at };
        assert_kernels_agree(
            trace.as_slice(),
            config,
            framing,
            &format!("{config:?} {framing:?}"),
        );
    }
}
