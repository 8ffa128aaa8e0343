//! The spec-differential suite: every run path of the detector must
//! be bit-identical to the executable spec (`opd_core::spec`, a naive
//! transliteration of the paper's Section 2 and Figure 3) — same
//! per-element state sequence, same detected and anchored phases, same
//! final similarity and state — on every MicroVM workload and on
//! arbitrary traces. The grids cross all three similarity models with
//! both TW policies, both anchors, both resize policies, and skip
//! factors on both sides of the rank-mode cutoff, so mid-phase flushes
//! and adaptive TW growth are exercised on every path.
//!
//! The paths (arms) checked against the spec:
//!
//! * the batch run over an interned trace, in dense mode below the
//!   rank-mode cutoff and in rank mode at or above it;
//! * `process`, step by step over its private prefix-compacted log,
//!   whose window lengths must match the spec's after every step;
//! * `process_log` streaming the trace the way a serve session does:
//!   interned into an `IdLog` frame by frame, straight through, with a
//!   crash and replay from an arbitrary prefix, and on a detector
//!   reused via `reconfigure` after both a `process` run and a dense
//!   batch run dirtied its kernel columns and private log;
//! * the sweep engine: the shared-constant and shared-adaptive scans
//!   (and private units for `skip > cw`), over whole grids on the
//!   workloads and over each generated config's anchor × resize
//!   siblings under proptest.

use proptest::prelude::*;

use opd_core::spec::{self, SpecRun};
use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectedPhase, DetectorConfig, IdLog, InternedTrace, ModelPolicy,
    PhaseDetector, ResizePolicy, SweepEngine, TwPolicy, RANK_MODE_MIN_SKIP,
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

/// One run path's result, in the shape of a [`SpecRun`].
struct Arm {
    detector: PhaseDetector,
    states: StateSeq,
    /// `(CW length, TW length)` after each step, on the paths that
    /// report them.
    window_lens: Option<Vec<(usize, usize)>>,
}

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
) -> Arm {
    let config = *detector.config();
    let skip = config.skip_factor();
    let unconsumed = |d: &PhaseDetector, log: &IdLog| log.len() - d.elements_consumed() as usize;
    let mut log = IdLog::new();
    let mut states = StateSeq::with_capacity(elements.len());
    let mut window_lens = Vec::new();
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
            window_lens.push(detector.window_lens());
        }
    }
    let residual = unconsumed(&detector, &log);
    if residual > 0 {
        states.push_n(detector.process_log(&log, residual), residual);
        window_lens.push(detector.window_lens());
    }
    detector.close_open_phase();
    Arm {
        detector,
        states,
        window_lens: Some(window_lens),
    }
}

/// `process` step by step, as `run` does, recording the window
/// lengths after each step.
fn stream_process(mut detector: PhaseDetector, elements: &[ProfileElement]) -> Arm {
    let mut states = StateSeq::with_capacity(elements.len());
    let mut window_lens = Vec::new();
    for step in elements.chunks(detector.config().skip_factor()) {
        states.push_n(detector.process(step), step.len());
        window_lens.push(detector.window_lens());
    }
    detector.close_open_phase();
    Arm {
        detector,
        states,
        window_lens: Some(window_lens),
    }
}

/// Checks every single-detector path over `elements` (interned as
/// `trace`) against the spec and returns the spec's run, for callers
/// that also check engine units.
fn assert_paths_match_spec(
    elements: &[ProfileElement],
    trace: &InternedTrace,
    config: DetectorConfig,
    framing: Framing<'_>,
    context: &str,
) -> SpecRun {
    let reference = spec::run(config, elements);
    let mut batch = PhaseDetector::new(config);
    let batch_states = batch.run_interned(trace);

    // A `process` run leaves a private log and nonzero kernel columns
    // behind, and a dense batch run dirties the columns again; the
    // `reconfigure`s must clear both before the stream starts over.
    let dirty_config = DetectorConfig::builder()
        .current_window(9)
        .trailing_window(5)
        .build()
        .expect("valid config");
    let prefix = &elements[..elements.len().min(500)];
    let mut reused = PhaseDetector::new(dirty_config);
    let _ = reused.run(&prefix.iter().copied().collect());
    reused.reconfigure(dirty_config);
    let _ = reused.run_interned(&InternedTrace::from_elements(prefix.iter().copied()));
    reused.reconfigure(config);

    let arms = [
        (
            "batch",
            Arm {
                detector: batch,
                states: batch_states,
                window_lens: None,
            },
        ),
        (
            "process",
            stream_process(PhaseDetector::new(config), elements),
        ),
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
    for (arm, run) in arms {
        let d = &run.detector;
        assert_eq!(
            reference.states, run.states,
            "{context}: {arm}: state sequence"
        );
        assert_eq!(
            reference.phases,
            d.detected_phases(),
            "{context}: {arm}: phases"
        );
        assert_eq!(
            reference.last_similarity,
            d.last_similarity(),
            "{context}: {arm}: last similarity"
        );
        assert_eq!(reference.state, d.state(), "{context}: {arm}: final state");
        if let Some(window_lens) = run.window_lens {
            assert_eq!(
                reference.window_lens, window_lens,
                "{context}: {arm}: window lengths"
            );
        }
    }
    reference
}

/// Runs `configs` through one sweep engine over `trace` and checks
/// each config's phases against its spec run.
fn assert_engine_matches(
    trace: &InternedTrace,
    configs: &[DetectorConfig],
    references: &[Vec<DetectedPhase>],
    context: &str,
) {
    let engine = SweepEngine::new(configs);
    for ((phases, expected), config) in engine.run_all(trace).iter().zip(references).zip(configs) {
        assert_eq!(phases, expected, "{context}: engine unit: {config:?}");
    }
}

/// Checks every path for every config of `configs`, including one
/// sweep engine over all of them.
fn assert_grid_matches_spec(
    elements: &[ProfileElement],
    configs: &[DetectorConfig],
    framing: Framing<'_>,
    context: &str,
) {
    let trace = InternedTrace::from_elements(elements.iter().copied());
    let references: Vec<Vec<DetectedPhase>> = configs
        .iter()
        .map(|&config| {
            let context = format!("{context} {config:?}");
            assert_paths_match_spec(elements, &trace, config, framing, &context).phases
        })
        .collect();
    assert_engine_matches(&trace, configs, &references, context);
}

#[test]
fn kernels_agree_on_every_workload() {
    let configs = differential_grid();
    for &workload in &Workload::ALL {
        let trace = branches(workload);
        assert_grid_matches_spec(
            trace.as_slice(),
            &configs,
            FRAMING,
            &format!("{workload:?}"),
        );
    }
}

#[test]
fn kernels_agree_on_degenerate_traces() {
    let grid = differential_grid();
    let configs = [grid[0], grid[47]];
    // Empty trace, single element, single repeated site.
    let e = |o| ProfileElement::new(MethodId::new(0), o, false);
    for elements in [
        vec![],
        vec![e(0)],
        vec![e(0); 1_000],
        (0..700u32).map(|i| e(i % 3)).collect(),
    ] {
        assert_grid_matches_spec(&elements, &configs, FRAMING, "degenerate");
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
    assert_grid_matches_spec(&elements, &differential_grid(), FRAMING, "late sites");
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
        let context = format!("{config:?} {framing:?}");
        let interned = InternedTrace::from_elements(trace.iter().copied());
        let reference =
            assert_paths_match_spec(trace.as_slice(), &interned, config, framing, &context);
        // The config's anchor × resize siblings share its window shape,
        // so the engine runs them as one multi-member unit.
        let mut siblings = vec![config];
        let mut references = vec![reference.phases];
        for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
            for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                let sibling = DetectorConfig::builder()
                    .current_window(config.current_window())
                    .trailing_window(config.trailing_window())
                    .skip_factor(config.skip_factor())
                    .tw_policy(config.tw_policy())
                    .anchor(anchor)
                    .resize(resize)
                    .model(config.model())
                    .analyzer(config.analyzer())
                    .build()
                    .expect("sibling of a valid config");
                references.push(spec::run(sibling, trace.as_slice()).phases);
                siblings.push(sibling);
            }
        }
        assert_engine_matches(&interned, &siblings, &references, &context);
    }
}
