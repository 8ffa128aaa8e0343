//! The online phase detector: the `processProfile` driver of Figure 3.

use std::collections::HashMap;

use opd_obs::{DetectorEvent, DetectorObserver, NullObserver, ResizeKind};
use opd_trace::{BranchTrace, PhaseState, ProfileElement, StateSeq};

use crate::analyzer::Analyzer;
use crate::boundary::DetectedPhase;
use crate::config::DetectorConfig;
use crate::intern::InternedTrace;
use crate::kernel::{KernelKind, SwarKernelState, SwarWindows, WindowKernel};
use crate::window::{ResizePolicy, TwPolicy, Windows};

/// Error returned by the fallible detector entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectorError {
    /// A processing step carried zero profile elements.
    EmptyStep,
}

impl core::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DetectorError::EmptyStep => f.write_str("a step needs at least one element"),
        }
    }
}

impl std::error::Error for DetectorError {}

/// Receives the per-element state stream of a detector run.
///
/// The detector itself only ever appends; a sink decides whether the
/// stream is materialized ([`StateSeq`]), discarded ([`NullSink`] —
/// the zero-allocation path for sweeps that only need phase
/// boundaries), or processed on the fly.
pub trait StateSink {
    /// Records that the next `len` profile elements were attributed
    /// `state`.
    fn record(&mut self, state: PhaseState, len: usize);
}

/// Discards the state stream: detector runs that only need the
/// detected phase list allocate nothing per element.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl StateSink for NullSink {
    #[inline]
    fn record(&mut self, _state: PhaseState, _len: usize) {}
}

impl StateSink for StateSeq {
    #[inline]
    fn record(&mut self, state: PhaseState, len: usize) {
        self.push_n(state, len);
    }
}

/// The kernel-independent half of a detector: configuration, analyzer,
/// the `P`/`T` state machine, and the detected-phase ledger. Split out
/// of [`PhaseDetector`] so the per-step logic is generic over the
/// [`WindowKernel`] while the detector owns the storage of both
/// kernels.
#[derive(Debug, Clone)]
struct DetectorCore {
    config: DetectorConfig,
    analyzer: Analyzer,
    state: PhaseState,
    consumed: u64,
    last_similarity: Option<f64>,
    phases: Vec<DetectedPhase>,
}

impl DetectorCore {
    fn new(config: DetectorConfig) -> Self {
        DetectorCore {
            analyzer: Analyzer::new(config.analyzer()),
            state: PhaseState::Transition,
            consumed: 0,
            last_similarity: None,
            phases: Vec::new(),
            config,
        }
    }

    fn tw_grows(&self) -> bool {
        self.config.tw_policy() == TwPolicy::Adaptive && self.state.is_phase()
    }

    /// One state-machine step after the windows consumed `step_len`
    /// elements. Every event is built under `O::ACTIVE`, so with
    /// [`NullObserver`] this is the plain step.
    fn finish_step<K: WindowKernel, O: DetectorObserver>(
        &mut self,
        windows: &mut K,
        step_len: usize,
        step: u64,
        observer: &mut O,
    ) -> PhaseState {
        let step_start = self.consumed;
        self.consumed += step_len as u64;

        let warm = windows.is_warm();
        if O::ACTIVE {
            observer.on_event(&DetectorEvent::Step {
                step,
                start: step_start,
                len: step_len as u32,
                warm,
            });
        }
        let new_state = if warm {
            let sim = windows.similarity(self.config.model());
            self.last_similarity = Some(sim);
            if O::ACTIVE {
                observer.on_event(&DetectorEvent::Similarity {
                    step,
                    value: sim,
                    threshold: self.analyzer.effective_threshold(),
                    ops: windows.judge_ops(self.config.model()),
                });
            }
            self.analyzer.judge(sim)
        } else {
            PhaseState::Transition
        };
        if O::ACTIVE {
            observer.on_event(&DetectorEvent::Decision {
                step,
                prev: self.state,
                state: new_state,
            });
        }

        match (self.state, new_state) {
            (PhaseState::Transition, PhaseState::Phase) => {
                // Start of a phase: place the anchor, optionally resize
                // the windows (adaptive TW), and reset the analyzer's
                // phase statistics.
                let anchor_idx = windows.anchor_index(self.config.anchor());
                let anchored_start = if self.config.tw_policy() == TwPolicy::Adaptive {
                    let offset = windows.anchor_and_resize(anchor_idx, self.config.resize());
                    if O::ACTIVE {
                        observer.on_event(&DetectorEvent::WindowResize {
                            step,
                            kind: match self.config.resize() {
                                ResizePolicy::Slide => ResizeKind::Slide,
                                ResizePolicy::Move => ResizeKind::Move,
                            },
                            tw_len: windows.tw_len() as u64,
                        });
                    }
                    offset
                } else {
                    windows.offset_of_index(anchor_idx)
                };
                self.analyzer.reset();
                if O::ACTIVE {
                    observer.on_event(&DetectorEvent::PhaseStart {
                        step,
                        start: step_start,
                        anchored_start,
                    });
                }
                self.phases.push(DetectedPhase {
                    start: step_start,
                    anchored_start,
                    end: None,
                });
            }
            (PhaseState::Phase, PhaseState::Transition) => {
                // End of a phase: flush the windows, re-seeding the CW
                // with this step's elements.
                windows.clear_keep_last(self.config.skip_factor());
                if O::ACTIVE {
                    observer.on_event(&DetectorEvent::PhaseEnd {
                        step,
                        end: step_start,
                    });
                    observer.on_event(&DetectorEvent::WindowFlush {
                        step,
                        kept: self.config.skip_factor() as u32,
                    });
                }
                if let Some(open) = self.phases.last_mut() {
                    open.end = Some(step_start);
                }
            }
            (PhaseState::Phase, PhaseState::Phase) => {
                if let Some(sim) = self.last_similarity {
                    self.analyzer.update(sim);
                }
            }
            (PhaseState::Transition, PhaseState::Transition) => {}
        }

        self.state = new_state;
        new_state
    }

    fn close_open_phase(&mut self) {
        let consumed = self.consumed;
        if let Some(open) = self.phases.last_mut() {
            if open.end.is_none() {
                open.end = Some(consumed);
            }
        }
    }
}

/// The chunk loop of an interned-trace run: one kernel advance and one
/// state-machine step per `skip_factor` elements.
fn drive<K, S, O>(
    core: &mut DetectorCore,
    windows: &mut K,
    trace: &InternedTrace,
    sink: &mut S,
    observer: &mut O,
) where
    K: WindowKernel,
    S: StateSink,
    O: DetectorObserver,
{
    let mut step = 0u64;
    for chunk in trace.ids().chunks(core.config.skip_factor()) {
        let tw_grows = core.tw_grows();
        windows.advance(chunk, tw_grows);
        let state = core.finish_step(windows, chunk.len(), step, observer);
        sink.record(state, chunk.len());
        step += 1;
    }
    if O::ACTIVE {
        if let Some(open) = core.phases.last() {
            if open.end.is_none() {
                observer.on_event(&DetectorEvent::PhaseEnd {
                    step,
                    end: core.consumed,
                });
            }
        }
    }
    core.close_open_phase();
}

/// An online phase detector: one instantiation of the framework.
///
/// The detector consumes `skip_factor` profile elements per step and
/// produces one [`PhaseState`] per step. Until both windows have filled
/// it reports `T`; once warm, the model similarity is computed and the
/// analyzer decides `P` or `T`, with the phase start/end actions of
/// Figure 3 (anchor the trailing window, reset analyzer statistics,
/// flush windows) applied at state changes.
///
/// Two interchangeable window kernels back the detector (see
/// [`KernelKind`] and the `kernel` module docs): the scalar deque
/// reference and the default SoA/bitset (SWAR) kernel. The kernel
/// choice affects only the interned-trace run paths
/// ([`run_interned`](PhaseDetector::run_interned) and friends) —
/// streaming input via [`process`](PhaseDetector::process)/
/// [`run`](PhaseDetector::run) always uses the scalar kernel, which is
/// the only one that works without the whole trace up front. Both
/// kernels produce bit-identical similarity and state streams.
///
/// # Examples
///
/// ```
/// use opd_core::{DetectorConfig, PhaseDetector};
/// use opd_microvm::workloads::Workload;
///
/// let trace = Workload::Lexgen.trace(1);
/// let config = DetectorConfig::builder().current_window(500).build()?;
/// let mut detector = PhaseDetector::new(config);
/// let states = detector.run(trace.branches());
/// assert_eq!(states.len(), trace.branches().len());
/// assert!(states.phase_count() > 0);
/// # Ok::<(), opd_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    core: DetectorCore,
    windows: Windows,
    interner: HashMap<u64, u32>,
    kernel: KernelKind,
    swar: SwarKernelState,
}

impl PhaseDetector {
    /// Creates a detector for the given configuration, on the default
    /// kernel.
    #[must_use]
    pub fn new(config: DetectorConfig) -> Self {
        Self::with_kernel(config, KernelKind::default())
    }

    /// Creates a detector for the given configuration on an explicit
    /// window kernel (see the type docs for what the choice affects).
    #[must_use]
    pub fn with_kernel(config: DetectorConfig, kernel: KernelKind) -> Self {
        PhaseDetector {
            windows: Windows::with_weighted_tracking(
                config.current_window(),
                config.trailing_window(),
                config.model() == crate::ModelPolicy::WeightedSet,
            ),
            interner: HashMap::new(),
            kernel,
            swar: SwarKernelState::default(),
            core: DetectorCore::new(config),
        }
    }

    /// Returns the detector's configuration.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.core.config
    }

    /// Returns the current output state.
    #[must_use]
    pub fn state(&self) -> PhaseState {
        self.core.state
    }

    /// Returns the scalar-kernel window state (for inspection and
    /// tests of the streaming paths; interned runs on the default SWAR
    /// kernel do not populate it).
    #[must_use]
    pub fn windows(&self) -> &Windows {
        &self.windows
    }

    /// The window kernel this detector's interned runs use.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Switches the window kernel for subsequent interned runs.
    pub fn set_kernel(&mut self, kernel: KernelKind) {
        self.kernel = kernel;
    }

    /// The similarity value computed at the most recent warm step.
    #[must_use]
    pub fn last_similarity(&self) -> Option<f64> {
        self.core.last_similarity
    }

    /// Pre-sizes the per-site window tables (of both kernels) for
    /// `n_sites` distinct elements — typically a static alphabet bound
    /// from the `opd-analyze` crate — so a run over any trace with at
    /// most that many distinct elements never grows them mid-scan.
    pub fn reserve_sites(&mut self, n_sites: usize) {
        self.windows.ensure_sites(n_sites);
        self.swar.ensure_sites(n_sites);
    }

    /// Bytes of per-site kernel storage currently held — the memory
    /// high-water mark the resource certificates bound (`ensure_sites`
    /// only ever grows the columns). Counts the SWAR count/bit-lane
    /// state; the scalar window deques are bounded by `cw + tw`
    /// elements and are not per-site.
    #[must_use]
    pub fn kernel_footprint_bytes(&self) -> u64 {
        self.swar.footprint_bytes()
    }

    /// The detector's confidence in its current state, in `[0, 1]`:
    /// how decisively the most recent similarity value cleared (or
    /// missed) the analyzer's threshold. `None` until the windows have
    /// filled for the first time.
    #[must_use]
    pub fn confidence(&self) -> Option<f64> {
        self.core
            .last_similarity
            .map(|sim| self.core.analyzer.confidence(sim))
    }

    /// Total profile elements consumed so far.
    #[must_use]
    pub fn elements_consumed(&self) -> u64 {
        self.core.consumed
    }

    /// The phases detected so far, in order. The last phase has
    /// `end == None` while the detector is still in it.
    #[must_use]
    pub fn detected_phases(&self) -> &[DetectedPhase] {
        &self.core.phases
    }

    /// `processProfile`: consumes one step of profile elements
    /// (normally exactly `skip_factor` of them; the final step of a
    /// trace may be shorter) and returns the state attributed to all of
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty.
    pub fn process(&mut self, elements: &[ProfileElement]) -> PhaseState {
        assert!(!elements.is_empty(), "a step needs at least one element");
        let tw_grows = self.core.tw_grows();
        for e in elements {
            let next = self.interner.len() as u32;
            let id = *self.interner.entry(e.raw()).or_insert(next);
            self.windows.push(id, tw_grows);
        }
        self.core
            .finish_step(&mut self.windows, elements.len(), 0, &mut NullObserver)
    }

    /// Like [`process`](PhaseDetector::process), but rejects an empty
    /// step with a typed error instead of panicking — for callers
    /// feeding the detector from lossy or untrusted streams, where an
    /// upstream resync skip can legitimately produce an empty step.
    /// On error the detector state is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::EmptyStep`] if `elements` is empty.
    pub fn try_process(
        &mut self,
        elements: &[ProfileElement],
    ) -> Result<PhaseState, DetectorError> {
        if elements.is_empty() {
            return Err(DetectorError::EmptyStep);
        }
        Ok(self.process(elements))
    }

    /// Runs the detector over a whole trace, returning one state per
    /// profile element (step states are attributed to each of the
    /// step's elements). Any phase still open at the end of the trace
    /// is closed at the trace length.
    pub fn run(&mut self, trace: &BranchTrace) -> StateSeq {
        let mut seq = StateSeq::with_capacity(trace.len());
        for chunk in trace.as_slice().chunks(self.core.config.skip_factor()) {
            let state = self.process(chunk);
            seq.push_n(state, chunk.len());
        }
        self.close_open_phase();
        seq
    }

    /// Like [`run`](PhaseDetector::run), but over a pre-interned trace —
    /// the fast path for parameter sweeps.
    ///
    /// Use a fresh detector per interned trace; mixing
    /// [`process`](PhaseDetector::process) and `run_interned` on one
    /// detector would conflate two id spaces.
    pub fn run_interned(&mut self, trace: &InternedTrace) -> StateSeq {
        let mut seq = StateSeq::with_capacity(trace.len());
        self.run_interned_with(trace, &mut seq);
        seq
    }

    /// Like [`run_interned`](PhaseDetector::run_interned), but streams
    /// each step's state into `sink` instead of materializing a
    /// [`StateSeq`]. With [`NullSink`] this is the zero-allocation run
    /// path: nothing is allocated per element, only the detected phase
    /// list grows (one entry per phase).
    pub fn run_interned_with<S: StateSink>(&mut self, trace: &InternedTrace, sink: &mut S) {
        self.run_interned_with_observer(trace, sink, &mut NullObserver);
    }

    /// Like [`run_interned_with`](PhaseDetector::run_interned_with),
    /// but emitting structured [`DetectorEvent`]s into `observer`.
    pub fn run_interned_with_observer<S: StateSink, O: DetectorObserver>(
        &mut self,
        trace: &InternedTrace,
        sink: &mut S,
        observer: &mut O,
    ) {
        match self.kernel {
            KernelKind::Scalar => {
                self.windows.ensure_sites(trace.distinct_count() as usize);
                drive(&mut self.core, &mut self.windows, trace, sink, observer);
            }
            KernelKind::Swar => {
                let config = &self.core.config;
                let (skip, cw, tw) = (
                    config.skip_factor(),
                    config.current_window(),
                    config.trailing_window(),
                );
                let mut windows = SwarWindows::begin(&mut self.swar, trace, skip, cw, tw);
                drive(&mut self.core, &mut windows, trace, sink, observer);
            }
        }
    }

    /// Runs over a pre-interned trace discarding the state stream and
    /// returns the detected phases — the cheap path for parameter
    /// sweeps that only score phase intervals.
    pub fn run_interned_phases_only(&mut self, trace: &InternedTrace) -> &[DetectedPhase] {
        self.run_interned_phases_observed(trace, &mut NullObserver)
    }

    /// Like
    /// [`run_interned_phases_only`](PhaseDetector::run_interned_phases_only),
    /// but observed — the instrumented zero-allocation sweep path.
    pub fn run_interned_phases_observed<O: DetectorObserver>(
        &mut self,
        trace: &InternedTrace,
        observer: &mut O,
    ) -> &[DetectedPhase] {
        self.run_interned_with_observer(trace, &mut NullSink, observer);
        self.detected_phases()
    }

    /// Resets this detector to a fresh run of `config`, reusing the
    /// allocations of both kernels (per-site tables, element deque,
    /// distinct lists) sized by previous runs and keeping the kernel
    /// choice. Equivalent to `*self = PhaseDetector::new(config)` but
    /// without reallocating — the sweep engine's per-thread scratch
    /// path.
    pub fn reconfigure(&mut self, config: DetectorConfig) {
        self.windows.reset_shape(
            config.current_window(),
            config.trailing_window(),
            config.model() == crate::ModelPolicy::WeightedSet,
        );
        self.core.analyzer = Analyzer::new(config.analyzer());
        self.core.state = PhaseState::Transition;
        self.interner.clear();
        self.core.consumed = 0;
        self.core.last_similarity = None;
        self.core.phases.clear();
        self.core.config = config;
    }

    /// Takes ownership of the detected phase list, leaving the
    /// detector's list empty (pairs with
    /// [`reconfigure`](PhaseDetector::reconfigure) for scratch reuse).
    #[must_use]
    pub fn take_phases(&mut self) -> Vec<DetectedPhase> {
        std::mem::take(&mut self.core.phases)
    }

    /// Closes a phase left open at end-of-trace, using the current
    /// element count as its end.
    pub fn close_open_phase(&mut self) {
        self.core.close_open_phase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzerPolicy, ModelPolicy, ResizePolicy};
    use opd_trace::MethodId;

    fn elem(offset: u32) -> ProfileElement {
        ProfileElement::new(MethodId::new(0), offset, true)
    }

    fn config(cw: usize) -> DetectorConfig {
        DetectorConfig::builder()
            .current_window(cw)
            .build()
            .unwrap()
    }

    /// A trace of `blocks` blocks, each repeating `sites_per_block`
    /// distinct sites for `block_len` elements; blocks use disjoint
    /// sites so each block is one clear phase.
    fn block_trace(blocks: u32, block_len: u32, sites_per_block: u32) -> BranchTrace {
        let mut out = BranchTrace::new();
        for b in 0..blocks {
            for i in 0..block_len {
                out.push(elem(b * sites_per_block + i % sites_per_block));
            }
        }
        out
    }

    #[test]
    fn uniform_stream_becomes_one_phase() {
        let mut d = PhaseDetector::new(config(4));
        let trace: BranchTrace = (0..40).map(|_| elem(0)).collect();
        let states = d.run(&trace);
        // Warm-up: the windows fill on the 8th element (cw + tw = 8),
        // and that step already computes a similarity, so the first 7
        // elements report T and everything after reports P.
        assert!(states.as_slice()[..7].iter().all(|s| s.is_transition()));
        assert!(states.as_slice()[7..].iter().all(|s| s.is_phase()));
        assert_eq!(d.detected_phases().len(), 1);
        assert_eq!(d.detected_phases()[0].end, Some(40));
    }

    #[test]
    fn empty_trace_yields_empty_states() {
        let mut d = PhaseDetector::new(config(4));
        let states = d.run(&BranchTrace::new());
        assert!(states.is_empty());
        assert!(d.detected_phases().is_empty());
    }

    #[test]
    fn disjoint_blocks_produce_transitions() {
        let mut d = PhaseDetector::new(config(8));
        let trace = block_trace(3, 100, 4);
        let states = d.run(&trace);
        let intervals = opd_trace::intervals_of(&states);
        assert_eq!(intervals.len(), 3, "one phase per block: {intervals:?}");
        // Each phase ends near its block boundary.
        assert!(intervals[0].end() <= 110);
        assert!(intervals[1].start() >= 100);
    }

    #[test]
    fn process_panics_on_empty_step() {
        let mut d = PhaseDetector::new(config(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.process(&[]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn try_process_rejects_empty_step_without_state_change() {
        let mut d = PhaseDetector::new(config(4));
        assert_eq!(d.try_process(&[]), Err(DetectorError::EmptyStep));
        assert_eq!(d.elements_consumed(), 0);
        let e = ProfileElement::new(MethodId::new(0), 0, true);
        assert!(d.try_process(&[e]).is_ok());
        assert_eq!(d.elements_consumed(), 1);
    }

    #[test]
    fn run_and_run_interned_agree() {
        for tw_policy in [TwPolicy::Constant, TwPolicy::Adaptive] {
            for model in ModelPolicy::ALL {
                let cfg = DetectorConfig::builder()
                    .current_window(16)
                    .tw_policy(tw_policy)
                    .model(model)
                    .analyzer(AnalyzerPolicy::Threshold(0.6))
                    .build()
                    .unwrap();
                let trace = block_trace(4, 200, 5);
                let states_a = PhaseDetector::new(cfg).run(&trace);
                let interned = InternedTrace::from(&trace);
                let states_b = PhaseDetector::new(cfg).run_interned(&interned);
                assert_eq!(states_a, states_b, "{tw_policy} {model}");
            }
        }
    }

    #[test]
    fn interned_runs_agree_across_kernels() {
        for kernel in [KernelKind::Scalar, KernelKind::Swar] {
            for model in ModelPolicy::ALL_EXTENDED {
                let cfg = DetectorConfig::builder()
                    .current_window(16)
                    .model(model)
                    .build()
                    .unwrap();
                let trace = block_trace(4, 200, 5);
                let interned = InternedTrace::from(&trace);
                let mut d = PhaseDetector::with_kernel(cfg, kernel);
                assert_eq!(d.kernel(), kernel);
                let states = d.run_interned(&interned);
                let reference =
                    PhaseDetector::with_kernel(cfg, KernelKind::Scalar).run_interned(&interned);
                assert_eq!(states, reference, "{kernel} {model}");
            }
        }
    }

    #[test]
    fn skip_factor_labels_whole_steps() {
        let cfg = DetectorConfig::builder()
            .current_window(10)
            .skip_factor(7)
            .build()
            .unwrap();
        let mut d = PhaseDetector::new(cfg);
        let trace = block_trace(2, 100, 3);
        let states = d.run(&trace);
        assert_eq!(states.len(), 200);
        // States are constant within each full step of 7.
        for chunk in states.as_slice().chunks(7) {
            assert!(chunk.iter().all(|s| *s == chunk[0]));
        }
    }

    #[test]
    fn fixed_interval_detector_runs() {
        let cfg = DetectorConfig::fixed_interval(
            25,
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Threshold(0.5),
        )
        .unwrap();
        let mut d = PhaseDetector::new(cfg);
        let trace = block_trace(4, 100, 5);
        let states = d.run(&trace);
        assert_eq!(states.len(), 400);
        // The first interval is pure warm-up; the second interval is
        // the first comparable one (TW = interval 1, CW = interval 2).
        assert!(states.as_slice()[..25].iter().all(|s| s.is_transition()));
        assert!(states.phase_count() > 0);
    }

    #[test]
    fn adaptive_tw_grows_during_phase() {
        let cfg = DetectorConfig::builder()
            .current_window(8)
            .tw_policy(TwPolicy::Adaptive)
            .build()
            .unwrap();
        let mut d = PhaseDetector::new(cfg);
        for i in 0..200 {
            d.process(&[elem(i % 4)]);
        }
        assert!(d.state().is_phase());
        assert!(
            d.windows().tw_len() > d.windows().tw_cap(),
            "adaptive TW should have grown: {} <= {}",
            d.windows().tw_len(),
            d.windows().tw_cap()
        );
    }

    #[test]
    fn constant_tw_stays_at_capacity() {
        let mut d = PhaseDetector::new(config(8));
        for i in 0..200 {
            d.process(&[elem(i % 4)]);
        }
        assert!(d.state().is_phase());
        assert_eq!(d.windows().tw_len(), 8);
    }

    #[test]
    fn anchored_start_precedes_detection_start() {
        for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
            let cfg = DetectorConfig::builder()
                .current_window(8)
                .tw_policy(TwPolicy::Adaptive)
                .resize(resize)
                .build()
                .unwrap();
            let mut d = PhaseDetector::new(cfg);
            let trace = block_trace(2, 300, 4);
            let _ = d.run(&trace);
            for p in d.detected_phases() {
                assert!(p.anchored_start <= p.start, "{resize}: {p:?}");
            }
        }
    }

    #[test]
    fn windows_flushed_at_phase_end() {
        let mut d = PhaseDetector::new(config(8));
        let trace = block_trace(2, 100, 4);
        let states = d.run(&trace);
        // There was a phase end (P followed by T) somewhere.
        let s = states.as_slice();
        assert!(s
            .windows(2)
            .any(|w| w[0].is_phase() && w[1].is_transition()));
        assert_eq!(d.detected_phases().len(), 2);
        assert!(d.detected_phases()[0].end.is_some());
    }

    #[test]
    fn average_analyzer_tolerates_drift() {
        // Slow drift within a phase: the average analyzer with a loose
        // delta keeps the phase alive longer than a tight threshold.
        let mut trace = BranchTrace::new();
        for i in 0..400u32 {
            // Working set slowly rotates: sites i/40 .. i/40+3.
            trace.push(elem(i / 40 + i % 4));
        }
        let loose = DetectorConfig::builder()
            .current_window(16)
            .analyzer(AnalyzerPolicy::Average { delta: 0.4 })
            .build()
            .unwrap();
        let tight = DetectorConfig::builder()
            .current_window(16)
            .analyzer(AnalyzerPolicy::Threshold(0.95))
            .build()
            .unwrap();
        let loose_p = PhaseDetector::new(loose).run(&trace).phase_count();
        let tight_p = PhaseDetector::new(tight).run(&trace).phase_count();
        assert!(loose_p >= tight_p, "loose {loose_p} vs tight {tight_p}");
    }

    #[test]
    fn last_similarity_exposed_once_warm() {
        let mut d = PhaseDetector::new(config(4));
        for _ in 0..7 {
            d.process(&[elem(0)]);
            assert_eq!(d.last_similarity(), None);
        }
        d.process(&[elem(0)]);
        assert_eq!(d.last_similarity(), Some(1.0));
    }

    #[test]
    fn confidence_reported_once_warm() {
        let mut d = PhaseDetector::new(config(4));
        for _ in 0..7 {
            d.process(&[elem(0)]);
            assert_eq!(d.confidence(), None);
        }
        d.process(&[elem(0)]);
        // Similarity 1.0 against threshold 0.5: fully confident.
        assert_eq!(d.confidence(), Some(1.0));
    }

    #[test]
    fn consumed_counter_tracks_elements() {
        let mut d = PhaseDetector::new(config(4));
        d.process(&[elem(0), elem(1), elem(2)]);
        assert_eq!(d.elements_consumed(), 3);
    }
}
