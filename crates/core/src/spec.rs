//! An executable specification of the detector: a deliberately naive
//! transliteration of the paper's Section 2 policies and its Figure 3
//! `processProfile` driver, used as the reference every fast path is
//! checked against.
//!
//! Nothing here is shared with the production run paths except the
//! floating-point tail of the similarity models (the model module's
//! `exact` functions). The spec works directly on [`ProfileElement`]s: no
//! interning, no window kernel, no shared scans. Each window is a
//! `VecDeque` of `(position, element)` pairs with an ordered map of
//! per-element counts, updated as elements enter and leave. Similarity
//! is one merged walk over the two sorted count maps. That walk yields
//! the same exact integers the kernels compute (distinct counts, the
//! weighted min-sum, the Pearson moment sums), so the spec and the
//! kernels agree bit for bit.
//!
//! Anchor points are taken from the positions stored next to the
//! elements, not from index arithmetic, so the spec does not rely on
//! the buffered elements being one contiguous run of the trace.
//!
//! # Examples
//!
//! ```
//! use opd_core::{spec, DetectorConfig, PhaseDetector};
//! use opd_trace::{MethodId, ProfileElement};
//!
//! let elements: Vec<ProfileElement> = (0..400)
//!     .map(|i| ProfileElement::new(MethodId::new(0), i / 100 * 4 + i % 4, true))
//!     .collect();
//! let config = DetectorConfig::builder().current_window(8).build()?;
//! let reference = spec::run(config, &elements);
//! let trace: opd_trace::BranchTrace = elements.iter().copied().collect();
//! let mut detector = PhaseDetector::new(config);
//! assert_eq!(detector.run(&trace), reference.states);
//! assert_eq!(detector.detected_phases(), &reference.phases[..]);
//! # Ok::<(), opd_core::ConfigError>(())
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use opd_trace::{PhaseState, ProfileElement, StateSeq};

use crate::analyzer::AnalyzerPolicy;
use crate::boundary::DetectedPhase;
use crate::config::DetectorConfig;
use crate::model::{exact, ModelPolicy};
use crate::window::{AnchorPolicy, ResizePolicy, TwPolicy};

/// The CW/TW pair of Section 2: the current window (CW) holds the
/// newest elements; elements ageing out of a full CW move to the
/// trailing window (TW), which evicts its oldest element when over
/// capacity unless it is growing (adaptive TW, in phase).
#[derive(Debug, Clone)]
pub struct WindowPair {
    cw_cap: usize,
    tw_cap: usize,
    /// `(trace position, element)`, oldest first.
    tw: VecDeque<(u64, ProfileElement)>,
    cw: VecDeque<(u64, ProfileElement)>,
    /// Occurrences per element; an element absent from a window has
    /// no entry.
    tw_counts: BTreeMap<ProfileElement, u32>,
    cw_counts: BTreeMap<ProfileElement, u32>,
    /// Trace position of the next element pushed.
    next: u64,
    /// Both windows have reached capacity since the last flush.
    full: bool,
}

fn add(counts: &mut BTreeMap<ProfileElement, u32>, e: ProfileElement) {
    *counts.entry(e).or_insert(0) += 1;
}

fn remove(counts: &mut BTreeMap<ProfileElement, u32>, e: ProfileElement) {
    let count = counts.get_mut(&e).expect("a buffered element is counted");
    *count -= 1;
    if *count == 0 {
        counts.remove(&e);
    }
}

impl WindowPair {
    /// Empty windows with the given capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(cw_cap: usize, tw_cap: usize) -> Self {
        assert!(
            cw_cap > 0 && tw_cap > 0,
            "window capacities must be positive"
        );
        WindowPair {
            cw_cap,
            tw_cap,
            tw: VecDeque::new(),
            cw: VecDeque::new(),
            tw_counts: BTreeMap::new(),
            cw_counts: BTreeMap::new(),
            next: 0,
            full: false,
        }
    }

    /// `(CW length, TW length)`.
    #[must_use]
    pub fn lens(&self) -> (usize, usize) {
        (self.cw.len(), self.tw.len())
    }

    /// `true` once both windows have reached capacity since the last
    /// flush: only then does the detector compare them.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Occurrences of `e` in the CW.
    #[must_use]
    pub fn cw_count(&self, e: ProfileElement) -> u32 {
        self.cw_counts.get(&e).copied().unwrap_or(0)
    }

    /// Occurrences of `e` in the TW.
    #[must_use]
    pub fn tw_count(&self, e: ProfileElement) -> u32 {
        self.tw_counts.get(&e).copied().unwrap_or(0)
    }

    /// Adds one element to the CW. A CW over capacity hands its oldest
    /// element to the TW; unless `tw_grows`, the TW then evicts from
    /// its front down to capacity.
    pub fn push(&mut self, e: ProfileElement, tw_grows: bool) {
        self.cw.push_back((self.next, e));
        self.next += 1;
        add(&mut self.cw_counts, e);
        if self.cw.len() > self.cw_cap {
            if let Some((pos, moved)) = self.cw.pop_front() {
                remove(&mut self.cw_counts, moved);
                self.tw.push_back((pos, moved));
                add(&mut self.tw_counts, moved);
            }
        }
        if !tw_grows {
            while self.tw.len() > self.tw_cap {
                if let Some((_, evicted)) = self.tw.pop_front() {
                    remove(&mut self.tw_counts, evicted);
                }
            }
        }
        if self.tw.len() >= self.tw_cap && self.cw.len() >= self.cw_cap {
            self.full = true;
        }
    }

    /// The paper's `clearWindows` at a phase end: empties both windows
    /// except the newest `keep` buffered elements, which become the new
    /// (partial) CW.
    pub fn flush_keep(&mut self, keep: usize) {
        let mut buffered: Vec<(u64, ProfileElement)> = self.tw.drain(..).collect();
        buffered.extend(self.cw.drain(..));
        let kept = buffered.split_off(buffered.len().saturating_sub(keep));
        self.tw_counts.clear();
        self.cw_counts.clear();
        for &(_, e) in &kept {
            add(&mut self.cw_counts, e);
        }
        self.cw = kept.into();
        self.full = false;
    }

    /// The anchor index within the TW (Section 5). An element of the
    /// TW is *noisy* if it does not occur in the CW. RN anchors one
    /// right of the rightmost noisy element (0 if there is none); LNN
    /// anchors at the leftmost non-noisy element (the TW length if
    /// there is none).
    #[must_use]
    pub fn anchor_index(&self, policy: AnchorPolicy) -> usize {
        let noisy = |&(_, e): &(u64, ProfileElement)| self.cw_count(e) == 0;
        match policy {
            AnchorPolicy::RightmostNoisy => self.tw.iter().rposition(noisy).map_or(0, |j| j + 1),
            AnchorPolicy::LeftmostNonNoisy => self
                .tw
                .iter()
                .position(|x| !noisy(x))
                .unwrap_or(self.tw.len()),
        }
    }

    /// Trace position of the element at TW index `index`, where the
    /// indices past the TW continue into the CW.
    #[must_use]
    pub fn position_of(&self, index: usize) -> u64 {
        self.tw
            .iter()
            .chain(&self.cw)
            .nth(index)
            .map_or(self.next, |&(pos, _)| pos)
    }

    /// Phase start under the adaptive TW: drops the TW elements before
    /// `anchor`, then under Slide refills the TW from the CW front up
    /// to capacity, leaving at least one CW element. Returns the trace
    /// position of the anchor.
    pub fn anchor_and_resize(&mut self, anchor: usize, resize: ResizePolicy) -> u64 {
        let position = self.position_of(anchor);
        for _ in 0..anchor.min(self.tw.len()) {
            if let Some((_, dropped)) = self.tw.pop_front() {
                remove(&mut self.tw_counts, dropped);
            }
        }
        if resize == ResizePolicy::Slide {
            while self.tw.len() < self.tw_cap && self.cw.len() > 1 {
                if let Some((pos, moved)) = self.cw.pop_front() {
                    remove(&mut self.cw_counts, moved);
                    self.tw.push_back((pos, moved));
                    add(&mut self.tw_counts, moved);
                }
            }
        }
        position
    }

    /// `(CW count, TW count)` of every element in either window, in
    /// element order: a merge of the two sorted count maps.
    fn joint_counts(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut cw = self.cw_counts.iter().peekable();
        let mut tw = self.tw_counts.iter().peekable();
        std::iter::from_fn(move || {
            let order = match (cw.peek(), tw.peek()) {
                (None, None) => return None,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((c, _)), Some((t, _))) => c.cmp(t),
            };
            let c = if order.is_le() { cw.next() } else { None };
            let t = if order.is_ge() { tw.next() } else { None };
            Some((c.map_or(0, |(_, &n)| n), t.map_or(0, |(_, &n)| n)))
        })
    }

    /// The similarity of the two windows under `model`, in `[0, 1]`;
    /// `0` if either window is empty.
    ///
    /// * Unweighted: the fraction of distinct CW elements that also
    ///   occur in the TW.
    /// * Weighted: `Σ_e min(cw_e / |CW|, tw_e / |TW|)`, computed as the
    ///   integer `Σ_e min(cw_e · |TW|, tw_e · |CW|)` over `|CW| · |TW|`.
    /// * Pearson: the correlation of the two count vectors over the
    ///   union of their supports, clamped to `[0, 1]`.
    #[must_use]
    pub fn similarity(&self, model: ModelPolicy) -> f64 {
        let (cw_len, tw_len) = self.lens();
        if cw_len == 0 || tw_len == 0 {
            return 0.0;
        }
        match model {
            ModelPolicy::UnweightedSet => {
                let (mut distinct, mut shared) = (0u64, 0u64);
                for (c, t) in self.joint_counts() {
                    distinct += u64::from(c > 0);
                    shared += u64::from(c > 0 && t > 0);
                }
                exact::unweighted(shared, distinct)
            }
            ModelPolicy::WeightedSet => {
                let min_sum = self
                    .joint_counts()
                    .map(|(c, t)| (u64::from(c) * tw_len as u64).min(u64::from(t) * cw_len as u64))
                    .sum();
                exact::weighted(min_sum, cw_len, tw_len)
            }
            ModelPolicy::Pearson => {
                let (mut union, mut shared) = (0u64, 0u64);
                let mut sums = exact::PearsonSums::default();
                for (c, t) in self.joint_counts() {
                    union += 1;
                    shared += u64::from(c > 0 && t > 0);
                    sums.add(c, t);
                }
                exact::pearson(union, sums, shared)
            }
        }
    }
}

/// Figure 3's detector over a [`WindowPair`]: `processProfile` with
/// the analyzer's `processValue`, `updateStats` and `resetStats`.
struct SpecDetector {
    config: DetectorConfig,
    windows: WindowPair,
    state: PhaseState,
    /// Sum and count of the similarity values of the current phase.
    phase_sum: f64,
    phase_values: u64,
    consumed: u64,
    last_similarity: Option<f64>,
    phases: Vec<DetectedPhase>,
}

impl SpecDetector {
    /// A detector in Transition with empty windows.
    fn new(config: DetectorConfig) -> Self {
        SpecDetector {
            windows: WindowPair::new(config.current_window(), config.trailing_window()),
            config,
            state: PhaseState::Transition,
            phase_sum: 0.0,
            phase_values: 0,
            consumed: 0,
            last_similarity: None,
            phases: Vec::new(),
        }
    }

    /// The threshold the next similarity value is judged against: the
    /// fixed threshold, or `delta` below the running average of the
    /// current phase's values (`1.0` before the first one).
    fn threshold(&self) -> f64 {
        match self.config.analyzer() {
            AnalyzerPolicy::Threshold(t) => t,
            AnalyzerPolicy::Average { delta } => {
                let average = if self.phase_values == 0 {
                    1.0
                } else {
                    self.phase_sum / self.phase_values as f64
                };
                average - delta
            }
        }
    }

    /// `processProfile`: consumes one step of elements and returns the
    /// state attributed to all of them.
    fn process(&mut self, elements: &[ProfileElement]) -> PhaseState {
        let step_start = self.consumed;
        let tw_grows = self.config.tw_policy() == TwPolicy::Adaptive && self.state.is_phase();
        for &e in elements {
            self.windows.push(e, tw_grows);
        }
        self.consumed += elements.len() as u64;

        let mut similarity = None;
        let next = if self.windows.is_full() {
            let sim = self.windows.similarity(self.config.model());
            similarity = Some(sim);
            self.last_similarity = Some(sim);
            if sim >= self.threshold() {
                PhaseState::Phase
            } else {
                PhaseState::Transition
            }
        } else {
            PhaseState::Transition
        };

        match (self.state, next) {
            (PhaseState::Transition, PhaseState::Phase) => {
                let anchor = self.windows.anchor_index(self.config.anchor());
                let anchored_start = if self.config.tw_policy() == TwPolicy::Adaptive {
                    self.windows.anchor_and_resize(anchor, self.config.resize())
                } else {
                    self.windows.position_of(anchor)
                };
                self.phase_sum = 0.0;
                self.phase_values = 0;
                self.phases.push(DetectedPhase {
                    start: step_start,
                    anchored_start,
                    end: None,
                });
            }
            (PhaseState::Phase, PhaseState::Transition) => {
                self.windows.flush_keep(self.config.skip_factor());
                if let Some(open) = self.phases.last_mut() {
                    open.end = Some(step_start);
                }
            }
            (PhaseState::Phase, PhaseState::Phase) => {
                if let Some(sim) = similarity {
                    self.phase_sum += sim;
                    self.phase_values += 1;
                }
            }
            (PhaseState::Transition, PhaseState::Transition) => {}
        }
        self.state = next;
        next
    }
}

/// Everything a reference run of the spec reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRun {
    /// One state per element.
    pub states: StateSeq,
    /// The detected phases, the last one closed at the trace end.
    pub phases: Vec<DetectedPhase>,
    /// The similarity computed at the last full-window step.
    pub last_similarity: Option<f64>,
    /// The state after the last step.
    pub state: PhaseState,
    /// `(CW length, TW length)` after each step.
    pub window_lens: Vec<(usize, usize)>,
}

/// Runs the spec over `elements` in steps of `skip_factor` (the last
/// step may be shorter) and closes a phase left open at the end.
#[must_use]
pub fn run(config: DetectorConfig, elements: &[ProfileElement]) -> SpecRun {
    let mut detector = SpecDetector::new(config);
    let mut states = StateSeq::with_capacity(elements.len());
    let mut window_lens = Vec::new();
    for step in elements.chunks(config.skip_factor()) {
        states.push_n(detector.process(step), step.len());
        window_lens.push(detector.windows.lens());
    }
    if let Some(open) = detector.phases.last_mut() {
        open.end.get_or_insert(detector.consumed);
    }
    SpecRun {
        states,
        phases: detector.phases,
        last_similarity: detector.last_similarity,
        state: detector.state,
        window_lens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::MethodId;
    use proptest::prelude::*;

    fn e(site: u32) -> ProfileElement {
        ProfileElement::new(MethodId::new(0), site, true)
    }

    /// A window pair whose TW holds `tw` and CW holds `cw`, in order.
    fn windows_with(tw: &[u32], cw: &[u32]) -> WindowPair {
        let mut w = WindowPair::new(cw.len(), tw.len());
        for &site in tw.iter().chain(cw) {
            w.push(e(site), false);
        }
        assert_eq!(w.lens(), (cw.len(), tw.len()));
        w
    }

    fn repeat(site: u32, n: usize) -> Vec<u32> {
        vec![site; n]
    }

    #[test]
    fn fifo_flow_fills_cw_then_tw_and_evicts() {
        let mut w = WindowPair::new(2, 3);
        for site in 0..5 {
            w.push(e(site), false);
        }
        // CW = [3, 4], TW = [0, 1, 2].
        assert_eq!(w.lens(), (2, 3));
        assert!(w.is_full());
        assert_eq!((w.cw_count(e(4)), w.tw_count(e(0))), (1, 1));
        for site in 5..20 {
            w.push(e(site % 4), false);
        }
        assert_eq!(w.lens(), (2, 3));
        assert_eq!(w.position_of(0), 15);
    }

    #[test]
    fn a_growing_tw_evicts_nothing() {
        let mut w = WindowPair::new(2, 3);
        for site in 0..10 {
            w.push(e(site), true);
        }
        assert_eq!(w.lens(), (2, 8));
    }

    #[test]
    fn unweighted_paper_example() {
        // CW {a, b}, TW {a, c}: 0.5 whatever the frequencies.
        let w = windows_with(&[0, 2], &[0, 1]);
        assert_eq!(w.similarity(ModelPolicy::UnweightedSet), 0.5);
        // CW {a, a, c}, TW {a, b, c}: every CW element occurs in the TW.
        let w = windows_with(&[0, 1, 2], &[0, 0, 2]);
        assert_eq!(w.similarity(ModelPolicy::UnweightedSet), 1.0);
    }

    #[test]
    fn weighted_paper_example() {
        // CW {(a,5),(b,3),(c,2)}; TW {(a,25),(b,15),(c,10),(d,50)}.
        let tw = [repeat(0, 25), repeat(1, 15), repeat(2, 10), repeat(3, 50)].concat();
        let cw = [repeat(0, 5), repeat(1, 3), repeat(2, 2)].concat();
        let w = windows_with(&tw, &cw);
        assert_eq!(w.similarity(ModelPolicy::WeightedSet), 0.5);
    }

    #[test]
    fn models_diverge_on_a_frequency_shift() {
        // The same element sets in a different mix: the unweighted
        // model is blind to the shift, the weighted one is not (the
        // `_201_compress` case of Figure 5).
        let tw = [repeat(0, 90), repeat(1, 10)].concat();
        let cw = [repeat(0, 10), repeat(1, 90)].concat();
        let w = windows_with(&tw, &cw);
        assert_eq!(w.similarity(ModelPolicy::UnweightedSet), 1.0);
        assert!((w.similarity(ModelPolicy::WeightedSet) - 0.2).abs() < 1e-12);
        // TW mass on elements missing from the CW is lost.
        let w = windows_with(&[0, 9, 9, 9], &[0, 0, 0, 0]);
        assert_eq!(w.similarity(ModelPolicy::WeightedSet), 0.25);
        // Extra TW-only elements cost the unweighted model nothing.
        let w = windows_with(&[0, 1, 2, 3, 4, 5], &[0, 1]);
        assert_eq!(w.similarity(ModelPolicy::UnweightedSet), 1.0);
    }

    #[test]
    fn extreme_windows() {
        for model in ModelPolicy::ALL_EXTENDED {
            let disjoint = windows_with(&[0, 1, 2], &[3, 4, 5]);
            assert_eq!(disjoint.similarity(model), 0.0, "{model}");
            let identical = windows_with(&[1, 2, 2, 3], &[1, 2, 2, 3]);
            assert!((identical.similarity(model) - 1.0).abs() < 1e-12, "{model}");
            assert_eq!(WindowPair::new(3, 3).similarity(model), 0.0, "{model}");
        }
    }

    #[test]
    fn pearson_cases() {
        // Pearson reads the shape of the count vector: a TW twice as
        // long with the same mix is a perfect match.
        let w = windows_with(&[0, 0, 0, 1, 2, 0, 0, 0, 1, 2], &[0, 0, 0, 1, 2]);
        assert!((w.similarity(ModelPolicy::Pearson) - 1.0).abs() < 1e-9);
        // Anti-correlated supports clamp to 0.
        let w = windows_with(&[0, 0, 1], &[2, 3, 3]);
        assert_eq!(w.similarity(ModelPolicy::Pearson), 0.0);
        // Zero variance with full support overlap is trivially similar.
        let w = windows_with(&[5, 5], &[5, 5]);
        assert_eq!(w.similarity(ModelPolicy::Pearson), 1.0);
    }

    #[test]
    fn anchor_rn_and_lnn_paper_example() {
        // TW = [a, b, c], CW = [a, a, c]; b is noisy. RN anchors one
        // right of b (index 2, element c); LNN at the leftmost
        // non-noisy element (index 0, element a).
        let w = windows_with(&[0, 1, 2], &[0, 0, 2]);
        assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 2);
        assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 0);
        // No noise: both anchor at the TW front.
        let w = windows_with(&[0, 1], &[0, 1]);
        assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 0);
        assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 0);
        // All noise: both anchor past the TW.
        let w = windows_with(&[5, 6], &[0, 1]);
        assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 2);
        assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 2);
        assert_eq!(w.position_of(2), 2, "the CW front");
    }

    #[test]
    fn slide_refills_the_tw_and_move_only_shrinks_it() {
        let mut slide = windows_with(&[9, 0, 1, 2], &[0, 1, 2, 3]);
        let mut moved = slide.clone();
        let anchor = slide.anchor_index(AnchorPolicy::RightmostNoisy);
        assert_eq!(anchor, 1, "element 9 at index 0 is noisy");
        assert_eq!(slide.anchor_and_resize(anchor, ResizePolicy::Slide), 1);
        assert_eq!(slide.lens(), (3, 4));
        assert_eq!(moved.anchor_and_resize(anchor, ResizePolicy::Move), 1);
        assert_eq!(moved.lens(), (4, 3));
        // Slide never empties the CW.
        let mut w = windows_with(&[1, 2, 3, 4], &[5]);
        let _ = w.anchor_and_resize(4, ResizePolicy::Slide);
        assert_eq!(w.lens(), (1, 0));
    }

    #[test]
    fn flush_keeps_the_newest_elements_as_the_cw() {
        let mut w = WindowPair::new(3, 3);
        for site in 0..9 {
            w.push(e(site), false);
        }
        w.flush_keep(2);
        assert_eq!(w.lens(), (2, 0));
        assert!(!w.is_full());
        assert_eq!((w.cw_count(e(7)), w.cw_count(e(8))), (1, 1));
        assert_eq!(w.position_of(0), 7);
        let mut w = WindowPair::new(3, 3);
        w.push(e(1), false);
        w.flush_keep(10);
        assert_eq!(w.lens(), (1, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = WindowPair::new(0, 5);
    }

    #[test]
    fn a_uniform_stream_is_one_phase_after_warm_up() {
        let config = DetectorConfig::builder()
            .current_window(4)
            .build()
            .expect("valid config");
        let run = run(config, &vec![e(0); 40]);
        // The windows fill on the 8th element (cw + tw = 8), which
        // already computes a similarity.
        assert!(run.states.as_slice()[..7].iter().all(|s| s.is_transition()));
        assert!(run.states.as_slice()[7..].iter().all(|s| s.is_phase()));
        assert_eq!(
            run.phases,
            [DetectedPhase {
                start: 7,
                anchored_start: 0,
                end: Some(40)
            }]
        );
        assert_eq!(run.last_similarity, Some(1.0));
        assert_eq!(run.window_lens.len(), 40);
        assert_eq!(run.window_lens[39], (4, 4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_similarity_lies_in_the_unit_interval(
            cw_cap in 1usize..10,
            tw_cap in 1usize..10,
            sites in prop::collection::vec((0u32..8, any::<bool>()), 1..120),
        ) {
            let mut w = WindowPair::new(cw_cap, tw_cap);
            for (site, grows) in sites {
                w.push(e(site), grows);
                for model in ModelPolicy::ALL_EXTENDED {
                    let s = w.similarity(model);
                    prop_assert!((0.0..=1.0).contains(&s), "{model}: {s}");
                }
            }
        }
    }
}
