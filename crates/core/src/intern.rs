//! Dense interning of profile elements, so sweeps can replay one trace
//! through thousands of detector configurations without re-hashing,
//! and streaming sessions can log ids instead of elements.

use std::collections::HashMap;
use std::sync::OnceLock;

use opd_trace::ProfileElement;

/// A branch trace with every distinct profile element mapped to a dense
/// id in `0..distinct_count`.
///
/// Building the interned form once and calling
/// [`PhaseDetector::run_interned`](crate::PhaseDetector::run_interned)
/// for each configuration is the fast path used by the experiment
/// harness.
///
/// # Examples
///
/// ```
/// use opd_core::InternedTrace;
/// use opd_trace::{MethodId, ProfileElement};
///
/// let a = ProfileElement::new(MethodId::new(0), 0, true);
/// let b = ProfileElement::new(MethodId::new(0), 0, false);
/// let interned = InternedTrace::from_elements([a, b, a, a]);
/// assert_eq!(interned.len(), 4);
/// assert_eq!(interned.distinct_count(), 2);
/// assert_eq!(interned.ids(), &[0, 1, 0, 0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternedTrace {
    ids: Vec<u32>,
    distinct: u32,
    /// Lazily built per-site occurrence index for the rank-mode SWAR
    /// kernel; pure cache, so excluded from equality.
    site_index: OnceLock<SiteIndex>,
}

impl PartialEq for InternedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.distinct == other.distinct
    }
}

impl Eq for InternedTrace {}

impl InternedTrace {
    /// Interns a sequence of profile elements.
    pub fn from_elements<I>(elements: I) -> Self
    where
        I: IntoIterator<Item = ProfileElement>,
    {
        Self::from_elements_with_capacity(elements, 0)
    }

    /// Interns a sequence of profile elements with the intern table
    /// pre-sized for `distinct_hint` distinct elements — typically the
    /// static alphabet bound from the `opd-analyze` crate — so
    /// interning a trace within the bound never rehashes.
    ///
    /// The hint is only a capacity; the result is identical to
    /// [`from_elements`](InternedTrace::from_elements) whatever its
    /// value.
    pub fn from_elements_with_capacity<I>(elements: I, distinct_hint: usize) -> Self
    where
        I: IntoIterator<Item = ProfileElement>,
    {
        let iter = elements.into_iter();
        let mut log = IdLog::with_capacity(iter.size_hint().0, distinct_hint);
        log.extend(iter);
        log.trace
    }

    /// Number of elements in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct profile elements.
    #[must_use]
    pub fn distinct_count(&self) -> u32 {
        self.distinct
    }

    /// The dense element ids, in trace order.
    #[must_use]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The per-site occurrence index, built on first use and cached,
    /// or `None` when the trace is outside the rank-mode envelope
    /// (empty, too many distinct sites, or an index too large to be
    /// worth the memory).
    pub(crate) fn try_site_index(&self) -> Option<&SiteIndex> {
        if !SiteIndex::eligible(self) {
            return None;
        }
        Some(self.site_index.get_or_init(|| SiteIndex::build(self)))
    }
}

/// Slots in an [`IdLog`]'s lookup memo. A serve session of the soak
/// sees 3 to 33 distinct elements, so 64 slots (1 KiB) hold nearly all
/// of its working set.
const MEMO_SLOTS: usize = 64;

/// The key of an empty memo slot. No element's raw form equals it:
/// the bits of a raw element above its used width are always zero.
const EMPTY_KEY: u64 = u64::MAX;

/// A memo slot: an element's raw form and its id.
type MemoSlot = (u64, u32);

/// A memo with every slot empty.
fn empty_memo() -> Box<[MemoSlot; MEMO_SLOTS]> {
    Box::new([(EMPTY_KEY, 0); MEMO_SLOTS])
}

/// The memo slot of `raw`: the top bits of a multiplicative
/// (Fibonacci) hash, which mix every bit of the packed element.
fn memo_slot(raw: u64) -> usize {
    (raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// The one interning loop: maps each element to its dense id in
/// `map` — ids are assigned in first-seen order — and hands the ids to
/// `emit` in input order. Every interner in the crate (batch traces
/// and [`IdLog`], including the private log of
/// [`PhaseDetector::process`](crate::PhaseDetector::process)) runs
/// this body, so all of them assign identical ids to identical inputs.
///
/// `memo` caches recent `(raw, id)` pairs in front of `map`: a hit
/// costs one key comparison, and a miss looks the element up in `map`
/// and refills its slot. Every key in `memo` is either
/// [`EMPTY_KEY`] or in `map` with the id beside it, so the memo never
/// changes an id.
fn intern_into<I, F>(
    map: &mut HashMap<u64, u32>,
    memo: &mut [MemoSlot; MEMO_SLOTS],
    elements: I,
    mut emit: F,
) where
    I: IntoIterator<Item = ProfileElement>,
    F: FnMut(u32),
{
    for e in elements {
        let raw = e.raw();
        let slot = &mut memo[memo_slot(raw)];
        if slot.0 != raw {
            let next = map.len() as u32;
            *slot = (raw, *map.entry(raw).or_insert(next));
        }
        emit(slot.1);
    }
}

/// An append-only, growable interned trace: the log a streaming
/// session keeps of every element it accepted, stored as dense `u32`
/// ids (4 bytes per element) next to the intern table that assigns
/// them.
///
/// [`PhaseDetector::process_log`](crate::PhaseDetector::process_log)
/// streams the SWAR kernel over the log step by step, and
/// [`as_interned`](IdLog::as_interned) is a zero-copy batch view of
/// everything logged so far, so a whole-log reference run needs
/// neither a copy nor a second interning pass.
///
/// A lookup first tries a 64-slot direct-mapped memo of `(raw, id)`
/// pairs, indexed by a multiplicative hash of
/// [`ProfileElement::raw`]: a hit costs one key comparison. A miss
/// falls through to the intern table, which assigns ids in first-seen
/// order and refills the memo slot. The intern table keeps std's
/// keyed (randomly seeded) hasher: sessions ingest untrusted frames,
/// and an unkeyed table would let a client pick colliding elements.
/// The memo's hash is unkeyed, but a client that makes every element
/// collide in one memo slot only sends each lookup on to the keyed
/// table, at the cost of one extra comparison.
///
/// # Examples
///
/// ```
/// use opd_core::IdLog;
/// use opd_trace::{MethodId, ProfileElement};
///
/// let a = ProfileElement::new(MethodId::new(0), 0, true);
/// let b = ProfileElement::new(MethodId::new(0), 0, false);
/// let mut log = IdLog::new();
/// log.extend([a, b]);
/// assert_eq!(log.push(a), 0);
/// assert_eq!(log.ids(), &[0, 1, 0]);
/// assert_eq!(log.distinct_count(), 2);
/// assert_eq!(log.as_interned().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdLog {
    trace: InternedTrace,
    map: HashMap<u64, u32>,
    /// The lookup memo, allocated by the first `extend` (or by
    /// `with_capacity`).
    memo: Option<Box<[MemoSlot; MEMO_SLOTS]>>,
}

impl IdLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        IdLog::default()
    }

    /// An empty log with room for `elements` ids and `distinct`
    /// distinct elements, so logging within both never reallocates.
    #[must_use]
    pub fn with_capacity(elements: usize, distinct: usize) -> Self {
        IdLog {
            trace: InternedTrace {
                ids: Vec::with_capacity(elements),
                ..InternedTrace::default()
            },
            map: HashMap::with_capacity(distinct),
            memo: Some(empty_memo()),
        }
    }

    /// Interns and appends one element, returning its id.
    pub fn push(&mut self, element: ProfileElement) -> u32 {
        self.extend([element]);
        self.trace.ids[self.trace.ids.len() - 1]
    }

    /// Number of elements logged.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` if nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Number of distinct elements logged.
    #[must_use]
    pub fn distinct_count(&self) -> u32 {
        self.trace.distinct_count()
    }

    /// The logged ids, in arrival order.
    #[must_use]
    pub fn ids(&self) -> &[u32] {
        self.trace.ids()
    }

    /// Everything logged so far as an [`InternedTrace`], without
    /// copying.
    #[must_use]
    pub fn as_interned(&self) -> &InternedTrace {
        &self.trace
    }

    /// Sizes the intern table for `distinct` distinct elements.
    pub(crate) fn reserve_distinct(&mut self, distinct: usize) {
        self.map.reserve(distinct.saturating_sub(self.map.len()));
    }

    /// Drops the first `n` logged ids in place. The intern table and
    /// its memo are kept, so later elements get the ids they would have
    /// got anyway.
    pub(crate) fn drop_prefix(&mut self, n: usize) {
        self.trace.site_index.take();
        self.trace.ids.drain(..n);
    }

    /// Empties the log, its intern table and its memo, keeping their
    /// allocations and the table's keyed hasher. A cleared log assigns
    /// the same ids to the same elements as [`IdLog::new`] would, so a
    /// streaming consumer can reuse one log for stream after stream
    /// without growing its tables again.
    pub fn clear(&mut self) {
        self.trace.site_index.take();
        self.trace.ids.clear();
        self.trace.distinct = 0;
        self.map.clear();
        if let Some(memo) = &mut self.memo {
            memo.fill((EMPTY_KEY, 0));
        }
    }
}

impl Extend<ProfileElement> for IdLog {
    fn extend<I: IntoIterator<Item = ProfileElement>>(&mut self, elements: I) {
        // A rank index cached through the batch view covers only the
        // old prefix.
        self.trace.site_index.take();
        let memo = self.memo.get_or_insert_with(empty_memo);
        let ids = &mut self.trace.ids;
        intern_into(&mut self.map, memo, elements, |id| ids.push(id));
        self.trace.distinct = self.map.len() as u32;
    }
}

/// Per-site occurrence bitmaps over a whole interned trace, with
/// per-word prefix ranks: `rank(s, x)` — how many of `trace[..x]` are
/// site `s` — in O(1). The rank-mode SWAR kernel derives both window
/// count vectors of any trace run `[a, b, c)` from six rank lookups
/// per site, paying zero work per consumed element.
///
/// Layout is site-minor: word `w` of site `s` lives at
/// `words[w * sites + s]`, so the per-judge loop over all sites at a
/// fixed trace position walks one contiguous cache line run.
#[derive(Debug, Clone)]
pub(crate) struct SiteIndex {
    sites: usize,
    words: Vec<u64>,
    ranks: Vec<u32>,
}

/// Rank mode caps: more distinct sites than this and the per-judge
/// site loop outgrows the dense kernel's per-element work...
pub(crate) const MAX_RANK_SITES: u32 = 512;
/// ...and an index bigger than this many u64 words (32 MiB of bitmap
/// plus 16 MiB of ranks) is not worth caching per trace.
const MAX_RANK_WORDS: usize = 1 << 22;

impl SiteIndex {
    /// Whether `trace` is within the rank-mode envelope.
    fn eligible(trace: &InternedTrace) -> bool {
        let sites = trace.distinct_count();
        if sites == 0 || sites > MAX_RANK_SITES || trace.is_empty() {
            return false;
        }
        Self::words_per_site(trace.len())
            .checked_mul(sites as usize)
            .is_some_and(|w| w <= MAX_RANK_WORDS)
    }

    /// Words per site: one per 64 trace positions, plus a sentinel so
    /// the rank at position `len` itself stays a plain lookup.
    fn words_per_site(len: usize) -> usize {
        len / 64 + 1
    }

    fn build(trace: &InternedTrace) -> Self {
        let sites = trace.distinct_count() as usize;
        let words_per = Self::words_per_site(trace.len());
        let mut words = vec![0u64; words_per * sites];
        for (pos, &site) in trace.ids().iter().enumerate() {
            words[(pos >> 6) * sites + site as usize] |= 1u64 << (pos & 63);
        }
        let mut ranks = vec![0u32; words_per * sites];
        let mut running = vec![0u32; sites];
        for w in 0..words_per {
            let base = w * sites;
            ranks[base..base + sites].copy_from_slice(&running);
            for s in 0..sites {
                running[s] += words[base + s].count_ones();
            }
        }
        SiteIndex {
            sites,
            words,
            ranks,
        }
    }

    /// A cursor answering `rank(s, x)` for every site at one fixed
    /// trace position `x`.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `x` exceeds the trace length.
    pub(crate) fn ranker(&self, x: usize) -> SiteRanker<'_> {
        let base = (x >> 6) * self.sites;
        SiteRanker {
            words: &self.words[base..base + self.sites],
            ranks: &self.ranks[base..base + self.sites],
            mask: (1u64 << (x & 63)) - 1,
        }
    }
}

/// See [`SiteIndex::ranker`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteRanker<'a> {
    words: &'a [u64],
    ranks: &'a [u32],
    mask: u64,
}

impl SiteRanker<'_> {
    /// How many of `trace[..x]` are site `s`.
    #[inline]
    pub(crate) fn rank(&self, s: usize) -> u32 {
        self.ranks[s] + (self.words[s] & self.mask).count_ones()
    }
}

impl From<&opd_trace::BranchTrace> for InternedTrace {
    fn from(trace: &opd_trace::BranchTrace) -> Self {
        InternedTrace::from_elements(trace.iter().copied())
    }
}

impl FromIterator<ProfileElement> for InternedTrace {
    fn from_iter<I: IntoIterator<Item = ProfileElement>>(iter: I) -> Self {
        InternedTrace::from_elements(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::MethodId;

    #[test]
    fn empty_trace() {
        let t = InternedTrace::from_elements([]);
        assert!(t.is_empty());
        assert_eq!(t.distinct_count(), 0);
    }

    #[test]
    fn ids_are_first_seen_order() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, false);
        let t = InternedTrace::from_elements([e(5), e(3), e(5), e(9)]);
        assert_eq!(t.ids(), &[0, 1, 0, 2]);
        assert_eq!(t.distinct_count(), 3);
    }

    #[test]
    fn capacity_hint_does_not_change_the_result() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, false);
        let elements = [e(5), e(3), e(5), e(9)];
        let plain = InternedTrace::from_elements(elements);
        for hint in [0, 1, 3, 64] {
            assert_eq!(
                InternedTrace::from_elements_with_capacity(elements, hint),
                plain
            );
        }
    }

    #[test]
    fn id_log_matches_batch_interning_and_drops_a_stale_site_index() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, false);
        let elements: Vec<_> = (0..200u32).map(|i| e(i % 7 + i / 50)).collect();
        let mut log = IdLog::with_capacity(4, 2);
        log.extend(elements[..100].iter().copied());
        assert!(log.as_interned().try_site_index().is_some());
        for &x in &elements[100..] {
            log.push(x);
        }
        let batch = InternedTrace::from_elements(elements);
        assert_eq!(log.as_interned(), &batch);
        let index = log.as_interned().try_site_index().expect("eligible");
        let fresh = batch.try_site_index().expect("eligible");
        assert_eq!(index.words, fresh.words);
        assert_eq!(index.ranks, fresh.ranks);
    }

    #[test]
    fn from_branch_trace() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, true);
        let bt: opd_trace::BranchTrace = (0..10).map(|i| e(i % 3)).collect();
        let t = InternedTrace::from(&bt);
        assert_eq!(t.len(), 10);
        assert_eq!(t.distinct_count(), 3);
    }
}

/// Property tests: memoised interning assigns exactly the ids of a
/// plain first-seen-order table, on random streams, on streams whose
/// distinct elements all share one memo slot, and across `clear`,
/// `drop_prefix` and a reconfigured detector's `process`.
#[cfg(test)]
mod props {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::{spec, AnalyzerPolicy, DetectorConfig, ModelPolicy, PhaseDetector, TwPolicy};
    use opd_trace::{MethodId, StateSeq};

    /// A distinct element per code.
    fn element(code: u32) -> ProfileElement {
        let site = code >> 1;
        ProfileElement::new(MethodId::new(site % 3), site / 3, code & 1 == 1)
    }

    /// Interning by a `BTreeMap` in first-seen order.
    #[derive(Default)]
    struct Reference {
        map: BTreeMap<ProfileElement, u32>,
        ids: Vec<u32>,
    }

    impl Reference {
        fn push(&mut self, e: ProfileElement) {
            let next = self.map.len() as u32;
            self.ids.push(*self.map.entry(e).or_insert(next));
        }

        fn of(elements: &[ProfileElement]) -> Reference {
            let mut r = Reference::default();
            elements.iter().for_each(|&e| r.push(e));
            r
        }
    }

    /// The first `n` distinct elements whose memo slot is `slot`.
    fn colliding(slot: usize, n: usize) -> Vec<ProfileElement> {
        (0..)
            .map(element)
            .filter(|e| memo_slot(e.raw()) == slot)
            .take(n)
            .collect()
    }

    /// Checks both batch interners and an `IdLog` fed in one call and
    /// element by element against the reference.
    fn check_stream(elements: &[ProfileElement], hint: usize) -> Result<(), TestCaseError> {
        let expected = Reference::of(elements);
        let distinct = expected.map.len() as u32;
        let batch = InternedTrace::from_elements(elements.iter().copied());
        prop_assert_eq!(batch.ids(), &expected.ids[..]);
        prop_assert_eq!(batch.distinct_count(), distinct);
        let sized = InternedTrace::from_elements_with_capacity(elements.iter().copied(), hint);
        prop_assert_eq!(&sized, &batch);
        let mut log = IdLog::new();
        for (&e, &id) in elements.iter().zip(&expected.ids) {
            prop_assert_eq!(log.push(e), id);
        }
        prop_assert_eq!(log.as_interned(), &batch);
        Ok(())
    }

    /// A trace of blocks, each cycling over `width` sites from `base`:
    /// phases for the detector to find, over many distinct elements.
    fn blocks() -> impl Strategy<Value = Vec<ProfileElement>> {
        prop::collection::vec((0u32..160, 1u32..8, 10usize..80), 1..12).prop_map(|blocks| {
            blocks
                .iter()
                .flat_map(|&(base, width, len)| {
                    (0..len as u32).map(move |i| element(base + i % width))
                })
                .collect()
        })
    }

    fn configs() -> impl Strategy<Value = DetectorConfig> {
        (
            2usize..12,
            1usize..12,
            1usize..4,
            0u8..3,
            any::<bool>(),
            30u32..90,
        )
            .prop_map(|(cw, tw, skip, model, adaptive, x)| {
                DetectorConfig::builder()
                    .current_window(cw)
                    .trailing_window(tw)
                    .skip_factor(skip.min(cw))
                    .tw_policy(if adaptive {
                        TwPolicy::Adaptive
                    } else {
                        TwPolicy::Constant
                    })
                    .model(match model {
                        0 => ModelPolicy::UnweightedSet,
                        1 => ModelPolicy::WeightedSet,
                        _ => ModelPolicy::Pearson,
                    })
                    .analyzer(AnalyzerPolicy::Threshold(f64::from(x) / 100.0))
                    .build()
                    .expect("valid config")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_streams_intern_in_first_seen_order(
            codes in prop::collection::vec(0u32..400, 0..600),
            hint in 0usize..200,
        ) {
            let elements: Vec<_> = codes.into_iter().map(element).collect();
            check_stream(&elements, hint)?;
        }

        #[test]
        fn streams_colliding_in_one_memo_slot_intern_in_first_seen_order(
            slot in 0usize..MEMO_SLOTS,
            distinct in 2usize..40,
            picks in prop::collection::vec(0usize..40, 1..400),
        ) {
            let pool = colliding(slot, distinct);
            let elements: Vec<_> = picks.iter().map(|&i| pool[i % distinct]).collect();
            check_stream(&elements, 0)?;
        }

        #[test]
        fn logs_intern_in_first_seen_order_across_clear_and_drop_prefix(
            ops in prop::collection::vec((0u8..10, prop::collection::vec(0u32..300, 0..90)), 1..24),
        ) {
            let mut log = IdLog::new();
            let mut expected = Reference::default();
            for (op, codes) in ops {
                let elements = codes.iter().map(|&c| element(c));
                match op {
                    0..=5 => {
                        log.extend(elements.clone());
                        elements.for_each(|e| expected.push(e));
                    }
                    6 | 7 => {
                        for e in elements {
                            expected.push(e);
                            prop_assert_eq!(log.push(e), expected.ids[expected.ids.len() - 1]);
                        }
                    }
                    8 => {
                        let n = codes.len().min(log.len());
                        log.drop_prefix(n);
                        expected.ids.drain(..n);
                    }
                    _ => {
                        log.clear();
                        expected = Reference::default();
                    }
                }
                prop_assert_eq!(log.ids(), &expected.ids[..]);
                prop_assert_eq!(log.distinct_count() as usize, expected.map.len());
            }
        }

        #[test]
        fn a_reconfigured_detector_processes_like_the_spec(
            first in blocks(),
            second in blocks(),
            config_a in configs(),
            config_b in configs(),
        ) {
            let mut detector = PhaseDetector::new(config_a);
            for step in first.chunks(config_a.skip_factor()) {
                detector.process(step);
            }
            detector.reconfigure(config_b);
            let mut states = StateSeq::with_capacity(second.len());
            for step in second.chunks(config_b.skip_factor()) {
                states.push_n(detector.process(step), step.len());
            }
            detector.close_open_phase();
            let expected = spec::run(config_b, &second);
            prop_assert_eq!(&states, &expected.states);
            prop_assert_eq!(detector.detected_phases(), &expected.phases[..]);
        }
    }
}
