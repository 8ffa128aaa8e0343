//! The window kernel: a structure-of-arrays / bitset (SWAR) run over
//! an interned trace.
//!
//! [`SwarWindows`] runs every detector path: batch runs over a
//! pre-interned trace, the sweep engine's shared scans, and the
//! streaming paths [`PhaseDetector::process`](crate::PhaseDetector::process)
//! and [`PhaseDetector::process_log`](crate::PhaseDetector::process_log).
//! It never materializes a window buffer at all: because every window
//! operation (push, phase-end flush with CW re-seeding,
//! anchor-and-resize) preserves the invariant that *the buffered
//! elements are one contiguous run of the trace*, the whole window
//! state is three indices `a ≤ b ≤ c` with TW = `trace[a..b)` and
//! CW = `trace[b..c)`. Advancing by a step moves the three indices
//! by closed forms and touches only the per-site counts of the at
//! most `3 · step` *dirty* sites in the spans the indices moved
//! over — O(dirty) incremental updates instead of per-element deque
//! traffic. Per-site membership is additionally packed into `u64`
//! bit lanes (bit = "count > 0", maintained branchlessly), so the
//! unweighted and Pearson set reductions are popcount passes over
//! `lanes = ⌈sites/64⌉` words instead of per-site scalar loops.
//!
//! For large skip factors even O(step) per-element work dominates:
//! a config judging every `skip ≥ `[`RANK_MODE_MIN_SKIP`] elements
//! reads window *counts* far more rarely than it crosses elements. In
//! that regime the kernel switches to *rank mode*: a per-trace
//! [`SiteIndex`] answers "how many of `trace[..x]` are site `s`" in
//! O(1), so both windows' count vectors fall out of rank differences
//! at the three run endpoints and an advance costs nothing at all —
//! the kernel pays O(sites) per *judge* instead of O(step) per
//! *advance*.
//!
//! Streaming needs no second kernel. An append-only
//! [`IdLog`](crate::IdLog) is a trace that only grows at its end, so
//! the three indices stay valid as it grows: the streaming paths keep
//! them between steps as a [`SwarCursor`] and resume the kernel in
//! dense mode, growing the per-site columns as new sites arrive. (Rank
//! mode needs a site index over the whole trace, which a growing log
//! does not have.) A cursor also carries the absolute offset of the
//! log's first id, so a log whose prefix before the TW was dropped
//! still reports absolute anchor offsets.
//!
//! The per-site state is two halves, one per window: a CW half and a
//! TW half of count columns and bit lanes ([`SwarKernelState`]). A
//! detector's run keeps both in one state, with no indirection. The
//! sweep engine's forking scan splits them: a phase class
//! ([`ForkedWindows`]) owns only a TW half and reads the CW half of
//! the shared FIFO it was forked from, because whenever a class's CW
//! is full it holds exactly the FIFO's CW. A class keeps a private CW
//! half only while its CW refills after a Slide resize, and in rank
//! mode it owns no columns at all.
//!
//! Both modes reduce the windows to exact integer quantities and share
//! the floating-point tail in [`crate::model::exact`] with the
//! executable spec ([`crate::spec`]); `tests/kernel_equivalence.rs`
//! checks every run path against the spec bit for bit.

use crate::intern::{InternedTrace, SiteIndex, SiteRanker};
use crate::model::{exact, ModelPolicy};
use crate::window::{AnchorPolicy, ResizePolicy};

/// Smallest skip factor for which the SWAR kernel prefers rank mode
/// (see the module docs): below this, dense per-element maintenance
/// is cheaper than an O(sites) rank pass per judge. The static cost
/// model in `opd-analyze` mirrors this cutoff.
pub const RANK_MODE_MIN_SKIP: usize = 32;

/// One window's per-site columns: a `u32` count per site and the
/// membership bit lanes (bit = "count > 0", maintained branchlessly).
#[derive(Debug, Clone, Default)]
struct SiteColumns {
    counts: Vec<u32>,
    bits: Vec<u64>,
}

impl SiteColumns {
    fn ensure_sites(&mut self, n_sites: usize) {
        if self.counts.len() < n_sites {
            self.counts.resize(n_sites, 0);
            self.bits.resize(n_sites.div_ceil(64), 0);
        }
    }

    fn zero_sites(&mut self, n_sites: usize) {
        self.counts[..n_sites].fill(0);
        self.bits[..n_sites.div_ceil(64)].fill(0);
    }

    /// Becomes a copy of `other`, reusing this column's allocations.
    fn copy_from(&mut self, other: &SiteColumns) {
        self.counts.clone_from(&other.counts);
        self.bits.clone_from(&other.bits);
    }

    /// Adds `ids` (elements entering the window).
    fn add(&mut self, ids: &[u32]) {
        for &s in ids {
            let s = s as usize;
            self.counts[s] += 1;
            self.bits[s >> 6] |= 1u64 << (s & 63);
        }
    }

    /// Removes `ids`; a membership bit is cleared branchlessly when its
    /// count reaches zero.
    fn remove(&mut self, ids: &[u32]) {
        for &s in ids {
            let s = s as usize;
            let count = self.counts[s] - 1;
            self.counts[s] = count;
            self.bits[s >> 6] &= !(u64::from(count == 0) << (s & 63));
        }
    }

    fn bytes(&self) -> u64 {
        (self.counts.len() * core::mem::size_of::<u32>()
            + self.bits.len() * core::mem::size_of::<u64>()) as u64
    }
}

/// Moves `ids` from the `from` window's columns to the `to` window's,
/// in one pass.
fn transfer(from: &mut SiteColumns, to: &mut SiteColumns, ids: &[u32]) {
    for &s in ids {
        let s = s as usize;
        let count = from.counts[s] - 1;
        from.counts[s] = count;
        from.bits[s >> 6] &= !(u64::from(count == 0) << (s & 63));
        to.counts[s] += 1;
        to.bits[s >> 6] |= 1u64 << (s & 63);
    }
}

/// The SWAR kernel's owned scratch: a CW half and a TW half of
/// per-site columns, plus the rank-mode anchor rebuild buffer. The
/// halves are separate so a sweep's phase class ([`ForkedWindows`])
/// can own a TW half alone and read its CW from the shared FIFO.
/// Allocations persist across runs (the sweep engine keeps one per
/// worker), so the steady state is allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SwarKernelState {
    cw: SiteColumns,
    tw: SiteColumns,
    /// Rank mode has no materialized counts; anchor scans rebuild the
    /// CW counts here (once per phase start).
    anchor_counts: Vec<u32>,
}

impl SwarKernelState {
    /// Grows every per-site column to cover ids `0..n_sites`.
    pub(crate) fn ensure_sites(&mut self, n_sites: usize) {
        if self.anchor_counts.len() < n_sites {
            self.cw.ensure_sites(n_sites);
            self.tw.ensure_sites(n_sites);
            self.anchor_counts.resize(n_sites, 0);
        }
    }

    /// Zeroes the CW/TW count columns and bit lanes of sites
    /// `0..n_sites` (the anchor column is rebuilt before every read).
    pub(crate) fn zero_sites(&mut self, n_sites: usize) {
        self.cw.zero_sites(n_sites);
        self.tw.zero_sites(n_sites);
    }

    /// Zeroes every column, whatever sites earlier runs grew them to —
    /// the clean slate a streaming run resumes from at its first step.
    pub(crate) fn clear(&mut self) {
        self.zero_sites(self.anchor_counts.len());
    }

    /// Bytes of per-site storage currently held (the high-water mark:
    /// `ensure_sites` never shrinks).
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.cw.bytes()
            + self.tw.bytes()
            + (self.anchor_counts.len() * core::mem::size_of::<u32>()) as u64
    }
}

/// Bytes of per-site storage the SWAR kernel allocates for a trace
/// with `n_sites` distinct interned sites: three `u32` count columns
/// (CW, TW, anchor rebuild) plus two `u64` membership bit-lane arrays
/// of `ceil(n_sites / 64)` lanes each. This is the closed form of
/// `SwarKernelState::ensure_sites`'s allocation, exported so the
/// static certifier (`opd-analyze`) can bound detector memory without
/// constructing a kernel.
#[must_use]
pub fn swar_footprint_bytes(n_sites: u64) -> u64 {
    let lanes = n_sites.div_ceil(64);
    3 * core::mem::size_of::<u32>() as u64 * n_sites
        + 2 * core::mem::size_of::<u64>() as u64 * lanes
}

/// Where a streaming SWAR run stands between steps: the three run
/// indices (relative to the log), the warm flag, and the absolute
/// offset of the log's first id. With the per-site columns left in the
/// detector's [`SwarKernelState`], this is all
/// [`SwarWindows::resume`] needs to continue over a grown log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SwarCursor {
    base: u64,
    a: usize,
    b: usize,
    c: usize,
    warm: bool,
}

impl SwarCursor {
    /// Log ids the run has consumed.
    pub(crate) fn consumed(self) -> usize {
        self.c
    }

    /// Absolute offset of the log's first id.
    pub(crate) fn base(self) -> u64 {
        self.base
    }

    /// Where the TW starts in the log: no later step reads an id
    /// before it.
    pub(crate) fn tw_start(self) -> usize {
        self.a
    }

    /// `(CW length, TW length)`.
    pub(crate) fn window_lens(self) -> (usize, usize) {
        (self.c - self.b, self.b - self.a)
    }

    /// The same run over a log whose first `dropped` ids (at most
    /// [`tw_start`](SwarCursor::tw_start)) were removed.
    pub(crate) fn rebased(self, dropped: usize) -> SwarCursor {
        debug_assert!(dropped <= self.a, "only ids before the TW may go");
        SwarCursor {
            base: self.base + dropped as u64,
            a: self.a - dropped,
            b: self.b - dropped,
            c: self.c - dropped,
            warm: self.warm,
        }
    }
}

/// One SWAR-kernel run over a pre-interned trace: the three run
/// indices plus the count/bit state (see the module docs), borrowed
/// from a [`SwarKernelState`] the caller keeps across runs.
pub(crate) struct SwarWindows<'a> {
    ids: &'a [u32],
    /// `Some` in rank mode; `None` in dense mode.
    index: Option<&'a SiteIndex>,
    st: &'a mut SwarKernelState,
    n_sites: usize,
    lanes: usize,
    cw_cap: usize,
    tw_cap: usize,
    /// Absolute offset of `ids[0]`.
    base: u64,
    /// TW = `ids[a..b)`, CW = `ids[b..c)`.
    a: usize,
    b: usize,
    c: usize,
    warm: bool,
}

impl<'a> SwarWindows<'a> {
    /// Starts a run of `trace` with the given window capacities.
    /// `skip` selects rank mode (when eligible) per
    /// [`RANK_MODE_MIN_SKIP`].
    pub(crate) fn begin(
        st: &'a mut SwarKernelState,
        trace: &'a InternedTrace,
        skip: usize,
        cw_cap: usize,
        tw_cap: usize,
    ) -> SwarWindows<'a> {
        let n_sites = trace.distinct_count() as usize;
        let start = SwarCursor::default();
        let mut windows = SwarWindows::resume(st, trace.ids(), n_sites, cw_cap, tw_cap, start);
        windows.index = if skip >= RANK_MODE_MIN_SKIP {
            trace.try_site_index()
        } else {
            None
        };
        if windows.index.is_none() {
            windows.st.zero_sites(n_sites);
        }
        windows
    }

    /// Resumes a dense-mode run over `ids` — the current contents of
    /// an append-only log whose ids are all below `n_sites` — from
    /// `cursor`. The columns must hold exactly the counts of the run
    /// `ids[cursor.a..cursor.c)`, all other sites zero: what the
    /// previous resumed step left, or cleared columns for a fresh
    /// cursor. Growing `n_sites` between steps only appends zero
    /// columns, and zero sites add nothing to any similarity.
    pub(crate) fn resume(
        st: &'a mut SwarKernelState,
        ids: &'a [u32],
        n_sites: usize,
        cw_cap: usize,
        tw_cap: usize,
        cursor: SwarCursor,
    ) -> SwarWindows<'a> {
        st.ensure_sites(n_sites);
        SwarWindows {
            ids,
            index: None,
            st,
            n_sites,
            lanes: n_sites.div_ceil(64),
            cw_cap,
            tw_cap,
            base: cursor.base,
            a: cursor.a,
            b: cursor.b,
            c: cursor.c,
            warm: cursor.warm,
        }
    }

    /// Where this run stands, for a later [`resume`](SwarWindows::resume).
    pub(crate) fn cursor(&self) -> SwarCursor {
        SwarCursor {
            base: self.base,
            a: self.a,
            b: self.b,
            c: self.c,
            warm: self.warm,
        }
    }

    /// The state a never-flushed run reaches after consuming
    /// `ids[..n0)`, loaded in one pass: with `n0 ≥ cw + tw` both
    /// windows are full, TW = `ids[n0 − cw − tw..n0 − cw)` and CW =
    /// `ids[n0 − cw..n0)`, whatever the step size (a CW fills before
    /// it transfers, and a full TW evicts what the CW hands it). Only
    /// valid on a fresh [`begin`](SwarWindows::begin).
    pub(crate) fn warm_start(&mut self, n0: usize) {
        debug_assert_eq!(self.c, 0, "warm_start needs a fresh run");
        debug_assert!(n0 >= self.cw_cap + self.tw_cap && n0 <= self.ids.len());
        let (a, b) = (n0 - self.cw_cap - self.tw_cap, n0 - self.cw_cap);
        if self.index.is_none() {
            let ids = self.ids;
            self.st.tw.add(&ids[a..b]);
            self.st.cw.add(&ids[b..n0]);
        }
        self.a = a;
        self.b = b;
        self.c = n0;
        self.warm = true;
    }

    /// Consumes one step: `chunk` must be the next contiguous run of
    /// the trace the kernel was started on. `tw_grows` suppresses TW
    /// eviction (adaptive TW, in phase).
    pub(crate) fn advance(&mut self, chunk: &[u32], tw_grows: bool) {
        debug_assert!(
            core::ptr::eq(chunk.as_ptr(), self.ids[self.c..].as_ptr()),
            "SWAR kernel must be fed the trace's own chunks in order"
        );
        let k = chunk.len();
        let c2 = self.c + k;
        // Closed forms of the per-element loop. The CW does at most
        // one CW→TW transfer per push (an over-full CW — a phase-end
        // flush can keep more than `cw_cap` — drains by exactly its
        // intake), the TW eviction drain runs to quiescence:
        let cw0 = self.c - self.b;
        let cw2 = if cw0 >= self.cw_cap {
            cw0
        } else {
            (cw0 + k).min(self.cw_cap)
        };
        let b2 = c2 - cw2;
        let a2 = if tw_grows {
            self.a
        } else {
            self.a.max(b2.saturating_sub(self.tw_cap))
        };
        if self.index.is_none() {
            // Dirty-site updates, in dependency order: elements enter
            // the CW before the transfer span may re-move them, and
            // enter the TW before the eviction span may drop them.
            let (ids, st) = (self.ids, &mut *self.st);
            st.cw.add(&ids[self.c..c2]);
            transfer(&mut st.cw, &mut st.tw, &ids[self.b..b2]);
            st.tw.remove(&ids[self.a..a2]);
        }
        self.a = a2;
        self.b = b2;
        self.c = c2;
        // Both warm conditions are monotone within one advance, so
        // the spec's per-push sticky check reduces to one end-of-step
        // check.
        if !self.warm && b2 - a2 >= self.tw_cap && cw2 >= self.cw_cap {
            self.warm = true;
        }
    }

    /// `true` once both windows have filled since the last flush.
    pub(crate) fn is_warm(&self) -> bool {
        self.warm
    }

    /// Trailing-window length.
    pub(crate) fn tw_len(&self) -> usize {
        self.b - self.a
    }

    /// The similarity of the two windows under `model`.
    pub(crate) fn similarity(&self, model: ModelPolicy) -> f64 {
        self.similarity_of(&self.st.cw, &self.st.tw, self.a, self.b, model)
    }

    /// The similarity under `model` of the run TW = `ids[a..b)`, CW =
    /// `ids[b..self.c)`, whose dense-mode columns are `cw` and `tw`.
    fn similarity_of(
        &self,
        cw: &SiteColumns,
        tw: &SiteColumns,
        a: usize,
        b: usize,
        model: ModelPolicy,
    ) -> f64 {
        let cw_len = self.c - b;
        let tw_len = b - a;
        if cw_len == 0 || tw_len == 0 {
            return 0.0;
        }
        match self.index {
            None => dense_similarity(cw, tw, self.n_sites, self.lanes, model, cw_len, tw_len),
            Some(index) => {
                let ranks = [index.ranker(a), index.ranker(b), index.ranker(self.c)];
                rank_similarity(ranks, self.n_sites, model, cw_len, tw_len)
            }
        }
    }

    /// The anchor index (relative to the TW front) per `policy`.
    pub(crate) fn anchor_index(&mut self, policy: AnchorPolicy) -> usize {
        let ids = self.ids;
        let tw = &ids[self.a..self.b];
        let st = &mut *self.st;
        let counts: &[u32] = match self.index {
            None => &st.cw.counts,
            Some(index) => {
                // Rank mode keeps no materialized counts; rebuild the
                // CW's once per phase start.
                let rb = index.ranker(self.b);
                let rc = index.ranker(self.c);
                for (s, count) in st.anchor_counts[..self.n_sites].iter_mut().enumerate() {
                    *count = rc.rank(s) - rb.rank(s);
                }
                &st.anchor_counts
            }
        };
        match policy {
            AnchorPolicy::RightmostNoisy => {
                for j in (0..tw.len()).rev() {
                    if counts[tw[j] as usize] == 0 {
                        return j + 1;
                    }
                }
                0
            }
            AnchorPolicy::LeftmostNonNoisy => {
                for j in 0..tw.len() {
                    if counts[tw[j] as usize] > 0 {
                        return j;
                    }
                }
                tw.len()
            }
        }
    }

    /// Absolute element offset of a TW-relative index.
    pub(crate) fn offset_of_index(&self, index: usize) -> u64 {
        self.base + (self.a + index) as u64
    }

    /// The run boundaries `(a, b)` after a phase start anchors at
    /// `anchor_idx` and resizes per `resize`. Anchoring pops
    /// `anchor_idx` elements from the TW front. Slide then extends the
    /// TW into the CW up to its capacity, leaving at least one CW
    /// element — the closed form of the spec's shift loop (a no-op
    /// whenever the TW already meets its capacity or the CW is down to
    /// one element); Move keeps `b`.
    fn resized_bounds(&self, anchor_idx: usize, resize: ResizePolicy) -> (usize, usize) {
        let a2 = self.a + anchor_idx.min(self.b - self.a);
        let b2 = if resize == ResizePolicy::Slide {
            self.b.max((a2 + self.tw_cap).min(self.c.saturating_sub(1)))
        } else {
            self.b
        };
        (a2, b2)
    }

    /// [`resized_bounds`](SwarWindows::resized_bounds) as absolute
    /// offsets: the boundary key a phase class forked here would have.
    pub(crate) fn anchored_key(&self, anchor_idx: usize, resize: ResizePolicy) -> (u64, u64) {
        let (a2, b2) = self.resized_bounds(anchor_idx, resize);
        (self.base + a2 as u64, self.base + b2 as u64)
    }

    /// Applies the anchor and resize policies at a phase start;
    /// returns the absolute offset of the anchor element.
    pub(crate) fn anchor_and_resize(&mut self, anchor_idx: usize, resize: ResizePolicy) -> u64 {
        let anchor_offset = self.offset_of_index(anchor_idx);
        let (a2, b2) = self.resized_bounds(anchor_idx, resize);
        if self.index.is_none() {
            let (ids, st) = (self.ids, &mut *self.st);
            st.tw.remove(&ids[self.a..a2]);
            transfer(&mut st.cw, &mut st.tw, &ids[self.b..b2]);
        }
        self.a = a2;
        self.b = b2;
        anchor_offset
    }

    /// Flushes both windows, keeping the most recent `keep` elements
    /// as the new (partial) CW.
    pub(crate) fn clear_keep_last(&mut self, keep: usize) {
        let kept = keep.min(self.c - self.a);
        let front = self.c - kept;
        self.a = front;
        self.b = front;
        if self.index.is_none() {
            // O(sites) reset plus O(kept) re-seed beats walking the
            // whole (possibly phase-length) buffered run backward.
            self.st.zero_sites(self.n_sites);
            self.st.cw.add(&self.ids[front..self.c]);
        }
        self.warm = false;
    }

    /// Comparison ops one judged step costs at runtime under `model`,
    /// mirroring the static cost model's accounting against the
    /// actual kernel state.
    pub(crate) fn judge_ops(&self, model: ModelPolicy) -> u64 {
        let n = self.n_sites as u64;
        if self.index.is_some() {
            // Three rank lookups and a reduction per site.
            return 4 * n + 2;
        }
        let lanes = self.lanes as u64;
        match model {
            ModelPolicy::UnweightedSet => lanes + 2,
            ModelPolicy::WeightedSet => n + 2,
            ModelPolicy::Pearson => n + lanes + 2,
        }
    }
}

/// A phase class's windows in the sweep engine's forking scan: a
/// window state forked from a never-flushed FIFO run that owns only
/// its TW half. The class grows its TW in phase and never evicts, so
/// its run is TW = `ids[a..b)`, CW = `ids[b..c)` with `c` the FIFO's.
/// Whenever its CW is full, `b = c − cw` and the CW *is* the FIFO's
/// CW: the class reads the FIFO's CW columns and, per step, only adds
/// the elements leaving the CW to its own TW. It keeps a private CW
/// only while that CW refills after a Slide resize took elements from
/// it. In rank mode it owns no columns at all.
///
/// Every method takes the FIFO it was forked from, which must have
/// consumed exactly as far as the class (see
/// [`catch_up`](ForkedWindows::catch_up)).
#[derive(Debug, Default)]
pub(crate) struct ForkedWindows {
    a: usize,
    b: usize,
    c: usize,
    tw: SiteColumns,
    /// The private CW; holds `ids[b..c)` only while `c − b < cw`.
    cw: SiteColumns,
}

impl ForkedWindows {
    /// Re-forks this (possibly recycled) state from `fifo` with the
    /// anchor and resize applied, reusing its column allocations. The
    /// FIFO must be warm, so its CW is full.
    pub(crate) fn fork(&mut self, fifo: &SwarWindows<'_>, anchor_idx: usize, resize: ResizePolicy) {
        debug_assert!(fifo.warm && fifo.c - fifo.b == fifo.cw_cap);
        let (a2, b2) = fifo.resized_bounds(anchor_idx, resize);
        if fifo.index.is_none() {
            let ids = fifo.ids;
            self.tw.copy_from(&fifo.st.tw);
            self.tw.remove(&ids[fifo.a..a2]);
            if b2 > fifo.b {
                self.cw.copy_from(&fifo.st.cw);
                transfer(&mut self.cw, &mut self.tw, &ids[fifo.b..b2]);
            }
        }
        self.a = a2;
        self.b = b2;
        self.c = fifo.c;
    }

    /// Advances over the elements `fifo` consumed since this class last
    /// did, with TW growth (an in-phase adaptive TW never evicts).
    pub(crate) fn catch_up(&mut self, fifo: &SwarWindows<'_>) {
        let c2 = fifo.c;
        // The closed form of `SwarWindows::advance` for a CW that is
        // never over-full and a TW that grows.
        let cw2 = (c2 - self.b).min(fifo.cw_cap);
        let b2 = c2 - cw2;
        if fifo.index.is_none() {
            if cw2 < fifo.cw_cap {
                // Still refilling: nothing leaves the CW (`b2 == b`).
                self.cw.add(&fifo.ids[self.c..c2]);
            } else {
                self.tw.add(&fifo.ids[self.b..b2]);
            }
        }
        self.b = b2;
        self.c = c2;
    }

    /// Whether the CW is full, so it is the FIFO's.
    pub(crate) fn reads_fifo_cw(&self, fifo: &SwarWindows<'_>) -> bool {
        self.c - self.b >= fifo.cw_cap
    }

    /// The similarity of the class's windows under `model`.
    pub(crate) fn similarity(&self, fifo: &SwarWindows<'_>, model: ModelPolicy) -> f64 {
        debug_assert_eq!(self.c, fifo.c, "the class must have caught up");
        let cw = if self.reads_fifo_cw(fifo) {
            &fifo.st.cw
        } else {
            &self.cw
        };
        fifo.similarity_of(cw, &self.tw, self.a, self.b, model)
    }

    /// The boundary key `(a, b)`, as absolute offsets: with `c` shared,
    /// it determines the whole state and its future.
    pub(crate) fn key(&self, fifo: &SwarWindows<'_>) -> (u64, u64) {
        (fifo.base + self.a as u64, fifo.base + self.b as u64)
    }
}

/// The dense-mode similarity under `model` of a CW and a TW held in
/// per-site columns.
fn dense_similarity(
    cw: &SiteColumns,
    tw: &SiteColumns,
    n_sites: usize,
    lanes: usize,
    model: ModelPolicy,
    cw_len: usize,
    tw_len: usize,
) -> f64 {
    match model {
        ModelPolicy::UnweightedSet => {
            let (mut distinct, mut shared) = (0u64, 0u64);
            for (cw, tw) in cw.bits[..lanes].iter().zip(&tw.bits[..lanes]) {
                distinct += u64::from(cw.count_ones());
                shared += u64::from((cw & tw).count_ones());
            }
            exact::unweighted(shared, distinct)
        }
        ModelPolicy::WeightedSet => {
            let (cws, tws) = (&cw.counts[..n_sites], &tw.counts[..n_sites]);
            let narrow = cw_len
                .checked_mul(tw_len)
                .is_some_and(|p| u32::try_from(p).is_ok());
            let sum = if narrow {
                // Each term is at most `cw_s · tw_len` (and `tw_s · cw_len`
                // at most `tw_len · cw_len`), and the `cw_s` sum to
                // `cw_len`: with `cw_len · tw_len` in range every product
                // and the whole min-sum fit in `u32`, and twice as many
                // lanes per vector give the same integer.
                let (t, c) = (tw_len as u32, cw_len as u32);
                let mut sum = 0u32;
                for (cwc, twc) in cws.iter().zip(tws) {
                    sum += (cwc * t).min(twc * c);
                }
                u64::from(sum)
            } else {
                let (t, c) = (tw_len as u64, cw_len as u64);
                let mut sum = 0u64;
                for (cwc, twc) in cws.iter().zip(tws) {
                    sum += (u64::from(*cwc) * t).min(u64::from(*twc) * c);
                }
                sum
            };
            exact::weighted(sum, cw_len, tw_len)
        }
        ModelPolicy::Pearson => {
            let (mut n, mut shared) = (0u64, 0u64);
            for (cw, tw) in cw.bits[..lanes].iter().zip(&tw.bits[..lanes]) {
                n += u64::from((cw | tw).count_ones());
                shared += u64::from((cw & tw).count_ones());
            }
            let mut sums = exact::PearsonSums::default();
            for (cwc, twc) in cw.counts[..n_sites].iter().zip(&tw.counts[..n_sites]) {
                sums.add(*cwc, *twc);
            }
            exact::pearson(n, sums, shared)
        }
    }
}

/// The rank-mode similarity under `model` of the run whose TW and CW
/// ends are ranked by `[ra, rb, rc]`: each window's per-site count is
/// a rank difference.
fn rank_similarity(
    [ra, rb, rc]: [SiteRanker<'_>; 3],
    n_sites: usize,
    model: ModelPolicy,
    cw_len: usize,
    tw_len: usize,
) -> f64 {
    match model {
        ModelPolicy::UnweightedSet => {
            let (mut distinct, mut shared) = (0u64, 0u64);
            for s in 0..n_sites {
                let rbs = rb.rank(s);
                let cw = rc.rank(s) - rbs;
                let tw = rbs - ra.rank(s);
                distinct += u64::from(cw > 0);
                shared += u64::from(cw > 0 && tw > 0);
            }
            exact::unweighted(shared, distinct)
        }
        ModelPolicy::WeightedSet => {
            let (t, c) = (tw_len as u64, cw_len as u64);
            let mut sum = 0u64;
            for s in 0..n_sites {
                let rbs = rb.rank(s);
                let cw = rc.rank(s) - rbs;
                let tw = rbs - ra.rank(s);
                sum += (u64::from(cw) * t).min(u64::from(tw) * c);
            }
            exact::weighted(sum, cw_len, tw_len)
        }
        ModelPolicy::Pearson => {
            let (mut n, mut shared) = (0u64, 0u64);
            let mut sums = exact::PearsonSums::default();
            for s in 0..n_sites {
                let rbs = rb.rank(s);
                let cw = rc.rank(s) - rbs;
                let tw = rbs - ra.rank(s);
                n += u64::from(cw > 0 || tw > 0);
                shared += u64::from(cw > 0 && tw > 0);
                sums.add(cw, tw);
            }
            exact::pearson(n, sums, shared)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-site counts summing to `len`, spread unevenly over `sites`.
    fn columns(sites: usize, len: u32, seed: u32) -> SiteColumns {
        let mut cols = SiteColumns::default();
        cols.ensure_sites(sites);
        let mut left = len;
        for s in 0..sites {
            let take = if s + 1 == sites || seed == 0 {
                left
            } else {
                ((left / 3).max(1) * ((s as u32 + seed) % 3)).min(left)
            };
            cols.counts[s] = take;
            cols.bits[s >> 6] |= u64::from(take > 0) << (s & 63);
            left -= take;
        }
        cols
    }

    #[test]
    fn weighted_min_sum_is_exact_in_narrow_and_wide_lanes() {
        let sites = 37;
        // `cw_len · tw_len` just inside `u32` takes the narrow lanes, one
        // more TW element the wide ones; both must equal the min-sum in
        // exact arithmetic.
        // Seed 0 puts every element on one site, so the min-sum is the
        // whole `cw_len · tw_len`.
        let shapes = [(65_535u32, 65_537u32), (65_535, 65_538), (7, 3)];
        for ((cw_len, tw_len), seed) in shapes.into_iter().flat_map(|s| [(s, 0), (s, 1)]) {
            let (cw, tw) = (columns(sites, cw_len, seed), columns(sites, tw_len, seed));
            let exact: u128 = (0..sites)
                .map(|s| {
                    let a = u128::from(cw.counts[s]) * u128::from(tw_len);
                    let b = u128::from(tw.counts[s]) * u128::from(cw_len);
                    a.min(b)
                })
                .sum();
            let (c, t) = (cw_len as usize, tw_len as usize);
            let sim = dense_similarity(&cw, &tw, sites, 1, ModelPolicy::WeightedSet, c, t);
            assert_eq!(
                sim,
                exact::weighted(exact as u64, c, t),
                "{cw_len} x {tw_len}, {seed}"
            );
        }
    }
}
