//! Interval abstract interpretation over the MicroVM IR — the
//! analyzer's one evaluator of program executions.
//!
//! [`AbsInt`] answers both ends of every question a run can raise:
//! how many profile elements and call-loop events it emits, how deep
//! its call stack and its call-loop tree grow, and how often it visits
//! each static branch site. Resource *certification* needs both ends —
//! a detector that provably never fires is as important a fact as one
//! that fires at most `k` times — and it needs the answers *per branch
//! site*, because the interned alphabet (and therefore the kernel's
//! memory footprint) is a sum of per-site outcome counts, not a single
//! trip product. The worst-case whole-run figures the lints and the
//! runtime read are its [`bounds`](AbsInt::bounds) view.
//!
//! The IR runs through an interval domain with a congruence (stride)
//! refinement:
//!
//! * Every abstract count is a [`StrideInterval`]: the set
//!   `{ lo, lo + s, lo + 2s, … } ∩ [lo, hi]`. Loop multiplication is
//!   where the stride earns its keep — a `Fixed(3)` loop over a
//!   2-element body yields element counts in `{6k}`, and joining two
//!   `If` arms recovers `gcd(|lo₁ − lo₂|, s₁, s₂)` instead of
//!   collapsing to stride 1. Depths are plain maxima.
//! * Function summaries (elements, events, call and nest depth, plus
//!   one visit-count interval per static branch site) are memoized per
//!   `(function, argument-interval)` key and composed through the call
//!   graph exactly like the interpreter composes frames. An `If` whose
//!   branch can go only one way contributes only its live arm.
//! * **Widening** is saturation: re-entering an in-progress
//!   `(function, argument)` key (an abstract cycle the argument
//!   refinement cannot break) or exceeding [`DEPTH_CAP`] jumps the
//!   summary to ⊤ (`[0, u64::MAX]` everywhere) and latches
//!   [`overflowed`](AbsInt::overflowed), as does any `u64` overflow of
//!   an element or event count. Argument-decreasing recursion
//!   (`Dec`, `Half`) never cycles — each recursive step shrinks the
//!   argument interval, so the chain bottoms out like the concrete
//!   execution does.
//!
//! Lower bounds lean on one interpreter fact: element emission does
//! not depend on branch *outcomes* (a branch emits exactly one profile
//! element per execution whichever way it goes), only on trip draws
//! and argument draws, whose distributions have known supports.

use std::collections::{HashMap, HashSet};

use opd_microvm::{ArgExpr, FuncId, Program, Stmt, TakenDist, Trip};

use crate::bounds::StaticBounds;
use crate::flow::{taken_set, TakenSet};

/// Evaluation recursion cap. Deeper chains (a long `arg-1` ladder from
/// a huge entry argument) saturate instead of recursing; such programs
/// exceed the interpreter's 512-frame limit long before this cap, so
/// precision there has no value.
const DEPTH_CAP: usize = 1024;

/// Greatest common divisor (`gcd(0, x) = x`).
fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A congruence-refined interval: the value set
/// `{ lo + k · stride | k ≥ 0 } ∩ [lo, hi]`.
///
/// Invariants (every constructor normalizes): a single-point
/// interval has `stride == 0`; otherwise `stride ≥ 1` and `hi − lo`
/// is a multiple of `stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrideInterval {
    lo: u64,
    hi: u64,
    stride: u64,
}

impl StrideInterval {
    /// The single value `v`.
    #[must_use]
    pub fn point(v: u64) -> Self {
        StrideInterval {
            lo: v,
            hi: v,
            stride: 0,
        }
    }

    /// Every value in `[lo, hi]` (stride 1).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn span(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "span [{lo}, {hi}] is inverted");
        StrideInterval { lo, hi, stride: 1 }.normalize()
    }

    /// The saturated top element `[0, u64::MAX]`.
    #[must_use]
    pub fn top() -> Self {
        StrideInterval {
            lo: 0,
            hi: u64::MAX,
            stride: 1,
        }
    }

    /// Smallest representable value.
    #[must_use]
    pub fn lo(self) -> u64 {
        self.lo
    }

    /// Largest representable value.
    #[must_use]
    pub fn hi(self) -> u64 {
        self.hi
    }

    /// The congruence stride (0 for a single point).
    #[must_use]
    pub fn stride(self) -> u64 {
        self.stride
    }

    /// `true` if `v` is in the represented set.
    #[must_use]
    pub fn contains(self, v: u64) -> bool {
        v >= self.lo && v <= self.hi && (self.stride == 0 || (v - self.lo) % self.stride == 0)
    }

    /// Restores the invariants after an endpoint or stride update.
    fn normalize(mut self) -> Self {
        debug_assert!(self.lo <= self.hi);
        if self.lo == self.hi {
            self.stride = 0;
        } else {
            self.stride = self.stride.max(1);
            // Snap `hi` down onto the congruence lattice.
            self.hi = self.lo + ((self.hi - self.lo) / self.stride) * self.stride;
            if self.lo == self.hi {
                self.stride = 0;
            }
        }
        self
    }

    /// Pointwise sum. Saturates to ⊤-like endpoints on overflow and
    /// reports it through `overflowed`.
    #[must_use]
    pub fn add(self, other: Self, overflowed: &mut bool) -> Self {
        let lo = self.lo.checked_add(other.lo).unwrap_or_else(|| {
            *overflowed = true;
            u64::MAX
        });
        let hi = self.hi.checked_add(other.hi).unwrap_or_else(|| {
            *overflowed = true;
            u64::MAX
        });
        StrideInterval {
            lo,
            hi,
            stride: gcd(self.stride, other.stride),
        }
        .normalize()
    }

    /// Pointwise product (`self` values times `other` values), for
    /// scaling a loop body by its trip count. The product stride is
    /// `gcd(lo₁·s₂, lo₂·s₁, s₁·s₂)`: writing values as `lo + k·s`,
    /// every cross term is a multiple of that gcd.
    #[must_use]
    pub fn mul(self, other: Self, overflowed: &mut bool) -> Self {
        if (self.lo == 0 && self.hi == 0) || (other.lo == 0 && other.hi == 0) {
            return StrideInterval::point(0);
        }
        let lo = self.lo.checked_mul(other.lo).unwrap_or_else(|| {
            *overflowed = true;
            u64::MAX
        });
        let hi = self.hi.checked_mul(other.hi).unwrap_or_else(|| {
            *overflowed = true;
            u64::MAX
        });
        let stride = match (
            self.lo.checked_mul(other.stride),
            other.lo.checked_mul(self.stride),
            self.stride.checked_mul(other.stride),
        ) {
            (Some(a), Some(b), Some(c)) => gcd(gcd(a, b), c),
            _ => 1,
        };
        StrideInterval { lo, hi, stride }.normalize()
    }

    /// Least upper bound of the two value sets: the join keeps the
    /// congruence the branches agree on
    /// (`gcd(s₁, s₂, |lo₁ − lo₂|)`).
    #[must_use]
    pub fn join(self, other: Self) -> Self {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        let stride = gcd(gcd(self.stride, other.stride), self.lo.abs_diff(other.lo));
        StrideInterval { lo, hi, stride }.normalize()
    }

    /// Restricts the set to values `≥ min` (the `IfArgPositive` body
    /// refinement). The caller guarantees `hi ≥ min`.
    #[must_use]
    fn at_least(self, min: u64) -> Self {
        debug_assert!(self.hi >= min);
        if self.lo >= min {
            return self;
        }
        let stride = self.stride.max(1);
        let lo = self.lo + (min - self.lo).div_ceil(stride) * stride;
        StrideInterval {
            lo: lo.min(self.hi),
            hi: self.hi,
            stride: self.stride,
        }
        .normalize()
    }

    /// Saturating decrement of every value (the `Dec` argument rule).
    /// Saturation at 0 merges two lattice points, so the stride only
    /// survives when no value saturates.
    fn dec(self) -> Self {
        let lo = self.lo.saturating_sub(1);
        let hi = self.hi.saturating_sub(1);
        let stride = if self.lo >= 1 { self.stride } else { 1 };
        StrideInterval { lo, hi, stride }.normalize()
    }

    /// Pointwise halving (the `Half` argument rule). Division does not
    /// preserve congruences in general, so the stride degrades to 1.
    fn half(self) -> Self {
        StrideInterval {
            lo: self.lo / 2,
            hi: self.hi / 2,
            stride: 1,
        }
        .normalize()
    }
}

/// The per-site abstract result: which static branch site, its taken
/// distribution, and the certified visit-count interval.
#[derive(Debug, Clone, Copy)]
pub struct SiteVisits {
    /// The function owning the site.
    pub func: FuncId,
    /// The site's bytecode offset within its function.
    pub offset: u32,
    /// The site's taken-bit distribution.
    pub dist: TakenDist,
    /// How many times any run visits the site.
    pub visits: StrideInterval,
}

/// One function summary (exclusive of the invocation's own enter/exit
/// events and stack frame): total emitted elements and call-loop
/// events, the deepest call chain and construct chain the body opens,
/// plus one visit-count interval per static site (dense, indexed like
/// `AbsInt::sites`).
#[derive(Debug, Clone)]
struct Summary {
    elements: StrideInterval,
    events: StrideInterval,
    /// Additional call frames the body can stack on top of its own.
    call_depth: u64,
    /// Deepest construct chain the body opens inside its method node.
    nest: u64,
    visits: Vec<StrideInterval>,
    saturated: bool,
}

impl Summary {
    fn zero(n_sites: usize) -> Self {
        Summary {
            elements: StrideInterval::point(0),
            events: StrideInterval::point(0),
            call_depth: 0,
            nest: 0,
            visits: vec![StrideInterval::point(0); n_sites],
            saturated: false,
        }
    }

    fn top(n_sites: usize) -> Self {
        Summary {
            elements: StrideInterval::top(),
            events: StrideInterval::top(),
            call_depth: u64::MAX,
            nest: u64::MAX,
            visits: vec![StrideInterval::top(); n_sites],
            saturated: true,
        }
    }

    /// Sequential composition: counts add, depths take the maximum.
    fn add(&mut self, other: &Summary, overflowed: &mut bool) {
        self.elements = self.elements.add(other.elements, overflowed);
        self.events = self.events.add(other.events, overflowed);
        self.call_depth = self.call_depth.max(other.call_depth);
        self.nest = self.nest.max(other.nest);
        for (mine, theirs) in self.visits.iter_mut().zip(&other.visits) {
            *mine = mine.add(*theirs, overflowed);
        }
        self.saturated |= other.saturated;
    }

    fn scale(&self, trips: StrideInterval, overflowed: &mut bool) -> Summary {
        Summary {
            elements: self.elements.mul(trips, overflowed),
            events: self.events.mul(trips, overflowed),
            call_depth: self.call_depth,
            nest: self.nest,
            visits: self
                .visits
                .iter()
                .map(|v| v.mul(trips, overflowed))
                .collect(),
            saturated: self.saturated && trips.hi() > 0,
        }
    }

    fn join(&self, other: &Summary) -> Summary {
        Summary {
            elements: self.elements.join(other.elements),
            events: self.events.join(other.events),
            call_depth: self.call_depth.max(other.call_depth),
            nest: self.nest.max(other.nest),
            visits: self
                .visits
                .iter()
                .zip(&other.visits)
                .map(|(a, b)| a.join(*b))
                .collect(),
            saturated: self.saturated || other.saturated,
        }
    }

    /// Wraps the summary in one call-loop node: its enter and exit
    /// events and one nesting level. Depths saturate without raising
    /// the overflow flag: a saturated depth still reads correctly as
    /// "deeper than any limit".
    fn framed(mut self, overflowed: &mut bool) -> Summary {
        self.events = self.events.add(StrideInterval::point(2), overflowed);
        self.nest = self.nest.saturating_add(1);
        self
    }
}

/// The interval abstract interpretation of one program: element, event
/// and per-site visit-count intervals and call/nest depth maxima for
/// the entry invocation.
#[derive(Debug, Clone)]
pub struct AbsInt {
    elements: StrideInterval,
    events: StrideInterval,
    call_depth: u64,
    nest: u64,
    sites: Vec<SiteVisits>,
    overflowed: bool,
}

struct Eval<'p> {
    program: &'p Program,
    /// `(function index, site offset)` → dense site index.
    site_index: HashMap<(u32, u32), usize>,
    n_sites: usize,
    memo: HashMap<(u32, StrideInterval), Summary>,
    in_progress: HashSet<(u32, StrideInterval)>,
    depth: usize,
    overflowed: bool,
}

impl AbsInt {
    /// Abstractly interprets `program` from its entry invocation.
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let mut sites = Vec::new();
        let mut site_index = HashMap::new();
        for (fi, function) in program.functions().iter().enumerate() {
            collect_sites(
                program.func_id(fi),
                function.body(),
                &mut sites,
                &mut site_index,
            );
        }
        let n_sites = sites.len();
        let mut eval = Eval {
            program,
            site_index,
            n_sites,
            memo: HashMap::new(),
            in_progress: HashSet::new(),
            depth: 0,
            overflowed: false,
        };
        let summary = eval.func(
            program.entry().index(),
            StrideInterval::point(u64::from(program.entry_arg())),
        );
        let overflowed = eval.overflowed || summary.saturated;
        for (site, visits) in sites.iter_mut().zip(&summary.visits) {
            site.visits = *visits;
        }
        AbsInt {
            elements: summary.elements,
            events: summary.events,
            call_depth: summary.call_depth,
            nest: summary.nest,
            sites,
            overflowed,
        }
    }

    /// The certified interval of profile elements any run emits
    /// (before any fuel truncation).
    #[must_use]
    pub fn elements(&self) -> StrideInterval {
        self.elements
    }

    /// The worst-case bounds of one whole run: the entry invocation
    /// adds its own enter/exit events and one level each of call and
    /// nest depth. An overflowed evaluation reports its branch and
    /// event counts as exactly `u64::MAX`.
    #[must_use]
    pub fn bounds(&self) -> StaticBounds {
        let (branches, events) = if self.overflowed {
            (u64::MAX, u64::MAX)
        } else {
            (self.elements.hi(), self.events.hi().saturating_add(2))
        };
        StaticBounds {
            branches,
            events,
            call_depth: self.call_depth.saturating_add(1),
            nest_depth: self.nest.saturating_add(1),
            overflowed: self.overflowed,
        }
    }

    /// Per-site visit-count intervals, in program order.
    #[must_use]
    pub fn sites(&self) -> &[SiteVisits] {
        &self.sites
    }

    /// `true` if any bound saturated — an abstract cycle the argument
    /// refinement could not break, or a `u64` overflow. Upper bounds
    /// are then `u64::MAX` (vacuous); lower bounds remain sound.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The certified interval of *distinct interned elements*
    /// (`(site, taken)` pairs) any run can produce, from the per-site
    /// visit intervals and the distributions' outcome structure: an
    /// `Alternating` site needs two visits to produce both outcomes, a
    /// `Periodic(p)` site needs `p` visits to produce its first taken
    /// element, and any visited site produces at least one element.
    #[must_use]
    pub fn alphabet(&self) -> StrideInterval {
        let mut lo = 0u64;
        let mut hi = 0u64;
        for site in &self.sites {
            lo = lo.saturating_add(min_outcomes(site.dist, site.visits.lo()));
            hi = hi.saturating_add(max_outcomes(site.dist, site.visits.hi()));
        }
        StrideInterval { lo, hi, stride: 1 }.normalize()
    }
}

/// Distinct `(site, taken)` elements the site is *guaranteed* to
/// produce when visited at least `visits_lo` times.
fn min_outcomes(dist: TakenDist, visits_lo: u64) -> u64 {
    if visits_lo == 0 {
        return 0;
    }
    match dist {
        // Deterministic single outcome; any visit produces it.
        TakenDist::Always | TakenDist::Never => 1,
        // Degenerate probabilities are deterministic too; otherwise
        // every visit produces *some* element, outcome unknown.
        TakenDist::Bernoulli(_) => 1,
        // First visit taken, second not taken (state starts at 0 and
        // toggles before the read).
        TakenDist::Alternating => {
            if visits_lo >= 2 {
                2
            } else {
                1
            }
        }
        // `period ≤ 1` is always-taken; otherwise visit 1 is not
        // taken and visit `period` is the first taken one.
        TakenDist::Periodic(period) => {
            if period <= 1 {
                1
            } else if visits_lo >= u64::from(period) {
                2
            } else {
                1
            }
        }
    }
}

/// Distinct `(site, taken)` elements the site can produce in at most
/// `visits_hi` visits.
fn max_outcomes(dist: TakenDist, visits_hi: u64) -> u64 {
    if visits_hi == 0 {
        return 0;
    }
    match dist {
        TakenDist::Always | TakenDist::Never => 1,
        TakenDist::Bernoulli(p) => {
            if p <= 0.0 || p >= 1.0 {
                1
            } else if visits_hi >= 2 {
                2
            } else {
                1
            }
        }
        TakenDist::Alternating => {
            if visits_hi >= 2 {
                2
            } else {
                1
            }
        }
        TakenDist::Periodic(period) => {
            if period <= 1 {
                1
            } else if visits_hi >= u64::from(period) {
                2
            } else {
                // Fewer visits than the period: the counter never
                // reaches it, so only not-taken elements exist.
                1
            }
        }
    }
}

fn collect_sites(
    func: FuncId,
    stmts: &[Stmt],
    sites: &mut Vec<SiteVisits>,
    index: &mut HashMap<(u32, u32), usize>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Branch(b) => {
                index.insert((func.index(), b.offset()), sites.len());
                sites.push(SiteVisits {
                    func,
                    offset: b.offset(),
                    dist: b.dist(),
                    visits: StrideInterval::point(0),
                });
            }
            Stmt::Loop { body, .. } | Stmt::IfArgPositive { body } => {
                collect_sites(func, body, sites, index);
            }
            Stmt::Call { .. } => {}
            Stmt::If {
                branch,
                then_body,
                else_body,
            } => {
                index.insert((func.index(), branch.offset()), sites.len());
                sites.push(SiteVisits {
                    func,
                    offset: branch.offset(),
                    dist: branch.dist(),
                    visits: StrideInterval::point(0),
                });
                collect_sites(func, then_body, sites, index);
                collect_sites(func, else_body, sites, index);
            }
        }
    }
}

impl Eval<'_> {
    fn func(&mut self, func: u32, arg: StrideInterval) -> Summary {
        let key = (func, arg);
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        if self.in_progress.contains(&key) || self.depth >= DEPTH_CAP {
            // Widening: an abstract cycle (or a pathological chain)
            // jumps straight to ⊤ rather than iterating to a fixpoint
            // the interval domain may never reach.
            self.overflowed = true;
            return Summary::top(self.n_sites);
        }
        self.in_progress.insert(key);
        self.depth += 1;
        let body = self.program.function(self.program.func_id(func as usize));
        let summary = self.block(func, arg, body.body());
        self.depth -= 1;
        self.in_progress.remove(&key);
        self.memo.insert(key, summary.clone());
        summary
    }

    fn block(&mut self, func: u32, arg: StrideInterval, stmts: &[Stmt]) -> Summary {
        let mut total = Summary::zero(self.n_sites);
        for stmt in stmts {
            match stmt {
                Stmt::Branch(b) => self.visit_site(&mut total, func, b.offset()),
                Stmt::Loop { trip, body, .. } => self.looped(&mut total, func, arg, *trip, body),
                Stmt::Call { callee, arg: expr } => {
                    self.call(&mut total, callee.index(), arg_interval(*expr, arg));
                }
                Stmt::If {
                    branch,
                    then_body,
                    else_body,
                } => {
                    self.visit_site(&mut total, func, branch.offset());
                    self.cond(&mut total, func, arg, branch.dist(), then_body, else_body);
                }
                Stmt::IfArgPositive { body } => {
                    if arg.hi() > 0 {
                        self.guarded(&mut total, func, arg, body);
                    }
                }
            }
        }
        total
    }

    // One out-of-line function per statement rule, each adding its
    // part to the block's running total: a level of a deep recursion
    // then holds only the frames of the rules it passes through, so
    // `DEPTH_CAP` levels fit a 2 MiB thread stack.

    #[inline(never)]
    fn looped(
        &mut self,
        total: &mut Summary,
        func: u32,
        arg: StrideInterval,
        trip: Trip,
        body: &[Stmt],
    ) {
        let trips = self.trip_interval(trip, arg);
        // Zero-trip loops still emit enter/exit and still open a
        // construct node; their body never runs.
        let iterations = if trips.hi() > 0 {
            self.block(func, arg, body)
                .scale(trips, &mut self.overflowed)
        } else {
            Summary::zero(self.n_sites)
        };
        total.add(
            &iterations.framed(&mut self.overflowed),
            &mut self.overflowed,
        );
    }

    #[inline(never)]
    fn call(&mut self, total: &mut Summary, callee: u32, arg: StrideInterval) {
        let mut call = self.func(callee, arg).framed(&mut self.overflowed);
        call.call_depth = call.call_depth.saturating_add(1);
        total.add(&call, &mut self.overflowed);
    }

    #[inline(never)]
    fn cond(
        &mut self,
        total: &mut Summary,
        func: u32,
        arg: StrideInterval,
        dist: TakenDist,
        then_body: &[Stmt],
        else_body: &[Stmt],
    ) {
        let arm = match taken_set(dist) {
            TakenSet::AlwaysTaken => self.block(func, arg, then_body),
            TakenSet::NeverTaken => self.block(func, arg, else_body),
            TakenSet::Both => {
                let then_s = self.block(func, arg, then_body);
                then_s.join(&self.block(func, arg, else_body))
            }
        };
        total.add(&arm, &mut self.overflowed);
    }

    #[inline(never)]
    fn guarded(&mut self, total: &mut Summary, func: u32, arg: StrideInterval, body: &[Stmt]) {
        let positive = self.block(func, arg.at_least(1), body);
        if arg.lo() >= 1 {
            total.add(&positive, &mut self.overflowed);
        } else {
            // The guard may skip the body entirely.
            let skipped = Summary::zero(self.n_sites);
            total.add(&positive.join(&skipped), &mut self.overflowed);
        }
    }

    fn visit_site(&mut self, total: &mut Summary, func: u32, offset: u32) {
        total.elements = total
            .elements
            .add(StrideInterval::point(1), &mut self.overflowed);
        let idx = self.site_index[&(func, offset)];
        total.visits[idx] = total.visits[idx].add(StrideInterval::point(1), &mut self.overflowed);
    }

    fn trip_interval(&self, trip: Trip, arg: StrideInterval) -> StrideInterval {
        match trip {
            Trip::Fixed(n) => StrideInterval::point(u64::from(n)),
            Trip::Uniform(lo, hi) => StrideInterval::span(u64::from(lo), u64::from(hi)),
            Trip::Arg => arg,
        }
    }
}

fn arg_interval(expr: ArgExpr, caller: StrideInterval) -> StrideInterval {
    match expr {
        ArgExpr::Const(v) => StrideInterval::point(u64::from(v)),
        ArgExpr::Dec => caller.dec(),
        ArgExpr::Half => caller.half(),
        ArgExpr::Draw(lo, hi) => StrideInterval::span(u64::from(lo), u64::from(hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::{workloads::Workload, Interpreter, ProgramBuilder};
    use opd_trace::ExecutionTrace;

    #[test]
    fn stride_arithmetic_holds_its_invariants() {
        let mut of = false;
        let a = StrideInterval::span(2, 10); // {2..10}
        let b = StrideInterval::point(3);
        let sum = a.add(b, &mut of);
        assert_eq!((sum.lo(), sum.hi(), sum.stride()), (5, 13, 1));
        // Fixed trip × exact body: stays exact.
        let six = StrideInterval::point(2).mul(StrideInterval::point(3), &mut of);
        assert_eq!((six.lo(), six.hi(), six.stride()), (6, 6, 0));
        // Uniform(2,4) trips × 2 elements/iteration: {4, 6, 8}.
        let p = StrideInterval::point(2).mul(StrideInterval::span(2, 4), &mut of);
        assert_eq!((p.lo(), p.hi(), p.stride()), (4, 8, 2));
        assert!(p.contains(6));
        assert!(!p.contains(5));
        // Join of two points keeps their difference as the stride.
        let j = StrideInterval::point(3).join(StrideInterval::point(9));
        assert_eq!((j.lo(), j.hi(), j.stride()), (3, 9, 6));
        assert!(!of);
    }

    #[test]
    fn stride_saturates_on_overflow() {
        let mut of = false;
        let big = StrideInterval::point(u64::MAX / 2);
        let r = big.mul(StrideInterval::point(3), &mut of);
        assert!(of);
        assert_eq!(r.hi(), u64::MAX);
    }

    #[test]
    fn fixed_loop_counts_are_exact() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Fixed(7), |l| {
                l.branch(TakenDist::Always);
                l.branch(TakenDist::Alternating);
            });
        });
        let program = b.build().unwrap();
        let a = AbsInt::of(&program);
        assert!(!a.overflowed());
        assert_eq!((a.elements().lo(), a.elements().hi()), (14, 14));
        for site in a.sites() {
            assert_eq!((site.visits.lo(), site.visits.hi()), (7, 7));
        }
        // Always: 1 outcome; Alternating with ≥ 2 visits: 2 outcomes.
        assert_eq!((a.alphabet().lo(), a.alphabet().hi()), (3, 3));
    }

    #[test]
    fn uniform_trips_produce_a_strided_interval() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Uniform(2, 5), |l| {
                l.branch(TakenDist::Bernoulli(0.5));
                l.branch(TakenDist::Bernoulli(0.5));
                l.branch(TakenDist::Bernoulli(0.5));
            });
        });
        let a = AbsInt::of(&b.build().unwrap());
        let e = a.elements();
        assert_eq!((e.lo(), e.hi(), e.stride()), (6, 15, 3));
        assert!(e.contains(9) && !e.contains(10));
    }

    #[test]
    fn guarded_recursion_terminates_without_widening() {
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
        let a = AbsInt::of(&b.entry(main).build().unwrap());
        assert!(!a.overflowed());
        // arg 5 → exactly 6 visits of the branch (args 5,4,3,2,1,0).
        assert_eq!((a.elements().lo(), a.elements().hi()), (6, 6));
    }

    #[test]
    fn unguarded_recursion_widens_to_top() {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        let main = b.declare("main");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.call(rec, ArgExpr::Const(3));
        });
        b.define(main, |f| {
            f.call(rec, ArgExpr::Const(3));
        });
        let a = AbsInt::of(&b.entry(main).build().unwrap());
        assert!(a.overflowed());
        assert_eq!(a.elements().hi(), u64::MAX);
        // The lower bound stays sound (and finite).
        assert!(a.elements().lo() < u64::MAX);
    }

    #[test]
    fn ladders_past_the_depth_cap_saturate_within_a_test_stack() {
        // `arg-1` recursion from 5,000 would recurse 5,001 levels; the
        // evaluation stops at `DEPTH_CAP` on the test thread's stack.
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.if_arg_positive(|g| {
                g.call(rec, ArgExpr::Dec);
            });
        });
        let a = AbsInt::of(&b.entry_arg(5_000).build().unwrap());
        assert!(a.overflowed());
        assert_eq!(a.bounds().branches(), u64::MAX);
        assert!(a.bounds().exceeds_depth_limit());
    }

    #[test]
    fn draw_arguments_widen_the_interval_but_stay_finite() {
        let mut b = ProgramBuilder::new();
        let leaf = b.declare("leaf");
        let main = b.declare("main");
        b.define(leaf, |f| {
            f.repeat(Trip::Arg, |l| {
                l.branch(TakenDist::Always);
            });
        });
        b.define(main, |f| {
            f.call(leaf, ArgExpr::Draw(3, 9));
        });
        let a = AbsInt::of(&b.entry(main).build().unwrap());
        assert!(!a.overflowed());
        assert_eq!((a.elements().lo(), a.elements().hi()), (3, 9));
    }

    #[test]
    fn dynamic_runs_land_inside_the_intervals_for_all_workloads() {
        for w in Workload::ALL {
            let program = w.program(1);
            let a = AbsInt::of(&program);
            assert!(!a.overflowed(), "{w} saturated");
            let mut trace = ExecutionTrace::new();
            Interpreter::new(&program, w.default_seed())
                .run(&mut trace)
                .expect("workloads terminate");
            let emitted = trace.branches().len() as u64;
            assert!(
                a.elements().lo() <= emitted && emitted <= a.elements().hi(),
                "{w}: {emitted} outside [{}, {}]",
                a.elements().lo(),
                a.elements().hi()
            );
            // Per-site dynamic visit counts stay inside their
            // intervals too.
            let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
            for e in trace.branches() {
                *counts
                    .entry((e.site().method().index(), e.site().offset()))
                    .or_insert(0) += 1;
            }
            for site in a.sites() {
                let seen = counts
                    .get(&(site.func.index(), site.offset))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    site.visits.lo() <= seen && seen <= site.visits.hi(),
                    "{w} f{} @{}: {seen} outside [{}, {}]",
                    site.func.index(),
                    site.offset,
                    site.visits.lo(),
                    site.visits.hi()
                );
            }
        }
    }
}
