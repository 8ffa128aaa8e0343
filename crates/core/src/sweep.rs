//! The single-pass shared-window sweep engine.
//!
//! A parameter sweep runs many [`DetectorConfig`]s over one interned
//! trace. The expensive part of each run is *window maintenance* —
//! moving elements through the windows and keeping their per-site
//! counts (see [`WindowPair::push`]) — and it depends only on the
//! window **shape** `(cw, tw, skip)`, never on the model, analyzer, or
//! anchor policy. The engine therefore groups a config grid by shape
//! and, per Constant-TW group, makes **one** scan of the trace: the
//! shared windows advance once per step while each member config
//! evaluates only its cheap residue (memoized model similarity,
//! analyzer judgment, anchor bookkeeping, phase boundaries).
//!
//! # Why sharing is exact (shape-group invariants)
//!
//! With a Constant trailing window and `skip ≤ cw`, window evolution
//! is a pure FIFO over the element stream: once `cw + tw` elements
//! have been consumed, the buffer holds *exactly the last `cw + tw`
//! elements*, independent of any per-config state. A private detector
//! differs from that saturated FIFO in exactly one way: at each phase
//! end it flushes its windows, keeping the last `skip` elements
//! ([`WindowPair::flush_keep`]). But a flushed detector is not
//! *warm* again until its buffer refills to `cw + tw` — which takes
//! `cw + tw − skip` further elements — and a non-warm detector reads
//! nothing from its windows (it reports `T` unconditionally). Once
//! refilled, its buffer again holds exactly the last `cw + tw` stream
//! elements at the same global offset, i.e. it is bit-identical to
//! the never-flushed shared window. So the engine tracks, per member,
//! only the element count at which the member becomes warm again
//! (`warm_from`), and the flush itself never has to happen.
//!
//! The `skip ≤ cw` restriction exists because [`WindowPair::push`]
//! transfers at most one element per push from CW to TW: re-seeding
//! the CW with `skip > cw` elements would leave the CW over capacity
//! while the TW refills, so the private buffer would transiently hold
//! *more* than `cw + tw` elements at warm-up — a state the shared
//! window never visits. Such configs (rare: `full_grid` uses
//! `skip ∈ {1, cw/10, cw}`) simply run on the private path.
//!
//! # Event-driven member scheduling
//!
//! Most member visits cannot change any result: a member that is not
//! warm reports `T` without reading a window, and a member in
//! Transition keeps a fixed threshold (its analyzer statistics only
//! move in a phase). Both shared scans therefore visit only members
//! that can change state, through one schedule:
//!
//! * **Sleeping.** A member sleeps while it is not warm: before the
//!   FIFO warms up, and during the refill after a phase exit
//!   (`consumed < warm_from`). Sleepers wait in a wake queue. Every
//!   sleep is queued at `consumed + refill`, with `refill = cw + tw −
//!   skip` constant per unit and `consumed` non-decreasing, so the
//!   queue is FIFO-ordered and waking is a pop from its front.
//! * **Awake.** Warm members in Transition sit per model in descending
//!   threshold order. The members entering a phase on a step are the
//!   suffix with `sim >= threshold`, so one comparison against the
//!   lowest threshold settles the usual step where nobody enters.
//! * **In phase.** Fixed-threshold members sit per model (and per
//!   phase class) in ascending threshold order: leavers are the suffix
//!   with `!(sim >= threshold)`, and the statistics they would fold in
//!   are never read by a fixed threshold. Running-average members fold
//!   every in-phase value into their threshold, but those that entered
//!   on the same window state (the FIFO, or one phase class) under the
//!   same model on the same step fold the same values in the same
//!   order, so their `(sum, count)` are bit-identical. They form one
//!   *cohort*: one shared `(sum, count)` and the members in ascending
//!   δ. `fl(avg − δ)` is monotone in δ, so a step's leavers are a
//!   prefix, and one division and one check per cohort settle the
//!   usual step where nobody leaves. A leaver copies the cohort's
//!   statistics into its own analyzer, because its Transition
//!   threshold and its wake order read them. Cohorts move whole when
//!   classes coalesce and are never merged.
//!
//! Sorting uses the analyzer's own `sim >= threshold` predicate, so
//! NaN similarities behave exactly as in [`Analyzer::judge`] (a NaN
//! makes every in-phase member leave). Which list holds a member, and
//! in what order, never affects a result: each member's outcome
//! depends only on its own analyzer statistics and the window state it
//! judges.
//!
//! **The cold prefix in one pass.** No member can judge before the
//! FIFO first warms, at the first step boundary `n0 ≥ cw + tw` (or at
//! the trace end, which closes a last partial step). Both scans load
//! `trace[n0 − cw − tw..n0)` straight into the FIFO's TW and CW
//! columns and start the step loop there, so the cold steps cost one
//! pass over the prefix and no per-step work. A unit whose trace is
//! shorter than `cw + tw` returns every member's empty phase list
//! without scanning. (The meter's `steps` and `elements` are closed
//! forms of the trace length and are unaffected.)
//!
//! # Adaptive-TW groups: the forking shared scan
//!
//! An Adaptive-TW config's windows deviate from the pure FIFO only
//! *while the config is inside a phase*: at phase entry it mutates
//! the windows ([`WindowPair::anchor_and_resize`]) and while in phase it
//! suppresses TW eviction, so in-phase window contents depend on the
//! config's own detection history. But outside a phase the same FIFO
//! argument as above applies — in Transition the TW policy never
//! fires (`tw_grows` is false), and after the phase-exit flush the
//! refill path is push-for-push identical to a Constant-TW refill, so
//! the refilled state is again bit-identical to the never-flushed
//! FIFO at the same offset. The engine therefore runs one shared FIFO
//! per adaptive shape group too, and handles phases by **forking**:
//! at a member's phase entry the FIFO state is forked (the kernel's
//! `ForkedWindows::fork`) with the member's anchor and resize applied,
//! and the member judges that *phase class* (advanced with TW growth
//! each step) until its phase ends — at which point the member sleeps
//! until its refill point, exactly like a Constant-TW flush.
//!
//! **Classes own only their TW.** A class's CW is
//! `trace[b..consumed)`. Whenever it is full, `b = consumed − cw` and
//! the CW *is* the FIFO's CW. So a class owns only its TW columns and
//! reads the FIFO's CW counts and bits; each step it adds just the
//! elements leaving the CW to its own TW (an in-phase adaptive TW
//! never evicts), instead of the three per-element column updates of
//! a full window advance. Only a Slide resize, which moves CW elements
//! into the TW, leaves a class with a short CW: the class keeps a
//! private CW while that refills, then reads the FIFO's again. A fork
//! copies only the FIFO's TW columns (plus its CW for a Slide fork
//! that took CW elements), and in rank mode, where no columns are
//! materialized, nothing.
//!
//! **Boundary-key coalescing.** The windows are always contiguous trace
//! slices: a class holds TW = `trace[a..b)` and CW =
//! `trace[b..consumed)`, so its key `(a, b)` determines its whole
//! state and its future. Two classes with equal keys on a step are
//! bit-identical from then on. So a phase entrant computes its
//! post-anchor/resize boundaries in closed form before forking and
//! joins *any* live class with that key — a fork made on the same
//! step, or an older class that has grown into the same boundaries.
//! The live classes are kept in key order, and the order survives
//! every advance: in phase `a` is fixed, and an advance maps `b` to
//! `max(b, consumed − cw)`, which is monotone in `b` (a refilling
//! class's `b` is never passed by a full one's). So an entrant finds
//! its class by binary search, a fork is inserted at its key position,
//! and after each step's class advance one pass over adjacent equal
//! keys merges the classes that converged: the survivor takes the
//! members and the other slot is freed. Convergence is routine: a
//! Slide class whose CW has refilled to capacity meets the Move class
//! of the same anchor. The four `(anchor, resize)` pairs also often
//! coincide at entry (both anchors return index 0 when every TW site
//! also occurs in the CW; Slide equals Move when the anchored TW is at
//! capacity). A class is freed as soon as its last member leaves. In
//! the worst case — every member permanently in a phase of its own —
//! this degrades to one windows-advance per member per step, i.e.
//! parity with private runs; in practice members cluster into few
//! classes and the shared FIFO carries all Transition time.
//!
//! [`SweepEngine::run_unit_metered`] runs these same scans with a
//! meter. After each step's wakes it counts, per window state (the FIFO
//! or a live class) and model, the `n` members judging it: `n` judged
//! steps and one similarity at the kernel's runtime cost plus the
//! judge overhead of the other `n − 1`. On Constant-TW units this
//! equals what `n` private detectors judge; on adaptive units
//! coalesced classes make it lower.
//!
//! Only `skip > cw` configs keep fully private windows (with scratch
//! reuse), for the over-full-CW reason above; they run through the
//! same engine and its work distribution.
//!
//! Mixed-model groups are also exact: a similarity is a pure function
//! of the window contents and the model, so members of different
//! models judge the same windows independently.
//!
//! [`WindowPair::push`]: crate::spec::WindowPair::push
//! [`WindowPair::flush_keep`]: crate::spec::WindowPair::flush_keep
//! [`WindowPair::anchor_and_resize`]: crate::spec::WindowPair::anchor_and_resize
//!
//! # Example
//!
//! ```
//! use opd_core::{DetectorConfig, InternedTrace, SweepEngine};
//! use opd_trace::{MethodId, ProfileElement};
//!
//! let elements: Vec<ProfileElement> = (0..600)
//!     .map(|i| ProfileElement::new(MethodId::new(0), i / 150, true))
//!     .collect();
//! let trace = InternedTrace::from_elements(elements.iter().copied());
//! // Two configs sharing one window shape: one shared scan.
//! let configs = vec![
//!     DetectorConfig::builder().current_window(40).build()?,
//!     DetectorConfig::builder()
//!         .current_window(40)
//!         .model(opd_core::ModelPolicy::WeightedSet)
//!         .build()?,
//! ];
//! let engine = SweepEngine::new(&configs);
//! assert_eq!(engine.units().len(), 1);
//! assert_eq!(engine.total_scans(), 1);
//! let phases = engine.run_all(&trace);
//! assert_eq!(phases.len(), configs.len());
//! # Ok::<(), opd_core::ConfigError>(())
//! ```

use std::collections::{HashMap, VecDeque};

use opd_obs::{MeterObserver, UnitMetrics};

use crate::analyzer::{running_average, Analyzer, AnalyzerPolicy};
use crate::boundary::DetectedPhase;
use crate::config::{ConfigShape, DetectorConfig};
use crate::detector::PhaseDetector;
use crate::intern::InternedTrace;
use crate::kernel::{ForkedWindows, SwarKernelState, SwarWindows};
use crate::model::ModelPolicy;
use crate::window::AnchorPolicy;

/// Error from the fallible sweep entry points
/// ([`SweepEngine::try_run_unit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepError {
    /// The requested unit index does not exist in this plan.
    UnitOutOfRange {
        /// The index the caller asked for.
        unit_index: usize,
        /// How many units the plan actually has.
        units: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SweepError::UnitOutOfRange { unit_index, units } => write!(
                f,
                "sweep unit index {unit_index} out of range: plan has {units} unit(s)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// How a planned [`SweepUnit`] scans the trace (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A same-shape Constant-TW group: one shared FIFO scan.
    SharedConstant,
    /// A same-shape Adaptive-TW group: one shared FIFO scan with
    /// copy-on-phase-entry forks.
    SharedAdaptive,
    /// One private detector run per config (`skip > cw`).
    Private,
}

/// One schedulable piece of a sweep: either a shape group that scans
/// the trace once for all members, or a single private-window config.
#[derive(Debug, Clone)]
pub struct SweepUnit {
    config_indices: Vec<usize>,
    kind: UnitKind,
}

impl SweepUnit {
    /// Indices (into the engine's config slice) this unit covers.
    #[must_use]
    pub fn config_indices(&self) -> &[usize] {
        &self.config_indices
    }

    /// How this unit scans the trace.
    #[must_use]
    pub fn kind(&self) -> UnitKind {
        self.kind
    }

    /// `true` if this unit advances one shared window for all members.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.kind != UnitKind::Private
    }

    /// Trace scans this unit performs (1 for shared groups).
    #[must_use]
    pub fn scans(&self) -> usize {
        if self.is_shared() {
            1
        } else {
            self.config_indices.len()
        }
    }
}

/// Per-thread reusable state: one [`PhaseDetector`] for private-path
/// runs and the shared scans' kernel columns, both sized once per
/// trace and reused across configs.
#[derive(Debug, Default)]
pub struct SweepScratch {
    detector: Option<PhaseDetector>,
    /// SWAR-kernel state for the shared scan path (the private path's
    /// lives inside `detector`); like the detector, its per-site
    /// allocations persist across units.
    shared_swar: SwarKernelState,
    site_capacity: usize,
}

impl SweepScratch {
    /// An empty scratch; allocations build up on first use.
    #[must_use]
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// A scratch whose window tables are pre-sized for `n_sites`
    /// distinct elements (typically a static alphabet bound from
    /// `opd-analyze`), so runs over traces with at most that many
    /// sites never grow them mid-scan.
    #[must_use]
    pub fn with_site_capacity(n_sites: usize) -> Self {
        SweepScratch {
            detector: None,
            shared_swar: SwarKernelState::default(),
            site_capacity: n_sites,
        }
    }

    fn detector_for(&mut self, config: DetectorConfig) -> &mut PhaseDetector {
        let detector = match &mut self.detector {
            Some(d) => {
                d.reconfigure(config);
                d
            }
            slot @ None => slot.insert(PhaseDetector::new(config)),
        };
        detector.reserve_sites(self.site_capacity);
        detector
    }

    /// Starts a group's shared FIFO over `trace` in the scratch's
    /// kernel columns.
    fn shared_fifo<'a>(
        &'a mut self,
        members: &[Member],
        trace: &'a InternedTrace,
    ) -> SwarWindows<'a> {
        let first = &members[0].config;
        let sites = (trace.distinct_count() as usize).max(self.site_capacity);
        self.shared_swar.ensure_sites(sites);
        SwarWindows::begin(
            &mut self.shared_swar,
            trace,
            first.skip_factor(),
            first.current_window(),
            first.trailing_window(),
        )
    }
}

/// A planned sweep of one config grid: shape groups for Constant-TW
/// configs, private units for the rest (see module docs).
///
/// The engine is scan-order deterministic: results depend only on the
/// configs and the trace, never on unit scheduling, so callers may run
/// units across threads (each unit's results carry config indices).
#[derive(Debug)]
pub struct SweepEngine<'a> {
    configs: &'a [DetectorConfig],
    units: Vec<SweepUnit>,
}

impl<'a> SweepEngine<'a> {
    /// Plans a sweep over `configs`: groups shareable configs by
    /// window shape (first-seen order) and gives every other config a
    /// private unit.
    #[must_use]
    pub fn new(configs: &'a [DetectorConfig]) -> Self {
        // Constant-TW and Adaptive-TW groups are keyed separately:
        // identical shapes under different TW policies cannot share a
        // scan (the adaptive scan forks, the constant one never does).
        let mut constant_group: HashMap<ConfigShape, usize> = HashMap::new();
        let mut adaptive_group: HashMap<ConfigShape, usize> = HashMap::new();
        let mut units: Vec<SweepUnit> = Vec::new();
        for (i, config) in configs.iter().enumerate() {
            let group = if config.shares_windows() {
                Some((&mut constant_group, UnitKind::SharedConstant))
            } else if config.shares_windows_adaptively() {
                Some((&mut adaptive_group, UnitKind::SharedAdaptive))
            } else {
                None
            };
            match group {
                Some((group_of, kind)) => {
                    let unit = *group_of.entry(config.shape()).or_insert_with(|| {
                        units.push(SweepUnit {
                            config_indices: Vec::new(),
                            kind,
                        });
                        units.len() - 1
                    });
                    units[unit].config_indices.push(i);
                }
                None => units.push(SweepUnit {
                    config_indices: vec![i],
                    kind: UnitKind::Private,
                }),
            }
        }
        SweepEngine { configs, units }
    }

    /// The configs this engine plans over.
    #[must_use]
    pub fn configs(&self) -> &'a [DetectorConfig] {
        self.configs
    }

    /// The planned units, in deterministic planning order.
    #[must_use]
    pub fn units(&self) -> &[SweepUnit] {
        &self.units
    }

    /// Total trace scans the plan performs; a naive sweep performs
    /// one per config.
    #[must_use]
    pub fn total_scans(&self) -> usize {
        self.units.iter().map(SweepUnit::scans).sum()
    }

    /// Runs one planned unit over `trace`, returning `(config index,
    /// detected phases)` per member. `scratch` carries reusable
    /// allocations across calls on the same thread.
    ///
    /// # Panics
    ///
    /// Panics if `unit_index` is out of range;
    /// [`Self::try_run_unit`] is the non-panicking form.
    #[must_use]
    pub fn run_unit(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
    ) -> Vec<(usize, Vec<DetectedPhase>)> {
        self.try_run_unit(unit_index, trace, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one planned unit over `trace`, returning
    /// [`SweepError::UnitOutOfRange`] instead of panicking when
    /// `unit_index` does not name a planned unit — the entry point
    /// for callers driving the engine from external indices
    /// (checkpoint resume, work queues).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::UnitOutOfRange`] if `unit_index >=
    /// self.units().len()`.
    pub fn try_run_unit(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
    ) -> Result<Vec<(usize, Vec<DetectedPhase>)>, SweepError> {
        self.run_unit_with(unit_index, trace, scratch, &mut ())
    }

    /// [`run_unit`](Self::run_unit) plus accounting: accumulates what
    /// the unit actually did (scans, steps, judged steps, comparison
    /// ops, elements) into `metrics`, for cross-checking against the
    /// static cost model's bounds. Results are identical to
    /// `run_unit`'s: both are instances of one scan body.
    ///
    /// # Panics
    ///
    /// Panics with [`SweepError::UnitOutOfRange`]'s message if
    /// `unit_index` is out of range.
    #[must_use]
    pub fn run_unit_metered(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
        metrics: &mut UnitMetrics,
    ) -> Vec<(usize, Vec<DetectedPhase>)> {
        self.run_unit_with(unit_index, trace, scratch, metrics)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one unit body: [`try_run_unit`](Self::try_run_unit) is its
    /// `()` instance, [`run_unit_metered`](Self::run_unit_metered) its
    /// [`UnitMetrics`] instance.
    fn run_unit_with<M: Meter>(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
        meter: &mut M,
    ) -> Result<Vec<(usize, Vec<DetectedPhase>)>, SweepError> {
        let unit = self
            .units
            .get(unit_index)
            .ok_or(SweepError::UnitOutOfRange {
                unit_index,
                units: self.units.len(),
            })?;
        let indices = &unit.config_indices;
        Ok(match unit.kind {
            UnitKind::SharedConstant => {
                let members = group_members(self.configs, indices, DetectorConfig::shares_windows);
                let fifo = &mut scratch.shared_fifo(&members, trace);
                run_shared_group_scan(fifo, members, trace, meter)
            }
            UnitKind::SharedAdaptive => {
                let members = group_members(
                    self.configs,
                    indices,
                    DetectorConfig::shares_windows_adaptively,
                );
                let fifo = &mut scratch.shared_fifo(&members, trace);
                run_shared_adaptive_scan(fifo, members, trace, meter)
            }
            UnitKind::Private => unit
                .config_indices
                .iter()
                .map(|&i| {
                    let detector = scratch.detector_for(self.configs[i]);
                    if M::ACTIVE {
                        let mut observer = MeterObserver::new();
                        let _ = detector.run_interned_phases_observed(trace, &mut observer);
                        meter.add(&UnitMetrics {
                            scans: 1,
                            elements: trace.len() as u64,
                            ..observer.metrics
                        });
                    } else {
                        let _ = detector.run_interned_phases_only(trace);
                    }
                    (i, detector.take_phases())
                })
                .collect(),
        })
    }

    /// Runs the whole plan sequentially, returning phases in config
    /// order.
    #[must_use]
    pub fn run_all(&self, trace: &InternedTrace) -> Vec<Vec<DetectedPhase>> {
        let mut scratch = SweepScratch::new();
        let mut out: Vec<Vec<DetectedPhase>> = vec![Vec::new(); self.configs.len()];
        for unit_index in 0..self.units.len() {
            for (config_index, phases) in self.run_unit(unit_index, trace, &mut scratch) {
                out[config_index] = phases;
            }
        }
        out
    }
}

/// Where a unit run accounts its work: `()` for the plain run, whose
/// `ACTIVE = false` compiles every count away, and [`UnitMetrics`] for
/// the metered one.
trait Meter {
    /// Whether the scans count anything at all.
    const ACTIVE: bool;

    /// Adds one scan's (or one private run's) totals.
    fn add(&mut self, work: &UnitMetrics);
}

impl Meter for () {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn add(&mut self, _work: &UnitMetrics) {}
}

impl Meter for UnitMetrics {
    const ACTIVE: bool = true;

    fn add(&mut self, work: &UnitMetrics) {
        self.merge(work);
    }
}

/// Counts `n` members judging one similarity under model `slot` on one
/// step, on a window state of the `fifo`'s run (the FIFO itself or one
/// of its phase classes, which share its runtime cost): the first
/// judgment pays the kernel's full runtime comparison cost, every
/// further one only the analyzer's judge overhead, so a shared scan
/// never exceeds the static per-member bound.
fn tally_judges(tally: &mut UnitMetrics, fifo: &SwarWindows<'_>, slot: usize, n: usize) {
    if n > 0 {
        tally.judged_steps += n as u64;
        tally.compare_ops += fifo.judge_ops(MODELS[slot]) + 2 * (n as u64 - 1);
    }
}

/// The totals of one shared scan over `trace` in steps of `skip`,
/// before any judgment is counted.
fn scan_tally(trace: &InternedTrace, skip: usize) -> UnitMetrics {
    UnitMetrics {
        scans: 1,
        steps: trace.len().div_ceil(skip) as u64,
        elements: trace.len() as u64,
        ..UnitMetrics::default()
    }
}

/// The models in [`model_slot`] order.
const MODELS: [ModelPolicy; 3] = [
    ModelPolicy::UnweightedSet,
    ModelPolicy::WeightedSet,
    ModelPolicy::Pearson,
];

fn model_slot(model: ModelPolicy) -> usize {
    match model {
        ModelPolicy::UnweightedSet => 0,
        ModelPolicy::WeightedSet => 1,
        ModelPolicy::Pearson => 2,
    }
}

fn anchor_slot(policy: AnchorPolicy) -> usize {
    match policy {
        AnchorPolicy::RightmostNoisy => 0,
        AnchorPolicy::LeftmostNonNoisy => 1,
    }
}

/// Counts of the event-driven branches the shared scans take, so unit
/// tests can show that the branch they target actually fired.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct ScanEvents {
    /// Elements the cold-prefix pass loaded into a FIFO.
    prefix_elements: u64,
    /// Members moved from the sleep queue into the judged set.
    wakes: u64,
    /// Phase entries on the very step a member became warm again.
    entries_at_warm_from: u64,
    /// Phase entries that joined a class alive before this step.
    joins: u64,
    /// Classes merged into a class with the same boundaries.
    merges: u64,
    /// Cohort judgments in which some members left and some stayed.
    cohort_splits: u64,
    /// Class judgments that read the FIFO's CW (the class's CW is
    /// full).
    shared_cw_steps: u64,
}

#[cfg(test)]
thread_local! {
    static SCAN_EVENTS: std::cell::Cell<ScanEvents> = std::cell::Cell::new(ScanEvents::default());
}

/// Adds one (or `n`) to a [`ScanEvents`] counter; compiles to nothing
/// outside unit tests.
macro_rules! note {
    ($field:ident) => {
        note!($field, 1)
    };
    ($field:ident, $n:expr) => {
        #[cfg(test)]
        SCAN_EVENTS.with(|events| {
            let mut e = events.get();
            e.$field += $n as u64;
            events.set(e);
        });
    };
}

/// Starts a shared scan at its first warm step. No member can judge
/// before the FIFO warms, at the first step boundary `n0 ≥ cw + tw`
/// (the trace end closes a last, partial step), so the cold prefix is
/// loaded into the FIFO in one pass. Returns the `(start, end)` offsets
/// of that step, or `None` if the trace is shorter than `cw + tw` and
/// no member ever judges.
fn warm_start(
    fifo: &mut SwarWindows<'_>,
    config: &DetectorConfig,
    len: usize,
) -> Option<(u64, u64)> {
    let (skip, windows) = (
        config.skip_factor(),
        config.current_window() + config.trailing_window(),
    );
    let n0 = windows.next_multiple_of(skip).min(len);
    if n0 < windows {
        return None;
    }
    fifo.warm_start(n0);
    note!(prefix_elements, n0);
    Some((((n0 - 1) / skip * skip) as u64, n0 as u64))
}

/// A member config's cheap residue state within a shared scan.
struct Member {
    config_index: usize,
    config: DetectorConfig,
    analyzer: Analyzer,
    /// Element count from which this member's (virtual) private
    /// windows are full again after its last phase-exit flush; warm
    /// iff the shared FIFO is warm and `consumed >= warm_from`.
    warm_from: u64,
    phases: Vec<DetectedPhase>,
}

impl Member {
    /// Phase start: opens a phase. The analyzer statistics are not
    /// reset here: a fixed threshold reads none, and a running-average
    /// member's statistics restart in the cohort it joins, which hands
    /// them to the member when it leaves.
    fn open_phase(&mut self, start: u64, anchored_start: u64) {
        self.phases.push(DetectedPhase {
            start,
            anchored_start,
            end: None,
        });
    }

    /// Phase end: a private detector would flush its windows here;
    /// tracking the refill point `warm_from` is equivalent and keeps
    /// the scan shared.
    fn close_phase(&mut self, end: u64, warm_from: u64) {
        self.warm_from = warm_from;
        if let Some(open) = self.phases.last_mut() {
            open.end = Some(end);
        }
    }
}

/// Builds the member residue states of a shared group and checks the
/// shared-path invariants: the planner only groups configs that pass
/// `shareable` and have identical shape, and sharing is exact only
/// when a flush's kept elements fit in the CW (`skip <= cw`, module
/// docs).
fn group_members(
    configs: &[DetectorConfig],
    member_indices: &[usize],
    shareable: fn(&DetectorConfig) -> bool,
) -> Vec<Member> {
    let first = &configs[member_indices[0]];
    let (cw, tw, skip) = (
        first.current_window(),
        first.trailing_window(),
        first.skip_factor(),
    );
    debug_assert!(skip >= 1 && cw >= 1 && tw >= 1, "windows have capacity");
    debug_assert!(skip <= cw, "shared scan requires skip <= cw");
    debug_assert!(
        member_indices.iter().all(|&i| {
            shareable(&configs[i])
                && configs[i].current_window() == cw
                && configs[i].trailing_window() == tw
                && configs[i].skip_factor() == skip
        }),
        "shared group members must be shareable and same-shape"
    );
    member_indices
        .iter()
        .map(|&i| Member {
            config_index: i,
            config: configs[i],
            analyzer: Analyzer::new(configs[i].analyzer()),
            warm_from: 0,
            phases: Vec::new(),
        })
        .collect()
}

/// Closes every phase still open at the end of the trace and returns
/// each member's phases under its config index.
fn finish(members: Vec<Member>, consumed: u64) -> Vec<(usize, Vec<DetectedPhase>)> {
    members
        .into_iter()
        .map(|mut m| {
            if let Some(open) = m.phases.last_mut() {
                if open.end.is_none() {
                    open.end = Some(consumed);
                }
            }
            (m.config_index, m.phases)
        })
        .collect()
}

/// The member schedule both event-driven scans drive (module docs).
/// A member that is not warm cannot change state — it reports `T`
/// without reading any window — so it sleeps outside the per-step
/// loop until its refill point.
struct Schedule {
    /// Warm members in Transition, per model slot, as `(threshold,
    /// member)` in descending threshold order. A member's threshold
    /// is fixed while it is in Transition (statistics only change in
    /// a phase), so the members entering on a step are exactly a
    /// suffix of the list.
    awake: [Vec<(f64, usize)>; 3],
    /// Sleeping members in wake order. A member falls asleep at
    /// `consumed + refill`, with `refill` constant per unit and
    /// `consumed` non-decreasing, so appending keeps the queue sorted
    /// by `warm_from`.
    asleep: VecDeque<usize>,
    /// Scratch: the awake members that entered a phase this step.
    entered: Vec<usize>,
}

impl Schedule {
    /// Every member asleep: none is warm before the FIFO is.
    fn new(members: usize) -> Self {
        Schedule {
            awake: Default::default(),
            asleep: (0..members).collect(),
            entered: Vec::new(),
        }
    }

    /// Closes `members[i]`'s phase at `end` and puts it to sleep until
    /// it is warm again at `warm_from`.
    fn exit_phase(&mut self, members: &mut [Member], i: usize, end: u64, warm_from: u64) {
        debug_assert!(
            self.asleep
                .back()
                .map_or(true, |&j| members[j].warm_from <= warm_from),
            "sleep queue must stay in wake order"
        );
        members[i].close_phase(end, warm_from);
        self.asleep.push_back(i);
    }

    /// Wakes every sleeping member that is warm again by `consumed`.
    /// Only called once the FIFO is warm; the FIFO is never flushed,
    /// so it stays warm.
    fn wake(&mut self, members: &[Member], consumed: u64) {
        while let Some(&i) = self.asleep.front() {
            if members[i].warm_from > consumed {
                break;
            }
            self.asleep.pop_front();
            let threshold = members[i].analyzer.effective_threshold();
            insert_sorted(
                &mut self.awake[model_slot(members[i].config.model())],
                (threshold, i),
                std::cmp::Ordering::is_gt,
            );
            note!(wakes);
        }
    }

    /// Whether some awake member judges the FIFO under model `slot`.
    fn needs(&self, slot: usize) -> bool {
        !self.awake[slot].is_empty()
    }

    /// Moves every awake member that enters a phase on this step's
    /// FIFO similarities from `awake` to `entered`. A member enters
    /// iff `sim >= threshold` — the analyzer's own predicate, so a NaN
    /// similarity enters nobody — which in descending threshold order
    /// holds on a suffix; one check of the lowest threshold settles
    /// the usual step where nobody enters.
    fn judge_awake(&mut self, sims: &[f64; 3]) {
        self.entered.clear();
        for (awake, &sim) in self.awake.iter_mut().zip(sims) {
            if awake.last().is_some_and(|&(lowest, _)| meets(sim, lowest)) {
                let stay = awake.partition_point(|&(t, _)| !meets(sim, t));
                self.entered.extend(awake[stay..].iter().map(|&(_, i)| i));
                awake.truncate(stay);
            }
        }
    }
}

/// [`Analyzer::judge`]'s predicate: `sim` is in phase against threshold
/// `t` iff `sim >= t`, so a NaN similarity never is. Sorted judging
/// must use exactly this form to stay bit-identical.
fn meets(sim: f64, t: f64) -> bool {
    sim >= t
}

/// Inserts `entry` into the sorted `list` right after the leading run
/// of elements whose threshold `t` has `before(t.total_cmp(&entry.0))`
/// (`is_gt` for a descending list, `is_le` for an ascending one).
fn insert_sorted(
    list: &mut Vec<(f64, usize)>,
    entry: (f64, usize),
    before: fn(std::cmp::Ordering) -> bool,
) {
    let pos = list.partition_point(|&(t, _)| before(t.total_cmp(&entry.0)));
    list.insert(pos, entry);
}

/// The in-phase members judging one window state under one model.
#[derive(Default)]
struct PhaseJudges {
    /// Fixed-threshold members as `(threshold, member)`, ascending. A
    /// member stays iff `sim >= threshold`, so the leavers are a
    /// suffix, and the statistics it would fold in are never read by
    /// a fixed threshold: a step where nobody leaves costs one check.
    fixed: Vec<(f64, usize)>,
    /// Running-average members, by cohort.
    cohorts: Vec<Cohort>,
}

/// Running-average members that entered a phase on the same window
/// state under the same model on the same step. They fold the same
/// similarities in the same order, so their statistics are
/// bit-identical and they differ only in `delta`: the cohort keeps one
/// `(sum, count)` for all of them. A cohort moves whole when its class
/// coalesces and is never merged with another.
struct Cohort {
    /// The start offset of the step the members entered on.
    entered: u64,
    sum: f64,
    count: u64,
    /// `(delta, member)` in ascending delta.
    members: Vec<(f64, usize)>,
}

impl Cohort {
    /// Judges every member against `sim`; returns whether any stays.
    /// `fl(avg − δ)` is monotone in δ, so in ascending-δ order the
    /// leavers (`!(sim >= avg − δ)`, the analyzer's own predicate, so a
    /// NaN similarity makes everyone leave) are a prefix, and one check
    /// of the first member settles the usual step where nobody leaves.
    /// A leaver takes the cohort's statistics into its own analyzer:
    /// its Transition threshold and its wake order read them.
    fn judge(
        &mut self,
        members: &mut [Member],
        sched: &mut Schedule,
        sim: f64,
        step_start: u64,
        warm_from: u64,
    ) -> bool {
        let avg = running_average(self.sum, self.count);
        if !meets(sim, avg - self.members[0].0) {
            let leave = self
                .members
                .partition_point(|&(delta, _)| !meets(sim, avg - delta));
            for &(_, i) in &self.members[..leave] {
                members[i].analyzer.set_stats((self.sum, self.count));
                sched.exit_phase(members, i, step_start, warm_from);
            }
            if leave == self.members.len() {
                self.members.clear();
                return false;
            }
            note!(cohort_splits);
            self.members.drain(..leave);
        }
        // The same fold as `Analyzer::update`.
        self.sum += sim;
        self.count += 1;
        true
    }
}

impl PhaseJudges {
    fn is_empty(&self) -> bool {
        self.fixed.is_empty() && self.cohorts.is_empty()
    }

    fn len(&self) -> usize {
        self.fixed.len() + self.cohorts.iter().map(|c| c.members.len()).sum::<usize>()
    }

    /// Adds `members[i]`, which has just entered a phase on the step
    /// starting at `step_start`. A running-average member joins the
    /// cohort of this step's earlier entrants, if any.
    fn push(&mut self, members: &[Member], i: usize, step_start: u64) {
        match members[i].analyzer.policy() {
            AnalyzerPolicy::Threshold(t) => {
                insert_sorted(&mut self.fixed, (t, i), std::cmp::Ordering::is_le);
            }
            AnalyzerPolicy::Average { delta } => {
                if self
                    .cohorts
                    .last()
                    .map_or(true, |c| c.entered != step_start)
                {
                    self.cohorts.push(Cohort {
                        entered: step_start,
                        sum: 0.0,
                        count: 0,
                        members: Vec::new(),
                    });
                }
                let cohort = self.cohorts.last_mut().expect("pushed above");
                insert_sorted(&mut cohort.members, (delta, i), std::cmp::Ordering::is_le);
            }
        }
    }

    /// Moves every member of `other` here, leaving it empty. Cohorts
    /// move whole.
    fn absorb(&mut self, other: &mut PhaseJudges) {
        self.fixed.append(&mut other.fixed);
        self.fixed.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        self.cohorts.append(&mut other.cohorts);
    }

    /// Judges every member against `sim`: members that stay fold the
    /// value into their statistics, members that leave go to sleep
    /// until `warm_from`.
    fn judge(
        &mut self,
        members: &mut [Member],
        sched: &mut Schedule,
        sim: f64,
        step_start: u64,
        warm_from: u64,
    ) {
        if self
            .fixed
            .last()
            .is_some_and(|&(highest, _)| !meets(sim, highest))
        {
            let stay = self.fixed.partition_point(|&(t, _)| meets(sim, t));
            for &(_, i) in &self.fixed[stay..] {
                sched.exit_phase(members, i, step_start, warm_from);
            }
            self.fixed.truncate(stay);
        }
        self.cohorts
            .retain_mut(|cohort| cohort.judge(members, sched, sim, step_start, warm_from));
    }
}

/// One scan of `trace` evaluating every member of a same-shape
/// Constant-TW group against the shared FIFO (see the module docs for
/// the exactness argument), event-driven: only warm members are
/// visited, each judging the per-model similarity computed once per
/// step. An active `meter` counts every warm member as judging it.
fn run_shared_group_scan<M: Meter>(
    windows: &mut SwarWindows<'_>,
    mut members: Vec<Member>,
    trace: &InternedTrace,
    meter: &mut M,
) -> Vec<(usize, Vec<DetectedPhase>)> {
    let first = members[0].config;
    let skip = first.skip_factor();
    // After a flush keeps `skip` elements, a private window is full
    // (warm) again `cw + tw - skip` elements later.
    let refill = (first.current_window() + first.trailing_window() - skip) as u64;
    let mut tally = scan_tally(trace, skip);
    let Some((mut step_start, mut consumed)) = warm_start(windows, &first, trace.len()) else {
        meter.add(&tally);
        return finish(members, trace.len() as u64);
    };
    let mut steps = trace.ids()[consumed as usize..].chunks(skip);
    let mut sched = Schedule::new(members.len());
    // Members in a phase, per model slot. With a Constant TW their
    // windows are the shared FIFO too.
    let mut in_phase: [PhaseJudges; 3] = Default::default();
    loop {
        sched.wake(&members, consumed);
        if M::ACTIVE {
            for (slot, judges) in in_phase.iter().enumerate() {
                let n = sched.awake[slot].len() + judges.len();
                tally_judges(&mut tally, windows, slot, n);
            }
        }
        let mut sims = [0.0f64; 3];
        for (slot, sim) in sims.iter_mut().enumerate() {
            if sched.needs(slot) || !in_phase[slot].is_empty() {
                *sim = windows.similarity(MODELS[slot]);
            }
        }
        for (judges, &sim) in in_phase.iter_mut().zip(&sims) {
            judges.judge(&mut members, &mut sched, sim, step_start, consumed + refill);
        }
        sched.judge_awake(&sims);
        // Phase starts anchor against the shared windows (a Constant
        // TW never resizes), once per anchor policy per step.
        let mut anchor_memo: [Option<usize>; 2] = [None; 2];
        for &i in &sched.entered {
            let m = &mut members[i];
            if m.warm_from == consumed {
                note!(entries_at_warm_from);
            }
            let anchor = m.config.anchor();
            let anchor_idx = *anchor_memo[anchor_slot(anchor)]
                .get_or_insert_with(|| windows.anchor_index(anchor));
            m.open_phase(step_start, windows.offset_of_index(anchor_idx));
            in_phase[model_slot(m.config.model())].push(&members, i, step_start);
        }
        let Some(chunk) = steps.next() else { break };
        windows.advance(chunk, false);
        step_start = consumed;
        consumed += chunk.len() as u64;
    }
    meter.add(&tally);
    finish(members, consumed)
}

/// One forked window state shared by every in-phase member whose
/// windows have the same boundaries. The windows are contiguous trace
/// slices — TW = `trace[a..b)`, CW = `trace[b..consumed)` — so the
/// key `(a, b)` determines the whole state and its future.
#[derive(Default)]
struct PhaseClass {
    windows: ForkedWindows,
    /// The class's members, per model slot.
    members: [PhaseJudges; 3],
    /// The start offset of the step the class was forked on.
    #[cfg(test)]
    forked: u64,
}

/// Merges classes whose boundaries converged this step (for example
/// a Slide class whose CW has refilled to capacity, meeting the Move
/// class of the same anchor): the survivor takes the members, the
/// other slot is freed. Equal keys mean bit-identical window states.
///
/// `live` is in key order and stays so across class advances: in phase
/// `a` is fixed, and an advance maps `b` to `max(b, consumed − cw)`,
/// which is monotone in `b`. So equal keys sit next to each other.
fn coalesce_classes(
    classes: &mut [PhaseClass],
    live: &mut Vec<usize>,
    free: &mut Vec<usize>,
    fifo: &SwarWindows<'_>,
) {
    let key = |c: usize| classes[c].windows.key(fifo);
    debug_assert!(
        live.windows(2).all(|w| key(w[0]) <= key(w[1])),
        "live classes must stay in key order"
    );
    let mut kept = 0;
    for r in 0..live.len() {
        let c = live[r];
        if kept > 0 && classes[live[kept - 1]].windows.key(fifo) == classes[c].windows.key(fifo) {
            let into = live[kept - 1];
            for slot in 0..MODELS.len() {
                let mut moved = std::mem::take(&mut classes[c].members[slot]);
                classes[into].members[slot].absorb(&mut moved);
                // Hand the emptied lists back so the slot keeps their
                // allocations for reuse.
                classes[c].members[slot] = moved;
            }
            free.push(c);
            note!(merges);
        } else {
            live[kept] = c;
            kept += 1;
        }
    }
    live.truncate(kept);
}

/// One scan of `trace` evaluating every member of a same-shape
/// Adaptive-TW group against a shared FIFO with copy-on-phase-entry
/// forks (see the module docs for the exactness argument): one FIFO
/// advance plus one TW update per live phase class per step. Awake
/// members judge the FIFO, in-phase members their class; sleeping
/// members are not visited. An active `meter` counts one similarity
/// per window state and model that some member judges.
fn run_shared_adaptive_scan<M: Meter>(
    fifo: &mut SwarWindows<'_>,
    mut members: Vec<Member>,
    trace: &InternedTrace,
    meter: &mut M,
) -> Vec<(usize, Vec<DetectedPhase>)> {
    let first = members[0].config;
    let skip = first.skip_factor();
    let refill = (first.current_window() + first.trailing_window() - skip) as u64;
    let mut tally = scan_tally(trace, skip);
    let Some((mut step_start, mut consumed)) = warm_start(fifo, &first, trace.len()) else {
        meter.add(&tally);
        return finish(members, trace.len() as u64);
    };
    let mut steps = trace.ids()[consumed as usize..].chunks(skip);
    let mut sched = Schedule::new(members.len());
    // Phase classes, with freed slots recycled (allocations and all)
    // so the table stays at the peak number of *live* classes. `live`
    // holds the live slots in key order.
    let mut classes: Vec<PhaseClass> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    loop {
        if live.len() > 1 {
            coalesce_classes(&mut classes, &mut live, &mut free, fifo);
        }
        sched.wake(&members, consumed);
        if M::ACTIVE {
            for (slot, awake) in sched.awake.iter().enumerate() {
                tally_judges(&mut tally, fifo, slot, awake.len());
            }
            for &c in &live {
                for (slot, judges) in classes[c].members.iter().enumerate() {
                    tally_judges(&mut tally, fifo, slot, judges.len());
                }
            }
        }
        for &c in &live {
            let class = &mut classes[c];
            if class.windows.reads_fifo_cw(fifo) {
                note!(shared_cw_steps);
            }
            for (slot, judges) in class.members.iter_mut().enumerate() {
                if !judges.is_empty() {
                    let sim = class.windows.similarity(fifo, MODELS[slot]);
                    judges.judge(&mut members, &mut sched, sim, step_start, consumed + refill);
                }
            }
        }
        let mut sims = [0.0f64; 3];
        for (slot, sim) in sims.iter_mut().enumerate() {
            if sched.needs(slot) {
                *sim = fifo.similarity(MODELS[slot]);
            }
        }
        sched.judge_awake(&sims);
        // Phase start: fork the FIFO and anchor/resize the fork —
        // unless a live class already has the resulting boundaries,
        // computed here in closed form. The four `(anchor, resize)`
        // pairs routinely coincide: both anchors return index 0 when
        // every TW site also occurs in the CW, and Slide equals Move
        // when the anchored TW is already at capacity.
        let mut anchor_memo: [Option<usize>; 2] = [None; 2];
        for &i in &sched.entered {
            let m = &mut members[i];
            if m.warm_from == consumed {
                note!(entries_at_warm_from);
            }
            let anchor = m.config.anchor();
            let anchor_idx =
                *anchor_memo[anchor_slot(anchor)].get_or_insert_with(|| fifo.anchor_index(anchor));
            let key = fifo.anchored_key(anchor_idx, m.config.resize());
            let class_idx = match live.binary_search_by_key(&key, |&c| classes[c].windows.key(fifo))
            {
                Ok(pos) => {
                    #[cfg(test)]
                    if classes[live[pos]].forked < step_start {
                        note!(joins);
                    }
                    live[pos]
                }
                Err(pos) => {
                    let class_idx = free.pop().unwrap_or_else(|| {
                        classes.push(PhaseClass::default());
                        classes.len() - 1
                    });
                    let class = &mut classes[class_idx];
                    class.windows.fork(fifo, anchor_idx, m.config.resize());
                    debug_assert_eq!(class.windows.key(fifo), key);
                    #[cfg(test)]
                    {
                        class.forked = step_start;
                    }
                    live.insert(pos, class_idx);
                    class_idx
                }
            };
            m.open_phase(step_start, fifo.offset_of_index(anchor_idx));
            let slot = model_slot(m.config.model());
            classes[class_idx].members[slot].push(&members, i, step_start);
        }
        // A class is freed as soon as its last member leaves.
        live.retain(|&c| {
            let empty = classes[c].members.iter().all(PhaseJudges::is_empty);
            if empty {
                free.push(c);
            }
            !empty
        });
        let Some(chunk) = steps.next() else { break };
        // Members still in a phase push this step's elements with TW
        // growth (they were in Phase when the step began), so every
        // class catches up before the next judging, as the FIFO does.
        fifo.advance(chunk, false);
        for &c in &live {
            classes[c].windows.catch_up(fifo);
        }
        step_start = consumed;
        consumed += chunk.len() as u64;
    }
    meter.add(&tally);
    finish(members, consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerPolicy;
    use crate::boundary::{anchored_intervals, detected_intervals};
    use crate::window::{AnchorPolicy, ResizePolicy, TwPolicy};
    use opd_trace::{MethodId, ProfileElement};

    fn block_trace(blocks: u32, block_len: u32, sites_per_block: u32) -> InternedTrace {
        let elements = (0..blocks).flat_map(move |b| {
            (0..block_len).map(move |i| {
                ProfileElement::new(
                    MethodId::new(0),
                    b * sites_per_block + i % sites_per_block,
                    true,
                )
            })
        });
        InternedTrace::from_elements(elements)
    }

    fn reference(config: DetectorConfig, trace: &InternedTrace) -> Vec<DetectedPhase> {
        let mut d = PhaseDetector::new(config);
        let _ = d.run_interned(trace);
        d.take_phases()
    }

    fn mixed_grid() -> Vec<DetectorConfig> {
        let mut configs = Vec::new();
        for cw in [8usize, 16] {
            for skip in [1usize, 3, 8] {
                for model in ModelPolicy::ALL_EXTENDED {
                    for analyzer in [
                        AnalyzerPolicy::Threshold(0.5),
                        AnalyzerPolicy::Threshold(0.9),
                        AnalyzerPolicy::Average { delta: 0.2 },
                    ] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(cw)
                                .trailing_window(cw)
                                .skip_factor(skip)
                                .model(model)
                                .analyzer(analyzer)
                                .build()
                                .unwrap(),
                        );
                    }
                }
            }
        }
        // Adaptive configs: the forking shared-scan path. Spreading
        // models, analyzers, and both policy pairs makes members
        // enter and leave phases on different steps, exercising
        // same-step class sharing, divergent class evolution, class
        // retirement, and slot recycling.
        for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
            for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                for model in ModelPolicy::ALL_EXTENDED {
                    for analyzer in [
                        AnalyzerPolicy::Threshold(0.3),
                        AnalyzerPolicy::Threshold(0.7),
                        AnalyzerPolicy::Average { delta: 0.2 },
                    ] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(12)
                                .tw_policy(TwPolicy::Adaptive)
                                .anchor(anchor)
                                .resize(resize)
                                .model(model)
                                .analyzer(analyzer)
                                .build()
                                .unwrap(),
                        );
                    }
                }
            }
        }
        // A second adaptive shape, with skip > 1.
        configs.push(
            DetectorConfig::builder()
                .current_window(8)
                .trailing_window(6)
                .skip_factor(3)
                .tw_policy(TwPolicy::Adaptive)
                .build()
                .unwrap(),
        );
        // A skip > cw config: shareable() must route it privately.
        configs.push(
            DetectorConfig::builder()
                .current_window(4)
                .trailing_window(8)
                .skip_factor(9)
                .build()
                .unwrap(),
        );
        configs
    }

    #[test]
    fn plan_groups_by_shape() {
        let configs = mixed_grid();
        let engine = SweepEngine::new(&configs);
        // 2 cw × 3 skip constant groups + 2 adaptive shape groups
        // + 1 private skip>cw.
        assert_eq!(engine.units().len(), 6 + 2 + 1);
        assert_eq!(engine.total_scans(), 6 + 2 + 1);
        assert!(engine.total_scans() < configs.len());
        let covered: usize = engine
            .units()
            .iter()
            .map(|u| u.config_indices().len())
            .sum();
        assert_eq!(covered, configs.len());
        for unit in engine.units() {
            assert!(unit.scans() > 0);
            assert_eq!(unit.is_shared(), unit.kind() != UnitKind::Private);
            if unit.is_shared() {
                let shape = configs[unit.config_indices()[0]].shape();
                for &i in unit.config_indices() {
                    assert_eq!(configs[i].shape(), shape);
                    match unit.kind() {
                        UnitKind::SharedConstant => assert!(configs[i].shares_windows()),
                        UnitKind::SharedAdaptive => {
                            assert!(configs[i].shares_windows_adaptively());
                        }
                        UnitKind::Private => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn engine_matches_sequential_detectors_exactly() {
        let configs = mixed_grid();
        let engine = SweepEngine::new(&configs);
        for trace in [
            block_trace(3, 120, 4),
            block_trace(1, 50, 2),
            block_trace(5, 37, 6),
        ] {
            let all = engine.run_all(&trace);
            for (i, config) in configs.iter().enumerate() {
                let expected = reference(*config, &trace);
                assert_eq!(all[i], expected, "config {i}: {config:?}");
                // Interval views are derived data, but compare them
                // too: they are what sweeps ultimately score.
                let total = trace.len() as u64;
                assert_eq!(
                    detected_intervals(&all[i], total),
                    detected_intervals(&expected, total)
                );
                assert_eq!(
                    anchored_intervals(&all[i], total),
                    anchored_intervals(&expected, total)
                );
            }
        }
    }

    #[test]
    fn engine_handles_empty_and_short_traces() {
        let configs = vec![DetectorConfig::builder().current_window(8).build().unwrap()];
        let engine = SweepEngine::new(&configs);
        let empty = InternedTrace::from_elements(std::iter::empty());
        assert_eq!(engine.run_all(&empty), vec![Vec::new()]);
        // Shorter than cw + tw: never warm, no phases.
        let short = block_trace(1, 10, 2);
        assert_eq!(engine.run_all(&short), vec![Vec::new()]);
    }

    #[test]
    fn out_of_range_unit_is_a_typed_error() {
        let configs = vec![DetectorConfig::builder().current_window(8).build().unwrap()];
        let engine = SweepEngine::new(&configs);
        let trace = block_trace(1, 40, 2);
        let mut scratch = SweepScratch::new();
        let mut metrics = UnitMetrics::new();
        let expected = SweepError::UnitOutOfRange {
            unit_index: 7,
            units: 1,
        };
        for err in [
            engine.try_run_unit(7, &trace, &mut scratch).unwrap_err(),
            engine
                .run_unit_with(7, &trace, &mut scratch, &mut metrics)
                .unwrap_err(),
        ] {
            assert_eq!(err, expected);
            assert!(err.to_string().contains("out of range"));
        }
        assert_eq!(metrics, UnitMetrics::new(), "nothing ran");
        // The panicking metered form reports the same typed error.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_unit_metered(7, &trace, &mut SweepScratch::new(), &mut metrics)
        }))
        .unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&expected.to_string()));
        // In-range requests still succeed, metered or not.
        let ok = engine.try_run_unit(0, &trace, &mut scratch).unwrap();
        assert_eq!(ok.len(), 1);
        let metered = engine.run_unit_metered(0, &trace, &mut scratch, &mut metrics);
        assert_eq!(metered, ok);
        assert_eq!(metrics.scans, 1);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_detectors() {
        let trace = block_trace(4, 90, 5);
        let mut scratch = SweepScratch::new();
        let configs: Vec<DetectorConfig> = [
            (8usize, TwPolicy::Adaptive),
            (16, TwPolicy::Adaptive),
            (8, TwPolicy::Constant),
        ]
        .iter()
        .map(|&(cw, twp)| {
            DetectorConfig::builder()
                .current_window(cw)
                .tw_policy(twp)
                .build()
                .unwrap()
        })
        .collect();
        for config in configs {
            let d = scratch.detector_for(config);
            let _ = d.run_interned_phases_only(&trace);
            let reused = d.take_phases();
            assert_eq!(reused, reference(config, &trace), "{config:?}");
        }
    }

    fn trace_of(sites: &[u32]) -> InternedTrace {
        InternedTrace::from_elements(
            sites
                .iter()
                .map(|&s| ProfileElement::new(MethodId::new(0), s, true)),
        )
    }

    /// Runs `configs` over `trace`, checks every result against a
    /// sequential detector, and returns the scan events the run took.
    fn events_matching_reference(configs: &[DetectorConfig], trace: &InternedTrace) -> ScanEvents {
        SCAN_EVENTS.with(|e| e.set(ScanEvents::default()));
        let all = SweepEngine::new(configs).run_all(trace);
        for (i, config) in configs.iter().enumerate() {
            assert_eq!(all[i], reference(*config, trace), "{config:?}");
        }
        SCAN_EVENTS.with(std::cell::Cell::get)
    }

    fn adaptive(cw: usize, tw: usize, resize: ResizePolicy, threshold: f64) -> DetectorConfig {
        DetectorConfig::builder()
            .current_window(cw)
            .trailing_window(tw)
            .tw_policy(TwPolicy::Adaptive)
            .anchor(AnchorPolicy::RightmostNoisy)
            .resize(resize)
            .analyzer(AnalyzerPolicy::Threshold(threshold))
            .build()
            .unwrap()
    }

    #[test]
    fn members_sleep_through_a_trace_shorter_than_the_windows() {
        let constant = DetectorConfig::builder()
            .current_window(8)
            .trailing_window(8)
            .analyzer(AnalyzerPolicy::Threshold(0.1))
            .build()
            .unwrap();
        let configs = [constant, adaptive(8, 8, ResizePolicy::Slide, 0.1)];
        // 15 elements < cw + tw = 16: the FIFO never warms, so neither
        // scan loads or steps over anything.
        let short = block_trace(1, 15, 2);
        let events = events_matching_reference(&configs, &short);
        assert_eq!(events.wakes, 0);
        assert_eq!(events.prefix_elements, 0);
        // One more element warms the FIFO and wakes both members: each
        // scan loads its 16-element cold prefix in one pass.
        let events = events_matching_reference(&configs, &block_trace(1, 16, 2));
        assert_eq!(events.wakes, 2);
        assert_eq!(events.prefix_elements, 2 * 16);
        // With skip 3 the first step boundary past 16 is 18, but a
        // 17-element trace ends in a partial step that warms the FIFO.
        let skip3 = DetectorConfig::builder()
            .current_window(8)
            .trailing_window(8)
            .skip_factor(3)
            .analyzer(AnalyzerPolicy::Threshold(0.1))
            .build()
            .unwrap();
        let events = events_matching_reference(&[skip3], &block_trace(1, 17, 2));
        assert_eq!(events.prefix_elements, 17);
        assert_eq!(events.wakes, 1);
    }

    #[test]
    fn a_cohort_splits_when_only_its_tight_members_leave() {
        // A two-site loop keeps the similarity at 1, so both average
        // members enter on the first warm step, in one cohort. The stray
        // site `9` then drops the unweighted similarity to 2/3: below
        // `1 - 0.1` but not below `1 - 0.4`, so the cohort loses only
        // its first member. Once in each scan.
        let mut sites: Vec<u32> = (0..40).map(|i| i % 2).collect();
        sites.push(9);
        sites.extend((0..40).map(|i| i % 2));
        let trace = trace_of(&sites);
        let average = |tw_policy, delta| {
            DetectorConfig::builder()
                .current_window(4)
                .trailing_window(4)
                .tw_policy(tw_policy)
                .analyzer(AnalyzerPolicy::Average { delta })
                .build()
                .unwrap()
        };
        let configs = [
            average(TwPolicy::Constant, 0.1),
            average(TwPolicy::Constant, 0.4),
            average(TwPolicy::Adaptive, 0.1),
            average(TwPolicy::Adaptive, 0.4),
        ];
        let events = events_matching_reference(&configs, &trace);
        assert_eq!(events.cohort_splits, 2);
        for config in configs {
            let delta = match config.analyzer() {
                AnalyzerPolicy::Average { delta } => delta,
                AnalyzerPolicy::Threshold(_) => unreachable!(),
            };
            let phases = reference(config, &trace);
            assert_eq!(phases.len(), if delta < 0.2 { 2 } else { 1 }, "{config:?}");
        }
    }

    #[test]
    fn a_slide_class_reads_the_fifo_cw_once_its_own_has_refilled() {
        // Both members stay in phase from the first warm step on (see
        // the merge test below for the trace). The Move class keeps a
        // full CW and reads the FIFO's on every judged step; the Slide
        // class's resize leaves it a 5-element CW: it reads its own CW
        // on the next two steps (6 and 7 elements) and the FIFO's from
        // the third on, when its CW is full again.
        let mut sites = vec![100, 101, 102];
        sites.extend((0..80).map(|i| 10 + i % 4));
        let trace = trace_of(&sites);
        let slide = events_matching_reference(&[adaptive(8, 8, ResizePolicy::Slide, 0.3)], &trace);
        let moved = events_matching_reference(&[adaptive(8, 8, ResizePolicy::Move, 0.3)], &trace);
        // Judged class steps: every step after the entry step.
        let steps = sites.len() as u64 - 16;
        assert_eq!(moved.shared_cw_steps, steps);
        assert_eq!(slide.shared_cw_steps, steps - 2);
    }

    #[test]
    fn a_member_re_enters_on_the_step_it_is_warm_again() {
        // One stray site `9` inside a two-site loop: it enters the CW
        // and drops the unweighted similarity to 2/3 < 0.9, ending the
        // phase. Once refilled (`cw + tw - skip` = 7 elements later)
        // the stray sits in the TW, the CW is all loop sites, and the
        // similarity is 1 again — so each member re-enters on the very
        // step its `warm_from` is reached.
        let mut sites: Vec<u32> = (0..40).map(|i| i % 2).collect();
        sites.push(9);
        sites.extend((0..40).map(|i| i % 2));
        let trace = trace_of(&sites);
        let constant = DetectorConfig::builder()
            .current_window(4)
            .trailing_window(4)
            .analyzer(AnalyzerPolicy::Threshold(0.9))
            .build()
            .unwrap();
        let configs = [constant, adaptive(4, 4, ResizePolicy::Move, 0.9)];
        let events = events_matching_reference(&configs, &trace);
        assert_eq!(events.entries_at_warm_from, 2);
        for config in configs {
            let phases = reference(config, &trace);
            assert_eq!(phases.len(), 2, "{config:?}");
            assert_eq!(phases[1].start, phases[0].end.unwrap() + 7, "{config:?}");
        }
    }

    #[test]
    fn slide_and_move_classes_merge_once_their_boundaries_converge() {
        // Three noise sites, then a four-site loop. At the first warm
        // step the TW is `[n n n B B B B B]` and the CW all `B`, so
        // both members enter with the rightmost-noisy anchor at index
        // 3. Move keeps TW `[3, 8)`; Slide tops it up to `[3, 11)`,
        // leaving a 5-element CW. Three steps later Slide's CW is
        // full again, both classes are `(3, 11)`, and they merge.
        let mut sites = vec![100, 101, 102];
        sites.extend((0..80).map(|i| 10 + i % 4));
        let trace = trace_of(&sites);
        let configs = [
            adaptive(8, 8, ResizePolicy::Slide, 0.3),
            adaptive(8, 8, ResizePolicy::Move, 0.3),
        ];
        let events = events_matching_reference(&configs, &trace);
        assert_eq!(events.merges, 1);
        let phases = reference(configs[0], &trace);
        assert_eq!(phases[0].anchored_start, 3);
        // A weighted member first reaches 0.7 one step later (0.625,
        // then 0.75): its Move fork would be `(3, 9)`, which the live
        // Move class has grown into, so it joins that class instead.
        let late = DetectorConfig::builder()
            .current_window(8)
            .trailing_window(8)
            .tw_policy(TwPolicy::Adaptive)
            .resize(ResizePolicy::Move)
            .model(ModelPolicy::WeightedSet)
            .analyzer(AnalyzerPolicy::Threshold(0.7))
            .build()
            .unwrap();
        let events = events_matching_reference(&[configs[0], configs[1], late], &trace);
        assert_eq!(events.joins, 1);
        assert_eq!(events.merges, 1);
        assert_eq!(reference(late, &trace)[0].start, 16);
    }
}
