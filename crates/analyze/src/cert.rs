//! Resource certificates: two-sided static bounds on what one
//! detector config spends on one program.
//!
//! [`ConfigCost`](crate::ConfigCost) prices the worst case from two
//! scalars (element bound × alphabet bound). A certificate starts
//! from the [`AbsInt`] intervals instead and pushes them through the
//! detector's *window semantics* — warm-up, phase-end flushes,
//! re-warming — so it bounds quantities the flat cost model cannot
//! see at all (phase-transition counts, occupancy and memory
//! high-water marks) and bounds the compare-op cost strictly tighter
//! whenever the warm-up is non-trivial (`ceil((cw+tw)/skip) > 1`):
//! the steps spent filling the windows are provably never judged.
//!
//! Every interval is *sound*, verified two ways in this repo's style:
//! a differential suite (`tests/cert_bounds.rs`) pins every dynamic
//! counter from `opd-obs` inside its certified interval across all
//! workloads × the default grid, and a proptest suite
//! (`crates/analyze/tests/cert_soundness.rs`) does the same for
//! arbitrary generated programs and configs.
//!
//! The derivation leans on window facts locked by `opd-core`'s own
//! tests:
//!
//! * Warm-up is deterministic and purely occupancy-based: the windows
//!   warm exactly when `cw + tw` elements have been pushed, i.e. at
//!   step `w0 = ceil((cw+tw)/skip)`; no earlier step is judged.
//! * A phase-end flush (`clear_keep_last`) keeps at most `skip`
//!   elements and un-warms; re-warming takes exactly
//!   `m = ceil(max(cw+tw−skip, tw)/skip)` further steps (the kept
//!   elements all land in the CW, the TW must refill from scratch at
//!   one shift per push).
//! * Phase starts are therefore at least `1 + m` judged-accounted
//!   steps apart, which turns the judged-step bound into a
//!   phase-count bound.
//! * Window capacities never change after construction (the Adaptive
//!   policy only suppresses TW eviction), so Constant-TW occupancy is
//!   capped at `tw + max(cw, skip)` while Adaptive occupancy is only
//!   capped by the element count.
//!
//! The memory interval maps the interned-site interval through the
//! closed-form SWAR layout ([`opd_core::swar_footprint_bytes`]), and
//! [`ResourceCertificate::admits`] is the admission-control entry
//! point a streaming service checks before accepting a session.

use opd_core::{swar_footprint_bytes, AnalyzerPolicy, DetectorConfig, ModelPolicy, TwPolicy};
use opd_microvm::Program;

use crate::absint::AbsInt;
use crate::cost::{self, ConfigCost};
use crate::diag::{Code, Diagnostic};
use crate::flow::FlowInfo;

/// A closed interval `[lo, hi]` of `u64` resource counts. `hi ==
/// u64::MAX` means "unbounded" (a saturated analysis) and renders as
/// `null` in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CertInterval {
    lo: u64,
    hi: u64,
}

impl CertInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "certificate interval [{lo}, {hi}] is inverted");
        CertInterval { lo, hi }
    }

    /// Lower bound.
    #[must_use]
    pub fn lo(self) -> u64 {
        self.lo
    }

    /// Upper bound (`u64::MAX` = unbounded).
    #[must_use]
    pub fn hi(self) -> u64 {
        self.hi
    }

    /// `true` if `v` lies inside the interval.
    #[must_use]
    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// The interval midpoint (overflow-safe), the point estimate the
    /// runner's LPT pricing uses.
    #[must_use]
    pub fn midpoint(self) -> u64 {
        self.lo + (self.hi - self.lo) / 2
    }

    /// Renders as a two-element JSON array, `hi = u64::MAX` as `null`.
    fn json(self) -> String {
        if self.hi == u64::MAX {
            format!("[{},null]", self.lo)
        } else {
            format!("[{},{}]", self.lo, self.hi)
        }
    }
}

/// Sound two-sided bounds on every resource one detector config can
/// consume on one program, derived without running anything.
#[derive(Debug, Clone)]
pub struct ResourceCertificate {
    elements: CertInterval,
    steps: CertInterval,
    judged_steps: CertInterval,
    compare_ops: CertInterval,
    phases: CertInterval,
    occupancy: CertInterval,
    sites: CertInterval,
    memory_bytes: CertInterval,
    scans: CertInterval,
    cost_compare_bound: Option<u64>,
    warm_step: u64,
    warm_fill: u64,
    fuel: u64,
    truncated: bool,
    vacuous: bool,
}

/// The cheapest per-judge cost the kernel can realize for `model`
/// with at least `sites_lo` distinct sites: the dense-mode formula
/// (rank mode always dominates it), monotone in the site count.
fn dense_min_ops(model: ModelPolicy, sites_lo: u64) -> u64 {
    let d = sites_lo.max(1);
    let lanes = d.div_ceil(64);
    match model {
        ModelPolicy::UnweightedSet => lanes.saturating_add(2),
        ModelPolicy::WeightedSet => d.saturating_add(2),
        ModelPolicy::Pearson => d.saturating_add(lanes).saturating_add(2),
    }
}

/// Whether `config`'s analyzer provably judges *Phase* at every warm
/// step, on every trace.
///
/// `Threshold(t ≤ 0)` always fires because every similarity model
/// returns values ≥ 0. `Average { delta: 1.0 }` always fires when
/// similarities provably never exceed `1.0` — true for the unweighted
/// model (exact quotients `k/n ≤ 1`), Pearson (clamped), and the
/// weighted model under a constant TW (integer fast path `m/(cw·tw)`
/// with `m ≤ cw·tw`). The weighted model under an *adaptive* TW is
/// excluded: its over-capacity slow path sums rounded per-site
/// quotients, which can exceed `1.0` by an ulp and leave the running
/// average above `1.0`.
fn always_fires(config: &DetectorConfig) -> bool {
    match config.analyzer() {
        AnalyzerPolicy::Threshold(t) => t <= 0.0,
        AnalyzerPolicy::Average { delta } => {
            delta >= 1.0
                && (config.model() != ModelPolicy::WeightedSet
                    || config.tw_policy() == TwPolicy::Constant)
        }
    }
}

impl ResourceCertificate {
    /// Certifies `config` against `program` under an interpreter fuel
    /// limit of `fuel` elements (`u64::MAX` = unlimited), running the
    /// abstract interpretation internally. Use [`Self::from_parts`]
    /// to amortize one [`AbsInt`] across a config grid.
    #[must_use]
    pub fn of(program: &Program, config: &DetectorConfig, fuel: u64) -> Self {
        let absint = AbsInt::of(program);
        let flow = FlowInfo::compute(program);
        Self::from_parts(&absint, &flow, config, fuel)
    }

    /// Certifies `config` from a precomputed abstract interpretation
    /// and flow analysis of the same program.
    #[must_use]
    pub fn from_parts(
        absint: &AbsInt,
        flow: &FlowInfo,
        config: &DetectorConfig,
        fuel: u64,
    ) -> Self {
        let cw = config.current_window() as u64;
        let tw = config.trailing_window() as u64;
        let skip = (config.skip_factor() as u64).max(1);
        let warm_fill = cw.saturating_add(tw);

        // Elements: the interpreter records at most `fuel` elements
        // (the fuel check precedes the record), so the static interval
        // clamps at the fuel on both ends.
        let static_lo = absint.elements().lo();
        let static_hi = absint.elements().hi();
        let truncated = static_hi > fuel;
        let elements = CertInterval::new(static_lo.min(fuel), static_hi.min(fuel));

        // Steps: the detector drives the trace in skip-sized chunks.
        let steps = CertInterval::new(elements.lo().div_ceil(skip), elements.hi().div_ceil(skip));

        // Warm-up: the windows warm exactly when `cw + tw` elements
        // have been pushed — during step `w0`. Steps `1..w0` are
        // never judged.
        let w0 = warm_fill.div_ceil(skip).max(1);

        // Re-warm cost after a phase-end flush: at most `skip` kept
        // elements land in the CW, the TW refills one shift per push.
        let rewarm = warm_fill.saturating_sub(skip).max(tw).div_ceil(skip);

        let judged_hi = steps.hi().saturating_sub(w0 - 1);

        // Phases: the first needs one judged step; each further start
        // pays at least a flush re-warm plus its own entry step.
        let gap = rewarm.saturating_add(1);
        let mut phases_hi = if judged_hi == 0 {
            0
        } else {
            1 + (judged_hi - 1) / gap
        };
        if elements.hi() < warm_fill {
            // The windows can never warm: provably silent (A301).
            phases_hi = 0;
        }
        let warm_guaranteed = elements.lo() >= warm_fill;
        let mut phases_lo = 0;
        if always_fires(config) {
            // The analyzer judges *Phase* at every warm step: exactly
            // one phase starts once warm and it never ends.
            if phases_hi > 0 {
                phases_hi = 1;
            }
            if warm_guaranteed {
                phases_lo = 1;
            }
        }
        let phases = CertInterval::new(phases_lo.min(phases_hi), phases_hi);

        // Judged steps: every warm step is judged; each phase end
        // un-warms for at most `rewarm` steps.
        let judged_lo = steps
            .lo()
            .saturating_sub(w0 - 1)
            .saturating_sub(phases.hi().saturating_mul(rewarm));
        let judged_steps = CertInterval::new(judged_lo.min(judged_hi), judged_hi);

        // Occupancy: fills monotonically to `cw + tw` before the
        // first flush; Constant TW then caps at `tw + max(cw, skip)`
        // (an over-full flush remainder drains one shift per push),
        // Adaptive TW never evicts.
        let occ_hi = match config.tw_policy() {
            TwPolicy::Constant => elements.hi().min(tw.saturating_add(cw.max(skip))),
            TwPolicy::Adaptive => elements.hi(),
        };
        // The lower bound differs by policy: Constant TW provably
        // reaches the full warm fill, but an Adaptive TW may shed
        // elements while re-anchoring, so only the sliding CW (whose
        // capacity no policy changes) is guaranteed to peak full.
        let occ_lo = match config.tw_policy() {
            TwPolicy::Constant => elements.lo().min(warm_fill),
            TwPolicy::Adaptive => elements.lo().min(cw),
        };
        let occupancy = CertInterval::new(occ_lo.min(occ_hi), occ_hi);

        // Interned sites, from the per-site outcome intervals; the
        // flow alphabet bound is sound independently of saturation.
        let alphabet = absint.alphabet();
        let sites_hi = alphabet.hi().min(flow.alphabet_bound());
        let mut sites_lo = alphabet.lo().min(sites_hi);
        if truncated {
            // A truncated run may stop before reaching most sites;
            // only "some element was recorded" survives.
            sites_lo = sites_lo.min(u64::from(elements.lo() > 0));
        }
        let sites = CertInterval::new(sites_lo, sites_hi);

        // Memory: the SWAR kernel's per-site state is a closed form
        // of the interned-site count, and monotone in it.
        let memory_bytes = CertInterval::new(
            swar_footprint_bytes(sites.lo()),
            swar_footprint_bytes(sites.hi()),
        );

        let mut vacuous = absint.overflowed();
        let compare_hi = match judged_steps
            .hi()
            .checked_mul(cost::per_step_ops(config, sites.hi()))
        {
            Some(ops) => ops,
            None => {
                vacuous = true;
                u64::MAX
            }
        };
        let compare_lo = if judged_steps.lo() == 0 {
            0
        } else {
            judged_steps
                .lo()
                .saturating_mul(dense_min_ops(config.model(), sites.lo()))
        };
        let compare_ops = CertInterval::new(compare_lo.min(compare_hi), compare_hi);

        // The flat cost-model bound at the same inputs: certificates
        // must never exceed it, and beat it whenever `w0 > 1`.
        let cost_compare_bound = ConfigCost::of(config, elements.hi(), sites.hi()).compare_ops();

        ResourceCertificate {
            elements,
            steps,
            judged_steps,
            compare_ops,
            phases,
            occupancy,
            sites,
            memory_bytes,
            scans: CertInterval::new(1, 1),
            cost_compare_bound,
            warm_step: w0,
            warm_fill,
            fuel,
            truncated,
            vacuous,
        }
    }

    /// Profile elements the run records.
    #[must_use]
    pub fn elements(&self) -> CertInterval {
        self.elements
    }

    /// Detector steps (skip-sized chunks) the run takes.
    #[must_use]
    pub fn steps(&self) -> CertInterval {
        self.steps
    }

    /// Steps judged by the similarity analyzer (warm steps).
    #[must_use]
    pub fn judged_steps(&self) -> CertInterval {
        self.judged_steps
    }

    /// Comparison ops across all judged steps (default SWAR kernel).
    #[must_use]
    pub fn compare_ops(&self) -> CertInterval {
        self.compare_ops
    }

    /// Phase transitions the detector reports.
    #[must_use]
    pub fn phases(&self) -> CertInterval {
        self.phases
    }

    /// Maximum combined window occupancy (elements) at any step.
    #[must_use]
    pub fn occupancy(&self) -> CertInterval {
        self.occupancy
    }

    /// Distinct interned `(site, taken)` elements.
    #[must_use]
    pub fn sites(&self) -> CertInterval {
        self.sites
    }

    /// Kernel memory high-water mark in bytes (per-site SWAR state).
    #[must_use]
    pub fn memory_bytes(&self) -> CertInterval {
        self.memory_bytes
    }

    /// Trace scans a dedicated run performs (always one; grid-level
    /// scan sharing is priced by [`crate::predicted_scans`]).
    #[must_use]
    pub fn scans(&self) -> CertInterval {
        self.scans
    }

    /// The flat [`ConfigCost`] compare-op bound at the same element
    /// and alphabet inputs; `None` if that bound overflowed.
    #[must_use]
    pub fn cost_compare_bound(&self) -> Option<u64> {
        self.cost_compare_bound
    }

    /// `true` if the certified compare-op upper bound strictly beats
    /// the flat cost-model bound.
    #[must_use]
    pub fn tighter_than_cost_bound(&self) -> bool {
        match self.cost_compare_bound {
            Some(bound) => self.compare_ops.hi() < bound,
            None => self.compare_ops.hi() < u64::MAX,
        }
    }

    /// The first step the windows can be warm (`ceil((cw+tw)/skip)`).
    #[must_use]
    pub fn warm_step(&self) -> u64 {
        self.warm_step
    }

    /// The fuel limit the certificate was issued under.
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// `true` if the fuel clamps the certificate (A304): the static
    /// element bound exceeds the fuel, so intervals describe the
    /// truncated run.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `true` if an abstract bound saturated (A305): upper bounds are
    /// `u64::MAX` and cannot support admission control on cost —
    /// though the memory bound stays finite via the flow alphabet.
    #[must_use]
    pub fn vacuous(&self) -> bool {
        self.vacuous
    }

    /// Admission control: `true` if the certified memory high-water
    /// mark provably fits in `budget_bytes`. This is the per-session
    /// check a multi-tenant streaming frontend performs before
    /// admitting a detector session.
    #[must_use]
    pub fn admits(&self, budget_bytes: u64) -> bool {
        self.memory_bytes.hi() <= budget_bytes
    }

    /// Certificate-quality lints (`OPD-A301` … `OPD-A305`), anchored
    /// at `location` (e.g. `querydb × config #3`). `budget` enables
    /// the A303 admission check.
    #[must_use]
    pub fn lints(&self, location: &str, budget: Option<u64>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.vacuous {
            out.push(Diagnostic::new(
                Code::CertVacuous,
                location,
                "abstract bound saturated; certificate upper bounds are vacuous",
            ));
        }
        if self.phases.hi() == 0 {
            out.push(Diagnostic::new(
                Code::CertNeverFires,
                location,
                format!(
                    "certified phase bound is 0: at most {} elements cannot warm cw+tw = {}",
                    self.elements.hi(),
                    self.warm_fill,
                ),
            ));
        }
        if self.warm_step <= 1 {
            out.push(Diagnostic::new(
                Code::CertNotTighter,
                location,
                "skip covers the whole warm-up in one step; \
                 the certificate cannot beat the flat cost bound",
            ));
        }
        if self.truncated {
            out.push(Diagnostic::new(
                Code::CertTruncated,
                location,
                format!(
                    "interpreter fuel {} clamps the certificate below the static bound",
                    self.fuel
                ),
            ));
        }
        if let Some(budget) = budget {
            if !self.admits(budget) {
                out.push(Diagnostic::new(
                    Code::CertBudgetExceeded,
                    location,
                    format!(
                        "certified memory high-water mark {} B exceeds the budget {} B",
                        self.memory_bytes.hi(),
                        budget
                    ),
                ));
            }
        }
        out
    }

    /// Renders the certificate as one JSON object. Unbounded interval
    /// ends (`u64::MAX`) render as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"elements\":{},\"steps\":{},\"judged_steps\":{},",
                "\"compare_ops\":{},\"phases\":{},\"occupancy\":{},",
                "\"sites\":{},\"memory_bytes\":{},\"scans\":{},",
                "\"cost_compare_bound\":{},\"warm_step\":{},",
                "\"fuel\":{},\"truncated\":{},\"vacuous\":{}}}"
            ),
            self.elements.json(),
            self.steps.json(),
            self.judged_steps.json(),
            self.compare_ops.json(),
            self.phases.json(),
            self.occupancy.json(),
            self.sites.json(),
            self.memory_bytes.json(),
            self.scans.json(),
            match self.cost_compare_bound {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            self.warm_step,
            if self.fuel == u64::MAX {
                "null".to_string()
            } else {
                self.fuel.to_string()
            },
            self.truncated,
            self.vacuous,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;
    use opd_microvm::{ProgramBuilder, TakenDist, Trip};

    /// The default-plan-grid shape: cw = tw = 500, skip 1.
    fn grid_config() -> DetectorConfig {
        DetectorConfig::builder()
            .current_window(500)
            .trailing_window(500)
            .build()
            .unwrap()
    }

    fn small_program(branches: u32) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Fixed(branches), |l| {
                l.branch(TakenDist::Alternating);
            });
        });
        b.build().unwrap()
    }

    #[test]
    fn a_small_program_certifies_as_never_firing() {
        // 64 elements cannot warm cw+tw = 1000.
        let cert = ResourceCertificate::of(&small_program(64), &grid_config(), u64::MAX);
        assert_eq!((cert.elements().lo(), cert.elements().hi()), (64, 64));
        assert_eq!(cert.phases().hi(), 0);
        assert_eq!(cert.judged_steps().hi(), 0);
        assert_eq!(cert.compare_ops().hi(), 0);
        let lints = cert.lints("tiny", None);
        assert!(lints.iter().any(|d| d.code() == Code::CertNeverFires));
        assert!(!cert.vacuous() && !cert.truncated());
    }

    #[test]
    fn warmup_makes_the_certificate_strictly_tighter() {
        // 5000 elements with cw = tw = 500, skip = 1: 1000 warm-up
        // steps are provably un-judged.
        let cert = ResourceCertificate::of(&small_program(5_000), &grid_config(), u64::MAX);
        assert_eq!(cert.warm_step(), 1_000);
        assert_eq!(cert.steps().hi(), 5_000);
        assert_eq!(cert.judged_steps().hi(), 4_001);
        let bound = cert.cost_compare_bound().unwrap();
        assert!(cert.compare_ops().hi() < bound, "cert must beat the bound");
        assert!(cert.tighter_than_cost_bound());
        // Occupancy: warm fill reached, Constant TW caps at tw+cw.
        assert_eq!(cert.occupancy().lo(), 1_000);
        assert_eq!(cert.occupancy().hi(), 1_000);
        // One site, two outcomes.
        assert_eq!((cert.sites().lo(), cert.sites().hi()), (2, 2));
        assert_eq!(cert.memory_bytes().hi(), swar_footprint_bytes(2));
    }

    #[test]
    fn fuel_truncation_is_flagged_and_clamps() {
        let cert = ResourceCertificate::of(&small_program(5_000), &grid_config(), 1_200);
        assert!(cert.truncated());
        assert_eq!(cert.elements().hi(), 1_200);
        assert_eq!(cert.steps().hi(), 1_200);
        // Truncation weakens the site lower bound to "visited at all".
        assert_eq!(cert.sites().lo(), 1);
        let lints = cert.lints("clamped", None);
        assert!(lints.iter().any(|d| d.code() == Code::CertTruncated));
    }

    #[test]
    fn budget_admission_is_a_hard_error() {
        let cert = ResourceCertificate::of(&small_program(5_000), &grid_config(), u64::MAX);
        let need = cert.memory_bytes().hi();
        assert!(cert.admits(need));
        assert!(!cert.admits(need - 1));
        let lints = cert.lints("broke", Some(need - 1));
        let budget = lints
            .iter()
            .find(|d| d.code() == Code::CertBudgetExceeded)
            .expect("A303 fires");
        assert_eq!(budget.severity(), crate::Severity::Error);
        assert!(cert.lints("rich", Some(need)).is_empty());
    }

    #[test]
    fn an_always_firing_analyzer_certifies_exactly_one_phase() {
        let config = DetectorConfig::builder()
            .current_window(500)
            .trailing_window(500)
            .analyzer(AnalyzerPolicy::Threshold(0.0))
            .build()
            .unwrap();
        let cert = ResourceCertificate::of(&small_program(5_000), &config, u64::MAX);
        assert_eq!((cert.phases().lo(), cert.phases().hi()), (1, 1));
    }

    #[test]
    fn always_fire_classification() {
        let af = |model, analyzer, tw_policy| {
            always_fires(
                &DetectorConfig::builder()
                    .current_window(8)
                    .trailing_window(8)
                    .model(model)
                    .analyzer(analyzer)
                    .tw_policy(tw_policy)
                    .build()
                    .unwrap(),
            )
        };
        let thr0 = AnalyzerPolicy::Threshold(0.0);
        let avg1 = AnalyzerPolicy::Average { delta: 1.0 };
        assert!(af(ModelPolicy::UnweightedSet, thr0, TwPolicy::Constant));
        assert!(af(ModelPolicy::WeightedSet, thr0, TwPolicy::Adaptive));
        assert!(af(ModelPolicy::UnweightedSet, avg1, TwPolicy::Adaptive));
        assert!(af(ModelPolicy::WeightedSet, avg1, TwPolicy::Constant));
        // Weighted + adaptive sums rounded quotients: avg may exceed
        // 1.0 by an ulp, so the rule conservatively refuses.
        assert!(!af(ModelPolicy::WeightedSet, avg1, TwPolicy::Adaptive));
        assert!(!af(
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Threshold(0.1),
            TwPolicy::Constant
        ));
        assert!(!af(
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Average { delta: 0.4 },
            TwPolicy::Constant
        ));
    }

    #[test]
    fn a_skip_swallowing_warmup_is_flagged_not_tighter() {
        let config = DetectorConfig::builder()
            .current_window(4)
            .trailing_window(4)
            .skip_factor(64)
            .build()
            .unwrap();
        let cert = ResourceCertificate::of(&small_program(5_000), &config, u64::MAX);
        assert_eq!(cert.warm_step(), 1);
        let lints = cert.lints("swallowed", None);
        assert!(lints.iter().any(|d| d.code() == Code::CertNotTighter));
        // judged == steps: nothing saved, cert equals the flat bound.
        assert_eq!(cert.judged_steps().hi(), cert.steps().hi());
        assert!(!cert.tighter_than_cost_bound());
    }

    #[test]
    fn saturated_analyses_issue_vacuous_certificates() {
        use opd_microvm::ArgExpr;
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        let main = b.declare("main");
        b.define(rec, |f| {
            f.branch(TakenDist::Always);
            f.call(rec, ArgExpr::Const(1));
        });
        b.define(main, |f| {
            f.call(rec, ArgExpr::Const(1));
        });
        let program = b.entry(main).build().unwrap();
        let cert = ResourceCertificate::of(&program, &grid_config(), u64::MAX);
        assert!(cert.vacuous());
        assert_eq!(cert.elements().hi(), u64::MAX);
        let lints = cert.lints("cycle", None);
        assert!(lints.iter().any(|d| d.code() == Code::CertVacuous));
        // JSON renders the unbounded ends as null.
        assert!(cert.to_json().contains("\"elements\":[1,null]"));
        // Memory stays finite through the flow alphabet bound.
        assert!(cert.memory_bytes().hi() < u64::MAX);
    }

    #[test]
    fn workload_certificates_are_clean_on_the_default_config_and_json_shaped() {
        for w in Workload::ALL {
            let cert = ResourceCertificate::of(&w.program(1), &grid_config(), u64::MAX);
            assert!(
                cert.lints(&w.to_string(), None).is_empty(),
                "{w}: unexpected lints"
            );
            let json = cert.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"judged_steps\":["));
            assert!(json.contains("\"fuel\":null"));
        }
    }
}
