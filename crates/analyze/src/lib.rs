//! Static analysis of MicroVM programs.
//!
//! The interpreter and the oracle discover a program's structure
//! *dynamically* — by running it and building the call-loop tree. This
//! crate derives the same structure *statically*, straight from the IR:
//!
//! * [`CallGraph`] — who calls whom, SCC (Tarjan) recursion cycles, and
//!   a termination proof for each cycle (every internal call must be
//!   `arg > 0`-guarded **and** argument-decreasing)
//! * [`FlowInfo`] — reachability, per-function maximum arguments, the
//!   executable branch-site alphabet, and dead code
//! * [`NestingTree`] — the static call-loop nesting relation, a
//!   supergraph of every dynamic tree the oracle can build
//! * [`AbsInt`] — the one abstract interpreter: a stride-interval
//!   evaluation of the IR through the call graph, giving element,
//!   event and per-site visit intervals and call/nest depth maxima
//! * [`StaticBounds`] — its worst-case view ([`AbsInt::bounds`]):
//!   exact worst-case branch counts, event counts, call depth, and
//!   phase-nesting depth, with checked arithmetic
//! * [`Analysis`] — all of the above plus a lint pass with stable
//!   diagnostic codes (`OPD-W001` … `OPD-W007`)
//!
//! The bounds are what the runtime pre-sizes from (`InternedTrace` and
//! the sweep engine allocate to the alphabet bound up front), and the
//! supergraph property is what the differential soundness tests check.
//!
//! A second analysis family targets the *sweep plan* rather than the
//! program: [`PlanAnalysis`] proves detector-config equivalences
//! ([`EquivClass`], [`canonicalize`]), prices each config with a
//! static cost model ([`ConfigCost`], [`unit_cost`]), predicts the
//! sweep engine's exact scan count ([`predicted_scans`]), and lints
//! the grid with codes `OPD-C101` … `OPD-C106`.
//!
//! A third family certifies *resources*: [`ResourceCertificate`]
//! composes the abstract interpreter's per-site visit intervals with
//! one detector config's window semantics into sound two-sided bounds
//! on phase transitions, window occupancy, interned sites, kernel
//! memory, and compare-op cost — with [`ResourceCertificate::admits`]
//! as the admission-control entry point and lint codes `OPD-A301` …
//! `OPD-A305`.
//!
//! # Examples
//!
//! ```
//! use opd_analyze::{Analysis, Severity};
//! use opd_microvm::workloads::Workload;
//!
//! let analysis = Analysis::of(&Workload::Querydb.program(1));
//! assert!(analysis.is_clean()); // built-in workloads lint clean
//! assert!(analysis.bounds().branches() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod absint;
mod bounds;
mod callgraph;
mod cert;
mod cost;
mod diag;
mod equiv;
mod flow;
mod lint;
mod nesting;
mod plan;
mod sched;

pub use absint::{AbsInt, SiteVisits, StrideInterval};
pub use bounds::StaticBounds;
pub use callgraph::{CallEdge, CallGraph, RecursionCycle};
pub use cert::{CertInterval, ResourceCertificate};
pub use cost::{predicted_scans, unit_cost, unit_cost_parts, ConfigCost};
pub use diag::{Code, Diagnostic, Severity};
pub use equiv::{
    always_fires, canonicalize, equivalence_classes, snap_threshold, snap_threshold_fixed,
    EquivClass, EquivRule,
};
pub use flow::{DeadKind, DeadSite, FlowInfo};
pub use nesting::NestingTree;
pub use plan::{AxisPairOutcome, AxisWitnesses, PlanAnalysis, PlanWorkload, SweepAxis};
pub use sched::{race_lints, SubsystemSyncProfile, SyncSite};

use opd_microvm::Program;

/// The complete static analysis of one program: structure, bounds, and
/// lint findings.
#[derive(Debug, Clone)]
pub struct Analysis {
    call_graph: CallGraph,
    flow: FlowInfo,
    nesting: NestingTree,
    absint: AbsInt,
    diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Analyzes a program end to end.
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let call_graph = CallGraph::build(program);
        let flow = FlowInfo::compute(program);
        let nesting = NestingTree::build(program);
        let absint = AbsInt::of(program);
        let diagnostics = lint::collect(program, &call_graph, &flow, &absint.bounds());
        Analysis {
            call_graph,
            flow,
            nesting,
            absint,
            diagnostics,
        }
    }

    /// The static call graph and its recursion cycles.
    #[must_use]
    pub fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// Reachability, maximum arguments, alphabet, and dead code.
    #[must_use]
    pub fn flow(&self) -> &FlowInfo {
        &self.flow
    }

    /// The static call-loop nesting relation.
    #[must_use]
    pub fn nesting(&self) -> &NestingTree {
        &self.nesting
    }

    /// The abstract interpretation: element, event and per-site visit
    /// intervals, the source of every bound.
    #[must_use]
    pub fn absint(&self) -> &AbsInt {
        &self.absint
    }

    /// The worst-case execution bounds (a view of [`Analysis::absint`]).
    #[must_use]
    pub fn bounds(&self) -> StaticBounds {
        self.absint.bounds()
    }

    /// Every lint finding, in a stable order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` if the lint produced no findings at all (the
    /// deny-warnings bar the built-in workloads are held to).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the analysis (bounds, structure summary, diagnostics)
    /// as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let bounds = self.bounds();
        format!(
            concat!(
                "{{\"alphabet_bound\":{},\"executable_sites\":{},",
                "\"branches_bound\":{},\"events_bound\":{},",
                "\"call_depth_bound\":{},\"nest_depth_bound\":{},",
                "\"overflowed\":{},\"nesting_edges\":{},",
                "\"recursion_cycles\":{},\"diagnostics\":{}}}"
            ),
            self.flow.alphabet_bound(),
            self.flow.executable_sites(),
            bounds.branches(),
            bounds.events(),
            bounds.call_depth(),
            bounds.nest_depth(),
            bounds.overflowed(),
            self.nesting.edges().len(),
            self.call_graph.cycles().len(),
            lint::diagnostics_json(&self.diagnostics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;
    use opd_microvm::{ArgExpr, ProgramBuilder, TakenDist, Trip};

    #[test]
    fn workloads_are_clean() {
        for w in Workload::ALL {
            let a = Analysis::of(&w.program(1));
            assert!(
                a.is_clean(),
                "{w}: {:?}",
                a.diagnostics()
                    .iter()
                    .map(Diagnostic::render)
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.error_count(), 0);
            assert_eq!(a.warning_count(), 0);
        }
    }

    #[test]
    fn a_thoroughly_broken_program_trips_many_codes() {
        let mut b = ProgramBuilder::new();
        let orphan = b.declare("orphan");
        let rec = b.declare("rec");
        let main = b.declare("main");
        b.define(orphan, |f| {
            f.branch(TakenDist::Always);
        });
        b.define(rec, |f| {
            f.call(rec, ArgExpr::Const(3)); // unguarded recursion
        });
        b.define(main, |f| {
            f.branch(TakenDist::Bernoulli(1.0)); // degenerate
            f.repeat(Trip::Fixed(0), |l| {
                l.branch(TakenDist::Always); // dead
            });
            f.call(rec, ArgExpr::Const(1));
        });
        let a = Analysis::of(&b.entry(main).build().unwrap());
        let codes: Vec<Code> = a.diagnostics().iter().map(Diagnostic::code).collect();
        assert!(codes.contains(&Code::UnguardedRecursion));
        assert!(codes.contains(&Code::UnreachableFunction));
        assert!(codes.contains(&Code::DegenerateDistribution));
        assert!(codes.contains(&Code::DeadCode));
        assert!(codes.contains(&Code::BoundOverflow));
        assert!(a.error_count() >= 2);
        assert!(a.warning_count() >= 3);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let a = Analysis::of(&Workload::Blockcomp.program(1));
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"alphabet_bound\":"));
        assert!(json.contains("\"diagnostics\":[]"));
    }
}
