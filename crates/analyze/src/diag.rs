//! The diagnostic model: stable codes, a severity lattice, and
//! rustc-style rendering.

use core::fmt;

use opd_microvm::{BuildError, Program};

/// Stable identifiers of every lint the analyzer can emit.
///
/// Codes are append-only: a code is never reused or renumbered once
/// released, so tools can match on them across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `OPD-W001`: a function is unreachable from the entry point.
    UnreachableFunction,
    /// `OPD-E002`: a recursion cycle is not argument-guarded, or does
    /// not strictly decrease its argument — execution may never
    /// terminate.
    UnguardedRecursion,
    /// `OPD-W003`: a branch distribution is degenerate (`p=0`, `p=1`,
    /// or `period=1`) and should be the equivalent deterministic form.
    DegenerateDistribution,
    /// `OPD-E004`: the worst-case trip/argument bound computation
    /// overflowed `u64` — the program's worst case is astronomically
    /// large and no meaningful static bound exists.
    BoundOverflow,
    /// `OPD-E005`: the program violates IR-level structural validity
    /// (the same defects [`opd_microvm::ProgramBuilder`] rejects).
    InvalidStructure,
    /// `OPD-W006`: statically dead code — a zero-trip loop body, a
    /// branch arm that can never execute, or a recursion guard whose
    /// argument is always zero.
    DeadCode,
    /// `OPD-W007`: the static worst-case call depth exceeds the
    /// interpreter's default limit — the program is well-formed but
    /// would abort with `CallDepthExceeded` when run.
    CallDepthBound,
    /// `OPD-A301`: the certified phase-transition upper bound is zero —
    /// the detector provably never fires on this workload.
    CertNeverFires,
    /// `OPD-A302`: the skip factor is at least `cw + tw`, so the
    /// detector warms on its very first step and the certificate's
    /// judged-step bound collapses to the raw `cost.rs` bound — the
    /// certificate adds no tightness.
    CertNotTighter,
    /// `OPD-A303`: the certified kernel-memory high-water mark exceeds
    /// the admission budget — the session must be rejected.
    CertBudgetExceeded,
    /// `OPD-A304`: the interpreter fuel clamps the certificate — the
    /// static element bound exceeds the fuel, so the certified
    /// intervals describe the truncated run, not the full program.
    CertTruncated,
    /// `OPD-A305`: an abstract-interpretation bound saturated (cycle
    /// widening or `u64` overflow) — the certificate's upper bounds
    /// are vacuous and cannot support admission control.
    CertVacuous,
    /// `OPD-O401`: a service window's p99 frame latency (in virtual
    /// ticks) burned through the latency SLO.
    SloLatencyBurn,
    /// `OPD-O402`: a service window shed more of its offered frames
    /// than the shed SLO allows.
    SloShedBudget,
    /// `OPD-O403`: a service window quarantined more of its sessions
    /// than the quarantine SLO allows.
    SloQuarantineBudget,
    /// `OPD-O404`: the service's completion floor was breached —
    /// too few sessions reached a clean terminal state, or a
    /// completed session failed bit-identity verification.
    SloCompletionFloor,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 16] = [
        Code::UnreachableFunction,
        Code::UnguardedRecursion,
        Code::DegenerateDistribution,
        Code::BoundOverflow,
        Code::InvalidStructure,
        Code::DeadCode,
        Code::CallDepthBound,
        Code::CertNeverFires,
        Code::CertNotTighter,
        Code::CertBudgetExceeded,
        Code::CertTruncated,
        Code::CertVacuous,
        Code::SloLatencyBurn,
        Code::SloShedBudget,
        Code::SloQuarantineBudget,
        Code::SloCompletionFloor,
    ];

    /// The stable textual form, e.g. `OPD-E002`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnreachableFunction => "OPD-W001",
            Code::UnguardedRecursion => "OPD-E002",
            Code::DegenerateDistribution => "OPD-W003",
            Code::BoundOverflow => "OPD-E004",
            Code::InvalidStructure => "OPD-E005",
            Code::DeadCode => "OPD-W006",
            Code::CallDepthBound => "OPD-W007",
            Code::CertNeverFires => "OPD-A301",
            Code::CertNotTighter => "OPD-A302",
            Code::CertBudgetExceeded => "OPD-A303",
            Code::CertTruncated => "OPD-A304",
            Code::CertVacuous => "OPD-A305",
            Code::SloLatencyBurn => "OPD-O401",
            Code::SloShedBudget => "OPD-O402",
            Code::SloQuarantineBudget => "OPD-O403",
            Code::SloCompletionFloor => "OPD-O404",
        }
    }

    /// The severity this code is reported at. (`OPD-A*` certificate
    /// codes and `OPD-O*` observability/SLO codes carry their own
    /// letter at either severity; program codes use `W`/`E` matching
    /// their severity.)
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::UnreachableFunction
            | Code::DegenerateDistribution
            | Code::DeadCode
            | Code::CallDepthBound
            | Code::CertNeverFires
            | Code::CertNotTighter
            | Code::CertTruncated
            | Code::CertVacuous => Severity::Warning,
            Code::UnguardedRecursion
            | Code::BoundOverflow
            | Code::InvalidStructure
            | Code::CertBudgetExceeded
            | Code::SloLatencyBurn
            | Code::SloShedBudget
            | Code::SloQuarantineBudget
            | Code::SloCompletionFloor => Severity::Error,
        }
    }

    /// One-line description of what the code means.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Code::UnreachableFunction => "function unreachable from the entry point",
            Code::UnguardedRecursion => "recursion cycle without a decreasing argument guard",
            Code::DegenerateDistribution => "degenerate branch distribution",
            Code::BoundOverflow => "worst-case bound overflows u64",
            Code::InvalidStructure => "invalid program structure",
            Code::DeadCode => "statically dead code",
            Code::CallDepthBound => "static call depth exceeds the interpreter limit",
            Code::CertNeverFires => "certified phase-count upper bound is zero",
            Code::CertNotTighter => "skip swallows the warm-up; certificate adds no tightness",
            Code::CertBudgetExceeded => "certified memory high-water mark exceeds the budget",
            Code::CertTruncated => "certificate clamped by the interpreter fuel",
            Code::CertVacuous => "certificate interval saturated and is vacuous",
            Code::SloLatencyBurn => "window p99 frame latency burned the latency SLO",
            Code::SloShedBudget => "window shed more frames than the shed SLO allows",
            Code::SloQuarantineBudget => "window quarantined more sessions than the SLO allows",
            Code::SloCompletionFloor => "service completion floor breached",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable; reported, does not fail the lint.
    Warning,
    /// A defect: the program cannot be trusted to run to completion.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the lint engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    code: Code,
    message: String,
    location: String,
}

impl Diagnostic {
    /// Creates a diagnostic. `location` is a human-readable anchor,
    /// e.g. `fn trace_ray (f0)`.
    #[must_use]
    pub fn new(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            location: location.into(),
        }
    }

    /// Maps a builder/validation error onto its `OPD-E005` diagnostic.
    #[must_use]
    pub fn from_build_error(program: &Program, err: &BuildError) -> Self {
        let _ = program;
        Diagnostic::new(Code::InvalidStructure, "program", err.to_string())
    }

    /// The stable code.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// The code's severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The finding, in one sentence.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where in the program the finding anchors.
    #[must_use]
    pub fn location(&self) -> &str {
        &self.location
    }

    /// Renders the diagnostic in rustc style:
    ///
    /// ```text
    /// error[OPD-E002]: functions `a` -> `b` -> `a` recurse without a decreasing guard
    ///   --> fn a (f0)
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}",
            self.severity(),
            self.code,
            self.message,
            self.location
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut names: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Code::ALL.len());
        assert_eq!(Code::UnguardedRecursion.as_str(), "OPD-E002");
        assert!(Code::ALL.iter().all(|c| {
            let s = c.as_str();
            s.starts_with("OPD-") && !c.summary().is_empty()
        }));
    }

    #[test]
    fn severity_matches_code_letter() {
        for code in Code::ALL {
            let letter = code.as_str().as_bytes()[4];
            // Certificate (`A`) and SLO (`O`) codes use their own
            // letter at either severity; program codes encode their
            // severity in the letter.
            if letter == b'A' || letter == b'O' {
                continue;
            }
            match code.severity() {
                Severity::Warning => assert_eq!(letter, b'W', "{code}"),
                Severity::Error => assert_eq!(letter, b'E', "{code}"),
            }
        }
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn cert_codes_use_the_a_prefix_and_300_range() {
        let cert: Vec<Code> = Code::ALL
            .iter()
            .copied()
            .filter(|c| c.as_str().as_bytes()[4] == b'A')
            .collect();
        assert_eq!(cert.len(), 5);
        for code in cert {
            let n: u32 = code.as_str()[5..].parse().unwrap();
            assert!((301..=305).contains(&n), "{code}");
        }
        // Budget rejection is the one hard error in the family — the
        // admission decision, not a quality note.
        assert_eq!(Code::CertBudgetExceeded.severity(), Severity::Error);
        assert_eq!(Code::CertNeverFires.severity(), Severity::Warning);
        assert_eq!(Code::CertVacuous.severity(), Severity::Warning);
    }

    #[test]
    fn slo_codes_use_the_o_prefix_and_400_range() {
        let slo: Vec<Code> = Code::ALL
            .iter()
            .copied()
            .filter(|c| c.as_str().as_bytes()[4] == b'O')
            .collect();
        assert_eq!(slo.len(), 4);
        for code in slo {
            let n: u32 = code.as_str()[5..].parse().unwrap();
            assert!((401..=404).contains(&n), "{code}");
            // An SLO burn is a service-level defect: `opd top` must
            // exit non-zero, so every member of the family is an
            // error.
            assert_eq!(code.severity(), Severity::Error, "{code}");
        }
    }

    #[test]
    fn render_is_rustc_shaped() {
        let d = Diagnostic::new(Code::DeadCode, "fn main (f0)", "loop L2 never iterates");
        let text = d.render();
        assert!(text.starts_with("warning[OPD-W006]: "));
        assert!(text.contains("\n  --> fn main (f0)"));
        assert_eq!(d.to_string(), text);
    }
}
