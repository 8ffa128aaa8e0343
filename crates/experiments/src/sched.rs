//! The `opd audit` implementation: exhaustive DPOR exploration of the
//! one modeled concurrent subsystem, the metrics registry, through its
//! real code; the seeded-bug mutant proving the detector catches a
//! real bug; the `OPD-R` race lints over the observed synchronization
//! profile; and the `BENCH_sched.json` artifact recording all of it.
//!
//! Everything here is deterministic: the explorer is seeded DFS over
//! a serialized runtime, so execution counts, pruning ratios, witness
//! schedules, and verdicts are bit-identical across runs and hosts —
//! which is what lets the committed artifact be freshness-tested
//! byte for byte.

use opd_analyze::{race_lints, Diagnostic, SubsystemSyncProfile, SyncSite};
use opd_sched::{Explorer, FindingKind, SyncProfile};

/// The audit's explorer seed: fixed so artifacts are reproducible.
pub const AUDIT_SEED: u64 = 0;

/// One audited subsystem's exploration results.
#[derive(Debug)]
pub struct SubsystemAudit {
    /// Subsystem name (`metrics`).
    pub name: &'static str,
    /// Schedules explored with DPOR.
    pub executions: u64,
    /// Schedules explored by the naive (unreduced) search — the
    /// pruning-ratio denominator.
    pub naive_executions: u64,
    /// Total scheduling steps across the DPOR search.
    pub transitions: u64,
    /// Deepest schedule, in steps.
    pub max_depth: usize,
    /// `None` when the exhaustive search was clean, else the rendered
    /// finding + witness.
    pub finding: Option<String>,
    /// The lintable profile (observed sites + declared coverage).
    pub profile: SubsystemSyncProfile,
}

impl SubsystemAudit {
    /// DPOR pruning ratio: naive schedules per DPOR schedule.
    #[must_use]
    pub fn pruning_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 1.0;
        }
        self.naive_executions as f64 / self.executions as f64
    }

    /// `"clean"` or `"finding"` — the artifact's verdict string.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.finding.is_none() {
            "clean"
        } else {
            "finding"
        }
    }
}

/// One seeded-bug mutant's detection record.
#[derive(Debug)]
pub struct MutantAudit {
    /// Mutant name.
    pub name: &'static str,
    /// The finding class the auditor must report (`data_race` |
    /// `lost_update`).
    pub expected: &'static str,
    /// The object label the finding must name.
    pub object: &'static str,
    /// Whether the expected finding was reported.
    pub caught: bool,
    /// Schedules explored before the bug surfaced.
    pub executions: u64,
    /// The replayable schedule witness (thread choice per step).
    pub schedule: Vec<usize>,
}

fn to_sync_sites(profile: &SyncProfile) -> Vec<SyncSite> {
    profile
        .sites
        .iter()
        .map(|s| SyncSite {
            label: s.label.clone(),
            atomic: s.atomic,
            accesses: s.accesses,
            writes_all_relaxed_rmw: !s.writes.is_empty()
                && s.writes.iter().all(|&(kind, order)| {
                    kind == opd_sched::AccessKind::Rmw && order == opd_sched::MemOrder::Relaxed
                }),
            has_acquire_read: s.has_acquire_read(),
            concurrent_rw: s.concurrent_rw,
        })
        .collect()
}

fn audit_one(name: &'static str, model: fn(), expected: Vec<String>) -> SubsystemAudit {
    let mut explorer = Explorer::new();
    explorer.seed = AUDIT_SEED;
    let report = explorer.explore(model);
    let naive = explorer.clone().naive().explore(model);
    SubsystemAudit {
        name,
        executions: report.executions,
        naive_executions: naive.executions,
        transitions: report.transitions,
        max_depth: report.max_depth,
        finding: report.finding.as_ref().map(ToString::to_string),
        profile: SubsystemSyncProfile {
            name: name.to_owned(),
            sites: to_sync_sites(&report.profile),
            expected,
        },
    }
}

/// Explores every modeled subsystem exhaustively (DPOR and naive)
/// and returns their audits, in fixed order.
#[must_use]
pub fn audit_subsystems() -> Vec<SubsystemAudit> {
    vec![audit_one(
        "metrics",
        opd_obs::sched_model::writers_then_snapshot,
        opd_obs::sched_model::expected_objects(),
    )]
}

fn mutant_one(
    name: &'static str,
    model: fn(),
    expected: &'static str,
    object: &'static str,
) -> MutantAudit {
    let mut explorer = Explorer::new();
    explorer.seed = AUDIT_SEED;
    let report = explorer.explore(model);
    let (caught, schedule) = match &report.finding {
        Some(finding) => {
            let matches = match (&finding.kind, expected) {
                (FindingKind::DataRace { object: o, .. }, "data_race") => o == object,
                (FindingKind::LostUpdate { object: o, .. }, "lost_update") => o == object,
                _ => false,
            };
            (matches, finding.witness.choices.clone())
        }
        None => (false, Vec::new()),
    };
    MutantAudit {
        name,
        expected,
        object,
        caught,
        executions: report.executions,
        schedule,
    }
}

/// Runs the seeded-bug mutation suite: every intentionally broken
/// variant of a modeled protocol must be caught with the expected
/// finding on the expected object.
#[must_use]
pub fn mutant_audits() -> Vec<MutantAudit> {
    vec![mutant_one(
        "metrics_lost_update",
        opd_obs::sched_model::metrics_lost_update,
        "lost_update",
        "hits",
    )]
}

/// Runs the `OPD-R` lints over every subsystem audit, in order.
#[must_use]
pub fn audit_lints(audits: &[SubsystemAudit]) -> Vec<Diagnostic> {
    audits.iter().flat_map(|a| race_lints(&a.profile)).collect()
}

/// Renders `BENCH_sched.json` (hand-built: the vendored serde_json is
/// an inert shim). Every field is deterministic, so the committed
/// artifact is freshness-tested by exact comparison.
#[must_use]
pub fn sched_json(
    audits: &[SubsystemAudit],
    mutants: &[MutantAudit],
    lints: &[Diagnostic],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"opd-bench-sched-v1\",\n");
    out.push_str(&format!("  \"seed\": {AUDIT_SEED},\n"));
    out.push_str("  \"subsystems\": [\n");
    for (i, a) in audits.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"executions\": {}, \"naive_executions\": {}, \
             \"pruning_ratio\": {:.4}, \"transitions\": {}, \"max_depth\": {}, \
             \"verdict\": \"{}\"}}{}\n",
            a.name,
            a.executions,
            a.naive_executions,
            a.pruning_ratio(),
            a.transitions,
            a.max_depth,
            a.verdict(),
            if i + 1 < audits.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"mutants\": [\n");
    for (i, m) in mutants.iter().enumerate() {
        let schedule = m
            .schedule
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"expected\": \"{}\", \"object\": \"{}\", \
             \"caught\": {}, \"executions\": {}, \"schedule\": [{}]}}{}\n",
            m.name,
            m.expected,
            m.object,
            m.caught,
            m.executions,
            schedule,
            if i + 1 < mutants.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"lint_warnings\": {}\n", lints.len()));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystems_audit_clean_and_cover_expected_objects() {
        let audits = audit_subsystems();
        assert_eq!(audits.len(), 1);
        for a in &audits {
            assert_eq!(a.verdict(), "clean", "{}: {:?}", a.name, a.finding);
            assert!(a.executions > 0);
            assert!(
                a.naive_executions >= a.executions,
                "{}: DPOR explored more than naive",
                a.name
            );
            assert!(a.pruning_ratio() >= 1.0);
        }
        assert!(audit_lints(&audits).is_empty(), "clean repo audits clean");
    }

    #[test]
    fn live_snapshots_stay_monotone_under_exhaustive_exploration() {
        // The stress half of this claim lives in opd-obs
        // (`live_snapshots_are_monotone_under_stress`, real OS
        // scheduler); this is the exhaustive half — every interleaving
        // of a writer with two concurrent snapshots keeps
        // `s1 <= s2 <= total` and the quiesced total exact.
        let mut explorer = Explorer::new();
        explorer.seed = AUDIT_SEED;
        let report = explorer.explore(opd_obs::sched_model::live_snapshot_monotone);
        assert!(report.is_clean(), "{:?}", report.finding);
        assert!(report.executions > 1, "snapshots must actually interleave");
    }

    #[test]
    fn every_mutant_is_caught_with_a_witness() {
        for m in mutant_audits() {
            assert!(m.caught, "mutant `{}` escaped the auditor", m.name);
            assert!(!m.schedule.is_empty(), "{}: no witness schedule", m.name);
        }
    }

    #[test]
    fn sched_json_is_deterministic_and_shaped() {
        let audits = audit_subsystems();
        let mutants = mutant_audits();
        let lints = audit_lints(&audits);
        let a = sched_json(&audits, &mutants, &lints);
        let b = sched_json(&audit_subsystems(), &mutant_audits(), &lints);
        assert_eq!(a, b, "audit output must be deterministic");
        for needle in [
            "\"schema\": \"opd-bench-sched-v1\"",
            "\"name\": \"metrics\"",
            "\"verdict\": \"clean\"",
            "\"caught\": true",
            "\"lint_warnings\": 0",
        ] {
            assert!(a.contains(needle), "missing {needle} in {a}");
        }
    }

    #[test]
    fn r201_fires_when_coverage_is_missing() {
        let mut audits = audit_subsystems();
        audits[0].profile.expected.push("uncovered_flag".to_owned());
        let lints = audit_lints(&audits);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code().as_str(), "OPD-R201");
        assert!(lints[0].message().contains("uncovered_flag"));
    }
}
