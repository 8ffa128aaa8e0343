//! The `opd certify` implementation: resource certificates for every
//! (config × workload) pair of the default benchmark grid, their
//! `OPD-A` lints, and the `BENCH_cert.json` artifact.
//!
//! Everything here is static — certificates come from the abstract
//! interpretation alone, no trace is ever executed — so the artifact
//! is bit-identical across runs and hosts and freshness-tested by
//! exact comparison (`tests/cert_artifact.rs`). The dynamic half of
//! the claim (every metered counter inside its certified interval)
//! lives in `tests/cert_bounds.rs`.

use opd_analyze::{predicted_scans, AbsInt, Diagnostic, FlowInfo, ResourceCertificate};
use opd_core::DetectorConfig;
use opd_microvm::workloads::Workload;

use crate::grid::default_plan_grid;

/// The fuel the committed artifact (and the differential suite) pins
/// certificates at: the same trace-length cap `tests/counter_bounds.rs`
/// uses, so the two suites describe the same truncated runs.
pub const CERT_FUEL: u64 = 12_000;

/// One workload's certificates across the whole grid.
#[derive(Debug)]
pub struct WorkloadCertificates {
    /// The certified workload.
    pub workload: Workload,
    /// One certificate per grid config, in grid order.
    pub certs: Vec<ResourceCertificate>,
}

impl WorkloadCertificates {
    /// Grid members whose certified compare-op bound strictly beats
    /// the flat cost-model bound.
    #[must_use]
    pub fn tighter_count(&self) -> usize {
        self.certs
            .iter()
            .filter(|c| c.tighter_than_cost_bound())
            .count()
    }
}

/// Certifies the default plan grid against all 8 workloads at `scale`
/// under `fuel`. Returns the grid and the per-workload certificates;
/// one abstract interpretation per workload covers all 28 configs.
#[must_use]
pub fn grid_certificates(
    scale: u32,
    fuel: u64,
) -> (Vec<DetectorConfig>, Vec<WorkloadCertificates>) {
    let configs = default_plan_grid();
    let per_workload = Workload::ALL
        .iter()
        .map(|&workload| {
            let program = workload.program(scale);
            let absint = AbsInt::of(&program);
            let flow = FlowInfo::compute(&program);
            let certs = configs
                .iter()
                .map(|c| ResourceCertificate::from_parts(&absint, &flow, c, fuel))
                .collect();
            WorkloadCertificates { workload, certs }
        })
        .collect();
    (configs, per_workload)
}

/// Runs the `OPD-A` lints over every (workload × config) pair, in
/// grid order. `budget` enables the A303 admission check per pair.
#[must_use]
pub fn cert_lints(per_workload: &[WorkloadCertificates], budget: Option<u64>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for wc in per_workload {
        for (i, cert) in wc.certs.iter().enumerate() {
            let location = format!("{} × config #{i}", wc.workload);
            out.extend(cert.lints(&location, budget));
        }
    }
    out
}

/// Counts occurrences of one lint code string among `lints`.
fn count_code(lints: &[Diagnostic], code: &str) -> usize {
    lints.iter().filter(|d| d.code().as_str() == code).count()
}

/// Renders `BENCH_cert.json` (hand-built: the vendored serde_json is
/// an inert shim). Every certificate is a pure function of the IR, so
/// the committed artifact is freshness-tested by exact comparison.
///
/// All 28 grid configs share one window shape (cw = tw = 500, skip
/// 1), so per workload the element/step/judged/occupancy/site/memory
/// intervals coincide across configs and are emitted once; the
/// per-config lines carry what differs — compare-op intervals, the
/// flat cost bound, and the phase interval.
#[must_use]
pub fn cert_json(scale: u32, fuel: u64) -> String {
    let (configs, per_workload) = grid_certificates(scale, fuel);
    let lints = cert_lints(&per_workload, None);
    let pairs = configs.len() * per_workload.len();
    let tighter: usize = per_workload
        .iter()
        .map(WorkloadCertificates::tighter_count)
        .sum();

    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"opd-bench-cert-v1\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"fuel\": {fuel},\n"));
    out.push_str(&format!("  \"grid_configs\": {},\n", configs.len()));
    out.push_str(&format!("  \"workloads\": {},\n", per_workload.len()));
    out.push_str(&format!("  \"pairs\": {pairs},\n"));
    out.push_str(&format!(
        "  \"grid_scans\": {},\n",
        predicted_scans(&configs)
    ));
    out.push_str(&format!("  \"tighter_pairs\": {tighter},\n"));
    out.push_str(&format!(
        "  \"tighter_fraction\": {:.4},\n",
        tighter as f64 / pairs as f64
    ));
    out.push_str(&format!(
        "  \"lints\": {{\"a301\": {}, \"a302\": {}, \"a303\": {}, \"a304\": {}, \"a305\": {}}},\n",
        count_code(&lints, "OPD-A301"),
        count_code(&lints, "OPD-A302"),
        count_code(&lints, "OPD-A303"),
        count_code(&lints, "OPD-A304"),
        count_code(&lints, "OPD-A305"),
    ));
    out.push_str("  \"per_workload\": [\n");
    for (wi, wc) in per_workload.iter().enumerate() {
        let shared = &wc.certs[0];
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"elements\": [{},{}], \"steps\": [{},{}], \
             \"judged_steps\": [{},{}], \"occupancy\": [{},{}], \"sites\": [{},{}], \
             \"memory_bytes\": [{},{}], \"warm_step\": {}, \"truncated\": {}, \
             \"tighter\": {},\n",
            wc.workload,
            shared.elements().lo(),
            shared.elements().hi(),
            shared.steps().lo(),
            shared.steps().hi(),
            shared.judged_steps().lo(),
            shared.judged_steps().hi(),
            shared.occupancy().lo(),
            shared.occupancy().hi(),
            shared.sites().lo(),
            shared.sites().hi(),
            shared.memory_bytes().lo(),
            shared.memory_bytes().hi(),
            shared.warm_step(),
            shared.truncated(),
            wc.tighter_count(),
        ));
        out.push_str("     \"configs\": [\n");
        for (ci, cert) in wc.certs.iter().enumerate() {
            let bound = cert
                .cost_compare_bound()
                .map_or_else(|| "null".to_string(), |b| b.to_string());
            out.push_str(&format!(
                "      {{\"config\": {ci}, \"compare_ops\": [{},{}], \"cost_bound\": {bound}, \
                 \"phases\": [{},{}], \"tighter\": {}}}{}\n",
                cert.compare_ops().lo(),
                cert.compare_ops().hi(),
                cert.phases().lo(),
                cert.phases().hi(),
                cert.tighter_than_cost_bound(),
                if ci + 1 < wc.certs.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if wi + 1 < per_workload.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_artifact_grid_is_tighter_on_every_pair() {
        let (configs, per_workload) = grid_certificates(1, CERT_FUEL);
        assert_eq!(configs.len(), 28);
        assert_eq!(per_workload.len(), 8);
        for wc in &per_workload {
            assert_eq!(
                wc.tighter_count(),
                configs.len(),
                "{}: warm-up slack must beat the flat bound on the whole grid",
                wc.workload
            );
            for cert in &wc.certs {
                assert!(!cert.vacuous(), "{}", wc.workload);
                let bound = cert.cost_compare_bound().expect("bound fits u64");
                assert!(cert.compare_ops().hi() < bound);
            }
        }
    }

    #[test]
    fn artifact_lints_are_exactly_the_expected_truncations() {
        // At the pinned fuel the only expected findings are A304
        // (fuel-truncated) pairs — never A301/A302/A305 on this grid.
        let (_, per_workload) = grid_certificates(1, CERT_FUEL);
        let lints = cert_lints(&per_workload, None);
        for d in &lints {
            assert_eq!(d.code().as_str(), "OPD-A304", "{}", d.render());
        }
        // With unlimited fuel the grid is entirely lint-clean.
        let (_, per_workload) = grid_certificates(1, u64::MAX);
        assert!(cert_lints(&per_workload, None).is_empty());
    }

    #[test]
    fn a_tiny_budget_rejects_every_pair_a_huge_budget_none() {
        let (_, per_workload) = grid_certificates(1, CERT_FUEL);
        let broke = cert_lints(&per_workload, Some(0));
        let rejected = broke
            .iter()
            .filter(|d| d.code().as_str() == "OPD-A303")
            .count();
        assert_eq!(rejected, 224, "every pair needs some memory");
        let rich = cert_lints(&per_workload, Some(u64::MAX));
        assert!(!rich.iter().any(|d| d.code().as_str() == "OPD-A303"));
    }

    #[test]
    fn cert_json_is_deterministic_and_shaped() {
        let a = cert_json(1, CERT_FUEL);
        let b = cert_json(1, CERT_FUEL);
        assert_eq!(a, b, "certificates must be deterministic");
        for needle in [
            "\"schema\": \"opd-bench-cert-v1\"",
            "\"pairs\": 224",
            "\"tighter_pairs\": 224",
            "\"tighter_fraction\": 1.0000",
            "\"grid_scans\": 1",
            "\"a303\": 0",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
        assert!(a.ends_with("}\n"));
    }
}
