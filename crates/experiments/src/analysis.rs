//! The committed static-analysis artifact (`BENCH_static_bounds.json`).
//!
//! It lets future changes to the workloads or the analyzer
//! regress-check the pre-sizing bounds the runtime relies on.

use opd_analyze::Analysis;
use opd_microvm::workloads::Workload;

/// Renders every built-in workload's static analysis as one JSON
/// object, keyed by workload name in table order.
///
/// The output is deterministic (no timestamps, no host data), so the
/// committed artifact can be compared byte-for-byte by tests.
///
/// # Examples
///
/// ```
/// let json = opd_experiments::analysis::static_bounds_json(1);
/// assert!(json.contains("\"lexgen\""));
/// assert!(json.contains("\"alphabet_bound\""));
/// ```
#[must_use]
pub fn static_bounds_json(scale: u32) -> String {
    let entries: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "  \"{}\": {}",
                w.name(),
                Analysis::of(&w.program(scale)).to_json()
            )
        })
        .collect();
    format!(
        "{{\n \"scale\": {scale},\n \"workloads\": {{\n{}\n }}\n}}\n",
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_lists_every_workload_and_no_findings() {
        let json = static_bounds_json(1);
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"{}\"", w.name())), "{w}");
        }
        // The workloads lint clean, so every diagnostics array is
        // empty in the committed artifact.
        assert!(!json.contains("\"diagnostics\":[{"));
        assert_eq!(json.matches("\"diagnostics\":[]").count(), 8);
    }

    #[test]
    fn artifact_is_deterministic() {
        assert_eq!(static_bounds_json(1), static_bounds_json(1));
    }
}
