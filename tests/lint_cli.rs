//! End-to-end checks of the `opd` binary: lint output, exit codes
//! (also under `--json`), JSON mode, and freshness of the committed
//! static-bounds artifact.

use std::process::Command;

fn opd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_opd"))
        .args(args)
        .output()
        .expect("opd binary runs")
}

#[test]
fn lint_all_workloads_is_clean_under_deny_warnings() {
    let out = opd(&["lint", "--deny-warnings"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("lint: 8 target(s), 0 error(s), 0 warning(s): ok"));
    for name in ["blockcomp", "lexgen", "srccomp"] {
        assert!(stdout.contains(&format!("{name}: 0 error(s)")), "{stdout}");
    }
}

#[test]
fn lint_json_reports_per_workload_bounds() {
    let out = opd(&["lint", "--json", "lexgen", "tracer"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"lexgen\""));
    assert!(stdout.contains("\"tracer\""));
    assert!(stdout.contains("\"alphabet_bound\""));
    assert!(stdout.contains("\"diagnostics\":[]"));
}

#[test]
fn lint_flags_a_broken_listing_and_fails() {
    let listing = "\
// program: 1 functions, 0 loops, 1 branch sites, entry f0 (arg 0)
fn spin (f0) // entry {
  branch @0 p=1.0
  call f0(5)
}
";
    let path = std::env::temp_dir().join(format!("opd-lint-test-{}.opd", std::process::id()));
    std::fs::write(&path, listing).expect("write temp listing");
    let out = opd(&["lint", path.to_str().expect("utf8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[OPD-E002]"), "{stdout}");
    assert!(stdout.contains("warning[OPD-W003]"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn lint_json_still_fails_on_error_diagnostics() {
    // `--json` changes the output format, not the exit-code contract:
    // any OPD-E* diagnostic must fail the process.
    let path = std::env::temp_dir().join(format!("opd-lint-json-test-{}.opd", std::process::id()));
    std::fs::write(
        &path,
        "fn main (f0) // entry {\n  branch @0 p=1.0\n  call f0(5)\n}\n",
    )
    .expect("write temp listing");
    let out = opd(&["lint", "--json", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OPD-E002"), "{stdout}");
    assert!(stdout.contains("\"severity\":\"error\""), "{stdout}");
    // A clean program under --json still exits 0.
    let out = opd(&["lint", "--json", "lexgen"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unknown_targets_and_flags_exit_with_usage_error() {
    assert_eq!(opd(&["lint", "nosuchworkload"]).status.code(), Some(2));
    assert_eq!(opd(&["lint", "--frobnicate"]).status.code(), Some(2));
    assert_eq!(opd(&["explode"]).status.code(), Some(2));
}

#[test]
fn committed_bounds_artifact_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_static_bounds.json");
    let committed = std::fs::read_to_string(path)
        .expect("BENCH_static_bounds.json exists at the repository root");
    assert_eq!(
        committed,
        opd_experiments::analysis::static_bounds_json(1),
        "stale static-bounds artifact: regenerate with `cargo run --bin opd -- bounds --write`"
    );
}
