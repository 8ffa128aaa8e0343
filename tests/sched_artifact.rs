//! The committed `BENCH_sched.json` artifact: structural validity and
//! freshness. Unlike the timing artifacts, *every* field here is
//! deterministic (seeded DFS over a serialized runtime), so freshness
//! is byte-for-byte: the regenerated document must equal the committed
//! one exactly.

mod common;

use common::{parse_json, Json};

use opd_experiments::sched::{
    audit_lints, audit_subsystems, mutant_audits, sched_json, AUDIT_SEED,
};

fn committed_text() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sched.json"))
        .expect("BENCH_sched.json is committed at the repository root")
}

fn committed() -> Json {
    parse_json(&committed_text()).expect("BENCH_sched.json parses as one JSON document")
}

#[test]
fn committed_artifact_is_byte_identical_to_a_fresh_audit() {
    let audits = audit_subsystems();
    let mutants = mutant_audits();
    let lints = audit_lints(&audits);
    let fresh = sched_json(&audits, &mutants, &lints);
    assert_eq!(
        committed_text(),
        fresh,
        "stale BENCH_sched.json; regenerate with `cargo run --bin opd -- audit --write`"
    );
}

#[test]
fn committed_artifact_is_structurally_valid() {
    let doc = committed();
    assert_eq!(doc.get("schema").str(), "opd-bench-sched-v1");
    assert_eq!(doc.get("seed").as_u64(), AUDIT_SEED);
    assert_eq!(doc.get("lint_warnings").as_u64(), 0);

    let subsystems = doc.get("subsystems").arr();
    let names: Vec<&str> = subsystems.iter().map(|s| s.get("name").str()).collect();
    assert_eq!(names, ["metrics"]);
    for s in subsystems {
        assert_eq!(s.get("verdict").str(), "clean");
        let executions = s.get("executions").as_u64();
        let naive = s.get("naive_executions").as_u64();
        assert!(executions >= 1);
        assert!(
            naive >= executions,
            "{}: DPOR explored more schedules than the naive search",
            s.get("name").str()
        );
        assert!(s.get("pruning_ratio").num() >= 1.0);
        assert!(s.get("transitions").as_u64() >= s.get("max_depth").as_u64());
    }

    let mutants = doc.get("mutants").arr();
    assert_eq!(mutants.len(), 1);
    for m in mutants {
        assert!(
            m.get("caught").boolean(),
            "mutant `{}` escaped the auditor",
            m.get("name").str()
        );
        assert!(
            !m.get("schedule").arr().is_empty(),
            "mutant `{}` has no replay witness",
            m.get("name").str()
        );
    }
}
