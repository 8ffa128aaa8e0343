//! The `--json` stdout contract: every subcommand with a
//! machine-readable mode must put exactly one JSON document on stdout
//! (human chatter goes to stderr via the `Reporter`), validated with
//! the hand-rolled parser in `common` — the vendored serde_json is an
//! inert offline shim.

mod common;

use common::{opd, parse_json, stdout_json, stdout_json_any, Json};

#[test]
fn lint_json_stdout_is_one_json_document() {
    let out = opd(&["lint", "--json", "lexgen"]);
    let doc = stdout_json(&out);
    assert!(doc.get("lexgen").has("diagnostics"));
}

#[test]
fn bounds_stdout_is_one_json_document() {
    let doc = stdout_json(&opd(&["bounds"]));
    assert!(matches!(doc, Json::Obj(_)));
}

#[test]
fn certify_json_write_keeps_stdout_clean() {
    // `--write` regenerates the committed (deterministic)
    // BENCH_cert.json in place; the "wrote ..." confirmation must not
    // pollute the JSON payload on stdout.
    let out = opd(&["certify", "--json", "--write"]);
    assert_eq!(out.status.code(), Some(0));
    let doc = stdout_json(&out);
    assert_eq!(doc.get("grid_configs").as_u64(), 28);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wrote "),
        "write confirmation should land on stderr in --json mode, got:\n{stderr}"
    );
}

#[test]
fn trace_json_stdout_is_one_json_document() {
    let out = opd(&[
        "trace", "lexgen", "--json", "--limit", "5", "--fuel", "20000",
    ]);
    let doc = stdout_json(&out);
    assert_eq!(doc.get("target").str(), "lexgen");
    assert_eq!(doc.get("config").get("cw").as_u64(), 500);
    let summary = doc.get("summary");
    assert_eq!(summary.get("elements").as_u64(), 20_000);
    assert_eq!(summary.get("shown").as_u64(), 5);
    assert_eq!(doc.get("events").arr().len(), 5);
    assert!(summary.get("events").as_u64() >= 5);
    // Each shown event is an object with a discriminating "type" tag.
    for event in doc.get("events").arr() {
        assert!(!event.get("type").str().is_empty());
    }
}

#[test]
fn trace_json_with_zero_limit_renders_an_empty_event_array() {
    let out = opd(&[
        "trace", "lexgen", "--json", "--limit", "0", "--fuel", "6000",
    ]);
    let doc = stdout_json(&out);
    assert!(doc.get("events").arr().is_empty());
    assert_eq!(doc.get("summary").get("shown").as_u64(), 0);
    assert!(doc.get("summary").get("events").as_u64() > 0);
}

#[test]
fn trace_json_respects_config_spec() {
    let out = opd(&[
        "trace",
        "lexgen",
        "--json",
        "--limit",
        "0",
        "--fuel",
        "6000",
        "--config",
        "cw=200,skip=4",
    ]);
    let doc = stdout_json(&out);
    assert_eq!(doc.get("config").get("cw").as_u64(), 200);
    assert_eq!(doc.get("config").get("skip").as_u64(), 4);
    // skip=4 quarters the number of steps; at most 5 events per step
    // (step, similarity, decision, and one transition pair) plus the
    // end-of-trace phase_end.
    assert!(doc.get("summary").get("events").as_u64() <= 6_000 / 4 * 5 + 1);
}

#[test]
fn trace_kind_filter_keeps_only_the_named_event_kinds() {
    let out = opd(&[
        "trace",
        "lexgen",
        "--json",
        "--fuel",
        "6000",
        "--kind",
        "phase_start,phase_end",
    ]);
    let doc = stdout_json(&out);
    assert!(doc.get("summary").get("events").as_u64() > 0);
    for event in doc.get("events").arr() {
        let tag = event.get("type").str();
        assert!(
            tag == "phase_start" || tag == "phase_end",
            "unfiltered event {tag}"
        );
    }
}

#[test]
fn top_json_stdout_is_one_json_document() {
    let out = opd(&["top", "--once", "--json"]);
    let doc = stdout_json(&out);
    assert_eq!(doc.get("schema").str(), "opd-top-v1");
    assert_eq!(doc.get("verify_failures").as_u64(), 0);
    assert!(doc.get("latency_ticks").get("p99").num() > 0.0);
    assert!(doc.get("span_digest").str().starts_with("0x"));
    // The committed SLO policy holds on the committed soak.
    assert!(doc.get("slo_burns").arr().is_empty());
}

#[test]
fn top_json_slo_burns_exit_1_with_the_burn_code() {
    let out = opd(&["top", "--once", "--json", "--slo-p99", "0"]);
    assert_eq!(out.status.code(), Some(1), "an SLO burn is a failure");
    let doc = stdout_json_any(&out);
    let burns = doc.get("slo_burns").arr();
    assert!(!burns.is_empty());
    assert_eq!(burns[0].get("code").str(), "OPD-O401");
    assert!(burns[0].get("location").str().starts_with("window "));
}

#[test]
fn metrics_dump_json_stdout_is_one_json_document() {
    let out = opd(&["metrics-dump", "--clients", "48", "--json"]);
    let doc = stdout_json(&out);
    assert_eq!(doc.get("schema").str(), "opd-metrics-v1");
    assert!(doc.get("counters").get("serve.frames_processed").as_u64() > 0);
    let latency = doc.get("histograms").get("serve.frame_latency_ticks");
    assert!(latency.get("count").as_u64() > 0);
    assert!(latency.get("p99").num() >= latency.get("p50").num());
}

#[test]
fn metrics_dump_text_is_a_prometheus_exposition() {
    let out = opd(&["metrics-dump", "--clients", "48"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# TYPE opd_serve_frames_processed counter"),
        "{stdout}"
    );
    assert!(
        stdout.contains("opd_serve_frame_latency_ticks_count"),
        "{stdout}"
    );
}

#[test]
fn sweep_stats_json_stdout_is_one_json_document() {
    let out = opd(&[
        "sweep",
        "--stats",
        "--json",
        "--fuel",
        "6000",
        "--threads",
        "2",
    ]);
    let doc = stdout_json(&out);
    assert_eq!(doc.get("schema").str(), "opd-bench-obs-v3");
    assert_eq!(doc.get("grid_configs").as_u64(), 28);
    let buckets = doc.get("buckets").arr();
    assert_eq!(buckets.len(), 8, "one shared bucket per workload");
    for bucket in buckets {
        assert!(bucket.get("shared").boolean());
        assert_eq!(bucket.get("members").as_u64(), 28);
        assert!(
            bucket.get("compare_ops").as_u64() <= bucket.get("static_compare_bound").as_u64(),
            "bucket exceeds its static comparison-op bound: {bucket:?}"
        );
        assert!(bucket.get("compare_ops_per_sec").num() >= 0.0);
    }
    // In --json mode the human lines (accuracy table, profile table,
    // imbalance line) must all be on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mean combined accuracy"));
    assert!(stderr.contains("lpt imbalance"));
}

#[test]
fn sweep_json_without_stats_is_a_usage_error() {
    let out = opd(&["sweep", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--stats"));
}

#[test]
fn sweep_stats_rejects_checkpoint() {
    let out = opd(&["sweep", "--stats", "--checkpoint", "/tmp/nope.ckpt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));
}

#[test]
fn trace_usage_errors_exit_2() {
    for args in [
        &["trace"][..],
        &["trace", "no-such-workload"][..],
        &["trace", "lexgen", "--config", "cw=0"][..],
        &["trace", "lexgen", "--config", "volume=11"][..],
        &["trace", "lexgen", "--limit", "many"][..],
    ] {
        let out = opd(args);
        assert_eq!(out.status.code(), Some(2), "expected usage error: {args:?}");
    }
}

#[test]
fn trace_human_mode_summarises_on_stdout() {
    let out = opd(&["trace", "lexgen", "--limit", "3", "--fuel", "6000"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("more event(s)"));
    assert!(stdout.contains("trace: lexgen: 6000 element(s)"));
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in ["", "{", "[1,]", "{\"a\":1} extra", "{\"a\" 1}", "nul"] {
        assert!(parse_json(bad).is_err(), "accepted {bad:?}");
    }
    let doc = parse_json(" {\"a\": [1, -2.5e3, true, null, \"x\\n\"]} ").unwrap();
    assert_eq!(doc.get("a").arr().len(), 5);
}
