//! Freshness tests for the committed `BENCH_dash.json`
//! artifact and the span layer's determinism claims:
//!
//! * the committed artifact regenerates byte-for-byte at thread
//!   counts 1, 2, and 8;
//! * the raw span log — not just its digest — is byte-identical
//!   across thread counts.

mod common;

use common::parse_json;

use opd_experiments::dash::{dash_config, dash_source, dash_study, render_dash_json};
use opd_obs::SpanLog;
use opd_serve::{run_service_traced, NullSubscriber, ServiceOptions, TraceConfig};

fn committed() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_dash.json"))
        .expect("BENCH_dash.json is committed at the repository root")
}

#[test]
fn committed_dash_artifact_is_current_across_thread_counts() {
    let committed = committed();
    parse_json(&committed).expect("committed artifact parses");

    for threads in [1, 2, 8] {
        let study = dash_study(1, threads).expect("dashboard study runs");
        let regenerated = render_dash_json(&study);
        assert_eq!(
            committed, regenerated,
            "BENCH_dash.json is stale or thread-sensitive at {threads} thread(s); \
             regenerate with `opd top --write`"
        );
    }
}

#[test]
fn span_logs_are_byte_identical_across_thread_counts() {
    let source = dash_source(1, 180);
    let config = dash_config();
    let run = |threads: usize| {
        run_service_traced::<SpanLog>(
            &config,
            &source,
            &ServiceOptions {
                threads,
                ..ServiceOptions::default()
            },
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("traced soak runs")
    };
    let (report_one, trace_one) = run(1);
    let log_one = trace_one.span_log();
    for threads in [2, 8] {
        let (report, trace) = run(threads);
        assert_eq!(report_one, report, "{threads} thread(s) changed the report");
        assert_eq!(
            log_one,
            trace.span_log(),
            "{threads} thread(s) changed the span log bytes"
        );
        assert_eq!(trace_one.postmortems, trace.postmortems);
    }
    assert!(!trace_one.spans.is_empty());
}
