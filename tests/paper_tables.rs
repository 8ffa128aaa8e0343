//! Paper-table digests: every experiment that renders a deterministic
//! table (all but `overhead`, which prints measured throughput) must
//! render the same text as before, and the same text at any thread
//! count.
//!
//! The tier-1 tests run a 2-workload subset at a small fuel cap and
//! compare each table's FNV-1a digest with one recorded from the
//! experiments' earlier per-workload detector loops; the two studies
//! on derived streams (`sampling`, `inputs`) are also pinned on longer
//! traces, where their scores are not all 1.0. The `#[ignore]`d
//! variant runs all eight workloads at the benchmark's fuel cap,
//! checks the digests `perfbench/reference/paper_tables.txt` pins, and
//! compares one thread with four, which exercises the
//! certificate-priced LPT scheduler on every experiment's sweep:
//!
//! ```text
//! cargo test -q --release -p opd --test paper_tables -- --include-ignored
//! ```

use opd::experiments::exp::{
    client, fig4, fig5, fig6, fig7, fig8, inputs, related, sampling, scaling, table1, table2,
    ExpOptions,
};
use opd::microvm::workloads::Workload;
use opd::trace::fnv64;

/// Interpreter fuel per workload trace, as in the benchmark.
const FUEL: u64 = 8_000;

/// The subset the tier-1 digests cover: the compress analogue (which
/// Figure 5 singles out) and a call-heavy workload (whose method
/// stream fills the input-generality study's windows).
const SUBSET: [Workload; 2] = [Workload::Blockcomp, Workload::Tracer];

/// Runs one experiment and renders its table.
type Render = fn(&ExpOptions) -> String;

/// The twelve deterministic tables, by name, with their renderers.
const TABLES: [(&str, Render); 12] = [
    ("table1", |o| table1::run(o).to_string()),
    ("table2", |o| table2::run(o).to_string()),
    ("fig4", |o| fig4::run(o).to_string()),
    ("fig5", |o| fig5::run(o).to_string()),
    ("fig6", |o| fig6::run(o).to_string()),
    ("fig7", |o| fig7::run(o).to_string()),
    ("fig8", |o| fig8::run(o).to_string()),
    ("related", |o| related::run(o).to_string()),
    ("client", |o| client::run(o).to_string()),
    ("scaling", |o| scaling::run(o).to_string()),
    ("sampling", |o| sampling::run(o).to_string()),
    ("inputs", |o| inputs::run(o).to_string()),
];

/// FNV-1a digests of the tables rendered over [`SUBSET`] at [`FUEL`],
/// in [`TABLES`] order.
const SUBSET_DIGESTS: [u64; 12] = [
    0x3a84a98e7751693c,
    0x9ef5c8d72f31cb1c,
    0xc4075ba203f8cbae,
    0x188c8be6bc39906e,
    0xbebd78728b927614,
    0xdf6499f8883d7ec9,
    0x9b14c0a2153c2e63,
    0xf72a82b7859c8fd5,
    0x2159e140c5980133,
    0xbfb63e185644a52a,
    0x95c6f5209eceff9a,
    0x09390e7c71a38b58,
];

fn options(workloads: &[Workload], threads: usize) -> ExpOptions {
    ExpOptions {
        scale: 1,
        threads,
        workloads: workloads.to_vec(),
        fuel: FUEL,
    }
}

fn render(opts: &ExpOptions) -> Vec<String> {
    TABLES.iter().map(|(_, run)| run(opts)).collect()
}

/// Names every table whose digest differs from `expected`, with the
/// digest it rendered.
fn digest_mismatches(tables: &[String], expected: &[u64]) -> Vec<String> {
    TABLES
        .iter()
        .zip(tables)
        .zip(expected)
        .filter_map(|(((name, _), text), &want)| {
            let got = fnv64(text.as_bytes());
            (got != want).then(|| format!("{name}: {got:016x} (want {want:016x})"))
        })
        .collect()
}

fn assert_same_text(a: &[String], b: &[String], what: &str) {
    for ((name, _), (x, y)) in TABLES.iter().zip(a.iter().zip(b)) {
        assert_eq!(x, y, "{name}: {what}");
    }
}

#[test]
fn subset_tables_match_recorded_digests_at_any_thread_count() {
    let one = render(&options(&SUBSET, 1));
    let bad = digest_mismatches(&one, &SUBSET_DIGESTS);
    assert!(bad.is_empty(), "table digests moved:\n{}", bad.join("\n"));
    let three = render(&options(&SUBSET, 3));
    assert_same_text(&one, &three, "threads 1 and 3 render different text");
}

/// FNV-1a digests of the two studies on derived streams, rendered over
/// [`SUBSET`] at a fuel cap where they carry information: at [`FUEL`]
/// every `sampling` and `inputs` score is 1.0 (the MPL-10K oracles
/// find no phase), and under any cap the `inputs` method column scores
/// an uncapped stream against a capped oracle, so it is pinned on
/// complete runs.
const LONG_DIGESTS: [(&str, u64, u64); 2] = [
    ("sampling", 40_000, 0x1281_2546_b160_90fa),
    ("inputs", u64::MAX, 0x368c_1337_8f3a_0c0e),
];

#[test]
fn derived_stream_tables_match_recorded_digests_on_longer_traces() {
    for (name, fuel, want) in LONG_DIGESTS {
        let opts = ExpOptions {
            fuel,
            ..options(&SUBSET, 2)
        };
        let (_, run) = TABLES
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known table");
        let text = run(&opts);
        let got = fnv64(text.as_bytes());
        assert_eq!(got, want, "{name}: {got:016x} (want {want:016x})\n{text}");
    }
}

/// The benchmark's pinned digests, in [`TABLES`] order.
fn benchmark_digests() -> Vec<u64> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/perfbench/reference/paper_tables.txt"
    );
    let text = std::fs::read_to_string(path).expect("benchmark reference digests");
    let pinned: Vec<(&str, u64)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("`name digest` line");
            (name, u64::from_str_radix(hex, 16).expect("hex digest"))
        })
        .collect();
    TABLES
        .iter()
        .map(|(name, _)| {
            pinned
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no pinned digest for {name}"))
                .1
        })
        .collect()
}

#[test]
#[ignore = "all eight workloads; run in release from scripts/check.sh"]
fn all_workload_tables_match_the_benchmark_at_one_and_four_threads() {
    let one = render(&options(&Workload::ALL, 1));
    let bad = digest_mismatches(&one, &benchmark_digests());
    assert!(bad.is_empty(), "table digests moved:\n{}", bad.join("\n"));
    let four = render(&options(&Workload::ALL, 4));
    assert_same_text(&one, &four, "threads 1 and 4 render different text");
}
