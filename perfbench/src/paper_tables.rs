//! `paper_tables`: the thirteen `exp::*::run` entry points in the
//! `all` binary's order, on one thread with every trace capped by fuel.
//!
//! Each experiment prepares its own workloads and solves its own
//! oracles inside its `run`, so the timed region covers preparation,
//! hundreds of small grid sweeps, and scoring. Rendered tables are
//! compared against per-table digests recorded in `reference/`;
//! `overhead` is left out of the check because it prints measured
//! throughput. The experiments have no seeded inputs of their own.

use std::fmt::Write as _;
use std::time::Instant;

use opd_experiments::exp::{
    client, fig4, fig5, fig6, fig7, fig8, inputs, overhead, related, sampling, scaling, table1,
    table2, ExpOptions,
};
use opd_experiments::grid::MPLS_FIG4;
use opd_experiments::runner::PreparedWorkload;
use opd_microvm::workloads::Workload;

use crate::span::Tracer;
use crate::util::{self, least, median, repeat_for, Calibration, Fnv};
use crate::{Layers, Metric, Outcome};

/// Interpreter fuel per workload trace, for every experiment; a round
/// of all thirteen takes about 0.8 s on a 2-vCPU host.
const FUEL: u64 = 8_000;

/// Timed preparations per round. One takes about 5 ms, so several
/// per round give `setup_s` enough samples.
const SETUP_REPS: usize = 4;

const TABLES_REF: &str = "paper_tables.txt";

/// The experiments in the `all` binary's order: name, span name, and
/// per-layer metric name.
const EXPERIMENTS: [(&str, &str, &str); 13] = [
    (
        "table1",
        "experiments.exp.table1",
        "experiments.exp.table1_s",
    ),
    (
        "table2",
        "experiments.exp.table2",
        "experiments.exp.table2_s",
    ),
    ("fig4", "experiments.exp.fig4", "experiments.exp.fig4_s"),
    ("fig5", "experiments.exp.fig5", "experiments.exp.fig5_s"),
    ("fig6", "experiments.exp.fig6", "experiments.exp.fig6_s"),
    ("fig7", "experiments.exp.fig7", "experiments.exp.fig7_s"),
    ("fig8", "experiments.exp.fig8", "experiments.exp.fig8_s"),
    (
        "related",
        "experiments.exp.related",
        "experiments.exp.related_s",
    ),
    (
        "overhead",
        "experiments.exp.overhead",
        "experiments.exp.overhead_s",
    ),
    (
        "client",
        "experiments.exp.client",
        "experiments.exp.client_s",
    ),
    (
        "scaling",
        "experiments.exp.scaling",
        "experiments.exp.scaling_s",
    ),
    (
        "sampling",
        "experiments.exp.sampling",
        "experiments.exp.sampling_s",
    ),
    (
        "inputs",
        "experiments.exp.inputs",
        "experiments.exp.inputs_s",
    ),
];

fn options() -> ExpOptions {
    ExpOptions {
        scale: 1,
        threads: 1,
        workloads: Workload::ALL.to_vec(),
        fuel: FUEL,
    }
}

/// Runs experiment `i` inside a span; returns its own run time (the
/// rendering to text is left out) and the rendered table.
fn run_experiment(i: usize, opts: &ExpOptions, tracer: &mut Tracer) -> (f64, String) {
    macro_rules! timed {
        ($module:ident) => {{
            let started = Instant::now();
            let result = tracer.span(EXPERIMENTS[i].1, |_| {
                std::hint::black_box($module::run(opts))
            });
            (started.elapsed().as_secs_f64(), result.to_string())
        }};
    }
    match i {
        0 => timed!(table1),
        1 => timed!(table2),
        2 => timed!(fig4),
        3 => timed!(fig5),
        4 => timed!(fig6),
        5 => timed!(fig7),
        6 => timed!(fig8),
        7 => timed!(related),
        8 => timed!(overhead),
        9 => timed!(client),
        10 => timed!(scaling),
        11 => timed!(sampling),
        _ => timed!(inputs),
    }
}

/// One round: every experiment once. Returns each experiment's run
/// time and each rendered table's digest.
fn round(opts: &ExpOptions, tracer: &mut Tracer) -> (Vec<f64>, Vec<u64>) {
    let mut times = Vec::with_capacity(EXPERIMENTS.len());
    let mut digests = Vec::with_capacity(EXPERIMENTS.len());
    tracer.span("paper_tables.round", |t| {
        for i in 0..EXPERIMENTS.len() {
            let (secs, text) = run_experiment(i, opts, t);
            times.push(secs);
            digests.push(Fnv::new().bytes(text.as_bytes()).finish());
        }
    });
    (times, digests)
}

fn checked(i: usize) -> bool {
    EXPERIMENTS[i].0 != "overhead"
}

fn load_reference() -> Result<Vec<u64>, String> {
    let text = String::from_utf8(util::read_reference(TABLES_REF)?)
        .map_err(|e| format!("{TABLES_REF}: {e}"))?;
    let mut digests = vec![None; EXPERIMENTS.len()];
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        let (Some(name), Some(hex)) = (f.next(), f.next()) else {
            return Err(format!("{TABLES_REF}: bad line {line:?}"));
        };
        let i = EXPERIMENTS
            .iter()
            .position(|e| e.0 == name)
            .ok_or_else(|| format!("{TABLES_REF}: unknown table {name}"))?;
        digests[i] =
            Some(u64::from_str_radix(hex, 16).map_err(|e| format!("{TABLES_REF}: {name}: {e}"))?);
    }
    (0..EXPERIMENTS.len())
        .map(|i| match digests[i] {
            Some(d) => Ok(d),
            None if !checked(i) => Ok(0),
            None => Err(format!("{TABLES_REF}: no digest for {}", EXPERIMENTS[i].0)),
        })
        .collect()
}

/// Returns `(tables equal, tables checked)`.
fn check(reference: &[u64], digests: &[u64]) -> (u64, u64) {
    let mut equal = 0;
    let mut total = 0;
    for i in (0..EXPERIMENTS.len()).filter(|&i| checked(i)) {
        total += 1;
        equal += u64::from(digests[i] == reference[i]);
    }
    (equal, total)
}

/// Writes the reference digests from one round.
pub fn record() -> Result<(), String> {
    let (_, digests) = round(&options(), &mut Tracer::off());
    let mut text = format!("# table, FNV-1a digest of its rendered text at fuel {FUEL}\n");
    for i in (0..EXPERIMENTS.len()).filter(|&i| checked(i)) {
        let _ = writeln!(text, "{} {:016x}", EXPERIMENTS[i].0, digests[i]);
    }
    util::write_reference(TABLES_REF, text.as_bytes())
}

/// The stand-in for `setup_s`. The experiments have no set-up before
/// the timed region: each prepares its own workloads inside its `run`,
/// through `runner::prepare_all` (one thread per workload). This times
/// the same per-workload preparation, `prepare_with_fuel`, on the
/// calling thread, for all eight workloads at the cap with oracles for
/// the largest MPL set any experiment uses, and throws the result
/// away. A change inside `prepare_with_fuel` moves it; a change to
/// `prepare_all`'s threading does not.
fn prepare() -> Vec<PreparedWorkload> {
    Workload::ALL
        .iter()
        .map(|&w| PreparedWorkload::prepare_with_fuel(w, 1, &MPLS_FIG4, FUEL))
        .collect()
}

/// The end-to-end run: tracing off. Each round runs timed
/// preparations and then every experiment, between two host
/// calibrations, and its times are scaled to the reference speed.
/// `wall_s` is the median over rounds of the scaled sum of the
/// experiments' run times, and `setup_s` the median scaled
/// preparation.
pub fn measure(seconds: f64) -> Result<Outcome, String> {
    let reference = load_reference()?;
    let opts = options();
    let mut calibration = Calibration::new();
    let mut setup_times = Vec::new();
    let mut round_times = Vec::new();
    let mut raw_round_times = Vec::new();
    let mut scales = Vec::new();
    let mut peaks = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut ok_frac = 1.0;
    repeat_for(seconds, 3, || {
        let before = calibration.measure();
        let mut setups = Vec::with_capacity(SETUP_REPS);
        drop(util::timed_reps(SETUP_REPS, &mut setups, prepare));
        util::reset_peak_rss()?;
        let (secs, digests) = round(&opts, &mut Tracer::off());
        peaks.push(util::peak_rss_mb()?);
        let after = calibration.measure();
        let scale = Calibration::scale(before, after);
        scales.push(scale);
        setup_times.extend(setups.iter().map(|s| s * scale));
        let round_s: f64 = secs.iter().sum();
        round_times.push(round_s * scale);
        raw_round_times.push(round_s);
        let (equal, total) = check(&reference, &digests);
        attempted += total;
        failed += total - equal;
        ok_frac = equal as f64 / total as f64;
        Ok(())
    })?;
    let wall_s = median(&round_times);
    println!(
        "paper_tables: {} rounds of {} experiments at fuel {FUEL}; \
         round s min/median/max raw {}, scaled {}; host scale {}; scaled setup {}; peak MiB {}",
        round_times.len(),
        EXPERIMENTS.len(),
        util::spread(&raw_round_times),
        util::spread(&round_times),
        util::spread(&scales),
        util::spread(&setup_times),
        util::spread(&peaks)
    );
    let tables = EXPERIMENTS.len() as f64;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("config_elements_per_s", tables / wall_s, "1/s"),
            Metric::new("frames_per_s", tables / wall_s, "1/s"),
            Metric::new("peak_rss_mb", median(&peaks), "MiB"),
            Metric::new("ok_frac", ok_frac, "ratio"),
        ],
    })
}

/// The traced run: untraced and traced rounds interleaved.
pub fn layers(seconds: f64, tracer_out: &str) -> Result<Layers, String> {
    let reference = load_reference()?;
    let opts = options();
    let mut tracer = Tracer::new();
    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    repeat_for(seconds, 2, || {
        let (_, digests) = {
            let started = Instant::now();
            let out = round(&opts, &mut Tracer::off());
            plain_times.push(started.elapsed().as_secs_f64());
            out
        };
        let started = Instant::now();
        let (_, traced_digests) = round(&opts, &mut tracer);
        traced_times.push(started.elapsed().as_secs_f64());
        for d in [&digests, &traced_digests] {
            let (equal, total) = check(&reference, d);
            attempted += total;
            failed += total - equal;
        }
        Ok(())
    })?;
    let rounds = traced_times.len();
    tracer
        .write(&util::out_dir().join(tracer_out))
        .map_err(|e| format!("writing spans: {e}"))?;
    let (table, unattributed_frac) = tracer.layer_table("paper_tables.round", rounds);
    println!("paper_tables traced: {rounds} rounds, per round:\n{table}");
    let own = tracer.self_seconds();
    Ok(Layers {
        attempted,
        failed,
        overhead_frac: least(&traced_times) / least(&plain_times) - 1.0,
        unattributed_frac,
        metrics: EXPERIMENTS
            .iter()
            .map(|&(_, span, metric)| {
                Metric::new(
                    metric,
                    own.get(span).copied().unwrap_or(0.0) / rounds as f64,
                    "s",
                )
            })
            .collect(),
    })
}
