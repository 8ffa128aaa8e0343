//! End-to-end and per-layer benchmark of the opd workspace.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `grid_sweep`, `paper_tables`, `serve_soak` (see each
//! module). The process pins itself to one CPU and runs everything on
//! one worker thread. With `--trace 0` a run repeats set-up and the
//! workload's timed round for `--seconds`, each round between two host
//! calibrations that scale its times to a reference host speed (see
//! `util::Calibration`), checks every round's outputs against the
//! references in `reference/` outside the timed regions, and prints the
//! end-to-end metrics: medians over rounds of the scaled round and
//! set-up times, and of the round peak RSS. With `--trace 1` it runs the
//! named workload's traced pass for `--seconds` and the other
//! workloads' traced passes briefly, recording spans around the calls
//! into each layer, and prints per-layer self times and counts. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--record` writes the reference outputs from the current program
//! instead of measuring.

mod grid_sweep;
mod paper_tables;
mod serve_soak;
mod span;
mod util;

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of an end-to-end run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The result of one workload's traced pass.
#[derive(Debug)]
pub struct Layers {
    pub attempted: u64,
    pub failed: u64,
    /// Traced round time over untraced round time, minus 1.
    pub overhead_frac: f64,
    /// Share of the traced round time no layer span covers.
    pub unattributed_frac: f64,
    pub metrics: Vec<Metric>,
}

const WORKLOADS: [&str; 3] = ["grid_sweep", "paper_tables", "serve_soak"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn measure(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "grid_sweep" => grid_sweep::measure(args.seed, args.seconds),
        "paper_tables" => paper_tables::measure(args.seconds),
        _ => serve_soak::measure(args.seed, args.seconds),
    }
}

/// Runs the named workload's traced pass for `--seconds`, and every
/// other workload's traced pass for its minimum of two rounds, because
/// a traced run must report every per-layer metric. Reports the
/// per-layer metrics of all of them, plus the named workload's tracing
/// overhead and unattributed share.
fn trace(args: &Args) -> Result<Outcome, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let out = format!("spans-{name}.tsv");
        let seconds = if name == args.workload {
            args.seconds
        } else {
            0.0
        };
        let layers = match name {
            "grid_sweep" => grid_sweep::layers(args.seed, seconds, &out)?,
            "paper_tables" => paper_tables::layers(seconds, &out)?,
            _ => serve_soak::layers(args.seed, seconds, &out)?,
        };
        println!(
            "{name}: trace_overhead_frac {:+.4}, unattributed {:.2}%\n",
            layers.overhead_frac,
            100.0 * layers.unattributed_frac
        );
        attempted += layers.attempted;
        failed += layers.failed;
        metrics.extend(layers.metrics);
        if name == args.workload {
            metrics.push(Metric::new(
                "trace_overhead_frac",
                layers.overhead_frac,
                "ratio",
            ));
            metrics.push(Metric::new(
                "unattributed_frac",
                layers.unattributed_frac,
                "ratio",
            ));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn record(args: &Args) -> Result<(), String> {
    grid_sweep::record(args.seed)?;
    paper_tables::record()?;
    serve_soak::record()
}

fn to_json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ))
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| {
        if args.record {
            return record(&args).map(|()| None);
        }
        if let Err(e) = util::pin_to_current_cpu() {
            eprintln!("perfbench: running unpinned: {e}");
        }
        if let Err(e) = util::single_malloc_arena() {
            eprintln!("perfbench: {e}");
        }
        let outcome = if args.trace {
            trace(&args)?
        } else {
            measure(&args)?
        };
        for m in &outcome.metrics {
            println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
        }
        to_json(&outcome).map(Some)
    });
    match result {
        Ok(json) => {
            if let Some(json) = json {
                println!("{json}");
            }
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
