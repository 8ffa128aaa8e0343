//! `grid_sweep`: the full 13,230-config grid over all eight prepared
//! workloads through `runner::sweep_many` on one thread, then every run
//! scored against each prepared MPL oracle and ranked, as the `sweep`
//! binary does.
//!
//! The seed permutes the workload order and the config order (the
//! engine plans its units from the configs it is given), and picks the
//! cells re-run through a standalone detector. Outputs are compared
//! per cell against references keyed by canonical position, so every
//! seed checks against the same recorded data.

use std::fmt::Write as _;
use std::time::Instant;

use opd_analyze::{AbsInt, Analysis};
use opd_baseline::CallLoopForest;
use opd_core::{
    anchored_intervals, detected_intervals, DetectorConfig, InternedTrace, PhaseDetector,
    SweepEngine, SweepScratch, UnitKind,
};
use opd_experiments::grid::{full_grid, MPLS_TABLE1};
use opd_experiments::runner::{certified_unit_cost, sweep_many, ConfigRun, PreparedWorkload};
use opd_microvm::workloads::Workload;
use opd_trace::{ExecutionTrace, TraceStats};

use crate::span::Tracer;
use crate::util::{self, least, median, repeat_for, Calibration, Fnv, SplitMix};
use crate::{Layers, Metric, Outcome};

/// Interpreter fuel per workload trace. At full length one sweep takes
/// about 96 s; this cap keeps a round near 1 s on a 2-vCPU host, so a
/// 20-second run holds about twenty rounds. The cap changes the work mix
/// (fewer cells detect a phase); `core.sweep.phased_cell_frac` shows
/// how much.
const FUEL: u64 = 8_000;
/// Timed preparations per round. One takes about 5 ms, so several
/// per round give `setup_s` enough samples.
const SETUP_REPS: usize = 4;
/// Cells re-run through a standalone `PhaseDetector` per run.
const SAMPLED_CELLS: usize = 48;
/// Ranked configs kept per (workload, MPL), as the `sweep` binary.
const TOP: usize = 10;

const CELLS_REF: &str = "grid_sweep_cells.bin";
const RANKS_REF: &str = "grid_sweep_ranks.txt";

/// The seeded inputs of one run.
struct Inputs {
    /// Canonical workload index (into `Workload::ALL`) per position.
    workloads: Vec<usize>,
    /// Canonical config index (into `full_grid()`) per position.
    canon: Vec<usize>,
    configs: Vec<DetectorConfig>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed ^ 0x6721_D5EE);
        let grid = full_grid();
        let workloads = rng.permutation(Workload::ALL.len());
        let canon = rng.permutation(grid.len());
        let configs = canon.iter().map(|&i| grid[i]).collect();
        Inputs {
            workloads,
            canon,
            configs,
        }
    }

    fn prepare(&self) -> Vec<PreparedWorkload> {
        self.workloads
            .iter()
            .map(|&w| PreparedWorkload::prepare_with_fuel(Workload::ALL[w], 1, &MPLS_TABLE1, FUEL))
            .collect()
    }

    fn config_elements(&self, prepared: &[PreparedWorkload]) -> f64 {
        let elements: u64 = prepared.iter().map(PreparedWorkload::total_elements).sum();
        self.configs.len() as f64 * elements as f64
    }
}

/// One round's outputs, kept for the check outside the timed region.
struct RoundOut {
    runs: Vec<Vec<ConfigRun>>,
    /// `(canonical workload, MPL, digest of the top-ranked configs)`.
    ranks: Vec<(usize, u64, u64)>,
}

fn cell_digest(run: &ConfigRun) -> u32 {
    let mut h = Fnv::new().word(run.detected.len() as u64);
    for p in &run.detected {
        h = h.word(p.start()).word(p.end());
    }
    h = h.word(run.anchored.len() as u64);
    for p in &run.anchored {
        h = h.word(p.start()).word(p.end());
    }
    let d = h.finish();
    (d ^ (d >> 32)) as u32
}

/// Scores every run against every prepared oracle and ranks them:
/// score descending, ties by canonical config index.
fn score_and_rank(
    inputs: &Inputs,
    prepared: &[PreparedWorkload],
    runs: &[Vec<ConfigRun>],
    tracer: &mut Tracer,
) -> Vec<(usize, u64, u64)> {
    let mut ranks = Vec::new();
    for ((p, runs), &w) in prepared.iter().zip(runs).zip(&inputs.workloads) {
        for &mpl in &MPLS_TABLE1 {
            let oracle = p.oracle(mpl);
            let scores: Vec<f64> = tracer.span("scoring.score", |t| {
                t.count("scoring.calls", runs.len() as u64);
                runs.iter().map(|r| r.score(oracle).combined()).collect()
            });
            let digest = tracer.span("experiments.rank", |_| {
                let mut order: Vec<usize> = (0..runs.len()).collect();
                order.sort_unstable_by(|&a, &b| {
                    scores[b]
                        .total_cmp(&scores[a])
                        .then(inputs.canon[a].cmp(&inputs.canon[b]))
                });
                order.iter().take(TOP).fold(Fnv::new(), |h, &i| {
                    h.word(inputs.canon[i] as u64).word(scores[i].to_bits())
                })
            });
            ranks.push((w, mpl, digest.finish()));
        }
    }
    ranks
}

/// `runner::sweep_many` at one thread, rebuilt from the engine's public
/// pieces so each layer can sit in its own span: planning, the
/// runner's unit pricing, each unit's scan by kind, and interval
/// assembly. Results are checked against the same references as the
/// untraced path. This is a copy of `sweep_many`'s loop as it stands
/// when the benchmark was written; [`layers`] compares its time with
/// the program's own `sweep_many` and warns when the two drift apart.
fn traced_sweep(
    configs: &[DetectorConfig],
    prepared: &[PreparedWorkload],
    t: &mut Tracer,
) -> Vec<Vec<ConfigRun>> {
    let engine = t.span("core.sweep.plan", |_| SweepEngine::new(configs));
    t.span("experiments.runner.price", |_| {
        for p in prepared {
            let certs = p.certificates(configs);
            let cost: u64 = match &certs {
                Some(certs) => engine
                    .units()
                    .iter()
                    .map(|u| certified_unit_cost(configs, u, p, certs))
                    .sum(),
                None => engine
                    .units()
                    .iter()
                    .map(|u| opd_experiments::runner::calibrated_unit_cost(configs, u, p))
                    .sum(),
            };
            std::hint::black_box(cost);
        }
    });
    let capacity = prepared
        .iter()
        .map(PreparedWorkload::site_capacity)
        .max()
        .unwrap_or(0);
    let mut scratch = SweepScratch::with_site_capacity(capacity);
    let mut out: Vec<Vec<Option<ConfigRun>>> = prepared
        .iter()
        .map(|_| configs.iter().map(|_| None).collect())
        .collect();
    for (wi, p) in prepared.iter().enumerate() {
        let total = p.interned().len() as u64;
        for (ui, unit) in engine.units().iter().enumerate() {
            let name = match unit.kind() {
                UnitKind::SharedConstant => "core.sweep.shared_constant",
                UnitKind::SharedAdaptive => "core.sweep.shared_adaptive",
                UnitKind::Private => "core.sweep.private",
            };
            t.count("core.sweep.units", 1);
            t.count("core.sweep.scans", unit.scans() as u64);
            let results = t.span(name, |_| engine.run_unit(ui, p.interned(), &mut scratch));
            t.span("experiments.runner.intervals", |_| {
                for (ci, phases) in results {
                    out[wi][ci] = Some(ConfigRun {
                        config: configs[ci],
                        detected: detected_intervals(&phases, total),
                        anchored: anchored_intervals(&phases, total),
                    });
                }
            });
        }
    }
    out.into_iter()
        .map(|w| {
            w.into_iter()
                .map(|o| o.expect("every cell filled"))
                .collect()
        })
        .collect()
}

/// The recorded reference outputs.
struct Reference {
    cells: Vec<u32>,
    ranks: Vec<(usize, u64, u64)>,
}

impl Reference {
    fn load() -> Result<Reference, String> {
        let bytes = util::read_reference(CELLS_REF)?;
        let expected = Workload::ALL.len() * full_grid().len() * 4;
        if bytes.len() != expected {
            return Err(format!(
                "{CELLS_REF} has {} bytes, expected {expected}",
                bytes.len()
            ));
        }
        let cells = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let text = String::from_utf8(util::read_reference(RANKS_REF)?)
            .map_err(|e| format!("{RANKS_REF}: {e}"))?;
        let mut ranks = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = (|| -> Option<(usize, u64, u64)> {
                Some((
                    f.first()?.parse().ok()?,
                    f.get(1)?.parse().ok()?,
                    u64::from_str_radix(f.get(2)?, 16).ok()?,
                ))
            })();
            ranks.push(parsed.ok_or_else(|| format!("{RANKS_REF}: bad line {line:?}"))?);
        }
        Ok(Reference { cells, ranks })
    }

    fn record(inputs: &Inputs, out: &RoundOut) -> Result<(), String> {
        let n = inputs.configs.len();
        let mut cells = vec![0u32; Workload::ALL.len() * n];
        for (runs, &w) in out.runs.iter().zip(&inputs.workloads) {
            for (run, &c) in runs.iter().zip(&inputs.canon) {
                cells[w * n + c] = cell_digest(run);
            }
        }
        let bytes: Vec<u8> = cells.iter().flat_map(|d| d.to_le_bytes()).collect();
        util::write_reference(CELLS_REF, &bytes)?;
        let mut ranks = out.ranks.clone();
        ranks.sort_unstable();
        let mut text = format!(
            "# canonical workload, MPL, digest of the top {TOP} (config, score) at fuel {FUEL}\n"
        );
        for (w, mpl, d) in ranks {
            let _ = writeln!(text, "{w} {mpl} {d:016x}");
        }
        util::write_reference(RANKS_REF, text.as_bytes())
    }

    /// Returns `(cells equal, cells checked, rank lists wrong)`.
    fn check(&self, inputs: &Inputs, out: &RoundOut) -> (u64, u64, u64) {
        let n = inputs.configs.len();
        let mut equal = 0;
        let mut checked = 0;
        for (runs, &w) in out.runs.iter().zip(&inputs.workloads) {
            for (run, &c) in runs.iter().zip(&inputs.canon) {
                checked += 1;
                equal += u64::from(cell_digest(run) == self.cells[w * n + c]);
            }
        }
        let wrong_ranks = out.ranks.iter().filter(|r| !self.ranks.contains(r)).count() as u64;
        let missing = self.ranks.len().saturating_sub(out.ranks.len()) as u64;
        (equal, checked, wrong_ranks + missing)
    }
}

/// Re-runs seeded cells through a standalone detector (the private
/// path, no shared scan); returns how many disagree.
fn standalone_mismatches(
    seed: u64,
    inputs: &Inputs,
    prepared: &[PreparedWorkload],
    runs: &[Vec<ConfigRun>],
) -> u64 {
    let mut rng = SplitMix::new(seed ^ 0x57A9_D1E0);
    let mut wrong = 0;
    for _ in 0..SAMPLED_CELLS {
        let w = rng.below(prepared.len());
        let c = rng.below(inputs.configs.len());
        let trace = prepared[w].interned();
        let mut detector = PhaseDetector::new(inputs.configs[c]);
        let _ = detector.run_interned_phases_only(trace);
        let phases = detector.take_phases();
        let total = trace.len() as u64;
        let run = &runs[w][c];
        if run.detected != detected_intervals(&phases, total)
            || run.anchored != anchored_intervals(&phases, total)
        {
            wrong += 1;
        }
    }
    wrong
}

/// One untraced round: the program's own `sweep_many`, then scoring
/// and ranking. Returns `(sweep seconds, round seconds, outputs)`.
fn plain_round(inputs: &Inputs, prepared: &[PreparedWorkload]) -> (f64, f64, RoundOut) {
    let started = Instant::now();
    let runs = std::hint::black_box(sweep_many(prepared, &inputs.configs, 1));
    let sweep_s = started.elapsed().as_secs_f64();
    let ranks = score_and_rank(inputs, prepared, &runs, &mut Tracer::off());
    let round_s = started.elapsed().as_secs_f64();
    (sweep_s, round_s, RoundOut { runs, ranks })
}

/// Writes the reference outputs from one round.
pub fn record(seed: u64) -> Result<(), String> {
    let inputs = Inputs::new(seed);
    let prepared = inputs.prepare();
    let (_, _, out) = plain_round(&inputs, &prepared);
    Reference::record(&inputs, &out)
}

/// The end-to-end run: tracing off. Every round prepares the inputs
/// again (timed as set-up) and then sweeps them (timed as the round),
/// between two host calibrations, so both timings sample the host over
/// the whole run and are scaled to the reference speed. Round, sweep
/// and set-up times are reported as medians of the scaled times, and
/// peak RSS as the median round peak.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let reference = Reference::load()?;
    let inputs = Inputs::new(seed);
    let mut calibration = Calibration::new();

    let mut setup_times = Vec::new();
    let mut sweep_times = Vec::new();
    let mut round_times = Vec::new();
    let mut raw_round_times = Vec::new();
    let mut scales = Vec::new();
    let mut peaks = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut ok_frac = 1.0;
    let mut last = None;
    repeat_for(seconds, 3, || {
        drop(last.take());
        let before = calibration.measure();
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let prepared = util::timed_reps(SETUP_REPS, &mut setups, || inputs.prepare());
        util::reset_peak_rss()?;
        let (sweep_s, round_s, out) = plain_round(&inputs, &prepared);
        peaks.push(util::peak_rss_mb()?);
        let after = calibration.measure();
        let scale = Calibration::scale(before, after);
        scales.push(scale);
        setup_times.extend(setups.iter().map(|s| s * scale));
        sweep_times.push(sweep_s * scale);
        round_times.push(round_s * scale);
        raw_round_times.push(round_s);
        let (equal, checked, wrong_ranks) = reference.check(&inputs, &out);
        attempted += checked + out.ranks.len() as u64;
        failed += checked - equal + wrong_ranks;
        ok_frac = equal as f64 / checked as f64;
        last = Some((prepared, out));
        Ok(())
    })?;
    let (prepared, out) = last.expect("at least one round");
    attempted += SAMPLED_CELLS as u64;
    failed += standalone_mismatches(seed, &inputs, &prepared, &out.runs);

    let sweep_s = median(&sweep_times);
    let wall_s = median(&round_times);
    let cells = (inputs.configs.len() * prepared.len()) as f64;
    println!(
        "grid_sweep: {} rounds of {} configs x {} workloads at fuel {FUEL}; \
         round s min/median/max raw {}, scaled {}; host scale {}; scaled setup {}; peak MiB {}",
        round_times.len(),
        inputs.configs.len(),
        prepared.len(),
        util::spread(&raw_round_times),
        util::spread(&round_times),
        util::spread(&scales),
        util::spread(&setup_times),
        util::spread(&peaks)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new(
                "config_elements_per_s",
                inputs.config_elements(&prepared) / sweep_s,
                "1/s",
            ),
            Metric::new("frames_per_s", cells / wall_s, "1/s"),
            Metric::new("peak_rss_mb", median(&peaks), "MiB"),
            Metric::new("ok_frac", ok_frac, "ratio"),
        ],
    })
}

/// Preparation rebuilt from the layers' public pieces, one span per
/// layer: MicroVM execution, static analysis, trace statistics, the
/// call-loop forest and its per-MPL solutions, and interning. The one
/// step of `prepare_with_fuel` it leaves out is the runner's private
/// probe-density measurement over the interned trace.
fn traced_preparation(workloads: &[usize], tracer: &mut Tracer) {
    for &w in workloads {
        let workload = Workload::ALL[w];
        let (program, trace) = tracer.span("microvm.run", |_| {
            let program = workload.program(1);
            let mut trace = ExecutionTrace::new();
            opd_microvm::Interpreter::new(&program, workload.default_seed())
                .with_fuel(FUEL)
                .run(&mut trace)
                .expect("workload programs terminate");
            (program, trace)
        });
        tracer.count("microvm.elements", trace.branches().len() as u64);
        tracer.span("trace.stats", |_| {
            std::hint::black_box(TraceStats::measure(&trace));
        });
        let analysis = tracer.span("analyze.cert", |_| {
            std::hint::black_box(AbsInt::of(&program));
            Analysis::of(&program)
        });
        tracer.span("baseline.forest", |_| {
            let forest = CallLoopForest::build(&trace).expect("workload traces are well nested");
            for &mpl in &MPLS_TABLE1 {
                std::hint::black_box(forest.solve(mpl));
            }
        });
        tracer.span("core.intern", |_| {
            std::hint::black_box(InternedTrace::from_elements_with_capacity(
                trace.branches().iter().copied(),
                analysis.flow().alphabet_bound() as usize,
            ))
        });
    }
}

/// How far the traced copy of `sweep_many` may drift from the program's
/// own `sweep_many` (fastest rounds, as a share) before the traced run
/// warns that the per-layer sweep figures no longer describe it.
const COPY_DRIFT_WARN: f64 = 0.25;

/// Preparations timed per traced run, traced and untraced alike. One
/// preparation of all eight workloads takes a few milliseconds.
const PREP_REPS: usize = 8;

/// The traced run: preparation traced layer by layer and untraced,
/// `PREP_REPS` times each, then untraced and traced rounds interleaved
/// so host drift hits both alike.
pub fn layers(seed: u64, seconds: f64, tracer_out: &str) -> Result<Layers, String> {
    let reference = Reference::load()?;
    let inputs = Inputs::new(seed);

    let mut prep = Tracer::new();
    let mut prep_times = Vec::new();
    for _ in 0..PREP_REPS {
        drop(util::timed_reps(1, &mut prep_times, || inputs.prepare()));
        prep.span("preparation", |t| traced_preparation(&inputs.workloads, t));
    }
    let prepared = inputs.prepare();
    let prep_self = prep.self_seconds();
    let prep_layers_s: f64 = prep_self
        .iter()
        .filter(|(name, _)| **name != "preparation")
        .map(|(_, s)| s / PREP_REPS as f64)
        .sum();
    let prep_attributed = prep_layers_s * PREP_REPS as f64 / prep_times.iter().sum::<f64>();

    let mut tracer = Tracer::new();
    let mut plain_times = Vec::new();
    let mut sweep_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut copy_times = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut phased = (0u64, 0u64);
    repeat_for(seconds, 2, || {
        let (sweep_s, round_s, out) = plain_round(&inputs, &prepared);
        plain_times.push(round_s);
        sweep_times.push(sweep_s);
        let started = Instant::now();
        let out_traced = tracer.span("grid_sweep.round", |t| {
            let copy_started = Instant::now();
            let runs = traced_sweep(&inputs.configs, &prepared, t);
            copy_times.push(copy_started.elapsed().as_secs_f64());
            let ranks = score_and_rank(&inputs, &prepared, &runs, t);
            RoundOut { runs, ranks }
        });
        traced_times.push(started.elapsed().as_secs_f64());
        for o in [&out, &out_traced] {
            let (equal, checked, wrong_ranks) = reference.check(&inputs, o);
            attempted += checked + o.ranks.len() as u64;
            failed += checked - equal + wrong_ranks;
        }
        phased = out_traced.runs.iter().flatten().fold((0, 0), |(p, n), r| {
            (p + u64::from(!r.detected.is_empty()), n + 1)
        });
        Ok(())
    })?;
    let rounds = traced_times.len();
    tracer
        .write(&util::out_dir().join(tracer_out))
        .map_err(|e| format!("writing spans: {e}"))?;
    let (table, unattributed_frac) = tracer.layer_table("grid_sweep.round", rounds);
    let (prep_table, _) = prep.layer_table("preparation", PREP_REPS);
    println!(
        "grid_sweep traced: {rounds} rounds; preparation (per repetition; the layers \
         cover {:.1}% of an untraced preparation):\n{prep_table}per round:\n{table}",
        100.0 * prep_attributed
    );
    let copy_drift = least(&copy_times) / least(&sweep_times) - 1.0;
    if copy_drift.abs() > COPY_DRIFT_WARN {
        println!(
            "WARNING: the traced copy of sweep_many took {:+.1}% of the program's own \
             sweep_many time; the core.sweep.* and experiments.runner.* figures no \
             longer describe the program's sweep",
            100.0 * copy_drift
        );
    }

    let own = tracer.self_seconds();
    let per_round = |name: &str| own.get(name).copied().unwrap_or(0.0) / rounds as f64;
    let count = |name: &str| tracer.counter(name) as f64 / rounds as f64;
    let prep_s = |name: &str| prep_self.get(name).copied().unwrap_or(0.0) / PREP_REPS as f64;
    let prep_count = |name: &str| prep.counter(name) as f64 / PREP_REPS as f64;
    Ok(Layers {
        attempted,
        failed,
        overhead_frac: least(&traced_times) / least(&plain_times) - 1.0,
        unattributed_frac,
        metrics: vec![
            Metric::new("microvm.run_s", prep_s("microvm.run"), "s"),
            Metric::new("microvm.elements", prep_count("microvm.elements"), "count"),
            Metric::new("trace.stats_s", prep_s("trace.stats"), "s"),
            Metric::new("core.intern_s", prep_s("core.intern"), "s"),
            Metric::new("baseline.forest_s", prep_s("baseline.forest"), "s"),
            Metric::new("analyze.cert_s", prep_s("analyze.cert"), "s"),
            Metric::new("preparation.attributed_frac", prep_attributed, "ratio"),
            Metric::new("core.sweep.plan_s", per_round("core.sweep.plan"), "s"),
            Metric::new("core.sweep.units", count("core.sweep.units"), "count"),
            Metric::new("core.sweep.scans", count("core.sweep.scans"), "count"),
            Metric::new(
                "core.sweep.shared_constant_s",
                per_round("core.sweep.shared_constant"),
                "s",
            ),
            Metric::new(
                "core.sweep.shared_adaptive_s",
                per_round("core.sweep.shared_adaptive"),
                "s",
            ),
            Metric::new(
                "core.sweep.phased_cell_frac",
                phased.0 as f64 / phased.1.max(1) as f64,
                "ratio",
            ),
            Metric::new("core.sweep.copy_drift_frac", copy_drift, "ratio"),
            Metric::new(
                "experiments.runner.price_s",
                per_round("experiments.runner.price"),
                "s",
            ),
            Metric::new(
                "experiments.runner.intervals_s",
                per_round("experiments.runner.intervals"),
                "s",
            ),
            Metric::new("scoring.score_s", per_round("scoring.score"), "s"),
            Metric::new("scoring.calls", count("scoring.calls"), "count"),
            Metric::new("experiments.rank_s", per_round("experiments.rank"), "s"),
        ],
    })
}
