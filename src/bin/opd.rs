//! The `opd` command-line tool.
//!
//! Currently one subcommand family around the static analyzer:
//!
//! * `opd lint [--json] [--deny-warnings] [--scale N] [TARGET...]` —
//!   lint the built-in workloads (default: all eight) or a dumped
//!   program listing, printing rustc-style diagnostics.
//! * `opd bounds [--write]` — render the per-workload static-bounds
//!   artifact; `--write` updates `BENCH_static_bounds.json` at the
//!   repository root.
//! * `opd plan [--json] [--prune] [--scale N] [--write]` — statically
//!   analyze the default sweep grid: equivalence classes, plan lints
//!   (`OPD-C101..C106`), and predicted-vs-actual scan counts;
//!   `--prune` prints the pruned grid and, when the grid is proven
//!   irredundant, per-axis distinctness witnesses; `--write` updates
//!   `BENCH_plan.json`.
//! * `opd faults [--smoke] [--scale N] [--write]` — the
//!   fault-injection degradation study: accuracy of the default sweep
//!   grid on corrupted traces vs the clean-trace oracle, per fault
//!   kind and rate; `--write` updates `BENCH_faults.json`; `--smoke`
//!   runs a fast ledger-vs-decoder consistency pass for CI.
//! * `opd sweep [--scale N] [--fuel N] [--threads N]
//!   [--checkpoint PATH] [--resume] [--stats [--json] [--write]]` —
//!   run the default grid over all workloads; with `--checkpoint`,
//!   completed (workload, unit) buckets stream to a crash-safe file
//!   (with a heartbeat line per bucket on stderr), and `--resume`
//!   restores them after an interrupted run instead of recomputing.
//!   `--stats` runs the metered sweep and prints a per-bucket profile
//!   plus the NullObserver overhead measurement; `--write` updates
//!   `BENCH_obs.json`.
//! * `opd audit [--json] [--deny-warnings] [--write]` — the
//!   concurrency audit: exhaustive DPOR exploration of the modeled
//!   concurrent subsystems (metrics, runner, checkpoint), the
//!   seeded-bug mutant suite, and the `OPD-R` race lints over the
//!   observed synchronization profiles; `--write` updates
//!   `BENCH_sched.json`.
//! * `opd certify [--json] [--deny-warnings] [--budget BYTES]
//!   [--scale N] [--fuel N] [--write]` — abstract-interpretation
//!   resource certificates for every (config × workload) pair of the
//!   default grid: intervals for phase transitions, window occupancy,
//!   detector memory high-water mark, and judged-step/compare-op
//!   cost, plus the `OPD-A301..A305` lints; `--budget` rejects pairs
//!   whose certified memory exceeds BYTES (`OPD-A303`); `--write`
//!   updates `BENCH_cert.json`.
//! * `opd serve [--smoke] [--clients N] [--mode MODE] [--capacity N]
//!   [--threads N] [--scale N] [--checkpoint PATH] [--resume]
//!   [--postmortem-dir DIR] [--spans-out FILE] [--json]` — the
//!   fault-tolerant multi-tenant streaming layer: a deterministic
//!   fault-injected soak of simulated clients over the eight
//!   workloads, with supervised restarts, backpressure (`block`,
//!   `shed-oldest`, `reject`), poison-pill quarantine, and
//!   bit-identity verification against the offline detector; with
//!   `--checkpoint`, completed virtual shards stream to a crash-safe
//!   OPDK file and `--resume` restores them after a hard kill;
//!   `--smoke` runs the aggressive CI invariant pass. With
//!   `--postmortem-dir` or `--spans-out` the soak runs through the
//!   traced engine: every quarantine, deadline kill, and hazard kill
//!   dumps the session's flight-recorder ring as a self-contained
//!   post-mortem file, and the full causal-span log (byte-identical
//!   across thread counts) streams to the named file.
//! * `opd loadgen [--scale N] [--json] [--write]` — the serve load
//!   study: the committed soak, shed curves over queue capacity ×
//!   backpressure mode, and the certificate-admission sweep;
//!   `--write` updates `BENCH_serve.json`.
//! * `opd trace TARGET [--config SPEC] [--kind LIST] [--session N]
//!   [--json] [--limit N] [--scale N] [--fuel N]` — stream one
//!   detector run's structured event log (window slides, similarity
//!   scores, analyzer decisions, phase transitions) for a workload or
//!   program listing, or replay a span-log file written by
//!   `opd serve --spans-out` (detected by its `# opd-spans-v1`
//!   header); `--kind` keeps only the named comma-separated event or
//!   span kinds, `--session` (span logs only) one client's spans.
//! * `opd top [--once] [--json] [--write] [--clients N] [--scale N]
//!   [--threads N] [--slo-p99 T] [--slo-shed F] [--slo-quarantine F]
//!   [--slo-completion F]` — the live service dashboard: runs the
//!   dashboard soak through the traced engine (refreshing a monitor
//!   line on stderr from the shared metrics registry), then renders
//!   per-window session states, shed/quarantine rates, frame-latency
//!   percentiles in virtual ticks, span accounting, and the SLO
//!   verdict; any `OPD-O401..O404` burn exits 1; `--once` (or
//!   `--json`) skips the refresh loop, `--write` updates
//!   `BENCH_dash.json`.
//! * `opd flight FILE [--json]` — pretty-print a post-mortem dumped
//!   by `opd serve --postmortem-dir`: who died, why, the counters at
//!   death, and the flight recorder's retained spans.
//! * `opd metrics-dump [--clients N] [--scale N] [--json]` — run a
//!   small metered soak and print the Prometheus-style text
//!   exposition of every service counter and histogram.
//!
//! In `--json` modes stdout carries exactly one JSON document; all
//! human-readable output moves to stderr (see
//! [`opd_experiments::cli::Reporter`]).
//!
//! Exit codes: 0 clean, 1 lint findings at the failing severity,
//! 2 usage/input errors. Malformed command lines are the typed
//! [`opd_experiments::cli::CliError`]; its variants all map to exit
//! code 2, a contract locked by `tests/cli_errors.rs`.

use std::fmt::Write as _;
use std::process::ExitCode;

use opd_analyze::{Analysis, PlanAnalysis, Severity};
use opd_core::SweepEngine;
use opd_experiments::cli::{CliError, Reporter};
use opd_microvm::workloads::Workload;
use opd_microvm::{parse_program, Program};

const USAGE: &str = "\
usage: opd lint [--json] [--deny-warnings] [--scale N] [TARGET...]
       opd bounds [--write]
       opd plan [--json] [--prune] [--scale N] [--write]
       opd faults [--smoke] [--scale N] [--write]
       opd sweep [--scale N] [--fuel N] [--threads N]
                 [--checkpoint PATH] [--resume]
                 [--stats [--json] [--write]]
       opd audit [--json] [--deny-warnings] [--write]
       opd certify [--json] [--deny-warnings] [--budget BYTES]
                 [--scale N] [--fuel N] [--write]
       opd serve [--smoke] [--clients N] [--mode MODE] [--capacity N]
                 [--threads N] [--scale N] [--checkpoint PATH]
                 [--resume] [--postmortem-dir DIR] [--spans-out FILE]
                 [--json]
       opd loadgen [--scale N] [--json] [--write]
       opd trace TARGET [--config SPEC] [--kind LIST] [--session N]
                 [--json] [--limit N] [--scale N] [--fuel N]
       opd top [--once] [--json] [--write] [--clients N] [--scale N]
                 [--threads N] [--slo-p99 T] [--slo-shed F]
                 [--slo-quarantine F] [--slo-completion F]
       opd flight FILE [--json]
       opd metrics-dump [--clients N] [--scale N] [--json]

TARGET is a built-in workload name (blockcomp, ruleng, tracer,
querydb, srccomp, audiodec, parsegen, lexgen) or a path to a program
listing in the MicroVM dump format. With no targets, all eight
workloads are linted.

A trace --config SPEC is comma-separated key=value pairs: cw, tw,
skip, policy (constant|adaptive), anchor (rn|lnn), resize
(slide|move), model (unweighted|weighted|pearson), threshold or
delta.";

struct LintOpts {
    json: bool,
    deny_warnings: bool,
    scale: u32,
    targets: Vec<String>,
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(opts) => lint(&opts),
            Err(e) => fail(e),
        },
        Some("bounds") => match args[1..] {
            [] => {
                Reporter::new(false)
                    .payload(opd_experiments::analysis::static_bounds_json(1).trim_end());
                ExitCode::SUCCESS
            }
            [ref flag] if flag == "--write" => write_bounds_artifact(),
            _ => fail(CliError::usage("bounds accepts only --write")),
        },
        Some("plan") => match parse_plan_args(&args[1..]) {
            Ok(opts) => plan(&opts),
            Err(e) => fail(e),
        },
        Some("faults") => match parse_faults_args(&args[1..]) {
            Ok(opts) => faults(&opts),
            Err(e) => fail(e),
        },
        Some("sweep") => match parse_sweep_args(&args[1..]) {
            Ok(opts) => sweep(&opts),
            Err(e) => fail(e),
        },
        Some("audit") => match parse_audit_args(&args[1..]) {
            Ok(opts) => audit(&opts),
            Err(e) => fail(e),
        },
        Some("certify") => match parse_certify_args(&args[1..]) {
            Ok(opts) => certify(&opts),
            Err(e) => fail(e),
        },
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(opts) => serve(&opts),
            Err(e) => fail(e),
        },
        Some("loadgen") => match parse_loadgen_args(&args[1..]) {
            Ok(opts) => loadgen(&opts),
            Err(e) => fail(e),
        },
        Some("trace") => match parse_trace_args(&args[1..]) {
            Ok(opts) => trace(&opts),
            Err(e) => fail(e),
        },
        Some("top") => match parse_top_args(&args[1..]) {
            Ok(opts) => top(&opts),
            Err(e) => fail(e),
        },
        Some("flight") => match parse_flight_args(&args[1..]) {
            Ok(opts) => flight(&opts),
            Err(e) => fail(e),
        },
        Some("metrics-dump") => match parse_metrics_dump_args(&args[1..]) {
            Ok(opts) => metrics_dump(&opts),
            Err(e) => fail(e),
        },
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(CliError::unknown_subcommand(other)),
    }
}

fn parse_lint_args(args: &[String]) -> Result<LintOpts, CliError> {
    let mut opts = LintOpts {
        json: false,
        deny_warnings: false,
        scale: 1,
        targets: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            target => opts.targets.push(target.to_owned()),
        }
    }
    Ok(opts)
}

/// Resolves one lint target to a `(name, program)` pair.
fn resolve(target: &str, scale: u32) -> Result<(String, Program), String> {
    if let Some(w) = Workload::ALL.iter().find(|w| w.name() == target) {
        return Ok((target.to_owned(), w.program(scale)));
    }
    if std::path::Path::new(target).exists() {
        let source =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
        let program =
            parse_program(&source).map_err(|e| format!("cannot parse `{target}`: {e}"))?;
        return Ok((target.to_owned(), program));
    }
    Err(format!(
        "`{target}` is neither a built-in workload nor an existing file"
    ))
}

fn lint(opts: &LintOpts) -> ExitCode {
    let named: Result<Vec<(String, Program)>, String> = if opts.targets.is_empty() {
        Ok(Workload::ALL
            .iter()
            .map(|w| (w.name().to_owned(), w.program(opts.scale)))
            .collect())
    } else {
        opts.targets
            .iter()
            .map(|t| resolve(t, opts.scale))
            .collect()
    };
    let named = match named {
        Ok(n) => n,
        Err(message) => return fail(&message),
    };

    let reporter = Reporter::new(opts.json);
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_entries = Vec::new();
    for (name, program) in &named {
        let analysis = Analysis::of(program);
        errors += analysis.error_count();
        warnings += analysis.warning_count();
        if opts.json {
            json_entries.push(format!(" \"{name}\": {}", analysis.to_json()));
        } else {
            reporter.human(render_target(name, &analysis).trim_end());
        }
    }
    if opts.json {
        reporter.payload(format_args!("{{\n{}\n}}", json_entries.join(",\n")));
    } else {
        let verdict = if errors > 0 || (opts.deny_warnings && warnings > 0) {
            "FAIL"
        } else {
            "ok"
        };
        reporter.human(format_args!(
            "lint: {} target(s), {errors} error(s), {warnings} warning(s): {verdict}",
            named.len()
        ));
    }
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders one target's diagnostics and bound summary.
fn render_target(name: &str, analysis: &Analysis) -> String {
    let mut out = String::new();
    for d in analysis.diagnostics() {
        let _ = writeln!(out, "{}", d.render());
    }
    let bounds = analysis.bounds();
    // Saturated values mean no finite bound exists (unguarded
    // recursion or u64 overflow) — print them as such.
    let show = |value: u64, saturated: bool| {
        if saturated || value == u64::MAX {
            "unbounded".to_owned()
        } else {
            value.to_string()
        }
    };
    let _ = writeln!(
        out,
        "{name}: {} error(s), {} warning(s); alphabet <= {}, events <= {}, call depth <= {}, nesting <= {}",
        analysis.error_count(),
        analysis.warning_count(),
        analysis.flow().alphabet_bound(),
        show(bounds.events(), bounds.overflowed()),
        show(bounds.call_depth(), false),
        show(bounds.nest_depth(), false),
    );
    out
}

struct AuditOpts {
    json: bool,
    deny_warnings: bool,
    write: bool,
}

fn parse_audit_args(args: &[String]) -> Result<AuditOpts, CliError> {
    let mut opts = AuditOpts {
        json: false,
        deny_warnings: false,
        write: false,
    };
    for arg in args {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--write" => opts.write = true,
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected audit argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn audit(opts: &AuditOpts) -> ExitCode {
    use opd_experiments::sched;

    let audits = sched::audit_subsystems();
    let mutants = sched::mutant_audits();
    let lints = sched::audit_lints(&audits);

    let reporter = Reporter::new(opts.json);
    if opts.write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sched.json");
        if let Err(e) = std::fs::write(path, sched::sched_json(&audits, &mutants, &lints)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        reporter.human(format_args!("wrote {path}"));
    }

    if opts.json {
        reporter.payload(sched::sched_json(&audits, &mutants, &lints).trim_end());
    } else {
        reporter.human(render_audit(&audits, &mutants, &lints, opts.deny_warnings).trim_end());
    }

    // Findings in a clean subsystem or an escaped mutant are always
    // errors; `OPD-R` lints fail only under --deny-warnings.
    let findings = audits.iter().filter(|a| a.finding.is_some()).count();
    let escaped = mutants.iter().filter(|m| !m.caught).count();
    if findings > 0 || escaped > 0 || (opts.deny_warnings && !lints.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the concurrency audit for humans: per-subsystem
/// exploration verdicts, mutant detection records, race lints, and a
/// one-line summary.
fn render_audit(
    audits: &[opd_experiments::sched::SubsystemAudit],
    mutants: &[opd_experiments::sched::MutantAudit],
    lints: &[opd_analyze::Diagnostic],
    deny_warnings: bool,
) -> String {
    let mut out = String::new();
    for a in audits {
        let _ = writeln!(
            out,
            "{}: {} — {} schedule(s) (naive {}, pruning {:.1}x), {} transition(s), max depth {}",
            a.name,
            a.verdict(),
            a.executions,
            a.naive_executions,
            a.pruning_ratio(),
            a.transitions,
            a.max_depth,
        );
        if let Some(finding) = &a.finding {
            for line in finding.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
    }
    for m in mutants {
        if m.caught {
            let schedule = m
                .schedule
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "mutant {}: caught {} on `{}` after {} schedule(s); replay witness: [{schedule}]",
                m.name, m.expected, m.object, m.executions,
            );
        } else {
            let _ = writeln!(
                out,
                "mutant {}: ESCAPED — expected {} on `{}` was not reported",
                m.name, m.expected, m.object,
            );
        }
    }
    for d in lints {
        let _ = writeln!(out, "{}", d.render());
    }
    let findings = audits.iter().filter(|a| a.finding.is_some()).count();
    let escaped = mutants.iter().filter(|m| !m.caught).count();
    let verdict = if findings > 0 || escaped > 0 || (deny_warnings && !lints.is_empty()) {
        "FAIL"
    } else {
        "ok"
    };
    let _ = writeln!(
        out,
        "audit: {} subsystem(s), {} finding(s), {}/{} mutant(s) caught, {} lint warning(s): {verdict}",
        audits.len(),
        findings,
        mutants.len() - escaped,
        mutants.len(),
        lints.len(),
    );
    out
}

struct CertifyOpts {
    json: bool,
    deny_warnings: bool,
    write: bool,
    budget: Option<u64>,
    scale: u32,
    fuel: u64,
}

fn parse_certify_args(args: &[String]) -> Result<CertifyOpts, CliError> {
    let mut opts = CertifyOpts {
        json: false,
        deny_warnings: false,
        write: false,
        budget: None,
        scale: 1,
        // Certificates default to the untruncated programs; a finite
        // --fuel reproduces a capped run (and its OPD-A304 lints).
        fuel: u64::MAX,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--write" => opts.write = true,
            "--budget" => {
                let value = iter.next().ok_or(CliError::missing_value("--budget"))?;
                opts.budget = Some(
                    value
                        .parse()
                        .map_err(|e| CliError::invalid(format!("--budget `{value}`"), e))?,
                );
            }
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            "--fuel" => {
                let value = iter.next().ok_or(CliError::missing_value("--fuel"))?;
                opts.fuel = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--fuel `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected certify argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn certify(opts: &CertifyOpts) -> ExitCode {
    use opd_experiments::cert;

    let (configs, per_workload) = cert::grid_certificates(opts.scale, opts.fuel);
    let lints = cert::cert_lints(&per_workload, opts.budget);

    let reporter = Reporter::new(opts.json);
    if opts.write {
        // The committed artifact is always the pinned (scale 1,
        // CERT_FUEL) form the differential suite certifies, whatever
        // this invocation printed.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_cert.json");
        if let Err(e) = std::fs::write(path, cert::cert_json(1, cert::CERT_FUEL)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        reporter.human(format_args!("wrote {path}"));
    }

    if opts.json {
        reporter.payload(cert::cert_json(opts.scale, opts.fuel).trim_end());
    } else {
        reporter.human(render_certify(&configs, &per_workload, &lints, opts).trim_end());
    }

    let errors = lints
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = lints.len() - errors;
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the certificate sweep for humans: one line per workload
/// (the window-shape intervals every grid member shares plus the
/// worst-case compare bound across members), the `OPD-A` lints, and a
/// one-line summary.
fn render_certify(
    configs: &[opd_core::DetectorConfig],
    per_workload: &[opd_experiments::cert::WorkloadCertificates],
    lints: &[opd_analyze::Diagnostic],
    opts: &CertifyOpts,
) -> String {
    let mut out = String::new();
    for wc in per_workload {
        let shared = &wc.certs[0];
        let compare_hi = wc
            .certs
            .iter()
            .map(|c| c.compare_ops().hi())
            .max()
            .unwrap_or(0);
        let cost_hi = wc
            .certs
            .iter()
            .filter_map(opd_analyze::ResourceCertificate::cost_compare_bound)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<10} elements [{},{}]  judged [{},{}]  phases [{},{}]  occupancy <= {}  \
             sites [{},{}]  memory <= {} B  compare <= {} (cost bound {}, tighter {}/{})",
            wc.workload,
            shared.elements().lo(),
            shared.elements().hi(),
            shared.judged_steps().lo(),
            shared.judged_steps().hi(),
            wc.certs.iter().map(|c| c.phases().lo()).min().unwrap_or(0),
            wc.certs.iter().map(|c| c.phases().hi()).max().unwrap_or(0),
            shared.occupancy().hi(),
            shared.sites().lo(),
            shared.sites().hi(),
            shared.memory_bytes().hi(),
            compare_hi,
            cost_hi,
            wc.tighter_count(),
            wc.certs.len(),
        );
    }
    for d in lints {
        let _ = writeln!(out, "{}", d.render());
    }
    let errors = lints
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = lints.len() - errors;
    let verdict = if errors > 0 || (opts.deny_warnings && warnings > 0) {
        "FAIL"
    } else {
        "ok"
    };
    let pairs: usize = per_workload.iter().map(|wc| wc.certs.len()).sum();
    let tighter: usize = per_workload
        .iter()
        .map(opd_experiments::cert::WorkloadCertificates::tighter_count)
        .sum();
    let _ = writeln!(
        out,
        "certify: {} workload(s) x {} config(s), {pairs} certificate(s), {tighter} tighter \
         than the cost bound, {errors} error(s), {warnings} warning(s): {verdict}",
        per_workload.len(),
        configs.len(),
    );
    out
}

struct PlanOpts {
    json: bool,
    prune: bool,
    write: bool,
    scale: u32,
}

fn parse_plan_args(args: &[String]) -> Result<PlanOpts, CliError> {
    let mut opts = PlanOpts {
        json: false,
        prune: false,
        write: false,
        scale: 1,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--prune" => opts.prune = true,
            "--write" => opts.write = true,
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected plan argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn plan(opts: &PlanOpts) -> ExitCode {
    let configs = opd_experiments::grid::default_plan_grid();
    let analysis = PlanAnalysis::of(
        &configs,
        &opd_experiments::analysis::plan_workloads(opts.scale),
    );

    // The cost model's scan prediction must agree with the engine's
    // actual plan — a mismatch is a bug in one of them.
    let actual_scans = SweepEngine::new(&configs).total_scans();
    if analysis.predicted_scans_full() != actual_scans {
        eprintln!(
            "error: predicted {} scan(s) but the sweep engine plans {actual_scans}",
            analysis.predicted_scans_full()
        );
        return ExitCode::FAILURE;
    }

    let reporter = Reporter::new(opts.json);
    if opts.write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_plan.json");
        if let Err(e) = std::fs::write(path, opd_experiments::analysis::plan_json(opts.scale)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        // Through the reporter: with --json this lands on stderr, so
        // `--json --write` stdout stays one parseable document.
        reporter.human(format_args!("wrote {path}"));
    }

    if opts.json {
        reporter.payload(opd_experiments::analysis::plan_json(opts.scale).trim_end());
    } else {
        reporter.human(render_plan(&analysis, actual_scans, opts.prune).trim_end());
    }
    if analysis.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the plan analysis for humans: class summary, diagnostics,
/// scan counts, and (with `prune`) the pruned grid plus per-axis
/// evidence when the grid is proven irredundant.
fn render_plan(analysis: &PlanAnalysis, actual_scans: usize, prune: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan: {} config(s), {} equivalence class(es) ({} nontrivial)",
        analysis.configs().len(),
        analysis.classes().len(),
        analysis.nontrivial_classes(),
    );
    let _ = writeln!(
        out,
        "scans: predicted full={} pruned={}, engine={actual_scans} (exact match)",
        analysis.predicted_scans_full(),
        analysis.predicted_scans_pruned(),
    );
    for class in analysis.classes().iter().filter(|c| c.is_nontrivial()) {
        let _ = writeln!(
            out,
            "class: representative #{} covers {:?}\n  {}",
            class.representative(),
            class.members(),
            class.proof(),
        );
    }
    for d in analysis.diagnostics() {
        let _ = writeln!(out, "{}", d.render());
    }
    if prune {
        let reps = analysis.representatives();
        let _ = writeln!(out, "pruned grid ({} config(s)):", reps.len());
        for &r in &reps {
            let _ = writeln!(out, "  #{r}: {}", analysis.configs()[r]);
        }
        if analysis.nontrivial_classes() == 0 {
            let _ = writeln!(
                out,
                "the grid is irredundant under the prover's rules; probing axes for \
                 dynamic distinctness witnesses..."
            );
            let witnesses = analysis.axis_witnesses();
            for (axis, hit, total) in witnesses.per_axis() {
                let _ = writeln!(
                    out,
                    "  axis {axis}: {hit}/{total} single-axis pair(s) separated by a probe trace"
                );
            }
            for pair in witnesses.pairs.iter().filter(|p| p.witness.is_some()) {
                let _ = writeln!(
                    out,
                    "  witness: #{} vs #{} ({}) diverge on probe `{}`",
                    pair.a,
                    pair.b,
                    pair.axis,
                    pair.witness.as_deref().unwrap_or(""),
                );
            }
            let _ = writeln!(
                out,
                "  {} pair(s) witnessed, {} undecided",
                witnesses.witnessed(),
                witnesses.undecided(),
            );
        }
    }
    out
}

struct FaultsOpts {
    smoke: bool,
    write: bool,
    scale: u32,
}

fn parse_faults_args(args: &[String]) -> Result<FaultsOpts, CliError> {
    let mut opts = FaultsOpts {
        smoke: false,
        write: false,
        scale: 1,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--write" => opts.write = true,
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected faults argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn faults(opts: &FaultsOpts) -> ExitCode {
    let reporter = Reporter::new(false);
    if opts.smoke {
        // The smoke pass asserts internally that injector ledgers and
        // decoder corruption reports agree exactly.
        reporter.human(opd_experiments::faults::smoke(opts.scale));
        reporter.human("faults --smoke: ok");
        return ExitCode::SUCCESS;
    }
    let json = opd_experiments::faults::faults_json(opts.scale);
    if opts.write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_faults.json");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        reporter.human(format_args!("wrote {path}"));
    } else {
        reporter.payload(json.trim_end());
    }
    ExitCode::SUCCESS
}

struct SweepOpts {
    scale: u32,
    fuel: u64,
    threads: usize,
    checkpoint: Option<String>,
    resume: bool,
    stats: bool,
    json: bool,
    write: bool,
}

fn parse_sweep_args(args: &[String]) -> Result<SweepOpts, CliError> {
    let mut opts = SweepOpts {
        scale: 1,
        fuel: opd_experiments::faults::STUDY_FUEL,
        threads: 1,
        checkpoint: None,
        resume: false,
        stats: false,
        json: false,
        write: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--resume" => opts.resume = true,
            "--stats" => opts.stats = true,
            "--json" => opts.json = true,
            "--write" => opts.write = true,
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            "--fuel" => {
                let value = iter.next().ok_or(CliError::missing_value("--fuel"))?;
                opts.fuel = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--fuel `{value}`"), e))?;
            }
            "--threads" => {
                let value = iter.next().ok_or(CliError::missing_value("--threads"))?;
                opts.threads = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--threads `{value}`"), e))?;
            }
            "--checkpoint" => {
                let value = iter.next().ok_or(CliError::missing_value("--checkpoint"))?;
                opts.checkpoint = Some(value.clone());
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected sweep argument `{other}`"
                )))
            }
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err(CliError::conflict("--resume requires --checkpoint PATH"));
    }
    if opts.stats && opts.checkpoint.is_some() {
        return Err(CliError::conflict(
            "--stats cannot be combined with --checkpoint",
        ));
    }
    if (opts.json || opts.write) && !opts.stats {
        return Err(CliError::conflict("sweep --json/--write require --stats"));
    }
    Ok(opts)
}

fn sweep(opts: &SweepOpts) -> ExitCode {
    use opd_experiments::faults::STUDY_MPL;

    let reporter = Reporter::new(opts.json);
    let configs = opd_experiments::grid::default_plan_grid();
    let prepared = opd_experiments::runner::prepare_all(
        &Workload::ALL,
        opts.scale,
        &[STUDY_MPL],
        opts.fuel,
        opts.threads,
    );

    let mut profile = None;
    let runs = if let Some(path) = &opts.checkpoint {
        let fingerprint = opd_experiments::checkpoint::run_fingerprint(
            &configs,
            &Workload::ALL,
            opts.scale,
            opts.fuel,
        );
        // The heartbeat goes to stderr unconditionally: it is
        // progress reporting for long runs, not output.
        let heartbeat =
            |done: usize, total: usize| eprintln!("sweep: checkpoint bucket {done}/{total}");
        match opd_experiments::checkpoint::sweep_many_checkpointed_with_progress(
            &prepared,
            &configs,
            opts.threads,
            std::path::Path::new(path),
            fingerprint,
            opts.resume,
            &heartbeat,
        ) {
            Ok((runs, summary)) => {
                reporter.human(format_args!(
                    "checkpoint: {} bucket(s) restored, {} computed{}",
                    summary.restored_buckets,
                    summary.computed_buckets,
                    if summary.damaged_tail_bytes > 0 {
                        format!(
                            " ({} damaged tail byte(s) discarded)",
                            summary.damaged_tail_bytes
                        )
                    } else {
                        String::new()
                    },
                ));
                runs
            }
            Err(e) => {
                eprintln!("error: checkpoint {path}: {e}");
                return ExitCode::from(2);
            }
        }
    } else if opts.stats {
        let (runs, p) =
            opd_experiments::obs::sweep_many_profiled(&prepared, &configs, opts.threads);
        profile = Some(p);
        runs
    } else {
        opd_experiments::runner::sweep_many(&prepared, &configs, opts.threads)
    };

    for (p, config_runs) in prepared.iter().zip(&runs) {
        let oracle = p.oracle(STUDY_MPL);
        let mean = if config_runs.is_empty() {
            0.0
        } else {
            config_runs
                .iter()
                .map(|r| r.score(oracle).combined())
                .sum::<f64>()
                / config_runs.len() as f64
        };
        reporter.human(format_args!(
            "{:<10} {:>9} element(s)  mean combined accuracy {:.4}",
            p.workload().name(),
            p.total_elements(),
            mean,
        ));
    }

    if let Some(profile) = profile {
        // Measure the zero-overhead-when-off claim on the densest
        // trace at hand (lexgen by convention, first otherwise).
        let bench = prepared
            .iter()
            .find(|p| p.workload().name() == "lexgen")
            .unwrap_or(&prepared[0]);
        let overhead = opd_experiments::obs::null_observer_overhead(
            bench,
            &configs,
            opd_experiments::obs::OBS_SAMPLES,
        );
        reporter.human(profile.table().to_string().trim_end());
        reporter.human(format_args!(
            "kernel {}; lpt imbalance {:.3} over {} thread(s); null-observer overhead {:.2}% \
             ({} samples, {:.2} ms plain vs {:.2} ms instrumented)",
            profile.kernel.as_str(),
            profile.imbalance(),
            profile.threads,
            (overhead.ratio() - 1.0) * 100.0,
            overhead.samples,
            overhead.plain_nanos as f64 / 1e6,
            overhead.instrumented_nanos as f64 / 1e6,
        ));
        let json = opd_experiments::obs::obs_json(
            opts.scale,
            opts.fuel,
            configs.len(),
            &overhead,
            &profile,
        );
        if opts.write {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_obs.json");
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            reporter.human(format_args!("wrote {path}"));
        }
        if opts.json {
            reporter.payload(json.trim_end());
        }
    }
    ExitCode::SUCCESS
}

struct ServeOpts {
    smoke: bool,
    clients: u32,
    mode: opd_serve::BackpressureMode,
    capacity: usize,
    threads: usize,
    scale: u32,
    checkpoint: Option<String>,
    resume: bool,
    postmortem_dir: Option<String>,
    spans_out: Option<String>,
    json: bool,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOpts, CliError> {
    let defaults = opd_experiments::serve::soak_config();
    let mut opts = ServeOpts {
        smoke: false,
        clients: opd_experiments::serve::SOAK_CLIENTS,
        mode: defaults.ingest.mode,
        capacity: defaults.ingest.queue_capacity,
        threads: 0,
        scale: 1,
        checkpoint: None,
        resume: false,
        postmortem_dir: None,
        spans_out: None,
        json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::missing_value(name))
        };
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--resume" => opts.resume = true,
            "--json" => opts.json = true,
            "--clients" => {
                let value = value_for("--clients")?;
                opts.clients = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--clients `{value}`"), e))?;
            }
            "--mode" => {
                let value = value_for("--mode")?;
                opts.mode = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--mode `{value}`"), e))?;
            }
            "--capacity" => {
                let value = value_for("--capacity")?;
                opts.capacity = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--capacity `{value}`"), e))?;
            }
            "--threads" => {
                let value = value_for("--threads")?;
                opts.threads = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--threads `{value}`"), e))?;
            }
            "--scale" => {
                let value = value_for("--scale")?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            "--checkpoint" => opts.checkpoint = Some(value_for("--checkpoint")?.to_owned()),
            "--postmortem-dir" => {
                opts.postmortem_dir = Some(value_for("--postmortem-dir")?.to_owned());
            }
            "--spans-out" => opts.spans_out = Some(value_for("--spans-out")?.to_owned()),
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected serve argument `{other}`"
                )))
            }
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err(CliError::conflict("--resume requires --checkpoint PATH"));
    }
    if opts.smoke && (opts.checkpoint.is_some() || opts.json) {
        return Err(CliError::conflict(
            "--smoke cannot be combined with --checkpoint or --json",
        ));
    }
    // The traced engine refuses checkpoints (restored shards have no
    // span history), so the tracing flags conflict with --checkpoint.
    if (opts.postmortem_dir.is_some() || opts.spans_out.is_some()) && opts.checkpoint.is_some() {
        return Err(CliError::conflict(
            "--postmortem-dir/--spans-out cannot be combined with --checkpoint",
        ));
    }
    Ok(opts)
}

/// Writes a traced serve run's `--postmortem-dir` and `--spans-out`
/// outputs; confirmations go through the reporter so `--json` stdout
/// stays one document.
fn write_trace_outputs(
    trace: &opd_serve::ServiceTrace,
    postmortem_dir: Option<&str>,
    spans_out: Option<&str>,
    reporter: &Reporter,
) -> Result<(), ExitCode> {
    if let Some(dir) = postmortem_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return Err(ExitCode::from(2));
        }
        for pm in &trace.postmortems {
            let path = format!("{dir}/{}.pm", pm.file_stem());
            if let Err(e) = std::fs::write(&path, pm.render()) {
                eprintln!("error: cannot write {path}: {e}");
                return Err(ExitCode::from(2));
            }
        }
        reporter.human(format_args!(
            "wrote {} post-mortem(s) to {dir}",
            trace.postmortems.len()
        ));
    }
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(path, trace.span_log()) {
            eprintln!("error: cannot write {path}: {e}");
            return Err(ExitCode::from(2));
        }
        reporter.human(format_args!(
            "wrote {} span(s) to {path}",
            trace.spans.len()
        ));
    }
    Ok(())
}

fn serve(opts: &ServeOpts) -> ExitCode {
    use opd_experiments::serve as study;

    let reporter = Reporter::new(opts.json);
    let traced = opts.postmortem_dir.is_some() || opts.spans_out.is_some();
    if opts.smoke {
        // The smoke pass asserts the robustness invariants internally
        // (restarts, timeouts, quarantine, shedding, bit-identity).
        if traced {
            let (summary, trace) = study::smoke_with_trace(opts.scale);
            if let Err(code) = write_trace_outputs(
                &trace,
                opts.postmortem_dir.as_deref(),
                opts.spans_out.as_deref(),
                &reporter,
            ) {
                return code;
            }
            reporter.human(summary);
        } else {
            reporter.human(study::smoke(opts.scale));
        }
        reporter.human("serve --smoke: ok");
        return ExitCode::SUCCESS;
    }

    let source = study::soak_source(opts.scale, opts.clients);
    let mut config = study::soak_config();
    config.ingest.mode = opts.mode;
    config.ingest.queue_capacity = opts.capacity;
    let options = opd_serve::ServiceOptions {
        threads: opts.threads,
        checkpoint: opts.checkpoint.as_ref().map(std::path::PathBuf::from),
        resume: opts.resume,
    };
    let report = if traced {
        match opd_serve::run_service_traced::<opd_obs::SpanLog>(
            &config,
            &source,
            &options,
            &opd_serve::NullSubscriber,
            None,
            &opd_serve::TraceConfig::default(),
        ) {
            Ok((report, trace)) => {
                if let Err(code) = write_trace_outputs(
                    &trace,
                    opts.postmortem_dir.as_deref(),
                    opts.spans_out.as_deref(),
                    &reporter,
                ) {
                    return code;
                }
                report
            }
            Err(e) => {
                eprintln!("error: serve: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match opd_serve::run_service(&config, &source, &options) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: serve: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let shed = report.shed();
    if opts.json {
        let mut doc = String::new();
        let _ = writeln!(doc, "{{");
        let _ = writeln!(
            doc,
            "  \"clients\": {}, \"mode\": \"{}\", \"capacity\": {},",
            opts.clients, opts.mode, opts.capacity,
        );
        let _ = writeln!(
            doc,
            "  \"completed\": {}, \"quarantined\": {}, \"rejected\": {},",
            report.completed(),
            report.quarantined(),
            report.rejected(),
        );
        let _ = writeln!(
            doc,
            "  \"restarts\": {}, \"timeouts\": {}, \"crashes\": {},",
            report.restarts(),
            report.timeouts(),
            report.crashes(),
        );
        let _ = writeln!(
            doc,
            "  \"frames_processed\": {}, \"shed_oldest\": {}, \"rejected_frames\": {}, \
             \"blocked_ticks\": {},",
            report.frames_processed(),
            shed.shed_oldest_frames,
            shed.rejected_frames,
            shed.blocked_ticks,
        );
        let _ = writeln!(
            doc,
            "  \"phases\": {}, \"verify_failures\": {}, \"restored_vshards\": {},",
            report.phases(),
            report.verify_failures(),
            report.restored_vshards,
        );
        let _ = writeln!(doc, "  \"digest\": \"{:#018x}\"", report.aggregate_digest());
        let _ = write!(doc, "}}");
        reporter.payload(doc);
    } else {
        reporter.human(format_args!(
            "serve: {} session(s) over {} vshard(s) ({} restored): {} completed, \
             {} quarantined, {} rejected",
            report.sessions.len(),
            report.vshards,
            report.restored_vshards,
            report.completed(),
            report.quarantined(),
            report.rejected(),
        ));
        reporter.human(format_args!(
            "serve: {} restart(s), {} timeout(s), {} crash(es); shed {}; \
             {} corrupt frame(s), {} record(s) lost",
            report.restarts(),
            report.timeouts(),
            report.crashes(),
            shed,
            report.corrupt_frames(),
            report.corrupt_records_lost(),
        ));
        reporter.human(format_args!(
            "serve: {} phase(s), {} verify failure(s), digest {:#018x}",
            report.phases(),
            report.verify_failures(),
            report.aggregate_digest(),
        ));
    }
    if report.verify_failures() > 0 || !report.conservation_holds() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

struct LoadgenOpts {
    scale: u32,
    json: bool,
    write: bool,
}

fn parse_loadgen_args(args: &[String]) -> Result<LoadgenOpts, CliError> {
    let mut opts = LoadgenOpts {
        scale: 1,
        json: false,
        write: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--write" => opts.write = true,
            "--scale" => {
                let value = iter.next().ok_or(CliError::missing_value("--scale"))?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected loadgen argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn loadgen(opts: &LoadgenOpts) -> ExitCode {
    let reporter = Reporter::new(opts.json);
    let json = opd_experiments::serve::serve_json(opts.scale);
    if opts.write {
        // The committed artifact is always the pinned scale-1 form the
        // freshness test regenerates, whatever this invocation prints.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json");
        let pinned = if opts.scale == 1 {
            json.clone()
        } else {
            opd_experiments::serve::serve_json(1)
        };
        if let Err(e) = std::fs::write(path, pinned) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        reporter.human(format_args!("wrote {path}"));
    }
    // The study is the payload either way; a human `--write` run gets
    // only the "wrote …" confirmation above.
    if opts.json || !opts.write {
        reporter.payload(json.trim_end());
    }
    ExitCode::SUCCESS
}

struct TraceOpts {
    target: String,
    config: String,
    kinds: Vec<String>,
    session: Option<u32>,
    json: bool,
    limit: Option<usize>,
    scale: u32,
    fuel: u64,
}

/// Detector-event kind tags accepted by `--kind` (see
/// [`opd_obs::DetectorEvent::kind`]); span kinds are accepted too and
/// validated through [`opd_obs::SpanKind::from_name`].
const EVENT_KINDS: [&str; 7] = [
    "step",
    "similarity",
    "decision",
    "phase_start",
    "phase_end",
    "window_resize",
    "window_flush",
];

fn parse_trace_args(args: &[String]) -> Result<TraceOpts, CliError> {
    let mut opts = TraceOpts {
        target: String::new(),
        config: String::new(),
        kinds: Vec::new(),
        session: None,
        json: false,
        limit: None,
        scale: 1,
        fuel: opd_experiments::faults::STUDY_FUEL,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::missing_value(name))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--config" => opts.config = value_for("--config")?.to_owned(),
            "--kind" => {
                let value = value_for("--kind")?.to_owned();
                opts.kinds.extend(
                    value
                        .split(',')
                        .map(str::trim)
                        .filter(|k| !k.is_empty())
                        .map(str::to_owned),
                );
            }
            "--session" => {
                let value = value_for("--session")?;
                opts.session = Some(
                    value
                        .parse()
                        .map_err(|e| CliError::invalid(format!("--session `{value}`"), e))?,
                );
            }
            "--limit" => {
                let value = value_for("--limit")?;
                opts.limit = Some(
                    value
                        .parse()
                        .map_err(|e| CliError::invalid(format!("--limit `{value}`"), e))?,
                );
            }
            "--scale" => {
                let value = value_for("--scale")?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            "--fuel" => {
                let value = value_for("--fuel")?;
                opts.fuel = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--fuel `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            target if opts.target.is_empty() => opts.target = target.to_owned(),
            extra => {
                return Err(CliError::usage(format!(
                    "unexpected trace argument `{extra}`"
                )))
            }
        }
    }
    if opts.target.is_empty() {
        return Err(CliError::usage("trace requires a TARGET"));
    }
    for k in &opts.kinds {
        if !EVENT_KINDS.contains(&k.as_str()) && opd_obs::SpanKind::from_name(k).is_none() {
            return Err(CliError::usage(format!(
                "unknown kind `{k}`; valid kinds are detector events ({}) and spans ({})",
                EVENT_KINDS.join(", "),
                opd_obs::SpanKind::ALL
                    .map(opd_obs::SpanKind::name)
                    .join(", "),
            )));
        }
    }
    Ok(opts)
}

fn trace(opts: &TraceOpts) -> ExitCode {
    use opd_core::{InternedTrace, NullSink, PhaseDetector};
    use opd_obs::{DetectorEvent, FnObserver};

    // A file target that opens with the span-log header is a
    // `--spans-out` document: replay it instead of running a detector.
    if std::path::Path::new(&opts.target).is_file() {
        if let Ok(text) = std::fs::read_to_string(&opts.target) {
            if text.starts_with(opd_obs::SPAN_LOG_HEADER) {
                return trace_spans(opts, &text);
            }
        }
    }
    if opts.session.is_some() {
        return fail(CliError::conflict(
            "--session applies only to span-log targets (files starting with `# opd-spans-v1`)",
        ));
    }

    let config = match opd_experiments::cli::parse_config_spec(&opts.config) {
        Ok(config) => config,
        Err(e) => return fail(e),
    };
    let (name, program) = match resolve(&opts.target, opts.scale) {
        Ok(resolved) => resolved,
        Err(message) => return fail(&message),
    };
    let seed = Workload::ALL
        .iter()
        .find(|w| w.name() == opts.target)
        .map_or(0, |w| w.default_seed());
    let mut execution = opd_trace::ExecutionTrace::new();
    if let Err(e) = opd_microvm::Interpreter::new(&program, seed)
        .with_fuel(opts.fuel)
        .run(&mut execution)
    {
        eprintln!("error: `{name}` failed to execute: {e}");
        return ExitCode::FAILURE;
    }
    let interned = InternedTrace::from_elements(execution.branches().iter().copied());

    let reporter = Reporter::new(opts.json);
    let limit = opts.limit.unwrap_or(usize::MAX);
    let mut emitted = 0usize;
    let mut total = 0usize;
    let mut json_events: Vec<String> = Vec::new();
    let mut detector = PhaseDetector::new(config);
    {
        let mut observer = FnObserver(|event: &DetectorEvent| {
            if !opts.kinds.is_empty() && !opts.kinds.iter().any(|k| k.as_str() == event.kind()) {
                return;
            }
            total += 1;
            if emitted < limit {
                emitted += 1;
                if opts.json {
                    json_events.push(format!("    {}", event.to_json()));
                } else {
                    reporter.human(event);
                }
            }
        });
        detector.run_interned_with_observer(&interned, &mut NullSink, &mut observer);
    }
    let phases = detector.detected_phases().len();

    if opts.json {
        let mut doc = String::new();
        let _ = writeln!(doc, "{{");
        let _ = writeln!(doc, "  \"target\": \"{name}\",");
        let _ = writeln!(
            doc,
            "  \"config\": {{\"cw\": {}, \"tw\": {}, \"skip\": {}}},",
            config.current_window(),
            config.trailing_window(),
            config.skip_factor(),
        );
        let _ = writeln!(doc, "  \"events\": [");
        let _ = writeln!(doc, "{}", json_events.join(",\n"));
        let _ = writeln!(doc, "  ],");
        let _ = writeln!(
            doc,
            "  \"summary\": {{\"events\": {total}, \"shown\": {emitted}, \
             \"elements\": {}, \"phases\": {phases}}}",
            interned.len(),
        );
        let _ = write!(doc, "}}");
        reporter.payload(doc);
    } else {
        if total > emitted {
            reporter.human(format_args!("... {} more event(s)", total - emitted));
        }
        reporter.human(format_args!(
            "trace: {name}: {} element(s), {total} event(s), {phases} phase(s)",
            interned.len(),
        ));
    }
    ExitCode::SUCCESS
}

/// The span-log replay arm of `opd trace`: filter a `--spans-out`
/// document by kind and session, emit up to `--limit` spans.
fn trace_spans(opts: &TraceOpts, text: &str) -> ExitCode {
    let spans = match opd_obs::parse_span_log(text) {
        Ok(spans) => spans,
        Err(e) => return fail(format_args!("cannot parse `{}`: {e}", opts.target)),
    };
    let matched: Vec<&opd_obs::Span> = spans
        .iter()
        .filter(|s| opts.kinds.is_empty() || opts.kinds.iter().any(|k| k.as_str() == s.kind.name()))
        .filter(|s| opts.session.map_or(true, |client| s.client == client))
        .collect();
    let shown = matched.len().min(opts.limit.unwrap_or(usize::MAX));

    let reporter = Reporter::new(opts.json);
    if opts.json {
        let lines: Vec<String> = matched[..shown]
            .iter()
            .map(|s| format!("    {}", s.to_json()))
            .collect();
        let mut doc = String::new();
        let _ = writeln!(doc, "{{");
        let _ = writeln!(doc, "  \"target\": \"{}\",", opts.target);
        let _ = writeln!(doc, "  \"spans\": [");
        let _ = writeln!(doc, "{}", lines.join(",\n"));
        let _ = writeln!(doc, "  ],");
        let _ = writeln!(
            doc,
            "  \"summary\": {{\"spans\": {}, \"matched\": {}, \"shown\": {shown}}}",
            spans.len(),
            matched.len(),
        );
        let _ = write!(doc, "}}");
        reporter.payload(doc);
    } else {
        for s in &matched[..shown] {
            reporter.human(s);
        }
        if matched.len() > shown {
            reporter.human(format_args!("... {} more span(s)", matched.len() - shown));
        }
        reporter.human(format_args!(
            "trace: {}: {} span(s), {} matched, {shown} shown",
            opts.target,
            spans.len(),
            matched.len(),
        ));
    }
    ExitCode::SUCCESS
}

struct TopOpts {
    once: bool,
    json: bool,
    write: bool,
    clients: u32,
    scale: u32,
    threads: usize,
    slo_p99: Option<f64>,
    slo_shed: Option<f64>,
    slo_quarantine: Option<f64>,
    slo_completion: Option<f64>,
}

fn parse_top_args(args: &[String]) -> Result<TopOpts, CliError> {
    let mut opts = TopOpts {
        once: false,
        json: false,
        write: false,
        clients: opd_experiments::dash::DASH_CLIENTS,
        scale: 1,
        threads: 0,
        slo_p99: None,
        slo_shed: None,
        slo_quarantine: None,
        slo_completion: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::missing_value(name))
        };
        let parse_u32 = |name: &str, value: &str| {
            value
                .parse::<u32>()
                .map_err(|e| CliError::invalid(format!("{name} `{value}`"), e))
        };
        let parse_f64 = |name: &str, value: &str| {
            value
                .parse::<f64>()
                .map_err(|e| CliError::invalid(format!("{name} `{value}`"), e))
        };
        match arg.as_str() {
            "--once" => opts.once = true,
            "--json" => opts.json = true,
            "--write" => opts.write = true,
            "--clients" => opts.clients = parse_u32("--clients", value_for("--clients")?)?,
            "--scale" => opts.scale = parse_u32("--scale", value_for("--scale")?)?,
            "--threads" => {
                let value = value_for("--threads")?;
                opts.threads = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--threads `{value}`"), e))?;
            }
            "--slo-p99" => opts.slo_p99 = Some(parse_f64("--slo-p99", value_for("--slo-p99")?)?),
            "--slo-shed" => {
                opts.slo_shed = Some(parse_f64("--slo-shed", value_for("--slo-shed")?)?);
            }
            "--slo-quarantine" => {
                opts.slo_quarantine = Some(parse_f64(
                    "--slo-quarantine",
                    value_for("--slo-quarantine")?,
                )?);
            }
            "--slo-completion" => {
                opts.slo_completion = Some(parse_f64(
                    "--slo-completion",
                    value_for("--slo-completion")?,
                )?);
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected top argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn top(opts: &TopOpts) -> ExitCode {
    use opd_experiments::dash;
    use std::sync::atomic::{AtomicBool, Ordering};

    let reporter = Reporter::new(opts.json);
    let mut registry = opd_obs::MetricsRegistry::for_host();
    let metrics = opd_serve::ServiceMetrics::register(&mut registry);
    let registry = &registry;

    // Live mode: while the soak runs on a worker thread, repaint a
    // one-line service view on stderr from the shared registry.
    // `--once` (and `--json`, whose stderr is already the human
    // channel) skip the refresh loop.
    let live = !opts.once && !opts.json;
    let done = AtomicBool::new(false);
    let study = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let study = dash::dash_study_observed(
                opts.scale,
                opts.clients,
                opts.threads,
                registry,
                &metrics,
            );
            done.store(true, Ordering::Release);
            study
        });
        while live && !done.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(60));
            let snap = registry.snapshot();
            eprint!(
                "\rtop: {} frame(s), {} restart(s), {} shed, {} completed, {} quarantined ",
                snap.counter("serve.frames_processed").unwrap_or(0),
                snap.counter("serve.restarts").unwrap_or(0),
                snap.counter("serve.shed_frames").unwrap_or(0),
                snap.counter("serve.sessions_completed").unwrap_or(0),
                snap.counter("serve.sessions_quarantined").unwrap_or(0),
            );
        }
        if live {
            eprintln!();
        }
        worker.join().expect("dashboard soak thread panicked")
    });
    let study = match study {
        Ok(study) => study,
        Err(e) => {
            eprintln!("error: top: {e}");
            return ExitCode::from(2);
        }
    };

    let mut policy = dash::SloPolicy::default();
    if let Some(v) = opts.slo_p99 {
        policy.max_p99_latency_ticks = v;
    }
    if let Some(v) = opts.slo_shed {
        policy.max_shed_fraction = v;
    }
    if let Some(v) = opts.slo_quarantine {
        policy.max_quarantine_fraction = v;
    }
    if let Some(v) = opts.slo_completion {
        policy.min_completion_fraction = v;
    }

    if opts.write {
        // The committed artifact is always the pinned (scale 1,
        // committed client count) form the freshness test
        // regenerates, whatever this invocation printed.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_dash.json");
        let overhead = dash::null_span_overhead(1, dash::DASH_SAMPLES);
        let rendered = if opts.scale == 1 && opts.clients == dash::DASH_CLIENTS {
            dash::render_dash_json(
                &study,
                overhead.samples,
                overhead.plain_nanos,
                overhead.instrumented_nanos,
            )
        } else {
            match dash::dash_study(1, opts.threads) {
                Ok(pinned) => dash::render_dash_json(
                    &pinned,
                    overhead.samples,
                    overhead.plain_nanos,
                    overhead.instrumented_nanos,
                ),
                Err(e) => {
                    eprintln!("error: top: {e}");
                    return ExitCode::from(2);
                }
            }
        };
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        reporter.human(format_args!("wrote {path}"));
    }

    let burns = policy.check(&study);
    if opts.json {
        reporter.payload(dash::top_json(&study, &policy).trim_end());
    } else {
        reporter.human(dash::top_view(&study, &policy).trim_end());
    }
    if burns.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct FlightOpts {
    file: String,
    json: bool,
}

fn parse_flight_args(args: &[String]) -> Result<FlightOpts, CliError> {
    let mut opts = FlightOpts {
        file: String::new(),
        json: false,
    };
    for arg in args {
        match arg.as_str() {
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            file if opts.file.is_empty() => opts.file = file.to_owned(),
            extra => {
                return Err(CliError::usage(format!(
                    "unexpected flight argument `{extra}`"
                )))
            }
        }
    }
    if opts.file.is_empty() {
        return Err(CliError::usage("flight requires a post-mortem FILE"));
    }
    Ok(opts)
}

fn flight(opts: &FlightOpts) -> ExitCode {
    let text = match std::fs::read_to_string(&opts.file) {
        Ok(text) => text,
        Err(e) => return fail(format_args!("cannot read `{}`: {e}", opts.file)),
    };
    let pm = match opd_serve::Postmortem::parse(&text) {
        Ok(pm) => pm,
        Err(e) => return fail(format_args!("cannot parse `{}`: {e}", opts.file)),
    };
    let reporter = Reporter::new(opts.json);
    if opts.json {
        reporter.payload(pm.to_json().trim_end());
    } else {
        reporter.human(render_flight(&pm).trim_end());
    }
    ExitCode::SUCCESS
}

/// Renders one post-mortem for humans: the kill line, the session's
/// counters at death, and the flight recorder's retained spans.
fn render_flight(pm: &opd_serve::Postmortem) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "post-mortem: client {} (vshard {}) — {} at tick {} (attempt {})",
        pm.client, pm.vshard, pm.reason, pm.tick, pm.attempt,
    );
    let _ = writeln!(
        out,
        "  frames:      {}/{} processed, {} element(s) accepted, queue depth {}",
        pm.frames_processed, pm.frames_total, pm.elements_accepted, pm.queue_depth,
    );
    let _ = writeln!(
        out,
        "  supervision: {} crash(es), {} timeout(s), {} restart(s); {} corrupt, {} poison frame(s)",
        pm.crashes, pm.timeouts, pm.restarts, pm.corrupt_frames, pm.poison_frames,
    );
    let _ = writeln!(
        out,
        "  flight ring: {} span(s) ever recorded, last {} retained:",
        pm.spans_recorded,
        pm.recent.len(),
    );
    for s in &pm.recent {
        let _ = writeln!(
            out,
            "    [{:>6}..{:>6}] {:<12} id={} parent={} detail={}",
            s.start,
            s.end,
            s.kind.name(),
            s.id,
            s.parent,
            s.detail,
        );
    }
    out
}

struct MetricsDumpOpts {
    clients: u32,
    scale: u32,
    json: bool,
}

fn parse_metrics_dump_args(args: &[String]) -> Result<MetricsDumpOpts, CliError> {
    let mut opts = MetricsDumpOpts {
        clients: 128,
        scale: 1,
        json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::missing_value(name))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--clients" => {
                let value = value_for("--clients")?;
                opts.clients = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--clients `{value}`"), e))?;
            }
            "--scale" => {
                let value = value_for("--scale")?;
                opts.scale = value
                    .parse()
                    .map_err(|e| CliError::invalid(format!("--scale `{value}`"), e))?;
            }
            flag if flag.starts_with("--") => return Err(CliError::unknown_flag(flag)),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected metrics-dump argument `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn metrics_dump(opts: &MetricsDumpOpts) -> ExitCode {
    let snapshot = match opd_experiments::dash::metrics_exposition(opts.scale, opts.clients) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("error: metrics-dump: {e}");
            return ExitCode::from(2);
        }
    };
    let reporter = Reporter::new(opts.json);
    if opts.json {
        let counters: Vec<String> = snapshot
            .counters
            .iter()
            .map(|(name, value)| format!("  \"{name}\": {value}"))
            .collect();
        let histograms: Vec<String> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                format!(
                    "  \"{name}\": {{\"count\": {}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}}",
                    h.count(),
                    h.percentile(0.50).unwrap_or(0.0),
                    h.percentile(0.90).unwrap_or(0.0),
                    h.percentile(0.99).unwrap_or(0.0),
                )
            })
            .collect();
        let mut doc = String::new();
        let _ = writeln!(doc, "{{");
        let _ = writeln!(doc, " \"schema\": \"opd-metrics-v1\",");
        let _ = writeln!(doc, " \"counters\": {{");
        let _ = writeln!(doc, "{}", counters.join(",\n"));
        let _ = writeln!(doc, " }},");
        let _ = writeln!(doc, " \"histograms\": {{");
        let _ = writeln!(doc, "{}", histograms.join(",\n"));
        let _ = writeln!(doc, " }}");
        let _ = write!(doc, "}}");
        reporter.payload(doc);
    } else {
        // The exposition text is the payload, not commentary: it goes
        // to stdout so `opd metrics-dump | promtool` style pipelines
        // work.
        reporter.payload(snapshot.to_prometheus().trim_end());
    }
    ExitCode::SUCCESS
}

fn write_bounds_artifact() -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_static_bounds.json");
    let json = opd_experiments::analysis::static_bounds_json(1);
    match std::fs::write(path, &json) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            ExitCode::from(2)
        }
    }
}
