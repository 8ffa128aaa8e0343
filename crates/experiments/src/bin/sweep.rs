//! Sweeps the full >10,000-configuration grid over one workload and
//! prints the ten most accurate detectors per MPL value.
//!
//! Flags: `--scale N --threads N` (the workload is fixed to `ruleng`,
//! a mid-sized benchmark; edit here to sweep another).

use opd_experiments::cli;
use opd_experiments::grid::{full_grid, MPLS_TABLE1};
use opd_experiments::report::{fmt_mpl, fmt_score, Table};
use opd_experiments::runner::{sweep, PreparedWorkload};
use opd_microvm::workloads::Workload;

fn main() {
    let opts = match cli::parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let workload = Workload::Ruleng;

    eprintln!("preparing {workload} at scale {} ...", opts.scale);
    let prepare_started = std::time::Instant::now();
    let prepared = PreparedWorkload::prepare(workload, opts.scale, &MPLS_TABLE1);
    let prepare_seconds = prepare_started.elapsed().as_secs_f64();
    let configs = full_grid();
    eprintln!(
        "prepared {} elements in {prepare_seconds:.1}s; sweeping {} configurations on {} threads ...",
        prepared.total_elements(),
        configs.len(),
        opts.threads
    );

    let sweep_started = std::time::Instant::now();
    let runs = sweep(&prepared, &configs, opts.threads);
    let sweep_seconds = sweep_started.elapsed().as_secs_f64();

    for &mpl in &MPLS_TABLE1 {
        let oracle = prepared.oracle(mpl);
        let mut scored: Vec<(f64, String)> = runs
            .iter()
            .map(|r| (r.score(oracle).combined(), r.config.to_string()))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut t = Table::new(
            &format!("Top detectors for {workload}, MPL {}", fmt_mpl(mpl)),
            &["Score", "Configuration"],
        );
        for (score, config) in scored.into_iter().take(10) {
            t.row(vec![fmt_score(score), config]);
        }
        println!("{t}");
    }
    eprintln!("(prepare {prepare_seconds:.1}s, sweep {sweep_seconds:.1}s)");
}
