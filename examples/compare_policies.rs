//! Compares the three trailing-window strategies of the paper —
//! Fixed Interval (the prior-art default), Constant TW with skip
//! factor 1, and Adaptive TW — on one workload across MPL values.
//!
//! ```sh
//! cargo run --release --example compare_policies
//! ```

use opd::core::lpt::default_threads;
use opd::experiments::grid::{half_mpl_cw, policy_grid, TwKind};
use opd::experiments::report::{fmt_mpl, fmt_score, Table};
use opd::experiments::runner::{best_combined, sweep, PreparedWorkload};
use opd::microvm::workloads::Workload;

/// A representative subset of the paper's MPL values, to keep the
/// example quick; the `fig4` binary sweeps the full range.
const MPLS: [u64; 3] = [1_000, 10_000, 100_000];

fn main() {
    let workload = Workload::Audiodec;
    println!(
        "workload: {workload} (analogue of {})",
        workload.paper_benchmark()
    );

    let prepared = PreparedWorkload::prepare(workload, 1, &MPLS);
    println!("trace: {} branches\n", prepared.total_elements());

    let mut table = Table::new(
        "Best combined score per trailing-window strategy (CW = 1/2 MPL)",
        &["MPL", "Fixed Interval", "Constant TW", "Adaptive TW"],
    );
    for &mpl in &MPLS {
        let cw = half_mpl_cw(mpl);
        let mut cells = vec![fmt_mpl(mpl)];
        for kind in [TwKind::FixedInterval, TwKind::Constant, TwKind::Adaptive] {
            let runs = sweep(&prepared, &policy_grid(kind, cw), default_threads());
            cells.push(fmt_score(best_combined(&runs, prepared.oracle(mpl))));
        }
        table.row(cells);
    }
    println!("{table}");
    println!("A skip factor of 1 (Constant/Adaptive) responds to changes");
    println!("within an interval; the fixed-interval policy only compares");
    println!("whole adjacent intervals and misses misaligned boundaries.");
}
