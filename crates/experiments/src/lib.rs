//! The evaluation harness: regenerates every table and figure of the
//! CGO 2006 paper's evaluation (Sections 4 and 5).
//!
//! * [`grid`] — the detector parameter spaces (window sizes, skip
//!   factors, models, analyzers) and the >10,000-configuration full
//!   grid the paper's study enumerates;
//! * [`runner`] — trace preparation (workload execution, interning,
//!   oracle computation for all MPL values) and the parallel
//!   configuration sweep;
//! * [`report`] — fixed-width table rendering for experiment output;
//! * [`analysis`] — the per-workload static-bounds artifact
//!   (`BENCH_static_bounds.json`) regress-checking runtime pre-sizing;
//! * [`cert`] — abstract-interpretation resource certificates for
//!   every (config × workload) pair of the default grid, the `OPD-A`
//!   lint sweep, and the `BENCH_cert.json` artifact behind
//!   `opd certify`;
//! * [`serve`] — the multi-tenant streaming study behind `opd serve`
//!   and `opd loadgen`: the ~10k-client fault-injected soak, the
//!   shed-curve sweep, the certificate-admission sweep, and the
//!   `BENCH_serve.json` artifact;
//! * [`exp`] — one module per paper artifact: Table 1, Table 2, and
//!   Figures 4–8, each with a `run` entry point and a printable
//!   result.
//!
//! Binaries (`table1`, `table2`, `fig4` … `fig8`, `sweep`) wrap these
//! modules; all accept `--scale` and `--threads`.
//!
//! # Examples
//!
//! ```no_run
//! use opd_experiments::exp::{table1, ExpOptions};
//!
//! let result = table1::run(&ExpOptions::default());
//! println!("{result}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub mod cert;
pub mod checkpoint;
pub mod cli;
pub mod dash;
pub mod exp;
pub mod faults;
pub mod grid;
pub mod obs;
pub mod report;
pub mod runner;
pub mod serve;
