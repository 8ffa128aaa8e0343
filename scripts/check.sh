#!/usr/bin/env bash
# The full local gate: release build, every workspace test suite, warning-free clippy across the
# whole workspace, formatting, warning-free rustdoc, a deny-warnings
# static lint of every built-in workload, an `opd plan` smoke run on
# the default grid, the fault-injection smoke pass (injector ledgers
# vs decoder reports), an `opd trace` smoke run, an `opd audit` smoke
# run (DPOR exploration + mutant suite + OPD-R lints), an
# `opd serve` smoke run (supervised multi-tenant streaming under
# aggressive hazards), an observability smoke pass (`opd top`,
# `opd metrics-dump`, and the traced-serve → `opd flight` loop), an
# `opd certify` smoke run (resource certificates + OPD-A30x lints +
# BENCH_cert.json freshness), a release-mode kernel-equivalence
# smoke, a release-mode paper-table digest and thread-count check, the
# BENCH_kernel.json acceptance/freshness tests, a
# release-mode smoke of all three benchmark workloads checked against
# their reference outputs, the feature-gate guard keeping opd-obs free
# of opd-sched when `sched` is off, plus an optional ThreadSanitizer
# pass when a nightly toolchain is available.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
RUST_BACKTRACE=1 cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Rustdoc is part of the API surface: broken intra-doc links and bad
# code fences fail the gate, not just clutter the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo run --release -q --bin opd -- lint --deny-warnings
cargo run --release -q --bin opd -- plan --json > /dev/null
cargo run --release -q --bin opd -- faults --smoke > /dev/null
cargo run --release -q --bin opd -- trace lexgen --limit 5 --fuel 20000 > /dev/null
# Serve smoke: the multi-tenant streaming layer under aggressive
# hazards — restarts, timeouts, poison quarantine, and shedding all
# fire, frames are conserved, and every completed session's phase
# stream is bit-identical to a scalar-kernel run over the session log.
# (The BENCH_serve.json freshness test runs in the workspace suite
# above.)
cargo run --release -q --bin opd -- serve --smoke > /dev/null
# Observability smoke: the dashboard renders one service view with
# every SLO met (exit 0), the Prometheus exposition emits, and a
# traced smoke soak dumps post-mortems that `opd flight` replays.
# (BENCH_dash.json freshness, the null-span allocation gate, and the
# span-log thread-invariance tests run in the workspace suite above.)
cargo run --release -q --bin opd -- top --once --json > /dev/null
cargo run --release -q --bin opd -- metrics-dump --clients 48 > /dev/null
flight_dir="$(mktemp -d)"
cargo run --release -q --bin opd -- serve --smoke --postmortem-dir "$flight_dir" > /dev/null
first_pm="$(find "$flight_dir" -name '*.pm' | sort | head -n 1)"
cargo run --release -q --bin opd -- flight "$first_pm" > /dev/null
rm -rf "$flight_dir"
# Concurrency audit smoke: every modeled subsystem explores clean,
# every seeded mutant is caught, and no OPD-R lint fires. (The
# BENCH_sched.json freshness test runs in the workspace suite above.)
cargo run --release -q --bin opd -- audit --deny-warnings > /dev/null
# Certificate smoke: every (config × workload) pair of the default
# grid certifies without a single OPD-A30x finding at the full static
# bound. (The BENCH_cert.json byte-for-byte freshness test and the
# 224-pair differential soundness suite run in the workspace tests.)
cargo run --release -q --bin opd -- certify --deny-warnings > /dev/null
RUST_BACKTRACE=1 cargo test -q -p opd --test cert_artifact
# Kernel equivalence smoke: the SWAR and scalar kernels must agree
# bit-for-bit under release codegen too (the workspace run above
# exercises the same differential + proptest suite in debug; release
# is where the SWAR closed forms actually vectorise).
RUST_BACKTRACE=1 cargo test -q --release -p opd --test kernel_equivalence kernels_agree
# Paper-table smoke: every deterministic table over all eight workloads
# at the benchmark's fuel cap must match the benchmark's pinned digests
# and render the same text at one and at four threads (the only
# end-to-end check of the certificate-priced LPT schedule under the
# experiments' per-experiment sweeps; the benchmark runs one thread).
RUST_BACKTRACE=1 cargo test -q --release -p opd --test paper_tables -- --include-ignored
# Release-mode benchmark smoke: one second of each benchmark workload,
# checked against its recorded reference outputs. grid_sweep checks
# every (workload, config) cell of the full grid, the top-10 rankings,
# and 48 cells re-run through a standalone detector; paper_tables
# checks a digest of every experiment's tables; serve_soak checks the
# soak's frames processed and aggregate digest. Each last line must
# report `"correct": true`.
for workload in grid_sweep paper_tables serve_soak; do
    smoke="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if ! grep -q '"correct": true' <<<"$smoke"; then
        echo "check.sh: $workload smoke failed: $smoke" >&2
        exit 1
    fi
done
# The committed kernel benchmark artifact must be structurally valid,
# meet the acceptance lines (budget, speedup, identical results), and
# be fresh for the current grid and workload.
RUST_BACKTRACE=1 cargo test -q -p opd --test kernel_artifact
# opd-obs without its `sched` feature must not pull in opd-sched, so
# release binaries carry plain std atomics and zero model-checking
# code.
if (cd crates/obs && cargo tree -e features) | grep -q "opd-sched"; then
    echo "check.sh: opd-obs depends on opd-sched without the sched feature" >&2
    exit 1
fi
# Optional: cross-check the model-level audit with ThreadSanitizer on
# the real std-atomics build. Needs a nightly toolchain with -Z
# sanitizer support; skip gracefully when it (or the network) is
# absent.
if rustup toolchain list 2>/dev/null | grep -q nightly; then
    if RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -q -p opd-obs metrics 2>/dev/null; then
        echo "check.sh: ThreadSanitizer pass ok"
    else
        echo "check.sh: ThreadSanitizer pass unavailable (offline or no -Zbuild-std); skipped" >&2
    fi
else
    echo "check.sh: no nightly toolchain; ThreadSanitizer pass skipped" >&2
fi
echo "check.sh: all gates passed"
