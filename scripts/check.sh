#!/usr/bin/env bash
# The full local gate: release build, every workspace test suite, a
# shuffled Tier-1 run under a clock-derived seed, a one-thread run of
# the suites that share process-wide state, warning-free clippy across
# the whole workspace, formatting, warning-free rustdoc, a deny-warnings
# static lint of every built-in workload, an `opd plan` smoke run on
# the default grid, a two-thread profiled `opd sweep --stats` run
# (the metered sweep planned from the plain sweep's LPT prices), the
# fault-injection smoke pass (injector ledgers vs decoder reports), an
# `opd trace` smoke run, an `opd audit` smoke run (DPOR exploration of
# the metrics registry + its seeded mutant + OPD-R lints), an
# `opd serve` smoke run (supervised multi-tenant streaming under
# aggressive hazards), a release `opd serve` checkpoint round trip
# (written on two threads, resumed on one: resume restores vshards and
# reprints the digest), a 10,000-client `opd serve` digest compared at
# one and three threads (sessions recycle their worker's buffers, so
# state leaking between sessions would change it), an observability
# smoke pass (`opd top`,
# `opd metrics-dump`, and the traced-serve → `opd flight` loop), an
# `opd certify` smoke run (resource certificates + OPD-A30x lints +
# BENCH_cert.json freshness), a release-mode smoke of every run path
# against the executable spec, the release-mode sweep-engine property
# suite against the same spec, the release-mode interning property
# suite (memoised ids against a first-seen-order table), a
# release-mode paper-table digest and thread-count check, a
# release-mode smoke of all three benchmark workloads checked against
# their reference outputs, a guard that every committed BENCH_*.json
# artifact is read by some test, the feature-gate guard keeping
# opd-obs free of opd-sched when `sched` is off, plus an optional
# ThreadSanitizer pass when a nightly toolchain is available.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
RUST_BACKTRACE=1 cargo test -q --workspace
# Tier-1 must pass under any test ordering: one shuffled run, seeded
# from the clock and echoed so a failing order can be replayed.
# `--shuffle` permutes the tests within each test binary only; the
# binaries themselves still run one after another.
seed="$(date +%s)"
echo "check.sh: shuffled Tier-1 run with --shuffle-seed $seed"
RUSTC_BOOTSTRAP=1 cargo test -q -- -Z unstable-options --shuffle --shuffle-seed "$seed"
# Suites sharing process-wide state run one test at a time as well:
# the counting allocator of tests/common/alloc.rs (kernel_alloc, which
# also pins scoring at zero allocations, obs_alloc, span_alloc,
# record_log), and temp files or spawned `opd` processes
# (serve_resume, cli_errors, flight_recorder).
cargo test -q --test kernel_alloc --test obs_alloc --test span_alloc --test record_log \
    --test serve_resume --test cli_errors --test flight_recorder -- --test-threads=1
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Rustdoc is part of the API surface: broken intra-doc links and bad
# code fences fail the gate, not just clutter the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo run --release -q --bin opd -- lint --deny-warnings
cargo run --release -q --bin opd -- plan --json > /dev/null
# The profiled sweep above one thread: it plans its buckets from the
# same certificate-priced LPT prices as `sweep_many`, and no other step
# of the gate runs it on more than one thread in release.
cargo run --release -q --bin opd -- sweep --stats --threads 2 > /dev/null
cargo run --release -q --bin opd -- faults --smoke > /dev/null
cargo run --release -q --bin opd -- trace lexgen --limit 5 --fuel 20000 > /dev/null
# Serve smoke: the multi-tenant streaming layer under aggressive
# hazards — restarts, timeouts, poison quarantine, and shedding all
# fire, frames are conserved, and every completed session's phase
# stream is bit-identical to a batch run over the session log.
# (The BENCH_serve.json freshness test runs in the workspace suite
# above.)
cargo run --release -q --bin opd -- serve --smoke > /dev/null
# Serve checkpoint round trip: a checkpointed soak on two threads,
# then the same command resumed on one thread from its whole
# checkpoint, must print the same digest and restore at least one
# vshard instead of recomputing it. Vshards run on the sweeps' LPT
# work loop, so the two runs schedule them differently.
ckpt_dir="$(mktemp -d)"
serve_ckpt=(cargo run --release -q --bin opd -- serve --clients 2000
    --checkpoint "$ckpt_dir/serve.opdk" --json)
written="$("${serve_ckpt[@]}" --threads 2)"
resumed="$("${serve_ckpt[@]}" --threads 1 --resume)"
rm -rf "$ckpt_dir"
if [ "$(grep '"digest"' <<<"$written")" != "$(grep '"digest"' <<<"$resumed")" ]; then
    echo "check.sh: resumed serve digest differs: $resumed" >&2
    exit 1
fi
restored="$(sed -n 's/.*"restored_vshards": \([0-9]*\).*/\1/p' <<<"$resumed")"
if [ "${restored:-0}" -eq 0 ]; then
    echo "check.sh: serve --resume restored no vshard: $resumed" >&2
    exit 1
fi
# Serve thread-count check: the 10,000-client soak must print the same
# digest at one thread, where one worker runs every vshard and each
# vshard's sessions reuse the buffers of the ones before, and at three,
# where the workers recycle along different vshard sequences. The round
# trip above cannot catch state leaking between sessions: its resumed
# run restores every vshard and runs no session.
serve_soak=(cargo run --release -q --bin opd -- serve --clients 10000 --json)
one_thread="$("${serve_soak[@]}" --threads 1 | grep '"digest"')"
three_threads="$("${serve_soak[@]}" --threads 3 | grep '"digest"')"
if [ "$one_thread" != "$three_threads" ]; then
    echo "check.sh: serve digest differs at 1 and 3 threads: $one_thread vs $three_threads" >&2
    exit 1
fi
# Observability smoke: the dashboard renders one service view with
# every SLO met (exit 0), the Prometheus exposition emits, and a
# traced smoke soak dumps post-mortems that `opd flight` replays.
# (BENCH_dash.json freshness, the null-span allocation gate, and the
# span-log thread-invariance tests run in the workspace suite above.)
cargo run --release -q --bin opd -- top --once --json > /dev/null
cargo run --release -q --bin opd -- metrics-dump --clients 48 > /dev/null
flight_dir="$(mktemp -d)"
cargo run --release -q --bin opd -- serve --smoke --postmortem-dir "$flight_dir" > /dev/null
# `sed -n 1p` reads the whole listing: `head -n 1` could exit while
# `sort` still writes, and pipefail would fail the gate on SIGPIPE.
first_pm="$(find "$flight_dir" -name '*.pm' | sort | sed -n 1p)"
cargo run --release -q --bin opd -- flight "$first_pm" > /dev/null
rm -rf "$flight_dir"
# Concurrency audit smoke: the one modeled subsystem, the metrics
# registry, explores clean through its real code, its seeded mutant is
# caught, and no OPD-R lint fires. (The BENCH_sched.json freshness
# test runs in the workspace suite above.)
cargo run --release -q --bin opd -- audit --deny-warnings > /dev/null
# Certificate smoke: every (config × workload) pair of the default
# grid certifies without a single OPD-A30x finding at the full static
# bound. (The BENCH_cert.json byte-for-byte freshness test and the
# 224-pair differential soundness suite run in the workspace tests.)
cargo run --release -q --bin opd -- certify --deny-warnings > /dev/null
# Spec equivalence smoke: every run path (batch, `process`,
# `process_log` streaming, sweep-engine units) must agree with the
# executable spec bit-for-bit under release codegen too (the workspace
# run above exercises the same differential + proptest suite in debug;
# release is where the SWAR closed forms actually vectorise).
RUST_BACKTRACE=1 cargo test -q --release -p opd --test kernel_equivalence kernels_agree
# Sweep-engine property smoke: heavy shared groups of both TW policies
# against the executable spec under release codegen. Running-average
# cohorts (leaver prefixes, shared statistics) and phase classes
# reading the shared FIFO's CW are exercised hardest here.
RUST_BACKTRACE=1 cargo test -q --release -p opd-core --test sweep_props
# Interning property smoke: the intern loop's direct-mapped memo must
# assign exactly the ids of a plain first-seen-order table, on random
# streams, on streams colliding in one memo slot, and across log
# clears, prefix drops and reconfigured detectors.
RUST_BACKTRACE=1 cargo test -q --release -p opd-core --lib intern::props
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
# Every committed BENCH_*.json artifact at the root must be named by
# a test under tests/: an artifact no test reads is checked by nothing
# and goes stale unnoticed.
for artifact in BENCH_*.json; do
    if ! grep -rqF "$artifact" tests/; then
        echo "check.sh: $artifact is named by no test under tests/" >&2
        exit 1
    fi
done
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
