//! Exploration models of the repository's concurrent subsystems, plus
//! the seeded-bug mutants that prove the auditor is not vacuous.
//!
//! Each model is a closure suitable for [`crate::Explorer::explore`]:
//! it builds its shared state fresh, runs a small but schedule-complete
//! instance of the real protocol on the instrumented sync layer, and
//! asserts the protocol's invariant with [`crate::check`]. The model
//! for the metrics registry lives in `opd-obs` (behind its `sched`
//! feature) because it drives the *real* `MetricsRegistry` — the two
//! models here abstract protocols whose real implementations are
//! structurally tied to files and OS threads.
//!
//! Sizes are chosen so exhaustive DPOR exploration stays in the
//! thousands of schedules: 2 worker threads and 2–3 shared slots
//! already cover every ordering class of each protocol (every pair of
//! operations that *can* commute or conflict does so somewhere in the
//! state space).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{check, thread, SyncAtomicU64, SyncCell};

/// Model of the sweep runner's disjoint-bucket protocol
/// (`crates/experiments/src/runner.rs`): an LPT plan statically
/// assigns each work item to exactly one bucket, workers fill only
/// their own result slots, and a shared `Relaxed` progress counter
/// ticks per item. The invariant: after joining both workers, every
/// slot holds its item's result and the counter equals the item
/// count. Disjointness is what makes the `Relaxed` counter and the
/// unsynchronized slots safe — the joins provide the only
/// happens-before edges the protocol needs.
pub fn runner_disjoint_buckets() {
    // LPT on costs [3, 2, 2] over 2 buckets: bucket 0 <- item 0,
    // bucket 1 <- items 1, 2 (mirrors `lpt_plan`).
    const BUCKETS: [&[usize]; 2] = [&[0], &[1, 2]];
    let slots: Arc<Vec<SyncCell<u64>>> = Arc::new(
        (0..3)
            .map(|i| SyncCell::labeled(0u64, format!("results[{i}]")))
            .collect(),
    );
    let progress = Arc::new(SyncAtomicU64::labeled(0, "progress"));
    let workers: Vec<thread::JoinHandle> = BUCKETS
        .iter()
        .map(|bucket| {
            let slots = Arc::clone(&slots);
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                for &item in *bucket {
                    slots[item].write(item as u64 + 10);
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    for (i, slot) in slots.iter().enumerate() {
        check(slot.read() == i as u64 + 10, "slot filled exactly once");
    }
    check(
        progress.load(Ordering::Relaxed) == 3,
        "progress counter counts every item",
    );
}

/// Model of the checkpoint append/flush/longest-valid-prefix protocol
/// (the OPDK record log, `crates/trace/src/record.rs`, under both the
/// sweep and the serve checkpoints): a writer appends record
/// payloads and then publishes the new valid-prefix length with a
/// `Release` store; a concurrent reader takes an `Acquire` snapshot of
/// the length and must see fully written payloads for the whole
/// prefix — the in-memory analogue of "a record's bytes and checksum
/// are durable before the reader can parse them".
pub fn checkpoint_writer_reader() {
    const RECORDS: u64 = 2;
    let payload: Arc<Vec<SyncCell<u64>>> = Arc::new(
        (0..RECORDS)
            .map(|i| SyncCell::labeled(0u64, format!("record[{i}]")))
            .collect(),
    );
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            for i in 0..RECORDS {
                payload[i as usize].write(100 + i);
                committed.store(i + 1, Ordering::Release);
            }
        })
    };
    let reader = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            let prefix = committed.load(Ordering::Acquire);
            check(prefix <= RECORDS, "prefix never exceeds written records");
            for i in 0..prefix {
                check(
                    payload[i as usize].read() == 100 + i,
                    "committed prefix is fully written",
                );
            }
        })
    };
    writer.join();
    reader.join();
}

/// Seeded bug: a metrics-style counter updated with `load` + `store`
/// instead of `fetch_add`. Two writers each "increment" once; one
/// increment can vanish. The auditor reports a
/// [`crate::FindingKind::LostUpdate`] on `hits` — the exact failure
/// `fetch_add` exists to prevent.
pub fn metrics_lost_update() {
    let hits = Arc::new(SyncAtomicU64::labeled(0, "hits"));
    let workers: Vec<thread::JoinHandle> = (0..2)
        .map(|_| {
            let hits = Arc::clone(&hits);
            thread::spawn(move || {
                let v = hits.load(Ordering::Relaxed);
                hits.store(v + 1, Ordering::Relaxed);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
}

/// Seeded bug: an off-by-one in the bucket plan makes two workers
/// share item 1. The auditor reports a
/// [`crate::FindingKind::DataRace`] on `results[1]` — the disjointness
/// invariant the real `lpt_plan` guarantees.
pub fn runner_overlapping_buckets() {
    const BUCKETS: [&[usize]; 2] = [&[0, 1], &[1, 2]];
    let slots: Arc<Vec<SyncCell<u64>>> = Arc::new(
        (0..3)
            .map(|i| SyncCell::labeled(0u64, format!("results[{i}]")))
            .collect(),
    );
    let workers: Vec<thread::JoinHandle> = BUCKETS
        .iter()
        .map(|bucket| {
            let slots = Arc::clone(&slots);
            thread::spawn(move || {
                for &item in *bucket {
                    slots[item].write(item as u64 + 10);
                }
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
}

/// Seeded bug: the main thread reads result slots *before* joining
/// the worker. Without the join edge the reads race the worker's
/// writes — a [`crate::FindingKind::DataRace`] on `results[0]`.
pub fn runner_dropped_join() {
    let slots: Arc<Vec<SyncCell<u64>>> = Arc::new(vec![SyncCell::labeled(0u64, "results[0]")]);
    let worker = {
        let slots = Arc::clone(&slots);
        thread::spawn(move || {
            slots[0].write(10);
        })
    };
    let _ = slots[0].read();
    worker.join();
}

/// Seeded bug: the checkpoint writer publishes the prefix length with
/// a `Relaxed` read-modify-write. No happens-before edge covers the
/// payload, so the reader's payload access races the writer's — a
/// [`crate::FindingKind::DataRace`] on `record[0]`, and the site
/// profile shows exactly the weakened publication shape the
/// `OPD-R202` lint flags (Relaxed RMW writes, Acquire reads).
pub fn checkpoint_relaxed_publish() {
    let payload = Arc::new(SyncCell::labeled(0u64, "record[0]"));
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            payload.write(100);
            committed.fetch_add(1, Ordering::Relaxed);
        })
    };
    let reader = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            if committed.load(Ordering::Acquire) == 1 {
                check(payload.read() == 100, "published record is written");
            }
        })
    };
    writer.join();
    reader.join();
}

/// The shared-object labels each clean model is expected to touch —
/// the ground truth for the `OPD-R201` (unexplored atomic) lint.
#[must_use]
pub fn runner_expected_objects() -> Vec<String> {
    let mut v: Vec<String> = (0..3).map(|i| format!("results[{i}]")).collect();
    v.push("progress".to_owned());
    v
}

/// Expected objects of [`checkpoint_writer_reader`].
#[must_use]
pub fn checkpoint_expected_objects() -> Vec<String> {
    vec![
        "record[0]".to_owned(),
        "record[1]".to_owned(),
        "committed".to_owned(),
    ]
}
