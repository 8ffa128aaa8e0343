//! Explorer correctness: schedule counts on toy models, DPOR/naive
//! agreement, replay determinism, and seeded bugs each caught with
//! the specific expected finding.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use opd_sched::{check, thread, Explorer, FindingKind, SyncAtomicU64, SyncCell};

// -- fixtures --

/// Labelled plain cells `name[0]`, `name[1]`, ...
fn cells(name: &str, n: usize) -> Arc<Vec<SyncCell<u64>>> {
    Arc::new(
        (0..n)
            .map(|i| SyncCell::labeled(0u64, format!("{name}[{i}]")))
            .collect(),
    )
}

/// Two workers write `slots[i]` for the items of their own bucket,
/// ticking a shared `Relaxed` counter per item; the main thread checks
/// every slot and the counter after both joins. Clean: the buckets are
/// disjoint and the joins are the only edges needed. With `buckets`
/// sharing an item it races on that item's slot.
fn bucket_writers(buckets: [&'static [usize]; 2], counter: bool) {
    let slots = cells("slots", 3);
    let progress = Arc::new(SyncAtomicU64::labeled(0, "progress"));
    let workers: Vec<thread::JoinHandle> = buckets
        .iter()
        .map(|&bucket| {
            let slots = Arc::clone(&slots);
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                for &item in bucket {
                    slots[item].write(item as u64 + 10);
                    if counter {
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    for (i, slot) in slots.iter().enumerate() {
        check(slot.read() == i as u64 + 10, "every slot written");
    }
    if counter {
        check(
            progress.load(Ordering::Relaxed) == 3,
            "the counter counts every item",
        );
    }
}

fn disjoint_buckets_with_relaxed_counter() {
    bucket_writers([&[0], &[1, 2]], true);
}

fn overlapping_writes() {
    bucket_writers([&[0, 1], &[1, 2]], false);
}

/// The main thread reads a slot before joining the worker that writes
/// it: without the join edge the read races the write.
fn dropped_join() {
    let slots = cells("slots", 1);
    let worker = {
        let slots = Arc::clone(&slots);
        thread::spawn(move || slots[0].write(10))
    };
    let _ = slots[0].read();
    worker.join();
}

/// A writer fills `record[i]` and publishes the prefix length with a
/// `Release` store; a reader takes an `Acquire` snapshot of the length
/// and must see every record of that prefix written.
fn release_acquire_prefix() {
    const RECORDS: u64 = 2;
    let records = cells("record", RECORDS as usize);
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let (records, committed) = (Arc::clone(&records), Arc::clone(&committed));
        thread::spawn(move || {
            for i in 0..RECORDS {
                records[i as usize].write(100 + i);
                committed.store(i + 1, Ordering::Release);
            }
        })
    };
    let reader = {
        let (records, committed) = (Arc::clone(&records), Arc::clone(&committed));
        thread::spawn(move || {
            let prefix = committed.load(Ordering::Acquire);
            check(prefix <= RECORDS, "prefix never exceeds written records");
            for i in 0..prefix {
                check(
                    records[i as usize].read() == 100 + i,
                    "the published prefix is written",
                );
            }
        })
    };
    writer.join();
    reader.join();
}

/// The publish of [`release_acquire_prefix`] weakened to a `Relaxed`
/// read-modify-write: no edge covers the record, so the reader's read
/// races the writer's write.
fn relaxed_rmw_publish() {
    let record = Arc::new(SyncCell::labeled(0u64, "record[0]"));
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let (record, committed) = (Arc::clone(&record), Arc::clone(&committed));
        thread::spawn(move || {
            record.write(100);
            committed.fetch_add(1, Ordering::Relaxed);
        })
    };
    let reader = {
        let (record, committed) = (Arc::clone(&record), Arc::clone(&committed));
        thread::spawn(move || {
            if committed.load(Ordering::Acquire) == 1 {
                check(record.read() == 100, "the published record is written");
            }
        })
    };
    writer.join();
    reader.join();
}

/// Two writers "increment" one counter with `load` + `store`: one
/// increment can vanish.
fn load_store_increment() {
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

/// A worker's blind store to `a`, then the main thread's blind store
/// after joining it. The join orders the two stores, but the main
/// thread never read `a`: the explorer flags its store as a lost
/// update, since the check asks what the storing thread observed, not
/// whether happens-before orders the stores.
fn join_ordered_blind_store() {
    let a = Arc::new(SyncAtomicU64::labeled(0, "a"));
    let worker = {
        let a = Arc::clone(&a);
        thread::spawn(move || a.store(1, Ordering::Relaxed))
    };
    worker.join();
    a.store(2, Ordering::Relaxed);
}

/// A writer fills `data` and publishes it with a `Release` store to
/// `flag`; a second thread stores to `flag` with `Relaxed`; a reader
/// reads `data` only when its `Acquire` load sees the relaxed value,
/// which carries no edge to the write of `data`. The two blind stores
/// to `flag` overwrite each other unobserved, and the explorer stops
/// at that first finding: it reports a lost update on `flag`, not a
/// race on `data`.
fn relaxed_overwrite_of_a_release_store() {
    let data = Arc::new(SyncCell::labeled(0u64, "data"));
    let flag = Arc::new(SyncAtomicU64::labeled(0, "flag"));
    let writer = {
        let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
        thread::spawn(move || {
            data.write(1);
            flag.store(1, Ordering::Release);
        })
    };
    let overwriter = {
        let flag = Arc::clone(&flag);
        thread::spawn(move || flag.store(2, Ordering::Relaxed))
    };
    let reader = {
        let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
        thread::spawn(move || {
            if flag.load(Ordering::Acquire) == 2 {
                let _ = data.read();
            }
        })
    };
    writer.join();
    overwriter.join();
    reader.join();
}

/// The finding of an exhaustive exploration of `model`, which must
/// have one.
fn finding_of(model: fn()) -> opd_sched::Finding {
    Explorer::new()
        .explore(model)
        .finding
        .expect("the seeded bug must be caught")
}

// -- explorer behaviour --

/// Two threads doing one independent (distinct-object) write each:
/// naive DFS sees both interleavings, DPOR sees the operations
/// commute and explores just one.
#[test]
fn dpor_prunes_independent_writes() {
    let model = || {
        let a = Arc::new(SyncAtomicU64::labeled(0, "a"));
        let b = Arc::new(SyncAtomicU64::labeled(0, "b"));
        let ta = {
            let a = Arc::clone(&a);
            thread::spawn(move || {
                a.store(1, Ordering::Relaxed);
            })
        };
        let tb = {
            let b = Arc::clone(&b);
            thread::spawn(move || {
                b.store(1, Ordering::Relaxed);
            })
        };
        ta.join();
        tb.join();
    };
    let naive = Explorer::new().naive().explore(model);
    let dpor = Explorer::new().explore(model);
    assert!(naive.is_clean(), "{:?}", naive.finding);
    assert!(dpor.is_clean(), "{:?}", dpor.finding);
    // Naive DFS interleaves the stores with the spawn/join points
    // too; DPOR sees that nothing conflicts and runs one schedule.
    assert_eq!(naive.executions, 5);
    assert_eq!(dpor.executions, 1, "independent stores commute");
}

/// Conflicting accesses cannot be pruned: two unordered RMWs on one
/// atomic must still be explored in both orders.
#[test]
fn dpor_keeps_conflicting_orders() {
    let model = || {
        let a = Arc::new(SyncAtomicU64::labeled(0, "a"));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let a = Arc::clone(&a);
                thread::spawn(move || {
                    a.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        check(a.load(Ordering::Relaxed) == 2, "both increments landed");
    };
    let naive = Explorer::new().naive().explore(model);
    let dpor = Explorer::new().explore(model);
    assert!(naive.is_clean(), "{:?}", naive.finding);
    assert!(dpor.is_clean(), "{:?}", dpor.finding);
    assert_eq!(naive.executions, 5);
    assert_eq!(dpor.executions, 2, "conflicting RMWs do not commute");
    let site = dpor.profile.site("a").expect("profiled");
    assert!(site.concurrent_rw, "the RMWs are concurrent");
}

/// The seed permutes search order but never the explored set or the
/// verdict; replaying a witness reproduces the same finding.
#[test]
fn seeds_agree_and_witnesses_replay() {
    let reports: Vec<_> = [0u64, 1, 42]
        .into_iter()
        .map(|seed| {
            let mut e = Explorer::new();
            e.seed = seed;
            e.explore(load_store_increment)
        })
        .collect();
    for r in &reports {
        let finding = r.finding.as_ref().expect("lost update must be found");
        assert!(
            matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "hits"),
            "unexpected finding: {}",
            finding.kind
        );
        // Replay is deterministic: the recorded schedule reproduces
        // the exact same finding kind and trace.
        let replayed = Explorer::new().replay(load_store_increment, &finding.witness.choices);
        assert_eq!(replayed.executions, 1);
        let again = replayed.finding.expect("replay reproduces the finding");
        assert_eq!(again.witness.trace, finding.witness.trace);
    }
}

/// Preemption bounding restricts the explored set (and finds nothing
/// on a clean model).
#[test]
fn preemption_bound_restricts_search() {
    let unbounded = Explorer::new().explore(disjoint_buckets_with_relaxed_counter);
    let mut bounded = Explorer::new();
    bounded.preemption_bound = Some(0);
    let bounded = bounded.explore(disjoint_buckets_with_relaxed_counter);
    assert!(unbounded.is_clean(), "{:?}", unbounded.finding);
    assert!(bounded.finding.is_none(), "{:?}", bounded.finding);
    assert!(
        bounded.executions <= unbounded.executions,
        "bounding never enlarges the search ({} > {})",
        bounded.executions,
        unbounded.executions
    );
}

/// A deadlock (join cycle via a never-satisfied guard) is reported,
/// not hung. Modeled as a thread joining itself indirectly: t1 waits
/// on a flag only t1 would set after the join.
#[test]
fn check_failure_carries_trace_witness() {
    let report = Explorer::new().explore(|| {
        let flag = Arc::new(SyncAtomicU64::labeled(0, "flag"));
        let t = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                flag.store(1, Ordering::Release);
            })
        };
        t.join();
        check(flag.load(Ordering::Acquire) == 2, "flag is two");
    });
    let finding = report.finding.expect("check must fail");
    assert!(
        matches!(&finding.kind, FindingKind::CheckFailed { message } if message == "flag is two")
    );
    let rendered = finding.to_string();
    assert!(
        rendered.contains("store(1, Release) flag"),
        "witness trace shows the store: {rendered}"
    );
    assert!(rendered.contains("check failed"), "{rendered}");
}

// -- clean models --

#[test]
fn relaxed_counter_is_concurrent_and_disjoint_slots_are_not() {
    let report = Explorer::new().explore(disjoint_buckets_with_relaxed_counter);
    assert!(report.is_clean(), "{:?}", report.finding);
    for label in ["slots[0]", "slots[1]", "slots[2]", "progress"] {
        assert!(
            report.profile.site(label).is_some(),
            "object `{label}` unexplored"
        );
    }
    // The Relaxed counter is genuinely concurrent, which is legal for
    // an atomic; disjoint slots never race and never interleave.
    assert!(report.profile.site("progress").unwrap().concurrent_rw);
    assert!(!report.profile.site("slots[0]").unwrap().concurrent_rw);
}

#[test]
fn reads_from_reversal_explores_every_published_prefix() {
    let report = Explorer::new().explore(release_acquire_prefix);
    assert!(report.is_clean(), "{:?}", report.finding);
    // One schedule per observable prefix (0, 1, 2 records): the
    // reads-from edge between the Release publish and the Acquire
    // snapshot must not suppress its own reversal.
    assert_eq!(report.executions, 3);
    for label in ["record[0]", "record[1]", "committed"] {
        assert!(
            report.profile.site(label).is_some(),
            "object `{label}` unexplored"
        );
    }
}

// -- seeded bugs: the detector is not vacuous --

#[test]
fn lost_update_is_caught() {
    let finding = finding_of(load_store_increment);
    assert!(
        matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "hits"),
        "wrong finding: {}",
        finding.kind
    );
    assert!(!finding.witness.choices.is_empty());
}

#[test]
fn join_ordered_blind_store_is_a_lost_update() {
    let finding = finding_of(join_ordered_blind_store);
    assert!(
        matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "a"),
        "wrong finding: {}",
        finding.kind
    );
}

#[test]
fn relaxed_overwrite_of_a_release_store_is_a_lost_update_on_the_flag() {
    let finding = finding_of(relaxed_overwrite_of_a_release_store);
    assert!(
        matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "flag"),
        "wrong finding: {}",
        finding.kind
    );
}

#[test]
fn overlapping_writes_race() {
    let finding = finding_of(overlapping_writes);
    assert!(
        matches!(&finding.kind, FindingKind::DataRace { object, .. } if object == "slots[1]"),
        "wrong finding: {}",
        finding.kind
    );
}

#[test]
fn dropped_join_races() {
    let finding = finding_of(dropped_join);
    assert!(
        matches!(&finding.kind, FindingKind::DataRace { object, .. } if object == "slots[0]"),
        "wrong finding: {}",
        finding.kind
    );
}

#[test]
fn relaxed_rmw_publish_races() {
    let report = Explorer::new().explore(relaxed_rmw_publish);
    let finding = report.finding.expect("the seeded bug must be caught");
    assert!(
        matches!(&finding.kind, FindingKind::DataRace { object, .. } if object == "record[0]"),
        "wrong finding: {}",
        finding.kind
    );
    // The profile shows the R202 shape: Relaxed RMW writes paired
    // with Acquire reads on the publication flag.
    let site = report.profile.site("committed").expect("profiled");
    assert!(site.has_relaxed_rmw_write());
    assert!(site.has_acquire_read());
}

/// Outside an exploration the sync layer is plain std behavior.
#[test]
fn plain_mode_falls_through() {
    let a = SyncAtomicU64::new(5);
    assert_eq!(a.fetch_add(2, Ordering::SeqCst), 5);
    assert_eq!(a.load(Ordering::SeqCst), 7);
    a.store(1, Ordering::SeqCst);
    assert_eq!(a.load(Ordering::SeqCst), 1);
    let c = SyncCell::new(9u64);
    assert_eq!(c.read(), 9);
    c.write(3);
    assert_eq!(c.read(), 3);
    assert!(opd_sched::current_thread_index().is_none());
}
