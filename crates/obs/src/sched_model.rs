//! Schedule-exploration models that drive the **real**
//! [`MetricsRegistry`] code — not an abstraction of it — under
//! `opd-sched`'s explorer. Only compiled with the `sched` feature.
//!
//! Two models cover the two halves of the registry's ordering
//! contract (see the module docs of [`crate::MetricsRegistry`]'s
//! source):
//!
//! - [`writers_then_snapshot`]: quiesced exactness — after joining
//!   every writer, a snapshot is exact, under *every* interleaving of
//!   the writers.
//! - [`live_snapshot_monotone`]: live consistency — snapshots taken
//!   while a writer is running are monotone between themselves and
//!   never exceed the written total, again under every interleaving.
//!
//! Both use the registry's tagged entry points to pin updates to
//! known shards, which keeps the state space small and the expected
//! object set exact; the untagged paths go through the same code with
//! a tag that is itself deterministic under the explorer.
//!
//! [`metrics_lost_update`] is the seeded-bug mutant that shows the
//! auditor is not vacuous on this protocol: a shard cell incremented
//! the way the registry must not do it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use opd_sched::{check, thread, SyncAtomicU64};

use crate::MetricsRegistry;

/// Quiesced-snapshot exactness: two writers each add to their own
/// shard of one counter and record one histogram observation; after
/// both joins a snapshot must be exact. Explored exhaustively this
/// proves the join edges (not the `Relaxed` cells) are what make the
/// sweep paths' snapshots correct.
pub fn writers_then_snapshot() {
    let mut r = MetricsRegistry::new(2);
    let c = r.counter("ops");
    let h = r.histogram("lat");
    let r = Arc::new(r);
    let workers: Vec<thread::JoinHandle> = (0..2u64)
        .map(|i| {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                r.add_tagged(c, i, 1);
                r.add_tagged(c, i, 2);
                r.record_tagged(h, i, 3);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    let snap = r.snapshot();
    check(
        snap.counter("ops") == Some(6),
        "quiesced counter snapshot is exact",
    );
    check(
        snap.histogram("lat").map(super::HistogramSnapshot::count) == Some(2),
        "quiesced histogram snapshot is exact",
    );
}

/// Live-snapshot monotonicity: one writer increments both shards of a
/// counter while the registering thread takes two snapshots. Every
/// interleaving must satisfy `snap1 <= snap2 <= total`, and the
/// quiesced snapshot after the join must be exact. A registry that
/// ever lost an update or double-counted would fail here with a
/// schedule witness.
pub fn live_snapshot_monotone() {
    let mut r = MetricsRegistry::new(2);
    let c = r.counter("ops");
    let r = Arc::new(r);
    let writer = {
        let r = Arc::clone(&r);
        thread::spawn(move || {
            r.add_tagged(c, 0, 1);
            r.add_tagged(c, 1, 1);
            r.add_tagged(c, 0, 1);
        })
    };
    let s1 = r.snapshot().counter("ops").unwrap_or(0);
    let s2 = r.snapshot().counter("ops").unwrap_or(0);
    check(s1 <= s2, "concurrent snapshots are monotone");
    check(s2 <= 3, "a snapshot never exceeds what was written");
    writer.join();
    check(
        r.snapshot().counter("ops") == Some(3),
        "quiesced total is exact",
    );
}

/// Seeded bug: a counter cell updated with `load` + `store` instead
/// of the registry's `fetch_add`. Two writers each "increment" once;
/// one increment can vanish. The auditor reports a
/// [`opd_sched::FindingKind::LostUpdate`] on `hits`, the exact failure
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

/// The shard-cell labels [`writers_then_snapshot`] must touch — the
/// ground truth for the `OPD-R201` (unexplored atomic) lint. The
/// histogram contributes only the cells the model's single bucket
/// (value 3 -> bucket 2) lands in.
#[must_use]
pub fn expected_objects() -> Vec<String> {
    let mut v = vec!["ops[0]".to_owned(), "ops[1]".to_owned()];
    let bucket = 2;
    for shard in 0..2usize {
        v.push(format!(
            "lat[{}]",
            shard * crate::HISTOGRAM_BUCKETS + bucket
        ));
    }
    v
}
