//! The one parallel work loop: items spread over scoped workers by a
//! longest-processing-time-first plan. Every sweep, workload
//! preparation and the streaming service's vshards run on it.

/// The worker count a loop over `items` work items runs on.
#[must_use]
pub fn worker_count(threads: usize, items: usize) -> usize {
    threads.max(1).min(items.max(1))
}

/// Runs `work` on each item with per-worker state made by `init` and
/// reused across the items of one worker, and hands each output, with
/// its worker's index, to `collect` on the calling thread.
///
/// On one worker the items run in order on the calling thread,
/// unpriced, and each output is collected as it is made. On more,
/// `price` costs the items once, [`lpt_plan`] spreads them over scoped
/// workers (no locks on the hot path), and outputs are collected
/// worker by worker after the join. A worker stops at its first error;
/// the others finish their buckets, and the loop then returns the
/// error of the first worker, in plan order, that failed.
///
/// # Errors
///
/// Returns the first error `work` returned, as above.
///
/// # Panics
///
/// Panics if a worker panicked.
pub fn run_lpt<I: Sync, S, T: Send, E: Send>(
    items: &[I],
    threads: usize,
    init: impl Fn() -> S + Sync,
    price: impl FnOnce(&[I]) -> Vec<u64>,
    work: impl Fn(&I, &mut S) -> Result<T, E> + Sync,
    mut collect: impl FnMut(usize, T),
) -> Result<(), E> {
    let threads = worker_count(threads, items.len());
    if threads <= 1 {
        let mut state = init();
        for item in items {
            collect(0, work(item, &mut state)?);
        }
        return Ok(());
    }
    let plan = lpt_plan(&price(items), threads);
    let (init, work) = (&init, &work);
    let filled: Vec<Result<Vec<T>, E>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    let mut state = init();
                    bucket
                        .into_iter()
                        .map(|i| work(&items[i], &mut state))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("work loop worker panicked"))
            .collect()
    });
    for (t, outputs) in filled.into_iter().enumerate() {
        for output in outputs? {
            collect(t, output);
        }
    }
    Ok(())
}

/// Longest-processing-time-first planning: places each item (heaviest
/// first, index-stable among ties) onto the least-loaded bucket.
/// Returns the item indices per bucket; [`run_lpt`] schedules from
/// this plan, and the sweep's scheduling tests measure its load
/// imbalance.
///
/// # Panics
///
/// Panics if `buckets` is zero.
#[must_use]
pub fn lpt_plan(costs: &[u64], buckets: usize) -> Vec<Vec<usize>> {
    assert!(buckets > 0, "at least one bucket");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    let mut loads = vec![0u64; buckets];
    for i in order {
        let t = (0..buckets)
            .min_by_key(|&t| loads[t])
            .expect("at least one bucket");
        loads[t] = loads[t].saturating_add(costs[i]);
        plan[t].push(i);
    }
    plan
}

/// A sensible default worker count: the machine's available
/// parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_plan_covers_every_item_once() {
        let costs = [5u64, 3, 8, 1, 1, 6];
        let plan = lpt_plan(&costs, 3);
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        // The heaviest item goes to an otherwise-light bucket: no
        // bucket holds both of the two heaviest items.
        for bucket in &plan {
            assert!(!(bucket.contains(&2) && bucket.contains(&5)));
        }
    }
}
