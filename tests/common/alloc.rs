//! A counting global allocator for the allocation-discipline suites.
//! Include it with `#[path = "common/alloc.rs"] mod alloc;` — it
//! installs itself as the test binary's `#[global_allocator]`, so it
//! stays out of `common/mod.rs`, which every suite shares.
//!
//! Every allocation is counted twice: per thread and per process. The
//! calling thread's largest single request is tracked too
//! ([`thread_max_allocation_during`]).
//! Code that runs on the calling thread is measured with
//! [`thread_allocations_during`], which neighbouring test threads
//! cannot perturb, so such tests run under the default parallel test
//! runner. Code that spawns threads is measured with
//! [`process_allocations_during`], which takes the guard from
//! [`serialize`] so no other counting test of the binary runs meanwhile.

#![allow(dead_code)] // each test binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    // Const-initialized and free of destructors, so reading it from
    // inside the allocator never allocates or re-enters.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_MAX_BYTES: Cell<usize> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests that count process-wide.
static PROCESS_COUNTING: Mutex<()> = Mutex::new(());

struct CountingAllocator;

fn count(bytes: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Relaxed);
    // `try_with` fails only while the thread's locals are torn down.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_MAX_BYTES.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; counting neither allocates nor
// touches memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `run` and returns its result with the number of allocations
/// the calling thread made meanwhile.
pub fn thread_allocations_during<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let result = run();
    (result, THREAD_ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `run` and returns its result with the size in bytes of the
/// largest single allocation the calling thread requested meanwhile.
pub fn thread_max_allocation_during<R>(run: impl FnOnce() -> R) -> (R, usize) {
    let outer = THREAD_MAX_BYTES.with(|m| m.replace(0));
    let result = run();
    let max = THREAD_MAX_BYTES.with(|m| m.replace(outer.max(m.get())));
    (result, max)
}

/// Locks out every other process-counting test of this binary for as
/// long as the guard lives.
pub fn serialize() -> MutexGuard<'static, ()> {
    // The mutex guards no data, so a guard poisoned by a failed test
    // is as good as a fresh one.
    PROCESS_COUNTING
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `run` and returns its result with the number of allocations
/// every thread of the process made meanwhile, including threads
/// `run` spawns. The guard proves the caller holds [`serialize`].
pub fn process_allocations_during<R>(
    _serialized: &MutexGuard<'static, ()>,
    run: impl FnOnce() -> R,
) -> (R, u64) {
    let before = PROCESS_ALLOCATIONS.load(Relaxed);
    let result = run();
    (result, PROCESS_ALLOCATIONS.load(Relaxed) - before)
}
