//! Deterministic schedule exploration and vector-clock race auditing.
//!
//! The repository's one lock-free shared-state protocol, the sharded
//! metrics registry, was once verified by "it passed under one OS
//! schedule". This crate makes concurrency correctness a checked,
//! repeatable analysis:
//!
//! - **Instrumented sync layer** ([`SyncAtomicU64`], [`SyncCell`],
//!   [`thread`], [`check`]): model code written against these runs as
//!   plain `std::sync::atomic` on ordinary threads, but under an
//!   active exploration every operation becomes a schedule point
//!   serialized by the controller.
//! - **Schedule explorer** ([`Explorer`]): stateless depth-first
//!   search over thread interleavings with dynamic partial-order
//!   reduction (Flanagan–Godefroid backtrack sets over a vector-clock
//!   happens-before relation), an optional preemption bound, seeded
//!   search order, and replayable [`ScheduleWitness`]es.
//! - **Happens-before auditor**: at every shared access, vector
//!   clocks decide whether the access is ordered with every other
//!   thread's last conflicting access. Unordered accesses to plain
//!   cells are data races; blind stores over unobserved foreign
//!   writes are lost updates; `check` failures and deadlocks complete
//!   the finding taxonomy ([`FindingKind`]).
//!
//! Exactness: within the modeled memory semantics (acquire/release
//! edges, spawn/join edges, `SeqCst` conservatively treated as
//! `AcqRel`, release sequences ignored), the DPOR search visits at
//! least one representative of every Mazurkiewicz trace, so a clean
//! exhaustive run means *no* reachable schedule exhibits a race, lost
//! update, failed check, or deadlock in the model. Both
//! simplifications only drop happens-before edges, which can produce
//! false positives, never false negatives.
//!
//! This crate is a pure explorer and holds no models: the metrics
//! registry's models live in `opd-obs` behind its `sched` feature,
//! where they drive the real registry code, and the explorer's own
//! tests carry small fixtures of their own.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod explore;
mod profile;
mod runtime;
mod sync;
mod vc;

pub use explore::{ExplorationReport, Explorer, Finding, ScheduleWitness};
pub use profile::{SiteProfile, SyncProfile};
pub use runtime::{current_thread_index, AccessKind, Event, EventDesc, FindingKind, MemOrder};
pub use sync::{check, thread, SyncAtomicU64, SyncCell};
pub use vc::VectorClock;
