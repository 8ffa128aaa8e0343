//! The instrumented execution runtime: serializes model threads so a
//! controller chooses every interleaving, records the event trace,
//! maintains vector clocks, and runs the happens-before auditor at
//! every shared access.
//!
//! One [`Execution`] is one run of a model closure under one schedule.
//! Model threads are real OS threads, but only the thread holding the
//! controller's grant ever executes: every shared operation first
//! posts a pending descriptor and blocks until granted, so the code
//! between two shared operations is an atomic block by construction.
//! The explorer (see [`crate::explore`]) is the controller: it waits
//! until every live thread has posted, picks one, and grants a single
//! step.

use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::vc::VectorClock;

/// How a shared object was touched, as recorded in event traces and
/// site profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
    /// An atomic read-modify-write (`fetch_add`).
    Rmw,
    /// A plain (non-atomic) cell read.
    CellRead,
    /// A plain (non-atomic) cell write.
    CellWrite,
}

impl AccessKind {
    /// Whether the access writes the object.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessKind::Store | AccessKind::Rmw | AccessKind::CellWrite
        )
    }

    /// Whether the access reads the object.
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(
            self,
            AccessKind::Load | AccessKind::Rmw | AccessKind::CellRead
        )
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Rmw => "fetch_add",
            AccessKind::CellRead => "read",
            AccessKind::CellWrite => "write",
        })
    }
}

/// The memory-ordering lattice the model distinguishes (`SeqCst` is
/// treated as `AcqRel` for happens-before purposes, which is sound:
/// it only drops the total-order constraint, never an edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemOrder {
    /// No synchronization: the operation creates no happens-before
    /// edge.
    Relaxed,
    /// Load side of a release/acquire pair.
    Acquire,
    /// Store side of a release/acquire pair.
    Release,
    /// Both sides (read-modify-write).
    AcqRel,
    /// Sequentially consistent (modeled as `AcqRel`).
    SeqCst,
    /// A plain, non-atomic access (cells).
    Plain,
}

impl MemOrder {
    pub(crate) fn from_std(o: Ordering) -> Self {
        match o {
            Ordering::Relaxed => MemOrder::Relaxed,
            Ordering::Acquire => MemOrder::Acquire,
            Ordering::Release => MemOrder::Release,
            Ordering::AcqRel => MemOrder::AcqRel,
            _ => MemOrder::SeqCst,
        }
    }

    fn acquires(self) -> bool {
        matches!(
            self,
            MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }

    fn releases(self) -> bool {
        matches!(
            self,
            MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemOrder::Relaxed => "Relaxed",
            MemOrder::Acquire => "Acquire",
            MemOrder::Release => "Release",
            MemOrder::AcqRel => "AcqRel",
            MemOrder::SeqCst => "SeqCst",
            MemOrder::Plain => "plain",
        })
    }
}

/// One step of an execution's event trace.
#[derive(Debug, Clone)]
pub struct Event {
    /// The model thread that took the step.
    pub thread: usize,
    /// What the step did.
    pub desc: EventDesc,
    pub(crate) clock: VectorClock,
    /// For acquiring accesses: the thread's clock *before* joining the
    /// object's release clock. The DPOR race check must use this —
    /// the direct reads-from edge of the very pair under test would
    /// otherwise make the pair look ordered and suppress the reversal
    /// that explores the other read value. `None` means no acquire
    /// join happened, i.e. the base clock equals `clock`.
    pub(crate) pre_acquire: Option<VectorClock>,
}

/// The payload of one trace event.
#[derive(Debug, Clone)]
pub enum EventDesc {
    /// A shared-memory access.
    Access {
        /// Object index within this execution.
        obj: usize,
        /// The object's label.
        label: String,
        /// Access kind.
        kind: AccessKind,
        /// Memory ordering (`Plain` for cells).
        order: MemOrder,
        /// The value written (stores and RMW operands).
        value: Option<u64>,
        /// The value read or returned.
        result: Option<u64>,
    },
    /// A thread was spawned.
    Spawn {
        /// The new thread's index.
        child: usize,
    },
    /// A thread was joined.
    Join {
        /// The joined thread's index.
        child: usize,
    },
    /// A model-level invariant check failed.
    CheckFailed {
        /// The check's message.
        message: String,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} ", self.thread)?;
        match &self.desc {
            EventDesc::Access {
                label,
                kind,
                order,
                value,
                result,
                ..
            } => {
                write!(f, "{kind}")?;
                if let Some(v) = value {
                    write!(f, "({v}, {order})")?;
                } else if *order != MemOrder::Plain {
                    write!(f, "({order})")?;
                }
                write!(f, " {label}")?;
                if let Some(r) = result {
                    write!(f, " -> {r}")?;
                }
                Ok(())
            }
            EventDesc::Spawn { child } => write!(f, "spawn t{child}"),
            EventDesc::Join { child } => write!(f, "join t{child}"),
            EventDesc::CheckFailed { message } => write!(f, "check failed: {message}"),
        }
    }
}

/// What the auditor or the runtime found wrong with an execution.
#[derive(Debug, Clone)]
pub enum FindingKind {
    /// Two unordered accesses to a plain cell, at least one a write.
    DataRace {
        /// The raced object's label.
        object: String,
        /// Event index of the earlier access.
        first: usize,
        /// Event index of the later access.
        second: usize,
    },
    /// A store overwrote another thread's write that the storing
    /// thread never observed — classic lost update. The check asks
    /// what the storing thread read, not what happens-before orders: a
    /// blind store over an unobserved foreign write is flagged even
    /// when a join orders the two writes.
    LostUpdate {
        /// The clobbered object's label.
        object: String,
        /// Event index of the overwritten write.
        lost: usize,
        /// Event index of the overwriting store.
        second: usize,
    },
    /// A `sched::check` invariant failed.
    CheckFailed {
        /// The check's message.
        message: String,
    },
    /// A model thread panicked.
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Live threads exist but none is enabled.
    Deadlock,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::DataRace {
                object,
                first,
                second,
            } => write!(f, "data race on `{object}` (events #{first} and #{second})"),
            FindingKind::LostUpdate {
                object,
                lost,
                second,
            } => write!(
                f,
                "lost update on `{object}` (write #{lost} overwritten unobserved by #{second})"
            ),
            FindingKind::CheckFailed { message } => write!(f, "check failed: {message}"),
            FindingKind::Panic { message } => write!(f, "model thread panicked: {message}"),
            FindingKind::Deadlock => f.write_str("deadlock: live threads, none enabled"),
        }
    }
}

/// Per-object state the auditor keeps during one execution.
#[derive(Debug)]
pub(crate) struct ObjAudit {
    pub(crate) label: String,
    pub(crate) atomic: bool,
    /// Release clock: joined into acquiring readers.
    sync: VectorClock,
    /// Per-thread stamp (own clock component) + event of last read.
    last_reads: Vec<Option<(u64, usize)>>,
    /// Per-thread stamp + event of last write.
    last_writes: Vec<Option<(u64, usize)>>,
    /// Monotone count of writes; `last_write` holds the newest.
    write_seq: u64,
    last_write: Option<(usize, usize, u64)>, // (thread, event, seq)
    /// Per-thread: seq of the newest write this thread has observed.
    observed: Vec<u64>,
    // -- profile accumulation --
    pub(crate) reads: BTreeSet<(AccessKind, MemOrder)>,
    pub(crate) writes: BTreeSet<(AccessKind, MemOrder)>,
    pub(crate) reader_threads: BTreeSet<usize>,
    pub(crate) writer_threads: BTreeSet<usize>,
    pub(crate) concurrent_rw: bool,
    pub(crate) accesses: u64,
}

impl ObjAudit {
    fn new(label: String, atomic: bool) -> Self {
        ObjAudit {
            label,
            atomic,
            sync: VectorClock::new(),
            last_reads: Vec::new(),
            last_writes: Vec::new(),
            write_seq: 0,
            last_write: None,
            observed: Vec::new(),
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
            reader_threads: BTreeSet::new(),
            writer_threads: BTreeSet::new(),
            concurrent_rw: false,
            accesses: 0,
        }
    }

    fn slot<T: Default + Clone>(v: &mut Vec<T>, t: usize) -> &mut T {
        if v.len() <= t {
            v.resize(t + 1, T::default());
        }
        &mut v[t]
    }
}

/// One registered-object handle living inside a [`crate::SyncAtomicU64`]
/// or [`crate::SyncCell`]: a lazily assigned per-execution id plus an
/// optional label for witnesses.
#[derive(Debug, Default)]
pub(crate) struct ObjSlot {
    /// `generation << 20 | (id + 1)`; zero means unregistered.
    packed: AtomicU64,
    pub(crate) label: OnceLock<String>,
}

impl ObjSlot {
    pub(crate) fn new() -> Self {
        ObjSlot::default()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// Granted (or newly spawned) and executing invisible local code.
    Running,
    /// Blocked at a schedule point, descriptor posted.
    Pending(PendingDesc),
    /// Closure returned (or unwound on abort).
    Finished,
    /// Closure panicked for real.
    Panicked,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingDesc {
    /// `Some(t)` when the pending operation is `join(t)`, which is
    /// only enabled once `t` is terminal.
    join_target: Option<usize>,
}

/// The effect an atomic schedule point applies once granted.
pub(crate) enum AtomicEffect<'a> {
    Load(&'a AtomicU64),
    Store(&'a AtomicU64, u64),
    FetchAdd(&'a AtomicU64, u64),
}

/// A schedule-point request from a model thread.
pub(crate) enum OpRequest<'a> {
    Atomic {
        slot: &'a ObjSlot,
        effect: AtomicEffect<'a>,
        order: Ordering,
    },
    Cell {
        slot: &'a ObjSlot,
        write: bool,
        shown: Option<u64>,
    },
    Spawn,
    Join {
        target: usize,
    },
}

struct ExecState {
    generation: u64,
    threads: Vec<Phase>,
    grant: Option<usize>,
    aborting: bool,
    clocks: Vec<VectorClock>,
    final_clocks: Vec<Option<VectorClock>>,
    events: Vec<Event>,
    objects: Vec<ObjAudit>,
    findings: Vec<FindingKind>,
    next_anon: u64,
}

/// One model execution: the shared handshake + trace state.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
}

/// The extracted result of a finished execution.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) events: Vec<Event>,
    pub(crate) findings: Vec<FindingKind>,
    pub(crate) objects: Vec<ObjAudit>,
}

/// Sentinel panic payload used to unwind model threads on abort
/// without tripping the panic hook.
struct Abort;

static GENERATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The model-thread index of the calling thread, when it is running
/// inside an active schedule exploration. `None` on ordinary threads
/// — callers use this to substitute a deterministic identity (e.g. a
/// metrics shard tag) under the explorer.
#[must_use]
pub fn current_thread_index() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(_, me)| *me))
}

pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Execution>, usize) -> R) -> Option<R> {
    let ctx = CURRENT.with(|c| c.borrow().clone());
    ctx.map(|(exec, me)| f(&exec, me))
}

impl Execution {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                generation: GENERATION.fetch_add(1, Ordering::Relaxed),
                threads: vec![Phase::Running],
                grant: None,
                aborting: false,
                clocks: vec![VectorClock::new()],
                final_clocks: vec![None],
                events: Vec::new(),
                objects: Vec::new(),
                findings: Vec::new(),
                next_anon: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` as model thread `me`, catching panics and publishing
    /// the terminal phase.
    pub(crate) fn run_thread(self: &Arc<Self>, me: usize, f: impl FnOnce()) {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(self), me)));
        let result = catch_unwind(AssertUnwindSafe(f));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let mut st = self.lock();
        st.final_clocks[me] = Some(st.clocks[me].clone());
        match result {
            Ok(()) => st.threads[me] = Phase::Finished,
            Err(payload) if payload.is::<Abort>() => st.threads[me] = Phase::Finished,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                st.findings.push(FindingKind::Panic { message });
                st.threads[me] = Phase::Panicked;
                st.aborting = true;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until every live thread is pending (returns `false`) or
    /// all threads are terminal (returns `true`).
    pub(crate) fn wait_quiescent(&self) -> bool {
        let st = self.lock();
        let st = self
            .cv
            .wait_while(st, |st| {
                st.threads.contains(&Phase::Running)
                    || (st.aborting && st.threads.iter().any(|p| matches!(p, Phase::Pending(_))))
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.threads
            .iter()
            .all(|p| matches!(p, Phase::Finished | Phase::Panicked))
    }

    /// Threads that have posted an operation which can execute now.
    pub(crate) fn enabled(&self) -> Vec<usize> {
        let st = self.lock();
        st.threads
            .iter()
            .enumerate()
            .filter_map(|(t, p)| match p {
                Phase::Pending(d) => match d.join_target {
                    Some(target)
                        if !matches!(st.threads[target], Phase::Finished | Phase::Panicked) =>
                    {
                        None
                    }
                    _ => Some(t),
                },
                _ => None,
            })
            .collect()
    }

    /// Grants thread `t` one step. The phase flips to `Running` here,
    /// under the controller's lock — not when the thread wakes — so
    /// the controller's next `wait_quiescent` cannot observe the
    /// pre-wake `Pending` state and race ahead of the granted step.
    pub(crate) fn grant(&self, t: usize) {
        let mut st = self.lock();
        debug_assert!(matches!(st.threads[t], Phase::Pending(_)));
        st.grant = Some(t);
        st.threads[t] = Phase::Running;
        drop(st);
        self.cv.notify_all();
    }

    /// Records a controller-side finding (deadlock) and aborts.
    pub(crate) fn fail_deadlock(&self) {
        let mut st = self.lock();
        st.findings.push(FindingKind::Deadlock);
        st.aborting = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Extracts the trace once every thread is terminal.
    pub(crate) fn take_outcome(&self) -> Outcome {
        let mut st = self.lock();
        Outcome {
            events: std::mem::take(&mut st.events),
            findings: std::mem::take(&mut st.findings),
            objects: std::mem::take(&mut st.objects),
        }
    }

    /// The number of events recorded so far (the step counter).
    pub(crate) fn steps(&self) -> usize {
        self.lock().events.len()
    }

    /// A model thread executes one schedule point: post, wait for the
    /// grant, apply the operation's effect, record the event, audit.
    pub(crate) fn scheduled_op(self: &Arc<Self>, me: usize, op: OpRequest<'_>) -> u64 {
        let desc = PendingDesc {
            join_target: match op {
                OpRequest::Join { target } => Some(target),
                _ => None,
            },
        };
        let mut st = self.lock();
        st.threads[me] = Phase::Pending(desc);
        self.cv.notify_all();
        let mut st = self
            .cv
            .wait_while(st, |st| !st.aborting && st.grant != Some(me))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.aborting {
            drop(st);
            resume_unwind(Box::new(Abort));
        }
        st.grant = None;
        st.threads[me] = Phase::Running;
        let result = st.apply(me, op);
        let abort_self = st.aborting;
        drop(st);
        self.cv.notify_all();
        if abort_self {
            resume_unwind(Box::new(Abort));
        }
        result
    }

    /// Records a failed model invariant and aborts the execution; the
    /// calling thread unwinds.
    pub(crate) fn fail_check(self: &Arc<Self>, me: usize, message: String) -> ! {
        let mut st = self.lock();
        let clock = st.clocks[me].clone();
        st.events.push(Event {
            thread: me,
            desc: EventDesc::CheckFailed {
                message: message.clone(),
            },
            clock,
            pre_acquire: None,
        });
        st.findings.push(FindingKind::CheckFailed { message });
        st.aborting = true;
        drop(st);
        self.cv.notify_all();
        resume_unwind(Box::new(Abort));
    }
}

impl ExecState {
    fn register(&mut self, slot: &ObjSlot, atomic: bool) -> usize {
        let packed = slot.packed.load(Ordering::Relaxed);
        if packed >> 20 == self.generation {
            return (packed & 0xF_FFFF) as usize - 1;
        }
        let id = self.objects.len();
        assert!(id < 0xF_FFFF - 1, "too many model objects");
        slot.packed
            .store((self.generation << 20) | (id as u64 + 1), Ordering::Relaxed);
        let label = slot.label.get().cloned().unwrap_or_else(|| {
            self.next_anon += 1;
            format!("obj{}", self.next_anon - 1)
        });
        self.objects.push(ObjAudit::new(label, atomic));
        id
    }

    fn apply(&mut self, me: usize, op: OpRequest<'_>) -> u64 {
        let event_idx = self.events.len();
        let mut clock = std::mem::take(&mut self.clocks[me]);
        clock.tick(me);
        let mut pre_acquire = None;
        let (desc, result) = match op {
            OpRequest::Atomic {
                slot,
                effect,
                order,
            } => {
                let obj = self.register(slot, true);
                let mo = MemOrder::from_std(order);
                if mo.acquires()
                    && matches!(effect, AtomicEffect::Load(_) | AtomicEffect::FetchAdd(..))
                {
                    pre_acquire = Some(clock.clone());
                    clock.join(&self.objects[obj].sync);
                }
                let (kind, value, result) = match effect {
                    AtomicEffect::Load(a) => (AccessKind::Load, None, a.load(Ordering::Relaxed)),
                    AtomicEffect::Store(a, v) => {
                        a.store(v, Ordering::Relaxed);
                        (AccessKind::Store, Some(v), v)
                    }
                    AtomicEffect::FetchAdd(a, v) => {
                        (AccessKind::Rmw, Some(v), a.fetch_add(v, Ordering::Relaxed))
                    }
                };
                if mo.releases() && kind.is_write() {
                    if kind == AccessKind::Rmw {
                        let c = clock.clone();
                        self.objects[obj].sync.join(&c);
                    } else {
                        self.objects[obj].sync = clock.clone();
                    }
                }
                self.audit(obj, me, kind, mo, &clock, event_idx);
                let label = self.objects[obj].label.clone();
                (
                    EventDesc::Access {
                        obj,
                        label,
                        kind,
                        order: mo,
                        value,
                        result: Some(result),
                    },
                    result,
                )
            }
            OpRequest::Cell { slot, write, shown } => {
                let obj = self.register(slot, false);
                let kind = if write {
                    AccessKind::CellWrite
                } else {
                    AccessKind::CellRead
                };
                self.audit(obj, me, kind, MemOrder::Plain, &clock, event_idx);
                let label = self.objects[obj].label.clone();
                (
                    EventDesc::Access {
                        obj,
                        label,
                        kind,
                        order: MemOrder::Plain,
                        value: if write { shown } else { None },
                        result: if write { None } else { shown },
                    },
                    0,
                )
            }
            OpRequest::Spawn => {
                let child = self.threads.len();
                self.threads.push(Phase::Running);
                self.clocks.push(clock.clone());
                self.final_clocks.push(None);
                (EventDesc::Spawn { child }, child as u64)
            }
            OpRequest::Join { target } => {
                let final_clock = self.final_clocks[target]
                    .clone()
                    .expect("join granted only once the target is terminal");
                clock.join(&final_clock);
                (EventDesc::Join { child: target }, 0)
            }
        };
        self.events.push(Event {
            thread: me,
            desc,
            clock: clock.clone(),
            pre_acquire,
        });
        self.clocks[me] = clock;
        result
    }

    /// The happens-before auditor: race, torn-concurrency, and
    /// lost-update detection at one access.
    fn audit(
        &mut self,
        obj: usize,
        me: usize,
        kind: AccessKind,
        order: MemOrder,
        clock: &VectorClock,
        event_idx: usize,
    ) {
        let o = &mut self.objects[obj];
        o.accesses += 1;
        if kind.is_read() {
            o.reads.insert((kind, order));
            o.reader_threads.insert(me);
        }
        if kind.is_write() {
            o.writes.insert((kind, order));
            o.writer_threads.insert(me);
        }
        // Unordered-conflict scan: any other thread's last write (or,
        // when we write, last read) not covered by our clock is
        // concurrent with this access.
        let mut conflict: Option<usize> = None;
        for (u, lw) in o.last_writes.iter().enumerate() {
            if u == me {
                continue;
            }
            if let Some((stamp, ev)) = lw {
                if clock.get(u) < *stamp {
                    conflict = Some(*ev);
                }
            }
        }
        if kind.is_write() {
            for (u, lr) in o.last_reads.iter().enumerate() {
                if u == me {
                    continue;
                }
                if let Some((stamp, ev)) = lr {
                    if clock.get(u) < *stamp {
                        conflict = Some(*ev);
                    }
                }
            }
        }
        if let Some(first) = conflict {
            if o.atomic {
                o.concurrent_rw = true;
            } else {
                let object = o.label.clone();
                self.findings.push(FindingKind::DataRace {
                    object,
                    first,
                    second: event_idx,
                });
                self.aborting = true;
                return;
            }
        }
        let o = &mut self.objects[obj];
        // Lost update: a blind store clobbering a write this thread
        // never observed.
        if o.atomic && kind == AccessKind::Store {
            if let Some((wt, wev, wseq)) = o.last_write {
                if wt != me && *ObjAudit::slot(&mut o.observed, me) < wseq {
                    let object = o.label.clone();
                    self.findings.push(FindingKind::LostUpdate {
                        object,
                        lost: wev,
                        second: event_idx,
                    });
                    self.aborting = true;
                    return;
                }
            }
        }
        if kind.is_read() {
            *ObjAudit::slot(&mut o.last_reads, me) = Some((clock.get(me), event_idx));
            let seen = o.last_write.map_or(0, |(_, _, seq)| seq);
            *ObjAudit::slot(&mut o.observed, me) = seen;
        }
        if kind.is_write() {
            o.write_seq += 1;
            o.last_write = Some((me, event_idx, o.write_seq));
            *ObjAudit::slot(&mut o.observed, me) = o.write_seq;
            *ObjAudit::slot(&mut o.last_writes, me) = Some((clock.get(me), event_idx));
        }
    }
}

impl Event {
    /// Whether two events conflict for partial-order reduction: same
    /// object, different threads, at least one write.
    #[must_use]
    pub(crate) fn conflicts(&self, other: &Event) -> bool {
        if self.thread == other.thread {
            return false;
        }
        match (&self.desc, &other.desc) {
            (
                EventDesc::Access {
                    obj: a, kind: ka, ..
                },
                EventDesc::Access {
                    obj: b, kind: kb, ..
                },
            ) => a == b && (ka.is_write() || kb.is_write()),
            _ => false,
        }
    }

    /// Whether this event happens-before `other` through a path that
    /// does not rely on `other`'s own acquire join (vector-clock
    /// test against `other`'s pre-acquire clock). This is the
    /// reversibility test for DPOR: if the only ordering between a
    /// conflicting pair is the reads-from edge between them, the pair
    /// is a race and both orders must be explored.
    #[must_use]
    pub(crate) fn happens_before(&self, other: &Event) -> bool {
        let base = other.pre_acquire.as_ref().unwrap_or(&other.clock);
        self.clock.get(self.thread) <= base.get(self.thread)
    }
}
