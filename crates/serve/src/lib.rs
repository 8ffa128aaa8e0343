//! The fault-tolerant multi-tenant streaming session layer: thousands
//! of concurrent detector *sessions* over live trace streams.
//!
//! Everything below this crate is batch — a trace is fully
//! materialized, then swept. `opd-serve` turns the detector into a
//! *service*: each client is a [`Session`](session::Session) consuming
//! encoded trace frames through a bounded ingest queue, and the
//! robustness primitives built by earlier layers are composed into a
//! supervision loop:
//!
//! * **Backpressure** — per-session bounded queues with three
//!   overload disciplines ([`BackpressureMode`]): block the producer,
//!   shed the oldest queued frame, or reject the incoming one. Every
//!   dropped or deferred frame lands in an exact [`ShedLedger`],
//!   mirroring the `opd-faults` ledger discipline.
//! * **Supervision** — sessions that crash or wedge are restarted
//!   with bounded exponential backoff and a per-frame retry budget
//!   ([`SupervisionPolicy`]); a frame that keeps killing its session
//!   is quarantined as a poison pill, and a session that accumulates
//!   too many poison frames is quarantined wholesale.
//! * **Crash recovery** — a session's detector state is rebuilt by
//!   replaying its accepted-element log, so a restarted session's
//!   phase stream is bit-identical to an uninterrupted one.
//! * **Graceful degradation** — certificate-based admission control
//!   (`opd-analyze`'s `ResourceCertificate::admits`) refuses sessions
//!   whose certified memory high-water mark exceeds the budget before
//!   they consume anything.
//! * **Dirty ingest** — every frame decodes through the panic-free
//!   resync decoder (`opd_trace::decode_trace_resync_into`): corrupt
//!   bytes degrade one session's accuracy, never the process.
//! * **Recycled buffers** — each worker's sessions take their log,
//!   detector and queue from the worker's
//!   [`SessionScratch`](session::SessionScratch) and give them back
//!   when they report, so a run allocates per frame and per vshard,
//!   not per session.
//!
//! The engine ([`run_service`]) is a *deterministic simulation*:
//! sessions are partitioned into virtual shards, each shard advances
//! in virtual-time ticks, and every hazard (crash, wedge, poison) is
//! a stateless keyed draw — so a run's outcome is a pure function of
//! its configuration, independent of thread count, and resumable from
//! an OPDK checkpoint after a hard kill ([`checkpoint`]: the vshard
//! payload codec, version 2, on `opd-trace`'s shared record log).
//!
//! # Examples
//!
//! ```
//! use opd_serve::{run_service, MemorySource, ServeConfig, ServiceOptions};
//!
//! let source = MemorySource::synthetic(4, 6, 40);
//! let report = run_service(
//!     &ServeConfig::default(),
//!     &source,
//!     &ServiceOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(report.completed(), 4);
//! assert_eq!(report.verify_failures(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod checkpoint;
pub mod flight;
mod ledger;
pub mod service;
pub mod session;
mod supervisor;

pub use flight::{Postmortem, PostmortemReason, SessionTracer, TraceConfig, POSTMORTEM_HEADER};
pub use ledger::ShedLedger;
pub use service::{
    run_service, run_service_traced, run_service_with, FrameSource, MemorySource, NullSubscriber,
    ServeConfig, ServeError, ServiceMetrics, ServiceOptions, ServiceReport, ServiceTrace,
    Subscriber,
};
pub use session::{BackpressureMode, IngestPolicy, SessionReport, SessionStats, SessionStatus};
pub use supervisor::{keyed_hash, HazardPolicy, NoHazards, SeededHazards, SupervisionPolicy};
