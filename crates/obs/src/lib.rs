//! Observability for the phase-detection stack: structured detector
//! events, a lock-free metrics registry, and per-unit sweep profiling.
//!
//! This crate is a *leaf*: it depends only on `opd-trace`, so
//! `opd-core` depends on it without a cycle. The contract is zero
//! overhead when off: the [`DetectorObserver`] trait carries a
//! `const ACTIVE: bool`, and each run path is one generic body that
//! guards every event construction with `if O::ACTIVE`. The plain run
//! is that body's [`NullObserver`] instance, so nothing is built and
//! nothing is called (the repository's observer suite asserts the
//! null instance allocation-free in its steady state).
//!
//! [`DetectorEvent`] is the event vocabulary (window slides/moves,
//! similarity scores, analyzer decisions, phase transitions);
//! [`MetricsRegistry`] is the sharded counter/histogram registry the
//! sweep paths and serve record into: its cells are plain `std`
//! `AtomicU64`s that change only by `Relaxed` `fetch_add`, so no update
//! is lost, and a snapshot is exact once the caller has joined its
//! writers (a live one may be torn across shards). [`UnitMetrics`] is
//! the plain per-unit accumulator cross-checked against the static
//! cost model. [`Span`] and [`SpanRecorder`] extend the same
//! discipline to *causal* tracing — virtual-time spans with parent
//! ids, recorded through the identical `const ACTIVE` guard — and
//! [`FlightRing`] is the fixed-capacity recent-span buffer behind
//! per-session post-mortems.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod event;
mod metrics;
mod observer;
mod span;

pub use event::{DetectorEvent, ResizeKind};
pub use metrics::{
    CounterId, HistogramId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, UnitMetrics,
    HISTOGRAM_BUCKETS,
};
pub use observer::{
    DetectorObserver, FnObserver, MeterObserver, NullObserver, RecordedPhase, RecordingObserver,
};
pub use span::{
    parse_span_log, render_span_log, FlightRing, NullSpanRecorder, Span, SpanKind, SpanLog,
    SpanRecorder, SPAN_LOG_HEADER,
};
