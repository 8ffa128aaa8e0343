//! Profile elements, execution traces, and phase labels.
//!
//! This crate provides the shared vocabulary of the `opd` workspace, the
//! Rust reproduction of *Online Phase Detection Algorithms* (CGO 2006):
//!
//! * [`ProfileElement`] — one dynamic conditional branch, packed into a
//!   `u64` exactly as the paper describes (method id, bytecode offset,
//!   taken bit),
//! * [`CallLoopEvent`] — one loop or method entry/exit correlated with
//!   the branch counter, forming the *call-loop trace* the baseline
//!   solution consumes,
//! * [`ExecutionTrace`] — the pair of correlated streams recorded from
//!   one program execution,
//! * [`PhaseState`], [`StateSeq`], [`PhaseInterval`] — per-element
//!   phase/transition labels and the intervals extracted from them,
//! * [`TraceStats`] — the dynamic execution characteristics reported in
//!   Table 1(a) of the paper,
//! * [`record`] — the OPDK record log, the one crash-safe framing
//!   under the sweep and serve checkpoints, and [`fnv64`].
//!
//! # Examples
//!
//! ```
//! use opd_trace::{ExecutionTrace, MethodId, ProfileElement, TraceSink};
//!
//! let mut trace = ExecutionTrace::new();
//! trace.record_method_enter(MethodId::new(1));
//! trace.record_branch(ProfileElement::new(MethodId::new(1), 4, true));
//! trace.record_branch(ProfileElement::new(MethodId::new(1), 9, false));
//! trace.record_method_exit(MethodId::new(1));
//! assert_eq!(trace.branches().len(), 2);
//! assert_eq!(trace.events().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod codec;
mod derive;
mod element;
mod error;
mod event;
mod phase;
pub mod record;
mod resync;
mod sample;
mod stats;
mod threaded;
mod trace;

pub use codec::{
    decode_trace, encode_trace, CodecError, BRANCH_RECORD_LEN, EVENT_COUNT_LEN, EVENT_RECORD_LEN,
    HEADER_LEN, MAGIC, VERSION,
};
pub use derive::{site_profile, MethodProfile};
pub use element::{BranchSite, MethodId, ParseElementError, ProfileElement};
pub use error::TraceError;
pub use event::{CallLoopEvent, CallLoopEventKind, LoopId};
pub use phase::{
    boundaries_of, intervals_of, states_from_intervals, Boundary, BoundaryKind, PhaseInterval,
    PhaseState, StateSeq,
};
pub use record::{fnv64, fnv64_extend};
pub use resync::{decode_trace_resync, decode_trace_resync_into, CorruptionReport, ResyncSink};
pub use sample::{subsample, upsample_intervals};
pub use stats::{StatsSink, TraceStats};
pub use threaded::{
    interleave, try_interleave, InterleaveError, ThreadId, ThreadSink, ThreadedRecord,
    ThreadedTrace,
};
pub use trace::{BranchTrace, CallLoopTrace, ExecutionTrace, TraceSink};
