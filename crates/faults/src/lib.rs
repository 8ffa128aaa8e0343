//! Deterministic fault injection for phase-detection traces.
//!
//! Production traces are not pristine: bits flip in transit, transfers
//! are cut short, events are dropped or reordered. This crate provides
//! *seeded, composable* corruptions over both representations of a
//! trace, each returning an exact [`FaultLedger`] of what was
//! injected:
//!
//! * [`bytes`] — corruptions of the encoded buffer (bit flips, record
//!   swaps, truncation, burst corruption), to be decoded with
//!   [`opd_trace::decode_trace_resync`];
//! * [`stream`] — corruptions of the decoded trace (drop, duplicate,
//!   burst loss, event loss) that always yield a well-formed
//!   [`opd_trace::ExecutionTrace`] for the detector.
//!
//! Every injector draws one decision per candidate site from its
//! seeded [`FaultRng`] regardless of the fault rate, so the fault set
//! at rate `r1` nests inside the set at any `r2 >= r1` under the same
//! seed — accuracy-degradation curves over rate are monotone in the
//! injected faults by construction.
//!
//! [`FaultKind::apply`] is the one-call entry point used by the
//! `opd faults` degradation study: it routes byte-level kinds through
//! the resynchronizing decoder and stream-level kinds directly.
//!
//! # Examples
//!
//! ```
//! use opd_faults::FaultKind;
//! use opd_trace::{ExecutionTrace, MethodId, ProfileElement, TraceSink};
//!
//! let mut t = ExecutionTrace::new();
//! for i in 0..100 {
//!     t.record_branch(ProfileElement::new(MethodId::new(0), i % 7, true));
//! }
//! let outcome = FaultKind::BitFlip.apply(&t, 0.1, 42);
//! assert!(outcome.ledger.total() > 0);
//! // Detectable flips were skipped by the resync decoder.
//! let report = outcome.report.expect("byte-level fault decodes with a report");
//! assert_eq!(report.bad_elements, outcome.ledger.detectable_element_flips);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bytes;
mod ledger;
mod rng;
pub mod stream;

use core::fmt;

use opd_trace::{decode_trace_resync, encode_trace, CorruptionReport, ExecutionTrace};

pub use ledger::FaultLedger;
pub use rng::FaultRng;

/// Burst length (in records) used by [`FaultKind::Burst`].
pub const DEFAULT_BURST_LEN: usize = 32;

/// Maximum displacement (in elements) used by [`FaultKind::Reorder`].
pub const DEFAULT_REORDER_DELAY: usize = 8;

/// One family of injected faults, at the granularity the degradation
/// study sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Random single-bit flips in packed branch records (byte level).
    BitFlip,
    /// Swaps of adjacent event records (byte level).
    EventSwap,
    /// Truncation of the encoded buffer's tail (byte level).
    Truncate,
    /// Burst corruption of contiguous branch records (byte level).
    Burst,
    /// Independent loss of branch elements (stream level).
    DropBranch,
    /// Independent duplication of branch elements (stream level).
    DuplicateBranch,
    /// Independent loss of call-loop events (stream level).
    DropEvent,
    /// Bounded out-of-order delivery of branch elements (stream
    /// level): delayed elements re-enter the stream up to
    /// [`DEFAULT_REORDER_DELAY`] positions late.
    Reorder,
}

/// What a fault application produced: the degraded trace, the exact
/// injection ledger, and — for byte-level kinds — the resync
/// decoder's corruption report.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The degraded (but always well-formed) trace.
    pub trace: ExecutionTrace,
    /// Exactly what the injector did.
    pub ledger: FaultLedger,
    /// The decoder's view of the corrupted bytes; `None` for
    /// stream-level kinds, which never re-encode.
    pub report: Option<CorruptionReport>,
}

impl FaultKind {
    /// Every fault kind, in sweep order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::BitFlip,
        FaultKind::EventSwap,
        FaultKind::Truncate,
        FaultKind::Burst,
        FaultKind::DropBranch,
        FaultKind::DuplicateBranch,
        FaultKind::DropEvent,
        FaultKind::Reorder,
    ];

    /// Stable lowercase name, as used by the `opd faults` CLI and the
    /// benchmark artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bitflip",
            FaultKind::EventSwap => "eventswap",
            FaultKind::Truncate => "truncate",
            FaultKind::Burst => "burst",
            FaultKind::DropBranch => "dropbranch",
            FaultKind::DuplicateBranch => "dupbranch",
            FaultKind::DropEvent => "dropevent",
            FaultKind::Reorder => "reorder",
        }
    }

    /// Returns `true` for kinds that corrupt the encoded buffer (and
    /// therefore exercise the resynchronizing decoder).
    #[must_use]
    pub fn is_byte_level(self) -> bool {
        matches!(
            self,
            FaultKind::BitFlip | FaultKind::EventSwap | FaultKind::Truncate | FaultKind::Burst
        )
    }

    /// Applies this fault to a clean trace at the given rate and seed.
    ///
    /// Byte-level kinds encode the trace, corrupt the buffer, and
    /// decode it back through [`decode_trace_resync`]; stream-level
    /// kinds transform the decoded representation directly. Either
    /// way the returned trace is well-formed and the ledger is exact.
    #[must_use]
    pub fn apply(self, clean: &ExecutionTrace, rate: f64, seed: u64) -> FaultOutcome {
        if self.is_byte_level() {
            let mut buf = Vec::from(encode_trace(clean));
            let ledger = match self {
                FaultKind::BitFlip => bytes::flip_element_bits(&mut buf, rate, seed),
                FaultKind::EventSwap => bytes::swap_adjacent_events(&mut buf, rate, seed),
                FaultKind::Truncate => bytes::truncate_tail(&mut buf, rate),
                FaultKind::Burst => bytes::corrupt_burst(&mut buf, rate, seed, DEFAULT_BURST_LEN),
                _ => unreachable!("is_byte_level covered all byte kinds"),
            };
            let (trace, report) = decode_trace_resync(&buf);
            FaultOutcome {
                trace,
                ledger,
                report: Some(report),
            }
        } else {
            let (trace, ledger) = match self {
                FaultKind::DropBranch => stream::drop_branches(clean, rate, seed),
                FaultKind::DuplicateBranch => stream::duplicate_branches(clean, rate, seed),
                FaultKind::DropEvent => stream::drop_events(clean, rate, seed),
                FaultKind::Reorder => {
                    stream::reorder_branches(clean, rate, seed, DEFAULT_REORDER_DELAY)
                }
                _ => unreachable!("is_byte_level covered all byte kinds"),
            };
            FaultOutcome {
                trace,
                ledger,
                report: None,
            }
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown fault kind `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::{MethodId, ProfileElement, TraceSink};

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.record_method_enter(MethodId::new(0));
        for i in 0..300 {
            if i % 10 == 0 {
                t.record_loop_enter(opd_trace::LoopId::new(i / 10));
            }
            t.record_branch(ProfileElement::new(MethodId::new(0), i % 13, i % 2 == 0));
            if i % 10 == 9 {
                t.record_loop_exit(opd_trace::LoopId::new(i / 10));
            }
        }
        t.record_method_exit(MethodId::new(0));
        t
    }

    #[test]
    fn every_kind_applies_and_rate_zero_is_lossless() {
        let t = sample();
        for kind in FaultKind::ALL {
            let clean = kind.apply(&t, 0.0, 1);
            assert!(clean.ledger.is_empty(), "{kind}: {}", clean.ledger);
            assert_eq!(clean.trace, t, "{kind}");
            assert_eq!(clean.report.is_some(), kind.is_byte_level(), "{kind}");

            let faulted = kind.apply(&t, 0.5, 1);
            assert!(faulted.ledger.total() > 0, "{kind} at rate 0.5");
        }
    }

    #[test]
    fn apply_is_deterministic_in_seed() {
        let t = sample();
        for kind in FaultKind::ALL {
            let a = kind.apply(&t, 0.3, 9);
            let b = kind.apply(&t, 0.3, 9);
            assert_eq!(a.trace, b.trace, "{kind}");
            assert_eq!(a.ledger, b.ledger, "{kind}");
        }
    }

    #[test]
    fn names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.name().parse::<FaultKind>(), Ok(kind));
        }
        assert!("frob".parse::<FaultKind>().is_err());
    }
}
