//! The observer trait and its stock implementations.

use crate::event::DetectorEvent;
use crate::metrics::UnitMetrics;

/// Receives the structured event stream of an instrumented detector
/// run.
///
/// The associated `ACTIVE` constant is the zero-overhead-when-off
/// switch: instrumented code guards every event construction with
/// `if O::ACTIVE { ... }`, so an observer with `ACTIVE = false`
/// ([`NullObserver`]) monomorphizes the instrumented path back to the
/// uninstrumented machine code — no event is ever built, no call is
/// ever made.
pub trait DetectorObserver {
    /// Whether this observer wants events at all. Leave at the default
    /// (`true`) for any observer that reads events.
    const ACTIVE: bool = true;

    /// Called once per emitted event, in emission order.
    fn on_event(&mut self, event: &DetectorEvent);
}

/// The do-nothing observer: `ACTIVE = false`, so a run path's
/// instance over it builds no event at all — it is the plain run (the
/// repository's observer-equivalence suite asserts bit-identical
/// results and an allocation-free steady state).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl DetectorObserver for NullObserver {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: &DetectorEvent) {}
}

/// Calls a closure per event — the streaming adaptor used by
/// `opd trace`.
#[derive(Debug)]
pub struct FnObserver<F: FnMut(&DetectorEvent)>(pub F);

impl<F: FnMut(&DetectorEvent)> DetectorObserver for FnObserver<F> {
    #[inline]
    fn on_event(&mut self, event: &DetectorEvent) {
        (self.0)(event);
    }
}

/// One phase reconstructed purely from the event stream (no access to
/// the detector's own phase list) — the observer-equivalence suite
/// compares these against `DetectedPhase` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedPhase {
    /// Detection-point start offset.
    pub start: u64,
    /// Anchored (retroactive) start offset.
    pub anchored_start: u64,
    /// End offset, if the stream contained the phase's end.
    pub end: Option<u64>,
}

/// Buffers every event and reconstructs the phase-transition sequence
/// from `phase_start`/`phase_end` events alone.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    /// Every event received, in order.
    pub events: Vec<DetectorEvent>,
}

impl RecordingObserver {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// Reconstructs the detected phases from the recorded
    /// `phase_start` / `phase_end` events.
    #[must_use]
    pub fn phases(&self) -> Vec<RecordedPhase> {
        let mut out: Vec<RecordedPhase> = Vec::new();
        for e in &self.events {
            match *e {
                DetectorEvent::PhaseStart {
                    start,
                    anchored_start,
                    ..
                } => out.push(RecordedPhase {
                    start,
                    anchored_start,
                    end: None,
                }),
                DetectorEvent::PhaseEnd { end, .. } => {
                    if let Some(open) = out.last_mut() {
                        debug_assert!(open.end.is_none(), "phase ended twice");
                        open.end = Some(end);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// The per-step `(prev, state)` decision sequence.
    #[must_use]
    pub fn decisions(&self) -> Vec<(u64, bool)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                DetectorEvent::Decision { step, state, .. } => Some((step, state.is_phase())),
                _ => None,
            })
            .collect()
    }
}

impl DetectorObserver for RecordingObserver {
    fn on_event(&mut self, event: &DetectorEvent) {
        self.events.push(*event);
    }
}

/// Accumulates [`UnitMetrics`] from the event stream without
/// buffering it: steps from `step` events, judged steps and
/// comparison ops from `similarity` events.
#[derive(Debug, Default)]
pub struct MeterObserver {
    /// The running totals (scans/elements are the caller's to fill;
    /// the meter only sees steps).
    pub metrics: UnitMetrics,
}

impl MeterObserver {
    /// A zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        MeterObserver::default()
    }
}

impl DetectorObserver for MeterObserver {
    #[inline]
    fn on_event(&mut self, event: &DetectorEvent) {
        match *event {
            DetectorEvent::Step { .. } => self.metrics.steps += 1,
            DetectorEvent::Similarity { ops, .. } => {
                self.metrics.judged_steps += 1;
                self.metrics.compare_ops += ops;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::PhaseState;

    #[test]
    fn recording_observer_reconstructs_phases() {
        let mut r = RecordingObserver::new();
        let stream = [
            DetectorEvent::Step {
                step: 0,
                start: 0,
                len: 10,
                warm: false,
            },
            DetectorEvent::PhaseStart {
                step: 3,
                start: 30,
                anchored_start: 12,
            },
            DetectorEvent::Decision {
                step: 3,
                prev: PhaseState::Transition,
                state: PhaseState::Phase,
            },
            DetectorEvent::PhaseEnd { step: 7, end: 70 },
            DetectorEvent::PhaseStart {
                step: 9,
                start: 90,
                anchored_start: 85,
            },
        ];
        for e in &stream {
            r.on_event(e);
        }
        assert_eq!(
            r.phases(),
            vec![
                RecordedPhase {
                    start: 30,
                    anchored_start: 12,
                    end: Some(70)
                },
                RecordedPhase {
                    start: 90,
                    anchored_start: 85,
                    end: None
                },
            ]
        );
        assert_eq!(r.decisions(), vec![(3, true)]);
        assert_eq!(r.events.len(), stream.len());
    }

    #[test]
    fn meter_observer_counts_steps_and_ops() {
        let mut m = MeterObserver::new();
        m.on_event(&DetectorEvent::Step {
            step: 0,
            start: 0,
            len: 5,
            warm: false,
        });
        m.on_event(&DetectorEvent::Step {
            step: 1,
            start: 5,
            len: 5,
            warm: true,
        });
        m.on_event(&DetectorEvent::Similarity {
            step: 1,
            value: 0.5,
            threshold: 0.5,
            ops: 7,
        });
        assert_eq!(m.metrics.steps, 2);
        assert_eq!(m.metrics.judged_steps, 1);
        assert_eq!(m.metrics.compare_ops, 7);
    }

    // The switch the whole layer hangs on: NullObserver must opt out
    // at compile time while ordinary observers stay opted in.
    const _: () = assert!(!NullObserver::ACTIVE);
    const _: () = assert!(RecordingObserver::ACTIVE);

    #[test]
    fn null_observer_is_inactive() {
        let mut n = NullObserver;
        n.on_event(&DetectorEvent::PhaseEnd { step: 0, end: 0 });
        let mut seen = 0;
        {
            let mut f = FnObserver(|_: &DetectorEvent| seen += 1);
            f.on_event(&DetectorEvent::PhaseEnd { step: 0, end: 0 });
        }
        assert_eq!(seen, 1);
    }
}
