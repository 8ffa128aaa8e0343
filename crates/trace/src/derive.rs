//! Derived profile streams: alternative inputs to the framework.
//!
//! Section 2 of the paper stresses that its input is abstract: "a wide
//! variety of inputs, such as the methods invoked, basic blocks,
//! branches, addresses loaded, or instructions executed" can be the
//! profile. This module derives two such alternatives from an
//! execution:
//!
//! * [`site_profile`] — the branch trace with the dynamic taken bit
//!   stripped, leaving pure control-flow *locations* (a basic-block-
//!   like profile: less dynamic noise, smaller element universe);
//! * [`MethodProfile`] — a [`TraceSink`] keeping one element per
//!   method invocation (the method-level profile of Georges et al.,
//!   which the paper's baseline discussion cites) and nothing else.
//!
//! Both produce ordinary [`BranchTrace`]s, so every detector in the
//! workspace runs on them unchanged. Note that element *offsets* in a
//! derived stream are positions in that stream, so oracles must be
//! built at the matching granularity (the `inputs` experiment handles
//! the mapping).

use crate::{BranchTrace, CallLoopEventKind, ProfileElement, TraceSink};

/// The branch trace with every element's taken bit cleared: a stream
/// of static control-flow locations.
///
/// # Examples
///
/// ```
/// use opd_trace::{site_profile, BranchTrace, MethodId, ProfileElement};
///
/// let mut t = BranchTrace::new();
/// t.push(ProfileElement::new(MethodId::new(1), 4, true));
/// t.push(ProfileElement::new(MethodId::new(1), 4, false));
/// let sites = site_profile(&t);
/// // Both executions collapse onto one element value.
/// assert_eq!(sites.as_slice()[0], sites.as_slice()[1]);
/// ```
#[must_use]
pub fn site_profile(branches: &BranchTrace) -> BranchTrace {
    branches
        .iter()
        .map(|e| ProfileElement::from_site(e.site(), false))
        .collect()
}

/// The method-level profile of an execution, recorded as it runs: one
/// element per method invocation, in call order, and for each the
/// offset in the branch trace at which it entered. Branches are
/// counted by the caller's offsets, never stored, so recording a long
/// run costs one entry per call rather than one per branch.
///
/// Each element encodes the method id (offset 0, taken bit clear).
///
/// # Examples
///
/// ```
/// use opd_trace::{CallLoopEventKind, MethodId, MethodProfile, TraceSink};
///
/// let mut methods = MethodProfile::new();
/// methods.record_event(CallLoopEventKind::MethodEnter(MethodId::new(3)), 0);
/// methods.record_event(CallLoopEventKind::MethodEnter(MethodId::new(4)), 7);
/// assert_eq!(methods.elements().len(), 2);
/// assert_eq!(methods.offsets(), &[0, 7]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodProfile {
    elements: BranchTrace,
    offsets: Vec<u64>,
}

impl MethodProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One element per method invocation, in call order.
    #[must_use]
    pub fn elements(&self) -> &BranchTrace {
        &self.elements
    }

    /// For every element, the branch-trace offset at which its method
    /// was entered: maps detected intervals back to branch offsets for
    /// scoring.
    #[must_use]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }
}

impl TraceSink for MethodProfile {
    fn record_branch(&mut self, _element: ProfileElement) {}

    fn record_event(&mut self, kind: CallLoopEventKind, offset: u64) {
        if let CallLoopEventKind::MethodEnter(m) = kind {
            self.elements.push(ProfileElement::new(m, 0, false));
            self.offsets.push(offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTrace, LoopId, MethodId};

    /// Records the same run into a full trace and a method profile.
    fn sample<S: TraceSink>(sink: &mut S) {
        let mut branches = 0;
        let mut branch = |sink: &mut S, e: ProfileElement| {
            sink.record_branch(e);
            branches += 1;
            branches
        };
        sink.record_event(CallLoopEventKind::MethodEnter(MethodId::new(1)), 0);
        let mut at = 0;
        for i in 0..5 {
            at = branch(sink, ProfileElement::new(MethodId::new(1), i, i % 2 == 0));
        }
        sink.record_event(CallLoopEventKind::LoopEnter(LoopId::new(0)), at);
        sink.record_event(CallLoopEventKind::MethodEnter(MethodId::new(2)), at);
        at = branch(sink, ProfileElement::new(MethodId::new(2), 0, true));
        sink.record_event(CallLoopEventKind::MethodExit(MethodId::new(2)), at);
        sink.record_event(CallLoopEventKind::LoopExit(LoopId::new(0)), at);
        sink.record_event(CallLoopEventKind::MethodExit(MethodId::new(1)), at);
    }

    #[test]
    fn site_profile_strips_taken_bits() {
        let mut t = ExecutionTrace::new();
        sample(&mut t);
        let sites = site_profile(t.branches());
        assert_eq!(sites.len(), t.branches().len());
        assert!(sites.iter().all(|e| !e.taken()));
        for (s, b) in sites.iter().zip(t.branches()) {
            assert_eq!(s.site(), b.site());
        }
    }

    #[test]
    fn site_profile_shrinks_element_universe() {
        let mut t = ExecutionTrace::new();
        sample(&mut t);
        use std::collections::HashSet;
        let raw: HashSet<_> = t.branches().iter().copied().collect();
        let sites: HashSet<_> = site_profile(t.branches()).iter().copied().collect();
        assert!(sites.len() <= raw.len());
    }

    #[test]
    fn method_profile_lists_invocations_in_order() {
        let mut methods = MethodProfile::new();
        sample(&mut methods);
        let elements = methods.elements();
        assert_eq!(elements.len(), 2);
        assert_eq!(elements.as_slice()[0].site().method(), MethodId::new(1));
        assert_eq!(elements.as_slice()[1].site().method(), MethodId::new(2));
        assert_eq!(methods.offsets(), &[0, 5]);
    }

    #[test]
    fn method_profile_matches_the_recorded_entry_events() {
        let mut t = ExecutionTrace::new();
        sample(&mut t);
        let mut methods = MethodProfile::new();
        sample(&mut methods);
        let entries: Vec<(ProfileElement, u64)> = t
            .events()
            .iter()
            .filter_map(|ev| match ev.kind() {
                CallLoopEventKind::MethodEnter(m) => {
                    Some((ProfileElement::new(m, 0, false), ev.offset()))
                }
                _ => None,
            })
            .collect();
        let recorded: Vec<(ProfileElement, u64)> = methods
            .elements()
            .iter()
            .copied()
            .zip(methods.offsets().iter().copied())
            .collect();
        assert_eq!(recorded, entries);
    }

    #[test]
    fn empty_runs_derive_empty_profiles() {
        assert!(site_profile(&BranchTrace::new()).is_empty());
        let methods = MethodProfile::new();
        assert!(methods.elements().is_empty());
        assert!(methods.offsets().is_empty());
    }
}
