//! The window policies of Section 2 and Section 5: how the trailing
//! window (TW) is managed, where a detected phase is anchored, and how
//! the windows are resized at a phase start. New elements enter the
//! current window (CW); elements ageing out of a full CW move to the
//! TW, which evicts its oldest element when over capacity unless an
//! adaptive detector is in phase, in which case the TW grows to hold
//! the entire phase. [`crate::spec::WindowPair`] states these rules
//! directly; the SWAR kernel runs them in closed form.

use core::fmt;

/// Trailing-window management policy (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TwPolicy {
    /// The TW keeps a fixed size throughout.
    Constant,
    /// The TW grows to include all elements of the current phase once a
    /// phase is detected, and is flushed when the phase ends.
    Adaptive,
}

impl fmt::Display for TwPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TwPolicy::Constant => "constant",
            TwPolicy::Adaptive => "adaptive",
        })
    }
}

/// Where the anchor point — the reported start of a detected phase —
/// is placed within the trailing window (Section 5).
///
/// *Noisy* elements are elements in the TW that do not occur in the CW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AnchorPolicy {
    /// One element to the right of the rightmost noisy element (RN).
    RightmostNoisy,
    /// At the leftmost non-noisy element (LNN).
    LeftmostNonNoisy,
}

impl fmt::Display for AnchorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnchorPolicy::RightmostNoisy => "RN",
            AnchorPolicy::LeftmostNonNoisy => "LNN",
        })
    }
}

/// How windows are resized when a phase starts (Section 5; adaptive
/// trailing window only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ResizePolicy {
    /// Slide the TW right so its left boundary sits at the anchor
    /// point, keeping the TW's length and shrinking the CW (which then
    /// refills while comparisons continue).
    Slide,
    /// Move only the TW's left boundary to the anchor point, shrinking
    /// the TW and leaving the CW untouched.
    Move,
}

impl fmt::Display for ResizePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResizePolicy::Slide => "slide",
            ResizePolicy::Move => "move",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_displays() {
        assert_eq!(TwPolicy::Adaptive.to_string(), "adaptive");
        assert_eq!(AnchorPolicy::RightmostNoisy.to_string(), "RN");
        assert_eq!(AnchorPolicy::LeftmostNonNoisy.to_string(), "LNN");
        assert_eq!(ResizePolicy::Slide.to_string(), "slide");
        assert_eq!(ResizePolicy::Move.to_string(), "move");
    }
}
