//! Profile elements: packed conditional-branch records.

use core::fmt;

use crate::TraceError;

/// Identifier of a (virtual) method, as minted by an instrumenting
/// compiler or by the MicroVM program builder.
///
/// Method ids occupy 24 bits inside a packed [`ProfileElement`], so the
/// valid range is `0..=0x00FF_FFFF`.
///
/// # Examples
///
/// ```
/// use opd_trace::MethodId;
/// let m = MethodId::new(42);
/// assert_eq!(m.index(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MethodId(u32);

impl MethodId {
    /// Maximum representable method index.
    pub const MAX: u32 = (1 << 24) - 1;

    /// Creates a method id.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`MethodId::MAX`].
    #[must_use]
    pub fn new(index: u32) -> Self {
        assert!(index <= Self::MAX, "method index {index} out of range");
        MethodId(index)
    }

    /// Creates a method id from untrusted input, rejecting indices
    /// outside the 24-bit range instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MethodIdRange`] if `index` exceeds
    /// [`MethodId::MAX`].
    pub fn try_new(index: u32) -> Result<Self, TraceError> {
        if index > Self::MAX {
            Err(TraceError::MethodIdRange { index })
        } else {
            Ok(MethodId(index))
        }
    }

    /// Returns the raw method index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A static conditional-branch site: a unique location in the source
/// program, identified by the enclosing method and a bytecode offset.
///
/// A branch *site* is the static half of a [`ProfileElement`]; the
/// dynamic half is the taken bit.
///
/// # Examples
///
/// ```
/// use opd_trace::{BranchSite, MethodId};
/// let site = BranchSite::new(MethodId::new(3), 17);
/// assert_eq!(site.method(), MethodId::new(3));
/// assert_eq!(site.offset(), 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BranchSite {
    method: MethodId,
    offset: u32,
}

impl BranchSite {
    /// Maximum representable bytecode offset (23 bits).
    pub const MAX_OFFSET: u32 = (1 << 23) - 1;

    /// Creates a branch site.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds [`BranchSite::MAX_OFFSET`].
    #[must_use]
    pub fn new(method: MethodId, offset: u32) -> Self {
        assert!(
            offset <= Self::MAX_OFFSET,
            "bytecode offset {offset} out of range"
        );
        BranchSite { method, offset }
    }

    /// Creates a branch site from untrusted input, rejecting offsets
    /// outside the 23-bit range instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OffsetRange`] if `offset` exceeds
    /// [`BranchSite::MAX_OFFSET`].
    pub fn try_new(method: MethodId, offset: u32) -> Result<Self, TraceError> {
        if offset > Self::MAX_OFFSET {
            Err(TraceError::OffsetRange { offset })
        } else {
            Ok(BranchSite { method, offset })
        }
    }

    /// Returns the enclosing method.
    #[must_use]
    pub fn method(self) -> MethodId {
        self.method
    }

    /// Returns the bytecode offset within the method.
    #[must_use]
    pub fn offset(self) -> u32 {
        self.offset
    }
}

impl fmt::Debug for BranchSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.method, self.offset)
    }
}

impl fmt::Display for BranchSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.method, self.offset)
    }
}

/// One dynamic conditional branch, packed into a `u64`.
///
/// Following Section 4.1 of the paper, each profile element "represents
/// a unique location in the source code as an integer value that encodes
/// a unique method ID, a bytecode offset in the method where the branch
/// is located, and a bit that represents whether the branch was taken".
///
/// Layout (least significant bit first):
///
/// ```text
/// bit 0        : taken flag
/// bits 1..=23  : bytecode offset (23 bits)
/// bits 24..=47 : method id (24 bits)
/// bits 48..=63 : reserved, always zero
/// ```
///
/// # Examples
///
/// ```
/// use opd_trace::{MethodId, ProfileElement};
///
/// let e = ProfileElement::new(MethodId::new(7), 12, true);
/// assert!(e.taken());
/// assert_eq!(e.site().offset(), 12);
/// let raw: u64 = e.into();
/// assert_eq!(ProfileElement::try_from(raw).unwrap(), e);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(try_from = "u64", into = "u64")
)]
pub struct ProfileElement(u64);

const TAKEN_BITS: u32 = 1;
const OFFSET_BITS: u32 = 23;
const METHOD_BITS: u32 = 24;
const OFFSET_SHIFT: u32 = TAKEN_BITS;
const METHOD_SHIFT: u32 = TAKEN_BITS + OFFSET_BITS;
const USED_BITS: u32 = TAKEN_BITS + OFFSET_BITS + METHOD_BITS;

impl ProfileElement {
    /// Creates a profile element for one executed conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds [`BranchSite::MAX_OFFSET`].
    #[must_use]
    pub fn new(method: MethodId, offset: u32, taken: bool) -> Self {
        Self::from_site(BranchSite::new(method, offset), taken)
    }

    /// Creates a profile element from a static site and the dynamic
    /// taken bit.
    #[must_use]
    pub fn from_site(site: BranchSite, taken: bool) -> Self {
        let raw = u64::from(taken)
            | (u64::from(site.offset()) << OFFSET_SHIFT)
            | (u64::from(site.method().index()) << METHOD_SHIFT);
        ProfileElement(raw)
    }

    /// Returns the static branch site of this element.
    #[must_use]
    pub fn site(self) -> BranchSite {
        BranchSite {
            method: MethodId(((self.0 >> METHOD_SHIFT) & u64::from(MethodId::MAX)) as u32),
            offset: ((self.0 >> OFFSET_SHIFT) & u64::from(BranchSite::MAX_OFFSET)) as u32,
        }
    }

    /// Returns whether the branch was taken.
    #[must_use]
    pub fn taken(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the packed representation.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<ProfileElement> for u64 {
    fn from(e: ProfileElement) -> Self {
        e.0
    }
}

impl TryFrom<u64> for ProfileElement {
    type Error = ParseElementError;

    fn try_from(raw: u64) -> Result<Self, Self::Error> {
        if raw >> USED_BITS != 0 {
            Err(ParseElementError { raw })
        } else {
            Ok(ProfileElement(raw))
        }
    }
}

impl fmt::Debug for ProfileElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.site(), if self.taken() { "T" } else { "N" })
    }
}

impl fmt::Display for ProfileElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Error returned when a raw `u64` does not encode a profile element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseElementError {
    raw: u64,
}

impl fmt::Display for ParseElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {:#x} has reserved profile-element bits set",
            self.raw
        )
    }
}

impl std::error::Error for ParseElementError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_extremes() {
        for (m, o, t) in [
            (0, 0, false),
            (MethodId::MAX, BranchSite::MAX_OFFSET, true),
            (1, BranchSite::MAX_OFFSET, false),
            (MethodId::MAX, 0, true),
        ] {
            let e = ProfileElement::new(MethodId::new(m), o, t);
            assert_eq!(e.site().method().index(), m);
            assert_eq!(e.site().offset(), o);
            assert_eq!(e.taken(), t);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let e = ProfileElement::new(MethodId::new(77), 1234, true);
        assert_eq!(ProfileElement::try_from(e.raw()), Ok(e));
    }

    #[test]
    fn reserved_bits_rejected() {
        assert!(ProfileElement::try_from(1u64 << 60).is_err());
    }

    #[test]
    fn taken_bit_distinguishes_elements() {
        let a = ProfileElement::new(MethodId::new(1), 5, true);
        let b = ProfileElement::new(MethodId::new(1), 5, false);
        assert_ne!(a, b);
        assert_eq!(a.site(), b.site());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn method_range_checked() {
        let _ = MethodId::new(MethodId::MAX + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_range_checked() {
        let _ = BranchSite::new(MethodId::new(0), BranchSite::MAX_OFFSET + 1);
    }

    #[test]
    fn try_constructors_reject_out_of_range() {
        assert!(MethodId::try_new(MethodId::MAX).is_ok());
        assert!(matches!(
            MethodId::try_new(MethodId::MAX + 1),
            Err(TraceError::MethodIdRange { index }) if index == MethodId::MAX + 1
        ));
        let m = MethodId::new(0);
        assert!(BranchSite::try_new(m, BranchSite::MAX_OFFSET).is_ok());
        assert!(matches!(
            BranchSite::try_new(m, BranchSite::MAX_OFFSET + 1),
            Err(TraceError::OffsetRange { .. })
        ));
    }

    #[test]
    fn display_is_nonempty() {
        let e = ProfileElement::new(MethodId::new(2), 3, false);
        assert_eq!(format!("{e}"), "m2+3N");
        assert_eq!(format!("{:?}", MethodId::new(2)), "m2");
    }
}
