//! Offline stand-in for the `bytes` crate: just enough of `Bytes` for
//! an immutable encoded buffer that converts to and from `Vec<u8>`.

#![forbid(unsafe_code)]

use std::ops::Deref;

/// An immutable byte buffer; dereferences to `[u8]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    vec: Vec<u8>,
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes { vec }
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        bytes.vec
    }
}
