//! Object payloads that may be real or synthetic.
//!
//! The evaluation workloads move gigabytes through the object store (the
//! nightly-backup workload alone uploads ~10 GB). Holding those bytes in
//! memory would be wasteful and irrelevant — the protocols never inspect
//! file *contents*, only provenance. [`Blob`] therefore represents a payload
//! either as real bytes (provenance records, WAL messages — anything the
//! system reads back) or as a synthetic descriptor carrying just a length
//! and a content fingerprint.

use bytes::Bytes;

/// A payload stored in the simulated object store.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Blob {
    /// Real bytes, for payloads whose content matters (provenance).
    Inline(Bytes),
    /// Synthetic file data: only the length and a content fingerprint are
    /// tracked. Two synthetic blobs with equal `len` and `fingerprint`
    /// compare equal, modelling identical file contents.
    Synthetic {
        /// Payload length in bytes.
        len: u64,
        /// Stand-in for a content hash; workloads derive it from the
        /// generating process so rewritten content changes the fingerprint.
        fingerprint: u64,
    },
}

impl Blob {
    /// An empty inline blob.
    pub fn empty() -> Blob {
        Blob::Inline(Bytes::new())
    }

    /// Creates a synthetic blob of `len` bytes with the given fingerprint.
    pub fn synthetic(len: u64, fingerprint: u64) -> Blob {
        Blob::Synthetic { len, fingerprint }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Blob::Inline(b) => b.len() as u64,
            Blob::Synthetic { len, .. } => *len,
        }
    }

    /// True if the payload is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inline bytes, if this blob is real data.
    pub fn as_inline(&self) -> Option<&Bytes> {
        match self {
            Blob::Inline(b) => Some(b),
            Blob::Synthetic { .. } => None,
        }
    }

    /// A stable fingerprint of the content: a hash for inline data, the
    /// stored fingerprint for synthetic data. Used by the data-coupling
    /// detection mechanism (§3 of the paper suggests hashing data into its
    /// provenance so mismatches are detectable).
    pub fn content_fingerprint(&self) -> u64 {
        match self {
            // FNV-1a: tiny, dependency-free, good enough for detection.
            Blob::Inline(b) => crate::fnv1a64(b),
            Blob::Synthetic { fingerprint, .. } => *fingerprint,
        }
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blob::Inline(b) => write!(f, "Blob::Inline({} bytes)", b.len()),
            Blob::Synthetic { len, fingerprint } => {
                write!(f, "Blob::Synthetic({len} bytes, fp={fingerprint:#x})")
            }
        }
    }
}

impl From<Bytes> for Blob {
    fn from(b: Bytes) -> Blob {
        Blob::Inline(b)
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Blob {
        Blob::Inline(Bytes::from(v))
    }
}

impl From<&str> for Blob {
    fn from(s: &str) -> Blob {
        Blob::Inline(Bytes::copy_from_slice(s.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_len_matches_bytes() {
        let b = Blob::from("hello");
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.as_inline().unwrap().as_ref(), b"hello");
    }

    #[test]
    fn synthetic_blobs_compare_by_descriptor() {
        let a = Blob::synthetic(1 << 30, 42);
        let b = Blob::synthetic(1 << 30, 42);
        let c = Blob::synthetic(1 << 30, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1 << 30);
        assert!(a.as_inline().is_none());
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        assert_ne!(
            Blob::from("abc").content_fingerprint(),
            Blob::from("abd").content_fingerprint()
        );
        assert_eq!(Blob::synthetic(10, 7).content_fingerprint(), 7);
    }

    #[test]
    fn empty_blob() {
        assert!(Blob::empty().is_empty());
        assert_eq!(Blob::empty().len(), 0);
    }
}
