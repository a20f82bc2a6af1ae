//! FNV-1a, the one non-cryptographic hash of the workspace: blob
//! fingerprints, baseline node ids, client RNG seeds, index buckets,
//! flush-object digests and — behind a murmur finalizer — shard ring
//! points and cleaner partitions.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;

/// Streaming 64-bit FNV-1a: feed it with [`Hasher::write`], read it with
/// [`Hasher::finish`]. Feeding pieces in turn hashes their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a through murmur3's 64-bit finalizer. FNV alone avalanches its
/// high bits poorly for short similar strings; anything that orders or
/// buckets by the full `u64` (the shard ring's points, the cleaner's
/// partitions) needs them mixed, or similar names cluster.
pub fn fnv1a64_mixed(bytes: &[u8]) -> u64 {
    let mut h = fnv1a64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_mixed(b"a"), 0x82a2_a958_a9be_ce5b);
    }

    #[test]
    fn streaming_hashes_the_concatenation() {
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
