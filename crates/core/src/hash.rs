//! Content hashing for durable artifacts.
//!
//! Everything durable that Grade10 writes and later re-trusts — campaign
//! store filenames, journal record integrity, binary-trace section
//! checksums — keys off one hash function: FNV-1a over 64 bits.
//! It is not cryptographic and does not need to be; the adversary is a
//! crashed process and a half-written file, not a forger. What matters is
//! that the hash is cheap, dependency-free, and stable across platforms
//! and releases, so a file written yesterday still resolves today.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash from state `h` over more bytes. Feeding two
/// slices through `fnv1a_extend` equals hashing their concatenation.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn extend_equals_concatenation() {
        let whole = fnv1a(b"hello world");
        let split = fnv1a_extend(fnv1a(b"hello "), b"world");
        assert_eq!(whole, split);
    }
}
