//! Shared content hashing: 64-bit FNV-1a.
//!
//! One hash, one implementation. The binary [`crate::container`] codec
//! checksums every archive payload with it (the `.exsv` signature index
//! and the `.exsm` summary cache), and the incremental engine
//! additionally fingerprints every method body with it (over the
//! canonical [`crate::printer`] form). FNV-1a
//! is not cryptographic — it guards against corruption and stale inputs,
//! not adversaries with hash-collision budgets — but it is deterministic
//! across platforms, dependency-free, and fast enough to hash every method
//! of an app on every run.

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental variant: folds `bytes` into an existing FNV-1a state.
/// `fnv1a64_update(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn update_matches_concatenation() {
        let whole = fnv1a64(b"hello world");
        let split = fnv1a64_update(fnv1a64(b"hello "), b"world");
        assert_eq!(whole, split);
        assert_eq!(fnv1a64_update(fnv1a64(b""), b"abc"), fnv1a64(b"abc"));
    }
}
