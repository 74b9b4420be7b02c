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
//!
//! [`IdMap`] is the in-memory counterpart: a `HashMap` keyed by dense ids
//! (class, method, callee and allocation ids, call sites) under a
//! multiplicative word hasher instead of SipHash. It has no protection
//! against keys crafted to collide, so its keys must come from the
//! analysis's own numbering, never from names in the analysed APK.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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

/// A word-at-a-time multiplicative hasher for integer and id keys (the
/// rotate-xor-multiply step of rustc's `FxHasher`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` under [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

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

    #[test]
    fn id_map_behaves_like_a_map() {
        let mut m: IdMap<(u32, u32), u32> = IdMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 7), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&(i, i ^ 7)] == i));
        assert!(!m.contains_key(&(1, 1)));
    }
}
