//! A fast, non-cryptographic hasher for in-memory group-by state.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with a random key —
//! HashDoS-resistant, but a large cost for the hash-heavy inner loops of
//! cube computation, where every row touches one map cell per grouping
//! set. Cube inputs are not attacker-controlled hash keys, so we trade
//! the DoS resistance away for speed, the same call rustc itself makes.
//!
//! [`FxHasher`] is the Firefox/rustc "Fx" multiply-rotate hash: fold each
//! 8-byte chunk into the state with a rotate, xor, and multiply by a
//! constant with good bit dispersion. It is deterministic (no per-process
//! random state), which also makes encoded-key map iteration reproducible
//! across runs of the same build.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash family: a 64-bit constant with no obvious
/// structure and good avalanche behaviour under `wrapping_mul`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox "Fx" hasher: not cryptographic, very fast on the
/// short keys (packed `u64` coordinates, small `Row`s) group maps use.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            #[expect(
                clippy::unwrap_used,
                reason = "chunks_exact(8) yields exactly 8-byte slices"
            )]
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The remainder is at most 7 bytes, so the top byte is free:
            // store the length there to keep zero-padded tails (b"\0" vs
            // b"\0\0" vs the chunk boundary) from colliding.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Zero-sized `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed by the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"Chevy"), hash(b"Chevy"));
        assert_ne!(hash(b"Chevy"), hash(b"Ford"));
        assert_ne!(hash(b""), hash(b"\0"));
    }

    #[test]
    fn u64_keys_disperse() {
        // Consecutive packed keys must not collide in the low bits the
        // table indexes with.
        let mut low_bits = FxHashSet::default();
        for k in 0u64..1024 {
            let mut h = FxHasher::default();
            h.write_u64(k);
            low_bits.insert(h.finish() & 0x3ff);
        }
        // With 1024 keys into 1024 buckets, a decent hash fills most.
        assert!(
            low_bits.len() > 512,
            "only {} distinct low-bit patterns",
            low_bits.len()
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("a".into(), 1);
        assert_eq!(m["a"], 1);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}
