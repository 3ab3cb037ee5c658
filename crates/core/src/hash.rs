//! Deterministic id/tag derivation.
//!
//! Groups, task-region activations and collective operations all need
//! identifiers that every member processor derives *locally yet
//! identically* (there is no central allocator on a multicomputer). We get
//! them by mixing parent ids with per-group operation sequence numbers
//! through SplitMix64, which spreads the ids across the 64-bit tag space so
//! that distinct logical channels never collide in practice. Determinism is
//! exact; a collision could only manifest as a typed-receive mismatch,
//! which panics loudly.

/// SplitMix64 finalizer — a strong 64-bit mixing permutation.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic [`Hasher`](std::hash::Hasher): each word written
/// is mixed into the state by [`splitmix64`]. For keys the program makes
/// itself (the plan cache's descriptors), where a hit is decided by exact
/// key equality and the hash only skips entries that cannot match.
#[derive(Debug, Default)]
pub(crate) struct SplitMixHasher(u64);

impl std::hash::Hasher for SplitMixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Mix two ids into a new one.
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// Mix three ids into a new one.
#[inline]
pub(crate) fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix2(mix2(a, b), c)
}

/// Id of the whole-machine (world) group.
pub(crate) const WORLD_GID: u64 = 0x5F0E_D51E_C0DE_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_is_deterministic() {
        assert_eq!(mix2(1, 2), mix2(1, 2));
        assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
    }

    #[test]
    fn mixing_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix3(1, 2, 3), mix3(3, 2, 1));
    }

    #[test]
    fn the_hasher_is_deterministic_and_order_sensitive() {
        use std::hash::{Hash, Hasher};
        let hash = |v: &dyn Fn(&mut SplitMixHasher)| {
            let mut h = SplitMixHasher::default();
            v(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| (1u64, 2usize).hash(h)), hash(&|h| (1u64, 2usize).hash(h)));
        assert_ne!(hash(&|h| (1u64, 2u64).hash(h)), hash(&|h| (2u64, 1u64).hash(h)));
        assert_ne!(hash(&|h| [0u8; 3].hash(h)), hash(&|h| [0u8; 4].hash(h)), "lengths are hashed");
    }

    #[test]
    fn nearby_inputs_spread() {
        let a = mix2(WORLD_GID, 0);
        let b = mix2(WORLD_GID, 1);
        assert_ne!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
    }
}
