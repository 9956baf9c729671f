//! A vendored integer hasher for the machine's hot-path maps.
//!
//! The rendezvous tables, the worker-local pair maps, and the tag
//! interners are all keyed by small dense integers (packed
//! `(operator, tag)` words, `(parent, loop, iter)` triples). The
//! standard library's default hasher is SipHash-1-3 — a keyed,
//! DoS-resistant hash that costs tens of cycles per lookup, none of
//! which buys anything here: the keys come from the program graph, not
//! from untrusted input. This module vendors the Fx multiply-rotate
//! hash (the rustc-internal `FxHasher` design) as a `std`-only drop-in
//! `BuildHasher`, in keeping with the workspace's offline
//! zero-external-dependency policy.
//!
//! The hasher lives in `cf2df-machine` (not `cf2df-bench`/`cf2df-core`)
//! because the dependency graph only points the other way: `bench`
//! depends on `machine`, and `core` only dev-depends on it, so a hasher
//! in either crate would be unreachable from the executors that need it
//! most. Downstream crates reach it through the re-export on
//! [`crate`](crate#reexports).
//!
//! Properties the executors rely on (pinned by the tests below):
//!
//! * **deterministic** — no per-process random state, so a hash (and
//!   therefore map iteration order, shard choice, etc.) is identical
//!   across runs and across threads;
//! * **cheap** — one rotate, one xor, one multiply per 8-byte word;
//! * **dispersive enough** — the multiply constant spreads consecutive
//!   integers (dense `OpId`/`TagId` spaces) across the whole `u64`
//!   range, so power-of-two-capacity hash maps do not degenerate, and
//!   [`shard64`] spreads rendezvous keys evenly over the slot shards.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply-rotate constant (64-bit golden-ratio mix, forced odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher for integer-shaped
/// keys. Not DoS-resistant — never use it for attacker-controlled keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Integer keys go through the typed methods below; this path only
        // sees stray byte payloads (e.g. a `str` mixed into a key), which
        // it folds 8 bytes at a time.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as usize as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; stateless, so every map built
/// with it hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on the integer hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Mix a single `u64` through one Fx round — for callers that need a
/// well-dispersed value (shard selection) without a full `Hasher` dance.
#[inline]
pub fn mix64(word: u64) -> u64 {
    word.rotate_left(5).wrapping_mul(SEED)
}

/// Shard index for a packed key: one Fx round, then map the product's
/// *high* 32 bits onto `0..n_shards` by multiply-shift. The low bits of
/// a product depend only on the low bits of its factors, and the low
/// bits of `rotate_left(key, 5)` are the key's top five bits — zero for
/// every rendezvous key whose operator id is below 2^27 — so reducing
/// the product modulo a power of two would send every key to shard 0.
/// The high bits mix every bit of the key, the operator and invocation
/// fields included. A zero shard count yields shard 0.
#[inline]
pub fn shard64(word: u64, n_shards: usize) -> usize {
    (((mix64(word) >> 32) * n_shards as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(hash_of(&key), hash_of(&key));
        }
        let triple = (7u32, 3u32, 999u32);
        assert_eq!(hash_of(&triple), hash_of(&triple));
    }

    #[test]
    fn dense_integers_disperse() {
        // Consecutive keys (the dense OpId/TagId space) must not land in
        // the same high-order region: with 16× more keys than buckets, a
        // well-mixed top byte covers essentially all 256 values.
        let tops: std::collections::HashSet<u8> =
            (0u64..4096).map(|k| (hash_of(&k) >> 56) as u8).collect();
        assert!(tops.len() > 250, "only {} distinct top bytes", tops.len());
    }

    #[test]
    fn byte_path_matches_itself_and_differs_by_length() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is 20+");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is 20+");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn shard64_spreads_rendezvous_keys_over_every_shard() {
        // Real rendezvous keys: operators × tags, solo and with four
        // invocation bits, must reach all 32 shards of the slot table,
        // each within 2% of an even share.
        use crate::compiled::key_inv;
        use crate::tag::{TagId, TagSplit};
        use cf2df_dfg::OpId;
        for split in [TagSplit::NONE, TagSplit::for_inflight(16)] {
            let mut hits = [0u64; 32];
            for op in 0..500 {
                for tag in 0..40 {
                    for inv in 0..split.slots() {
                        hits[shard64(key_inv(OpId(op), split, inv, TagId(tag)), 32)] += 1;
                    }
                }
            }
            let even = hits.iter().sum::<u64>() / 32;
            for (s, &h) in hits.iter().enumerate() {
                assert!(
                    h.abs_diff(even) * 50 <= even,
                    "{split:?}: shard {s} got {h} keys, an even share is {even}: {hits:?}"
                );
            }
        }
        assert_eq!(shard64(7, 0), 0, "degenerate shard count yields shard 0");
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
    }
}
