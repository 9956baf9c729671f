//! A tiny seedable pseudo-random number generator (xorshift64*).
//!
//! Replaces the external `rand` crate for everything the workspace needs:
//! the executor's seeded fault injection ([`crate::chaos`]), deterministic
//! workload generation and the in-house property-test harness (both
//! reach it as `cf2df_bench::prng`). Not cryptographic — statistical
//! quality is more than enough for fuzzing program shapes. The same seed
//! always yields the same stream, on every platform, forever; generated
//! corpora are therefore reproducible across builds.

/// Seedable xorshift64* generator.
///
/// The raw xorshift64* stream has well-known weaknesses from low-entropy
/// seeds (e.g. seed 0 is a fixed point of plain xorshift), so the seed is
/// first dispersed through a splitmix64 step — the standard recipe for
/// initializing xorshift-family states from small integers.
#[derive(Clone, Debug)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Create a generator from a 64-bit seed. Any seed is valid,
    /// including zero.
    pub fn seed_from_u64(seed: u64) -> Prng {
        // splitmix64 finalizer: guarantees a non-zero, well-mixed state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Prng {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// The stream for worker `w` under campaign seed `seed`: the seed is
    /// dispersed by the worker index, so per-worker streams are
    /// uncorrelated.
    pub fn for_worker(seed: u64, w: usize) -> Prng {
        Prng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna): xorshift step then a multiplicative mix.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    ///
    /// Uses the widening-multiply reduction (Lemire); the modulo bias is
    /// at most `n / 2^64`, far below anything a program generator can
    /// observe.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "Prng::below(0)");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform `usize` in the half-open range `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `i64` in the half-open range `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty range [{lo}, {hi})");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// `true` with probability `num / den`.
    pub fn ratio(&mut self, num: u32, den: u32) -> bool {
        debug_assert!(den > 0 && num <= den, "ratio {num}/{den}");
        self.below(u64::from(den)) < u64::from(num)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against a 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(0, xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn same_seed_same_stream_distinct_workers_distinct() {
        let mut a = Prng::for_worker(7, 0);
        let mut b = Prng::for_worker(7, 0);
        let mut c = Prng::for_worker(7, 1);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = Prng::seed_from_u64(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "0.25 wildly off: {hits}");
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Prng::seed_from_u64(0);
        let vals: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0), "stream must not be stuck");
        assert_ne!(vals[0], vals[1]);
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Prng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn ranges_honor_bounds() {
        let mut r = Prng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 20);
            assert!((-5..20).contains(&v));
            let u = r.range_usize(1, 4);
            assert!((1..4).contains(&u));
        }
    }

    #[test]
    fn ratio_and_chance_are_plausible() {
        let mut r = Prng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "1/4 ratio wildly off: {hits}");
        let hits = (0..10_000).filter(|_| r.chance(0.5)).count();
        assert!(
            (4500..5500).contains(&hits),
            "0.5 chance wildly off: {hits}"
        );
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn pick_selects_every_element_eventually() {
        let mut r = Prng::seed_from_u64(13);
        let xs = ["a", "b", "c"];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*r.pick(&xs));
        }
        assert_eq!(seen.len(), 3);
    }
}
