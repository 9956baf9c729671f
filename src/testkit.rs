//! Deterministic in-house property-testing support.
//!
//! The workspace builds fully offline with zero external crates, so the
//! property suites in `tests/properties.rs` run on this harness instead
//! of `proptest`. Each test enumerates a fixed number of cases; every
//! case gets a [`Prng`] seeded from a hash of
//! the test name and case index, so runs are reproducible bit-for-bit
//! across machines and the failing seed is printed on panic.

use cf2df_bench::prng::Prng;

/// Stable 64-bit hash of a test name and case index (FNV-1a over the
/// name, folded with the index through the same splitmix finalizer the
/// PRNG uses for seeding).
fn case_seed(name: &str, index: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Run `body` for `n` deterministic cases.
///
/// Each case receives a fresh [`Prng`] whose seed depends only on
/// `name` and the case index. If the body panics, the case index and
/// seed are printed before the panic propagates, so the failure can be
/// replayed in isolation with [`replay`].
pub fn cases<F>(name: &str, n: usize, mut body: F)
where
    F: FnMut(&mut Prng),
{
    for i in 0..n {
        let seed = case_seed(name, i);
        let mut rng = Prng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "testkit: `{name}` failed at case {i}/{n} (seed {seed:#018x}) — \
                 replay with cf2df::testkit::replay({seed:#018x}, ..)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Re-run a single failing case from the seed printed by [`cases`].
pub fn replay<F>(seed: u64, mut body: F)
where
    F: FnMut(&mut Prng),
{
    let mut rng = Prng::seed_from_u64(seed);
    body(&mut rng);
}

/// A printable junk string of length `0..=max_len`: mostly printable
/// ASCII, with newlines, tabs, and the occasional non-ASCII scalar —
/// the stand-in for proptest's `\PC*` regex strategy used by the
/// parser-totality suites.
pub fn junk_string(rng: &mut Prng, max_len: usize) -> String {
    let len = rng.range_usize(0, max_len + 1);
    (0..len)
        .map(|_| match rng.below(24) {
            0 => '\n',
            1 => '\t',
            2 | 3 => {
                // Any scalar below the surrogate range; fall back to
                // '\u{fffd}' for the few invalid points.
                char::from_u32(rng.below(0xD800) as u32).unwrap_or('\u{fffd}')
            }
            _ => (0x20 + rng.below(0x5f)) as u8 as char,
        })
        .collect()
}

/// A string of `0..max_tokens` tokens drawn from `vocab`, joined by
/// `sep` — the stand-in for proptest's token-vector strategies.
pub fn token_junk(rng: &mut Prng, vocab: &[&str], max_tokens: usize, sep: &str) -> String {
    let n = rng.range_usize(0, max_tokens);
    (0..n)
        .map(|_| *rng.pick(vocab))
        .collect::<Vec<_>>()
        .join(sep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_reproducible() {
        let mut a = Vec::new();
        cases("tk", 5, |rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        cases("tk", 5, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
        let mut c = Vec::new();
        cases("tk2", 5, |rng| c.push(rng.next_u64()));
        assert_ne!(a, c, "different test names must get different streams");
    }

    #[test]
    fn junk_strings_stay_in_bounds() {
        cases("junk", 50, |rng| {
            let s = junk_string(rng, 40);
            assert!(s.chars().count() <= 40);
        });
    }

    #[test]
    fn token_junk_uses_only_vocab() {
        cases("tok", 20, |rng| {
            let s = token_junk(rng, &["a", "bb", "c"], 10, " ");
            for tok in s.split(' ').filter(|t| !t.is_empty()) {
                assert!(["a", "bb", "c"].contains(&tok), "{tok:?}");
            }
        });
    }
}
