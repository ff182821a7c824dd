//! Seed plumbing: every input of a run derives from the workload seed
//! given on the command line, through SplitMix64.

/// One SplitMix64 step: a bijective 64-bit mix.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed of `seed` for the input named by
/// `tag` and `index`. The result stays below 2³² so it survives a round
/// trip through JSON numbers unchanged.
#[must_use]
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h = splitmix64(seed);
    for b in tag.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ index) >> 32
}

/// A small deterministic generator for orders and choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a `tag` naming its use.
    #[must_use]
    pub fn new(seed: u64, tag: &str) -> Rng {
        Rng(derive(seed, tag, 0))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_distinct_and_json_safe() {
        assert_eq!(derive(7, "eval", 1), derive(7, "eval", 1));
        assert_ne!(derive(7, "eval", 1), derive(7, "eval", 2));
        assert_ne!(derive(7, "eval", 1), derive(7, "serve", 1));
        assert_ne!(derive(7, "eval", 1), derive(8, "eval", 1));
        assert!(derive(u64::MAX, "x", u64::MAX) < 1 << 32);
    }

    #[test]
    fn permutations_cover_every_index() {
        let mut rng = Rng::new(3, "perm");
        for n in 1..10 {
            let mut p = rng.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }
}
