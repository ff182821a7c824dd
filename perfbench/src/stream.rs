//! The seeded request stream of one `serve_eval` client.
//!
//! Requests come in blocks of four: one cold request (a benchmark/seed
//! pair nobody has asked for yet) at a seeded position, and three warm
//! ones that repeat a pair this client already had answered. Cold
//! requests visit the four paper benchmarks round-robin, in a seeded
//! order per round, so every 16 requests hold one cold request per
//! benchmark. Each client owns its stream: a warm request only ever
//! names a pair its own client sent earlier, so under the closed loop it
//! has always been answered before it is repeated.

use crate::seed::{derive, Rng};

/// One `POST /eval` request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCall {
    /// Index into the benchmark list the stream was built for.
    pub design: usize,
    /// Stimulus seed of the request.
    pub seed: u64,
    /// Whether the pair is new (a cache miss) or a repeat (a cache hit).
    pub cold: bool,
}

/// Requests per block; one of them is cold.
pub const BLOCK: usize = 4;

/// The request generator of client `client` for workload seed `seed`;
/// `salt` separates independent passes of one run, which must not share
/// pairs.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: Rng,
    designs: usize,
    base: u64,
    issued: Vec<(usize, u64)>,
    round: Vec<usize>,
    cold_slot: usize,
    position: usize,
}

impl ClientStream {
    /// A fresh stream over `designs` benchmarks.
    #[must_use]
    pub fn new(seed: u64, client: u64, salt: u64, designs: usize) -> ClientStream {
        let tag = format!("serve/{client}/{salt}");
        ClientStream {
            rng: Rng::new(seed, &tag),
            designs,
            base: derive(seed, &tag, 1),
            issued: Vec::new(),
            round: Vec::new(),
            cold_slot: 0,
            position: 0,
        }
    }
}

impl Iterator for ClientStream {
    type Item = EvalCall;

    fn next(&mut self) -> Option<EvalCall> {
        let in_block = self.position % BLOCK;
        if in_block == 0 {
            // The first block opens cold: there is nothing to repeat yet.
            self.cold_slot = if self.position == 0 {
                0
            } else {
                self.rng.below(BLOCK)
            };
        }
        self.position += 1;
        if in_block == self.cold_slot {
            if self.round.is_empty() {
                self.round = self.rng.permutation(self.designs);
            }
            let design = self.round.pop().expect("round refilled above");
            // Seeds count up from a per-client base, so cold pairs never
            // repeat within a stream or collide across clients and passes.
            let seed = (self.base << 20) + self.issued.len() as u64;
            self.issued.push((design, seed));
            return Some(EvalCall {
                design,
                seed,
                cold: true,
            });
        }
        let (design, seed) = self.issued[self.rng.below(self.issued.len())];
        Some(EvalCall {
            design,
            seed,
            cold: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(seed: u64, client: u64, n: usize) -> Vec<EvalCall> {
        ClientStream::new(seed, client, 0, 4).take(n).collect()
    }

    #[test]
    fn the_stream_is_deterministic_per_seed() {
        assert_eq!(take(11, 0, 2_000), take(11, 0, 2_000));
        assert_ne!(take(11, 0, 2_000), take(12, 0, 2_000));
        assert_ne!(take(11, 0, 2_000), take(11, 1, 2_000));
    }

    #[test]
    fn one_request_in_four_is_cold_and_cold_pairs_are_fresh() {
        let calls = take(5, 0, 4_000);
        let mut seen = HashSet::new();
        for block in calls.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|c| c.cold).count(), 1);
        }
        for c in &calls {
            if c.cold {
                assert!(seen.insert((c.design, c.seed)), "cold pair repeated");
            } else {
                assert!(seen.contains(&(c.design, c.seed)), "warm before its cold");
            }
        }
        assert!(calls[0].cold);
    }

    #[test]
    fn every_sixteen_requests_hold_one_cold_request_per_design() {
        let calls = take(9, 1, 1_600);
        for window in calls.chunks(16) {
            let mut designs: Vec<usize> =
                window.iter().filter(|c| c.cold).map(|c| c.design).collect();
            designs.sort_unstable();
            assert_eq!(designs, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn clients_and_passes_never_share_a_cold_pair() {
        let mut seen = HashSet::new();
        for client in 0..2 {
            for salt in 0..2 {
                for c in ClientStream::new(3, client, salt, 4).take(800) {
                    if c.cold {
                        assert!(seen.insert((c.design, c.seed)));
                    }
                }
            }
        }
    }
}
