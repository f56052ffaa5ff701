//! Conventional replacement policies applied *after* the mix rule has
//! narrowed the candidate set (§3.2: "A conventional replacement strategy
//! (such as LRU, FIFO, or random) is then applied to the candidate
//! block(s)").

use rand::rngs::SmallRng;
use rand::Rng;

/// The conventional replacement strategy used among eviction candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's default for both the LR-cache and
    /// the victim cache).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random choice.
    Random,
}

impl ReplacementPolicy {
    /// The stamp this policy evicts the smallest of: last access for
    /// LRU, insertion for FIFO. Random ignores stamps (0).
    #[inline]
    pub(crate) fn stamp(self, lru: u64, fifo: u64) -> u64 {
        match self {
            ReplacementPolicy::Lru => lru,
            ReplacementPolicy::Fifo => fifo,
            ReplacementPolicy::Random => 0,
        }
    }

    /// Pick the slot to evict among `c`: the oldest stamp (first in
    /// slot order on a tie) for LRU and FIFO; for Random one
    /// `gen_range(0..n)` draw over the `n` candidates and the k-th of
    /// them in slot order. `rng` is drawn from only by Random, and not
    /// at all when `c` is empty.
    #[inline]
    pub(crate) fn choose(self, c: Candidates, rng: &mut SmallRng) -> Option<usize> {
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => c.oldest.map(|(slot, _)| slot),
            ReplacementPolicy::Random => {
                let n = c.len();
                if n == 0 {
                    return None;
                }
                let mut mask = c.mask;
                for _ in 0..rng.gen_range(0..n) {
                    mask &= mask - 1;
                }
                Some(mask.trailing_zeros() as usize)
            }
        }
    }
}

/// Eviction candidates among the (at most 64) slots of one set,
/// gathered in a single pass: [`Candidates::offer`] each candidate in
/// slot order, then [`ReplacementPolicy::choose`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Candidates {
    /// Bit `j` set: slot `j` is a candidate.
    mask: u64,
    /// The candidate with the smallest stamp, the earliest on a tie.
    oldest: Option<(usize, u64)>,
}

impl Candidates {
    /// Add slot `slot` (`< 64`, offered in increasing order) with its
    /// policy stamp (see [`ReplacementPolicy::stamp`]).
    #[inline]
    pub(crate) fn offer(&mut self, slot: usize, stamp: u64) {
        debug_assert!(slot < 64, "a set has at most 64 slots");
        self.mask |= 1 << slot;
        if self.oldest.is_none_or(|(_, s)| stamp < s) {
            self.oldest = Some((slot, stamp));
        }
    }

    /// Number of candidates offered.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The candidates of both sets together (slot order is kept: the
    /// earlier slot wins a stamp tie, as if offered in one pass).
    #[inline]
    pub(crate) fn union(self, other: Candidates) -> Candidates {
        let oldest = match (self.oldest, other.oldest) {
            (Some(a), Some(b)) => Some(if (b.1, b.0) < (a.1, a.0) { b } else { a }),
            (a, b) => a.or(b),
        };
        Candidates {
            mask: self.mask | other.mask,
            oldest,
        }
    }
}

/// Test-only copy of the iterator-based selection the single-pass
/// [`Candidates`] path replaced; the LR-cache's oracle tests run it.
#[cfg(test)]
impl ReplacementPolicy {
    pub(crate) fn choose_multipass(
        self,
        candidates: impl Iterator<Item = (usize, u64, u64)>,
        rng: &mut SmallRng,
    ) -> Option<usize> {
        match self {
            ReplacementPolicy::Lru => candidates.min_by_key(|&(_, lru, _)| lru).map(|c| c.0),
            ReplacementPolicy::Fifo => candidates.min_by_key(|&(_, _, fifo)| fifo).map(|c| c.0),
            ReplacementPolicy::Random => {
                let v: Vec<usize> = candidates.map(|c| c.0).collect();
                if v.is_empty() {
                    None
                } else {
                    Some(v[rng.gen_range(0..v.len())])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// `(slot, lru, fifo)` triples offered under `policy`.
    fn offered(policy: ReplacementPolicy, cands: &[(usize, u64, u64)]) -> Candidates {
        let mut c = Candidates::default();
        for &(slot, lru, fifo) in cands {
            c.offer(slot, policy.stamp(lru, fifo));
        }
        c
    }

    #[test]
    fn lru_picks_oldest_access() {
        let p = ReplacementPolicy::Lru;
        let c = offered(p, &[(0, 30, 1), (1, 10, 2), (2, 20, 3)]);
        assert_eq!(p.choose(c, &mut rng()), Some(1));
    }

    #[test]
    fn fifo_picks_oldest_insert() {
        let p = ReplacementPolicy::Fifo;
        let c = offered(p, &[(0, 30, 5), (1, 10, 9), (2, 20, 3)]);
        assert_eq!(p.choose(c, &mut rng()), Some(2));
    }

    #[test]
    fn random_picks_a_candidate() {
        let p = ReplacementPolicy::Random;
        let c = offered(p, &[(4, 0, 0), (7, 0, 0)]);
        let pick = p.choose(c, &mut rng()).unwrap();
        assert!(pick == 4 || pick == 7);
    }

    #[test]
    fn empty_candidates_yield_none() {
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            assert_eq!(p.choose(Candidates::default(), &mut rng()), None);
        }
    }

    #[test]
    fn stamp_ties_go_to_the_earliest_slot() {
        let p = ReplacementPolicy::Lru;
        let a = offered(p, &[(1, 5, 0), (3, 5, 0)]);
        assert_eq!(p.choose(a, &mut rng()), Some(1));
        let b = offered(p, &[(0, 5, 0)]);
        assert_eq!(p.choose(a.union(b), &mut rng()), Some(0));
        assert_eq!(p.choose(b.union(a), &mut rng()), Some(0));
    }

    #[test]
    fn matches_the_iterator_selection_draw_for_draw() {
        // Same candidates, same seed: every policy picks the same slot
        // and leaves the RNG in the same state as the old selection.
        let cands = [(0usize, 9u64, 4u64), (2, 3, 8), (3, 3, 1), (5, 7, 2)];
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..64 {
                let old = p.choose_multipass(cands.into_iter(), &mut a);
                assert_eq!(p.choose(offered(p, &cands), &mut b), old, "{p:?}");
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{p:?} RNG streams diverged");
        }
    }
}
