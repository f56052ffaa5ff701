//! The victim cache: a small fully-associative cache holding blocks
//! evicted from the main array by conflict misses (§3.2). The paper
//! equips every LR-cache with an 8-block victim cache and probes it in
//! parallel with the main array.

use crate::addr::CacheAddr;
use crate::policy::ReplacementPolicy;
use rand::rngs::SmallRng;
use rand::Rng;

/// A complete (non-waiting) block stored in the victim cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimBlock<V, A: CacheAddr = u32> {
    pub addr: A,
    pub value: V,
    /// The M bit travels with the block so a promoted entry keeps its
    /// LOC/REM class.
    pub origin_is_rem: bool,
}

#[derive(Debug, Clone)]
struct Slot<V, A: CacheAddr> {
    block: VictimBlock<V, A>,
    lru: u64,
    fifo: u64,
}

/// Fully-associative victim cache with a configurable capacity and
/// replacement policy (LRU by default, matching §5.1).
#[derive(Debug, Clone)]
pub struct VictimCache<V, A: CacheAddr = u32> {
    slots: Vec<Slot<V, A>>,
    capacity: usize,
    policy: ReplacementPolicy,
    clock: u64,
}

impl<V: Copy + Eq, A: CacheAddr> VictimCache<V, A> {
    /// Create a victim cache with `capacity` blocks (0 disables it).
    pub fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        VictimCache {
            slots: Vec::with_capacity(capacity),
            capacity,
            policy,
            clock: 0,
        }
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the victim cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `addr`; on a hit the block is *removed* (the caller
    /// promotes it back into the main array, the classic swap).
    pub fn take(&mut self, addr: A) -> Option<VictimBlock<V, A>> {
        let pos = self.slots.iter().position(|s| s.block.addr == addr)?;
        Some(self.slots.swap_remove(pos).block)
    }

    /// Non-destructive lookup (used by probes that only need the value).
    pub fn peek(&mut self, addr: A) -> Option<VictimBlock<V, A>> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.slots.iter_mut().find(|s| s.block.addr == addr)?;
        slot.lru = clock;
        Some(slot.block)
    }

    /// Insert a block evicted from the main array, evicting by policy if
    /// full. Returns the displaced block, if any.
    ///
    /// One pass over the slots finds either the slot already holding
    /// the address (a block may re-arrive after a promote/evict cycle;
    /// it is replaced in place) or the policy's victim: the oldest stamp
    /// for LRU/FIFO, and for Random one `gen_range(0..len)` draw over
    /// the slots, all of which are candidates.
    pub fn insert(
        &mut self,
        block: VictimBlock<V, A>,
        rng: &mut SmallRng,
    ) -> Option<VictimBlock<V, A>> {
        if self.capacity == 0 {
            return Some(block);
        }
        self.clock += 1;
        let fresh = Slot {
            block,
            lru: self.clock,
            fifo: self.clock,
        };
        let mut oldest: Option<(usize, u64)> = None;
        for i in 0..self.slots.len() {
            let s = &self.slots[i];
            if s.block.addr == block.addr {
                return Some(std::mem::replace(&mut self.slots[i], fresh).block);
            }
            let stamp = self.policy.stamp(s.lru, s.fifo);
            if oldest.is_none_or(|(_, o)| stamp < o) {
                oldest = Some((i, stamp));
            }
        }
        if self.slots.len() < self.capacity {
            self.slots.push(fresh);
            return None;
        }
        let idx = match self.policy {
            ReplacementPolicy::Random => rng.gen_range(0..self.slots.len()),
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                oldest.expect("victim cache is full, so candidates exist").0
            }
        };
        Some(std::mem::replace(&mut self.slots[idx], fresh).block)
    }

    /// Test-only copy of the two-pass insert [`Self::insert`] replaced,
    /// run by the LR-cache's oracle tests.
    #[cfg(test)]
    pub(crate) fn insert_multipass(
        &mut self,
        block: VictimBlock<V, A>,
        rng: &mut SmallRng,
    ) -> Option<VictimBlock<V, A>> {
        if self.capacity == 0 {
            return Some(block);
        }
        self.clock += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.block.addr == block.addr) {
            let old = slot.block;
            slot.block = block;
            slot.lru = self.clock;
            slot.fifo = self.clock;
            return Some(old);
        }
        if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                block,
                lru: self.clock,
                fifo: self.clock,
            });
            return None;
        }
        let idx = self
            .policy
            .choose_multipass(
                self.slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, s.lru, s.fifo)),
                rng,
            )
            .expect("victim cache is full, so candidates exist");
        let displaced = self.slots[idx].block;
        self.slots[idx] = Slot {
            block,
            lru: self.clock,
            fifo: self.clock,
        };
        Some(displaced)
    }

    /// Iterate over every resident block's `(addr, value)` pair.
    pub fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.slots.iter().map(|s| (s.block.addr, s.block.value))
    }

    /// Drop every block (routing-table update flush).
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// Drop every block whose address satisfies `covered`, returning the
    /// number removed (prefix-targeted invalidation after a routing
    /// update).
    pub fn invalidate_where(&mut self, covered: impl Fn(A) -> bool) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| !covered(s.block.addr));
        before - self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    fn blk(addr: u32, value: u16) -> VictimBlock<u16> {
        VictimBlock {
            addr,
            value,
            origin_is_rem: false,
        }
    }

    #[test]
    fn take_removes() {
        let mut v = VictimCache::new(8, ReplacementPolicy::Lru);
        v.insert(blk(1, 10), &mut rng());
        assert_eq!(v.take(1).unwrap().value, 10);
        assert!(v.take(1).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut v = VictimCache::new(2, ReplacementPolicy::Lru);
        let mut r = rng();
        assert!(v.insert(blk(1, 1), &mut r).is_none());
        assert!(v.insert(blk(2, 2), &mut r).is_none());
        // Touch 1 so 2 becomes LRU.
        assert!(v.peek(1).is_some());
        let displaced = v.insert(blk(3, 3), &mut r).unwrap();
        assert_eq!(displaced.addr, 2);
        assert_eq!(v.len(), 2);
        assert!(v.peek(1).is_some() && v.peek(3).is_some());
    }

    #[test]
    fn zero_capacity_rejects() {
        let mut v = VictimCache::new(0, ReplacementPolicy::Lru);
        let rejected = v.insert(blk(1, 1), &mut rng()).unwrap();
        assert_eq!(rejected.addr, 1);
        assert!(v.is_empty());
    }

    #[test]
    fn duplicate_address_replaces() {
        let mut v = VictimCache::new(4, ReplacementPolicy::Lru);
        let mut r = rng();
        v.insert(blk(5, 1), &mut r);
        let old = v.insert(blk(5, 2), &mut r).unwrap();
        assert_eq!(old.value, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v.peek(5).unwrap().value, 2);
    }

    #[test]
    fn duplicate_address_replaces_in_a_full_cache() {
        // A full cache re-receiving a resident address replaces that
        // slot in place: nothing else is displaced and no RNG draw is
        // made, whatever the policy.
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut v = VictimCache::new(4, policy);
            let mut r = rng();
            for a in 1..=4 {
                assert!(v.insert(blk(a, a as u16), &mut r).is_none());
            }
            let mut untouched = r.clone();
            let old = v.insert(blk(3, 30), &mut r).unwrap();
            assert_eq!((old.addr, old.value), (3, 3), "{policy:?}");
            assert_eq!(v.len(), 4);
            let mut held: Vec<(u32, u16)> = v.entries().collect();
            held.sort_unstable();
            assert_eq!(held, vec![(1, 1), (2, 2), (3, 30), (4, 4)], "{policy:?}");
            assert_eq!(r.gen::<u64>(), untouched.gen::<u64>(), "{policy:?}");
        }
    }

    #[test]
    fn flush_clears() {
        let mut v = VictimCache::new(4, ReplacementPolicy::Fifo);
        v.insert(blk(1, 1), &mut rng());
        v.flush();
        assert!(v.is_empty());
        assert!(v.peek(1).is_none());
    }

    #[test]
    fn fifo_eviction_ignores_touches() {
        let mut v = VictimCache::new(2, ReplacementPolicy::Fifo);
        let mut r = rng();
        v.insert(blk(1, 1), &mut r);
        v.insert(blk(2, 2), &mut r);
        v.peek(1); // FIFO ignores recency
        let displaced = v.insert(blk(3, 3), &mut r).unwrap();
        assert_eq!(displaced.addr, 1);
    }
}
