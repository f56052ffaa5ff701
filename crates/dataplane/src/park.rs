//! The worker's parking table: the software half of §3.2's W-bit
//! early recording. One entry per distinct in-flight address carries
//! every packet or remote request waiting on its result and whether a
//! remote request for it is still unanswered, so parking a waiter and
//! resolving a reply each cost one keyed lookup.
//!
//! Waiter lists are recycled through a free list: a resolved entry
//! hands its (cleared) list back, and the next new entry reuses it, so
//! a worker in steady state parks without allocating. The free list
//! never holds more lists than the peak number of parked addresses,
//! because a list is only allocated when the free list is empty.
//!
//! The table keeps std's keyed SipHash (`RandomState`): its keys are
//! packet destination addresses, which arrive from outside the router,
//! so a fixed-key hash would let traffic pick its own collisions.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// One in-flight address.
#[derive(Debug)]
struct Parked<W> {
    waiters: Vec<W>,
    /// A remote request for the address is unanswered. Cleared when
    /// the reply arrives or the address is re-homed to this LC; a reply
    /// that finds it clear is a duplicate.
    awaiting_reply: bool,
}

/// Occupancy figures of one worker's parking table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkStats {
    /// Most distinct addresses parked at once.
    pub peak_parked: u64,
    /// Most recycled waiter lists the free list held at once (never
    /// more than `peak_parked`).
    pub peak_free_lists: u64,
    /// Addresses still parked when the worker's report was taken (zero
    /// once the run has quiesced).
    pub parked_at_end: u64,
}

/// Per-worker map from an in-flight address to its waiters.
#[derive(Debug)]
pub(crate) struct ParkingTable<A, W> {
    map: HashMap<A, Parked<W>>,
    /// Cleared waiter lists awaiting reuse.
    free: Vec<Vec<W>>,
    stats: ParkStats,
}

impl<A: Copy + Eq + Hash, W> ParkingTable<A, W> {
    pub(crate) fn new() -> Self {
        ParkingTable {
            map: HashMap::new(),
            free: Vec::new(),
            stats: ParkStats::default(),
        }
    }

    /// Park `w` on `addr`. Returns `None` when `addr` already had an
    /// entry (the waiter joined it), or, when `w` opened a new entry,
    /// `Some` of the entry's awaiting-reply flag for the caller to set
    /// if it routes the lookup to a remote LC.
    #[inline]
    pub(crate) fn park(&mut self, addr: A, w: W) -> Option<&mut bool> {
        let parked_before = self.map.len() as u64;
        match self.map.entry(addr) {
            Entry::Occupied(mut e) => {
                e.get_mut().waiters.push(w);
                None
            }
            Entry::Vacant(e) => {
                self.stats.peak_parked = self.stats.peak_parked.max(parked_before + 1);
                let mut waiters = self.free.pop().unwrap_or_default();
                waiters.push(w);
                let parked = e.insert(Parked {
                    waiters,
                    awaiting_reply: false,
                });
                Some(&mut parked.awaiting_reply)
            }
        }
    }

    /// Remove `addr`'s entry if a remote request for it is unanswered,
    /// returning its waiters. `None` means the reply is a duplicate (or
    /// arrived after a re-homing): the caller drops it.
    #[inline]
    pub(crate) fn take_reply(&mut self, addr: A) -> Option<Vec<W>> {
        match self.map.entry(addr) {
            Entry::Occupied(e) if e.get().awaiting_reply => Some(e.remove().waiters),
            _ => None,
        }
    }

    /// Remove `addr`'s entry whatever its flag, returning its waiters
    /// (a local lookup resolved it).
    #[inline]
    pub(crate) fn take(&mut self, addr: A) -> Option<Vec<W>> {
        self.map.remove(&addr).map(|p| p.waiters)
    }

    /// Hand a list returned by [`Self::take`] or [`Self::take_reply`]
    /// back for reuse.
    #[inline]
    pub(crate) fn recycle(&mut self, mut waiters: Vec<W>) {
        waiters.clear();
        self.free.push(waiters);
        self.stats.peak_free_lists = self.stats.peak_free_lists.max(self.free.len() as u64);
    }

    /// Addresses with an unanswered remote request, sorted (map order
    /// is not deterministic).
    pub(crate) fn awaiting_sorted(&self) -> Vec<A>
    where
        A: Ord,
    {
        let mut v: Vec<A> = self
            .map
            .iter()
            .filter(|(_, p)| p.awaiting_reply)
            .map(|(&a, _)| a)
            .collect();
        v.sort_unstable();
        v
    }

    /// Clear `addr`'s awaiting-reply flag: its lookup moved to this LC,
    /// so a reply to the original request is now a duplicate.
    pub(crate) fn stop_awaiting(&mut self, addr: A) {
        if let Some(p) = self.map.get_mut(&addr) {
            p.awaiting_reply = false;
        }
    }

    /// Keep only the waiters `keep` accepts, in every entry (entries
    /// themselves stay, even if emptied).
    pub(crate) fn retain_waiters(&mut self, mut keep: impl FnMut(&W) -> bool) {
        for p in self.map.values_mut() {
            p.waiters.retain(&mut keep);
        }
    }

    /// Drop every entry (the worker died).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Occupancy figures so far.
    pub(crate) fn stats(&self) -> ParkStats {
        ParkStats {
            parked_at_end: self.map.len() as u64,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_resolves_once_and_its_duplicate_is_recognised() {
        let mut t: ParkingTable<u32, u8> = ParkingTable::new();
        *t.park(7, 1).expect("first waiter opens the entry") = true;
        assert!(t.park(7, 2).is_none(), "second waiter joins it");
        assert_eq!(t.take_reply(7), Some(vec![1, 2]));
        assert_eq!(t.take_reply(7), None, "duplicate reply");
        assert!(t.is_empty());
    }

    #[test]
    fn a_local_entry_or_a_rehomed_one_rejects_replies() {
        let mut t: ParkingTable<u32, u8> = ParkingTable::new();
        assert!(t.park(1, 0).is_some()); // resolved locally: flag stays clear
        *t.park(2, 0).unwrap() = true;
        assert_eq!(t.awaiting_sorted(), vec![2]);
        t.stop_awaiting(2); // re-homed to this LC
        assert_eq!(t.take_reply(1), None);
        assert_eq!(t.take_reply(2), None);
        assert_eq!(t.take(2), Some(vec![0]));
        assert_eq!(t.stats().parked_at_end, 1);
    }

    #[test]
    fn waiter_lists_are_recycled() {
        let mut t: ParkingTable<u32, u8> = ParkingTable::new();
        t.park(1, 0);
        t.park(1, 1);
        let list = t.take(1).unwrap();
        let ptr = list.as_ptr();
        t.recycle(list);
        t.park(9, 5);
        let again = t.take(9).unwrap();
        assert_eq!(again, vec![5]);
        assert_eq!(again.as_ptr(), ptr, "the recycled list was reused");
        t.recycle(again);
        let s = t.stats();
        assert_eq!(
            (s.peak_parked, s.peak_free_lists, s.parked_at_end),
            (1, 1, 0)
        );
    }
}
