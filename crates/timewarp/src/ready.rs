//! The ready queue the parallel executives schedule from: which local LP
//! holds the lowest-timestamp unprocessed event.
//!
//! A lazy-deletion min-heap over `(next_time, lp)`. The executive pushes
//! an LP's new `next_time` after every change to its queue (receive,
//! execute, migration arrival) and never removes the old entry; instead
//! [`ReadyQueue::peek`] takes the caller's validity test — "this LP is
//! still mine and its next time is still `t`" — and drops stale entries
//! as they surface. Ties pop the lowest [`LpId`], so the pick is the
//! `(time, id)` minimum over every local LP, exactly what a linear scan
//! would return, in O(log n) per change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::LpId;
use crate::time::VTime;

/// Lazy-deletion min-heap of `(next_time, lp)` scheduling entries.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    heap: BinaryHeap<Reverse<(VTime, LpId)>>,
}

impl ReadyQueue {
    /// Record that `lp`'s earliest unprocessed event is at `t`. An LP with
    /// nothing to do (`t` = [`VTime::INF`]) is not queued.
    pub(crate) fn push(&mut self, lp: LpId, t: VTime) {
        if !t.is_inf() {
            self.heap.push(Reverse((t, lp)));
        }
    }

    /// The lowest `(time, lp)` entry that `valid(lp, time)` accepts.
    /// Entries it rejects on the way are stale and are dropped for good.
    pub(crate) fn peek(
        &mut self,
        mut valid: impl FnMut(LpId, VTime) -> bool,
    ) -> Option<(VTime, LpId)> {
        while let Some(&Reverse((t, lp))) = self.heap.peek() {
            if valid(lp, t) {
                return Some((t, lp));
            }
            self.heap.pop();
        }
        None
    }

    /// Remove the entry the last [`Self::peek`] returned.
    pub(crate) fn pop(&mut self) {
        self.heap.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_goes_stale_when_the_time_changes() {
        let mut q = ReadyQueue::default();
        let mut next = [VTime(5), VTime(7)];
        q.push(0, next[0]);
        q.push(1, next[1]);
        // LP 0 executed its batch: its next event moved on to 9.
        next[0] = VTime(9);
        q.push(0, next[0]);
        let valid = |lp: LpId, t: VTime| next[lp as usize] == t;
        assert_eq!(q.peek(valid), Some((VTime(7), 1)), "the stale (5, 0) is skipped");
        q.pop();
        assert_eq!(q.peek(valid), Some((VTime(9), 0)));
        q.pop();
        assert_eq!(q.peek(valid), None);
    }

    #[test]
    fn entry_goes_stale_when_the_lp_moves_away() {
        let mut q = ReadyQueue::default();
        let mut mine = [true, true];
        q.push(0, VTime(3));
        q.push(1, VTime(4));
        mine[0] = false; // LP 0 migrated to another node
        assert_eq!(q.peek(|lp, _| mine[lp as usize]), Some((VTime(4), 1)));
        // The dropped entry does not come back when the LP returns; the
        // arrival pushes a fresh one.
        mine[0] = true;
        assert_eq!(q.peek(|lp, _| mine[lp as usize]), Some((VTime(4), 1)));
        q.push(0, VTime(3));
        assert_eq!(q.peek(|lp, _| mine[lp as usize]), Some((VTime(3), 0)));
    }

    #[test]
    fn ties_pop_the_lowest_lp_id() {
        let mut q = ReadyQueue::default();
        for lp in [4, 2, 9, 0, 7] {
            q.push(lp, VTime(10));
        }
        q.push(5, VTime(11));
        let mut order = Vec::new();
        while let Some((t, lp)) = q.peek(|_, _| true) {
            order.push((t.0, lp));
            q.pop();
        }
        assert_eq!(order, [(10, 0), (10, 2), (10, 4), (10, 7), (10, 9), (11, 5)]);
    }

    #[test]
    fn infinite_time_is_never_queued() {
        let mut q = ReadyQueue::default();
        q.push(3, VTime::INF);
        assert_eq!(q.peek(|_, _| true), None);
        assert!(q.heap.is_empty());
    }
}
