//! Request scheduling policies.
//!
//! - **FCFS**: strictly in arrival order.
//! - **FR-FCFS** (First-Ready FCFS): prefer requests that hit a
//!   currently-open row buffer, falling back to the oldest request —
//!   the standard high-performance controller policy.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use dlk_dram::RowAddr;

use crate::request::MemRequest;

/// Scheduling policy for the request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// First come, first served.
    #[default]
    Fcfs,
    /// First-ready (row-buffer hit) first, then FCFS.
    FrFcfs,
}

/// A pending-request queue with pluggable scheduling.
///
/// Each request is queued with its DRAM location `(row, column)`, when
/// it has one: FR-FCFS matches the row against open row buffers, and
/// the controller serves at that location without mapping again.
///
/// # Example
///
/// ```
/// use dlk_memctrl::{MemRequest, RequestQueue, SchedulingPolicy};
///
/// let mut queue = RequestQueue::new(SchedulingPolicy::Fcfs);
/// queue.push(MemRequest::read(0, 4), None);
/// assert_eq!(queue.len(), 1);
/// let (next, location) = queue.pop(|_| None).unwrap();
/// assert_eq!((next.addr, location), (0, None));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    policy: SchedulingPolicy,
    pending: VecDeque<(MemRequest, Option<(RowAddr, usize)>)>,
}

impl RequestQueue {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: SchedulingPolicy) -> Self {
        Self { policy, pending: VecDeque::new() }
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a request with its mapped `(row, column)` location, or
    /// `None` when the address does not map (FCFS ordering only).
    pub fn push(&mut self, request: MemRequest, location: Option<(RowAddr, usize)>) {
        self.pending.push_back((request, location));
    }

    /// Removes and returns the next request to serve, with the location
    /// it was pushed with.
    ///
    /// `open_row` reports the currently-open row of a bank (for
    /// FR-FCFS); FCFS ignores it.
    pub fn pop(
        &mut self,
        open_row: impl Fn(u16) -> Option<RowAddr>,
    ) -> Option<(MemRequest, Option<(RowAddr, usize)>)> {
        let index = match self.policy {
            SchedulingPolicy::Fcfs => 0,
            SchedulingPolicy::FrFcfs => self
                .pending
                .iter()
                .position(|(_, location)| {
                    location.is_some_and(|(row, _)| open_row(row.bank) == Some(row))
                })
                .unwrap_or(0),
        };
        self.pending.remove(index)
    }

    /// Drops every pending request, returning how many were discarded.
    pub fn clear(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_preserves_order() {
        let mut queue = RequestQueue::new(SchedulingPolicy::Fcfs);
        let a = MemRequest::read(0, 1);
        let b = MemRequest::read(64, 1);
        let (ida, idb) = (a.id, b.id);
        queue.push(a, None);
        queue.push(b, None);
        assert_eq!(queue.pop(|_| None).unwrap().0.id, ida);
        assert_eq!(queue.pop(|_| None).unwrap().0.id, idb);
        assert!(queue.pop(|_| None).is_none());
    }

    #[test]
    fn frfcfs_prefers_open_row_hit() {
        let mut queue = RequestQueue::new(SchedulingPolicy::FrFcfs);
        let miss = MemRequest::read(0, 1);
        let hit = MemRequest::read(64, 1);
        let hit_id = hit.id;
        let miss_row = RowAddr::new(0, 0, 0);
        let hit_row = RowAddr::new(0, 0, 1);
        queue.push(miss, Some((miss_row, 0)));
        queue.push(hit, Some((hit_row, 0)));
        let (popped, location) = queue.pop(|bank| (bank == 0).then_some(hit_row)).unwrap();
        assert_eq!(popped.id, hit_id, "row-buffer hit should jump the queue");
        assert_eq!(location, Some((hit_row, 0)), "the location travels with the request");
    }

    #[test]
    fn frfcfs_falls_back_to_fcfs_without_hits() {
        let mut queue = RequestQueue::new(SchedulingPolicy::FrFcfs);
        let a = MemRequest::read(0, 1);
        let a_id = a.id;
        queue.push(a, Some((RowAddr::new(0, 0, 0), 0)));
        queue.push(MemRequest::read(64, 1), Some((RowAddr::new(0, 0, 1), 0)));
        let (popped, _) = queue.pop(|_| None).unwrap();
        assert_eq!(popped.id, a_id);
    }

    #[test]
    fn clear_reports_count() {
        let mut queue = RequestQueue::new(SchedulingPolicy::Fcfs);
        queue.push(MemRequest::read(0, 1), None);
        queue.push(MemRequest::read(1, 1), None);
        assert_eq!(queue.clear(), 2);
        assert!(queue.is_empty());
    }
}
