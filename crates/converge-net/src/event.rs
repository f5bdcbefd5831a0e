//! Deterministic discrete-event queue.
//!
//! Events are ordered by firing time with insertion-order tie-breaks, so two
//! runs with the same inputs pop events in exactly the same sequence. The
//! heap itself only holds small `Copy` keys; event payloads sit in a
//! generational [`Arena`], so heap sifts never move payload bytes and a
//! batch drain touches each payload exactly once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::arena::{Arena, SlotKey};
use crate::time::SimTime;

/// The heap-resident key for one scheduled event: firing time, FIFO
/// tie-break sequence, and the arena slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: SlotKey,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then the first
        // inserted) event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A FIFO-tie-breaking discrete-event queue.
///
/// # Examples
///
/// ```
/// use converge_net::event::EventQueue;
/// use converge_net::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_millis(), e), (1, "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapKey>,
    events: Arena<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Arena::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.events.insert(event);
        self.heap.push(HeapKey { at, seq, slot });
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let event = self
            .events
            .remove(key.slot)
            .expect("heap key must resolve to a live arena slot");
        Some((key.at, event))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The deepest the queue has ever been over its lifetime.
    ///
    /// Occupancy telemetry for fleet debugging: a shard reusing one queue
    /// across thousands of sessions can assert its depth tracks in-flight
    /// events, not session count. Survives [`clear`](EventQueue::clear).
    pub fn high_water(&self) -> usize {
        self.events.high_water()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.pop_due(t(5)).is_none());
        assert_eq!(q.pop_due(t(10)).unwrap().1, "a");
        assert!(q.pop_due(t(15)).is_none());
        assert_eq!(q.pop_due(t(25)).unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn slot_reuse_keeps_fifo_order() {
        let mut q = EventQueue::new();
        // Churn slots so the arena free list is exercised, then check
        // ordering still follows (time, insertion seq).
        for round in 0..5u64 {
            for i in 0..10u64 {
                q.schedule(t(100 - round * 10), round * 10 + i);
            }
            if round % 2 == 0 {
                while q.pop_due(t(100 - round * 10)).is_some() {}
            }
        }
        let mut last = None;
        while let Some((at, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(at >= prev);
            }
            last = Some(at);
        }
    }
}
