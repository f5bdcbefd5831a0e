//! Deterministic discrete-event queue.
//!
//! Events are ordered by firing time with insertion-order tie-breaks, so two
//! runs with the same inputs pop events in exactly the same sequence. The
//! heap itself only holds 16-byte integer keys; event payloads sit in an
//! [`Arena`], so heap sifts never move payload bytes and a pop touches its
//! payload exactly once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arena::Arena;
use crate::time::SimTime;

/// Low bits of a key that name the arena slot: at most 2^24 events pending
/// at once.
const SLOT_BITS: u32 = 24;
/// The bits above them that hold the FIFO sequence: at most 2^40 events
/// scheduled between two [`EventQueue::clear`]s.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// The heap-resident key for one scheduled event, one integer: firing time
/// in the high 64 bits, then the FIFO tie-break sequence, then the arena
/// slot holding the payload. One compare orders by (time, sequence) — the
/// sequence is unique, so the slot bits never decide — and every sift step
/// moves one aligned 16-byte value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey(u128);

impl HeapKey {
    /// # Panics
    /// Panics if `seq` or `slot` exceeds its bit budget: a truncated field
    /// would misorder events silently.
    fn new(at: SimTime, seq: u64, slot: u32) -> Self {
        assert!(
            seq >> SEQ_BITS == 0,
            "event queue sequence budget exhausted: 2^{SEQ_BITS} events scheduled without a clear()"
        );
        assert!(
            slot >> SLOT_BITS == 0,
            "event queue slot budget exhausted: 2^{SLOT_BITS} events pending at once"
        );
        let low = seq << SLOT_BITS | slot as u64;
        HeapKey((at.as_micros() as u128) << 64 | low as u128)
    }

    fn at(self) -> SimTime {
        SimTime::from_micros((self.0 >> 64) as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32 & ((1 << SLOT_BITS) - 1)
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
    /// A max-heap of reversed keys: the smallest (earliest, then first
    /// scheduled) key is on top.
    heap: BinaryHeap<Reverse<HeapKey>>,
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
        let slot = self.events.insert(event).index();
        self.heap.push(Reverse(HeapKey::new(at, seq, slot)));
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| key.0.at())
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let event = self
            .events
            .remove_at(key.slot())
            .expect("heap key must resolve to a live arena slot");
        Some((key.at(), event))
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

    /// Events scheduled since the queue was created or last
    /// [`clear`](EventQueue::clear)ed: popped or still pending, every one.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
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

    /// Drops all pending events. With nothing left to tie-break against,
    /// the FIFO sequence starts over.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.events.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The queue against the obvious model, a map ordered by (time,
    /// insertion number), step by step.
    #[test]
    fn matches_reference_model_over_seeded_operations() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        // The model's own insertion number never starts over, the queue's
        // does at every clear(): the two must still agree.
        let mut inserted = 0u64;
        let mut peak = 0usize;
        let mut now = 0u64;
        let mut ops = 0u64;
        let mut schedule =
            |q: &mut EventQueue<u64>, model: &mut BTreeMap<_, _>, peak: &mut usize, at: SimTime| {
                q.schedule(at, inserted);
                model.insert((at, inserted), inserted);
                inserted += 1;
                *peak = (*peak).max(model.len());
            };
        for step in 0..100_000u64 {
            let roll: u64 = rng.gen();
            match roll % 100 {
                0..=47 => {
                    let at = match (roll >> 8) % 64 {
                        // A stalled link's arrival.
                        0 => SimTime::MAX,
                        // Ties with whatever else fires "now".
                        1..=8 => SimTime::from_micros(now),
                        _ => SimTime::from_micros(now + (roll >> 16) % 50_000),
                    };
                    schedule(&mut q, &mut model, &mut peak, at);
                }
                48..=67 => {
                    let expected = model.pop_first().map(|((at, _), e)| (at, e));
                    assert_eq!(q.pop(), expected, "pop at step {step}");
                }
                68..=98 => {
                    now += (roll >> 8) % 2_000;
                    let due = SimTime::from_micros(now);
                    let expected = match model.first_key_value() {
                        Some((&(at, _), _)) if at <= due => {
                            model.pop_first().map(|((at, _), e)| (at, e))
                        }
                        _ => None,
                    };
                    assert_eq!(q.pop_due(due), expected, "pop_due at step {step}");
                }
                _ => match (roll >> 8) % 8 {
                    // Slots and sequence numbers are reused from here.
                    0 => {
                        q.clear();
                        model.clear();
                    }
                    // Thousands of events at one instant.
                    1 => {
                        let at = SimTime::from_micros(now + (roll >> 16) % 10_000);
                        for _ in 0..2_500 {
                            schedule(&mut q, &mut model, &mut peak, at);
                            ops += 1;
                        }
                    }
                    _ => {}
                },
            }
            ops += 1;
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.peek_time(), model.keys().next().map(|&(at, _)| at));
            assert_eq!(q.high_water(), peak, "high_water is the deepest ever");
        }
        // Whatever is left comes out in model order too.
        while let Some(((at, _), e)) = model.pop_first() {
            assert_eq!(q.pop(), Some((at, e)));
        }
        assert_eq!(q.pop(), None);
        assert!(ops >= 100_000 && peak >= 2_500, "{ops} ops, peak {peak}");
    }

    #[test]
    fn heap_key_is_sixteen_bytes_and_orders_by_time_then_sequence() {
        assert_eq!(std::mem::size_of::<HeapKey>(), 16);
        assert_eq!(std::mem::size_of::<Reverse<HeapKey>>(), 16);
        let max_seq = (1u64 << SEQ_BITS) - 1;
        let max_slot = (1u32 << SLOT_BITS) - 1;
        // Ascending (time, seq); the slot is chosen to pull the other way.
        let keys = [
            HeapKey::new(SimTime::ZERO, 0, max_slot),
            HeapKey::new(SimTime::ZERO, 1, 0),
            HeapKey::new(SimTime::ZERO, max_seq, 0),
            HeapKey::new(SimTime::from_micros(1), 0, max_slot),
            HeapKey::new(SimTime::MAX, 5, max_slot),
            HeapKey::new(SimTime::MAX, max_seq, 0),
        ];
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let last = keys[5];
        assert_eq!((last.at(), last.slot()), (SimTime::MAX, 0));
        assert_eq!(keys[4].slot(), max_slot);
    }

    #[test]
    #[should_panic(expected = "sequence budget exhausted")]
    fn sequence_past_its_bit_budget_panics() {
        let mut q = EventQueue::new();
        q.next_seq = (1 << SEQ_BITS) - 1;
        q.schedule(t(1), "last that fits");
        q.schedule(t(1), "one too many");
    }

    #[test]
    fn clear_restarts_the_sequence_budget() {
        let mut q = EventQueue::new();
        q.next_seq = (1 << SEQ_BITS) - 1;
        q.schedule(t(1), 1);
        q.clear();
        q.schedule(t(1), 2);
        q.schedule(t(1), 3);
        assert_eq!(q.pop(), Some((t(1), 2)));
        assert_eq!(q.pop(), Some((t(1), 3)));
    }

    #[test]
    #[should_panic(expected = "slot budget exhausted")]
    fn slot_past_its_bit_budget_panics() {
        let _ = HeapKey::new(SimTime::ZERO, 0, 1 << SLOT_BITS);
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
