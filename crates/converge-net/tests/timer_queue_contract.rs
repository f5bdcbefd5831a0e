//! The drain-order contract that lets an [`EventQueue`] stand where the
//! fleet's [`TimerWheel`] stood: fed the same schedules, the two hand back
//! the same `(at, item)` sequence at every drain, agree on the next
//! deadline and on how many timers are pending, and report the same
//! high-water mark. The wheel is the reference; this file lives exactly as
//! long as `src/timer.rs` does.
//!
//! A drain is what the fleet's loop does at each instant: the wheel's
//! `pop_due_into(now, ..)` against `pop_due(now)` until it answers `None`,
//! the whole batch taken before any of it is handled.

use converge_net::event::EventQueue;
use converge_net::{SimTime, TimerWheel};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const SCRIPTS: u64 = 2_400;

/// One wheel and one queue driven in lockstep.
struct Pair {
    wheel: TimerWheel<u32>,
    queue: EventQueue<u32>,
    next_item: u32,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: TimerWheel::new(),
            queue: EventQueue::new(),
            next_item: 0,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        self.wheel.schedule(at, self.next_item);
        self.queue.schedule(at, self.next_item);
        self.next_item += 1;
    }

    /// Drains both at `now` and returns the batch they agreed on.
    fn drain(&mut self, now: SimTime, context: &str) -> Vec<(SimTime, u32)> {
        let mut from_wheel = Vec::new();
        self.wheel.pop_due_into(now, &mut from_wheel);
        let from_queue: Vec<_> = std::iter::from_fn(|| self.queue.pop_due(now)).collect();
        assert_eq!(from_queue, from_wheel, "{context}: drain at {now:?}");
        from_queue
    }

    fn assert_same_state(&self, context: &str) {
        assert_eq!(self.queue.len(), self.wheel.len(), "{context}: pending");
        assert_eq!(
            self.queue.peek_time(),
            self.wheel.next_deadline(),
            "{context}: next deadline"
        );
        assert_eq!(
            self.queue.high_water() as u64,
            self.wheel.stats().high_water,
            "{context}: high-water"
        );
    }
}

#[test]
fn event_queue_drains_exactly_as_the_timer_wheel() {
    let (mut drained, mut ties, mut past_due, mut rearmed, mut reused) =
        (0u64, 0u64, 0u64, 0u64, 0);
    // The wheel's two slow paths must be on the scripts' way.
    let (mut cascades, mut overflowed) = (0, 0);
    let mut pair = Pair::new();
    for script in 0..SCRIPTS {
        let mut rng = SmallRng::seed_from_u64(0x71c4 ^ script);
        // Mostly the same pair, cleared, as a shard reuses its own between
        // conferences (the high-water mark survives); sometimes a new one.
        if script % 16 == 0 {
            cascades += pair.wheel.stats().cascades;
            overflowed += pair.wheel.stats().overflowed;
            pair = Pair::new();
        } else {
            pair.wheel.clear();
            pair.queue.clear();
            reused += 1;
        }
        // Both rewind to time zero on `clear`.
        let mut now = 0u64;
        // The farthest a schedule reaches ahead: within one level-0 window
        // of the wheel, across level-1 cascades, or past its ~67 s horizon
        // into the overflow list.
        let reach = [200_000u64, 3_000_000, 150_000_000][(script % 3) as usize];
        for step in 0..rng.gen_range(20..160u32) {
            let context = format!("script {script} step {step}");
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let at = match rng.gen_range(0..16u32) {
                        0..=2 => now,
                        3..=4 => {
                            past_due += 1;
                            now.saturating_sub(rng.gen_range(1..50_000))
                        }
                        5..=7 => now + rng.gen_range(0..2_000),
                        _ => now + rng.gen_range(0..reach),
                    };
                    // Sometimes several at one instant: FIFO among them.
                    let burst = if rng.gen_range(0..8u32) == 0 {
                        rng.gen_range(2..6)
                    } else {
                        1
                    };
                    ties += burst - 1;
                    for _ in 0..burst {
                        pair.schedule(SimTime::from_micros(at));
                    }
                }
                55..=94 => {
                    // Advance (or stay: a second drain at the same instant).
                    now += match rng.gen_range(0..8u32) {
                        0 => 0,
                        1..=5 => rng.gen_range(0..40_000),
                        _ => rng.gen_range(0..reach),
                    };
                    let at = SimTime::from_micros(now);
                    let batch = pair.drain(at, &context);
                    drained += batch.len() as u64;
                    // Handling a tick at `now` may arm another at `now`: it
                    // must come out of the next drain, not be lost to a
                    // cursor that has moved on.
                    if !batch.is_empty() && rng.gen_range(0..3u32) == 0 {
                        for _ in 0..rng.gen_range(1..4u32) {
                            pair.schedule(at);
                            rearmed += 1;
                        }
                        pair.assert_same_state(&context);
                        drained += pair.drain(at, &context).len() as u64;
                    }
                }
                _ => {
                    pair.wheel.clear();
                    pair.queue.clear();
                    now = 0;
                }
            }
            pair.assert_same_state(&context);
        }
        // Whatever is left comes out in the same order too.
        pair.drain(
            SimTime::from_micros(now + 2 * reach),
            &format!("script {script} tail"),
        );
        assert!(
            pair.queue.is_empty() && pair.wheel.is_empty(),
            "script {script}: left over"
        );
    }
    assert!(
        drained > 50_000 && ties > 5_000 && past_due > 5_000 && rearmed > 5_000 && reused > 2_000,
        "{drained} drained, {ties} ties, {past_due} past due, {rearmed} re-armed, {reused} reuses"
    );
    assert!(
        cascades > 10_000 && overflowed > 1_000,
        "{cascades} cascades, {overflowed} overflowed"
    );
}
