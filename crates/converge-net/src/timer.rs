//! `TimerWheel`, the name bench-layers' `timer.insert_pop_ns.*` kernels
//! call for an [`EventQueue`]; it goes with them (ROADMAP item 5).

use crate::{event::EventQueue, time::SimTime};

/// An [`EventQueue`] that drains every timer due at once.
///
/// # Examples
///
/// ```
/// use converge_net::{time::SimTime, timer::TimerWheel};
///
/// let mut wheel = TimerWheel::new();
/// wheel.schedule(SimTime::from_millis(40), "rtcp");
/// wheel.schedule(SimTime::from_millis(33), "frame");
/// let mut due = Vec::new();
/// wheel.pop_due_into(SimTime::from_millis(50), &mut due);
/// assert_eq!(due, [(SimTime::from_millis(33), "frame"), (SimTime::from_millis(40), "rtcp")]);
/// ```
#[derive(Debug)]
pub struct TimerWheel<T>(EventQueue<T>);

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel(EventQueue::new())
    }

    /// Schedules `item` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, item: T) {
        self.0.schedule(at, item);
    }

    /// Appends every timer due by `now` to `out`, in `(at, insertion)` order.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        out.extend(std::iter::from_fn(|| self.0.pop_due(now)));
    }
}
