//! Active queue management disciplines for the bottleneck queue.
//!
//! The emulated link defaults to drop-tail, but real-time congestion
//! control behaves very differently under AQM (the GCC literature the
//! paper builds on studies exactly this interplay). [`Codel`] implements
//! the controlled-delay algorithm: when packets have been sitting longer
//! than `TARGET` for at least `INTERVAL`, drop, and keep dropping at an
//! increasing rate (`INTERVAL / sqrt(count)`) until sojourn falls below
//! target.

use crate::time::{SimDuration, SimTime};

/// Acceptable standing sojourn time (RFC 8289's default).
const TARGET: SimDuration = SimDuration::from_millis(5);
/// Window over which sojourn must exceed the target before dropping
/// (RFC 8289's default).
const INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Queue discipline of a link's bottleneck queue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum QueueDiscipline {
    /// Plain drop-tail: accept until the byte limit, then drop arrivals.
    DropTail,
    /// CoDel (controlled delay, 5 ms / 100 ms) on top of the byte limit.
    Codel,
}

/// CoDel drop-decision state, consulted by the link at each enqueue with
/// the sojourn time the arriving packet is about to experience.
#[derive(Debug, Clone, Default)]
pub struct Codel {
    /// Start of the current above-target episode.
    first_above_time: Option<SimTime>,
    /// Whether we are in the dropping state.
    dropping: bool,
    /// Drops in the current dropping episode.
    count: u32,
    /// Next scheduled drop time while dropping.
    drop_next: SimTime,
}

impl Codel {
    /// Control-law spacing: `INTERVAL / sqrt(count)`.
    fn control_law(&self, from: SimTime) -> SimTime {
        let spacing = SimDuration::from_micros(
            (INTERVAL.as_micros() as f64 / (self.count.max(1) as f64).sqrt()) as u64,
        );
        from + spacing
    }

    /// Decides the fate of a packet arriving at `now` whose queue sojourn
    /// would be `sojourn`. Returns `true` to drop.
    pub fn should_drop(&mut self, now: SimTime, sojourn: SimDuration) -> bool {
        // Track how long sojourn has continuously exceeded target.
        let ok_to_drop = if sojourn < TARGET {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + INTERVAL);
                    false
                }
                Some(at) => now >= at,
            }
        };

        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                return false;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next = self.control_law(self.drop_next);
                return true;
            }
            false
        } else if ok_to_drop {
            self.dropping = true;
            // Restart near the previous rate if we dropped recently
            // (standard CoDel count carry-over, simplified).
            self.count = if self.count > 2 { self.count - 2 } else { 1 };
            self.drop_next = self.control_law(now);
            // Drop on entry to the dropping state.
            self.count = self.count.max(1);
            true
        } else {
            false
        }
    }

    /// Whether the controller is currently in its dropping state.
    pub fn is_dropping(&self) -> bool {
        self.dropping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codel() -> Codel {
        Codel::default()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn no_drops_below_target() {
        let mut c = codel();
        for i in 0..1_000 {
            assert!(!c.should_drop(t(i), d(2)), "sojourn under target");
        }
        assert!(!c.is_dropping());
    }

    #[test]
    fn transient_burst_tolerated() {
        let mut c = codel();
        // 50 ms of above-target sojourn — shorter than the 100 ms interval.
        for i in 0..50 {
            assert!(!c.should_drop(t(i), d(20)));
        }
        // Sojourn recovers: no drops ever fired.
        for i in 50..200 {
            assert!(!c.should_drop(t(i), d(1)));
        }
    }

    #[test]
    fn persistent_queue_triggers_dropping() {
        let mut c = codel();
        let mut drops = 0;
        for i in 0..1_000 {
            if c.should_drop(t(i), d(50)) {
                drops += 1;
            }
        }
        assert!(drops > 0, "persistent standing queue must drop");
        assert!(c.is_dropping());
    }

    #[test]
    fn drop_rate_escalates() {
        let mut c = codel();
        // Persistently bad queue for 2 s; drops should cluster closer
        // together over time (control law interval/sqrt(count)).
        let mut drop_times = Vec::new();
        for i in 0..2_000 {
            if c.should_drop(t(i), d(50)) {
                drop_times.push(i);
            }
        }
        assert!(drop_times.len() >= 3, "need several drops: {drop_times:?}");
        let first_gap = drop_times[1] - drop_times[0];
        let last_gap = drop_times[drop_times.len() - 1] - drop_times[drop_times.len() - 2];
        assert!(
            last_gap <= first_gap,
            "drop spacing must shrink: first {first_gap} last {last_gap}"
        );
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut c = codel();
        for i in 0..500 {
            c.should_drop(t(i), d(50));
        }
        assert!(c.is_dropping());
        assert!(!c.should_drop(t(500), d(1)));
        assert!(!c.is_dropping());
        // And stays calm afterward.
        for i in 501..600 {
            assert!(!c.should_drop(t(i), d(2)));
        }
    }
}
