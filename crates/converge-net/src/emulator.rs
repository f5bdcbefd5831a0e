//! Multipath network emulator.
//!
//! [`NetworkEmulator`] wires a set of [`Path`]s between two endpoints and
//! stores in-flight payloads so callers work in terms of "send payload on
//! path N, poll for arrivals" rather than raw delivery times. Payloads are
//! generic; the emulator never inspects them.

use crate::event::EventQueue;
use crate::link::Transmit;
use crate::path::{Direction, Path, PathId};
use crate::time::SimTime;

/// A payload delivered by the emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Path the payload travelled on.
    pub path: PathId,
    /// Direction it travelled.
    pub direction: Direction,
    /// Instant it arrived at the far end.
    pub at: SimTime,
    /// Instant it was sent.
    pub sent_at: SimTime,
    /// The payload itself.
    pub payload: P,
}

#[derive(Clone)]
struct InFlight<P> {
    path: PathId,
    direction: Direction,
    sent_at: SimTime,
    payload: P,
}

/// A multipath emulator between two endpoints.
pub struct NetworkEmulator<P> {
    /// Indexed by path id.
    paths: Vec<Path>,
    queue: EventQueue<InFlight<P>>,
}

impl<P> NetworkEmulator<P> {
    /// Creates an emulator over the given paths.
    ///
    /// # Panics
    /// Panics unless path `i` has id `i` (see [`PathId::assert_indexed`]).
    pub fn new(paths: Vec<Path>) -> Self {
        PathId::assert_indexed(paths.iter().map(Path::id));
        NetworkEmulator {
            paths,
            queue: EventQueue::new(),
        }
    }

    /// Number of configured paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Borrows a path by ID.
    pub fn path(&self, id: PathId) -> Option<&Path> {
        self.paths.get(id.index())
    }

    /// Mutably borrows a path by ID.
    pub fn path_mut(&mut self, id: PathId) -> Option<&mut Path> {
        self.paths.get_mut(id.index())
    }

    /// Sends `payload` of `bytes` over `path` in `direction` at `now`,
    /// returning the link's fate for it; a [`Transmit::Delivered`] payload
    /// comes out of a later [`NetworkEmulator::pop_due`].
    ///
    /// On loss the payload is handed back beside the fate so tests can
    /// assert on what was lost. If the link's impairment stage duplicates
    /// the packet, a clone of the payload is scheduled for the copy's
    /// (later) arrival time.
    pub fn send(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        bytes: usize,
        payload: P,
    ) -> (Transmit, Option<P>)
    where
        P: Clone,
    {
        let Some(p) = self.path_mut(path) else {
            panic!("send on unknown {path}");
        };
        let offer = p.offer(direction, now, bytes);
        let sent = InFlight {
            path,
            direction,
            sent_at: now,
            payload,
        };
        match offer.schedule(&mut self.queue, sent) {
            Ok(()) => (offer.fate, None),
            Err(lost) => (offer.fate, Some(lost.payload)),
        }
    }

    /// The arrival time of the next pending delivery, if any.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Removes and returns the earliest pending delivery if it is due at or
    /// before `now`: the one delivery primitive. Arrival order, original
    /// before its duplicate on equal times.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Delivery<P>> {
        let (at, f) = self.queue.pop_due(now)?;
        Some(Delivery {
            path: f.path,
            direction: f.direction,
            at,
            sent_at: f.sent_at,
            payload: f.payload,
        })
    }

    /// Appends every delivery due at or before `now` to `out`, in arrival
    /// order.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) {
        while let Some(delivery) = self.pop_due(now) {
            out.push(delivery);
        }
    }

    /// Whether any payloads remain in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveTrace;
    use crate::link::LinkConfig;
    use crate::time::SimDuration;

    /// Every delivery due at or before `now`, in arrival order.
    fn due<P>(emu: &mut NetworkEmulator<P>, now: SimTime) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        emu.poll_into(now, &mut out);
        out
    }

    fn two_path_emu() -> NetworkEmulator<u32> {
        let fast = LinkConfig {
            trace: DriveTrace::constant(10_000_000, SimDuration::from_millis(10)),
            queue_capacity_bytes: 1_000_000,
            loss: crate::loss::LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: crate::aqm::QueueDiscipline::DropTail,
            seed: 1,
            impairment: crate::impairment::ImpairmentConfig::default(),
        };
        let slow = LinkConfig {
            trace: DriveTrace::constant(1_000_000, SimDuration::from_millis(50)),
            queue_capacity_bytes: 1_000_000,
            loss: crate::loss::LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: crate::aqm::QueueDiscipline::DropTail,
            seed: 2,
            impairment: crate::impairment::ImpairmentConfig::default(),
        };
        NetworkEmulator::new(vec![
            Path::symmetric(PathId(0), fast),
            Path::symmetric(PathId(1), slow),
        ])
    }

    #[test]
    fn delivers_in_arrival_order_across_paths() {
        let mut emu = two_path_emu();
        // Slow path first chronologically, but fast path arrives earlier.
        emu.send(PathId(1), Direction::Forward, SimTime::ZERO, 1250, 11);
        emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 1250, 22);
        let all = due(&mut emu, SimTime::from_secs(1));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].payload, 22); // fast: 1ms + 10ms = 11ms
        assert_eq!(all[1].payload, 11); // slow: 10ms + 50ms = 60ms
        assert_eq!(all[0].at.as_millis(), 11);
        assert_eq!(all[1].at.as_millis(), 60);
    }

    #[test]
    fn poll_only_returns_due_deliveries() {
        let mut emu = two_path_emu();
        emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 1250, 1);
        assert!(due(&mut emu, SimTime::from_millis(5)).is_empty());
        assert_eq!(due(&mut emu, SimTime::from_millis(11)).len(), 1);
        assert!(emu.idle());
    }

    #[test]
    fn lost_payload_returned_to_caller() {
        let cfg = LinkConfig {
            trace: DriveTrace::constant(1_000_000, SimDuration::ZERO),
            queue_capacity_bytes: 1_000,
            loss: crate::loss::LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: crate::aqm::QueueDiscipline::DropTail,
            seed: 1,
            impairment: crate::impairment::ImpairmentConfig::default(),
        };
        let mut emu: NetworkEmulator<&str> =
            NetworkEmulator::new(vec![Path::symmetric(PathId(0), cfg)]);
        emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 1_000, "kept");
        let (outcome, returned) = emu.send(
            PathId(0),
            Direction::Forward,
            SimTime::ZERO,
            1_000,
            "dropped",
        );
        assert_eq!(outcome, Transmit::QueueDrop);
        assert_eq!(returned, Some("dropped"));
        assert!(outcome.is_lost());
    }

    #[test]
    fn reverse_direction_flows_independently() {
        let mut emu = two_path_emu();
        emu.send(PathId(0), Direction::Reverse, SimTime::ZERO, 100, 9);
        let all = due(&mut emu, SimTime::from_secs(1));
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].direction, Direction::Reverse);
        assert_eq!(all[0].sent_at, SimTime::ZERO);
    }

    #[test]
    fn next_arrival_peeks() {
        let mut emu = two_path_emu();
        assert_eq!(emu.next_arrival(), None);
        emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 1250, 1);
        assert_eq!(emu.next_arrival().unwrap().as_millis(), 11);
    }

    #[test]
    #[should_panic(expected = "path0 listed at index 1: path ids must run 0..n in order")]
    fn duplicate_ids_rejected() {
        let cfg = LinkConfig::default();
        let _ = NetworkEmulator::<()>::new(vec![
            Path::symmetric(PathId(0), cfg.clone()),
            Path::symmetric(PathId(0), cfg),
        ]);
    }

    /// Distinct ids are not enough: path `i` must have id `i`, because the
    /// emulator finds a path by indexing with its id.
    #[test]
    #[should_panic(expected = "path2 listed at index 1: path ids must run 0..n in order")]
    fn a_gap_in_the_ids_is_rejected() {
        let cfg = LinkConfig::default();
        let _ = NetworkEmulator::<()>::new(vec![
            Path::symmetric(PathId(0), cfg.clone()),
            Path::symmetric(PathId(2), cfg),
        ]);
    }

    #[test]
    #[should_panic(expected = "unknown path")]
    fn unknown_path_panics() {
        let mut emu = two_path_emu();
        emu.send(PathId(9), Direction::Forward, SimTime::ZERO, 1, 0);
    }

    #[test]
    fn blackout_returns_payload_to_caller() {
        use crate::impairment::{BlackoutSchedule, ImpairmentConfig};
        let cfg = LinkConfig {
            impairment: ImpairmentConfig::blackout(BlackoutSchedule::single(
                SimTime::ZERO,
                SimDuration::from_secs(1),
            )),
            ..LinkConfig::default()
        };
        let mut emu: NetworkEmulator<&str> =
            NetworkEmulator::new(vec![Path::new(PathId(0), cfg, LinkConfig::default())]);
        let (outcome, returned) =
            emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 100, "dark");
        assert_eq!(outcome, Transmit::Blackout);
        assert_eq!(returned, Some("dark"));
        assert!(outcome.is_lost());
        // The reverse direction is unimpaired and still flows.
        let (rev, _) = emu.send(PathId(0), Direction::Reverse, SimTime::ZERO, 100, "fb");
        assert!(!rev.is_lost());
    }

    #[test]
    fn duplicated_payloads_arrive_twice() {
        use crate::impairment::ImpairmentConfig;
        let cfg = LinkConfig {
            impairment: ImpairmentConfig::duplication(1.0, SimDuration::from_millis(3)),
            ..LinkConfig::default()
        };
        let mut emu: NetworkEmulator<u32> =
            NetworkEmulator::new(vec![Path::new(PathId(0), cfg, LinkConfig::default())]);
        let (outcome, _) = emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 100, 7);
        assert!(!outcome.is_lost());
        let all = due(&mut emu, SimTime::from_secs(1));
        assert_eq!(all.len(), 2, "copy must arrive as a second delivery");
        assert_eq!(all[0].payload, 7);
        assert_eq!(all[1].payload, 7);
        assert!(all[0].at <= all[1].at, "original first");
    }

    /// `pop_due` in a loop and `poll_into` are the same primitive: twin
    /// emulators fed one seeded send sequence deliver the same payloads at
    /// the same instants in the same order, duplicates and equal-instant
    /// ties included.
    #[test]
    fn pop_due_loop_matches_poll_into_on_seeded_traffic() {
        use crate::impairment::ImpairmentConfig;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let build = || {
            let link = |seed, impairment| LinkConfig {
                seed,
                impairment,
                ..LinkConfig::default()
            };
            NetworkEmulator::<u32>::new(vec![
                // Half the packets twice, the copy up to 2 ms behind.
                Path::symmetric(
                    PathId(0),
                    link(
                        1,
                        ImpairmentConfig::duplication(0.5, SimDuration::from_millis(2)),
                    ),
                ),
                // Every packet twice at the same instant: a FIFO tie
                // between the original and its copy.
                Path::symmetric(
                    PathId(1),
                    link(2, ImpairmentConfig::duplication(1.0, SimDuration::ZERO)),
                ),
                // Two identical clean paths: same-size packets sent at one
                // instant tie across paths.
                Path::symmetric(PathId(2), link(3, ImpairmentConfig::default())),
                Path::symmetric(PathId(3), link(3, ImpairmentConfig::default())),
            ])
        };
        let (mut batched, mut single) = (build(), build());
        let mut rng = SmallRng::seed_from_u64(0xD1CE);
        let mut now = SimTime::ZERO;
        let (mut delivered, mut ties) = (0usize, 0usize);
        let mut out_batched = Vec::new();
        for n in 0..20_000u32 {
            let roll: u64 = rng.gen();
            now += SimDuration::from_micros(roll % 400);
            let direction = if roll & 1 == 0 {
                Direction::Forward
            } else {
                Direction::Reverse
            };
            let bytes = 100 + (roll >> 8) as usize % 1_200;
            // The clean pair always sends together.
            let paths: &[u8] = match (roll >> 4) % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[2, 3],
            };
            for &p in paths {
                let a = batched.send(PathId(p), direction, now, bytes, n).0;
                let b = single.send(PathId(p), direction, now, bytes, n).0;
                assert_eq!(a, b);
            }
            if (roll >> 32).is_multiple_of(4) {
                out_batched.clear();
                batched.poll_into(now, &mut out_batched);
                let mut out_single = Vec::new();
                while let Some(d) = single.pop_due(now) {
                    out_single.push(d);
                }
                assert_eq!(out_batched, out_single);
                assert_eq!(batched.next_arrival(), single.next_arrival());
                assert_eq!(batched.idle(), single.idle());
                assert!(out_single.windows(2).all(|w| w[0].at <= w[1].at));
                ties += out_single.windows(2).filter(|w| w[0].at == w[1].at).count();
                delivered += out_single.len();
            }
        }
        assert!(
            delivered > 20_000,
            "duplicates must add deliveries: {delivered}"
        );
        assert!(ties > 1_000, "equal-instant deliveries must occur: {ties}");
    }
}
