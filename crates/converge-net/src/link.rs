//! A single emulated unidirectional link.
//!
//! The link models the path a packet takes through one network direction:
//! a drop-tail queue ahead of a rate-shaped bottleneck (bandwidth from a
//! [`RateTrace`]), followed by a fixed propagation delay and a stochastic
//! loss stage. This mirrors the cellmulator-style setups the paper uses for
//! its emulated experiments.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::aqm::{Codel, QueueDiscipline};
use crate::drive::DriveTrace;
use crate::impairment::ImpairmentConfig;
use crate::loss::{LossModel, LossProcess};
use crate::time::{SimDuration, SimTime};
use crate::trace::RateTrace;

/// Static configuration of one link direction.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bottleneck bandwidth over time.
    pub rate: RateTrace,
    /// One-way propagation delay added after the bottleneck.
    pub propagation: SimDuration,
    /// Maximum bytes the bottleneck queue may hold (drop-tail beyond).
    pub queue_capacity_bytes: usize,
    /// Stochastic loss applied after the queue (models air-interface loss).
    pub loss: LossModel,
    /// Maximum random per-packet delay added after the bottleneck
    /// (air-interface scheduling jitter). Drawn uniformly in [0, jitter];
    /// can reorder packets, which multipath receivers must tolerate.
    pub jitter: SimDuration,
    /// Queue discipline at the bottleneck (drop-tail or CoDel).
    pub discipline: QueueDiscipline,
    /// Fault injection for this direction (blackout/flap windows, extra
    /// loss and delay, reordering, duplication). No-op by default.
    pub impairment: ImpairmentConfig,
    /// Seed for this link's private RNG.
    pub seed: u64,
    /// Replayed drive capture. When set it overrides `rate` (bottleneck
    /// serialization), `propagation` (per-packet one-way delay from the
    /// sample in effect at send time), and adds a time-varying Bernoulli
    /// loss stage from the capture's `loss_pct` column. `None` leaves the
    /// static/trace-driven behaviour untouched.
    pub drive: Option<DriveTrace>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            rate: RateTrace::constant(10_000_000),
            propagation: SimDuration::from_millis(25),
            // Roughly one bandwidth-delay product of a 10 Mbps / 100 ms path.
            queue_capacity_bytes: 125_000,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: QueueDiscipline::DropTail,
            impairment: ImpairmentConfig::default(),
            seed: 0,
            drive: None,
        }
    }
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the far end at the given instant.
    Delivered(SimTime),
    /// The packet was dropped by the queue discipline (congestion loss:
    /// drop-tail overflow or a CoDel controlled-delay drop).
    QueueDrop,
    /// The packet was lost by the stochastic loss stage (random loss).
    RandomLoss,
    /// The packet was offered while the link was inside a blackout/flap
    /// window of its [`ImpairmentConfig`] (carrier handover outage).
    Blackout,
}

/// Full outcome of offering one packet through the impairment stage: the
/// primary fate plus the arrival time of a duplicated copy, if the
/// impairment stage produced one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Fate of the packet itself.
    pub fate: Transmit,
    /// Arrival time of the duplicate copy, when one was injected.
    pub duplicate: Option<SimTime>,
}

/// Counters a link keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and delivered.
    pub delivered_pkts: u64,
    /// Bytes accepted and delivered.
    pub delivered_bytes: u64,
    /// Packets dropped at the queue.
    pub queue_drops: u64,
    /// Packets lost stochastically.
    pub random_losses: u64,
    /// Packets dropped inside a blackout/flap window.
    pub blackout_drops: u64,
    /// Packets dropped by the impairment stage's extra loss.
    pub impairment_losses: u64,
    /// Packets the impairment stage duplicated.
    pub duplicated_pkts: u64,
    /// Packets the impairment stage held back past the reorder horizon.
    pub reordered_pkts: u64,
}

/// One stretch of time over which the link's trace holds still: every
/// instant in `[start, end)` sees this rate and, under drive replay, this
/// one-way delay and loss.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: SimTime,
    /// [`SimTime::MAX`] in a drive trace's final hold: it never ends.
    end: SimTime,
    rate_bps: u64,
    /// The drive sample's delay and loss in percent. A rate trace has
    /// neither (the link's are static configuration) and leaves them zero.
    owd: SimDuration,
    loss_pct: f64,
}

impl Segment {
    /// A segment no instant falls in.
    const NONE: Segment = Segment {
        start: SimTime::MAX,
        end: SimTime::ZERO,
        rate_bps: 0,
        owd: SimDuration::ZERO,
        loss_pct: 0.0,
    };

    /// The segment `at` falls in: `self` if it does, else looked up in
    /// `config`'s trace and remembered in `self`.
    fn at(&mut self, config: &LinkConfig, at: SimTime) -> Segment {
        if !(self.start <= at && at < self.end) {
            *self = Segment::lookup(config, at);
        }
        *self
    }

    /// The segment of `config`'s trace that `at` falls in.
    fn lookup(config: &LinkConfig, at: SimTime) -> Segment {
        match &config.drive {
            // Hold semantics: the first sample also covers everything
            // before it, the last one everything after.
            Some(drive) => {
                let samples = drive.samples();
                let after = samples.partition_point(|s| s.at <= at);
                let sample = &samples[after.saturating_sub(1)];
                Segment {
                    start: if after == 0 { SimTime::ZERO } else { sample.at },
                    end: samples.get(after).map_or(SimTime::MAX, |next| next.at),
                    rate_bps: sample.rate_bps,
                    owd: sample.owd,
                    loss_pct: sample.loss_pct,
                }
            }
            // Uniform steps, wrapping past the last.
            None => {
                let step = config.rate.step().as_micros();
                let index = at.as_micros() / step;
                let start = index * step;
                let rates = config.rate.rates();
                Segment {
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(start.saturating_add(step)),
                    rate_bps: rates[index as usize % rates.len()],
                    owd: SimDuration::ZERO,
                    loss_pct: 0.0,
                }
            }
        }
    }
}

/// One unidirectional emulated link.
///
/// Packets are offered with [`Link::transmit`], which immediately returns the
/// packet's fate and (if delivered) its arrival time at the far end. The link
/// tracks the virtual finish time of its bottleneck serializer, so back-to-
/// back packets queue behind each other; queue occupancy is derived from the
/// serializer backlog.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    loss: LossProcess,
    stages: Stages,
    rng: SmallRng,
    /// Virtual time at which the bottleneck finishes the last accepted packet.
    busy_until: SimTime,
    /// Bytes currently queued (not yet through the bottleneck), tracked as
    /// (finish_time, bytes) pairs pruned lazily.
    in_flight: std::collections::VecDeque<(SimTime, usize)>,
    queued_bytes: usize,
    stats: LinkStats,
    /// The trace segments the last packet was sent in (drive replay reads
    /// its loss and delay there) and finished serializing in. Packets
    /// arrive far more often than the trace changes and both instants only
    /// move forward, so nearly every lookup is a range check against
    /// these and a segment is searched for once; a queue's worth apart,
    /// the two would evict each other from a single slot. A trace is a
    /// pure function of time, so which lookups were answered from here
    /// never shows in a result.
    sending: Segment,
    serializing: Segment,
}

/// Which of [`Link::offer`]'s stages a link consults, fixed by its
/// configuration (and kept in one field: a link is built per path and
/// direction, and its size is a gated construction cost).
#[derive(Debug, Clone)]
enum Stages {
    /// Drop-tail with no loss, jitter, impairment or drive trace: the byte
    /// limit is the only stage that can refuse a packet and none draws
    /// from the RNG.
    Quiet,
    /// Every stage, behind a drop-tail queue.
    DropTail,
    /// Every stage, with CoDel deciding on top of the byte limit.
    Codel(Codel),
}

impl Link {
    /// Creates a link from a configuration.
    pub fn new(config: LinkConfig) -> Self {
        let loss = LossProcess::new(config.loss.clone());
        let rng = SmallRng::seed_from_u64(config.seed);
        let quiet = config.drive.is_none()
            && config.impairment.is_noop()
            && config.jitter == SimDuration::ZERO
            && matches!(config.loss, LossModel::None);
        let stages = match config.discipline {
            QueueDiscipline::DropTail if quiet => Stages::Quiet,
            QueueDiscipline::DropTail => Stages::DropTail,
            QueueDiscipline::Codel { target, interval } => {
                Stages::Codel(Codel::new(target, interval))
            }
        };
        Link {
            config,
            loss,
            stages,
            rng,
            busy_until: SimTime::ZERO,
            in_flight: std::collections::VecDeque::new(),
            queued_bytes: 0,
            stats: LinkStats::default(),
            sending: Segment::NONE,
            serializing: Segment::NONE,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replaces the bandwidth trace (e.g. to switch scenarios mid-run).
    pub fn set_rate(&mut self, rate: RateTrace) {
        self.config.rate = rate;
        self.sending = Segment::NONE;
        self.serializing = Segment::NONE;
    }

    /// The instantaneous bottleneck rate at `now`, bits per second.
    pub fn rate_at(&self, now: SimTime) -> u64 {
        match &self.config.drive {
            Some(drive) => drive.rate_at(now),
            None => self.config.rate.rate_at(now),
        }
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.config.propagation
    }

    /// Bytes currently waiting in or being serialized by the bottleneck.
    pub fn backlog_bytes(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.queued_bytes
    }

    /// Queuing delay a newly arriving packet would currently experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Accumulated behaviour counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Offers one packet of `bytes` to the link at time `now`, returning
    /// just the primary fate. Equivalent to [`Link::offer`] with any
    /// injected duplicate discarded.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> Transmit {
        self.offer(now, bytes).fate
    }

    /// Offers one packet of `bytes` to the link at time `now`.
    ///
    /// Returns the fate of the packet plus any impairment-injected
    /// duplicate. Delivery time accounts for queuing behind previously
    /// accepted packets, serialization at the (possibly time-varying)
    /// bottleneck rate, propagation delay, and the impairment stage
    /// (reorder hold-back and fixed extra delay).
    ///
    /// Offers in non-decreasing `now` order are the caller's precondition;
    /// nothing here checks it. Serialization starts at
    /// `busy_until.max(now)`, so a packet offered with an earlier `now`
    /// queues behind everything already accepted.
    pub fn offer(&mut self, now: SimTime, bytes: usize) -> Offer {
        use rand::Rng;
        self.prune(now);
        // A quiet link (an SFU's two, offered every fan-out copy) has one
        // stage that can act, the byte limit; the others are not consulted.
        if matches!(self.stages, Stages::Quiet) {
            let fate = if self.queued_bytes + bytes > self.config.queue_capacity_bytes {
                self.stats.queue_drops += 1;
                Transmit::QueueDrop
            } else {
                Transmit::Delivered(self.accept(now, bytes) + self.config.propagation)
            };
            return Offer { fate, duplicate: None };
        }
        let imp = self.config.impairment;
        // Under drive replay the one-way delay tracks the sample in effect
        // at send time (handover OWD spikes) and so does a loss stage;
        // otherwise the delay is static and the stage absent.
        let (drive_loss_pct, propagation) = match self.config.drive {
            Some(_) => {
                let sample = self.sending.at(&self.config, now);
                (sample.loss_pct, sample.owd)
            }
            None => (0.0, self.config.propagation),
        };

        // Blackout/flap windows: the radio is simply off. Checked before
        // the queue — a dark link accepts nothing.
        if let Some(blackout) = imp.blackout {
            if blackout.contains(now) {
                self.stats.blackout_drops += 1;
                return Offer {
                    fate: Transmit::Blackout,
                    duplicate: None,
                };
            }
        }

        // Impairment extra loss (e.g. a starved feedback channel),
        // independent of the base loss model below.
        if imp.loss > 0.0 && self.rng.gen_bool(imp.loss.clamp(0.0, 1.0)) {
            self.stats.impairment_losses += 1;
            return Offer {
                fate: Transmit::RandomLoss,
                duplicate: None,
            };
        }

        // Byte-limit check (applies under every discipline).
        if self.queued_bytes + bytes > self.config.queue_capacity_bytes {
            self.stats.queue_drops += 1;
            return Offer {
                fate: Transmit::QueueDrop,
                duplicate: None,
            };
        }

        // CoDel: consult the controller with the sojourn this packet is
        // about to experience (current backlog drain time).
        if let Stages::Codel(codel) = &mut self.stages {
            let sojourn = self.busy_until.saturating_since(now);
            if codel.should_drop(now, sojourn) {
                self.stats.queue_drops += 1;
                return Offer {
                    fate: Transmit::QueueDrop,
                    duplicate: None,
                };
            }
        }

        // Stochastic loss stage. Applied on entry for simplicity; the
        // bandwidth it would have consumed is not charged, approximating
        // loss on the air interface after the bottleneck.
        if self.loss.should_drop(&mut self.rng) {
            self.stats.random_losses += 1;
            return Offer {
                fate: Transmit::RandomLoss,
                duplicate: None,
            };
        }

        // Drive-replay loss: a time-varying Bernoulli stage from the
        // capture's loss column. Guarded so loss-free segments make zero
        // RNG draws and leave the jitter/reorder streams untouched.
        let p = (drive_loss_pct / 100.0).clamp(0.0, 1.0);
        if p > 0.0 && self.rng.gen_bool(p) {
            self.stats.random_losses += 1;
            return Offer {
                fate: Transmit::RandomLoss,
                duplicate: None,
            };
        }

        let finish = self.accept(now, bytes);
        let jitter = if self.config.jitter > SimDuration::ZERO {
            SimDuration::from_micros(self.rng.gen_range(0..=self.config.jitter.as_micros()))
        } else {
            SimDuration::ZERO
        };

        // Impairment reorder stage: hold selected packets back well past
        // the jitter bound so they land behind later packets.
        let holdback = if imp.reorder_prob > 0.0
            && imp.reorder_horizon > SimDuration::ZERO
            && self.rng.gen_bool(imp.reorder_prob.clamp(0.0, 1.0))
        {
            self.stats.reordered_pkts += 1;
            SimDuration::from_micros(self.rng.gen_range(1..=imp.reorder_horizon.as_micros()))
        } else {
            SimDuration::ZERO
        };

        let deliver = finish + propagation + jitter + holdback + imp.delay;

        // Impairment duplication stage: the copy trails the original.
        let duplicate = if imp.duplicate_prob > 0.0
            && self.rng.gen_bool(imp.duplicate_prob.clamp(0.0, 1.0))
        {
            self.stats.duplicated_pkts += 1;
            let lag = if imp.duplicate_spread > SimDuration::ZERO {
                SimDuration::from_micros(self.rng.gen_range(0..=imp.duplicate_spread.as_micros()))
            } else {
                SimDuration::ZERO
            };
            Some(deliver + lag)
        } else {
            None
        };

        Offer {
            fate: Transmit::Delivered(deliver),
            duplicate,
        }
    }

    /// Queues an accepted packet behind the bottleneck and returns when it
    /// clears it: serialized from `busy_until.max(now)`, honouring rate
    /// changes at trace segment boundaries.
    fn accept(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let finish = self.serialize_from(self.busy_until.max(now), bytes);
        self.busy_until = finish;
        self.in_flight.push_back((finish, bytes));
        self.queued_bytes += bytes;
        self.stats.delivered_pkts += 1;
        self.stats.delivered_bytes += bytes as u64;
        finish
    }

    /// Computes when `bytes` finish serializing if started at `start`,
    /// walking trace segments as the rate changes. A rate trace wraps, so
    /// a stalled link may recover and the walk gives up
    /// ([`SimTime::MAX`]) only after a full lap of zero-rate segments; a
    /// drive trace holds its last sample forever, so inside that hold a
    /// zero rate is a stall for good and a positive one finishes there.
    fn serialize_from(&mut self, start: SimTime, bytes: usize) -> SimTime {
        let mut remaining_bits = bytes as u128 * 8;
        let mut t = start;
        let mut zero_segments = 0usize;
        let lap = match self.config.drive {
            Some(_) => usize::MAX,
            None => self.config.rate.rates().len() + 1,
        };
        while remaining_bits > 0 {
            let segment = self.serializing.at(&self.config, t);
            let forever = segment.end == SimTime::MAX;
            if segment.rate_bps == 0 {
                zero_segments += 1;
                if forever || zero_segments > lap {
                    return SimTime::MAX;
                }
                t = segment.end;
                continue;
            }
            zero_segments = 0;
            // The rest fits in this segment if the bits the segment can
            // push, `rate × µs / 10⁶` rounded down, are no fewer than the
            // bits left: for whole numbers of bits that is this product
            // compare, with no division.
            let window_us = segment.end.saturating_since(t).as_micros();
            let capacity = segment.rate_bps as u128 * window_us as u128;
            let needed = remaining_bits * 1_000_000;
            if forever || capacity >= needed {
                let us = match u64::try_from(needed) {
                    Ok(needed) => needed.div_ceil(segment.rate_bps),
                    Err(_) => needed.div_ceil(segment.rate_bps as u128) as u64,
                };
                return t + SimDuration::from_micros(us);
            }
            remaining_bits -= capacity / 1_000_000;
            t = segment.end;
        }
        t
    }

    /// Forgets packets that have cleared the bottleneck by `now`.
    fn prune(&mut self, now: SimTime) {
        while let Some(&(finish, bytes)) = self.in_flight.front() {
            if finish <= now {
                self.in_flight.pop_front();
                self.queued_bytes -= bytes;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_cfg(rate_bps: u64, prop_ms: u64, queue: usize) -> LinkConfig {
        LinkConfig {
            rate: RateTrace::constant(rate_bps),
            propagation: SimDuration::from_millis(prop_ms),
            queue_capacity_bytes: queue,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: QueueDiscipline::DropTail,
            seed: 1,
            impairment: ImpairmentConfig::default(),
            drive: None,
        }
    }

    fn drive(samples: Vec<(u64, u64, u64, f64)>) -> DriveTrace {
        DriveTrace::new(
            samples
                .into_iter()
                .map(|(t_ms, rate, owd_ms, loss)| crate::drive::DriveSample {
                    at: SimTime::from_millis(t_ms),
                    rate_bps: rate,
                    owd: SimDuration::from_millis(owd_ms),
                    loss_pct: loss,
                })
                .collect(),
        )
        .expect("valid drive")
    }

    #[test]
    fn single_packet_delay_is_serialization_plus_propagation() {
        // 1250 bytes at 10 Mbps = 1 ms serialization; +20 ms propagation.
        let mut l = Link::new(link_cfg(10_000_000, 20, 100_000));
        match l.transmit(SimTime::ZERO, 1250) {
            Transmit::Delivered(at) => assert_eq!(at.as_millis(), 21),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = Link::new(link_cfg(10_000_000, 0, 1_000_000));
        let a = l.transmit(SimTime::ZERO, 1250);
        let b = l.transmit(SimTime::ZERO, 1250);
        assert_eq!(a, Transmit::Delivered(SimTime::from_millis(1)));
        assert_eq!(b, Transmit::Delivered(SimTime::from_millis(2)));
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = Link::new(link_cfg(10_000_000, 0, 1_000_000));
        l.transmit(SimTime::ZERO, 1250);
        assert_eq!(l.backlog_bytes(SimTime::ZERO), 1250);
        assert_eq!(l.backlog_bytes(SimTime::from_millis(1)), 0);
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut l = Link::new(link_cfg(1_000_000, 0, 2_500));
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1250),
            Transmit::Delivered(_)
        ));
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1250),
            Transmit::Delivered(_)
        ));
        assert_eq!(l.transmit(SimTime::ZERO, 1250), Transmit::QueueDrop);
        assert_eq!(l.stats().queue_drops, 1);
    }

    #[test]
    fn random_loss_drops_some_packets() {
        let mut cfg = link_cfg(100_000_000, 0, 10_000_000);
        cfg.loss = LossModel::bernoulli_percent(50.0);
        let mut l = Link::new(cfg);
        let mut lost = 0;
        for i in 0..1000 {
            if l.transmit(SimTime::from_millis(i), 100) == Transmit::RandomLoss {
                lost += 1;
            }
        }
        assert!((300..700).contains(&lost), "lost {lost}");
        assert_eq!(l.stats().random_losses, lost);
    }

    #[test]
    fn rate_change_mid_packet_respected() {
        // 1 Mbps for 1 s then 10 Mbps. A 250-byte packet sent at t=999.5ms:
        // 0.5ms at 1Mbps pushes 500 bits; remaining 1500 bits at 10 Mbps
        // takes 150 us. Finish = 1000ms + 150us = 1000.15 ms.
        let trace = RateTrace::new(SimDuration::from_secs(1), vec![1_000_000, 10_000_000]);
        let mut cfg = link_cfg(0, 0, 1_000_000);
        cfg.rate = trace;
        let mut l = Link::new(cfg);
        match l.transmit(SimTime::from_micros(999_500), 250) {
            Transmit::Delivered(at) => assert_eq!(at.as_micros(), 1_000_150),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_rate_trace_stalls_forever() {
        let mut cfg = link_cfg(0, 0, 1_000_000);
        cfg.rate = RateTrace::constant(0);
        let mut l = Link::new(cfg);
        match l.transmit(SimTime::ZERO, 100) {
            Transmit::Delivered(at) => assert_eq!(at, SimTime::MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut l = Link::new(link_cfg(10_000_000, 0, 1_000_000));
        assert_eq!(l.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        l.transmit(SimTime::ZERO, 12_500); // 10 ms of serialization
        assert_eq!(l.queue_delay(SimTime::ZERO).as_millis(), 10);
        assert_eq!(l.queue_delay(SimTime::from_millis(4)).as_millis(), 6);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Link::new(link_cfg(10_000_000, 0, 1_000_000));
        l.transmit(SimTime::ZERO, 100);
        l.transmit(SimTime::ZERO, 200);
        let s = l.stats();
        assert_eq!(s.delivered_pkts, 2);
        assert_eq!(s.delivered_bytes, 300);
    }

    #[test]
    fn jitter_spreads_delivery_times() {
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.jitter = SimDuration::from_millis(20);
        let mut l = Link::new(cfg);
        let mut extras = Vec::new();
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 10);
            if let Transmit::Delivered(at) = l.transmit(now, 100) {
                // serialization is ~8 us at 100 Mbps; extra over prop is jitter.
                extras.push(
                    at.saturating_since(now + SimDuration::from_millis(10))
                        .as_micros(),
                );
            }
        }
        let min = *extras.iter().min().unwrap();
        let max = *extras.iter().max().unwrap();
        assert!(
            max > 10_000,
            "some packets should see >10 ms jitter: max {max}"
        );
        assert!(
            min < 5_000,
            "some packets should see little jitter: min {min}"
        );
    }

    #[test]
    fn jitter_can_reorder_deliveries() {
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.jitter = SimDuration::from_millis(30);
        let mut l = Link::new(cfg);
        let mut times = Vec::new();
        for i in 0..100u64 {
            if let Transmit::Delivered(at) = l.transmit(SimTime::from_millis(i * 5), 100) {
                times.push(at);
            }
        }
        assert!(
            times.windows(2).any(|w| w[1] < w[0]),
            "30 ms jitter on 5 ms spacing must reorder sometimes"
        );
    }

    #[test]
    fn codel_discipline_bounds_standing_queue() {
        // Offer 2x the link rate continuously; drop-tail holds the queue
        // pinned at the byte limit, CoDel caps the standing delay instead.
        let run = |discipline: QueueDiscipline| -> (u64, SimDuration) {
            let mut cfg = link_cfg(5_000_000, 10, 10_000_000);
            cfg.discipline = discipline;
            let mut l = Link::new(cfg);
            // 2x offered load for 20 s: one 1250 B packet per ms. CoDel's
            // control law (interval/sqrt(count)) needs time to escalate to
            // a large overload, so the horizon must be generous.
            for i in 0..20_000u64 {
                let _ = l.transmit(SimTime::from_millis(i), 1250);
            }
            let drops = l.stats().queue_drops;
            let delay = l.queue_delay(SimTime::from_millis(20_000));
            (drops, delay)
        };
        let (dt_drops, dt_delay) = run(QueueDiscipline::DropTail);
        let (codel_drops, codel_delay) = run(QueueDiscipline::codel_default());
        assert!(
            codel_drops > dt_drops,
            "CoDel must shed load before the byte limit"
        );
        assert!(
            codel_delay < dt_delay / 2,
            "CoDel standing delay {codel_delay} must be well below drop-tail {dt_delay}"
        );
        assert!(
            codel_delay < SimDuration::from_secs(5),
            "CoDel bounds the standing queue: {codel_delay}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut cfg = link_cfg(5_000_000, 10, 50_000);
            cfg.loss = LossModel::bernoulli_percent(10.0);
            let mut l = Link::new(cfg);
            (0..500)
                .map(|i| l.transmit(SimTime::from_micros(i * 200), 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn blackout_window_delivers_nothing() {
        use crate::impairment::BlackoutSchedule;
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.impairment = ImpairmentConfig::blackout(BlackoutSchedule::single(
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
        ));
        let mut l = Link::new(cfg);
        let mut dark = 0u64;
        for i in 0..400u64 {
            let now = SimTime::from_millis(i * 10); // 0..4 s
            let offer = l.offer(now, 500);
            let in_window = (1_000..3_000).contains(&now.as_millis());
            if in_window {
                assert_eq!(offer.fate, Transmit::Blackout, "t={now}");
                assert!(offer.duplicate.is_none());
                dark += 1;
            } else {
                assert!(matches!(offer.fate, Transmit::Delivered(_)), "t={now}");
            }
        }
        assert_eq!(l.stats().blackout_drops, dark);
        assert_eq!(dark, 200);
    }

    #[test]
    fn reorder_holdback_shuffles_but_preserves_packets() {
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.impairment = ImpairmentConfig::reordering(0.3, SimDuration::from_millis(50));
        let mut l = Link::new(cfg);
        let mut times = Vec::new();
        for i in 0..500u64 {
            match l.offer(SimTime::from_millis(i * 5), 100).fate {
                Transmit::Delivered(at) => times.push(at),
                other => panic!("no-loss link must deliver, got {other:?}"),
            }
        }
        assert_eq!(times.len(), 500, "reordering must not lose packets");
        assert!(
            times.windows(2).any(|w| w[1] < w[0]),
            "50 ms holdback on 5 ms spacing must reorder"
        );
        assert!(l.stats().reordered_pkts > 50);
        assert!(l.stats().reordered_pkts < 250);
    }

    #[test]
    fn duplicates_trail_their_original() {
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.impairment = ImpairmentConfig::duplication(0.5, SimDuration::from_millis(5));
        let mut l = Link::new(cfg);
        let mut dups = 0u64;
        for i in 0..400u64 {
            let offer = l.offer(SimTime::from_millis(i * 10), 100);
            let Transmit::Delivered(primary) = offer.fate else {
                panic!("no-loss link must deliver");
            };
            if let Some(copy) = offer.duplicate {
                assert!(copy >= primary, "copy {copy} must not beat original {primary}");
                assert!(copy <= primary + SimDuration::from_millis(5));
                dups += 1;
            }
        }
        assert!((120..280).contains(&dups), "dup count {dups}");
        assert_eq!(l.stats().duplicated_pkts, dups);
    }

    #[test]
    fn impairment_loss_and_delay_compose() {
        let mut cfg = link_cfg(100_000_000, 10, 10_000_000);
        cfg.impairment = ImpairmentConfig::degraded(0.4, SimDuration::from_millis(30));
        let mut l = Link::new(cfg);
        let mut lost = 0u64;
        for i in 0..1000u64 {
            let now = SimTime::from_millis(i * 10);
            match l.offer(now, 100).fate {
                Transmit::RandomLoss => lost += 1,
                Transmit::Delivered(at) => {
                    // serialization is 8 us at 100 Mbps; prop 10 ms + extra 30 ms.
                    assert!(at >= now + SimDuration::from_millis(40));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((250..550).contains(&lost), "lost {lost}");
        assert_eq!(l.stats().impairment_losses, lost);
        assert_eq!(l.stats().random_losses, 0);
    }

    #[test]
    fn noop_impairment_preserves_rng_stream() {
        // A default ImpairmentConfig must make zero RNG draws so existing
        // seeded scenarios stay bit-identical.
        let run = |imp: ImpairmentConfig| {
            let mut cfg = link_cfg(5_000_000, 10, 50_000);
            cfg.loss = LossModel::bernoulli_percent(10.0);
            cfg.jitter = SimDuration::from_millis(5);
            cfg.impairment = imp;
            let mut l = Link::new(cfg);
            (0..500)
                .map(|i| l.transmit(SimTime::from_micros(i * 200), 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(ImpairmentConfig::default()), run(ImpairmentConfig::default()));
        // And a no-op schedule outside the horizon changes nothing either.
        let past = ImpairmentConfig::blackout(crate::impairment::BlackoutSchedule::single(
            SimTime::MAX,
            SimDuration::from_micros(1),
        ));
        assert_eq!(run(ImpairmentConfig::default()), run(past));
    }

    #[test]
    fn drive_overrides_rate_owd_and_survives_gaps() {
        // 10 Mbps / 40 ms, then a 2 s coverage gap (rate 0, OWD inflated),
        // then recovery at 20 Mbps / 30 ms.
        let mut cfg = link_cfg(999, 999, 10_000_000);
        cfg.drive = Some(drive(vec![
            (0, 10_000_000, 40, 0.0),
            (1_000, 0, 120, 0.0),
            (3_000, 20_000_000, 30, 0.0),
        ]));
        let mut l = Link::new(cfg);
        // 1250 B at 10 Mbps = 1 ms serialization, +40 ms drive OWD; the
        // static `rate`/`propagation` fields (garbage here) are ignored.
        match l.transmit(SimTime::ZERO, 1250) {
            Transmit::Delivered(at) => assert_eq!(at.as_millis(), 41),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.rate_at(SimTime::from_millis(1_500)), 0);
        // A packet offered inside the gap serializes only once coverage
        // returns at t=3 s (finish 3 s + 500 us at 20 Mbps) and carries the
        // in-gap OWD of 120 ms from its send instant.
        match l.transmit(SimTime::from_millis(2_000), 1250) {
            Transmit::Delivered(at) => assert_eq!(at.as_micros(), 3_000_500 + 120_000),
            other => panic!("unexpected {other:?}"),
        }
        // After the gap the link is NOT wedged: recovery rate and OWD apply.
        match l.transmit(SimTime::from_millis(4_000), 1250) {
            Transmit::Delivered(at) => assert_eq!(at.as_micros(), 4_000_500 + 30_000),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drive_zero_rate_final_hold_stalls_forever() {
        let mut cfg = link_cfg(10_000_000, 10, 1_000_000);
        cfg.drive = Some(drive(vec![(0, 5_000_000, 20, 0.0), (1_000, 0, 20, 0.0)]));
        let mut l = Link::new(cfg);
        match l.transmit(SimTime::from_secs(2), 100) {
            Transmit::Delivered(at) => assert_eq!(at, SimTime::MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drive_loss_column_drops_packets_only_in_lossy_segments() {
        // 50% loss for the first second, clean afterwards.
        let mut cfg = link_cfg(999, 999, 10_000_000);
        cfg.drive = Some(drive(vec![
            (0, 100_000_000, 10, 50.0),
            (1_000, 100_000_000, 10, 0.0),
        ]));
        let mut l = Link::new(cfg);
        let mut lost_early = 0u64;
        for i in 0..500u64 {
            if l.transmit(SimTime::from_micros(i * 2_000), 100) == Transmit::RandomLoss {
                lost_early += 1;
            }
        }
        assert!((150..350).contains(&lost_early), "lost {lost_early}");
        let mut lost_late = 0u64;
        for i in 0..500u64 {
            let now = SimTime::from_millis(1_000) + SimDuration::from_micros(i * 2_000);
            if l.transmit(now, 100) == Transmit::RandomLoss {
                lost_late += 1;
            }
        }
        assert_eq!(lost_late, 0, "clean segment must not drop");
        assert_eq!(l.stats().random_losses, lost_early);
    }

    #[test]
    fn drive_link_is_deterministic_given_seed() {
        let run = || {
            let mut cfg = link_cfg(999, 999, 50_000);
            cfg.jitter = SimDuration::from_millis(5);
            cfg.drive = Some(drive(vec![
                (0, 8_000_000, 30, 2.0),
                (2_000, 500_000, 90, 8.0),
                (4_000, 12_000_000, 25, 0.0),
            ]));
            let mut l = Link::new(cfg);
            (0..2_000)
                .map(|i| l.transmit(SimTime::from_micros(i * 3_000), 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn impaired_link_is_deterministic_given_seed() {
        use crate::impairment::BlackoutSchedule;
        let run = || {
            let mut cfg = link_cfg(5_000_000, 10, 50_000);
            cfg.loss = LossModel::bernoulli_percent(5.0);
            cfg.impairment = ImpairmentConfig {
                loss: 0.05,
                delay: SimDuration::from_millis(2),
                reorder_prob: 0.2,
                reorder_horizon: SimDuration::from_millis(40),
                duplicate_prob: 0.1,
                duplicate_spread: SimDuration::from_millis(5),
                blackout: Some(BlackoutSchedule::flapping(
                    SimTime::from_millis(20),
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(50),
                )),
            };
            let mut l = Link::new(cfg);
            (0..500)
                .map(|i| l.offer(SimTime::from_micros(i * 200), 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The link as it stood: four trace lookups per packet and one
    /// serialization walk for rate traces, another for drive traces.
    struct RefLink {
        config: LinkConfig,
        loss: LossProcess,
        codel: Option<Codel>,
        rng: SmallRng,
        /// Virtual time at which the bottleneck finishes the last accepted packet.
        busy_until: SimTime,
        /// Bytes currently queued (not yet through the bottleneck), tracked as
        /// (finish_time, bytes) pairs pruned lazily.
        in_flight: std::collections::VecDeque<(SimTime, usize)>,
        queued_bytes: usize,
        stats: LinkStats,
    }

    impl RefLink {
        /// Creates a link from a configuration.
        fn new(config: LinkConfig) -> Self {
            let loss = LossProcess::new(config.loss.clone());
            let rng = SmallRng::seed_from_u64(config.seed);
            let codel = match config.discipline {
                QueueDiscipline::DropTail => None,
                QueueDiscipline::Codel { target, interval } => Some(Codel::new(target, interval)),
            };
            RefLink {
                config,
                loss,
                codel,
                rng,
                busy_until: SimTime::ZERO,
                in_flight: std::collections::VecDeque::new(),
                queued_bytes: 0,
                stats: LinkStats::default(),
            }
        }

        /// Replaces the bandwidth trace (e.g. to switch scenarios mid-run).
        fn set_rate(&mut self, rate: RateTrace) {
            self.config.rate = rate;
        }

        /// Accumulated behaviour counters.
        fn stats(&self) -> LinkStats {
            self.stats
        }

        fn offer(&mut self, now: SimTime, bytes: usize) -> Offer {
            use rand::Rng;
            self.prune(now);
            let imp = self.config.impairment;

            // Blackout/flap windows: the radio is simply off. Checked before
            // the queue — a dark link accepts nothing.
            if let Some(blackout) = imp.blackout {
                if blackout.contains(now) {
                    self.stats.blackout_drops += 1;
                    return Offer {
                        fate: Transmit::Blackout,
                        duplicate: None,
                    };
                }
            }

            // Impairment extra loss (e.g. a starved feedback channel),
            // independent of the base loss model below.
            if imp.loss > 0.0 && self.rng.gen_bool(imp.loss.clamp(0.0, 1.0)) {
                self.stats.impairment_losses += 1;
                return Offer {
                    fate: Transmit::RandomLoss,
                    duplicate: None,
                };
            }

            // Byte-limit check (applies under every discipline).
            if self.queued_bytes + bytes > self.config.queue_capacity_bytes {
                self.stats.queue_drops += 1;
                return Offer {
                    fate: Transmit::QueueDrop,
                    duplicate: None,
                };
            }

            // CoDel: consult the controller with the sojourn this packet is
            // about to experience (current backlog drain time).
            if let Some(codel) = &mut self.codel {
                let sojourn = self.busy_until.saturating_since(now);
                if codel.should_drop(now, sojourn) {
                    self.stats.queue_drops += 1;
                    return Offer {
                        fate: Transmit::QueueDrop,
                        duplicate: None,
                    };
                }
            }

            // Stochastic loss stage. Applied on entry for simplicity; the
            // bandwidth it would have consumed is not charged, approximating
            // loss on the air interface after the bottleneck.
            if self.loss.should_drop(&mut self.rng) {
                self.stats.random_losses += 1;
                return Offer {
                    fate: Transmit::RandomLoss,
                    duplicate: None,
                };
            }

            // Drive-replay loss: a time-varying Bernoulli stage from the
            // capture's loss column. Guarded so loss-free segments make zero
            // RNG draws and leave the jitter/reorder streams untouched.
            if let Some(drive) = &self.config.drive {
                let p = (drive.loss_at(now) / 100.0).clamp(0.0, 1.0);
                if p > 0.0 && self.rng.gen_bool(p) {
                    self.stats.random_losses += 1;
                    return Offer {
                        fate: Transmit::RandomLoss,
                        duplicate: None,
                    };
                }
            }

            // Serialize through the bottleneck, honouring rate changes at trace
            // segment boundaries.
            let start = self.busy_until.max(now);
            let finish = self.serialize_from(start, bytes);
            self.busy_until = finish;
            self.in_flight.push_back((finish, bytes));
            self.queued_bytes += bytes;

            self.stats.delivered_pkts += 1;
            self.stats.delivered_bytes += bytes as u64;
            let jitter = if self.config.jitter > SimDuration::ZERO {
                SimDuration::from_micros(self.rng.gen_range(0..=self.config.jitter.as_micros()))
            } else {
                SimDuration::ZERO
            };

            // Impairment reorder stage: hold selected packets back well past
            // the jitter bound so they land behind later packets.
            let holdback = if imp.reorder_prob > 0.0
                && imp.reorder_horizon > SimDuration::ZERO
                && self.rng.gen_bool(imp.reorder_prob.clamp(0.0, 1.0))
            {
                self.stats.reordered_pkts += 1;
                SimDuration::from_micros(self.rng.gen_range(1..=imp.reorder_horizon.as_micros()))
            } else {
                SimDuration::ZERO
            };

            // Under drive replay the one-way delay tracks the sample in effect
            // at send time (handover OWD spikes); otherwise it is static.
            let propagation = match &self.config.drive {
                Some(drive) => drive.owd_at(now),
                None => self.config.propagation,
            };
            let deliver = finish + propagation + jitter + holdback + imp.delay;

            // Impairment duplication stage: the copy trails the original.
            let duplicate = if imp.duplicate_prob > 0.0
                && self.rng.gen_bool(imp.duplicate_prob.clamp(0.0, 1.0))
            {
                self.stats.duplicated_pkts += 1;
                let lag = if imp.duplicate_spread > SimDuration::ZERO {
                    SimDuration::from_micros(
                        self.rng.gen_range(0..=imp.duplicate_spread.as_micros()),
                    )
                } else {
                    SimDuration::ZERO
                };
                Some(deliver + lag)
            } else {
                None
            };

            Offer {
                fate: Transmit::Delivered(deliver),
                duplicate,
            }
        }

        /// Computes when `bytes` finish serializing if started at `start`,
        /// walking trace segments as the rate changes.
        fn serialize_from(&self, start: SimTime, bytes: usize) -> SimTime {
            if let Some(drive) = &self.config.drive {
                return Self::serialize_over_drive(drive, start, bytes);
            }
            let mut remaining_bits = bytes as u128 * 8;
            let mut t = start;
            // Bound the walk: if the link is stalled (rate 0) for the entire
            // trace, bail out with a far-future finish time.
            let mut zero_segments = 0usize;
            let max_zero = self.config.rate.rates().len() + 1;
            while remaining_bits > 0 {
                let rate = self.config.rate.rate_at(t);
                let window = self.config.rate.until_next_change(t);
                if rate == 0 {
                    zero_segments += 1;
                    if zero_segments > max_zero {
                        return SimTime::MAX;
                    }
                    t += window;
                    continue;
                }
                zero_segments = 0;
                // Bits we can push within this trace segment.
                let window_bits = rate as u128 * window.as_micros() as u128 / 1_000_000;
                if window_bits >= remaining_bits {
                    let us = (remaining_bits * 1_000_000).div_ceil(rate as u128);
                    return t + SimDuration::from_micros(us as u64);
                }
                remaining_bits -= window_bits;
                t += window;
            }
            t
        }

        /// The drive-replay serialization walk. Drive traces hold their last
        /// sample forever instead of wrapping, so the walk visits finitely many
        /// boundaries: inside the final hold segment a zero rate means the link
        /// is stalled for good ([`SimTime::MAX`]) and a positive rate finishes
        /// directly.
        fn serialize_over_drive(drive: &DriveTrace, start: SimTime, bytes: usize) -> SimTime {
            let mut remaining_bits = bytes as u128 * 8;
            let mut t = start;
            loop {
                let rate = drive.rate_at(t);
                match drive.until_next_change(t) {
                    Some(window) => {
                        if rate == 0 {
                            t += window;
                            continue;
                        }
                        let window_bits = rate as u128 * window.as_micros() as u128 / 1_000_000;
                        if window_bits >= remaining_bits {
                            let us = (remaining_bits * 1_000_000).div_ceil(rate as u128);
                            return t + SimDuration::from_micros(us as u64);
                        }
                        remaining_bits -= window_bits;
                        t += window;
                    }
                    None => {
                        if rate == 0 {
                            return SimTime::MAX;
                        }
                        let us = (remaining_bits * 1_000_000).div_ceil(rate as u128);
                        return t + SimDuration::from_micros(us as u64);
                    }
                }
            }
        }

        /// Forgets packets that have cleared the bottleneck by `now`.
        fn prune(&mut self, now: SimTime) {
            while let Some(&(finish, bytes)) = self.in_flight.front() {
                if finish <= now {
                    self.in_flight.pop_front();
                    self.queued_bytes -= bytes;
                } else {
                    break;
                }
            }
        }
    }

    fn stepped_trace(rng: &mut SmallRng, zero_share: f64) -> RateTrace {
        use rand::Rng;
        let step = SimDuration::from_micros(rng.gen_range(2_000..400_000));
        let rates = (0..rng.gen_range(1..12))
            .map(|_| {
                if rng.gen_bool(zero_share) {
                    0
                } else {
                    rng.gen_range(50_000..40_000_000)
                }
            })
            .collect();
        RateTrace::new(step, rates)
    }

    /// A drive with runs of zero-rate samples, a lossy stretch and a first
    /// sample after t = 0; `dead_end` makes the final hold a stall.
    fn seeded_drive(rng: &mut SmallRng, dead_end: bool) -> DriveTrace {
        use rand::Rng;
        let mut at = rng.gen_range(0..300u64);
        let n = rng.gen_range(1..40);
        let samples = (0..n)
            .map(|i| {
                let sample = (
                    at,
                    match rng.gen_range(0..4) {
                        0 => 0,
                        _ if dead_end && i + 1 == n => 0,
                        _ => rng.gen_range(100_000..30_000_000),
                    },
                    rng.gen_range(5..150),
                    if rng.gen_bool(0.3) {
                        rng.gen_range(0.0..20.0)
                    } else {
                        0.0
                    },
                );
                at += rng.gen_range(1..400);
                sample
            })
            .collect();
        drive(samples)
    }

    /// The same seeded packets into the link and into the link as it
    /// stood: constant, stepped, partly-zero and all-zero rate traces
    /// (wrapping many times), `set_rate` mid-run, and drive traces from
    /// before their first sample to deep inside their final hold, at
    /// loads from idle to a standing queue (so serialization starts
    /// segments after `now`) and packet sizes that straddle several
    /// short segments. Equal offers, stats and RNG draws, packet for
    /// packet.
    #[test]
    fn link_matches_the_per_packet_lookups_and_the_two_walks() {
        use rand::Rng;
        let mut crossings = 0u64;
        let mut stalls = 0u64;
        let mut quiet = 0u64;
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0x11f_c0de + seed);
            let mut cfg = link_cfg(0, rng.gen_range(0..80), rng.gen_range(20_000..400_000));
            cfg.seed = seed;
            cfg.rate = match seed % 6 {
                0 => RateTrace::constant(rng.gen_range(1_000_000..20_000_000)),
                1 => RateTrace::new(SimDuration::from_millis(50), vec![0, 0, 0]),
                2 => stepped_trace(&mut rng, 0.4),
                _ => stepped_trace(&mut rng, 0.0),
            };
            if seed % 6 >= 4 {
                cfg.drive = Some(seeded_drive(&mut rng, seed % 12 == 5));
            }
            if seed % 3 == 0 {
                cfg.loss = LossModel::bernoulli_percent(3.0);
                cfg.jitter = SimDuration::from_millis(4);
            }
            if seed % 8 == 7 {
                cfg.impairment = ImpairmentConfig::duplication(0.1, SimDuration::from_millis(3));
            }
            let mut link = Link::new(cfg.clone());
            let mut reference = RefLink::new(cfg);
            quiet += u64::from(matches!(link.stages, Stages::Quiet));
            let mut now = SimTime::ZERO;
            // Mean gap between offers: from a saturated queue to idle.
            let gap_us = [40u64, 400, 4_000, 40_000][(seed / 6 % 4) as usize];
            for i in 0..4_000u32 {
                now += SimDuration::from_micros(rng.gen_range(0..2 * gap_us));
                if seed % 6 == 3 && i % 1_000 == 999 {
                    let rate = stepped_trace(&mut rng, 0.2);
                    link.set_rate(rate.clone());
                    reference.set_rate(rate);
                }
                let bytes = if rng.gen_bool(0.05) {
                    rng.gen_range(1..60_000)
                } else {
                    rng.gen_range(1..1_500)
                };
                let start = reference.busy_until.max(now);
                let (got, want) = (link.offer(now, bytes), reference.offer(now, bytes));
                assert_eq!(got, want, "seed {seed} packet {i} at {now}");
                assert_eq!(link.stats(), reference.stats(), "seed {seed} packet {i}");
                assert_eq!(link.busy_until, reference.busy_until);
                if let Transmit::Delivered(_) = want.fate {
                    if reference.busy_until == SimTime::MAX {
                        stalls += 1;
                        break; // nothing can follow a stall for good
                    }
                    let segments = |t: SimTime| Segment::lookup(&link.config, t).start;
                    crossings += u64::from(segments(start) != segments(reference.busy_until));
                }
            }
            // The next draw of either RNG is the same number.
            assert_eq!(
                link.rng.gen::<u64>(),
                reference.rng.gen::<u64>(),
                "seed {seed}"
            );
        }
        assert!(
            crossings > 1_000,
            "{crossings} packets straddled a boundary"
        );
        assert!(stalls >= 8, "{stalls} links stalled for good");
        assert!(quiet >= 8, "{quiet} links took the quiet path");
    }
}
