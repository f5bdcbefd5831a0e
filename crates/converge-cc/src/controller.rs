//! The per-path controller shell and the algorithm trait behind it.
//!
//! [`PathController`] is the one thing the conference sender holds per
//! path. It owns everything that is the same for every algorithm: the
//! smoothed RTT, the last reported loss fraction and its FEC-protection
//! discount, the coupled-growth scale, and the trace emission rules. What
//! differs — how a feedback batch becomes a rate — sits behind
//! [`CongestionController`], which the shell drives boxed.

use std::collections::VecDeque;

use converge_gcc::PacketTiming;
use converge_net::{PathId, SimDuration, SimTime};
use converge_trace::{CcAlgorithm, CcPhase, TraceEvent, TraceHandle};

/// What the shell knows about the path, handed to the algorithm with
/// every feedback batch.
#[derive(Debug, Clone, Copy)]
pub struct PathObservations {
    /// Smoothed RTT, ms (100 ms until the first sample).
    pub rtt_ms: f64,
    /// Growth-step scale in `[0.01, 1]`: 1 when uncoupled; under coupled
    /// congestion control each subflow grows by its share of the
    /// aggregate.
    pub increase_scale: f64,
}

/// A rate-control algorithm: what actually differs between GCC, NADA and
/// mp-BBR. One instance per path (uncoupled congestion control, paper
/// §4.1), driven only by its [`PathController`].
pub trait CongestionController: Send + std::fmt::Debug {
    /// Consumes transport feedback: the send/arrival timing of packets
    /// that reached the receiver on this path, processed at the sender at
    /// `now`. Returns whether the batch updated the rate model; a batch
    /// that did not (nothing to measure yet) leaves no trace.
    fn on_transport_feedback(
        &mut self,
        now: SimTime,
        packets: &[PacketTiming],
        path: &PathObservations,
    ) -> bool;

    /// Takes a loss sample in `[0, 1]`: the reported loss fraction less
    /// what the sender's FEC protection absorbs.
    fn on_loss(&mut self, effective_loss: f64);

    /// Sees each raw RTT sample; the shell already smooths them, so only
    /// an algorithm with its own use for RTT (mp-BBR's min filter)
    /// overrides this.
    fn on_rtt_sample(&mut self, _rtt: SimDuration) {}

    /// Pulls the estimate down to at most `bps`. Called while a path is
    /// administratively disabled: no media flows, so the congestion
    /// signals go silent and the estimate would otherwise stay
    /// stale-high, bursting when the path is re-enabled.
    fn cap_estimate(&mut self, bps: f64);

    /// The current target sending rate for the path.
    fn target_rate_bps(&self) -> u64;

    /// The raw bandwidth estimate coupling shares are computed from (for
    /// GCC, the delay-based estimate; for NADA/BBR, the rate/bandwidth
    /// state itself).
    fn estimate_bps(&self) -> f64;

    /// The phase the algorithm is in now.
    fn phase(&self) -> CcPhase;
}

/// The congestion controller of one path: the shared bookkeeping around a
/// boxed [`CongestionController`]. Built by
/// [`ControllerConfig::build`](crate::ControllerConfig::build).
#[derive(Debug)]
pub struct PathController {
    algorithm: CcAlgorithm,
    inner: Box<dyn CongestionController>,
    path: PathId,
    srtt: Option<SimDuration>,
    fraction_lost: f64,
    increase_scale: f64,
    trace: TraceHandle,
    traced_phase: Option<CcPhase>,
    traced_rate: Option<u64>,
}

impl PathController {
    /// Wraps `inner` for `path`. No phase is assumed traced, so every
    /// algorithm's first update announces the phase it starts in.
    pub(crate) fn new(
        algorithm: CcAlgorithm,
        inner: Box<dyn CongestionController>,
        path: PathId,
    ) -> Self {
        PathController {
            algorithm,
            inner,
            path,
            srtt: None,
            fraction_lost: 0.0,
            increase_scale: 1.0,
            trace: TraceHandle::disabled(),
            traced_phase: None,
            traced_rate: None,
        }
    }

    /// Which algorithm drives this path (trace tagging).
    pub fn algorithm(&self) -> CcAlgorithm {
        self.algorithm
    }

    /// Installs a trace handle; the controller then emits state- and
    /// rate-change events for its path.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Feeds transport feedback to the algorithm, then traces a
    /// `CcStateChanged` if it left the last traced phase and a
    /// `CcRateChanged` if the target moved.
    pub fn on_transport_feedback(&mut self, now: SimTime, packets: &[PacketTiming]) {
        let observed = PathObservations {
            rtt_ms: self.srtt.map_or(100.0, |d| d.as_micros() as f64 / 1_000.0),
            increase_scale: self.increase_scale,
        };
        let updated = self.inner.on_transport_feedback(now, packets, &observed);
        if !updated || !self.trace.is_enabled() {
            return;
        }
        let (path, algorithm) = (self.path, self.algorithm);
        let phase = self.inner.phase();
        if self.traced_phase != Some(phase) {
            self.traced_phase = Some(phase);
            let event = TraceEvent::CcStateChanged {
                path,
                algorithm,
                phase,
            };
            self.trace.emit(now, event);
        }
        // Rates move continuously; record only moves of ≥5 % so the
        // timeline captures the envelope, not every step.
        let rate_bps = self.inner.target_rate_bps();
        let moved = match self.traced_rate {
            Some(prev) => rate_bps.abs_diff(prev) * 20 >= prev.max(1),
            None => true,
        };
        if moved {
            self.traced_rate = Some(rate_bps);
            let event = TraceEvent::CcRateChanged {
                path,
                algorithm,
                rate_bps,
            };
            self.trace.emit(now, event);
        }
    }

    /// Feeds an RTT sample (from SR/RR echo or probe timing).
    pub fn on_rtt_sample(&mut self, rtt: SimDuration) {
        self.srtt = Some(match self.srtt {
            None => rtt,
            // srtt = 7/8 srtt + 1/8 sample, in integer microseconds.
            Some(prev) => SimDuration::from_micros((prev.as_micros() * 7 + rtt.as_micros()) / 8),
        });
        self.inner.on_rtt_sample(rtt);
    }

    /// Feeds a receiver-report loss fraction together with the sender's
    /// current FEC protection ratio (repair/media). The raw loss is kept
    /// for path statistics (and drives the FEC rate), but the algorithm
    /// sees only the loss that protection cannot absorb — matching
    /// WebRTC's media optimizer, which discounts protected loss so
    /// FEC-covered paths are not starved by the rate controller.
    pub fn on_loss_report_protected(&mut self, fraction_lost: f64, protection_ratio: f64) {
        self.fraction_lost = fraction_lost.clamp(0.0, 1.0);
        self.inner
            .on_loss((self.fraction_lost - protection_ratio.max(0.0)).max(0.0));
    }

    /// The algorithm's current target sending rate for the path.
    pub fn target_rate_bps(&self) -> u64 {
        self.inner.target_rate_bps()
    }

    /// Smoothed RTT of the path, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Most recent loss fraction reported for the path.
    pub fn fraction_lost(&self) -> f64 {
        self.fraction_lost
    }

    /// See [`CongestionController::cap_estimate`].
    pub fn cap_estimate(&mut self, bps: f64) {
        self.inner.cap_estimate(bps);
    }

    /// Sets the growth-step scale, clamped to `[0.01, 1]`; the algorithm
    /// sees it with the next feedback batch.
    pub fn set_increase_scale(&mut self, scale: f64) {
        self.increase_scale = scale.clamp(0.01, 1.0);
    }

    /// See [`CongestionController::estimate_bps`].
    pub fn estimate_bps(&self) -> f64 {
        self.inner.estimate_bps()
    }
}

/// One acknowledged packet in one word: `arrival_us << 16 | bytes`.
#[derive(Debug, Clone, Copy)]
struct Acked(u64);

// One word, where the `(SimTime, usize)` tuple took two.
const _: () = assert!(std::mem::size_of::<Acked>() == 8);

impl Acked {
    /// Panics rather than store a truncated value.
    fn new(p: &PacketTiming) -> Self {
        let at_us = p.arrival_time.as_micros();
        let size = p.size;
        assert!(
            size <= 0xFFFF,
            "a packet of {size} bytes is past the rate window's 65 535"
        );
        assert!(
            at_us < 1 << 48,
            "arrival at {at_us} µs is past the rate window's 2^48 µs"
        );
        Acked(at_us << 16 | size as u64)
    }

    fn at_us(self) -> u64 {
        self.0 >> 16
    }

    fn bytes(self) -> u64 {
        self.0 & 0xFFFF
    }
}

/// Receive rate over a sliding window of acknowledged packets.
#[derive(Debug)]
pub struct RateWindow {
    window: SimDuration,
    /// Arrival time and size of recent packets, in arrival-report order.
    recent: VecDeque<Acked>,
}

impl RateWindow {
    /// A window measuring over the last `window`.
    pub fn new(window: SimDuration) -> Self {
        RateWindow {
            window,
            recent: VecDeque::new(),
        }
    }

    /// Adds a feedback batch, forgets arrivals older than two windows,
    /// and returns the rate over the window ending at `now`, bps.
    ///
    /// Early in a path's life the window is shortened to the span
    /// actually observed (floored at 100 ms) so start-up is not
    /// under-measured.
    ///
    /// # Panics
    /// Panics for a packet over 65 535 bytes or an arrival past 2^48 µs:
    /// the window keeps each packet in one 8-byte word.
    pub fn measure(&mut self, now: SimTime, packets: &[PacketTiming]) -> f64 {
        for p in packets {
            self.recent.push_back(Acked::new(p));
        }
        let ago = |span: u64| now.as_micros().saturating_sub(span);
        let keep_from = ago(self.window.as_micros() * 2);
        while self.recent.front().is_some_and(|a| a.at_us() < keep_from) {
            self.recent.pop_front();
        }
        let Some(first) = self.recent.front() else {
            return 0.0;
        };
        let start = ago(self.window.as_micros()).max(first.at_us());
        let span = now
            .saturating_since(SimTime::from_micros(start))
            .max(SimDuration::from_millis(100));
        let bytes: u64 = self
            .recent
            .iter()
            .filter(|a| a.at_us() >= start)
            .map(|a| a.bytes())
            .sum();
        bytes as f64 * 8.0 / span.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use converge_trace::RingSink;

    use super::*;
    use crate::{ControllerConfig, ControllerKind};

    /// The default build: GCC behind the shell.
    fn gcc() -> PathController {
        ControllerConfig::default().build(PathId(0))
    }

    fn feedback_at_rate(
        ctl: &mut PathController,
        start_ms: u64,
        duration_ms: u64,
        rate_bps: f64,
        queue_growth_ms_per_pkt: f64,
    ) {
        // Simulate packets of 1200 bytes arriving at `rate_bps`, optionally
        // with growing one-way delay.
        let pkt_interval_us = (1200.0 * 8.0 / rate_bps * 1e6) as u64;
        let n = (duration_ms * 1_000 / pkt_interval_us.max(1)) as usize;
        let mut batch = Vec::new();
        for i in 0..n {
            let send = SimTime::from_micros(start_ms * 1_000 + i as u64 * pkt_interval_us);
            let delay_us = 30_000 + (i as f64 * queue_growth_ms_per_pkt * 1_000.0) as u64;
            batch.push(PacketTiming {
                send_time: send,
                arrival_time: send + SimDuration::from_micros(delay_us),
                size: 1200,
            });
            if batch.len() == 10 {
                let now = batch.last().unwrap().arrival_time;
                ctl.on_transport_feedback(now, &batch);
                batch.clear();
            }
        }
    }

    #[test]
    fn starts_at_initial_rate() {
        let ctl = gcc();
        assert_eq!(ctl.target_rate_bps(), 1_000_000);
    }

    #[test]
    fn ramps_up_on_clean_path() {
        let mut ctl = gcc();
        ctl.on_rtt_sample(SimDuration::from_millis(60));
        // 10 seconds of clean 8 Mbps arrivals, stable delay, with
        // loss-free receiver reports every 100 ms as RTCP would deliver.
        for sec in 0..10 {
            feedback_at_rate(&mut ctl, sec * 1_000, 1_000, 8_000_000.0, 0.0);
            for _ in 0..10 {
                ctl.on_loss_report_protected(0.0, 0.0);
            }
        }
        assert!(
            ctl.target_rate_bps() > 3_000_000,
            "rate {}",
            ctl.target_rate_bps()
        );
    }

    #[test]
    fn backs_off_when_queues_grow() {
        let mut ctl = gcc();
        ctl.on_rtt_sample(SimDuration::from_millis(60));
        for sec in 0..5 {
            feedback_at_rate(&mut ctl, sec * 1_000, 1_000, 5_000_000.0, 0.0);
            for _ in 0..10 {
                ctl.on_loss_report_protected(0.0, 0.0);
            }
        }
        let before = ctl.target_rate_bps();
        // Now delay grows steadily — bottleneck overloaded.
        feedback_at_rate(&mut ctl, 5_000, 3_000, 5_000_000.0, 0.5);
        let after = ctl.target_rate_bps();
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn heavy_loss_cuts_rate() {
        let mut ctl = gcc();
        feedback_at_rate(&mut ctl, 0, 3_000, 5_000_000.0, 0.0);
        let before = ctl.target_rate_bps();
        for _ in 0..5 {
            ctl.on_loss_report_protected(0.3, 0.0);
        }
        assert!(ctl.target_rate_bps() < before);
        assert!((ctl.fraction_lost() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn target_is_min_of_estimates() {
        let mut ctl = gcc();
        // Grow delay-based estimate high.
        feedback_at_rate(&mut ctl, 0, 10_000, 9_000_000.0, 0.0);
        // Then crush the loss-based one.
        for _ in 0..30 {
            ctl.on_loss_report_protected(0.5, 0.0);
        }
        let target = ctl.target_rate_bps();
        assert!(target <= 1_000_000, "target {target}");
    }

    #[test]
    fn srtt_smooths() {
        let mut ctl = gcc();
        ctl.on_rtt_sample(SimDuration::from_millis(100));
        ctl.on_rtt_sample(SimDuration::from_millis(200));
        let srtt = ctl.srtt().unwrap().as_millis();
        // 7/8*100 + 1/8*200 = 112.5
        assert_eq!(srtt, 112);
    }

    #[test]
    fn incoming_rate_measures_window() {
        let mut window = RateWindow::new(SimDuration::from_millis(1_000));
        let pkts: Vec<PacketTiming> = (0..100)
            .map(|i| PacketTiming {
                send_time: SimTime::from_millis(i * 10),
                arrival_time: SimTime::from_millis(i * 10 + 30),
                size: 1250,
            })
            .collect();
        // 100 pkts * 1250 B over the last second window: 1 Mbps.
        let rate = window.measure(SimTime::from_millis(1_030), &pkts);
        assert!((rate - 1_000_000.0).abs() < 30_000.0, "rate {rate}");
    }

    /// The window as a plain list of `(arrival, bytes)`: the same leading
    /// eviction, filter and sum as [`RateWindow::measure`].
    fn reference_rate(
        kept: &mut Vec<(SimTime, usize)>,
        window: SimDuration,
        now: SimTime,
        packets: &[PacketTiming],
    ) -> f64 {
        kept.extend(packets.iter().map(|p| (p.arrival_time, p.size)));
        let ago = |span: u64| SimTime::from_micros(now.as_micros().saturating_sub(span));
        let stale = kept
            .iter()
            .take_while(|(at, _)| *at < ago(window.as_micros() * 2));
        kept.drain(..stale.count());
        let Some(&(first_at, _)) = kept.first() else {
            return 0.0;
        };
        let start = ago(window.as_micros()).max(first_at);
        let span = now
            .saturating_since(start)
            .max(SimDuration::from_millis(100));
        let bytes: usize = kept
            .iter()
            .filter(|(at, _)| *at >= start)
            .map(|(_, b)| b)
            .sum();
        bytes as f64 * 8.0 / span.as_secs_f64()
    }

    /// Batches whose arrivals repeat an instant, run backwards (reordered
    /// reports) and reach the size bound: the packed window answers
    /// bit-for-bit what the list of tuples does.
    #[test]
    fn rate_window_matches_the_tuple_list() {
        let mut measured = 0;
        for seed in 0..8u64 {
            // splitmix64: the crate has no `rand` to draw from.
            let mut state = 0x7a7e_3a11 + seed;
            let mut below = move |n: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n
            };
            let window = SimDuration::from_millis([250, 1_000][seed as usize % 2]);
            let mut packed = RateWindow::new(window);
            let mut kept = Vec::new();
            let mut now = SimTime::ZERO;
            let mut batch = Vec::new();
            for _ in 0..3_000 {
                now += SimDuration::from_micros(below(40_000));
                batch.clear();
                let mut at_us = now.as_micros().saturating_sub(below(300_000));
                for _ in 0..below(12) {
                    match below(4) {
                        0 => {} // the same instant as the previous packet
                        1 => at_us = at_us.saturating_sub(below(50_000)),
                        _ => at_us = (at_us + below(20_000)).min(now.as_micros()),
                    }
                    let size = match below(8) {
                        0 => 0xFFFF,
                        1 => below(40) as usize,
                        _ => 40 + below(1_460) as usize,
                    };
                    batch.push(PacketTiming {
                        send_time: SimTime::ZERO,
                        arrival_time: SimTime::from_micros(at_us),
                        size,
                    });
                }
                let want = reference_rate(&mut kept, window, now, &batch);
                let got = packed.measure(now, &batch);
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} at {now:?}");
                measured += usize::from(want > 0.0);
            }
        }
        assert!(measured > 20_000, "{measured}");
        let oversized = PacketTiming {
            send_time: SimTime::ZERO,
            arrival_time: SimTime::ZERO,
            size: 0x1_0000,
        };
        let refused = std::panic::catch_unwind(move || {
            RateWindow::new(SimDuration::from_secs(1)).measure(SimTime::ZERO, &[oversized])
        });
        assert!(
            refused.is_err(),
            "a packet over 65 535 bytes must not be truncated"
        );
    }

    /// Whatever the algorithm, the target stays inside the bounds the
    /// `cc-rate-clamp` invariant polices: pushed toward the ceiling by
    /// deliveries at 100 Mbit/s, then toward the floor by total loss and a
    /// 32 kbit/s trickle, in 50 ms feedback batches.
    #[test]
    fn every_kind_stays_inside_the_shared_rate_bounds() {
        use converge_trace::{RATE_CEILING_BPS, RATE_FLOOR_BPS};
        for kind in ControllerKind::ALL {
            let id = kind.id();
            let mut ctl = ControllerConfig::for_kind(kind).build(PathId(0));
            ctl.on_rtt_sample(SimDuration::from_millis(60));
            let (mut highest, mut lowest) = (0, u64::MAX);
            for round in 0..400u64 {
                let saturating = round < 200;
                let (packets, size, loss) = if saturating {
                    (520, 1_200, 0.0)
                } else {
                    (2, 100, 1.0)
                };
                let batch: Vec<PacketTiming> = (0..packets)
                    .map(|i| {
                        let send = SimTime::from_micros(round * 50_000 + i * 50_000 / packets);
                        PacketTiming {
                            send_time: send,
                            arrival_time: send + SimDuration::from_millis(30),
                            size,
                        }
                    })
                    .collect();
                ctl.on_transport_feedback(batch[batch.len() - 1].arrival_time, &batch);
                ctl.on_loss_report_protected(loss, 0.0);
                let target = ctl.target_rate_bps();
                assert!(
                    (RATE_FLOOR_BPS..=RATE_CEILING_BPS).contains(&target),
                    "{id}: round {round} target {target}"
                );
                if saturating {
                    highest = highest.max(target);
                } else {
                    lowest = lowest.min(target);
                }
            }
            // The drive reaches both ends: the shared ceiling, and each
            // algorithm's own floor (NADA's RMIN and mp-BBR's sit above
            // GCC's, the shared one).
            let floor = match kind {
                ControllerKind::Gcc => RATE_FLOOR_BPS,
                ControllerKind::Nada | ControllerKind::MpBbr => 150_000,
            };
            assert_eq!((highest, lowest), (RATE_CEILING_BPS, floor), "{id}");
        }
    }

    /// Stands in for an algorithm where a rule needs exact outputs: the
    /// test sets the target and phase the shell reads back.
    #[derive(Debug)]
    struct Scripted(Arc<Mutex<(u64, CcPhase)>>);

    impl CongestionController for Scripted {
        fn on_transport_feedback(
            &mut self,
            _: SimTime,
            _: &[PacketTiming],
            _: &PathObservations,
        ) -> bool {
            true
        }
        fn on_loss(&mut self, _: f64) {}
        fn cap_estimate(&mut self, _: f64) {}
        fn target_rate_bps(&self) -> u64 {
            self.0.lock().unwrap().0
        }
        fn estimate_bps(&self) -> f64 {
            self.target_rate_bps() as f64
        }
        fn phase(&self) -> CcPhase {
            self.0.lock().unwrap().1
        }
    }

    /// Every rule the shell owns, once per kind: whatever algorithm is
    /// behind it, the sender and the trace see the same behaviour.
    #[test]
    fn every_kind_obeys_the_shell_rules() {
        use CcPhase::*;
        let table = [
            (
                ControllerKind::Gcc,
                CcAlgorithm::Gcc,
                true,
                [Overuse, Normal],
            ),
            (
                ControllerKind::Nada,
                CcAlgorithm::Nada,
                true,
                [Gradual, RampUp],
            ),
            (
                ControllerKind::MpBbr,
                CcAlgorithm::MpBbr,
                false,
                [Drain, ProbeBw],
            ),
        ];
        for (kind, algorithm, reacts_to_loss, phases) in table {
            let id = kind.id();
            let build = || ControllerConfig::for_kind(kind).build(PathId(3));

            // sRTT: 7/8 * 100 + 1/8 * 200 = 112.5 ms.
            let mut ctl = build();
            assert_eq!(ctl.algorithm(), algorithm);
            ctl.on_rtt_sample(SimDuration::from_millis(100));
            ctl.on_rtt_sample(SimDuration::from_millis(200));
            assert_eq!(ctl.srtt(), Some(SimDuration::from_micros(112_500)), "{id}");

            // The reported loss fraction is clamped to [0, 1].
            ctl.on_loss_report_protected(1.7, 0.0);
            assert_eq!(ctl.fraction_lost(), 1.0, "{id}");
            ctl.on_loss_report_protected(-0.3, 0.0);
            assert_eq!(ctl.fraction_lost(), 0.0, "{id}");

            // Loss that FEC protection absorbs never reaches the algorithm;
            // unprotected loss does.
            let after_loss = |loss: f64, protection: f64| {
                let mut ctl = build();
                for round in 0..8 {
                    ctl.on_loss_report_protected(loss, protection);
                    feedback_at_rate(&mut ctl, round * 50, 50, 4_800_000.0, 0.0);
                }
                ctl.target_rate_bps()
            };
            assert_eq!(after_loss(0.3, 0.3), after_loss(0.0, 0.0), "{id}");
            assert_eq!(
                after_loss(0.3, 0.0) < after_loss(0.0, 0.0),
                reacts_to_loss,
                "{id}"
            );

            // cap_estimate pulls the target down.
            let mut ctl = build();
            assert!(ctl.target_rate_bps() > 500_000, "{id}");
            ctl.cap_estimate(500_000.0);
            assert!(ctl.target_rate_bps() <= 500_000, "{id}");

            // The growth scale is clamped to [0.01, 1] and reaches the
            // algorithm.
            let grown = |scale: f64| {
                let mut ctl = build();
                ctl.set_increase_scale(scale);
                // A loss-free report lets GCC's loss-based side rise too;
                // three batches keep mp-BBR in its (scaled) startup gain.
                ctl.on_loss_report_protected(0.0, 0.0);
                feedback_at_rate(&mut ctl, 0, 60, 4_800_000.0, 0.0);
                ctl.target_rate_bps()
            };
            assert_eq!(grown(7.0), grown(1.0), "{id}");
            assert_eq!(grown(0.0), grown(0.01), "{id}");
            assert!(grown(0.01) < grown(1.0), "{id}");

            // Trace rules, on exact targets and phases: a move under 5 %
            // or a repeated phase emits nothing; each edge emits once,
            // tagged with this kind's algorithm.
            let script = Arc::new(Mutex::new((1_000_000, phases[0])));
            let ring = Arc::new(RingSink::new(16));
            let mut ctl = build();
            ctl.inner = Box::new(Scripted(script.clone()));
            ctl.set_trace(TraceHandle::new(ring.clone()));
            let path = PathId(3);
            let mut step = |rate_bps: u64, phase: CcPhase| -> Vec<TraceEvent> {
                *script.lock().unwrap() = (rate_bps, phase);
                ctl.on_transport_feedback(SimTime::from_millis(50), &[]);
                ring.drain().into_iter().map(|r| r.event).collect()
            };
            let state = |phase| TraceEvent::CcStateChanged {
                path,
                algorithm,
                phase,
            };
            let rate = |rate_bps| TraceEvent::CcRateChanged {
                path,
                algorithm,
                rate_bps,
            };
            assert_eq!(
                step(1_000_000, phases[0]),
                [state(phases[0]), rate(1_000_000)],
                "{id}"
            );
            assert_eq!(step(960_000, phases[0]), [], "{id}: 4 % move");
            assert_eq!(step(950_000, phases[0]), [rate(950_000)], "{id}: 5 % move");
            assert_eq!(step(950_000, phases[1]), [state(phases[1])], "{id}");
        }
    }
}
