//! Multipath-tuned BBR congestion control.
//!
//! A model-based controller in the BBR family: it estimates the path's
//! bottleneck bandwidth (windowed max of delivery-rate samples) and its
//! propagation RTT (min filter with periodic re-probing), and derives the
//! sending rate as `pacing_gain · btl_bw` while walking the classic phase
//! machine:
//!
//! ```text
//! Startup ──(bw plateau)──▶ Drain ──(queue drained)──▶ ProbeBw ⟲
//!                                                        │ ▲
//!                                         (min-RTT stale) ▼ │ (probe done)
//!                                                      ProbeRtt
//! ```
//!
//! The multipath tuning is in `ProbeBw`: each path starts its pacing-gain
//! cycle at an offset derived from its [`PathId`], so concurrent subflows
//! of one call never probe (gain 1.25) the same instant — staggering the
//! extra in-flight data that probing injects instead of stacking it onto
//! a potentially shared bottleneck.

use std::collections::VecDeque;

use converge_gcc::PacketTiming;
use converge_net::{PathId, SimDuration, SimTime};
use converge_trace::{CcPhase, RATE_CEILING_BPS};

use crate::controller::{CongestionController, PathObservations};

// mp-BBR tuning: gains and thresholds follow the BBR v1 draft; the cycle
// offset is the multipath addition.

/// Target rate before any delivery-rate sample exists, bps.
const INITIAL_RATE_BPS: f64 = 1_000_000.0;
/// Rate floor, bps.
const MIN_RATE_BPS: f64 = 150_000.0;
/// Rate ceiling, bps.
const MAX_RATE_BPS: f64 = RATE_CEILING_BPS as f64;
/// Pacing gain while searching for the bottleneck (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;
/// Pacing gain while draining the startup queue.
const DRAIN_GAIN: f64 = 0.35;
/// The ProbeBw pacing-gain cycle (probe up, drain down, then cruise).
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Window over which the bandwidth max-filter looks back.
const BW_WINDOW: SimDuration = SimDuration::from_millis(2_500);
/// Startup exits when bandwidth grew by less than this factor...
const FULL_BW_THRESH: f64 = 1.25;
/// ...for this many consecutive feedback rounds.
const FULL_BW_ROUNDS: u32 = 3;
/// How long a min-RTT sample stays fresh before ProbeRtt re-probes.
const PROBE_RTT_INTERVAL: SimDuration = SimDuration::from_millis(10_000);
/// How long ProbeRtt holds the rate down.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

/// Per-path mp-BBR controller.
#[derive(Debug)]
pub struct MpBbrController {
    /// Where this path starts in the ProbeBw gain cycle (staggers
    /// concurrent subflows; see module docs).
    cycle_offset: usize,
    /// Recent delivery-rate samples for the windowed max, (sampled-at,
    /// bps).
    bw_samples: VecDeque<(SimTime, f64)>,
    /// Current windowed-max bottleneck-bandwidth estimate, bps.
    bw_bps: f64,
    min_rtt: Option<SimDuration>,
    /// When the current min-RTT was last validated.
    min_rtt_at: SimTime,
    /// Latest feedback time.
    last_now: SimTime,
    phase: Phase,
    /// Best bandwidth seen while checking for the startup plateau.
    full_bw: f64,
    full_bw_count: u32,
    cycle_index: usize,
    cycle_advanced_at: SimTime,
    drain_until: SimTime,
    probe_rtt_until: SimTime,
    target_bps: f64,
}

/// The BBR state machine's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

impl MpBbrController {
    /// Creates a controller for `path`; the path id seeds the gain-cycle
    /// offset.
    pub fn new(path: PathId) -> Self {
        let cycle_offset = path.0 as usize % PROBE_GAINS.len();
        MpBbrController {
            cycle_offset,
            bw_samples: VecDeque::new(),
            bw_bps: 0.0,
            min_rtt: None,
            min_rtt_at: SimTime::ZERO,
            last_now: SimTime::ZERO,
            phase: Phase::Startup,
            full_bw: 0.0,
            full_bw_count: 0,
            cycle_index: cycle_offset,
            cycle_advanced_at: SimTime::ZERO,
            drain_until: SimTime::ZERO,
            probe_rtt_until: SimTime::ZERO,
            target_bps: INITIAL_RATE_BPS,
        }
    }

    /// Current windowed-max bottleneck-bandwidth estimate, bps (0 before
    /// the first delivery-rate sample).
    pub fn bottleneck_bw_bps(&self) -> f64 {
        self.bw_bps
    }

    /// Where this path starts in the ProbeBw gain cycle.
    pub fn cycle_offset(&self) -> usize {
        self.cycle_offset
    }

    fn min_rtt_or_default(&self) -> SimDuration {
        self.min_rtt.unwrap_or(SimDuration::from_millis(100))
    }

    /// Folds an RTT observation into the min filter, stamped with the
    /// latest feedback time (RTT samples arrive without a clock).
    fn observe_rtt(&mut self, rtt: SimDuration) {
        if self.min_rtt.is_none_or(|floor| rtt <= floor) {
            self.min_rtt = Some(rtt);
            self.min_rtt_at = self.last_now;
        }
    }

    fn refresh_bw(&mut self, now: SimTime) {
        let horizon = SimTime::from_micros(now.as_micros().saturating_sub(BW_WINDOW.as_micros()));
        while self.bw_samples.front().is_some_and(|&(at, _)| at < horizon) {
            self.bw_samples.pop_front();
        }
        self.bw_bps = self
            .bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max);
    }

    fn step_phase_machine(&mut self, now: SimTime) {
        match self.phase {
            Phase::Startup => {
                // Exit on a bandwidth plateau: growth under
                // full_bw_thresh for full_bw_rounds consecutive rounds.
                if self.bw_bps >= self.full_bw * FULL_BW_THRESH {
                    self.full_bw = self.bw_bps;
                    self.full_bw_count = 0;
                } else {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= FULL_BW_ROUNDS {
                        self.drain_until = now + self.min_rtt_or_default();
                        self.phase = Phase::Drain;
                    }
                }
            }
            Phase::Drain => {
                if now >= self.drain_until {
                    self.cycle_index = self.cycle_offset;
                    self.cycle_advanced_at = now;
                    self.phase = Phase::ProbeBw;
                }
            }
            Phase::ProbeBw => {
                let min_rtt_stale = now.saturating_since(self.min_rtt_at) >= PROBE_RTT_INTERVAL;
                if self.min_rtt.is_some() && min_rtt_stale {
                    self.probe_rtt_until = now + PROBE_RTT_DURATION;
                    self.phase = Phase::ProbeRtt;
                } else {
                    let cycle_len = self.min_rtt_or_default().max(SimDuration::from_millis(50));
                    if now.saturating_since(self.cycle_advanced_at) >= cycle_len {
                        self.cycle_index = (self.cycle_index + 1) % PROBE_GAINS.len();
                        self.cycle_advanced_at = now;
                    }
                }
            }
            Phase::ProbeRtt => {
                if now >= self.probe_rtt_until {
                    // Whatever RTT floor we saw while the queue was held
                    // down is the fresh propagation estimate.
                    self.min_rtt_at = now;
                    self.cycle_advanced_at = now;
                    self.phase = Phase::ProbeBw;
                }
            }
        }
    }

    fn update_target(&mut self, increase_scale: f64) {
        let gain = match self.phase {
            Phase::Startup => STARTUP_GAIN,
            Phase::Drain => DRAIN_GAIN,
            Phase::ProbeBw => PROBE_GAINS[self.cycle_index],
            Phase::ProbeRtt => 0.5,
        };
        // Coupled mode damps only the growth side (gains above 1), the
        // same asymmetry LIA applies to GCC's increase step.
        let gain = if gain > 1.0 {
            1.0 + (gain - 1.0) * increase_scale
        } else {
            gain
        };
        self.target_bps = (gain * self.bw_bps).clamp(MIN_RATE_BPS, MAX_RATE_BPS);
    }
}

impl CongestionController for MpBbrController {
    fn on_transport_feedback(
        &mut self,
        now: SimTime,
        packets: &[PacketTiming],
        path: &PathObservations,
    ) -> bool {
        self.last_now = now;
        // Delivery-rate sample: bytes delivered over the batch's arrival
        // span. One packet spans no time, so it cannot form a sample.
        if packets.len() >= 2 {
            let first = packets
                .iter()
                .map(|p| p.arrival_time)
                .min()
                .expect("non-empty batch");
            let last = packets
                .iter()
                .map(|p| p.arrival_time)
                .max()
                .expect("non-empty batch");
            let span = last.saturating_since(first);
            if span > SimDuration::ZERO {
                let bytes: usize = packets.iter().map(|p| p.size).sum();
                let sample = bytes as f64 * 8.0 / span.as_secs_f64();
                self.bw_samples.push_back((now, sample));
            }
        }
        // Min-RTT from one-way delays doubles as a freshness signal: any
        // packet at the observed floor revalidates the propagation
        // estimate.
        for p in packets {
            let owd = p.arrival_time.saturating_since(p.send_time);
            self.observe_rtt(owd + owd);
        }
        self.refresh_bw(now);
        // No bandwidth sample yet: nothing to model, the initial target
        // stands.
        if self.bw_samples.is_empty() {
            return false;
        }
        self.step_phase_machine(now);
        self.update_target(path.increase_scale);
        true
    }

    /// Loss-blind, as BBR v1: only delivery rate and RTT move the model.
    fn on_loss(&mut self, _effective_loss: f64) {}

    fn on_rtt_sample(&mut self, rtt: SimDuration) {
        self.observe_rtt(rtt);
    }

    fn target_rate_bps(&self) -> u64 {
        self.target_bps as u64
    }

    fn cap_estimate(&mut self, bps: f64) {
        // A disabled path's bandwidth model is stale: clamp both the
        // estimate and the retained samples so the window cannot re-grow
        // the old value the moment the path returns.
        self.bw_bps = self.bw_bps.min(bps);
        for (_, s) in self.bw_samples.iter_mut() {
            *s = s.min(bps);
        }
        self.target_bps = self.target_bps.min(bps).max(MIN_RATE_BPS);
    }

    fn estimate_bps(&self) -> f64 {
        if self.bw_bps > 0.0 {
            self.bw_bps
        } else {
            self.target_bps
        }
    }

    fn phase(&self) -> CcPhase {
        match self.phase {
            Phase::Startup => CcPhase::Startup,
            Phase::Drain => CcPhase::Drain,
            Phase::ProbeBw => CcPhase::ProbeBw,
            Phase::ProbeRtt => CcPhase::ProbeRtt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An uncoupled path (mp-BBR takes RTT from its own min filter).
    const PATH: PathObservations = PathObservations {
        rtt_ms: 100.0,
        increase_scale: 1.0,
    };

    /// Drives `duration_ms` of feedback at a steady delivery rate with a
    /// fixed 30 ms one-way delay, batched every 50 ms, and records each
    /// (phase, target) step.
    fn drive(
        ctl: &mut MpBbrController,
        start_ms: u64,
        duration_ms: u64,
        rate_bps: f64,
    ) -> Vec<(CcPhase, u64)> {
        let mut out = Vec::new();
        let batch_ms = 50;
        let bytes_per_batch = (rate_bps / 8.0 * batch_ms as f64 / 1_000.0) as usize;
        let pkts = (bytes_per_batch / 1_200).max(2);
        for b in 0..(duration_ms / batch_ms) {
            let t0 = start_ms + b * batch_ms;
            let batch: Vec<PacketTiming> = (0..pkts)
                .map(|i| {
                    let send = SimTime::from_micros(
                        t0 * 1_000 + i as u64 * batch_ms * 1_000 / pkts as u64,
                    );
                    PacketTiming {
                        send_time: send,
                        arrival_time: send + SimDuration::from_millis(30),
                        size: bytes_per_batch / pkts,
                    }
                })
                .collect();
            let now = batch.last().unwrap().arrival_time;
            ctl.on_transport_feedback(now, &batch, &PATH);
            out.push((ctl.phase(), ctl.target_rate_bps()));
        }
        out
    }

    #[test]
    fn walks_startup_drain_probe_bw() {
        let mut ctl = MpBbrController::new(PathId(0));
        assert_eq!(ctl.phase(), CcPhase::Startup);
        let steps = drive(&mut ctl, 0, 5_000, 8_000_000.0);
        let phases: Vec<CcPhase> = steps.iter().map(|&(p, _)| p).collect();
        assert!(phases.contains(&CcPhase::Startup));
        assert!(phases.contains(&CcPhase::Drain));
        assert!(phases.contains(&CcPhase::ProbeBw));
        // Once probing, the estimate models the 8 Mbps feed.
        assert!(
            (ctl.bottleneck_bw_bps() - 8_000_000.0).abs() / 8_000_000.0 < 0.25,
            "bw estimate off: {}",
            ctl.bottleneck_bw_bps()
        );
    }

    #[test]
    fn probe_bw_cycles_the_pacing_gain() {
        let mut ctl = MpBbrController::new(PathId(0));
        let steps = drive(&mut ctl, 0, 8_000, 8_000_000.0);
        let probe_targets: Vec<u64> = steps
            .iter()
            .filter(|&&(p, _)| p == CcPhase::ProbeBw)
            .map(|&(_, t)| t)
            .collect();
        assert!(probe_targets.len() > 10, "must spend time in ProbeBw");
        // The 1.25 / 0.75 / 1.0 cycle must show as at least three
        // distinct target levels.
        let mut levels: Vec<u64> = probe_targets.clone();
        levels.sort_unstable();
        levels.dedup_by(|a, b| a.abs_diff(*b) * 20 < (*b).max(1));
        assert!(
            levels.len() >= 3,
            "gain cycling must produce distinct rate levels: {levels:?}"
        );
        let max = *probe_targets.iter().max().unwrap() as f64;
        let min = *probe_targets.iter().min().unwrap() as f64;
        assert!(
            max / min > 1.3,
            "probe/drain spread too small: {min}..{max}"
        );
    }

    #[test]
    fn probe_rtt_fires_when_min_rtt_goes_stale() {
        let mut ctl = MpBbrController::new(PathId(0));
        // 15 s of steady feed at a constant 30 ms delay floor: the floor
        // is revalidated continuously, so ProbeRtt must NOT fire.
        let steps = drive(&mut ctl, 0, 15_000, 8_000_000.0);
        assert!(steps.iter().all(|&(p, _)| p != CcPhase::ProbeRtt));
        // Now the delay floor rises (standing queue): the old min-RTT
        // ages out and ProbeRtt must fire within the next interval.
        let mut saw_probe_rtt = false;
        for b in 0..240u64 {
            let t0 = 15_000 + b * 50;
            let batch: Vec<PacketTiming> = (0..4)
                .map(|i| {
                    let send = SimTime::from_micros(t0 * 1_000 + i * 12_000);
                    PacketTiming {
                        send_time: send,
                        arrival_time: send + SimDuration::from_millis(60),
                        size: 1_200,
                    }
                })
                .collect();
            let now = batch.last().unwrap().arrival_time;
            ctl.on_transport_feedback(now, &batch, &PATH);
            if ctl.phase() == CcPhase::ProbeRtt {
                saw_probe_rtt = true;
            }
        }
        assert!(saw_probe_rtt, "stale min-RTT must trigger ProbeRtt");
    }

    #[test]
    fn paths_start_the_gain_cycle_at_different_offsets() {
        let a = MpBbrController::new(PathId(0));
        let b = MpBbrController::new(PathId(1));
        assert_ne!(a.cycle_offset(), b.cycle_offset());
        assert_eq!(
            MpBbrController::new(PathId(8)).cycle_offset(),
            a.cycle_offset(),
            "offset wraps modulo the cycle length"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut ctl = MpBbrController::new(PathId(2));
            drive(&mut ctl, 0, 6_000, 5_000_000.0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cap_estimate_suppresses_stale_bandwidth() {
        let mut ctl = MpBbrController::new(PathId(0));
        drive(&mut ctl, 0, 5_000, 8_000_000.0);
        assert!(ctl.target_rate_bps() > 1_000_000);
        ctl.cap_estimate(500_000.0);
        assert!(ctl.target_rate_bps() <= 500_000);
        assert!(ctl.bottleneck_bw_bps() <= 500_000.0);
    }
}
