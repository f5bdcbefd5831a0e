//! Shared-bottleneck detection per RFC 8382 (skewness-based).
//!
//! When many flows traverse one queue, their one-way-delay processes share
//! a statistical fingerprint: the same skewness drift as the queue fills
//! and drains, a proportional variability, and correlated loss episodes.
//! RFC 8382 groups flows by comparing three per-flow summary statistics —
//! `skew_est`, `var_est` (mean absolute deviation), and `freq_est` (loss
//! frequency) — computed over a sliding window of fixed base intervals.
//!
//! The fleet engine samples each member's uplink OWD at the SFU, closes a
//! base interval every `T`, and asks [`SbdDetector::groups`] for the
//! current clustering; members that land in one group get their
//! controllers' additive-increase scaled by `1/group_size` (the same
//! coupling surface LIA uses), so a shared bottleneck is probed once, not
//! `N` times.
//!
//! Everything here is integer-time in, `f64` summary out, with a
//! deterministic greedy clustering (stable flow order, no RNG), so fleet
//! folds remain byte-identical across shard counts.

use converge_net::{SimDuration, SimTime};

// Tuning: RFC 8382 §2.2/§3.3's recommendations (T = 350 ms, N = 50,
// c_s = 0.1, p_v = 0.7).

/// Number of base intervals `N` in the sliding summary window.
const WINDOW: usize = 50;
/// Skewness split threshold: flows whose `skew_est` differ by more than
/// this never share a group (grouping axis 1).
const SKEW_TOLERANCE: f64 = 0.1;
/// Proportional MAD split threshold `p_v`: within a skewness cluster, flows
/// whose `var_est` differ by more than this *fraction* of the larger one
/// are split apart (grouping axis 2).
const MAD_TOLERANCE: f64 = 0.7;
/// Loss-frequency split threshold (grouping axis 3).
const FREQ_TOLERANCE: f64 = 0.1;
/// Congestion gate `c_s` (RFC 8382 §3.3.1): a flow only participates in
/// grouping while its `skew_est` is below this — a standing queue
/// concentrates OWD samples above their mean, pulling `skew_est` toward
/// −1, while an idle path shows no such left skew.
const CONGESTION_SKEW_GATE: f64 = 0.1;
/// Minimum mean-absolute-deviation (µs) a flow needs to be grouped: a flow
/// with essentially flat OWD carries no queue signal to cluster on,
/// whatever its skewness says.
const MIN_MAD_US: f64 = 200.0;
/// Minimum OWD samples a flow needs in the window to be grouped.
const MIN_SAMPLES: u64 = 20;

/// The RFC 8382 summary statistics for one flow over the current window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSignature {
    /// Skewness estimate: mean over the window of
    /// `(samples below the window mean − samples above) / samples`.
    /// Negative while a queue is filling.
    pub skew_est: f64,
    /// Mean absolute deviation of OWD around each interval mean, µs.
    pub var_est: f64,
    /// Fraction of base intervals that saw at least one loss event.
    pub freq_est: f64,
    /// OWD samples contributing to the window.
    pub samples: u64,
}

/// Per-interval accumulator for one flow.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalAcc {
    owd_sum_us: u128,
    count: u64,
    below_mean: u64,
    above_mean: u64,
    abs_dev_sum_us: u128,
    losses: u64,
}

/// Closed-interval summary kept in the sliding window.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalStat {
    skew_base: f64,
    mad_us: f64,
    count: u64,
    had_loss: bool,
}

#[derive(Debug, Clone)]
struct Flow {
    current: IntervalAcc,
    /// Ring of the last `window` closed intervals.
    history: Vec<IntervalStat>,
    head: usize,
    filled: usize,
    /// Long-run mean OWD (µs) used as the skewness reference, updated at
    /// interval close from the window it summarizes (RFC 8382 computes
    /// skewness against `mean_delay` from the previous window).
    reference_mean_us: f64,
}

impl Flow {
    fn new() -> Self {
        Flow {
            current: IntervalAcc::default(),
            history: vec![IntervalStat::default(); WINDOW],
            head: 0,
            filled: 0,
            reference_mean_us: 0.0,
        }
    }

    fn close_interval(&mut self) {
        let acc = std::mem::take(&mut self.current);
        let stat = if acc.count > 0 {
            let mean = acc.owd_sum_us as f64 / acc.count as f64;
            // Seed the reference on the very first populated interval, then
            // track it with an EWMA so skewness is judged against the
            // flow's recent history, not its lifetime average.
            if self.filled == 0 && self.reference_mean_us == 0.0 {
                self.reference_mean_us = mean;
            } else {
                self.reference_mean_us = 0.9 * self.reference_mean_us + 0.1 * mean;
            }
            IntervalStat {
                skew_base: (acc.below_mean as f64 - acc.above_mean as f64) / acc.count as f64,
                mad_us: acc.abs_dev_sum_us as f64 / acc.count as f64,
                count: acc.count,
                had_loss: acc.losses > 0,
            }
        } else {
            IntervalStat {
                skew_base: 0.0,
                mad_us: 0.0,
                count: 0,
                had_loss: acc.losses > 0,
            }
        };
        self.history[self.head] = stat;
        self.head = (self.head + 1) % self.history.len();
        self.filled = (self.filled + 1).min(self.history.len());
    }

    fn signature(&self) -> FlowSignature {
        let mut skew_sum = 0.0;
        let mut mad_weighted = 0.0;
        let mut samples = 0u64;
        let mut populated = 0usize;
        let mut lossy = 0usize;
        for stat in self.history.iter().take(self.filled) {
            if stat.count > 0 {
                skew_sum += stat.skew_base;
                mad_weighted += stat.mad_us * stat.count as f64;
                samples += stat.count;
                populated += 1;
            }
            if stat.had_loss {
                lossy += 1;
            }
        }
        FlowSignature {
            skew_est: if populated > 0 {
                skew_sum / populated as f64
            } else {
                0.0
            },
            var_est: if samples > 0 {
                mad_weighted / samples as f64
            } else {
                0.0
            },
            freq_est: if self.filled > 0 {
                lossy as f64 / self.filled as f64
            } else {
                0.0
            },
            samples,
        }
    }
}

/// Skewness-based shared-bottleneck detector over a fixed flow set.
///
/// Feed OWD samples and loss events as they happen, close base intervals
/// on a timer, and read back [`groups`](SbdDetector::groups): a
/// deterministic partition of the flow indices, singletons omitted.
#[derive(Debug, Clone)]
pub struct SbdDetector {
    flows: Vec<Flow>,
    intervals_closed: u64,
}

impl SbdDetector {
    /// The base interval `T` over which per-interval statistics are
    /// computed; callers drive the close cadence.
    pub const INTERVAL: SimDuration = SimDuration::from_millis(350);

    /// Creates a detector tracking `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        SbdDetector {
            flows: (0..n_flows).map(|_| Flow::new()).collect(),
            intervals_closed: 0,
        }
    }

    /// Records one one-way-delay sample for `flow`. `sent_at`/`arrived_at`
    /// come from the packet clock; only their difference is used, so a
    /// constant clock offset (which real OWD measurement suffers) cancels
    /// out of the skewness statistic exactly as RFC 8382 intends.
    pub fn on_owd_sample(&mut self, flow: usize, sent_at: SimTime, arrived_at: SimTime) {
        let owd_us = arrived_at.saturating_since(sent_at).as_micros();
        let f = &mut self.flows[flow];
        let acc = &mut f.current;
        acc.owd_sum_us += owd_us as u128;
        acc.count += 1;
        let reference = f.reference_mean_us;
        if reference > 0.0 {
            let owd = owd_us as f64;
            if owd < reference {
                acc.below_mean += 1;
            } else if owd > reference {
                acc.above_mean += 1;
            }
            acc.abs_dev_sum_us += (owd - reference).abs() as u128;
        }
    }

    /// Records a loss event for `flow` in the current interval.
    pub fn on_loss(&mut self, flow: usize) {
        self.flows[flow].current.losses += 1;
    }

    /// Closes the current base interval for every flow.
    pub fn close_interval(&mut self) {
        for flow in &mut self.flows {
            flow.close_interval();
        }
        self.intervals_closed += 1;
    }

    /// Base intervals closed so far.
    pub fn intervals_closed(&self) -> u64 {
        self.intervals_closed
    }

    /// The current per-flow summary statistics.
    pub fn signatures(&self) -> Vec<FlowSignature> {
        self.flows.iter().map(Flow::signature).collect()
    }

    /// Groups flows that currently share a bottleneck.
    ///
    /// Deterministic greedy clustering in flow-index order along the three
    /// RFC 8382 axes (skewness, proportional MAD, loss frequency), gated
    /// by the congestion test: only flows whose `skew_est` sits below
    /// `CONGESTION_SKEW_GATE` with enough samples participate. Singleton
    /// groups are omitted; returned groups list flow indices in ascending
    /// order and groups sort by their first member.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let sigs = self.signatures();
        let candidates: Vec<usize> = (0..sigs.len())
            .filter(|&i| {
                sigs[i].samples >= MIN_SAMPLES
                    && sigs[i].skew_est < CONGESTION_SKEW_GATE
                    && sigs[i].var_est >= MIN_MAD_US
            })
            .collect();
        let mut assigned = vec![false; sigs.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &i in &candidates {
            if assigned[i] {
                continue;
            }
            let mut group = vec![i];
            assigned[i] = true;
            for &j in &candidates {
                if assigned[j] {
                    continue;
                }
                if same_bottleneck(&sigs[i], &sigs[j]) {
                    group.push(j);
                    assigned[j] = true;
                }
            }
            if group.len() > 1 {
                groups.push(group);
            }
        }
        groups
    }

    /// The coupled additive-increase scale for each flow given the current
    /// grouping: `1/group_size` for grouped flows, `1.0` for singletons.
    /// This is the value to pass to `CongestionController::set_increase_scale`.
    pub fn increase_scales(&self) -> Vec<f64> {
        let mut scales = vec![1.0; self.flows.len()];
        for group in self.groups() {
            let scale = 1.0 / group.len() as f64;
            for flow in group {
                scales[flow] = scale;
            }
        }
        scales
    }
}

fn same_bottleneck(a: &FlowSignature, b: &FlowSignature) -> bool {
    if (a.skew_est - b.skew_est).abs() > SKEW_TOLERANCE {
        return false;
    }
    let larger_mad = a.var_est.max(b.var_est);
    if larger_mad > 0.0 && (a.var_est - b.var_est).abs() > MAD_TOLERANCE * larger_mad {
        return false;
    }
    (a.freq_est - b.freq_est).abs() <= FREQ_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enough base intervals to fill the window and wrap its ring.
    const INTERVALS: usize = WINDOW + 2;

    /// Drives `detector` with a synthetic OWD process per flow: a shared
    /// sawtooth queue delay for flows in `shared`, flat noise for others.
    /// A congested bottleneck's OWD process: the queue fills quickly then
    /// stands near-full for most of each interval, so samples concentrate
    /// above the running mean and `skew_est` goes negative — the RFC 8382
    /// left-skew fingerprint.
    fn standing_queue_us(k: u64) -> u64 {
        (k * 4_000).min(30_000)
    }

    fn drive(detector: &mut SbdDetector, shared: &[usize], flat: &[usize]) {
        let mut t = SimTime::ZERO;
        for _ in 0..INTERVALS {
            for k in 0..35u64 {
                let sent = t + SimDuration::from_millis(k * 10);
                for &f in shared {
                    let arrival = sent + SimDuration::from_micros(20_000 + standing_queue_us(k));
                    detector.on_owd_sample(f, sent, arrival);
                }
                for &f in flat {
                    let arrival = sent + SimDuration::from_micros(30_000 + (k % 2) * 100);
                    detector.on_owd_sample(f, sent, arrival);
                }
            }
            t += SimDuration::from_millis(350);
            detector.close_interval();
        }
    }

    #[test]
    fn shared_queue_flows_group_together() {
        let mut d = SbdDetector::new(4);
        drive(&mut d, &[0, 2], &[1, 3]);
        let groups = d.groups();
        assert_eq!(groups, vec![vec![0, 2]], "signatures: {:?}", d.signatures());
    }

    #[test]
    fn flat_flows_stay_ungrouped() {
        let mut d = SbdDetector::new(3);
        drive(&mut d, &[], &[0, 1, 2]);
        assert!(
            d.groups().is_empty(),
            "uncongested flows must not group: {:?}",
            d.signatures()
        );
    }

    #[test]
    fn increase_scales_split_the_probe_budget() {
        let mut d = SbdDetector::new(4);
        drive(&mut d, &[0, 1, 3], &[2]);
        let scales = d.increase_scales();
        assert_eq!(scales.len(), 4);
        assert!((scales[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((scales[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((scales[2] - 1.0).abs() < 1e-9);
        assert!((scales[3] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn loss_frequency_separates_otherwise_similar_flows() {
        let mut d = SbdDetector::new(2);
        let mut t = SimTime::ZERO;
        for _ in 0..INTERVALS {
            for k in 0..35u64 {
                let sent = t + SimDuration::from_millis(k * 10);
                for f in 0..2 {
                    let arrival = sent + SimDuration::from_micros(20_000 + standing_queue_us(k));
                    d.on_owd_sample(f, sent, arrival);
                }
            }
            // Flow 1 sees loss every interval, flow 0 never.
            d.on_loss(1);
            t += SimDuration::from_millis(350);
            d.close_interval();
        }
        assert!(
            d.groups().is_empty(),
            "divergent loss frequency must split: {:?}",
            d.signatures()
        );
    }

    #[test]
    fn too_few_samples_never_groups() {
        let mut d = SbdDetector::new(2);
        for f in 0..2 {
            d.on_owd_sample(f, SimTime::ZERO, SimTime::from_millis(50));
        }
        d.close_interval();
        assert!(d.groups().is_empty());
    }

    #[test]
    fn detector_is_deterministic() {
        let run = || {
            let mut d = SbdDetector::new(6);
            drive(&mut d, &[0, 1, 2], &[3, 4, 5]);
            (d.groups(), format!("{:?}", d.signatures()))
        };
        assert_eq!(run(), run());
    }
}
