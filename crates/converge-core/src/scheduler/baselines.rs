//! Baseline schedulers the paper compares Converge against (§2.2/§5):
//!
//! - [`SinglePathScheduler`]: standard WebRTC pinned to one network.
//! - [`ConnectionMigration`]: WebRTC-CM — one network at a time, switching
//!   when the active path degrades.
//! - [`SrttScheduler`]: minRTT, the default of MPTCP/MPQUIC.
//! - [`MTputScheduler`]: Musher-style throughput-proportional splitting.
//! - [`MRtpScheduler`]: MPRTP-style splitting by loss-discounted rate.
//!
//! None of them is video-aware and none consumes QoE feedback.

use converge_net::{PathId, SimDuration, SimTime};

use crate::metrics::PathMetrics;
use crate::scheduler::{interleave_into, Assignment, Schedulable, Scheduler};

/// Standard single-path WebRTC: everything on one configured path.
#[derive(Debug)]
pub struct SinglePathScheduler {
    path: PathId,
}

impl SinglePathScheduler {
    /// Creates a scheduler pinned to `path`.
    pub fn new(path: PathId) -> Self {
        SinglePathScheduler { path }
    }
}

impl Scheduler for SinglePathScheduler {
    fn name(&self) -> &'static str {
        "webrtc-singlepath"
    }

    fn assign_batch_into(
        &mut self,
        _now: SimTime,
        packets: &[Schedulable],
        _paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        out.clear();
        out.resize(packets.len(), Assignment { path: self.path });
    }

    fn uses_path(&self, path: &PathMetrics) -> bool {
        path.id == self.path
    }
}

/// WebRTC with connection migration: uses exactly one path, migrating to
/// the best other path when the current one has been bad for a while
/// ("dropping and then re-establishing connections in the event of a
/// connection failure", §6). Migration costs a blackout period during which
/// nothing is sent — the re-establishment cost of real CM.
#[derive(Debug)]
pub struct ConnectionMigration {
    active: PathId,
    /// Rate below which the active path counts as failing.
    failover_rate_bps: u64,
    /// How long the path must be bad before migrating.
    patience: SimDuration,
    bad_since: Option<SimTime>,
    /// Until when the post-migration blackout lasts.
    blackout_until: Option<SimTime>,
    /// Re-establishment delay applied on each migration.
    reconnect_delay: SimDuration,
}

impl ConnectionMigration {
    /// Creates a CM scheduler starting on `initial`.
    pub fn new(initial: PathId) -> Self {
        ConnectionMigration {
            active: initial,
            failover_rate_bps: 1_000_000,
            patience: SimDuration::from_millis(1_500),
            bad_since: None,
            blackout_until: None,
            reconnect_delay: SimDuration::from_millis(800),
        }
    }

    /// The currently active path.
    pub fn active_path(&self) -> PathId {
        self.active
    }

    /// Whether the scheduler is inside a migration blackout at `now`.
    pub fn in_blackout(&self, now: SimTime) -> bool {
        self.blackout_until.is_some_and(|t| now < t)
    }
}

impl Scheduler for ConnectionMigration {
    fn name(&self) -> &'static str {
        "webrtc-cm"
    }

    fn assign_batch_into(
        &mut self,
        now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        let current = paths.iter().find(|p| p.id == self.active);
        let failing = current
            .map(|p| !p.enabled || p.rate_bps < self.failover_rate_bps || p.loss > 0.15)
            .unwrap_or(true);
        if failing {
            let since = *self.bad_since.get_or_insert(now);
            if now.saturating_since(since) >= self.patience {
                // Migrate to the best alternative by goodput.
                if let Some(best) = paths
                    .iter()
                    .filter(|p| p.id != self.active && p.enabled)
                    .max_by(|a, b| {
                        a.goodput_bps()
                            .partial_cmp(&b.goodput_bps())
                            .expect("finite")
                    })
                {
                    self.active = best.id;
                    self.bad_since = None;
                    self.blackout_until = Some(now + self.reconnect_delay);
                }
            }
        } else {
            self.bad_since = None;
        }
        // During the blackout the connection is re-establishing: the caller
        // sees assignments to the new path, but a real CM would drop them;
        // we model the cost by assigning to the (not yet connected) path —
        // the sim drops packets assigned during blackout via `in_blackout`.
        out.clear();
        out.resize(packets.len(), Assignment { path: self.active });
    }

    fn uses_path(&self, path: &PathMetrics) -> bool {
        path.id == self.active
    }

    fn drop_batch(&self, now: SimTime) -> bool {
        self.in_blackout(now)
    }
}

/// minRTT (SRTT): fill the lowest-RTT path to its congestion budget, then
/// the next — the default scheduler of MPTCP and MPQUIC.
#[derive(Debug)]
pub struct SrttScheduler {
    /// Max packet size for budget computation.
    max_packet_bytes: usize,
    /// Batch interval for budget computation.
    batch_interval: SimDuration,
    /// The batch's paths in RTT order with what is left of their budgets;
    /// kept between batches so scheduling allocates nothing.
    budgets: Vec<(SimDuration, PathId, usize)>,
}

impl SrttScheduler {
    /// Creates a minRTT scheduler.
    pub fn new(max_packet_bytes: usize, batch_interval: SimDuration) -> Self {
        SrttScheduler {
            max_packet_bytes,
            batch_interval,
            budgets: Vec::new(),
        }
    }
}

impl Scheduler for SrttScheduler {
    fn name(&self) -> &'static str {
        "srtt"
    }

    fn assign_batch_into(
        &mut self,
        _now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        let any_enabled = paths.iter().any(|p| p.enabled);
        let (interval, k) = (self.batch_interval, self.max_packet_bytes);
        let budgets = &mut self.budgets;
        budgets.clear();
        budgets.extend(paths.iter().filter(|p| p.enabled || !any_enabled).map(|p| {
            let budget = crate::scheduler::p_max(p.rate_bps, interval, k);
            (p.srtt, p.id, budget)
        }));
        budgets.sort_by_key(|&(srtt, ..)| srtt);
        out.clear();
        for _ in packets {
            // First path in RTT order with budget left; if all exhausted,
            // keep stuffing the lowest-RTT path (HoL behaviour of minRTT
            // under bursts).
            let path = match budgets.iter_mut().find(|(_, _, b)| *b > 0) {
                Some((_, id, b)) => {
                    *b -= 1;
                    *id
                }
                None => budgets[0].1,
            };
            out.push(Assignment { path });
        }
    }
}

/// Musher-style throughput-proportional splitting: packets distributed in
/// proportion to each path's current rate, no video awareness.
#[derive(Debug, Default)]
pub struct MTputScheduler {
    scratch: SplitScratch,
}

impl MTputScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for MTputScheduler {
    fn name(&self) -> &'static str {
        "m-tput"
    }

    fn assign_batch_into(
        &mut self,
        _now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        let weight = |p: &PathMetrics| p.rate_bps as f64;
        split_by_weight(packets.len(), paths, weight, &mut self.scratch, out);
    }
}

/// MPRTP-style splitting: rate discounted by observed loss ("a scheduler
/// that sends packets using a loss-based estimated sending rate"), always
/// using all available paths.
#[derive(Debug, Default)]
pub struct MRtpScheduler {
    scratch: SplitScratch,
}

impl MRtpScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for MRtpScheduler {
    fn name(&self) -> &'static str {
        "m-rtp"
    }

    fn assign_batch_into(
        &mut self,
        _now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        let weight = |p: &PathMetrics| p.goodput_bps().max(1.0);
        split_by_weight(packets.len(), paths, weight, &mut self.scratch, out);
    }
}

/// [`split_by_weight`]'s working buffers, kept between batches so the
/// multipath baselines schedule without allocating.
#[derive(Debug, Default)]
struct SplitScratch {
    counts: Vec<(PathId, usize)>,
    /// `(weight, index into counts)`, heaviest first.
    order: Vec<(f64, usize)>,
    remaining: Vec<usize>,
    seq: Vec<PathId>,
}

/// Shared weighted splitter for the multipath baselines; replaces the
/// contents of `out`.
fn split_by_weight(
    n: usize,
    paths: &[PathMetrics],
    weight: impl Fn(&PathMetrics) -> f64,
    scratch: &mut SplitScratch,
    out: &mut Vec<Assignment>,
) {
    let SplitScratch {
        counts,
        order,
        remaining,
        seq,
    } = scratch;
    out.clear();
    // The enabled paths, or every path when none is.
    let any_enabled = paths.iter().any(|p| p.enabled);
    let use_paths = || paths.iter().filter(move |p| p.enabled || !any_enabled);
    if paths.is_empty() || n == 0 {
        return;
    }
    let total: f64 = use_paths().map(&weight).sum();
    counts.clear();
    counts.extend(use_paths().map(|p| {
        let share = if total > 0.0 {
            (weight(p) / total * n as f64).floor() as usize
        } else {
            0
        };
        (p.id, share)
    }));
    // Distribute the remainder round-robin by weight order.
    let mut assigned: usize = counts.iter().map(|(_, c)| c).sum();
    order.clear();
    order.extend(use_paths().enumerate().map(|(i, p)| (weight(p), i)));
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let mut i = 0;
    while assigned < n {
        counts[order[i % order.len()].1].1 += 1;
        assigned += 1;
        i += 1;
    }
    interleave_into(counts, remaining, seq);
    out.extend(seq.iter().map(|&path| Assignment { path }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PacketClass;
    use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

    const P1: PathId = PathId(1);
    const P2: PathId = PathId(2);

    fn pm(id: PathId, rate_mbps: u64, rtt_ms: u64, loss: f64) -> PathMetrics {
        PathMetrics::new(
            id,
            rate_mbps * 1_000_000,
            SimDuration::from_millis(rtt_ms),
            loss,
        )
    }

    fn pkts(n: usize) -> Vec<Schedulable> {
        (0..n)
            .map(|i| Schedulable {
                packet: VideoPacket {
                    stream: StreamId(0),
                    sequence: i as u64,
                    frame_id: 0,
                    gop_id: 0,
                    frame_type: FrameType::Delta,
                    kind: PacketKind::Media { index: 0, count: 1 },
                    size: 1200,
                    capture_time: SimTime::ZERO,
                },
                class: PacketClass::DeltaMedia,
            })
            .collect()
    }

    #[test]
    fn single_path_uses_only_its_path() {
        let mut s = SinglePathScheduler::new(P2);
        let out = s.assign_batch(
            SimTime::ZERO,
            &pkts(10),
            &[pm(P1, 100, 1, 0.0), pm(P2, 1, 500, 0.0)],
        );
        assert!(out.iter().all(|a| a.path == P2));
        assert_eq!(s.name(), "webrtc-singlepath");
    }

    #[test]
    fn srtt_prefers_low_rtt_until_budget_exhausts() {
        let mut s = SrttScheduler::new(1250, SimDuration::from_millis(33));
        // P2 has lower RTT but tiny rate (≈1 pkt/batch); spillover to P1.
        let out = s.assign_batch(
            SimTime::ZERO,
            &pkts(20),
            &[pm(P1, 20, 100, 0.0), pm(P2, 1, 10, 0.0)],
        );
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        let on_p1 = out.iter().filter(|a| a.path == P1).count();
        // P2's budget at 1 Mbps / 33 ms / 1250 B with 25 % headroom is ~5.
        assert!(
            (1..=6).contains(&on_p2),
            "low-RTT path filled first: {on_p2}"
        );
        assert_eq!(on_p1 + on_p2, 20);
        // Low-RTT path is used FIRST.
        assert_eq!(out[0].path, P2);
    }

    #[test]
    fn mtput_splits_by_rate() {
        let mut s = MTputScheduler::new();
        let out = s.assign_batch(
            SimTime::ZERO,
            &pkts(40),
            &[pm(P1, 15, 50, 0.0), pm(P2, 5, 50, 0.0)],
        );
        let on_p1 = out.iter().filter(|a| a.path == P1).count();
        assert_eq!(on_p1, 30);
    }

    #[test]
    fn mrtp_discounts_loss() {
        let mut s = MRtpScheduler::new();
        // Equal rates, but P2 at 50% loss → P2 gets ~1/3 of packets.
        let out = s.assign_batch(
            SimTime::ZERO,
            &pkts(30),
            &[pm(P1, 10, 50, 0.0), pm(P2, 10, 50, 0.5)],
        );
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        assert_eq!(on_p2, 10, "goodput split 10:5 → 20:10");
    }

    #[test]
    fn cm_migrates_after_patience() {
        let mut s = ConnectionMigration::new(P1);
        let bad_p1 = [pm(P1, 0, 50, 0.0), pm(P2, 10, 50, 0.0)];
        let t0 = SimTime::ZERO;
        s.assign_batch(t0, &pkts(5), &bad_p1);
        assert_eq!(s.active_path(), P1, "patience not yet exhausted");
        let t1 = SimTime::from_millis(2_000);
        s.assign_batch(t1, &pkts(5), &bad_p1);
        assert_eq!(s.active_path(), P2, "should have migrated");
        assert!(s.in_blackout(SimTime::from_millis(2_100)));
        assert!(!s.in_blackout(SimTime::from_millis(3_000)));
    }

    #[test]
    fn cm_stays_on_healthy_path() {
        let mut s = ConnectionMigration::new(P1);
        let good = [pm(P1, 10, 50, 0.0), pm(P2, 20, 10, 0.0)];
        for ms in [0u64, 1000, 5000] {
            s.assign_batch(SimTime::from_millis(ms), &pkts(5), &good);
        }
        assert_eq!(s.active_path(), P1);
    }

    #[test]
    fn multipath_baselines_ignore_feedback() {
        use converge_rtp::QoeFeedback;
        let mut s = MTputScheduler::new();
        s.on_qoe_feedback(
            SimTime::ZERO,
            &QoeFeedback {
                path_id: 2,
                ssrc: 0,
                alpha: -100,
                fcd_micros: 0,
            },
        );
        let out = s.assign_batch(
            SimTime::ZERO,
            &pkts(40),
            &[pm(P1, 15, 50, 0.0), pm(P2, 5, 50, 0.0)],
        );
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        assert_eq!(on_p2, 10, "baseline unaffected by feedback");
    }

    #[test]
    fn weighted_split_handles_zero_total() {
        let mut s = MTputScheduler::new();
        let paths = [pm(P1, 0, 50, 0.0), pm(P2, 0, 50, 0.0)];
        let out = s.assign_batch(SimTime::ZERO, &pkts(10), &paths);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn disabled_paths_excluded() {
        let mut a = pm(P1, 10, 50, 0.0);
        a.enabled = false;
        let mut s = MTputScheduler::new();
        let out = s.assign_batch(SimTime::ZERO, &pkts(10), &[a, pm(P2, 10, 50, 0.0)]);
        assert!(out.iter().all(|x| x.path == P2));
    }
}
