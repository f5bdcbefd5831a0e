//! The Converge video-aware scheduler (paper §4.1).
//!
//! Per batch (one encoded frame's packets plus retransmissions and FEC):
//!
//! 1. Select the fast path by completion time (Algorithm 1).
//! 2. Send priority packets (Table 2 order) on the fast path, up to its
//!    `P_max`; overflow spills to the remaining paths in priority order,
//!    except FEC overflow, which stays on the path it protects.
//! 3. Split the non-priority media packets across enabled paths
//!    proportionally to their GCC rates (Eq. 1), adjusted by the α offsets
//!    accumulated from QoE feedback (Eq. 2), capped at `P_max`.
//! 4. Disable a path whose share reaches zero; duplicate probe packets on
//!    it and re-enable when Eq. 3 holds.

use std::collections::BTreeMap;

use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::QoeFeedback;
use converge_trace::{TraceEvent, TraceHandle};

use crate::feedback::PathShare;
use crate::metrics::PathMetrics;
use crate::scheduler::{
    interleave_into, p_max, Assignment, Schedulable, Scheduler, MAX_PACKET_BYTES,
};

/// Minimum interval between probes of a disabled path.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Configuration of the Converge scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ConvergeSchedulerConfig {
    /// Batch interval (one frame interval) for `P_max` computation.
    pub batch_interval: SimDuration,
    /// Whether QoE feedback adjusts shares (Eq. 2). Disabled for the
    /// feedback ablation of paper Fig. 11 / Table 4.
    pub use_feedback: bool,
    /// Whether packet priorities (Table 2) steer packets to the fast path.
    /// Disabled for the video-awareness ablation: every packet is then
    /// treated as plain media and split by Eq. 1 alone.
    pub use_priority: bool,
    /// Fast-path selection metric (Algorithm 1 by default; minRTT for the
    /// design-choice ablation).
    pub fast_path_metric: crate::fastpath::FastPathMetric,
}

impl Default for ConvergeSchedulerConfig {
    fn default() -> Self {
        ConvergeSchedulerConfig {
            batch_interval: SimDuration::from_micros(33_333),
            use_feedback: true,
            use_priority: true,
            fast_path_metric: crate::fastpath::FastPathMetric::CompletionTime,
        }
    }
}

/// The Converge scheduler.
#[derive(Debug)]
pub struct ConvergeScheduler {
    config: ConvergeSchedulerConfig,
    share: PathShare,
    last_probe: BTreeMap<PathId, SimTime>,
    /// FCD from the most recent feedback, used when marking disabled.
    last_feedback_fcd: SimDuration,
    /// Last time a path drew negative feedback — positive feedback inside
    /// the hysteresis window is ignored so the share does not oscillate
    /// back onto a path that just proved slow.
    last_negative: BTreeMap<PathId, SimTime>,
    trace: TraceHandle,
    /// Fast path of the previous batch, for switch-edge tracing.
    last_fast: Option<PathId>,
    /// Last traced per-path split counts, so the timeline records changes
    /// rather than one event per batch per path.
    last_split: BTreeMap<PathId, u32>,
    scratch: BatchScratch,
}

/// One batch's working buffers, kept across batches so the steady state
/// reuses their capacity instead of allocating per frame.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Paths usable this batch.
    usable: Vec<PathMetrics>,
    /// What is left of each usable path's `P_max`, indexed by path id.
    budget: Vec<usize>,
    /// Indices of the batch's priority packets, in Table 2 order.
    priority_idx: Vec<usize>,
    /// Spill order for priority packets, with each path's completion time.
    path_order: Vec<(f64, PathId)>,
    /// The Eq. 1/2 split of the media packets and its interleaving.
    counts: Vec<(PathId, usize)>,
    remaining: Vec<usize>,
    seq: Vec<PathId>,
}

impl ConvergeScheduler {
    /// Creates a scheduler.
    pub fn new(config: ConvergeSchedulerConfig) -> Self {
        ConvergeScheduler {
            config,
            share: PathShare::new(),
            last_probe: BTreeMap::new(),
            last_feedback_fcd: SimDuration::from_millis(10),
            last_negative: BTreeMap::new(),
            trace: TraceHandle::disabled(),
            last_fast: None,
            last_split: BTreeMap::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Read access to the share state (tests/telemetry).
    pub fn share(&self) -> &PathShare {
        &self.share
    }
}

impl Scheduler for ConvergeScheduler {
    fn name(&self) -> &'static str {
        "converge"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn assign_batch_into(
        &mut self,
        now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    ) {
        out.clear();
        if packets.is_empty() || paths.is_empty() {
            return;
        }
        let BatchScratch {
            usable,
            budget,
            priority_idx,
            path_order,
            counts,
            remaining,
            seq,
        } = &mut self.scratch;
        let (n, k) = (packets.len(), MAX_PACKET_BYTES);
        // Paths usable this batch: enabled at the transport level and not
        // disabled by feedback.
        usable.clear();
        usable.extend(
            paths
                .iter()
                .filter(|p| p.enabled && !self.share.is_disabled(p.id)),
        );
        if usable.is_empty() {
            // Last resort: use everything rather than stall.
            usable.extend_from_slice(paths);
        }

        let fast = crate::fastpath::select_fast_path_by(self.config.fast_path_metric, usable, n, k)
            .unwrap_or(usable[0].id);
        if self.trace.is_enabled() && self.last_fast != Some(fast) {
            self.last_fast = Some(fast);
            self.trace
                .emit(now, TraceEvent::FastPathSwitched { path: fast });
        }

        // Per-path budget for the batch; only usable paths' entries are
        // ever read.
        let len = usable.iter().map(|p| p.id.index() + 1).max();
        budget.clear();
        budget.resize(len.unwrap_or(0), 0);
        for p in usable.iter() {
            budget[p.id.index()] = p_max(p.rate_bps, self.config.batch_interval, k).max(1);
        }

        // Everything not placed below rides the fast path.
        out.resize(n, Assignment { path: fast });

        // --- Priority packets: fast path first, spill in priority order.
        // With the video-awareness ablation the priority set is empty and
        // everything falls through to the Eq. 1 split.
        let use_priority = self.config.use_priority;
        let is_priority = move |s: &Schedulable| use_priority && s.class.is_priority();
        priority_idx.clear();
        priority_idx.extend((0..n).filter(|&i| is_priority(&packets[i])));
        priority_idx.sort_by_key(|&i| packets[i].class.priority().expect("priority"));

        // Spill order: the fast path, then the others by completion time. A
        // path an order of magnitude slower than the fast path is excluded —
        // losing or delaying a keyframe/control packet there costs far more
        // QoE than briefly bursting past the fast path's budget.
        path_order.clear();
        path_order.extend(
            usable
                .iter()
                .map(|p| (crate::fastpath::completion_time(p, n, k), p.id)),
        );
        path_order.sort_by(|a, b| {
            let cpt = || a.0.partial_cmp(&b.0).expect("finite or inf comparable");
            (a.1 != fast).cmp(&(b.1 != fast)).then_with(cpt)
        });
        let fast_cpt = path_order[0].0;
        path_order.retain(|&(cpt, id)| id == fast || cpt <= fast_cpt * 3.0);

        for &i in priority_idx.iter() {
            // The first path in spill order with budget left; a packet that
            // fits nowhere bursts past the fast path's budget.
            let slot = path_order.iter().find(|&&(_, p)| budget[p.index()] > 0);
            if let Some(&(_, p)) = slot {
                budget[p.index()] -= 1;
                out[i].path = p;
            }
        }

        // --- Non-priority media: Eq. 1 + Eq. 2 split, interleaved.
        let n_media = n - priority_idx.len();
        if n_media > 0 {
            self.share.split_into(n_media, usable, budget, counts);
            if self.trace.is_enabled() {
                for &(path, count) in counts.iter() {
                    let count = count as u32;
                    if self.last_split.insert(path, count) != Some(count) {
                        self.trace.emit(
                            now,
                            TraceEvent::SplitDecision {
                                path,
                                packets: count,
                                offset: self.share.offset(path),
                            },
                        );
                    }
                }
            }
            if self.config.use_feedback {
                // Stale feedback fades after it has influenced this batch.
                self.share.decay_offsets();
                // A path whose computed share is zero while its offset is
                // negative has been squeezed out: disable it (paper: "If the
                // number of packets becomes zero, the sender disables the
                // path"). `counts` lists the split's paths in usable order.
                for &(path, count) in counts.iter() {
                    if count == 0 && self.share.offset(path) < 0 && usable.len() > 1 {
                        let newly = !self.share.is_disabled(path);
                        self.share.mark_disabled(path, self.last_feedback_fcd);
                        if newly {
                            self.trace.emit(
                                now,
                                TraceEvent::PathDisabled {
                                    path,
                                    fcd_us: self.last_feedback_fcd.as_micros(),
                                },
                            );
                        }
                    }
                }
            }
            interleave_into(counts, remaining, seq);
            let media = (0..n).filter(|&i| !is_priority(&packets[i]));
            for (i, &path) in media.zip(seq.iter()) {
                out[i].path = path;
            }
        }
    }

    fn on_qoe_feedback(&mut self, now: SimTime, fb: &QoeFeedback) {
        if !self.config.use_feedback {
            return;
        }
        let fcd = SimDuration::from_micros(fb.fcd_micros);
        self.last_feedback_fcd = fcd;
        let path = PathId(fb.path_id);
        if fb.alpha < 0 {
            self.last_negative.insert(path, now);
        } else if let Some(&neg_at) = self.last_negative.get(&path) {
            // Hysteresis: a path that was just reported slow must prove
            // itself before its share grows again.
            if now.saturating_since(neg_at) < SimDuration::from_secs(2) {
                return;
            }
        }
        self.share.apply_feedback(path, fb.alpha);
        self.trace.emit(
            now,
            TraceEvent::AlphaAdjusted {
                path,
                alpha: i64::from(fb.alpha),
                offset: self.share.offset(path),
            },
        );
    }

    fn probe_due(&mut self, now: SimTime, path: PathId) -> bool {
        if !self.share.is_disabled(path) {
            return false;
        }
        let due = match self.last_probe.get(&path) {
            Some(&last) => now.saturating_since(last) >= PROBE_INTERVAL,
            None => true,
        };
        if due {
            self.last_probe.insert(path, now);
        }
        due
    }

    /// A disabled path counts once it has been probed: until then its rate
    /// still feeds the encoder.
    fn is_disabled(&self, path: PathId) -> bool {
        self.last_probe.contains_key(&path) && self.share.is_disabled(path)
    }

    fn on_probe_rtt(
        &mut self,
        now: SimTime,
        path: PathId,
        rtt_fast: SimDuration,
        rtt_path: SimDuration,
    ) {
        if let Some((margin_us, threshold_us)) = self.share.try_reenable(path, rtt_fast, rtt_path) {
            self.trace.emit(
                now,
                TraceEvent::PathReenabled {
                    path,
                    margin_us,
                    threshold_us,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PacketClass;
    use converge_trace::RingSink;
    use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};
    use std::sync::Arc;

    const P1: PathId = PathId(1);
    const P2: PathId = PathId(2);

    fn pm(id: PathId, rate_mbps: u64, rtt_ms: u64) -> PathMetrics {
        PathMetrics::new(
            id,
            rate_mbps * 1_000_000,
            SimDuration::from_millis(rtt_ms),
            0.0,
        )
    }

    fn sched() -> ConvergeScheduler {
        ConvergeScheduler::new(ConvergeSchedulerConfig::default())
    }

    fn schedulable(class: PacketClass, seq: u64) -> Schedulable {
        let (kind, ft) = match class {
            PacketClass::Sps => (PacketKind::Sps, FrameType::Key),
            PacketClass::Pps => (PacketKind::Pps, FrameType::Key),
            PacketClass::KeyframeMedia => {
                (PacketKind::Media { index: 0, count: 1 }, FrameType::Key)
            }
            _ => (PacketKind::Media { index: 0, count: 1 }, FrameType::Delta),
        };
        Schedulable {
            packet: VideoPacket {
                stream: StreamId(0),
                sequence: seq,
                frame_id: 0,
                gop_id: 0,
                frame_type: ft,
                kind,
                size: 1200,
                capture_time: SimTime::ZERO,
            },
            class,
        }
    }

    fn batch(priority: usize, media: usize) -> Vec<Schedulable> {
        let mut v = Vec::new();
        for i in 0..priority {
            v.push(schedulable(PacketClass::KeyframeMedia, i as u64));
        }
        for i in 0..media {
            v.push(schedulable(PacketClass::DeltaMedia, (priority + i) as u64));
        }
        v
    }

    #[test]
    fn priority_packets_go_to_fast_path() {
        let mut s = sched();
        // P1 much faster: fast path. 4 keyframe-media packets.
        let pkts = batch(4, 0);
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 20, 20), pm(P2, 2, 200)]);
        assert!(out.iter().all(|a| a.path == P1), "{out:?}");
    }

    #[test]
    fn media_split_proportional_to_rate() {
        let mut s = sched();
        let pkts = batch(0, 40);
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 15, 50), pm(P2, 5, 50)]);
        let on_p1 = out.iter().filter(|a| a.path == P1).count();
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        assert_eq!(on_p1 + on_p2, 40);
        assert_eq!(on_p1, 30, "Eq.1: 15/20 × 40 = 30, got {on_p1}");
        assert_eq!(on_p2, 10);
    }

    #[test]
    fn feedback_shifts_media_away() {
        let mut s = sched();
        s.on_qoe_feedback(
            SimTime::ZERO,
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: -5,
                fcd_micros: 20_000,
            },
        );
        let pkts = batch(0, 40);
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 15, 50), pm(P2, 5, 50)]);
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        assert_eq!(on_p2, 5, "paper example: 4:2 becomes 5:1 style shift");
    }

    #[test]
    fn feedback_ignored_when_disabled_in_config() {
        let cfg = ConvergeSchedulerConfig {
            use_feedback: false,
            ..Default::default()
        };
        let mut s = ConvergeScheduler::new(cfg);
        s.on_qoe_feedback(
            SimTime::ZERO,
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: -100,
                fcd_micros: 1_000,
            },
        );
        let pkts = batch(0, 40);
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 15, 50), pm(P2, 5, 50)]);
        let on_p2 = out.iter().filter(|a| a.path == P2).count();
        assert_eq!(on_p2, 10, "ablated scheduler must not react to feedback");
    }

    #[test]
    fn repeated_negative_feedback_disables_path() {
        let mut s = sched();
        for _ in 0..10 {
            s.on_qoe_feedback(
                SimTime::ZERO,
                &QoeFeedback {
                    path_id: P2.0,
                    ssrc: 0,
                    alpha: -20,
                    fcd_micros: 10_000,
                },
            );
        }
        let pkts = batch(0, 40);
        let _ = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 15, 50), pm(P2, 5, 50)]);
        assert!(s.share().is_disabled(P2));
        // Disabled path must be probed; until then it still counts as used.
        assert!(!s.is_disabled(P2));
        assert!(!s.probe_due(SimTime::from_millis(500), P1));
        assert!(s.probe_due(SimTime::from_millis(500), P2));
        assert!(s.is_disabled(P2) && !s.uses_path(&pm(P2, 5, 50)));
        // Probe rate-limited.
        assert!(!s.probe_due(SimTime::from_millis(510), P2));
    }

    #[test]
    fn reenable_restores_path_usage() {
        let mut s = sched();
        for _ in 0..10 {
            s.on_qoe_feedback(
                SimTime::ZERO,
                &QoeFeedback {
                    path_id: P2.0,
                    ssrc: 0,
                    alpha: -20,
                    fcd_micros: 10_000,
                },
            );
        }
        let _ = s.assign_batch(
            SimTime::ZERO,
            &batch(0, 40),
            &[pm(P1, 15, 50), pm(P2, 5, 50)],
        );
        assert!(s.share().is_disabled(P2));
        let ring = Arc::new(RingSink::new(16));
        s.set_trace(TraceHandle::new(ring.clone()));
        s.on_probe_rtt(
            SimTime::ZERO,
            P2,
            SimDuration::from_millis(50),
            SimDuration::from_millis(55),
        );
        assert!(!s.share().is_disabled(P2));
        // Eq. 3 as tested: |50 − 55| ms / 2 against the disabling FCD.
        let reenabled: Vec<TraceEvent> = ring.drain().into_iter().map(|r| r.event).collect();
        assert_eq!(
            reenabled,
            [TraceEvent::PathReenabled {
                path: P2,
                margin_us: 2_500,
                threshold_us: 10_000,
            }]
        );
        let out = s.assign_batch(
            SimTime::ZERO,
            &batch(0, 40),
            &[pm(P1, 15, 50), pm(P2, 5, 50)],
        );
        assert!(out.iter().any(|a| a.path == P2));
    }

    #[test]
    fn mixed_batch_routes_priority_and_media_separately() {
        let mut s = sched();
        let mut pkts = vec![
            schedulable(PacketClass::Retransmission, 0),
            schedulable(PacketClass::Sps, 1),
            schedulable(PacketClass::Pps, 2),
        ];
        pkts.extend(batch(0, 30));
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 18, 30), pm(P2, 6, 30)]);
        // All three priority packets on the fast path (P1).
        assert!(out[..3].iter().all(|a| a.path == P1));
        // Media split across both.
        assert!(out[3..].iter().any(|a| a.path == P2));
    }

    #[test]
    fn positive_feedback_suppressed_after_negative() {
        let mut s = sched();
        // Negative feedback at t=0 for P2.
        s.on_qoe_feedback(
            SimTime::ZERO,
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: -8,
                fcd_micros: 20_000,
            },
        );
        // Positive feedback 500 ms later (inside the 2 s hysteresis):
        // must be ignored so the share does not bounce back.
        s.on_qoe_feedback(
            SimTime::from_millis(500),
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: 8,
                fcd_micros: 20_000,
            },
        );
        assert_eq!(s.share().offset(P2), -8, "positive inside window ignored");
        // After the window, positive feedback applies again.
        s.on_qoe_feedback(
            SimTime::from_secs(3),
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: 8,
                fcd_micros: 20_000,
            },
        );
        assert_eq!(s.share().offset(P2), 0, "applied after the window");
    }

    #[test]
    fn offsets_fade_over_batches() {
        let mut s = sched();
        s.on_qoe_feedback(
            SimTime::ZERO,
            &QoeFeedback {
                path_id: P2.0,
                ssrc: 0,
                alpha: -10,
                fcd_micros: 20_000,
            },
        );
        let paths = [pm(P1, 10, 50), pm(P2, 10, 50)];
        let first: usize = {
            let out = s.assign_batch(SimTime::ZERO, &batch(0, 40), &paths);
            out.iter().filter(|a| a.path == P2).count()
        };
        // Many batches later the offset has decayed and P2's share recovers.
        for i in 1..120 {
            let _ = s.assign_batch(SimTime::from_millis(i * 33), &batch(0, 40), &paths);
        }
        let later: usize = {
            let out = s.assign_batch(SimTime::from_secs(5), &batch(0, 40), &paths);
            out.iter().filter(|a| a.path == P2).count()
        };
        assert!(later > first, "share must recover: {first} -> {later}");
        assert_eq!(later, 20, "fully recovered to the Eq. 1 split");
    }

    #[test]
    fn empty_inputs() {
        let mut s = sched();
        assert!(s
            .assign_batch(SimTime::ZERO, &[], &[pm(P1, 10, 50)])
            .is_empty());
        assert!(s.assign_batch(SimTime::ZERO, &batch(1, 1), &[]).is_empty());
    }

    #[test]
    fn assignment_length_matches_input() {
        let mut s = sched();
        let pkts = batch(3, 17);
        let out = s.assign_batch(SimTime::ZERO, &pkts, &[pm(P1, 10, 50), pm(P2, 10, 50)]);
        assert_eq!(out.len(), pkts.len());
    }
}
