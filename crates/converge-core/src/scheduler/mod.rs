//! Multipath packet schedulers: the Converge video-aware scheduler and the
//! baselines the paper compares against (single-path WebRTC, WebRTC-CM,
//! SRTT/minRTT, M-TPUT/Musher, M-RTP/MPRTP).

mod baselines;
mod converge;
#[cfg(test)]
mod differential;

pub use baselines::{
    ConnectionMigration, MRtpScheduler, MTputScheduler, SinglePathScheduler, SrttScheduler,
};
pub use converge::{ConvergeScheduler, ConvergeSchedulerConfig};

use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::QoeFeedback;
use converge_video::VideoPacket;

use crate::metrics::PathMetrics;
use crate::priority::PacketClass;

/// One packet offered to a scheduler, with its classification.
#[derive(Debug, Clone, Copy)]
pub struct Schedulable {
    /// The packet itself (metadata only; payloads are modelled by size).
    pub packet: VideoPacket,
    /// The scheduler-visible class (priority per Table 2).
    pub class: PacketClass,
}

/// The assignment a scheduler makes for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Which path carries the packet.
    pub path: PathId,
}

/// A multipath packet scheduler.
///
/// The sender calls [`Scheduler::assign_batch_into`] once per encoded frame
/// with every packet of that frame (media + control + pending
/// retransmissions) and once more with its FEC packets, plus the current
/// per-path metrics. The assignments are index-aligned with the input.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Short name for reporting.
    fn name(&self) -> &'static str;

    /// Installs a trace handle. Schedulers that emit structured events
    /// ([`converge_trace::TraceEvent`]) store it; the default ignores it.
    fn set_trace(&mut self, _trace: converge_trace::TraceHandle) {}

    /// Assigns every packet in the batch to a path.
    fn assign_batch(
        &mut self,
        now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.assign_batch_into(now, packets, paths, &mut out);
        out
    }

    /// [`Scheduler::assign_batch`], replacing the contents of `out`. The
    /// scheduler keeps its working buffers between batches, so a caller
    /// that reuses `out` schedules a frame without touching the allocator.
    fn assign_batch_into(
        &mut self,
        now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
        out: &mut Vec<Assignment>,
    );

    /// Feeds a QoE feedback message (Converge only; others ignore it).
    fn on_qoe_feedback(&mut self, _now: SimTime, _fb: &QoeFeedback) {}

    /// Whether the sender should duplicate a probe packet onto `path` this
    /// batch (a disabled path being measured for Eq. 3 re-enablement). A
    /// `true` answer starts the path's probe interval.
    fn probe_due(&mut self, _now: SimTime, _path: PathId) -> bool {
        false
    }

    /// Whether the scheduler has administratively disabled `path`; the sim
    /// reports these and GCC stops being fed by them.
    fn is_disabled(&self, _path: PathId) -> bool {
        false
    }

    /// Whether `path`'s GCC rate feeds the encoder's aggregate rate (`Σ S_i`
    /// over *active* paths, §4.1). Default: every enabled path not
    /// administratively disabled.
    fn uses_path(&self, path: &PathMetrics) -> bool {
        path.enabled && !self.is_disabled(path.id)
    }

    /// Whether the sender must drop this batch entirely (WebRTC-CM's
    /// re-connection blackout). Default: never.
    fn drop_batch(&self, _now: SimTime) -> bool {
        false
    }

    /// Delivers a probe RTT measurement for a (possibly disabled) path so
    /// the scheduler can evaluate Eq. 3 re-enablement. Default: ignored.
    fn on_probe_rtt(
        &mut self,
        _now: SimTime,
        _path: PathId,
        _rtt_fast: SimDuration,
        _rtt_path: SimDuration,
    ) {
    }
}

/// Shared helper: maximum packets allowed on a path per batch interval,
/// derived from the path's sending rate (`P_max`, §4.1). A 25 % headroom
/// keeps short bursts schedulable.
pub fn p_max(rate_bps: u64, batch_interval: SimDuration, max_packet_bytes: usize) -> usize {
    let bytes_per_interval = rate_bps as f64 / 8.0 * batch_interval.as_secs_f64();
    ((bytes_per_interval / max_packet_bytes as f64) * 1.25).ceil() as usize
}

/// Shared helper: weighted round-robin expansion of `(path, count)` pairs
/// into an interleaved assignment sequence. Interleaving (rather than block
/// assignment) matches how byte schedulers drain queues in practice and
/// exercises reordering at the receiver.
pub fn interleave(counts: &[(PathId, usize)]) -> Vec<PathId> {
    let mut out = Vec::new();
    interleave_into(counts, &mut Vec::new(), &mut out);
    out
}

/// [`interleave`], replacing the contents of `out`; `remaining` is working
/// space the caller keeps between calls.
pub fn interleave_into(
    counts: &[(PathId, usize)],
    remaining: &mut Vec<usize>,
    out: &mut Vec<PathId>,
) {
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    out.clear();
    out.reserve(total);
    remaining.clear();
    remaining.extend(counts.iter().map(|&(_, quota)| quota));
    // Largest-remainder style: at each step pick the path with the highest
    // remaining fraction of its quota.
    for _ in 0..total {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .filter(|(_, left)| **left > 0)
            .max_by(|(i, a), (j, b)| {
                let (qa, qb) = (counts[*i].1, counts[*j].1);
                let fa = **a as f64 / qa.max(1) as f64;
                let fb = **b as f64 / qb.max(1) as f64;
                fa.partial_cmp(&fb).expect("finite").then(qa.cmp(&qb))
            })
            .expect("total > 0 implies a path with remaining quota");
        out.push(counts[idx].0);
        remaining[idx] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_max_scales_with_rate_and_interval() {
        // 12 Mbps over 33 ms at 1250 B/pkt: 12e6/8*0.033 = 49.5 kB → 39.6
        // packets → ×1.25 headroom ≈ 50.
        let p = p_max(12_000_000, SimDuration::from_millis(33), 1250);
        assert!((48..=52).contains(&p), "{p}");
        assert_eq!(p_max(0, SimDuration::from_millis(33), 1250), 0);
    }

    #[test]
    fn interleave_covers_counts() {
        let out = interleave(&[(PathId(0), 3), (PathId(1), 1)]);
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().filter(|p| p.0 == 0).count(), 3);
        assert_eq!(out.iter().filter(|p| p.0 == 1).count(), 1);
    }

    #[test]
    fn interleave_mixes_paths() {
        let out = interleave(&[(PathId(0), 5), (PathId(1), 5)]);
        // Strict alternation for equal quotas.
        let zeros: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0 == 0)
            .map(|(i, _)| i)
            .collect();
        assert!(
            zeros.windows(2).all(|w| w[1] - w[0] == 2),
            "expected alternation: {out:?}"
        );
    }

    #[test]
    fn interleave_handles_empty_and_zero() {
        assert!(interleave(&[]).is_empty());
        assert!(interleave(&[(PathId(0), 0)]).is_empty());
    }
}
