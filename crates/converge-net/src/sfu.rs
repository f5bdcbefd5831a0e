//! Selective-forwarding-unit bottleneck node.
//!
//! Conferencing at fleet scale terminates many sessions on one forwarding
//! node: every member's uplink fans *in* over a shared ingress bottleneck,
//! and the node fans each accepted media packet *out* to the other members
//! over a shared egress bottleneck. [`SfuNode`] models exactly that pair of
//! disciplined links plus the member registry and per-member downlink
//! selection; it deliberately knows nothing about RTP, so the session layer
//! decides *what* to forward and the node decides *when it gets through*.
//!
//! Both internal links are configured loss-free and jitter-free: an SFU is
//! a wired box, and keeping its links RNG-free means the node never
//! perturbs the seeded randomness of the access paths around it.

use crate::aqm::QueueDiscipline;
use crate::impairment::ImpairmentConfig;
use crate::link::{Link, LinkConfig, LinkStats, Transmit};
use crate::loss::LossModel;
use crate::path::PathId;
use crate::time::{SimDuration, SimTime};
use crate::trace::RateTrace;

/// A member's index within one SFU conference.
pub type MemberId = u16;

/// One forwarded media packet descriptor.
///
/// Deliberately `Copy` and payload-free: a fan-out to `N−1` viewers clones
/// this descriptor, never the media bytes, so forwarding cost is O(viewers)
/// pointer-free words rather than O(viewers × payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardPacket {
    /// Member whose uplink produced the packet.
    pub origin: MemberId,
    /// Camera stream index within the origin's session.
    pub stream: u8,
    /// Frame the packet belongs to (origin's frame counter).
    pub frame_id: u64,
    /// Packet index within the frame.
    pub index: u16,
    /// Total packets in the frame (0 for packets that carry no frame
    /// slice, e.g. parameter sets).
    pub count: u16,
    /// Wire size in bytes (what the egress bottleneck serializes).
    pub size: u32,
    /// When the origin captured/sent the packet (end-to-end latency base).
    pub sent_at: SimTime,
    /// Whether the frame is a keyframe.
    pub keyframe: bool,
}

/// Static configuration of one SFU node.
#[derive(Debug, Clone)]
pub struct SfuConfig {
    /// Shared ingress (fan-in) bottleneck rate, bits per second.
    pub ingress_rate_bps: u64,
    /// Shared egress (fan-out) bottleneck rate, bits per second.
    pub egress_rate_bps: u64,
    /// Ingress queue capacity in bytes.
    pub ingress_queue_bytes: usize,
    /// Egress queue capacity in bytes.
    pub egress_queue_bytes: usize,
    /// One-way latency through the node itself (switching fabric).
    pub forward_delay: SimDuration,
}

impl SfuConfig {
    /// A config sized from the bottleneck rate: egress scaled for fan-out,
    /// queues at roughly 40 ms of their own drain rate.
    pub fn for_bottleneck(ingress_rate_bps: u64, fanout: usize) -> Self {
        let egress_rate_bps = ingress_rate_bps * (fanout.max(1) as u64);
        let queue_for = |rate_bps: u64| ((rate_bps / 8) / 25).max(64_000) as usize;
        SfuConfig {
            ingress_rate_bps,
            egress_rate_bps,
            ingress_queue_bytes: queue_for(ingress_rate_bps),
            egress_queue_bytes: queue_for(egress_rate_bps),
            forward_delay: SimDuration::from_micros(200),
        }
    }
}

/// Counters an SFU keeps about its own behaviour (LinkStats-style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfuStats {
    /// Ingress link counters (fan-in bottleneck).
    pub ingress: LinkStats,
    /// Egress link counters (fan-out bottleneck).
    pub egress: LinkStats,
    /// Fan-out copies offered to the egress link.
    pub fanout_pkts: u64,
    /// Fan-out bytes offered to the egress link.
    pub fanout_bytes: u64,
}

#[derive(Debug, Clone)]
struct Member {
    downlink: PathId,
    uplink_pkts: u64,
    uplink_bytes: u64,
}

/// One SFU node: a member registry over a shared ingress/egress link pair.
///
/// # Examples
///
/// ```
/// use converge_net::path::PathId;
/// use converge_net::sfu::{SfuConfig, SfuNode};
/// use converge_net::time::SimTime;
/// use converge_net::link::Transmit;
///
/// let mut sfu = SfuNode::new(SfuConfig::for_bottleneck(10_000_000, 3));
/// let a = sfu.register_member(&[PathId(0), PathId(1)]);
/// let b = sfu.register_member(&[PathId(0), PathId(1)]);
/// assert_ne!(a, b);
/// assert!(matches!(
///     sfu.offer_ingress(a, SimTime::ZERO, 1200),
///     Transmit::Delivered(_)
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct SfuNode {
    ingress: Link,
    egress: Link,
    members: Vec<Member>,
    fanout_pkts: u64,
    fanout_bytes: u64,
}

impl SfuNode {
    /// Creates a node from a configuration. Both links are deterministic:
    /// drop-tail, loss-free, jitter-free, no RNG draws.
    pub fn new(config: SfuConfig) -> Self {
        let quiet_link = |rate_bps: u64, queue_bytes: usize| {
            Link::new(LinkConfig {
                rate: RateTrace::constant(rate_bps),
                propagation: config.forward_delay,
                queue_capacity_bytes: queue_bytes,
                loss: LossModel::None,
                jitter: SimDuration::ZERO,
                discipline: QueueDiscipline::DropTail,
                impairment: ImpairmentConfig::default(),
                seed: 0,
                drive: None,
            })
        };
        SfuNode {
            ingress: quiet_link(config.ingress_rate_bps, config.ingress_queue_bytes),
            egress: quiet_link(config.egress_rate_bps, config.egress_queue_bytes),
            members: Vec::new(),
            fanout_pkts: 0,
            fanout_bytes: 0,
        }
    }

    /// Registers a session terminating at this node and selects its
    /// downlink from `candidates` (deterministic spread: members round-robin
    /// over the candidate list). Returns the member's id.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn register_member(&mut self, candidates: &[PathId]) -> MemberId {
        assert!(!candidates.is_empty(), "a member needs at least one downlink");
        let id = MemberId::try_from(self.members.len()).expect("too many SFU members");
        let downlink = candidates[id as usize % candidates.len()];
        self.members.push(Member {
            downlink,
            uplink_pkts: 0,
            uplink_bytes: 0,
        });
        id
    }

    /// The downlink path selected for `member` at registration.
    pub fn downlink_of(&self, member: MemberId) -> PathId {
        self.members[member as usize].downlink
    }

    /// Offers one uplink packet from `member` to the shared ingress
    /// bottleneck. Monotone `now` required, as for [`Link::offer`].
    pub fn offer_ingress(&mut self, member: MemberId, now: SimTime, bytes: usize) -> Transmit {
        let fate = self.ingress.offer(now, bytes).fate;
        if matches!(fate, Transmit::Delivered(_)) {
            let m = &mut self.members[member as usize];
            m.uplink_pkts += 1;
            m.uplink_bytes += bytes as u64;
        }
        fate
    }

    /// Offers one fan-out copy to the shared egress bottleneck.
    pub fn offer_egress(&mut self, now: SimTime, bytes: usize) -> Transmit {
        self.fanout_pkts += 1;
        self.fanout_bytes += bytes as u64;
        self.egress.offer(now, bytes).fate
    }

    /// Uplink packets/bytes the node has accepted from `member`.
    pub fn member_uplink(&self, member: MemberId) -> (u64, u64) {
        let m = &self.members[member as usize];
        (m.uplink_pkts, m.uplink_bytes)
    }

    /// Accumulated node counters, read off the two links when asked: the
    /// offer path keeps no copy of them.
    pub fn stats(&self) -> SfuStats {
        SfuStats {
            ingress: self.ingress.stats(),
            egress: self.egress.stats(),
            fanout_pkts: self.fanout_pkts,
            fanout_bytes: self.fanout_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rate: u64, fanout: usize) -> SfuNode {
        SfuNode::new(SfuConfig::for_bottleneck(rate, fanout))
    }

    #[test]
    fn downlink_selection_round_robins_candidates() {
        let mut sfu = node(10_000_000, 3);
        let paths = [PathId(0), PathId(1)];
        let a = sfu.register_member(&paths);
        let b = sfu.register_member(&paths);
        let c = sfu.register_member(&paths);
        assert_eq!(sfu.downlink_of(a), PathId(0));
        assert_eq!(sfu.downlink_of(b), PathId(1));
        assert_eq!(sfu.downlink_of(c), PathId(0));
    }

    #[test]
    fn shared_ingress_serializes_members_behind_each_other() {
        // 10 Mbps ingress: two 1250 B packets offered at t=0 finish at
        // 1 ms and 2 ms (+forward delay), regardless of which member sent
        // them — that is what makes the bottleneck shared.
        let mut sfu = SfuNode::new(SfuConfig {
            ingress_rate_bps: 10_000_000,
            egress_rate_bps: 30_000_000,
            ingress_queue_bytes: 1_000_000,
            egress_queue_bytes: 1_000_000,
            forward_delay: SimDuration::ZERO,
        });
        let a = sfu.register_member(&[PathId(0)]);
        let b = sfu.register_member(&[PathId(0)]);
        let first = sfu.offer_ingress(a, SimTime::ZERO, 1250);
        let second = sfu.offer_ingress(b, SimTime::ZERO, 1250);
        assert_eq!(first, Transmit::Delivered(SimTime::from_millis(1)));
        assert_eq!(second, Transmit::Delivered(SimTime::from_millis(2)));
        assert_eq!(sfu.member_uplink(a), (1, 1250));
        assert_eq!(sfu.member_uplink(b), (1, 1250));
    }

    #[test]
    fn overload_drops_at_the_ingress_queue() {
        let mut sfu = SfuNode::new(SfuConfig {
            ingress_rate_bps: 1_000_000,
            egress_rate_bps: 3_000_000,
            ingress_queue_bytes: 2_500,
            egress_queue_bytes: 1_000_000,
            forward_delay: SimDuration::ZERO,
        });
        let m = sfu.register_member(&[PathId(0)]);
        assert!(matches!(
            sfu.offer_ingress(m, SimTime::ZERO, 1250),
            Transmit::Delivered(_)
        ));
        assert!(matches!(
            sfu.offer_ingress(m, SimTime::ZERO, 1250),
            Transmit::Delivered(_)
        ));
        assert_eq!(sfu.offer_ingress(m, SimTime::ZERO, 1250), Transmit::QueueDrop);
        assert_eq!(sfu.stats().ingress.queue_drops, 1);
        // Drops do not count toward the member's accepted uplink.
        assert_eq!(sfu.member_uplink(m), (2, 2500));
    }

    #[test]
    fn egress_counts_fanout_copies() {
        let mut sfu = node(10_000_000, 4);
        for _ in 0..3 {
            assert!(matches!(
                sfu.offer_egress(SimTime::ZERO, 1000),
                Transmit::Delivered(_)
            ));
        }
        let stats = sfu.stats();
        assert_eq!(stats.fanout_pkts, 3);
        assert_eq!(stats.fanout_bytes, 3000);
        assert_eq!(stats.egress.delivered_pkts, 3);
    }

    #[test]
    fn node_is_rng_free_and_deterministic() {
        let run = || {
            let mut sfu = node(5_000_000, 3);
            let m = sfu.register_member(&[PathId(0), PathId(1)]);
            (0..200u64)
                .map(|i| sfu.offer_ingress(m, SimTime::from_micros(i * 700), 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn for_bottleneck_scales_egress_with_fanout() {
        let cfg = SfuConfig::for_bottleneck(8_000_000, 5);
        assert_eq!(cfg.egress_rate_bps, 40_000_000);
        assert!(cfg.ingress_queue_bytes >= 64_000);
    }
}
