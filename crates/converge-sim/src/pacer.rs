//! Send-side pacer.
//!
//! WebRTC never bursts a whole frame onto the wire: the paced sender
//! drains packets at a multiple of the target bitrate so a large keyframe
//! spreads over several milliseconds instead of slamming the bottleneck
//! queue. The multipath system inherits this; each path gets its own
//! pacing budget so one path's backlog cannot stall another's.

use std::collections::VecDeque;

use converge_net::{PathId, SimDuration, SimTime};

use crate::sender::OutboundPacket;

/// Pacing configuration.
#[derive(Debug, Clone, Copy)]
pub struct PacerConfig {
    /// Multiplier over the path's target rate (WebRTC uses 2.5).
    pub pacing_factor: f64,
    /// Floor for the pacing rate so a starved path still drains.
    pub min_rate_bps: f64,
    /// Cap on how long a packet may wait before being force-flushed
    /// (matches WebRTC's queue-time limit).
    pub max_queue_delay: SimDuration,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            pacing_factor: 2.5,
            min_rate_bps: 300_000.0,
            max_queue_delay: SimDuration::from_millis(250),
        }
    }
}

struct Queued {
    packet: OutboundPacket,
    enqueued_at: SimTime,
}

#[derive(Default)]
struct PathQueue {
    queue: VecDeque<Queued>,
    /// Virtual time until which the path's budget is spent.
    busy_until: SimTime,
    rate_bps: f64,
}

/// Per-path token-bucket pacer.
pub struct Pacer {
    config: PacerConfig,
    /// Per-path queues, indexed by path id, so they iterate in id order
    /// (release order across paths is part of the traced behaviour).
    paths: Vec<PathQueue>,
    /// Running total of queued packets so `len`/`is_empty` are O(1) in the
    /// event loop's idle check.
    queued: usize,
}

impl Pacer {
    /// Creates a pacer.
    pub fn new(config: PacerConfig) -> Self {
        Pacer {
            config,
            paths: Vec::new(),
            queued: 0,
        }
    }

    /// Returns the queue for `path`. The pacer is not told the path list,
    /// so the table grows to the highest id it is handed.
    fn path_queue(&mut self, path: PathId) -> &mut PathQueue {
        let idx = path.index();
        if idx >= self.paths.len() {
            self.paths.resize_with(idx + 1, PathQueue::default);
        }
        &mut self.paths[idx]
    }

    /// Updates a path's pacing rate (from GCC).
    pub fn set_rate(&mut self, path: PathId, target_bps: f64) {
        let factor = self.config.pacing_factor;
        let floor = self.config.min_rate_bps;
        let q = self.path_queue(path);
        q.rate_bps = (target_bps * factor).max(floor);
    }

    /// Queues packets for paced transmission.
    pub fn enqueue(&mut self, now: SimTime, mut packets: Vec<OutboundPacket>) {
        self.enqueue_drain(now, &mut packets);
    }

    /// [`Pacer::enqueue`], emptying `packets` but leaving its capacity to
    /// the caller for the next frame.
    pub fn enqueue_drain(&mut self, now: SimTime, packets: &mut Vec<OutboundPacket>) {
        for packet in packets.drain(..) {
            self.queued += 1;
            let path = packet.path;
            self.path_queue(path).queue.push_back(Queued {
                packet,
                enqueued_at: now,
            });
        }
    }

    /// Total packets waiting.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing waits.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The earliest instant at which another packet becomes sendable.
    pub fn next_release(&self) -> Option<SimTime> {
        if self.queued == 0 {
            return None;
        }
        self.paths
            .iter()
            .filter(|q| !q.queue.is_empty())
            .map(|q| q.busy_until)
            .min()
    }

    /// Hands `send` every packet whose pacing budget allows transmission
    /// at `now`, with its wire size: paths in `PathId` order, FIFO within a
    /// path.
    pub fn release(&mut self, now: SimTime, mut send: impl FnMut(OutboundPacket, usize)) {
        if self.queued == 0 {
            return;
        }
        for q in self.paths.iter_mut() {
            while let Some(front) = q.queue.front() {
                let overdue =
                    now.saturating_since(front.enqueued_at) >= self.config.max_queue_delay;
                if q.busy_until > now && !overdue {
                    break;
                }
                let item = q.queue.pop_front().expect("front exists");
                self.queued -= 1;
                let bytes = item.packet.payload.wire_size();
                let rate = q.rate_bps.max(self.config.min_rate_bps);
                let serialize = SimDuration::from_micros((bytes as f64 * 8.0 / rate * 1e6) as u64);
                // The budget clock advances from its own virtual position
                // (or the packet's enqueue time if the path went idle), not
                // from `now`: a late poll must release every packet whose
                // slot already passed.
                q.busy_until = q.busy_until.max(item.enqueued_at) + serialize;
                send(item.packet, bytes);
            }
        }
    }

    /// Every packet [`Pacer::release`] hands over at `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<OutboundPacket> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// Appends every packet [`Pacer::release`] hands over at `now` to `out`.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<OutboundPacket>) {
        self.release(now, |packet, _| out.push(packet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{NetPayload, RtpKind};
    use converge_core::PacketClass;
    use converge_sim_test_util::*;

    // Local helper module: building OutboundPacket requires sim types.
    mod converge_sim_test_util {
        use super::*;
        use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

        pub fn pkt(path: PathId, size: usize) -> OutboundPacket {
            pkt_numbered(path, size, 0)
        }

        pub fn pkt_numbered(path: PathId, size: usize, transport_seq: u64) -> OutboundPacket {
            OutboundPacket {
                payload: NetPayload::Rtp(crate::payload::SimRtp {
                    kind: RtpKind::Media(VideoPacket {
                        stream: StreamId(0),
                        sequence: 0,
                        frame_id: 0,
                        gop_id: 0,
                        frame_type: FrameType::Delta,
                        kind: PacketKind::Media { index: 0, count: 1 },
                        size: size.saturating_sub(24),
                        capture_time: SimTime::ZERO,
                    }),
                    path,
                    transport_seq,
                    sent_at: SimTime::ZERO,
                }),
                path,
                class: PacketClass::DeltaMedia,
            }
        }
    }

    const P0: PathId = PathId(0);
    const P1: PathId = PathId(1);

    #[test]
    fn spreads_burst_over_time() {
        let mut p = Pacer::new(PacerConfig::default());
        // 1 Mbps target → 2.5 Mbps pacing; 10 × 1250 B = 100 kbit → 40 ms.
        p.set_rate(P0, 1_000_000.0);
        p.enqueue(SimTime::ZERO, (0..10).map(|_| pkt(P0, 1250)).collect());
        let first = p.poll(SimTime::ZERO);
        assert_eq!(first.len(), 1, "only the first packet goes immediately");
        assert!(!p.is_empty());
        // After 4 ms (one packet's pacing slot) another releases.
        let next = p.next_release().expect("pending");
        assert_eq!(next.as_millis(), 4);
        assert_eq!(p.poll(next).len(), 1);
        // All released within ~40 ms.
        assert_eq!(p.poll(SimTime::from_millis(41)).len(), 8);
        assert!(p.is_empty());
    }

    #[test]
    fn paths_paced_independently() {
        let mut p = Pacer::new(PacerConfig::default());
        p.set_rate(P0, 10_000_000.0);
        p.set_rate(P1, 1_000_000.0);
        p.enqueue(
            SimTime::ZERO,
            vec![pkt(P0, 1250), pkt(P0, 1250), pkt(P1, 1250), pkt(P1, 1250)],
        );
        let now = p.poll(SimTime::ZERO);
        // One from each path immediately.
        assert_eq!(now.len(), 2);
        // Fast path's second packet releases at 0.4 ms, slow at 4 ms.
        let t = SimTime::from_micros(500);
        let released = p.poll(t);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].path, P0);
    }

    #[test]
    fn overdue_packets_force_flush() {
        let mut p = Pacer::new(PacerConfig::default());
        p.set_rate(P0, 300_000.0); // very slow pacing
        p.enqueue(SimTime::ZERO, (0..50).map(|_| pkt(P0, 1250)).collect());
        // After the max queue delay everything still queued is flushed.
        let released = p.poll(SimTime::from_millis(260));
        assert_eq!(released.len(), 50, "force flush on queue-time limit");
    }

    #[test]
    fn empty_pacer_reports_nothing() {
        let mut p = Pacer::new(PacerConfig::default());
        assert!(p.is_empty());
        assert_eq!(p.next_release(), None);
        assert!(p.poll(SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn unknown_path_uses_min_rate() {
        let mut p = Pacer::new(PacerConfig::default());
        // No set_rate call: pacing falls back to the floor, not zero.
        p.enqueue(SimTime::ZERO, vec![pkt(P0, 1250), pkt(P0, 1250)]);
        assert_eq!(p.poll(SimTime::ZERO).len(), 1);
        assert!(p.next_release().is_some());
    }

    /// The closure release and the `Vec`-taking wrappers are one body: twin
    /// pacers driven by one seeded script release the same packets in the
    /// same order, and the closure is told each packet's wire size.
    #[test]
    fn release_matches_poll_into_on_seeded_scripts() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let id = |p: &OutboundPacket| (p.path, p.class, p.payload.clone());
        let (mut several_at_once, mut force_flushed) = (0usize, 0usize);
        for n_paths in 1..=8u8 {
            let mut rng = SmallRng::seed_from_u64(0xFACE + n_paths as u64);
            let mut polled = Pacer::new(PacerConfig::default());
            let mut released = Pacer::new(PacerConfig::default());
            let mut now = SimTime::ZERO;
            let mut numbered = 0u64;
            let mut out = Vec::new();
            for _ in 0..4_000 {
                let roll: u64 = rng.gen();
                let path = PathId((roll >> 8) as u8 % n_paths);
                match roll % 10 {
                    // A frame's worth of packets.
                    0..=2 => {
                        let burst: Vec<(PathId, usize, u64)> = (0..1 + (roll >> 16) % 12)
                            .map(|i| {
                                numbered += 1;
                                let path = PathId(((roll >> 24) + i) as u8 % n_paths);
                                (
                                    path,
                                    200 + ((roll >> 32) + 97 * i) as usize % 1_100,
                                    numbered,
                                )
                            })
                            .collect();
                        let make = || burst.iter().map(|&(p, size, n)| pkt_numbered(p, size, n));
                        polled.enqueue(now, make().collect());
                        released.enqueue(now, make().collect());
                    }
                    // A rate change with packets already queued; now and
                    // then a crawl, so the queue-time limit is what frees
                    // them.
                    3 => {
                        let bps = if (roll >> 16).is_multiple_of(4) {
                            50_000.0
                        } else {
                            (300_000 + (roll >> 20) % 8_000_000) as f64
                        };
                        polled.set_rate(path, bps);
                        released.set_rate(path, bps);
                    }
                    // A poll: usually on time, sometimes tens of ms late.
                    _ => {
                        now = match roll % 10 {
                            4 => now + SimDuration::from_millis(20 + (roll >> 16) % 60),
                            5 => polled.next_release().unwrap_or(now).max(now),
                            _ => now + SimDuration::from_micros((roll >> 16) % 3_000),
                        };
                        let before = polled.next_release();
                        out.clear();
                        polled.poll_into(now, &mut out);
                        let mut via_closure = Vec::new();
                        released.release(now, |packet, size| {
                            assert_eq!(size, packet.payload.wire_size());
                            via_closure.push(packet);
                        });
                        assert_eq!(
                            out.iter().map(id).collect::<Vec<_>>(),
                            via_closure.iter().map(id).collect::<Vec<_>>()
                        );
                        several_at_once += usize::from(out.len() > 1);
                        // Released although its path's budget was spent.
                        force_flushed +=
                            usize::from(!out.is_empty() && before.is_some_and(|t| t > now));
                    }
                }
                assert_eq!(polled.len(), released.len());
                assert_eq!(polled.next_release(), released.next_release());
            }
            // Everything left is flushed by the queue-time limit.
            let end = now + SimDuration::from_secs(1);
            let rest = polled.poll(end);
            let mut via_closure = Vec::new();
            released.release(end, |packet, _| via_closure.push(packet));
            assert_eq!(
                rest.iter().map(id).collect::<Vec<_>>(),
                via_closure.iter().map(id).collect::<Vec<_>>()
            );
            assert!(polled.is_empty() && released.is_empty());
        }
        assert!(several_at_once > 100, "late polls: {several_at_once}");
        assert!(force_flushed > 0, "overdue flushes: {force_flushed}");
    }
}
