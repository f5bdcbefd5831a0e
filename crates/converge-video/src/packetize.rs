//! Packetization: encoded frames → video packets.
//!
//! Each frame is split into MTU-sized media packets plus one PPS control
//! packet; the first frame of each GOP additionally carries an SPS control
//! packet (§2.1/§3.1 of the paper: "The PPS packet is necessary for each
//! keyframe or delta frame, while a group of delta frames requires the SPS
//! packet").

use crate::types::{EncodedFrame, PacketKind, VideoPacket};

/// Maximum payload bytes per media packet. This bounds the payload only;
/// Algorithm 1's `k` is the schedulers' 1250-byte bound on a whole packet,
/// headers included (`MAX_PACKET_BYTES` in converge-core).
pub const MTU: usize = 1200;
/// Size of a PPS control packet, bytes.
const PPS_SIZE: usize = 64;
/// Size of an SPS control packet, bytes.
const SPS_SIZE: usize = 96;

/// Nothing to set: kept only because `benchmark/layers/src/kernels.rs`
/// calls `Packetizer::new(PacketizerConfig::default())` (ROADMAP item 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketizerConfig;

/// A packetized frame's place in its stream's sequence space. It
/// determines every packet the frame was split into, so a sender that
/// keeps one of these per frame need not keep the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketizedFrame {
    /// The frame as the encoder emitted it.
    pub frame: EncodedFrame,
    /// Sequence number of the frame's first packet.
    pub first_sequence: u64,
    /// Packets the frame was split into: \[SPS\], PPS, media.
    pub packet_count: u32,
    /// Whether the frame opened a GOP and so leads with an SPS packet.
    pub has_sps: bool,
}

/// Stateful packetizer for one stream (owns the sequence counter).
#[derive(Debug)]
pub struct Packetizer {
    next_sequence: u64,
    last_sps_gop: Option<u64>,
}

impl Packetizer {
    /// Creates a packetizer.
    pub fn new(_: PacketizerConfig) -> Self {
        Packetizer {
            next_sequence: 0,
            last_sps_gop: None,
        }
    }

    /// Next sequence number to be assigned.
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// Packetizes one encoded frame. Order: [SPS (new GOP only)], PPS,
    /// media 0..count. All packets share the frame's capture time.
    pub fn packetize(&mut self, frame: &EncodedFrame) -> Vec<VideoPacket> {
        let mut out = Vec::new();
        self.packetize_into(frame, &mut out);
        out
    }

    /// [`Packetizer::packetize`], appending the packets to `out` so the
    /// caller can reuse one buffer across frames. Returns the frame's
    /// place in the sequence space, from which [`Packetizer::packet_at`]
    /// rebuilds any one of the packets later.
    pub fn packetize_into(
        &mut self,
        frame: &EncodedFrame,
        out: &mut Vec<VideoPacket>,
    ) -> PacketizedFrame {
        let has_sps = self.last_sps_gop != Some(frame.gop_id);
        self.last_sps_gop = Some(frame.gop_id);
        let media = frame.size.div_ceil(MTU).max(1) as u16;
        let packetized = PacketizedFrame {
            frame: *frame,
            first_sequence: self.next_sequence,
            packet_count: u32::from(has_sps) + 1 + u32::from(media),
            has_sps,
        };
        out.extend((0..packetized.packet_count).map(|n| self.packet_at(&packetized, n)));
        self.next_sequence += u64::from(packetized.packet_count);
        packetized
    }

    /// Packet `n` (0-based, in sending order) of a frame this packetizer
    /// packetized: the one definition of how a frame splits, which
    /// [`Packetizer::packetize_into`] is a loop over and a retransmission
    /// rebuilds its packet from.
    ///
    /// # Panics
    /// Panics if `n` is not below `packetized.packet_count`.
    pub fn packet_at(&self, packetized: &PacketizedFrame, n: u32) -> VideoPacket {
        assert!(n < packetized.packet_count, "no such packet in the frame");
        let frame = &packetized.frame;
        let control = u32::from(packetized.has_sps) + 1;
        let (kind, size) = match n.checked_sub(control) {
            Some(index) => {
                let index = index as u16;
                let count = (packetized.packet_count - control) as u16;
                // Every media packet but the last is a full MTU; a frame
                // of zero bytes still sends one byte.
                let sent_before = index as usize * MTU;
                let size = frame.size.saturating_sub(sent_before).min(MTU);
                (PacketKind::Media { index, count }, size.max(1))
            }
            None if packetized.has_sps && n == 0 => (PacketKind::Sps, SPS_SIZE),
            None => (PacketKind::Pps, PPS_SIZE),
        };
        VideoPacket {
            stream: frame.stream,
            sequence: packetized.first_sequence + u64::from(n),
            frame_id: frame.frame_id,
            gop_id: frame.gop_id,
            frame_type: frame.frame_type,
            kind,
            size,
            capture_time: frame.capture_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FrameType, StreamId};
    use converge_net::SimTime;

    fn frame(frame_id: u64, gop_id: u64, ft: FrameType, size: usize) -> EncodedFrame {
        EncodedFrame {
            stream: StreamId(0),
            frame_id,
            gop_id,
            frame_type: ft,
            size,
            qp: 20,
            height: 720,
            capture_time: SimTime::from_millis(frame_id * 33),
        }
    }

    #[test]
    fn splits_frame_at_mtu() {
        let mut p = Packetizer::new(PacketizerConfig);
        let pkts = p.packetize(&frame(0, 0, FrameType::Key, 3000));
        // SPS + PPS + ceil(3000/1200)=3 media.
        assert_eq!(pkts.len(), 5);
        let media: Vec<_> = pkts.iter().filter(|p| p.kind.is_media()).collect();
        assert_eq!(media.len(), 3);
        assert_eq!(media.iter().map(|p| p.size).sum::<usize>(), 3000);
        assert!(media.iter().all(|p| p.size <= 1200));
    }

    #[test]
    fn sps_only_on_new_gop() {
        let mut p = Packetizer::new(PacketizerConfig);
        let a = p.packetize(&frame(0, 0, FrameType::Key, 1000));
        let b = p.packetize(&frame(1, 0, FrameType::Delta, 1000));
        let c = p.packetize(&frame(2, 1, FrameType::Key, 1000));
        let has_sps = |v: &[VideoPacket]| v.iter().any(|p| p.kind == PacketKind::Sps);
        assert!(has_sps(&a));
        assert!(!has_sps(&b));
        assert!(has_sps(&c));
    }

    #[test]
    fn every_frame_has_exactly_one_pps() {
        let mut p = Packetizer::new(PacketizerConfig);
        for id in 0..10 {
            let pkts = p.packetize(&frame(id, 0, FrameType::Delta, 2500));
            let pps = pkts.iter().filter(|p| p.kind == PacketKind::Pps).count();
            assert_eq!(pps, 1);
        }
    }

    #[test]
    fn sequences_are_contiguous_across_frames() {
        let mut p = Packetizer::new(PacketizerConfig);
        let mut all = Vec::new();
        for id in 0..5 {
            all.extend(p.packetize(&frame(id, 0, FrameType::Delta, 2000)));
        }
        for (i, pkt) in all.iter().enumerate() {
            assert_eq!(pkt.sequence, i as u64);
        }
        assert_eq!(p.next_sequence(), all.len() as u64);
    }

    #[test]
    fn media_indices_cover_count() {
        let mut p = Packetizer::new(PacketizerConfig);
        let pkts = p.packetize(&frame(0, 0, FrameType::Key, 5000));
        let mut indices = Vec::new();
        for pkt in &pkts {
            if let PacketKind::Media { index, count } = pkt.kind {
                indices.push(index);
                assert_eq!(count, 5);
            }
        }
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tiny_frame_still_one_media_packet() {
        let mut p = Packetizer::new(PacketizerConfig);
        let pkts = p.packetize(&frame(0, 0, FrameType::Delta, 1));
        let media: Vec<_> = pkts.iter().filter(|p| p.kind.is_media()).collect();
        assert_eq!(media.len(), 1);
        assert_eq!(media[0].size, 1);
    }

    #[test]
    fn metadata_propagates() {
        let mut p = Packetizer::new(PacketizerConfig);
        let f = frame(7, 3, FrameType::Key, 100);
        for pkt in p.packetize(&f) {
            assert_eq!(pkt.frame_id, 7);
            assert_eq!(pkt.gop_id, 3);
            assert_eq!(pkt.frame_type, FrameType::Key);
            assert_eq!(pkt.capture_time, f.capture_time);
            assert_eq!(pkt.stream, StreamId(0));
        }
    }

    /// The split as it stood before `packet_at`: a running `remaining`
    /// byte count and a pushing closure.
    fn reference_packetize(
        frame: &EncodedFrame,
        first_sequence: u64,
        has_sps: bool,
    ) -> Vec<VideoPacket> {
        let mut out = Vec::new();
        let mut seq = first_sequence;
        let mut push = |kind: PacketKind, size: usize| {
            out.push(VideoPacket {
                stream: frame.stream,
                sequence: seq,
                frame_id: frame.frame_id,
                gop_id: frame.gop_id,
                frame_type: frame.frame_type,
                kind,
                size,
                capture_time: frame.capture_time,
            });
            seq += 1;
        };
        if has_sps {
            push(PacketKind::Sps, SPS_SIZE);
        }
        push(PacketKind::Pps, PPS_SIZE);
        let count = frame.size.div_ceil(MTU).max(1) as u16;
        let mut remaining = frame.size;
        for index in 0..count {
            let size = remaining.clamp(1, MTU);
            remaining = remaining.saturating_sub(size);
            push(PacketKind::Media { index, count }, size);
        }
        out
    }

    #[test]
    fn every_packet_rebuilds_from_its_frame_record() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9ac4e7);
        let mut p = Packetizer::new(PacketizerConfig);
        let mut out = Vec::new();
        let mut gop_id = 0;
        for frame_id in 0..10_000u64 {
            let new_gop = frame_id > 0 && rng.gen_bool(0.05);
            gop_id += u64::from(new_gop);
            // Empty, one-byte, exact-multiple, one-over and ordinary sizes.
            let size = match rng.gen_range(0..8) {
                0 => 0,
                1 => 1,
                2 => MTU * rng.gen_range(1..6usize),
                3 => MTU * rng.gen_range(1..6usize) + 1,
                _ => rng.gen_range(2..40_000),
            };
            let ft = if new_gop || frame_id == 0 {
                FrameType::Key
            } else {
                FrameType::Delta
            };
            let f = frame(frame_id, gop_id, ft, size);
            let first_sequence = p.next_sequence();
            out.clear();
            let packetized = p.packetize_into(&f, &mut out);
            assert_eq!(packetized.frame, f);
            assert_eq!(packetized.first_sequence, first_sequence);
            assert_eq!(packetized.has_sps, new_gop || frame_id == 0);
            assert_eq!(packetized.packet_count as usize, out.len());
            assert_eq!(p.next_sequence(), first_sequence + out.len() as u64);
            assert_eq!(
                out,
                reference_packetize(&f, first_sequence, packetized.has_sps)
            );
            for (n, sent) in out.iter().enumerate() {
                assert_eq!(p.packet_at(&packetized, n as u32), *sent);
            }
        }
    }
}
