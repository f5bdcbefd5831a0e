//! Packetization: encoded frames → video packets.
//!
//! Each frame is split into MTU-sized media packets plus one PPS control
//! packet; the first frame of each GOP additionally carries an SPS control
//! packet (§2.1/§3.1 of the paper: "The PPS packet is necessary for each
//! keyframe or delta frame, while a group of delta frames requires the SPS
//! packet").

use crate::types::{EncodedFrame, PacketKind, VideoPacket};

/// Packetizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct PacketizerConfig {
    /// Maximum payload bytes per media packet ("k" in Algorithm 1).
    pub mtu: usize,
    /// Size of a PPS control packet, bytes.
    pub pps_size: usize,
    /// Size of an SPS control packet, bytes.
    pub sps_size: usize,
}

impl Default for PacketizerConfig {
    fn default() -> Self {
        PacketizerConfig {
            mtu: 1200,
            pps_size: 64,
            sps_size: 96,
        }
    }
}

/// Stateful packetizer for one stream (owns the sequence counter).
#[derive(Debug)]
pub struct Packetizer {
    config: PacketizerConfig,
    next_sequence: u64,
    last_sps_gop: Option<u64>,
}

impl Packetizer {
    /// Creates a packetizer.
    pub fn new(config: PacketizerConfig) -> Self {
        Packetizer {
            config,
            next_sequence: 0,
            last_sps_gop: None,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> PacketizerConfig {
        self.config
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
    /// caller can reuse one buffer across frames.
    pub fn packetize_into(&mut self, frame: &EncodedFrame, out: &mut Vec<VideoPacket>) {
        let count = frame.size.div_ceil(self.config.mtu).max(1) as u16;
        out.reserve(count as usize + 2);

        let mut push = |kind: PacketKind, size: usize, seq: &mut u64| {
            out.push(VideoPacket {
                stream: frame.stream,
                sequence: *seq,
                frame_id: frame.frame_id,
                gop_id: frame.gop_id,
                frame_type: frame.frame_type,
                kind,
                size,
                capture_time: frame.capture_time,
            });
            *seq += 1;
        };

        let mut seq = self.next_sequence;
        if self.last_sps_gop != Some(frame.gop_id) {
            self.last_sps_gop = Some(frame.gop_id);
            push(PacketKind::Sps, self.config.sps_size, &mut seq);
        }
        push(PacketKind::Pps, self.config.pps_size, &mut seq);

        let mut remaining = frame.size;
        for index in 0..count {
            let size = remaining.min(self.config.mtu).max(1);
            remaining = remaining.saturating_sub(size);
            push(PacketKind::Media { index, count }, size, &mut seq);
        }
        self.next_sequence = seq;
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
        let mut p = Packetizer::new(PacketizerConfig::default());
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
        let mut p = Packetizer::new(PacketizerConfig::default());
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
        let mut p = Packetizer::new(PacketizerConfig::default());
        for id in 0..10 {
            let pkts = p.packetize(&frame(id, 0, FrameType::Delta, 2500));
            let pps = pkts.iter().filter(|p| p.kind == PacketKind::Pps).count();
            assert_eq!(pps, 1);
        }
    }

    #[test]
    fn sequences_are_contiguous_across_frames() {
        let mut p = Packetizer::new(PacketizerConfig::default());
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
        let mut p = Packetizer::new(PacketizerConfig::default());
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
        let mut p = Packetizer::new(PacketizerConfig::default());
        let pkts = p.packetize(&frame(0, 0, FrameType::Delta, 1));
        let media: Vec<_> = pkts.iter().filter(|p| p.kind.is_media()).collect();
        assert_eq!(media.len(), 1);
        assert_eq!(media[0].size, 1);
    }

    #[test]
    fn metadata_propagates() {
        let mut p = Packetizer::new(PacketizerConfig::default());
        let f = frame(7, 3, FrameType::Key, 100);
        for pkt in p.packetize(&f) {
            assert_eq!(pkt.frame_id, 7);
            assert_eq!(pkt.gop_id, 3);
            assert_eq!(pkt.frame_type, FrameType::Key);
            assert_eq!(pkt.capture_time, f.capture_time);
            assert_eq!(pkt.stream, StreamId(0));
        }
    }
}
