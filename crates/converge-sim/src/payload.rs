//! Payloads exchanged over the emulated network.
//!
//! The emulator carries typed payloads rather than raw bytes: the wire
//! formats in `converge-rtp` are real and round-trip tested, but inside the
//! simulation the typed forms avoid serializing every packet of a
//! three-minute call.

use converge_net::{PathId, SimTime};
use converge_rtp::RtcpPacket;
use converge_video::{StreamId, VideoPacket, MTU};

/// What a simulated RTP packet carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtpKind {
    /// A media or control (PPS/SPS) packet straight from the packetizer.
    Media(VideoPacket),
    /// A retransmission of a previously sent media packet.
    Retransmission(VideoPacket),
    /// An XOR FEC repair packet protecting `protected` (full metadata is
    /// carried so the receiver can rebuild any single missing member — the
    /// real repair packet physically contains this via the XOR payload).
    Fec {
        /// Stream whose packets are protected.
        stream: StreamId,
        /// The packets the repair covers.
        protected: Vec<VideoPacket>,
        /// Path the repair was generated for (its loss drove the rate).
        origin_path: PathId,
    },
    /// A duplicate probe measuring a disabled path (paper §4.2).
    Probe {
        /// Sequence echoed back by the receiver for RTT measurement.
        probe_seq: u64,
    },
}

impl RtpKind {
    /// Wire size of this packet in bytes (payload + RTP header + the
    /// multipath extension).
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 12 + 12; // RTP fixed header + extension block
        match self {
            RtpKind::Media(p) | RtpKind::Retransmission(p) => HEADER + p.size,
            RtpKind::Fec { protected, .. } => {
                HEADER + protected.iter().map(|p| p.size).max().unwrap_or(0) + 16
            }
            // Probes duplicate a full-size packet from the fast path
            // (paper section 4.2), so they measure realistic serialization.
            RtpKind::Probe { .. } => HEADER + MTU,
        }
    }

    /// The media packet inside, if any.
    pub fn video_packet(&self) -> Option<&VideoPacket> {
        match self {
            RtpKind::Media(p) | RtpKind::Retransmission(p) => Some(p),
            _ => None,
        }
    }
}

/// One simulated RTP packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRtp {
    /// Payload.
    pub kind: RtpKind,
    /// Path it was scheduled on.
    pub path: PathId,
    /// Per-path transport-wide sequence number (the extension's
    /// MpTransportSequenceNumber).
    pub transport_seq: u64,
    /// When the sender emitted it.
    pub sent_at: SimTime,
}

/// Everything the emulator can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetPayload {
    /// An RTP packet (media plane).
    Rtp(SimRtp),
    /// An RTCP packet (control plane).
    Rtcp(RtcpPacket),
    /// The receiver echoing a probe back to the sender.
    ProbeEcho {
        /// Sequence from the probe.
        probe_seq: u64,
        /// When the sender originally emitted the probe.
        probe_sent_at: SimTime,
    },
}

impl NetPayload {
    /// Wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            NetPayload::Rtp(p) => p.kind.wire_size(),
            NetPayload::Rtcp(p) => p.wire_len(),
            NetPayload::ProbeEcho { .. } => 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_video::{FrameType, PacketKind};

    fn vp(size: usize) -> VideoPacket {
        VideoPacket {
            stream: StreamId(0),
            sequence: 1,
            frame_id: 0,
            gop_id: 0,
            frame_type: FrameType::Delta,
            kind: PacketKind::Media { index: 0, count: 1 },
            size,
            capture_time: SimTime::ZERO,
        }
    }

    #[test]
    fn media_wire_size_includes_headers() {
        let k = RtpKind::Media(vp(1200));
        assert_eq!(k.wire_size(), 1200 + 24);
    }

    #[test]
    fn fec_wire_size_tracks_largest_protected() {
        let k = RtpKind::Fec {
            stream: StreamId(0),
            protected: vec![vp(500), vp(1200), vp(900)],
            origin_path: PathId(0),
        };
        assert_eq!(k.wire_size(), 24 + 1200 + 16);
    }

    #[test]
    fn probe_is_full_size() {
        assert_eq!(RtpKind::Probe { probe_seq: 1 }.wire_size(), 24 + 1200);
    }

    #[test]
    fn probe_is_as_large_as_the_largest_media_packet() {
        use converge_video::{EncodedFrame, Packetizer, PacketizerConfig};
        let frame = EncodedFrame {
            stream: StreamId(0),
            frame_id: 0,
            gop_id: 0,
            frame_type: FrameType::Key,
            size: 10_000,
            qp: 20,
            height: 720,
            capture_time: SimTime::ZERO,
        };
        let largest = Packetizer::new(PacketizerConfig)
            .packetize(&frame)
            .into_iter()
            .map(|p| RtpKind::Media(p).wire_size())
            .max();
        assert_eq!(Some(RtpKind::Probe { probe_seq: 1 }.wire_size()), largest);
    }

    #[test]
    fn video_packet_accessor() {
        assert!(RtpKind::Media(vp(10)).video_packet().is_some());
        assert!(RtpKind::Probe { probe_seq: 0 }.video_packet().is_none());
    }

    #[test]
    fn rtcp_payload_size_is_wire_length() {
        let p = NetPayload::Rtcp(RtcpPacket::Pli(converge_rtp::Pli {
            path_id: 0,
            ssrc: 1,
        }));
        assert_eq!(p.wire_size(), 16);
    }
}
