//! Wire codec: typed simulation packets ⇄ real RTP bytes.
//!
//! The simulator exchanges typed [`SimRtp`] values for speed, but the wire
//! formats in `converge-rtp` are the actual protocol contract. This module
//! maps every simulated RTP packet onto real bytes — fixed header, the
//! multipath extension, and a compact payload header carrying the video
//! metadata the far end needs (the parts a real receiver would get from
//! the codec bitstream) — and back, so integration tests can prove the
//! whole exchange survives serialization.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use converge_net::{PathId, SimTime};
use converge_rtp::{MultipathExtension, ParseError, PayloadType, RtpPacket};
use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

use crate::payload::{RtpKind, SimRtp};

/// Serializes one simulated RTP packet to wire bytes.
pub fn encode_rtp(rtp: &SimRtp) -> Bytes {
    let (payload_type, marker, body, ssrc, seq16, timestamp) = match &rtp.kind {
        RtpKind::Media(p) => (
            PayloadType::Video,
            is_frame_end(p),
            video_payload(p),
            ssrc_for(p.stream),
            (p.sequence & 0xFFFF) as u16,
            rtp_timestamp(p.capture_time),
        ),
        RtpKind::Retransmission(p) => (
            PayloadType::Retransmission,
            is_frame_end(p),
            video_payload(p),
            ssrc_for(p.stream),
            (p.sequence & 0xFFFF) as u16,
            rtp_timestamp(p.capture_time),
        ),
        RtpKind::Fec {
            stream, protected, ..
        } => (
            PayloadType::Fec,
            false,
            fec_payload(protected),
            ssrc_for(*stream),
            0,
            0,
        ),
        RtpKind::Probe { probe_seq } => (
            PayloadType::Probe,
            false,
            probe_payload(*probe_seq),
            0xFFFF_FFFF,
            (*probe_seq & 0xFFFF) as u16,
            0,
        ),
    };
    RtpPacket {
        marker,
        payload_type,
        sequence: seq16,
        timestamp,
        ssrc,
        extension: Some(MultipathExtension {
            path_id: rtp.path.0,
            // Fig. 18: mp_sequence is the flow-level media sequence (for
            // reordering across paths); only mp_transport_sequence carries
            // the per-path transport-wide number GCC feedback keys on.
            mp_sequence: seq16,
            mp_transport_sequence: (rtp.transport_seq & 0xFFFF) as u16,
        }),
        payload: body,
    }
    .serialize()
}

/// Parses wire bytes back into a simulated RTP packet.
///
/// `sent_at` cannot travel on the wire (a real receiver learns send times
/// from transport feedback, not the packet); the caller supplies it.
pub fn decode_rtp(wire: Bytes, sent_at: SimTime) -> Result<SimRtp, ParseError> {
    let pkt = RtpPacket::parse(wire)?;
    let ext = pkt.extension.ok_or(ParseError::BadExtension)?;
    // Payload headers are stream-agnostic: the stream travels in the SSRC.
    let stream = stream_for(pkt.ssrc);
    let mut body = pkt.payload;
    let kind = match pkt.payload_type {
        PayloadType::Video => RtpKind::Media(parse_video_payload(&mut body, stream)?),
        PayloadType::Retransmission => {
            RtpKind::Retransmission(parse_video_payload(&mut body, stream)?)
        }
        PayloadType::Fec => RtpKind::Fec {
            stream,
            protected: parse_fec_payload(&mut body, stream)?,
            origin_path: PathId(ext.path_id),
        },
        PayloadType::Probe => {
            if body.len() < 8 {
                return Err(ParseError::Truncated);
            }
            RtpKind::Probe {
                probe_seq: body.get_u64(),
            }
        }
    };
    Ok(SimRtp {
        kind,
        path: PathId(ext.path_id),
        transport_seq: ext.mp_transport_sequence as u64,
        sent_at,
    })
}

fn ssrc_for(stream: StreamId) -> u32 {
    0x5100_0000 | stream.0 as u32
}

fn stream_for(ssrc: u32) -> StreamId {
    StreamId((ssrc & 0xFF) as u8)
}

/// `at` on the 90 kHz video clock: the timestamp of an RTP packet captured
/// then, and of a Sender Report sent then.
pub(crate) fn rtp_timestamp(at: SimTime) -> u32 {
    ((at.as_micros() as u128 * 9 / 100) & 0xFFFF_FFFF) as u32
}

fn is_frame_end(p: &VideoPacket) -> bool {
    matches!(p.kind, PacketKind::Media { index, count } if index + 1 == count)
}

/// Bytes of one video payload header: the packet's metadata, its modeled
/// size included (no padding stands in for the media bytes).
const VIDEO_HEADER_LEN: usize = 38;

fn video_payload(p: &VideoPacket) -> Bytes {
    let mut b = BytesMut::with_capacity(VIDEO_HEADER_LEN);
    b.put_u64(p.sequence);
    b.put_u64(p.frame_id);
    b.put_u32(p.gop_id as u32);
    b.put_u8(match p.frame_type {
        FrameType::Key => 1,
        FrameType::Delta => 0,
    });
    let (kind_tag, index, count) = match p.kind {
        PacketKind::Media { index, count } => (0u8, index, count),
        PacketKind::Pps => (1, 0, 0),
        PacketKind::Sps => (2, 0, 0),
    };
    b.put_u8(kind_tag);
    b.put_u16(index);
    b.put_u16(count);
    b.put_u32(p.size as u32);
    b.put_u64(p.capture_time.as_micros());
    b.freeze()
}

fn parse_video_payload(body: &mut Bytes, stream: StreamId) -> Result<VideoPacket, ParseError> {
    if body.len() < VIDEO_HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let sequence = body.get_u64();
    let frame_id = body.get_u64();
    let gop_id = body.get_u32() as u64;
    let frame_type = if body.get_u8() == 1 {
        FrameType::Key
    } else {
        FrameType::Delta
    };
    let kind_tag = body.get_u8();
    let index = body.get_u16();
    let count = body.get_u16();
    let size = body.get_u32() as usize;
    let capture_time = SimTime::from_micros(body.get_u64());
    let kind = match kind_tag {
        0 => PacketKind::Media { index, count },
        1 => PacketKind::Pps,
        2 => PacketKind::Sps,
        _ => return Err(ParseError::BadExtension),
    };
    Ok(VideoPacket {
        stream,
        sequence,
        frame_id,
        gop_id,
        frame_type,
        kind,
        size,
        capture_time,
    })
}

fn fec_payload(protected: &[VideoPacket]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u16(protected.len() as u16);
    for p in protected {
        b.put_slice(&video_payload(p));
    }
    b.freeze()
}

fn parse_fec_payload(body: &mut Bytes, stream: StreamId) -> Result<Vec<VideoPacket>, ParseError> {
    if body.len() < 2 {
        return Err(ParseError::Truncated);
    }
    let n = body.get_u16() as usize;
    // The count is off the wire: the bytes must be there before room for
    // that many packets is reserved.
    if body.len() < n * VIDEO_HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let mut protected = Vec::with_capacity(n);
    for _ in 0..n {
        protected.push(parse_video_payload(body, stream)?);
    }
    Ok(protected)
}

fn probe_payload(probe_seq: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u64(probe_seq);
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(stream: StreamId, seq: u64, kind: PacketKind) -> VideoPacket {
        VideoPacket {
            stream,
            sequence: seq,
            frame_id: seq / 10,
            gop_id: seq / 300,
            frame_type: if seq.is_multiple_of(300) {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            kind,
            size: 1200,
            capture_time: SimTime::from_micros(seq * 33_333),
        }
    }

    /// Round trips what `make` builds on streams 0, 1 and 2: the stream
    /// travels in the SSRC, not in the payload headers.
    fn roundtrip(make: impl Fn(StreamId) -> SimRtp) {
        for stream in (0..3).map(StreamId) {
            let rtp = make(stream);
            let back = decode_rtp(encode_rtp(&rtp), rtp.sent_at).expect("decode");
            assert_eq!(back, rtp, "on {stream:?}");
        }
    }

    fn fec_of_three(stream: StreamId) -> SimRtp {
        SimRtp {
            kind: RtpKind::Fec {
                stream,
                protected: vec![
                    vp(stream, 10, PacketKind::Media { index: 0, count: 3 }),
                    vp(stream, 11, PacketKind::Media { index: 1, count: 3 }),
                    vp(stream, 12, PacketKind::Media { index: 2, count: 3 }),
                ],
                origin_path: PathId(1),
            },
            path: PathId(1),
            transport_seq: 77,
            sent_at: SimTime::from_millis(5),
        }
    }

    #[test]
    fn media_roundtrips() {
        roundtrip(|s| SimRtp {
            kind: RtpKind::Media(vp(s, 42, PacketKind::Media { index: 2, count: 7 })),
            path: PathId(1),
            transport_seq: 999,
            sent_at: SimTime::from_millis(123),
        });
    }

    #[test]
    fn control_packets_roundtrip() {
        for kind in [PacketKind::Pps, PacketKind::Sps] {
            roundtrip(|s| SimRtp {
                kind: RtpKind::Media(vp(s, 7, kind)),
                path: PathId(0),
                transport_seq: 1,
                sent_at: SimTime::ZERO,
            });
        }
    }

    #[test]
    fn retransmission_roundtrips() {
        roundtrip(|s| SimRtp {
            kind: RtpKind::Retransmission(vp(s, 300, PacketKind::Media { index: 0, count: 1 })),
            path: PathId(2),
            transport_seq: 12345,
            sent_at: SimTime::from_secs(9),
        });
    }

    #[test]
    fn fec_roundtrips() {
        roundtrip(fec_of_three);
    }

    #[test]
    fn probe_roundtrips() {
        roundtrip(|_| SimRtp {
            kind: RtpKind::Probe {
                probe_seq: 0xDEAD_BEEF,
            },
            path: PathId(3),
            transport_seq: 2,
            sent_at: SimTime::from_millis(1),
        });
    }

    /// The SSRC's stream reaches the FEC header and every packet it
    /// protects.
    #[test]
    fn stream_remap_applies_to_all_members() {
        let rtp = fec_of_three(StreamId(2));
        assert_eq!(decode_rtp(encode_rtp(&rtp), rtp.sent_at), Ok(rtp));
    }

    #[test]
    fn mp_sequence_carries_flow_sequence_not_transport_seq() {
        // Distinct flow sequence (0xAAAA) and transport sequence (0x3BBB)
        // so a swap or copy-paste of the two fields cannot go unnoticed.
        let rtp = SimRtp {
            kind: RtpKind::Media(vp(
                StreamId(0),
                0xAAAA,
                PacketKind::Media { index: 0, count: 1 },
            )),
            path: PathId(1),
            transport_seq: 0x3BBB,
            sent_at: SimTime::from_millis(3),
        };
        let wire = encode_rtp(&rtp);
        let pkt = RtpPacket::parse(wire.clone()).unwrap();
        let ext = pkt.extension.expect("multipath extension");
        assert_eq!(ext.mp_sequence, 0xAAAA, "flow-level media sequence");
        assert_eq!(ext.mp_transport_sequence, 0x3BBB, "per-path transport seq");
        assert_ne!(ext.mp_sequence, ext.mp_transport_sequence);
        let back = decode_rtp(wire, rtp.sent_at).expect("decode");
        assert_eq!(back, rtp);
    }

    #[test]
    fn marker_set_on_last_media_packet() {
        let rtp = SimRtp {
            kind: RtpKind::Media(vp(StreamId(0), 1, PacketKind::Media { index: 6, count: 7 })),
            path: PathId(0),
            transport_seq: 0,
            sent_at: SimTime::ZERO,
        };
        let pkt = RtpPacket::parse(encode_rtp(&rtp)).unwrap();
        assert!(pkt.marker);
    }

    /// Every strict prefix of every packet kind, and an FEC packet whose
    /// count names 65 535 packets but carries one, decode to `Err`.
    #[test]
    fn truncated_wire_rejected() {
        let fec = fec_of_three(StreamId(1));
        let packet = vp(StreamId(1), 1, PacketKind::Media { index: 0, count: 1 });
        let others = [
            RtpKind::Media(packet),
            RtpKind::Retransmission(packet),
            RtpKind::Probe { probe_seq: 9 },
        ]
        .map(|kind| SimRtp {
            kind,
            ..fec.clone()
        });
        let mut wires = Vec::new();
        for rtp in others.iter().chain([&fec]) {
            let wire = encode_rtp(rtp);
            assert!(decode_rtp(wire.clone(), SimTime::ZERO).is_ok());
            wires.extend((0..wire.len()).map(|cut| wire.slice(0..cut)));
        }
        let mut wire = encode_rtp(&fec).to_vec();
        let count_at = wire.len() - 3 * VIDEO_HEADER_LEN - 2;
        assert_eq!(wire[count_at..count_at + 2], [0, 3]);
        wire.truncate(count_at + 2 + VIDEO_HEADER_LEN);
        wire[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        wires.push(Bytes::from(wire));
        for wire in wires {
            assert!(
                decode_rtp(wire.clone(), SimTime::ZERO).is_err(),
                "{wire:?} must fail"
            );
        }
    }
}
