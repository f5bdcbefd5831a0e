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
    let mut body = pkt.payload.clone();
    let kind = match pkt.payload_type {
        PayloadType::Video => RtpKind::Media(parse_video_payload(&mut body)?),
        PayloadType::Retransmission => RtpKind::Retransmission(parse_video_payload(&mut body)?),
        PayloadType::Fec => {
            let (stream, protected) = parse_fec_payload(&mut body)?;
            RtpKind::Fec {
                stream,
                protected,
                origin_path: PathId(ext.path_id),
            }
        }
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

/// 28-byte metadata header + payload padding to the packet's modeled size.
fn video_payload(p: &VideoPacket) -> Bytes {
    let mut b = BytesMut::with_capacity(28 + p.size.min(64));
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

fn parse_video_payload(body: &mut Bytes) -> Result<VideoPacket, ParseError> {
    if body.len() < 38 {
        return Err(ParseError::Truncated);
    }
    // The SSRC is not in the payload; the caller's stream mapping comes
    // from the RTP header. We re-derive it there; for simplicity the
    // payload header also implies stream 0 until remapped.
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
        stream: StreamId(0), // remapped from the RTP SSRC by decode_rtp
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

fn parse_fec_payload(body: &mut Bytes) -> Result<(StreamId, Vec<VideoPacket>), ParseError> {
    if body.len() < 2 {
        return Err(ParseError::Truncated);
    }
    let n = body.get_u16() as usize;
    let mut protected = Vec::with_capacity(n);
    for _ in 0..n {
        protected.push(parse_video_payload(body)?);
    }
    Ok((StreamId(0), protected))
}

fn probe_payload(probe_seq: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u64(probe_seq);
    b.freeze()
}

/// Re-stamps the stream identity from the RTP header SSRC onto the decoded
/// video metadata (payload headers are stream-agnostic).
pub fn remap_stream(mut rtp: SimRtp, ssrc: u32) -> SimRtp {
    let stream = stream_for(ssrc);
    match &mut rtp.kind {
        RtpKind::Media(p) | RtpKind::Retransmission(p) => p.stream = stream,
        RtpKind::Fec {
            stream: s,
            protected,
            ..
        } => {
            *s = stream;
            for p in protected {
                p.stream = stream;
            }
        }
        RtpKind::Probe { .. } => {}
    }
    rtp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(seq: u64, kind: PacketKind) -> VideoPacket {
        VideoPacket {
            stream: StreamId(0),
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

    fn roundtrip(rtp: SimRtp) {
        let wire = encode_rtp(&rtp);
        let back = decode_rtp(wire, rtp.sent_at).expect("decode");
        assert_eq!(back, rtp);
    }

    #[test]
    fn media_roundtrips() {
        roundtrip(SimRtp {
            kind: RtpKind::Media(vp(42, PacketKind::Media { index: 2, count: 7 })),
            path: PathId(1),
            transport_seq: 999,
            sent_at: SimTime::from_millis(123),
        });
    }

    #[test]
    fn control_packets_roundtrip() {
        for kind in [PacketKind::Pps, PacketKind::Sps] {
            roundtrip(SimRtp {
                kind: RtpKind::Media(vp(7, kind)),
                path: PathId(0),
                transport_seq: 1,
                sent_at: SimTime::ZERO,
            });
        }
    }

    #[test]
    fn retransmission_roundtrips() {
        roundtrip(SimRtp {
            kind: RtpKind::Retransmission(vp(300, PacketKind::Media { index: 0, count: 1 })),
            path: PathId(2),
            transport_seq: 12345,
            sent_at: SimTime::from_secs(9),
        });
    }

    #[test]
    fn fec_roundtrips() {
        roundtrip(SimRtp {
            kind: RtpKind::Fec {
                stream: StreamId(0),
                protected: vec![
                    vp(10, PacketKind::Media { index: 0, count: 3 }),
                    vp(11, PacketKind::Media { index: 1, count: 3 }),
                    vp(12, PacketKind::Media { index: 2, count: 3 }),
                ],
                origin_path: PathId(1),
            },
            path: PathId(1),
            transport_seq: 77,
            sent_at: SimTime::from_millis(5),
        });
    }

    #[test]
    fn probe_roundtrips() {
        roundtrip(SimRtp {
            kind: RtpKind::Probe {
                probe_seq: 0xDEAD_BEEF,
            },
            path: PathId(3),
            transport_seq: 2,
            sent_at: SimTime::from_millis(1),
        });
    }

    #[test]
    fn stream_remap_applies_to_all_members() {
        let rtp = SimRtp {
            kind: RtpKind::Fec {
                stream: StreamId(0),
                protected: vec![vp(1, PacketKind::Media { index: 0, count: 1 })],
                origin_path: PathId(0),
            },
            path: PathId(0),
            transport_seq: 0,
            sent_at: SimTime::ZERO,
        };
        let remapped = remap_stream(rtp, ssrc_for(StreamId(2)));
        if let RtpKind::Fec {
            stream, protected, ..
        } = &remapped.kind
        {
            assert_eq!(*stream, StreamId(2));
            assert!(protected.iter().all(|p| p.stream == StreamId(2)));
        } else {
            panic!("not fec");
        }
    }

    #[test]
    fn mp_sequence_carries_flow_sequence_not_transport_seq() {
        // Distinct flow sequence (0xAAAA) and transport sequence (0x3BBB)
        // so a swap or copy-paste of the two fields cannot go unnoticed.
        let rtp = SimRtp {
            kind: RtpKind::Media(vp(0xAAAA, PacketKind::Media { index: 0, count: 1 })),
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
            kind: RtpKind::Media(vp(1, PacketKind::Media { index: 6, count: 7 })),
            path: PathId(0),
            transport_seq: 0,
            sent_at: SimTime::ZERO,
        };
        let pkt = RtpPacket::parse(encode_rtp(&rtp)).unwrap();
        assert!(pkt.marker);
    }

    #[test]
    fn truncated_wire_rejected() {
        let rtp = SimRtp {
            kind: RtpKind::Media(vp(1, PacketKind::Media { index: 0, count: 1 })),
            path: PathId(0),
            transport_seq: 0,
            sent_at: SimTime::ZERO,
        };
        let wire = encode_rtp(&rtp);
        for cut in 13..wire.len() - 1 {
            assert!(
                decode_rtp(wire.slice(0..cut), SimTime::ZERO).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
