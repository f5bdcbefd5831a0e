//! RTCP packets, including the Converge multipath and QoE extensions.
//!
//! Converge extends RTCP in two ways (paper §5 and Appendix C): every packet
//! carries the ID of the path it reports on (Fig. 19), and two new messages
//! exist — one for the sender to advertise its expected frame rate (carried
//! here as an SDES private item) and one for the receiver's QoE feedback
//! `(path_id, α, FCD)` (carried as an APP packet named `CVRG`).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::packet::ParseError;

/// RTCP packet type values.
mod pt {
    pub const SR: u8 = 200;
    pub const RR: u8 = 201;
    pub const SDES: u8 = 202;
    pub const APP: u8 = 204;
    pub const RTPFB: u8 = 205;
    pub const PSFB: u8 = 206;
}

/// One RTCP packet together with the path it was observed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpPacket {
    /// Sender report: send-side clock and volume counters.
    SenderReport(SenderReport),
    /// Receiver report: per-path loss/jitter/delay blocks.
    ReceiverReport(ReceiverReport),
    /// Source description carrying the expected frame rate.
    Sdes(Sdes),
    /// Negative acknowledgement requesting retransmission.
    Nack(Nack),
    /// Picture Loss Indication — a keyframe request.
    Pli(Pli),
    /// Per-path transport-wide feedback for congestion control.
    TransportFeedback(TransportFeedback),
    /// The Converge video QoE feedback message.
    QoeFeedback(QoeFeedback),
}

/// Sender report (PT=200), extended with a path ID word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderReport {
    /// Path this report describes.
    pub path_id: u8,
    /// Reporting sender's SSRC.
    pub ssrc: u32,
    /// Send time, microseconds of simulation time (stand-in for NTP).
    pub ntp_micros: u64,
    /// RTP timestamp corresponding to `ntp_micros`.
    pub rtp_timestamp: u32,
    /// Packets sent on this path so far.
    pub packet_count: u32,
    /// Payload octets sent on this path so far.
    pub octet_count: u32,
}

/// One report block inside a receiver report. Carries both the media-level
/// and the per-path ("Mp") extended highest sequence numbers, per Fig. 19.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportBlock {
    /// SSRC of the stream this block describes.
    pub ssrc: u32,
    /// Fraction of packets lost since the previous report, in 1/256 units.
    pub fraction_lost: u8,
    /// Cumulative packets lost (24-bit on the wire).
    pub cumulative_lost: u32,
    /// Extended highest media sequence number received.
    pub ext_highest_seq: u32,
    /// Extended highest per-path sequence number received (Converge).
    pub ext_highest_mp_seq: u32,
    /// Interarrival jitter estimate, RTP timestamp units.
    pub jitter: u32,
    /// Middle 32 bits of the last SR timestamp, for RTT computation.
    pub last_sr: u32,
    /// Delay since that SR, in 1/65536 s units.
    pub delay_since_last_sr: u32,
}

/// Receiver report (PT=201) for one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverReport {
    /// Path this report describes.
    pub path_id: u8,
    /// Reporter's SSRC.
    pub ssrc: u32,
    /// Report blocks, one per media stream.
    pub blocks: Vec<ReportBlock>,
}

/// Source description (PT=202). We carry only what the system needs: a
/// CNAME and the sender's expected frame rate (§4.2 — "the sender's frame
/// rate is reported using a source description RTCP (SDES) message").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdes {
    /// Source the description belongs to.
    pub ssrc: u32,
    /// Canonical name.
    pub cname: String,
    /// Expected frames per second at the sender, if advertised.
    pub frame_rate: Option<u8>,
}

/// Generic NACK (PT=205, FMT=1) carrying lost media sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// Path the losses were observed on.
    pub path_id: u8,
    /// Media source being NACKed.
    pub ssrc: u32,
    /// Lost media sequence numbers.
    pub lost: Vec<u16>,
}

/// Picture Loss Indication (PT=206, FMT=1): a keyframe request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    /// Path the PLI travels on.
    pub path_id: u8,
    /// Media source that must refresh.
    pub ssrc: u32,
}

/// Per-path transport feedback (simplified transport-wide CC): arrival times
/// of recently received packets keyed by their per-path transport sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportFeedback {
    /// Path this feedback describes.
    pub path_id: u8,
    /// Reporter's SSRC.
    pub ssrc: u32,
    /// `(mp_transport_sequence, arrival time in simulation microseconds)`
    /// for each packet received since the previous feedback.
    pub arrivals: Vec<(u16, u64)>,
}

/// The Converge QoE feedback message (§4.2): identifies the path whose
/// asymmetry is hurting frame construction, how many packets arrived
/// late (α < 0) or could arrive earlier (α > 0), and the current frame
/// construction delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QoeFeedback {
    /// Path causing (or able to absorb) the change.
    pub path_id: u8,
    /// Reporter's SSRC.
    pub ssrc: u32,
    /// Packet-count adjustment: negative to shrink the path's share,
    /// positive to grow it (Eq. 2 of the paper).
    pub alpha: i32,
    /// Frame construction delay observed, microseconds (Eq. 3 input).
    pub fcd_micros: u64,
}

const APP_NAME_CVRG: &[u8; 4] = b"CVRG";

fn put_rtcp_header(b: &mut BytesMut, count: u8, packet_type: u8, body_words: u16) {
    b.put_u8((2 << 6) | (count & 0x1f));
    b.put_u8(packet_type);
    b.put_u16(body_words);
}

impl RtcpPacket {
    /// The path ID the packet reports on.
    pub fn path_id(&self) -> u8 {
        match self {
            RtcpPacket::SenderReport(p) => p.path_id,
            RtcpPacket::ReceiverReport(p) => p.path_id,
            RtcpPacket::Sdes(_) => 0,
            RtcpPacket::Nack(p) => p.path_id,
            RtcpPacket::Pli(p) => p.path_id,
            RtcpPacket::TransportFeedback(p) => p.path_id,
            RtcpPacket::QoeFeedback(p) => p.path_id,
        }
    }

    /// Serialized size in bytes: the length [`RtcpPacket::serialize`]
    /// writes, computed from the same layout without building the packet.
    pub fn wire_len(&self) -> usize {
        // Every packet starts with the 4-byte RTCP header.
        4 + match self {
            RtcpPacket::SenderReport(_) => 28,
            RtcpPacket::ReceiverReport(rr) => 8 + 28 * rr.blocks.len(),
            RtcpPacket::Sdes(s) => {
                // ssrc, CNAME item, optional 3-byte frame-rate item, end
                // marker; padded to 32 bits.
                let items = 2 + s.cname.len() + if s.frame_rate.is_some() { 3 } else { 0 };
                (4 + items + 1).next_multiple_of(4)
            }
            RtcpPacket::Nack(n) => 12 + 4 * count_nack_pairs(&n.lost),
            RtcpPacket::Pli(_) => 12,
            RtcpPacket::TransportFeedback(tf) => 12 + 12 * tf.arrivals.len(),
            RtcpPacket::QoeFeedback(_) => 24,
        }
    }

    /// Serializes one RTCP packet (header + path word + body).
    pub fn serialize(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        match self {
            RtcpPacket::SenderReport(sr) => {
                // body: path(4) + ssrc(4) + ntp(8) + rtp_ts(4) + counts(8) = 28
                put_rtcp_header(&mut b, 0, pt::SR, 7);
                b.put_u32(sr.path_id as u32);
                b.put_u32(sr.ssrc);
                b.put_u64(sr.ntp_micros);
                b.put_u32(sr.rtp_timestamp);
                b.put_u32(sr.packet_count);
                b.put_u32(sr.octet_count);
            }
            RtcpPacket::ReceiverReport(rr) => {
                let words = 2 + rr.blocks.len() as u16 * 7;
                put_rtcp_header(&mut b, rr.blocks.len() as u8, pt::RR, words);
                b.put_u32(rr.path_id as u32);
                b.put_u32(rr.ssrc);
                for blk in &rr.blocks {
                    b.put_u32(blk.ssrc);
                    b.put_u8(blk.fraction_lost);
                    b.put_uint(blk.cumulative_lost as u64 & 0xFF_FFFF, 3);
                    b.put_u32(blk.ext_highest_seq);
                    b.put_u32(blk.ext_highest_mp_seq);
                    b.put_u32(blk.jitter);
                    b.put_u32(blk.last_sr);
                    b.put_u32(blk.delay_since_last_sr);
                }
            }
            RtcpPacket::Sdes(s) => {
                // Chunk: ssrc, CNAME item, optional private frame-rate item,
                // end marker, padded to 32 bits.
                let mut body = BytesMut::new();
                body.put_u32(s.ssrc);
                body.put_u8(1); // CNAME
                body.put_u8(s.cname.len() as u8);
                body.put_slice(s.cname.as_bytes());
                if let Some(fr) = s.frame_rate {
                    body.put_u8(8); // PRIV
                    body.put_u8(1);
                    body.put_u8(fr);
                }
                body.put_u8(0); // end of items
                while !body.len().is_multiple_of(4) {
                    body.put_u8(0);
                }
                put_rtcp_header(&mut b, 1, pt::SDES, (body.len() / 4) as u16);
                b.put_slice(&body);
            }
            RtcpPacket::Nack(n) => {
                // Encode lost seqs as RFC 4585 (PID, BLP) pairs.
                let pairs = encode_nack_pairs(&n.lost);
                let words = 3 + pairs.len() as u16;
                put_rtcp_header(&mut b, 1, pt::RTPFB, words);
                b.put_u32(n.path_id as u32);
                b.put_u32(0); // sender SSRC unused in simulation
                b.put_u32(n.ssrc);
                for (pid, blp) in pairs {
                    b.put_u16(pid);
                    b.put_u16(blp);
                }
            }
            RtcpPacket::Pli(p) => {
                put_rtcp_header(&mut b, 1, pt::PSFB, 3);
                b.put_u32(p.path_id as u32);
                b.put_u32(0);
                b.put_u32(p.ssrc);
            }
            RtcpPacket::TransportFeedback(tf) => {
                let words = 3 + tf.arrivals.len() as u16 * 3;
                put_rtcp_header(&mut b, 15, pt::RTPFB, words);
                b.put_u32(tf.path_id as u32);
                b.put_u32(tf.ssrc);
                b.put_u32(tf.arrivals.len() as u32);
                for &(seq, at) in &tf.arrivals {
                    b.put_u16(seq);
                    b.put_u16(0); // alignment
                    b.put_u64(at);
                }
            }
            RtcpPacket::QoeFeedback(q) => {
                // APP packet: ssrc, name "CVRG", then path/alpha/fcd.
                put_rtcp_header(&mut b, 31, pt::APP, 6);
                b.put_u32(q.ssrc);
                b.put_slice(APP_NAME_CVRG);
                b.put_u32(q.path_id as u32);
                b.put_i32(q.alpha);
                b.put_u64(q.fcd_micros);
            }
        }
        b.freeze()
    }

    /// Parses one RTCP packet from the buffer.
    pub fn parse(mut buf: Bytes) -> Result<Self, ParseError> {
        if buf.len() < 4 {
            return Err(ParseError::Truncated);
        }
        let b0 = buf.get_u8();
        if b0 >> 6 != 2 {
            return Err(ParseError::BadVersion(b0 >> 6));
        }
        let count = b0 & 0x1f;
        let packet_type = buf.get_u8();
        let words = buf.get_u16() as usize;
        if buf.len() < words * 4 {
            return Err(ParseError::Truncated);
        }
        match packet_type {
            pt::SR => {
                if words != 7 {
                    return Err(ParseError::BadLength);
                }
                Ok(RtcpPacket::SenderReport(SenderReport {
                    path_id: buf.get_u32() as u8,
                    ssrc: buf.get_u32(),
                    ntp_micros: buf.get_u64(),
                    rtp_timestamp: buf.get_u32(),
                    packet_count: buf.get_u32(),
                    octet_count: buf.get_u32(),
                }))
            }
            pt::RR => {
                if buf.len() < 8 {
                    return Err(ParseError::Truncated);
                }
                let path_id = buf.get_u32() as u8;
                let ssrc = buf.get_u32();
                let mut blocks = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    if buf.len() < 28 {
                        return Err(ParseError::Truncated);
                    }
                    blocks.push(ReportBlock {
                        ssrc: buf.get_u32(),
                        fraction_lost: buf.get_u8(),
                        cumulative_lost: buf.get_uint(3) as u32,
                        ext_highest_seq: buf.get_u32(),
                        ext_highest_mp_seq: buf.get_u32(),
                        jitter: buf.get_u32(),
                        last_sr: buf.get_u32(),
                        delay_since_last_sr: buf.get_u32(),
                    });
                }
                Ok(RtcpPacket::ReceiverReport(ReceiverReport {
                    path_id,
                    ssrc,
                    blocks,
                }))
            }
            pt::SDES => {
                if buf.len() < 6 {
                    return Err(ParseError::Truncated);
                }
                let ssrc = buf.get_u32();
                let mut cname = String::new();
                let mut frame_rate = None;
                loop {
                    if !buf.has_remaining() {
                        break;
                    }
                    let item = buf.get_u8();
                    if item == 0 {
                        break;
                    }
                    if !buf.has_remaining() {
                        return Err(ParseError::Truncated);
                    }
                    let len = buf.get_u8() as usize;
                    if buf.len() < len {
                        return Err(ParseError::Truncated);
                    }
                    match item {
                        1 => {
                            cname = String::from_utf8_lossy(&buf.split_to(len)).into_owned();
                        }
                        8 if len == 1 => frame_rate = Some(buf.get_u8()),
                        _ => buf.advance(len),
                    }
                }
                Ok(RtcpPacket::Sdes(Sdes {
                    ssrc,
                    cname,
                    frame_rate,
                }))
            }
            pt::RTPFB if count == 1 => {
                if buf.len() < 12 {
                    return Err(ParseError::Truncated);
                }
                let path_id = buf.get_u32() as u8;
                let _sender = buf.get_u32();
                let ssrc = buf.get_u32();
                let mut lost = Vec::new();
                while buf.len() >= 4 {
                    let pid = buf.get_u16();
                    let blp = buf.get_u16();
                    lost.push(pid);
                    for bit in 0..16 {
                        if blp & (1 << bit) != 0 {
                            lost.push(pid.wrapping_add(bit + 1));
                        }
                    }
                }
                Ok(RtcpPacket::Nack(Nack {
                    path_id,
                    ssrc,
                    lost,
                }))
            }
            pt::RTPFB if count == 15 => {
                if buf.len() < 12 {
                    return Err(ParseError::Truncated);
                }
                let path_id = buf.get_u32() as u8;
                let ssrc = buf.get_u32();
                let n = buf.get_u32() as usize;
                if buf.len() < n * 12 {
                    return Err(ParseError::Truncated);
                }
                let mut arrivals = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = buf.get_u16();
                    let _pad = buf.get_u16();
                    let at = buf.get_u64();
                    arrivals.push((seq, at));
                }
                Ok(RtcpPacket::TransportFeedback(TransportFeedback {
                    path_id,
                    ssrc,
                    arrivals,
                }))
            }
            pt::PSFB if count == 1 => {
                if buf.len() < 12 {
                    return Err(ParseError::Truncated);
                }
                let path_id = buf.get_u32() as u8;
                let _sender = buf.get_u32();
                let ssrc = buf.get_u32();
                Ok(RtcpPacket::Pli(Pli { path_id, ssrc }))
            }
            pt::APP => {
                if buf.len() < 24 {
                    return Err(ParseError::Truncated);
                }
                let ssrc = buf.get_u32();
                let mut name = [0u8; 4];
                buf.copy_to_slice(&mut name);
                if &name != APP_NAME_CVRG {
                    return Err(ParseError::BadExtension);
                }
                Ok(RtcpPacket::QoeFeedback(QoeFeedback {
                    ssrc,
                    path_id: buf.get_u32() as u8,
                    alpha: buf.get_i32(),
                    fcd_micros: buf.get_u64(),
                }))
            }
            other => Err(ParseError::UnknownPacketType(other)),
        }
    }
}

/// Packs sorted-or-not lost sequence numbers into RFC 4585 `(PID, BLP)`
/// pairs: each pair covers a base sequence plus a 16-bit bitmap of the
/// following 16 sequences.
fn encode_nack_pairs(lost: &[u16]) -> Vec<(u16, u16)> {
    let mut sorted: Vec<u16> = lost.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut pairs: Vec<(u16, u16)> = Vec::new();
    for seq in sorted {
        match pairs.last_mut() {
            Some((pid, blp)) if seq.wrapping_sub(*pid) >= 1 && seq.wrapping_sub(*pid) <= 16 => {
                *blp |= 1 << (seq.wrapping_sub(*pid) - 1);
            }
            _ => pairs.push((seq, 0)),
        }
    }
    pairs
}

/// How many pairs [`encode_nack_pairs`] packs `lost` into, without building
/// them: a pair opens at the smallest sequence no earlier pair covers and
/// covers the sixteen after it.
fn count_nack_pairs(lost: &[u16]) -> usize {
    let mut pairs = 0;
    let mut uncovered_from = 0u32;
    while let Some(pid) = lost
        .iter()
        .map(|&seq| u32::from(seq))
        .filter(|&seq| seq >= uncovered_from)
        .min()
    {
        pairs += 1;
        uncovered_from = pid + 17;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: RtcpPacket) {
        let wire = p.serialize();
        let back = RtcpPacket::parse(wire).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn sender_report_roundtrip() {
        roundtrip(RtcpPacket::SenderReport(SenderReport {
            path_id: 1,
            ssrc: 0x1111,
            ntp_micros: 123_456_789,
            rtp_timestamp: 90_000,
            packet_count: 42,
            octet_count: 61_234,
        }));
    }

    #[test]
    fn receiver_report_roundtrip() {
        roundtrip(RtcpPacket::ReceiverReport(ReceiverReport {
            path_id: 2,
            ssrc: 0x2222,
            blocks: vec![
                ReportBlock {
                    ssrc: 0xAAAA,
                    fraction_lost: 25,
                    cumulative_lost: 1000,
                    ext_highest_seq: 70_000,
                    ext_highest_mp_seq: 35_000,
                    jitter: 99,
                    last_sr: 7,
                    delay_since_last_sr: 11,
                },
                ReportBlock {
                    ssrc: 0xBBBB,
                    fraction_lost: 0,
                    cumulative_lost: 0,
                    ext_highest_seq: 5,
                    ext_highest_mp_seq: 5,
                    jitter: 0,
                    last_sr: 0,
                    delay_since_last_sr: 0,
                },
            ],
        }));
    }

    #[test]
    fn empty_receiver_report_roundtrip() {
        roundtrip(RtcpPacket::ReceiverReport(ReceiverReport {
            path_id: 0,
            ssrc: 1,
            blocks: vec![],
        }));
    }

    #[test]
    fn sdes_roundtrip_with_frame_rate() {
        roundtrip(RtcpPacket::Sdes(Sdes {
            ssrc: 0x3333,
            cname: "camera0@converge".into(),
            frame_rate: Some(30),
        }));
    }

    #[test]
    fn sdes_roundtrip_without_frame_rate() {
        roundtrip(RtcpPacket::Sdes(Sdes {
            ssrc: 0x3333,
            cname: "x".into(),
            frame_rate: None,
        }));
    }

    #[test]
    fn nack_roundtrip_contiguous() {
        roundtrip(RtcpPacket::Nack(Nack {
            path_id: 1,
            ssrc: 0x4444,
            lost: vec![100, 101, 102, 116],
        }));
    }

    #[test]
    fn nack_roundtrip_sparse() {
        roundtrip(RtcpPacket::Nack(Nack {
            path_id: 0,
            ssrc: 0x4444,
            lost: vec![10, 200, 300],
        }));
    }

    #[test]
    fn nack_encoding_deduplicates_and_sorts() {
        let mut n = Nack {
            path_id: 0,
            ssrc: 1,
            lost: vec![5, 3, 5, 4],
        };
        let wire = RtcpPacket::Nack(n.clone()).serialize();
        if let RtcpPacket::Nack(back) = RtcpPacket::parse(wire).unwrap() {
            n.lost = vec![3, 4, 5];
            assert_eq!(back, n);
        } else {
            panic!("not a NACK");
        }
    }

    #[test]
    fn pli_roundtrip() {
        roundtrip(RtcpPacket::Pli(Pli {
            path_id: 3,
            ssrc: 0x5555,
        }));
    }

    #[test]
    fn transport_feedback_roundtrip() {
        roundtrip(RtcpPacket::TransportFeedback(TransportFeedback {
            path_id: 1,
            ssrc: 0x6666,
            arrivals: vec![(1, 1_000), (2, 2_500), (4, 9_999_999_999)],
        }));
    }

    #[test]
    fn qoe_feedback_roundtrip_negative_alpha() {
        roundtrip(RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 2,
            ssrc: 0x7777,
            alpha: -5,
            fcd_micros: 45_000,
        }));
    }

    #[test]
    fn qoe_feedback_roundtrip_positive_alpha() {
        roundtrip(RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 1,
            ssrc: 0x7777,
            alpha: 12,
            fcd_micros: 0,
        }));
    }

    #[test]
    fn wire_len_matches_serialized_length() {
        let block = ReportBlock {
            ssrc: 0xAAAA,
            fraction_lost: 25,
            cumulative_lost: 1000,
            ext_highest_seq: 70_000,
            ext_highest_mp_seq: 35_000,
            jitter: 99,
            last_sr: 7,
            delay_since_last_sr: 11,
        };
        let mut packets = vec![
            RtcpPacket::SenderReport(SenderReport {
                path_id: 1,
                ssrc: 0x1111,
                ntp_micros: 123_456_789,
                rtp_timestamp: 90_000,
                packet_count: 42,
                octet_count: 61_234,
            }),
            RtcpPacket::Pli(Pli {
                path_id: 3,
                ssrc: 0x5555,
            }),
            RtcpPacket::QoeFeedback(QoeFeedback {
                path_id: 2,
                ssrc: 0x7777,
                alpha: -5,
                fcd_micros: 45_000,
            }),
            // Unsorted with a duplicate: pairs are counted after sort + dedup.
            RtcpPacket::Nack(Nack {
                path_id: 0,
                ssrc: 1,
                lost: vec![40, 3, 5, 3, 4, 65_535],
            }),
        ];
        for n in [0usize, 1, 30, 255] {
            packets.push(RtcpPacket::ReceiverReport(ReceiverReport {
                path_id: 2,
                ssrc: 0x2222,
                blocks: vec![block; n],
            }));
            // Contiguous (packs 17 to a pair) and sparse (one pair each).
            for stride in [1u16, 40] {
                packets.push(RtcpPacket::Nack(Nack {
                    path_id: 1,
                    ssrc: 0x4444,
                    lost: (0..n as u16).map(|i| 100 + i * stride).collect(),
                }));
            }
            packets.push(RtcpPacket::TransportFeedback(TransportFeedback {
                path_id: 1,
                ssrc: 0x6666,
                arrivals: (0..n as u16).map(|i| (i, 1_000 * u64::from(i))).collect(),
            }));
            for frame_rate in [None, Some(30)] {
                packets.push(RtcpPacket::Sdes(Sdes {
                    ssrc: 0x3333,
                    cname: "c".repeat(n),
                    frame_rate,
                }));
            }
        }
        // Every padding phase of the SDES chunk.
        for len in 0..8 {
            packets.push(RtcpPacket::Sdes(Sdes {
                ssrc: 1,
                cname: "x".repeat(len),
                frame_rate: Some(15),
            }));
        }
        for p in &packets {
            assert_eq!(p.wire_len(), p.serialize().len(), "{p:?}");
        }
    }

    /// The property over generated lists rather than hand-picked ones:
    /// contiguous runs, sparse strides, shuffles, duplicates and lists that
    /// straddle the 16-bit wrap.
    #[test]
    fn nack_wire_len_matches_serialized_length_over_generated_lists() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(16);
        for case in 0..2_000u32 {
            let len = rng.gen_range(0..64u16);
            // Bases near 0 and near 65 535 make the wrap common.
            let base = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..40u16),
                1 => 65_500u16.wrapping_add(rng.gen_range(0..40u16)),
                _ => rng.gen(),
            };
            let stride = [1u16, 1, 2, 16, 17, 18, 40, 1_000][rng.gen_range(0..8usize)];
            let mut lost: Vec<u16> = (0..len)
                .map(|i| base.wrapping_add(i.wrapping_mul(stride)))
                .collect();
            if case % 2 == 1 {
                for i in (1..lost.len()).rev() {
                    lost.swap(i, rng.gen_range(0..=i));
                }
            }
            if case % 3 == 0 {
                for _ in 0..len / 4 {
                    let dup = lost[rng.gen_range(0..lost.len())];
                    lost.push(dup);
                }
            }
            let p = RtcpPacket::Nack(Nack {
                path_id: (case % 4) as u8,
                ssrc: case,
                lost,
            });
            assert_eq!(p.wire_len(), p.serialize().len(), "case {case}: {p:?}");
        }
    }

    #[test]
    fn parse_rejects_truncated() {
        let wire = RtcpPacket::Pli(Pli {
            path_id: 0,
            ssrc: 9,
        })
        .serialize();
        let short = wire.slice(0..wire.len() - 1);
        assert_eq!(RtcpPacket::parse(short), Err(ParseError::Truncated));
    }

    /// A receiver report too short for its path and SSRC words.
    #[test]
    fn parse_rejects_a_short_receiver_report() {
        for wire in [
            vec![0x80, pt::RR, 0, 0],
            vec![0x80, pt::RR, 0, 1, 0, 0, 0, 0],
        ] {
            assert_eq!(
                RtcpPacket::parse(Bytes::from(wire.clone())),
                Err(ParseError::Truncated),
                "{wire:?}"
            );
        }
    }

    /// Every strict prefix of one packet of each RTCP type, and of an RTP
    /// packet with the multipath extension, is an error and never a panic.
    #[test]
    fn every_strict_prefix_is_rejected() {
        use crate::{MultipathExtension, PayloadType, RtpPacket};
        let block = ReportBlock {
            ssrc: 0xAAAA,
            fraction_lost: 25,
            cumulative_lost: 1000,
            ext_highest_seq: 70_000,
            ext_highest_mp_seq: 35_000,
            jitter: 99,
            last_sr: 7,
            delay_since_last_sr: 11,
        };
        let rtcp = [
            RtcpPacket::SenderReport(SenderReport {
                path_id: 1,
                ssrc: 0x1111,
                ntp_micros: 123_456_789,
                rtp_timestamp: 90_000,
                packet_count: 42,
                octet_count: 61_234,
            }),
            RtcpPacket::ReceiverReport(ReceiverReport {
                path_id: 2,
                ssrc: 0x2222,
                blocks: vec![block; 2],
            }),
            RtcpPacket::Sdes(Sdes {
                ssrc: 0x3333,
                cname: "camera0@converge".into(),
                frame_rate: Some(30),
            }),
            RtcpPacket::Nack(Nack {
                path_id: 1,
                ssrc: 0x4444,
                lost: vec![100, 101, 102, 116, 300],
            }),
            RtcpPacket::TransportFeedback(TransportFeedback {
                path_id: 1,
                ssrc: 0x6666,
                arrivals: vec![(1, 1_000), (2, 2_500)],
            }),
            RtcpPacket::Pli(Pli {
                path_id: 3,
                ssrc: 0x5555,
            }),
            RtcpPacket::QoeFeedback(QoeFeedback {
                path_id: 2,
                ssrc: 0x7777,
                alpha: -5,
                fcd_micros: 45_000,
            }),
        ];
        for p in &rtcp {
            let wire = p.serialize();
            assert_eq!(RtcpPacket::parse(wire.clone()).as_ref(), Ok(p));
            for cut in 0..wire.len() {
                let got = RtcpPacket::parse(wire.slice(0..cut));
                assert!(got.is_err(), "{p:?} cut at {cut}: {got:?}");
            }
        }
        // Without a payload every byte of the packet is header or
        // extension, so every strict prefix is short of one of them.
        let rtp = RtpPacket {
            marker: true,
            payload_type: PayloadType::Video,
            sequence: 0xBEEF,
            timestamp: 0x1234_5678,
            ssrc: 0xCAFE_BABE,
            extension: Some(MultipathExtension {
                path_id: 2,
                mp_sequence: 41,
                mp_transport_sequence: 1007,
            }),
            payload: Bytes::new(),
        };
        let wire = rtp.serialize();
        assert_eq!(RtpPacket::parse(wire.clone()), Ok(rtp));
        for cut in 0..wire.len() {
            let got = RtpPacket::parse(wire.slice(0..cut));
            assert!(got.is_err(), "RTP cut at {cut}: {got:?}");
        }
    }

    #[test]
    fn parse_rejects_unknown_type() {
        let mut b = BytesMut::new();
        b.put_u8(2 << 6);
        b.put_u8(199);
        b.put_u16(0);
        assert_eq!(
            RtcpPacket::parse(b.freeze()),
            Err(ParseError::UnknownPacketType(199))
        );
    }

    #[test]
    fn parse_rejects_bad_version() {
        let mut b = BytesMut::new();
        b.put_u8(1 << 6);
        b.put_u8(pt::SR);
        b.put_u16(0);
        assert_eq!(
            RtcpPacket::parse(b.freeze()),
            Err(ParseError::BadVersion(1))
        );
    }

    #[test]
    fn path_id_accessor() {
        let p = RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 7,
            ssrc: 0,
            alpha: 0,
            fcd_micros: 0,
        });
        assert_eq!(p.path_id(), 7);
    }

    #[test]
    fn nack_pair_encoding_window() {
        // 17 apart must start a new pair.
        let pairs = encode_nack_pairs(&[0, 17]);
        assert_eq!(pairs.len(), 2);
        // 16 apart fits in one pair.
        let pairs = encode_nack_pairs(&[0, 16]);
        assert_eq!(pairs, vec![(0, 1 << 15)]);
    }
}
