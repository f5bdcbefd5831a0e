//! Golden wire-layout tests: pin the exact byte layout of the Converge
//! multipath extensions (paper Figs. 18–19) so refactors cannot silently
//! change the protocol.

use bytes::Bytes;
use converge_rtp::{
    MultipathExtension, PayloadType, QoeFeedback, ReceiverReport, ReportBlock, RtcpPacket,
    RtpPacket,
};

#[test]
fn rtp_multipath_extension_layout_fig18() {
    let pkt = RtpPacket {
        marker: false,
        payload_type: PayloadType::Video,
        sequence: 0x0102,
        timestamp: 0x0304_0506,
        ssrc: 0x0708_090A,
        extension: Some(MultipathExtension {
            path_id: 0xAB,
            mp_sequence: 0x1122,
            mp_transport_sequence: 0x3344,
        }),
        payload: Bytes::new(),
    };
    let wire = pkt.serialize();

    // RFC 3550 fixed header.
    assert_eq!(wire[0], 0b1001_0000, "V=2, P=0, X=1, CC=0");
    assert_eq!(wire[1] & 0x7F, 96, "video payload type");
    assert_eq!(&wire[2..4], &[0x01, 0x02], "sequence");
    assert_eq!(&wire[4..8], &[0x03, 0x04, 0x05, 0x06], "timestamp");
    assert_eq!(&wire[8..12], &[0x07, 0x08, 0x09, 0x0A], "ssrc");

    // RFC 5285 one-byte-form extension header.
    assert_eq!(&wire[12..14], &[0xBE, 0xDE], "profile 0xBEDE");
    assert_eq!(&wire[14..16], &[0x00, 0x02], "2 words of body");

    // Fig. 18 elements: PathID (id 1, 1 byte), MpSequenceNumber (id 2,
    // 2 bytes), MpTransportSequenceNumber (id 3, 2 bytes).
    assert_eq!(wire[16], 1 << 4, "path element header");
    assert_eq!(wire[17], 0xAB, "path id");
    assert_eq!(wire[18], (2 << 4) | 1, "mp-seq element header");
    assert_eq!(&wire[19..21], &[0x11, 0x22], "mp sequence");
    assert_eq!(wire[21], (3 << 4) | 1, "mp-transport-seq element header");
    assert_eq!(&wire[22..24], &[0x33, 0x44], "mp transport sequence");
    assert_eq!(wire.len(), 24, "no payload, no padding beyond alignment");
}

#[test]
fn rtcp_rr_layout_fig19() {
    let rr = RtcpPacket::ReceiverReport(ReceiverReport {
        path_id: 0x07,
        ssrc: 0x1111_2222,
        blocks: vec![ReportBlock {
            ssrc: 0x3333_4444,
            fraction_lost: 0x80,
            cumulative_lost: 0x00_0A0B,
            ext_highest_seq: 0x5555_6666,
            ext_highest_mp_seq: 0x7777_8888,
            jitter: 0x0000_0009,
            last_sr: 0x0000_0001,
            delay_since_last_sr: 0x0000_0002,
        }],
    });
    let wire = rr.serialize();

    assert_eq!(wire[0] >> 6, 2, "version");
    assert_eq!(wire[0] & 0x1F, 1, "one report block");
    assert_eq!(wire[1], 201, "PT=RR");
    // Fig. 19: the PathID word follows the header, before the SSRC.
    assert_eq!(&wire[4..8], &[0, 0, 0, 0x07], "PathID word");
    assert_eq!(&wire[8..12], &[0x11, 0x11, 0x22, 0x22], "reporter ssrc");
    // Block: ssrc, fraction+cumulative, ext highest seq, then the Fig. 19
    // addition — Extended Highest Mp-Sequence Received.
    assert_eq!(&wire[12..16], &[0x33, 0x33, 0x44, 0x44]);
    assert_eq!(wire[16], 0x80, "fraction lost");
    assert_eq!(
        &wire[17..20],
        &[0x00, 0x0A, 0x0B],
        "cumulative lost (24-bit)"
    );
    assert_eq!(&wire[20..24], &[0x55, 0x55, 0x66, 0x66], "ext highest seq");
    assert_eq!(
        &wire[24..28],
        &[0x77, 0x77, 0x88, 0x88],
        "ext highest MP seq (the multipath extension)"
    );
}

#[test]
fn rtcp_qoe_feedback_layout() {
    let fb = RtcpPacket::QoeFeedback(QoeFeedback {
        path_id: 0x02,
        ssrc: 0xAABB_CCDD,
        alpha: -5,
        fcd_micros: 0x0000_0000_0001_0203,
    });
    let wire = fb.serialize();

    assert_eq!(wire[1], 204, "APP packet");
    assert_eq!(&wire[4..8], &[0xAA, 0xBB, 0xCC, 0xDD], "ssrc");
    assert_eq!(&wire[8..12], b"CVRG", "application name");
    assert_eq!(&wire[12..16], &[0, 0, 0, 0x02], "path id word");
    assert_eq!(
        &wire[16..20],
        &(-5i32).to_be_bytes(),
        "alpha (signed, two's complement)"
    );
    assert_eq!(
        &wire[20..28],
        &[0, 0, 0, 0, 0, 1, 0x02, 0x03],
        "FCD in microseconds"
    );
}

#[test]
fn layouts_are_stable_across_roundtrips() {
    // Serialize → parse → serialize must be byte-identical (canonical
    // encoding, no degrees of freedom).
    let packets = vec![
        RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 1,
            ssrc: 42,
            alpha: 17,
            fcd_micros: 99_999,
        }),
        RtcpPacket::ReceiverReport(ReceiverReport {
            path_id: 0,
            ssrc: 7,
            blocks: vec![],
        }),
    ];
    for p in packets {
        let first = p.serialize();
        let reparsed = RtcpPacket::parse(first.clone()).unwrap();
        assert_eq!(reparsed.serialize(), first);
    }
}
