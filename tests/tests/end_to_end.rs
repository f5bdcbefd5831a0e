//! Cross-crate integration tests: full conference sessions exercising the
//! emulator, RTP stack, video pipeline, GCC, schedulers, FEC, and metrics
//! together.

use converge_integration::clean_scenario;
use converge_net::{PathId, SimDuration};
use converge_sim::{FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig};

fn run(
    scenario: ScenarioConfig,
    scheduler: SchedulerKind,
    fec: FecKind,
    streams: u8,
    secs: u64,
    seed: u64,
) -> converge_sim::CallReport {
    let config = SessionConfig::builder()
        .scenario(scenario)
        .scheduler(scheduler)
        .fec(fec)
        .streams(streams)
        .duration(SimDuration::from_secs(secs))
        .seed(seed)
        .build()
        .expect("valid session config");
    Session::new(config).run()
}

#[test]
fn every_scheduler_completes_a_call() {
    for scheduler in [
        SchedulerKind::Converge,
        SchedulerKind::ConvergeNoFeedback,
        SchedulerKind::SinglePath(0),
        SchedulerKind::SinglePath(1),
        SchedulerKind::ConnectionMigration(0),
        SchedulerKind::Srtt,
        SchedulerKind::MTput,
        SchedulerKind::MRtp,
    ] {
        let r = run(clean_scenario(), scheduler, FecKind::WebRtcTable, 1, 10, 5);
        assert!(
            r.frames_decoded > 100,
            "{}: only {} frames decoded",
            scheduler.label(),
            r.frames_decoded
        );
    }
}

#[test]
fn report_invariants_hold() {
    for (scenario, loss) in [
        (ScenarioConfig::fec_tradeoff(0.0), false),
        (ScenarioConfig::fec_tradeoff(5.0), true),
        (ScenarioConfig::driving(SimDuration::from_secs(20), 3), true),
    ] {
        let r = run(
            scenario,
            SchedulerKind::Converge,
            FecKind::Converge,
            2,
            20,
            3,
        );
        // Frame conservation: what was decoded or dropped cannot exceed
        // what was encoded (dropped counts receiver-side abandonments).
        assert!(r.frames_decoded <= r.frames_encoded);
        // FEC pipeline ordering.
        assert!(r.fec_packets_used <= r.fec_packets_received);
        assert!(r.fec_packets_received <= r.fec_packets_sent);
        // Path conservation: received + lost <= sent (late in-flight
        // packets at call end account for the slack).
        for (path, c) in &r.paths {
            assert!(
                c.packets_received + c.packets_lost <= c.packets_sent,
                "{path}: {c:?}"
            );
        }
        // Normalizations are fractions of sane magnitude.
        assert!(r.normalized_throughput() >= 0.0 && r.normalized_throughput() <= 1.5);
        assert!(r.normalized_fps() >= 0.0 && r.normalized_fps() <= 1.5);
        if loss {
            assert!(r.fec_packets_sent > 0, "lossy run should generate FEC");
        }
        // Time series covers the call duration.
        assert_eq!(r.bins.len(), 20);
    }
}

#[test]
fn determinism_across_identical_runs() {
    let a = run(
        ScenarioConfig::driving(SimDuration::from_secs(15), 9),
        SchedulerKind::Converge,
        FecKind::Converge,
        2,
        15,
        9,
    );
    let b = run(
        ScenarioConfig::driving(SimDuration::from_secs(15), 9),
        SchedulerKind::Converge,
        FecKind::Converge,
        2,
        15,
        9,
    );
    assert_eq!(a.frames_decoded, b.frames_decoded);
    assert_eq!(a.frames_dropped, b.frames_dropped);
    assert_eq!(a.fec_packets_sent, b.fec_packets_sent);
    assert_eq!(a.nacks_sent, b.nacks_sent);
    assert_eq!(a.throughput_bps, b.throughput_bps);
    assert_eq!(a.e2e_mean_ms, b.e2e_mean_ms);
}

#[test]
fn different_seeds_change_the_run() {
    let a = run(
        ScenarioConfig::driving(SimDuration::from_secs(15), 1),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        15,
        1,
    );
    let b = run(
        ScenarioConfig::driving(SimDuration::from_secs(15), 2),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        15,
        2,
    );
    assert_ne!(a.throughput_bps, b.throughput_bps);
}

#[test]
fn single_path_schedulers_respect_their_pin() {
    for pin in [0u8, 1] {
        let r = run(
            clean_scenario(),
            SchedulerKind::SinglePath(pin),
            FecKind::WebRtcTable,
            1,
            10,
            2,
        );
        let other = PathId(1 - pin);
        assert_eq!(
            r.paths.get(&other).map(|c| c.packets_sent).unwrap_or(0),
            0,
            "pinned to {pin} but sent on {other}"
        );
    }
}

#[test]
fn multipath_uses_both_paths() {
    let r = run(
        clean_scenario(),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        20,
        4,
    );
    let p0 = r.paths[&PathId(0)].packets_sent;
    let p1 = r.paths[&PathId(1)].packets_sent;
    assert!(
        p0 > 0 && p1 > 0,
        "both paths should carry packets: {p0}/{p1}"
    );
    // Equal paths: neither should be starved below 10% of the other's load.
    let (lo, hi) = (p0.min(p1) as f64, p0.max(p1) as f64);
    assert!(lo / hi > 0.1, "pathological imbalance: {p0}/{p1}");
}

#[test]
fn loss_generates_nacks_retransmissions_and_recovery() {
    let r = run(
        ScenarioConfig::fec_tradeoff(5.0),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        20,
        8,
    );
    assert!(r.nacks_sent > 0, "5% loss must trigger NACKs");
    assert!(r.retransmissions > 0, "NACKs must trigger retransmissions");
    assert!(r.fec_packets_used > 0, "FEC must recover some losses");
    // Despite 5% loss, the call should still deliver most frames.
    assert!(
        r.frames_decoded as f64 / r.frames_encoded as f64 > 0.8,
        "{}/{} frames survived",
        r.frames_decoded,
        r.frames_encoded
    );
}

#[test]
fn fec_none_ablation_sends_no_fec() {
    let r = run(
        ScenarioConfig::fec_tradeoff(3.0),
        SchedulerKind::Converge,
        FecKind::None,
        1,
        10,
        6,
    );
    assert_eq!(r.fec_packets_sent, 0);
    assert_eq!(r.fec_packets_used, 0);
    // Loss recovery must fall back to NACK alone.
    assert!(r.nacks_sent > 0);
}

#[test]
fn clean_network_has_near_zero_overheads() {
    let r = run(
        clean_scenario(),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        20,
        10,
    );
    assert!(
        r.fec_overhead_pct() < 2.0,
        "clean paths need no FEC: {:.2}%",
        r.fec_overhead_pct()
    );
    assert_eq!(r.keyframe_requests, 0, "no PLI on a clean network");
    assert!(
        r.freeze_total_ms < 1_500.0,
        "freezes {}ms",
        r.freeze_total_ms
    );
}

#[test]
fn e2e_latency_reflects_propagation_floor() {
    // One-way 50 ms + 20 ms decode pipeline: no frame can beat ~70 ms.
    let r = run(
        clean_scenario(),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        10,
        11,
    );
    assert!(
        r.e2e_p50_ms >= 70.0,
        "median E2E {} below physical floor",
        r.e2e_p50_ms
    );
    assert!(
        r.e2e_p50_ms < 250.0,
        "median E2E {} absurdly high",
        r.e2e_p50_ms
    );
}

#[test]
fn three_streams_triple_the_frame_flow() {
    let one = run(
        clean_scenario(),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        15,
        12,
    );
    let three = run(
        clean_scenario(),
        SchedulerKind::Converge,
        FecKind::Converge,
        3,
        15,
        12,
    );
    assert!(
        three.frames_encoded > one.frames_encoded * 2,
        "3 streams should encode ~3x the frames: {} vs {}",
        three.frames_encoded,
        one.frames_encoded
    );
}

#[test]
fn wire_formats_round_trip_session_traffic() {
    // Everything the session exchanges must serialize and parse on the real
    // wire formats (the sim exchanges typed forms for speed; the formats
    // themselves are the contract).
    use converge_rtp::*;

    let packets = vec![
        RtcpPacket::SenderReport(SenderReport {
            path_id: 0,
            ssrc: 1,
            ntp_micros: 1_000_000,
            rtp_timestamp: 90_000,
            packet_count: 100,
            octet_count: 120_000,
        }),
        RtcpPacket::ReceiverReport(ReceiverReport {
            path_id: 1,
            ssrc: 2,
            blocks: vec![ReportBlock {
                ssrc: 1,
                fraction_lost: 12,
                cumulative_lost: 34,
                ext_highest_seq: 5_000,
                ext_highest_mp_seq: 2_600,
                jitter: 3,
                last_sr: 77,
                delay_since_last_sr: 88,
            }],
        }),
        RtcpPacket::Nack(Nack {
            path_id: 0,
            ssrc: 1,
            lost: vec![10, 11, 25],
        }),
        RtcpPacket::Pli(Pli {
            path_id: 1,
            ssrc: 1,
        }),
        RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 1,
            ssrc: 0,
            alpha: -4,
            fcd_micros: 45_000,
        }),
        RtcpPacket::Sdes(Sdes {
            ssrc: 0,
            cname: "cam0".into(),
            frame_rate: Some(30),
        }),
        RtcpPacket::TransportFeedback(TransportFeedback {
            path_id: 0,
            ssrc: 0,
            arrivals: vec![(100, 123_456), (101, 124_000)],
        }),
    ];
    for p in packets {
        let wire = p.serialize();
        let back = RtcpPacket::parse(wire).expect("parse");
        assert_eq!(p, back);
    }

    let rtp = RtpPacket {
        marker: true,
        payload_type: PayloadType::Video,
        sequence: 4242,
        timestamp: 3_600_000,
        ssrc: 7,
        extension: Some(MultipathExtension {
            path_id: 1,
            mp_sequence: 900,
            mp_transport_sequence: 1_900,
        }),
        payload: bytes::Bytes::from_static(&[0xAB; 1200]),
    };
    let back = RtpPacket::parse(rtp.serialize()).expect("parse");
    assert_eq!(rtp, back);
}
