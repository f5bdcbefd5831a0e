//! Edge-case integration tests: degenerate configurations and unusual
//! interleavings the main suites don't reach.

use converge_net::{PathId, RateTrace, SimDuration};
use converge_sim::{FecKind, PathSpec, ScenarioConfig, SchedulerKind, Session, SessionConfig};

fn scenario_with(paths: Vec<PathSpec>) -> ScenarioConfig {
    ScenarioConfig {
        name: "custom".into(),
        paths,
    }
}

/// The Converge system (scheduler + FEC, one stream) on a given scenario,
/// via the validating builder.
fn converge_cfg(scenario: ScenarioConfig, secs: u64, seed: u64) -> SessionConfig {
    SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(SimDuration::from_secs(secs))
        .seed(seed)
        .build()
        .expect("valid session config")
}

#[test]
fn single_path_scenario_works_for_multipath_scheduler() {
    // Converge over exactly one path degenerates to single-path WebRTC
    // (the backward-compatibility story of paper section 5).
    let cfg = converge_cfg(
        scenario_with(vec![PathSpec::constant(12_000_000, 30, 0.0)]),
        15,
        2,
    );
    let r = Session::new(cfg).run();
    assert!(r.fps > 25.0, "single-path Converge call: {} fps", r.fps);
    assert_eq!(r.paths.len(), 1);
}

#[test]
fn three_paths_all_carry_load() {
    let cfg = converge_cfg(
        scenario_with(vec![
            PathSpec::constant(6_000_000, 20, 0.0),
            PathSpec::constant(6_000_000, 40, 0.0),
            PathSpec::constant(6_000_000, 60, 0.0),
        ]),
        20,
        6,
    );
    let r = Session::new(cfg).run();
    assert!(r.fps > 24.0, "{} fps", r.fps);
    for id in 0..3u8 {
        let sent = r
            .paths
            .get(&PathId(id))
            .map(|c| c.packets_sent)
            .unwrap_or(0);
        assert!(sent > 500, "path{id} starved: {sent} packets");
    }
    // Aggregate beats any single 6 Mbps path.
    assert!(
        r.throughput_bps > 7_000_000.0,
        "aggregation failed: {:.2} Mbps",
        r.throughput_bps / 1e6
    );
}

#[test]
fn wildly_asymmetric_paths_prefer_the_fat_one() {
    let cfg = converge_cfg(
        scenario_with(vec![
            PathSpec::constant(20_000_000, 15, 0.0),
            PathSpec::constant(300_000, 200, 2.0),
        ]),
        20,
        8,
    );
    let r = Session::new(cfg).run();
    let fat = r.paths[&PathId(0)].packets_sent;
    let thin = r.paths[&PathId(1)].packets_sent;
    assert!(fat > thin * 10, "fat path must dominate: {fat} vs {thin}");
    assert!(r.fps > 25.0, "{} fps", r.fps);
}

#[test]
fn very_short_call_terminates_cleanly() {
    let cfg = converge_cfg(ScenarioConfig::fec_tradeoff(0.0), 1, 1);
    let r = Session::new(cfg).run();
    assert_eq!(r.bins.len(), 1);
    assert!(r.frames_encoded >= 25);
}

#[test]
fn zero_rate_path_does_not_wedge_the_session() {
    // One path's trace is stuck at zero the whole call; the session must
    // ride the other path.
    let dead = PathSpec {
        rate: RateTrace::constant(0),
        ..PathSpec::constant(0, 50, 0.0)
    };
    let cfg = converge_cfg(
        scenario_with(vec![PathSpec::constant(12_000_000, 25, 0.0), dead]),
        15,
        4,
    );
    let r = Session::new(cfg).run();
    assert!(r.fps > 22.0, "live path must carry the call: {} fps", r.fps);
}

#[test]
fn heavy_loss_call_degrades_but_survives() {
    let cfg = converge_cfg(ScenarioConfig::fec_tradeoff(15.0), 20, 3);
    let r = Session::new(cfg).run();
    // 15% loss on both paths is brutal (a ~25-packet frame rarely arrives
    // whole); FEC + NACK must still salvage a substantial fraction.
    assert!(
        r.frames_decoded as f64 > r.frames_encoded as f64 * 0.35,
        "{} of {} frames decoded",
        r.frames_decoded,
        r.frames_encoded
    );
    assert!(r.fec_packets_used > 0);
    assert!(r.retransmissions > 0);
}

#[test]
fn fec_and_retransmission_double_recovery_is_harmless() {
    use converge_net::SimTime;
    use converge_sim::payload::{RtpKind, SimRtp};
    use converge_sim::receiver::{ConferenceReceiver, ReceiverEvent};
    use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

    let mk = |seq: u64, kind: PacketKind| VideoPacket {
        stream: StreamId(0),
        sequence: seq,
        frame_id: 0,
        gop_id: 0,
        frame_type: FrameType::Key,
        kind,
        size: 1200,
        capture_time: SimTime::ZERO,
    };
    let packets = [
        mk(0, PacketKind::Sps),
        mk(1, PacketKind::Pps),
        mk(2, PacketKind::Media { index: 0, count: 2 }),
        mk(3, PacketKind::Media { index: 1, count: 2 }),
    ];
    let mut rx = ConferenceReceiver::new(1, &[PathId(0)], 30, PathId(0));
    // Deliver everything except seq 3.
    for (i, p) in packets.iter().take(3).enumerate() {
        rx.on_rtp(
            SimTime::from_millis(i as u64),
            &SimRtp {
                kind: RtpKind::Media(*p),
                path: PathId(0),
                transport_seq: i as u64,
                sent_at: SimTime::ZERO,
            },
        );
    }
    // FEC recovers seq 3 → frame decodes.
    let evs = rx.on_rtp(
        SimTime::from_millis(10),
        &SimRtp {
            kind: RtpKind::Fec {
                stream: StreamId(0),
                protected: vec![packets[2], packets[3]],
                origin_path: PathId(0),
            },
            path: PathId(0),
            transport_seq: 4,
            sent_at: SimTime::ZERO,
        },
    );
    assert!(evs
        .iter()
        .any(|e| matches!(e, ReceiverEvent::FrameDecoded { .. })));
    // The retransmission of seq 3 then arrives anyway (NACK raced the FEC):
    // it must be treated as stale, not decoded twice.
    let evs = rx.on_rtp(
        SimTime::from_millis(60),
        &SimRtp {
            kind: RtpKind::Retransmission(packets[3]),
            path: PathId(0),
            transport_seq: 5,
            sent_at: SimTime::ZERO,
        },
    );
    assert!(
        !evs.iter()
            .any(|e| matches!(e, ReceiverEvent::FrameDecoded { .. })),
        "no double decode: {evs:?}"
    );
}

#[test]
fn duplicate_deliveries_never_double_decode() {
    use converge_net::SimTime;
    use converge_sim::payload::{RtpKind, SimRtp};
    use converge_sim::receiver::{ConferenceReceiver, ReceiverEvent};
    use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

    let mut rx = ConferenceReceiver::new(1, &[PathId(0), PathId(1)], 30, PathId(0));
    let packets: Vec<VideoPacket> = vec![
        PacketKind::Sps,
        PacketKind::Pps,
        PacketKind::Media { index: 0, count: 1 },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| VideoPacket {
        stream: StreamId(0),
        sequence: i as u64,
        frame_id: 0,
        gop_id: 0,
        frame_type: FrameType::Key,
        kind,
        size: 500,
        capture_time: SimTime::ZERO,
    })
    .collect();

    let mut decodes = 0;
    // Deliver the whole frame twice (once per path — a full duplication).
    for path in [PathId(0), PathId(1)] {
        for (i, p) in packets.iter().enumerate() {
            let evs = rx.on_rtp(
                SimTime::from_millis(i as u64 + path.0 as u64 * 10),
                &SimRtp {
                    kind: RtpKind::Media(*p),
                    path,
                    transport_seq: i as u64,
                    sent_at: SimTime::ZERO,
                },
            );
            decodes += evs
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::FrameDecoded { .. }))
                .count();
        }
    }
    assert_eq!(decodes, 1, "a duplicated frame decodes exactly once");
}
