//! Wire fidelity: every packet a real sender pipeline produces must
//! survive serialization to RTP bytes and back, including the multipath
//! extension and the video metadata the receiver depends on.

use converge_core::{
    classify, ConvergeScheduler, ConvergeSchedulerConfig, PathMetrics, Schedulable, Scheduler,
};
use converge_net::{PathId, SimDuration, SimTime};
use converge_sim::payload::{RtpKind, SimRtp};
use converge_sim::wire::{decode_rtp, encode_rtp};
use converge_video::{EncoderConfig, Packetizer, PacketizerConfig, StreamId, VideoEncoder};

#[test]
fn full_encoder_output_survives_the_wire() {
    let mut encoder = VideoEncoder::new(EncoderConfig::paper_default(StreamId(1)));
    let mut packetizer = Packetizer::new(PacketizerConfig);
    let mut scheduler = ConvergeScheduler::new(ConvergeSchedulerConfig::default());
    let paths = [
        PathMetrics::new(PathId(0), 10_000_000, SimDuration::from_millis(40), 0.01),
        PathMetrics::new(PathId(1), 5_000_000, SimDuration::from_millis(60), 0.02),
    ];

    let mut transport_seq = 0u64;
    let mut total = 0usize;
    // Ten seconds of encoded video through the real scheduler, every
    // packet through the wire codec.
    for i in 0..300u64 {
        let now = SimTime::from_micros(i * 33_333);
        if i == 150 {
            encoder.request_keyframe();
        }
        let frame = encoder.encode(now);
        let packets = packetizer.packetize(&frame);
        let batch: Vec<Schedulable> = packets
            .iter()
            .map(|p| Schedulable {
                packet: *p,
                class: classify(p),
            })
            .collect();
        let assignments = scheduler.assign_batch(now, &batch, &paths);
        for (sched, assign) in batch.iter().zip(assignments) {
            let rtp = SimRtp {
                kind: RtpKind::Media(sched.packet),
                path: assign.path,
                transport_seq: transport_seq & 0xFFFF,
                sent_at: now,
            };
            transport_seq += 1;
            let wire = encode_rtp(&rtp);
            assert!(wire.len() >= 24, "headers present");
            let decoded = decode_rtp(wire, now).expect("decode");
            assert_eq!(decoded, rtp, "packet {total} mismatched");
            total += 1;
        }
    }
    assert!(total > 2_000, "exercised {total} packets");
}

#[test]
fn wire_rejects_cross_payload_confusion() {
    // A probe parsed as media (and vice versa) must fail or at least not
    // alias silently: the payload type is authoritative.
    let probe = SimRtp {
        kind: RtpKind::Probe { probe_seq: 7 },
        path: PathId(0),
        transport_seq: 1,
        sent_at: SimTime::ZERO,
    };
    let wire = encode_rtp(&probe);
    let back = decode_rtp(wire, SimTime::ZERO).unwrap();
    assert!(matches!(back.kind, RtpKind::Probe { probe_seq: 7 }));
}
