//! Property-based tests over the transport-adjacent modules: SRTP
//! protection, the pacer, and the connection monitor.

// With the offline proptest stand-in the `proptest!` bodies vanish,
// leaving strategies and imports used only inside them looking unused.
#![allow(dead_code, unused_imports)]

use proptest::prelude::*;

use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::{SrtpContext, SrtpError};
use converge_signal::{ConnectionMonitor, PathState};

// ---------- SRTP ----------

proptest! {
    #[test]
    fn srtp_roundtrips_any_payload(
        key in any::<u64>(),
        ssrc in any::<u32>(),
        seq in 0u64..1_000_000,
        path in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let tx = SrtpContext::new(key);
        let mut rx = SrtpContext::new(key);
        let wire = tx.protect(ssrc, seq, path, &payload);
        let plain = rx.unprotect(ssrc, seq, path, &wire).expect("roundtrip");
        prop_assert_eq!(&plain[..], &payload[..]);
    }

    #[test]
    fn srtp_rejects_any_single_bit_flip(
        key in any::<u64>(),
        seq in 0u64..10_000,
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let tx = SrtpContext::new(key);
        let mut rx = SrtpContext::new(key);
        let wire = tx.protect(1, seq, 0, &payload);
        let mut bad = wire.to_vec();
        let idx = flip_byte.index(bad.len());
        bad[idx] ^= 1 << flip_bit;
        prop_assert_eq!(
            rx.unprotect(1, seq, 0, &bad),
            Err(SrtpError::AuthenticationFailed)
        );
    }

    #[test]
    fn srtp_replay_always_detected_in_window(
        key in any::<u64>(),
        seqs in proptest::collection::vec(0u64..60, 2..40),
    ) {
        let tx = SrtpContext::new(key);
        let mut rx = SrtpContext::new(key);
        let mut seen = std::collections::BTreeSet::new();
        for &seq in &seqs {
            let wire = tx.protect(1, seq, 0, b"payload");
            let result = rx.unprotect(1, seq, 0, &wire);
            // All sequences are within 60 of each other, inside the 64-wide
            // window, so acceptance is exactly first-time-seen.
            if seen.insert(seq) {
                prop_assert!(result.is_ok(), "fresh seq {seq} rejected");
            } else {
                prop_assert_eq!(result, Err(SrtpError::Replayed));
            }
        }
    }

    #[test]
    fn srtp_keystreams_differ_across_nonce_fields(
        key in any::<u64>(),
        seq in 0u64..1_000_000,
        path in 0u8..254,
    ) {
        let tx = SrtpContext::new(key);
        let payload = [0u8; 64];
        let a = tx.protect(1, seq, path, &payload);
        let b = tx.protect(1, seq + 1, path, &payload);
        let c = tx.protect(1, seq, path + 1, &payload);
        let d = tx.protect(2, seq, path, &payload);
        prop_assert_ne!(&a, &b, "sequence must alter the keystream");
        prop_assert_ne!(&a, &c, "path must alter the keystream");
        prop_assert_ne!(&a, &d, "ssrc must alter the keystream");
    }
}

// ---------- connection monitor ----------

proptest! {
    #[test]
    fn monitor_state_consistent_under_any_activity_pattern(
        events in proptest::collection::vec((0u64..20_000, 0u8..2), 1..200),
    ) {
        let mut sorted = events.clone();
        sorted.sort();
        let mut m = ConnectionMonitor::new(&[PathId(0), PathId(1)]);
        let mut last_heard: std::collections::BTreeMap<u8, u64> = Default::default();
        last_heard.insert(0, 0);
        last_heard.insert(1, 0);
        for &(at_ms, path) in &sorted {
            let t = SimTime::from_millis(at_ms);
            m.poll(t);
            m.on_activity(t, PathId(path));
            last_heard.insert(path, at_ms);
            // Invariant: a path heard from within the suspect window is Up.
            for (&p, &heard) in &last_heard {
                let silence = at_ms.saturating_sub(heard);
                let state = m.state(PathId(p)).expect("known path");
                if silence < 1_500 {
                    prop_assert_eq!(state, PathState::Up, "path{} silent {}ms", p, silence);
                }
                if silence >= 5_000 {
                    // poll() before the activity above may not have run at
                    // this exact instant for the other path; force it.
                    m.poll(t);
                    prop_assert_eq!(m.state(PathId(p)).unwrap(), PathState::Down);
                }
            }
        }
    }
}

// ---------- pacer ----------

proptest! {
    #[test]
    fn pacer_conserves_packets(
        sizes in proptest::collection::vec(100usize..1500, 1..100),
        rate in 500_000u64..20_000_000,
    ) {
        use converge_core::PacketClass;
        use converge_sim::payload::{NetPayload, RtpKind, SimRtp};
        use converge_sim::sender::OutboundPacket;
        use converge_sim::{Pacer, PacerConfig};
        use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

        let mut pacer = Pacer::new(PacerConfig);
        pacer.set_rate(PathId(0), rate as f64);
        let n = sizes.len();
        let packets: Vec<OutboundPacket> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| OutboundPacket {
                payload: NetPayload::Rtp(SimRtp {
                    kind: RtpKind::Media(VideoPacket {
                        stream: StreamId(0),
                        sequence: i as u64,
                        frame_id: 0,
                        gop_id: 0,
                        frame_type: FrameType::Delta,
                        kind: PacketKind::Media { index: i as u16, count: n as u16 },
                        size,
                        capture_time: SimTime::ZERO,
                    }),
                    path: PathId(0),
                    transport_seq: i as u64,
                    sent_at: SimTime::ZERO,
                }),
                path: PathId(0),
                class: PacketClass::DeltaMedia,
            })
            .collect();
        pacer.enqueue(SimTime::ZERO, packets);

        // Drain by repeatedly jumping to next_release; every packet must
        // come out exactly once, in order, within the force-flush horizon.
        let mut released = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..(n * 4 + 8) {
            released.extend(pacer.poll(now));
            if pacer.is_empty() {
                break;
            }
            now = pacer
                .next_release()
                .expect("pending packets imply a next release")
                .max(now + SimDuration::from_micros(1));
        }
        prop_assert_eq!(released.len(), n, "conservation");
        for (i, out) in released.iter().enumerate() {
            if let NetPayload::Rtp(r) = &out.payload {
                prop_assert_eq!(r.transport_seq, i as u64, "FIFO order");
            }
        }
    }
}
