//! Property tests over the core data structures and invariants of the
//! workspace.
//!
//! Each property is one `#[test]` that hands [`check`] its fixed cases
//! (pinned points: edge values, once-found counterexamples), a case count
//! and a `draw` function; `check` runs the fixed cases, then the drawn
//! ones, each from a `SmallRng` with its own seed. Every run draws the
//! same cases, so a failure reproduces on re-run, and its message names
//! the property, the case index, the seed and the input (cut to
//! [`MAX_RENDERED`] chars).
//!
//! # The paper's §4 mechanisms and the tests that pin them
//!
//! One row per mechanism: its formula, the code, and the tests that check
//! the code against the formula, each a fixed example (one hand-worked
//! input) or a drawn property (this file's `check` over drawn inputs).
//! `converge_core::…` names a unit test of that crate, `properties::…` a
//! test in this file. `ci.sh`'s `properties` gate runs every test named
//! here by its exact name, so a row cannot name a test that does not exist.
//!
//! | Mechanism | Formula | Code (`converge-core/src/`) | Fixed example | Drawn property |
//! |---|---|---|---|---|
//! | Table 2 priority order | retransmission > keyframe > SPS > PPS > FEC | `priority.rs`, `PacketClass::priority` | `converge_core::priority::tests::table2_ordering` | gap |
//! | Algorithm 1 fast path | `cpt_i = N·k/rate_i + rtt_i/2` | `fastpath.rs`, `completion_time` | `converge_core::fastpath::tests::completion_time_formula` | `properties::select_fast_path_minimizes_completion_time` checks the chosen path's `cpt`, with the goodput `rate_i·(1 − loss_i)` for `rate_i`, against the least of the usable paths |
//! | Eq. 1 split | `P_i = round(N·rate_i / Σ rate_j)` | `feedback.rs`, `PathShare::split_into` | `converge_core::feedback::tests::split_matches_eq1_example` | `properties::split_always_covers_exactly_n` checks every `P_i` of a fresh share against the formula |
//! | Eq. 2 α offset | `P_i += offset_i`, `offset_i += α` per feedback | `feedback.rs`, `PathShare::apply_feedback` | `converge_core::feedback::tests::split_applies_alpha_offset` | `properties::split_always_covers_exactly_n` draws α but checks `Σ P_i = N` only |
//! | Eq. 3 re-enable margin | re-enable when `abs(rtt_fast − rtt_i)/2 ≤ max(FCD, 5 ms)` | `feedback.rs`, `PathShare::try_reenable` | `converge_core::feedback::tests::reenable_follows_eq3` | gap |
//! | §4.3 repair count | `FEC_i = l_i·P_i·β` | `fec_controller.rs`, `ConvergeFec::repair_count` | `converge_core::fec_controller::tests::converge_fec_proportional_to_loss` | gap |
//! | §4.3 β | `β = 1 + NACK_i/(P_i − FEC_i)` | `fec_controller.rs`, `ConvergeFec::on_nack` | `converge_core::fec_controller::tests::nacks_raise_beta_then_decay` | gap |
//!
//! Gaps: no drawn property checks Table 2, Eq. 3 or either §4.3 formula,
//! and the one drawn split property checks conservation, not the per-path
//! counts, once Eq. 2's offsets apply.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use converge_core::PathShare;
use converge_net::event::EventQueue;
use converge_net::{
    BlackoutSchedule, Direction, DriveParseError, DriveSample, DriveTrace, ImpairmentConfig, Link,
    LinkConfig, LossModel, LossProcess, NetworkEmulator, Path, PathId, SimDuration, SimTime,
    Transmit,
};
use converge_rtp::{
    fec, MultipathExtension, Nack, PayloadType, Pli, QoeFeedback, ReceiverReport, ReportBlock,
    RtcpPacket, RtpPacket, Sdes, SenderReport, TransportFeedback,
};
use converge_signal::{ConnectionMonitor, PathState};
use converge_sim::payload::{RtpKind, SimRtp};
use converge_sim::wire::{decode_rtp, encode_rtp};
use converge_video::{
    CompleteFrame, FrameBuffer, FrameBufferEvent, FrameType, PacketBuffer, PacketBufferEvent,
    PacketKind, StreamId, VideoPacket,
};

// ---------- driver ----------

/// Drawn cases per property, after its fixed ones.
const CASES: u64 = 256;

/// The most chars of a failing input's `Debug` form a failure message
/// carries, so a failure on a large input stays one short line.
const MAX_RENDERED: usize = 512;

/// Checks `property` on every `fixed` input, then on `cases` inputs made
/// by `draw`, case `i` from a `SmallRng` seeded with the property's base
/// seed plus `i`. The property is the calling test, named by the thread
/// the test harness runs it on. The first failing case panics with that
/// name, the case index, the seed of a drawn case and the input.
fn check<T: Debug>(
    fixed: impl IntoIterator<Item = T>,
    cases: u64,
    draw: impl Fn(&mut SmallRng) -> T,
    property: impl Fn(&T),
) {
    let thread = std::thread::current();
    let name = thread.name().unwrap_or("property");
    let assert_holds = |case: String, input: &T| {
        let holds = catch_unwind(AssertUnwindSafe(|| property(input))).is_ok();
        assert!(holds, "`{name}` failed on {case}: {}", render(input));
    };
    for (i, input) in fixed.into_iter().enumerate() {
        assert_holds(format!("fixed case {i}"), &input);
    }
    let base = base_seed(name);
    for i in 0..cases {
        let seed = base.wrapping_add(i);
        let input = draw(&mut SmallRng::seed_from_u64(seed));
        assert_holds(format!("drawn case {i} (seed {seed:#x})"), &input);
    }
}

/// FNV-1a of the property's name: each property draws its own sequence.
fn base_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// `input`'s `Debug` form, cut after [`MAX_RENDERED`] chars and then
/// followed by its full length.
fn render(input: &impl Debug) -> String {
    let full = format!("{input:?}");
    let chars = full.chars().count();
    if chars <= MAX_RENDERED {
        return full;
    }
    let cut: String = full.chars().take(MAX_RENDERED).collect();
    format!("{cut}… ({chars} chars in full)")
}

/// A failure on a 2 100-element input names the property, the case and
/// its seed in a message under 1 KiB.
#[test]
fn check_cuts_a_large_failing_input() {
    let name = "check_cuts_a_large_failing_input";
    let failure = catch_unwind(|| {
        check(
            [],
            1,
            |_| (0..2_100u64).collect::<Vec<_>>(),
            |ids| assert!(ids.len() < 2_100),
        )
    });
    let message = *failure
        .expect_err("the property fails")
        .downcast::<String>()
        .expect("a formatted message");
    let case = format!("drawn case 0 (seed {:#x})", base_seed(name));
    assert!(message.starts_with(&format!("`{name}` failed on {case}: [0, 1, 2,")));
    assert!(message.ends_with(" chars in full)"), "{message}");
    assert!(message.len() < 1_024, "{} bytes", message.len());
}

/// A vector of `len` elements made by `element`.
fn vec_of<T>(
    rng: &mut SmallRng,
    len: std::ops::Range<usize>,
    mut element: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| element(rng)).collect()
}

fn bytes(rng: &mut SmallRng, len: std::ops::Range<usize>) -> Vec<u8> {
    vec_of(rng, len, |r| r.gen())
}

/// Media packet `index` of `count` in delta frame `frame_id` of stream 0.
fn media(sequence: u64, frame_id: u64, index: u16, count: u16, size: usize) -> VideoPacket {
    VideoPacket {
        stream: StreamId(0),
        sequence,
        frame_id,
        gop_id: 0,
        frame_type: FrameType::Delta,
        kind: PacketKind::Media { index, count },
        size,
        capture_time: SimTime::ZERO,
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

// ---------- wire formats and FEC ----------

#[test]
fn rtp_roundtrips_any_fields() {
    use PayloadType::*;
    let draw = |r: &mut SmallRng| RtpPacket {
        marker: r.gen(),
        payload_type: [Video, Fec, Retransmission, Probe][r.gen_range(0..4)],
        sequence: r.gen(),
        timestamp: r.gen(),
        ssrc: r.gen(),
        extension: r.gen::<bool>().then(|| MultipathExtension {
            path_id: r.gen(),
            mp_sequence: r.gen(),
            mp_transport_sequence: r.gen(),
        }),
        payload: Bytes::from(bytes(r, 0..1500)),
    };
    check([], CASES, draw, |p| {
        assert_eq!(&RtpPacket::parse(p.serialize()).expect("roundtrip"), p);
    });
}

/// One valid wire input of each kind: RTP media and FEC repair packets
/// with the multipath extension, a packet of each of the seven RTCP
/// kinds.
fn valid_wire_inputs() -> Vec<Vec<u8>> {
    let media = media(70_123, 9, 3, 7, 1_200);
    let fec = RtpKind::Fec {
        stream: StreamId(0),
        protected: vec![media; 3],
        origin_path: PathId(2),
    };
    let rtp = [RtpKind::Media(media), fec].map(|kind| {
        let sent_at = SimTime::ZERO;
        let wire = encode_rtp(&SimRtp {
            kind,
            path: PathId(2),
            transport_seq: 1_007,
            sent_at,
        });
        decode_rtp(wire.clone(), sent_at).expect("valid RTP");
        wire
    });
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
        RtcpPacket::Pli(Pli {
            path_id: 3,
            ssrc: 0x5555,
        }),
        RtcpPacket::TransportFeedback(TransportFeedback {
            path_id: 1,
            ssrc: 0x6666,
            arrivals: vec![(1, 1_000), (2, 2_500)],
        }),
        RtcpPacket::QoeFeedback(QoeFeedback {
            path_id: 2,
            ssrc: 0x7777,
            alpha: -5,
            fcd_micros: 45_000,
        }),
    ]
    .map(|p| {
        let wire = p.serialize();
        assert_eq!(RtcpPacket::parse(wire.clone()), Ok(p));
        wire
    });
    rtp.into_iter().chain(rtcp).map(|b| b.to_vec()).collect()
}

/// The length and count fields of a valid wire input, as `(offset, bits)`:
/// a big-endian field of 8, 16 or 32 bits at `offset`, or the low 4 or 5
/// bits of byte `offset`. Every RTCP kind has its header's length word;
/// the RR, SDES, NACK and transport-feedback packets their header count,
/// SDES its CNAME item's length and transport feedback its arrival count.
/// RTP has its CSRC count and its header extension's length word, and an
/// FEC packet its protected count after the 12-byte header and 12-byte
/// extension.
fn length_fields(wire: &[u8]) -> Vec<(usize, u32)> {
    let bytes = Bytes::from(wire.to_vec());
    if let Ok(rtcp) = RtcpPacket::parse(bytes.clone()) {
        let mut fields = vec![(2, 16)];
        match rtcp {
            RtcpPacket::ReceiverReport(_) | RtcpPacket::Nack(_) => fields.push((0, 5)),
            RtcpPacket::Sdes(_) => fields.extend([(0, 5), (9, 8)]),
            RtcpPacket::TransportFeedback(_) => fields.extend([(0, 5), (12, 32)]),
            _ => {}
        }
        return fields;
    }
    match decode_rtp(bytes, SimTime::ZERO).map(|rtp| rtp.kind) {
        Ok(RtpKind::Fec { .. }) => vec![(0, 4), (14, 16), (24, 16)],
        Ok(_) => vec![(0, 4), (14, 16)],
        Err(_) => Vec::new(),
    }
}

/// `wire` with the field at `(at, bits)` (see [`length_fields`]) set to
/// 0, 1, its true value − 1, its true value + 1 and its type's maximum.
fn length_field_mutants(wire: &[u8], at: usize, bits: u32) -> [Vec<u8>; 5] {
    let max = u32::MAX >> (32 - bits);
    let width = bits.div_ceil(8) as usize;
    let old = wire[at..at + width]
        .iter()
        .fold(0u32, |v, &b| (v << 8) | u32::from(b));
    let truth = old & max;
    [0, 1, truth.saturating_sub(1), (truth + 1).min(max), max].map(|value| {
        let mut wire = wire.to_vec();
        let new = ((old & !max) | value).to_be_bytes();
        wire[at..at + width].copy_from_slice(&new[4 - width..]);
        wire
    })
}

/// No byte string panics a wire parser, and whatever one accepts
/// re-serializes: noise, and every strict prefix, single bit flip and byte
/// overwrite of a valid input, and each length or count field of one set
/// to 0, 1, its true value ± 1 and its maximum. Every input goes through
/// all three parsers, so each also sees the others' formats.
#[test]
fn wire_parsers_never_panic() {
    let valid = valid_wire_inputs();
    let fields: Vec<(&Vec<u8>, (usize, u32))> = valid
        .iter()
        .flat_map(|wire| length_fields(wire).into_iter().map(move |f| (wire, f)))
        .collect();
    // 2 + 3 RTP fields, 7 RTCP length words and 6 RTCP counts.
    assert_eq!(fields.len(), 18);
    let lengths = fields
        .iter()
        .flat_map(|&(wire, (at, bits))| length_field_mutants(wire, at, bits));
    let prefixes = valid
        .iter()
        .flat_map(|b| (0..b.len()).map(|cut| b[..cut].to_vec()));
    let flips = valid.iter().flat_map(|b| {
        (0..b.len() * 8).map(|bit| {
            let mut b = b.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        })
    });
    let draw = |r: &mut SmallRng| {
        if r.gen() {
            return bytes(r, 0..200);
        }
        let mut b = valid[r.gen_range(0..valid.len())].clone();
        for _ in 0..r.gen_range(1..=4) {
            let at = r.gen_range(0..b.len());
            b[at] = r.gen();
        }
        b
    };
    check(lengths.chain(prefixes).chain(flips), CASES, draw, |data| {
        let wire = Bytes::from(data.clone());
        if let Ok(p) = RtpPacket::parse(wire.clone()) {
            p.serialize();
        }
        if let Ok(rtp) = decode_rtp(wire.clone(), SimTime::ZERO) {
            encode_rtp(&rtp);
        }
        if let Ok(p) = RtcpPacket::parse(wire) {
            p.serialize();
        }
    });
}

#[test]
fn fec_recovers_any_single_loss() {
    let draw = |r: &mut SmallRng| {
        let sizes = vec_of(r, 1..12, |r| r.gen_range(1usize..1400));
        let missing = r.gen_range(0..sizes.len());
        (sizes, missing, r.gen::<u64>())
    };
    check([], CASES, draw, |&(ref sizes, missing, seed)| {
        let packets: Vec<(u16, Bytes)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let body: Vec<u8> = (0..len)
                    .map(|j| ((seed as usize + i * 31 + j * 7) % 256) as u8)
                    .collect();
                (i as u16, Bytes::from(body))
            })
            .collect();
        let group = fec::encode_one(&packets);
        let mut received = packets.clone();
        received.remove(missing);
        let (seq, payload) = fec::recover(&group, &received).expect("single loss recoverable");
        assert_eq!(seq, packets[missing].0);
        assert_eq!(payload, packets[missing].1);
    });
}

/// The groups the sender protects a path's media in cover every packet
/// once, in order, and their sizes differ by at most one, larger first.
#[test]
fn fec_groups_partition_packets() {
    let draw = |r: &mut SmallRng| (r.gen_range(1usize..60), r.gen_range(1usize..12));
    check([], CASES, draw, |&(n, repair)| {
        let groups: Vec<_> = fec::group_ranges(n, repair).collect();
        assert_eq!(groups.len(), repair.min(n));
        let covered: Vec<usize> = groups.iter().cloned().flatten().collect();
        assert_eq!(covered, (0..n).collect::<Vec<_>>());
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        assert!(sizes[0] - sizes[sizes.len() - 1] <= 1, "{sizes:?}");
    });
}

// ---------- event queue & link ----------

#[test]
fn event_queue_pops_sorted() {
    let draw = |r: &mut SmallRng| vec_of(r, 1..200, |r| r.gen_range(0u64..100_000));
    check([], CASES, draw, |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
    });
}

/// A lossless link at `rate_bps` with a queue deep enough never to drop.
fn deep_link(rate_bps: u64, owd_ms: u64) -> LinkConfig {
    LinkConfig {
        trace: DriveTrace::constant(rate_bps, SimDuration::from_millis(owd_ms)),
        queue_capacity_bytes: usize::MAX / 2,
        ..LinkConfig::default()
    }
}

/// On an idle constant-rate link a larger packet never arrives before a
/// smaller one would have.
#[test]
fn serialization_delay_monotone_in_size() {
    let draw = |r: &mut SmallRng| {
        let size = |r: &mut SmallRng| r.gen_range(1usize..10_000);
        (size(r), size(r), r.gen_range(1u64..1_000_000_000))
    };
    check([], CASES, draw, |&(a, b, rate)| {
        let arrival = |bytes| {
            let mut link = Link::new(deep_link(rate, 10));
            let Transmit::Delivered(at) = link.offer(SimTime::ZERO, bytes).fate else {
                panic!("an idle link with a deep queue delivers");
            };
            at
        };
        assert!(arrival(a.min(b)) <= arrival(a.max(b)));
    });
}

#[test]
fn link_deliveries_are_fifo() {
    let draw = |r: &mut SmallRng| {
        let sizes = vec_of(r, 1..100, |r| r.gen_range(1usize..1500));
        (sizes, r.gen_range(0u64..5_000))
    };
    check([], CASES, draw, |&(ref sizes, gap_us)| {
        let mut link = Link::new(deep_link(5_000_000, 10));
        let mut last_delivery = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * gap_us);
            match link.offer(now, size).fate {
                Transmit::Delivered(at) => {
                    assert!(at >= last_delivery, "reordered delivery");
                    assert!(at >= now, "delivery before send");
                    last_delivery = at;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    });
}

// ---------- impairment layer ----------

/// Single-path emulator whose forward link carries `impairment` and is
/// otherwise lossless with a deep queue, so every observed anomaly is the
/// impairment's doing.
fn impaired_emulator(seed: u64, impairment: ImpairmentConfig) -> NetworkEmulator<usize> {
    let mut cfg = deep_link(100_000_000, 25);
    (cfg.seed, cfg.impairment) = (seed, impairment);
    NetworkEmulator::new(vec![Path::new(PathId(0), cfg.clone(), cfg)])
}

/// Sends payloads `0..n`, one a millisecond, asserting the link takes
/// each, and returns every payload delivered within the hour.
fn send_all(emu: &mut NetworkEmulator<usize>, n: usize) -> Vec<usize> {
    for i in 0..n {
        let at = SimTime::from_millis(i as u64);
        let (outcome, _) = emu.send(PathId(0), Direction::Forward, at, 500, i);
        assert!(!outcome.is_lost(), "send {i}");
    }
    let mut delivered = Vec::new();
    emu.poll_into(SimTime::from_secs(3_600), &mut delivered);
    delivered.into_iter().map(|d| d.payload).collect()
}

/// Reordering shifts delivery times but never loses, duplicates, or
/// corrupts: the delivered payload multiset equals the sent multiset.
#[test]
fn reorder_preserves_delivered_payload_multiset() {
    let fixed = [1u64, 42, 0xDEAD_BEEF]
        .into_iter()
        .flat_map(|seed| [0.05, 0.5, 1.0].map(|prob| (150usize, prob, 40u64, seed)));
    let draw = |r: &mut SmallRng| {
        let (n, prob) = (r.gen_range(1usize..200), r.gen_range(0.0f64..=1.0));
        (n, prob, r.gen_range(1u64..200), r.gen())
    };
    check(fixed, CASES, draw, |&(n, prob, horizon_ms, seed)| {
        let horizon = SimDuration::from_millis(horizon_ms);
        let mut emu = impaired_emulator(seed, ImpairmentConfig::reordering(prob, horizon));
        let mut delivered = send_all(&mut emu, n);
        delivered.sort_unstable();
        assert_eq!(delivered, (0..n).collect::<Vec<_>>());
        assert!(emu.idle());
    });
}

/// Duplication delivers every original exactly once plus a copy count
/// that tracks the configured probability: six standard deviations of
/// Binomial(2000, p) stays under 0.07·n for any p, so a 0.1·n tolerance
/// never flakes. A quarter of [`CASES`]: each case sends 2 000 packets.
#[test]
fn duplication_count_matches_rate() {
    const N: usize = 2_000;
    let fixed = [3u64, 11, 42]
        .into_iter()
        .flat_map(|seed| [0.25, 0.5, 0.75].map(|prob| (prob, seed)));
    let draw = |r: &mut SmallRng| (r.gen_range(0.2f64..0.8), r.gen::<u64>());
    check(fixed, CASES / 4, draw, |&(prob, seed)| {
        let spread = SimDuration::from_millis(2);
        let mut emu = impaired_emulator(seed, ImpairmentConfig::duplication(prob, spread));
        let delivered = send_all(&mut emu, N);
        let uniques: BTreeSet<usize> = delivered.iter().copied().collect();
        assert_eq!(uniques.len(), N, "every original arrives exactly once");
        let copies = delivered.len() - N;
        let expected = N as f64 * prob;
        assert!(
            (copies as f64 - expected).abs() < N as f64 * 0.1,
            "copies {copies} vs expected {expected:.0}"
        );
    });
}

/// A blacked-out link accepts nothing: every send inside the window
/// reports `Blackout`, hands the payload back, and delivers zero packets
/// — the queue stays untouched.
#[test]
fn blackout_window_delivers_exactly_nothing() {
    let fixed = [7u64, 19, 101]
        .into_iter()
        .flat_map(|seed| [1u64, 500, 9_999].map(|off_ms| (60usize, off_ms, seed)));
    let draw = |r: &mut SmallRng| (r.gen_range(1usize..100), r.gen_range(1u64..10_000), r.gen());
    check(fixed, CASES, draw, |&(n, off_ms, seed)| {
        let window = BlackoutSchedule::single(SimTime::ZERO, SimDuration::from_millis(off_ms));
        let mut emu = impaired_emulator(seed, ImpairmentConfig::blackout(window));
        for i in 0..n {
            // Spread sends across the whole window, strictly inside it.
            let at = SimTime::from_micros(off_ms * 1_000 * i as u64 / n as u64);
            let (outcome, returned) = emu.send(PathId(0), Direction::Forward, at, 500, i);
            assert_eq!(outcome, Transmit::Blackout, "send {i}");
            assert_eq!(returned, Some(i), "payload handed back");
        }
        assert!(emu.pop_due(SimTime::from_secs(3_600)).is_none());
        assert!(emu.idle());
    });
}

// ---------- Gilbert–Elliott loss statistics ----------

/// `LossModel::mean_loss()` (the closed-form stationary loss rate)
/// matches the empirical drop frequency of the sampled chain. The
/// parameter ranges keep the chain fast-mixing so 400k draws concentrate
/// well inside the 0.03 tolerance (~6σ). Fixed cases: a slow, a balanced
/// and a fast-flipping chain, and the paper-shaped `bursty_percent`
/// presets (good state lossless, bursty bad state). Few drawn cases: each
/// one draws 400k samples.
#[test]
fn gilbert_elliott_mean_loss_matches_empirical_frequency() {
    let chain = |p_gb, p_bg, loss_good, loss_bad| LossModel::GilbertElliott {
        p_gb,
        p_bg,
        loss_good,
        loss_bad,
    };
    let fixed = [
        (chain(0.05, 0.5, 0.0, 0.6), 11),
        (chain(0.3, 0.3, 0.1, 0.9), 42),
        (chain(0.85, 0.85, 0.15, 0.35), 77),
    ]
    .into_iter()
    .chain([1.0, 4.0, 10.0].map(|pct| (LossModel::bursty_percent(pct), 7)));
    let draw = |r: &mut SmallRng| {
        let (p_gb, p_bg) = (r.gen_range(0.05f64..0.9), r.gen_range(0.05f64..0.9));
        let (good, bad) = (r.gen_range(0.0f64..0.2), r.gen_range(0.3f64..1.0));
        (chain(p_gb, p_bg, good, bad), r.gen::<u64>())
    };
    check(fixed, 16, draw, |(model, seed)| {
        let mut process = LossProcess::new(model.clone());
        let mut rng = SmallRng::seed_from_u64(*seed);
        // Burn-in past the initial good state, then count.
        for _ in 0..10_000 {
            process.should_drop(&mut rng);
        }
        const DRAWS: usize = 400_000;
        let drops = (0..DRAWS).filter(|_| process.should_drop(&mut rng)).count();
        let empirical = drops as f64 / DRAWS as f64;
        let analytic = model.mean_loss();
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical:.4} vs analytic {analytic:.4}"
        );
    });
}

// ---------- link and drive traces ----------

#[test]
fn trace_rate_at_always_within_segment_values() {
    let draw = |r: &mut SmallRng| {
        let rates = vec_of(r, 1..50, |r| r.gen_range(0u64..100_000_000));
        (rates, r.gen_range(0u64..1_000_000_000))
    };
    check([], CASES, draw, |&(ref rates, at_us)| {
        let step = SimDuration::from_millis(500);
        let t = DriveTrace::uniform(step, rates.clone(), SimDuration::ZERO);
        assert!(rates.contains(&t.rate_at(SimTime::from_micros(at_us))));
    });
}

/// Zero-rate segments are legal (a blackout expressed as bandwidth) and
/// must be reported verbatim, not clamped or skipped.
#[test]
fn rate_trace_zero_rate_segments_are_reported_verbatim() {
    let t = DriveTrace::uniform(
        SimDuration::from_millis(500),
        [0, 5_000_000],
        SimDuration::ZERO,
    );
    assert_eq!(t.rate_at(SimTime::ZERO), 0);
    assert_eq!(t.rate_at(SimTime::from_millis(499)), 0);
    assert_eq!(t.rate_at(SimTime::from_millis(500)), 5_000_000);
    assert_eq!(t.mean_rate(), 2_500_000);
    let back = DriveTrace::parse_jsonl(&t.to_jsonl(0)).expect("roundtrip");
    assert_eq!(back[0].samples()[0].rate_bps, 0);
}

/// The row sets every drive property checks first. A row is
/// `(gap_ms, rate_bps, owd_ms, loss_milli_pct)`: times strictly increase
/// via positive gaps, and milli-units survive the JSONL decimal
/// formatting exactly, so the round-trip property can demand equality
/// rather than tolerance.
const DRIVE_ROWS: [&[(u64, u64, u64, u64)]; 4] = [
    // Single row: degenerate trace, zero loss.
    &[(5, 1_000_000, 40, 0)],
    // Coverage gap: healthy → dead (zero rate, lossy) → healthy.
    &[
        (1_000, 20_000_000, 35, 500),
        (9_000, 0, 120, 5_000),
        (8_000, 25_000_000, 30, 0),
    ],
    // Millisecond-scale gaps and fractional loss needing all three
    // formatted decimals.
    &[
        (1, 1, 1, 1),
        (1, 2, 2, 12),
        (1, 3, 3, 123),
        (2, 4, 0, 99_999),
    ],
    // A longer walk with repeated values (plateaus are legal; only
    // *time* must move).
    &[
        (500, 8_000_000, 60, 250),
        (500, 8_000_000, 60, 250),
        (500, 9_500_000, 55, 0),
        (1_500, 9_500_000, 70, 0),
        (250, 500_000, 90, 10_000),
    ],
];

fn draw_drive_rows(r: &mut SmallRng) -> Vec<(u64, u64, u64, u64)> {
    vec_of(r, 1..40, |r| {
        let mut below = |end: u64| r.gen_range(0..end);
        let (gap_ms, rate_bps) = (1 + below(59_999), below(100_000_000));
        (gap_ms, rate_bps, below(2_000), below(100_000))
    })
}

fn drive_from_milli(rows: &[(u64, u64, u64, u64)]) -> DriveTrace {
    let mut t_ms = 0u64;
    let samples = rows
        .iter()
        .map(|&(gap_ms, rate_bps, owd_ms, loss_milli_pct)| {
            t_ms += gap_ms;
            DriveSample {
                at: SimTime::from_millis(t_ms),
                rate_bps,
                owd: SimDuration::from_millis(owd_ms),
                loss_pct: loss_milli_pct as f64 / 1000.0,
            }
        })
        .collect();
    DriveTrace::new(samples).expect("milli-unit rows are valid")
}

/// One document holding several traces, trace `i` written at path `i`,
/// reads back as those traces in path order. (The name dates from the
/// single-path CSV format this round trip used to cover.) Fixed cases:
/// the first `n` row sets, for each `n`.
#[test]
fn drive_csv_roundtrips() {
    let fixed =
        (1..=DRIVE_ROWS.len()).map(|n| DRIVE_ROWS[..n].iter().map(|rows| rows.to_vec()).collect());
    let draw = |r: &mut SmallRng| vec_of(r, 1..4, draw_drive_rows);
    check(fixed, CASES, draw, |sets: &Vec<Vec<_>>| {
        let traces: Vec<DriveTrace> = sets.iter().map(|rows| drive_from_milli(rows)).collect();
        let text: String = (0u8..).zip(&traces).map(|(p, t)| t.to_jsonl(p)).collect();
        assert_eq!(
            DriveTrace::parse_jsonl(&text).expect("multi-path roundtrip"),
            traces
        );
    });
}

/// Fixed cases: each row set at path 0 and at path `i`, its index.
#[test]
fn drive_jsonl_roundtrips() {
    let fixed = (0u8..)
        .zip(DRIVE_ROWS)
        .flat_map(|(i, rows)| [0, i].map(|p| (rows.to_vec(), p)));
    let draw = |r: &mut SmallRng| (draw_drive_rows(r), r.gen::<u8>());
    check(fixed, CASES, draw, |&(ref rows, path)| {
        let t = drive_from_milli(rows);
        // Path IDs must be contiguous from 0, so a single-trace document
        // only parses when its rows carry path 0; any other ID is a
        // missing-path error, not a silent renumbering.
        match DriveTrace::parse_jsonl(&t.to_jsonl(path)) {
            Ok(back) => {
                assert_eq!(path, 0, "non-zero path must not parse as a lone trace");
                assert_eq!(back, vec![t]);
            }
            Err(err) => {
                assert_ne!(path, 0, "path-0 document must roundtrip: {err:?}");
                assert!(matches!(err, DriveParseError::MissingPath(0)), "{err:?}");
            }
        }
    });
}

/// Fixed cases: row set `i` duplicates its sample `i` (its last, if it
/// has fewer).
#[test]
fn drive_rejects_non_monotone_time() {
    let fixed = (0usize..)
        .zip(DRIVE_ROWS)
        .map(|(i, rows)| (rows.to_vec(), i));
    let draw = |r: &mut SmallRng| (draw_drive_rows(r), r.gen::<usize>());
    check(fixed, CASES, draw, |&(ref rows, dup_at)| {
        let mut samples = drive_from_milli(rows).samples().to_vec();
        let dup = samples[dup_at.min(samples.len() - 1)];
        samples.push(dup); // time now revisits an earlier stamp
        samples.sort_by_key(|s| s.at);
        let err = DriveTrace::new(samples).expect_err("duplicate timestamp must be rejected");
        assert!(
            matches!(err, DriveParseError::NonMonotoneTime(_)),
            "{err:?}"
        );
    });
}

#[test]
fn drive_holds_across_boundaries() {
    let fixed = DRIVE_ROWS.map(<[_]>::to_vec);
    check(fixed, CASES, draw_drive_rows, |rows| {
        let t = drive_from_milli(rows);
        let samples = t.samples();
        // Before the first sample: the first sample's values hold.
        assert_eq!(t.sample_at(SimTime::ZERO), &samples[0]);
        for (i, s) in samples.iter().enumerate() {
            // Exactly at a boundary the new sample takes effect…
            assert_eq!(t.sample_at(s.at), s, "boundary {i}");
            // …and one microsecond earlier the previous one still holds.
            if i > 0 {
                let just_before = SimTime::from_micros(s.at.as_micros() - 1);
                assert_eq!(
                    t.sample_at(just_before),
                    &samples[i - 1],
                    "pre-boundary {i}"
                );
            }
        }
        // Past the end the last sample holds forever: no wrap.
        let far = SimTime::from_micros(t.end().as_micros() + 86_400_000_000);
        assert_eq!(t.sample_at(far), samples.last().unwrap());
        assert_eq!(t.until_next_change(far), None);
    });
}

// ---------- fast path (Algorithm 1) ----------

/// Algorithm 1, line 9: of the usable paths (enabled, with positive
/// goodput), the fast path has the least completion time
/// `N·k·8 / (rate·(1 − loss)) + srtt/2`, and there is none when no path is
/// usable. Input: `N` and the paths.
#[test]
fn select_fast_path_minimizes_completion_time() {
    use converge_core::{select_fast_path, PathMetrics};
    const K: usize = 1_250;
    let path = |id, rate_bps, srtt_ms, loss, enabled| PathMetrics {
        id: PathId(id),
        rate_bps,
        srtt: SimDuration::from_millis(srtt_ms),
        loss,
        enabled,
    };
    // No usable path (zero rate, total loss, disabled); a fat lossy path
    // that wins on its rate and loses on its goodput; an empty batch.
    let fixed = [
        (
            40,
            vec![
                path(0, 0, 20, 0.0, true),
                path(1, 10_000_000, 20, 1.0, true),
                path(2, 10_000_000, 20, 0.0, false),
            ],
        ),
        (
            100,
            vec![
                path(0, 20_000_000, 30, 0.6, true),
                path(1, 10_000_000, 30, 0.0, true),
            ],
        ),
        (0, vec![path(0, 5_000_000, 80, 0.2, true)]),
    ];
    let draw = |r: &mut SmallRng| {
        let n = r.gen_range(0usize..=200);
        let paths = vec_of(r, 1..9, |r| {
            let rate_bps = r.gen_range(0..=30_000_000);
            (
                rate_bps,
                r.gen_range(1..=400),
                r.gen_range(0.0..=1.0),
                r.gen(),
            )
        });
        let paths = (0u8..)
            .zip(paths)
            .map(|(id, (rate, srtt, loss, enabled))| path(id, rate, srtt, loss, enabled))
            .collect::<Vec<_>>();
        (n, paths)
    };
    check(fixed, CASES, draw, |(n, paths)| {
        let cpt = |p: &PathMetrics| {
            let goodput = p.rate_bps as f64 * (1.0 - p.loss);
            let usable = p.enabled && goodput > 0.0;
            usable.then(|| (n * K * 8) as f64 / goodput + p.srtt.as_secs_f64() / 2.0)
        };
        let least = paths.iter().filter_map(cpt).min_by(f64::total_cmp);
        let chosen = select_fast_path(paths, *n, K);
        match (chosen, least) {
            (None, None) => {}
            (Some(id), Some(least)) => {
                let got = paths.iter().find(|p| p.id == id).and_then(cpt);
                let got = got.unwrap_or_else(|| panic!("chose unusable {id}"));
                assert!((got - least).abs() <= 1e-9 * least, "cpt {got} > {least}");
            }
            _ => panic!("chose {chosen:?}, least cpt {least:?}"),
        }
    });
}

// ---------- path share (Eq. 1 + Eq. 2) ----------

/// Eq. 1 on uncapped paths with no offsets: `round(N·rate_i / Σ rate_j)`
/// each (halves away from zero), then a rounding deficit goes entirely to
/// the fastest path and an excess is taken one packet at a time from the
/// slowest paths, ties ordered by path index. `N = 0` is one
/// `(first path, 0)` entry.
fn eq1_split(n: usize, rates: &[u64]) -> Vec<(PathId, usize)> {
    if n == 0 {
        return vec![(PathId(0), 0)];
    }
    let total: u128 = rates.iter().map(|&r| u128::from(r)).sum();
    let mut counts: Vec<usize> = rates
        .iter()
        .map(|&r| ((2 * n as u128 * u128::from(r) + total) / (2 * total)) as usize)
        .collect();
    let mut fastest_first: Vec<usize> = (0..rates.len()).collect();
    fastest_first.sort_by_key(|&i| std::cmp::Reverse(rates[i]));
    let assigned: usize = counts.iter().sum();
    counts[fastest_first[0]] += n.saturating_sub(assigned);
    let mut excess = assigned.saturating_sub(n);
    while excess > 0 {
        for &i in fastest_first.iter().rev() {
            if excess > 0 && counts[i] > 0 {
                counts[i] -= 1;
                excess -= 1;
            }
        }
    }
    (0u8..).map(PathId).zip(counts).collect()
}

/// A fresh share splits by Eq. 1 exactly; after drawn α offsets (Eq. 2)
/// the split still covers exactly `N`.
#[test]
fn split_always_covers_exactly_n() {
    use converge_core::PathMetrics;
    // The paper's 15:5 example, a half-way tie, an empty batch.
    let fixed = [
        (40, vec![15_000_000, 5_000_000], vec![]),
        (3, vec![1_000_000, 1_000_000], vec![]),
        (0, vec![2_000_000, 7_000_000, 1_000_000], vec![-5]),
    ];
    let draw = |r: &mut SmallRng| {
        let n = r.gen_range(0usize..200);
        let rates = vec_of(r, 1..5, |r| r.gen_range(1u64..50_000_000));
        (n, rates, vec_of(r, 0..10, |r| r.gen_range(-40i32..40)))
    };
    check(fixed, CASES, draw, |&(n, ref rates, ref alphas)| {
        let rtt = SimDuration::from_millis(50);
        let paths: Vec<PathMetrics> = (0u8..)
            .zip(rates)
            .map(|(i, &rate)| PathMetrics::new(PathId(i), rate, rtt, 0.0))
            .collect();
        let mut share = PathShare::new();
        let mut counts = Vec::new();
        share.split_into(n, &paths, &[], &mut counts);
        assert_eq!(counts, eq1_split(n, rates), "Eq. 1");
        for (i, &a) in alphas.iter().enumerate() {
            share.apply_feedback(PathId((i % rates.len()) as u8), a);
        }
        share.split_into(n, &paths, &[], &mut counts);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), n);
    });
}

// ---------- receiver buffers ----------

/// The packets of keyframe 0: a PPS and `count` media packets.
fn keyframe_packets(count: u16) -> Vec<VideoPacket> {
    let mut pps = media(0, 0, 0, 0, 64);
    pps.kind = PacketKind::Pps;
    let slices = (0..count).map(|i| media(1 + i as u64, 0, i, count, 1200));
    let mut packets: Vec<VideoPacket> = [pps].into_iter().chain(slices).collect();
    packets
        .iter_mut()
        .for_each(|p| p.frame_type = FrameType::Key);
    packets
}

/// Input: the frame's packets in arrival order.
#[test]
fn packet_buffer_completes_frames_in_any_arrival_order() {
    let draw = |r: &mut SmallRng| {
        let mut pkts = keyframe_packets(r.gen_range(1u16..20));
        shuffle(r, &mut pkts);
        pkts
    };
    check([], CASES, draw, |pkts| {
        let slices = pkts.len() - 1;
        let mut buf = PacketBuffer::new(1024);
        let mut complete = 0;
        for (i, p) in pkts.iter().enumerate() {
            for ev in buf.insert(SimTime::from_micros(i as u64), p) {
                if let PacketBufferEvent::FrameComplete(f) = ev {
                    complete += 1;
                    assert_eq!(f.size, slices * 1200);
                }
            }
        }
        assert_eq!(complete, 1, "exactly one completion");
        assert!(buf.is_empty());
    });
}

#[test]
fn packet_buffer_never_exceeds_capacity() {
    let draw = |r: &mut SmallRng| {
        let cap = r.gen_range(4usize..64);
        let insert = |r: &mut SmallRng| (r.gen_range(0u64..30), r.gen_range(0u16..6));
        (cap, vec_of(r, 1..300, insert))
    };
    check([], CASES, draw, |&(cap, ref inserts)| {
        let mut buf = PacketBuffer::new(cap);
        for (i, &(frame_id, index)) in inserts.iter().enumerate() {
            // count high enough that frames rarely complete.
            let p = media(i as u64, frame_id, index, 6, 1200);
            buf.insert(SimTime::from_micros(i as u64), &p);
            assert!(buf.len() <= cap, "len {} > cap {cap}", buf.len());
        }
    });
}

/// Input: frame ids, finished in this order. Out of order, repeated, with
/// jumps past the 1 024 ids a buffer remembers and steps back below them.
/// Model: a `BTreeSet` of every id finished, capped at 1 024 by dropping
/// its smallest, which is what a buffer must call finished.
#[test]
fn packet_buffer_remembers_the_1024_newest_finished_frames() {
    const CAP: usize = 1024;
    let dense: Vec<u64> = (0..2_100).collect();
    let falling: Vec<u64> = (0..2_100).rev().collect();
    let gapped: Vec<u64> = (0..1_500).chain(2_600..2_700).chain(900..1_000).collect();
    let draw = |r: &mut SmallRng| {
        let mut id = r.gen_range(0..5_000u64);
        vec_of(r, 1..3_000, |r| {
            match r.gen_range(0..32) {
                0 => id += r.gen_range(CAP as u64..100_000),
                1..=6 => return id.saturating_sub(r.gen_range(0..2_000)),
                _ => id += r.gen_range(1..3),
            }
            id
        })
    };
    check([dense, falling, gapped], CASES / 4, draw, |ids| {
        let mut buf = PacketBuffer::new(16);
        let mut model = BTreeSet::new();
        for (i, &id) in ids.iter().enumerate() {
            // A one-slice frame: its PPS, then its only media packet. A
            // frame still remembered as finished takes neither.
            let mut pps = media(2 * i as u64, id, 0, 0, 64);
            pps.kind = PacketKind::Pps;
            let slice = media(2 * i as u64 + 1, id, 0, 1, 1200);
            for p in [pps, slice] {
                buf.insert(SimTime::from_micros(i as u64), &p);
            }
            model.insert(id);
            if model.len() > CAP {
                model.pop_first();
            }
            let (low, high) = (model.first().copied(), model.last().copied());
            let (low, high) = (low.expect("one id"), high.expect("one id"));
            let probes = [id, id + 1, low, low.saturating_sub(1), high, high + 1];
            for probe in probes.into_iter().chain(ids.get(i / 2).copied()) {
                assert_eq!(
                    buf.is_finished(probe),
                    model.contains(&probe),
                    "frame {probe} after step {i}"
                );
            }
        }
    });
}

/// Feeds frames `0..arrival_order.len()` (frame 0 the keyframe) to a
/// frame buffer in `arrival_order`; returns the decoded frame ids.
fn decode_order(arrival_order: &[u64]) -> Vec<u64> {
    let mut fb = FrameBuffer::new(64);
    fb.sps_received(0);
    let mut decoded = Vec::new();
    for (step, &frame_id) in (0u64..).zip(arrival_order) {
        let frame = CompleteFrame {
            stream: StreamId(0),
            frame_id,
            gop_id: 0,
            frame_type: if frame_id == 0 {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            size: 1000,
            capture_time: SimTime::from_millis(frame_id * 33),
            first_arrival: SimTime::from_millis(step),
            completed_at: SimTime::from_millis(step),
        };
        for ev in fb.insert(SimTime::from_millis(step), frame) {
            if let FrameBufferEvent::Decoded { frame, .. } = ev {
                decoded.push(frame.frame_id);
            }
        }
    }
    decoded
}

/// Input: the frames' arrival order.
#[test]
fn frame_buffer_decodes_in_strictly_increasing_order() {
    let draw = |r: &mut SmallRng| {
        let mut ids: Vec<u64> = (0..r.gen_range(2u64..30)).collect();
        shuffle(r, &mut ids);
        ids
    };
    check([], CASES, draw, |ids| {
        let decoded = decode_order(ids);
        // The decode sequence is strictly increasing (never replays or
        // reorders) regardless of arrival order.
        for w in decoded.windows(2) {
            assert!(w[0] < w[1], "decode order violated: {decoded:?}");
        }
        // If the keyframe arrived before any delta, the whole chain must
        // decode; otherwise the buffer abandons the pre-keyframe chain and
        // asks the sender for a fresh keyframe (tested in unit tests).
        if ids[0] == 0 {
            assert_eq!(decoded, (0..ids.len() as u64).collect::<Vec<_>>());
        }
    });
}

/// A once-found counterexample to the property above, shrunk:
/// a delta frame lands *before* the keyframe it depends on. That is the
/// minimal case where a naive frame buffer replays frame 1 (or decodes it
/// ahead of the keyframe) once frame 0 finally arrives, breaking the
/// strictly-increasing decode order.
#[test]
fn regression_frame_buffer_delta_arriving_before_keyframe() {
    let decoded = decode_order(&[1, 0, 2]);
    for w in decoded.windows(2) {
        assert!(w[0] < w[1], "decode order violated: {decoded:?}");
    }
}

// ---------- quality model and schedulers ----------

#[test]
fn qp_and_psnr_move_oppositely() {
    use converge_video::{psnr_for_bitrate, qp_for_bitrate, VideoFormat};
    let rate = |r: &mut SmallRng| r.gen_range(100_000.0f64..50_000_000.0);
    let draw = |r: &mut SmallRng| (rate(r), rate(r));
    check([], CASES, draw, |&(r1, r2)| {
        let f = VideoFormat::HD720;
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        assert!(qp_for_bitrate(f, lo) >= qp_for_bitrate(f, hi));
        assert!(psnr_for_bitrate(f, lo) <= psnr_for_bitrate(f, hi));
    });
}

#[test]
fn schedulers_assign_every_packet_to_a_known_path() {
    use converge_core::{
        classify, ConvergeScheduler, ConvergeSchedulerConfig, MRtpScheduler, MTputScheduler,
        PathMetrics, Schedulable, Scheduler, SrttScheduler,
    };
    let draw = |r: &mut SmallRng| {
        let rate = |r: &mut SmallRng| r.gen_range(1u64..30_000_000);
        (r.gen_range(1usize..80), rate(r), rate(r))
    };
    check([], CASES, draw, |&(n_packets, rate0, rate1)| {
        let paths = [
            PathMetrics::new(PathId(0), rate0, SimDuration::from_millis(40), 0.0),
            PathMetrics::new(PathId(1), rate1, SimDuration::from_millis(80), 0.0),
        ];
        let mut pps = media(0, 0, 0, 0, 1200);
        (pps.frame_type, pps.kind) = (FrameType::Key, PacketKind::Pps);
        let packets: Vec<Schedulable> = (0..n_packets)
            .map(|i| match i {
                0 => pps,
                _ => media(i as u64, 0, i as u16, n_packets as u16, 1200),
            })
            .map(|packet| Schedulable {
                packet,
                class: classify(&packet),
            })
            .collect();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(ConvergeScheduler::new(ConvergeSchedulerConfig::default())),
            Box::new(SrttScheduler::new(SimDuration::from_micros(33_333))),
            Box::new(MTputScheduler::new()),
            Box::new(MRtpScheduler::new()),
        ];
        for sched in schedulers.iter_mut() {
            let out = sched.assign_batch(SimTime::ZERO, &packets, &paths);
            assert_eq!(out.len(), packets.len(), "{}", sched.name());
            for a in &out {
                assert!(a.path == PathId(0) || a.path == PathId(1));
            }
        }
    });
}

// ---------- connection monitor and pacer ----------

#[test]
fn monitor_state_consistent_under_any_activity_pattern() {
    let draw = |r: &mut SmallRng| {
        vec_of(r, 1..200, |r| {
            (r.gen_range(0u64..20_000), r.gen_range(0u8..2))
        })
    };
    check([], CASES, draw, |events| {
        let mut sorted = events.clone();
        sorted.sort();
        let mut m = ConnectionMonitor::new(&[PathId(0), PathId(1)]);
        let mut last_heard = BTreeMap::from([(0u8, 0u64), (1, 0)]);
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
                    assert_eq!(state, PathState::Up, "path{p} silent {silence}ms");
                }
                if silence >= 5_000 {
                    // poll() before the activity above may not have run at
                    // this exact instant for the other path; force it.
                    m.poll(t);
                    assert_eq!(m.state(PathId(p)).unwrap(), PathState::Down);
                }
            }
        }
    });
}

#[test]
fn pacer_conserves_packets() {
    use converge_core::PacketClass;
    use converge_sim::payload::NetPayload;
    use converge_sim::sender::OutboundPacket;
    use converge_sim::{Pacer, PacerConfig};
    let draw = |r: &mut SmallRng| {
        let sizes = vec_of(r, 1..100, |r| r.gen_range(100usize..1500));
        (sizes, r.gen_range(500_000u64..20_000_000))
    };
    check([], CASES, draw, |&(ref sizes, rate)| {
        let mut pacer = Pacer::new(PacerConfig);
        pacer.set_rate(PathId(0), rate as f64);
        let n = sizes.len();
        let packets: Vec<OutboundPacket> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| OutboundPacket {
                payload: NetPayload::Rtp(SimRtp {
                    kind: RtpKind::Media(media(i as u64, 0, i as u16, n as u16, size)),
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
            pacer.poll_into(now, &mut released);
            if pacer.is_empty() {
                break;
            }
            now = pacer
                .next_release()
                .expect("pending packets imply a next release")
                .max(now + SimDuration::from_micros(1));
        }
        assert_eq!(released.len(), n, "conservation");
        for (i, out) in released.iter().enumerate() {
            if let NetPayload::Rtp(r) = &out.payload {
                assert_eq!(r.transport_seq, i as u64, "FIFO order");
            }
        }
    });
}
