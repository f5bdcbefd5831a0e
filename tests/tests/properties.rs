//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace.
//!
//! Each stochastic property is factored into a `check_*` helper: the
//! `proptest!` block explores the parameter space when a real proptest is
//! available, and a seeded-grid `#[test]` pins a deterministic sample of
//! the same property so the invariant is exercised on every `cargo test`
//! regardless (the offline proptest stand-in expands `proptest!` blocks
//! to nothing).

// With the offline stand-in the `proptest!` bodies vanish, leaving
// strategies and imports used only inside them looking unused.
#![allow(dead_code, unused_imports)]

use bytes::Bytes;
use proptest::prelude::*;

use converge_core::PathShare;
use converge_net::event::EventQueue;
use converge_net::{
    BlackoutSchedule, Direction, DriveParseError, DriveSample, DriveTrace, ImpairmentConfig,
    Link, LinkConfig, LossModel, LossProcess, NetworkEmulator, Path, PathId,
    SimDuration, SimTime, Transmit,
};
use converge_rtp::{fec, MultipathExtension, PayloadType, RtpPacket};
use converge_video::{
    CompleteFrame, FrameBuffer, FrameBufferEvent, FrameType, PacketBuffer, PacketBufferEvent,
    PacketKind, StreamId, VideoPacket,
};

// ---------- wire formats ----------

fn arb_payload_type() -> impl Strategy<Value = PayloadType> {
    prop_oneof![
        Just(PayloadType::Video),
        Just(PayloadType::Fec),
        Just(PayloadType::Retransmission),
        Just(PayloadType::Probe),
    ]
}

proptest! {
    #[test]
    fn rtp_roundtrips_any_fields(
        marker in any::<bool>(),
        pt in arb_payload_type(),
        sequence in any::<u16>(),
        timestamp in any::<u32>(),
        ssrc in any::<u32>(),
        with_ext in any::<bool>(),
        path_id in any::<u8>(),
        mp_seq in any::<u16>(),
        mp_tseq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let p = RtpPacket {
            marker,
            payload_type: pt,
            sequence,
            timestamp,
            ssrc,
            extension: with_ext.then_some(MultipathExtension {
                path_id,
                mp_sequence: mp_seq,
                mp_transport_sequence: mp_tseq,
            }),
            payload: Bytes::from(payload),
        };
        let back = RtpPacket::parse(p.serialize()).expect("roundtrip");
        prop_assert_eq!(p, back);
    }

    #[test]
    fn rtp_parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = RtpPacket::parse(Bytes::from(data));
    }

    #[test]
    fn rtcp_parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = converge_rtp::RtcpPacket::parse(Bytes::from(data));
    }
}

// ---------- FEC ----------

proptest! {
    #[test]
    fn fec_recovers_any_single_loss(
        sizes in proptest::collection::vec(1usize..1400, 1..12),
        missing_idx in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
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
        let missing = missing_idx.index(packets.len());
        let received: Vec<(u16, Bytes)> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != missing)
            .map(|(_, p)| p.clone())
            .collect();
        let (seq, payload) = fec::recover(&group, &received).expect("single loss recoverable");
        prop_assert_eq!(seq, packets[missing].0);
        prop_assert_eq!(payload, packets[missing].1.clone());
    }

    #[test]
    fn fec_groups_partition_packets(
        n in 1usize..60,
        repair in 1usize..12,
    ) {
        let packets: Vec<(u16, Bytes)> = (0..n as u16)
            .map(|s| (s, Bytes::from(vec![s as u8; 100])))
            .collect();
        let groups = fec::encode_groups(&packets, repair);
        let mut covered: Vec<u16> = groups.iter().flat_map(|g| g.protected.clone()).collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..n as u16).collect::<Vec<_>>());
        prop_assert_eq!(groups.len(), repair.min(n));
    }
}

// ---------- event queue & time ----------

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn serialization_delay_monotone_in_size(
        a in 1usize..10_000,
        b in 1usize..10_000,
        rate in 1u64..1_000_000_000,
    ) {
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(
            SimDuration::for_bytes_at_rate(small, rate)
                <= SimDuration::for_bytes_at_rate(large, rate)
        );
    }
}

// ---------- link ----------

proptest! {
    #[test]
    fn link_deliveries_are_fifo(
        sizes in proptest::collection::vec(1usize..1500, 1..100),
        gap_us in 0u64..5_000,
    ) {
        let mut link = Link::new(LinkConfig {
            trace: DriveTrace::constant(5_000_000, SimDuration::from_millis(10)),
            queue_capacity_bytes: usize::MAX / 2,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: converge_net::QueueDiscipline::DropTail,
            seed: 0,
            impairment: ImpairmentConfig::default(),
        });
        let mut last_delivery = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * gap_us);
            match link.transmit(now, size) {
                Transmit::Delivered(at) => {
                    prop_assert!(at >= last_delivery, "reordered delivery");
                    prop_assert!(at >= now, "delivery before send");
                    last_delivery = at;
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }
}

// ---------- impairment layer ----------

/// Single-path emulator whose forward link carries `impairment` and is
/// otherwise lossless with a deep queue, so every observed anomaly is the
/// impairment's doing.
fn impaired_emulator(seed: u64, impairment: ImpairmentConfig) -> NetworkEmulator<usize> {
    let cfg = LinkConfig {
        trace: DriveTrace::constant(100_000_000, SimDuration::from_millis(25)),
        queue_capacity_bytes: usize::MAX / 2,
        seed,
        impairment,
        ..LinkConfig::default()
    };
    NetworkEmulator::new(vec![Path::symmetric(PathId(0), cfg)])
}

/// Reordering shifts delivery times but never loses, duplicates, or
/// corrupts: the delivered payload multiset equals the sent multiset.
fn check_reorder_preserves_multiset(n: usize, prob: f64, horizon_ms: u64, seed: u64) {
    let mut emu = impaired_emulator(
        seed,
        ImpairmentConfig::reordering(prob, SimDuration::from_millis(horizon_ms)),
    );
    for i in 0..n {
        let at = SimTime::from_millis(i as u64);
        let (outcome, _) = emu.send(PathId(0), Direction::Forward, at, 500, i);
        assert!(!outcome.is_lost(), "send {i}");
    }
    let mut delivered: Vec<usize> = emu
        .poll(SimTime::from_secs(3_600))
        .into_iter()
        .map(|d| d.payload)
        .collect();
    delivered.sort_unstable();
    assert_eq!(delivered, (0..n).collect::<Vec<_>>());
    assert!(emu.idle());
}

/// Duplication delivers every original exactly once plus a copy count
/// that tracks the configured probability: six standard deviations of
/// Binomial(2000, p) stays under 0.07·n for any p, so a 0.1·n tolerance
/// never flakes.
fn check_duplication_count_matches_rate(prob: f64, seed: u64) {
    const N: usize = 2_000;
    let mut emu = impaired_emulator(
        seed,
        ImpairmentConfig::duplication(prob, SimDuration::from_millis(2)),
    );
    for i in 0..N {
        let at = SimTime::from_millis(i as u64);
        let (outcome, _) = emu.send(PathId(0), Direction::Forward, at, 500, i);
        assert!(!outcome.is_lost(), "send {i}");
    }
    let delivered: Vec<usize> = emu
        .poll(SimTime::from_secs(3_600))
        .into_iter()
        .map(|d| d.payload)
        .collect();
    let uniques: std::collections::BTreeSet<usize> = delivered.iter().copied().collect();
    assert_eq!(uniques.len(), N, "every original arrives exactly once");
    let copies = delivered.len() - N;
    let expected = N as f64 * prob;
    assert!(
        (copies as f64 - expected).abs() < N as f64 * 0.1,
        "copies {copies} vs expected {expected:.0} (p={prob}, seed={seed})"
    );
}

/// A blacked-out link accepts nothing: every send inside the window
/// reports `Blackout`, hands the payload back, and delivers zero packets
/// — the queue stays untouched.
fn check_blackout_delivers_nothing(n: usize, off_ms: u64, seed: u64) {
    let schedule = BlackoutSchedule::single(SimTime::ZERO, SimDuration::from_millis(off_ms));
    let mut emu = impaired_emulator(seed, ImpairmentConfig::blackout(schedule));
    for i in 0..n {
        // Spread sends across the whole window, strictly inside it.
        let at = SimTime::from_micros(off_ms * 1_000 * i as u64 / n as u64);
        let (outcome, returned) = emu.send(PathId(0), Direction::Forward, at, 500, i);
        assert_eq!(outcome, Transmit::Blackout, "send {i}");
        assert_eq!(returned, Some(i), "payload handed back");
    }
    assert!(emu.poll(SimTime::from_secs(3_600)).is_empty());
    assert!(emu.idle());
}

proptest! {
    #[test]
    fn reorder_preserves_delivered_payload_multiset(
        n in 1usize..200,
        prob in 0.0f64..=1.0,
        horizon_ms in 1u64..200,
        seed in any::<u64>(),
    ) {
        check_reorder_preserves_multiset(n, prob, horizon_ms, seed);
    }

    #[test]
    fn duplication_count_matches_rate(prob in 0.2f64..0.8, seed in any::<u64>()) {
        check_duplication_count_matches_rate(prob, seed);
    }

    #[test]
    fn blackout_window_delivers_exactly_nothing(
        n in 1usize..100,
        off_ms in 1u64..10_000,
        seed in any::<u64>(),
    ) {
        check_blackout_delivers_nothing(n, off_ms, seed);
    }
}

/// Deterministic sample of `reorder_preserves_delivered_payload_multiset`.
#[test]
fn reorder_preserves_multiset_on_seeded_grid() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        for prob in [0.05, 0.5, 1.0] {
            check_reorder_preserves_multiset(150, prob, 40, seed);
        }
    }
}

/// Deterministic sample of `duplication_count_matches_rate`.
#[test]
fn duplication_count_matches_rate_on_seeded_grid() {
    for seed in [3u64, 11, 42] {
        for prob in [0.25, 0.5, 0.75] {
            check_duplication_count_matches_rate(prob, seed);
        }
    }
}

/// Deterministic sample of `blackout_window_delivers_exactly_nothing`.
#[test]
fn blackout_delivers_nothing_on_seeded_grid() {
    for seed in [7u64, 19, 101] {
        for off_ms in [1u64, 500, 9_999] {
            check_blackout_delivers_nothing(60, off_ms, seed);
        }
    }
}

// ---------- Gilbert–Elliott loss statistics ----------

/// `LossModel::mean_loss()` (the closed-form stationary loss rate)
/// matches the empirical drop frequency of the sampled chain. The
/// parameter ranges keep the chain fast-mixing so 400k draws concentrate
/// well inside the 0.03 tolerance (~6σ).
fn check_ge_mean_loss_matches_empirical(
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
    seed: u64,
) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let model = LossModel::GilbertElliott {
        p_gb,
        p_bg,
        loss_good,
        loss_bad,
    };
    let mut process = LossProcess::new(model.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    // Burn-in past the initial good state, then count.
    for _ in 0..10_000 {
        process.should_drop(&mut rng);
    }
    const DRAWS: usize = 400_000;
    let mut drops = 0usize;
    for _ in 0..DRAWS {
        if process.should_drop(&mut rng) {
            drops += 1;
        }
    }
    let empirical = drops as f64 / DRAWS as f64;
    let analytic = model.mean_loss();
    assert!(
        (empirical - analytic).abs() < 0.03,
        "empirical {empirical:.4} vs analytic {analytic:.4} \
         (p_gb={p_gb}, p_bg={p_bg}, lg={loss_good}, lb={loss_bad}, seed={seed})"
    );
}

proptest! {
    // Few cases: each one draws 400k samples, and the statistical bound
    // is already a ~6σ test per case.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn gilbert_elliott_mean_loss_matches_empirical_frequency(
        p_gb in 0.05f64..0.9,
        p_bg in 0.05f64..0.9,
        loss_good in 0.0f64..0.2,
        loss_bad in 0.3f64..1.0,
        seed in any::<u64>(),
    ) {
        check_ge_mean_loss_matches_empirical(p_gb, p_bg, loss_good, loss_bad, seed);
    }
}

/// Deterministic sample of the statistical property, including the
/// paper-shaped `bursty_percent` presets (good state lossless, bursty bad
/// state) and a fast-flipping chain.
#[test]
fn ge_mean_loss_matches_empirical_on_seeded_grid() {
    check_ge_mean_loss_matches_empirical(0.05, 0.5, 0.0, 0.6, 11);
    check_ge_mean_loss_matches_empirical(0.3, 0.3, 0.1, 0.9, 42);
    check_ge_mean_loss_matches_empirical(0.85, 0.85, 0.15, 0.35, 77);
    for pct in [1.0, 4.0, 10.0] {
        let model = LossModel::bursty_percent(pct);
        if let LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
        } = model
        {
            check_ge_mean_loss_matches_empirical(p_gb, p_bg, loss_good, loss_bad, 7);
        }
    }
}

// ---------- traces ----------

proptest! {
    #[test]
    fn trace_rate_at_always_within_segment_values(
        rates in proptest::collection::vec(0u64..100_000_000, 1..50),
        at_us in 0u64..1_000_000_000,
    ) {
        let t = DriveTrace::uniform(SimDuration::from_millis(500), rates.clone(), SimDuration::ZERO);
        let r = t.rate_at(SimTime::from_micros(at_us));
        prop_assert!(rates.contains(&r));
    }
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
    let back = DriveTrace::from_csv(&t.to_csv()).expect("roundtrip");
    assert_eq!(back.samples()[0].rate_bps, 0);
}

// ---------- drive traces ----------

/// Builds a drive trace from milli-unit integers: times in ms (strictly
/// increasing via positive gaps), OWDs in ms, loss in milli-percent.
/// Milli-units survive the CSV/JSONL decimal formatting exactly, so the
/// round-trip properties can demand equality rather than tolerance.
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

fn check_drive_csv_roundtrips(rows: &[(u64, u64, u64, u64)]) {
    let t = drive_from_milli(rows);
    let back = DriveTrace::from_csv(&t.to_csv()).expect("csv roundtrip");
    assert_eq!(t, back);
}

fn check_drive_jsonl_roundtrips(rows: &[(u64, u64, u64, u64)], path: u8) {
    let t = drive_from_milli(rows);
    // Path IDs must be contiguous from 0, so a single-trace document only
    // parses when its rows carry path 0; any other ID is a missing-path
    // error, not a silent renumbering.
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
}

fn check_drive_rejects_non_monotone_time(rows: &[(u64, u64, u64, u64)], dup_at: usize) {
    let good = drive_from_milli(rows);
    let mut samples = good.samples().to_vec();
    let dup = samples[dup_at.min(samples.len() - 1)];
    samples.push(dup); // time now revisits an earlier stamp
    samples.sort_by_key(|s| s.at);
    let err = DriveTrace::new(samples).expect_err("duplicate timestamp must be rejected");
    assert!(matches!(err, DriveParseError::NonMonotoneTime(_)), "{err:?}");
}

fn check_drive_holds_across_boundaries(rows: &[(u64, u64, u64, u64)]) {
    let t = drive_from_milli(rows);
    let samples = t.samples();
    // Before the first sample: the first sample's values hold.
    let before = SimTime::ZERO;
    assert_eq!(t.sample_at(before), &samples[0]);
    for (i, s) in samples.iter().enumerate() {
        // Exactly at a boundary the new sample takes effect…
        assert_eq!(t.sample_at(s.at), s, "boundary {i}");
        // …and one microsecond earlier the previous one still holds.
        if i > 0 {
            let just_before = SimTime::from_micros(s.at.as_micros() - 1);
            assert_eq!(t.sample_at(just_before), &samples[i - 1], "pre-boundary {i}");
        }
    }
    // Past the end the last sample holds forever: no wrap.
    let far = SimTime::from_micros(t.end().as_micros() + 86_400_000_000);
    assert_eq!(t.sample_at(far), samples.last().unwrap());
    assert_eq!(t.until_next_change(far), None);
}

fn arb_drive_rows() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    proptest::collection::vec(
        (1u64..60_000, 0u64..100_000_000, 0u64..2_000, 0u64..100_000),
        1..40,
    )
}

proptest! {
    #[test]
    fn drive_csv_roundtrips(rows in arb_drive_rows()) {
        check_drive_csv_roundtrips(&rows);
    }

    #[test]
    fn drive_jsonl_roundtrips(rows in arb_drive_rows(), path in any::<u8>()) {
        check_drive_jsonl_roundtrips(&rows, path);
    }

    #[test]
    fn drive_rejects_non_monotone_time(rows in arb_drive_rows(), dup_at in any::<usize>()) {
        check_drive_rejects_non_monotone_time(&rows, dup_at);
    }

    #[test]
    fn drive_holds_across_boundaries(rows in arb_drive_rows()) {
        check_drive_holds_across_boundaries(&rows);
    }
}

/// Deterministic sample of the drive-trace properties (always runs, even
/// under the offline proptest stand-in).
#[test]
fn drive_properties_seeded_grid() {
    let grids: [&[(u64, u64, u64, u64)]; 4] = [
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
        &[(1, 1, 1, 1), (1, 2, 2, 12), (1, 3, 3, 123), (2, 4, 0, 99_999)],
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
    for (i, rows) in grids.iter().enumerate() {
        check_drive_csv_roundtrips(rows);
        check_drive_jsonl_roundtrips(rows, 0);
        check_drive_jsonl_roundtrips(rows, i as u8);
        check_drive_rejects_non_monotone_time(rows, i);
        check_drive_holds_across_boundaries(rows);
    }
}

// ---------- path share (Eq. 1 + Eq. 2) ----------

proptest! {
    #[test]
    fn split_always_covers_exactly_n(
        n in 0usize..200,
        rates in proptest::collection::vec(1u64..50_000_000, 1..5),
        alphas in proptest::collection::vec(-40i32..40, 0..10),
    ) {
        use converge_core::PathMetrics;
        let paths: Vec<PathMetrics> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| PathMetrics::new(
                PathId(i as u8),
                r,
                SimDuration::from_millis(50),
                0.0,
            ))
            .collect();
        let mut share = PathShare::new();
        for (i, &a) in alphas.iter().enumerate() {
            share.apply_feedback(PathId((i % rates.len()) as u8), a);
        }
        let counts = share.split(n, &paths, &std::collections::BTreeMap::new());
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, n);
    }
}

// ---------- receiver buffers ----------

/// Builds the packet list of one frame.
fn frame_packets(frame_id: u64, base_seq: u64, media: u16) -> Vec<VideoPacket> {
    let mut v = vec![VideoPacket {
        stream: StreamId(0),
        sequence: base_seq,
        frame_id,
        gop_id: 0,
        frame_type: if frame_id == 0 {
            FrameType::Key
        } else {
            FrameType::Delta
        },
        kind: PacketKind::Pps,
        size: 64,
        capture_time: SimTime::from_millis(frame_id * 33),
    }];
    for i in 0..media {
        v.push(VideoPacket {
            sequence: base_seq + 1 + i as u64,
            kind: PacketKind::Media {
                index: i,
                count: media,
            },
            size: 1200,
            ..v[0]
        });
    }
    v
}

proptest! {
    #[test]
    fn packet_buffer_completes_frames_in_any_arrival_order(
        order_seed in any::<u64>(),
        media in 1u16..20,
    ) {
        let mut pkts = frame_packets(0, 0, media);
        // Deterministic shuffle from the seed.
        let mut s = order_seed;
        for i in (1..pkts.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            pkts.swap(i, j);
        }
        let mut buf = PacketBuffer::new(1024);
        let mut complete = 0;
        for (i, p) in pkts.iter().enumerate() {
            for ev in buf.insert(SimTime::from_micros(i as u64), p) {
                if let PacketBufferEvent::FrameComplete(f) = ev {
                    complete += 1;
                    prop_assert_eq!(f.size, media as usize * 1200);
                }
            }
        }
        prop_assert_eq!(complete, 1, "exactly one completion");
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn packet_buffer_never_exceeds_capacity(
        cap in 4usize..64,
        inserts in proptest::collection::vec((0u64..30, 0u16..6), 1..300),
    ) {
        let mut buf = PacketBuffer::new(cap);
        for (i, &(frame_id, index)) in inserts.iter().enumerate() {
            let p = VideoPacket {
                stream: StreamId(0),
                sequence: i as u64,
                frame_id,
                gop_id: 0,
                frame_type: FrameType::Delta,
                // count high enough that frames rarely complete.
                kind: PacketKind::Media { index, count: 6 },
                size: 1200,
                capture_time: SimTime::ZERO,
            };
            buf.insert(SimTime::from_micros(i as u64), &p);
            prop_assert!(buf.len() <= cap, "len {} > cap {cap}", buf.len());
        }
    }

    #[test]
    fn frame_buffer_decodes_in_strictly_increasing_order(
        order_seed in any::<u64>(),
        n_frames in 2u64..30,
    ) {
        let mut ids: Vec<u64> = (0..n_frames).collect();
        let mut s = order_seed;
        for i in (1..ids.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            ids.swap(i, j);
        }
        let mut fb = FrameBuffer::new(64);
        fb.sps_received(0);
        let mut decoded: Vec<u64> = Vec::new();
        for (step, &frame_id) in ids.iter().enumerate() {
            let frame = CompleteFrame {
                stream: StreamId(0),
                frame_id,
                gop_id: 0,
                frame_type: if frame_id == 0 { FrameType::Key } else { FrameType::Delta },
                size: 1000,
                capture_time: SimTime::from_millis(frame_id * 33),
                first_arrival: SimTime::from_millis(step as u64),
                completed_at: SimTime::from_millis(step as u64),
            };
            for ev in fb.insert(SimTime::from_millis(step as u64), frame) {
                if let FrameBufferEvent::Decoded { frame, .. } = ev {
                    decoded.push(frame.frame_id);
                }
            }
        }
        // The decode sequence is strictly increasing (never replays or
        // reorders) regardless of arrival order.
        for w in decoded.windows(2) {
            prop_assert!(w[0] < w[1], "decode order violated: {decoded:?}");
        }
        // If the keyframe arrived before any delta, the whole chain must
        // decode; otherwise the buffer abandons the pre-keyframe chain and
        // asks the sender for a fresh keyframe (tested in unit tests).
        if ids[0] == 0 {
            prop_assert_eq!(decoded, (0..n_frames).collect::<Vec<_>>());
        }
    }
}

/// Promoted from `properties.proptest-regressions` (shrunk counterexample
/// `order_seed = 17940910340340672, n_frames = 3`): this seed shuffles the
/// arrival order to `[1, 0, 2]` — a delta frame lands *before* the
/// keyframe it depends on. That is the minimal case where a naive frame
/// buffer replays frame 1 (or decodes it ahead of the keyframe) once
/// frame 0 finally arrives, breaking the strictly-increasing decode
/// order. Pinned here as a plain test so the case survives even if the
/// proptest-regressions file is lost.
#[test]
fn regression_frame_buffer_delta_arriving_before_keyframe() {
    let arrival_order = [1u64, 0, 2]; // what the shrunk seed produces
    let mut fb = FrameBuffer::new(64);
    fb.sps_received(0);
    let mut decoded: Vec<u64> = Vec::new();
    for (step, &frame_id) in arrival_order.iter().enumerate() {
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
            first_arrival: SimTime::from_millis(step as u64),
            completed_at: SimTime::from_millis(step as u64),
        };
        for ev in fb.insert(SimTime::from_millis(step as u64), frame) {
            if let FrameBufferEvent::Decoded { frame, .. } = ev {
                decoded.push(frame.frame_id);
            }
        }
    }
    for w in decoded.windows(2) {
        assert!(w[0] < w[1], "decode order violated: {decoded:?}");
    }
}

// ---------- quality model ----------

proptest! {
    #[test]
    fn qp_and_psnr_move_oppositely(
        r1 in 100_000.0f64..50_000_000.0,
        r2 in 100_000.0f64..50_000_000.0,
    ) {
        use converge_video::{psnr_for_bitrate, qp_for_bitrate, VideoFormat};
        let f = VideoFormat::HD720;
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(qp_for_bitrate(f, lo) >= qp_for_bitrate(f, hi));
        prop_assert!(psnr_for_bitrate(f, lo) <= psnr_for_bitrate(f, hi));
    }
}

// ---------- scheduler assignments ----------

proptest! {
    #[test]
    fn schedulers_assign_every_packet_to_a_known_path(
        n_packets in 1usize..80,
        rate0 in 1u64..30_000_000,
        rate1 in 1u64..30_000_000,
    ) {
        use converge_core::{
            classify, ConvergeScheduler, ConvergeSchedulerConfig, MRtpScheduler,
            MTputScheduler, PathMetrics, Schedulable, Scheduler, SrttScheduler,
        };
        let paths = [
            PathMetrics::new(PathId(0), rate0, SimDuration::from_millis(40), 0.0),
            PathMetrics::new(PathId(1), rate1, SimDuration::from_millis(80), 0.0),
        ];
        let packets: Vec<Schedulable> = (0..n_packets)
            .map(|i| {
                let p = VideoPacket {
                    stream: StreamId(0),
                    sequence: i as u64,
                    frame_id: 0,
                    gop_id: 0,
                    frame_type: if i == 0 { FrameType::Key } else { FrameType::Delta },
                    kind: if i == 0 {
                        PacketKind::Pps
                    } else {
                        PacketKind::Media { index: i as u16, count: n_packets as u16 }
                    },
                    size: 1200,
                    capture_time: SimTime::ZERO,
                };
                Schedulable { packet: p, class: classify(&p) }
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
            prop_assert_eq!(out.len(), packets.len(), "{}", sched.name());
            for a in &out {
                prop_assert!(a.path == PathId(0) || a.path == PathId(1));
            }
        }
    }
}
