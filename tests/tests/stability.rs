//! The control loop reads alike on every seed: a tier-1 slice of
//! `cargo run --release -p converge-sim --example stability` (EXPERIMENTS.md,
//! "Stability matrix"), over the cells of `converge_sim::stability`.
//!
//! Until retransmissions were paid for out of the congestion-controlled
//! rate (DESIGN §4, "Repair rides inside the rate") these cells were
//! bistable by seed — 30 fps, or a collapse into the call's own repair
//! traffic at 6–16 fps — lossless topologies lost a quarter of their
//! packets to their own queues, and fleet members decoded under 2 fps.
//! Since each stream pays for its own retransmissions in the tick they
//! leave and a gap is NACKed three times (DESIGN §4.4), the one-stream
//! 10 %-loss cell is no longer one wide mode either. Shorter calls and
//! fewer seeds than the example, so the whole file stays under a minute
//! unoptimised; every bound below sits just under the readings of that
//! design and fails on the one before it.

use converge_sim::stability::{call, call_cells, fleet_fps, spread};
use converge_sim::ScenarioConfig;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=6;

fn cell(label: &str) -> (ScenarioConfig, u8) {
    let cells = call_cells();
    let (_, scenario, streams) = cells
        .into_iter()
        .find(|(l, ..)| *l == label)
        .unwrap_or_else(|| panic!("the stability matrix has no cell {label}"));
    (scenario, streams)
}

/// Every seed at or above `floor` fps, and no two seeds a mode apart.
fn assert_stable(cell: &str, fps: &[f64], floor: f64) {
    let (min, _, bimodal) = spread(fps);
    assert!(
        min >= floor,
        "{cell}: a seed fell below {floor} fps: {fps:.1?}"
    );
    assert!(!bimodal, "{cell} is bimodal: {fps:.1?}");
}

fn seeded_fps(label: &str) -> Vec<f64> {
    let (scenario, streams) = cell(label);
    SEEDS
        .map(|seed| call(&scenario, streams, 60, seed).fps_per_stream())
        .collect()
}

#[test]
fn reordering_under_three_streams_holds_the_frame_rate_on_every_seed() {
    let cell = "chaos(Reorder) x3";
    assert_stable(cell, &seeded_fps(cell), 29.0);
}

#[test]
fn feedback_loss_under_three_streams_holds_the_frame_rate_on_every_seed() {
    let cell = "chaos(FeedbackLoss) x3";
    assert_stable(cell, &seeded_fps(cell), 29.0);
}

#[test]
fn ten_percent_loss_under_three_streams_does_not_collapse_on_any_seed() {
    let cell = "fec_tradeoff(10.0) x3";
    assert_stable(cell, &seeded_fps(cell), 27.0);
}

#[test]
fn two_percent_loss_under_two_streams_holds_the_frame_rate_on_every_seed() {
    let cell = "fec_tradeoff(2.0) x2";
    assert_stable(cell, &seeded_fps(cell), 29.0);
}

/// A single stream at 10 % loss spread over 18–24 fps while a gap was
/// NACKed only twice: about a quarter of its 35-packet frames stayed a
/// packet short for good, by seed. A third attempt reaches them; the
/// lowest of these seeds reads 25.8.
#[test]
fn ten_percent_loss_under_one_stream_stays_above_its_measured_floor() {
    let cell = "fec_tradeoff(10.0) x1";
    assert_stable(cell, &seeded_fps(cell), 25.5);
}

/// On links configured with zero loss every lost packet is the sender's
/// own doing, and every repair packet answers one: both stay marginal.
/// (`constant8` under three streams still loses more than 1 % of its
/// packets: retransmissions, FEC and keyframes all burst onto its fast
/// path, ROADMAP item 1(b). Pinned a notch above its reading.)
#[test]
fn lossless_topologies_do_not_congest_themselves() {
    // No random draws on these links: one seed is every seed.
    for (label, rtx_ceiling, lost_ceiling) in
        [("symmetric3 x1", 10.0, 1.0), ("constant8 x3", 10.0, 1.5)]
    {
        let (scenario, streams) = cell(label);
        let r = call(&scenario, streams, 90, 11);
        let sent: u64 = r.paths.values().map(|p| p.packets_sent).sum();
        let lost: u64 = r.paths.values().map(|p| p.packets_lost).sum();
        let pct = |n: u64, of: u64| 100.0 * n as f64 / of as f64;
        let (rtx, fec) = (
            pct(r.retransmissions, r.media_packets_sent),
            pct(r.fec_packets_sent, r.media_packets_sent),
        );
        assert!(
            rtx <= rtx_ceiling,
            "{label}: retransmissions are {rtx:.1} % of media"
        );
        assert!(
            fec <= 5.0,
            "{label}: FEC is {fec:.1} % of media on lossless paths"
        );
        assert!(
            pct(lost, sent) < lost_ceiling,
            "{label}: {lost} of {sent} packets lost on links configured lossless"
        );
        assert!(
            r.fps_per_stream() > 24.0,
            "{label}: {:.1} fps",
            r.fps_per_stream()
        );
    }
}

#[test]
fn fleet_members_decode_video_at_both_conference_sizes() {
    for (size, floor) in [(4, 26.0), (8, 24.0)] {
        let fps: Vec<f64> = SEEDS.map(|seed| fleet_fps(size, seed)).collect();
        assert_stable(&format!("fleet 32 x{size}"), &fps, floor);
    }
}
