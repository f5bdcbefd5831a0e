//! Long-run stability regressions: failures that only appear minutes into
//! a call (sequence-number wraps, estimator drift, monotone resource
//! growth).

use converge_net::SimDuration;
use converge_sim::{FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig};

/// The Converge system (scheduler + FEC, one stream) via the validating
/// builder.
fn converge_cfg(scenario: ScenarioConfig, duration: SimDuration, seed: u64) -> SessionConfig {
    SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(duration)
        .seed(seed)
        .build()
        .expect("valid session config")
}

/// Regression for the 16-bit transport-sequence wrap: a high-rate path
/// crosses 65 536 packets after ~2 minutes; before the unwrap fix, GCC
/// went blind there and the tail of every long call degenerated into a
/// sustained outage (40+ consecutive sub-15-FPS seconds).
#[test]
fn no_degradation_after_transport_sequence_wrap() {
    let duration = SimDuration::from_secs(200);
    // Clean fast paths so the sender sustains ~10 Mbps: the wrap happens
    // near t = 65 536 × 1250 B × 8 / 10 Mbps ≈ 65 s per path at full rate,
    // comfortably inside the run.
    let cfg = converge_cfg(ScenarioConfig::fec_tradeoff(0.0), duration, 5);
    let report = Session::new(cfg).run();

    // Total packets on the busiest path must actually have wrapped,
    // otherwise this test is vacuous.
    let max_sent = report
        .paths
        .values()
        .map(|c| c.packets_sent)
        .max()
        .unwrap_or(0);
    assert!(
        max_sent > 70_000,
        "test must cross the 16-bit wrap (sent {max_sent})"
    );

    // No sustained outage: at most 2 consecutive seconds below 15 FPS
    // anywhere in the call (startup excluded).
    let mut consecutive = 0;
    let mut worst = 0;
    for bin in report.bins.iter().skip(5) {
        if bin.frames_decoded < 15 {
            consecutive += 1;
            worst = worst.max(consecutive);
        } else {
            consecutive = 0;
        }
    }
    assert!(
        worst <= 2,
        "sustained outage of {worst} consecutive bad seconds — wrap regression?"
    );

    // The last quarter of the call performs like the second quarter.
    let quarter = report.bins.len() / 4;
    let q2: u64 = report
        .bins
        .iter()
        .skip(quarter)
        .take(quarter)
        .map(|b| b.media_bits)
        .sum();
    let q4: u64 = report
        .bins
        .iter()
        .skip(3 * quarter)
        .map(|b| b.media_bits)
        .sum();
    assert!(
        q4 as f64 > q2 as f64 * 0.7,
        "late-call throughput collapsed: q2={q2} q4={q4}"
    );
}

/// Per-packet jitter reorders packets inside a path; the receiver's
/// buffers and NACK reordering tolerance must absorb it without spurious
/// retransmission storms.
#[test]
fn jitter_reordering_absorbed_without_nack_storm() {
    let duration = SimDuration::from_secs(30);
    let mut scenario = ScenarioConfig::fec_tradeoff(0.0);
    scenario.paths[0].jitter = SimDuration::from_millis(10);
    scenario.paths[1].jitter = SimDuration::from_millis(10);
    let cfg = converge_cfg(scenario, duration, 9);
    let report = Session::new(cfg).run();
    assert!(
        report.fps > 25.0,
        "jitter alone must not break the call: {} fps",
        report.fps
    );
    // No loss in this scenario: every NACK would be a spurious reaction to
    // reordering. The 60 ms reordering tolerance should suppress nearly
    // all of them (10 ms jitter bound).
    assert!(
        report.nacks_sent < 20,
        "NACK storm from reordering: {} NACKs",
        report.nacks_sent
    );
    assert_eq!(
        report.retransmissions,
        report.nacks_sent.min(report.retransmissions)
    );
}

/// Resolution adaptation engages on starved networks and recovers on good
/// ones (end-to-end, through the whole stack).
#[test]
fn resolution_adapts_end_to_end() {
    // Two thin 1.5 Mbps paths: ~3 Mbps aggregate cannot carry 720p well.
    let starved = converge_cfg(
        ScenarioConfig {
            name: "starved".into(),
            paths: vec![
                converge_sim::scenarios::PathSpec::constant(1_500_000, 30, 0.0),
                converge_sim::scenarios::PathSpec::constant(1_500_000, 30, 0.0),
            ],
        },
        SimDuration::from_secs(30),
        3,
    );
    let r = Session::new(starved).run();
    assert!(
        r.avg_encoded_height < 700.0,
        "starved call should downscale: avg height {}",
        r.avg_encoded_height
    );

    let rich = converge_cfg(
        ScenarioConfig::fec_tradeoff(0.0),
        SimDuration::from_secs(30),
        3,
    );
    let r = Session::new(rich).run();
    assert!(
        r.avg_encoded_height > 650.0,
        "rich call should hold 720p: avg height {}",
        r.avg_encoded_height
    );
}
