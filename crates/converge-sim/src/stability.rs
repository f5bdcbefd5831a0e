//! The stability matrix: does a cell read alike on every seed?
//!
//! The cells, how one reading of each is taken, and the rule that calls a
//! cell bimodal, shared by `examples/stability.rs` (seeds 1–12, prints the
//! table of EXPERIMENTS.md) and `tests/tests/stability.rs` (a tier-1 slice
//! of it, asserts).

use converge_net::SimDuration;

use crate::{
    CallReport, FecKind, FleetConfig, FleetEngine, ImpairmentKind, ScenarioConfig, SchedulerKind,
    Session, SessionConfig,
};

/// Two seeds of a cell further apart than this (fps per stream) are two
/// modes: a control loop that holds 30 fps or collapses into its own
/// retransmissions, by seed.
pub const BIMODAL_FPS: f64 = 5.0;

/// The call cells as (label, scenario, streams): the ones
/// `benchmark/README.md` "Seeds" had to stay out of, `fec_tradeoff(10.0)`
/// under one stream, and the two lossless topologies of `call-npath`.
pub fn call_cells() -> Vec<(&'static str, ScenarioConfig, u8)> {
    use ImpairmentKind::{FeedbackLoss, Reorder};
    vec![
        ("chaos(Reorder) x3", ScenarioConfig::chaos(Reorder), 3),
        (
            "chaos(FeedbackLoss) x3",
            ScenarioConfig::chaos(FeedbackLoss),
            3,
        ),
        (
            "fec_tradeoff(10.0) x3",
            ScenarioConfig::fec_tradeoff(10.0),
            3,
        ),
        ("fec_tradeoff(2.0) x2", ScenarioConfig::fec_tradeoff(2.0), 2),
        (
            "fec_tradeoff(10.0) x1",
            ScenarioConfig::fec_tradeoff(10.0),
            1,
        ),
        ("symmetric3 x1", ScenarioConfig::symmetric3(), 1),
        ("constant8 x3", ScenarioConfig::constant8(), 3),
    ]
}

/// One Converge call (scheduler and FEC) over a cell's scenario.
pub fn call(scenario: &ScenarioConfig, streams: u8, secs: u64, seed: u64) -> CallReport {
    Session::new(SessionConfig::paper_default(
        scenario.clone(),
        SchedulerKind::Converge,
        FecKind::Converge,
        streams,
        SimDuration::from_secs(secs),
        seed,
    ))
    .run()
}

/// Mean decoded fps over the members of a 10-second fleet of 32 sessions
/// in conferences of `size`.
pub fn fleet_fps(size: usize, seed: u64) -> f64 {
    let mut config = FleetConfig::new(32, size);
    config.duration = SimDuration::from_secs(10);
    config.seed = seed;
    let report = FleetEngine::new(config).run();
    let members = report.conferences.iter().flat_map(|c| &c.sessions);
    members.map(|s| s.fps).sum::<f64>() / report.sessions as f64
}

/// The lowest and the highest of a cell's per-seed readings, and whether
/// they are a mode apart.
pub fn spread(fps: &[f64]) -> (f64, f64, bool) {
    let (min, max) = fps
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    (min, max, max - min > BIMODAL_FPS)
}
