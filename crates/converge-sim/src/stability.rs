//! The stability matrix: does a cell read alike on every seed?
//!
//! The matrix's cells, by their labels and catalogue names
//! ([`crate::cells`]), and the rule that calls a cell bimodal, shared by
//! `examples/stability.rs` (seeds 1–12, prints the table of
//! EXPERIMENTS.md) and `tests/tests/stability.rs` (a tier-1 slice of it,
//! asserts).

/// Two seeds of a cell further apart than this (fps per stream) are two
/// modes: a control loop that holds 30 fps or collapses into its own
/// retransmissions, by seed.
pub const BIMODAL_FPS: f64 = 5.0;

/// The cells as (label, catalogue name): the ones `benchmark/README.md`
/// "Seeds" had to stay out of, `fec_tradeoff(10.0)` under one stream, the
/// two lossless topologies of `call-npath`, and 32-session fleets in
/// conferences of 4 and of 8. Calls run for the caller's length, fleets
/// for their catalogue length (10 s).
pub const MATRIX: [(&str, &str); 9] = [
    ("chaos(Reorder) x3", "reorder3"),
    ("chaos(FeedbackLoss) x3", "feedback3"),
    ("fec_tradeoff(10.0) x3", "loss10"),
    ("fec_tradeoff(2.0) x2", "loss2x2"),
    ("fec_tradeoff(10.0) x1", "loss10x1"),
    ("symmetric3 x1", "symmetric3"),
    ("constant8 x3", "constant8"),
    ("fleet 32 x4", "fleet32x4"),
    ("fleet 32 x8", "fleet32x8"),
];

/// The lowest and the highest of a cell's per-seed readings, and whether
/// they are a mode apart.
pub fn spread(fps: &[f64]) -> (f64, f64, bool) {
    let (min, max) = fps
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    (min, max, max - min > BIMODAL_FPS)
}
