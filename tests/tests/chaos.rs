//! Chaos-grade fault-injection matrix: every multipath scheduler crossed
//! with every named impairment over several seeds, each run validated by
//! the trace-driven invariant checker ([`converge_trace::InvariantSink`]).
//!
//! The assertions are survival floors, not QoE targets: the call must
//! complete without panicking, decode frames, keep its freeze ratio
//! finite, and — via `Session::run_checked` — emit a control-decision
//! timeline that satisfies every invariant (monotone time, no traffic on
//! disabled paths, Eq. 3 re-enable margin, FEC β ∈ [1, cap] with
//! repair ≤ media, GCC rate inside its clamp).

use std::sync::Arc;

use converge_integration::render_timeline;
use converge_net::{ImpairmentConfig, SimDuration};
use converge_sim::{
    FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};
use converge_trace::{RingSink, TraceHandle};

/// Seeds of the matrix; three per cell so a fault that only bites under a
/// particular RNG stream still gets caught.
const SEEDS: [u64; 3] = [11, 42, 77];

/// Per-cell call length. Long enough to cover every chaos schedule (the
/// single blackout starts at 10 s; the flap has a 4 s period) while
/// keeping the 60-cell matrix affordable in a debug test run.
const CELL: SimDuration = SimDuration::from_secs(15);

fn chaos_cfg(scheduler: SchedulerKind, kind: ImpairmentKind, seed: u64) -> SessionConfig {
    SessionConfig::builder()
        .scenario(ScenarioConfig::chaos(kind))
        .scheduler(scheduler)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(CELL)
        .seed(seed)
        .build()
        .expect("chaos scenario builds")
}

/// Runs one scheduler's row of the matrix: every impairment × every seed.
fn run_matrix_row(scheduler: SchedulerKind) {
    for kind in ImpairmentKind::ALL {
        for seed in SEEDS {
            let (report, violations) = Session::new(chaos_cfg(scheduler, kind, seed)).run_checked();
            assert!(
                violations.is_empty(),
                "{scheduler:?}/{}/seed {seed}: {violations:?}",
                kind.id()
            );
            assert!(
                report.frames_decoded > 0,
                "{scheduler:?}/{}/seed {seed} decoded nothing",
                kind.id()
            );
            let freeze = report.freeze_ratio_pct();
            assert!(
                freeze.is_finite() && (0.0..=100.0).contains(&freeze),
                "{scheduler:?}/{}/seed {seed}: freeze ratio {freeze}",
                kind.id()
            );
        }
    }
}

#[test]
fn chaos_matrix_converge_survives_every_fault() {
    run_matrix_row(SchedulerKind::Converge);
}

#[test]
fn chaos_matrix_mrtp_survives_every_fault() {
    run_matrix_row(SchedulerKind::MRtp);
}

#[test]
fn chaos_matrix_mtput_survives_every_fault() {
    run_matrix_row(SchedulerKind::MTput);
}

#[test]
fn chaos_matrix_srtt_survives_every_fault() {
    run_matrix_row(SchedulerKind::Srtt);
}

/// One traced run of a chaos cell: identical config × seed must produce a
/// byte-identical JSONL timeline, run to run — the determinism contract
/// the bench sweep relies on for any `--jobs` value.
#[test]
fn chaos_cell_timeline_is_byte_deterministic() {
    // Reorder is the stochastic impairment (per-packet RNG draws), so the
    // seed genuinely steers the trajectory — a pure schedule fault like
    // Flap would be trivially identical across seeds.
    let render_once = |seed: u64| -> (String, u64, f64) {
        let ring = Arc::new(RingSink::new(1 << 21));
        let cfg = SessionConfig::builder()
            .scenario(ScenarioConfig::chaos(ImpairmentKind::Reorder))
            .scheduler(SchedulerKind::Converge)
            .fec(FecKind::Converge)
            .streams(1)
            .duration(SimDuration::from_secs(10))
            .seed(seed)
            .trace(TraceHandle::new(ring.clone()))
            .build()
            .expect("valid config");
        let report = Session::new(cfg).run();
        assert_eq!(ring.dropped(), 0, "ring must hold the whole timeline");
        let records = ring.drain();
        assert!(!records.is_empty(), "a chaos run must emit trace events");
        (
            render_timeline("chaos-determinism", &records),
            report.frames_decoded,
            report.freeze_total_ms,
        )
    };
    let (a, frames_a, freeze_a) = render_once(42);
    let (b, frames_b, freeze_b) = render_once(42);
    assert_eq!(a, b, "same config x seed must replay byte-identically");
    assert_eq!(frames_a, frames_b);
    assert_eq!(freeze_a, freeze_b);
    // A different seed must actually explore a different trajectory.
    let (c, _, _) = render_once(43);
    assert_ne!(a, c, "distinct seeds must not collapse to one trajectory");
}

/// Asymmetric impairment set on the scenario's path: a degraded reverse
/// (feedback) channel on the cellular path only. The invariants must hold
/// even when RTCP feedback is starved in one direction.
#[test]
fn reverse_feedback_impairment_runs_clean() {
    let mut scenario = ScenarioConfig::chaos(ImpairmentKind::Reorder);
    scenario.paths[1].reverse_impairment =
        ImpairmentConfig::degraded(0.4, SimDuration::from_millis(40));
    let cfg = SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(SimDuration::from_secs(12))
        .seed(11)
        .build()
        .expect("valid config");
    let (report, violations) = Session::new(cfg).run_checked();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(report.frames_decoded > 0);
}
