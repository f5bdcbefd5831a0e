//! Idle-skip equivalence: the event loop's fast path (jumping the clock
//! straight to the next timer while no packet is queued or in flight) must
//! be purely a wall-clock optimisation. For any scenario and seed, a
//! session with idle-skip disabled and one with it enabled must produce
//! byte-identical `converge-trace/v1` streams and identical QoE folds.
//!
//! The property is factored into `check_idle_skip_equivalence`; seeded
//! grid `#[test]`s pin a deterministic sample across the chaos impairment
//! matrix, the committed drive fixtures, and the seeded random scenario
//! generators, so the invariant runs on every `cargo test` even with the
//! offline proptest stand-in (which expands `proptest!` to nothing). Any
//! counterexample seed a real proptest run finds should be promoted to a
//! named `#[test]` below.

#![allow(dead_code, unused_imports)]

use std::sync::Arc;

use proptest::prelude::*;

use converge_net::SimDuration;
use converge_sim::{
    DriveFixture, DuplexSession, FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind, Session,
    SessionConfig,
};
use converge_trace::{jsonl, RingSink, TraceHandle};

/// Runs one fully pinned session and returns its rendered JSONL timeline
/// plus the debug rendering of its QoE report (every fold field).
fn render(
    scenario: ScenarioConfig,
    duration: SimDuration,
    seed: u64,
    idle_skip: bool,
) -> (String, String) {
    let ring = Arc::new(RingSink::new(1 << 20));
    let cfg = SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(duration)
        .seed(seed)
        .idle_skip(idle_skip)
        .trace(TraceHandle::new(ring.clone()))
        .build()
        .expect("equivalence config is valid");
    let report = Session::new(cfg).run();
    assert_eq!(ring.dropped(), 0, "ring must hold the whole timeline");
    (
        jsonl::render("equiv", &ring.drain()),
        format!("{report:?}"),
    )
}

/// The property: disabling idle-skip changes nothing observable.
fn check_idle_skip_equivalence(label: &str, scenario: ScenarioConfig, seconds: u64, seed: u64) {
    let duration = SimDuration::from_secs(seconds);
    let (trace_off, report_off) = render(scenario.clone(), duration, seed, false);
    let (trace_on, report_on) = render(scenario, duration, seed, true);
    if trace_off != trace_on {
        // Point at the first divergent line instead of dumping both
        // multi-hundred-line documents.
        let hint = trace_off
            .lines()
            .zip(trace_on.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                let off = trace_off.lines().nth(i).unwrap_or("<eof>");
                let on = trace_on.lines().nth(i).unwrap_or("<eof>");
                format!("first divergence at line {}:\n  off: {off}\n  on:  {on}", i + 1)
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: off {}, on {}",
                    trace_off.lines().count(),
                    trace_on.lines().count()
                )
            });
        panic!("idle-skip changed the trace stream ({label}, seed {seed}): {hint}");
    }
    assert_eq!(
        report_off, report_on,
        "idle-skip changed the QoE fold ({label}, seed {seed})"
    );
}

/// Chaos generator: every impairment row of the fault matrix.
#[test]
fn chaos_matrix_is_idle_skip_equivalent() {
    for kind in ImpairmentKind::ALL {
        for seed in [3, 21] {
            check_idle_skip_equivalence(kind.id(), ScenarioConfig::chaos(kind), 3, seed);
        }
    }
}

/// Drive generator: every committed 4/6/8-path drive fixture.
#[test]
fn drive_fixtures_are_idle_skip_equivalent() {
    for fixture in DriveFixture::ALL {
        check_idle_skip_equivalence(fixture.id(), fixture.scenario(), 3, 11);
    }
}

/// Seeded random scenario generators (the mobility traces draw their
/// rate/RTT processes from the seed).
#[test]
fn seeded_scenarios_are_idle_skip_equivalent() {
    let d = SimDuration::from_secs(3);
    for seed in [5, 17] {
        check_idle_skip_equivalence("walking", ScenarioConfig::walking(d, seed), 3, seed);
        check_idle_skip_equivalence("driving", ScenarioConfig::driving(d, seed), 3, seed);
    }
    for n_paths in [4, 8] {
        check_idle_skip_equivalence(
            "multi-carrier",
            ScenarioConfig::multi_carrier(n_paths, d, 23),
            3,
            23,
        );
    }
}

/// The duplex call shares the loop: with two flows the fast path must
/// wait for both pacers, and both directions' reports must not notice it.
/// (Duplex calls are untraced, so the QoE folds are the whole contract.)
#[test]
fn duplex_call_is_idle_skip_equivalent() {
    for (scenario, seed) in [
        (ScenarioConfig::fec_tradeoff(2.0), 17),
        (ScenarioConfig::chaos(ImpairmentKind::Reorder), 3),
    ] {
        let run = |idle_skip| {
            let cfg = SessionConfig::builder()
                .scenario(scenario.clone())
                .duration(SimDuration::from_secs(3))
                .seed(seed)
                .idle_skip(idle_skip)
                .build()
                .expect("equivalence config is valid");
            format!("{:?}", DuplexSession::new(cfg).run())
        };
        assert_eq!(
            run(false),
            run(true),
            "idle-skip changed a duplex QoE fold ({}, seed {seed})",
            scenario.name
        );
    }
}

/// Wide seed sweep for counterexample hunting (minutes of wall clock, so
/// not part of the default suite): `cargo test -p converge-integration
/// --test idle_skip_equivalence -- --ignored`.
#[test]
#[ignore = "wide sweep; run explicitly when hunting for counterexamples"]
fn wide_seed_sweep_is_idle_skip_equivalent() {
    for seed in 0..32u64 {
        for kind in ImpairmentKind::ALL {
            check_idle_skip_equivalence(kind.id(), ScenarioConfig::chaos(kind), 2, seed);
        }
        for fixture in DriveFixture::ALL {
            check_idle_skip_equivalence(fixture.id(), fixture.scenario(), 2, seed);
        }
    }
}

proptest! {
    // With a real proptest the space is explored beyond the pinned grid;
    // failures print the seed tuple, which should then be promoted to a
    // named #[test] above.
    #[test]
    fn any_seed_is_idle_skip_equivalent(
        kind_idx in 0usize..5,
        seed in any::<u16>(),
        seconds in 1u64..4,
    ) {
        let kind = ImpairmentKind::ALL[kind_idx];
        check_idle_skip_equivalence(kind.id(), ScenarioConfig::chaos(kind), seconds, seed as u64);
    }

    #[test]
    fn any_drive_seed_is_idle_skip_equivalent(
        fixture_idx in 0usize..3,
        seed in any::<u16>(),
    ) {
        let fixture = DriveFixture::ALL[fixture_idx];
        check_idle_skip_equivalence(fixture.id(), fixture.scenario(), 3, seed as u64);
    }
}
