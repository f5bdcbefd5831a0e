//! Drive-conformance matrix: every committed drive fixture (4, 6, and 8
//! path topologies) replays through the full stack from its *file* form —
//! the same bytes the bench embeds at compile time — with a clean
//! invariant checker, deterministic timelines, and a golden snapshot of
//! the 8-path blackout-flap replay.
//!
//! To regenerate the golden after an *intentional* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p converge-integration --test drive_conformance
//! ```

use std::sync::Arc;

use converge_integration::{assert_matches_golden, render_timeline};
use converge_net::SimDuration;
use converge_sim::{DriveFixture, FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig};
use converge_trace::{RingSink, TraceHandle};

fn fixture_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("drives")
        .join(name)
}

/// (fixture enum, on-disk file, expected path count).
const FIXTURES: [(DriveFixture, &str, usize); 3] = [
    (DriveFixture::CoverageGaps, "coverage_gaps.jsonl", 4),
    (DriveFixture::Handover, "handover.jsonl", 6),
    (DriveFixture::BlackoutFlap, "blackout_flap.jsonl", 8),
];

fn session_cfg(scenario: ScenarioConfig, secs: u64, seed: u64) -> SessionConfig {
    SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(SimDuration::from_secs(secs))
        .seed(seed)
        .build()
        .expect("valid drive session config")
}

/// The file loader and the compile-time embed must agree: same path
/// count, same drives, and the *file*-loaded replay is what the rest of
/// this suite exercises.
#[test]
fn on_disk_fixtures_match_their_embedded_twins() {
    for (fixture, file, paths) in FIXTURES {
        let from_file = ScenarioConfig::from_drive_file(fixture_file(file)).unwrap_or_else(|e| {
            panic!("{file}: {e}");
        });
        assert_eq!(from_file.paths.len(), paths, "{file}");
        let embedded = fixture.scenario();
        for (i, (a, b)) in from_file.paths.iter().zip(&embedded.paths).enumerate() {
            assert_eq!(
                a.trace, b.trace,
                "{file} path {i} diverges from the embedded fixture"
            );
        }
    }
}

/// Every fixture replays 20 s through the full loop with zero invariant
/// violations, decodes video, and keeps more than one path active.
#[test]
fn every_fixture_replays_invariant_clean() {
    for (_, file, paths) in FIXTURES {
        let scenario = ScenarioConfig::from_drive_file(fixture_file(file)).expect("fixture loads");
        let (report, violations) = Session::new(session_cfg(scenario, 20, 11)).run_checked();
        assert!(violations.is_empty(), "{file}: {violations:?}");
        assert_eq!(report.paths.len(), paths, "{file}");
        assert!(
            report.frames_decoded > 200,
            "{file}: {} frames",
            report.frames_decoded
        );
        let active = report.paths.values().filter(|p| p.bytes_sent > 0).count();
        assert!(active > 1, "{file}: only {active} active paths");
    }
}

/// Renders one pinned drive replay to JSONL: 4 s of the 8-path
/// blackout-flap fixture under Converge scheduling, seed 9. Short enough
/// to keep the fixture reviewable, long enough for the scheduler, FEC
/// controller, and all 8 drive-shaped paths to leave events.
fn render_drive_golden() -> String {
    let ring = Arc::new(RingSink::new(1 << 20));
    let scenario = ScenarioConfig::from_drive_file(fixture_file("blackout_flap.jsonl"))
        .expect("fixture loads");
    let cfg = SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(SimDuration::from_secs(4))
        .seed(9)
        .trace(TraceHandle::new(ring.clone()))
        .build()
        .expect("golden drive config is valid");
    let report = Session::new(cfg).run();
    assert!(
        report.frames_decoded > 0,
        "golden drive run must decode frames"
    );
    assert_eq!(ring.dropped(), 0, "ring must hold the whole timeline");
    render_timeline("drive-golden", &ring.drain())
}

#[test]
fn drive_golden_matches_checked_in_fixture() {
    assert_matches_golden("drive_golden.jsonl", &render_drive_golden());
}

/// Back-to-back renders agree byte-for-byte, so a golden mismatch always
/// means the code changed, never that the replay is nondeterministic.
#[test]
fn drive_golden_render_is_self_consistent() {
    assert_eq!(render_drive_golden(), render_drive_golden());
}

/// Same fixture, same seed → byte-identical reports across independent
/// sessions (the file loader introduces no hidden state).
#[test]
fn drive_replay_is_deterministic_per_fixture() {
    for (_, file, _) in FIXTURES {
        let run = || {
            let scenario =
                ScenarioConfig::from_drive_file(fixture_file(file)).expect("fixture loads");
            let (report, violations) = Session::new(session_cfg(scenario, 8, 42)).run_checked();
            assert!(violations.is_empty(), "{file}: {violations:?}");
            format!("{report:?}")
        };
        assert_eq!(run(), run(), "{file} replay must be deterministic");
    }
}
