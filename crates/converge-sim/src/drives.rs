//! The committed drive-fixture library.
//!
//! Three synthetic multi-path drive captures (JSONL, embedded at compile
//! time from `tests/tests/fixtures/drives/`) model the cellular dynamics
//! the paper's real T-Mobile/Verizon drives exhibit: staggered coverage
//! gaps, an inter-carrier handover, and a blackout-plus-flap segment —
//! over 4, 6, and 8 path topologies respectively. [`DriveFixture`] is
//! `Copy + Eq + Hash` so benchmark cells replaying a fixture stay
//! fingerprintable and memoizable.

use crate::scenarios::ScenarioConfig;

/// One committed drive fixture, selectable by value (hashable — used in
/// bench cell fingerprints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DriveFixture {
    /// 4 paths, 60 s: WiFi + two cellular carriers with staggered coverage
    /// gaps + GEO satellite.
    CoverageGaps,
    /// 6 paths, 60 s: carrier A fades out while carrier B fades in (OWD
    /// spikes at the crossover), plus WiFi/LEO/background cellular.
    Handover,
    /// 8 paths, 60 s: one hard blackout, one flapping path, and a mixed
    /// WiFi/cellular/satellite backdrop.
    BlackoutFlap,
}

impl DriveFixture {
    /// Every committed fixture.
    pub const ALL: [DriveFixture; 3] = [
        DriveFixture::CoverageGaps,
        DriveFixture::Handover,
        DriveFixture::BlackoutFlap,
    ];

    /// Short stable identifier used in scenario names and cache keys.
    pub fn id(&self) -> &'static str {
        match self {
            DriveFixture::CoverageGaps => "coverage-gaps",
            DriveFixture::Handover => "handover",
            DriveFixture::BlackoutFlap => "blackout-flap",
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            DriveFixture::CoverageGaps => "staggered coverage gaps",
            DriveFixture::Handover => "inter-carrier handover",
            DriveFixture::BlackoutFlap => "blackout + flap",
        }
    }

    /// Paths in the fixture's topology.
    pub fn path_count(&self) -> usize {
        match self {
            DriveFixture::CoverageGaps => 4,
            DriveFixture::Handover => 6,
            DriveFixture::BlackoutFlap => 8,
        }
    }

    /// The fixture's raw JSONL, embedded at compile time. The same bytes
    /// live on disk for file-driven workflows
    /// (`tests/tests/fixtures/drives/<name>.jsonl`).
    pub fn jsonl(&self) -> &'static str {
        match self {
            DriveFixture::CoverageGaps => {
                include_str!("../../../tests/tests/fixtures/drives/coverage_gaps.jsonl")
            }
            DriveFixture::Handover => {
                include_str!("../../../tests/tests/fixtures/drives/handover.jsonl")
            }
            DriveFixture::BlackoutFlap => {
                include_str!("../../../tests/tests/fixtures/drives/blackout_flap.jsonl")
            }
        }
    }

    /// Builds the replay scenario for this fixture.
    pub fn scenario(&self) -> ScenarioConfig {
        let mut scenario =
            ScenarioConfig::from_drive_str(self.jsonl()).expect("committed drive fixtures parse");
        scenario.name = format!("drive-{}", self.id());
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_net::SimTime;

    #[test]
    fn every_fixture_parses_to_its_topology() {
        for fixture in DriveFixture::ALL {
            let scenario = fixture.scenario();
            assert_eq!(
                scenario.paths.len(),
                fixture.path_count(),
                "{}",
                fixture.id()
            );
            assert_eq!(scenario.name, format!("drive-{}", fixture.id()));
            for (i, path) in scenario.paths.iter().enumerate() {
                // 60 s captures: the final hold segment starts at 60 s.
                let end = path.trace.end();
                assert_eq!(end, SimTime::from_secs(60), "{} path {i}", fixture.id());
            }
        }
    }

    #[test]
    fn fixtures_model_their_named_dynamics() {
        // Coverage gaps: WiFi (path 0) dies mid-drive and recovers.
        let gaps = DriveFixture::CoverageGaps.scenario();
        let wifi = &gaps.paths[0].trace;
        assert!(wifi.rate_at(SimTime::from_secs(30)) < 1_000_000);
        assert!(wifi.rate_at(SimTime::from_secs(50)) > 20_000_000);

        // Handover: carrier A (path 0) hands off to carrier B (path 1).
        let handover = DriveFixture::Handover.scenario();
        let a = &handover.paths[0].trace;
        let b = &handover.paths[1].trace;
        assert!(a.rate_at(SimTime::from_secs(5)) > 10 * b.rate_at(SimTime::from_secs(5)));
        assert!(b.rate_at(SimTime::from_secs(55)) > 10 * a.rate_at(SimTime::from_secs(55)));

        // Blackout-flap: path 2 goes fully dark at 15-23 s, path 5 flaps.
        let bf = DriveFixture::BlackoutFlap.scenario();
        let dark = &bf.paths[2].trace;
        assert_eq!(dark.rate_at(SimTime::from_secs(18)), 0);
        assert!(dark.rate_at(SimTime::from_secs(30)) > 10_000_000);
        let flap = &bf.paths[5].trace;
        assert_eq!(flap.rate_at(SimTime::from_secs(25)), 0);
        assert!(flap.rate_at(SimTime::from_secs(29)) > 5_000_000);
    }
}
