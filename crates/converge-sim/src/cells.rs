//! The catalogue of named cells: every call and fleet shape that the
//! diagnostics (`alloc_sites`, `hot_lines`, `repair_timeline`), the
//! allocation budgets (`tests/alloc_budget.rs`) and the stability matrix
//! ([`crate::stability`]) run by name, defined once.
//!
//! The shapes are those of the paper's §6 evaluation — two 15 Mbit/s paths
//! at 0–10 % loss (Figs. 12–13), the chaos impairments — plus the 3- and
//! 8-path topologies and the SFU fleets beyond its 2–3 paths. A name is one
//! cell, a call or a fleet, built for any `(duration, seed)`; names that
//! differ in one setting stay distinct (`clean` is a Converge call, `clean1`
//! the single-path WebRTC baseline).

use converge_net::SimDuration;

use crate::SchedulerKind::{self, SinglePath};
use crate::{
    CallReport, FecKind, FleetConfig, FleetEngine, FleetReport, ImpairmentKind, ScenarioConfig,
    Session, SessionConfig,
};

/// One entry of the catalogue.
pub struct NamedCell {
    /// The name the tools take.
    pub name: &'static str,
    /// How long `hot_lines` runs the cell, simulated seconds.
    pub secs: u64,
    shape: Shape,
}

enum Shape {
    /// A network, a scheduler, an FEC policy and a number of streams.
    Call(Net, SchedulerKind, FecKind, u8),
    /// Sessions in SFU conferences of a size, on one shard (the pool runs
    /// it on the calling thread).
    Fleet(usize, usize),
}

/// A call's network at a seed (only a synthesized drive reads it).
type Net = fn(u64) -> ScenarioConfig;

/// Eight drives synthesized over a fixed 90 s at the run's seed, whatever
/// the run's length: a short and a long run see one network.
fn carrier8(seed: u64) -> ScenarioConfig {
    ScenarioConfig::multi_carrier(8, SimDuration::from_secs(90), seed)
}

/// A call under Converge's scheduler.
const fn converge(name: &'static str, secs: u64, net: Net, fec: FecKind, streams: u8) -> NamedCell {
    let shape = Shape::Call(net, SchedulerKind::Converge, fec, streams);
    NamedCell { name, secs, shape }
}

/// A fleet; `hot_lines` runs it for 10 s.
const fn fleet(name: &'static str, sessions: usize, size: usize) -> NamedCell {
    let (secs, shape) = (10, Shape::Fleet(sessions, size));
    NamedCell { name, secs, shape }
}

/// Every named cell. Two- and three-path calls run 180 s under `hot_lines`
/// (the benchmark's call length), the 8-path ones 90 s.
static CATALOGUE: [NamedCell; 18] = {
    // WebRTC's FEC table.
    use FecKind::{Converge, WebRtcTable as Table};
    use ImpairmentKind::{FeedbackLoss, Reorder};
    use ScenarioConfig as S;
    [
        converge("clean", 180, |_| S::fec_tradeoff(0.0), Converge, 1),
        NamedCell {
            name: "clean1",
            secs: 180,
            shape: Shape::Call(|_| S::fec_tradeoff(0.0), SinglePath(0), Table, 1),
        },
        converge("clean3", 180, |_| S::fec_tradeoff(0.0), Converge, 3),
        converge("loss2x2", 180, |_| S::fec_tradeoff(2.0), Converge, 2),
        converge("loss5", 180, |_| S::fec_tradeoff(5.0), Converge, 3),
        converge("loss10", 180, |_| S::fec_tradeoff(10.0), Converge, 3),
        converge("loss10x1", 180, |_| S::fec_tradeoff(10.0), Converge, 1),
        converge("loss10-table", 180, |_| S::fec_tradeoff(10.0), Table, 3),
        converge("reorder", 180, |_| S::chaos(Reorder), Converge, 1),
        converge("reorder3", 180, |_| S::chaos(Reorder), Converge, 3),
        converge("feedback3", 180, |_| S::chaos(FeedbackLoss), Converge, 3),
        converge("symmetric3", 180, |_| S::symmetric3(), Converge, 1),
        converge("constant8", 90, |_| S::constant8(), Converge, 3),
        converge("carrier8", 90, carrier8, Converge, 1),
        fleet("fleet", 128, 4),
        fleet("fleet8", 128, 8),
        fleet("fleet32x4", 32, 4),
        fleet("fleet32x8", 32, 8),
    ]
};

/// The entry named `name`.
pub fn find(name: &str) -> Option<&'static NamedCell> {
    CATALOGUE.iter().find(|c| c.name == name)
}

/// The cell named `name`, `duration` long, at `seed`; `None` for an
/// unknown name.
pub fn cell(name: &str, duration: SimDuration, seed: u64) -> Option<Cell> {
    find(name).map(|c| c.cell(duration, seed))
}

/// The catalogue's names, space-separated, for a tool's usage line;
/// without the fleets unless `fleets`.
pub fn names(fleets: bool) -> String {
    let named = CATALOGUE.iter().filter(|c| fleets || !c.is_fleet());
    named.map(|c| c.name).collect::<Vec<_>>().join(" ")
}

impl NamedCell {
    /// Whether the name stands for a fleet rather than one call.
    pub fn is_fleet(&self) -> bool {
        matches!(self.shape, Shape::Fleet(..))
    }

    /// The cell, `duration` long, at `seed`.
    pub fn cell(&self, duration: SimDuration, seed: u64) -> Cell {
        match self.shape {
            Shape::Call(net, scheduler, fec, streams) => {
                let build = SessionConfig::paper_default;
                Cell::Call(build(net(seed), scheduler, fec, streams, duration, seed))
            }
            Shape::Fleet(sessions, size) => {
                let mut config = FleetConfig::new(sessions, size);
                (config.duration, config.seed) = (duration, seed);
                Cell::Fleet(config)
            }
        }
    }
}

/// A named cell, built and ready to run.
pub enum Cell {
    /// One call.
    Call(SessionConfig),
    /// A fleet of conferences.
    Fleet(FleetConfig),
}

impl Cell {
    /// Runs the cell to completion.
    pub fn run(self) -> Outcome {
        match self {
            Cell::Call(config) => Outcome::Call(Session::new(config).run()),
            Cell::Fleet(config) => Outcome::Fleet(FleetEngine::new(config).run()),
        }
    }
}

/// What running a [`Cell`] returns.
pub enum Outcome {
    /// The call's report.
    Call(CallReport),
    /// The fleet's report.
    Fleet(FleetReport),
}

impl Outcome {
    /// Decoded frames per second per stream: the call's, or the mean over
    /// the fleet's members.
    pub fn fps(&self) -> f64 {
        match self {
            Outcome::Call(report) => report.fps_per_stream(),
            Outcome::Fleet(report) => {
                let members = report.conferences.iter().flat_map(|c| &c.sessions);
                members.map(|s| s.fps).sum::<f64>() / report.sessions as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_runs_checked_and_no_other_does() {
        for named in &CATALOGUE {
            let name = named.name;
            assert!(
                std::ptr::eq(find(name).unwrap(), named),
                "{name} is listed twice"
            );
            match named.cell(SimDuration::from_secs(1), 11) {
                Cell::Call(config) => {
                    let (report, violations) = Session::new(config).run_checked();
                    assert!(violations.is_empty(), "{name}: {violations:?}");
                    assert!(report.frames_decoded > 0, "{name} decoded nothing");
                }
                Cell::Fleet(mut config) => {
                    assert_eq!(config.shards, 1, "{name} runs on the calling thread");
                    config.check_invariants = true;
                    let outcome = Cell::Fleet(config).run();
                    assert!(matches!(&outcome, Outcome::Fleet(r) if r.violations == 0));
                    assert!(outcome.fps() > 0.0, "{name} decoded nothing");
                }
            }
        }
        assert!(cell("clean2", SimDuration::from_secs(1), 11).is_none());
        let calls = names(false);
        assert!(calls.split(' ').all(|n| !find(n).unwrap().is_fleet()));
        assert_eq!(names(true).split(' ').count(), CATALOGUE.len());
    }
}
