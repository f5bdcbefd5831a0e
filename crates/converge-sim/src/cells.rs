//! One cell language: the declarative [`Cell`] every experiment, sweep job
//! and named diagnostic cell is written in, and the catalogue of named
//! cells that the diagnostics (`alloc_sites`, `hot_lines`, converge-bench's
//! `experiments explain`), the allocation budgets
//! (`tests/alloc_budget.rs`) and the stability matrix
//! ([`crate::stability`]) run by name.
//!
//! A [`Cell`] is scenario × scheduler × FEC × streams × CC coupling ×
//! controller, every field hashable, so a sweep can fingerprint and
//! memoize it; [`Cell::config`] is the one place it becomes a
//! [`SessionConfig`], for a `(duration, seed)`.
//!
//! The catalogue's shapes are those of the paper's §6 evaluation — two
//! 15 Mbit/s paths at 0–10 % loss (Figs. 12–13), the Fig. 11 feedback
//! ablation with and without its QoE feedback (`fig11`, `fig11-nofb`), the
//! chaos impairments — plus the 3- and 8-path topologies and the SFU
//! fleets beyond its 2–3 paths. A name is one shape, a call [`Cell`] or a fleet; names that
//! differ in one setting stay distinct (`clean` is a Converge call,
//! `clean1` the single-path WebRTC baseline).

use converge_net::{DriveTrace, QueueDiscipline, SimDuration};

use crate::{
    CallReport, ControllerKind, DriveFixture, FecKind, FleetConfig, FleetEngine, FleetReport,
    ImpairmentKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};

/// Declarative scenario selector: a canonical, hashable description of the
/// network setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioSpec {
    /// §6.1 walking: WiFi + "T-Mobile"-like cellular.
    Walking,
    /// §6.1 driving: two cellular carriers.
    Driving,
    /// Appendix A stationary: stable WiFi + cellular.
    Stationary,
    /// Fig. 11 path-collapse scenario (path 2 dips between 30 s and 90 s).
    FeedbackBenefit,
    /// Figs. 12/13 and Table 5: two 15 Mbps / 100 ms RTT paths with random
    /// loss, stored in milli-percent so the cell stays hashable
    /// (`3_000` = 3 % loss).
    FecTradeoff {
        /// Loss rate in thousandths of a percent.
        loss_milli_pct: u32,
    },
    /// The AQM ablation's network: two constant 10 Mbps / 40 ms paths
    /// under either drop-tail or CoDel.
    AqmTuned {
        /// Run CoDel instead of drop-tail at the bottleneck.
        codel: bool,
    },
    /// The fault-injection matrix: a clean reference path plus a path
    /// carrying one named impairment.
    Chaos {
        /// Which fault path 1 carries.
        kind: ImpairmentKind,
    },
    /// Replays a committed multi-path drive fixture (4–8 paths of
    /// rate/OWD/loss captures). The fixture enum keeps the cell hashable;
    /// the capture itself is embedded at compile time.
    Drive {
        /// Which committed fixture to replay.
        fixture: DriveFixture,
    },
    /// The 4–8 path mixed WiFi/cellular/satellite topology
    /// ([`ScenarioConfig::multi_carrier`]), synthesized over the run's
    /// length.
    MultiCarrier {
        /// Path count, 4–8.
        paths: u8,
    },
    /// Three lossless paths ([`ScenarioConfig::symmetric3`]).
    Symmetric3,
    /// Eight lossless constant paths ([`ScenarioConfig::constant8`]).
    Constant8,
    /// Eight multi-carrier drives synthesized over a fixed 90 s at the
    /// run's seed, whatever the run's length: a short and a long run see
    /// one network.
    Carrier8,
}

impl ScenarioSpec {
    /// `FecTradeoff` from a percent loss rate (e.g. `3.0` for 3 %).
    pub fn fec_tradeoff_pct(loss_pct: f64) -> Self {
        ScenarioSpec::FecTradeoff {
            loss_milli_pct: (loss_pct * 1_000.0).round() as u32,
        }
    }

    /// Canonical identifier used in job fingerprints.
    pub fn id(self) -> String {
        match self {
            ScenarioSpec::Walking => "walking".into(),
            ScenarioSpec::Driving => "driving".into(),
            ScenarioSpec::Stationary => "stationary".into(),
            ScenarioSpec::FeedbackBenefit => "feedback-benefit".into(),
            ScenarioSpec::FecTradeoff { loss_milli_pct } => {
                format!("fec-tradeoff-{loss_milli_pct}mpct")
            }
            ScenarioSpec::AqmTuned { codel } => {
                format!("aqm-{}", if codel { "codel" } else { "drop-tail" })
            }
            ScenarioSpec::Chaos { kind } => format!("chaos-{}", kind.id()),
            ScenarioSpec::Drive { fixture } => format!("drive-{}", fixture.id()),
            ScenarioSpec::MultiCarrier { paths } => format!("multi-carrier-{paths}"),
            ScenarioSpec::Symmetric3 => "symmetric3".into(),
            ScenarioSpec::Constant8 => "constant8".into(),
            ScenarioSpec::Carrier8 => "carrier8-90s".into(),
        }
    }

    /// Builds the concrete scenario for a `(duration, seed)`.
    pub fn build(self, duration: SimDuration, seed: u64) -> ScenarioConfig {
        match self {
            ScenarioSpec::Walking => ScenarioConfig::walking(duration, seed),
            ScenarioSpec::Driving => ScenarioConfig::driving(duration, seed),
            ScenarioSpec::Stationary => ScenarioConfig::stationary(duration, seed),
            ScenarioSpec::FeedbackBenefit => ScenarioConfig::feedback_benefit(duration, seed),
            ScenarioSpec::FecTradeoff { loss_milli_pct } => {
                ScenarioConfig::fec_tradeoff(loss_milli_pct as f64 / 1_000.0)
            }
            ScenarioSpec::AqmTuned { codel } => {
                let discipline = if codel {
                    QueueDiscipline::Codel
                } else {
                    QueueDiscipline::DropTail
                };
                let mut scenario = ScenarioConfig::fec_tradeoff(0.0);
                for p in &mut scenario.paths {
                    p.trace = DriveTrace::constant(10_000_000, SimDuration::from_millis(40));
                    p.discipline = discipline.clone();
                }
                scenario
            }
            ScenarioSpec::Chaos { kind } => ScenarioConfig::chaos(kind),
            ScenarioSpec::Drive { fixture } => fixture.scenario(),
            ScenarioSpec::MultiCarrier { paths } => {
                ScenarioConfig::multi_carrier(paths as usize, duration, seed)
            }
            ScenarioSpec::Symmetric3 => ScenarioConfig::symmetric3(),
            ScenarioSpec::Constant8 => ScenarioConfig::constant8(),
            ScenarioSpec::Carrier8 => {
                ScenarioConfig::multi_carrier(8, SimDuration::from_secs(90), seed)
            }
        }
    }
}

/// One experiment cell: a scenario × system × stream-count combination
/// (plus the CC-coupling knob of the coupling ablation and the per-path
/// controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Network scenario.
    pub scenario: ScenarioSpec,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// FEC policy under test.
    pub fec: FecKind,
    /// Camera streams.
    pub streams: u8,
    /// LIA-style coupled congestion control (the coupling ablation);
    /// `false` everywhere else, matching the paper.
    pub coupled_cc: bool,
    /// Per-path congestion-control algorithm (GCC everywhere except the
    /// controller shootout).
    pub controller: ControllerKind,
}

impl Cell {
    /// A cell with the paper's default (uncoupled GCC) congestion control.
    pub const fn new(
        scenario: ScenarioSpec,
        scheduler: SchedulerKind,
        fec: FecKind,
        streams: u8,
    ) -> Self {
        Cell {
            scenario,
            scheduler,
            fec,
            streams,
            coupled_cc: false,
            controller: ControllerKind::Gcc,
        }
    }

    /// One of the paper's systems: Converge runs its own FEC controller,
    /// every baseline scheduler WebRTC's static table.
    pub fn system(scenario: ScenarioSpec, scheduler: SchedulerKind, streams: u8) -> Self {
        let fec = match scheduler {
            SchedulerKind::Converge => FecKind::Converge,
            _ => FecKind::WebRtcTable,
        };
        Cell::new(scenario, scheduler, fec, streams)
    }

    /// The same cell under a different congestion controller.
    pub fn with_controller(mut self, controller: ControllerKind) -> Self {
        self.controller = controller;
        self
    }

    /// The session this cell describes, `duration` long at `seed`, with
    /// tracing off.
    pub fn config(&self, duration: SimDuration, seed: u64) -> SessionConfig {
        SessionConfig::builder()
            .scenario(self.scenario.build(duration, seed))
            .scheduler(self.scheduler)
            .fec(self.fec)
            .streams(self.streams)
            .duration(duration)
            .seed(seed)
            .coupled_cc(self.coupled_cc)
            .controller(self.controller)
            .build()
            .expect("a cell forms a valid session config")
    }
}

/// What a catalogue name stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One call.
    Call(Cell),
    /// `(sessions, conference size)`: sessions in SFU conferences of a
    /// size, on one shard (the pool runs it on the calling thread).
    Fleet(usize, usize),
}

impl Shape {
    /// Whether the shape is a fleet rather than one call.
    pub fn is_fleet(&self) -> bool {
        matches!(self, Shape::Fleet(..))
    }

    /// The shape, `duration` long, at `seed`, built and ready to run.
    pub fn build(&self, duration: SimDuration, seed: u64) -> Built {
        match *self {
            Shape::Call(cell) => Built::Call(cell.config(duration, seed)),
            Shape::Fleet(sessions, size) => {
                let mut config = FleetConfig::new(sessions, size);
                (config.duration, config.seed) = (duration, seed);
                Built::Fleet(config)
            }
        }
    }
}

/// Every named cell as `(name, secs, shape)`, where `secs` is how long
/// `hot_lines` runs it: two- and three-path calls 180 s (the benchmark's
/// call length), the 8-path ones 90 s, fleets 10 s.
#[rustfmt::skip]
pub static CATALOGUE: [(&str, u64, Shape); 20] = {
    use FecKind::{Converge as Fec, WebRtcTable as Table};
    use ImpairmentKind::{FeedbackLoss, Reorder};
    use ScenarioSpec::{Carrier8, Chaos, Constant8, FecTradeoff, FeedbackBenefit, Symmetric3};
    use SchedulerKind::{Converge, ConvergeNoFeedback, SinglePath};
    use Shape::{Call, Fleet};
    const fn loss(pct: u32) -> ScenarioSpec { FecTradeoff { loss_milli_pct: pct * 1_000 } }
    [
        ("clean", 180, Call(Cell::new(loss(0), Converge, Fec, 1))),
        ("clean1", 180, Call(Cell::new(loss(0), SinglePath(0), Table, 1))),
        ("clean3", 180, Call(Cell::new(loss(0), Converge, Fec, 3))),
        ("loss2x2", 180, Call(Cell::new(loss(2), Converge, Fec, 2))),
        ("loss5", 180, Call(Cell::new(loss(5), Converge, Fec, 3))),
        ("loss10", 180, Call(Cell::new(loss(10), Converge, Fec, 3))),
        ("loss10x1", 180, Call(Cell::new(loss(10), Converge, Fec, 1))),
        ("loss10-table", 180, Call(Cell::new(loss(10), Converge, Table, 3))),
        ("reorder", 180, Call(Cell::new(Chaos { kind: Reorder }, Converge, Fec, 1))),
        ("reorder3", 180, Call(Cell::new(Chaos { kind: Reorder }, Converge, Fec, 3))),
        ("feedback3", 180, Call(Cell::new(Chaos { kind: FeedbackLoss }, Converge, Fec, 3))),
        ("symmetric3", 180, Call(Cell::new(Symmetric3, Converge, Fec, 1))),
        ("constant8", 90, Call(Cell::new(Constant8, Converge, Fec, 3))),
        ("carrier8", 90, Call(Cell::new(Carrier8, Converge, Fec, 1))),
        ("fig11", 180, Call(Cell::new(FeedbackBenefit, Converge, Fec, 1))),
        ("fig11-nofb", 180, Call(Cell::new(FeedbackBenefit, ConvergeNoFeedback, Fec, 1))),
        ("fleet", 10, Fleet(128, 4)),
        ("fleet8", 10, Fleet(128, 8)),
        ("fleet32x4", 10, Fleet(32, 4)),
        ("fleet32x8", 10, Fleet(32, 8)),
    ]
};

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static (&'static str, u64, Shape)> {
    CATALOGUE.iter().find(|(n, ..)| *n == name)
}

/// The shape named `name`, `duration` long, at `seed`, built; `None` for
/// an unknown name.
pub fn build(name: &str, duration: SimDuration, seed: u64) -> Option<Built> {
    find(name).map(|(_, _, shape)| shape.build(duration, seed))
}

/// The catalogue's names, space-separated, for a tool's usage line;
/// without the fleets unless `fleets`.
pub fn names(fleets: bool) -> String {
    let named = CATALOGUE.iter().filter(|(_, _, s)| fleets || !s.is_fleet());
    named.map(|(n, ..)| *n).collect::<Vec<_>>().join(" ")
}

/// A tool's seconds argument: a positive whole number of seconds that a
/// [`SimDuration`] can hold, `None` for anything else.
pub fn secs(arg: &str) -> Option<u64> {
    let max = SimDuration::MAX.as_micros() / 1_000_000;
    arg.parse().ok().filter(|s| (1..=max).contains(s))
}

/// A shape, built and ready to run.
pub enum Built {
    /// One call.
    Call(SessionConfig),
    /// A fleet of conferences.
    Fleet(FleetConfig),
}

impl Built {
    /// Runs the shape to completion.
    pub fn run(self) -> Outcome {
        match self {
            Built::Call(config) => Outcome::Call(Session::new(config).run()),
            Built::Fleet(config) => Outcome::Fleet(FleetEngine::new(config).run()),
        }
    }
}

/// What running a [`Built`] shape returns.
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
        for row in &CATALOGUE {
            let (name, _, shape) = row;
            assert!(
                std::ptr::eq(find(name).unwrap(), row),
                "{name} is listed twice"
            );
            match shape.build(SimDuration::from_secs(1), 11) {
                Built::Call(config) => {
                    let (report, violations) = Session::new(config).run_checked();
                    assert!(violations.is_empty(), "{name}: {violations:?}");
                    assert!(report.frames_decoded > 0, "{name} decoded nothing");
                }
                Built::Fleet(mut config) => {
                    assert_eq!(config.shards, 1, "{name} runs on the calling thread");
                    config.check_invariants = true;
                    let outcome = Built::Fleet(config).run();
                    assert!(matches!(&outcome, Outcome::Fleet(r) if r.violations == 0));
                    assert!(outcome.fps() > 0.0, "{name} decoded nothing");
                }
            }
            // Two names for one shape would be one cell under two names.
            let twins = CATALOGUE.iter().filter(|(.., s)| s == shape).count();
            assert_eq!(twins, 1, "{name} shares its shape with another row");
        }
        assert!(build("clean2", SimDuration::from_secs(1), 11).is_none());
        let calls = names(false);
        assert!(calls.split(' ').all(|n| !find(n).unwrap().2.is_fleet()));
        assert_eq!(names(true).split(' ').count(), CATALOGUE.len());
    }

    #[test]
    fn scenario_specs_build_and_fingerprint() {
        let d = SimDuration::from_secs(10);
        for spec in [
            ScenarioSpec::Walking,
            ScenarioSpec::Driving,
            ScenarioSpec::Stationary,
            ScenarioSpec::FeedbackBenefit,
            ScenarioSpec::fec_tradeoff_pct(3.0),
            ScenarioSpec::AqmTuned { codel: true },
            ScenarioSpec::Chaos {
                kind: ImpairmentKind::Blackout,
            },
        ] {
            let scenario = spec.build(d, 1);
            assert_eq!(scenario.paths.len(), 2, "{}", spec.id());
            assert!(!spec.id().is_empty());
        }
        // Milli-percent preserves the sweep's fractional loss rates exactly.
        assert_eq!(
            ScenarioSpec::fec_tradeoff_pct(3.0),
            ScenarioSpec::FecTradeoff {
                loss_milli_pct: 3_000
            }
        );
    }

    #[test]
    fn wide_scenario_specs_build_their_full_topologies() {
        let d = SimDuration::from_secs(10);
        for fixture in DriveFixture::ALL {
            let spec = ScenarioSpec::Drive { fixture };
            assert_eq!(spec.build(d, 1).paths.len(), fixture.path_count());
            assert_eq!(spec.id(), format!("drive-{}", fixture.id()));
        }
        for paths in 4..=8u8 {
            let spec = ScenarioSpec::MultiCarrier { paths };
            assert_eq!(spec.build(d, 1).paths.len(), paths as usize);
            assert_eq!(spec.id(), format!("multi-carrier-{paths}"));
        }
        let fixed = [ScenarioSpec::Symmetric3, ScenarioSpec::Constant8];
        for (spec, paths) in fixed.into_iter().zip([3, 8]) {
            assert_eq!(spec.build(d, 1).paths.len(), paths, "{}", spec.id());
        }
        // `Carrier8` synthesizes 90 s whatever the run's length;
        // `MultiCarrier` synthesizes the run's length.
        let carrier8 = |secs| {
            format!(
                "{:?}",
                ScenarioSpec::Carrier8.build(SimDuration::from_secs(secs), 1)
            )
        };
        assert_eq!(carrier8(10), carrier8(180));
        let eight = ScenarioSpec::MultiCarrier { paths: 8 };
        assert_eq!(
            format!("{:?}", eight.build(SimDuration::from_secs(90), 1)),
            carrier8(10)
        );
        assert_ne!(format!("{:?}", eight.build(d, 1)), carrier8(10));
    }

    #[test]
    fn seconds_arguments_are_positive_and_fit_a_duration() {
        assert_eq!(secs("30"), Some(30));
        assert_eq!(secs("18446744073709"), Some(18_446_744_073_709));
        for bad in ["0", "-1", "x", "", "18446744073710", "99999999999999999999"] {
            assert_eq!(secs(bad), None, "{bad:?}");
        }
    }
}
