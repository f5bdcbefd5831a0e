//! Shared experiment machinery: declarative experiment cells and the jobs
//! the sweep engine executes.
//!
//! A [`Cell`] is a fully declarative description of one experiment point
//! (scenario × scheduler × FEC × streams × CC coupling); a [`Job`] pins it
//! to a concrete duration and seed. Because the simulator is a pure
//! function of its configuration and seed, equal jobs produce identical
//! [`CallReport`](converge_sim::CallReport)s — which is what lets the
//! sweep engine ([`crate::sweep`]) fingerprint, dedup, and memoize them.

use std::sync::Arc;
use std::time::Instant;

use converge_net::{DriveTrace, QueueDiscipline, SimDuration};
use converge_sim::{
    ControllerKind, DriveFixture, FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind, Session,
    SessionConfig,
};
use converge_trace::{RingSink, TraceHandle, TraceRecord};

pub use crate::stats::{mean_std, metric, pm};
use crate::sweep::CachedRun;

/// Declarative scenario selector: a canonical, hashable description of the
/// network setup. Replaces the old `fn(SimDuration, u64) -> ScenarioConfig`
/// pointer so cells can be fingerprinted and memoized.
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
    /// ([`ScenarioConfig::multi_carrier`]).
    MultiCarrier {
        /// Path count, 4–8.
        paths: u8,
    },
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
        }
    }
}

/// One experiment cell: a scenario × system × stream-count combination
/// (plus the CC-coupling knob of the coupling ablation).
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
    pub fn new(
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
}

/// A unit of sweep work: one [`Cell`] at a concrete duration and seed.
/// The `Job` value itself is the canonical cell fingerprint the memo cache
/// keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The cell.
    pub cell: Cell,
    /// Call duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Job {
    /// Pins a cell to a duration and seed.
    pub fn new(cell: Cell, duration: SimDuration, seed: u64) -> Self {
        Job {
            cell,
            duration,
            seed,
        }
    }

    /// The canonical fingerprint (scenario, scheduler, FEC, streams,
    /// coupling, controller, duration, seed) rendered as text for logs.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{:?}|{:?}|s{}|cc{}|{}|d{}us|seed{}",
            self.cell.scenario.id(),
            self.cell.scheduler,
            self.cell.fec,
            self.cell.streams,
            self.cell.coupled_cc as u8,
            self.cell.controller.id(),
            self.duration.as_micros(),
            self.seed
        )
    }

    /// Simulated call seconds this job covers.
    pub fn sim_seconds(&self) -> f64 {
        self.duration.as_secs_f64()
    }

    /// The session config this job describes, with the given trace handle.
    fn config(&self, trace: TraceHandle) -> SessionConfig {
        SessionConfig::builder()
            .scenario(self.cell.scenario.build(self.duration, self.seed))
            .scheduler(self.cell.scheduler)
            .fec(self.cell.fec)
            .streams(self.cell.streams)
            .duration(self.duration)
            .seed(self.seed)
            .coupled_cc(self.cell.coupled_cc)
            .controller(self.cell.controller)
            .trace(trace)
            .build()
            .expect("job parameters form a valid session config")
    }

    /// Runs the simulation for this job, bypassing the memo cache, with
    /// the control-loop invariant checker armed (`Session::run_checked`)
    /// and, when `capture` is set, the full event timeline kept in a ring
    /// and handed back beside the run. The session is single-threaded and
    /// fully seeded, so the timeline is a pure function of the job —
    /// identical no matter how many sweep workers run around it.
    pub fn run(&self, capture: bool) -> (CachedRun, Option<Vec<TraceRecord>>) {
        let started = Instant::now();
        let ring = capture.then(|| Arc::new(RingSink::new(TRACE_RING_CAPACITY)));
        let trace = ring
            .clone()
            .map_or_else(TraceHandle::disabled, |ring| TraceHandle::new(ring));
        let (report, violations) = Session::new(self.config(trace)).run_checked();
        let run = CachedRun {
            report,
            exec_s: started.elapsed().as_secs_f64(),
            violations,
        };
        (run, ring.map(|ring| ring.drain()))
    }
}

/// Ring capacity for captured timelines: large enough that a 180 s call
/// never wraps (a full-scale job emits well under a million events).
const TRACE_RING_CAPACITY: usize = 1 << 21;

/// Experiment scale: full reproduces the paper's 3-minute calls; quick is
/// for smoke runs and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 180 s calls, 3 seeds.
    Full,
    /// 30 s calls, 2 seeds.
    Quick,
}

impl Scale {
    /// Call duration at this scale.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_secs(180),
            Scale::Quick => SimDuration::from_secs(30),
        }
    }

    /// Seeds to average over.
    pub fn seeds(self) -> &'static [u64] {
        match self {
            Scale::Full => &[11, 42, 77],
            Scale::Quick => &[11, 42],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellCache;

    fn clean_job(seed: u64) -> Job {
        let cell = Cell::new(
            ScenarioSpec::fec_tradeoff_pct(0.0),
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
        );
        Job::new(cell, SimDuration::from_secs(5), seed)
    }

    #[test]
    fn quick_scale_runs() {
        let run = CellCache::new().get_or_run(&clean_job(1));
        assert!(run.report.frames_decoded > 0);
    }

    #[test]
    fn run_seeds_parallel() {
        // Two seeds on two pool workers sharing one cache.
        let cache = CellCache::new();
        let (decoded, _) = converge_sim::pool::run(
            2,
            2,
            || (),
            |_, i| {
                cache
                    .get_or_run(&clean_job(i as u64 + 1))
                    .report
                    .frames_decoded
            },
        );
        assert!(decoded.iter().all(|&frames| frames > 0), "{decoded:?}");
        assert_eq!(cache.executed(), 2);
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
    }

    /// The job both run-path tests drive: a 10 s call on the `Flap` cell.
    fn flap_job() -> Job {
        let cell = Cell::new(
            ScenarioSpec::Chaos {
                kind: ImpairmentKind::Flap,
            },
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
        );
        Job::new(cell, SimDuration::from_secs(10), 11)
    }

    /// Capture on or off, the report is the same, and the captured
    /// timeline is non-empty and monotone.
    #[test]
    fn traced_run_matches_untraced_report_and_is_monotone() {
        let job = flap_job();
        let (captured, records) = job.run(true);
        let (uncaptured, none) = job.run(false);
        assert_eq!(
            format!("{:?}", captured.report),
            format!("{:?}", uncaptured.report)
        );
        let records = records.expect("capture was on");
        assert!(!records.is_empty());
        assert!(
            records.windows(2).all(|w| w[0].at <= w[1].at),
            "timeline must be monotone"
        );
        assert!(none.is_none());
    }

    /// The armed checker does not perturb the run: the report is the
    /// plain session's, and the checker is silent with capture on or off.
    #[test]
    fn checked_run_matches_traced_and_is_clean() {
        let job = flap_job();
        let plain = Session::new(job.config(TraceHandle::disabled())).run();
        for capture in [true, false] {
            let (run, records) = job.run(capture);
            assert_eq!(format!("{:?}", run.report), format!("{plain:?}"));
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            assert_eq!(records.is_some(), capture);
        }
    }

    #[test]
    fn distinct_jobs_have_distinct_fingerprints() {
        let cell = Cell::new(
            ScenarioSpec::Driving,
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
        );
        let d = SimDuration::from_secs(30);
        let a = Job::new(cell, d, 11);
        let b = Job::new(cell, d, 42);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), Job::new(cell, d, 11).fingerprint());
        let mut coupled = cell;
        coupled.coupled_cc = true;
        assert_ne!(Job::new(coupled, d, 11).fingerprint(), a.fingerprint());
        // The controller axis is part of the cell identity too.
        let nada = cell.with_controller(ControllerKind::Nada);
        assert_ne!(Job::new(nada, d, 11).fingerprint(), a.fingerprint());
    }
}
