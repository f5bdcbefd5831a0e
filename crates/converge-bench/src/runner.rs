//! Shared experiment machinery: the jobs the sweep engine executes.
//!
//! A [`Job`] pins a declarative [`Cell`] (scenario × scheduler × FEC ×
//! streams × CC coupling × controller, from [`converge_sim::cells`]) to a
//! concrete duration and seed. Because the simulator is a pure function of
//! its configuration and seed, equal jobs produce identical
//! [`CallReport`](converge_sim::CallReport)s — which is what lets the
//! sweep engine ([`crate::sweep`]) fingerprint, dedup, and memoize them.

use std::time::Instant;

use converge_net::SimDuration;
use converge_sim::cells::Cell;
use converge_sim::Session;

use crate::sweep::CachedRun;

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

    /// Runs the simulation for this job, bypassing the memo cache, with
    /// the control-loop invariant checker armed (`Session::run_checked`):
    /// what the cache does with a job it has not run. `explain`'s
    /// [`run`](crate::explain::run) is the one run that keeps the timeline.
    pub fn run(&self) -> CachedRun {
        let started = Instant::now();
        let config = self.cell.config(self.duration, self.seed);
        let (report, violations) = Session::new(config).run_checked();
        CachedRun {
            report,
            exec_s: started.elapsed().as_secs_f64(),
            violations,
        }
    }
}

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
    use converge_sim::cells::{self, Outcome, ScenarioSpec, Shape};
    use converge_sim::{ControllerKind, FecKind, ImpairmentKind, SchedulerKind};

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

    /// A traced run reports what the cache's run reports, and its
    /// timeline is non-empty and monotone.
    #[test]
    fn traced_run_matches_untraced_report_and_is_monotone() {
        let job = flap_job();
        let traced = crate::explain::run(&job);
        assert_eq!(
            format!("{:?}", traced.report),
            format!("{:?}", job.run().report)
        );
        let records = &traced.records;
        assert!(!records.is_empty());
        assert!(
            records.windows(2).all(|w| w[0].at <= w[1].at),
            "timeline must be monotone"
        );
        assert_eq!(traced.evicted, 0);
    }

    /// The armed checker does not perturb the run: the report is the
    /// plain session's, and the checker is silent on the cache's run and
    /// on the traced one.
    #[test]
    fn checked_run_matches_traced_and_is_clean() {
        let job = flap_job();
        let plain = Session::new(job.cell.config(job.duration, job.seed)).run();
        let (run, traced) = (job.run(), crate::explain::run(&job));
        for (report, violations) in [
            (&run.report, &run.violations),
            (&traced.report, &traced.violations),
        ] {
            assert_eq!(format!("{report:?}"), format!("{plain:?}"));
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    /// Every call the catalogue names is a sweep job: memoized through
    /// the cache, it reports what running the catalogue row reports.
    #[test]
    fn named_calls_are_sweep_jobs() {
        let (d, cache) = (SimDuration::from_secs(1), CellCache::new());
        for (name, _, shape) in &cells::CATALOGUE {
            let Shape::Call(cell) = *shape else { continue };
            let Outcome::Call(named) = shape.build(d, 11).run() else {
                panic!("{name} is a call")
            };
            let run = cache.get_or_run(&Job::new(cell, d, 11));
            assert_eq!(format!("{:?}", run.report), format!("{named:?}"), "{name}");
        }
        let calls = cells::names(false).split(' ').count();
        assert_eq!(cache.executed() as usize, calls, "one job per named call");
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
