//! The chaos matrix — every multipath scheduler crossed with every named
//! fault, over several seeds. Not a figure from the paper: this is the
//! adversarial counterpart to §5's claims, checking that the control loop
//! *survives* (calls complete, finite freeze ratios, no invariant
//! violations) under carrier blackouts, handover flaps, reordering,
//! duplication, and feedback starvation. Like every sweep job, each call
//! runs with the [`converge_trace::InvariantSink`] rules armed, and the
//! `experiments` binary exits 1 on any violation.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{FecKind, ImpairmentKind, SchedulerKind};

use super::table::Table;
use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// The multipath schedulers of the matrix (single-path baselines are
/// excluded: pinning to the impaired path measures the fault, not the
/// control loop).
pub const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Converge,
    SchedulerKind::MRtp,
    SchedulerKind::MTput,
    SchedulerKind::Srtt,
];

fn chaos_cell(scheduler: SchedulerKind, kind: ImpairmentKind) -> Cell {
    Cell::new(
        ScenarioSpec::Chaos { kind },
        scheduler,
        FecKind::Converge,
        1,
    )
}

/// Declares the matrix: scheduler × impairment × every seed of the scale.
/// The fold wraps the table's: every call must clear the survival floor
/// (something decoded, a finite freeze ratio) before a row is printed.
pub fn spec(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Chaos matrix — QoE under fault injection")
        .label("#sched", 10)
        .label("fault", 10)
        .mean("fps", 12, 1, |r| r.fps)
        .mean("freeze_%", 12, 2, |r| r.freeze_ratio_pct())
        .mean("frames", 14, 0, |r| r.frames_decoded as f64)
        .mean("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
        .note("# expected shape: all calls survive every fault; Converge degrades")
        .note("# most gracefully (blackout/flap cost frames, never the call).");
    for scheduler in SCHEDULERS {
        for kind in ImpairmentKind::ALL {
            table.row(
                &[&format_args!("{scheduler:?}"), &kind.id()],
                chaos_cell(scheduler, kind),
            );
        }
        table.gap();
    }
    let ExperimentSpec { jobs, fold } = table.spec(scale.seeds(), scale.duration());
    let calls = jobs.clone();
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            for (job, rep) in calls.iter().zip(reports) {
                let (decoded, freeze) = (rep.frames_decoded, rep.freeze_ratio_pct());
                assert!(decoded > 0, "{} decoded nothing", job.fingerprint());
                assert!(freeze.is_finite(), "{} froze {freeze} %", job.fingerprint());
            }
            fold(reports)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;

    #[test]
    fn matrix_covers_all_cells() {
        let s = spec(Scale::Quick);
        assert_eq!(
            s.jobs.len(),
            SCHEDULERS.len() * ImpairmentKind::ALL.len() * Scale::Quick.seeds().len()
        );
        // Every job fingerprint is distinct — nothing collapses in the memo
        // cache by accident.
        let fps: std::collections::HashSet<String> =
            s.jobs.iter().map(|j| j.fingerprint()).collect();
        assert_eq!(fps.len(), s.jobs.len());
    }

    #[test]
    fn one_chaos_cell_survives_and_is_clean() {
        let job = Job::new(
            chaos_cell(SchedulerKind::Converge, ImpairmentKind::Blackout),
            converge_net::SimDuration::from_secs(20),
            11,
        );
        let run = job.run();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.report.frames_decoded > 0);
    }
}
