//! The chaos matrix — every multipath scheduler crossed with every named
//! fault, over several seeds. Not a figure from the paper: this is the
//! adversarial counterpart to §5's claims, checking that the control loop
//! *survives* (calls complete, finite freeze ratios, no invariant
//! violations) under carrier blackouts, handover flaps, reordering,
//! duplication, and feedback starvation. Run with `--check-invariants` to
//! replay every timeline through the [`converge_trace::InvariantSink`]
//! rules and fail on any violation.

use converge_sim::{FecKind, ImpairmentKind, SchedulerKind};

use crate::runner::{metric, pm, Cell, Job, Scale, ScenarioSpec};
use crate::sweep::{ExperimentSpec, Reports};

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
pub fn spec(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for scheduler in SCHEDULERS {
        for kind in ImpairmentKind::ALL {
            for &seed in scale.seeds() {
                jobs.push(Job::new(
                    chaos_cell(scheduler, kind),
                    scale.duration(),
                    seed,
                ));
            }
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Chaos matrix — QoE under fault injection\n");
            out.push_str(&format!(
                "{:<10} {:<10} {:>12} {:>12} {:>14} {:>12}\n",
                "#sched", "fault", "fps", "freeze_%", "frames", "e2e_ms"
            ));
            for scheduler in SCHEDULERS {
                for kind in ImpairmentKind::ALL {
                    let reports = r.take(scale.seeds().len());
                    // Survival floor: every call decodes something and
                    // freeze ratios stay finite.
                    for rep in reports {
                        assert!(
                            rep.frames_decoded > 0,
                            "{scheduler:?}/{} decoded nothing",
                            kind.id()
                        );
                        assert!(
                            rep.freeze_ratio_pct().is_finite(),
                            "{scheduler:?}/{} freeze ratio not finite",
                            kind.id()
                        );
                    }
                    out.push_str(&format!(
                        "{:<10} {:<10} {:>12} {:>12} {:>14} {:>12}\n",
                        format!("{scheduler:?}"),
                        kind.id(),
                        pm(&metric(reports, |r| r.fps), 1),
                        pm(&metric(reports, |r| r.freeze_ratio_pct()), 2),
                        pm(&metric(reports, |r| r.frames_decoded as f64), 0),
                        pm(&metric(reports, |r| r.e2e_mean_ms), 0),
                    ));
                }
                out.push('\n');
            }
            out.push_str("# expected shape: all calls survive every fault; Converge degrades\n");
            out.push_str("# most gracefully (blackout/flap cost frames, never the call).\n");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (report, _records, violations) = job.run_checked();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(report.frames_decoded > 0);
    }
}
