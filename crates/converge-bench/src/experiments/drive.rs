//! Drive replay — the committed multi-path drive fixtures
//! ([`DriveFixture`]) replayed through the full stack: every fixture ×
//! scheduler × congestion controller × seed. The fold reports QoE plus
//! the per-path byte split, which is where the 4–8 path topologies show
//! their character (a scheduler that keeps load on a path through its
//! coverage gap shows up directly in the utilization column).

use converge_sim::{ControllerKind, DriveFixture, FecKind, SchedulerKind};

use super::gate_seeds;
use super::table::Table;
use crate::runner::{Cell, Scale, ScenarioSpec};
use crate::sweep::ExperimentSpec;

/// The scheduler axis: Converge vs the two strongest multipath baselines.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Converge,
    SchedulerKind::Srtt,
    SchedulerKind::MTput,
];

fn drive_cell(fixture: DriveFixture, scheduler: SchedulerKind, controller: ControllerKind) -> Cell {
    Cell::new(
        ScenarioSpec::Drive { fixture },
        scheduler,
        FecKind::Converge,
        1,
    )
    .with_controller(controller)
}

/// The fixtures are 60 s captures: full scale replays them end to end,
/// quick scale stops at the generic smoke duration (30 s, which still
/// crosses the first coverage gap, the handover midpoint, and the
/// blackout window of every fixture).
fn duration(scale: Scale) -> converge_net::SimDuration {
    match scale {
        Scale::Full => converge_net::SimDuration::from_secs(60),
        Scale::Quick => Scale::Quick.duration(),
    }
}

/// Formats each path's share of total sent bytes as `p0/p1/…` percents.
fn utilization_split(reports: &[&converge_sim::CallReport]) -> String {
    let paths = reports
        .iter()
        .map(|r| r.paths.len())
        .max()
        .unwrap_or_default();
    let mut shares = vec![0.0f64; paths];
    for report in reports {
        let total: u64 = report.paths.values().map(|p| p.bytes_sent).sum();
        if total == 0 {
            continue;
        }
        for (i, counters) in report.paths.values().enumerate() {
            shares[i] += counters.bytes_sent as f64 / total as f64 / reports.len() as f64;
        }
    }
    shares
        .iter()
        .map(|s| format!("{:.0}", s * 100.0))
        .collect::<Vec<_>>()
        .join("/")
}

/// Head of the first column: how the fold below tells the header line from
/// the `# …` comment lines around the rows.
const FIXTURE_HEAD: &str = "#fixture";

/// Declares the replay matrix: fixture × scheduler × controller × seed.
/// The fold wraps the table's: `util_pct` is a text over a row's reports,
/// not a mean, so it is appended to the header and to each row's line.
pub fn spec(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new(
        "# Drive replay — committed 4-8 path drive fixtures through\n\
         # scheduler x controller; util = per-path share of sent bytes",
    )
    .label(FIXTURE_HEAD, 14)
    .label("sched", 8)
    .label("ctrl", 6)
    .mean("norm_tput", 10, 2, |r| r.normalized_throughput())
    .mean("norm_fps", 9, 2, |r| r.normalized_fps())
    .mean("stall_ms", 9, 0, |r| r.avg_freeze_ms())
    .mean("e2e_ms", 8, 0, |r| r.e2e_mean_ms)
    .note("# expected shape: Converge routes around the coverage gaps and")
    .note("# the blackout (util shifts off the dark path), SRTT chases the")
    .note("# low-OWD path, M-TPUT splits by rate and keeps satellite loaded.");
    for fixture in DriveFixture::ALL {
        for scheduler in SCHEDULERS {
            for controller in ControllerKind::ALL {
                let cell = drive_cell(fixture, scheduler, controller);
                table.row(
                    &[&fixture.id(), &scheduler.label(), &controller.label()],
                    cell,
                );
            }
        }
        table.gap();
    }
    let ExperimentSpec { jobs, fold } = table.spec(gate_seeds(scale), duration(scale));
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut rows = reports.chunks(gate_seeds(scale).len());
            let mut out = String::new();
            for line in fold(reports).lines() {
                out.push_str(line);
                if line.starts_with(FIXTURE_HEAD) {
                    out.push_str("  util_pct");
                } else if !line.is_empty() && !line.starts_with('#') {
                    let row = rows.next().expect("one row of reports per printed row");
                    out.push_str("  ");
                    out.push_str(&utilization_split(row));
                }
                out.push('\n');
            }
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use converge_net::SimDuration;

    /// The controller-shootout-over-a-drive satellite: every controller
    /// replays a fixture through the full loop with a clean invariant
    /// checker and actually decodes video on the far side.
    #[test]
    fn every_controller_replays_a_drive_clean() {
        for controller in ControllerKind::ALL {
            let job = Job::new(
                drive_cell(
                    DriveFixture::CoverageGaps,
                    SchedulerKind::Converge,
                    controller,
                ),
                SimDuration::from_secs(12),
                11,
            );
            let (run, _) = job.run(false);
            let violations = &run.violations;
            assert!(violations.is_empty(), "{}: {violations:?}", controller.id());
            assert!(
                run.report.frames_decoded > 100,
                "{}: {} frames",
                controller.id(),
                run.report.frames_decoded
            );
        }
    }

    /// Every fixture (4, 6, and 8 paths) runs invariant-clean and spreads
    /// bytes over more than one path.
    #[test]
    fn every_fixture_replays_clean_and_multipath() {
        for fixture in DriveFixture::ALL {
            let job = Job::new(
                drive_cell(fixture, SchedulerKind::Converge, ControllerKind::Gcc),
                SimDuration::from_secs(12),
                11,
            );
            let (run, _) = job.run(false);
            let (report, violations) = (&run.report, &run.violations);
            assert!(violations.is_empty(), "{}: {violations:?}", fixture.id());
            assert_eq!(report.paths.len(), fixture.path_count(), "{}", fixture.id());
            let active = report.paths.values().filter(|p| p.bytes_sent > 0).count();
            assert!(active > 1, "{}: {active} active paths", fixture.id());
        }
    }

    /// The determinism satellite: per-(fixture, controller) timelines are
    /// byte-identical whether the sweep ran on 1 worker or 4.
    #[test]
    fn drive_traces_are_byte_identical_across_worker_counts() {
        let jobs: Vec<Job> = DriveFixture::ALL
            .iter()
            .flat_map(|&fixture| {
                ControllerKind::ALL.iter().map(move |&controller| {
                    Job::new(
                        drive_cell(fixture, SchedulerKind::Converge, controller),
                        SimDuration::from_secs(5),
                        42,
                    )
                })
            })
            .collect();
        assert_eq!(
            crate::sweep::tests::traced_files(&jobs, 1),
            crate::sweep::tests::traced_files(&jobs, 4),
            "drive timelines must not depend on --jobs"
        );
    }

    #[test]
    fn spec_covers_the_full_matrix() {
        let spec = spec(Scale::Quick);
        // 3 fixtures × 3 schedulers × 3 controllers × 1 seed.
        assert_eq!(
            spec.jobs.len(),
            DriveFixture::ALL.len() * SCHEDULERS.len() * ControllerKind::ALL.len()
        );
        for fixture in DriveFixture::ALL {
            let id = format!("drive-{}", fixture.id());
            assert!(
                spec.jobs.iter().any(|j| j.cell.scenario.id() == id),
                "{id} missing from the drive matrix"
            );
        }
    }
}
