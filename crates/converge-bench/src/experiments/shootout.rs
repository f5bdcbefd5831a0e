//! Controller shootout — the congestion-control axis the paper fixes to
//! GCC, swept: every [`ControllerKind`] (GCC, NADA, mp-BBR) drives the
//! same calls through the full Converge scheduler/FEC loop, and the fold
//! compares the QoE each controller's rate dynamics produce.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{ControllerKind, FecKind, SchedulerKind};

use super::gate_seeds;
use super::table::Table;
use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

fn scenarios() -> [(&'static str, ScenarioSpec); 2] {
    [
        ("loss-2%", ScenarioSpec::fec_tradeoff_pct(2.0)),
        ("driving", ScenarioSpec::Driving),
    ]
}

fn shootout_cell(scenario: ScenarioSpec, controller: ControllerKind) -> Cell {
    Cell::new(scenario, SchedulerKind::Converge, FecKind::Converge, 1).with_controller(controller)
}

/// Declares the shootout: scenario × controller × seed.
pub fn spec(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new(
        "# Controller shootout — GCC vs NADA vs mp-BBR through the full\n\
         # Converge scheduler/FEC loop (same calls, same seeds)",
    )
    .label("#scenario", 10)
    .label("ctrl", 8)
    .mean("norm_tput", 12, 2, |r| r.normalized_throughput())
    .mean("norm_fps", 10, 2, |r| r.normalized_fps())
    .mean("avg_stall_ms", 14, 0, |r| r.avg_freeze_ms())
    .mean("e2e_ms", 10, 0, |r| r.e2e_mean_ms)
    .note("# expected shape: GCC (the paper's controller) sets the baseline;")
    .note("# NADA tracks it closely on steady loss, mp-BBR probes harder and")
    .note("# trades extra queuing delay for throughput on variable paths.");
    for (scenario_label, scenario) in scenarios() {
        for controller in ControllerKind::ALL {
            let cell = shootout_cell(scenario, controller);
            table.row(&[&scenario_label, &controller.label()], cell);
        }
        table.gap();
    }
    table.spec(gate_seeds(scale), scale.duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use converge_net::SimDuration;
    use converge_trace::TraceEvent;

    /// Acceptance gate: every controller drives the full scheduler/FEC
    /// loop with a clean invariant checker and leaves its rate events,
    /// tagged with its own algorithm, in the timeline: every controller
    /// traces through the one `cc_*` event family.
    #[test]
    fn every_controller_runs_clean_through_the_full_loop() {
        for controller in ControllerKind::ALL {
            let job = Job::new(
                shootout_cell(ScenarioSpec::fec_tradeoff_pct(2.0), controller),
                SimDuration::from_secs(10),
                11,
            );
            let traced = crate::explain::run(&job);
            let violations = &traced.violations;
            assert!(violations.is_empty(), "{}: {violations:?}", controller.id());
            assert!(
                traced.report.frames_decoded > 100,
                "{}: {} frames",
                controller.id(),
                traced.report.frames_decoded
            );
            let events = traced.records.iter().map(|rec| rec.event);
            let has_cc_rate = events.clone().any(|event| {
                matches!(event, TraceEvent::CcRateChanged { algorithm, .. } if algorithm == controller)
            });
            assert!(has_cc_rate, "{} must emit cc_rate_changed", controller.id());
            let gcc = events
                .map(|event| event.name())
                .find(|name| name.starts_with("gcc_"));
            assert!(gcc.is_none(), "an event outside the cc_* family: {gcc:?}");
        }
    }

    #[test]
    fn spec_covers_every_controller_per_scenario() {
        let spec = spec(Scale::Quick);
        // The CI smoke cell: 2 scenarios × 3 controllers × 1 seed.
        assert_eq!(
            spec.jobs.len(),
            scenarios().len() * ControllerKind::ALL.len()
        );
        for controller in ControllerKind::ALL {
            assert!(
                spec.jobs.iter().any(|j| j.cell.controller == controller),
                "{} missing from the shootout",
                controller.id()
            );
        }
    }
}
