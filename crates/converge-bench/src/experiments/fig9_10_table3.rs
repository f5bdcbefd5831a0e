//! Fig. 9 (walking & driving time series), Fig. 10 (normalized QoE bars),
//! and Table 3 (E2E latency / FEC overhead / FEC utilization for 1–3
//! cameras) — Converge vs single-path WebRTC in the wild.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{CallReport, SchedulerKind};

use super::table::Table;
use crate::runner::{Job, Scale};
use crate::sweep::ExperimentSpec;

const SCENARIOS: [(&str, ScenarioSpec); 2] = [
    ("walking", ScenarioSpec::Walking),
    ("driving", ScenarioSpec::Driving),
];

/// Systems per scenario: the two single-path baselines (path 0 and path 1
/// carriers) and Converge.
const SYSTEMS: [(&str, SchedulerKind); 3] = [
    ("WebRTC-p0", SchedulerKind::SinglePath(0)),
    ("WebRTC-p1", SchedulerKind::SinglePath(1)),
    ("Converge", SchedulerKind::Converge),
];

/// Declares Fig. 9: one seed-42 call per system per scenario. A per-second
/// dump, not a table: the fold walks the scenario × system product again.
pub fn spec_fig9(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for (_, scenario) in SCENARIOS {
        for (_, scheduler) in SYSTEMS {
            let cell = Cell::system(scenario, scheduler, 1);
            jobs.push(Job::new(cell, scale.duration(), 42));
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(|reports| {
            let mut out = String::from("# Fig. 9 — time series, walking and driving\n");
            let per_scenario = reports.chunks(SYSTEMS.len());
            for ((scenario_name, _), reports) in SCENARIOS.iter().zip(per_scenario) {
                out.push_str(&format!("## scenario: {scenario_name}\n"));
                out.push_str("# columns: t_s system tput_mbps fps e2e_ms enc_height\n");
                for ((label, _), report) in SYSTEMS.iter().zip(reports) {
                    for (i, bin) in report.bins.iter().enumerate() {
                        out.push_str(&format!(
                            "{i} {label} {:.2} {} {:.0} {:.0}\n",
                            bin.throughput_bps() / 1e6,
                            bin.frames_decoded,
                            bin.e2e_ms().unwrap_or(0.0),
                            bin.encoded_height().unwrap_or(0.0)
                        ));
                    }
                }
            }
            out.push_str("# paper shape: single-path WebRTC shows zero-FPS periods when its\n");
            out.push_str("# carrier dips; Converge sustains FPS by combining the paths and\n");
            out.push_str("# downscales resolution through dips instead of freezing (Fig. 9b).\n");
            out
        }),
    }
}

/// The Fig. 10 table: every system × scenario at 3 streams.
fn fig10_table() -> Table {
    let mut table = Table::new("# Fig. 10 — normalized QoE metrics (3 camera streams)")
        .label("scenario", 10)
        .label("system", 12)
        .mean("norm_tput", 14, 2, |r| r.normalized_throughput())
        .mean("norm_fps", 12, 2, |r| r.normalized_fps())
        .mean("avg_stall_ms", 14, 0, |r| r.avg_freeze_ms())
        .mean("norm_qp", 12, 2, |r| r.normalized_qp())
        .note("# paper shape: Converge leads normalized throughput and FPS and cuts")
        .note("# stalls vs either single-path WebRTC; QP (quality) improves too.");
    for (scenario_name, scenario) in SCENARIOS {
        for (label, scheduler) in SYSTEMS {
            table.row(
                &[&scenario_name, &label],
                Cell::system(scenario, scheduler, 3),
            );
        }
        table.gap();
    }
    table
}

/// Declares Fig. 10: `fig10_table` over all seeds.
pub fn spec_fig10(scale: Scale) -> ExperimentSpec {
    fig10_table().spec(scale.seeds(), scale.duration())
}

/// One scenario's sub-table of Table 3: every system × 1–3 streams.
fn table3_part(scenario_name: &str, scenario: ScenarioSpec) -> Table {
    let mut table = Table::new(&format!("## scenario: {scenario_name}"))
        .label("#", 4)
        .label("system", 12)
        .mean("e2e_s", 16, 3, |r| r.e2e_mean_ms / 1_000.0)
        .mean("fec_ovh_%", 16, 1, |r| r.fec_overhead_pct())
        .mean("fec_util_%", 16, 1, |r| r.fec_utilization_pct());
    for streams in 1..=3u8 {
        for (label, scheduler) in SYSTEMS {
            table.row(
                &[&streams, &label],
                Cell::system(scenario, scheduler, streams),
            );
        }
    }
    table.gap();
    table
}

/// Declares Table 3: one sub-table per scenario under a shared title, all
/// seeds — their jobs concatenated, their reports split back at the seam.
pub fn spec_table3(scale: Scale) -> ExperimentSpec {
    let [walking, driving] = SCENARIOS.map(|(name, scenario)| table3_part(name, scenario));
    let mut jobs = walking.jobs(scale.seeds(), scale.duration());
    let seam = jobs.len();
    jobs.extend(driving.jobs(scale.seeds(), scale.duration()));
    let fold = move |reports: &[&CallReport]| {
        let (walking, driving) = (
            walking.render(&reports[..seam]),
            driving.render(&reports[seam..]),
        );
        format!(
            "# Table 3 — E2E latency (s), FEC overhead (%), FEC utilization (%)\n\
             {walking}{driving}\
             # paper shape: Converge has the lowest E2E and FEC overhead with the\n\
             # highest utilization in both scenarios, at every stream count.\n"
        )
    };
    ExperimentSpec {
        jobs,
        fold: Box::new(fold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellCache;

    #[test]
    fn converge_outperforms_single_path_in_walking_throughput() {
        let (table, scale) = (fig10_table(), Scale::Quick);
        let runs = CellCache::global().runs(&table.jobs(scale.seeds(), scale.duration()));
        let reports = crate::sweep::reports_of(&runs);
        let c = table.value(&reports, &["walking", "Converge"], "norm_tput");
        let s = table.value(&reports, &["walking", "WebRTC-p1"], "norm_tput");
        assert!(
            c > s,
            "Converge tput {c} should beat single-path cellular {s}"
        );
    }

    #[test]
    fn converge_fec_utilization_beats_table() {
        let (table, scale) = (table3_part("driving", ScenarioSpec::Driving), Scale::Quick);
        let runs = CellCache::global().runs(&table.jobs(scale.seeds(), scale.duration()));
        let reports = crate::sweep::reports_of(&runs);
        let c_ovh = table.value(&reports, &["1", "Converge"], "fec_ovh_%");
        let s_ovh = table.value(&reports, &["1", "WebRTC-p0"], "fec_ovh_%");
        assert!(
            c_ovh < s_ovh,
            "Converge overhead {c_ovh}% must undercut WebRTC {s_ovh}%"
        );
    }
}
