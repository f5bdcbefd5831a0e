//! Fig. 9 (walking & driving time series), Fig. 10 (normalized QoE bars),
//! and Table 3 (E2E latency / FEC overhead / FEC utilization for 1–3
//! cameras) — Converge vs single-path WebRTC in the wild.

use converge_sim::{CallReport, FecKind, SchedulerKind};

use crate::runner::{metric, pm, Cell, Job, Scale, ScenarioSpec};
use crate::sweep::{ExperimentSpec, Reports};

fn scenario_for(name: &str) -> ScenarioSpec {
    match name {
        "walking" => ScenarioSpec::Walking,
        "driving" => ScenarioSpec::Driving,
        _ => unreachable!("unknown scenario"),
    }
}

/// Systems per scenario: Converge plus the two single-path baselines
/// (path 0 and path 1 carriers).
fn systems() -> Vec<(&'static str, SchedulerKind, FecKind)> {
    vec![
        (
            "WebRTC-p0",
            SchedulerKind::SinglePath(0),
            FecKind::WebRtcTable,
        ),
        (
            "WebRTC-p1",
            SchedulerKind::SinglePath(1),
            FecKind::WebRtcTable,
        ),
        ("Converge", SchedulerKind::Converge, FecKind::Converge),
    ]
}

/// Declares Fig. 9: one seed-42 call per system per scenario.
pub fn spec_fig9(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for scenario_name in ["walking", "driving"] {
        for (_, scheduler, fec) in systems() {
            let cell = Cell::new(scenario_for(scenario_name), scheduler, fec, 1);
            jobs.push(Job::new(cell, scale.duration(), 42));
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 9 — time series, walking and driving\n");
            for scenario_name in ["walking", "driving"] {
                out.push_str(&format!("## scenario: {scenario_name}\n"));
                out.push_str("# columns: t_s system tput_mbps fps e2e_ms enc_height\n");
                for (label, _, _) in systems() {
                    let report = r.one();
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

/// Declares Fig. 10: every system × scenario at 3 streams, all seeds.
pub fn spec_fig10(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for scenario_name in ["walking", "driving"] {
        for (_, scheduler, fec) in systems() {
            let cell = Cell::new(scenario_for(scenario_name), scheduler, fec, 3);
            for &seed in scale.seeds() {
                jobs.push(Job::new(cell, scale.duration(), seed));
            }
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 10 — normalized QoE metrics (3 camera streams)\n");
            out.push_str(&format!(
                "{:<10} {:<12} {:>14} {:>12} {:>14} {:>12}\n",
                "scenario", "system", "norm_tput", "norm_fps", "avg_stall_ms", "norm_qp"
            ));
            for scenario_name in ["walking", "driving"] {
                for (label, _, _) in systems() {
                    let reports = r.take(scale.seeds().len());
                    out.push_str(&format!(
                        "{:<10} {:<12} {:>14} {:>12} {:>14} {:>12}\n",
                        scenario_name,
                        label,
                        pm(&metric(reports, |r| r.normalized_throughput()), 2),
                        pm(&metric(reports, |r| r.normalized_fps()), 2),
                        pm(&metric(reports, |r| r.avg_freeze_ms()), 0),
                        pm(&metric(reports, |r| r.normalized_qp()), 2),
                    ));
                }
                out.push('\n');
            }
            out.push_str("# paper shape: Converge leads normalized throughput and FPS and cuts\n");
            out.push_str("# stalls vs either single-path WebRTC; QP (quality) improves too.\n");
            out
        }),
    }
}

/// Declares Table 3: every system × scenario × 1–3 streams, all seeds.
pub fn spec_table3(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for scenario_name in ["walking", "driving"] {
        for streams in 1..=3u8 {
            for (_, scheduler, fec) in systems() {
                let cell = Cell::new(scenario_for(scenario_name), scheduler, fec, streams);
                for &seed in scale.seeds() {
                    jobs.push(Job::new(cell, scale.duration(), seed));
                }
            }
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Table 3 — E2E latency (s), FEC overhead (%), FEC utilization (%)\n");
            for scenario_name in ["walking", "driving"] {
                out.push_str(&format!("## scenario: {scenario_name}\n"));
                out.push_str(&format!(
                    "{:<4} {:<12} {:>16} {:>16} {:>16}\n",
                    "#", "system", "e2e_s", "fec_ovh_%", "fec_util_%"
                ));
                for streams in 1..=3u8 {
                    for (label, _, _) in systems() {
                        let reports = r.take(scale.seeds().len());
                        let e2e_s: Vec<f64> =
                            metric(reports, |r: &CallReport| r.e2e_mean_ms / 1_000.0);
                        out.push_str(&format!(
                            "{:<4} {:<12} {:>16} {:>16} {:>16}\n",
                            streams,
                            label,
                            pm(&e2e_s, 3),
                            pm(&metric(reports, |r| r.fec_overhead_pct()), 1),
                            pm(&metric(reports, |r| r.fec_utilization_pct()), 1),
                        ));
                    }
                }
                out.push('\n');
            }
            out.push_str("# paper shape: Converge has the lowest E2E and FEC overhead with the\n");
            out.push_str("# highest utilization in both scenarios, at every stream count.\n");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_reports;
    use crate::runner::mean_std;

    #[test]
    fn converge_outperforms_single_path_in_walking_throughput() {
        let conv = quick_reports(Cell::new(
            ScenarioSpec::Walking,
            SchedulerKind::Converge,
            FecKind::Converge,
            3,
        ));
        let single = quick_reports(Cell::new(
            ScenarioSpec::Walking,
            SchedulerKind::SinglePath(1),
            FecKind::WebRtcTable,
            3,
        ));
        let (c, _) = mean_std(&metric(&conv, |r| r.throughput_bps));
        let (s, _) = mean_std(&metric(&single, |r| r.throughput_bps));
        assert!(
            c > s,
            "Converge tput {c} should beat single-path cellular {s}"
        );
    }

    #[test]
    fn converge_fec_utilization_beats_table() {
        let conv = quick_reports(Cell::new(
            ScenarioSpec::Driving,
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
        ));
        let single = quick_reports(Cell::new(
            ScenarioSpec::Driving,
            SchedulerKind::SinglePath(0),
            FecKind::WebRtcTable,
            1,
        ));
        let (c_ovh, _) = mean_std(&metric(&conv, |r| r.fec_overhead_pct()));
        let (s_ovh, _) = mean_std(&metric(&single, |r| r.fec_overhead_pct()));
        assert!(
            c_ovh < s_ovh,
            "Converge overhead {c_ovh}% must undercut WebRTC {s_ovh}%"
        );
    }
}
