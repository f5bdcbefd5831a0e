//! Figs. 14–15 — comparison with existing solutions in the driving
//! scenario: QoE bars (throughput/FPS/stall/QP), FEC overhead and
//! utilization, the E2E latency CDF, and the PSNR CDF.

use converge_sim::{FecKind, SchedulerKind};

use crate::runner::{metric, pm, Cell, Job, Scale, ScenarioSpec};
use crate::sweep::{ExperimentSpec, Reports};

/// The full system roster of Fig. 14 (single-path, CM, multipath variants,
/// Converge).
pub fn systems() -> Vec<(&'static str, SchedulerKind, FecKind)> {
    vec![
        (
            "WebRTC-V",
            SchedulerKind::SinglePath(0),
            FecKind::WebRtcTable,
        ),
        (
            "WebRTC-T",
            SchedulerKind::SinglePath(1),
            FecKind::WebRtcTable,
        ),
        (
            "WebRTC-CM",
            SchedulerKind::ConnectionMigration(0),
            FecKind::WebRtcTable,
        ),
        ("M-RTP", SchedulerKind::MRtp, FecKind::WebRtcTable),
        ("M-TPUT", SchedulerKind::MTput, FecKind::WebRtcTable),
        ("SRTT", SchedulerKind::Srtt, FecKind::WebRtcTable),
        ("Converge", SchedulerKind::Converge, FecKind::Converge),
    ]
}

fn roster_cell(scheduler: SchedulerKind, fec: FecKind) -> Cell {
    Cell::new(ScenarioSpec::Driving, scheduler, fec, 1)
}

/// Declares Fig. 14a–b: every system over every seed of the scale.
pub fn spec_fig14(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for (_, scheduler, fec) in systems() {
        for &seed in scale.seeds() {
            jobs.push(Job::new(
                roster_cell(scheduler, fec),
                scale.duration(),
                seed,
            ));
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 14 — driving comparison vs existing solutions\n");
            out.push_str(&format!(
                "{:<12} {:>12} {:>10} {:>12} {:>10} {:>12} {:>12} {:>10}\n",
                "system",
                "norm_tput",
                "norm_fps",
                "avg_stall_ms",
                "norm_qp",
                "fec_ovh_%",
                "fec_util_%",
                "e2e_ms"
            ));
            for (label, _, _) in systems() {
                let reports = r.take(scale.seeds().len());
                out.push_str(&format!(
                    "{:<12} {:>12} {:>10} {:>12} {:>10} {:>12} {:>12} {:>10}\n",
                    label,
                    pm(&metric(reports, |r| r.normalized_throughput()), 2),
                    pm(&metric(reports, |r| r.normalized_fps()), 2),
                    pm(&metric(reports, |r| r.avg_freeze_ms()), 0),
                    pm(&metric(reports, |r| r.normalized_qp()), 2),
                    pm(&metric(reports, |r| r.fec_overhead_pct()), 1),
                    pm(&metric(reports, |r| r.fec_utilization_pct()), 1),
                    pm(&metric(reports, |r| r.e2e_mean_ms), 0),
                ));
            }
            out.push_str("# paper shape: Converge has the highest delivered share, the least\n");
            out.push_str("# FEC overhead at the best utilization, and the lowest E2E latency.\n");
            out
        }),
    }
}

/// Declares Fig. 14c: one seed-42 call per system.
pub fn spec_fig14c(scale: Scale) -> ExperimentSpec {
    let jobs = systems()
        .into_iter()
        .map(|(_, scheduler, fec)| Job::new(roster_cell(scheduler, fec), scale.duration(), 42))
        .collect();
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 14c — E2E latency CDF (driving, 1 stream)\n");
            out.push_str("# columns: system p10 p25 p50 p75 p90 p99 (ms)\n");
            for (label, _, _) in systems() {
                let rep = r.one();
                let qs = crate::stats::quantiles(
                    &rep.e2e_samples_ms,
                    &[0.10, 0.25, 0.50, 0.75, 0.90, 0.99],
                );
                out.push_str(&format!(
                    "{label} {:.0} {:.0} {:.0} {:.0} {:.0} {:.0}\n",
                    qs[0], qs[1], qs[2], qs[3], qs[4], qs[5]
                ));
            }
            out
        }),
    }
}

/// Declares Fig. 15: every system over every seed (same cells as Fig. 14,
/// so a combined sweep simulates them only once).
pub fn spec_fig15(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for (_, scheduler, fec) in systems() {
        for &seed in scale.seeds() {
            jobs.push(Job::new(
                roster_cell(scheduler, fec),
                scale.duration(),
                seed,
            ));
        }
    }
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 15 — PSNR (dB), single camera stream, driving\n");
            out.push_str(&format!("{:<12} {:>14}\n", "system", "psnr_db"));
            for (label, _, _) in systems() {
                let reports = r.take(scale.seeds().len());
                out.push_str(&format!(
                    "{:<12} {:>14}\n",
                    label,
                    pm(&metric(reports, |r| r.psnr_db), 1)
                ));
            }
            out.push_str("# paper shape: Converge's PSNR distribution dominates every other\n");
            out.push_str("# system's.\n");
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
    fn converge_has_best_psnr_of_multipath_systems() {
        let run = |scheduler, fec| {
            let rs = quick_reports(roster_cell(scheduler, fec));
            mean_std(&metric(&rs, |r| r.psnr_db)).0
        };
        let conv = run(SchedulerKind::Converge, FecKind::Converge);
        let mrtp = run(SchedulerKind::MRtp, FecKind::WebRtcTable);
        assert!(conv >= mrtp, "Converge PSNR {conv} vs M-RTP {mrtp}");
    }
}
