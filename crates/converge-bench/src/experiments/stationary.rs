//! Figs. 16–17 and Table 6 — the stationary (appendix A) evaluation:
//! Converge vs single-path WebRTC on stable WiFi + cellular.

use converge_sim::{FecKind, SchedulerKind};

use crate::runner::{metric, pm, Cell, Job, Scale, ScenarioSpec};
use crate::sweep::{ExperimentSpec, Reports};

fn systems() -> Vec<(&'static str, SchedulerKind, FecKind)> {
    vec![
        (
            "WebRTC-W",
            SchedulerKind::SinglePath(0),
            FecKind::WebRtcTable,
        ),
        (
            "WebRTC-T",
            SchedulerKind::SinglePath(1),
            FecKind::WebRtcTable,
        ),
        ("Converge", SchedulerKind::Converge, FecKind::Converge),
    ]
}

fn stationary_cell(scheduler: SchedulerKind, fec: FecKind, streams: u8) -> Cell {
    Cell::new(ScenarioSpec::Stationary, scheduler, fec, streams)
}

/// Declares Fig. 16: one seed-42 call per system.
pub fn spec_fig16(scale: Scale) -> ExperimentSpec {
    let jobs = systems()
        .into_iter()
        .map(|(_, scheduler, fec)| {
            Job::new(stationary_cell(scheduler, fec, 1), scale.duration(), 42)
        })
        .collect();
    ExperimentSpec {
        jobs,
        fold: Box::new(move |reports| {
            let mut r = Reports::new(reports);
            let mut out = String::new();
            out.push_str("# Fig. 16 — stationary time series\n");
            out.push_str("# columns: t_s system tput_mbps fps e2e_ms\n");
            for (label, _, _) in systems() {
                let rep = r.one();
                for (i, bin) in rep.bins.iter().enumerate() {
                    out.push_str(&format!(
                        "{i} {label} {:.2} {} {:.0}\n",
                        bin.throughput_bps() / 1e6,
                        bin.frames_decoded,
                        bin.e2e_ms().unwrap_or(0.0)
                    ));
                }
            }
            out.push_str("# paper shape: on stable WiFi, Converge ~= WebRTC-W at ~10 Mbps and\n");
            out.push_str("# ~30 FPS; WebRTC-T is capacity-limited below both.\n");
            out
        }),
    }
}

/// Declares Fig. 17: every system × 1–3 streams × every seed.
pub fn spec_fig17(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for streams in 1..=3u8 {
        for (_, scheduler, fec) in systems() {
            for &seed in scale.seeds() {
                jobs.push(Job::new(
                    stationary_cell(scheduler, fec, streams),
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
            out.push_str("# Fig. 17 — stationary normalized QoE, 1-3 streams\n");
            out.push_str(&format!(
                "{:<4} {:<12} {:>14} {:>12} {:>14} {:>12}\n",
                "#", "system", "norm_tput", "norm_fps", "avg_stall_ms", "norm_qp"
            ));
            for streams in 1..=3u8 {
                for (label, _, _) in systems() {
                    let reports = r.take(scale.seeds().len());
                    out.push_str(&format!(
                        "{:<4} {:<12} {:>14} {:>12} {:>14} {:>12}\n",
                        streams,
                        label,
                        pm(&metric(reports, |r| r.normalized_throughput()), 2),
                        pm(&metric(reports, |r| r.normalized_fps()), 2),
                        pm(&metric(reports, |r| r.avg_freeze_ms()), 0),
                        pm(&metric(reports, |r| r.normalized_qp()), 2),
                    ));
                }
                out.push('\n');
            }
            out.push_str("# paper shape: Converge beats WebRTC-W on throughput by ~41% and\n");
            out.push_str("# WebRTC-T by ~2.7x by aggregating the two stable paths; FPS gains\n");
            out.push_str("# are small because WiFi alone already sustains 30 FPS.\n");
            out
        }),
    }
}

/// Declares Table 6: the same cells as Fig. 17 — free under a shared
/// sweep cache.
pub fn spec_table6(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for streams in 1..=3u8 {
        for (_, scheduler, fec) in systems() {
            for &seed in scale.seeds() {
                jobs.push(Job::new(
                    stationary_cell(scheduler, fec, streams),
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
            out.push_str(
                "# Table 6 — stationary E2E (ms), FEC overhead (%), FEC utilization (%)\n",
            );
            out.push_str(&format!(
                "{:<4} {:<12} {:>16} {:>16} {:>16}\n",
                "#", "system", "e2e_ms", "fec_ovh_%", "fec_util_%"
            ));
            for streams in 1..=3u8 {
                for (label, _, _) in systems() {
                    let reports = r.take(scale.seeds().len());
                    out.push_str(&format!(
                        "{:<4} {:<12} {:>16} {:>16} {:>16}\n",
                        streams,
                        label,
                        pm(&metric(reports, |r| r.e2e_mean_ms), 0),
                        pm(&metric(reports, |r| r.fec_overhead_pct()), 2),
                        pm(&metric(reports, |r| r.fec_utilization_pct()), 1),
                    ));
                }
            }
            out.push_str("# paper shape: E2E within ~10% of WebRTC-W (Converge carries more\n");
            out.push_str("# data); FEC overhead minimal for everyone, lowest for Converge,\n");
            out.push_str("# with better utilization.\n");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_converge_aggregates_paths() {
        // 60 s runs: GCC needs ~15 s to converge, which dominates shorter
        // quick-scale runs.
        let duration = converge_net::SimDuration::from_secs(60);
        let cache = crate::sweep::CellCache::global();
        let run = |scheduler, fec| {
            let job = Job::new(stationary_cell(scheduler, fec, 3), duration, 42);
            cache.get_or_run(&job).report.clone()
        };
        let conv = run(SchedulerKind::Converge, FecKind::Converge);
        let cellular = run(SchedulerKind::SinglePath(1), FecKind::WebRtcTable);
        assert!(
            conv.throughput_bps > cellular.throughput_bps * 1.3,
            "Converge {:.1} Mbps should clearly beat cellular-only {:.1} Mbps",
            conv.throughput_bps / 1e6,
            cellular.throughput_bps / 1e6
        );
    }
}
