//! Figs. 16–17 and Table 6 — the stationary (appendix A) evaluation:
//! Converge vs single-path WebRTC on stable WiFi + cellular.

use converge_sim::SchedulerKind;

use super::table::Table;
use crate::runner::{Cell, Job, Scale, ScenarioSpec};
use crate::sweep::ExperimentSpec;

const SYSTEMS: [(&str, SchedulerKind); 3] = [
    ("WebRTC-W", SchedulerKind::SinglePath(0)),
    ("WebRTC-T", SchedulerKind::SinglePath(1)),
    ("Converge", SchedulerKind::Converge),
];

fn stationary_cell(scheduler: SchedulerKind, streams: u8) -> Cell {
    Cell::system(ScenarioSpec::Stationary, scheduler, streams)
}

/// Declares Fig. 16: one seed-42 call per system. A per-second dump, not
/// a table.
pub fn spec_fig16(scale: Scale) -> ExperimentSpec {
    let jobs = SYSTEMS
        .iter()
        .map(|&(_, scheduler)| Job::new(stationary_cell(scheduler, 1), scale.duration(), 42))
        .collect();
    ExperimentSpec {
        jobs,
        fold: Box::new(|reports| {
            let mut out = String::from("# Fig. 16 — stationary time series\n");
            out.push_str("# columns: t_s system tput_mbps fps e2e_ms\n");
            for ((label, _), rep) in SYSTEMS.iter().zip(reports) {
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

/// The Fig. 17 table: every system × 1–3 streams.
fn fig17_table() -> Table {
    let mut table = Table::new("# Fig. 17 — stationary normalized QoE, 1-3 streams")
        .label("#", 4)
        .label("system", 12)
        .mean("norm_tput", 14, 2, |r| r.normalized_throughput())
        .mean("norm_fps", 12, 2, |r| r.normalized_fps())
        .mean("avg_stall_ms", 14, 0, |r| r.avg_freeze_ms())
        .mean("norm_qp", 12, 2, |r| r.normalized_qp())
        .note("# paper shape: Converge beats WebRTC-W on throughput by ~41% and")
        .note("# WebRTC-T by ~2.7x by aggregating the two stable paths; FPS gains")
        .note("# are small because WiFi alone already sustains 30 FPS.");
    for streams in 1..=3u8 {
        for (label, scheduler) in SYSTEMS {
            table.row(&[&streams, &label], stationary_cell(scheduler, streams));
        }
        table.gap();
    }
    table
}

/// Declares Fig. 17: `fig17_table` over every seed.
pub fn spec_fig17(scale: Scale) -> ExperimentSpec {
    fig17_table().spec(scale.seeds(), scale.duration())
}

/// Declares Table 6: the same cells as Fig. 17 — free under a shared
/// sweep cache.
pub fn spec_table6(scale: Scale) -> ExperimentSpec {
    let mut table =
        Table::new("# Table 6 — stationary E2E (ms), FEC overhead (%), FEC utilization (%)")
            .label("#", 4)
            .label("system", 12)
            .mean("e2e_ms", 16, 0, |r| r.e2e_mean_ms)
            .mean("fec_ovh_%", 16, 2, |r| r.fec_overhead_pct())
            .mean("fec_util_%", 16, 1, |r| r.fec_utilization_pct())
            .note("# paper shape: E2E within ~10% of WebRTC-W (Converge carries more")
            .note("# data); FEC overhead minimal for everyone, lowest for Converge,")
            .note("# with better utilization.");
    for streams in 1..=3u8 {
        for (label, scheduler) in SYSTEMS {
            table.row(&[&streams, &label], stationary_cell(scheduler, streams));
        }
    }
    table.spec(scale.seeds(), scale.duration())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_converge_aggregates_paths() {
        // 60 s runs: GCC needs ~15 s to converge, which dominates shorter
        // quick-scale runs.
        let duration = converge_net::SimDuration::from_secs(60);
        let table = fig17_table();
        let runs = crate::sweep::CellCache::global().runs(&table.jobs(&[42], duration));
        let reports = crate::sweep::reports_of(&runs);
        let conv = table.value(&reports, &["3", "Converge"], "norm_tput");
        let cellular = table.value(&reports, &["3", "WebRTC-T"], "norm_tput");
        assert!(
            conv > cellular * 1.3,
            "Converge {conv:.2} should clearly beat cellular-only {cellular:.2} (normalized)"
        );
    }
}
