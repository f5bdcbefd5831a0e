//! Figs. 14–15 — comparison with existing solutions in the driving
//! scenario: QoE bars (throughput/FPS/stall/QP), FEC overhead and
//! utilization, the E2E latency CDF, and the PSNR CDF.

use converge_sim::SchedulerKind;

use super::table::Table;
use crate::runner::{Cell, Scale, ScenarioSpec};
use crate::sweep::ExperimentSpec;

/// The full system roster of Fig. 14 (single-path, CM, multipath variants,
/// Converge).
const SYSTEMS: [(&str, SchedulerKind); 7] = [
    ("WebRTC-V", SchedulerKind::SinglePath(0)),
    ("WebRTC-T", SchedulerKind::SinglePath(1)),
    ("WebRTC-CM", SchedulerKind::ConnectionMigration(0)),
    ("M-RTP", SchedulerKind::MRtp),
    ("M-TPUT", SchedulerKind::MTput),
    ("SRTT", SchedulerKind::Srtt),
    ("Converge", SchedulerKind::Converge),
];

/// `table` with one row per system of the roster: driving, one stream.
fn with_roster(mut table: Table) -> Table {
    for (label, scheduler) in SYSTEMS {
        let cell = Cell::system(ScenarioSpec::Driving, scheduler, 1);
        table.row(&[&label], cell);
    }
    table
}

/// Declares Fig. 14a–b: every system over every seed of the scale.
pub fn spec_fig14(scale: Scale) -> ExperimentSpec {
    let table = Table::new("# Fig. 14 — driving comparison vs existing solutions")
        .label("system", 12)
        .mean("norm_tput", 12, 2, |r| r.normalized_throughput())
        .mean("norm_fps", 10, 2, |r| r.normalized_fps())
        .mean("avg_stall_ms", 12, 0, |r| r.avg_freeze_ms())
        .mean("norm_qp", 10, 2, |r| r.normalized_qp())
        .mean("fec_ovh_%", 12, 1, |r| r.fec_overhead_pct())
        .mean("fec_util_%", 12, 1, |r| r.fec_utilization_pct())
        .mean("e2e_ms", 10, 0, |r| r.e2e_mean_ms)
        .note("# paper shape: Converge has the highest delivered share, the least")
        .note("# FEC overhead at the best utilization, and the lowest E2E latency.");
    with_roster(table).spec(scale.seeds(), scale.duration())
}

/// Declares Fig. 14c: one seed-42 call per system. CDF records for
/// plotting: a table of width 0, so nothing is padded and the header is
/// the `# columns:` comment.
pub fn spec_fig14c(scale: Scale) -> ExperimentSpec {
    let table = Table::new("# Fig. 14c — E2E latency CDF (driving, 1 stream)")
        .label("# columns: system", 0)
        .num("p10", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.10))
        .num("p25", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.25))
        .num("p50", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.50))
        .num("p75", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.75))
        .num("p90", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.90))
        .num("p99 (ms)", 0, 0, |r| r.e2e_samples_ms.quantile_ms(0.99));
    with_roster(table).spec(&[42], scale.duration())
}

/// The Fig. 15 table: PSNR per system.
fn fig15_table() -> Table {
    let table = Table::new("# Fig. 15 — PSNR (dB), single camera stream, driving")
        .label("system", 12)
        .mean("psnr_db", 14, 1, |r| r.psnr_db)
        .note("# paper shape: Converge's PSNR distribution dominates every other")
        .note("# system's.");
    with_roster(table)
}

/// Declares Fig. 15: every system over every seed (same cells as Fig. 14,
/// so a combined sweep simulates them only once).
pub fn spec_fig15(scale: Scale) -> ExperimentSpec {
    fig15_table().spec(scale.seeds(), scale.duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellCache;

    /// Seeds 1–12, not the scale's two: two 30 s seeds spread wider
    /// (±1.7 dB) than the lead this asserts.
    #[test]
    fn converge_has_best_psnr_of_multipath_systems() {
        let seeds: Vec<u64> = (1..=12).collect();
        let table = fig15_table();
        let runs = CellCache::global().runs(&table.jobs(&seeds, Scale::Quick.duration()));
        let reports = crate::sweep::reports_of(&runs);
        let conv = table.value(&reports, &["Converge"], "psnr_db");
        for system in ["M-RTP", "M-TPUT", "SRTT"] {
            let other = table.value(&reports, &[system], "psnr_db");
            assert!(conv >= other, "Converge PSNR {conv} vs {system} {other}");
        }
    }
}
