//! Fig. 3 and Table 1 — WebRTC vs multipath WebRTC variants vs Converge,
//! 1–3 camera streams on the emulated driving traces: normalized FPS,
//! average freeze duration, FEC overhead (Fig. 3a–c); frame drops and
//! keyframe requests (Table 1). Both come from the same runs, so one spec
//! emits the combined report.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::SchedulerKind;

use super::table::Table;
use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// The systems Fig. 3 compares.
const SYSTEMS: [SchedulerKind; 5] = [
    SchedulerKind::SinglePath(1),
    SchedulerKind::MRtp,
    SchedulerKind::MTput,
    SchedulerKind::Srtt,
    SchedulerKind::Converge,
];

/// The Fig. 3 / Table 1 table: every system × 1–3 streams.
fn table() -> Table {
    let mut table = Table::new("# Fig. 3 / Table 1 — driving, 1-3 camera streams")
        .label("system", 12)
        .label_right("streams", 8)
        .mean("norm_fps", 14, 2, |r| r.normalized_fps())
        .mean("avg_freeze_ms", 16, 0, |r| r.avg_freeze_ms())
        .mean("fec_ovh_%", 14, 1, |r| r.fec_overhead_pct())
        .mean("frame_drops", 18, 0, |r| r.frames_dropped as f64)
        .mean("kf_requests", 14, 1, |r| r.keyframe_requests as f64)
        .note("# paper shape: multipath variants drop FPS below single-path WebRTC,")
        .note("# freeze longer, carry far more FEC, drop ~10x the frames and request")
        .note("# more keyframes; Converge matches WebRTC's drops with the best FPS.");
    for streams in 1..=3u8 {
        for scheduler in SYSTEMS {
            let cell = Cell::system(ScenarioSpec::Driving, scheduler, streams);
            table.row(&[&scheduler.label(), &streams], cell);
        }
        table.gap();
    }
    table
}

/// Declares the Fig. 3 / Table 1 sweep: `table` over every seed of the
/// scale.
pub fn spec(scale: Scale) -> ExperimentSpec {
    table().spec(scale.seeds(), scale.duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellCache;

    #[test]
    fn converge_beats_naive_multipath_on_fps() {
        let (table, scale) = (table(), Scale::Quick);
        let runs = CellCache::global().runs(&table.jobs(scale.seeds(), scale.duration()));
        let reports = crate::sweep::reports_of(&runs);
        let value = |system, head| table.value(&reports, &[system, "1"], head);
        let (conv_fps, mrtp_fps) = (value("Converge", "norm_fps"), value("M-RTP", "norm_fps"));
        assert!(
            conv_fps >= mrtp_fps * 0.95,
            "Converge {conv_fps} should not lose to M-RTP {mrtp_fps}"
        );
        let (conv_fec, mrtp_fec) = (value("Converge", "fec_ovh_%"), value("M-RTP", "fec_ovh_%"));
        assert!(
            conv_fec < mrtp_fec,
            "Converge FEC {conv_fec}% must undercut M-RTP {mrtp_fec}%"
        );
    }
}
