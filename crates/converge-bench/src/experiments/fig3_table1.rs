//! Fig. 3 and Table 1 — WebRTC vs multipath WebRTC variants vs Converge,
//! 1–3 camera streams on the emulated driving traces: normalized FPS,
//! average freeze duration, FEC overhead (Fig. 3a–c); frame drops and
//! keyframe requests (Table 1). Both come from the same runs, so one spec
//! emits the combined report.

use converge_sim::{FecKind, SchedulerKind};

use crate::runner::{metric, pm, Cell, Job, Scale, ScenarioSpec};
use crate::sweep::{ExperimentSpec, Reports};

/// The systems Fig. 3 compares, with their FEC policies.
pub fn systems() -> Vec<(SchedulerKind, FecKind)> {
    vec![
        (SchedulerKind::SinglePath(1), FecKind::WebRtcTable),
        (SchedulerKind::MRtp, FecKind::WebRtcTable),
        (SchedulerKind::MTput, FecKind::WebRtcTable),
        (SchedulerKind::Srtt, FecKind::WebRtcTable),
        (SchedulerKind::Converge, FecKind::Converge),
    ]
}

/// Declares the Fig. 3 / Table 1 sweep: every system × 1–3 streams ×
/// every seed of the scale.
pub fn spec(scale: Scale) -> ExperimentSpec {
    let mut jobs = Vec::new();
    for streams in 1..=3u8 {
        for (scheduler, fec) in systems() {
            let cell = Cell::new(ScenarioSpec::Driving, scheduler, fec, streams);
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
            out.push_str("# Fig. 3 / Table 1 — driving, 1-3 camera streams\n");
            out.push_str(&format!(
                "{:<12} {:>8} {:>14} {:>16} {:>14} {:>18} {:>14}\n",
                "system",
                "streams",
                "norm_fps",
                "avg_freeze_ms",
                "fec_ovh_%",
                "frame_drops",
                "kf_requests"
            ));
            for streams in 1..=3u8 {
                for (scheduler, _fec) in systems() {
                    let reports = r.take(scale.seeds().len());
                    out.push_str(&format!(
                        "{:<12} {:>8} {:>14} {:>16} {:>14} {:>18} {:>14}\n",
                        scheduler.label(),
                        streams,
                        pm(&metric(reports, |r| r.normalized_fps()), 2),
                        pm(&metric(reports, |r| r.avg_freeze_ms()), 0),
                        pm(&metric(reports, |r| r.fec_overhead_pct()), 1),
                        pm(&metric(reports, |r| r.frames_dropped as f64), 0),
                        pm(&metric(reports, |r| r.keyframe_requests as f64), 1),
                    ));
                }
                out.push('\n');
            }
            out.push_str("# paper shape: multipath variants drop FPS below single-path WebRTC,\n");
            out.push_str("# freeze longer, carry far more FEC, drop ~10x the frames and request\n");
            out.push_str("# more keyframes; Converge matches WebRTC's drops with the best FPS.\n");
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
    fn converge_beats_naive_multipath_on_fps() {
        let mk = |scheduler, fec| Cell::new(ScenarioSpec::Driving, scheduler, fec, 1);
        let conv = quick_reports(mk(SchedulerKind::Converge, FecKind::Converge));
        let mrtp = quick_reports(mk(SchedulerKind::MRtp, FecKind::WebRtcTable));
        let (conv_fps, _) = mean_std(&metric(&conv, |r| r.fps));
        let (mrtp_fps, _) = mean_std(&metric(&mrtp, |r| r.fps));
        assert!(
            conv_fps >= mrtp_fps * 0.95,
            "Converge {conv_fps} should not lose to M-RTP {mrtp_fps}"
        );
        let (conv_fec, _) = mean_std(&metric(&conv, |r| r.fec_overhead_pct()));
        let (mrtp_fec, _) = mean_std(&metric(&mrtp, |r| r.fec_overhead_pct()));
        assert!(
            conv_fec < mrtp_fec,
            "Converge FEC {conv_fec}% must undercut M-RTP {mrtp_fec}%"
        );
    }
}
