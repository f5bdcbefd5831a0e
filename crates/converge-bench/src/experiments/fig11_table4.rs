//! Fig. 11 and Table 4 — the QoE feedback ablation: the video-aware
//! scheduler with and without the feedback loop, on the path-collapse
//! scenario (path 1 steady at 25 Mbps; path 2 collapses to 0.5–2.5 Mbps
//! between 30 s and 90 s).

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{FecKind, ScenarioConfig, SchedulerKind};

use super::table::Table;
use crate::runner::{Job, Scale};
use crate::sweep::ExperimentSpec;

/// The ablation needs the 30–90 s dip window, so quick scale keeps a
/// 120 s call rather than the usual 30 s.
fn ablation_duration(scale: Scale) -> converge_net::SimDuration {
    converge_net::SimDuration::from_secs(match scale {
        Scale::Full => 180,
        Scale::Quick => 120,
    })
}

fn variant_cell(scheduler: SchedulerKind) -> Cell {
    Cell::new(
        ScenarioSpec::FeedbackBenefit,
        scheduler,
        FecKind::Converge,
        1,
    )
}

/// Declares Fig. 11: with- and without-feedback variants, one seed. Not a
/// table: each printed second zips the two calls with the scenario's rates.
pub fn spec_fig11(scale: Scale) -> ExperimentSpec {
    let duration = ablation_duration(scale);
    let seed = 42;
    ExperimentSpec {
        jobs: vec![
            Job::new(variant_cell(SchedulerKind::Converge), duration, seed),
            Job::new(
                variant_cell(SchedulerKind::ConvergeNoFeedback),
                duration,
                seed,
            ),
        ],
        fold: Box::new(move |reports| {
            let (with_fb, without_fb) = (&reports[0], &reports[1]);
            let scenario = ScenarioConfig::feedback_benefit(duration, seed);

            let mut out = String::new();
            out.push_str("# Fig. 11 — QoE feedback ablation time series\n");
            out.push_str(
                "# columns: t_s path1_mbps path2_mbps tput_fb tput_nofb ifd_fb ifd_nofb fcd_fb fcd_nofb\n",
            );
            // One value per second, read in step with the bins below.
            let sent = |path| {
                let series = with_fb.path_series.get(converge_net::PathId(path));
                series.into_iter().flatten()
            };
            let (mut sent_p1, mut sent_p2) = (sent(0), sent(1));
            for (i, (b_fb, b_no)) in with_fb.bins.iter().zip(without_fb.bins.iter()).enumerate() {
                let t = converge_net::SimTime::from_secs(i as u64);
                out.push_str(&format!(
                    "{i} {:.1} {:.1} {:.2} {:.2} {:.1} {:.1} {:.1} {:.1} {:.2} {:.2}\n",
                    scenario.paths[0].trace.rate_at(t) as f64 / 1e6,
                    scenario.paths[1].trace.rate_at(t) as f64 / 1e6,
                    b_fb.throughput_bps() / 1e6,
                    b_no.throughput_bps() / 1e6,
                    b_fb.ifd_ms().unwrap_or(0.0),
                    b_no.ifd_ms().unwrap_or(0.0),
                    b_fb.fcd_ms().unwrap_or(0.0),
                    b_no.fcd_ms().unwrap_or(0.0),
                    sent_p1.next().unwrap_or(0) as f64 * 8.0 / 1e6,
                    sent_p2.next().unwrap_or(0) as f64 * 8.0 / 1e6,
                ));
            }
            out.push_str("# paper shape: without feedback, IFD exceeds the 33 ms target and FCD\n");
            out.push_str("# grows during the 30-90 s dip, and throughput falls below 10 Mbps;\n");
            out.push_str("# with feedback the sender sheds path 2 and the curves stay flat.\n");
            out
        }),
    }
}

/// Declares Table 4: the same two variants, same seed — the sweep engine's
/// cell cache means these jobs are free when Fig. 11 already ran.
pub fn spec_table4(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Table 4 — Converge with vs without QoE feedback")
        .label("variant", 18)
        .num("frame_drops", 12, 0, |r| r.frames_dropped as f64)
        .num("freeze_ms", 16, 0, |r| r.freeze_total_ms)
        .num("kf_requests", 14, 0, |r| r.keyframe_requests as f64)
        .note("# paper shape: feedback cuts frame drops ~10x, freezes ~70%, and")
        .note("# keyframe requests ~90%.");
    table.row(&[&"with-feedback"], variant_cell(SchedulerKind::Converge));
    table.row(
        &[&"without-feedback"],
        variant_cell(SchedulerKind::ConvergeNoFeedback),
    );
    table.spec(&[42], ablation_duration(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds inside the dip (35–90 s, past the unavoidable onset
    /// transient) in which the frame rate degraded below 25 fps.
    fn degraded_mid_dip_seconds(r: &converge_sim::CallReport) -> usize {
        r.bins
            .iter()
            .enumerate()
            .filter(|(i, b)| (35..90).contains(i) && b.frames_decoded < 25)
            .count()
    }

    #[test]
    fn feedback_improves_mid_dip_stability() {
        // The collapse-onset transient (packets already queued on the dying
        // path when it collapses) costs both variants a similar burst and
        // is chaotic run-to-run, so the assertion averages seeds and looks
        // at the steady mid-dip window where the mechanism matters.
        let duration = converge_net::SimDuration::from_secs(120);
        let cache = crate::sweep::CellCache::global();
        let run = |scheduler, seed| {
            let job = Job::new(variant_cell(scheduler), duration, seed);
            cache.get_or_run(&job).report.clone()
        };
        let mut fb_bad = 0usize;
        let mut nofb_bad = 0usize;
        let mut fb_fps = 0.0f64;
        let mut nofb_fps = 0.0f64;
        for seed in [7, 42, 99] {
            let fb = run(SchedulerKind::Converge, seed);
            let nofb = run(SchedulerKind::ConvergeNoFeedback, seed);
            fb_bad += degraded_mid_dip_seconds(&fb);
            nofb_bad += degraded_mid_dip_seconds(&nofb);
            fb_fps += fb.fps;
            nofb_fps += nofb.fps;
        }
        assert!(
            fb_bad <= nofb_bad + 2,
            "feedback degraded-seconds {fb_bad} must not exceed no-feedback {nofb_bad}"
        );
        assert!(
            fb_fps >= nofb_fps * 0.97,
            "feedback fps {fb_fps} must not clearly lose to no-feedback {nofb_fps}"
        );
    }
}
