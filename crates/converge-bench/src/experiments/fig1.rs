//! Fig. 1 — motivation: single-path WebRTC FPS and E2E latency collapse
//! under driving-grade cellular bandwidth variation.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{ScenarioConfig, SchedulerKind};

use crate::runner::{Job, Scale};
use crate::sweep::ExperimentSpec;

/// Declares the two single-path calls (one per carrier) of Fig. 1. Not a
/// table: each printed second zips the two calls with the carriers' rates.
pub fn spec(scale: Scale) -> ExperimentSpec {
    let duration = scale.duration();
    let seed = 42;
    // Carrier A is the "T-Mobile"-like path 1, carrier B the "Verizon"-like path 0.
    let cell_a = Cell::system(ScenarioSpec::Driving, SchedulerKind::SinglePath(1), 1);
    let cell_b = Cell::system(ScenarioSpec::Driving, SchedulerKind::SinglePath(0), 1);
    ExperimentSpec {
        jobs: vec![
            Job::new(cell_a, duration, seed),
            Job::new(cell_b, duration, seed),
        ],
        fold: Box::new(move |reports| {
            let (ra, rb) = (&reports[0], &reports[1]);
            let scenario = ScenarioConfig::driving(duration, seed);

            let mut out = String::new();
            out.push_str("# Fig. 1 — WebRTC degrades under cellular bandwidth variation\n");
            out.push_str("# columns: t_s carrierA_mbps carrierB_mbps fpsA fpsB e2eA_ms e2eB_ms\n");
            for (i, (ba, bb)) in ra.bins.iter().zip(rb.bins.iter()).enumerate() {
                let t = converge_net::SimTime::from_secs(i as u64);
                let rate_a = scenario.paths[1].trace.rate_at(t) as f64 / 1e6;
                let rate_b = scenario.paths[0].trace.rate_at(t) as f64 / 1e6;
                out.push_str(&format!(
                    "{i} {rate_a:.2} {rate_b:.2} {} {} {:.0} {:.0}\n",
                    ba.frames_decoded,
                    bb.frames_decoded,
                    ba.e2e_ms().unwrap_or(0.0),
                    bb.e2e_ms().unwrap_or(0.0),
                ));
            }

            let min_fps_a = ra.bins.iter().map(|b| b.frames_decoded).min().unwrap_or(0);
            let min_fps_b = rb.bins.iter().map(|b| b.frames_decoded).min().unwrap_or(0);
            out.push_str(&format!(
                "# summary: carrierA min/avg fps = {}/{:.1}; carrierB min/avg fps = {}/{:.1}\n",
                min_fps_a, ra.fps, min_fps_b, rb.fps
            ));
            out.push_str("# paper shape: FPS repeatedly collapses toward 0 and E2E spikes when\n");
            out.push_str("# the active carrier's bandwidth dips; the dips of the two carriers\n");
            out.push_str("# do not coincide (multipath headroom exists).\n");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shows_fps_variation() {
        // Full scale: the 30 s quick window may fall between coverage gaps.
        let out = crate::sweep::render(spec(Scale::Full), crate::sweep::CellCache::global());
        assert!(out.contains("summary"));
        // At least one second of degraded FPS must appear in driving, on
        // at least one of the two carriers.
        let degraded = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut w = l.split_whitespace();
                let a: u32 = w.nth(3)?.parse().ok()?;
                let b: u32 = w.next()?.parse().ok()?;
                Some(a.min(b))
            })
            .any(|fps| fps < 24);
        assert!(degraded, "expected FPS dips in the driving trace:\n{out}");
    }
}
