//! The `fleet` experiment: QoE fairness at fleet scale.
//!
//! Unlike the figure regenerators, the fleet experiment does not decompose
//! into `Cell × seed` sweep jobs: like [`super::traces`] it declares none,
//! and its fold runs the [`FleetEngine`] at a fixed shape — conferences of
//! 4 behind 8 Mbit/s ingress bottlenecks, seed 1, one shard — then a small
//! sessions × conference-size × bottleneck grid. `Scale::Quick` runs 200
//! sessions for 5 s, `Scale::Full` 1 000 for 20 s. The invariant checker
//! is armed on every member, and a violation fails the fold.
//!
//! The report's fold section comes verbatim from
//! [`converge_sim::FleetReport::fold_text`] and nothing in it reads a
//! clock, so it is byte-identical from run to run. The engine's speed is
//! the repo benchmark's `fleet-sfu` workload (`benchmark/`).

use std::fmt::Write as _;

use converge_net::SimDuration;
use converge_sim::{FleetConfig, FleetEngine, FleetReport};

use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// Declares the fleet experiment as a zero-job experiment: the engine puts
/// nothing on the sweep's pool, the fold does all the work.
pub fn spec(scale: Scale) -> ExperimentSpec {
    ExperimentSpec {
        jobs: Vec::new(),
        fold: Box::new(move |_reports| report(scale)),
    }
}

/// One checked run of `sessions` members in conferences of `size` for
/// `secs` seconds behind `mbps` Mbit/s bottlenecks.
fn run(sessions: usize, size: usize, mbps: f64, secs: u64) -> FleetReport {
    let mut cfg = FleetConfig::new(sessions, size);
    cfg.bottleneck_ingress_bps = (mbps * 1e6) as u64;
    cfg.duration = SimDuration::from_secs(secs);
    cfg.check_invariants = true;
    let fleet = FleetEngine::new(cfg).run();
    assert_eq!(
        fleet.violations, 0,
        "fleet: control-loop invariants violated"
    );
    fleet
}

fn report(scale: Scale) -> String {
    let (sessions, secs) = match scale {
        Scale::Quick => (200, 5),
        Scale::Full => (1000, 20),
    };
    let fleet = run(sessions, 4, 8.0, secs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fleet: {} sessions x {}s through {} SFU conference(s)",
        fleet.sessions,
        fleet.duration.as_secs_f64(),
        fleet.conferences.len()
    );
    out.push_str(&fleet.fold_text());

    // Each grid cell reports median QoE, showing how fairness moves with
    // conference shape and bottleneck pressure.
    out.push_str("grid|sessions|size|bottleneck_mbps|qoe_p50\n");
    for cell_sessions in [sessions / 8, sessions / 4] {
        for size in [2, 4] {
            for mbps in [4.0, 8.0] {
                let fleet = run(cell_sessions, size, mbps, secs);
                let _ = writeln!(
                    out,
                    "cell|{}|{}|{mbps:.1}|{:.6}",
                    fleet.sessions,
                    fleet.conference_size,
                    fleet.qoe_quantiles()[2]
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::sweep::{render, CellCache};

    /// The quick report, rendered once for the tests that read it.
    fn quick_report() -> &'static str {
        static REPORT: OnceLock<String> = OnceLock::new();
        REPORT.get_or_init(|| render(spec(Scale::Quick), CellCache::global()))
    }

    #[test]
    fn fleet_declares_no_jobs() {
        for scale in [Scale::Quick, Scale::Full] {
            assert!(spec(scale).jobs.is_empty(), "{scale:?}");
        }
    }

    #[test]
    fn quick_report_carries_the_fold_and_the_grid() {
        let report = quick_report();
        assert!(report.starts_with("# fleet: 200 sessions x 5s through 50 SFU conference(s)\n"));
        assert!(report.contains("\ntotal|decoded="), "{report}");
        assert!(report.contains("\nqoe|p5="), "{report}");
        assert!(
            report.contains("\ngrid|sessions|size|bottleneck_mbps|qoe_p50\n"),
            "{report}"
        );
        assert_eq!(report.matches("\ncell|").count(), 8, "{report}");
    }

    #[test]
    fn quick_report_is_run_invariant() {
        assert_eq!(
            quick_report(),
            render(spec(Scale::Quick), CellCache::global())
        );
    }
}
