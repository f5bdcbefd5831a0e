//! The `fleet` experiment: QoE fairness at fleet scale.
//!
//! Unlike the figure regenerators, the fleet experiment does not decompose
//! into `Cell × seed` sweep jobs: one invocation *is* one run of the
//! sharded [`FleetEngine`], which puts its conferences on the worker pool
//! itself. The `experiments` binary special-cases the `fleet` target onto
//! [`run_fleet`].
//!
//! The report's fold section comes verbatim from
//! [`converge_sim::FleetReport::fold_text`] and nothing in it reads a
//! clock, so stdout is byte-identical for any `--shards` value and from
//! run to run. The engine's speed is the repo benchmark's `fleet-sfu`
//! workload (`benchmark/`).

use std::fmt::Write as _;

use converge_net::SimDuration;
use converge_sim::{FleetConfig, FleetEngine};

/// CLI-level options of one fleet invocation.
#[derive(Debug, Clone)]
pub struct FleetOpts {
    /// Total concurrent sessions.
    pub sessions: usize,
    /// Members per conference.
    pub conference_size: usize,
    /// Worker shards (0 = one per available core).
    pub shards: usize,
    /// Shared ingress bottleneck per conference, Mbps.
    pub bottleneck_mbps: f64,
    /// Call duration in seconds (0 = the 20 s default; `--quick` uses 5 s).
    pub duration_s: u64,
    /// Master seed.
    pub seed: u64,
    /// Arm invariant checking on every member.
    pub check_invariants: bool,
    /// Shrink the run for smoke testing.
    pub quick: bool,
    /// Also sweep a small sessions × conference-size × bottleneck grid.
    pub grid: bool,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            sessions: 1000,
            conference_size: 4,
            shards: 0,
            bottleneck_mbps: 8.0,
            duration_s: 0,
            seed: 1,
            check_invariants: false,
            quick: false,
            grid: false,
        }
    }
}

/// The outcome of one fleet invocation: the deterministic stdout report
/// and the invariant violation count.
#[derive(Debug)]
pub struct FleetRunOutput {
    /// Printable report (fold + fairness summary); shard-count invariant.
    pub report: String,
    /// Invariant violations (0 unless `--check-invariants` found some).
    pub violations: usize,
}

fn build_config(opts: &FleetOpts) -> FleetConfig {
    let mut cfg = FleetConfig::new(opts.sessions, opts.conference_size);
    cfg.shards = if opts.shards == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        opts.shards
    };
    cfg.seed = opts.seed;
    cfg.bottleneck_ingress_bps = (opts.bottleneck_mbps * 1e6) as u64;
    cfg.duration = match (opts.duration_s, opts.quick) {
        (0, true) => SimDuration::from_secs(5),
        (0, false) => SimDuration::from_secs(20),
        (s, _) => SimDuration::from_secs(s),
    };
    cfg.check_invariants = opts.check_invariants;
    cfg
}

/// Runs the fleet experiment and renders its report.
pub fn run_fleet(opts: &FleetOpts) -> FleetRunOutput {
    let fleet = FleetEngine::new(build_config(opts)).run();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# fleet: {} sessions x {}s through {} SFU conference(s)",
        fleet.sessions,
        fleet.duration.as_secs_f64(),
        fleet.conferences.len()
    );
    report.push_str(&fleet.fold_text());
    if opts.grid {
        report.push_str(&run_grid(opts));
    }

    FleetRunOutput {
        report,
        violations: fleet.violations,
    }
}

/// A small sessions × conference-size × bottleneck grid at reduced scale:
/// each cell reports median QoE, showing how fairness moves with
/// conference shape and bottleneck pressure.
fn run_grid(opts: &FleetOpts) -> String {
    let base_sessions = (opts.sessions / 4).max(8);
    let mut out = String::from("grid|sessions|size|bottleneck_mbps|qoe_p50\n");
    for &sessions in &[base_sessions / 2, base_sessions] {
        for &size in &[2usize, opts.conference_size.max(3)] {
            for &mbps in &[opts.bottleneck_mbps / 2.0, opts.bottleneck_mbps] {
                let mut cell = opts.clone();
                cell.sessions = sessions;
                cell.conference_size = size;
                cell.bottleneck_mbps = mbps;
                let fleet = FleetEngine::new(build_config(&cell)).run();
                let _ = writeln!(
                    out,
                    "cell|{}|{}|{:.1}|{:.6}",
                    fleet.sessions,
                    fleet.conference_size,
                    mbps,
                    fleet.qoe_quantiles()[2]
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetOpts {
        FleetOpts {
            sessions: 8,
            conference_size: 4,
            shards: 2,
            duration_s: 3,
            quick: true,
            ..FleetOpts::default()
        }
    }

    #[test]
    fn fleet_json_carries_the_ratchet_metric() {
        let out = run_fleet(&tiny());
        assert!(out
            .report
            .starts_with("# fleet: 8 sessions x 3s through 2 SFU conference(s)\n"));
        assert!(out.report.contains("\ntotal|decoded="), "{}", out.report);
        assert!(out.report.contains("\nqoe|p5="), "{}", out.report);
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn fleet_report_is_shard_invariant() {
        let mut one = tiny();
        one.shards = 1;
        let a = run_fleet(&one);
        let b = run_fleet(&tiny());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn grid_report_is_shard_and_run_invariant() {
        let grid = |shards| {
            let opts = FleetOpts {
                shards,
                grid: true,
                ..tiny()
            };
            run_fleet(&opts).report
        };
        let one = grid(1);
        assert!(
            one.contains("\ngrid|sessions|size|bottleneck_mbps|qoe_p50\n"),
            "{one}"
        );
        assert_eq!(one.matches("\ncell|").count(), 8);
        let two = grid(2);
        assert_eq!(one, two, "1 shard vs 2");
        assert_eq!(two, grid(2), "two consecutive runs");
    }

    #[test]
    fn invariants_armed_run_stays_clean() {
        let mut opts = tiny();
        opts.check_invariants = true;
        let out = run_fleet(&opts);
        assert_eq!(out.violations, 0);
    }
}
