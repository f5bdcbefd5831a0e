//! Design-choice ablations called out in DESIGN.md (beyond the paper's own
//! feedback ablation of Fig. 11): video-aware prioritization on/off, the
//! fast-path selection metric of Algorithm 1 vs simpler criteria, and FEC
//! policy variants including no protection at all.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{FecKind, SchedulerKind};

use super::table::Table;
use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// Converge on one camera stream: the cell every ablation turns one knob of.
fn converge_cell(scenario: ScenarioSpec) -> Cell {
    Cell::new(scenario, SchedulerKind::Converge, FecKind::Converge, 1)
}

/// Declares ablation A: video-awareness on/off, every seed.
pub fn spec_priority(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Ablation — video-aware prioritization (driving, 1 stream)")
        .label("variant", 26)
        .mean("norm_fps", 10, 2, |r| r.normalized_fps())
        .mean("kf_requests", 14, 1, |r| r.keyframe_requests as f64)
        .mean("frame_drops", 14, 0, |r| r.frames_dropped as f64)
        .mean("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
        .note("# expectation: without priorities, keyframe/control packets spread")
        .note("# onto weak paths and decode chains break more often.");
    for (label, scheduler) in [
        ("priority-on (Converge)", SchedulerKind::Converge),
        ("priority-off", SchedulerKind::ConvergeNoPriority),
    ] {
        let mut cell = converge_cell(ScenarioSpec::Driving);
        cell.scheduler = scheduler;
        table.row(&[&label], cell);
    }
    table.spec(scale.seeds(), scale.duration())
}

/// Declares ablation B: completion-time vs minRTT fast path, every seed.
pub fn spec_fastpath(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Ablation — fast-path metric (driving, 1 stream)")
        .label("variant", 30)
        .mean("norm_fps", 10, 2, |r| r.normalized_fps())
        .mean("avg_stall_ms", 14, 0, |r| r.avg_freeze_ms())
        .mean("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
        .note("# expectation: minRTT can pick a low-latency thin path that cannot")
        .note("# absorb a priority burst; completion time accounts for batch size.");
    for (label, scheduler) in [
        ("completion-time (Alg. 1)", SchedulerKind::Converge),
        ("minRTT fast path", SchedulerKind::ConvergeMinRttFast),
    ] {
        let mut cell = converge_cell(ScenarioSpec::Driving);
        cell.scheduler = scheduler;
        table.row(&[&label], cell);
    }
    table.spec(scale.seeds(), scale.duration())
}

/// Ablation C's table: three FEC policies at 3 % loss.
fn fec_table() -> Table {
    let mut table = Table::new("# Ablation — FEC policy at 3% loss (two 15 Mbps paths)")
        .label("policy", 16)
        .mean("norm_fps", 10, 2, |r| r.normalized_fps())
        .mean("fec_ovh_%", 12, 1, |r| r.fec_overhead_pct())
        .mean("nacks", 12, 0, |r| r.nacks_sent as f64)
        .mean("rtx", 12, 0, |r| r.retransmissions as f64)
        .mean("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
        .note("# expectation: no FEC leans entirely on NACK/RTX (latency cost);")
        .note("# the table overspends; Converge sits between.");
    for (label, fec) in [
        ("converge", FecKind::Converge),
        ("webrtc-table", FecKind::WebRtcTable),
        ("none", FecKind::None),
    ] {
        let mut cell = converge_cell(ScenarioSpec::fec_tradeoff_pct(3.0));
        cell.fec = fec;
        table.row(&[&label], cell);
    }
    table
}

/// Declares ablation C: `fec_table` over every seed.
pub fn spec_fec(scale: Scale) -> ExperimentSpec {
    fec_table().spec(scale.seeds(), scale.duration())
}

/// Declares ablation D: drop-tail vs CoDel at the bottleneck, seed 42.
/// `ScenarioSpec::AqmTuned` carries the modified scenario declaratively,
/// so these cells memoize like any other.
pub fn spec_aqm(scale: Scale) -> ExperimentSpec {
    let mut table =
        Table::new("# Ablation - bottleneck queue discipline (two 10 Mbps / 80 ms paths)")
            .label("discipline", 12)
            .num("norm_fps", 10, 2, |r| r.normalized_fps())
            .num("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
            .num("e2e_p95_ms", 12, 0, |r| r.e2e_p95_ms)
            .num("tput_mbps", 12, 2, |r| r.throughput_bps / 1e6)
            .note("# expectation: CoDel caps the standing queue, cutting tail latency;")
            .note("# GCC's delay-based control keeps drop-tail queues short already, so")
            .note("# the gap is modest on clean paths and grows under bursts.");
    for (label, codel) in [("drop-tail", false), ("codel", true)] {
        table.row(&[&label], converge_cell(ScenarioSpec::AqmTuned { codel }));
    }
    table.spec(&[42], scale.duration())
}

/// Declares ablation E: uncoupled vs LIA-coupled CC, seed 42. The
/// `Cell::coupled_cc` knob keeps these cells declarative and cacheable.
pub fn spec_coupling(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Ablation - CC coupling on two independent 15 Mbps paths")
        .label("coupling", 12)
        // Ramp speed: delivered rate over the first 8 seconds, where the
        // dampened growth of coupled subflows shows.
        .num("ramp_8s_mbps", 14, 2, |r| {
            let ramp_bits: u64 = r.bins.iter().take(8).map(|b| b.media_bits).sum();
            ramp_bits as f64 / 8.0 / 1e6
        })
        .num("tput_mbps", 12, 2, |r| r.throughput_bps / 1e6)
        .num("norm_fps", 10, 2, |r| r.normalized_fps())
        .num("e2e_ms", 12, 0, |r| r.e2e_mean_ms)
        .note("# finding: on independent paths, coupling never helps; in this GCC")
        .note("# the effect is near-zero because the 1.5x-incoming growth gate (not")
        .note("# the growth exponent) binds the ramp. Uncoupled is strictly simpler")
        .note("# at no cost, supporting the paper's section 4.1 choice.");
    for (label, coupled_cc) in [("uncoupled", false), ("lia-coupled", true)] {
        let mut cell = converge_cell(ScenarioSpec::fec_tradeoff_pct(0.0));
        cell.coupled_cc = coupled_cc;
        table.row(&[&label], cell);
    }
    table.spec(&[42], scale.duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use crate::sweep::CellCache;

    #[test]
    fn no_fec_needs_more_retransmissions() {
        let (table, scale) = (fec_table(), Scale::Quick);
        let runs = CellCache::global().runs(&table.jobs(scale.seeds(), scale.duration()));
        let reports = crate::sweep::reports_of(&runs);
        let none_rtx = table.value(&reports, &["none"], "rtx");
        let conv_rtx = table.value(&reports, &["converge"], "rtx");
        assert!(
            none_rtx > conv_rtx,
            "no-FEC rtx {none_rtx} should exceed Converge-FEC rtx {conv_rtx}"
        );
    }

    #[test]
    fn coupled_cc_converges_no_faster_than_uncoupled() {
        let run = |coupled: bool| {
            let mut cell = Cell::new(
                ScenarioSpec::fec_tradeoff_pct(0.0),
                SchedulerKind::Converge,
                FecKind::Converge,
                1,
            );
            cell.coupled_cc = coupled;
            let job = Job::new(cell, converge_net::SimDuration::from_secs(15), 4);
            CellCache::global().get_or_run(&job).report.clone()
        };
        let uncoupled = run(false);
        let coupled = run(true);
        // Early-call throughput (ramp speed) must not favour coupling.
        let early = |r: &converge_sim::CallReport| -> u64 {
            r.bins.iter().take(8).map(|b| b.media_bits).sum()
        };
        assert!(
            early(&coupled) <= early(&uncoupled),
            "coupled ramp {} should not beat uncoupled {}",
            early(&coupled),
            early(&uncoupled)
        );
    }

    #[test]
    fn ablated_schedulers_still_function() {
        for scheduler in [
            SchedulerKind::ConvergeNoPriority,
            SchedulerKind::ConvergeMinRttFast,
        ] {
            let cell = Cell::new(
                ScenarioSpec::fec_tradeoff_pct(0.0),
                scheduler,
                FecKind::Converge,
                1,
            );
            let job = Job::new(cell, converge_net::SimDuration::from_secs(10), 3);
            let r = &CellCache::global().get_or_run(&job).report;
            assert!(
                r.frames_decoded > 100,
                "{}: {} frames",
                scheduler.label(),
                r.frames_decoded
            );
        }
    }
}
