//! Figs. 12–13 and Table 5 — the FEC trade-off study: Converge's
//! path-specific controller vs WebRTC's static table on two 15 Mbps /
//! 100 ms paths, loss swept 0–10 %.

use converge_sim::cells::{Cell, ScenarioSpec};
use converge_sim::{FecKind, SchedulerKind};

use super::table::Table;
use crate::runner::{Job, Scale};
use crate::sweep::ExperimentSpec;

fn pair_cell(loss_pct: f64, fec: FecKind) -> Cell {
    Cell::new(
        ScenarioSpec::fec_tradeoff_pct(loss_pct),
        SchedulerKind::Converge,
        fec,
        1,
    )
}

const FIG12_LOSSES: [f64; 7] = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0];
const FIG13_LOSSES: [f64; 4] = [1.0, 2.0, 5.0, 10.0];
const POLICIES: [(&str, FecKind); 2] = [
    ("webrtc-table", FecKind::WebRtcTable),
    ("converge", FecKind::Converge),
];

/// Declares Fig. 12: both policies across the loss sweep, seed 7.
pub fn spec_fig12(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Fig. 12 — FEC overhead & utilization vs loss rate")
        .label_right("loss%", 6)
        .label("policy", 14)
        .num("ovh_%", 10, 1, |r| r.fec_overhead_pct())
        .num("util_%", 10, 1, |r| r.fec_utilization_pct())
        .note("# paper shape: the table sends ~40% overhead at 1% loss with <20%")
        .note("# utilization; Converge sends ~5% and uses almost all of it.");
    for loss in FIG12_LOSSES {
        for (label, fec) in POLICIES {
            table.row(&[&format_args!("{loss:.1}"), &label], pair_cell(loss, fec));
        }
    }
    table.spec(&[7], scale.duration())
}

/// Declares Fig. 13: both policies at four loss rates, seed 13. Scatter
/// records for plotting: a table of width 0, so nothing is padded and the
/// header is the `# columns:` comment.
pub fn spec_fig13(scale: Scale) -> ExperimentSpec {
    let mut table = Table::new("# Fig. 13 — throughput vs E2E delay trade-off")
        .label("# columns: loss%", 0)
        .label("policy", 0)
        .num("tput_mbps", 0, 2, |r| r.throughput_bps / 1e6)
        .num("e2e_ms", 0, 1, |r| r.e2e_mean_ms)
        .note("# paper shape: Converge sits in the upper-left (high throughput, low")
        .note("# delay); the table pays both throughput and latency for its FEC.");
    for loss in FIG13_LOSSES {
        for (label, fec) in POLICIES {
            table.row(&[&loss, &label], pair_cell(loss, fec));
        }
    }
    table.spec(&[13], scale.duration())
}

/// Declares Table 5: both policies at 1–10 % integer loss rates, seed 21.
/// Not a table of cells: each row is the improvement between two calls.
pub fn spec_table5(scale: Scale) -> ExperimentSpec {
    let job = |loss: u32, fec| Job::new(pair_cell(loss as f64, fec), scale.duration(), 21);
    ExperimentSpec {
        jobs: (1..=10)
            .flat_map(|loss| {
                [
                    job(loss, FecKind::WebRtcTable),
                    job(loss, FecKind::Converge),
                ]
            })
            .collect(),
        fold: Box::new(move |reports| {
            let mut out =
                String::from("# Table 5 — % improvement, Converge FEC vs WebRTC table FEC\n");
            out.push_str(&format!(
                "{:>6} {:>14} {:>14} {:>14}\n",
                "loss%", "drops_%", "freeze_%", "kf_req_%"
            ));
            let improvement = |base: f64, ours: f64| {
                if base <= 0.0 {
                    0.0
                } else {
                    ((base - ours) / base * 100.0).max(0.0)
                }
            };
            for (loss, pair) in (1..=10).zip(reports.chunks(2)) {
                let (table, conv) = (&pair[0], &pair[1]);
                out.push_str(&format!(
                    "{:>6} {:>14.0} {:>14.0} {:>14.0}\n",
                    loss,
                    improvement(table.frames_dropped as f64, conv.frames_dropped as f64),
                    improvement(table.freeze_total_ms, conv.freeze_total_ms),
                    improvement(
                        table.keyframe_requests as f64,
                        conv.keyframe_requests as f64
                    ),
                ));
            }
            out.push_str("# paper shape: ~90%+ fewer frame drops, ~50% less freezing, and\n");
            out.push_str("# 50-80% fewer keyframe requests across the sweep.\n");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_sim::CallReport;

    fn run_pair(loss_pct: f64, fec: FecKind, scale: Scale, seed: u64) -> CallReport {
        crate::sweep::CellCache::global()
            .get_or_run(&Job::new(pair_cell(loss_pct, fec), scale.duration(), seed))
            .report
            .clone()
    }

    #[test]
    fn converge_fec_dominates_table_at_low_loss() {
        let table = run_pair(1.0, FecKind::WebRtcTable, Scale::Quick, 3);
        let conv = run_pair(1.0, FecKind::Converge, Scale::Quick, 3);
        assert!(
            conv.fec_overhead_pct() * 3.0 < table.fec_overhead_pct(),
            "converge {:.1}% vs table {:.1}%",
            conv.fec_overhead_pct(),
            table.fec_overhead_pct()
        );
        assert!(
            conv.fec_utilization_pct() > table.fec_utilization_pct(),
            "converge util {:.1}% vs table {:.1}%",
            conv.fec_utilization_pct(),
            table.fec_utilization_pct()
        );
    }

    #[test]
    fn converge_fec_keeps_higher_throughput() {
        let table = run_pair(5.0, FecKind::WebRtcTable, Scale::Quick, 5);
        let conv = run_pair(5.0, FecKind::Converge, Scale::Quick, 5);
        assert!(
            conv.throughput_bps >= table.throughput_bps * 0.95,
            "converge tput {:.2} must not lose to table {:.2}",
            conv.throughput_bps / 1e6,
            table.throughput_bps / 1e6
        );
    }
}
