//! One regenerator per table/figure of the paper's evaluation. Each module
//! exposes a `spec*` function declaring its jobs plus a fold that renders
//! the printable report. The `experiments` binary hands the specs to the
//! sweep engine ([`crate::sweep`]), which executes the union of all jobs
//! on the worker pool with cross-experiment memoization;
//! [`crate::sweep::render`] runs one spec on the calling thread.

pub mod ablations;
pub mod chaos;
pub mod drive;
pub mod fec_tradeoff;
pub mod fig1;
pub mod fig11_table4;
pub mod fig14_15;
pub mod fig3_table1;
pub mod fig9_10_table3;
pub mod fleet;
pub mod shootout;
pub mod stationary;
pub mod traces;

use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// One registry entry: an experiment ID (plus aliases that resolve to the
/// same runs, like `table1` → `fig3`) and its declarative spec.
pub struct ExperimentDef {
    /// Primary experiment ID.
    pub id: &'static str,
    /// Alternate IDs producing the same report (shared runs).
    pub aliases: &'static [&'static str],
    /// One-line description for `experiments list`.
    pub desc: &'static str,
    /// Builds the job list + fold at a given scale.
    pub spec: fn(Scale) -> ExperimentSpec,
}

impl ExperimentDef {
    /// Whether `target` names this experiment (by ID or alias).
    pub fn matches(&self, target: &str) -> bool {
        self.id == target || self.aliases.contains(&target)
    }
}

/// Every experiment, in report order. `fig3` carries the `table1` alias —
/// both come from the same cells, so one spec emits the combined report
/// and `all` schedules it exactly once.
pub fn registry() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            id: "fig1",
            aliases: &[],
            desc: "WebRTC degradation under cellular variation",
            spec: fig1::spec,
        },
        ExperimentDef {
            id: "fig3",
            aliases: &["table1"],
            desc: "FPS/freeze/FEC + drops/keyframes vs variants, 1-3 streams",
            spec: fig3_table1::spec,
        },
        ExperimentDef {
            id: "fig9",
            aliases: &[],
            desc: "walking/driving time series",
            spec: fig9_10_table3::spec_fig9,
        },
        ExperimentDef {
            id: "fig10",
            aliases: &[],
            desc: "normalized QoE bars",
            spec: fig9_10_table3::spec_fig10,
        },
        ExperimentDef {
            id: "table3",
            aliases: &[],
            desc: "E2E / FEC overhead / FEC utilization",
            spec: fig9_10_table3::spec_table3,
        },
        ExperimentDef {
            id: "fig11",
            aliases: &[],
            desc: "QoE feedback ablation time series",
            spec: fig11_table4::spec_fig11,
        },
        ExperimentDef {
            id: "table4",
            aliases: &[],
            desc: "QoE feedback ablation summary",
            spec: fig11_table4::spec_table4,
        },
        ExperimentDef {
            id: "fig12",
            aliases: &[],
            desc: "FEC overhead & utilization vs loss",
            spec: fec_tradeoff::spec_fig12,
        },
        ExperimentDef {
            id: "fig13",
            aliases: &[],
            desc: "throughput vs E2E delay trade-off",
            spec: fec_tradeoff::spec_fig13,
        },
        ExperimentDef {
            id: "table5",
            aliases: &[],
            desc: "% QoE improvement vs loss rate",
            spec: fec_tradeoff::spec_table5,
        },
        ExperimentDef {
            id: "fig14",
            aliases: &[],
            desc: "driving comparison vs all systems",
            spec: fig14_15::spec_fig14,
        },
        ExperimentDef {
            id: "fig14c",
            aliases: &[],
            desc: "E2E latency CDF",
            spec: fig14_15::spec_fig14c,
        },
        ExperimentDef {
            id: "fig15",
            aliases: &[],
            desc: "PSNR comparison",
            spec: fig14_15::spec_fig15,
        },
        ExperimentDef {
            id: "fig16",
            aliases: &[],
            desc: "stationary time series",
            spec: stationary::spec_fig16,
        },
        ExperimentDef {
            id: "fig17",
            aliases: &[],
            desc: "stationary normalized QoE",
            spec: stationary::spec_fig17,
        },
        ExperimentDef {
            id: "table6",
            aliases: &[],
            desc: "stationary E2E / FEC",
            spec: stationary::spec_table6,
        },
        ExperimentDef {
            id: "traces",
            aliases: &[],
            desc: "Figs. 20-22 bandwidth dynamics",
            spec: traces::spec,
        },
        ExperimentDef {
            id: "abl-priority",
            aliases: &[],
            desc: "ablation: video-aware prioritization",
            spec: ablations::spec_priority,
        },
        ExperimentDef {
            id: "abl-fastpath",
            aliases: &[],
            desc: "ablation: fast-path metric",
            spec: ablations::spec_fastpath,
        },
        ExperimentDef {
            id: "abl-fec",
            aliases: &[],
            desc: "ablation: FEC policy incl. none",
            spec: ablations::spec_fec,
        },
        ExperimentDef {
            id: "abl-aqm",
            aliases: &[],
            desc: "ablation: bottleneck queue discipline",
            spec: ablations::spec_aqm,
        },
        ExperimentDef {
            id: "abl-coupling",
            aliases: &[],
            desc: "ablation: coupled vs uncoupled per-path CC",
            spec: ablations::spec_coupling,
        },
        ExperimentDef {
            id: "chaos",
            aliases: &[],
            desc: "fault-injection matrix: scheduler x impairment x seed",
            spec: chaos::spec,
        },
        ExperimentDef {
            id: "shootout",
            aliases: &[],
            desc: "controller shootout: GCC vs NADA vs mp-BBR",
            spec: shootout::spec,
        },
        ExperimentDef {
            id: "drive",
            aliases: &[],
            desc: "drive replay: 4-8 path fixtures x scheduler x controller",
            spec: drive::spec,
        },
    ]
}

/// A cell's reports over every seed of [`Scale::Quick`], through the
/// process-wide cache: what the paper-shape tests average over.
#[cfg(test)]
fn quick_reports(cell: crate::runner::Cell) -> Vec<converge_sim::CallReport> {
    let cache = crate::sweep::CellCache::global();
    let scale = Scale::Quick;
    scale
        .seeds()
        .iter()
        .map(|&seed| {
            let job = crate::runner::Job::new(cell, scale.duration(), seed);
            cache.get_or_run(&job).report.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_and_aliases_are_unique() {
        let defs = registry();
        let mut names = std::collections::HashSet::new();
        for def in &defs {
            assert!(names.insert(def.id), "duplicate id {}", def.id);
            for alias in def.aliases {
                assert!(names.insert(alias), "duplicate alias {alias}");
            }
        }
        // table1 resolves to fig3's combined spec, not a second entry.
        assert!(names.contains("table1"));
        assert_eq!(defs.iter().filter(|d| d.matches("table1")).count(), 1);
        assert!(defs.iter().find(|d| d.matches("table1")).unwrap().id == "fig3");
    }

    #[test]
    fn every_spec_declares_valid_jobs() {
        for def in registry() {
            let spec = (def.spec)(Scale::Quick);
            for job in &spec.jobs {
                assert!(!job.fingerprint().is_empty(), "{}", def.id);
                assert!(job.sim_seconds() > 0.0, "{}", def.id);
            }
        }
    }
}
