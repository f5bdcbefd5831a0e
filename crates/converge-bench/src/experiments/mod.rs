//! One regenerator per table/figure of the paper's evaluation. Each module
//! exposes a `spec*` function; most declare a [`table::Table`] — rows and
//! columns written once, from which the jobs and the fold that renders the
//! printable report both follow — and the few that are not a table (zipped
//! time series, improvement pairs, the job-less trace dump) write their
//! jobs and fold by hand. The `experiments` binary hands the specs to the
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
pub mod table;
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

/// The seeds of a CI gate matrix (shootout, drive): quick scale is the
/// smoke cell and runs one seed per row; full scale averages over every
/// seed.
fn gate_seeds(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Quick => &scale.seeds()[..1],
        Scale::Full => scale.seeds(),
    }
}

/// One [`REGISTRY`] row: `(id, aliases, desc, spec)`.
type Row = (&'static str, &'static [&'static str], &'static str, fn(Scale) -> ExperimentSpec);

/// Every experiment, in report order. `fig3` carries the `table1` alias —
/// both come from the same cells, so one spec emits the combined report
/// and `all` schedules it exactly once.
#[rustfmt::skip]
const REGISTRY: [Row; 25] = [
    ("fig1", &[], "WebRTC degradation under cellular variation", fig1::spec),
    ("fig3", &["table1"], "FPS/freeze/FEC + drops/keyframes vs variants, 1-3 streams", fig3_table1::spec),
    ("fig9", &[], "walking/driving time series", fig9_10_table3::spec_fig9),
    ("fig10", &[], "normalized QoE bars", fig9_10_table3::spec_fig10),
    ("table3", &[], "E2E / FEC overhead / FEC utilization", fig9_10_table3::spec_table3),
    ("fig11", &[], "QoE feedback ablation time series", fig11_table4::spec_fig11),
    ("table4", &[], "QoE feedback ablation summary", fig11_table4::spec_table4),
    ("fig12", &[], "FEC overhead & utilization vs loss", fec_tradeoff::spec_fig12),
    ("fig13", &[], "throughput vs E2E delay trade-off", fec_tradeoff::spec_fig13),
    ("table5", &[], "% QoE improvement vs loss rate", fec_tradeoff::spec_table5),
    ("fig14", &[], "driving comparison vs all systems", fig14_15::spec_fig14),
    ("fig14c", &[], "E2E latency CDF", fig14_15::spec_fig14c),
    ("fig15", &[], "PSNR comparison", fig14_15::spec_fig15),
    ("fig16", &[], "stationary time series", stationary::spec_fig16),
    ("fig17", &[], "stationary normalized QoE", stationary::spec_fig17),
    ("table6", &[], "stationary E2E / FEC", stationary::spec_table6),
    ("traces", &[], "Figs. 20-22 bandwidth dynamics", traces::spec),
    ("abl-priority", &[], "ablation: video-aware prioritization", ablations::spec_priority),
    ("abl-fastpath", &[], "ablation: fast-path metric", ablations::spec_fastpath),
    ("abl-fec", &[], "ablation: FEC policy incl. none", ablations::spec_fec),
    ("abl-aqm", &[], "ablation: bottleneck queue discipline", ablations::spec_aqm),
    ("abl-coupling", &[], "ablation: coupled vs uncoupled per-path CC", ablations::spec_coupling),
    ("chaos", &[], "fault-injection matrix: scheduler x impairment x seed", chaos::spec),
    ("shootout", &[], "controller shootout: GCC vs NADA vs mp-BBR", shootout::spec),
    ("drive", &[], "drive replay: 4-8 path fixtures x scheduler x controller", drive::spec),
];

/// The [`REGISTRY`] rows as [`ExperimentDef`]s.
pub fn registry() -> Vec<ExperimentDef> {
    let def = |&(id, aliases, desc, spec)| ExperimentDef {
        id,
        aliases,
        desc,
        spec,
    };
    REGISTRY.iter().map(def).collect()
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
        // Building a spec declares its table: a row with the wrong label
        // count, or two rows a lookup could not tell apart, panic here.
        for def in registry() {
            for scale in [Scale::Quick, Scale::Full] {
                for job in (def.spec)(scale).jobs {
                    assert!(!job.fingerprint().is_empty(), "{}", def.id);
                    assert!(job.sim_seconds() > 0.0, "{}", def.id);
                }
            }
        }
    }

    /// Scenario builders take the call's duration, so a short one must
    /// build too: every distinct job of the registry, cut to 100 ms, runs.
    /// (Fig. 11's and Table 4's rate trace had no segment under 500 ms.)
    #[test]
    fn every_registry_job_runs_at_100_ms() {
        use crate::runner::Job;
        use converge_net::SimDuration;

        let mut jobs = std::collections::HashSet::new();
        for def in registry() {
            for job in (def.spec)(Scale::Quick).jobs {
                jobs.insert(Job::new(job.cell, SimDuration::from_millis(100), job.seed));
            }
        }
        assert!(jobs.len() > 50, "{} jobs", jobs.len());
        for job in jobs {
            let report = job.run_uncached();
            assert!(report.frames_encoded > 0, "{}", job.fingerprint());
        }
    }
}
