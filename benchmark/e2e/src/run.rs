//! One end-to-end run of one workload: set-up probes, a checked warm-up
//! pass, timed passes for the requested seconds, the six metrics.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::digest::Fnv;
use crate::estimator::{mean, min_median_max, nearest_rank, normalise, PassTimes, Reference};
use crate::json::{obj, Value};
use crate::procfs::peak_rss_mib;
use crate::spec::END_TO_END;
use crate::workloads::{JobRun, Qoe, Sizing, Workload};

/// Set-up is measured this many times per run (fresh process each) and
/// reported as the median.
const SETUP_PROBES: usize = 5;
/// Reference runs per probe; their mean normalises that probe.
const PROBE_REFERENCE_RUNS: usize = 3;
/// One reference run per this much job time (at least one per job, at most
/// four): a long job needs more than one 45 ms sample of the machine's
/// state to be normalised by.
const JOB_S_PER_REFERENCE: f64 = 0.35;
/// Timed passes never fewer than this, whatever `--seconds` says: the
/// per-job lower quartile needs something to reject.
const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes measure.
    pub seconds: f64,
    /// `--smoke`: short jobs, one pass, one probe.
    pub smoke: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Job labels, in execution order.
    pub jobs: Vec<String>,
    /// Job executions, warm-up included.
    pub attempted: usize,
    /// One line per failed execution.
    pub failures: Vec<String>,
    /// Simulated seconds one pass executes.
    pub sim_s: f64,
    /// Packets one pass simulates.
    pub pkts: u64,
    /// Per-job and reference times of the timed passes.
    pub times: PassTimes,
    /// Set-up wall seconds per probe (raw, not gated).
    pub setup_wall_s: Vec<f64>,
    /// Median normalised set-up seconds.
    pub setup_s: f64,
    /// `VmHWM` of this process after its warm-up pass, MiB.
    pub peak_rss_mb: f64,
    /// Mean QoE over the workload's sessions (simulated; repeats exactly).
    pub qoe: Qoe,
    /// Per job: simulated seconds, packets, and mean QoE of its sessions.
    pub job_stats: Vec<(f64, u64, Qoe)>,
    /// FNV-1a over every job's report text, in job order.
    pub report_digest: u64,
}

impl RunResult {
    /// The headline: simulated seconds per normalised host second.
    pub fn sim_s_per_norm_s(&self) -> f64 {
        self.sim_s / self.times.norm_s()
    }

    /// The six end-to-end metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> [f64; 6] {
        [
            self.sim_s_per_norm_s(),
            self.peak_rss_mb,
            self.setup_s,
            self.qoe.fps,
            self.qoe.tput_mbps,
            100.0 - self.qoe.freeze_pct,
        ]
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the six metrics.
    pub fn metrics_json(&self) -> Value {
        Value::Obj(
            END_TO_END
                .iter()
                .zip(self.metrics())
                .map(|(m, v)| {
                    (
                        m.name.to_string(),
                        obj([("value", v.into()), ("unit", m.unit.into())]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's result line.
    pub fn contract_json(&self) -> Value {
        obj([
            ("correct", self.failures.is_empty().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failures.len().into()),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The full record written to `results/<workload>.json`.
    pub fn to_json(&self) -> Value {
        let [wall_min, wall_median, wall_max] = min_median_max(&self.times.pass_wall_s());
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .zip(&self.times.job_s)
            .zip(&self.job_stats)
            .map(|((label, t), (sim_s, pkts, qoe))| {
                obj([
                    ("job", label.as_str().into()),
                    ("wall_mean_s", mean(t).into()),
                    ("sim_s", (*sim_s).into()),
                    ("pkts", (*pkts as f64).into()),
                    ("qoe_fps", qoe.fps.into()),
                    ("qoe_tput_mbps", qoe.tput_mbps.into()),
                    ("qoe_freeze_pct", qoe.freeze_pct.into()),
                ])
            })
            .collect();
        obj([
            ("workload", self.workload.into()),
            ("seed", (self.seed as f64).into()),
            ("passes", self.times.passes().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failures.len().into()),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
            (
                "report_digest",
                format!("{:016x}", self.report_digest).into(),
            ),
            ("metrics", self.metrics_json()),
            (
                "ungated",
                obj([
                    ("sim_s_per_pass", self.sim_s.into()),
                    ("norm_s", self.times.norm_s().into()),
                    ("wall_mean_s", self.times.wall_mean_s().into()),
                    ("ref_mean_s", self.times.ref_mean_s().into()),
                    ("pass_wall_min_s", wall_min.into()),
                    ("pass_wall_median_s", wall_median.into()),
                    ("pass_wall_max_s", wall_max.into()),
                    (
                        "setup_wall_median_s",
                        nearest_rank(&self.setup_wall_s, 0.5).into(),
                    ),
                    ("qoe_freeze_pct", self.qoe.freeze_pct.into()),
                ]),
            ),
            ("jobs", Value::Arr(jobs)),
        ])
    }

    /// Every metric by name with its unit, then the ungated context.
    pub fn print(&self) {
        println!(
            "workload {} seed {}: {} jobs/pass, {} timed passes, {} sim-s/pass",
            self.workload,
            self.seed,
            self.jobs.len(),
            self.times.passes(),
            self.sim_s
        );
        for (m, v) in END_TO_END.iter().zip(self.metrics()) {
            println!("  {:<18} {:>14.4} {}", m.name, v, m.unit);
        }
        let [wall_min, wall_median, wall_max] = min_median_max(&self.times.pass_wall_s());
        println!(
            "  (ungated) norm_s {:.4}  wall_mean {:.4} s  ref_mean {:.5} s  pass wall min/median/max {:.3}/{:.3}/{:.3} s",
            self.times.norm_s(),
            self.times.wall_mean_s(),
            self.times.ref_mean_s(),
            wall_min,
            wall_median,
            wall_max,
        );
        println!(
            "  (ungated) kpkt_per_norm_s {:.3}",
            self.pkts as f64 / 1e3 / self.times.norm_s()
        );
        println!(
            "  (ungated) set-up wall median {:.4} s  qoe_freeze_pct {:.4} %  report_digest {:016x}",
            nearest_rank(&self.setup_wall_s, 0.5),
            self.qoe.freeze_pct,
            self.report_digest
        );
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted,
            self.failures.len()
        );
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }
}

/// The body of a `--setup-probe` child: everything a process does before
/// it could start its first timed pass — make the job list (fixture
/// parsing, trace synthesis) and take every job through a short call
/// (session construction, first touch of every buffer, lazy statics).
/// Prints `ready`, then the reference times that normalise the probe.
pub fn setup_probe(workload: &str, seed: u64) -> Result<(), String> {
    std::hint::black_box(Workload::build(workload, seed, Sizing::Full)?);
    let mut short = Workload::build(workload, seed, Sizing::Setup)?;
    short.begin_pass();
    for idx in 0..short.jobs.len() {
        std::hint::black_box(execute(&short, idx, false));
    }
    println!("ready");
    let mut reference = Reference::default();
    let refs: Vec<String> = (0..PROBE_REFERENCE_RUNS)
        .map(|_| reference.run().0.to_string())
        .collect();
    println!("ref {}", refs.join(" "));
    Ok(())
}

/// Spawns one probe; returns (wall seconds from spawn to `ready`,
/// normalised seconds).
fn probe_setup(exe: &Path, plan: &RunPlan) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-probe", "--workload", &plan.workload])
        .args(["--seed", &plan.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the set-up probe: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let ready = lines.next().and_then(Result::ok);
    let wall_s = started.elapsed().as_secs_f64();
    let refs = lines.next().and_then(Result::ok);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the set-up probe: {e}"))?;
    if !status.success() || ready.as_deref() != Some("ready") {
        return Err(format!("set-up probe failed ({status})"));
    }
    let refs = refs
        .as_deref()
        .and_then(|l| l.strip_prefix("ref "))
        .and_then(|l| {
            l.split(' ')
                .map(|t| t.parse::<f64>().ok())
                .collect::<Option<Vec<f64>>>()
        })
        .filter(|v| !v.is_empty())
        .ok_or("set-up probe printed no reference times")?;
    Ok((wall_s, normalise(wall_s, mean(&refs))))
}

/// Mean over sessions (zeros for none).
fn mean_qoe(sessions: &[Qoe]) -> Qoe {
    let n = sessions.len().max(1) as f64;
    let mean = |f: fn(&Qoe) -> f64| sessions.iter().map(f).sum::<f64>() / n;
    Qoe {
        fps: mean(|q| q.fps),
        tput_mbps: mean(|q| q.tput_mbps),
        freeze_pct: mean(|q| q.freeze_pct),
    }
}

/// Executes one job; a panic inside the repo's code is a failed
/// operation, not a dead benchmark.
fn execute(workload: &Workload, idx: usize, checked: bool) -> Option<JobRun> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workload.run_job(idx, checked)
    }))
    .ok()
}

/// Why an execution counts as failed, if it does.
fn check(run: Option<&JobRun>, expect_digest: Option<u64>) -> Option<String> {
    let Some(run) = run else {
        return Some("panicked".into());
    };
    if run.violations > 0 {
        Some(format!("{} invariant violation(s)", run.violations))
    } else if !run.conserved {
        Some(
            "conservation broken (fec_used ≤ fec_received ≤ fec_sent, decoded + dropped ≤ encoded)"
                .into(),
        )
    } else if expect_digest.is_some_and(|d| d != run.digest) {
        Some("report differs from the warm-up pass".into())
    } else {
        None
    }
}

/// Runs the plan in this process (probes in children of `exe`).
pub fn run(plan: &RunPlan, exe: &Path) -> Result<RunResult, String> {
    let sizing = if plan.smoke {
        Sizing::Smoke
    } else {
        Sizing::Full
    };
    let probes = if plan.smoke { 1 } else { SETUP_PROBES };
    let mut setup_wall_s = Vec::new();
    let mut setup_norm_s = Vec::new();
    for _ in 0..probes {
        let (wall, norm) = probe_setup(exe, plan)?;
        setup_wall_s.push(wall);
        setup_norm_s.push(norm);
    }

    let mut workload = Workload::build(&plan.workload, plan.seed, sizing)?;
    let jobs = workload.jobs.len();
    let mut reference = Reference::default();
    let mut attempted = 0;
    let mut failures = Vec::new();

    // Warm-up: untimed, invariant-checked; fixes the digests the timed
    // passes must reproduce and yields the (simulated, exact) QoE.
    let mut digests = Vec::with_capacity(jobs);
    let mut references = Vec::with_capacity(jobs);
    let mut qoe = Vec::new();
    let mut sim_s = 0.0;
    let mut pkts = 0;
    let mut job_stats = Vec::with_capacity(jobs);
    let mut report_digest = Fnv::default();
    workload.begin_pass();
    for idx in 0..jobs {
        let run = execute(&workload, idx, true);
        attempted += 1;
        if let Some(why) = check(run.as_ref(), None) {
            failures.push(format!("warm-up {}: {why}", workload.jobs[idx].label()));
        }
        let wall_s = run.as_ref().map_or(0.0, |r| r.wall_s);
        references.push(((wall_s / JOB_S_PER_REFERENCE).round() as usize).clamp(1, 4));
        let digest = run.as_ref().map(|r| r.digest);
        report_digest.update(&digest.unwrap_or(0).to_le_bytes());
        digests.push(digest);
        // A job that panicked simulated nothing.
        let run = run.unwrap_or_default();
        pkts += run.pkts;
        sim_s += run.sim_s;
        job_stats.push((run.sim_s, run.pkts, mean_qoe(&run.qoe)));
        qoe.extend(run.qoe);
    }

    // Read here, after exactly one pass: how many timed passes fit in the
    // window depends on the machine, and each adds allocator fragmentation
    // (2-3 MiB between two and three passes), not need.
    let peak_rss_mb = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut times = PassTimes::new(jobs);
    let min_passes = if plan.smoke { 1 } else { MIN_PASSES };
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        workload.begin_pass();
        for idx in 0..jobs {
            for _ in 0..references[idx] {
                times.ref_s.push(reference.run().0);
            }
            let job_started = Instant::now();
            let run = execute(&workload, idx, false);
            attempted += 1;
            if let Some(why) = check(run.as_ref(), digests[idx]) {
                let pass = times.job_s[idx].len();
                failures.push(format!("pass {pass} {}: {why}", workload.jobs[idx].label()));
            }
            let wall_s = run.map_or_else(|| job_started.elapsed().as_secs_f64(), |r| r.wall_s);
            times.job_s[idx].push(wall_s);
        }
        // Stop when another pass like the last would overrun the window.
        let next_end = started.elapsed() + pass_started.elapsed();
        if times.passes() >= min_passes && (plan.smoke || next_end.as_secs_f64() > plan.seconds) {
            break;
        }
    }

    Ok(RunResult {
        workload: workload.name,
        seed: plan.seed,
        jobs: workload
            .jobs
            .iter()
            .map(|j| j.label().to_string())
            .collect(),
        attempted,
        failures,
        sim_s,
        pkts,
        times,
        setup_s: nearest_rank(&setup_norm_s, 0.5),
        setup_wall_s,
        peak_rss_mb,
        qoe: mean_qoe(&qoe),
        job_stats,
        report_digest: report_digest.finish(),
    })
}
