//! The parts of a traced run: the mirrored pass against the plain pass,
//! the fleet and sweep probes, and the cost of tracing a session.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bench_harness::estimator::{mean, nearest_rank, Reference};
use bench_harness::workloads::{Job, Sizing, Workload};
use converge_bench::{run_sweep, CellCache, Scale};
use converge_net::SimDuration;
use converge_sim::{CallReport, FleetEngine, Session, SessionConfig};
use converge_trace::{RingSink, TraceHandle};

use crate::alloc;
use crate::mirror::{self, LoopCounts};
use crate::spans::{Layer, SpanCost, Spans};

/// What a traced run accumulates, whichever sections it is made of.
#[derive(Default)]
pub struct Tally {
    reference: Reference,
    /// Every reference time of the run.
    pub ref_s: Vec<f64>,
    /// Host-time metrics, raw ns (or ms); normalised when the run ends.
    pub host_time: BTreeMap<String, f64>,
    /// Counts and ratios; reported as measured.
    pub exact: BTreeMap<String, f64>,
    /// Job executions.
    pub attempted: usize,
    /// One line per failed execution.
    pub failures: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Runs the reference kernel once and keeps its time.
    pub fn reference(&mut self) {
        let (s, _) = self.reference.run();
        self.ref_s.push(s);
    }

    /// The run's reference kernel, for the kernels to interleave.
    pub fn reference_mut(&mut self) -> &mut Reference {
        &mut self.reference
    }

    /// One timed operation; a panic inside the repo's code is a failure.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        self.attempted += 1;
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some((value, started.elapsed().as_secs_f64())),
            Err(_) => {
                self.failures.push(format!("{what}: panicked"));
                None
            }
        }
    }

    /// [`Tally::attempt`], adding the allocator requests it made to `total`.
    fn attempt_counted<T>(
        &mut self,
        what: &str,
        total: &mut (u64, u64),
        f: impl FnOnce() -> T,
    ) -> Option<(T, f64)> {
        let before = alloc::snapshot();
        let run = self.attempt(what, f);
        let after = alloc::snapshot();
        total.0 += after.0 - before.0;
        total.1 += after.1 - before.1;
        run
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.exact.insert(name.to_string(), value);
    }

    fn host_time(&mut self, name: &str, value: f64) {
        self.host_time.insert(name.to_string(), value);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The session configs the mirror can run for this workload: every job of
/// a `call-*` workload; the first cell of each experiment for
/// `sweep-quick` (its 30 s calls are where per-session set-up shows);
/// nothing for `fleet-sfu`, whose loop is opaque from outside.
pub fn mirror_configs(workload: &Workload) -> Vec<(String, SessionConfig)> {
    let mut configs = Vec::new();
    for job in &workload.jobs {
        match job {
            Job::Call { label, config } => configs.push((label.clone(), config.clone())),
            Job::Fleet { .. } => {}
            Job::Sweep(def) => {
                let Some(cell_job) = workload.sweep_spec(def).jobs.first().copied() else {
                    continue;
                };
                let cell = cell_job.cell;
                let config = SessionConfig::builder()
                    .scenario(cell.scenario.build(cell_job.duration, cell_job.seed))
                    .scheduler(cell.scheduler)
                    .fec(cell.fec)
                    .streams(cell.streams)
                    .duration(cell_job.duration)
                    .seed(cell_job.seed)
                    .coupled_cc(cell.coupled_cc)
                    .controller(cell.controller)
                    .build()
                    .expect("registry cells are valid configs");
                configs.push((cell_job.fingerprint(), config));
            }
        }
    }
    configs
}

/// What the mirror section measured, for the layer table.
pub struct MirrorOutcome {
    /// The span aggregate of every traced pass.
    pub spans: Spans,
    /// Simulated seconds the traced passes covered.
    pub sim_s: f64,
    /// Wall seconds of the traced passes (inside the mirror only).
    pub traced_wall_s: f64,
    /// Allocator calls and bytes of the plain passes.
    pub alloc: (u64, u64),
}

/// Plain pass (`Session::run`) and traced pass (the mirror) over `configs`,
/// in pairs, for as many pairs as fit in `seconds` (at least one). Every
/// mirrored report must be Debug-identical to the plain one.
pub fn mirror_section(
    tally: &mut Tally,
    configs: &[(String, SessionConfig)],
    seconds: f64,
    cost: SpanCost,
) -> MirrorOutcome {
    let mut spans = Spans::default();
    let mut counts = LoopCounts::default();
    let mut reports: Vec<CallReport> = Vec::new();
    let (mut plain_wall_s, mut traced_wall_s, mut sim_s) = (0.0, 0.0, 0.0);
    let mut alloc_total = (0u64, 0u64);
    let started = Instant::now();
    loop {
        let pair_started = Instant::now();
        let mut texts = Vec::with_capacity(configs.len());
        for (label, config) in configs {
            tally.reference();
            let session = Session::new(config.clone());
            let run = tally.attempt_counted(label, &mut alloc_total, || session.run());
            let text = run.map(|(report, wall_s)| {
                plain_wall_s += wall_s;
                let text = format!("{report:?}");
                if spans.keep_windows {
                    reports.push(report);
                }
                text
            });
            texts.push(text);
        }
        for (idx, (label, config)) in configs.iter().enumerate() {
            tally.reference();
            let config = config.clone();
            let run = tally.attempt(label, || mirror::run(config, &mut spans, idx as u32));
            let Some(((report, job_counts), wall_s)) = run else {
                continue;
            };
            traced_wall_s += wall_s;
            sim_s += report.duration_s;
            counts.add(&job_counts);
            if texts[idx].as_deref() != Some(format!("{report:?}").as_str()) {
                tally
                    .failures
                    .push(format!("{label}: mirror report differs from Session::run"));
            }
        }
        spans.keep_windows = false;
        if (started.elapsed() + pair_started.elapsed()).as_secs_f64() > seconds {
            break;
        }
    }

    for layer in Layer::ALL {
        let name = layer.name();
        tally.host_time(
            &format!("{name}.self_ns_per_sim_s"),
            ratio(spans.self_ns(layer, cost), sim_s),
        );
        tally.exact(
            &format!("{name}.calls_per_sim_s"),
            ratio(spans.calls(layer) as f64, sim_s),
        );
    }
    let c = counts;
    tally.exact("loop.iters_per_sim_s", ratio(c.iters as f64, sim_s));
    tally.exact(
        "loop.idle_share",
        ratio(c.idle_iters as f64, c.iters as f64),
    );
    tally.exact(
        "pacer.release_per_poll",
        ratio(c.pacer_released as f64, c.pacer_polls as f64),
    );
    tally.exact(
        "emulator.delivery_per_poll",
        ratio(c.emulator_deliveries as f64, c.emulator_polls as f64),
    );
    tally.exact(
        "emulator.lost_share",
        ratio(c.forward_lost as f64, c.pacer_released as f64),
    );
    tally.exact(
        "receiver.events_per_rtp",
        ratio(c.receiver_events as f64, c.rtp_delivered as f64),
    );
    let sum = |f: fn(&CallReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let media = sum(|r| r.media_packets_sent);
    tally.exact(
        "sender.fec_per_media",
        ratio(sum(|r| r.fec_packets_sent), media),
    );
    tally.exact(
        "sender.rtx_per_kpkt",
        ratio(sum(|r| r.retransmissions) * 1_000.0, media),
    );
    tally.exact(
        "sender.pkts_per_frame",
        ratio(media, sum(|r| r.frames_encoded)),
    );
    tally.exact(
        "receiver.fec_used_share",
        ratio(sum(|r| r.fec_packets_used), sum(|r| r.fec_packets_received)),
    );
    tally.exact(
        "receiver.frames_dropped_share",
        ratio(sum(|r| r.frames_dropped), sum(|r| r.frames_encoded)),
    );
    let p95: f64 = reports.iter().map(|r| r.e2e_p95_ms).sum();
    tally.exact("receiver.e2e_p95_ms", ratio(p95, reports.len() as f64));
    tally.exact("trace_overhead_ratio", ratio(traced_wall_s, plain_wall_s));
    MirrorOutcome {
        spans,
        sim_s,
        traced_wall_s,
        alloc: alloc_total,
    }
}

/// Reports allocator work per simulated second of an untraced pass.
pub fn report_alloc(tally: &mut Tally, alloc: (u64, u64), sim_s: f64) {
    tally.exact("alloc.calls_per_sim_s", ratio(alloc.0 as f64, sim_s));
    tally.exact("alloc.bytes_per_sim_s", ratio(alloc.1 as f64, sim_s));
}

/// `fleet-sfu`: each fleet as the workload runs it (for the engine's own
/// occupancy counters and the allocator counts), then split into two
/// batches on one shard and on two — same fold, or it is a failure. (With
/// the default 32-conference batch these fleets are a single batch, which
/// no second shard could share.)
pub fn fleet_section(tally: &mut Tally, workload: &Workload) {
    let (mut wall_1, mut wall_2, mut sim_s) = (0.0, 0.0, 0.0);
    let mut alloc_total = (0u64, 0u64);
    let (mut queue_hw, mut wheel_hw, mut cascades) = (0usize, 0u64, 0u64);
    let (mut viewer_pkts, mut coupled, mut members) = (0u64, 0u64, 0u64);
    for job in &workload.jobs {
        let Job::Fleet { label, config } = job else {
            continue;
        };
        tally.reference();
        let engine = FleetEngine::new(config.clone());
        let plain = tally.attempt_counted(label, &mut alloc_total, || engine.run());
        let sharded = |shards: usize, tally: &mut Tally| {
            tally.reference();
            let mut config = config.clone();
            config.batch_conferences = config.conference_count().div_ceil(2);
            config.shards = shards;
            tally.attempt(label, || FleetEngine::new(config).run())
        };
        let (one, two) = (sharded(1, tally), sharded(2, tally));
        let (Some((plain, _)), Some((one, one_s)), Some((two, two_s))) = (plain, one, two) else {
            continue;
        };
        wall_1 += one_s;
        wall_2 += two_s;
        sim_s += plain.duration.as_secs_f64() * plain.sessions as f64;
        if plain.fold_text() != one.fold_text() || one.fold_text() != two.fold_text() {
            tally.failures.push(format!(
                "{label}: fold differs between batchings or shard counts"
            ));
        }
        for s in &plain.shard_stats {
            queue_hw = queue_hw.max(s.queue_high_water);
            wheel_hw = wheel_hw.max(s.wheel.high_water);
            cascades += s.wheel.cascades;
        }
        for conference in &plain.conferences {
            coupled += conference.sbd_coupled as u64;
            members += conference.sessions.len() as u64;
            viewer_pkts += conference
                .sessions
                .iter()
                .map(|s| s.viewer_pkts)
                .sum::<u64>();
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    tally.notes.push(format!(
        "fleet in two batches: 1 shard {wall_1:.3} s, 2 shards {wall_2:.3} s ({threads} hardware thread(s) available)"
    ));
    tally.exact("fleet.shard2_speedup", ratio(wall_1, wall_2));
    tally.exact("fleet.queue_high_water", queue_hw as f64);
    tally.exact("fleet.wheel_high_water", wheel_hw as f64);
    tally.exact("fleet.wheel_cascades", cascades as f64);
    tally.exact(
        "fleet.viewer_pkts_per_sim_s",
        ratio(viewer_pkts as f64, sim_s),
    );
    tally.exact(
        "fleet.sbd_coupled_share",
        ratio(coupled as f64, members as f64),
    );
    report_alloc(tally, alloc_total, sim_s);
}

/// `sweep-quick`: the whole registry through one `run_sweep` on one worker
/// and on two (same report text, or it is a failure).
pub fn sweep_section(tally: &mut Tally, workload: &Workload) {
    let experiments = || {
        workload
            .jobs
            .iter()
            .filter_map(|job| match job {
                Job::Sweep(def) => Some((def.id.to_string(), workload.sweep_spec(def))),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let mut alloc_1 = (0u64, 0u64);
    let mut sweep = |workers: usize, tally: &mut Tally| {
        tally.reference();
        let (specs, cache) = (experiments(), CellCache::new());
        let what = format!("sweep on {workers} worker(s)");
        // Only the 1-worker sweep — the workload's own pass — is counted.
        let mut uncounted = (0, 0);
        let total = if workers == 1 {
            &mut alloc_1
        } else {
            &mut uncounted
        };
        tally.attempt_counted(&what, total, || {
            run_sweep(specs, Scale::Quick, workers, &cache)
        })
    };
    let (one, two) = (sweep(1, tally), sweep(2, tally));
    let (Some(((out_1, stats), wall_1)), Some(((out_2, _), wall_2))) = (one, two) else {
        return;
    };
    if out_1 != out_2 {
        tally
            .failures
            .push("sweep: report text differs between 1 and 2 workers".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    tally.notes.push(format!(
        "sweep: 1 worker {wall_1:.3} s, 2 workers {wall_2:.3} s ({threads} hardware thread(s) available)"
    ));
    tally.exact("sweep.pool_speedup_2w", ratio(wall_1, wall_2));
    tally.exact(
        "sweep.cache_hit_share",
        ratio(stats.cache_hits as f64, stats.jobs as f64),
    );
    tally.exact("sweep.jobs_executed", stats.executed as f64);
    if !stats.job_times_s.is_empty() {
        tally.host_time(
            "sweep.job_ms_p50",
            nearest_rank(&stats.job_times_s, 0.50) * 1e3,
        );
        tally.host_time(
            "sweep.job_ms_p95",
            nearest_rank(&stats.job_times_s, 0.95) * 1e3,
        );
    }
    report_alloc(tally, alloc_1, stats.sim_s);
}

/// What a live trace sink and the invariant checker cost a whole session:
/// the first `call-impaired` job (60 s of it), plain / ring / checked,
/// interleaved three times.
pub fn trace_cost_section(tally: &mut Tally, seed: u64) -> Result<(), String> {
    let workload = Workload::build("call-impaired", seed, Sizing::Full)?;
    let Some(Job::Call { config, .. }) = workload.jobs.first() else {
        return Err("call-impaired starts with a call".into());
    };
    let mut config = config.clone();
    config.duration = SimDuration::from_secs(60);
    let (mut plain, mut ring, mut checked) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        tally.reference();
        let session = Session::new(config.clone());
        plain.extend(
            tally
                .attempt("trace cost, plain", || session.run())
                .map(|r| r.1),
        );
        let mut traced = config.clone();
        traced.trace = TraceHandle::new(Arc::new(RingSink::new(1 << 20)));
        let session = Session::new(traced);
        ring.extend(
            tally
                .attempt("trace cost, ring", || session.run())
                .map(|r| r.1),
        );
        let session = Session::new(config.clone());
        let run = tally.attempt("trace cost, checked", || session.run_checked());
        if let Some(((_, violations), wall_s)) = run {
            checked.push(wall_s);
            if !violations.is_empty() {
                tally.failures.push(format!(
                    "trace cost: {} invariant violation(s)",
                    violations.len()
                ));
            }
        }
    }
    if plain.is_empty() || ring.is_empty() || checked.is_empty() {
        return Ok(());
    }
    let base = mean(&plain);
    tally.exact("trace.session_cost_ratio.ring", ratio(mean(&ring), base));
    tally.exact(
        "trace.session_cost_ratio.checked",
        ratio(mean(&checked), base),
    );
    Ok(())
}
