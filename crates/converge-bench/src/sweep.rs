//! The sweep engine and memoized cell cache.
//!
//! Experiments declare their work as a flat, ordered list of [`Job`]s plus
//! a fold that renders the jobs' reports into the printable table
//! ([`ExperimentSpec`]); the engine owns execution. [`run_sweep`] flattens
//! every selected experiment into one global job pool, dedups jobs by
//! their canonical fingerprint, executes the unique ones on the worker
//! pool ([`converge_sim::pool`]), and folds each experiment from reports
//! fetched in declaration order — so the report text is byte-identical no
//! matter how many workers run or in which order jobs finish.
//!
//! The [`CellCache`] memoizes `Job → CallReport` for the whole process:
//! any cell shared between experiments (fig3/table1, the ablations, the
//! FEC-tradeoff family) is simulated exactly once.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use converge_sim::{pool, CallReport};
use converge_trace::TraceRecord;

use crate::runner::{Job, Scale};

/// One memoized simulation: the report plus its execution cost and, when
/// the cache ran with trace capture on, the structured event timeline.
#[derive(Debug)]
pub struct CachedRun {
    /// The simulation's final report.
    pub report: CallReport,
    /// Wall-clock seconds the simulation took to execute.
    pub exec_s: f64,
    /// The captured trace timeline, `None` unless the job was executed
    /// with [`CellCache::set_trace_capture`] enabled.
    pub trace: Option<Vec<TraceRecord>>,
}

/// A concurrent memo cache of `Job → CallReport`, keyed by the canonical
/// cell fingerprint (the [`Job`] value: scenario, scheduler, FEC, streams,
/// coupling, duration, seed). The simulator is fully seeded, so equal jobs
/// are interchangeable and each is executed at most once; concurrent
/// requests for the same job block until the single execution finishes.
#[derive(Debug, Default)]
pub struct CellCache {
    entries: Mutex<HashMap<Job, Arc<OnceLock<Arc<CachedRun>>>>>,
    hits: AtomicU64,
    executed: AtomicU64,
    capture_trace: AtomicBool,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// The process-wide cache the `experiments` binary sweeps through.
    pub fn global() -> &'static CellCache {
        static GLOBAL: OnceLock<CellCache> = OnceLock::new();
        GLOBAL.get_or_init(CellCache::new)
    }

    /// Turns structured trace capture on or off for *subsequent*
    /// executions. Jobs already memoized keep whatever they recorded;
    /// enable capture before the first simulation (the `--trace` flag
    /// does this before the sweep starts).
    pub fn set_trace_capture(&self, on: bool) {
        self.capture_trace.store(on, Ordering::Relaxed);
    }

    /// Whether newly executed jobs capture their trace timeline.
    pub fn trace_capture(&self) -> bool {
        self.capture_trace.load(Ordering::Relaxed)
    }

    /// Whether the job's result is already memoized.
    pub fn contains(&self, job: &Job) -> bool {
        self.entries
            .lock()
            .expect("cache lock")
            .get(job)
            .is_some_and(|entry| entry.get().is_some())
    }

    /// Returns the memoized run for `job`, simulating it first if this is
    /// the first request for its fingerprint.
    pub fn get_or_run(&self, job: &Job) -> Arc<CachedRun> {
        let entry = {
            let mut map = self.entries.lock().expect("cache lock");
            map.entry(*job).or_default().clone()
        };
        let mut executed_here = false;
        let run = entry
            .get_or_init(|| {
                executed_here = true;
                let started = Instant::now();
                let (report, trace) = if self.trace_capture() {
                    let (report, records) = job.run_traced();
                    (report, Some(records))
                } else {
                    (job.run_uncached(), None)
                };
                Arc::new(CachedRun {
                    report,
                    exec_s: started.elapsed().as_secs_f64(),
                    trace,
                })
            })
            .clone();
        if executed_here {
            self.executed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// The reports of `jobs`, in order, each simulated on the calling
    /// thread unless already memoized.
    pub fn reports(&self, jobs: &[Job]) -> Vec<CallReport> {
        jobs.iter()
            .map(|job| self.get_or_run(job).report.clone())
            .collect()
    }

    /// Simulations actually executed through this cache.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Requests served from memory without simulating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The rendering half of an experiment: consumes its jobs' reports, in
/// declaration order, and produces the printable report text.
pub type FoldFn = Box<dyn FnOnce(&[CallReport]) -> String>;

/// A declarative experiment: the jobs it needs plus the fold that renders
/// them. The engine owns execution.
pub struct ExperimentSpec {
    /// Every `Cell × seed` job, in the order `fold` expects reports.
    pub jobs: Vec<Job>,
    /// Renders the ordered reports into the experiment's report text.
    pub fold: FoldFn,
}

/// Executes a spec's jobs serially through `cache` and folds the report —
/// [`run_sweep`] for one experiment on the calling thread.
pub fn render(spec: ExperimentSpec, cache: &CellCache) -> String {
    (spec.fold)(&cache.reports(&spec.jobs))
}

/// Whole-sweep accounting; [`SweepStats::summary`] is its stderr line.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Worker-thread count (`--jobs`).
    pub workers: usize,
    /// Wall-clock seconds for the whole sweep (execution + folding).
    pub wall_s: f64,
    /// Total jobs declared across experiments.
    pub jobs: usize,
    /// Unique jobs actually simulated.
    pub executed: usize,
    /// Jobs resolved from the memo cache instead of simulating.
    pub cache_hits: usize,
    /// Simulated call seconds actually executed.
    pub sim_s: f64,
    /// Per-job execution wall times (one entry per executed job).
    pub job_times_s: Vec<f64>,
}

impl SweepStats {
    /// Simulated-seconds-per-wall-second throughput of the sweep.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_s / self.wall_s
        } else {
            0.0
        }
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs ({} executed, {} cache hits) on {} worker(s) in {:.1}s — {:.0} sim-s/wall-s",
            self.jobs,
            self.executed,
            self.cache_hits,
            self.workers,
            self.wall_s,
            self.sim_s_per_wall_s()
        )
    }
}

/// Executes the experiments' pooled jobs on `workers` threads and folds
/// each experiment, returning `(id, report_text)` pairs in input order
/// plus the sweep accounting.
pub fn run_sweep(
    experiments: Vec<(String, ExperimentSpec)>,
    scale: Scale,
    workers: usize,
    cache: &CellCache,
) -> (Vec<(String, String)>, SweepStats) {
    let started = Instant::now();

    // Flatten every experiment into the global pool and dedup by
    // fingerprint. Jobs already warm in the cache cost nothing; only the
    // rest enter the pool.
    let mut unpaid: HashSet<Job> = HashSet::new();
    let pending: Vec<Job> = experiments
        .iter()
        .flat_map(|(_, spec)| spec.jobs.iter().copied())
        .filter(|job| !cache.contains(job) && unpaid.insert(*job))
        .collect();
    pool::run(
        pending.len(),
        workers,
        || (),
        |_, i| {
            cache.get_or_run(&pending[i]);
        },
    );

    // Fold each experiment from reports fetched in declaration order; the
    // first fold to reach a job this sweep executed accounts for it.
    let mut outputs = Vec::with_capacity(experiments.len());
    let mut job_times_s = Vec::with_capacity(pending.len());
    let mut total_jobs = 0usize;
    let mut executed_sim_s = 0.0f64;
    for (id, spec) in experiments {
        total_jobs += spec.jobs.len();
        let reports: Vec<CallReport> = spec
            .jobs
            .iter()
            .map(|job| {
                let run = cache.get_or_run(job);
                if unpaid.remove(job) {
                    job_times_s.push(run.exec_s);
                    executed_sim_s += job.sim_seconds();
                }
                run.report.clone()
            })
            .collect();
        outputs.push((id, (spec.fold)(&reports)));
    }

    let stats = SweepStats {
        scale,
        workers,
        wall_s: started.elapsed().as_secs_f64(),
        jobs: total_jobs,
        executed: job_times_s.len(),
        cache_hits: total_jobs - job_times_s.len(),
        sim_s: executed_sim_s,
        job_times_s,
    };
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Cell, ScenarioSpec};
    use converge_net::SimDuration;
    use converge_sim::{FecKind, SchedulerKind};

    fn tiny_cell(loss_pct: f64) -> Cell {
        Cell::new(
            ScenarioSpec::fec_tradeoff_pct(loss_pct),
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
        )
    }

    /// A 4-job spec over 5 s calls whose fold prints one line per job.
    fn tiny_spec() -> ExperimentSpec {
        let duration = SimDuration::from_secs(5);
        let jobs: Vec<Job> = [(0.0, 1), (0.0, 2), (3.0, 1), (3.0, 2)]
            .iter()
            .map(|&(loss, seed)| Job::new(tiny_cell(loss), duration, seed))
            .collect();
        let fold_jobs = jobs.clone();
        ExperimentSpec {
            jobs,
            fold: Box::new(move |reports| {
                let mut out = String::new();
                for (job, r) in fold_jobs.iter().zip(reports) {
                    out.push_str(&format!(
                        "{} {} {} {:.3}\n",
                        job.fingerprint(),
                        r.frames_decoded,
                        r.frames_dropped,
                        r.e2e_mean_ms
                    ));
                }
                out
            }),
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let serial_cache = CellCache::new();
        let (serial, serial_stats) = run_sweep(
            vec![("tiny".into(), tiny_spec())],
            Scale::Quick,
            1,
            &serial_cache,
        );
        let parallel_cache = CellCache::new();
        let (parallel, parallel_stats) = run_sweep(
            vec![("tiny".into(), tiny_spec())],
            Scale::Quick,
            4,
            &parallel_cache,
        );
        assert!(!serial[0].1.is_empty());
        assert_eq!(serial[0].1, parallel[0].1, "reports must be byte-identical");
        assert_eq!(serial_stats.executed, 4);
        assert_eq!(parallel_stats.executed, 4);
        assert_eq!(parallel_stats.cache_hits, 0);
    }

    #[test]
    fn repeated_cell_simulates_once() {
        let cache = CellCache::new();
        let job = Job::new(tiny_cell(0.0), SimDuration::from_secs(5), 7);
        let first = cache.get_or_run(&job);
        let second = cache.get_or_run(&job);
        assert_eq!(cache.executed(), 1, "one simulation for a repeated cell");
        assert_eq!(cache.hits(), 1);
        assert_eq!(first.report.frames_decoded, second.report.frames_decoded);
    }

    #[test]
    fn shared_cells_across_experiments_execute_once() {
        let cache = CellCache::new();
        let (outputs, stats) = run_sweep(
            vec![("a".into(), tiny_spec()), ("b".into(), tiny_spec())],
            Scale::Quick,
            2,
            &cache,
        );
        assert_eq!(outputs[0].1, outputs[1].1);
        assert_eq!(stats.jobs, 8);
        assert_eq!(stats.executed, 4, "the duplicate experiment costs nothing");
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(cache.executed(), 4);
    }

    #[test]
    fn warm_cache_turns_jobs_into_hits() {
        let cache = CellCache::new();
        let spec = tiny_spec();
        for job in &spec.jobs {
            cache.get_or_run(job);
        }
        let (_, stats) = run_sweep(vec![("warm".into(), spec)], Scale::Quick, 2, &cache);
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(cache.executed(), 4, "the sweep simulated nothing new");
    }

    /// The tentpole determinism guarantee: the JSONL timeline of every
    /// job is byte-identical whether the sweep ran on 1 worker or 4,
    /// because each timeline is captured inside its own single-threaded,
    /// fully seeded simulation.
    #[test]
    fn captured_traces_are_byte_identical_across_worker_counts() {
        let render_traces = |workers: usize| -> Vec<(String, String)> {
            let cache = CellCache::new();
            cache.set_trace_capture(true);
            let spec = tiny_spec();
            let jobs = spec.jobs.clone();
            run_sweep(vec![("tiny".into(), spec)], Scale::Quick, workers, &cache);
            jobs.iter()
                .map(|job| {
                    let run = cache.get_or_run(job);
                    let records = run.trace.as_ref().expect("capture was armed");
                    assert!(!records.is_empty(), "{}", job.fingerprint());
                    (
                        job.fingerprint(),
                        converge_trace::jsonl::render(&job.fingerprint(), records),
                    )
                })
                .collect()
        };
        let serial = render_traces(1);
        let parallel = render_traces(4);
        assert_eq!(serial, parallel, "timelines must not depend on --jobs");
    }

    #[test]
    fn trace_capture_is_off_by_default() {
        let cache = CellCache::new();
        let job = Job::new(tiny_cell(0.0), SimDuration::from_secs(5), 3);
        assert!(!cache.trace_capture());
        assert!(cache.get_or_run(&job).trace.is_none());
    }

    #[test]
    fn summary_line_counts_jobs_hits_and_workers() {
        let cache = CellCache::new();
        let (_, stats) = run_sweep(vec![("tiny".into(), tiny_spec())], Scale::Quick, 2, &cache);
        assert_eq!(
            stats.summary().split(" in ").next(),
            Some("4 jobs (4 executed, 0 cache hits) on 2 worker(s)")
        );
    }
}
