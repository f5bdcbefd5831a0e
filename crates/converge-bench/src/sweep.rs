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
//! The [`CellCache`] memoizes `Job → CallReport` for its whole life:
//! any cell shared between experiments (fig3/table1, the ablations, the
//! FEC-tradeoff family) is simulated exactly once. Every job it executes
//! runs with the control-loop invariant checker armed ([`Job::run`]), and
//! [`run_sweep`] hands the violations back in [`SweepStats`]; it never
//! panics on one, the caller decides. A [`CellCache::tracing`] cache also
//! writes each job's event timeline on the worker that ran the job.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use converge_sim::{pool, CallReport};
use converge_trace::{jsonl, timeline, TraceRecord, Violation};

use crate::runner::{Job, Scale};

/// One memoized simulation ([`Job::run`]): the report, its execution
/// cost and the invariant violations the armed checker saw.
#[derive(Debug)]
pub struct CachedRun {
    /// The simulation's final report.
    pub report: CallReport,
    /// Wall-clock seconds the simulation took to execute.
    pub exec_s: f64,
    /// Control-loop invariant violations, in the order they occurred.
    pub violations: Vec<Violation>,
}

/// A concurrent memo cache of `Job → CallReport`, keyed by the canonical
/// cell fingerprint (the [`Job`] value: scenario, scheduler, FEC, streams,
/// coupling, duration, seed). The simulator is fully seeded, so equal jobs
/// are interchangeable and each is executed at most once; concurrent
/// requests for the same job block until the single execution finishes.
#[derive(Debug, Default)]
pub struct CellCache {
    entries: Mutex<HashMap<Job, Arc<OnceLock<Arc<CachedRun>>>>>,
    executed: AtomicU64,
    /// Where every executed job writes its timeline; `None` captures none.
    trace_dir: Option<PathBuf>,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// An empty cache that captures the timeline of every job it executes
    /// and writes it into `dir` (which must exist) on the worker that ran
    /// the job, as `<stem>.jsonl` plus a per-path `<stem>.timeline.txt`.
    /// A cache hit writes nothing; a failed write panics.
    pub fn tracing(dir: impl Into<PathBuf>) -> Self {
        CellCache {
            trace_dir: Some(dir.into()),
            ..CellCache::default()
        }
    }

    /// A process-wide plain cache for tests that share cells.
    pub fn global() -> &'static CellCache {
        static GLOBAL: OnceLock<CellCache> = OnceLock::new();
        GLOBAL.get_or_init(CellCache::new)
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
                // The timeline is written here and dropped: no memoized run holds one.
                let (run, records) = job.run(self.trace_dir.is_some());
                if let (Some(dir), Some(records)) = (&self.trace_dir, records) {
                    write_timeline(dir, job, &records).unwrap_or_else(|e| {
                        panic!("writing {} into {}: {e}", job.fingerprint(), dir.display())
                    });
                }
                Arc::new(run)
            })
            .clone();
        if executed_here {
            self.executed.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// The memoized runs of `jobs`, in order, each simulated on the calling
    /// thread unless already memoized; [`reports_of`] lends their reports
    /// to a fold.
    pub fn runs(&self, jobs: &[Job]) -> Vec<Arc<CachedRun>> {
        jobs.iter().map(|job| self.get_or_run(job)).collect()
    }

    /// Simulations actually executed through this cache. What a sweep
    /// served from memory is its [`SweepStats::cache_hits`].
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

/// Filesystem-safe rendering of a job fingerprint: its timeline files' stem.
fn sanitize(fingerprint: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || "._-".contains(c);
    fingerprint
        .chars()
        .map(|c| if safe(c) { c } else { '-' })
        .collect()
}

/// Writes one job's timeline into `dir`: the JSONL document, streamed a
/// line at a time, then its per-path summary.
fn write_timeline(dir: &Path, job: &Job, records: &[TraceRecord]) -> std::io::Result<()> {
    let fingerprint = job.fingerprint();
    let stem = sanitize(&fingerprint);
    let mut out = BufWriter::new(File::create(dir.join(format!("{stem}.jsonl")))?);
    writeln!(out, "{}", jsonl::header_line(&fingerprint))?;
    for record in records {
        writeln!(out, "{}", jsonl::record_line(record))?;
    }
    out.flush()?;
    let summary = timeline::summarize(records);
    std::fs::write(dir.join(format!("{stem}.timeline.txt")), summary)
}

/// The reports of `runs`, in order, borrowed where the cache keeps them.
pub fn reports_of(runs: &[Arc<CachedRun>]) -> Vec<&CallReport> {
    runs.iter().map(|run| &run.report).collect()
}

/// The rendering half of an experiment: reads its jobs' reports, in
/// declaration order, where the memo cache keeps them, and produces the
/// printable report text.
pub type FoldFn = Box<dyn FnOnce(&[&CallReport]) -> String>;

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
    let runs = cache.runs(&spec.jobs);
    (spec.fold)(&reports_of(&runs))
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
    /// Every invariant violation of the executed jobs, in declaration
    /// order: each job ran with the checker armed.
    pub violations: Vec<(Job, Violation)>,
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

    /// The invariant checker's one-line verdict for stderr.
    pub fn invariant_summary(&self) -> String {
        format!(
            "invariants checked on {} job(s): {} violation(s)",
            self.executed,
            self.violations.len()
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
    let mut violations = Vec::new();
    let mut total_jobs = 0usize;
    let mut executed_sim_s = 0.0f64;
    for (id, spec) in experiments {
        total_jobs += spec.jobs.len();
        let runs: Vec<Arc<CachedRun>> = spec
            .jobs
            .iter()
            .map(|job| {
                let run = cache.get_or_run(job);
                if unpaid.remove(job) {
                    job_times_s.push(run.exec_s);
                    executed_sim_s += job.sim_seconds();
                    violations.extend(run.violations.iter().map(|v| (*job, v.clone())));
                }
                run
            })
            .collect();
        outputs.push((id, (spec.fold)(&reports_of(&runs))));
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
        violations,
    };
    (outputs, stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{Cell, ScenarioSpec};
    use converge_net::SimDuration;
    use converge_sim::{FecKind, SchedulerKind};

    /// A fresh, empty directory under the system temp dir, unique within
    /// this test process.
    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "converge-bench-traces-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating a scratch dir");
        dir
    }

    /// Every file in `dir` as `(name, bytes)`, sorted by name.
    fn read_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("reading the trace dir")
            .map(|entry| {
                let path = entry.expect("a dir entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("reading a trace file"))
            })
            .collect();
        files.sort();
        files
    }

    /// Sweeps `jobs` through a tracing cache on `workers` threads and
    /// returns the files it wrote, sorted by name: one JSONL timeline and
    /// one summary per job, every timeline non-empty.
    pub(crate) fn traced_files(jobs: &[Job], workers: usize) -> Vec<(String, Vec<u8>)> {
        let dir = scratch_dir();
        let spec = ExperimentSpec {
            jobs: jobs.to_vec(),
            fold: Box::new(|_| String::new()),
        };
        run_sweep(
            vec![("traced".into(), spec)],
            Scale::Quick,
            workers,
            &CellCache::tracing(&dir),
        );
        let files = read_files(&dir);
        std::fs::remove_dir_all(&dir).expect("removing the scratch dir");
        assert_eq!(files.len(), 2 * jobs.len(), "one file pair per job");
        for (name, bytes) in &files {
            if name.ends_with(".jsonl") {
                assert!(bytes.iter().filter(|&&b| b == b'\n').count() > 1, "{name}");
            }
        }
        files
    }

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
        // Every executed job ran with the checker armed, and none broke a rule.
        for stats in [&serial_stats, &parallel_stats] {
            assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            assert_eq!(
                stats.invariant_summary(),
                "invariants checked on 4 job(s): 0 violation(s)"
            );
        }
    }

    #[test]
    fn repeated_cell_simulates_once() {
        let cache = CellCache::new();
        let job = Job::new(tiny_cell(0.0), SimDuration::from_secs(5), 7);
        let first = cache.get_or_run(&job);
        let second = cache.get_or_run(&job);
        assert_eq!(cache.executed(), 1, "one simulation for a repeated cell");
        assert!(
            Arc::ptr_eq(&first, &second),
            "the repeat is the memoized run"
        );
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

    /// The JSONL timeline of every job is byte-identical whether the
    /// sweep ran on 1 worker or 4, because each timeline is captured
    /// inside its own single-threaded, fully seeded simulation.
    #[test]
    fn captured_traces_are_byte_identical_across_worker_counts() {
        let jobs = tiny_spec().jobs;
        assert_eq!(
            traced_files(&jobs, 1),
            traced_files(&jobs, 4),
            "timelines must not depend on --jobs"
        );
    }

    /// A plain cache has nowhere to write a timeline; a tracing cache
    /// writes exactly one file pair per job it executes, and none for a
    /// cache hit.
    #[test]
    fn trace_capture_is_off_by_default() {
        let plain = CellCache::new();
        assert!(plain.trace_dir.is_none());
        let (_, stats) = run_sweep(vec![("tiny".into(), tiny_spec())], Scale::Quick, 2, &plain);
        assert_eq!(stats.executed, 4);

        let dir = scratch_dir();
        let cache = CellCache::tracing(&dir);
        let jobs = tiny_spec().jobs;
        let (_, stats) = run_sweep(
            vec![("a".into(), tiny_spec()), ("b".into(), tiny_spec())],
            Scale::Quick,
            2,
            &cache,
        );
        assert_eq!((stats.executed, stats.cache_hits), (4, 4));
        cache.get_or_run(&jobs[0]);
        assert_eq!(cache.executed(), 4, "a hit runs nothing");
        let names: Vec<String> = read_files(&dir).into_iter().map(|(name, _)| name).collect();
        std::fs::remove_dir_all(&dir).expect("removing the scratch dir");
        let mut expected: Vec<String> = jobs
            .iter()
            .flat_map(|job| {
                let stem = sanitize(&job.fingerprint());
                [format!("{stem}.jsonl"), format!("{stem}.timeline.txt")]
            })
            .collect();
        expected.sort();
        assert_eq!(names, expected);
    }

    /// Whichever worker runs a job writes its files, so two jobs that
    /// shared a stem would race on one file: every registry job, at both
    /// scales, has a stem of its own.
    #[test]
    fn registry_jobs_have_distinct_stems() {
        for scale in [Scale::Quick, Scale::Full] {
            let jobs: HashSet<Job> = crate::experiments::registry()
                .iter()
                .flat_map(|def| (def.spec)(scale).jobs)
                .collect();
            let stems: HashSet<String> = jobs.iter().map(|j| sanitize(&j.fingerprint())).collect();
            assert!(jobs.len() > 100, "{scale:?}: {} jobs", jobs.len());
            assert_eq!(stems.len(), jobs.len(), "{scale:?}: stems collide");
        }
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
