//! The `experiments` binary: regenerates the paper's tables and figures by
//! handing every selected experiment to the sweep engine.
//!
//! Usage: `experiments <id>|all [--quick] [--jobs N] [--trace DIR]
//! [--check-invariants]`
//!
//! The `fleet` target is special: it is not a figure regenerator and runs
//! the sharded fleet engine directly (see [`experiments::fleet`]) with its
//! own flags — `--sessions`, `--conference-size`, `--shards`,
//! `--bottleneck-mbps`, `--duration-s`, `--seed`, `--grid`. It cannot be
//! combined with other targets and is excluded from `all`.
//!
//! Reports go to stdout in registry order and are byte-identical for any
//! `--jobs` value; progress, timing, and the sweep summary go to stderr.
//! With `--trace DIR`, every unique job additionally writes its structured
//! event timeline as `DIR/<fingerprint>.jsonl` plus a human-readable
//! per-path summary as `DIR/<fingerprint>.timeline.txt`. Each timeline is
//! captured inside the job's own single-threaded simulation, so the JSONL
//! bytes are identical for any `--jobs` value too. With
//! `--check-invariants`, every unique job's timeline is replayed through
//! the control-loop invariant rules after the sweep; any violation is
//! printed and the process exits non-zero — this is the CI chaos gate.

use converge_bench::experiments::fleet::{run_fleet, FleetOpts};
use converge_bench::experiments::registry;
use converge_bench::{run_sweep, CellCache, Job, Scale};

struct Cli {
    scale: Scale,
    jobs: usize,
    trace: Option<String>,
    check_invariants: bool,
    fleet: FleetOpts,
    fleet_flags_seen: bool,
    targets: Vec<String>,
}

/// Parses a fleet-only flag's value into the right [`FleetOpts`] field.
fn parse_fleet_flag(cli: &mut Cli, flag: &str, value: &str) -> Result<bool, String> {
    fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad {flag} value {value:?}"))
    }
    match flag {
        "--sessions" => cli.fleet.sessions = parsed(flag, value)?,
        "--conference-size" => cli.fleet.conference_size = parsed(flag, value)?,
        "--shards" => cli.fleet.shards = parsed(flag, value)?,
        "--bottleneck-mbps" => cli.fleet.bottleneck_mbps = parsed(flag, value)?,
        "--duration-s" => cli.fleet.duration_s = parsed(flag, value)?,
        "--seed" => cli.fleet.seed = parsed(flag, value)?,
        _ => return Ok(false),
    }
    cli.fleet_flags_seen = true;
    Ok(true)
}

/// Parses the arguments after the program name.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Full,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        trace: None,
        check_invariants: false,
        fleet: FleetOpts::default(),
        fleet_flags_seen: false,
        targets: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            cli.scale = Scale::Quick;
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            cli.jobs = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
        } else if arg == "--jobs" {
            let v = it.next().ok_or("--jobs needs a value")?;
            cli.jobs = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            cli.trace = Some(v.to_string());
        } else if arg == "--trace" {
            cli.trace = Some(it.next().ok_or("--trace needs a directory")?);
        } else if arg == "--check-invariants" {
            cli.check_invariants = true;
        } else if arg == "--grid" {
            cli.fleet.grid = true;
            cli.fleet_flags_seen = true;
        } else if let Some((flag, value)) = arg.split_once('=').filter(|(f, _)| f.starts_with("--"))
        {
            if !parse_fleet_flag(&mut cli, flag, value)? {
                return Err(format!("unknown flag {arg:?}"));
            }
        } else if arg.starts_with("--") {
            let Some(value) = it.next() else {
                return Err(format!("unknown flag {arg:?}"));
            };
            if !parse_fleet_flag(&mut cli, &arg, &value)? {
                return Err(format!("unknown flag {arg:?}"));
            }
        } else {
            cli.targets.push(arg);
        }
    }
    if cli.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if cli.fleet.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    if cli.fleet.conference_size < 2 {
        return Err("--conference-size must be at least 2".into());
    }
    // Not `<= 0.0`: NaN compares false either way.
    if !(cli.fleet.bottleneck_mbps.is_finite() && cli.fleet.bottleneck_mbps > 0.0) {
        return Err("--bottleneck-mbps must be a positive, finite rate".into());
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if cli.targets.iter().any(|t| t == "fleet") {
        if cli.targets.len() > 1 {
            eprintln!("error: `fleet` cannot be combined with other targets");
            std::process::exit(2);
        }
        run_fleet_target(&cli);
        return;
    }
    if cli.fleet_flags_seen {
        eprintln!("error: --sessions/--conference-size/--shards/--bottleneck-mbps/--duration-s/--seed/--grid only apply to the `fleet` target");
        std::process::exit(2);
    }

    let registry = registry();
    if cli.targets.is_empty() || cli.targets.iter().any(|t| t == "list") {
        eprintln!(
            "usage: experiments <id>|all [--quick] [--jobs N] [--trace DIR] [--check-invariants]\n\navailable experiments:"
        );
        for def in &registry {
            let alias = if def.aliases.is_empty() {
                String::new()
            } else {
                format!(" (also: {})", def.aliases.join(", "))
            };
            eprintln!("  {:<12} {}{alias}", def.id, def.desc);
        }
        eprintln!(
            "  {:<12} fleet-scale engine: N sessions through SFU bottlenecks (own flags; excluded from `all`)",
            "fleet"
        );
        return;
    }

    let run_all = cli.targets.iter().any(|t| t == "all");
    if !run_all {
        for target in &cli.targets {
            if !registry.iter().any(|def| def.matches(target)) {
                eprintln!("error: unknown experiment {target:?} (try `experiments list`)");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<_> = registry
        .iter()
        .filter(|def| run_all || cli.targets.iter().any(|t| def.matches(t)))
        .collect();

    let scale = cli.scale;
    eprintln!(
        ">> sweeping {} experiment(s) at {scale:?} scale on {} worker(s)",
        selected.len(),
        cli.jobs
    );
    let specs: Vec<_> = selected
        .iter()
        .map(|def| (def.id.to_string(), (def.spec)(scale)))
        .collect();

    // Trace capture must be armed before the first simulation executes
    // (the invariant gate replays captured timelines too); remember the
    // unique jobs (declaration order) so their timelines can be fetched
    // back out of the cache after the sweep.
    let trace_jobs: Vec<Job> = if cli.trace.is_some() || cli.check_invariants {
        CellCache::global().set_trace_capture(true);
        let mut seen = std::collections::HashSet::new();
        specs
            .iter()
            .flat_map(|(_, spec)| spec.jobs.iter().copied())
            .filter(|job| seen.insert(*job))
            .collect()
    } else {
        Vec::new()
    };

    let (outputs, stats) = run_sweep(specs, scale, cli.jobs, CellCache::global());

    for ((id, output), def) in outputs.iter().zip(&selected) {
        eprintln!(">> {id}: {}", def.desc);
        println!("{output}");
    }
    eprintln!("   {}", stats.summary());

    if let Some(dir) = &cli.trace {
        if let Err(e) = write_traces(dir, &trace_jobs) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    if cli.check_invariants {
        let total = check_invariants(&trace_jobs);
        if total > 0 {
            eprintln!("error: {total} invariant violation(s) across the sweep");
            std::process::exit(1);
        }
    }
}

/// Runs the `fleet` target: one sharded fleet-engine run (plus an optional
/// reduced-scale grid), deterministic report on stdout, non-zero exit on
/// invariant violations when `--check-invariants` is armed.
fn run_fleet_target(cli: &Cli) {
    let mut opts = cli.fleet.clone();
    opts.quick = matches!(cli.scale, Scale::Quick);
    opts.check_invariants = cli.check_invariants;
    if cli.fleet.shards == 0 {
        // `--jobs` caps auto shard selection so CI can pin parallelism
        // with the flag it already uses for the sweep engine.
        opts.shards = cli.jobs;
    }
    eprintln!(
        ">> fleet: {} session(s), conference size {}, {} shard(s)",
        opts.sessions, opts.conference_size, opts.shards
    );
    let out = run_fleet(&opts);
    println!("{}", out.report);
    if cli.check_invariants {
        eprintln!("   invariants checked on every member: {} violation(s)", out.violations);
        if out.violations > 0 {
            std::process::exit(1);
        }
    }
}

/// Replays every unique job's captured timeline through the control-loop
/// invariant rules; prints each violation and returns the total count.
fn check_invariants(jobs: &[Job]) -> usize {
    use converge_trace::invariant::check_records;
    let mut total = 0usize;
    for job in jobs {
        let run = CellCache::global().get_or_run(job);
        let Some(records) = &run.trace else {
            eprintln!(
                "   warning: no timeline to check for {}",
                job.fingerprint()
            );
            continue;
        };
        let violations = check_records(records);
        for v in &violations {
            eprintln!("   VIOLATION {}: {v}", job.fingerprint());
        }
        total += violations.len();
    }
    eprintln!(
        "   invariants checked on {} timeline(s): {total} violation(s)",
        jobs.len()
    );
    total
}

/// Filesystem-safe rendering of a job fingerprint.
fn sanitize(fingerprint: &str) -> String {
    fingerprint
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes one JSONL timeline plus one per-path summary per unique job.
fn write_traces(dir: &str, jobs: &[Job]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut written = 0usize;
    for job in jobs {
        let run = CellCache::global().get_or_run(job);
        let Some(records) = &run.trace else {
            // Memoized before capture was armed (cannot happen in this
            // binary's flow, but the cache API allows it).
            eprintln!("   warning: no trace captured for {}", job.fingerprint());
            continue;
        };
        let fingerprint = job.fingerprint();
        let stem = sanitize(&fingerprint);
        let jsonl_path = format!("{dir}/{stem}.jsonl");
        std::fs::write(&jsonl_path, converge_trace::jsonl::render(&fingerprint, records))
            .map_err(|e| format!("writing {jsonl_path}: {e}"))?;
        let summary_path = format!("{dir}/{stem}.timeline.txt");
        std::fs::write(&summary_path, converge_trace::timeline::summarize(records))
            .map_err(|e| format!("writing {summary_path}: {e}"))?;
        written += 1;
    }
    eprintln!("   {written} trace timeline(s) written to {dir}/");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_cli;

    fn parse(args: &[&str]) -> Result<(), String> {
        parse_cli(args.iter().map(|a| a.to_string())).map(|_| ())
    }

    /// A bottleneck of no rate decodes nothing; the CLI refuses it as it
    /// refuses a conference of one.
    #[test]
    fn bottleneck_must_be_a_positive_finite_rate() {
        for bad in ["0", "-3", "NaN", "inf"] {
            let err = parse(&["fleet", "--bottleneck-mbps", bad]).unwrap_err();
            assert!(err.contains("--bottleneck-mbps"), "{bad}: {err}");
            let joined = format!("--bottleneck-mbps={bad}");
            assert!(parse(&["fleet", &joined]).is_err(), "{joined}");
        }
        assert_eq!(parse(&["fleet", "--bottleneck-mbps", "0.5"]), Ok(()));
    }
}
