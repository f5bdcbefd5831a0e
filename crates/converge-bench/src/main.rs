//! The `experiments` binary: regenerates the paper's tables and figures by
//! handing every selected experiment to the sweep engine.
//!
//! Usage: `experiments <id>|all [--quick] [--jobs N] [--trace DIR]`
//!
//! Reports go to stdout in registry order and are byte-identical for any
//! `--jobs` value; progress, timing, and the sweep summary go to stderr.
//! Every job runs with the control-loop invariant checker armed: after the
//! reports, stderr reads `invariants checked on N job(s): K violation(s)`
//! plus one `VIOLATION <fingerprint>: …` line per violation, and the
//! process exits 1 when `K > 0` — this is what the CI chaos, shootout and
//! drive gates rely on. With `--trace DIR`, the directory is created
//! before any job runs (exit 1 if it cannot be), and every unique job
//! writes its structured event timeline as `DIR/<fingerprint>.jsonl` plus
//! a human-readable per-path summary as `DIR/<fingerprint>.timeline.txt`,
//! on the worker that ran it ([`CellCache::tracing`]). Each timeline is
//! captured inside the job's own single-threaded simulation, so the
//! JSONL bytes are identical for any `--jobs` value too.

use converge_bench::experiments::registry;
use converge_bench::{run_sweep, CellCache, Scale};

struct Cli {
    scale: Scale,
    jobs: usize,
    trace: Option<String>,
    targets: Vec<String>,
}

/// Parses the arguments after the program name.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Full,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        trace: None,
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
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}"));
        } else {
            cli.targets.push(arg);
        }
    }
    if cli.jobs == 0 {
        return Err("--jobs must be at least 1".into());
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

    let registry = registry();
    if cli.targets.is_empty() || cli.targets.iter().any(|t| t == "list") {
        eprintln!(
            "usage: experiments <id>|all [--quick] [--jobs N] [--trace DIR]\n\navailable experiments:"
        );
        for def in &registry {
            let alias = if def.aliases.is_empty() {
                String::new()
            } else {
                format!(" (also: {})", def.aliases.join(", "))
            };
            eprintln!("  {:<12} {}{alias}", def.id, def.desc);
        }
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

    let cache = match &cli.trace {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {dir}: {e}");
                std::process::exit(1);
            }
            CellCache::tracing(dir)
        }
        None => CellCache::new(),
    };
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

    let (outputs, stats) = run_sweep(specs, scale, cli.jobs, &cache);

    for ((id, output), def) in outputs.iter().zip(&selected) {
        eprintln!(">> {id}: {}", def.desc);
        println!("{output}");
    }
    eprintln!("   {}", stats.summary());
    eprintln!("   {}", stats.invariant_summary());
    for (job, v) in &stats.violations {
        eprintln!("   VIOLATION {}: {v}", job.fingerprint());
    }

    if let Some(dir) = &cli.trace {
        eprintln!("   {} trace timeline(s) written to {dir}/", stats.executed);
    }
    if !stats.violations.is_empty() {
        std::process::exit(1);
    }
}
