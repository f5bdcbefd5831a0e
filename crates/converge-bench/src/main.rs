//! The `experiments` binary: regenerates the paper's tables and figures by
//! handing every selected experiment to the sweep engine.
//!
//! Usage: `experiments <id>|all [--quick] [--jobs N]`, or
//! `experiments explain <cell> [seconds] [seed]`.
//!
//! Reports go to stdout in registry order and are byte-identical for any
//! `--jobs` value; progress, timing, and the sweep summary go to stderr.
//! Every job runs with the control-loop invariant checker armed: after the
//! reports, stderr reads `invariants checked on N job(s): K violation(s)`
//! plus one `VIOLATION <fingerprint>: …` line per violation, and the
//! process exits 1 when `K > 0` — this is what the CI chaos, shootout and
//! drive gates rely on. `explain` runs one call of the cell catalogue
//! again with its timeline kept and prints what happened inside it
//! (`converge_bench::explain`).

use converge_bench::experiments::registry;
use converge_bench::explain;
use converge_bench::{run_sweep, CellCache, Scale};

struct Cli {
    scale: Scale,
    jobs: usize,
    targets: Vec<String>,
}

/// Parses the arguments after the program name.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Full,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
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

    if cli.targets.first().is_some_and(|t| t == "explain") {
        explain_call(&cli.targets[1..]);
    }
    let registry = registry();
    if cli.targets.is_empty() || cli.targets.iter().any(|t| t == "list") {
        eprintln!(
            "usage: experiments <id>|all [--quick] [--jobs N]\n       experiments explain <cell> [seconds] [seed]\n\navailable experiments:"
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

    let cache = CellCache::new();
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
    if !stats.violations.is_empty() {
        std::process::exit(1);
    }
}

/// `experiments explain <cell> [seconds] [seed]`: prints the call's
/// explanation, then exits as a sweep would (1 on a violation, which goes
/// to stderr); usage, exit 2, for arguments that name no call.
fn explain_call(args: &[String]) -> ! {
    let Some((name, job)) = explain::parse(args) else {
        eprintln!("{}", explain::usage());
        std::process::exit(2);
    };
    let traced = explain::run(&job);
    print!("{}", explain::render(name, &job, &traced));
    for v in &traced.violations {
        eprintln!("VIOLATION {}: {v}", job.fingerprint());
    }
    std::process::exit(i32::from(!traced.violations.is_empty()));
}
