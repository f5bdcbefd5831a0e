//! `bench-e2e`: one end-to-end run of one workload, or `--compare`.

use std::process::ExitCode;

use bench_harness::cli::Args;
use bench_harness::compare::compare;
use bench_harness::run::{run, setup_probe, RunPlan};

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (table, regressed) = compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let workload = args.workload.clone().ok_or("--workload is required")?;
    if args.setup_probe {
        setup_probe(&workload, args.seed)?;
        return Ok(ExitCode::SUCCESS);
    }
    let plan = RunPlan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let result = run(&plan, &exe)?;
    result.print();
    std::fs::create_dir_all(&args.results_dir).map_err(|e| format!("{}: {e}", args.results_dir))?;
    let path = format!("{}/{}.json", args.results_dir, result.workload);
    std::fs::write(&path, result.to_json().render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("{}", result.contract_json().render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("bench-e2e: {e}");
        ExitCode::from(2)
    })
}
