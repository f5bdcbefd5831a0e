//! `bench-layers`: the traced run of one workload — where a simulated
//! second goes, layer by layer, measured from outside each layer.
//!
//! This package calls the layers' own public functions, so unlike
//! `bench-e2e` it may stop compiling when internals move; the rule for that
//! case is in `benchmark/README.md` ("Stable and internal surface").

mod alloc;
mod kernels;
mod mirror;
mod sections;
mod spans;
mod spec;

use std::io::Write as _;
use std::process::ExitCode;

use bench_harness::cli::Args;
use bench_harness::estimator::{mean, REF_NOMINAL_S};
use bench_harness::json::{obj, Value};
use bench_harness::workloads::{Sizing, Workload};

use crate::kernels::Kernels;
use crate::sections::{
    fleet_section, mirror_configs, mirror_section, report_alloc, sweep_section, trace_cost_section,
    MirrorOutcome, Tally,
};
use crate::spans::{Layer, SpanCost, Spans};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// The layer table of the results file: self time, calls and share of the
/// traced loop per layer, plus how much of the traced wall the spans and
/// their calibrated cost account for.
fn layer_table(outcome: &MirrorOutcome, cost: SpanCost, factor: f64) -> (Value, f64) {
    let traced_ns = outcome.traced_wall_s * 1e9;
    let overhead_ns = outcome.spans.total_calls() as f64 * cost.total_ns;
    let self_ns: f64 = Layer::ALL
        .iter()
        .map(|&l| outcome.spans.self_ns(l, cost))
        .sum();
    let accounted = (self_ns + overhead_ns) / traced_ns;
    let rows = Layer::ALL
        .iter()
        .map(|&layer| {
            let ns = outcome.spans.self_ns(layer, cost);
            obj([
                ("layer", layer.name().into()),
                ("self_ns_per_sim_s", (ns * factor / outcome.sim_s).into()),
                (
                    "calls_per_sim_s",
                    (outcome.spans.calls(layer) as f64 / outcome.sim_s).into(),
                ),
                ("share_of_layers", (ns / self_ns).into()),
            ])
        })
        .collect();
    (Value::Arr(rows), accounted)
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let name = args.workload.clone().ok_or("--workload is required")?;
    let sizing = if args.smoke {
        Sizing::Smoke
    } else {
        Sizing::Full
    };
    let workload = Workload::build(&name, args.seed, sizing)?;
    let mut tally = Tally::default();
    let cost = Spans::calibrate();

    let configs = mirror_configs(&workload);
    // One pair of passes under `--smoke`, and on `sweep-quick`, whose two
    // whole-registry sweeps below already fill the run.
    let one_pair = args.smoke || workload.name == "sweep-quick";
    let seconds = if one_pair { 0.0 } else { args.seconds };
    let outcome =
        (!configs.is_empty()).then(|| mirror_section(&mut tally, &configs, seconds, cost));
    match workload.name {
        "fleet-sfu" => fleet_section(&mut tally, &workload),
        "sweep-quick" => sweep_section(&mut tally, &workload),
        _ => {
            let outcome = outcome.as_ref().expect("call workloads hold calls");
            report_alloc(&mut tally, outcome.alloc, outcome.sim_s);
        }
    }
    if !args.smoke {
        trace_cost_section(&mut tally, args.seed)?;
        let mut kernels = Kernels::new(tally.reference_mut(), args.seed);
        kernels.run_all();
        let Kernels { ref_s, results, .. } = kernels;
        tally.ref_s.extend(ref_s);
        for (name, ns) in results {
            tally.host_time.insert(name.to_string(), ns);
        }
    }

    // Every host-time number goes through the one estimator.
    let ref_mean_s = mean(&tally.ref_s);
    let factor = REF_NOMINAL_S / ref_mean_s;
    let mut metrics = Vec::new();
    println!("workload {} seed {} (traced run)", workload.name, args.seed);
    for metric in spec::per_layer() {
        let value = match (
            tally.host_time.get(&metric.name),
            tally.exact.get(&metric.name),
        ) {
            (Some(raw), _) => raw * factor,
            (None, Some(exact)) => *exact,
            // Not measurable on this workload (README, "Per-layer metrics").
            (None, None) => 0.0,
        };
        println!("  {:<36} {:>16.4} {}", metric.name, value, metric.unit);
        metrics.push((
            metric.name,
            obj([("value", value.into()), ("unit", metric.unit.into())]),
        ));
    }
    let metrics = Value::Obj(metrics);

    let mut record = vec![
        ("workload".to_string(), workload.name.into()),
        ("seed".to_string(), (args.seed as f64).into()),
        ("attempted".to_string(), tally.attempted.into()),
        ("failed".to_string(), tally.failures.len().into()),
        (
            "failures".to_string(),
            Value::Arr(tally.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("ref_mean_s".to_string(), ref_mean_s.into()),
        (
            "span_cost_ns".to_string(),
            obj([
                ("inner", cost.inner_ns.into()),
                ("total", cost.total_ns.into()),
            ]),
        ),
    ];
    std::fs::create_dir_all(&args.results_dir).map_err(|e| format!("{}: {e}", args.results_dir))?;
    if let Some(outcome) = &outcome {
        let (table, accounted) = layer_table(outcome, cost, factor);
        println!(
            "  (ungated) spans {}  span cost {:.1} ns ({:.1} ns inside)  layers + span cost account for {:.1} % of the traced wall",
            outcome.spans.total_calls(),
            cost.total_ns,
            cost.inner_ns,
            accounted * 100.0
        );
        record.push(("accounted_share".to_string(), accounted.into()));
        record.push(("layer_table".to_string(), table));
        // Spans stay in memory until here, the end of the run.
        let path = format!("{}/spans-{}.jsonl", args.results_dir, workload.name);
        let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for span in outcome.spans.records() {
            writeln!(out, "{}", span.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("{path}: {e}"))?;
    }
    for note in &tally.notes {
        println!("  (ungated) {note}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        tally.attempted,
        tally.failures.len()
    );
    for f in &tally.failures {
        println!("  FAILED {f}");
    }
    record.push(("metrics".to_string(), metrics.clone()));
    let path = format!("{}/{}.layers.json", args.results_dir, workload.name);
    std::fs::write(&path, Value::Obj(record).render_pretty())
        .map_err(|e| format!("{path}: {e}"))?;

    let contract = obj([
        ("correct", tally.failures.is_empty().into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failures.len().into()),
        ("metrics", metrics),
    ]);
    println!("{}", contract.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("bench-layers: {e}");
        ExitCode::from(2)
    })
}
