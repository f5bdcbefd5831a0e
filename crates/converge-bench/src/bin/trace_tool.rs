//! Link-trace utility: generate the synthetic scenario traces as a drive
//! file (for plotting or replay) and summarize drive files.
//!
//! ```text
//! trace-tool gen <stationary|walking|driving> <wifi|cella|cellb> <secs> <seed>
//! trace-tool info <file.jsonl>
//! ```
//!
//! Both speak `DriveTrace`'s JSONL, one
//! `{"t":…,"path":…,"rate_bps":…,"owd_ms":…,"loss_pct":…}` row per sample.
//! `gen` prints path 0's half-second steps, lossless and at zero delay, so
//! its output replays directly (`examples/drive_replay.rs`,
//! `ScenarioConfig::from_drive_file`); `info` prints one summary per path.
//! `gen`'s seconds go through `cells::secs`: 0, or a value no
//! `SimDuration` holds, prints the usage and exits 2.

use converge_net::{trace, Carrier, DriveTrace, Scenario, SimDuration, SimTime};
use converge_sim::cells;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace-tool gen <stationary|walking|driving> <wifi|cella|cellb> <secs> <seed>\n  trace-tool info <file.jsonl>\n\
         drive JSONL rows: {{\"t\",\"path\",\"rate_bps\",\"owd_ms\",\"loss_pct\"}} (gen: path 0, 0.5 s steps, zero delay and loss)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            if args.len() != 5 {
                usage();
            }
            let scenario = match args[1].as_str() {
                "stationary" => Scenario::Stationary,
                "walking" => Scenario::Walking,
                "driving" => Scenario::Driving,
                _ => usage(),
            };
            let carrier = match args[2].as_str() {
                "wifi" => Carrier::Wifi,
                "cella" => Carrier::CellularA,
                "cellb" => Carrier::CellularB,
                _ => usage(),
            };
            let secs = cells::secs(&args[3]).unwrap_or_else(|| usage());
            let seed: u64 = args[4].parse().unwrap_or_else(|_| usage());
            let duration = SimDuration::from_secs(secs);
            let t = trace::synthesize(scenario, carrier, SimDuration::ZERO, duration, seed);
            print!("{}", t.to_jsonl(0));
        }
        Some("info") => {
            if args.len() != 2 {
                usage();
            }
            let text = std::fs::read_to_string(&args[1]).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", args[1]);
                std::process::exit(1);
            });
            let paths = DriveTrace::parse_jsonl(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {}: {e}", args[1]);
                std::process::exit(1);
            });
            for (path, t) in paths.iter().enumerate() {
                let rates = t.samples().iter().map(|s| s.rate_bps);
                let min = rates.clone().min().unwrap_or(0);
                let max = rates.max().unwrap_or(0);
                let span = t.end() - t.start();
                let below_10m = (0..=t.end().as_micros() / 1_000_000)
                    .filter(|&s| t.rate_at(SimTime::from_secs(s)) < 10_000_000)
                    .count();
                println!("path {path}:");
                println!("  samples:    {}", t.samples().len());
                println!("  span:       {span}");
                println!("  mean rate:  {:.2} Mbps", t.mean_rate() as f64 / 1e6);
                println!("  min rate:   {:.2} Mbps", min as f64 / 1e6);
                println!("  max rate:   {:.2} Mbps", max as f64 / 1e6);
                println!("  sec <10Mbps: {below_10m}");
            }
        }
        _ => usage(),
    }
}
