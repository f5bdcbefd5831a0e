//! Drive replay: run a Converge call over a multi-path cellular drive
//! capture (JSONL rows of `{"t":..,"path":N,"rate_bps":..,"owd_ms":..,
//! "loss_pct":..}`), the workflow for feeding real 4-8 device drive logs
//! through the reproduction.
//!
//! ```text
//! cargo run --release -p converge-sim --example drive_replay [drive.jsonl]
//! ```
//!
//! Without an argument, the committed `blackout_flap` fixture is replayed:
//! 8 paths (WiFi, four cellular carriers, GEO + LEO satellite) with one
//! hard 8 s blackout and one flapping path.

use converge_net::{PathId, SimTime};
use converge_sim::{DriveFixture, FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig};

/// Prints `drive_replay: SOURCE: ERROR` and exits 1.
fn fail(source: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("drive_replay: {source}: {e}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let source = args.first().map_or("blackout_flap", String::as_str);
    let scenario = match args.first() {
        Some(path) => ScenarioConfig::from_drive_file(path).unwrap_or_else(|e| fail(path, e)),
        None => {
            println!("(no drive file given; replaying the committed blackout_flap fixture)");
            DriveFixture::BlackoutFlap.scenario()
        }
    };

    let drives: Vec<_> = scenario.paths.iter().map(|p| &p.trace).collect();
    let duration = drives
        .iter()
        .map(|d| d.end() - SimTime::ZERO)
        .max()
        .expect("at least one path");
    println!(
        "Replaying '{}': {} paths, {} s (mean rates: {})",
        scenario.name,
        drives.len(),
        duration.as_secs_f64(),
        drives
            .iter()
            .map(|d| format!("{:.1} Mbps", d.mean_rate() as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let config = SessionConfig::builder()
        .scenario(scenario.clone())
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(1)
        .duration(duration)
        .seed(42)
        .build()
        .unwrap_or_else(|e| fail(source, e));
    let r = Session::new(config).run();

    println!();
    println!(
        "call: {:.1} fps, {:.2} Mbps delivered, {:.0} ms E2E, {:.0} ms frozen",
        r.fps_per_stream(),
        r.throughput_bps / 1e6,
        r.e2e_mean_ms,
        r.freeze_total_ms
    );

    println!();
    println!("per-10s drive capacity vs bytes the scheduler put on each path");
    println!("(watch the load route around each path's dark window):");
    let header: String = (0..drives.len())
        .map(|p| format!(" {:>5}{:>7}", format!("cap{p}"), format!("sent{p}")))
        .collect();
    println!("{:>6}{header}", "t");
    let secs = duration.as_secs_f64() as usize;
    for t in (0..secs).step_by(10) {
        let mut row = String::new();
        for (p, drive) in drives.iter().enumerate() {
            let cap = drive.rate_at(SimTime::from_secs(t as u64)) as f64 / 1e6;
            let series = r.path_series.get(PathId(p as u8)).into_iter().flatten();
            let sent = series.skip(t).take(10).sum::<u64>() as f64 * 8.0 / 10.0 / 1e6;
            row.push_str(&format!(" {cap:>5.1}{sent:>7.2}"));
        }
        println!("{t:>5}s{row}");
    }
}
