//! Where does a call's repair traffic go, second by second?
//!
//! Runs one named cell with a `RingSink` armed and prints, per simulated
//! second and per path, what the control loop decided and what it cost:
//! the scheduler's latest split (packets of a frame), the controller's
//! latest target rate, the highest FEC β, repair / media packets over the
//! second's `FecUpdated` events, sequences NACKed and packets
//! retransmitted; then frames decoded and dropped across streams. A
//! totals line per path closes it (packets sent / received / lost).
//!
//! ```text
//! cargo run --release -p converge-sim --example repair_timeline -- symmetric3 20
//! cargo run --release -p converge-sim --example repair_timeline -- loss10 60 7
//! ```
//!
//! `repair_timeline <cell> [seconds, default 30] [seed, default 11]`. Cells:
//! `symmetric3` (three clean 6 Mbit/s paths, one stream — the
//! `three_paths_all_carry_load` topology), `constant8` (eight clean
//! constant paths, three streams), `loss10` (`fec_tradeoff(10.0)`, three
//! streams), `reorder3` (`chaos(Reorder)`, three streams), `carrier8`
//! (`multi_carrier(8)`, one stream). A self-inflicted collapse reads as:
//! rates cross the links' capacity, `nack` and `rtx` pin at their per-round
//! ceilings a few seconds later, `dec` falls to 0 — on paths whose totals
//! show loss no link was configured with.

use std::collections::BTreeMap;
use std::sync::Arc;

use converge_net::{PathId, SimDuration};
use converge_sim::{
    FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};
use converge_trace::{RingSink, TraceEvent, TraceHandle};

const CELLS: &str = "symmetric3 constant8 loss10 reorder3 carrier8";

/// The named cell's scenario and stream count.
fn cell(name: &str, duration: SimDuration, seed: u64) -> Option<(ScenarioConfig, u8)> {
    Some(match name {
        "symmetric3" => (ScenarioConfig::symmetric3(), 1),
        "constant8" => (ScenarioConfig::constant8(), 3),
        "loss10" => (ScenarioConfig::fec_tradeoff(10.0), 3),
        "reorder3" => (ScenarioConfig::chaos(ImpairmentKind::Reorder), 3),
        "carrier8" => (ScenarioConfig::multi_carrier(8, duration, seed), 1),
        _ => return None,
    })
}

/// One path's second.
#[derive(Default, Clone, Copy)]
struct PathSecond {
    beta_milli: u32,
    repair: u32,
    media: u32,
    nacked: u32,
    rtx: u32,
}

fn usage() -> ! {
    eprintln!("usage: repair_timeline <cell> [seconds] [seed]\ncells: {CELLS}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |at: usize, default: u64| match args.get(at).map(|a| a.parse::<u64>()) {
        None => default,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => usage(),
    };
    let (secs, seed) = (number(1, 30), number(2, 11));
    let duration = SimDuration::from_secs(secs);
    let Some((scenario, streams)) = args.first().and_then(|name| cell(name, duration, seed)) else {
        usage()
    };
    let paths: Vec<PathId> = (0..scenario.paths.len() as u8).map(PathId).collect();

    let ring = Arc::new(RingSink::new(1 << 22));
    let config = SessionConfig::builder()
        .scenario(scenario)
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .streams(streams)
        .duration(duration)
        .seed(seed)
        .trace(TraceHandle::new(ring.clone()))
        .build()
        .expect("the cell is a valid config");
    let report = Session::new(config).run();

    // Fold the timeline: per (second, path) sums, per second frame counts,
    // and the latest split / rate per path carried from second to second.
    let mut seconds: BTreeMap<(u64, PathId), PathSecond> = BTreeMap::new();
    let mut frames: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    let mut split: BTreeMap<(u64, PathId), u32> = BTreeMap::new();
    let mut rate: BTreeMap<(u64, PathId), u64> = BTreeMap::new();
    for rec in ring.drain() {
        let sec = rec.at.as_micros() / 1_000_000;
        match rec.event {
            TraceEvent::SplitDecision { path, packets, .. } => {
                split.insert((sec, path), packets);
            }
            TraceEvent::CcRateChanged { path, rate_bps, .. } => {
                rate.insert((sec, path), rate_bps);
            }
            TraceEvent::FecUpdated {
                path,
                beta_milli,
                media,
                repair,
            } => {
                let s = seconds.entry((sec, path)).or_default();
                s.beta_milli = s.beta_milli.max(beta_milli);
                s.media += media;
                s.repair += repair;
            }
            TraceEvent::NackSent { path, packets } => {
                seconds.entry((sec, path)).or_default().nacked += packets;
            }
            TraceEvent::Retransmitted { path } => {
                seconds.entry((sec, path)).or_default().rtx += 1;
            }
            TraceEvent::FrameDecoded { .. } => frames.entry(sec).or_default().0 += 1,
            TraceEvent::FrameDropped { .. } => frames.entry(sec).or_default().1 += 1,
            _ => {}
        }
    }

    println!(
        "cell {}, {secs} s, seed {seed}, {streams} stream(s); per path: split pkts | rate Mbit/s | max β | repair/media | nack | rtx",
        args[0]
    );
    if ring.dropped() > 0 {
        println!("(the ring evicted {} early records)", ring.dropped());
    }
    let mut header = format!("{:>4}", "sec");
    for p in &paths {
        header.push_str(&format!(
            " | p{:<2}{:>3} {:>5} {:>4} {:>7} {:>4} {:>4}",
            p.0, "spl", "rate", "β", "rep/med", "nack", "rtx"
        ));
    }
    println!("{header} | {:>4} {:>4}", "dec", "drop");
    let mut last_split: BTreeMap<PathId, u32> = BTreeMap::new();
    let mut last_rate: BTreeMap<PathId, u64> = BTreeMap::new();
    for sec in 0..secs {
        let mut line = format!("{sec:>4}");
        for &p in &paths {
            if let Some(&n) = split.get(&(sec, p)) {
                last_split.insert(p, n);
            }
            if let Some(&r) = rate.get(&(sec, p)) {
                last_rate.insert(p, r);
            }
            let s = seconds.get(&(sec, p)).copied().unwrap_or_default();
            let beta = if s.beta_milli == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", s.beta_milli as f64 / 1_000.0)
            };
            line.push_str(&format!(
                " |    {:>3} {:>5.2} {:>4} {:>7} {:>4} {:>4}",
                last_split.get(&p).copied().unwrap_or(0),
                last_rate.get(&p).copied().unwrap_or(0) as f64 / 1e6,
                beta,
                format!("{}/{}", s.repair, s.media),
                s.nacked,
                s.rtx,
            ));
        }
        let (decoded, dropped) = frames.get(&sec).copied().unwrap_or_default();
        println!("{line} | {decoded:>4} {dropped:>4}");
    }
    let per_path: Vec<String> = report
        .paths
        .iter()
        .map(|(p, c)| {
            format!(
                "p{} {}/{}/{}",
                p.0, c.packets_sent, c.packets_received, c.packets_lost
            )
        })
        .collect();
    println!(
        "totals: {:.1} fps/stream, media {} rtx {} fec {} nacked {}; sent/received/lost {}",
        report.fps_per_stream(),
        report.media_packets_sent,
        report.retransmissions,
        report.fec_packets_sent,
        report.nacks_sent,
        per_path.join("  ")
    );
}
