//! Does a cell read alike on every seed?
//!
//! Runs each cell of the stability matrix over seeds 1–12 and prints the
//! decoded frames per second per stream of every seed, the range, the
//! widest gap between two neighbouring readings, and `BIMODAL` where two
//! seeds land more than 5 fps apart — the signature of a control loop that
//! either holds 30 fps or collapses into its own retransmissions, by seed.
//! (A flagged cell with a small gap is one wide mode, not two.) Call cells
//! also print the shares of retransmissions, FEC and lost packets over all
//! twelve calls (of media packets sent; lost of all packets sent), which
//! is how self-inflicted loss shows on a path that is configured lossless.
//!
//! ```text
//! cargo run --release -p converge-sim --example stability            # 120 s calls, 10 s fleets
//! cargo run --release -p converge-sim --example stability -- 30      # 30 s calls
//! ```
//!
//! The cells are the ones `benchmark/README.md` "Seeds" had to stay out of
//! (`chaos(Reorder)`, `chaos(FeedbackLoss)` and `fec_tradeoff(10.0)` under
//! three streams, `fec_tradeoff(2.0)` under two), `fec_tradeoff(10.0)` under
//! one, the `symmetric3` and `constant8` topologies of `call-npath`, and
//! 32-session fleets in conferences of 4 and of 8 (`converge_sim::stability`
//! holds them). The output is a function of the code alone;
//! `tests/tests/stability.rs` pins a slice of it.

use converge_sim::stability::{call, call_cells, fleet_fps, spread};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=12;

/// Prints one row: the per-seed readings, their range, the widest gap
/// between neighbours, and the flag.
fn row(label: &str, fps: &[f64], shares: &str) {
    let mut sorted = fps.to_vec();
    sorted.sort_by(f64::total_cmp);
    let gap = sorted.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
    let cells: Vec<String> = fps.iter().map(|f| format!("{f:4.1}")).collect();
    let (min, max, bimodal) = spread(fps);
    let flag = if bimodal { "BIMODAL" } else { "stable " };
    println!(
        "{label:<24} {}  {min:4.1}-{max:4.1}  gap {gap:4.1}  {flag}{shares}",
        cells.join(" ")
    );
}

fn main() {
    let secs = match std::env::args().nth(1).map(|a| a.parse::<u64>()) {
        None => 120,
        Some(Ok(secs)) if secs > 0 => secs,
        Some(_) => {
            eprintln!("usage: stability [call seconds, default 120]");
            std::process::exit(2);
        }
    };
    println!(
        "fps per stream, seeds {}-{}; calls {secs} s, fleets 10 s",
        SEEDS.start(),
        SEEDS.end()
    );
    for (label, scenario, streams) in call_cells() {
        let (mut media, mut rtx, mut fec, mut sent, mut lost) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let fps: Vec<f64> = SEEDS
            .map(|seed| {
                let report = call(&scenario, streams, secs, seed);
                media += report.media_packets_sent;
                rtx += report.retransmissions;
                fec += report.fec_packets_sent;
                sent += report.paths.values().map(|p| p.packets_sent).sum::<u64>();
                lost += report.paths.values().map(|p| p.packets_lost).sum::<u64>();
                report.fps_per_stream()
            })
            .collect();
        let pct = |n: u64, of: u64| 100.0 * n as f64 / of.max(1) as f64;
        let shares = format!(
            "  rtx {:.1} % fec {:.1} % lost {:.2} %",
            pct(rtx, media),
            pct(fec, media),
            pct(lost, sent)
        );
        row(label, &fps, &shares);
    }
    for size in [4, 8] {
        let fps: Vec<f64> = SEEDS.map(|seed| fleet_fps(size, seed)).collect();
        row(&format!("fleet 32 x{size}"), &fps, "");
    }
}
