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
//! The cells are `converge_sim::stability::MATRIX`'s. The output is a
//! function of the code alone; `tests/tests/stability.rs` pins a slice of it.

use converge_net::SimDuration;
use converge_sim::cells::{self, Outcome};
use converge_sim::stability::{spread, MATRIX};

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
    let secs = std::env::args()
        .nth(1)
        .map_or(Some(120), |a| cells::secs(&a));
    let Some(secs) = secs else {
        eprintln!("usage: stability [call seconds, default 120]");
        std::process::exit(2);
    };
    println!(
        "fps per stream, seeds {}-{}; calls {secs} s, fleets 10 s",
        SEEDS.start(),
        SEEDS.end()
    );
    for (label, name) in MATRIX {
        let &(_, fleet_secs, shape) = cells::find(name).expect("the matrix names catalogue cells");
        let secs = if shape.is_fleet() { fleet_secs } else { secs };
        let (mut media, mut rtx, mut fec, mut sent, mut lost) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let fps: Vec<f64> = SEEDS
            .map(|seed| {
                let outcome = shape.build(SimDuration::from_secs(secs), seed).run();
                if let Outcome::Call(report) = &outcome {
                    media += report.media_packets_sent;
                    rtx += report.retransmissions;
                    fec += report.fec_packets_sent;
                    sent += report.paths.values().map(|p| p.packets_sent).sum::<u64>();
                    lost += report.paths.values().map(|p| p.packets_lost).sum::<u64>();
                }
                outcome.fps()
            })
            .collect();
        let pct = |n: u64, of: u64| 100.0 * n as f64 / of.max(1) as f64;
        let (rtx, fec, lost) = (pct(rtx, media), pct(fec, media), pct(lost, sent));
        let shares = format!("  rtx {rtx:.1} % fec {fec:.1} % lost {lost:.2} %");
        row(label, &fps, if shape.is_fleet() { "" } else { &shares });
    }
}
