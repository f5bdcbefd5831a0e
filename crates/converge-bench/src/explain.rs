//! `experiments explain <cell> [seconds] [seed]`: what happened inside one
//! call of the cell catalogue ([`converge_sim::cells`]), recomputed on
//! demand. A job is a pure function of its key, so its explanation is not
//! stored: [`run`] runs the job again with the invariant checker armed
//! around a [`RingSink`], and [`render`] prints two sections off its
//! records.
//!
//! 1. The repair table: per simulated second and per path, the scheduler's
//!    latest split (packets of a frame), the controller's latest target
//!    rate, the highest FEC β, repair / media packets over the second's
//!    `FecUpdated` events, sequences NACKed and packets retransmitted; then
//!    frames decoded and dropped across streams. A `totals:` line per path
//!    closes it (packets sent / received / lost). A self-inflicted collapse
//!    reads as: rates cross the links' capacity, `nack` and `rtx` pin at
//!    their per-round ceilings a few seconds later, `dec` falls to 0 — on
//!    paths whose totals show loss no link was configured with.
//! 2. The per-path timeline summary ([`timeline::summarize`]): when each
//!    path was disabled, how its Eq. 2 α offset moved and how FEC β ramped,
//!    what the paper's Fig. 11 / Table 4 ablation reads off its time series
//!    (the `fig11` and `fig11-nofb` cells).

use std::collections::BTreeMap;
use std::sync::Arc;

use converge_net::{PathId, SimDuration};
use converge_sim::cells::{self, Shape};
use converge_sim::{CallReport, Session};
use converge_trace::{timeline, RingSink, TraceEvent, TraceHandle, TraceRecord, Violation};

use crate::runner::Job;

/// Records the ring keeps: a 180 s call never fills it; a longer one keeps
/// its latest records, and the table says how many it evicted.
const RING_CAPACITY: usize = 1 << 22;

/// One job run with its timeline recorded and the invariant checker armed.
#[derive(Debug)]
pub struct Traced {
    /// The call's report.
    pub report: CallReport,
    /// Control-loop invariant violations, in the order they occurred.
    pub violations: Vec<Violation>,
    /// The timeline, oldest record first.
    pub records: Vec<TraceRecord>,
    /// Records the ring evicted to make room for later ones.
    pub evicted: u64,
    /// Paths of the call's scenario.
    pub paths: usize,
}

/// Runs `job` with its timeline kept in a ring and the checker armed
/// around it (`Session::run_checked`). The report is the one the memo
/// cache keeps for the job: tracing and checking perturb nothing.
pub fn run(job: &Job) -> Traced {
    let ring = Arc::new(RingSink::new(RING_CAPACITY));
    let mut config = job.cell.config(job.duration, job.seed);
    config.trace = TraceHandle::new(ring.clone());
    let paths = config.scenario.paths.len();
    let (report, violations) = Session::new(config).run_checked();
    Traced {
        report,
        violations,
        evicted: ring.dropped(),
        records: ring.drain(),
        paths,
    }
}

/// `explain`'s usage, ending with the calls it takes.
pub fn usage() -> String {
    format!(
        "usage: experiments explain <cell> [seconds] [seed]\ncells: {}",
        cells::names(false)
    )
}

/// `explain`'s arguments as the call's name and its job: a call of the
/// catalogue, seconds that [`cells::secs`] accepts (default 30) and a
/// positive seed (default 11). `None` for anything else, a fleet included.
pub fn parse(args: &[String]) -> Option<(&str, Job)> {
    let secs = args.get(1).map_or(Some(30), |a| cells::secs(a))?;
    let seed = args
        .get(2)
        .map_or(Some(11), |a| a.parse().ok().filter(|&n| n > 0))?;
    let name = args.first().filter(|_| args.len() <= 3)?;
    let (_, _, Shape::Call(cell)) = cells::find(name)? else {
        return None;
    };
    Some((name, Job::new(*cell, SimDuration::from_secs(secs), seed)))
}

/// One path's second of the repair table.
#[derive(Default, Clone, Copy)]
struct PathSecond {
    beta_milli: u32,
    repair: u32,
    media: u32,
    nacked: u32,
    rtx: u32,
}

/// Both sections of the explanation of `job`, the call named `name`.
pub fn render(name: &str, job: &Job, traced: &Traced) -> String {
    let secs = job.duration.as_micros() / 1_000_000;
    let paths: Vec<PathId> = (0..traced.paths as u8).map(PathId).collect();
    let report = &traced.report;

    // Fold the timeline: per (second, path) sums, per second frame counts,
    // and the latest split / rate per path carried from second to second.
    let mut seconds: BTreeMap<(u64, PathId), PathSecond> = BTreeMap::new();
    let mut frames: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    let mut split: BTreeMap<(u64, PathId), u32> = BTreeMap::new();
    let mut rate: BTreeMap<(u64, PathId), u64> = BTreeMap::new();
    for rec in &traced.records {
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

    let mut out = String::new();
    out.push_str(&format!(
        "cell {name}, {secs} s, seed {}, {} stream(s); per path: split pkts | rate Mbit/s | max β | repair/media | nack | rtx\n",
        job.seed, job.cell.streams
    ));
    if traced.evicted > 0 {
        out.push_str(&format!(
            "(the ring evicted {} early records)\n",
            traced.evicted
        ));
    }
    out.push_str(&format!("{:>4}", "sec"));
    for p in &paths {
        out.push_str(&format!(
            " | p{:<2}{:>3} {:>5} {:>4} {:>7} {:>4} {:>4}",
            p.0, "spl", "rate", "β", "rep/med", "nack", "rtx"
        ));
    }
    out.push_str(&format!(" | {:>4} {:>4}\n", "dec", "drop"));
    let mut last_split: BTreeMap<PathId, u32> = BTreeMap::new();
    let mut last_rate: BTreeMap<PathId, u64> = BTreeMap::new();
    for sec in 0..secs {
        out.push_str(&format!("{sec:>4}"));
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
            out.push_str(&format!(
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
        out.push_str(&format!(" | {decoded:>4} {dropped:>4}\n"));
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
    out.push_str(&format!(
        "totals: {:.1} fps/stream, media {} rtx {} fec {} nacked {}; sent/received/lost {}\n",
        report.fps_per_stream(),
        report.media_packets_sent,
        report.retransmissions,
        report.fec_packets_sent,
        report.nacks_sent,
        per_path.join("  ")
    ));
    out.push_str(&timeline::summarize(&traced.records));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    /// 64-bit FNV-1a of `text`.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `explain symmetric3 5 11` prints the bytes the diagnostics it
    /// replaced printed for that call: the `repair_timeline` example's
    /// table, then the `.timeline.txt` summary `--trace` wrote. A seconds
    /// value no `SimDuration` holds, 0 seconds, an unknown name and a fleet
    /// are refused.
    #[test]
    fn explains_symmetric3_as_pinned_and_refuses_what_is_no_call() {
        let args = words("symmetric3 5 11");
        let (name, job) = parse(&args).expect("a call of the catalogue");
        let traced = run(&job);
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        let text = render(name, &job, &traced);
        let digest = fnv1a(&text);
        assert_eq!(digest, 0x80ad_f6a4_1a7c_0207, "{digest:#018x}:\n{text}");

        for refused in [
            "clean2",
            "fleet8",
            "clean 0",
            "clean 18446744073710",
            "clean 5 0",
            "clean 5 11 extra",
        ] {
            assert!(parse(&words(refused)).is_none(), "{refused}");
        }
        assert!(parse(&[]).is_none());
        assert!(usage().ends_with(&cells::names(false)));
    }
}
