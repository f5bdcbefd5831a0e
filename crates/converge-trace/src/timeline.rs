//! Post-processor turning a record stream into a per-path timeline
//! summary: when each path was disabled, how its Eq. 2 α offset moved,
//! and how FEC β ramped — the quantities the paper's Fig. 11/Table 4
//! ablation reads off its time-series plots.

use std::collections::BTreeMap;

use converge_net::{PathId, SimTime};

use crate::{TraceEvent, TraceRecord};

#[derive(Debug, Default)]
struct PathTimeline {
    disable_intervals: Vec<(SimTime, Option<SimTime>)>,
    alpha: Vec<(SimTime, i64, i64)>,
    beta_milli: Vec<(SimTime, u32)>,
    feedback: u32,
    reenable_margins_us: Vec<u64>,
}

fn secs(t: SimTime) -> f64 {
    t.as_micros() as f64 / 1e6
}

/// Renders the per-path summary of a timeline, paths in id order. The
/// output is deterministic for a deterministic record stream.
pub fn summarize(records: &[TraceRecord]) -> String {
    let mut paths: BTreeMap<PathId, PathTimeline> = BTreeMap::new();
    let mut end = SimTime::ZERO;
    for rec in records {
        end = end.max(rec.at);
        match rec.event {
            TraceEvent::PathDisabled { path, .. } => {
                paths
                    .entry(path)
                    .or_default()
                    .disable_intervals
                    .push((rec.at, None));
            }
            TraceEvent::PathReenabled {
                path, margin_us, ..
            } => {
                let tl = paths.entry(path).or_default();
                if let Some(last) = tl.disable_intervals.last_mut() {
                    if last.1.is_none() {
                        last.1 = Some(rec.at);
                    }
                }
                tl.reenable_margins_us.push(margin_us);
            }
            TraceEvent::AlphaAdjusted {
                path,
                alpha,
                offset,
            } => {
                paths
                    .entry(path)
                    .or_default()
                    .alpha
                    .push((rec.at, alpha, offset));
            }
            TraceEvent::FecUpdated {
                path, beta_milli, ..
            } => {
                let tl = paths.entry(path).or_default();
                if tl.beta_milli.last().map(|&(_, b)| b) != Some(beta_milli) {
                    tl.beta_milli.push((rec.at, beta_milli));
                }
            }
            TraceEvent::FeedbackEmitted { path, .. } => {
                paths.entry(path).or_default().feedback += 1;
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "# per-path timeline summary ({} events, {:.1}s)\n",
        records.len(),
        secs(end)
    ));
    if paths.is_empty() {
        out.push_str("# no per-path control events\n");
        return out;
    }
    for (path, tl) in &paths {
        out.push_str(&format!("{path}:\n"));

        if tl.disable_intervals.is_empty() {
            out.push_str("  disabled: never\n");
        } else {
            let mut total = 0.0;
            let mut spans = String::new();
            for &(from, to) in &tl.disable_intervals {
                let until = to.unwrap_or(end);
                total += secs(until) - secs(from);
                match to {
                    Some(t) => spans.push_str(&format!(" [{:.1}s..{:.1}s]", secs(from), secs(t))),
                    None => spans.push_str(&format!(" [{:.1}s..end]", secs(from))),
                }
            }
            out.push_str(&format!(
                "  disabled: {} interval(s), {:.1}s total:{}\n",
                tl.disable_intervals.len(),
                total,
                spans
            ));
        }

        if tl.alpha.is_empty() {
            out.push_str("  alpha: no adjustments\n");
        } else {
            let min = tl.alpha.iter().map(|&(_, _, o)| o).min().unwrap_or(0);
            let max = tl.alpha.iter().map(|&(_, _, o)| o).max().unwrap_or(0);
            let last = tl.alpha.last().map(|&(_, _, o)| o).unwrap_or(0);
            out.push_str(&format!(
                "  alpha: {} adjustment(s), offset range [{min}, {max}], final {last}\n",
                tl.alpha.len()
            ));
        }

        if tl.beta_milli.is_empty() {
            out.push_str("  beta: no FEC updates\n");
        } else {
            let peak = tl.beta_milli.iter().map(|&(_, b)| b).max().unwrap_or(1000);
            let last = tl.beta_milli.last().map(|&(_, b)| b).unwrap_or(1000);
            out.push_str(&format!(
                "  beta: {} change(s), peak {:.3}, final {:.3}\n",
                tl.beta_milli.len(),
                peak as f64 / 1000.0,
                last as f64 / 1000.0
            ));
        }

        if tl.feedback > 0 {
            out.push_str(&format!("  qoe_feedback: {} packet(s)\n", tl.feedback));
        }
        if !tl.reenable_margins_us.is_empty() {
            let worst = tl.reenable_margins_us.iter().copied().max().unwrap_or(0);
            out.push_str(&format!(
                "  reenable: {} probe pass(es), max margin {:.1}ms\n",
                tl.reenable_margins_us.len(),
                worst as f64 / 1000.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_stream_summarizes() {
        let s = summarize(&[]);
        assert!(s.contains("0 events"));
        assert!(s.contains("no per-path control events"));
    }

    #[test]
    fn disable_interval_is_paired_with_reenable() {
        let records = vec![
            TraceRecord {
                at: at(30_000),
                event: TraceEvent::PathDisabled {
                    path: PathId(1),
                    fcd_us: 8_000,
                },
            },
            TraceRecord {
                at: at(90_000),
                event: TraceEvent::PathReenabled {
                    path: PathId(1),
                    margin_us: 2_000,
                    threshold_us: 8_000,
                },
            },
        ];
        let s = summarize(&records);
        assert!(s.contains("path1:"), "{s}");
        assert!(
            s.contains("1 interval(s), 60.0s total: [30.0s..90.0s]"),
            "{s}"
        );
        assert!(s.contains("reenable: 1 probe pass(es)"), "{s}");
    }

    #[test]
    fn open_interval_runs_to_end() {
        let records = vec![
            TraceRecord {
                at: at(10_000),
                event: TraceEvent::PathDisabled {
                    path: PathId(0),
                    fcd_us: 5_000,
                },
            },
            TraceRecord {
                at: at(40_000),
                event: TraceEvent::FrameFrozen { gap_us: 1 },
            },
        ];
        let s = summarize(&records);
        assert!(s.contains("[10.0s..end]"), "{s}");
        assert!(s.contains("30.0s total"), "{s}");
    }

    #[test]
    fn alpha_and_beta_histories_fold() {
        let records = vec![
            TraceRecord {
                at: at(1_000),
                event: TraceEvent::AlphaAdjusted {
                    path: PathId(0),
                    alpha: -4,
                    offset: -4,
                },
            },
            TraceRecord {
                at: at(2_000),
                event: TraceEvent::AlphaAdjusted {
                    path: PathId(0),
                    alpha: -6,
                    offset: -10,
                },
            },
            TraceRecord {
                at: at(2_500),
                event: TraceEvent::FecUpdated {
                    path: PathId(0),
                    beta_milli: 1_000,
                    media: 10,
                    repair: 1,
                },
            },
            TraceRecord {
                at: at(3_000),
                event: TraceEvent::FecUpdated {
                    path: PathId(0),
                    beta_milli: 1_400,
                    media: 10,
                    repair: 2,
                },
            },
            TraceRecord {
                at: at(3_500),
                event: TraceEvent::FecUpdated {
                    path: PathId(0),
                    beta_milli: 1_400,
                    media: 12,
                    repair: 2,
                },
            },
        ];
        let s = summarize(&records);
        assert!(
            s.contains("alpha: 2 adjustment(s), offset range [-10, -4], final -10"),
            "{s}"
        );
        // The repeated 1.4 β is deduplicated.
        assert!(
            s.contains("beta: 2 change(s), peak 1.400, final 1.400"),
            "{s}"
        );
    }
}
