//! A trace-driven invariant checker for the Converge control loop.
//!
//! [`InvariantSink`] is a [`TraceSink`] tee: it checks every record against
//! the machine-verifiable invariants of the paper's control loop, then
//! forwards the record unchanged to an optional inner sink. Arm it around
//! any existing trace pipeline and a run doubles as a correctness oracle.
//! It is the only checker: `Session::run_checked` arms it around a call,
//! the fleet around every member, and the bench's sweep engine runs every
//! job it executes through `run_checked`, so each experiment is checked
//! as it runs.
//!
//! Checked invariants (paper references in parentheses):
//!
//! 1. **Monotone time** — record timestamps never decrease. The simulator
//!    is a discrete-event loop; time running backwards means event-queue
//!    corruption.
//! 2. **No traffic on disabled paths** — after `PathDisabled`, no
//!    `SplitDecision` may assign packets to that path until
//!    `PathReenabled` (Eq. 3 lifecycle; shares are non-negative by type,
//!    and "splits sum to *n*" is covered by the property tests since the
//!    batch size is not in the trace).
//! 3. **Eq. 3 re-enable margin** — `PathReenabled` must carry
//!    `margin_us ≤ threshold_us`, i.e. `(rtt_fast − rtt_i)/2 ≤
//!    max(FCD, 5 ms)` actually held when the scheduler re-enabled.
//! 4. **FEC bounds** — `FecUpdated` must satisfy `repair ≤ media`
//!    (`FEC_i ≤ P_i`) and `1 ≤ β ≤ β_max` (§4.3 caps β at 3).
//! 5. **Rate clamp** — `CcRateChanged` stays within
//!    `[RATE_FLOOR_BPS, RATE_CEILING_BPS]`, whichever algorithm drives the
//!    path (GCC clamps to exactly that, NADA and mp-BBR to
//!    `[150 kbps, RATE_CEILING_BPS]`).
//!
//! To add an invariant: extend `State` with whatever bookkeeping the
//! rule needs, add the check in `check_record`, and give the rule a
//! stable `rule` label — violations are reported as data, so new rules
//! need no changes anywhere else.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use converge_net::PathId;

use crate::{
    SimTime, TraceEvent, TraceHandle, TraceRecord, TraceSink, FEC_BETA_CAP, RATE_CEILING_BPS,
    RATE_FLOOR_BPS,
};

/// [`FEC_BETA_CAP`] in the thousandths `FecUpdated` carries β in.
const BETA_CAP_MILLI: u32 = (FEC_BETA_CAP * 1_000.0) as u32;

/// One invariant violation observed in a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation time of the offending record.
    pub at: SimTime,
    /// Stable label of the violated rule.
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.rule, self.detail)
    }
}

/// Mutable bookkeeping the rules need across records.
#[derive(Debug, Default)]
struct State {
    last_at: Option<SimTime>,
    disabled: BTreeSet<PathId>,
    violations: Vec<Violation>,
}

/// A checking tee: validates every record, forwards it to an optional
/// inner sink, and accumulates [`Violation`]s for inspection after the
/// run.
#[derive(Debug)]
pub struct InvariantSink {
    inner: Option<Arc<dyn TraceSink>>,
    state: Mutex<State>,
}

impl InvariantSink {
    /// A standalone checker with no inner sink.
    pub fn new() -> Self {
        InvariantSink {
            inner: None,
            state: Mutex::new(State::default()),
        }
    }

    /// A checker that tees every record into whatever sink `handle`
    /// carries (if any), so tracing output is unchanged by arming the
    /// checker.
    pub fn wrapping(handle: &TraceHandle) -> Self {
        InvariantSink {
            inner: handle.sink.clone(),
            state: Mutex::new(State::default()),
        }
    }

    /// Takes all observed violations, leaving the sink clean.
    pub fn take_violations(&self) -> Vec<Violation> {
        std::mem::take(&mut self.state.lock().expect("invariant lock").violations)
    }
}

impl Default for InvariantSink {
    fn default() -> Self {
        InvariantSink::new()
    }
}

impl TraceSink for InvariantSink {
    fn record(&self, record: TraceRecord) {
        {
            let mut state = self.state.lock().expect("invariant lock");
            check_record(&record, &mut state);
        }
        if let Some(inner) = &self.inner {
            inner.record(record);
        }
    }
}

/// Applies every rule to one record, mutating `state`.
fn check_record(record: &TraceRecord, state: &mut State) {
    let at = record.at;
    if let Some(last) = state.last_at {
        if at < last {
            state.violations.push(Violation {
                at,
                rule: "monotone-time",
                detail: format!("timestamp {at} precedes previous record at {last}"),
            });
        }
    }
    state.last_at = Some(state.last_at.map_or(at, |last| last.max(at)));

    match record.event {
        TraceEvent::SplitDecision { path, packets, .. }
            if packets > 0 && state.disabled.contains(&path) =>
        {
            state.violations.push(Violation {
                at,
                rule: "no-traffic-on-disabled-path",
                detail: format!("{packets} packets scheduled on disabled {path}"),
            });
        }
        TraceEvent::PathDisabled { path, .. } => {
            state.disabled.insert(path);
        }
        TraceEvent::PathReenabled {
            path,
            margin_us,
            threshold_us,
        } => {
            if margin_us > threshold_us {
                state.violations.push(Violation {
                    at,
                    rule: "eq3-reenable-margin",
                    detail: format!(
                        "{path} re-enabled with margin {margin_us} us > threshold {threshold_us} us"
                    ),
                });
            }
            state.disabled.remove(&path);
        }
        TraceEvent::FecUpdated {
            path,
            beta_milli,
            media,
            repair,
        } => {
            if repair > media {
                state.violations.push(Violation {
                    at,
                    rule: "fec-repair-within-batch",
                    detail: format!("{path}: repair {repair} exceeds media {media}"),
                });
            }
            if beta_milli < 1_000 {
                state.violations.push(Violation {
                    at,
                    rule: "fec-beta-floor",
                    detail: format!("{path}: beta {beta_milli}/1000 below 1.0"),
                });
            }
            if beta_milli > BETA_CAP_MILLI {
                state.violations.push(Violation {
                    at,
                    rule: "fec-beta-cap",
                    detail: format!(
                        "{path}: beta {beta_milli}/1000 exceeds cap {BETA_CAP_MILLI}/1000"
                    ),
                });
            }
        }
        TraceEvent::CcRateChanged {
            path,
            algorithm,
            rate_bps,
        } if !(RATE_FLOOR_BPS..=RATE_CEILING_BPS).contains(&rate_bps) => {
            state.violations.push(Violation {
                at,
                rule: "cc-rate-clamp",
                detail: format!(
                    "{path} ({}): rate {rate_bps} bps outside [{RATE_FLOOR_BPS}, {RATE_CEILING_BPS}]",
                    algorithm.id(),
                ),
            });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    fn rec(at_us: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(at_us),
            event,
        }
    }

    #[test]
    fn clean_stream_reports_clean() {
        let sink = InvariantSink::new();
        sink.record(rec(
            1,
            TraceEvent::SplitDecision {
                path: PathId(0),
                packets: 5,
                offset: 0,
            },
        ));
        sink.record(rec(
            2,
            TraceEvent::CcRateChanged {
                path: PathId(0),
                algorithm: crate::CcAlgorithm::Gcc,
                rate_bps: 1_000_000,
            },
        ));
        assert!(sink.take_violations().is_empty());
    }

    #[test]
    fn backwards_time_flagged() {
        let sink = InvariantSink::new();
        sink.record(rec(10, TraceEvent::FastPathSwitched { path: PathId(0) }));
        sink.record(rec(5, TraceEvent::FastPathSwitched { path: PathId(1) }));
        let v = sink.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "monotone-time");
    }

    #[test]
    fn split_on_disabled_path_flagged() {
        let sink = InvariantSink::new();
        sink.record(rec(
            1,
            TraceEvent::PathDisabled {
                path: PathId(1),
                fcd_us: 8_000,
            },
        ));
        sink.record(rec(
            2,
            TraceEvent::SplitDecision {
                path: PathId(1),
                packets: 3,
                offset: 0,
            },
        ));
        // Zero-packet splits on a disabled path are legal bookkeeping.
        sink.record(rec(
            3,
            TraceEvent::SplitDecision {
                path: PathId(1),
                packets: 0,
                offset: 0,
            },
        ));
        let v = sink.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-traffic-on-disabled-path");
        // Violations render readably for CI logs.
        assert!(v[0].to_string().contains("no-traffic-on-disabled-path"));
    }

    #[test]
    fn reenable_clears_disabled_and_checks_margin() {
        let sink = InvariantSink::new();
        sink.record(rec(
            1,
            TraceEvent::PathDisabled {
                path: PathId(1),
                fcd_us: 8_000,
            },
        ));
        sink.record(rec(
            2,
            TraceEvent::PathReenabled {
                path: PathId(1),
                margin_us: 4_000,
                threshold_us: 8_000,
            },
        ));
        sink.record(rec(
            3,
            TraceEvent::SplitDecision {
                path: PathId(1),
                packets: 3,
                offset: 0,
            },
        ));
        assert!(sink.take_violations().is_empty());

        sink.record(rec(
            4,
            TraceEvent::PathReenabled {
                path: PathId(0),
                margin_us: 9_000,
                threshold_us: 8_000,
            },
        ));
        let v = sink.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "eq3-reenable-margin");
        assert!(sink.take_violations().is_empty());
    }

    #[test]
    fn fec_bounds_enforced() {
        let sink = InvariantSink::new();
        sink.record(rec(
            1,
            TraceEvent::FecUpdated {
                path: PathId(0),
                beta_milli: 1_500,
                media: 10,
                repair: 4,
            },
        ));
        sink.record(rec(
            2,
            TraceEvent::FecUpdated {
                path: PathId(0),
                beta_milli: BETA_CAP_MILLI,
                media: 10,
                repair: 4,
            },
        ));
        assert!(sink.take_violations().is_empty());
        sink.record(rec(
            2,
            TraceEvent::FecUpdated {
                path: PathId(0),
                beta_milli: 900,
                media: 10,
                repair: 11,
            },
        ));
        sink.record(rec(
            3,
            TraceEvent::FecUpdated {
                path: PathId(0),
                beta_milli: BETA_CAP_MILLI + 1,
                media: 10,
                repair: 0,
            },
        ));
        let rules: Vec<_> = sink.take_violations().iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec!["fec-repair-within-batch", "fec-beta-floor", "fec-beta-cap"]
        );
    }

    #[test]
    fn cc_rate_clamp_enforced_for_all_algorithms() {
        use crate::CcAlgorithm;
        let sink = InvariantSink::new();
        sink.record(rec(
            1,
            TraceEvent::CcRateChanged {
                path: PathId(0),
                algorithm: CcAlgorithm::Gcc,
                rate_bps: RATE_FLOOR_BPS - 1,
            },
        ));
        sink.record(rec(
            2,
            TraceEvent::CcRateChanged {
                path: PathId(1),
                algorithm: CcAlgorithm::MpBbr,
                rate_bps: RATE_CEILING_BPS + 1,
            },
        ));
        sink.record(rec(
            3,
            TraceEvent::CcRateChanged {
                path: PathId(0),
                algorithm: CcAlgorithm::Nada,
                rate_bps: RATE_FLOOR_BPS,
            },
        ));
        sink.record(rec(
            4,
            TraceEvent::CcRateChanged {
                path: PathId(1),
                algorithm: CcAlgorithm::Gcc,
                rate_bps: RATE_CEILING_BPS,
            },
        ));
        let v = sink.take_violations();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "cc-rate-clamp"));
        assert!(v[0].detail.contains("gcc"), "{}", v[0].detail);
    }

    #[test]
    fn tee_forwards_to_inner_sink() {
        let ring = Arc::new(RingSink::new(16));
        let handle = TraceHandle::new(ring.clone());
        let sink = InvariantSink::wrapping(&handle);
        sink.record(rec(7, TraceEvent::FastPathSwitched { path: PathId(0) }));
        assert_eq!(ring.drain().len(), 1);
        assert!(sink.take_violations().is_empty());
    }

    #[test]
    fn wrapping_disabled_handle_still_checks() {
        let sink = InvariantSink::wrapping(&TraceHandle::disabled());
        sink.record(rec(10, TraceEvent::FastPathSwitched { path: PathId(0) }));
        sink.record(rec(5, TraceEvent::FastPathSwitched { path: PathId(0) }));
        assert_eq!(sink.take_violations().len(), 1);
    }
}
