//! Schema-versioned JSONL encoding of trace timelines.
//!
//! A timeline document is one header line followed by one line per
//! record, oldest first. Every value is an integer or a canonical
//! lowercase string, so the encoding is deterministic: the same record
//! sequence always yields the same bytes. The current schema is
//! [`SCHEMA`]; consumers should check the header's `schema` field.

use crate::{TraceEvent, TraceRecord};

/// Schema identifier written into every timeline header.
pub const SCHEMA: &str = "converge-trace/v1";

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The timeline header line: schema version plus the job fingerprint the
/// timeline belongs to.
pub fn header_line(job: &str) -> String {
    format!("{{\"schema\":\"{}\",\"job\":\"{}\"}}", SCHEMA, escape(job))
}

/// One record as a single JSON line. Field order is fixed: `at_us`,
/// `event`, then the event's payload fields in declaration order.
pub fn record_line(record: &TraceRecord) -> String {
    let at = record.at.as_micros();
    let name = record.event.name();
    let payload = match record.event {
        TraceEvent::SplitDecision {
            path,
            packets,
            offset,
        } => format!("\"path\":{},\"packets\":{},\"offset\":{}", path.0, packets, offset),
        TraceEvent::FastPathSwitched { path } => format!("\"path\":{}", path.0),
        TraceEvent::AlphaAdjusted {
            path,
            alpha,
            offset,
        } => format!("\"path\":{},\"alpha\":{},\"offset\":{}", path.0, alpha, offset),
        TraceEvent::PathDisabled { path, fcd_us } => {
            format!("\"path\":{},\"fcd_us\":{}", path.0, fcd_us)
        }
        TraceEvent::PathReenabled {
            path,
            margin_us,
            threshold_us,
        } => format!(
            "\"path\":{},\"margin_us\":{},\"threshold_us\":{}",
            path.0, margin_us, threshold_us
        ),
        TraceEvent::FecUpdated {
            path,
            beta_milli,
            media,
            repair,
        } => format!(
            "\"path\":{},\"beta_milli\":{},\"media\":{},\"repair\":{}",
            path.0, beta_milli, media, repair
        ),
        TraceEvent::CcStateChanged {
            path,
            algorithm,
            phase,
        } => format!(
            "\"path\":{},\"algorithm\":\"{}\",\"phase\":\"{}\"",
            path.0,
            algorithm.id(),
            phase.label()
        ),
        TraceEvent::CcRateChanged {
            path,
            algorithm,
            rate_bps,
        } => format!(
            "\"path\":{},\"algorithm\":\"{}\",\"rate_bps\":{}",
            path.0,
            algorithm.id(),
            rate_bps
        ),
        TraceEvent::MonitorEdge { path, state } => {
            format!("\"path\":{},\"state\":\"{}\"", path.0, state.label())
        }
        TraceEvent::FeedbackEmitted {
            path,
            alpha,
            fcd_us,
        } => format!("\"path\":{},\"alpha\":{},\"fcd_us\":{}", path.0, alpha, fcd_us),
        TraceEvent::NackSent { path, packets } => {
            format!("\"path\":{},\"packets\":{}", path.0, packets)
        }
        TraceEvent::Retransmitted { path } => format!("\"path\":{}", path.0),
        TraceEvent::FrameDecoded { stream, e2e_us } => {
            format!("\"stream\":{stream},\"e2e_us\":{e2e_us}")
        }
        TraceEvent::FrameDropped { stream } => format!("\"stream\":{stream}"),
        TraceEvent::FrameFrozen { gap_us } => format!("\"gap_us\":{gap_us}"),
        TraceEvent::SbdGroupsChanged {
            flows,
            groups,
            coupled,
        } => format!("\"flows\":{flows},\"groups\":{groups},\"coupled\":{coupled}"),
    };
    format!("{{\"at_us\":{at},\"event\":\"{name}\",{payload}}}")
}

/// A whole timeline document: header plus one line per record, newline
/// terminated.
pub fn render(job: &str, records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 80);
    out.push_str(&header_line(job));
    out.push('\n');
    for record in records {
        out.push_str(&record_line(record));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_net::{PathId, SimTime};

    #[test]
    fn header_carries_schema_and_job() {
        let line = header_line("walking|Converge|seed42");
        assert_eq!(
            line,
            "{\"schema\":\"converge-trace/v1\",\"job\":\"walking|Converge|seed42\"}"
        );
    }

    #[test]
    fn record_lines_are_canonical() {
        let rec = TraceRecord {
            at: SimTime::from_millis(1500),
            event: TraceEvent::PathReenabled {
                path: PathId(1),
                margin_us: 2500,
                threshold_us: 5000,
            },
        };
        assert_eq!(
            record_line(&rec),
            "{\"at_us\":1500000,\"event\":\"path_reenabled\",\"path\":1,\"margin_us\":2500,\"threshold_us\":5000}"
        );
    }

    #[test]
    fn render_is_newline_terminated_and_ordered() {
        let records = vec![
            TraceRecord {
                at: SimTime::from_micros(1),
                event: TraceEvent::FastPathSwitched { path: PathId(0) },
            },
            TraceRecord {
                at: SimTime::from_micros(2),
                event: TraceEvent::FrameFrozen { gap_us: 300_000 },
            },
        ];
        let doc = render("job", &records);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(doc.ends_with('\n'));
        assert!(lines[1].contains("\"at_us\":1"));
        assert!(lines[2].contains("frame_frozen"));
    }

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn every_event_encodes() {
        let events = [
            TraceEvent::SplitDecision {
                path: PathId(0),
                packets: 4,
                offset: -2,
            },
            TraceEvent::FastPathSwitched { path: PathId(1) },
            TraceEvent::AlphaAdjusted {
                path: PathId(1),
                alpha: -5,
                offset: -12,
            },
            TraceEvent::PathDisabled {
                path: PathId(1),
                fcd_us: 10_000,
            },
            TraceEvent::PathReenabled {
                path: PathId(1),
                margin_us: 100,
                threshold_us: 5_000,
            },
            TraceEvent::FecUpdated {
                path: PathId(0),
                beta_milli: 1_250,
                media: 20,
                repair: 3,
            },
            TraceEvent::CcStateChanged {
                path: PathId(0),
                algorithm: crate::CcAlgorithm::Gcc,
                phase: crate::CcPhase::Overuse,
            },
            TraceEvent::CcStateChanged {
                path: PathId(0),
                algorithm: crate::CcAlgorithm::Nada,
                phase: crate::CcPhase::RampUp,
            },
            TraceEvent::CcRateChanged {
                path: PathId(1),
                algorithm: crate::CcAlgorithm::MpBbr,
                rate_bps: 3_000_000,
            },
            TraceEvent::MonitorEdge {
                path: PathId(1),
                state: crate::LinkState::Down,
            },
            TraceEvent::FeedbackEmitted {
                path: PathId(1),
                alpha: 4,
                fcd_us: 12_000,
            },
            TraceEvent::NackSent {
                path: PathId(0),
                packets: 3,
            },
            TraceEvent::Retransmitted { path: PathId(0) },
            TraceEvent::FrameDecoded {
                stream: 0,
                e2e_us: 80_000,
            },
            TraceEvent::FrameDropped { stream: 2 },
            TraceEvent::FrameFrozen { gap_us: 400_000 },
        ];
        for event in events {
            let line = record_line(&TraceRecord {
                at: SimTime::ZERO,
                event,
            });
            assert!(line.starts_with("{\"at_us\":0,\"event\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains(event.name()), "{line}");
        }
    }
}
