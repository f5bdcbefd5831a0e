//! Deterministic structured tracing for the Converge stack.
//!
//! Every control decision the paper plots over time — scheduler splits,
//! Eq. 2 α adjustments, Eq. 3 path disable/re-enable, FEC β updates,
//! congestion-controller state and rate changes, connection-monitor
//! edges, QoE feedback emission, NACK/retransmit, and frame
//! decode/drop/freeze — is a typed
//! [`TraceEvent`] stamped with the [`SimTime`] it happened at. Components
//! emit through a [`TraceHandle`], a cheaply cloneable reference to a
//! [`TraceSink`]; the default handle is disabled and emitting through it
//! is a single branch with no allocation, so instrumented hot paths cost
//! nothing when tracing is off.
//!
//! Because the simulator is a pure function of configuration × seed, the
//! event stream of a run is fully deterministic: serializing it with
//! [`jsonl`] yields byte-identical timelines no matter how many worker
//! threads the surrounding sweep uses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use converge_net::{PathId, SimTime};

pub mod invariant;
pub mod jsonl;
pub mod timeline;

pub use invariant::{InvariantSink, Violation};

/// The highest target rate any congestion controller sets, bits per
/// second; the `cc-rate-clamp` invariant's ceiling.
pub const RATE_CEILING_BPS: u64 = 30_000_000;

/// GCC's rate floor, bits per second: the lowest floor of the three
/// controllers (NADA and mp-BBR stop at 150 kbit/s), so the
/// `cc-rate-clamp` invariant's floor.
pub const RATE_FLOOR_BPS: u64 = 50_000;

/// The cap on Converge's FEC β (§4.3): a burst of NACKs must not turn the
/// protector into a bandwidth hog worse than the table baseline. The
/// `fec-beta-cap` invariant's bound.
pub const FEC_BETA_CAP: f64 = 3.0;

/// A congestion-control algorithm: which one drives each path
/// (`converge_cc::ControllerKind` is this enum) and which one a `Cc*`
/// event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Google Congestion Control (delay trendline + loss, AIMD) — the
    /// paper's controller and the default.
    Gcc,
    /// NADA (RFC 8698): unified congestion signal + PI controller.
    Nada,
    /// Multipath-tuned BBR: bandwidth/RTT probing with pacing-gain cycling.
    MpBbr,
}

impl CcAlgorithm {
    /// Every algorithm, in shootout order.
    pub const ALL: [CcAlgorithm; 3] = [CcAlgorithm::Gcc, CcAlgorithm::Nada, CcAlgorithm::MpBbr];

    /// Canonical lowercase identifier (JSONL encoding, fingerprints, CLI
    /// arguments).
    pub fn id(self) -> &'static str {
        match self {
            CcAlgorithm::Gcc => "gcc",
            CcAlgorithm::Nada => "nada",
            CcAlgorithm::MpBbr => "mp-bbr",
        }
    }

    /// Human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Gcc => "GCC",
            CcAlgorithm::Nada => "NADA",
            CcAlgorithm::MpBbr => "mp-BBR",
        }
    }

    /// Parses a CLI identifier (`gcc`, `nada`, `mp-bbr`/`mpbbr`/`bbr`).
    pub fn parse(s: &str) -> Option<CcAlgorithm> {
        match s {
            "gcc" => Some(CcAlgorithm::Gcc),
            "nada" => Some(CcAlgorithm::Nada),
            "mp-bbr" | "mpbbr" | "bbr" => Some(CcAlgorithm::MpBbr),
            _ => None,
        }
    }
}

/// Operating phase of a congestion controller. GCC reports its overuse
/// detector's signal (`Underuse` / `Normal` / `Overuse`); NADA alternates
/// between `RampUp` and `Gradual` (RFC 8698 §4.2); BBR walks
/// `Startup → Drain → ProbeBw` with periodic `ProbeRtt` dips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPhase {
    /// GCC: queues draining, the path can take more.
    Underuse,
    /// GCC: stable delay.
    Normal,
    /// GCC: queues building, back off.
    Overuse,
    /// NADA accelerated ramp-up (loss-free, empty queue).
    RampUp,
    /// NADA gradual PI update.
    Gradual,
    /// BBR startup: exponential bandwidth search.
    Startup,
    /// BBR drain: bleed the startup queue.
    Drain,
    /// BBR steady-state bandwidth probing.
    ProbeBw,
    /// BBR RTT re-probe: back off to re-measure the propagation floor.
    ProbeRtt,
}

impl CcPhase {
    /// Canonical lowercase label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            CcPhase::Underuse => "underuse",
            CcPhase::Normal => "normal",
            CcPhase::Overuse => "overuse",
            CcPhase::RampUp => "ramp_up",
            CcPhase::Gradual => "gradual",
            CcPhase::Startup => "startup",
            CcPhase::Drain => "drain",
            CcPhase::ProbeBw => "probe_bw",
            CcPhase::ProbeRtt => "probe_rtt",
        }
    }
}

/// Connection-monitor link state; `converge-signal` re-exports it as
/// `PathState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Recent activity.
    Up,
    /// Silent past the suspect threshold.
    Suspect,
    /// Silent past the down threshold.
    Down,
}

impl LinkState {
    /// Canonical lowercase label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            LinkState::Up => "up",
            LinkState::Suspect => "suspect",
            LinkState::Down => "down",
        }
    }
}

/// One structured event from the stack. All payloads are `Copy` integers
/// so constructing an event never allocates — the disabled-trace fast
/// path stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The scheduler assigned `packets` media packets to `path` in one
    /// batch split (Eq. 1 share plus the path's Eq. 2 offset).
    SplitDecision {
        /// Path the packets were assigned to.
        path: PathId,
        /// Media packets assigned in this batch.
        packets: u32,
        /// The path's current Eq. 2 α offset.
        offset: i64,
    },
    /// The completion-time fast path moved to `path` (Algorithm 1).
    FastPathSwitched {
        /// The new fast path.
        path: PathId,
    },
    /// A QoE feedback α was folded into a path's share offset (Eq. 2).
    AlphaAdjusted {
        /// Path the feedback named.
        path: PathId,
        /// Signed α from the feedback packet.
        alpha: i64,
        /// The path's offset after applying α.
        offset: i64,
    },
    /// The scheduler disabled a path whose share reached zero (Eq. 3
    /// precondition), remembering the FCD at disable time.
    PathDisabled {
        /// The disabled path.
        path: PathId,
        /// Frame-completion delay recorded for the re-enable test, µs.
        fcd_us: u64,
    },
    /// A probe passed the Eq. 3 test and re-enabled the path:
    /// `(rtt_fast − rtt_i)/2 ≤ max(FCD, 5 ms)`.
    PathReenabled {
        /// The re-enabled path.
        path: PathId,
        /// The computed margin `|rtt_fast − rtt_i|/2`, µs.
        margin_us: u64,
        /// The threshold it was compared against, µs.
        threshold_us: u64,
    },
    /// The FEC controller changed a path's β or repair budget
    /// (`FEC_i = l_i × P_i × β`, β capped at 3).
    FecUpdated {
        /// Path the FEC applies to.
        path: PathId,
        /// β in thousandths (1000 = 1.0).
        beta_milli: u32,
        /// Media packets in the protected batch.
        media: u32,
        /// Repair packets generated for the batch.
        repair: u32,
    },
    /// A path's congestion controller changed phase.
    CcStateChanged {
        /// Path whose controller changed phase.
        path: PathId,
        /// Which algorithm is driving the path.
        algorithm: CcAlgorithm,
        /// The phase it entered.
        phase: CcPhase,
    },
    /// A path's congestion-controller target rate moved by at least 5 %
    /// (subject to the rate-clamp invariant).
    CcRateChanged {
        /// Path whose target moved.
        path: PathId,
        /// Which algorithm is driving the path.
        algorithm: CcAlgorithm,
        /// New target rate, bits per second.
        rate_bps: u64,
    },
    /// The connection monitor moved a path between up/suspect/down.
    MonitorEdge {
        /// Path whose liveness state changed.
        path: PathId,
        /// New liveness state.
        state: LinkState,
    },
    /// The receiver emitted a QoE feedback packet (§4.2).
    FeedbackEmitted {
        /// Path the feedback blames or credits.
        path: PathId,
        /// Signed α (late-packet count in the offending direction).
        alpha: i64,
        /// Frame-completion delay reported alongside, µs.
        fcd_us: u64,
    },
    /// The receiver requested retransmission of lost packets.
    NackSent {
        /// Path the NACK traveled on.
        path: PathId,
        /// Sequence numbers requested.
        packets: u32,
    },
    /// The sender retransmitted a packet.
    Retransmitted {
        /// Path carrying the retransmission.
        path: PathId,
    },
    /// A frame completed and was decoded.
    FrameDecoded {
        /// Camera stream index.
        stream: u8,
        /// End-to-end latency capture→decode, µs.
        e2e_us: u64,
    },
    /// A frame was abandoned by the receiver.
    FrameDropped {
        /// Camera stream index.
        stream: u8,
    },
    /// Playback froze: the inter-frame gap exceeded the freeze threshold.
    FrameFrozen {
        /// The observed gap, µs.
        gap_us: u64,
    },
    /// The RFC 8382 shared-bottleneck detector re-partitioned a fleet's
    /// flows and rescaled the coupled controllers' additive increase.
    SbdGroupsChanged {
        /// Flows the detector currently tracks.
        flows: u32,
        /// Shared-bottleneck groups found (singletons excluded).
        groups: u32,
        /// Flows inside some group (increase scaled to 1/group size).
        coupled: u32,
    },
}

impl TraceEvent {
    /// Canonical snake_case event name used in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SplitDecision { .. } => "split_decision",
            TraceEvent::FastPathSwitched { .. } => "fast_path_switched",
            TraceEvent::AlphaAdjusted { .. } => "alpha_adjusted",
            TraceEvent::PathDisabled { .. } => "path_disabled",
            TraceEvent::PathReenabled { .. } => "path_reenabled",
            TraceEvent::FecUpdated { .. } => "fec_updated",
            TraceEvent::CcStateChanged { .. } => "cc_state_changed",
            TraceEvent::CcRateChanged { .. } => "cc_rate_changed",
            TraceEvent::MonitorEdge { .. } => "monitor_edge",
            TraceEvent::FeedbackEmitted { .. } => "feedback_emitted",
            TraceEvent::NackSent { .. } => "nack_sent",
            TraceEvent::Retransmitted { .. } => "retransmitted",
            TraceEvent::FrameDecoded { .. } => "frame_decoded",
            TraceEvent::FrameDropped { .. } => "frame_dropped",
            TraceEvent::FrameFrozen { .. } => "frame_frozen",
            TraceEvent::SbdGroupsChanged { .. } => "sbd_groups_changed",
        }
    }
}

/// A [`TraceEvent`] stamped with the simulation time it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// Receives trace records. Implementations use interior mutability so a
/// single sink can be shared by every component of a session.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Accepts one record.
    fn record(&self, record: TraceRecord);
}

#[derive(Debug, Default)]
struct RingState {
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

/// A bounded ring-buffer sink: keeps the most recent `capacity` records,
/// counting the ones it had to evict.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingSink {
    /// A ring holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().expect("ring lock").buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("ring lock").dropped
    }

    /// Takes every buffered record, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut state = self.state.lock().expect("ring lock");
        state.buf.drain(..).collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, record: TraceRecord) {
        let mut state = self.state.lock().expect("ring lock");
        if state.buf.len() == self.capacity {
            state.buf.pop_front();
            state.dropped += 1;
        }
        state.buf.push_back(record);
    }
}

/// A cheaply cloneable reference to a sink, or nothing. Every
/// instrumented component holds one; the default is disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl TraceHandle {
    /// The disabled handle: emitting through it is a branch and nothing
    /// else.
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Whether emitted events are observed. Hot paths with non-trivial
    /// event construction should check this first.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event at `at`. No-op (and allocation-free) when the
    /// handle is disabled.
    pub fn emit(&self, at: SimTime, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(TraceRecord { at, event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_us: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(at_us),
            event: TraceEvent::FastPathSwitched { path: PathId(0) },
        }
    }

    #[test]
    fn disabled_handle_drops_everything() {
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        handle.emit(SimTime::ZERO, TraceEvent::FrameFrozen { gap_us: 1 });
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        assert_eq!(drained[0].at, SimTime::from_micros(2));
        assert_eq!(drained[2].at, SimTime::from_micros(4));
        assert!(ring.is_empty());
    }

    #[test]
    fn handle_delivers_to_ring() {
        let ring = Arc::new(RingSink::new(16));
        let handle = TraceHandle::new(ring.clone());
        assert!(handle.is_enabled());
        handle.emit(
            SimTime::from_millis(5),
            TraceEvent::AlphaAdjusted {
                path: PathId(1),
                alpha: -3,
                offset: -7,
            },
        );
        let drained = ring.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(
            drained[0].event,
            TraceEvent::AlphaAdjusted {
                path: PathId(1),
                alpha: -3,
                offset: -7,
            }
        );
    }
}
