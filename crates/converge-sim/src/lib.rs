//! # converge-sim
//!
//! End-to-end simulated conference calls for the Converge (SIGCOMM 2023)
//! reproduction: a sender (encoders, pluggable per-path congestion control
//! behind [`CongestionController`], pluggable scheduler and FEC policy) and
//! a receiver (packet/frame buffers, FEC recovery, NACK, PLI, QoE feedback)
//! wired over the deterministic multipath emulator, plus the metrics the
//! paper's evaluation reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod drives;
pub mod duplex;
pub mod fleet;
mod flow;
mod gaps;
mod history;
mod leb128;
pub mod metrics;
pub mod pacer;
pub mod payload;
pub mod pool;
pub mod receiver;
pub mod scenarios;
pub mod sender;
pub mod session;
pub mod stability;
pub mod wire;

pub use converge_cc::{
    CongestionController, ControllerConfig, ControllerKind, MpBbrController, NadaController,
};
pub use drives::DriveFixture;
pub use duplex::DuplexSession;
pub use fleet::{
    FleetConferenceReport, FleetConfig, FleetEngine, FleetReport, FleetSessionReport,
    FleetWorkCounts, ShardStats, TimerStats,
};
pub use metrics::{
    CallReport, E2eSamples, MetricsCollector, PathCounters, PathSeries, SecondBin, SecondBins,
};
pub use pacer::{Pacer, PacerConfig};
pub use payload::{NetPayload, RtpKind, SimRtp};
pub use receiver::ConferenceReceiver;
pub use scenarios::{
    DriveLoadError, FecKind, ImpairmentKind, PathSpec, ScenarioConfig, SchedulerKind,
};
pub use sender::{ConferenceSender, EncodedFrame, FrameTickResult, OutboundPacket, RateCoupling};
pub use session::{ConfigError, Session, SessionConfig, SessionConfigBuilder};
