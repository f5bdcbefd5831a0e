//! The conference session: one media flow (sender → receiver) over the
//! deterministic multipath emulator, run as a discrete-event loop.

use converge_cc::{ControllerConfig, ControllerKind};
use converge_net::SimDuration;
use converge_trace::{InvariantSink, TraceHandle, Violation};
use converge_video::PAPER_MAX_BITRATE_BPS;

use crate::flow::{run_call, RTCP_INTERVAL, TRANSPORT_RTCP_INTERVAL};
use crate::metrics::CallReport;
use crate::scenarios::{FecKind, ScenarioConfig, SchedulerKind};

/// Configuration of one simulated call.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Network scenario.
    pub scenario: ScenarioConfig,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// FEC policy under test.
    pub fec: FecKind,
    /// Number of camera streams (1–3 in the paper).
    pub streams: u8,
    /// Call duration (the paper uses 3-minute calls).
    pub duration: SimDuration,
    /// Always `PAPER_MAX_BITRATE_BPS`, the per-stream encoder cap; no
    /// call reads it. Kept only because `benchmark/layers/src/mirror.rs`
    /// reads it (ROADMAP item 5).
    pub max_encoding_rate_bps: u64,
    /// Always the receiver's 100 ms fast RTCP cadence; no call reads it.
    /// Kept only because `benchmark/layers/src/mirror.rs` reads it
    /// (ROADMAP item 5).
    pub rtcp_interval: SimDuration,
    /// Always the receiver's 250 ms transport feedback cadence; no call
    /// reads it. Kept only because `benchmark/layers/src/mirror.rs` reads
    /// it (ROADMAP item 5).
    pub transport_rtcp_interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Congestion-controller coupling (uncoupled = the paper's choice).
    pub coupled_cc: bool,
    /// Per-path congestion-controller selection (GCC = the paper's
    /// controller and the default).
    pub controller: ControllerConfig,
    /// Structured-event sink; disabled by default (zero overhead).
    pub trace: TraceHandle,
    /// Always `true`; no call reads it (the call loop has no idle mode).
    /// Kept only because `benchmark/layers/src/mirror.rs` reads it
    /// (ROADMAP item 5).
    pub idle_skip: bool,
}

/// Why a [`SessionConfigBuilder`] refused to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// No scenario was supplied.
    MissingScenario,
    /// The scenario has no paths.
    EmptyScenario,
    /// `streams` was zero.
    NoStreams,
    /// `duration` was zero.
    ZeroDuration,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::MissingScenario => "no scenario supplied",
            ConfigError::EmptyScenario => "scenario has no paths",
            ConfigError::NoStreams => "streams must be at least 1",
            ConfigError::ZeroDuration => "duration must be positive",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Typed builder for [`SessionConfig`]; validates at [`build`].
///
/// Defaults match the paper's standard setup: Converge scheduler and FEC,
/// one stream, 3-minute call, uncoupled congestion control, tracing off.
/// The 10 Mbps encoder cap and the 100 ms QoE / 250 ms transport feedback
/// cadences are not settable.
///
/// [`build`]: SessionConfigBuilder::build
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    scenario: Option<ScenarioConfig>,
    scheduler: SchedulerKind,
    fec: FecKind,
    streams: u8,
    duration: SimDuration,
    seed: u64,
    coupled_cc: bool,
    controller: ControllerConfig,
    trace: TraceHandle,
}

impl Default for SessionConfigBuilder {
    fn default() -> Self {
        SessionConfigBuilder {
            scenario: None,
            scheduler: SchedulerKind::Converge,
            fec: FecKind::Converge,
            streams: 1,
            duration: SimDuration::from_secs(180),
            seed: 0,
            coupled_cc: false,
            controller: ControllerConfig::default(),
            trace: TraceHandle::disabled(),
        }
    }
}

impl SessionConfigBuilder {
    /// The network scenario (required).
    pub fn scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The scheduler under test.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The FEC policy under test.
    pub fn fec(mut self, fec: FecKind) -> Self {
        self.fec = fec;
        self
    }

    /// Number of camera streams (1–3 in the paper).
    pub fn streams(mut self, streams: u8) -> Self {
        self.streams = streams;
        self
    }

    /// Call duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Couples the per-path congestion controllers (LIA-style).
    pub fn coupled_cc(mut self, coupled: bool) -> Self {
        self.coupled_cc = coupled;
        self
    }

    /// Selects the per-path congestion-control algorithm with its default
    /// tuning (GCC is the default; NADA and mp-BBR are the alternatives).
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.controller = ControllerConfig::for_kind(kind);
        self
    }

    /// Installs a structured-event trace sink.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SessionConfig, ConfigError> {
        let scenario = self.scenario.ok_or(ConfigError::MissingScenario)?;
        if scenario.paths.is_empty() {
            return Err(ConfigError::EmptyScenario);
        }
        if self.streams == 0 {
            return Err(ConfigError::NoStreams);
        }
        if self.duration == SimDuration::ZERO {
            return Err(ConfigError::ZeroDuration);
        }
        Ok(SessionConfig {
            scenario,
            scheduler: self.scheduler,
            fec: self.fec,
            streams: self.streams,
            duration: self.duration,
            max_encoding_rate_bps: PAPER_MAX_BITRATE_BPS,
            rtcp_interval: RTCP_INTERVAL,
            transport_rtcp_interval: TRANSPORT_RTCP_INTERVAL,
            seed: self.seed,
            coupled_cc: self.coupled_cc,
            controller: self.controller,
            trace: self.trace,
            idle_skip: true,
        })
    }
}

impl SessionConfig {
    /// Starts a builder with the paper's standard defaults.
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder::default()
    }

    /// The paper's standard setup over the given scenario/scheduler/FEC.
    ///
    /// Thin wrapper over [`SessionConfig::builder`]; panics if the
    /// arguments fail validation (empty scenario, zero streams/duration).
    pub fn paper_default(
        scenario: ScenarioConfig,
        scheduler: SchedulerKind,
        fec: FecKind,
        streams: u8,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        SessionConfig::builder()
            .scenario(scenario)
            .scheduler(scheduler)
            .fec(fec)
            .streams(streams)
            .duration(duration)
            .seed(seed)
            .build()
            .expect("paper_default arguments must form a valid config")
    }
}

/// A runnable conference session.
pub struct Session {
    config: SessionConfig,
}

impl Session {
    /// Creates a session.
    pub fn new(config: SessionConfig) -> Self {
        Session { config }
    }

    /// Runs the call with an [`InvariantSink`] armed around the configured
    /// trace sink: every event is checked against the control-loop
    /// invariants, then forwarded unchanged, so trace output is identical
    /// to [`Session::run`]. Returns the report plus any violations.
    pub fn run_checked(self) -> (CallReport, Vec<Violation>) {
        let mut cfg = self.config;
        let checker = std::sync::Arc::new(InvariantSink::wrapping(&cfg.trace));
        cfg.trace = TraceHandle::new(checker.clone());
        let report = Session::new(cfg).run();
        let violations = checker.take_violations();
        (report, violations)
    }

    /// Runs the call to completion and returns the report: one flow
    /// sending `Forward`, with the reverse links carrying only feedback.
    pub fn run(self) -> CallReport {
        let cfg = self.config;
        let paths = cfg.scenario.build_paths(cfg.seed);
        run_call(&cfg, paths, cfg.trace.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_net::PathId;

    fn quick_config(scheduler: SchedulerKind, fec: FecKind) -> SessionConfig {
        SessionConfig::paper_default(
            ScenarioConfig::fec_tradeoff(0.0),
            scheduler,
            fec,
            1,
            SimDuration::from_secs(20),
            42,
        )
    }

    #[test]
    fn clean_network_call_delivers_frames() {
        let report = Session::new(quick_config(SchedulerKind::Converge, FecKind::Converge)).run();
        // On two clean 15 Mbps paths a 20 s call should decode nearly all
        // frames at ~30 FPS.
        assert!(report.fps > 20.0, "fps {}", report.fps);
        assert!(report.frames_decoded > 400, "{}", report.frames_decoded);
        assert!(report.throughput_bps > 1_000_000.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Session::new(quick_config(SchedulerKind::Converge, FecKind::Converge)).run();
        let b = Session::new(quick_config(SchedulerKind::Converge, FecKind::Converge)).run();
        assert_eq!(a.frames_decoded, b.frames_decoded);
        assert_eq!(a.throughput_bps, b.throughput_bps);
        assert_eq!(a.fec_packets_sent, b.fec_packets_sent);
    }

    #[test]
    fn single_path_uses_one_path() {
        let report = Session::new(quick_config(
            SchedulerKind::SinglePath(0),
            FecKind::WebRtcTable,
        ))
        .run();
        let p1 = report.paths.get(&PathId(1)).copied().unwrap_or_default();
        assert_eq!(p1.packets_sent, 0, "single-path must not touch path 1");
        assert!(report.fps > 15.0, "fps {}", report.fps);
    }

    #[test]
    fn lossy_network_generates_fec_and_nacks() {
        let cfg = SessionConfig::paper_default(
            ScenarioConfig::fec_tradeoff(5.0),
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
            SimDuration::from_secs(20),
            7,
        );
        let report = Session::new(cfg).run();
        assert!(report.fec_packets_sent > 0);
        assert!(report.nacks_sent > 0);
        assert!(report.fec_packets_used > 0, "some FEC should be used");
    }

    #[test]
    fn webrtc_table_fec_has_higher_overhead_than_converge() {
        let run = |fec| {
            Session::new(SessionConfig::paper_default(
                ScenarioConfig::fec_tradeoff(2.0),
                SchedulerKind::Converge,
                fec,
                1,
                SimDuration::from_secs(20),
                11,
            ))
            .run()
        };
        let conv = run(FecKind::Converge);
        let table = run(FecKind::WebRtcTable);
        assert!(
            table.fec_overhead_pct() > conv.fec_overhead_pct() * 2.0,
            "table {} vs converge {}",
            table.fec_overhead_pct(),
            conv.fec_overhead_pct()
        );
    }

    #[test]
    fn builder_defaults_match_paper_default() {
        let built = SessionConfig::builder()
            .scenario(ScenarioConfig::fec_tradeoff(0.0))
            .build()
            .expect("valid");
        let legacy = SessionConfig::paper_default(
            ScenarioConfig::fec_tradeoff(0.0),
            SchedulerKind::Converge,
            FecKind::Converge,
            1,
            SimDuration::from_secs(180),
            0,
        );
        assert_eq!(built.streams, legacy.streams);
        assert_eq!(built.duration, legacy.duration);
        assert_eq!(built.max_encoding_rate_bps, legacy.max_encoding_rate_bps);
        assert_eq!(built.rtcp_interval, legacy.rtcp_interval);
        assert_eq!(
            built.transport_rtcp_interval,
            legacy.transport_rtcp_interval
        );
        assert_eq!(built.seed, legacy.seed);
        assert_eq!(built.coupled_cc, legacy.coupled_cc);
        assert_eq!(built.controller.kind, legacy.controller.kind);
        assert_eq!(built.controller.kind, ControllerKind::Gcc);
        assert!(!built.trace.is_enabled());
    }

    #[test]
    fn alternative_controllers_drive_full_sessions_cleanly() {
        for kind in [ControllerKind::Nada, ControllerKind::MpBbr] {
            let cfg = SessionConfig::builder()
                .scenario(ScenarioConfig::fec_tradeoff(2.0))
                .duration(SimDuration::from_secs(15))
                .seed(7)
                .controller(kind)
                .build()
                .expect("valid");
            let (report, violations) = Session::new(cfg).run_checked();
            assert!(violations.is_empty(), "{kind:?}: {violations:?}");
            assert!(
                report.frames_decoded > 200,
                "{kind:?} decoded only {} frames",
                report.frames_decoded
            );
            assert!(report.throughput_bps > 500_000.0, "{kind:?}");
        }
    }

    #[test]
    fn controller_selection_changes_the_run() {
        let run = |kind| {
            Session::new(
                SessionConfig::builder()
                    .scenario(ScenarioConfig::fec_tradeoff(2.0))
                    .duration(SimDuration::from_secs(15))
                    .seed(7)
                    .controller(kind)
                    .build()
                    .expect("valid"),
            )
            .run()
        };
        let gcc = run(ControllerKind::Gcc);
        let nada = run(ControllerKind::Nada);
        // Different rate-control dynamics must leave a visible footprint.
        assert_ne!(gcc.throughput_bps, nada.throughput_bps);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        use crate::session::ConfigError;
        let base = || SessionConfig::builder().scenario(ScenarioConfig::fec_tradeoff(0.0));

        assert_eq!(
            SessionConfig::builder().build().unwrap_err(),
            ConfigError::MissingScenario
        );
        assert_eq!(
            SessionConfig::builder()
                .scenario(ScenarioConfig {
                    name: "empty".into(),
                    paths: vec![],
                })
                .build()
                .unwrap_err(),
            ConfigError::EmptyScenario
        );
        assert_eq!(
            base().streams(0).build().unwrap_err(),
            ConfigError::NoStreams
        );
        assert_eq!(
            base().duration(SimDuration::ZERO).build().unwrap_err(),
            ConfigError::ZeroDuration
        );
        // Errors display something human-readable.
        assert!(!ConfigError::NoStreams.to_string().is_empty());
    }

    #[test]
    fn session_with_ring_sink_captures_events() {
        use std::sync::Arc;
        let sink = Arc::new(converge_trace::RingSink::new(1 << 20));
        let cfg = SessionConfig::builder()
            .scenario(ScenarioConfig::fec_tradeoff(2.0))
            .duration(SimDuration::from_secs(10))
            .seed(9)
            .trace(TraceHandle::new(sink.clone()))
            .build()
            .expect("valid");
        let _report = Session::new(cfg).run();
        let records = sink.drain();
        assert!(!records.is_empty(), "traced session must emit events");
        // Timestamps are monotone non-decreasing.
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        // Core event families show up on a lossy call.
        let names: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.name()).collect();
        for expected in ["split_decision", "fast_path_switched", "frame_decoded"] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
    }

    #[test]
    fn trace_does_not_perturb_the_run() {
        use std::sync::Arc;
        let base = || {
            SessionConfig::builder()
                .scenario(ScenarioConfig::fec_tradeoff(2.0))
                .duration(SimDuration::from_secs(10))
                .seed(5)
        };
        let plain = Session::new(base().build().expect("valid")).run();
        let sink = Arc::new(converge_trace::RingSink::new(1 << 20));
        let traced =
            Session::new(base().trace(TraceHandle::new(sink)).build().expect("valid")).run();
        assert_eq!(plain.frames_decoded, traced.frames_decoded);
        assert_eq!(plain.throughput_bps, traced.throughput_bps);
        assert_eq!(plain.nacks_sent, traced.nacks_sent);
    }

    #[test]
    fn run_checked_reports_clean_on_a_sane_call() {
        let (report, violations) =
            Session::new(quick_config(SchedulerKind::Converge, FecKind::Converge)).run_checked();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(report.frames_decoded > 400);
    }

    #[test]
    fn run_checked_still_feeds_the_inner_sink() {
        use std::sync::Arc;
        let sink = Arc::new(converge_trace::RingSink::new(1 << 20));
        let cfg = SessionConfig::builder()
            .scenario(ScenarioConfig::fec_tradeoff(2.0))
            .duration(SimDuration::from_secs(10))
            .seed(9)
            .trace(TraceHandle::new(sink.clone()))
            .build()
            .expect("valid");
        let (_report, violations) = Session::new(cfg).run_checked();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(!sink.drain().is_empty(), "tee must forward records");
    }

    #[test]
    fn three_streams_share_the_paths() {
        let cfg = SessionConfig::paper_default(
            ScenarioConfig::fec_tradeoff(0.0),
            SchedulerKind::Converge,
            FecKind::Converge,
            3,
            SimDuration::from_secs(15),
            3,
        );
        let report = Session::new(cfg).run();
        assert_eq!(report.streams, 3);
        // All three streams decode something.
        assert!(report.frames_decoded > 300, "{}", report.frames_decoded);
    }
}
