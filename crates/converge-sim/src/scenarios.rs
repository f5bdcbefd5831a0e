//! Scenario construction: the network setups of the paper's evaluation and
//! factories for schedulers and FEC policies.

use converge_core::{
    ConnectionMigration, ConvergeFec, ConvergeScheduler, ConvergeSchedulerConfig, FastPathMetric,
    FecPolicy, MRtpScheduler, MTputScheduler, Scheduler, SinglePathScheduler, SrttScheduler,
    WebRtcTableFec,
};
use converge_net::{
    trace, BlackoutSchedule, Carrier, DriveParseError, DriveTrace, ImpairmentConfig, LinkConfig,
    LossModel, Path, PathId, QueueDiscipline, Scenario, SimDuration, SimTime,
};

/// Which scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Converge's video-aware scheduler with feedback.
    Converge,
    /// Converge with the QoE feedback loop disabled (ablation, Fig. 11).
    ConvergeNoFeedback,
    /// Converge with packet priorities disabled (video-awareness ablation).
    ConvergeNoPriority,
    /// Converge selecting the fast path by minRTT instead of completion
    /// time (Algorithm 1 ablation).
    ConvergeMinRttFast,
    /// Single-path WebRTC pinned to a path index.
    SinglePath(u8),
    /// WebRTC-CM starting on a path index.
    ConnectionMigration(u8),
    /// minRTT (the MPTCP/MPQUIC default).
    Srtt,
    /// Musher-style throughput-proportional.
    MTput,
    /// MPRTP-style loss-discounted rate splitting.
    MRtp,
}

impl SchedulerKind {
    /// Human-readable label matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Converge => "Converge",
            SchedulerKind::ConvergeNoFeedback => "Converge (no feedback)",
            SchedulerKind::ConvergeNoPriority => "Converge (no priority)",
            SchedulerKind::ConvergeMinRttFast => "Converge (minRTT fast path)",
            SchedulerKind::SinglePath(_) => "WebRTC",
            SchedulerKind::ConnectionMigration(_) => "WebRTC-CM",
            SchedulerKind::Srtt => "SRTT",
            SchedulerKind::MTput => "M-TPUT",
            SchedulerKind::MRtp => "M-RTP",
        }
    }

    /// Builds the scheduler.
    pub fn build(&self, frame_interval: SimDuration) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Converge
            | SchedulerKind::ConvergeNoFeedback
            | SchedulerKind::ConvergeNoPriority
            | SchedulerKind::ConvergeMinRttFast => {
                Box::new(ConvergeScheduler::new(ConvergeSchedulerConfig {
                    batch_interval: frame_interval,
                    use_feedback: *self != SchedulerKind::ConvergeNoFeedback,
                    use_priority: *self != SchedulerKind::ConvergeNoPriority,
                    fast_path_metric: if *self == SchedulerKind::ConvergeMinRttFast {
                        FastPathMetric::MinRtt
                    } else {
                        FastPathMetric::CompletionTime
                    },
                }))
            }
            SchedulerKind::SinglePath(p) => Box::new(SinglePathScheduler::new(PathId(p))),
            SchedulerKind::ConnectionMigration(p) => Box::new(ConnectionMigration::new(PathId(p))),
            SchedulerKind::Srtt => Box::new(SrttScheduler::new(frame_interval)),
            SchedulerKind::MTput => Box::new(MTputScheduler::new()),
            SchedulerKind::MRtp => Box::new(MRtpScheduler::new()),
        }
    }
}

/// Which FEC policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FecKind {
    /// Converge's path-specific `l·P·β` controller.
    Converge,
    /// WebRTC's static table-based controller.
    WebRtcTable,
    /// No FEC at all (ablation).
    None,
}

/// A no-op FEC policy for ablations.
#[derive(Debug)]
struct NoFec;

impl FecPolicy for NoFec {
    fn name(&self) -> &'static str {
        "no-fec"
    }
    fn repair_count(&mut self, _: SimTime, _: PathId, _: usize, _: f64, _: bool) -> usize {
        0
    }
}

impl FecKind {
    /// Builds the policy.
    pub fn build(&self) -> Box<dyn FecPolicy> {
        match self {
            FecKind::Converge => Box::new(ConvergeFec::new()),
            FecKind::WebRtcTable => Box::new(WebRtcTableFec::new()),
            FecKind::None => Box::new(NoFec),
        }
    }
}

/// A path specification for scenario construction.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Rate, one-way delay and extra loss over time, on both directions
    /// (the two directions share one radio, so a coverage gap darkens the
    /// feedback channel too).
    pub trace: DriveTrace,
    /// Random loss model.
    pub loss: LossModel,
    /// Queue capacity in bytes.
    pub queue_bytes: usize,
    /// Per-packet delay jitter bound (uniform in [0, jitter]); cellular
    /// air-interface scheduling reorders packets, which the receiver's
    /// buffers must absorb.
    pub jitter: SimDuration,
    /// Bottleneck queue discipline (drop-tail unless an AQM experiment
    /// overrides it).
    pub discipline: QueueDiscipline,
    /// Fault injection on the forward (media) direction. No-op by default.
    pub forward_impairment: ImpairmentConfig,
    /// Fault injection on the reverse (RTCP feedback) direction. No-op by
    /// default; setting it alone models a starved feedback channel while
    /// media flows clean.
    pub reverse_impairment: ImpairmentConfig,
}

impl Default for PathSpec {
    /// A clean 10 Mbps / 20 ms path — mainly useful as a struct-update
    /// base (`..PathSpec::default()`).
    fn default() -> Self {
        PathSpec::constant(10_000_000, 20, 0.0)
    }
}

impl PathSpec {
    /// A constant-rate path.
    pub fn constant(rate_bps: u64, one_way_ms: u64, loss_pct: f64) -> Self {
        let owd = SimDuration::from_millis(one_way_ms);
        PathSpec {
            loss: if loss_pct > 0.0 {
                LossModel::bernoulli_percent(loss_pct)
            } else {
                LossModel::None
            },
            ..PathSpec::from_drive(DriveTrace::constant(rate_bps, owd))
        }
    }

    /// A drop-tail path with no random loss, jitter or impairment that
    /// follows `trace`: a drive capture's rate, one-way delay and loss, or
    /// a synthesized path's.
    pub fn from_drive(trace: DriveTrace) -> Self {
        PathSpec {
            trace,
            loss: LossModel::None,
            // ~1.5x BDP of a 25 Mbps / 100 ms path by default.
            queue_bytes: 300_000,
            jitter: SimDuration::ZERO,
            discipline: QueueDiscipline::DropTail,
            forward_impairment: ImpairmentConfig::default(),
            reverse_impairment: ImpairmentConfig::default(),
        }
    }

    /// A drop-tail path following a synthesized `carrier` capture of
    /// `scenario` (`trace::synthesize`) `one_way_ms` away, with bursty
    /// random loss, up to `jitter_ms` of per-packet jitter and a
    /// `queue_bytes` queue.
    #[allow(clippy::too_many_arguments)]
    pub fn synthesized(
        scenario: Scenario,
        carrier: Carrier,
        one_way_ms: u64,
        jitter_ms: u64,
        loss_pct: f64,
        queue_bytes: usize,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let owd = SimDuration::from_millis(one_way_ms);
        PathSpec {
            loss: LossModel::bursty_percent(loss_pct),
            queue_bytes,
            jitter: SimDuration::from_millis(jitter_ms),
            ..PathSpec::from_drive(trace::synthesize(scenario, carrier, owd, duration, seed))
        }
    }

    /// Applies the same impairment to both directions.
    pub fn impaired_both(mut self, impairment: ImpairmentConfig) -> Self {
        self.forward_impairment = impairment;
        self.reverse_impairment = impairment;
        self
    }

    /// Builds the emulated path, its forward (media) link seeded with
    /// `seed` and its reverse (feedback) link mirrored by [`Path::mirrored`]
    /// with the spec's reverse impairment.
    pub fn build(&self, id: PathId, seed: u64) -> Path {
        let fwd = LinkConfig {
            trace: self.trace.clone(),
            queue_capacity_bytes: self.queue_bytes,
            loss: self.loss.clone(),
            jitter: self.jitter,
            discipline: self.discipline.clone(),
            seed,
            impairment: self.forward_impairment,
        };
        Path::mirrored(id, fwd, self.reverse_impairment)
    }
}

/// The named chaos impairments of the fault-injection matrix. Each picks
/// one adversarial behaviour the paper's claims must survive (§5's
/// handover, loss, and violent-variation conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ImpairmentKind {
    /// One long carrier blackout on path 1 (handover outage).
    Blackout,
    /// Periodic short outages on path 1 (handover flapping).
    Flap,
    /// Heavy forward reordering on path 1 (air-interface scheduling).
    Reorder,
    /// Forward duplication on path 1 (middlebox retransmission).
    Duplicate,
    /// Lossy, slow RTCP feedback on path 1 with clean media.
    FeedbackLoss,
}

impl ImpairmentKind {
    /// All matrix rows.
    pub const ALL: [ImpairmentKind; 5] = [
        ImpairmentKind::Blackout,
        ImpairmentKind::Flap,
        ImpairmentKind::Reorder,
        ImpairmentKind::Duplicate,
        ImpairmentKind::FeedbackLoss,
    ];

    /// Short stable identifier used in scenario names and cache keys.
    pub fn id(&self) -> &'static str {
        match self {
            ImpairmentKind::Blackout => "blackout",
            ImpairmentKind::Flap => "flap",
            ImpairmentKind::Reorder => "reorder",
            ImpairmentKind::Duplicate => "duplicate",
            ImpairmentKind::FeedbackLoss => "fbloss",
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ImpairmentKind::Blackout => "carrier blackout",
            ImpairmentKind::Flap => "handover flap",
            ImpairmentKind::Reorder => "reordering",
            ImpairmentKind::Duplicate => "duplication",
            ImpairmentKind::FeedbackLoss => "feedback loss",
        }
    }
}

/// A complete scenario: the paths of one experiment.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Per-path specifications; index = path ID.
    pub paths: Vec<PathSpec>,
    /// Descriptive name.
    pub name: String,
}

impl ScenarioConfig {
    /// A preset of synthesized paths of one `scenario`, one per
    /// `(carrier, one-way ms, jitter ms, bursty loss %, queue bytes)` row,
    /// all seeded with `seed`.
    fn synthesized(
        name: &str,
        scenario: Scenario,
        rows: &[(Carrier, u64, u64, f64, usize)],
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        ScenarioConfig {
            name: name.into(),
            paths: rows
                .iter()
                .map(|&(carrier, owd_ms, jitter_ms, loss_pct, queue_bytes)| {
                    PathSpec::synthesized(
                        scenario,
                        carrier,
                        owd_ms,
                        jitter_ms,
                        loss_pct,
                        queue_bytes,
                        duration,
                        seed,
                    )
                })
                .collect(),
        }
    }

    /// The walking scenario of §6.1: WiFi + "T-Mobile"-like cellular.
    pub fn walking(duration: SimDuration, seed: u64) -> Self {
        let rows = [
            (Carrier::Wifi, 15, 2, 0.2, 300_000),
            (Carrier::CellularA, 35, 5, 0.4, 300_000),
        ];
        Self::synthesized("walking", Scenario::Walking, &rows, duration, seed)
    }

    /// The driving scenario of §6.1: "Verizon" + "T-Mobile" cellular.
    pub fn driving(duration: SimDuration, seed: u64) -> Self {
        let rows = [
            (Carrier::CellularB, 40, 8, 0.7, 250_000),
            (Carrier::CellularA, 35, 8, 0.7, 250_000),
        ];
        Self::synthesized("driving", Scenario::Driving, &rows, duration, seed)
    }

    /// The stationary scenario of Appendix A: WiFi + cellular, both stable.
    pub fn stationary(duration: SimDuration, seed: u64) -> Self {
        let rows = [
            (Carrier::Wifi, 10, 1, 0.1, 400_000),
            (Carrier::CellularA, 30, 3, 0.3, 300_000),
        ];
        Self::synthesized("stationary", Scenario::Stationary, &rows, duration, seed)
    }

    /// The feedback-benefit scenario of Fig. 11: path 1 steady at ~25 Mbps,
    /// path 2 equal at first, collapsing to 0.5–2.5 Mbps between 30 s and
    /// 90 s, then recovering.
    pub fn feedback_benefit(duration: SimDuration, seed: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let step = SimDuration::from_millis(500);
        // Every started half-second gets its segment, and a call shorter
        // than one still has one.
        let n = duration.as_micros().div_ceil(step.as_micros()).max(1) as usize;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let rates: Vec<u64> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.5;
                if (30.0..90.0).contains(&t) {
                    rng.gen_range(500_000..2_500_000)
                } else {
                    25_000_000
                }
            })
            .collect();
        let owd = SimDuration::from_millis(25);
        ScenarioConfig {
            name: "feedback-benefit".into(),
            paths: vec![
                PathSpec::from_drive(DriveTrace::constant(25_000_000, owd)),
                PathSpec {
                    loss: LossModel::bernoulli_percent(0.5),
                    ..PathSpec::from_drive(DriveTrace::uniform(step, rates, owd))
                },
            ],
        }
    }

    /// The FEC trade-off scenario of Figs. 12/13 and Table 5: two 15 Mbps
    /// paths, 100 ms propagation (50 ms one-way), `loss_pct` percent loss.
    pub fn fec_tradeoff(loss_pct: f64) -> Self {
        ScenarioConfig {
            name: format!("fec-tradeoff-{loss_pct}pct"),
            paths: vec![
                PathSpec::constant(15_000_000, 50, loss_pct),
                PathSpec::constant(15_000_000, 50, loss_pct),
            ],
        }
    }

    /// Lossless constant-rate paths, one per `(Mbit/s, one-way ms)` pair:
    /// no random draws, so one seed is every seed.
    fn lossless(name: &str, paths: &[(u64, u64)]) -> Self {
        ScenarioConfig {
            name: name.into(),
            paths: paths
                .iter()
                .map(|&(mbps, owd_ms)| PathSpec::constant(mbps * 1_000_000, owd_ms, 0.0))
                .collect(),
        }
    }

    /// Three lossless 6 Mbit/s paths 20, 40 and 60 ms away: the topology
    /// of `three_paths_all_carry_load` and the benchmark's `symmetric3`.
    pub fn symmetric3() -> Self {
        Self::lossless("symmetric-3x6mbps", &[(6, 20), (6, 40), (6, 60)])
    }

    /// Eight lossless paths of 3–8 Mbit/s, 20–70 ms away (the benchmark's
    /// `constant8`): the heaviest per-path load when run under three streams.
    pub fn constant8() -> Self {
        let paths = [
            (8, 20),
            (5, 35),
            (6, 50),
            (4, 30),
            (7, 60),
            (3, 45),
            (5, 25),
            (4, 70),
        ];
        Self::lossless("constant-8", &paths)
    }

    /// Builds a scenario from multi-path drive-replay JSONL (see
    /// [`DriveTrace::parse_jsonl`] for the row format): one path per path
    /// ID in the file, each replaying its rate/OWD/loss capture.
    pub fn from_drive_str(jsonl: &str) -> Result<Self, DriveParseError> {
        let traces = DriveTrace::parse_jsonl(jsonl)?;
        Ok(ScenarioConfig {
            name: "drive-replay".into(),
            paths: traces.into_iter().map(PathSpec::from_drive).collect(),
        })
    }

    /// Reads a drive-replay JSONL file from disk and builds its scenario.
    /// The scenario is named after the file stem (`drive-<stem>`).
    pub fn from_drive_file(path: impl AsRef<std::path::Path>) -> Result<Self, DriveLoadError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(DriveLoadError::Io)?;
        let mut scenario = Self::from_drive_str(&text).map_err(DriveLoadError::Parse)?;
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            scenario.name = format!("drive-{stem}");
        }
        Ok(scenario)
    }

    /// A first-class 4–8 path topology mixing the asymmetries a
    /// multi-radio vehicle actually sees: WiFi (low RTT, dies when out of
    /// range), several cellular carriers with staggered coverage, and
    /// satellite (high RTT, stable). Paths beyond the paper's 2–3 stress
    /// the scheduler's share bookkeeping and the FEC controller's per-path
    /// state at widths the presets never reach.
    ///
    /// # Panics
    /// Panics unless `4 <= n_paths <= 8`.
    pub fn multi_carrier(n_paths: usize, duration: SimDuration, seed: u64) -> Self {
        assert!(
            (4..=8).contains(&n_paths),
            "multi_carrier supports 4-8 paths, got {n_paths}"
        );
        let cell = |scenario, carrier, one_way_ms, jitter_ms, loss_pct, salt: u64| {
            let seed = seed.wrapping_add(salt);
            PathSpec::synthesized(
                scenario, carrier, one_way_ms, jitter_ms, loss_pct, 250_000, duration, seed,
            )
        };
        let sat = |rate_bps: u64, one_way_ms: u64, jitter_ms: u64| PathSpec {
            trace: DriveTrace::constant(rate_bps, SimDuration::from_millis(one_way_ms)),
            loss: LossModel::bursty_percent(0.3),
            queue_bytes: 400_000,
            jitter: SimDuration::from_millis(jitter_ms),
            ..Default::default()
        };
        let all = vec![
            // 0: in-vehicle WiFi — fast but walking-grade coverage.
            cell(Scenario::Walking, Carrier::Wifi, 12, 2, 0.2, 0),
            // 1-2: the two driving carriers of §6.1.
            cell(Scenario::Driving, Carrier::CellularA, 35, 8, 0.7, 1),
            cell(Scenario::Driving, Carrier::CellularB, 40, 8, 0.7, 2),
            // 3: GEO satellite — stable rate, painful RTT.
            sat(18_000_000, 280, 10),
            // 4-5: secondary SIMs on the same carriers, different towers.
            cell(Scenario::Driving, Carrier::CellularA, 45, 10, 1.0, 3),
            cell(Scenario::Walking, Carrier::CellularB, 30, 5, 0.4, 4),
            // 6: LEO satellite — moderate RTT, moderate rate.
            sat(12_000_000, 60, 15),
            // 7: roaming partner cellular — slow and far.
            cell(Scenario::Driving, Carrier::CellularB, 70, 12, 1.5, 5),
        ];
        ScenarioConfig {
            name: format!("multi-carrier-{n_paths}"),
            paths: all.into_iter().take(n_paths).collect(),
        }
    }

    /// The chaos matrix scenario: path 0 is a clean 15 Mbps / 30 ms
    /// reference, path 1 is an equal-rate 50 ms path carrying one named
    /// impairment. Keeping exactly one fault per scenario makes matrix
    /// failures attributable.
    pub fn chaos(kind: ImpairmentKind) -> Self {
        let clean = PathSpec::constant(15_000_000, 30, 0.0);
        let victim = PathSpec::constant(15_000_000, 50, 0.0);
        let victim = match kind {
            // A single 5 s outage starting at 10 s, both directions dark —
            // the monitor must declare the path down and the scheduler
            // must survive on path 0, then re-enable per Eq. 3.
            ImpairmentKind::Blackout => victim.impaired_both(ImpairmentConfig::blackout(
                BlackoutSchedule::single(SimTime::from_secs(10), SimDuration::from_secs(5)),
            )),
            // 1 s dark out of every 4 s from 5 s on — repeated
            // disable/re-enable churn.
            ImpairmentKind::Flap => {
                victim.impaired_both(ImpairmentConfig::blackout(BlackoutSchedule::flapping(
                    SimTime::from_secs(5),
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(4),
                )))
            }
            // A quarter of media packets held back up to 40 ms — far past
            // the jitter the receiver buffers were tuned for.
            ImpairmentKind::Reorder => PathSpec {
                forward_impairment: ImpairmentConfig::reordering(
                    0.25,
                    SimDuration::from_millis(40),
                ),
                ..victim
            },
            // 5% of media packets delivered twice within 5 ms.
            ImpairmentKind::Duplicate => PathSpec {
                forward_impairment: ImpairmentConfig::duplication(
                    0.05,
                    SimDuration::from_millis(5),
                ),
                ..victim
            },
            // Media clean, feedback direction losing 30% with +30 ms —
            // the control loop must degrade gracefully on stale RTCP.
            ImpairmentKind::FeedbackLoss => PathSpec {
                reverse_impairment: ImpairmentConfig::degraded(0.30, SimDuration::from_millis(30)),
                ..victim
            },
        };
        ScenarioConfig {
            name: format!("chaos-{}", kind.id()),
            paths: vec![clean, victim],
        }
    }

    /// Builds the emulated paths, seeding each link differently.
    pub fn build_paths(&self, seed: u64) -> Vec<Path> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.build(PathId(i as u8), seed.wrapping_add(i as u64 * 7919)))
            .collect()
    }
}

/// Errors from [`ScenarioConfig::from_drive_file`]: the file couldn't be
/// read, or its contents couldn't be parsed.
#[derive(Debug)]
pub enum DriveLoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file's contents were not valid drive-replay JSONL.
    Parse(DriveParseError),
}

impl std::fmt::Display for DriveLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveLoadError::Io(e) => write!(f, "reading drive file: {e}"),
            DriveLoadError::Parse(e) => write!(f, "parsing drive file: {e}"),
        }
    }
}

impl std::error::Error for DriveLoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_net::SimTime;

    #[test]
    fn scheduler_kinds_build() {
        let iv = SimDuration::from_micros(33_333);
        for kind in [
            SchedulerKind::Converge,
            SchedulerKind::ConvergeNoFeedback,
            SchedulerKind::ConvergeNoPriority,
            SchedulerKind::ConvergeMinRttFast,
            SchedulerKind::SinglePath(0),
            SchedulerKind::ConnectionMigration(1),
            SchedulerKind::Srtt,
            SchedulerKind::MTput,
            SchedulerKind::MRtp,
        ] {
            let s = kind.build(iv);
            assert!(!s.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn fec_kinds_build() {
        for kind in [FecKind::Converge, FecKind::WebRtcTable, FecKind::None] {
            let mut f = kind.build();
            let n = f.repair_count(SimTime::ZERO, PathId(0), 100, 0.05, false);
            match kind {
                FecKind::None => assert_eq!(n, 0),
                _ => assert!(n > 0),
            }
        }
    }

    #[test]
    fn scenarios_have_two_paths() {
        let d = SimDuration::from_secs(30);
        for cfg in [
            ScenarioConfig::walking(d, 1),
            ScenarioConfig::driving(d, 1),
            ScenarioConfig::stationary(d, 1),
            ScenarioConfig::feedback_benefit(d, 1),
            ScenarioConfig::fec_tradeoff(5.0),
        ] {
            assert_eq!(cfg.paths.len(), 2, "{}", cfg.name);
            let paths = cfg.build_paths(9);
            assert_eq!(paths.len(), 2);
            assert_eq!(paths[0].id(), PathId(0));
            assert_eq!(paths[1].id(), PathId(1));
        }
    }

    #[test]
    fn feedback_benefit_trace_shape() {
        let cfg = ScenarioConfig::feedback_benefit(SimDuration::from_secs(120), 3);
        let p2 = &cfg.paths[1].trace;
        // Before 30 s: full rate; during the dip: 0.5–2.5 Mbps.
        assert_eq!(p2.rate_at(SimTime::from_secs(10)), 25_000_000);
        let dip = p2.rate_at(SimTime::from_secs(60));
        assert!((500_000..2_500_000).contains(&dip), "{dip}");
        assert_eq!(p2.rate_at(SimTime::from_secs(100)), 25_000_000);
    }

    /// The dip path's trace has a half-second step for every started half
    /// second of the call and no more, however short: a call under one
    /// step used to have none (and panicked), and a partial last step was
    /// dropped.
    #[test]
    fn feedback_benefit_trace_spans_the_call() {
        for (ms, steps) in [(100, 1), (499, 1), (500, 1), (1_200, 3), (120_000, 240)] {
            let call = SimDuration::from_millis(ms);
            let trace = &ScenarioConfig::feedback_benefit(call, 3).paths[1].trace;
            assert_eq!(trace.samples().len(), steps, "{ms} ms");
            assert_eq!(trace.end(), SimTime::from_millis(500 * (steps as u64 - 1)));
        }
    }

    #[test]
    fn chaos_scenarios_build_with_one_fault_each() {
        for kind in ImpairmentKind::ALL {
            let cfg = ScenarioConfig::chaos(kind);
            assert_eq!(cfg.name, format!("chaos-{}", kind.id()));
            assert_eq!(cfg.paths.len(), 2);
            // Path 0 is always the clean reference.
            assert!(cfg.paths[0].forward_impairment.is_noop());
            assert!(cfg.paths[0].reverse_impairment.is_noop());
            // Path 1 carries the fault on at least one direction.
            assert!(
                !cfg.paths[1].forward_impairment.is_noop()
                    || !cfg.paths[1].reverse_impairment.is_noop(),
                "{kind:?}"
            );
            let paths = cfg.build_paths(3);
            assert_eq!(paths.len(), 2);
        }
        // FeedbackLoss impairs only the reverse direction.
        let fb = ScenarioConfig::chaos(ImpairmentKind::FeedbackLoss);
        assert!(fb.paths[1].forward_impairment.is_noop());
        assert!(!fb.paths[1].reverse_impairment.is_noop());
    }

    #[test]
    fn path_spec_impairments_reach_the_links() {
        use converge_net::{Direction, Transmit};
        let spec =
            PathSpec::constant(10_000_000, 10, 0.0).impaired_both(ImpairmentConfig::blackout(
                BlackoutSchedule::single(SimTime::ZERO, SimDuration::from_secs(1)),
            ));
        let path = spec.build(PathId(0), 1);
        // The reverse link keeps the forward rate and delay, takes any
        // feedback burst, and draws its loss independently.
        let (fwd_cfg, rev_cfg) = (
            path.link(Direction::Forward).config(),
            path.link(Direction::Reverse).config(),
        );
        assert_eq!(rev_cfg.trace, fwd_cfg.trace);
        assert!(rev_cfg.queue_capacity_bytes >= 1_000_000);
        assert_ne!(rev_cfg.seed, fwd_cfg.seed);
        let mut emu: converge_net::NetworkEmulator<u8> =
            converge_net::NetworkEmulator::new(vec![path]);
        let (fwd, _) = emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 100, 0);
        let (rev, _) = emu.send(PathId(0), Direction::Reverse, SimTime::ZERO, 100, 0);
        assert_eq!(fwd, Transmit::Blackout);
        assert_eq!(rev, Transmit::Blackout);
    }

    #[test]
    fn from_drive_str_builds_one_path_per_id() {
        let jsonl = "\
{\"t\":0.0,\"path\":0,\"rate_bps\":10000000,\"owd_ms\":20,\"loss_pct\":0}\n\
{\"t\":0.0,\"path\":1,\"rate_bps\":5000000,\"owd_ms\":80,\"loss_pct\":1.5}\n\
{\"t\":5.0,\"path\":0,\"rate_bps\":2000000,\"owd_ms\":60,\"loss_pct\":3}\n";
        let cfg = ScenarioConfig::from_drive_str(jsonl).expect("parses");
        assert_eq!(cfg.paths.len(), 2);
        assert_eq!(cfg.paths[0].trace.owd_at(SimTime::ZERO).as_millis(), 20);
        assert_eq!(cfg.paths[1].trace.owd_at(SimTime::ZERO).as_millis(), 80);
        assert_eq!(cfg.paths[0].trace.rate_at(SimTime::from_secs(6)), 2_000_000);
        // The drive reaches the built links, both directions.
        let paths = cfg.build_paths(5);
        for dir in [
            converge_net::Direction::Forward,
            converge_net::Direction::Reverse,
        ] {
            assert_eq!(paths[0].link(dir).config().trace, cfg.paths[0].trace);
        }
    }

    #[test]
    fn multi_carrier_builds_4_to_8_paths() {
        let d = SimDuration::from_secs(30);
        for n in 4..=8 {
            let cfg = ScenarioConfig::multi_carrier(n, d, 3);
            assert_eq!(cfg.paths.len(), n);
            assert_eq!(cfg.name, format!("multi-carrier-{n}"));
            let paths = cfg.build_paths(3);
            assert_eq!(paths.len(), n);
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(p.id(), PathId(i as u8));
            }
        }
        // The mix is genuinely asymmetric: the satellite path's RTT dwarfs
        // the WiFi path's.
        let cfg = ScenarioConfig::multi_carrier(4, d, 3);
        let owd = |p: usize| cfg.paths[p].trace.owd_at(SimTime::ZERO);
        assert!(owd(3) >= owd(0) * 10);
    }

    #[test]
    #[should_panic(expected = "multi_carrier supports 4-8 paths")]
    fn multi_carrier_rejects_narrow_topologies() {
        let _ = ScenarioConfig::multi_carrier(3, SimDuration::from_secs(10), 1);
    }

    #[test]
    fn fec_tradeoff_loss_applied() {
        let cfg = ScenarioConfig::fec_tradeoff(7.0);
        assert!(matches!(cfg.paths[0].loss, LossModel::Bernoulli { p } if (p - 0.07).abs() < 1e-9));
        let zero = ScenarioConfig::fec_tradeoff(0.0);
        assert_eq!(zero.paths[0].loss, LossModel::None);
    }
}
