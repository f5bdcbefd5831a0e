//! Scenario construction: the network setups of the paper's evaluation and
//! factories for schedulers and FEC policies.

use converge_core::{
    ConnectionMigration, ConvergeFec, ConvergeScheduler, ConvergeSchedulerConfig, FecPolicy,
    MRtpScheduler, MTputScheduler, Scheduler, SinglePathScheduler, SrttScheduler, WebRtcTableFec,
};
use converge_net::{
    trace, BlackoutSchedule, Carrier, DriveParseError, DriveTrace, ImpairmentConfig, LinkConfig,
    LossModel, Path, PathId, QueueDiscipline, RateTrace, Scenario, SimDuration, SimTime,
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
            SchedulerKind::Converge => {
                let cfg = ConvergeSchedulerConfig {
                    batch_interval: frame_interval,
                    ..Default::default()
                };
                Box::new(ConvergeScheduler::new(cfg))
            }
            SchedulerKind::ConvergeNoFeedback => {
                let cfg = ConvergeSchedulerConfig {
                    batch_interval: frame_interval,
                    use_feedback: false,
                    ..Default::default()
                };
                Box::new(ConvergeScheduler::new(cfg))
            }
            SchedulerKind::ConvergeNoPriority => {
                let cfg = ConvergeSchedulerConfig {
                    batch_interval: frame_interval,
                    use_priority: false,
                    ..Default::default()
                };
                Box::new(ConvergeScheduler::new(cfg))
            }
            SchedulerKind::ConvergeMinRttFast => {
                let cfg = ConvergeSchedulerConfig {
                    batch_interval: frame_interval,
                    fast_path_metric: converge_core::FastPathMetric::MinRtt,
                    ..Default::default()
                };
                Box::new(ConvergeScheduler::new(cfg))
            }
            SchedulerKind::SinglePath(p) => Box::new(SinglePathScheduler::new(PathId(p))),
            SchedulerKind::ConnectionMigration(p) => Box::new(ConnectionMigration::new(PathId(p))),
            SchedulerKind::Srtt => Box::new(SrttScheduler::new(
                ConvergeSchedulerConfig::default().max_packet_bytes,
                frame_interval,
            )),
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
    /// Forward bandwidth trace.
    pub rate: RateTrace,
    /// One-way propagation delay.
    pub propagation: SimDuration,
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
    /// Replayed drive capture. When set it overrides `rate`, `propagation`,
    /// and `loss` on both directions (the two directions share one radio,
    /// so a coverage gap darkens the feedback channel too). `None` for
    /// every synthetic scenario.
    pub drive: Option<DriveTrace>,
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
        PathSpec {
            rate: RateTrace::constant(rate_bps),
            propagation: SimDuration::from_millis(one_way_ms),
            loss: if loss_pct > 0.0 {
                LossModel::bernoulli_percent(loss_pct)
            } else {
                LossModel::None
            },
            // ~1.5x BDP of a 25 Mbps / 100 ms path by default.
            queue_bytes: 300_000,
            jitter: SimDuration::ZERO,
            discipline: QueueDiscipline::DropTail,
            forward_impairment: ImpairmentConfig::default(),
            reverse_impairment: ImpairmentConfig::default(),
            drive: None,
        }
    }

    /// A path replaying a drive capture: rate, one-way delay, and loss all
    /// follow the trace. The static fields are set from the capture's
    /// initial sample so code that inspects them (e.g. `Path::base_rtt`)
    /// sees sensible values.
    pub fn from_drive(drive: DriveTrace) -> Self {
        let first = drive.samples()[0];
        PathSpec {
            rate: RateTrace::constant(first.rate_bps),
            propagation: first.owd,
            loss: LossModel::None,
            queue_bytes: 300_000,
            jitter: SimDuration::ZERO,
            discipline: QueueDiscipline::DropTail,
            forward_impairment: ImpairmentConfig::default(),
            reverse_impairment: ImpairmentConfig::default(),
            drive: Some(drive),
        }
    }

    /// Applies the same impairment to both directions.
    pub fn impaired_both(mut self, impairment: ImpairmentConfig) -> Self {
        self.forward_impairment = impairment;
        self.reverse_impairment = impairment;
        self
    }

    /// The forward (media) link of this path, seeded with `seed`.
    pub(crate) fn forward_link(&self, seed: u64) -> LinkConfig {
        LinkConfig {
            rate: self.rate.clone(),
            propagation: self.propagation,
            queue_capacity_bytes: self.queue_bytes,
            loss: self.loss.clone(),
            jitter: self.jitter,
            discipline: self.discipline.clone(),
            seed,
            impairment: self.forward_impairment,
            drive: self.drive.clone(),
        }
    }

    /// Builds the emulated path.
    pub fn build(&self, id: PathId, seed: u64) -> Path {
        let fwd = self.forward_link(seed);
        // Mirror Path::symmetric (uncongested feedback queue, independent
        // seed) while letting each direction carry its own impairment.
        let mut rev = fwd.clone();
        rev.queue_capacity_bytes = rev.queue_capacity_bytes.max(1_000_000);
        rev.seed = fwd.seed.wrapping_add(0x5EED);
        rev.impairment = self.reverse_impairment;
        Path::new(id, fwd, rev)
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
    /// The walking scenario of §6.1: WiFi + "T-Mobile"-like cellular.
    pub fn walking(duration: SimDuration, seed: u64) -> Self {
        ScenarioConfig {
            name: "walking".into(),
            paths: vec![
                PathSpec {
                    rate: trace::synthesize(Scenario::Walking, Carrier::Wifi, duration, seed),
                    propagation: SimDuration::from_millis(15),
                    loss: LossModel::bursty_percent(0.2),
                    queue_bytes: 300_000,
                    jitter: SimDuration::from_millis(2),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
                PathSpec {
                    rate: trace::synthesize(Scenario::Walking, Carrier::CellularA, duration, seed),
                    propagation: SimDuration::from_millis(35),
                    loss: LossModel::bursty_percent(0.4),
                    queue_bytes: 300_000,
                    jitter: SimDuration::from_millis(5),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
            ],
        }
    }

    /// The driving scenario of §6.1: "Verizon" + "T-Mobile" cellular.
    pub fn driving(duration: SimDuration, seed: u64) -> Self {
        ScenarioConfig {
            name: "driving".into(),
            paths: vec![
                PathSpec {
                    rate: trace::synthesize(Scenario::Driving, Carrier::CellularB, duration, seed),
                    propagation: SimDuration::from_millis(40),
                    loss: LossModel::bursty_percent(0.7),
                    queue_bytes: 250_000,
                    jitter: SimDuration::from_millis(8),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
                PathSpec {
                    rate: trace::synthesize(Scenario::Driving, Carrier::CellularA, duration, seed),
                    propagation: SimDuration::from_millis(35),
                    loss: LossModel::bursty_percent(0.7),
                    queue_bytes: 250_000,
                    jitter: SimDuration::from_millis(8),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
            ],
        }
    }

    /// The stationary scenario of Appendix A: WiFi + cellular, both stable.
    pub fn stationary(duration: SimDuration, seed: u64) -> Self {
        ScenarioConfig {
            name: "stationary".into(),
            paths: vec![
                PathSpec {
                    rate: trace::synthesize(Scenario::Stationary, Carrier::Wifi, duration, seed),
                    propagation: SimDuration::from_millis(10),
                    loss: LossModel::bursty_percent(0.1),
                    queue_bytes: 400_000,
                    jitter: SimDuration::from_millis(1),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
                PathSpec {
                    rate: trace::synthesize(
                        Scenario::Stationary,
                        Carrier::CellularA,
                        duration,
                        seed,
                    ),
                    propagation: SimDuration::from_millis(30),
                    loss: LossModel::bursty_percent(0.3),
                    queue_bytes: 300_000,
                    jitter: SimDuration::from_millis(3),
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
            ],
        }
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
        ScenarioConfig {
            name: "feedback-benefit".into(),
            paths: vec![
                PathSpec {
                    rate: RateTrace::constant(25_000_000),
                    propagation: SimDuration::from_millis(25),
                    loss: LossModel::None,
                    queue_bytes: 300_000,
                    jitter: SimDuration::ZERO,
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
                },
                PathSpec {
                    rate: RateTrace::new(step, rates),
                    propagation: SimDuration::from_millis(25),
                    loss: LossModel::bernoulli_percent(0.5),
                    queue_bytes: 300_000,
                    jitter: SimDuration::ZERO,
                    discipline: QueueDiscipline::DropTail,
                    ..Default::default()
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
        let paths = [(8, 20), (5, 35), (6, 50), (4, 30), (7, 60), (3, 45), (5, 25), (4, 70)];
        Self::lossless("constant-8", &paths)
    }

    /// Builds a scenario replaying externally collected bandwidth traces
    /// (CSV `seconds,bits_per_sec`, as produced by `trace-tool gen` or any
    /// capture pipeline). One path per trace, with the given one-way
    /// propagation delays.
    pub fn from_traces(
        traces: &[(&str, SimDuration)],
    ) -> Result<Self, converge_net::trace::TraceParseError> {
        let mut paths = Vec::with_capacity(traces.len());
        for (csv, propagation) in traces {
            paths.push(PathSpec {
                rate: RateTrace::from_csv(csv)?,
                propagation: *propagation,
                loss: LossModel::None,
                queue_bytes: 300_000,
                jitter: SimDuration::ZERO,
                discipline: QueueDiscipline::DropTail,
                ..Default::default()
            });
        }
        Ok(ScenarioConfig {
            name: "trace-replay".into(),
            paths,
        })
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
        let cell = |scenario, carrier, one_way_ms: u64, jitter_ms: u64, loss: f64, salt: u64| {
            PathSpec {
                rate: trace::synthesize(scenario, carrier, duration, seed.wrapping_add(salt)),
                propagation: SimDuration::from_millis(one_way_ms),
                loss: LossModel::bursty_percent(loss),
                queue_bytes: 250_000,
                jitter: SimDuration::from_millis(jitter_ms),
                ..Default::default()
            }
        };
        let sat = |rate_bps: u64, one_way_ms: u64, jitter_ms: u64| PathSpec {
            rate: RateTrace::constant(rate_bps),
            propagation: SimDuration::from_millis(one_way_ms),
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
            ImpairmentKind::Flap => victim.impaired_both(ImpairmentConfig::blackout(
                BlackoutSchedule::flapping(
                    SimTime::from_secs(5),
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(4),
                ),
            )),
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
                reverse_impairment: ImpairmentConfig::degraded(
                    0.30,
                    SimDuration::from_millis(30),
                ),
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
        let p2 = &cfg.paths[1].rate;
        // Before 30 s: full rate; during the dip: 0.5–2.5 Mbps.
        assert_eq!(p2.rate_at(SimTime::from_secs(10)), 25_000_000);
        let dip = p2.rate_at(SimTime::from_secs(60));
        assert!((500_000..2_500_000).contains(&dip), "{dip}");
        assert_eq!(p2.rate_at(SimTime::from_secs(100)), 25_000_000);
    }

    /// The dip path's trace covers the whole call and no more, however
    /// short: a call under one half-second segment used to have none (and
    /// panicked), and a partial last segment was dropped.
    #[test]
    fn feedback_benefit_trace_spans_the_call() {
        for ms in [100, 499, 500, 1_200, 120_000] {
            let call = SimDuration::from_millis(ms);
            let trace = &ScenarioConfig::feedback_benefit(call, 3).paths[1].rate;
            assert!(trace.span() >= call, "{ms} ms: {:?}", trace.span());
            assert!(
                trace.span() < call + trace.step(),
                "{ms} ms: {:?}",
                trace.span()
            );
        }
    }

    #[test]
    fn from_traces_replays_csv() {
        let csv1 = "0.0,10000000\n0.5,5000000\n1.0,10000000\n";
        let csv2 = "0.0,8000000\n0.5,8000000\n1.0,2000000\n";
        let cfg = ScenarioConfig::from_traces(&[
            (csv1, SimDuration::from_millis(20)),
            (csv2, SimDuration::from_millis(40)),
        ])
        .expect("valid traces");
        assert_eq!(cfg.paths.len(), 2);
        assert_eq!(
            cfg.paths[0]
                .rate
                .rate_at(converge_net::SimTime::from_millis(600)),
            5_000_000
        );
        assert!(ScenarioConfig::from_traces(&[("garbage", SimDuration::ZERO)]).is_err());
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
        use converge_net::{Direction, SendOutcome};
        let spec = PathSpec::constant(10_000_000, 10, 0.0).impaired_both(
            ImpairmentConfig::blackout(BlackoutSchedule::single(
                SimTime::ZERO,
                SimDuration::from_secs(1),
            )),
        );
        let mut emu: converge_net::NetworkEmulator<u8> =
            converge_net::NetworkEmulator::new(vec![spec.build(PathId(0), 1)]);
        let (fwd, _) = emu.send(PathId(0), Direction::Forward, SimTime::ZERO, 100, 0);
        let (rev, _) = emu.send(PathId(0), Direction::Reverse, SimTime::ZERO, 100, 0);
        assert_eq!(fwd, SendOutcome::Blackout);
        assert_eq!(rev, SendOutcome::Blackout);
    }

    #[test]
    fn from_drive_str_builds_one_path_per_id() {
        let jsonl = "\
{\"t\":0.0,\"path\":0,\"rate_bps\":10000000,\"owd_ms\":20,\"loss_pct\":0}\n\
{\"t\":0.0,\"path\":1,\"rate_bps\":5000000,\"owd_ms\":80,\"loss_pct\":1.5}\n\
{\"t\":5.0,\"path\":0,\"rate_bps\":2000000,\"owd_ms\":60,\"loss_pct\":3}\n";
        let cfg = ScenarioConfig::from_drive_str(jsonl).expect("parses");
        assert_eq!(cfg.paths.len(), 2);
        // Static fields mirror the initial sample; the drive is attached.
        assert_eq!(cfg.paths[0].propagation.as_millis(), 20);
        assert_eq!(cfg.paths[1].propagation.as_millis(), 80);
        let drive = cfg.paths[0].drive.as_ref().expect("drive attached");
        assert_eq!(drive.rate_at(SimTime::from_secs(6)), 2_000_000);
        // The drive reaches the built links, both directions.
        let paths = cfg.build_paths(5);
        assert!(paths[0].link(converge_net::Direction::Forward).config().drive.is_some());
        assert!(paths[0].link(converge_net::Direction::Reverse).config().drive.is_some());
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
        assert!(cfg.paths[3].propagation >= cfg.paths[0].propagation * 10);
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
