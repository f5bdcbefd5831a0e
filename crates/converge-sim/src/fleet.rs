//! Fleet-scale session engine: thousands of concurrent conference calls
//! behind SFU bottlenecks.
//!
//! [`Session`](crate::Session) runs one call on its own emulator. A fleet
//! member is the same `Flow` — sender, receiver, pacer, metrics — but its
//! events travel a shard's [`EventQueue`] (in-flight packets, arena-backed
//! so memory follows packets in flight) and [`TimerWheel`] (pacer, frame,
//! and RTCP ticks), which a shard reuses across the conferences it runs.
//! Conferences share no state, so [`FleetConfig::batch_conferences`]
//! defaults to one conference per pass: multiplexing more into the same
//! queue measured slower and larger, never different.
//!
//! ## Topology
//!
//! Every conference terminates on an [`SfuNode`]: each member uplinks over
//! its own private multipath access network (two seeded paths by default)
//! into the conference's shared ingress bottleneck; accepted media is
//! observed by an SFU-side receiver (uplink QoE) and fanned out to the
//! other members over the shared egress link as payload-free
//! [`ForwardPacket`] descriptors. RTCP feedback travels back over the
//! member's private reverse paths, so every member runs the full
//! sender/receiver/congestion-control pipeline of a normal session.
//!
//! ## Determinism across shard counts
//!
//! Conferences never share mutable state — the SFU, SBD detector, and all
//! member state are per-conference — so a conference's event subsequence
//! is invariant to how conferences are interleaved in a shard's queue.
//! Batches are distributed over worker shards by work-stealing and the
//! results merged back in conference-index order, which makes the
//! aggregate fold byte-identical for any shard count. Wall-clock numbers
//! never enter [`FleetReport::fold_text`].
//!
//! ## Shared-bottleneck coupling
//!
//! When enabled, an RFC 8382 skewness-based [`SbdDetector`] samples
//! one-way delay at the ingress bottleneck and groups members whose OWD
//! signatures match; grouped members have their congestion-controller
//! increase step scaled by `1/group_size` (coupled growth), emitting
//! [`TraceEvent::SbdGroupsChanged`] when the grouping flips.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use converge_cc::{ControllerConfig, SbdDetector};
use converge_net::{
    event::EventQueue, Direction, ForwardPacket, MemberId, Path, PathId, SfuConfig, SfuNode,
    SfuStats, SimDuration, SimTime, TimerWheel, TimerWheelStats, Transmit,
};
use converge_trace::{jsonl, InvariantSink, RingSink, TraceEvent, TraceHandle};
use converge_video::{FrameType, PacketKind};

use crate::flow::{Flow, Net, Tick};
use crate::metrics::{CallReport, MetricsCollector};
use crate::payload::{NetPayload, SimRtp};
use crate::receiver::ConferenceReceiver;
use crate::scenarios::{FecKind, PathSpec, SchedulerKind};
use crate::sender::{ConferenceSender, SenderSizing};

/// Receiver `recent` ring size for fleet members: every hit is verified
/// against the stored sequence, so the small ring only shortens the FEC
/// horizon (see [`ConferenceReceiver::new_sized`]).
const FLEET_RECENT_SLOTS: usize = 512;

/// Intervals an SBD detector must close before its grouping is applied
/// (RFC 8382 wants a populated observation window before acting).
const SBD_WARMUP_INTERVALS: u64 = 3;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total concurrent sessions (conference members) across the fleet.
    pub sessions: usize,
    /// Members per conference (≥ 2; the last conference may be smaller).
    pub conference_size: usize,
    /// Worker shards. Each shard owns one reusable event queue + timer
    /// wheel and steals conference batches until none remain.
    pub shards: usize,
    /// Conferences multiplexed into one pass over a shard's queue and
    /// wheel (the work-stealing granule). Conferences share no state, so
    /// a bigger batch only buys a bigger heap and worse locality: 1 (the
    /// default) measured 1.8× faster than 32 at a seventh of the peak RSS.
    /// The fold is identical for any value.
    pub batch_conferences: usize,
    /// Call duration.
    pub duration: SimDuration,
    /// Master seed; per-member seeds are split deterministically from it.
    pub seed: u64,
    /// Shared ingress bottleneck rate per conference, bps.
    pub bottleneck_ingress_bps: u64,
    /// Encoder cap per stream, bps.
    pub max_encoding_rate_bps: u64,
    /// Camera streams per member.
    pub streams: u8,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// FEC policy under test.
    pub fec: FecKind,
    /// Per-path congestion controller.
    pub controller: ControllerConfig,
    /// Run RFC 8382 shared-bottleneck detection per conference and couple
    /// grouped members' controller growth.
    pub sbd: bool,
    /// Capture structured traces (RingSink) for the first N conferences.
    pub trace_conferences: usize,
    /// Arm an [`InvariantSink`] on every member and count violations.
    pub check_invariants: bool,
}

impl FleetConfig {
    /// A fleet of `sessions` members in conferences of `conference_size`,
    /// with the paper-flavoured defaults used by the `fleet` benchmark.
    pub fn new(sessions: usize, conference_size: usize) -> Self {
        FleetConfig {
            sessions,
            conference_size: conference_size.max(2),
            shards: 1,
            batch_conferences: 1,
            duration: SimDuration::from_secs(20),
            seed: 1,
            bottleneck_ingress_bps: 8_000_000,
            max_encoding_rate_bps: 2_000_000,
            streams: 1,
            scheduler: SchedulerKind::Converge,
            fec: FecKind::Converge,
            controller: ControllerConfig::default(),
            sbd: true,
            trace_conferences: 0,
            check_invariants: false,
        }
    }

    /// Number of conferences the sessions fold into.
    pub fn conference_count(&self) -> usize {
        self.sessions.div_ceil(self.conference_size)
    }

    /// Members of conference `conf`. The last conference takes whatever
    /// remainder is left (a 1-member tail simply has no viewers).
    fn members_of(&self, conf: usize) -> usize {
        let done = conf * self.conference_size;
        let left = self.sessions.saturating_sub(done);
        left.min(self.conference_size).max(1)
    }
}

/// SplitMix64: the per-member seed derivation. Deterministic in the
/// global conference/member index, so a member's access network is
/// identical no matter which shard runs it.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn member_seed(master: u64, conf: u32, member: MemberId) -> u64 {
    splitmix64(master ^ splitmix64(((conf as u64) << 16) | member as u64))
}

/// The default member access network: a WiFi-like and a cellular-like
/// path, both constant-rate with light random loss. Constant rates keep
/// per-packet cost minimal at fleet scale; variation comes from cross-
/// member contention at the shared bottleneck.
fn member_paths(seed: u64) -> Vec<Path> {
    let wifi = PathSpec::constant(6_000_000, 15, 0.1);
    let cell = PathSpec::constant(4_000_000, 35, 0.2);
    vec![
        wifi.build(PathId(0), seed),
        cell.build(PathId(1), seed.wrapping_add(7919)),
    ]
}

/// Events in the shared per-shard queue. Keyed by `(time, seq)` in the
/// queue itself; the payload names the conference/member so processing
/// can route straight to the owning state.
#[derive(Debug)]
enum FleetEvent {
    /// A packet finished crossing one of a member's private paths.
    Deliver {
        conf: u32,
        member: MemberId,
        path: PathId,
        direction: Direction,
        payload: NetPayload,
    },
    /// An uplink packet cleared the conference's shared ingress
    /// bottleneck and reached the SFU.
    SfuIngress {
        conf: u32,
        member: MemberId,
        path: PathId,
        rtp: SimRtp,
    },
    /// A fan-out copy cleared the shared egress bottleneck and reached a
    /// viewer.
    SfuEgress {
        conf: u32,
        dest: MemberId,
        fwd: ForwardPacket,
    },
}

/// Ticks in the shared timer wheel. `Copy` and 8 bytes: idle sessions
/// cost exactly their wheel slots, nothing else.
#[derive(Debug, Clone, Copy)]
enum TickKind {
    /// One of the member flow's own ticks.
    Flow(Tick),
    PacerPoll,
    Sbd,
}

#[derive(Debug, Clone, Copy)]
struct TimerEvent {
    conf: u32,
    member: MemberId,
    kind: TickKind,
}

/// Occupancy counters of one shard's shared machinery (satellite
/// telemetry: cheap reads of the high-water accessors, LinkStats-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// High-water mark of the shared event queue's payload arena.
    pub queue_high_water: usize,
    /// Timer-wheel load counters (pending high-water, cascades, overflow).
    pub wheel: TimerWheelStats,
    /// Conference batches this shard ran (work-stealing share).
    pub batches: u64,
}

/// One shard's reusable event machinery. A shard runs many conference
/// batches back to back; `reset` clears the queue and wheel but keeps
/// their allocations and high-water stats, so arenas are paid for once
/// per shard, not once per conference.
struct ShardCore {
    queue: EventQueue<FleetEvent>,
    wheel: TimerWheel<TimerEvent>,
    due: Vec<(SimTime, TimerEvent)>,
    batches: u64,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            queue: EventQueue::new(),
            wheel: TimerWheel::new(),
            due: Vec::new(),
            batches: 0,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.wheel.clear();
        self.due.clear();
        self.batches += 1;
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            queue_high_water: self.queue.high_water(),
            wheel: self.wheel.stats(),
            batches: self.batches,
        }
    }
}

/// Horizon (in frames) behind the newest seen frame after which stale
/// viewer assembly entries are pruned; late retransmissions land well
/// inside one RTT (~3 frames).
const VIEWER_PRUNE_FRAMES: u64 = 30;

/// Viewer-side frame reassembly from fan-out descriptors. Each media
/// packet names its `index` of `count` within the frame, so completion is
/// exact: a dup-suppressing bitmap per in-flight frame, pruned behind a
/// fixed horizon so memory stays O(frames in flight), not O(call).
#[derive(Debug, Default)]
struct ViewerState {
    pkts: u64,
    bytes: u64,
    frames_complete: u64,
    /// (origin, stream, frame) → (received bitmap, packets in frame).
    /// `count == u16::MAX` marks an already-counted frame.
    asm: BTreeMap<(MemberId, u8, u64), (u128, u16)>,
    newest_frame: u64,
}

impl ViewerState {
    fn on_forward(&mut self, fwd: &ForwardPacket) {
        self.pkts += 1;
        self.bytes += fwd.size as u64;
        // Parameter-set packets (count == 0) carry no frame slice.
        if fwd.count == 0 || fwd.index as u32 >= 128 {
            return;
        }
        let entry = self
            .asm
            .entry((fwd.origin, fwd.stream, fwd.frame_id))
            .or_insert((0, fwd.count));
        let bit = 1u128 << fwd.index;
        if entry.1 != u16::MAX && entry.0 & bit == 0 {
            entry.0 |= bit;
            if entry.0.count_ones() as u16 >= entry.1 {
                self.frames_complete += 1;
                entry.1 = u16::MAX;
            }
        }
        if fwd.frame_id > self.newest_frame {
            self.newest_frame = fwd.frame_id;
            if self.asm.len() > 256 {
                let horizon = self.newest_frame.saturating_sub(VIEWER_PRUNE_FRAMES);
                self.asm.retain(|&(_, _, frame), _| frame >= horizon);
            }
        }
    }
}

/// One member: its uplink flow (member → SFU), the private access paths
/// the flow travels, and its viewer-side state. The shard provides the
/// event machinery.
struct Member {
    flow: Flow,
    paths: Vec<Path>,
    ring: Option<Arc<RingSink>>,
    checker: Option<Arc<InvariantSink>>,
    /// Earliest armed pacer wake-up, to keep wheel entries deduplicated.
    pacer_wakeup: Option<SimTime>,
    viewer: ViewerState,
}

/// The fleet's send seam: a member's private paths, delivering into the
/// shard's shared event queue.
struct MemberNet<'a> {
    queue: &'a mut EventQueue<FleetEvent>,
    paths: &'a mut [Path],
    conf: u32,
    member: MemberId,
}

impl Member {
    /// The member's flow alongside the seam it sends through.
    fn wire<'a>(
        &'a mut self,
        queue: &'a mut EventQueue<FleetEvent>,
        conf: u32,
        member: MemberId,
    ) -> (&'a mut Flow, MemberNet<'a>) {
        (&mut self.flow, MemberNet { queue, paths: &mut self.paths, conf, member })
    }
}

impl Net for MemberNet<'_> {
    fn send(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        size: usize,
        payload: NetPayload,
    ) -> bool {
        let MemberNet { conf, member, .. } = *self;
        let p = self
            .paths
            .iter_mut()
            .find(|p| p.id() == path)
            .unwrap_or_else(|| panic!("send on unknown {path}"));
        let offer = p.offer(direction, now, size);
        match offer.fate {
            Transmit::Delivered(at) => {
                // Original before the copy, mirroring the emulator's FIFO
                // tie-break.
                let dup = offer.duplicate.map(|copy_at| (copy_at, payload.clone()));
                self.queue
                    .schedule(at, FleetEvent::Deliver { conf, member, path, direction, payload });
                if let Some((copy_at, copy)) = dup {
                    self.queue.schedule(
                        copy_at,
                        FleetEvent::Deliver { conf, member, path, direction, payload: copy },
                    );
                }
                false
            }
            _ => true,
        }
    }
}

struct ConferenceState {
    members: Vec<Member>,
    sfu: SfuNode,
    sbd: Option<SbdDetector>,
    sbd_groups: Vec<Vec<usize>>,
    sbd_changes: u64,
    /// Conference-level trace (member 0's handle) for SBD group events.
    trace: TraceHandle,
}

/// Per-session slice of the fleet report.
#[derive(Debug, Clone)]
pub struct FleetSessionReport {
    /// Conference index.
    pub conf: u32,
    /// Member index within the conference.
    pub member: u16,
    /// Composite QoE score in [0, 1] (throughput, FPS, freeze).
    pub qoe: f64,
    /// Uplink decoded FPS at the SFU.
    pub fps: f64,
    /// Uplink delivered throughput, bps.
    pub throughput_bps: f64,
    /// Uplink frames decoded at the SFU.
    pub frames_decoded: u64,
    /// NACKed sequence numbers on the uplink.
    pub nacks_sent: u64,
    /// FEC packets used for recovery on the uplink.
    pub fec_packets_used: u64,
    /// Percent of the call the uplink was frozen.
    pub freeze_ratio_pct: f64,
    /// Fan-out packets this member received as a viewer.
    pub viewer_pkts: u64,
    /// Fan-out bytes this member received as a viewer.
    pub viewer_bytes: u64,
    /// Remote frames fully delivered to this member.
    pub viewer_frames: u64,
}

/// Per-conference slice of the fleet report.
#[derive(Debug, Clone)]
pub struct FleetConferenceReport {
    /// Conference index.
    pub conf: u32,
    /// SFU bottleneck counters (ingress/egress links, fan-out).
    pub sfu: SfuStats,
    /// Shared-bottleneck groups in the final applied grouping.
    pub sbd_groups: u32,
    /// Members in multi-member (coupled) groups.
    pub sbd_coupled: u32,
    /// Times the applied grouping changed during the call.
    pub sbd_changes: u64,
    /// Per-member session reports.
    pub sessions: Vec<FleetSessionReport>,
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Total sessions simulated.
    pub sessions: usize,
    /// Members per conference.
    pub conference_size: usize,
    /// Worker shards used.
    pub shards: usize,
    /// Call duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Per-conference reports, in conference-index order.
    pub conferences: Vec<FleetConferenceReport>,
    /// Per-shard occupancy stats (shard-count dependent; excluded from
    /// the deterministic fold).
    pub shard_stats: Vec<ShardStats>,
    /// Invariant violations across all armed members.
    pub violations: usize,
    /// Sampled `(label, jsonl)` timelines for traced conferences.
    pub sampled_traces: Vec<(String, String)>,
}

/// Nearest-rank-with-interpolation quantile of a sorted slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The composite per-session QoE score: normalized throughput and FPS
/// (the paper's §6 normalizations) minus freeze penalty, clamped to
/// [0, 1]. Purely a function of the member's `CallReport`, so it is
/// identical for any shard count.
fn qoe_score(r: &CallReport) -> f64 {
    let tput = r.normalized_throughput().clamp(0.0, 1.0);
    let fps = r.normalized_fps().clamp(0.0, 1.0);
    let freeze = (r.freeze_ratio_pct() / 100.0).clamp(0.0, 1.0);
    (0.5 * tput + 0.35 * fps + 0.15 * (1.0 - freeze)).clamp(0.0, 1.0)
}

impl FleetReport {
    /// Per-session QoE scores in (conference, member) order.
    pub fn qoe_scores(&self) -> Vec<f64> {
        self.conferences
            .iter()
            .flat_map(|c| c.sessions.iter().map(|s| s.qoe))
            .collect()
    }

    /// QoE-fairness quantiles `[p5, p25, p50, p75, p95]`.
    pub fn qoe_quantiles(&self) -> [f64; 5] {
        let mut scores = self.qoe_scores();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite QoE"));
        [0.05, 0.25, 0.50, 0.75, 0.95].map(|q| quantile_sorted(&scores, q))
    }

    /// The deterministic fold: per-conference aggregates merged in
    /// conference-index order plus fleet totals and QoE quantiles. No
    /// wall-clock and no shard-dependent counters — byte-identical for
    /// any shard count and any batch size.
    pub fn fold_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.conferences.len() * 160);
        out.push_str(&format!(
            "fleet|sessions={}|size={}|seed={}|dur_us={}\n",
            self.sessions,
            self.conference_size,
            self.seed,
            self.duration.as_micros()
        ));
        let mut decoded = 0u64;
        let mut tput = 0.0f64;
        let mut nacks = 0u64;
        let mut fec = 0u64;
        let mut viewer_frames = 0u64;
        for c in &self.conferences {
            let cd: u64 = c.sessions.iter().map(|s| s.frames_decoded).sum();
            let ct: f64 = c.sessions.iter().map(|s| s.throughput_bps).sum();
            let cq: f64 =
                c.sessions.iter().map(|s| s.qoe).sum::<f64>() / c.sessions.len().max(1) as f64;
            let cv: u64 = c.sessions.iter().map(|s| s.viewer_frames).sum();
            decoded += cd;
            tput += ct;
            nacks += c.sessions.iter().map(|s| s.nacks_sent).sum::<u64>();
            fec += c.sessions.iter().map(|s| s.fec_packets_used).sum::<u64>();
            viewer_frames += cv;
            out.push_str(&format!(
                "c{}|decoded={}|tput_bps={:.3}|qoe={:.6}|viewer_frames={}|in_drops={}|eg_drops={}|fanout={}|groups={}|coupled={}|changes={}\n",
                c.conf,
                cd,
                ct,
                cq,
                cv,
                c.sfu.ingress.queue_drops,
                c.sfu.egress.queue_drops,
                c.sfu.fanout_pkts,
                c.sbd_groups,
                c.sbd_coupled,
                c.sbd_changes,
            ));
        }
        let q = self.qoe_quantiles();
        out.push_str(&format!(
            "total|decoded={decoded}|tput_bps={tput:.3}|nacks={nacks}|fec_used={fec}|viewer_frames={viewer_frames}\n"
        ));
        out.push_str(&format!(
            "qoe|p5={:.6}|p25={:.6}|p50={:.6}|p75={:.6}|p95={:.6}\n",
            q[0], q[1], q[2], q[3], q[4]
        ));
        out
    }
}

/// One conference's finished outcome as produced by a shard.
struct ConferenceOutcome {
    report: FleetConferenceReport,
    traces: Vec<(String, String)>,
    violations: usize,
}

/// The fleet engine: builds, runs, and folds a whole fleet.
pub struct FleetEngine {
    config: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine for `config`.
    pub fn new(config: FleetConfig) -> Self {
        FleetEngine { config }
    }

    /// Runs the fleet to completion.
    ///
    /// # Panics
    /// Panics if `sessions` is zero.
    pub fn run(self) -> FleetReport {
        let cfg = self.config;
        assert!(cfg.sessions > 0, "a fleet needs at least one session");
        let n_conf = cfg.conference_count();
        let batch = cfg.batch_conferences.max(1);
        let n_batches = n_conf.div_ceil(batch);
        let shards = cfg.shards.max(1).min(n_batches);

        let mut outcomes: Vec<Option<Vec<ConferenceOutcome>>> = Vec::new();
        outcomes.resize_with(n_batches, || None);
        let mut shard_stats = Vec::new();

        if shards == 1 {
            let mut core = ShardCore::new();
            for (b, slot) in outcomes.iter_mut().enumerate() {
                let first = b * batch;
                let count = batch.min(n_conf - first);
                core.reset();
                *slot = Some(run_batch(&mut core, &cfg, first, count));
            }
            shard_stats.push(core.stats());
        } else {
            // One shard's claimed batches (tagged with their batch index
            // for the deterministic merge) plus its occupancy stats.
            type ShardYield = (Vec<(usize, Vec<ConferenceOutcome>)>, ShardStats);
            let next = AtomicUsize::new(0);
            let collected: Vec<ShardYield> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..shards)
                    .map(|_| {
                        s.spawn(|| {
                            let mut core = ShardCore::new();
                            let mut mine = Vec::new();
                            loop {
                                let b = next.fetch_add(1, Ordering::Relaxed);
                                if b >= n_batches {
                                    break;
                                }
                                let first = b * batch;
                                let count = batch.min(n_conf - first);
                                core.reset();
                                mine.push((b, run_batch(&mut core, &cfg, first, count)));
                            }
                            (mine, core.stats())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet shard panicked"))
                    .collect()
            });
            for (mine, stats) in collected {
                for (b, o) in mine {
                    outcomes[b] = Some(o);
                }
                shard_stats.push(stats);
            }
        }

        // Deterministic merge: conference-index order, regardless of
        // which shard ran which batch.
        let mut conferences = Vec::with_capacity(n_conf);
        let mut sampled_traces = Vec::new();
        let mut violations = 0;
        for slot in outcomes {
            for o in slot.expect("batch never ran") {
                conferences.push(o.report);
                sampled_traces.extend(o.traces);
                violations += o.violations;
            }
        }

        FleetReport {
            sessions: cfg.sessions,
            conference_size: cfg.conference_size,
            shards,
            duration: cfg.duration,
            seed: cfg.seed,
            conferences,
            shard_stats,
            violations,
            sampled_traces,
        }
    }
}

/// Builds one conference's state and schedules its initial timers.
fn build_conference(
    cfg: &FleetConfig,
    conf: u32,
    wheel: &mut TimerWheel<TimerEvent>,
) -> ConferenceState {
    let n_members = cfg.members_of(conf as usize);
    let format = converge_video::VideoFormat::HD720;
    let frame_interval = SimDuration::from_micros(1_000_000 / format.fps as u64);
    let mut sfu = SfuNode::new(SfuConfig::for_bottleneck(
        cfg.bottleneck_ingress_bps,
        n_members.saturating_sub(1),
    ));
    let sampled = (conf as usize) < cfg.trace_conferences;

    let mut members = Vec::with_capacity(n_members);
    for m in 0..n_members as MemberId {
        let seed = member_seed(cfg.seed, conf, m);
        let paths = member_paths(seed);
        let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
        sfu.register_member(&path_ids);

        let sender = ConferenceSender::new_sized(
            cfg.streams,
            &path_ids,
            cfg.scheduler.build(frame_interval),
            cfg.fec.build(),
            cfg.controller,
            cfg.max_encoding_rate_bps,
            SenderSizing::fleet(),
        );
        let receiver = ConferenceReceiver::new_sized(
            cfg.streams,
            &path_ids,
            format.fps,
            path_ids[0],
            FLEET_RECENT_SLOTS,
        );

        let ring = sampled.then(|| Arc::new(RingSink::new(4096)));
        let inner = match &ring {
            Some(r) => TraceHandle::new(r.clone() as Arc<dyn converge_trace::TraceSink>),
            None => TraceHandle::disabled(),
        };
        let (trace, checker) = if cfg.check_invariants {
            let checker = Arc::new(InvariantSink::wrapping(&inner));
            (TraceHandle::new(checker.clone()), Some(checker))
        } else {
            (inner, None)
        };
        let flow = Flow::new(
            Direction::Forward,
            sender,
            receiver,
            MetricsCollector::new(cfg.duration, format, cfg.max_encoding_rate_bps, cfg.streams),
            trace,
            SimDuration::from_millis(100),
            SimDuration::from_millis(250),
        );

        // Stagger every member's timers so frames across the fleet do not
        // land on the same wheel tick. Derived from the *global* member
        // index: identical for any shard count.
        let global = conf as u64 * cfg.conference_size as u64 + m as u64;
        let stagger = SimDuration::from_micros((global % 33) * 1_009);
        for (at, tick) in flow.first_ticks(stagger) {
            wheel.schedule(at, TimerEvent { conf, member: m, kind: TickKind::Flow(tick) });
        }

        members.push(Member {
            flow,
            paths,
            ring,
            checker,
            pacer_wakeup: None,
            viewer: ViewerState::default(),
        });
    }

    let sbd = cfg.sbd.then(|| SbdDetector::new(n_members, Default::default()));
    if let Some(d) = &sbd {
        wheel.schedule(
            SimTime::ZERO + d.interval() + SimDuration::from_micros((conf as u64 % 97) * 211),
            TimerEvent { conf, member: 0, kind: TickKind::Sbd },
        );
    }
    let trace = members[0].flow.trace.clone();
    ConferenceState {
        members,
        sfu,
        sbd,
        sbd_groups: Vec::new(),
        sbd_changes: 0,
        trace,
    }
}

/// Runs conferences `[first, first + count)` through the shard's shared
/// queue and wheel, and finalizes their reports.
fn run_batch(
    core: &mut ShardCore,
    cfg: &FleetConfig,
    first: usize,
    count: usize,
) -> Vec<ConferenceOutcome> {
    let ShardCore { queue, wheel, due, .. } = core;
    let mut confs: Vec<ConferenceState> = (0..count)
        .map(|i| build_conference(cfg, (first + i) as u32, wheel))
        .collect();

    let end = SimTime::ZERO + cfg.duration;
    let mut clock = SimTime::ZERO;
    loop {
        let now = match (queue.peek_time(), wheel.next_deadline()) {
            (Some(q), Some(w)) => q.min(w),
            (Some(q), None) => q,
            (None, Some(w)) => w,
            (None, None) => break,
        };
        let now = now.max(clock);
        clock = now;
        if now >= end {
            break;
        }
        // Phase-structured processing at `now`: drain queue events, then
        // due wheel ticks, and repeat until neither has work. Every
        // conference's own subsequence runs in (time, seq) order, so the
        // interleaving with *other* conferences — the only thing that
        // changes with shard count — cannot alter its state.
        loop {
            let mut progressed = false;
            while let Some((at, ev)) = queue.pop_due(now) {
                progressed = true;
                process_event(queue, &mut confs, first as u32, at, ev);
            }
            wheel.pop_due_into(now, due);
            for (at, te) in due.drain(..) {
                progressed = true;
                process_timer(queue, wheel, &mut confs, first as u32, at, te);
            }
            if !progressed {
                break;
            }
        }
    }

    confs
        .into_iter()
        .enumerate()
        .map(|(i, c)| finalize_conference((first + i) as u32, c))
        .collect()
}

fn finalize_conference(conf: u32, c: ConferenceState) -> ConferenceOutcome {
    let mut sessions = Vec::with_capacity(c.members.len());
    let mut traces = Vec::new();
    let mut violations = 0;
    let sfu = c.sfu.stats();
    for (m, member) in c.members.into_iter().enumerate() {
        let report = member.flow.finish();
        sessions.push(FleetSessionReport {
            conf,
            member: m as u16,
            qoe: qoe_score(&report),
            fps: report.fps,
            throughput_bps: report.throughput_bps,
            frames_decoded: report.frames_decoded,
            nacks_sent: report.nacks_sent,
            fec_packets_used: report.fec_packets_used,
            freeze_ratio_pct: report.freeze_ratio_pct(),
            viewer_pkts: member.viewer.pkts,
            viewer_bytes: member.viewer.bytes,
            viewer_frames: member.viewer.frames_complete,
        });
        if let Some(ring) = member.ring {
            let label = format!("fleet/c{conf}/m{m}");
            let doc = jsonl::render(&label, &ring.drain());
            traces.push((label, doc));
        }
        if let Some(checker) = member.checker {
            violations += checker.take_violations().len();
        }
    }
    ConferenceOutcome {
        report: FleetConferenceReport {
            conf,
            sfu,
            sbd_groups: c.sbd_groups.len() as u32,
            sbd_coupled: c
                .sbd_groups
                .iter()
                .filter(|g| g.len() > 1)
                .map(|g| g.len())
                .sum::<usize>() as u32,
            sbd_changes: c.sbd_changes,
            sessions,
        },
        traces,
        violations,
    }
}

/// Re-arms the member's pacer wake-up if its next release is earlier than
/// anything already armed.
fn arm_pacer(
    wheel: &mut TimerWheel<TimerEvent>,
    m: &mut Member,
    conf: u32,
    member: MemberId,
    now: SimTime,
) {
    if let Some(r) = m.flow.pacer.next_release() {
        let r = r.max(now);
        if m.pacer_wakeup.is_none_or(|w| r < w) {
            wheel.schedule(r, TimerEvent { conf, member, kind: TickKind::PacerPoll });
            m.pacer_wakeup = Some(r);
        }
    }
}

fn process_event(
    queue: &mut EventQueue<FleetEvent>,
    confs: &mut [ConferenceState],
    base: u32,
    now: SimTime,
    ev: FleetEvent,
) {
    match ev {
        FleetEvent::Deliver { conf, member, path, direction, payload } => {
            let ConferenceState { members, sfu, sbd, .. } = &mut confs[(conf - base) as usize];
            let m = &mut members[member as usize];
            match (direction, payload) {
                (Direction::Forward, NetPayload::Rtp(rtp)) => {
                    // The uplink packet reached the conference edge: it
                    // now contends for the shared ingress bottleneck.
                    let size = rtp.kind.wire_size();
                    match sfu.offer_ingress(member, now, size) {
                        Transmit::Delivered(at) => {
                            queue.schedule(at, FleetEvent::SfuIngress { conf, member, path, rtp });
                        }
                        _ => {
                            m.flow.metrics.on_packet_lost(path);
                            if let Some(d) = sbd {
                                d.on_loss(member as usize);
                            }
                        }
                    }
                }
                // Control plane bypasses the media bottleneck (the SFU
                // prioritizes its control queue); feedback and probe
                // echoes come back over the member's private reverse paths.
                (_, payload) => {
                    let (flow, mut net) = m.wire(queue, conf, member);
                    flow.on_delivery(now, path, payload, &mut net);
                }
            }
        }
        FleetEvent::SfuIngress { conf, member, path, rtp } => {
            let ConferenceState { members, sfu, sbd, .. } = &mut confs[(conf - base) as usize];
            let n_members = members.len();
            if let Some(d) = sbd {
                d.on_owd_sample(member as usize, rtp.sent_at, now);
            }
            let (flow, mut net) = members[member as usize].wire(queue, conf, member);
            flow.on_media(now, path, &rtp, &mut net);
            // Fan the media out to every other member over the shared
            // egress bottleneck: descriptors only, never payload bytes.
            if let Some(vp) = rtp.kind.video_packet() {
                let (index, count) = match vp.kind {
                    PacketKind::Media { index, count } => (index, count),
                    // Parameter sets are forwarded (they cost egress
                    // bandwidth) but carry no frame slice.
                    _ => (0, 0),
                };
                let fwd = ForwardPacket {
                    origin: member,
                    stream: vp.stream.0,
                    frame_id: vp.frame_id,
                    index,
                    count,
                    size: vp.size as u32,
                    sent_at: rtp.sent_at,
                    keyframe: matches!(vp.frame_type, FrameType::Key),
                };
                for dest in 0..n_members as MemberId {
                    if dest == member {
                        continue;
                    }
                    if let Transmit::Delivered(at) = sfu.offer_egress(now, fwd.size as usize) {
                        queue.schedule(at, FleetEvent::SfuEgress { conf, dest, fwd });
                    }
                }
            }
        }
        FleetEvent::SfuEgress { conf, dest, fwd } => {
            confs[(conf - base) as usize].members[dest as usize].viewer.on_forward(&fwd);
        }
    }
}

fn process_timer(
    queue: &mut EventQueue<FleetEvent>,
    wheel: &mut TimerWheel<TimerEvent>,
    confs: &mut [ConferenceState],
    base: u32,
    now: SimTime,
    te: TimerEvent,
) {
    let TimerEvent { conf, member, kind } = te;
    let cs = &mut confs[(conf - base) as usize];
    match kind {
        TickKind::Flow(tick) => {
            let m = &mut cs.members[member as usize];
            let (flow, mut net) = m.wire(queue, conf, member);
            let next = flow.on_tick(now, tick, &mut net);
            wheel.schedule(next, te);
            if matches!(tick, Tick::Frame(_)) {
                arm_pacer(wheel, m, conf, member, now);
            }
        }
        TickKind::PacerPoll => {
            let m = &mut cs.members[member as usize];
            if m.pacer_wakeup == Some(now) {
                m.pacer_wakeup = None;
            }
            let (flow, mut net) = m.wire(queue, conf, member);
            flow.drain_pacer(now, &mut net);
            arm_pacer(wheel, m, conf, member, now);
        }
        TickKind::Sbd => {
            let ConferenceState { members, sbd, sbd_groups, sbd_changes, trace, .. } = cs;
            if let Some(d) = sbd {
                d.close_interval();
                if d.intervals_closed() >= SBD_WARMUP_INTERVALS {
                    let groups = d.groups();
                    if groups != *sbd_groups {
                        let scales = d.increase_scales();
                        for (i, m) in members.iter_mut().enumerate() {
                            m.flow.sender.set_increase_scale_all(scales[i]);
                        }
                        let coupled: usize =
                            groups.iter().filter(|g| g.len() > 1).map(|g| g.len()).sum();
                        trace.emit(
                            now,
                            TraceEvent::SbdGroupsChanged {
                                flows: members.len() as u32,
                                groups: groups.len() as u32,
                                coupled: coupled as u32,
                            },
                        );
                        *sbd_groups = groups;
                        *sbd_changes += 1;
                    }
                }
                wheel.schedule(
                    now + d.interval(),
                    TimerEvent { conf, member: 0, kind: TickKind::Sbd },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::new(9, 3);
        cfg.duration = SimDuration::from_secs(6);
        cfg.batch_conferences = 1;
        cfg.trace_conferences = 1;
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn fleet_members_decode_frames_and_fan_out() {
        let report = FleetEngine::new(small_cfg()).run();
        assert_eq!(report.conferences.len(), 3);
        for c in &report.conferences {
            assert_eq!(c.sessions.len(), 3);
            for s in &c.sessions {
                assert!(s.fps > 10.0, "c{} m{} fps {}", s.conf, s.member, s.fps);
                assert!(s.qoe > 0.0 && s.qoe <= 1.0, "qoe {}", s.qoe);
                assert!(s.viewer_pkts > 0, "viewers must receive fan-out");
                assert!(s.viewer_frames > 0, "viewers must complete frames");
            }
            assert!(c.sfu.fanout_pkts > 0);
            assert!(c.sfu.ingress.delivered_pkts > 0);
        }
    }

    #[test]
    fn fold_is_identical_across_shard_counts() {
        let base = FleetEngine::new(small_cfg()).run();
        for shards in [2, 3] {
            let mut cfg = small_cfg();
            cfg.shards = shards;
            let sharded = FleetEngine::new(cfg).run();
            assert_eq!(base.fold_text(), sharded.fold_text(), "shards={shards}");
            assert_eq!(base.sampled_traces, sharded.sampled_traces, "shards={shards}");
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        let mut cfg = small_cfg();
        cfg.shards = 2;
        let a = FleetEngine::new(cfg.clone()).run();
        let b = FleetEngine::new(cfg).run();
        assert_eq!(a.fold_text(), b.fold_text());
        assert_eq!(a.sampled_traces, b.sampled_traces);
    }

    #[test]
    fn batch_size_does_not_change_the_fold() {
        let base = FleetEngine::new(small_cfg()).run();
        let mut cfg = small_cfg();
        cfg.batch_conferences = 8;
        let batched = FleetEngine::new(cfg).run();
        assert_eq!(base.fold_text(), batched.fold_text());
    }

    #[test]
    fn invariants_hold_across_the_fleet() {
        let mut cfg = small_cfg();
        cfg.check_invariants = true;
        let report = FleetEngine::new(cfg).run();
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn tight_bottleneck_couples_members() {
        // Three 2 Mbps members into a 3 Mbps ingress: a standing queue all
        // members share, which SBD should group.
        let mut cfg = FleetConfig::new(3, 3);
        cfg.duration = SimDuration::from_secs(12);
        cfg.bottleneck_ingress_bps = 3_000_000;
        cfg.seed = 7;
        let report = FleetEngine::new(cfg).run();
        let c = &report.conferences[0];
        assert!(
            c.sbd_coupled >= 2,
            "expected a coupled group, got groups={} coupled={} changes={}",
            c.sbd_groups,
            c.sbd_coupled,
            c.sbd_changes
        );
    }

    #[test]
    fn shard_stats_report_occupancy() {
        let report = FleetEngine::new(small_cfg()).run();
        assert_eq!(report.shard_stats.len(), 1);
        let st = &report.shard_stats[0];
        assert!(st.queue_high_water > 0);
        assert!(st.wheel.high_water > 0);
        assert_eq!(st.batches, 3);
    }

    #[test]
    fn qoe_quantiles_are_ordered() {
        let report = FleetEngine::new(small_cfg()).run();
        let q = report.qoe_quantiles();
        for w in q.windows(2) {
            assert!(w[0] <= w[1], "{q:?}");
        }
        assert!(q[0] > 0.0);
    }
}
