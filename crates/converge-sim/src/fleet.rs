//! Fleet-scale session engine: thousands of concurrent conference calls
//! behind SFU bottlenecks.
//!
//! [`Session`](crate::Session) runs one call on its own emulator. A fleet
//! member is the same `Flow` — sender, receiver, pacer, metrics — but its
//! events travel two of a shard's [`EventQueue`]s: uplink and feedback
//! packets in flight in one (arena-backed so memory follows them); pacer,
//! frame, RTCP and SBD ticks in the other, the structure `flow::run_call`
//! keeps its own ticks in. Both loops keep time the same way: at each
//! instant, the packets due and then the ticks due, one at a time. A
//! conference has a few hundred ticks pending at most (some 40 live ones
//! and the stale `PacerPoll`s `arm_pacer` leaves behind); the hierarchical
//! wheel that stood here was built for thousands of sessions sharing it
//! and measured slower (DESIGN §6d). Conferences share no
//! state, so a shard runs them one at a time through those two queues,
//! cleared in between and reused (multiplexing several into one queue
//! measured slower and larger, never different); shards are the workers of
//! the one [`pool`](crate::pool).
//!
//! ## Topology
//!
//! Every conference terminates on an [`SfuNode`]: each member uplinks over
//! its own private multipath access network (two seeded paths by default)
//! into the conference's shared ingress bottleneck; accepted media is
//! observed by an SFU-side receiver (uplink QoE) and fanned out to the
//! other members over the shared egress link as payload-free
//! [`ForwardPacket`] descriptors, which are counted at their viewers and
//! never queued (next section). RTCP feedback travels back over the
//! member's private reverse paths, so every member runs the full
//! sender/receiver/congestion-control pipeline of a normal session.
//!
//! ## A viewer is a sink
//!
//! A fan-out copy is the most numerous thing a conference produces —
//! `N − 1` per accepted uplink packet — and the one thing in it that
//! nothing waits for. A viewer reads no clock, sends nothing back and is
//! looked at once, when the conference is folded into its report; all it
//! keeps is what it was handed and in which order. So a copy is not an
//! event: where the egress link answers `Delivered(at)`, the viewer takes
//! the descriptor at once, provided `at` is before the end of the call.
//! That is the state a queued arrival would have left, for three reasons.
//! *Order*: the egress link is one loss-free, jitter-free FIFO, so arrival
//! times never decrease from one offer to the next and equal ones pop in
//! offer order — each viewer saw its copies in offer order, which is the
//! order it is handed them now. *Cut-off*: the loop runs an event iff its
//! time is before `end`, and `at < end` is that test; since `at` never
//! decreases, what a viewer misses is a suffix of its copies either way.
//! *Isolation*: no other handler reads viewer state, so when within the
//! call a viewer is updated cannot show. The arrival instant is still in
//! hand at that point for any viewer-side latency metric; copies cut off
//! by the end of the call are counted
//! ([`FleetConferenceReport::fanout_in_flight`]).
//!
//! ## Determinism across shard counts
//!
//! Conferences never share a queue or any other state, every seed
//! derives from the global conference and member index, and the pool
//! returns outcomes in conference-index order: the fold is byte-identical
//! for any shard count. Wall-clock numbers never enter
//! [`FleetReport::fold_text`].
//!
//! ## Shared-bottleneck coupling
//!
//! An RFC 8382 skewness-based [`SbdDetector`] per conference samples
//! one-way delay at the ingress bottleneck and groups members whose OWD
//! signatures match; grouped members have their congestion-controller
//! increase step scaled by `1/group_size` (coupled growth), emitting
//! [`TraceEvent::SbdGroupsChanged`] when the grouping flips.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use converge_cc::{ControllerConfig, SbdDetector};
use converge_net::{
    event::EventQueue, Direction, ForwardPacket, MemberId, Path, PathId, SfuConfig, SfuNode,
    SfuStats, SimDuration, SimTime, TimerWheelStats, Transmit,
};
use converge_trace::{jsonl, InvariantSink, RingSink, TraceEvent, TraceHandle};
use converge_video::{FrameType, PacketKind};

use crate::flow::{capture_format, Flow, Net, Tick};
use crate::metrics::{CallReport, MetricsCollector};
use crate::payload::{NetPayload, SimRtp};
use crate::pool;
use crate::receiver::ConferenceReceiver;
use crate::scenarios::{FecKind, PathSpec, SchedulerKind};
use crate::sender::{ConferenceSender, SenderSizing};

/// Receiver `recent` ring size for fleet members (4 KiB a stream): a hit
/// must equal the full sequence its slot was written for, so the small
/// ring only shortens the FEC horizon (see
/// [`ConferenceReceiver::new_sized`]).
const FLEET_RECENT_SLOTS: usize = 512;

/// Intervals an SBD detector must close before its grouping is applied
/// (RFC 8382 wants a populated observation window before acting).
const SBD_WARMUP_INTERVALS: u64 = 3;

// What every fleet member sends: one 2 Mbps camera stream through the
// Converge scheduler and FEC controller, the default controller (GCC) on
// each path. No run varies these, so they are not configuration.
const STREAMS: u8 = 1;
const MAX_ENCODING_RATE_BPS: u64 = 2_000_000;
const SCHEDULER: SchedulerKind = SchedulerKind::Converge;
const FEC: FecKind = FecKind::Converge;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total concurrent sessions (conference members) across the fleet.
    pub sessions: usize,
    /// Members per conference (≥ 2; the last conference may be smaller).
    pub conference_size: usize,
    /// Worker shards. Each shard owns one reusable packet queue + timer
    /// queue and claims conference batches until none remain.
    pub shards: usize,
    /// Conferences a shard claims from the pool at a time, and nothing
    /// else: each still runs alone. Kept only because
    /// `benchmark/layers/src/sections.rs` assigns it; it goes with the
    /// `[benchmark]` issue (ROADMAP item 5).
    pub batch_conferences: usize,
    /// Call duration.
    pub duration: SimDuration,
    /// Master seed; per-member seeds are split deterministically from it.
    pub seed: u64,
    /// Shared ingress bottleneck rate per conference, bps.
    pub bottleneck_ingress_bps: u64,
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

/// Events in a shard's queue, all of the one conference it is running.
/// Keyed by `(time, seq)` in the queue itself; the payload names the member
/// so processing can route straight to the owning state.
#[derive(Debug)]
enum FleetEvent {
    /// A packet finished crossing one of a member's private paths.
    Deliver {
        member: MemberId,
        path: PathId,
        direction: Direction,
        payload: NetPayload,
    },
    /// An uplink packet cleared the conference's shared ingress
    /// bottleneck and reached the SFU.
    SfuIngress {
        member: MemberId,
        path: PathId,
        rtp: SimRtp,
    },
}

/// Ticks in the shard's timer queue. `Copy` and 8 bytes: an idle member
/// costs its pending ticks (one per stream and three RTCP rounds) and
/// nothing else.
#[derive(Debug, Clone, Copy)]
enum TickKind {
    /// One of the member flow's own ticks.
    Flow(Tick),
    PacerPoll,
    Sbd,
}

#[derive(Debug, Clone, Copy)]
struct TimerEvent {
    member: MemberId,
    kind: TickKind,
}

/// Occupancy counters of one shard's event machinery (satellite
/// telemetry: cheap reads of the high-water accessors, LinkStats-style).
/// The high-water marks are of the largest single conference the shard
/// ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// High-water mark of the event queue's payload arena: uplink
    /// and feedback packets in flight. Fan-out copies are never queued
    /// (see the module doc), so they no longer count here.
    pub queue_high_water: usize,
    /// Load of the timer queue, under the name and type the timer wheel's
    /// counters had (`benchmark/layers` reads `high_water` and `cascades`):
    /// `high_water` is the most ticks ever pending at once; a binary heap
    /// has no cascades and no overflow list, so those two read 0.
    pub wheel: TimerWheelStats,
    /// Conference batches this shard claimed from the pool.
    pub batches: u64,
}

/// Exact work counts of one conference: what its pass put through the
/// shard's two queues and how often a pacer wake-up found nothing to send.
/// Plain integers off the loop itself, so they repeat exactly from run to
/// run and sum in conference order to the same totals on any shard count
/// ([`FleetReport::work_counts_text`]); never part of the fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetWorkCounts {
    /// Ticks scheduled (the timer queue's own count).
    pub timer_scheduled: u64,
    /// Ticks the loop popped and handled.
    pub timer_popped: u64,
    /// Ticks still pending when the call ended.
    pub timer_pending: u64,
    /// Packets scheduled into the packet queue.
    pub queue_scheduled: u64,
    /// Packets popped and handled (scheduled less still queued): the rest
    /// were in flight at the end of the call.
    pub queue_popped: u64,
    /// `PacerPoll` ticks fired.
    pub pacer_polls: u64,
    /// `PacerPoll`s after which the pacer held as many packets as before:
    /// attempted less useful.
    pub pacer_polls_idle: u64,
}

impl FleetWorkCounts {
    fn add(&mut self, other: &FleetWorkCounts) {
        self.timer_scheduled += other.timer_scheduled;
        self.timer_popped += other.timer_popped;
        self.timer_pending += other.timer_pending;
        self.queue_scheduled += other.queue_scheduled;
        self.queue_popped += other.queue_popped;
        self.pacer_polls += other.pacer_polls;
        self.pacer_polls_idle += other.pacer_polls_idle;
    }

    fn line(&self, label: &str) -> String {
        format!(
            "{label}|timer_scheduled={}|timer_popped={}|timer_pending={}|queue_scheduled={}|queue_popped={}|pacer_polls={}|pacer_polls_idle={}\n",
            self.timer_scheduled,
            self.timer_popped,
            self.timer_pending,
            self.queue_scheduled,
            self.queue_popped,
            self.pacer_polls,
            self.pacer_polls_idle,
        )
    }
}

/// One shard's reusable event machinery: the pool's per-worker state. A
/// shard runs many conferences back to back; `reset` clears both queues
/// but keeps their allocations and high-water marks, so arenas are paid
/// for once per shard, not once per conference.
struct ShardCore {
    /// Packets in flight.
    queue: EventQueue<FleetEvent>,
    /// Pending ticks, in the structure `flow::run_call` keeps its own in.
    timers: EventQueue<TimerEvent>,
    batches: u64,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            queue: EventQueue::new(),
            timers: EventQueue::new(),
            batches: 0,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.timers.clear();
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            queue_high_water: self.queue.high_water(),
            wheel: TimerWheelStats {
                pending: self.timers.len() as u64,
                high_water: self.timers.high_water() as u64,
                cascades: 0,
                overflowed: 0,
            },
            batches: self.batches,
        }
    }
}

/// Horizon (in frames) behind the newest seen frame after which stale
/// viewer assembly entries are pruned; late retransmissions land well
/// inside one RTT (~3 frames).
const VIEWER_PRUNE_FRAMES: u64 = 30;

/// Hasher for the assembly map's `(origin, stream, frame)` keys: one
/// rotate-xor-multiply per field. The keys are the simulation's own
/// counters, never outside input, so there is nothing for the default
/// SipHash to defend against; it measured 2.6 % slower on `fleet-sfu`
/// (DESIGN §6d).
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One frame in assembly at a viewer: which of its packets have arrived.
#[derive(Debug)]
struct Assembly {
    /// Received-index bits for indices below 128.
    head: [u64; 2],
    /// The same from index 128 up. Empty, and so unallocated, unless the
    /// frame has more than 128 packets (a keyframe at about four times
    /// the default encoder cap).
    tail: Box<[u64]>,
    /// Packets in the frame, as announced by the first one seen (never 0:
    /// a descriptor with `index >= count` opens no assembly).
    count: u16,
    /// Distinct indices received, counted up to `count`: the frame is
    /// complete, and has been counted, once the two are equal.
    received: u16,
}

impl Assembly {
    fn new(count: u16) -> Self {
        let tail_words = (count as usize).saturating_sub(128).div_ceil(64);
        Assembly {
            head: [0; 2],
            tail: vec![0; tail_words].into(),
            count,
            received: 0,
        }
    }

    /// Records `index`; `true` if that completed the frame. A duplicate,
    /// a packet of a finished frame and an index the bitmap has no bit for
    /// (a later packet announcing a larger `count` than the first) change
    /// nothing.
    fn mark(&mut self, index: u16) -> bool {
        let word = index as usize / 64;
        let slot = match word {
            0 | 1 => &mut self.head[word],
            _ => match self.tail.get_mut(word - 2) {
                Some(slot) => slot,
                None => return false,
            },
        };
        let bit = 1u64 << (index % 64);
        if self.received >= self.count || *slot & bit != 0 {
            return false;
        }
        *slot |= bit;
        self.received += 1;
        self.received >= self.count
    }
}

/// Viewer-side frame reassembly from fan-out descriptors. Each media
/// packet names its `index` of `count` within the frame, so completion is
/// exact: a dup-suppressing bitmap per in-flight frame, pruned behind a
/// fixed horizon so memory stays O(frames in flight), not O(call).
#[derive(Debug, Default)]
struct ViewerState {
    pkts: u64,
    bytes: u64,
    frames_complete: u64,
    /// (origin, stream, frame) → the frame's assembly. Only `entry`,
    /// `len` and `retain` are used, none of which shows the map's order.
    asm: HashMap<(MemberId, u8, u64), Assembly, BuildHasherDefault<KeyHasher>>,
    newest_frame: u64,
}

impl ViewerState {
    fn on_forward(&mut self, fwd: &ForwardPacket) {
        self.pkts += 1;
        self.bytes += fwd.size as u64;
        // No frame slice: parameter sets (count == 0) and malformed
        // descriptors.
        if fwd.index >= fwd.count {
            return;
        }
        let entry = self
            .asm
            .entry((fwd.origin, fwd.stream, fwd.frame_id))
            .or_insert_with(|| Assembly::new(fwd.count));
        if entry.mark(fwd.index) {
            self.frames_complete += 1;
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
    /// Earliest armed pacer wake-up, to keep `PacerPoll`s deduplicated.
    pacer_wakeup: Option<SimTime>,
    viewer: ViewerState,
}

/// The fleet's send seam: a member's private paths, delivering into the
/// shard's event queue.
struct MemberNet<'a> {
    queue: &'a mut EventQueue<FleetEvent>,
    /// Indexed by path id.
    paths: &'a mut [Path],
    member: MemberId,
}

impl Member {
    /// The member's flow alongside the seam it sends through.
    fn wire<'a>(
        &'a mut self,
        queue: &'a mut EventQueue<FleetEvent>,
        member: MemberId,
    ) -> (&'a mut Flow, MemberNet<'a>) {
        (&mut self.flow, MemberNet { queue, paths: &mut self.paths, member })
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
        let member = self.member;
        let p = self
            .paths
            .get_mut(path.index())
            .unwrap_or_else(|| panic!("send on unknown {path}"));
        let offer = p.offer(direction, now, size);
        match offer.fate {
            Transmit::Delivered(at) => {
                // Original before the copy, mirroring the emulator's FIFO
                // tie-break.
                let dup = offer.duplicate.map(|copy_at| (copy_at, payload.clone()));
                self.queue
                    .schedule(at, FleetEvent::Deliver { member, path, direction, payload });
                if let Some((copy_at, copy)) = dup {
                    self.queue.schedule(
                        copy_at,
                        FleetEvent::Deliver { member, path, direction, payload: copy },
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
    sbd: SbdDetector,
    sbd_groups: Vec<Vec<usize>>,
    sbd_changes: u64,
    /// Fan-out copies accepted by the egress link whose arrival fell at or
    /// after the end of the call: delivered by the link, seen by no viewer.
    fanout_in_flight: u64,
    work: FleetWorkCounts,
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
    /// Uplink packets of this member the SFU's ingress link accepted.
    pub uplink_pkts: u64,
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
    /// Fan-out copies still crossing the egress link when the call ended:
    /// `sfu.egress.delivered_pkts` less the sessions' `viewer_pkts`.
    pub fanout_in_flight: u64,
    /// Exact event, tick and pacer-poll counts of the conference's pass.
    pub work: FleetWorkCounts,
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

    /// The work counts of every conference, in conference-index order, and
    /// their sum: like the fold, byte-identical for any shard count.
    pub fn work_counts_text(&self) -> String {
        let mut out = String::new();
        let mut total = FleetWorkCounts::default();
        for c in &self.conferences {
            out.push_str(&c.work.line(&format!("c{}", c.conf)));
            total.add(&c.work);
        }
        out.push_str(&total.line("total"));
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

        // Outcomes come back in batch order, so in conference-index order,
        // whichever shard ran which batch.
        let (batches, cores) =
            pool::run(n_conf.div_ceil(batch), cfg.shards, ShardCore::new, |core, b| {
                let first = b * batch;
                run_batch(core, &cfg, first, batch.min(n_conf - first))
            });

        let mut conferences = Vec::with_capacity(n_conf);
        let mut sampled_traces = Vec::new();
        let mut violations = 0;
        for o in batches.into_iter().flatten() {
            conferences.push(o.report);
            sampled_traces.extend(o.traces);
            violations += o.violations;
        }

        FleetReport {
            sessions: cfg.sessions,
            conference_size: cfg.conference_size,
            shards: cores.len(),
            duration: cfg.duration,
            seed: cfg.seed,
            conferences,
            shard_stats: cores.iter().map(ShardCore::stats).collect(),
            violations,
            sampled_traces,
        }
    }
}

/// Builds one conference's state and schedules its initial timers.
fn build_conference(
    cfg: &FleetConfig,
    conf: u32,
    timers: &mut EventQueue<TimerEvent>,
) -> ConferenceState {
    let n_members = cfg.members_of(conf as usize);
    let format = capture_format();
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
            STREAMS,
            &path_ids,
            SCHEDULER.build(format.frame_interval()),
            FEC.build(),
            ControllerConfig::default(),
            MAX_ENCODING_RATE_BPS,
            SenderSizing::fleet(),
        );
        let receiver = ConferenceReceiver::new_sized(
            STREAMS,
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
            MetricsCollector::new(cfg.duration, format, MAX_ENCODING_RATE_BPS, STREAMS),
            trace,
            SimDuration::from_millis(100),
            SimDuration::from_millis(250),
        );

        // Stagger every member's timers so frames across the fleet do not
        // land on the same instant. Derived from the *global* member
        // index: identical for any shard count.
        let global = conf as u64 * cfg.conference_size as u64 + m as u64;
        let stagger = SimDuration::from_micros((global % 33) * 1_009);
        for (at, tick) in flow.first_ticks(stagger) {
            timers.schedule(at, TimerEvent { member: m, kind: TickKind::Flow(tick) });
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

    let sbd = SbdDetector::new(n_members);
    timers.schedule(
        SimTime::ZERO + SbdDetector::INTERVAL + SimDuration::from_micros((conf as u64 % 97) * 211),
        TimerEvent { member: 0, kind: TickKind::Sbd },
    );
    let trace = members[0].flow.trace.clone();
    ConferenceState {
        members,
        sfu,
        sbd,
        sbd_groups: Vec::new(),
        sbd_changes: 0,
        fanout_in_flight: 0,
        work: FleetWorkCounts::default(),
        trace,
    }
}

/// Runs conferences `[first, first + count)`, one claimed batch, each alone
/// through the shard's two queues.
fn run_batch(
    core: &mut ShardCore,
    cfg: &FleetConfig,
    first: usize,
    count: usize,
) -> Vec<ConferenceOutcome> {
    core.batches += 1;
    (first..first + count).map(|conf| run_conference(core, cfg, conf as u32)).collect()
}

/// Runs one conference to the end of the call and finalizes its report.
fn run_conference(core: &mut ShardCore, cfg: &FleetConfig, conf: u32) -> ConferenceOutcome {
    core.reset();
    let ShardCore { queue, timers, .. } = core;
    let mut cs = build_conference(cfg, conf, timers);

    let end = SimTime::ZERO + cfg.duration;
    let mut clock = SimTime::ZERO;
    // Counted where a tick is handled, so that the timer ledger below
    // compares three independent numbers.
    let mut timer_popped = 0u64;
    loop {
        let now = match (queue.peek_time(), timers.peek_time()) {
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
        // Packets due now, then ticks due now, one at a time, as
        // `flow::run_call` does. Every packet a handler sends arrives
        // strictly after `now` (a link serializes a packet for at least
        // 1 µs), and a tick armed at `now` sorts after every tick already
        // due, so this visits what draining rounds of packets and due
        // batches would.
        while let Some((at, ev)) = queue.pop_due(now) {
            process_event(queue, &mut cs, end, at, ev);
        }
        while let Some((at, te)) = timers.pop_due(now) {
            timer_popped += 1;
            process_timer(queue, timers, &mut cs, at, te);
        }
    }
    cs.work.queue_scheduled = queue.scheduled();
    cs.work.queue_popped = queue.scheduled() - queue.len() as u64;
    cs.work.timer_scheduled = timers.scheduled();
    cs.work.timer_popped = timer_popped;
    cs.work.timer_pending = timers.len() as u64;
    let breaches = if cfg.check_invariants {
        let owed: Vec<TimersOwed> = cs
            .members
            .iter()
            .map(|m| TimersOwed {
                periodic: m.flow.first_ticks(SimDuration::ZERO).count(),
                armed: m.pacer_wakeup,
                pacer_waiting: !m.flow.pacer.is_empty(),
            })
            .collect();
        let pending = std::iter::from_fn(|| timers.pop());
        timer_conservation_breaches(&cs.work, &owed, pending)
    } else {
        0
    };
    finalize_conference(conf, cs, breaches)
}

/// What one member must still hold in the timer queue when its call ends.
struct TimersOwed {
    /// Its periodic ticks: each re-arms itself once per firing, so as many
    /// as `Flow::first_ticks` started.
    periodic: usize,
    /// `Member::pacer_wakeup`.
    armed: Option<SimTime>,
    /// Whether its pacer still holds packets.
    pacer_waiting: bool,
}

/// Timer conservation at the end of a conference, as a count of identities
/// broken: every tick scheduled was popped or is still pending; each member
/// holds exactly its periodic ticks; a pacer that holds packets has a
/// wake-up armed, and the armed wake-up's `PacerPoll` is pending (a lost
/// one would stall the member for good); the conference holds its one SBD
/// tick. `PacerPoll`s other than the armed one are
/// legal: `arm_pacer` arming an earlier wake-up leaves the later one to
/// fire on an idle pacer (`FleetWorkCounts::pacer_polls_idle`).
fn timer_conservation_breaches(
    work: &FleetWorkCounts,
    owed: &[TimersOwed],
    pending: impl Iterator<Item = (SimTime, TimerEvent)>,
) -> usize {
    // Per member: periodic ticks pending, whether the armed poll is.
    let mut held = vec![(0usize, false); owed.len()];
    let mut sbd_ticks = 0;
    for (at, TimerEvent { member, kind }) in pending {
        let m = member as usize;
        match kind {
            TickKind::Flow(_) => held[m].0 += 1,
            TickKind::PacerPoll => held[m].1 |= owed[m].armed == Some(at),
            TickKind::Sbd => sbd_ticks += 1,
        }
    }
    let member_breaches = owed.iter().zip(&held).filter(|(o, &(periodic, armed_pending))| {
        periodic != o.periodic
            || (o.armed.is_some() && !armed_pending)
            || (o.pacer_waiting && o.armed.is_none())
    });
    (work.timer_scheduled != work.timer_popped + work.timer_pending) as usize
        + (sbd_ticks != 1) as usize
        + member_breaches.count()
}

fn finalize_conference(conf: u32, c: ConferenceState, breaches: usize) -> ConferenceOutcome {
    let mut sessions = Vec::with_capacity(c.members.len());
    let mut traces = Vec::new();
    let mut violations = breaches;
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
            uplink_pkts: c.sfu.member_uplink(m as MemberId).0,
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
            fanout_in_flight: c.fanout_in_flight,
            work: c.work,
            sessions,
        },
        traces,
        violations,
    }
}

/// Re-arms the member's pacer wake-up if its next release is earlier than
/// anything already armed.
fn arm_pacer(
    timers: &mut EventQueue<TimerEvent>,
    m: &mut Member,
    member: MemberId,
    now: SimTime,
) {
    if let Some(r) = m.flow.pacer.next_release() {
        let r = r.max(now);
        if m.pacer_wakeup.is_none_or(|w| r < w) {
            timers.schedule(r, TimerEvent { member, kind: TickKind::PacerPoll });
            m.pacer_wakeup = Some(r);
        }
    }
}

fn process_event(
    queue: &mut EventQueue<FleetEvent>,
    cs: &mut ConferenceState,
    end: SimTime,
    now: SimTime,
    ev: FleetEvent,
) {
    let ConferenceState { members, sfu, sbd, fanout_in_flight, .. } = cs;
    match ev {
        FleetEvent::Deliver { member, path, direction, payload } => {
            let m = &mut members[member as usize];
            match (direction, payload) {
                (Direction::Forward, NetPayload::Rtp(rtp)) => {
                    // The uplink packet reached the conference edge: it
                    // now contends for the shared ingress bottleneck.
                    let size = rtp.kind.wire_size();
                    match sfu.offer_ingress(member, now, size) {
                        Transmit::Delivered(at) => {
                            queue.schedule(at, FleetEvent::SfuIngress { member, path, rtp });
                        }
                        _ => {
                            m.flow.metrics.on_packet_lost(path);
                            sbd.on_loss(member as usize);
                        }
                    }
                }
                // Control plane bypasses the media bottleneck (the SFU
                // prioritizes its control queue); feedback and probe
                // echoes come back over the member's private reverse paths.
                (_, payload) => {
                    let (flow, mut net) = m.wire(queue, member);
                    flow.on_delivery(now, path, payload, &mut net);
                }
            }
        }
        FleetEvent::SfuIngress { member, path, rtp } => {
            sbd.on_owd_sample(member as usize, rtp.sent_at, now);
            // What the fan-out forwards: descriptors only, never payload
            // bytes. Built first, since the member's receiver keeps the
            // packet.
            let fwd = rtp.kind.video_packet().map(|vp| {
                let (index, count) = match vp.kind {
                    PacketKind::Media { index, count } => (index, count),
                    // Parameter sets are forwarded (they cost egress
                    // bandwidth) but carry no frame slice.
                    _ => (0, 0),
                };
                ForwardPacket {
                    origin: member,
                    stream: vp.stream.0,
                    frame_id: vp.frame_id,
                    index,
                    count,
                    size: vp.size as u32,
                    sent_at: rtp.sent_at,
                    keyframe: matches!(vp.frame_type, FrameType::Key),
                }
            });
            let (flow, mut net) = members[member as usize].wire(queue, member);
            flow.on_media(now, path, rtp, &mut net);
            // Fan the media out to every other member over the shared
            // egress bottleneck. A copy that will arrive before the call
            // ends is applied to its viewer here (module doc, "A viewer is
            // a sink").
            if let Some(fwd) = fwd {
                for (dest, m) in members.iter_mut().enumerate() {
                    if dest == member as usize {
                        continue;
                    }
                    if let Transmit::Delivered(at) = sfu.offer_egress(now, fwd.size as usize) {
                        if at < end {
                            m.viewer.on_forward(&fwd);
                        } else {
                            *fanout_in_flight += 1;
                        }
                    }
                }
            }
        }
    }
}

fn process_timer(
    queue: &mut EventQueue<FleetEvent>,
    timers: &mut EventQueue<TimerEvent>,
    cs: &mut ConferenceState,
    now: SimTime,
    te: TimerEvent,
) {
    let TimerEvent { member, kind } = te;
    match kind {
        TickKind::Flow(tick) => {
            let m = &mut cs.members[member as usize];
            let (flow, mut net) = m.wire(queue, member);
            let next = flow.on_tick(now, tick, &mut net);
            timers.schedule(next, te);
            if matches!(tick, Tick::Frame(_)) {
                arm_pacer(timers, m, member, now);
            }
        }
        TickKind::PacerPoll => {
            let m = &mut cs.members[member as usize];
            if m.pacer_wakeup == Some(now) {
                m.pacer_wakeup = None;
            }
            let held = m.flow.pacer.len();
            let (flow, mut net) = m.wire(queue, member);
            flow.drain_pacer(now, &mut net);
            cs.work.pacer_polls += 1;
            cs.work.pacer_polls_idle += (m.flow.pacer.len() == held) as u64;
            arm_pacer(timers, m, member, now);
        }
        TickKind::Sbd => {
            let ConferenceState { members, sbd, sbd_groups, sbd_changes, trace, .. } = cs;
            sbd.close_interval();
            if sbd.intervals_closed() >= SBD_WARMUP_INTERVALS {
                let groups = sbd.groups();
                if groups != *sbd_groups {
                    let scales = sbd.increase_scales();
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
            let next = TimerEvent { member: 0, kind: TickKind::Sbd };
            timers.schedule(now + SbdDetector::INTERVAL, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The assembly as it was before the hash map: the same per-packet
    /// steps over a `BTreeMap`, kept as the reference the map's `entry`,
    /// `len` and `retain` are compared with.
    #[derive(Default)]
    struct TreeViewerState {
        pkts: u64,
        bytes: u64,
        frames_complete: u64,
        asm: BTreeMap<(MemberId, u8, u64), Assembly>,
        newest_frame: u64,
    }

    impl TreeViewerState {
        fn on_forward(&mut self, fwd: &ForwardPacket) {
            self.pkts += 1;
            self.bytes += fwd.size as u64;
            if fwd.index >= fwd.count {
                return;
            }
            let entry = self
                .asm
                .entry((fwd.origin, fwd.stream, fwd.frame_id))
                .or_insert_with(|| Assembly::new(fwd.count));
            if entry.mark(fwd.index) {
                self.frames_complete += 1;
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

    fn fwd(origin: MemberId, frame_id: u64, index: u16, count: u16) -> ForwardPacket {
        ForwardPacket {
            origin,
            stream: 0,
            frame_id,
            index,
            count,
            size: 1_200,
            sent_at: SimTime::ZERO,
            keyframe: false,
        }
    }

    #[test]
    fn viewer_completes_a_200_packet_keyframe() {
        let mut v = ViewerState::default();
        // Everything but packet 150, packet 199 twice.
        for index in (0..200).filter(|&i| i != 150).chain([199]) {
            v.on_forward(&fwd(1, 7, index, 200));
        }
        assert_eq!((v.pkts, v.frames_complete), (200, 0), "199 distinct of 200");
        // Later frames pass by before the missing packet is repaired.
        for frame_id in 8..12 {
            v.on_forward(&fwd(1, frame_id, 0, 1));
        }
        assert_eq!(v.frames_complete, 4);
        v.on_forward(&fwd(1, 7, 150, 200));
        assert_eq!(v.frames_complete, 5, "the late packet completes the keyframe");
        v.on_forward(&fwd(1, 7, 150, 200));
        v.on_forward(&fwd(1, 7, 3, 200));
        assert_eq!((v.pkts, v.frames_complete), (207, 5), "a finished frame counts once");
    }

    #[test]
    fn malformed_descriptors_count_as_packets_only() {
        let mut v = ViewerState::default();
        v.on_forward(&fwd(0, 1, 0, 0));
        v.on_forward(&fwd(0, 1, 5, 5));
        v.on_forward(&fwd(0, 1, 300, 2));
        assert_eq!((v.pkts, v.bytes, v.frames_complete), (3, 3_600, 0));
        assert!(v.asm.is_empty(), "no frame slice, no assembly entry");
        // A later packet announcing a longer frame than the first did has
        // no bit to set and cannot complete it.
        v.on_forward(&fwd(0, 2, 0, 2));
        v.on_forward(&fwd(0, 2, 190, 200));
        assert_eq!(v.frames_complete, 0);
        v.on_forward(&fwd(0, 2, 1, 2));
        assert_eq!(v.frames_complete, 1);
    }

    /// The hash-map assembly against the tree it replaced, packet by
    /// packet, over scripts made of what a viewer can be sent: interleaved
    /// origins and frames, duplicates, packets far behind the newest frame
    /// (behind the prune horizon, so their entry is re-created), whole
    /// frames sent again after being pruned, parameter sets, indices past
    /// `count` and past 128, long keyframes, and jumps of the frame counter
    /// (each of which makes hundreds of entries stale at once).
    #[test]
    fn viewer_assembly_matches_the_btreemap_reference() {
        let (mut pruned, mut completed, mut long_completed) = (0u64, 0u64, 0u64);
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xf1ee7 + seed);
            let origins = 2 + (seed % 7) as MemberId;
            let mut head = vec![400u64; origins as usize];
            let (mut new, mut tree) = (ViewerState::default(), TreeViewerState::default());
            for step in 0..20_000u32 {
                let origin = rng.gen_range(0..origins);
                let newest = &mut head[origin as usize];
                let roll = rng.gen_range(0..1000u32);
                let frame_id = match roll {
                    0..=1 => {
                        *newest += rng.gen_range(300..5_000);
                        *newest
                    }
                    2..=149 => {
                        *newest += 1;
                        *newest
                    }
                    150..=249 => *newest - rng.gen_range(31..=400),
                    _ => *newest - rng.gen_range(0..12),
                };
                // A frame's length is a function of its id, as on the wire.
                let count = match frame_id % 37 {
                    0 => 129 + (frame_id % 131) as u16,
                    1..=3 => 1,
                    n => 2 + n as u16,
                };
                let whole = roll % 16 == 0 || (count > 128 && roll % 2 == 0);
                let burst = if whole { count } else { 1 };
                for i in 0..burst {
                    let mut p = fwd(origin, frame_id, rng.gen_range(0..count), count);
                    p.stream = (frame_id % 2) as u8;
                    p.size = rng.gen_range(40..1_500);
                    match rng.gen_range(0..if burst > 1 { 2_048u32 } else { 64 }) {
                        0 => p.count = 0,
                        1 => p.index = count + rng.gen_range(0..4),
                        2 => p.index = 128 + rng.gen_range(0..300),
                        3 => p.count = count + 70,
                        _ if burst > 1 => p.index = i,
                        _ => {}
                    }
                    let before = (new.asm.len(), new.frames_complete);
                    new.on_forward(&p);
                    tree.on_forward(&p);
                    assert_eq!(
                        (new.pkts, new.bytes, new.frames_complete, new.newest_frame),
                        (tree.pkts, tree.bytes, tree.frames_complete, tree.newest_frame),
                        "seed {seed} step {step}: {p:?}"
                    );
                    assert_eq!(new.asm.len(), tree.asm.len(), "seed {seed} step {step}");
                    pruned += (new.asm.len() < before.0) as u64;
                    completed += new.frames_complete - before.1;
                    long_completed += (new.frames_complete > before.1 && count > 128) as u64;
                }
            }
            assert!(tree.asm.keys().all(|k| new.asm.contains_key(k)), "seed {seed}");
        }
        assert!(
            pruned > 100 && completed > 5_000 && long_completed > 100,
            "{pruned} prunes, {completed} frames completed, {long_completed} of them long"
        );
    }

    /// Nothing vanishes at the SFU: every copy offered to the egress link
    /// was delivered or dropped by it, every delivered copy reached a
    /// viewer or was still in flight at the end, and every packet the
    /// ingress link delivered is on some member's uplink count.
    fn assert_sfu_conservation(report: &FleetReport) {
        for c in &report.conferences {
            let sfu = &c.sfu;
            let sum = |f: fn(&FleetSessionReport) -> u64| c.sessions.iter().map(f).sum::<u64>();
            assert_eq!(
                sfu.fanout_pkts,
                sfu.egress.delivered_pkts + sfu.egress.queue_drops,
                "c{}: fan-out copies",
                c.conf
            );
            assert_eq!(sfu.ingress.delivered_pkts, sum(|s| s.uplink_pkts), "c{}: uplink", c.conf);
            assert_eq!(
                sum(|s| s.viewer_pkts),
                sfu.egress.delivered_pkts - c.fanout_in_flight,
                "c{}: viewers",
                c.conf
            );
        }
    }

    #[test]
    fn sfu_conserves_packets_up_to_the_end_of_the_call() {
        let whole = FleetEngine::new(small_cfg()).run();
        assert_sfu_conservation(&whole);
        // A call that ends between two frame ticks, at conferences of 8
        // and in one multi-conference batch: copies are in flight at the
        // cut and must be counted as such, not as seen.
        let mut cfg = FleetConfig::new(20, 8);
        cfg.duration = SimDuration::from_micros(2_512_345);
        cfg.batch_conferences = 3;
        cfg.seed = 29;
        let cut = FleetEngine::new(cfg).run();
        assert_sfu_conservation(&cut);
        let in_flight: u64 = cut.conferences.iter().map(|c| c.fanout_in_flight).sum();
        assert!(in_flight > 0, "the cut must land mid-fan-out");
    }

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

    /// Each identity of the timer-conservation check, broken alone, is one
    /// breach; a `PacerPoll` left behind by an earlier re-arm is none.
    #[test]
    fn timer_conservation_counts_each_broken_identity() {
        let at = SimTime::from_millis;
        let tick = |member, kind| TimerEvent { member, kind };
        let frame = TickKind::Flow(Tick::Frame(0));
        let owed = || {
            vec![
                TimersOwed { periodic: 2, armed: Some(at(7)), pacer_waiting: true },
                TimersOwed { periodic: 1, armed: None, pacer_waiting: false },
            ]
        };
        let pending = || {
            vec![
                (at(5), tick(0, frame)),
                (at(6), tick(0, TickKind::Flow(Tick::SenderRtcp))),
                (at(7), tick(0, TickKind::PacerPoll)),
                (at(9), tick(0, TickKind::PacerPoll)),
                (at(5), tick(1, frame)),
                (at(8), tick(0, TickKind::Sbd)),
            ]
        };
        let work = FleetWorkCounts {
            timer_scheduled: 100,
            timer_popped: 94,
            timer_pending: 6,
            ..Default::default()
        };
        let check = |work: &FleetWorkCounts, owed: &[TimersOwed], pending: Vec<_>| {
            timer_conservation_breaches(work, owed, pending.into_iter())
        };
        assert_eq!(check(&work, &owed(), pending()), 0, "a stale poll at 9 ms is legal");

        let miscounted = FleetWorkCounts { timer_popped: 93, ..work };
        assert_eq!(check(&miscounted, &owed(), pending()), 1, "a tick vanished");
        let mut undetected = pending();
        undetected.remove(5);
        assert_eq!(check(&work, &owed(), undetected), 1, "the SBD tick is not pending");
        let mut lost = pending();
        lost.remove(4);
        assert_eq!(check(&work, &owed(), lost), 1, "member 1 lost its frame tick");
        let mut doubled = pending();
        doubled.push((at(6), tick(1, frame)));
        assert_eq!(check(&work, &owed(), doubled), 1, "member 1 holds one too many");
        let mut unwoken = pending();
        unwoken.remove(2);
        assert_eq!(check(&work, &owed(), unwoken), 1, "the armed poll is not pending");
        let mut unarmed = owed();
        unarmed[1].pacer_waiting = true;
        assert_eq!(check(&work, &unarmed, pending()), 1, "packets wait, nothing armed");
    }

    #[test]
    fn tight_bottleneck_couples_members() {
        // Three 2 Mbps members into a 3 Mbps ingress: while their rates
        // ramp past it they share a standing queue, which SBD should
        // group. Once the controllers have backed off the queue drains and
        // the group dissolves again, so the end-of-call grouping says
        // nothing: look for the group in the conference's timeline.
        let mut cfg = FleetConfig::new(3, 3);
        cfg.duration = SimDuration::from_secs(12);
        cfg.bottleneck_ingress_bps = 3_000_000;
        cfg.seed = 7;
        cfg.trace_conferences = 1;
        let report = FleetEngine::new(cfg).run();
        let (_, timeline) = &report.sampled_traces[0];
        let most_coupled = timeline
            .lines()
            .filter(|l| l.contains("\"event\":\"sbd_groups_changed\""))
            .filter_map(|l| l.rsplit_once("\"coupled\":")?.1.trim_end_matches('}').parse::<u32>().ok())
            .max();
        let c = &report.conferences[0];
        assert!(
            most_coupled >= Some(2),
            "expected a coupled group during the call, got {most_coupled:?}; at the end groups={} coupled={} changes={}",
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

    /// Conferences never share a queue, so a shard's high-water marks are
    /// those of its largest single conference, however many it claims at a
    /// time.
    #[test]
    fn occupancy_does_not_depend_on_the_claim_granule() {
        let marks = |batch: usize| {
            let mut cfg = FleetConfig::new(15, 3);
            cfg.duration = SimDuration::from_secs(3);
            cfg.batch_conferences = batch;
            let st = FleetEngine::new(cfg).run().shard_stats[0];
            ((st.queue_high_water, st.wheel.high_water), st.batches)
        };
        let (alone, batches) = marks(1);
        assert_eq!(batches, 5);
        assert_eq!((alone, 2), marks(3));
        assert_eq!((alone, 1), marks(5), "all five conferences in one claim");
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
