//! Fleet-scale session engine: thousands of concurrent conference calls
//! behind SFU bottlenecks.
//!
//! [`Session`](crate::Session) runs one call on its own emulator. A fleet
//! member is the same `Flow` — sender, receiver, pacer, metrics — run by
//! the same loop, `flow::run_flows`; only the network behind the loop's
//! seam differs. A conference's network is its members' private paths,
//! one of a shard's two [`EventQueue`]s for the uplink and feedback
//! packets in flight (arena-backed so memory follows them), the SFU with
//! its viewers, and the SBD detector, whose interval closes as one more
//! instant of that network. The other queue holds the members' frame and
//! RTCP ticks, and nothing else. Conferences share no state, so a shard
//! runs them one at a time through those two queues, cleared in between
//! and reused (multiplexing several into one queue measured slower and
//! larger, never different); shards are the workers of the one [`pool`].
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

use std::sync::Arc;

use converge_cc::{ControllerConfig, SbdDetector};
use converge_net::{
    event::EventQueue, Direction, ForwardPacket, MemberId, Path, PathId, SfuConfig, SfuNode,
    SfuStats, SimDuration, SimTime, Transmit,
};
use converge_trace::{InvariantSink, TraceEvent, TraceHandle};
use converge_video::{PacketKind, CAPTURE_FORMAT};

use crate::flow::{run_flows, Flow, Net, Network, Scratch, Tick};
use crate::metrics::{CallReport, MetricsCollector};
use crate::payload::{NetPayload, SimRtp};
use crate::pool;
use crate::receiver::ConferenceReceiver;
use crate::scenarios::{FecKind, PathSpec, ScenarioConfig, SchedulerKind};
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

/// Every member's access network: a WiFi-like and a cellular-like path,
/// both constant-rate with light random loss. Constant rates keep
/// per-packet cost minimal at fleet scale; variation comes from cross-
/// member contention at the shared bottleneck. Each member builds its own
/// links from it with its own seed.
fn access_network() -> ScenarioConfig {
    ScenarioConfig {
        name: "fleet-access".into(),
        paths: vec![
            PathSpec::constant(6_000_000, 15, 0.1),
            PathSpec::constant(4_000_000, 35, 0.2),
        ],
    }
}

/// Events in a shard's queue, all of the one conference it is running.
/// Keyed by `(time, seq)` in the queue itself; the payload names the member
/// so processing can route straight to the owning state.
#[derive(Debug, Clone)]
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
    /// Load of the timer queue, under the field name `benchmark/layers`
    /// reads.
    pub wheel: TimerStats,
}

/// Load counters of a shard's timer queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerStats {
    /// The most ticks ever pending at once.
    pub high_water: u64,
    /// Always 0: a binary heap has no cascades.
    pub cascades: u64,
}

/// Exact work counts of one conference: what its pass put through the
/// shard's two queues. Plain integers off the loop itself, so they repeat
/// exactly from run to run and sum in conference order to the same totals
/// on any shard count ([`FleetReport::work_counts_text`]); never part of
/// the fold.
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
}

impl FleetWorkCounts {
    fn add(&mut self, other: &FleetWorkCounts) {
        self.timer_scheduled += other.timer_scheduled;
        self.timer_popped += other.timer_popped;
        self.timer_pending += other.timer_pending;
        self.queue_scheduled += other.queue_scheduled;
        self.queue_popped += other.queue_popped;
    }

    fn line(&self, label: &str) -> String {
        format!(
            "{label}|timer_scheduled={}|timer_popped={}|timer_pending={}|queue_scheduled={}|queue_popped={}\n",
            self.timer_scheduled,
            self.timer_popped,
            self.timer_pending,
            self.queue_scheduled,
            self.queue_popped,
        )
    }
}

/// One shard's reusable event machinery: the pool's per-worker state. A
/// shard runs many conferences back to back; `reset` clears both queues
/// but keeps their allocations and high-water marks, so arenas are paid
/// for once per shard, not once per conference. So are the call loop's
/// working buffers, which every member of every conference the shard runs
/// borrows in turn.
struct ShardCore {
    /// Packets in flight.
    queue: EventQueue<FleetEvent>,
    /// Pending ticks, keyed by member: the queue `flow::run_flows` pops.
    timers: EventQueue<(usize, Tick)>,
    scratch: Scratch,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            queue: EventQueue::new(),
            timers: EventQueue::new(),
            scratch: Scratch::default(),
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.timers.clear();
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            queue_high_water: self.queue.high_water(),
            wheel: TimerStats {
                high_water: self.timers.high_water() as u64,
                cascades: 0,
            },
        }
    }
}

/// Horizon (in frames) behind the newest seen frame after which stale
/// viewer assembly entries are pruned; late retransmissions land well
/// inside one RTT (~3 frames).
const VIEWER_PRUNE_FRAMES: u64 = 30;

/// Bits of a packed [`AsmKey`] below the frame id: the origin member's 16,
/// then the stream's 8.
const KEY_FRAME_SHIFT: u32 = 24;

/// A viewer assembly key, `(origin, stream, frame)` packed into one word:
/// the frame id in the top 40 bits (2^40 frames is over a thousand years
/// of 30 fps video), then the origin, then the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AsmKey(u64);

impl AsmKey {
    /// # Panics
    /// Panics if `frame` needs more than 40 bits.
    fn new(origin: MemberId, stream: u8, frame: u64) -> Self {
        assert!(
            frame >> (64 - KEY_FRAME_SHIFT) == 0,
            "frame {frame} is past the 40 bits of a viewer assembly key"
        );
        AsmKey(frame << KEY_FRAME_SHIFT | u64::from(origin) << 8 | u64::from(stream))
    }

    fn frame(self) -> u64 {
        self.0 >> KEY_FRAME_SHIFT
    }
}

/// One frame in assembly at a viewer: which of its packets have arrived.
#[derive(Debug, Clone, Copy)]
struct Assembly {
    key: AsmKey,
    /// Received-index bits for indices below 128. The rest, for a frame of
    /// more packets than that, are in [`AssemblyTable::tails`].
    head: [u64; 2],
    /// Packets in the frame, as announced by the first one seen. Never 0
    /// in a held entry (a descriptor with `index >= count` opens no
    /// assembly), so 0 marks an empty slot.
    count: u16,
    /// Distinct indices received, counted up to `count`: the frame is
    /// complete, and has been counted, once the two are equal.
    received: u16,
}

// The point of the slot is its size: the key, the head bits and the two
// counts, with the rare tail bitmap out of line.
const _: () = assert!(std::mem::size_of::<Assembly>() == 32);

impl Assembly {
    const EMPTY: Assembly = Assembly {
        key: AsmKey(0),
        head: [0; 2],
        count: 0,
        received: 0,
    };

    /// Tail bitmap words of a frame of `count` packets: one bit per index
    /// from 128 up, rounded up to whole words.
    fn tail_words(count: u16) -> usize {
        (count as usize).saturating_sub(128).div_ceil(64)
    }
}

/// Slots a viewer's table starts with (11 KiB). The prune rule holds a
/// viewer to about 257 frames in assembly while its newest frame advances
/// (270 at most in the `fleet-sfu` benchmark's conferences, a load of
/// 0.77), under the 308 at which the table would grow.
const ASM_SLOTS: usize = 352;

/// The viewer's frames in assembly: a map from [`AsmKey`] to
/// [`Assembly`], open-addressed with linear probing in one slice of slots
/// that grows only past a load of 7/8. Only `mark`, `len` and
/// `retain_frames_from` are needed, none of which shows an order.
#[derive(Debug)]
struct AssemblyTable {
    slots: Box<[Assembly]>,
    len: usize,
    /// Index bits from 128 up of each held frame of more packets than
    /// that, by key: out of line, since only a keyframe at about four
    /// times the encoder cap has any.
    tails: Vec<(AsmKey, Box<[u64]>)>,
}

impl Default for AssemblyTable {
    fn default() -> Self {
        AssemblyTable {
            slots: vec![Assembly::EMPTY; ASM_SLOTS].into_boxed_slice(),
            len: 0,
            tails: Vec::new(),
        }
    }
}

impl AssemblyTable {
    fn len(&self) -> usize {
        self.len
    }

    /// The slot `key`'s probe starts from: the high bits of a
    /// multiplicative hash, scaled to the table.
    fn home(&self, key: AsmKey) -> usize {
        let hash = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((hash as u128 * self.slots.len() as u128) >> 64) as usize
    }

    fn next(&self, at: usize) -> usize {
        if at + 1 == self.slots.len() {
            0
        } else {
            at + 1
        }
    }

    /// The slot holding `key`, opened for a frame of `count` packets if
    /// there was none.
    fn entry(&mut self, key: AsmKey, count: u16) -> usize {
        let mut at = self.home(key);
        loop {
            let slot = &self.slots[at];
            if slot.count == 0 {
                break;
            }
            if slot.key == key {
                return at;
            }
            at = self.next(at);
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
            return self.entry(key, count);
        }
        self.slots[at] = Assembly {
            key,
            count,
            ..Assembly::EMPTY
        };
        self.len += 1;
        if count > 128 {
            let words = Assembly::tail_words(count);
            self.tails.push((key, vec![0; words].into_boxed_slice()));
        }
        at
    }

    fn grow(&mut self) {
        let grown = vec![Assembly::EMPTY; self.slots.len() * 2].into_boxed_slice();
        let held = std::mem::replace(&mut self.slots, grown);
        for &slot in held.iter().filter(|s| s.count != 0) {
            self.place(slot);
        }
    }

    /// Puts `slot` at the first empty slot from its home.
    fn place(&mut self, slot: Assembly) {
        let mut at = self.home(slot.key);
        while self.slots[at].count != 0 {
            at = self.next(at);
        }
        self.slots[at] = slot;
    }

    /// Records packet `index` of a frame of `count` (opening its entry if
    /// needed); `true` if that completed the frame. A duplicate, a packet
    /// of a finished frame and an index the bitmap has no bit for (a later
    /// packet announcing a larger `count` than the first) change nothing.
    fn mark(&mut self, key: AsmKey, count: u16, index: u16) -> bool {
        let at = self.entry(key, count);
        let AssemblyTable { slots, tails, .. } = self;
        let entry = &mut slots[at];
        let word = index as usize / 64;
        let bits = match word {
            0 | 1 => &mut entry.head[word],
            _ => {
                let tail = tails.iter_mut().find(|(k, _)| *k == key);
                match tail.and_then(|(_, bits)| bits.get_mut(word - 2)) {
                    Some(bits) => bits,
                    None => return false,
                }
            }
        };
        let bit = 1u64 << (index % 64);
        if entry.received >= entry.count || *bits & bit != 0 {
            return false;
        }
        *bits |= bit;
        entry.received += 1;
        entry.received >= entry.count
    }

    /// Drops every frame older than `horizon` in one pass that leaves no
    /// tombstone. The pass starts after an empty slot, so it meets each
    /// probe run from its start; once a run has lost an entry, every kept
    /// entry after the gap is put back at the first empty slot from its
    /// home. That slot is at or before the one it came from, and every
    /// slot between is already settled. A run that lost nothing is left as
    /// it is.
    fn retain_frames_from(&mut self, horizon: u64) {
        let empty = self.slots.iter().position(|s| s.count == 0);
        let mut at = empty.expect("a table never fills past 7/8");
        // Whether the run being walked has lost an entry yet.
        let mut gap = false;
        for _ in 0..self.slots.len() {
            at = self.next(at);
            let slot = self.slots[at];
            if slot.count == 0 {
                gap = false;
            } else if slot.key.frame() < horizon {
                self.slots[at] = Assembly::EMPTY;
                self.len -= 1;
                gap = true;
            } else if gap {
                self.slots[at] = Assembly::EMPTY;
                self.place(slot);
            }
        }
        self.tails.retain(|(key, _)| key.frame() >= horizon);
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
    asm: AssemblyTable,
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
        let key = AsmKey::new(fwd.origin, fwd.stream, fwd.frame_id);
        if self.asm.mark(key, fwd.count, fwd.index) {
            self.frames_complete += 1;
        }
        if fwd.frame_id > self.newest_frame {
            self.newest_frame = fwd.frame_id;
            if self.asm.len() > 256 {
                let horizon = self.newest_frame.saturating_sub(VIEWER_PRUNE_FRAMES);
                self.asm.retain_frames_from(horizon);
            }
        }
    }
}

/// One member beside its uplink flow (member → SFU): the private access
/// paths the flow travels, its invariant checker and its viewer-side state.
struct Member {
    paths: Vec<Path>,
    checker: Option<Arc<InvariantSink>>,
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
        p.offer(direction, now, size)
            .schedule(
                self.queue,
                FleetEvent::Deliver {
                    member,
                    path,
                    direction,
                    payload,
                },
            )
            .is_err()
    }
}

/// One conference's network, the far side of `flow::run_flows`' seam: the
/// members' private paths into the shard's packet queue, the SFU with its
/// viewers, and the SBD detector on the ingress bottleneck.
struct Conference<'q> {
    queue: &'q mut EventQueue<FleetEvent>,
    members: Vec<Member>,
    sfu: SfuNode,
    sbd: SbdDetector,
    /// When the SBD detector's current interval closes.
    sbd_at: SimTime,
    sbd_groups: Vec<Vec<usize>>,
    sbd_changes: u64,
    /// Fan-out copies accepted by the egress link whose arrival fell at or
    /// after the end of the call: delivered by the link, seen by no viewer.
    fanout_in_flight: u64,
    end: SimTime,
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
    /// Exact packet and tick counts of the conference's pass.
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
        let access = access_network();

        // Outcomes come back in batch order, so in conference-index order,
        // whichever shard ran which batch. A batch's conferences each run
        // alone through the shard's two queues.
        let (batches, cores) = pool::run(
            n_conf.div_ceil(batch),
            cfg.shards,
            ShardCore::new,
            |core, b| {
                let confs = b * batch..((b + 1) * batch).min(n_conf);
                confs
                    .map(|conf| run_conference(core, &cfg, &access, conf as u32))
                    .collect::<Vec<_>>()
            },
        );

        let mut conferences = Vec::with_capacity(n_conf);
        let mut violations = 0;
        for o in batches.into_iter().flatten() {
            conferences.push(o.report);
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
        }
    }
}

/// Builds one conference's flows and network over the shard's packet
/// queue, each member's paths from `access`, and schedules the flows'
/// first ticks.
fn build_conference<'q>(
    cfg: &FleetConfig,
    access: &ScenarioConfig,
    conf: u32,
    queue: &'q mut EventQueue<FleetEvent>,
    timers: &mut EventQueue<(usize, Tick)>,
) -> (Vec<Flow>, Conference<'q>) {
    let n_members = cfg.members_of(conf as usize);
    let mut sfu = SfuNode::new(SfuConfig::for_bottleneck(
        cfg.bottleneck_ingress_bps,
        n_members.saturating_sub(1),
    ));

    let mut flows = Vec::with_capacity(n_members);
    let mut members = Vec::with_capacity(n_members);
    for m in 0..n_members as MemberId {
        let paths = access.build_paths(member_seed(cfg.seed, conf, m));
        let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
        sfu.register_member(&path_ids);

        let sender = ConferenceSender::new_sized(
            STREAMS,
            &path_ids,
            SCHEDULER.build(CAPTURE_FORMAT.frame_interval()),
            FEC.build(),
            ControllerConfig::default(),
            MAX_ENCODING_RATE_BPS,
            SenderSizing::fleet(),
        );
        let receiver = ConferenceReceiver::new_sized(
            STREAMS,
            &path_ids,
            CAPTURE_FORMAT.fps,
            path_ids[0],
            FLEET_RECENT_SLOTS,
        );

        let checker = cfg.check_invariants.then(|| Arc::new(InvariantSink::new()));
        let trace = match &checker {
            Some(checker) => TraceHandle::new(checker.clone()),
            None => TraceHandle::disabled(),
        };
        let flow = Flow::new(
            sender,
            receiver,
            MetricsCollector::new(cfg.duration, CAPTURE_FORMAT, MAX_ENCODING_RATE_BPS, STREAMS),
            trace,
        );

        // Stagger every member's timers so frames across the fleet do not
        // land on the same instant. Derived from the *global* member
        // index: identical for any shard count.
        let global = conf as u64 * cfg.conference_size as u64 + m as u64;
        let stagger = SimDuration::from_micros((global % 33) * 1_009);
        for (at, tick) in flow.first_ticks(stagger) {
            timers.schedule(at, (m as usize, tick));
        }

        flows.push(flow);
        members.push(Member {
            paths,
            checker,
            viewer: ViewerState::default(),
        });
    }

    let trace = flows[0].trace.clone();
    let conference = Conference {
        queue,
        members,
        sfu,
        sbd: SbdDetector::new(n_members),
        sbd_at: SimTime::ZERO
            + SbdDetector::INTERVAL
            + SimDuration::from_micros((conf as u64 % 97) * 211),
        sbd_groups: Vec::new(),
        sbd_changes: 0,
        fanout_in_flight: 0,
        end: SimTime::ZERO + cfg.duration,
        trace,
    };
    (flows, conference)
}

/// Runs one conference through the call loop to the end of the call and
/// finalizes its report.
fn run_conference(
    core: &mut ShardCore,
    cfg: &FleetConfig,
    access: &ScenarioConfig,
    conf: u32,
) -> ConferenceOutcome {
    core.reset();
    let ShardCore {
        queue,
        timers,
        scratch,
    } = core;
    let (mut flows, mut conference) = build_conference(cfg, access, conf, queue, timers);
    let end = conference.end;
    let fired = run_flows(&mut flows, &mut conference, timers, end, scratch);

    let queue = &conference.queue;
    let work = FleetWorkCounts {
        timer_scheduled: timers.scheduled(),
        timer_popped: fired,
        timer_pending: timers.len() as u64,
        queue_scheduled: queue.scheduled(),
        queue_popped: queue.scheduled() - queue.len() as u64,
    };
    let breaches = if cfg.check_invariants {
        let periodic: Vec<usize> = flows
            .iter()
            .map(|f| f.first_ticks(SimDuration::ZERO).count())
            .collect();
        timer_conservation_breaches(&work, &periodic, std::iter::from_fn(|| timers.pop()))
    } else {
        0
    };
    finalize_conference(conf, flows, conference, work, breaches)
}

/// Timer conservation at the end of a conference, as a count of identities
/// broken: every tick scheduled was popped or is still pending, and each
/// member holds exactly its `periodic` ticks (each re-arms itself once per
/// firing, so as many as `Flow::first_ticks` started) and nothing else.
fn timer_conservation_breaches(
    work: &FleetWorkCounts,
    periodic: &[usize],
    pending: impl Iterator<Item = (SimTime, (usize, Tick))>,
) -> usize {
    let mut held = vec![0usize; periodic.len()];
    for (_, (member, _)) in pending {
        held[member] += 1;
    }
    (work.timer_scheduled != work.timer_popped + work.timer_pending) as usize
        + periodic
            .iter()
            .zip(&held)
            .filter(|(owed, held)| owed != held)
            .count()
}

fn finalize_conference(
    conf: u32,
    flows: Vec<Flow>,
    c: Conference,
    work: FleetWorkCounts,
    breaches: usize,
) -> ConferenceOutcome {
    let mut sessions = Vec::with_capacity(c.members.len());
    let mut violations = breaches;
    let sfu = c.sfu.stats();
    for (m, (flow, member)) in flows.into_iter().zip(c.members).enumerate() {
        let report = flow.finish();
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
            work,
            sessions,
        },
        violations,
    }
}

impl Network for Conference<'_> {
    type Net<'a>
        = MemberNet<'a>
    where
        Self: 'a;

    /// The next packet arrival or the close of the SBD interval, which
    /// belongs to the ingress bottleneck.
    fn next_arrival(&self) -> Option<SimTime> {
        Some(
            self.queue
                .peek_time()
                .map_or(self.sbd_at, |at| at.min(self.sbd_at)),
        )
    }

    /// The packets due, one at a time (every packet a handler sends
    /// arrives strictly after `now`: a link serializes a packet for at
    /// least 1 µs), then the SBD interval if it closes now.
    fn deliver_due(&mut self, now: SimTime, flows: &mut [Flow], scratch: &mut Scratch) {
        while let Some((at, ev)) = self.queue.pop_due(now) {
            self.process_event(flows, at, ev, scratch);
        }
        if self.sbd_at <= now {
            self.close_sbd_interval(now, flows);
            self.sbd_at = now + SbdDetector::INTERVAL;
        }
    }

    fn net(&mut self, i: usize) -> MemberNet<'_> {
        MemberNet {
            queue: self.queue,
            paths: &mut self.members[i].paths,
            member: i as MemberId,
        }
    }
}

impl Conference<'_> {
    fn process_event(
        &mut self,
        flows: &mut [Flow],
        now: SimTime,
        ev: FleetEvent,
        scratch: &mut Scratch,
    ) {
        let Conference {
            queue,
            members,
            sfu,
            sbd,
            fanout_in_flight,
            end,
            ..
        } = self;
        match ev {
            FleetEvent::Deliver {
                member,
                path,
                direction,
                payload,
            } => {
                let m = member as usize;
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
                                flows[m].metrics.on_packet_lost(path);
                                sbd.on_loss(m);
                            }
                        }
                    }
                    // Control plane bypasses the media bottleneck (the SFU
                    // prioritizes its control queue); feedback and probe
                    // echoes come back over the member's private reverse
                    // paths.
                    (_, payload) => {
                        let mut net = MemberNet {
                            queue,
                            paths: &mut members[m].paths,
                            member,
                        };
                        flows[m].on_delivery(now, path, payload, &mut net, scratch);
                    }
                }
            }
            FleetEvent::SfuIngress { member, path, rtp } => {
                let m = member as usize;
                sbd.on_owd_sample(m, rtp.sent_at, now);
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
                    }
                });
                let mut net = MemberNet {
                    queue,
                    paths: &mut members[m].paths,
                    member,
                };
                flows[m].on_media(now, path, rtp, &mut net, scratch);
                // Fan the media out to every other member over the shared
                // egress bottleneck. A copy that will arrive before the call
                // ends is applied to its viewer here (module doc, "A viewer
                // is a sink").
                if let Some(fwd) = fwd {
                    for (dest, viewer) in members.iter_mut().enumerate() {
                        if dest == m {
                            continue;
                        }
                        if let Transmit::Delivered(at) = sfu.offer_egress(now, fwd.size as usize) {
                            if at < *end {
                                viewer.viewer.on_forward(&fwd);
                            } else {
                                *fanout_in_flight += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Closes the SBD interval and, once warmed up, applies a changed
    /// grouping to the members' controllers.
    fn close_sbd_interval(&mut self, now: SimTime, flows: &mut [Flow]) {
        let Conference {
            sbd,
            sbd_groups,
            sbd_changes,
            trace,
            ..
        } = self;
        sbd.close_interval();
        if sbd.intervals_closed() < SBD_WARMUP_INTERVALS {
            return;
        }
        let groups = sbd.groups();
        if groups == *sbd_groups {
            return;
        }
        for (flow, scale) in flows.iter_mut().zip(sbd.increase_scales()) {
            flow.sender.set_increase_scale_all(scale);
        }
        let coupled: usize = groups.iter().filter(|g| g.len() > 1).map(|g| g.len()).sum();
        trace.emit(
            now,
            TraceEvent::SbdGroupsChanged {
                flows: flows.len() as u32,
                groups: groups.len() as u32,
                coupled: coupled as u32,
            },
        );
        *sbd_groups = groups;
        *sbd_changes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_trace::RingSink;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// The viewer's assembly as a specification: a `BTreeMap` from
    /// `(origin, stream, frame)` to the frame's announced count and the
    /// set of indices received, put through the same per-packet steps, so
    /// the table's `entry`, `len` and pruning are compared with a plain
    /// map's.
    #[derive(Default)]
    struct TreeViewerState {
        pkts: u64,
        bytes: u64,
        frames_complete: u64,
        asm: BTreeMap<(MemberId, u8, u64), (u16, BTreeSet<u16>)>,
        newest_frame: u64,
    }

    impl TreeViewerState {
        fn on_forward(&mut self, fwd: &ForwardPacket) {
            self.pkts += 1;
            self.bytes += fwd.size as u64;
            if fwd.index >= fwd.count {
                return;
            }
            let (count, received) = self
                .asm
                .entry((fwd.origin, fwd.stream, fwd.frame_id))
                .or_insert_with(|| (fwd.count, BTreeSet::new()));
            // A frame has a bit for every index below 128 and, past that,
            // for whole words of 64 up to its announced count.
            let bits = 128 + Assembly::tail_words(*count) * 64;
            if received.len() < *count as usize
                && (fwd.index as usize) < bits
                && received.insert(fwd.index)
                && received.len() == *count as usize
            {
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
        assert_eq!(
            v.frames_complete, 5,
            "the late packet completes the keyframe"
        );
        v.on_forward(&fwd(1, 7, 150, 200));
        v.on_forward(&fwd(1, 7, 3, 200));
        assert_eq!(
            (v.pkts, v.frames_complete),
            (207, 5),
            "a finished frame counts once"
        );
    }

    #[test]
    fn malformed_descriptors_count_as_packets_only() {
        let mut v = ViewerState::default();
        v.on_forward(&fwd(0, 1, 0, 0));
        v.on_forward(&fwd(0, 1, 5, 5));
        v.on_forward(&fwd(0, 1, 300, 2));
        assert_eq!((v.pkts, v.bytes, v.frames_complete), (3, 3_600, 0));
        assert_eq!(v.asm.len(), 0, "no frame slice, no assembly entry");
        // A later packet announcing a longer frame than the first did has
        // no bit to set and cannot complete it.
        v.on_forward(&fwd(0, 2, 0, 2));
        v.on_forward(&fwd(0, 2, 190, 200));
        assert_eq!(v.frames_complete, 0);
        v.on_forward(&fwd(0, 2, 1, 2));
        assert_eq!(v.frames_complete, 1);
    }

    /// Every frame a viewer holds: packed key → (announced count, distinct
    /// indices received).
    type Held = BTreeMap<u64, (u16, u16)>;

    impl AssemblyTable {
        fn held(&self) -> Held {
            let held = self.slots.iter().filter(|s| s.count != 0);
            held.map(|s| (s.key.0, (s.count, s.received))).collect()
        }
    }

    impl TreeViewerState {
        fn held(&self) -> Held {
            let held = self
                .asm
                .iter()
                .map(|(&(origin, stream, frame), (count, received))| {
                    let key = AsmKey::new(origin, stream, frame).0;
                    (key, (*count, received.len() as u16))
                });
            held.collect()
        }
    }

    /// The packed assembly table against the map specification, packet by
    /// packet, over scripts made of what a viewer can be sent: interleaved
    /// origins and frames, duplicates, packets far behind the newest frame
    /// (behind the prune horizon, so their entry is re-created), whole
    /// frames sent again after being pruned, parameter sets, indices past
    /// `count` and past 128, long keyframes, jumps of the frame counter
    /// (each of which makes hundreds of entries stale at once), and a stall
    /// of the newest frame under old frames' packets, which fills the table
    /// past its starting slots.
    #[test]
    fn viewer_assembly_matches_the_btreemap_reference() {
        let (mut pruned, mut completed, mut long_completed) = (0u64, 0u64, 0u64);
        let (mut pruned_at_bound, mut grown) = (0u64, 0u64);
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xf1ee7 + seed);
            let origins = 2 + (seed % 7) as MemberId;
            let mut head = vec![400u64; origins as usize];
            let (mut new, mut tree) = (ViewerState::default(), TreeViewerState::default());
            for step in 0..20_000u32 {
                // A stretch where only the leading origin sends, one new
                // frame a packet: a prune at every 257th entry.
                let leading = (15_000..18_000).contains(&step);
                let origin = match leading {
                    true => (0..origins)
                        .max_by_key(|&o| head[o as usize])
                        .expect("origins"),
                    false => rng.gen_range(0..origins),
                };
                let newest = &mut head[origin as usize];
                let roll = rng.gen_range(0..1000u32);
                let stalled = (10_000..10_400).contains(&step);
                let frame_id = match roll {
                    _ if stalled => *newest - rng.gen_range(0..400),
                    _ if leading => {
                        *newest += 1;
                        *newest
                    }
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
                        (
                            tree.pkts,
                            tree.bytes,
                            tree.frames_complete,
                            tree.newest_frame
                        ),
                        "seed {seed} step {step}: {p:?}"
                    );
                    assert_eq!(new.asm.len(), tree.asm.len(), "seed {seed} step {step}");
                    pruned += (new.asm.len() < before.0) as u64;
                    pruned_at_bound += (new.asm.len() < before.0 && before.0 == 256) as u64;
                    completed += new.frames_complete - before.1;
                    long_completed += (new.frames_complete > before.1 && count > 128) as u64;
                }
                if step % 1_000 == 999 {
                    assert_eq!(new.asm.held(), tree.held(), "seed {seed} step {step}");
                }
            }
            assert_eq!(new.asm.held(), tree.held(), "seed {seed}");
            grown += (new.asm.slots.len() > ASM_SLOTS) as u64;
        }
        assert!(
            pruned > 100 && completed > 5_000 && long_completed > 100,
            "{pruned} prunes, {completed} frames completed, {long_completed} of them long"
        );
        assert!(
            pruned_at_bound > 100 && grown == 8,
            "{pruned_at_bound} prunes at the 257th entry, {grown} of 8 tables grown"
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
            assert_eq!(
                sfu.ingress.delivered_pkts,
                sum(|s| s.uplink_pkts),
                "c{}: uplink",
                c.conf
            );
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

    /// Each identity of the timer-conservation check, broken alone, is one
    /// breach.
    #[test]
    fn timer_conservation_counts_each_broken_identity() {
        let at = SimTime::from_millis;
        let periodic = [2, 1];
        let pending = || {
            vec![
                (at(5), (0, Tick::Frame(0))),
                (at(6), (0, Tick::SenderRtcp)),
                (at(5), (1, Tick::Frame(0))),
            ]
        };
        let work = FleetWorkCounts {
            timer_scheduled: 100,
            timer_popped: 97,
            timer_pending: 3,
            ..Default::default()
        };
        let check = |work: &FleetWorkCounts, pending: Vec<_>| {
            timer_conservation_breaches(work, &periodic, pending.into_iter())
        };
        assert_eq!(check(&work, pending()), 0);

        let miscounted = FleetWorkCounts {
            timer_popped: 96,
            ..work
        };
        assert_eq!(check(&miscounted, pending()), 1, "a tick vanished");
        let mut lost = pending();
        lost.remove(2);
        assert_eq!(check(&work, lost), 1, "member 1 lost its frame tick");
        let mut doubled = pending();
        doubled.push((at(6), (1, Tick::Frame(0))));
        assert_eq!(check(&work, doubled), 1, "member 1 holds one too many");
    }

    #[test]
    fn tight_bottleneck_couples_members() {
        // Three 2 Mbps members into a 3 Mbps ingress: while their rates
        // ramp past it they share a standing queue, which SBD should
        // group. Once the controllers have backed off the queue drains and
        // the group dissolves again, so the end-of-call grouping says
        // nothing: look for the group in the conference's SBD events.
        let mut cfg = FleetConfig::new(3, 3);
        cfg.duration = SimDuration::from_secs(12);
        cfg.bottleneck_ingress_bps = 3_000_000;
        cfg.seed = 7;
        let (mut queue, mut timers) = (EventQueue::new(), EventQueue::new());
        let (mut flows, mut c) =
            build_conference(&cfg, &access_network(), 0, &mut queue, &mut timers);
        let ring = Arc::new(RingSink::new(4096));
        c.trace = TraceHandle::new(ring.clone());
        let end = c.end;
        run_flows(
            &mut flows,
            &mut c,
            &mut timers,
            end,
            &mut Scratch::default(),
        );
        let most_coupled = ring
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::SbdGroupsChanged { coupled, .. } => Some(coupled),
                _ => None,
            })
            .max();
        assert!(
            most_coupled >= Some(2),
            "expected a coupled group during the call, got {most_coupled:?}; at the end groups={:?} changes={}",
            c.sbd_groups,
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
            (st.queue_high_water, st.wheel.high_water)
        };
        let alone = marks(1);
        assert_eq!(alone, marks(3));
        assert_eq!(alone, marks(5), "all five conferences in one claim");
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
