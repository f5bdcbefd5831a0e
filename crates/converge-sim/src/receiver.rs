//! The conference receiver: per-stream packet/frame buffers, FEC recovery,
//! NACK and keyframe-request generation, per-path transport statistics,
//! and the Converge QoE feedback monitor.

use std::collections::{BTreeMap, BTreeSet};

use converge_core::QoeMonitor;
use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::{Nack, Pli, ReceiverReport, ReportBlock, RtcpPacket, TransportFeedback};
use converge_video::{
    FrameBuffer, FrameBufferEvent, PacketBuffer, PacketBufferEvent, PacketKind, StreamId,
    VideoPacket,
};

use crate::gaps::GapTracker;
use crate::payload::{RtpKind, SimRtp};

/// Events the receiver surfaces to the session for metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverEvent {
    /// A frame was decoded; `e2e` is capture-to-decode latency.
    FrameDecoded {
        /// The stream.
        stream: StreamId,
        /// Decode instant.
        at: SimTime,
        /// End-to-end latency (including FEC processing penalty if used).
        e2e: SimDuration,
    },
    /// A frame was abandoned.
    FrameDropped {
        /// The stream the frame belonged to.
        stream: StreamId,
        /// Why (packet-buffer evictions map to `BufferFull`).
        reason: converge_video::DropReason,
    },
    /// An IFD observation.
    Ifd {
        /// Observation time.
        at: SimTime,
        /// The interframe delay.
        ifd: SimDuration,
    },
    /// An FCD observation.
    Fcd {
        /// Observation time.
        at: SimTime,
        /// The frame construction delay.
        fcd: SimDuration,
    },
    /// A FEC packet was used to recover a loss.
    FecRecovered,
    /// A FEC packet arrived.
    FecReceived,
}

/// Per-path receive statistics for one RTCP interval.
#[derive(Debug, Default)]
struct PathRxState {
    /// Highest transport sequence seen.
    max_transport_seq: Option<u64>,
    /// Transport seqs received since the last feedback, with arrival times.
    pending_feedback: Vec<(u64, SimTime)>,
    /// Packets received in the current loss-report interval.
    received_in_interval: u64,
    /// First transport seq of the interval.
    interval_start_seq: Option<u64>,
    /// Cumulative lost estimate.
    cumulative_lost: u64,
    /// RFC 3550 interarrival jitter estimate, microseconds.
    jitter_us: f64,
    /// Transit time (arrival − send) of the previous packet, for the
    /// jitter difference.
    last_transit_us: Option<i64>,
}

impl PathRxState {
    /// Feeds one packet's timing into the RFC 3550 jitter filter:
    /// `J += (|D| − J) / 16` where `D` is the transit-time difference of
    /// consecutive packets.
    fn update_jitter(&mut self, sent_at: SimTime, arrived_at: SimTime) {
        let transit = arrived_at.as_micros() as i64 - sent_at.as_micros() as i64;
        if let Some(prev) = self.last_transit_us {
            let d = (transit - prev).abs() as f64;
            self.jitter_us += (d - self.jitter_us) / 16.0;
        }
        self.last_transit_us = Some(transit);
    }
}

/// Least time between two keyframe requests for one stream.
const PLI_COOLDOWN: SimDuration = SimDuration::from_millis(500);
/// How long a gap must persist before NACKing (reordering tolerance).
const NACK_DELAY: SimDuration = SimDuration::from_millis(60);
/// Decode-pipeline latency applied to every frame.
const DECODE_LATENCY: SimDuration = SimDuration::from_millis(20);
/// Extra latency when a frame needed FEC recovery (paper §2.1: "FEC
/// decoding incurs non-negligible latency").
const FEC_PENALTY: SimDuration = SimDuration::from_millis(10);

/// Slots in the per-stream `recent` ring (a power of two so the index is
/// a mask).
const RECENT_SLOTS: usize = 1 << 12;

/// A [`RecentRing`] slot no media packet has written: no sequence has this
/// tag, so an empty slot never matches, sequence 0 included.
const EMPTY_TAG: u32 = u32::MAX;

/// Recently received media sequences for FEC recovery: a ring indexed by a
/// sequence's low bits, each slot holding the tag (the bits above them) of
/// the newest sequence received with those low bits, or [`EMPTY_TAG`]. A
/// hit is the stored tag equal to the one asked for. Slot and tag together
/// are the whole sequence, so a slot holds in four bytes what it held as a
/// `u64` (and as a 48-byte `Option<VideoPacket>` before that).
///
/// A tag below [`EMPTY_TAG`] bounds the sequences a ring can hold: below
/// `u32::MAX × slots` (1.76 × 10^13 at 4 096 slots).
/// [`RecentRing::insert`] panics past it rather than store a truncated tag.
struct RecentRing(Box<[u32]>);

impl RecentRing {
    /// An empty ring of `slots`, a power of two.
    fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "a recent ring of {slots} slots");
        RecentRing(vec![EMPTY_TAG; slots].into_boxed_slice())
    }

    /// Remembers that `sequence` arrived (or was recovered).
    ///
    /// # Panics
    /// Panics past the bound in the type's docs.
    fn insert(&mut self, sequence: u64) {
        let slots = self.0.len();
        let tag = sequence >> slots.trailing_zeros();
        assert!(
            tag < u64::from(EMPTY_TAG),
            "media sequence {sequence} is past the recent ring's 32-bit tag (u32::MAX × {slots} slots)"
        );
        self.0[sequence as usize & (slots - 1)] = tag as u32;
    }

    /// Whether `sequence` is the newest arrival in its slot.
    fn holds(&self, sequence: u64) -> bool {
        let slots = self.0.len();
        let tag = self.0[sequence as usize & (slots - 1)];
        tag != EMPTY_TAG && u64::from(tag) == sequence >> slots.trailing_zeros()
    }
}

/// Per-stream receive pipeline.
struct StreamRx {
    packet_buffer: PacketBuffer,
    frame_buffer: FrameBuffer,
    monitor: QoeMonitor,
    /// Media sequences missing and still worth a NACK.
    gaps: GapTracker,
    /// Recently received media sequences for FEC recovery, the newest of
    /// each residue modulo [`RECENT_SLOTS`]; recovery rebuilds a missing
    /// packet from its group's `protected` list, so the ring need not keep
    /// packets. Touched on every media arrival; one indexed store replaces
    /// a hash insert plus FIFO eviction with the same ~4 096-sequence
    /// retention horizon, far beyond the frame-scale window FEC groups
    /// actually span.
    recent: RecentRing,
    /// FCD of the last completed frame (paired with the frame-buffer IFD).
    last_fcd: SimDuration,
    /// Frames a FEC-recovered packet went into and that may still decode
    /// (latency penalty applies when they do). Ids the frame buffer has
    /// decoded or given up on are pruned, so the set stays a few frames
    /// deep however long and lossy the call.
    fec_assisted: BTreeSet<u64>,
    /// Whether the decode chain broke and a keyframe is needed.
    keyframe_needed: bool,
    /// When the stream last requested a keyframe (see [`PLI_COOLDOWN`]).
    last_pli: Option<SimTime>,
    /// Packet- and frame-buffer event scratch, reused across packets.
    pb_events: Vec<PacketBufferEvent>,
    fb_events: Vec<FrameBufferEvent>,
}

/// An FEC group waiting for a recovery opportunity.
struct PendingFec {
    stream: StreamId,
    protected: Vec<VideoPacket>,
    arrived_at: SimTime,
    /// Smallest and largest protected media sequence, so an arriving
    /// packet can rule the whole group out with two integer compares
    /// instead of scanning `protected`.
    min_seq: u64,
    max_seq: u64,
}

/// The conference receiver.
pub struct ConferenceReceiver {
    /// Per-stream state, indexed by stream id.
    streams: Vec<StreamRx>,
    /// Per-path transport state, indexed by path id, so RTCP goes out in
    /// path order.
    paths: Vec<PathRxState>,
    pending_fec: Vec<PendingFec>,
    /// Set when the last recovery pass inserted recovered packets into
    /// `recent`: those inserts can complete further (overlapping) groups,
    /// so the next pass must evaluate every group, not just the ones the
    /// triggering packet belongs to.
    fec_full_sweep: bool,
    /// One recovery pass's rebuilt packets and one round's NACK list:
    /// working buffers, kept so neither allocates per packet or per round.
    fec_recovered: Vec<(StreamId, VideoPacket)>,
    nack_list: Vec<u16>,
}

impl ConferenceReceiver {
    /// Creates a receiver for `n_streams` streams over `paths`, expecting
    /// `fps` frames per second per stream.
    pub fn new(n_streams: u8, paths: &[PathId], fps: u32, fast_path: PathId) -> Self {
        Self::new_sized(n_streams, paths, fps, fast_path, RECENT_SLOTS)
    }

    /// Creates a receiver with an explicit per-stream `recent` ring size
    /// (a power of two). Fleet runs shrink the ring: a slot and its tag name
    /// the full sequence it was written for and a hit must equal it, so a
    /// smaller ring only shortens the FEC-recovery horizon, never corrupts
    /// it.
    pub fn new_sized(
        n_streams: u8,
        paths: &[PathId],
        fps: u32,
        fast_path: PathId,
        recent_slots: usize,
    ) -> Self {
        PathId::assert_indexed(paths.iter().copied());
        let streams = (0..n_streams)
            .map(|i| StreamRx {
                packet_buffer: PacketBuffer::new(768),
                frame_buffer: FrameBuffer::new(12),
                monitor: QoeMonitor::new(i as u32, fps, fast_path),
                gaps: GapTracker::default(),
                recent: RecentRing::new(recent_slots),
                last_fcd: SimDuration::ZERO,
                fec_assisted: BTreeSet::new(),
                keyframe_needed: false,
                last_pli: None,
                pb_events: Vec::new(),
                fb_events: Vec::new(),
            })
            .collect();
        ConferenceReceiver {
            streams,
            paths: paths.iter().map(|_| PathRxState::default()).collect(),
            pending_fec: Vec::new(),
            fec_full_sweep: false,
            fec_recovered: Vec::new(),
            nack_list: Vec::new(),
        }
    }

    /// Installs a trace handle on every stream's QoE monitor.
    pub fn set_trace(&mut self, trace: converge_trace::TraceHandle) {
        for rx in &mut self.streams {
            rx.monitor.set_trace(trace.clone());
        }
    }

    /// Handles the sender's SDES frame-rate advertisement.
    pub fn on_sdes_frame_rate(&mut self, fps: u32) {
        for rx in &mut self.streams {
            rx.monitor.set_frame_rate(fps);
        }
    }

    /// Processes one arriving RTP packet; returns receiver events.
    pub fn on_rtp(&mut self, now: SimTime, rtp: &SimRtp) -> Vec<ReceiverEvent> {
        let mut events = Vec::new();
        self.on_rtp_into(now, rtp.clone(), &mut events);
        events
    }

    /// [`ConferenceReceiver::on_rtp`], taking the packet by value (a FEC
    /// packet's `protected` list becomes its pending group's) and
    /// appending the events to `events` so the call loop can reuse one
    /// buffer across packets.
    pub fn on_rtp_into(&mut self, now: SimTime, rtp: SimRtp, events: &mut Vec<ReceiverEvent>) {
        let SimRtp {
            kind,
            path,
            transport_seq,
            sent_at,
        } = rtp;
        // Per-path transport accounting (all RTP kinds count).
        let path_state = &mut self.paths[path.index()];
        path_state.pending_feedback.push((transport_seq, now));
        path_state.received_in_interval += 1;
        path_state.update_jitter(sent_at, now);
        path_state.max_transport_seq = Some(
            path_state
                .max_transport_seq
                .map_or(transport_seq, |m| m.max(transport_seq)),
        );

        match kind {
            RtpKind::Media(p) | RtpKind::Retransmission(p) => {
                self.on_video_packet(now, path, p, events);
            }
            RtpKind::Fec {
                stream, protected, ..
            } => {
                events.push(ReceiverEvent::FecReceived);
                let min_seq = protected.iter().map(|p| p.sequence).min().unwrap_or(0);
                let max_seq = protected.iter().map(|p| p.sequence).max().unwrap_or(0);
                self.pending_fec.push(PendingFec {
                    stream,
                    protected,
                    arrived_at: now,
                    min_seq,
                    max_seq,
                });
                self.try_fec_recovery(now, None, events);
                // Bound memory: drop stale groups.
                self.pending_fec
                    .retain(|g| now.saturating_since(g.arrived_at) < SimDuration::from_secs(2));
            }
            RtpKind::Probe { .. } => {}
        }
    }

    fn on_video_packet(
        &mut self,
        now: SimTime,
        path: PathId,
        packet: VideoPacket,
        events: &mut Vec<ReceiverEvent>,
    ) {
        let Some(rx) = self.streams.get_mut(usize::from(packet.stream.0)) else {
            return;
        };

        // NACK gap tracking on media sequences.
        rx.gaps.on_arrival(now, packet.sequence);

        // Remember for FEC recovery.
        rx.recent.insert(packet.sequence);

        rx.monitor.on_packet(now, path, packet.frame_id);
        if packet.kind == PacketKind::Sps {
            // SPS feeds the GOP ledger, not the packet buffer.
            rx.frame_buffer.sps_received(packet.gop_id);
        } else {
            rx.packet_buffer
                .insert_into(now, &packet, &mut rx.pb_events);
            Self::process_pb_events(rx, packet.stream, now, events);
        }

        // A late media packet may make a pending FEC group recoverable —
        // but only a group protecting this very sequence can change state,
        // so the pass skips every other group.
        self.try_fec_recovery(now, Some((packet.stream, packet.sequence)), events);
    }

    /// Handles the packet-buffer events staged in `rx.pb_events`.
    fn process_pb_events(
        rx: &mut StreamRx,
        stream: StreamId,
        now: SimTime,
        events: &mut Vec<ReceiverEvent>,
    ) {
        if rx.pb_events.is_empty() {
            return;
        }
        let mut pb_events = std::mem::take(&mut rx.pb_events);
        let mut fb_events = std::mem::take(&mut rx.fb_events);
        for ev in pb_events.drain(..) {
            match ev {
                PacketBufferEvent::FrameComplete(frame) => {
                    rx.last_fcd = frame.fcd();
                    events.push(ReceiverEvent::Fcd {
                        at: now,
                        fcd: frame.fcd(),
                    });
                    rx.frame_buffer.insert_into(now, frame, &mut fb_events);
                    for fe in fb_events.drain(..) {
                        match fe {
                            FrameBufferEvent::FrameEntered { frame_id, ifd } => {
                                if let Some(ifd) = ifd {
                                    events.push(ReceiverEvent::Ifd { at: now, ifd });
                                }
                                rx.monitor.on_frame_entered(now, frame_id, ifd, rx.last_fcd);
                            }
                            FrameBufferEvent::Decoded { frame, at } => {
                                let mut e2e =
                                    at.saturating_since(frame.capture_time) + DECODE_LATENCY;
                                if rx.fec_assisted.remove(&frame.frame_id) {
                                    e2e += FEC_PENALTY;
                                }
                                events.push(ReceiverEvent::FrameDecoded {
                                    stream: frame.stream,
                                    at,
                                    e2e,
                                });
                            }
                            FrameBufferEvent::Dropped { frame_id, reason } => {
                                rx.packet_buffer.purge_frame(frame_id);
                                events.push(ReceiverEvent::FrameDropped { stream, reason });
                            }
                            FrameBufferEvent::KeyframeNeeded => {
                                rx.keyframe_needed = true;
                            }
                        }
                    }
                    // The insert may have moved the decode/abandon position;
                    // a recovered-into frame now below it can never decode.
                    let position = rx.frame_buffer.abandoned_before();
                    while rx.fec_assisted.first().is_some_and(|&id| id < position) {
                        rx.fec_assisted.pop_first();
                    }
                }
                PacketBufferEvent::FrameEvicted { .. } => {
                    events.push(ReceiverEvent::FrameDropped {
                        stream,
                        reason: converge_video::DropReason::BufferFull,
                    });
                }
                PacketBufferEvent::StalePacket { .. } | PacketBufferEvent::Duplicate { .. } => {}
            }
        }
        rx.pb_events = pb_events;
        rx.fb_events = fb_events;
    }

    /// Attempts FEC recovery across pending groups.
    ///
    /// `trigger` names the media packet whose arrival prompted the pass.
    /// A group not protecting that sequence cannot have become
    /// recoverable since its last evaluation (`recent` evictions only
    /// grow a group's missing set, and every kept group had at least two
    /// packets missing), so such groups are skipped untouched. `None`
    /// — and any pass right after one that inserted recovered packets,
    /// which are extra `recent` changes a filter would miss — evaluates
    /// everything.
    fn try_fec_recovery(
        &mut self,
        now: SimTime,
        trigger: Option<(StreamId, u64)>,
        events: &mut Vec<ReceiverEvent>,
    ) {
        if self.pending_fec.is_empty() {
            self.fec_full_sweep = false;
            return;
        }
        let trigger = if self.fec_full_sweep { None } else { trigger };
        let mut recovered = std::mem::take(&mut self.fec_recovered);
        let streams = &self.streams;
        self.pending_fec.retain(|group| {
            if let Some((stream, seq)) = trigger {
                if group.stream != stream || seq < group.min_seq || seq > group.max_seq {
                    return true;
                }
            }
            let Some(rx) = streams.get(usize::from(group.stream.0)) else {
                return false;
            };
            // Only the 0 / 1 / many distinction matters, so stop counting
            // at the second miss.
            let mut only_missing: Option<&VideoPacket> = None;
            let mut misses = 0usize;
            for p in &group.protected {
                if !rx.recent.holds(p.sequence) {
                    misses += 1;
                    if misses > 1 {
                        break;
                    }
                    only_missing = Some(p);
                }
            }
            match misses {
                0 => false, // everything arrived; group no longer needed
                1 => {
                    let p = *only_missing.expect("one miss recorded");
                    // Only useful if the frame hasn't been abandoned.
                    if rx.packet_buffer.is_finished(p.frame_id)
                        || rx.frame_buffer.is_abandoned(p.frame_id)
                    {
                        return false;
                    }
                    recovered.push((group.stream, p));
                    false
                }
                _ => true, // keep waiting for more packets
            }
        });
        self.fec_full_sweep = !recovered.is_empty();
        for (stream, packet) in recovered.drain(..) {
            events.push(ReceiverEvent::FecRecovered);
            if let Some(rx) = self.streams.get_mut(usize::from(stream.0)) {
                rx.fec_assisted.insert(packet.frame_id);
                // A recovered packet no longer needs NACKing.
                rx.gaps.fill(packet.sequence);
                rx.recent.insert(packet.sequence);
                if packet.kind == PacketKind::Sps {
                    rx.frame_buffer.sps_received(packet.gop_id);
                } else {
                    rx.packet_buffer
                        .insert_into(now, &packet, &mut rx.pb_events);
                    Self::process_pb_events(rx, stream, now, events);
                }
            }
        }
        self.fec_recovered = recovered;
    }

    /// Builds the periodic RTCP batch: per-path RR + transport feedback,
    /// NACKs for persistent gaps, PLIs for broken decode chains, and QoE
    /// feedback from the monitors. Returns `(path, packet)` pairs — each
    /// path's reports travel back over that same path. `sr_info` maps path
    /// → (last SR send-time ms, SR arrival instant) for RTT computation.
    /// Transport feedback and receiver reports (which drive GCC) are only
    /// included when `include_transport` is set. The paper's GCC runs off
    /// RTCP-paced reports, which are slower than the QoE/NACK feedback loop.
    pub fn poll_rtcp_with(
        &mut self,
        now: SimTime,
        sr_info: &BTreeMap<PathId, (u64, SimTime)>,
        include_transport: bool,
    ) -> Vec<(PathId, RtcpPacket)> {
        let mut out = Vec::new();
        self.poll_rtcp_into(now, sr_info, include_transport, &mut out);
        out
    }

    /// [`ConferenceReceiver::poll_rtcp_with`], appending the batch to `out`
    /// so the call loop can reuse one buffer across rounds.
    pub fn poll_rtcp_into(
        &mut self,
        now: SimTime,
        sr_info: &BTreeMap<PathId, (u64, SimTime)>,
        include_transport: bool,
        out: &mut Vec<(PathId, RtcpPacket)>,
    ) {
        for (i, st) in self.paths.iter_mut().enumerate() {
            let path = PathId(i as u8);
            if !include_transport {
                break;
            }
            if !st.pending_feedback.is_empty() {
                let arrivals: Vec<(u16, u64)> = st
                    .pending_feedback
                    .drain(..)
                    .map(|(seq, at)| ((seq & 0xFFFF) as u16, at.as_micros()))
                    .collect();
                out.push((
                    path,
                    RtcpPacket::TransportFeedback(TransportFeedback {
                        path_id: path.0,
                        ssrc: 0,
                        arrivals,
                    }),
                ));
            }
            // Loss estimate over the interval from transport seq deltas.
            let fraction_lost = match (st.interval_start_seq, st.max_transport_seq) {
                (Some(start), Some(max)) if max >= start => {
                    let expected = max - start + 1;
                    let lost = expected.saturating_sub(st.received_in_interval);
                    st.cumulative_lost += lost;
                    if expected > 0 {
                        lost as f64 / expected as f64
                    } else {
                        0.0
                    }
                }
                _ => 0.0,
            };
            st.interval_start_seq = st.max_transport_seq.map(|m| m + 1);
            st.received_in_interval = 0;

            let (lsr, dlsr) = sr_info
                .get(&path)
                .map(|&(sr_ms, arrived)| {
                    (
                        (sr_ms & 0xFFFF_FFFF) as u32,
                        (now.saturating_since(arrived).as_millis() & 0xFFFF_FFFF) as u32,
                    )
                })
                .unwrap_or((0, 0));
            out.push((
                path,
                RtcpPacket::ReceiverReport(ReceiverReport {
                    path_id: path.0,
                    ssrc: 0,
                    blocks: vec![ReportBlock {
                        ssrc: 0,
                        fraction_lost: (fraction_lost * 256.0).min(255.0) as u8,
                        cumulative_lost: st.cumulative_lost.min(0xFF_FFFF) as u32,
                        ext_highest_seq: st.max_transport_seq.unwrap_or(0) as u32,
                        ext_highest_mp_seq: st.max_transport_seq.unwrap_or(0) as u32,
                        // Jitter reported in 90 kHz RTP timestamp units as
                        // RFC 3550 specifies (micros × 0.09).
                        jitter: (st.jitter_us * 0.09) as u32,
                        last_sr: lsr,
                        delay_since_last_sr: dlsr,
                    }],
                }),
            ));
        }

        // Control messages travel on the first path (small packets; the
        // emulated reverse directions are uncongested).
        let control_path = PathId(0);

        for (i, rx) in self.streams.iter_mut().enumerate() {
            let stream = StreamId(i as u8);
            // NACKs: gaps older than the reordering delay, max 3 attempts.
            let to_nack = &mut self.nack_list;
            to_nack.clear();
            rx.gaps.nack_round(now, NACK_DELAY, to_nack);
            if !to_nack.is_empty() {
                out.push((
                    control_path,
                    RtcpPacket::Nack(Nack {
                        path_id: control_path.0,
                        ssrc: stream.0 as u32,
                        lost: to_nack.clone(),
                    }),
                ));
            }

            // PLI with cooldown.
            if rx.keyframe_needed {
                let due = rx
                    .last_pli
                    .is_none_or(|t| now.saturating_since(t) >= PLI_COOLDOWN);
                if due {
                    rx.last_pli = Some(now);
                    out.push((
                        control_path,
                        RtcpPacket::Pli(Pli {
                            path_id: control_path.0,
                            ssrc: stream.0 as u32,
                        }),
                    ));
                }
                rx.keyframe_needed = false;
            }

            // QoE feedback from the monitor.
            for fb in rx.monitor.take_feedback() {
                out.push((control_path, RtcpPacket::QoeFeedback(fb)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_video::FrameType;

    const P0: PathId = PathId(0);
    const P1: PathId = PathId(1);

    fn receiver() -> ConferenceReceiver {
        ConferenceReceiver::new(1, &[P0, P1], 30, P0)
    }

    fn vp(seq: u64, frame_id: u64, kind: PacketKind) -> VideoPacket {
        VideoPacket {
            stream: StreamId(0),
            sequence: seq,
            frame_id,
            gop_id: 0,
            frame_type: if frame_id == 0 {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            kind,
            size: 1200,
            capture_time: SimTime::from_millis(frame_id * 33),
        }
    }

    fn rtp(tseq: u64, kind: RtpKind) -> SimRtp {
        SimRtp {
            kind,
            path: P0,
            transport_seq: tseq,
            sent_at: SimTime::ZERO,
        }
    }

    /// Frame 0: SPS(0) PPS(1) M0(2) M1(3).
    fn frame0_packets() -> Vec<VideoPacket> {
        vec![
            vp(0, 0, PacketKind::Sps),
            vp(1, 0, PacketKind::Pps),
            vp(2, 0, PacketKind::Media { index: 0, count: 2 }),
            vp(3, 0, PacketKind::Media { index: 1, count: 2 }),
        ]
    }

    #[test]
    fn complete_frame_decodes() {
        let mut r = receiver();
        let mut decoded = 0;
        for (i, p) in frame0_packets().into_iter().enumerate() {
            let evs = r.on_rtp(
                SimTime::from_millis(40 + i as u64),
                &rtp(i as u64, RtpKind::Media(p)),
            );
            decoded += evs
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::FrameDecoded { .. }))
                .count();
        }
        assert_eq!(decoded, 1);
    }

    #[test]
    fn e2e_includes_decode_latency() {
        let mut r = receiver();
        let mut e2e = None;
        for (i, p) in frame0_packets().into_iter().enumerate() {
            let evs = r.on_rtp(SimTime::from_millis(50), &rtp(i as u64, RtpKind::Media(p)));
            for e in evs {
                if let ReceiverEvent::FrameDecoded { e2e: v, .. } = e {
                    e2e = Some(v);
                }
            }
        }
        // Capture at 0, decode at 50 ms + 20 ms pipeline = 70 ms.
        assert_eq!(e2e.unwrap().as_millis(), 70);
    }

    #[test]
    fn gap_triggers_nack_after_delay() {
        let mut r = receiver();
        // Deliver seq 0 and 5: gap 1..=4.
        r.on_rtp(
            SimTime::from_millis(0),
            &rtp(0, RtpKind::Media(vp(0, 0, PacketKind::Sps))),
        );
        r.on_rtp(
            SimTime::from_millis(5),
            &rtp(1, RtpKind::Media(vp(5, 1, PacketKind::Pps))),
        );
        // Too early: no NACK yet.
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(20), &BTreeMap::new(), true);
        assert!(!rtcp.iter().any(|(_, p)| matches!(p, RtcpPacket::Nack(_))));
        // After the reordering delay: NACK for 1..=4.
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(100), &BTreeMap::new(), true);
        let nack = rtcp
            .iter()
            .find_map(|(_, p)| match p {
                RtcpPacket::Nack(n) => Some(n),
                _ => None,
            })
            .expect("nack expected");
        assert_eq!(nack.lost, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nack_gives_up_after_three_attempts() {
        let mut r = receiver();
        r.on_rtp(
            SimTime::ZERO,
            &rtp(0, RtpKind::Media(vp(0, 0, PacketKind::Sps))),
        );
        r.on_rtp(
            SimTime::from_millis(1),
            &rtp(1, RtpKind::Media(vp(2, 0, PacketKind::Pps))),
        );
        let count_nacks = |rtcp: &[(PathId, RtcpPacket)]| {
            rtcp.iter()
                .filter(|(_, p)| matches!(p, RtcpPacket::Nack(_)))
                .count()
        };
        assert_eq!(
            count_nacks(&r.poll_rtcp_with(SimTime::from_millis(100), &BTreeMap::new(), true)),
            1
        );
        for ms in [200, 300] {
            assert_eq!(
                count_nacks(&r.poll_rtcp_with(SimTime::from_millis(ms), &BTreeMap::new(), true)),
                1
            );
        }
        // Fourth attempt: given up.
        assert_eq!(
            count_nacks(&r.poll_rtcp_with(SimTime::from_millis(400), &BTreeMap::new(), true)),
            0
        );
    }

    #[test]
    fn retransmission_fills_gap() {
        let mut r = receiver();
        r.on_rtp(
            SimTime::ZERO,
            &rtp(0, RtpKind::Media(vp(0, 0, PacketKind::Sps))),
        );
        r.on_rtp(
            SimTime::from_millis(1),
            &rtp(1, RtpKind::Media(vp(2, 0, PacketKind::Pps))),
        );
        // Retransmission of seq 1 arrives before the NACK timer.
        r.on_rtp(
            SimTime::from_millis(30),
            &rtp(
                2,
                RtpKind::Retransmission(vp(1, 0, PacketKind::Media { index: 0, count: 2 })),
            ),
        );
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(100), &BTreeMap::new(), true);
        assert!(!rtcp.iter().any(|(_, p)| matches!(p, RtcpPacket::Nack(_))));
    }

    #[test]
    fn fec_recovers_single_missing_packet() {
        let mut r = receiver();
        let pkts = frame0_packets();
        // Deliver all but the last media packet.
        for (i, p) in pkts.iter().take(3).enumerate() {
            r.on_rtp(
                SimTime::from_millis(i as u64),
                &rtp(i as u64, RtpKind::Media(*p)),
            );
        }
        // FEC protecting both media packets arrives.
        let evs = r.on_rtp(
            SimTime::from_millis(10),
            &rtp(
                3,
                RtpKind::Fec {
                    stream: StreamId(0),
                    protected: vec![pkts[2], pkts[3]],
                    origin_path: P0,
                },
            ),
        );
        assert!(evs.contains(&ReceiverEvent::FecRecovered));
        assert!(evs
            .iter()
            .any(|e| matches!(e, ReceiverEvent::FrameDecoded { .. })));
    }

    #[test]
    fn fec_cannot_recover_two_losses_until_one_arrives() {
        let mut r = receiver();
        let pkts = frame0_packets();
        // Only SPS and PPS arrive; both media packets missing.
        for (i, p) in pkts.iter().take(2).enumerate() {
            r.on_rtp(
                SimTime::from_millis(i as u64),
                &rtp(i as u64, RtpKind::Media(*p)),
            );
        }
        let evs = r.on_rtp(
            SimTime::from_millis(10),
            &rtp(
                2,
                RtpKind::Fec {
                    stream: StreamId(0),
                    protected: vec![pkts[2], pkts[3]],
                    origin_path: P0,
                },
            ),
        );
        assert!(!evs.contains(&ReceiverEvent::FecRecovered));
        // Group stays pending: a late media arrival triggers recovery.
        let evs = r.on_rtp(SimTime::from_millis(20), &rtp(3, RtpKind::Media(pkts[2])));
        assert!(evs.contains(&ReceiverEvent::FecRecovered));
    }

    /// Delivers `media` in order, then a FEC packet protecting `protected`;
    /// whether the FEC packet recovered anything.
    fn fec_recovers_after(
        r: &mut ConferenceReceiver,
        media: &[VideoPacket],
        protected: &[VideoPacket],
    ) -> bool {
        for (i, p) in media.iter().enumerate() {
            r.on_rtp(
                SimTime::from_millis(i as u64),
                &rtp(i as u64, RtpKind::Media(*p)),
            );
        }
        let fec = RtpKind::Fec {
            stream: StreamId(0),
            protected: protected.to_vec(),
            origin_path: P0,
        };
        r.on_rtp(SimTime::from_millis(10), &rtp(99, fec))
            .contains(&ReceiverEvent::FecRecovered)
    }

    /// A `recent` slot and its tag are the whole sequence: sequence 0 of a
    /// fresh stream is found once it arrived, an empty slot never matches
    /// (not even sequence 0), a slot overwritten by a newer sequence of the
    /// same residue counts as missing in a FEC group, and so does any
    /// sequence that differs from the one a slot holds only in its tag
    /// bits. At the tag's bound the ring still answers exactly; past it an
    /// insert panics naming the bound, and a lookup misses, even on an
    /// empty slot.
    #[test]
    fn recent_ring_matches_only_the_sequence_it_holds() {
        let frame0 = frame0_packets();
        let (sps, pps, m0) = (frame0[0], frame0[1], frame0[2]);
        // Both arrived: sequence 0 is found, the group is complete.
        assert!(!fec_recovers_after(
            &mut receiver(),
            &[sps, pps],
            &[sps, pps]
        ));
        // Only sequence 1 arrived: the empty slot 0 is a miss, so the one
        // missing packet is rebuilt.
        assert!(fec_recovers_after(&mut receiver(), &[pps], &[sps, pps]));

        // A four-slot ring: sequence 5 of frame 1 lands in sequence 1's slot.
        let small = || ConferenceReceiver::new_sized(1, &[P0, P1], 30, P0, 4);
        let later = vp(5, 1, PacketKind::Pps);
        assert!(!fec_recovers_after(&mut small(), &[pps, m0], &[pps, m0]));
        assert!(fec_recovers_after(
            &mut small(),
            &[pps, m0, later],
            &[pps, m0]
        ));

        let mut ring = RecentRing::new(4);
        ring.insert(m0.sequence);
        assert!(ring.holds(m0.sequence));
        for bit in 2..64 {
            assert!(!ring.holds(m0.sequence ^ 1 << bit), "tag bit {bit}");
        }
        // The last sequence a tag can name (tag u32::MAX − 1, slot 3); the
        // next has the empty slot's tag.
        let last = (u64::from(u32::MAX) << 2) - 1;
        ring.insert(last);
        assert!(ring.holds(last) && !ring.holds(last - 4));
        assert!(!ring.holds(last + 1), "slot 0 is empty");
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.insert(last + 1)))
            .expect_err("past the tag's bound");
        let message = past.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.contains("32-bit tag (u32::MAX × 4 slots)"),
            "{message}"
        );
    }

    #[test]
    fn fec_adds_latency_penalty() {
        let mut r = receiver();
        let pkts = frame0_packets();
        for (i, p) in pkts.iter().take(3).enumerate() {
            r.on_rtp(SimTime::from_millis(50), &rtp(i as u64, RtpKind::Media(*p)));
        }
        let evs = r.on_rtp(
            SimTime::from_millis(50),
            &rtp(
                3,
                RtpKind::Fec {
                    stream: StreamId(0),
                    protected: vec![pkts[2], pkts[3]],
                    origin_path: P0,
                },
            ),
        );
        let e2e = evs
            .iter()
            .find_map(|e| match e {
                ReceiverEvent::FrameDecoded { e2e, .. } => Some(*e2e),
                _ => None,
            })
            .expect("decoded");
        // 50 ms transit + 20 ms decode + 10 ms FEC penalty.
        assert_eq!(e2e.as_millis(), 80);
    }

    #[test]
    fn fec_assisted_forgets_frames_that_were_decoded_or_abandoned() {
        let mut r = receiver();
        let mut tseq = 0u64;
        let mut deliver = |r: &mut ConferenceReceiver, at_ms: u64, kind: RtpKind| {
            tseq += 1;
            r.on_rtp(SimTime::from_millis(at_ms), &rtp(tseq, kind))
        };
        // Frame 0 decodes normally.
        for p in frame0_packets() {
            deliver(&mut r, 1, RtpKind::Media(p));
        }
        // A lossy stretch: every delta frame 1..=8 has three media packets,
        // loses two, gets one back through FEC and so never completes.
        let mut seq = 4;
        for frame_id in 1..=8u64 {
            let pps = vp(seq, frame_id, PacketKind::Pps);
            let media: Vec<VideoPacket> = (0..3u16)
                .map(|i| {
                    let kind = PacketKind::Media { index: i, count: 3 };
                    vp(seq + 1 + i as u64, frame_id, kind)
                })
                .collect();
            seq += 4;
            let at = 33 * frame_id;
            deliver(&mut r, at, RtpKind::Media(pps));
            deliver(&mut r, at, RtpKind::Media(media[0]));
            let evs = deliver(
                &mut r,
                at + 1,
                RtpKind::Fec {
                    stream: StreamId(0),
                    protected: vec![media[0], media[1]],
                    origin_path: P0,
                },
            );
            assert!(evs.contains(&ReceiverEvent::FecRecovered));
        }
        let assisted = |r: &ConferenceReceiver| r.streams[0].fec_assisted.len();
        assert_eq!(
            assisted(&r),
            8,
            "undecoded recovered-into frames are remembered"
        );
        // The sender's refresh: a complete keyframe of a new GOP restarts
        // decode past the whole stretch.
        let mut key = [
            vp(seq, 9, PacketKind::Sps),
            vp(seq + 1, 9, PacketKind::Pps),
            vp(seq + 2, 9, PacketKind::Media { index: 0, count: 1 }),
        ];
        let mut decoded = false;
        for p in key.iter_mut() {
            p.gop_id = 1;
            p.frame_type = FrameType::Key;
            let evs = deliver(&mut r, 400, RtpKind::Media(*p));
            decoded |= evs
                .iter()
                .any(|e| matches!(e, ReceiverEvent::FrameDecoded { .. }));
        }
        assert!(decoded, "the keyframe restarts decode");
        assert_eq!(assisted(&r), 0, "abandoned frames must not stay in the set");
    }

    #[test]
    fn loss_reported_in_receiver_report() {
        let mut r = receiver();
        // Transport seqs 0 and 9 received → 8 lost in the interval.
        r.on_rtp(SimTime::ZERO, &rtp(0, RtpKind::Probe { probe_seq: 0 }));
        r.on_rtp(
            SimTime::from_millis(5),
            &rtp(9, RtpKind::Probe { probe_seq: 1 }),
        );
        // First poll establishes the interval; loss shows in the second.
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(100), &BTreeMap::new(), true);
        let rr = rtcp
            .iter()
            .find_map(|(p, pkt)| match pkt {
                RtcpPacket::ReceiverReport(rr) if *p == P0 => Some(rr),
                _ => None,
            })
            .expect("rr");
        let frac = rr.blocks[0].fraction_lost as f64 / 256.0;
        assert!(frac <= 0.01, "first interval has no baseline: {frac}");
        // Next interval: seqs 10..=19, only 10 and 19 received.
        r.on_rtp(
            SimTime::from_millis(110),
            &rtp(10, RtpKind::Probe { probe_seq: 2 }),
        );
        r.on_rtp(
            SimTime::from_millis(120),
            &rtp(19, RtpKind::Probe { probe_seq: 3 }),
        );
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(200), &BTreeMap::new(), true);
        let rr = rtcp
            .iter()
            .find_map(|(p, pkt)| match pkt {
                RtcpPacket::ReceiverReport(rr) if *p == P0 => Some(rr),
                _ => None,
            })
            .expect("rr");
        let frac = rr.blocks[0].fraction_lost as f64 / 256.0;
        assert!((frac - 0.8).abs() < 0.01, "{frac}");
    }

    #[test]
    fn transport_feedback_carries_arrivals() {
        let mut r = receiver();
        r.on_rtp(
            SimTime::from_millis(7),
            &rtp(42, RtpKind::Probe { probe_seq: 0 }),
        );
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(50), &BTreeMap::new(), true);
        let tf = rtcp
            .iter()
            .find_map(|(_, p)| match p {
                RtcpPacket::TransportFeedback(tf) => Some(tf),
                _ => None,
            })
            .expect("tf");
        assert_eq!(tf.arrivals, vec![(42, 7_000)]);
        // Drained: next poll has no transport feedback.
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(100), &BTreeMap::new(), true);
        assert!(!rtcp
            .iter()
            .any(|(_, p)| matches!(p, RtcpPacket::TransportFeedback(_))));
    }

    #[test]
    fn pli_issued_when_decode_chain_breaks() {
        let mut r = receiver();
        // A complete delta frame before any keyframe → KeyframeNeeded.
        let mut pps = vp(1, 5, PacketKind::Pps);
        pps.frame_type = FrameType::Delta;
        let mut m = vp(2, 5, PacketKind::Media { index: 0, count: 1 });
        m.frame_type = FrameType::Delta;
        r.on_rtp(SimTime::from_millis(1), &rtp(1, RtpKind::Media(pps)));
        r.on_rtp(SimTime::from_millis(2), &rtp(2, RtpKind::Media(m)));
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(10), &BTreeMap::new(), true);
        let plis = rtcp.iter().filter(|(_, p)| matches!(p, RtcpPacket::Pli(_)));
        assert_eq!(plis.count(), 1);
    }

    #[test]
    fn jitter_estimate_tracks_delay_variation() {
        let mut r = receiver();
        // Constant transit: jitter stays ~0.
        for i in 0..50u64 {
            r.on_rtp(
                SimTime::from_millis(i * 20 + 30),
                &SimRtp {
                    kind: RtpKind::Probe { probe_seq: i },
                    path: P0,
                    transport_seq: i,
                    sent_at: SimTime::from_millis(i * 20),
                },
            );
        }
        let rtcp = r.poll_rtcp_with(SimTime::from_secs(2), &BTreeMap::new(), true);
        let rr0 = rtcp
            .iter()
            .find_map(|(p, pkt)| match pkt {
                RtcpPacket::ReceiverReport(rr) if *p == P0 => Some(rr),
                _ => None,
            })
            .expect("rr");
        assert!(
            rr0.blocks[0].jitter < 5,
            "constant transit: {}",
            rr0.blocks[0].jitter
        );
        // Alternating transit on P1: jitter grows.
        let mut r = receiver();
        for i in 0..50u64 {
            let wobble = if i % 2 == 0 { 0 } else { 20 };
            r.on_rtp(
                SimTime::from_millis(i * 20 + 30 + wobble),
                &SimRtp {
                    kind: RtpKind::Probe { probe_seq: i },
                    path: P1,
                    transport_seq: i,
                    sent_at: SimTime::from_millis(i * 20),
                },
            );
        }
        let rtcp = r.poll_rtcp_with(SimTime::from_secs(2), &BTreeMap::new(), true);
        let rr1 = rtcp
            .iter()
            .find_map(|(p, pkt)| match pkt {
                RtcpPacket::ReceiverReport(rr) if *p == P1 => Some(rr),
                _ => None,
            })
            .expect("rr");
        // ~20 ms alternating wobble → jitter near 20 ms = 1800 ticks.
        assert!(
            rr1.blocks[0].jitter > 900,
            "wobbly transit: {}",
            rr1.blocks[0].jitter
        );
    }

    #[test]
    fn rr_carries_rtt_echo() {
        let mut r = receiver();
        r.on_rtp(
            SimTime::from_millis(5),
            &rtp(0, RtpKind::Probe { probe_seq: 0 }),
        );
        let mut sr_info = BTreeMap::new();
        sr_info.insert(P0, (1_000u64, SimTime::from_millis(1_040)));
        let rtcp = r.poll_rtcp_with(SimTime::from_millis(1_100), &sr_info, true);
        let rr = rtcp
            .iter()
            .find_map(|(p, pkt)| match pkt {
                RtcpPacket::ReceiverReport(rr) if *p == P0 => Some(rr),
                _ => None,
            })
            .expect("rr");
        assert_eq!(rr.blocks[0].last_sr, 1_000);
        assert_eq!(rr.blocks[0].delay_since_last_sr, 60);
    }
}
