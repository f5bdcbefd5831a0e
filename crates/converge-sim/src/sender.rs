//! The conference sender: camera streams → encoder → packetizer →
//! scheduler → FEC → paths, plus reaction to every RTCP message.

use std::collections::BTreeMap;

use converge_cc::{ControllerConfig, PathController};
use converge_core::{
    classify, Assignment, FecPolicy, PacketClass, PathMetrics, Schedulable, Scheduler,
};
use converge_gcc::PacketTiming;
use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::RtcpPacket;
use converge_signal::{ConnectionMonitor, PathState};
use converge_trace::TraceHandle;
use converge_video::{
    EncoderConfig, FrameType, Packetizer, PacketizerConfig, StreamId, VideoEncoder, VideoPacket,
    CAPTURE_FORMAT,
};

use crate::history::{FeedbackRing, MediaHistory};
use crate::payload::{NetPayload, RtpKind, SimRtp};

/// One camera stream's sending pipeline.
struct StreamPipeline {
    encoder: VideoEncoder,
    packetizer: Packetizer,
    /// The stream's sent media, for retransmission and NACK loss
    /// attribution: the newest [`SenderSizing::media_slots`] sequences,
    /// each with the path it travelled. Only first transmissions are
    /// remembered; a retransmission keeps its original's entry.
    history: MediaHistory,
}

/// Result of one frame tick: the packets to transmit and the encoded
/// frame's QP for metrics.
pub struct FrameTickResult {
    /// Packets to transmit, in order.
    pub packets: Vec<OutboundPacket>,
    /// QP the encoder used for this frame.
    pub qp: u8,
    /// Encoded frame height (resolution-adaptation telemetry).
    pub height: u32,
}

/// What the encoder produced on one frame tick, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedFrame {
    /// QP the encoder used for this frame.
    pub qp: u8,
    /// Encoded frame height (resolution-adaptation telemetry).
    pub height: u32,
}

/// A packet ready to leave the sender, tagged with class for metrics.
pub struct OutboundPacket {
    /// The payload.
    pub payload: NetPayload,
    /// Path to send it on.
    pub path: PathId,
    /// Class, for counting (media/FEC/rtx/probe).
    pub class: PacketClass,
}

/// Default horizon of a path's transport-feedback ring, in sequences (a
/// power of two): a report may match any of the newest 16 384 sent. A
/// sequence is looked up when the report naming it arrives: one feedback
/// interval plus a round trip after the packet left, or later when the
/// path stalls; DESIGN §6c tabulates the farthest hit per benchmark cell,
/// at most 3 709 sequences. A lookup beyond the horizon misses and the
/// controller goes without that timing. The ring stores 6 bytes a sequence
/// (send time and size) for the newest 1 024 and 10 bytes for each older
/// one still unmatched: 6 KiB a path plus what loss leaves behind, which is
/// 150 KiB more (15 360 entries) if nothing is ever acknowledged.
const SENT_SLOTS: usize = 1 << 14;

/// Ring capacities for one sender's packet histories.
///
/// `media_slots` is a retention horizon in sequences, and what sets the
/// horizon a call needs is not the round-trip time: the receiver asks for
/// at most 30 gaps per NACK round, oldest first, out of a backlog without
/// a bound, so after a burst of reordering or loss the sequences it names
/// trail the newest by however far the backlog has fallen behind. DESIGN
/// §6c tabulates the farthest hit per benchmark cell: 257 on the mildest
/// drive replay, 334 on eight constant paths, 7 663 on eight carrier
/// traces. A NACK beyond the horizon is not answered, and the
/// frame waits for its keyframe instead.
///
/// The default keeps all a 16-bit NACK can name: 65 536 sequences per
/// stream, each the path it took in the fewest of 1, 2, 4 or 8 bits that
/// hold every path id (8 KiB a stream on two paths, 32 KiB on eight), plus
/// a 24-byte record for every frame among them, added as frames are sent
/// (a packet is rebuilt from its frame's record, not stored) — where a
/// ring of whole packets took 3.5 MiB per stream, written at construction.
/// The feedback rings add 6 KiB per path and 10 bytes for each sequence
/// that leaves a ring's newest 1 024 unmatched (a lost packet, a lost
/// report) until it falls out of the horizon. [`SenderSizing::fleet`] is
/// what thousands of sessions in one process can afford instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderSizing {
    /// Per-path transport-feedback horizon: how many of the newest
    /// transport sequences a report may match (power of two, at most
    /// 65 536).
    pub tx_slots: usize,
    /// Per-stream retransmission horizon: how many of the newest media
    /// sequences a NACK may name (power of two, at most 65 536).
    pub media_slots: usize,
}

impl Default for SenderSizing {
    fn default() -> Self {
        SenderSizing {
            tx_slots: SENT_SLOTS,
            media_slots: 1 << 16,
        }
    }
}

impl SenderSizing {
    /// Compact rings for fleet-scale runs: 512 transport sequences per
    /// path (3 KiB, all dense, so nothing spills) and 2 048 media
    /// sequences per stream (256 bytes to 2 KiB by path count, plus the
    /// frame records, about 2 s of 30 fps video). Short of the farthest
    /// look-back a single call shows on eight paths, so a fleet member
    /// that falls that far behind loses the retransmission.
    pub fn fleet() -> Self {
        SenderSizing {
            tx_slots: 1 << 9,
            media_slots: 1 << 11,
        }
    }
}

/// One frame tick's working buffers, kept across ticks so the steady
/// state reuses their capacity instead of allocating per frame. Nothing in
/// them outlives a tick, so the call loop keeps one for all its senders
/// (`flow::Scratch`) and lends it to whichever ticks.
#[derive(Default)]
pub(crate) struct FrameScratch {
    /// The path snapshot the tick schedules against.
    metrics: Vec<PathMetrics>,
    /// The frame's packets as the packetizer made them.
    packets: Vec<VideoPacket>,
    /// Retransmissions + the frame's packets, in scheduling order.
    batch: Vec<Schedulable>,
    /// This frame's media per destination path and whether any of it is
    /// keyframe data, indexed by path id (FEC is generated in path order).
    /// Entries persist across ticks, at least one per path of the sender
    /// ticking; a path the frame did not use is empty.
    media_by_path: Vec<(Vec<VideoPacket>, bool)>,
    /// FEC packets awaiting scheduling: (meta, protected group, origin).
    fec_batch: Vec<(Schedulable, Vec<VideoPacket>, PathId)>,
    fec_sched: Vec<Schedulable>,
    /// The scheduler's answer for the media batch, then for the FEC batch.
    assignments: Vec<Assignment>,
}

impl FrameScratch {
    /// Buffers with the per-path table already sized for `paths` paths.
    pub(crate) fn for_paths(paths: usize) -> Self {
        FrameScratch {
            media_by_path: vec![(Vec::new(), false); paths],
            ..FrameScratch::default()
        }
    }

    /// The path snapshot the latest frame tick scheduled against. Nothing
    /// between that snapshot and the end of the tick feeds the controllers
    /// or the monitor, so right after a tick it equals the sender's
    /// [`ConferenceSender::path_metrics`], without recomputing it.
    pub(crate) fn path_metrics(&self) -> &[PathMetrics] {
        &self.metrics
    }
}

/// How per-path congestion controllers interact (paper section 4.1: "We
/// use the uncoupled congestion control approach").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateCoupling {
    /// Independent controllers, one per path (Converge's choice).
    Uncoupled,
    /// LIA-style coupling: each subflow's growth is dampened by its share
    /// of the aggregate, so the total grows like one flow. Conservative at
    /// shared bottlenecks, underutilizes independent paths — the trade-off
    /// the paper avoids by choosing uncoupled.
    Lia,
}

/// One path's sending state.
struct PathTx {
    /// The path's congestion controller (uncoupled by default); the
    /// algorithm behind it (GCC / NADA / mp-BBR) is the controller's
    /// business, not the sender's.
    cc: PathController,
    /// Transport sequence counter and sent-packet log for feedback
    /// matching.
    ring: FeedbackRing,
}

/// The conference sender.
pub struct ConferenceSender {
    streams: Vec<StreamPipeline>,
    /// Per-path state, indexed by path id.
    paths: Vec<PathTx>,
    scheduler: Box<dyn Scheduler>,
    fec: Box<dyn FecPolicy>,
    /// Retransmissions waiting for their stream's next frame tick.
    rtx_queue: Vec<VideoPacket>,
    /// Next probe sequence.
    next_probe_seq: u64,
    /// Outstanding probes: seq → (path, sent time).
    outstanding_probes: BTreeMap<u64, (PathId, SimTime)>,
    /// EWMA of FEC bytes / first-transmission media bytes. Protection
    /// shares the congestion-controlled budget with media ("protected
    /// packets deprive the bandwidth of video frames", paper section 3.3),
    /// so it discounts the encoder target; and it is the share of reported
    /// loss that protection absorbs, which is all the rate controllers'
    /// loss discount may claim. Retransmissions are not in it: each stream
    /// pays for its own exactly, out of the frame they leave with, and a
    /// retransmission answers a loss, it does not mask one.
    fec_overhead_ewma: f64,
    /// Transport-level liveness monitor (the paper's CM-synchronization
    /// wrapper, section 5): a path whose feedback goes silent is marked
    /// down and excluded from scheduling until it speaks again.
    monitor: ConnectionMonitor,
    /// Congestion-controller coupling mode.
    coupling: RateCoupling,
    /// One transport-feedback report's matched timings and one NACK's
    /// losses per path (indexed by path id): working buffers of
    /// `on_rtcp`, kept so handling feedback allocates nothing.
    timings: Vec<PacketTiming>,
    nacked_per_path: Vec<usize>,
}

impl ConferenceSender {
    /// Creates a sender with `n_streams` cameras over `paths`.
    pub fn new(
        n_streams: u8,
        paths: &[PathId],
        scheduler: Box<dyn Scheduler>,
        fec: Box<dyn FecPolicy>,
        controller: ControllerConfig,
        max_encoding_rate_bps: u64,
    ) -> Self {
        Self::new_sized(
            n_streams,
            paths,
            scheduler,
            fec,
            controller,
            max_encoding_rate_bps,
            SenderSizing::default(),
        )
    }

    /// Creates a sender with explicit ring capacities (fleet runs shrink
    /// them; see [`SenderSizing`]). `new` is this with the defaults.
    #[allow(clippy::too_many_arguments)]
    pub fn new_sized(
        n_streams: u8,
        paths: &[PathId],
        scheduler: Box<dyn Scheduler>,
        fec: Box<dyn FecPolicy>,
        controller: ControllerConfig,
        max_encoding_rate_bps: u64,
        sizing: SenderSizing,
    ) -> Self {
        PathId::assert_indexed(paths.iter().copied());
        // The rings first — per path, then per stream — before any of the
        // session's small long-lived state and not on the first packet:
        // glibc serves them from the brk heap once an earlier session has
        // freed its own, and a small buffer allocated ahead of them splits
        // the hole they would have reused (`peak_rss_mb` moves with it).
        let rings: Vec<FeedbackRing> = paths
            .iter()
            .map(|_| FeedbackRing::new(sizing.tx_slots))
            .collect();
        let histories: Vec<MediaHistory> = (0..n_streams)
            .map(|_| {
                MediaHistory::new(
                    sizing.media_slots,
                    paths.len(),
                    CAPTURE_FORMAT.frame_interval(),
                )
            })
            .collect();
        let streams = (0..n_streams)
            .zip(histories)
            .map(|(i, history)| StreamPipeline {
                encoder: VideoEncoder::new(EncoderConfig {
                    stream: StreamId(i),
                    max_bitrate_bps: max_encoding_rate_bps,
                }),
                packetizer: Packetizer::new(PacketizerConfig),
                history,
            })
            .collect();
        let path_state = paths
            .iter()
            .zip(rings)
            .map(|(&p, ring)| PathTx {
                cc: controller.build(p),
                ring,
            })
            .collect();
        ConferenceSender {
            streams,
            paths: path_state,
            scheduler,
            fec,
            rtx_queue: Vec::new(),
            next_probe_seq: 0,
            outstanding_probes: BTreeMap::new(),
            fec_overhead_ewma: 0.0,
            monitor: ConnectionMonitor::new(paths),
            coupling: RateCoupling::Uncoupled,
            timings: Vec::new(),
            nacked_per_path: vec![0; paths.len()],
        }
    }

    /// Switches the congestion-coupling mode (for the design ablation).
    pub fn set_coupling(&mut self, coupling: RateCoupling) {
        self.coupling = coupling;
    }

    /// Applies an externally computed additive-increase scale to every
    /// path controller — the coupling surface an RFC 8382 shared-bottleneck
    /// detector drives (`1/group_size` for grouped sessions, `1.0`
    /// otherwise). Under [`RateCoupling::Uncoupled`] (the default) the
    /// scale persists until the next call; under [`RateCoupling::Lia`] the
    /// per-tick LIA share computation overwrites it.
    pub fn set_increase_scale_all(&mut self, scale: f64) {
        for p in &mut self.paths {
            p.cc.set_increase_scale(scale);
        }
    }

    /// Installs a trace handle on every sender-side component: scheduler,
    /// FEC policy, per-path congestion controllers, and the connection
    /// monitor.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.scheduler.set_trace(trace.clone());
        self.fec.set_trace(trace.clone());
        for p in &mut self.paths {
            p.cc.set_trace(trace.clone());
        }
        self.monitor.set_trace(trace);
    }

    /// Number of camera streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The frame interval of stream 0 (all streams share the format).
    pub fn frame_interval(&self) -> SimDuration {
        self.streams[0].encoder.frame_interval()
    }

    /// Advertised frame rate (for the SDES message).
    pub fn frame_rate(&self) -> u32 {
        CAPTURE_FORMAT.fps
    }

    /// Current per-path metrics snapshot from the congestion controllers;
    /// paths the connection monitor has declared down are disabled at the
    /// transport level.
    pub fn path_metrics(&self) -> Vec<PathMetrics> {
        let mut out = Vec::new();
        self.path_metrics_into(&mut out);
        out
    }

    /// [`ConferenceSender::path_metrics`], replacing the contents of `out`.
    pub fn path_metrics_into(&self, out: &mut Vec<PathMetrics>) {
        out.clear();
        out.extend(self.paths.iter().enumerate().map(|(i, p)| {
            let id = PathId(i as u8);
            PathMetrics {
                id,
                rate_bps: p.cc.target_rate_bps(),
                srtt: p.cc.srtt().unwrap_or(SimDuration::from_millis(100)),
                loss: p.cc.fraction_lost(),
                enabled: self.monitor.state(id) != Some(PathState::Down),
            }
        }));
    }

    /// Captures and sends one frame on stream `stream_idx` at `now`, with
    /// working buffers of its own (the call loop lends one set to all its
    /// senders instead).
    pub fn on_frame_tick(&mut self, now: SimTime, stream_idx: usize) -> FrameTickResult {
        let mut packets = Vec::new();
        let mut scratch = FrameScratch::default();
        let EncodedFrame { qp, height } =
            self.on_frame_tick_into(now, stream_idx, &mut scratch, &mut packets);
        FrameTickResult {
            packets,
            qp,
            height,
        }
    }

    /// [`ConferenceSender::on_frame_tick`] in `scratch`'s buffers,
    /// appending the packets to transmit to `out`, so the call loop reuses
    /// one set of buffers across frames and senders. Afterwards
    /// `scratch.path_metrics()` is the snapshot the tick scheduled against.
    pub(crate) fn on_frame_tick_into(
        &mut self,
        now: SimTime,
        stream_idx: usize,
        scratch: &mut FrameScratch,
        out: &mut Vec<OutboundPacket>,
    ) -> EncodedFrame {
        // Disabled paths carry no media, so their rate estimates decay: a
        // re-enabled path then re-enters with a conservative share and
        // ramps with real feedback instead of bursting at a stale rate.
        for (i, p) in self.paths.iter_mut().enumerate() {
            if self.scheduler.is_disabled(PathId(i as u8)) {
                p.cc.cap_estimate(500_000.0);
            }
        }
        // Coupled mode: dampen each controller's growth by its share of
        // the aggregate estimate, so the sum increases like a single flow.
        if self.coupling == RateCoupling::Lia {
            let total: f64 = self.paths.iter().map(|p| p.cc.estimate_bps()).sum();
            if total > 0.0 {
                for p in &mut self.paths {
                    let share = p.cc.estimate_bps() / total;
                    p.cc.set_increase_scale(share);
                }
            }
        }
        // Advance the liveness timers; a path that went silent also loses
        // its stale rate estimate so recovery starts conservatively.
        for ev in self.monitor.poll(now) {
            if ev.state == PathState::Down {
                self.paths[ev.path.index()].cc.cap_estimate(500_000.0);
            }
        }
        self.path_metrics_into(&mut scratch.metrics);
        let metrics = &scratch.metrics;
        // Encoder rate: min(aggregate over used paths, app cap), divided
        // across streams.
        let aggregate: u64 = metrics
            .iter()
            .filter(|m| self.scheduler.uses_path(m))
            .map(|m| m.rate_bps)
            .sum();
        // This stream's pending retransmissions lead the batch (highest
        // priority, Table 2), at most 16 a frame; another stream's wait
        // for that stream's own tick.
        let stream = StreamId(stream_idx as u8);
        let batch = &mut scratch.batch;
        batch.clear();
        let mut rtx_bytes = 0;
        self.rtx_queue.retain(|rtx| {
            if rtx.stream != stream || batch.len() >= 16 {
                return true;
            }
            rtx_bytes += rtx.size;
            batch.push(Schedulable {
                packet: *rtx,
                class: PacketClass::Retransmission,
            });
            false
        });
        // Repair rides inside the rate: FEC is paid for by the running
        // overhead ratio, and the stream pays for its retransmissions in
        // full out of the frame they leave with, so aggressive FEC policies
        // and NACK storms alike cost media quality (paper Fig. 6/13)
        // instead of overrunning the paths.
        let media_fraction = 1.0 / (1.0 + self.fec_overhead_ewma);
        let n_streams = self.streams.len().max(1) as u64;
        let per_stream = (aggregate as f64 * media_fraction) as u64 / n_streams;
        let pipeline = &mut self.streams[stream_idx];
        let interval_us = pipeline.encoder.frame_interval().as_micros();
        let rtx_bps = rtx_bytes as u64 * 8_000_000 / interval_us;
        pipeline
            .encoder
            .set_target_bitrate(per_stream.saturating_sub(rtx_bps));
        let frame = pipeline.encoder.encode(now);
        let encoded = EncodedFrame {
            qp: frame.qp,
            height: frame.height,
        };
        let packets = &mut scratch.packets;
        packets.clear();
        let packetized = pipeline.packetizer.packetize_into(&frame, packets);
        batch.extend(packets.iter().map(|p| Schedulable {
            packet: *p,
            class: classify(p),
        }));

        // CM blackout: the connection is re-establishing; everything in
        // this batch is lost at the application layer.
        if self.scheduler.drop_batch(now) {
            return encoded;
        }
        pipeline.history.begin_frame(packetized);

        let assignments = &mut scratch.assignments;
        self.scheduler
            .assign_batch_into(now, batch, metrics, assignments);
        debug_assert_eq!(assignments.len(), batch.len());

        out.reserve(batch.len() + 8);
        // Per-path media groups for FEC generation.
        let media_by_path = &mut scratch.media_by_path;
        if media_by_path.len() < self.paths.len() {
            media_by_path.reserve_exact(self.paths.len() - media_by_path.len());
            media_by_path.resize_with(self.paths.len(), Default::default);
        }
        for (media, is_key) in media_by_path.iter_mut() {
            media.clear();
            *is_key = false;
        }

        for (sched, assign) in batch.iter().zip(assignments.iter()) {
            let path = assign.path;
            let kind = match sched.class {
                PacketClass::Retransmission => RtpKind::Retransmission(sched.packet),
                _ => RtpKind::Media(sched.packet),
            };
            if sched.class != PacketClass::Retransmission {
                // Everything in the batch that is not a retransmission is
                // a packet of this tick's frame.
                self.streams[stream_idx]
                    .history
                    .remember(sched.packet.sequence, path);
            }
            if sched.packet.kind.is_media() {
                let (media, is_key) = &mut media_by_path[path.index()];
                media.push(sched.packet);
                *is_key |= sched.packet.frame_type == FrameType::Key;
            }
            out.push(self.make_rtp(now, path, kind, sched.class));
        }

        // FEC per destination path (path-specific protection, §4.3).
        let fec_batch = &mut scratch.fec_batch;
        fec_batch.clear();
        // `metrics` is the per-path snapshot, indexed by path id like
        // `media_by_path`.
        for ((media, is_key), m) in media_by_path.iter().zip(metrics) {
            if media.is_empty() {
                continue;
            }
            let path = m.id;
            let n_fec = self
                .fec
                .repair_count(now, path, media.len(), m.loss, *is_key);
            if n_fec == 0 {
                continue;
            }
            // Split this path's media into n_fec contiguous groups.
            let base = media.len() / n_fec;
            let extra = media.len() % n_fec;
            let mut idx = 0;
            for g in 0..n_fec {
                let size = base + usize::from(g < extra);
                if size == 0 {
                    continue;
                }
                let protected: Vec<VideoPacket> = media[idx..idx + size].to_vec();
                idx += size;
                // FEC packets are scheduled too (priority level 5).
                let rep = protected
                    .iter()
                    .max_by_key(|p| p.size)
                    .expect("non-empty group");
                let fec_meta = VideoPacket {
                    kind: converge_video::PacketKind::Media { index: 0, count: 1 },
                    size: rep.size + 16,
                    ..*rep
                };
                fec_batch.push((
                    Schedulable {
                        packet: fec_meta,
                        class: PacketClass::Fec,
                    },
                    protected,
                    path,
                ));
            }
        }
        // Update the FEC overhead EWMA from this batch, over the frame's
        // own (first-transmission) media bytes.
        let fresh_bytes: usize = batch
            .iter()
            .filter(|s| s.class != PacketClass::Retransmission && s.packet.kind.is_media())
            .map(|s| s.packet.size)
            .sum();
        if fresh_bytes > 0 {
            let fec_bytes: usize = fec_batch.iter().map(|(s, _, _)| s.packet.size).sum();
            self.fec_overhead_ewma =
                0.9 * self.fec_overhead_ewma + 0.1 * fec_bytes as f64 / fresh_bytes as f64;
        }
        if !fec_batch.is_empty() {
            let fec_sched = &mut scratch.fec_sched;
            fec_sched.clear();
            fec_sched.extend(fec_batch.iter().map(|(s, _, _)| *s));
            self.scheduler
                .assign_batch_into(now, fec_sched, metrics, assignments);
            for ((sched, protected, origin), assign) in fec_batch.drain(..).zip(assignments.iter())
            {
                let stream = sched.packet.stream;
                out.push(self.make_rtp(
                    now,
                    assign.path,
                    RtpKind::Fec {
                        stream,
                        protected,
                        origin_path: origin,
                    },
                    PacketClass::Fec,
                ));
            }
        }

        // Probes for disabled paths.
        for path in metrics.iter().map(|m| m.id) {
            if !self.scheduler.probe_due(now, path) {
                continue;
            }
            let probe_seq = self.next_probe_seq;
            self.next_probe_seq += 1;
            self.outstanding_probes.insert(probe_seq, (path, now));
            out.push(self.make_rtp(now, path, RtpKind::Probe { probe_seq }, PacketClass::Probe));
        }

        encoded
    }

    fn make_rtp(
        &mut self,
        now: SimTime,
        path: PathId,
        kind: RtpKind,
        class: PacketClass,
    ) -> OutboundPacket {
        let transport_seq = self.paths[path.index()].ring.send(now, kind.wire_size());
        OutboundPacket {
            payload: NetPayload::Rtp(SimRtp {
                kind,
                path,
                transport_seq,
                sent_at: now,
            }),
            path,
            class,
        }
    }

    /// Handles an incoming RTCP packet at `now`; may queue retransmissions
    /// or adjust state. Returns the number of newly queued retransmissions.
    pub fn on_rtcp(&mut self, now: SimTime, rtcp: &RtcpPacket) -> usize {
        // Any feedback on a path proves it alive in both directions.
        self.monitor.on_activity(now, PathId(rtcp.path_id()));
        match rtcp {
            // Path ids read out of RTCP fields are looked up, not trusted:
            // one that names no path is ignored.
            RtcpPacket::ReceiverReport(rr) => {
                let protection = self.fec_overhead_ewma;
                if let Some(PathTx { cc: ctl, .. }) = self.paths.get_mut(usize::from(rr.path_id)) {
                    for blk in &rr.blocks {
                        ctl.on_loss_report_protected(blk.fraction_lost as f64 / 256.0, protection);
                        // RTT from last_sr/dlsr, both in simulation micros
                        // truncated: lsr holds sr send time (low 32 bits of
                        // ms), dlsr holds hold time in ms.
                        if blk.last_sr != 0 {
                            let sr_ms = blk.last_sr as u64;
                            let hold_ms = blk.delay_since_last_sr as u64;
                            let now_ms = now.as_millis() & 0xFFFF_FFFF;
                            if now_ms >= sr_ms + hold_ms {
                                let rtt = SimDuration::from_millis(now_ms - sr_ms - hold_ms);
                                ctl.on_rtt_sample(rtt);
                            }
                        }
                    }
                }
                0
            }
            RtcpPacket::TransportFeedback(tf) => {
                let Some(PathTx { cc, ring }) = self.paths.get_mut(usize::from(tf.path_id)) else {
                    return 0;
                };
                let timings = &mut self.timings;
                timings.clear();
                timings.extend(tf.arrivals.iter().filter_map(|&(seq, arrival_us)| {
                    let (send_time, size) = ring.take(seq)?;
                    Some(PacketTiming {
                        send_time,
                        arrival_time: SimTime::from_micros(arrival_us),
                        size,
                    })
                }));
                if !timings.is_empty() {
                    cc.on_transport_feedback(now, timings);
                }
                0
            }
            RtcpPacket::Nack(nack) => {
                let stream = StreamId((nack.ssrc & 0xFF) as u8);
                let mut queued = 0;
                self.nacked_per_path.fill(0);
                for &seq in &nack.lost {
                    // NACK wire carries u16; our media sequences are u64 —
                    // the session uses low 16 bits of the true sequence, so
                    // the history is asked for a matching suffix.
                    if let Some((p, sent_path)) = self.lookup_media(stream, seq) {
                        self.rtx_queue.push(p);
                        queued += 1;
                        // Attribute the loss to the path the packet was
                        // actually sent on (drives β of the FEC policy).
                        self.nacked_per_path[sent_path.index()] += 1;
                    }
                }
                for (i, &n) in self.nacked_per_path.iter().enumerate() {
                    if n > 0 {
                        self.fec.on_nack(PathId(i as u8), n);
                    }
                }
                queued
            }
            RtcpPacket::Pli(pli) => {
                let stream = (pli.ssrc & 0xFF) as usize;
                if let Some(s) = self.streams.get_mut(stream) {
                    s.encoder.request_keyframe();
                }
                0
            }
            RtcpPacket::QoeFeedback(fb) => {
                self.scheduler.on_qoe_feedback(now, fb);
                0
            }
            RtcpPacket::SenderReport(_) | RtcpPacket::Sdes(_) => 0,
        }
    }

    /// Handles a probe echo: measures the disabled path's RTT and attempts
    /// Eq. 3 re-enablement via the scheduler.
    pub fn on_probe_echo(&mut self, now: SimTime, probe_seq: u64) {
        let Some((path, sent_at)) = self.outstanding_probes.remove(&probe_seq) else {
            return;
        };
        let rtt = now.saturating_since(sent_at);
        self.monitor.on_activity(now, path);
        self.paths[path.index()].cc.on_rtt_sample(rtt);
        // Fast path = lowest-srtt enabled path.
        let metrics = self.path_metrics();
        let rtt_fast = metrics
            .iter()
            .filter(|m| m.id != path)
            .map(|m| m.srtt)
            .min()
            .unwrap_or(SimDuration::from_millis(100));
        self.scheduler.on_probe_rtt(now, path, rtt_fast, rtt);
    }

    fn lookup_media(&self, stream: StreamId, seq16: u16) -> Option<(VideoPacket, PathId)> {
        let pipeline = self.streams.get(stream.0 as usize)?;
        pipeline.history.lookup(&pipeline.packetizer, seq16)
    }

    /// Builds the sender's periodic RTCP (SR per path + SDES with frame
    /// rate), one tuple per path.
    pub fn periodic_rtcp(&self, now: SimTime) -> Vec<(PathId, RtcpPacket)> {
        let mut out = Vec::new();
        for path in (0..self.paths.len()).map(|i| PathId(i as u8)) {
            out.push((
                path,
                RtcpPacket::SenderReport(converge_rtp::SenderReport {
                    path_id: path.0,
                    ssrc: 0,
                    ntp_micros: now.as_micros(),
                    rtp_timestamp: crate::wire::rtp_timestamp(now),
                    packet_count: 0,
                    octet_count: 0,
                }),
            ));
        }
        if !self.paths.is_empty() {
            out.push((
                PathId(0),
                RtcpPacket::Sdes(converge_rtp::Sdes {
                    ssrc: 0,
                    cname: "converge-sender".into(),
                    frame_rate: Some(self.frame_rate() as u8),
                }),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::scenarios::{FecKind, SchedulerKind};
    use converge_rtp::{Nack, ReceiverReport, ReportBlock, TransportFeedback};
    use converge_video::codec::MIN_BITRATE_BPS;

    /// Everything on path 0; drops whole batches while the test says so
    /// (WebRTC-CM's re-connection blackout, scripted).
    #[derive(Debug)]
    struct ScriptedBlackout(Arc<AtomicBool>);

    impl Scheduler for ScriptedBlackout {
        fn name(&self) -> &'static str {
            "scripted-blackout"
        }

        fn assign_batch_into(
            &mut self,
            _now: SimTime,
            packets: &[Schedulable],
            _paths: &[PathMetrics],
            out: &mut Vec<Assignment>,
        ) {
            out.clear();
            out.extend(packets.iter().map(|_| Assignment { path: PathId(0) }));
        }

        fn drop_batch(&self, _now: SimTime) -> bool {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// A blackout-dropped batch takes sequences that are never remembered.
    /// A NACK for one of them, on a call past 65 536 packets, used to be
    /// answered with the packet 65 536 sequences older that still sat in
    /// the slot; it must not be answered at all.
    #[test]
    fn nack_for_a_dropped_sequence_is_not_answered_with_its_older_alias() {
        let blackout = Arc::new(AtomicBool::new(false));
        let mut sender = ConferenceSender::new(
            1,
            &[PathId(0)],
            Box::new(ScriptedBlackout(blackout.clone())),
            FecKind::None.build(),
            ControllerConfig::default(),
            2_000_000,
        );
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        // Ticks once; the media sequences the tick sent.
        let mut tick = |sender: &mut ConferenceSender, now: &mut SimTime| -> Vec<u64> {
            *now += SimDuration::from_micros(33_333);
            out.clear();
            sender.on_frame_tick_into(*now, 0, &mut FrameScratch::default(), &mut out);
            out.iter()
                .filter_map(|p| match &p.payload {
                    NetPayload::Rtp(SimRtp {
                        kind: RtpKind::Media(m),
                        ..
                    }) => Some(m.sequence),
                    _ => None,
                })
                .collect()
        };
        let nack = |seq: u64| {
            RtcpPacket::Nack(Nack {
                path_id: 0,
                ssrc: 0,
                lost: vec![(seq & 0xFFFF) as u16],
            })
        };

        let old = *tick(&mut sender, &mut now)
            .last()
            .expect("a frame has packets");
        assert_eq!(
            sender.on_rtcp(now, &nack(old)),
            1,
            "a fresh packet is retransmitted"
        );
        // One generation on, the sequence with the same low 16 bits goes
        // out inside a blackout.
        let alias = old + 0x1_0000;
        let mut newest = old;
        while newest + 64 < alias {
            let sent = tick(&mut sender, &mut now);
            assert!(sent.len() < 64, "frames stay small at 2 Mbps");
            newest = *sent.last().expect("a frame has packets");
        }
        blackout.store(true, Ordering::Relaxed);
        for _ in 0..64 {
            assert!(tick(&mut sender, &mut now).is_empty());
        }
        blackout.store(false, Ordering::Relaxed);
        let resumed = tick(&mut sender, &mut now);
        assert!(
            newest < alias && alias < resumed[0],
            "the alias was dropped"
        );

        assert_eq!(
            sender.on_rtcp(now, &nack(alias)),
            0,
            "sequence {alias} was never sent; {old} must not go out in its place"
        );
        assert_eq!(sender.on_rtcp(now, &nack(resumed[0])), 1);
    }

    /// `Flow::on_tick` paces from the snapshot the tick scheduled against
    /// instead of recomputing `path_metrics()`; that holds only while
    /// nothing after the snapshot feeds the controllers or the monitor.
    #[test]
    fn frame_snapshot_equals_fresh_path_metrics_after_every_tick() {
        let paths = [PathId(0), PathId(1)];
        let frame_interval = SimDuration::from_micros(33_333);
        for coupling in [RateCoupling::Uncoupled, RateCoupling::Lia] {
            let mut sender = ConferenceSender::new(
                1,
                &paths,
                SchedulerKind::Converge.build(frame_interval),
                FecKind::Converge.build(),
                ControllerConfig::default(),
                10_000_000,
            );
            sender.set_coupling(coupling);
            let (mut scratch, mut out) = (FrameScratch::default(), Vec::new());
            for i in 0..60u64 {
                let now = SimTime::from_millis(33 * i);
                // Loss and RTT reports between ticks move the controllers.
                let report = RtcpPacket::ReceiverReport(ReceiverReport {
                    path_id: (i % 2) as u8,
                    ssrc: 0,
                    blocks: vec![ReportBlock {
                        ssrc: 0,
                        fraction_lost: (i * 7 % 64) as u8,
                        cumulative_lost: 0,
                        ext_highest_seq: 0,
                        ext_highest_mp_seq: 0,
                        jitter: 0,
                        last_sr: now.as_millis().max(1) as u32,
                        delay_since_last_sr: 0,
                    }],
                });
                sender.on_rtcp(now + SimDuration::from_millis(40 + i % 5), &report);
                out.clear();
                let now = now + SimDuration::from_millis(50);
                sender.on_frame_tick_into(now, 0, &mut scratch, &mut out);
                assert_eq!(scratch.path_metrics(), &sender.path_metrics()[..]);
            }
        }
    }

    /// Path ids read out of RTCP fields are looked up, not trusted: a
    /// receiver report, a transport-feedback report and a NACK that name
    /// path 7 of a two-path call are ignored, and the call goes on exactly
    /// as its twin's does.
    #[test]
    fn rtcp_naming_an_unknown_path_changes_nothing() {
        let (mut told, now, _) = settled_lossy_sender(1);
        let (mut twin, _, _) = settled_lossy_sender(1);
        let block = ReportBlock {
            ssrc: 0,
            fraction_lost: 200,
            cumulative_lost: 9,
            ext_highest_seq: 0,
            ext_highest_mp_seq: 0,
            jitter: 0,
            last_sr: 1,
            delay_since_last_sr: 0,
        };
        let at = now.as_micros();
        for rtcp in [
            RtcpPacket::ReceiverReport(ReceiverReport {
                path_id: 7,
                ssrc: 0,
                blocks: vec![block],
            }),
            RtcpPacket::TransportFeedback(TransportFeedback {
                path_id: 7,
                ssrc: 0,
                arrivals: vec![(0, at), (1, at + 500)],
            }),
            RtcpPacket::Nack(Nack {
                path_id: 7,
                ssrc: 0,
                lost: vec![60_000],
            }),
        ] {
            assert_eq!(told.on_rtcp(now, &rtcp), 0, "{rtcp:?}");
        }
        let sent = |sender: &mut ConferenceSender, now| {
            let mut out = Vec::new();
            sender.on_frame_tick_into(now, 0, &mut FrameScratch::default(), &mut out);
            let packets: Vec<_> = out
                .into_iter()
                .map(|p| (p.path, p.class, p.payload))
                .collect();
            (packets, sender.path_metrics(), encoder_targets(sender))
        };
        for frame in 1..=5 {
            let now = now + SimDuration::from_micros(frame * FRAME_US);
            assert_eq!(sent(&mut told, now), sent(&mut twin, now), "frame {frame}");
        }
    }

    const FRAME_US: u64 = 33_333;

    /// A two-path sender of `streams` cameras under the loss-table FEC
    /// (its rate follows the reported loss only, never the NACKs) that has
    /// run 30 frames at 5 % reported loss, with the sequences of each
    /// stream's last frame.
    fn settled_lossy_sender(streams: u8) -> (ConferenceSender, SimTime, Vec<Vec<u64>>) {
        settled_sender(streams, FecKind::WebRtcTable)
    }

    /// [`settled_lossy_sender`] under any FEC policy: without FEC a
    /// stream's target is its share of the paths' rate exactly.
    fn settled_sender(streams: u8, fec: FecKind) -> (ConferenceSender, SimTime, Vec<Vec<u64>>) {
        let mut sender = ConferenceSender::new(
            streams,
            &[PathId(0), PathId(1)],
            SchedulerKind::Converge.build(SimDuration::from_micros(FRAME_US)),
            fec.build(),
            ControllerConfig::default(),
            10_000_000,
        );
        for path_id in 0..2 {
            let report = RtcpPacket::ReceiverReport(ReceiverReport {
                path_id,
                ssrc: 0,
                blocks: vec![ReportBlock {
                    ssrc: 0,
                    fraction_lost: 13,
                    cumulative_lost: 0,
                    ext_highest_seq: 0,
                    ext_highest_mp_seq: 0,
                    jitter: 0,
                    last_sr: 0,
                    delay_since_last_sr: 0,
                }],
            });
            sender.on_rtcp(SimTime::ZERO, &report);
        }
        let (mut now, mut last) = (SimTime::ZERO, Vec::new());
        for _ in 0..30 {
            (now, last) = round_at(&mut sender, now).0;
        }
        (sender, now, last)
    }

    /// One frame tick of `stream` at `now`: the media sequences it sent,
    /// and the bytes of fresh media, FEC and retransmissions handed to the
    /// pacer.
    fn tick(sender: &mut ConferenceSender, now: SimTime, stream: usize) -> (Vec<u64>, [usize; 3]) {
        let mut out = Vec::new();
        sender.on_frame_tick_into(now, stream, &mut FrameScratch::default(), &mut out);
        let (mut sent, mut bytes) = (Vec::new(), [0; 3]);
        for p in &out {
            let NetPayload::Rtp(rtp) = &p.payload else {
                continue;
            };
            match &rtp.kind {
                RtpKind::Media(m) => {
                    sent.push(m.sequence);
                    bytes[0] += if m.kind.is_media() { m.size } else { 0 };
                }
                RtpKind::Fec { protected, .. } => {
                    bytes[1] += protected.iter().map(|m| m.size).max().expect("a group") + 16;
                }
                RtpKind::Retransmission(m) => bytes[2] += m.size,
                RtpKind::Probe { .. } => {}
            }
        }
        (sent, bytes)
    }

    /// One frame tick of every stream a frame interval after `now`: the
    /// new instant, the media sequences each stream sent, and the bytes
    /// [`tick`] counts, summed over the streams.
    fn round_at(
        sender: &mut ConferenceSender,
        now: SimTime,
    ) -> ((SimTime, Vec<Vec<u64>>), [usize; 3]) {
        let now = now + SimDuration::from_micros(FRAME_US);
        let (mut sent, mut bytes) = (Vec::new(), [0; 3]);
        for stream in 0..sender.streams.len() {
            let (seqs, b) = tick(sender, now, stream);
            sent.push(seqs);
            for (total, b) in bytes.iter_mut().zip(b) {
                *total += b;
            }
        }
        ((now, sent), bytes)
    }

    fn nack_all(sender: &mut ConferenceSender, now: SimTime, ssrc: u32, sent: &[u64]) -> usize {
        let lost = sent.iter().map(|s| (s & 0xFFFF) as u16).collect();
        sender.on_rtcp(
            now,
            &RtcpPacket::Nack(Nack {
                path_id: 0,
                ssrc,
                lost,
            }),
        )
    }

    fn encoder_targets(sender: &ConferenceSender) -> Vec<u64> {
        let targets = sender.streams.iter().map(|s| s.encoder.target_bitrate());
        targets.collect()
    }

    /// The encoder rate `bytes` of retransmissions cost the frame they
    /// leave with.
    fn debit_bps(bytes: usize) -> u64 {
        bytes as u64 * 8_000_000 / FRAME_US
    }

    /// Repair rides inside the rate: the tick that carries R bytes of its
    /// own stream's retransmissions encodes at its target less R × 8 / the
    /// frame interval.
    #[test]
    fn a_tick_pays_for_its_own_retransmissions_out_of_its_target() {
        let (mut quiet, now, _) = settled_lossy_sender(1);
        let (mut nacked, _, last) = settled_lossy_sender(1);
        assert_eq!(nack_all(&mut nacked, now, 0, &last[0][..2]), 2);

        let now = now + SimDuration::from_micros(FRAME_US);
        let (_, [_, _, no_rtx]) = tick(&mut quiet, now, 0);
        let (_, [_, _, rtx]) = tick(&mut nacked, now, 0);
        assert_eq!(no_rtx, 0);
        assert!(rtx > 0);
        let target = encoder_targets(&quiet)[0];
        assert!(
            target > MIN_BITRATE_BPS + debit_bps(rtx),
            "{target} bps is too close to the floor"
        );
        assert_eq!(encoder_targets(&nacked)[0], target - debit_bps(rtx));
    }

    /// Only the stream a retransmission belongs to pays for it: the
    /// packet waits in the queue through the other streams' ticks, which
    /// encode at their quiet twins' targets, and leaves with its own.
    #[test]
    fn another_streams_target_is_untouched_until_it_ticks() {
        let (mut quiet, now, _) = settled_sender(3, FecKind::None);
        let (mut nacked, _, last) = settled_sender(3, FecKind::None);
        assert_eq!(nack_all(&mut nacked, now, 2, &last[2][..1]), 1);

        let now = now + SimDuration::from_micros(FRAME_US);
        for stream in 0..2 {
            tick(&mut quiet, now, stream);
            let (_, [_, _, rtx]) = tick(&mut nacked, now, stream);
            assert_eq!(rtx, 0, "stream {stream} carried stream 2's retransmission");
            assert_eq!(encoder_targets(&nacked), encoder_targets(&quiet));
        }
        tick(&mut quiet, now, 2);
        let (_, [_, _, rtx]) = tick(&mut nacked, now, 2);
        assert!(rtx > 0);
        let (paid, unpaid) = (encoder_targets(&nacked), encoder_targets(&quiet));
        assert_eq!(paid[..2], unpaid[..2]);
        assert!(
            unpaid[2] > MIN_BITRATE_BPS + debit_bps(rtx),
            "{unpaid:?} is too close to the floor"
        );
        assert_eq!(paid[2], unpaid[2] - debit_bps(rtx));
    }

    /// A retransmission is paid for once: the stream's next tick without
    /// one encodes at its quiet twin's target again.
    #[test]
    fn paying_clears_the_debt() {
        let (mut quiet, mut now, _) = settled_sender(1, FecKind::None);
        let (mut nacked, _, last) = settled_sender(1, FecKind::None);
        assert_eq!(nack_all(&mut nacked, now, 0, &last[0][..2]), 2);

        round_at(&mut quiet, now);
        let (_, [_, _, rtx]) = round_at(&mut nacked, now);
        assert!(rtx > 0);
        assert!(encoder_targets(&nacked)[0] < encoder_targets(&quiet)[0]);
        for _ in 0..3 {
            round_at(&mut quiet, now);
            ((now, _), _) = round_at(&mut nacked, now);
            assert_eq!(encoder_targets(&nacked), encoder_targets(&quiet));
        }
    }

    /// A debit larger than the stream's share leaves the encoder at its
    /// floor, not at zero, and the excess is not carried to the next tick.
    #[test]
    fn the_encoder_floor_clamps_the_debit() {
        let (mut quiet, now, _) = settled_sender(3, FecKind::None);
        let (mut nacked, _, last) = settled_sender(3, FecKind::None);
        // The same frame asked for twice is queued twice.
        for _ in 0..2 {
            assert!(nack_all(&mut nacked, now, 0, &last[0]) > 0);
        }

        round_at(&mut quiet, now);
        let ((now, _), [_, _, rtx]) = round_at(&mut nacked, now);
        let share = encoder_targets(&quiet)[0];
        assert!(
            debit_bps(rtx) > share,
            "{rtx} bytes do not outweigh {share} bps"
        );
        assert_eq!(encoder_targets(&nacked)[0], MIN_BITRATE_BPS);

        round_at(&mut quiet, now);
        round_at(&mut nacked, now);
        assert_eq!(encoder_targets(&nacked)[0], encoder_targets(&quiet)[0]);
    }

    /// Retransmissions are paid for by their stream's target and stay out
    /// of the running overhead: the rate controllers' loss discount is FEC
    /// over the frame's fresh media, exactly as without them.
    #[test]
    fn the_loss_discount_stays_fec_over_fresh_media() {
        let (mut nacked, now, last) = settled_lossy_sender(1);
        let before = nacked.fec_overhead_ewma;
        assert!(before > 0.2, "5 % loss buys table FEC: {before}");
        assert_eq!(nack_all(&mut nacked, now, 0, &last[0][..2]), 2);

        let (_, [media, fec, rtx]) = round_at(&mut nacked, now);
        assert!(
            rtx > 0 && media > 0 && fec > 0,
            "{media} + {fec} + {rtx} bytes"
        );
        let expected = 0.9 * before + 0.1 * fec as f64 / media as f64;
        let ewma = nacked.fec_overhead_ewma;
        assert!(
            (ewma - expected).abs() < 1e-12,
            "overhead {ewma} is not {fec} bytes / {media} of fresh media = {expected}"
        );
    }

    /// Retransmissions used to sit in the overhead ratio's denominator, so
    /// a NACK storm shrank the FEC discount and the encoder sped up into
    /// it. Now no frame of the storm encodes above its quiet twin, and
    /// every one after the first encodes below it.
    #[test]
    fn a_nack_storm_cannot_raise_the_encoder_target() {
        let (mut quiet, mut now, _) = settled_lossy_sender(1);
        let (mut stormed, _, mut last) = settled_lossy_sender(1);
        for frame in 0..30 {
            assert!(nack_all(&mut stormed, now, 0, &last[0]) > 0);
            round_at(&mut quiet, now);
            ((now, last), _) = round_at(&mut stormed, now);
            let (stormed, quiet) = (encoder_targets(&stormed)[0], encoder_targets(&quiet)[0]);
            assert!(
                stormed < quiet || (frame == 0 && stormed == quiet),
                "frame {frame}: {stormed} under a storm, {quiet} without"
            );
        }
    }

    /// A Sender Report maps NTP time to RTP time, so it must read the clock
    /// the RTP packets are stamped with: an SR sent at `t` carries the
    /// timestamp `encode_rtp` writes for a packet captured at `t`.
    #[test]
    fn sender_report_and_rtp_packets_share_one_clock() {
        let mut sender = ConferenceSender::new(
            1,
            &[PathId(0), PathId(1)],
            SchedulerKind::Converge.build(SimDuration::from_micros(33_333)),
            FecKind::None.build(),
            ControllerConfig::default(),
            2_000_000,
        );
        let mut out = Vec::new();
        for now in [33_333, 7_000_000, 3_600_000_123].map(SimTime::from_micros) {
            out.clear();
            sender.on_frame_tick_into(now, 0, &mut FrameScratch::default(), &mut out);
            let on_wire: Vec<u32> = out
                .iter()
                .filter_map(|p| match &p.payload {
                    NetPayload::Rtp(
                        rtp @ SimRtp {
                            kind: RtpKind::Media(m),
                            ..
                        },
                    ) => {
                        assert_eq!(m.capture_time, now);
                        let wire = crate::wire::encode_rtp(rtp);
                        Some(
                            converge_rtp::RtpPacket::parse(wire)
                                .expect("parse")
                                .timestamp,
                        )
                    }
                    _ => None,
                })
                .collect();
            assert!(!on_wire.is_empty(), "the tick sent media");
            let reports = sender.periodic_rtcp(now);
            let stamped: Vec<u32> = reports
                .iter()
                .filter_map(|(_, rtcp)| match rtcp {
                    RtcpPacket::SenderReport(sr) => Some(sr.rtp_timestamp),
                    _ => None,
                })
                .collect();
            assert_eq!(stamped.len(), 2, "one SR per path");
            for ts in on_wire.iter().chain(&stamped) {
                assert_eq!(*ts, on_wire[0], "at {now:?}");
            }
        }
    }
}
