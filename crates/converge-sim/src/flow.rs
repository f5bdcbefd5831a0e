//! One direction of media, and the one call loop that drives it.
//!
//! A [`Flow`] is the closed loop of paper §4: the [`ConferenceSender`] at
//! one end, the [`ConferenceReceiver`] at the other, the pacer between the
//! sender and the wire, and the one [`MetricsCollector`] that describes
//! that direction. [`Session`](crate::Session) is one flow,
//! [`DuplexSession`](crate::DuplexSession) is two flows on one emulator
//! (both through [`run_call`]), and every fleet member is a flow whose
//! events the shard's packet queue and timer queue deliver. The handlers
//! here are the only implementation of the pipeline; the three engines
//! differ only in what sits behind the [`Net`] seam and in who keeps time.

use std::collections::BTreeMap;

use converge_core::PacketClass;
use converge_net::{
    event::EventQueue, Direction, NetworkEmulator, Path, PathId, SimDuration, SimTime,
};
use converge_rtp::RtcpPacket;
use converge_trace::{TraceEvent, TraceHandle};
use converge_video::{EncoderConfig, StreamId, VideoFormat};

use crate::metrics::{CallReport, MetricsCollector};
use crate::pacer::{Pacer, PacerConfig};
use crate::payload::{NetPayload, RtpKind, SimRtp};
use crate::receiver::{ConferenceReceiver, ReceiverEvent};
use crate::sender::{ConferenceSender, OutboundPacket, RateCoupling};
use crate::session::SessionConfig;

/// Sender SR/SDES cadence.
const SENDER_RTCP_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// The send seam: where a flow's packets enter the network.
pub(crate) trait Net {
    /// Offers `payload`, `size` bytes on the wire, to `path` in `direction`
    /// at `now`; returns whether the network lost it.
    fn send(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        size: usize,
        payload: NetPayload,
    ) -> bool;
}

impl Net for NetworkEmulator<NetPayload> {
    #[inline]
    fn send(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        size: usize,
        payload: NetPayload,
    ) -> bool {
        NetworkEmulator::send(self, path, direction, now, size, payload)
            .0
            .is_lost()
    }
}

/// A flow's timer events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// Capture+send a frame for one stream.
    Frame(u8),
    /// Receiver fast feedback round (QoE, NACK, PLI).
    ReceiverRtcp,
    /// Receiver transport feedback / RR round (drives congestion control).
    TransportRtcp,
    /// Sender SR/SDES round.
    SenderRtcp,
}

/// The format every camera captures in: the encoder's own
/// ([`EncoderConfig::paper_default`]), which the receiver's frame rate, the
/// metrics and the scheduler's batch interval are derived from.
pub(crate) fn capture_format() -> VideoFormat {
    EncoderConfig::paper_default(StreamId(0)).format
}

fn opposite(direction: Direction) -> Direction {
    match direction {
        Direction::Forward => Direction::Reverse,
        Direction::Reverse => Direction::Forward,
    }
}

/// One direction of media between two endpoints.
pub(crate) struct Flow {
    pub(crate) sender: ConferenceSender,
    receiver: ConferenceReceiver,
    pub(crate) pacer: Pacer,
    pub(crate) metrics: MetricsCollector,
    /// SR bookkeeping at the receiver for RTT echo: path → (SR send ms,
    /// SR arrival).
    sr_seen: BTreeMap<PathId, (u64, SimTime)>,
    pub(crate) trace: TraceHandle,
    /// Direction the media travels; feedback travels the opposite way.
    direction: Direction,
    frame_interval: SimDuration,
    rtcp_interval: SimDuration,
    transport_rtcp_interval: SimDuration,
    /// One frame's outbound packets, one packet's receiver events and one
    /// round's receiver RTCP: reused, so none allocates in the steady state.
    frame_out: Vec<OutboundPacket>,
    rx_events: Vec<ReceiverEvent>,
    rtcp_out: Vec<(PathId, RtcpPacket)>,
}

impl Flow {
    /// Wires `sender` to `receiver` (installing `trace` on both) with the
    /// receiver's fast and transport RTCP intervals.
    pub(crate) fn new(
        direction: Direction,
        mut sender: ConferenceSender,
        mut receiver: ConferenceReceiver,
        metrics: MetricsCollector,
        trace: TraceHandle,
        rtcp_interval: SimDuration,
        transport_rtcp_interval: SimDuration,
    ) -> Self {
        sender.set_trace(trace.clone());
        receiver.set_trace(trace.clone());
        Flow {
            frame_interval: sender.frame_interval(),
            sender,
            receiver,
            pacer: Pacer::new(PacerConfig::default()),
            metrics,
            sr_seen: BTreeMap::new(),
            trace,
            direction,
            rtcp_interval,
            transport_rtcp_interval,
            frame_out: Vec::new(),
            rx_events: Vec::new(),
            rtcp_out: Vec::new(),
        }
    }

    /// The flow a [`SessionConfig`] describes, over `paths`.
    fn for_session(
        cfg: &SessionConfig,
        paths: &[PathId],
        direction: Direction,
        trace: TraceHandle,
    ) -> Self {
        let format = capture_format();
        let mut sender = ConferenceSender::new(
            cfg.streams,
            paths,
            cfg.scheduler.build(format.frame_interval()),
            cfg.fec.build(),
            cfg.controller,
            cfg.max_encoding_rate_bps,
        );
        if cfg.coupled_cc {
            sender.set_coupling(RateCoupling::Lia);
        }
        Flow::new(
            direction,
            sender,
            ConferenceReceiver::new(cfg.streams, paths, format.fps, paths[0]),
            MetricsCollector::new(cfg.duration, format, cfg.max_encoding_rate_bps, cfg.streams),
            trace,
            cfg.rtcp_interval,
            cfg.transport_rtcp_interval,
        )
    }

    /// The flow's first timer fires, `offset` after the start of the call:
    /// streams staggered 3 ms apart so their frames don't collide, then
    /// the three RTCP rounds.
    pub(crate) fn first_ticks(&self, offset: SimDuration) -> impl Iterator<Item = (SimTime, Tick)> {
        let at = move |us: u64| SimTime::from_micros(us) + offset;
        (0..self.sender.stream_count() as u8)
            .map(move |s| (at(s as u64 * 3_000), Tick::Frame(s)))
            .chain([
                (at(50_000), Tick::ReceiverRtcp),
                (at(60_000), Tick::TransportRtcp),
                (at(40_000), Tick::SenderRtcp),
            ])
    }

    /// Sends every packet the pacer releases at `now`.
    pub(crate) fn drain_pacer(&mut self, now: SimTime, net: &mut impl Net) {
        let Flow {
            pacer,
            metrics,
            trace,
            direction,
            ..
        } = self;
        pacer.release(now, |out, size| {
            let is_fec = out.class == PacketClass::Fec;
            let is_media = matches!(
                &out.payload,
                NetPayload::Rtp(r) if r.kind.video_packet().is_some()
            );
            metrics.on_packet_sent(now, out.path, size, is_fec, is_media);
            if out.class == PacketClass::Retransmission {
                metrics.on_retransmission();
                trace.emit(now, TraceEvent::Retransmitted { path: out.path });
            }
            if net.send(out.path, *direction, now, size, out.payload) {
                metrics.on_packet_lost(out.path);
            }
        });
    }

    /// Handles one payload arriving at whichever end of the flow it was
    /// bound for: media and SR/SDES at the receiver, feedback and probe
    /// echoes at the sender.
    pub(crate) fn on_delivery(
        &mut self,
        now: SimTime,
        path: PathId,
        payload: NetPayload,
        net: &mut impl Net,
    ) {
        match payload {
            NetPayload::Rtp(rtp) => self.on_media(now, path, rtp, net),
            NetPayload::Rtcp(RtcpPacket::SenderReport(sr)) => {
                self.sr_seen
                    .insert(PathId(sr.path_id), (sr.ntp_micros / 1_000, now));
            }
            NetPayload::Rtcp(RtcpPacket::Sdes(sdes)) => {
                if let Some(fr) = sdes.frame_rate {
                    self.receiver.on_sdes_frame_rate(fr as u32);
                }
            }
            NetPayload::Rtcp(rtcp) => {
                if let RtcpPacket::Nack(n) = &rtcp {
                    self.metrics.on_nack_sent(n.lost.len());
                    self.trace.emit(
                        now,
                        TraceEvent::NackSent {
                            path,
                            packets: n.lost.len() as u32,
                        },
                    );
                }
                if matches!(rtcp, RtcpPacket::Pli(_)) {
                    self.metrics.on_keyframe_request();
                }
                self.sender.on_rtcp(now, &rtcp);
            }
            NetPayload::ProbeEcho { probe_seq, .. } => self.sender.on_probe_echo(now, probe_seq),
        }
    }

    /// An RTP packet reached the receiver, which keeps what it needs of it.
    pub(crate) fn on_media(&mut self, now: SimTime, path: PathId, rtp: SimRtp, net: &mut impl Net) {
        // Probe packets are echoed straight back.
        if let RtpKind::Probe { probe_seq } = rtp.kind {
            let echo = NetPayload::ProbeEcho {
                probe_seq,
                probe_sent_at: rtp.sent_at,
            };
            net.send(path, opposite(self.direction), now, echo.wire_size(), echo);
        }
        let media_payload = match &rtp.kind {
            RtpKind::Media(p) if p.kind.is_media() => p.size,
            RtpKind::Retransmission(p) if p.kind.is_media() => p.size,
            _ => 0,
        };
        self.metrics.on_packet_received(now, path, media_payload);
        let mut events = std::mem::take(&mut self.rx_events);
        self.receiver.on_rtp_into(now, rtp, &mut events);
        for ev in events.drain(..) {
            self.record_receiver_event(now, ev);
        }
        self.rx_events = events;
    }

    fn record_receiver_event(&mut self, now: SimTime, ev: ReceiverEvent) {
        match ev {
            ReceiverEvent::FrameDecoded { stream, at, e2e } => {
                // Stamp with `now`, not the decode instant: the frame
                // buffer may date decodes to a future playout deadline,
                // and the trace timeline must stay monotone.
                self.trace.emit(
                    now,
                    TraceEvent::FrameDecoded {
                        stream: stream.0,
                        e2e_us: e2e.as_micros(),
                    },
                );
                if let Some(gap) = self.metrics.on_frame_decoded(stream, at, e2e) {
                    self.trace.emit(
                        now,
                        TraceEvent::FrameFrozen {
                            gap_us: gap.as_micros(),
                        },
                    );
                }
            }
            ReceiverEvent::FrameDropped { stream, .. } => {
                self.trace
                    .emit(now, TraceEvent::FrameDropped { stream: stream.0 });
                self.metrics.on_frame_dropped(now);
            }
            ReceiverEvent::Ifd { at, ifd } => self.metrics.on_ifd(at, ifd),
            ReceiverEvent::Fcd { at, fcd } => self.metrics.on_fcd(at, fcd),
            ReceiverEvent::FecRecovered => self.metrics.on_fec_used(),
            ReceiverEvent::FecReceived => self.metrics.on_fec_received(),
        }
    }

    /// Runs one timer event; returns when the same tick fires next.
    pub(crate) fn on_tick(&mut self, now: SimTime, tick: Tick, net: &mut impl Net) -> SimTime {
        match tick {
            Tick::Frame(stream) => {
                let frame =
                    self.sender
                        .on_frame_tick_into(now, stream as usize, &mut self.frame_out);
                self.metrics.on_frame_encoded(now, frame.qp, frame.height);
                // Keep the pacer's budgets in sync with congestion control.
                for m in self.sender.frame_path_metrics() {
                    self.pacer.set_rate(m.id, m.rate_bps as f64);
                }
                self.pacer.enqueue_drain(now, &mut self.frame_out);
                now + self.frame_interval
            }
            Tick::ReceiverRtcp | Tick::TransportRtcp => {
                let transport = tick == Tick::TransportRtcp;
                self.receiver
                    .poll_rtcp_into(now, &self.sr_seen, transport, &mut self.rtcp_out);
                for (path, rtcp) in self.rtcp_out.drain(..) {
                    let payload = NetPayload::Rtcp(rtcp);
                    let size = payload.wire_size();
                    net.send(path, opposite(self.direction), now, size, payload);
                }
                now + if transport {
                    self.transport_rtcp_interval
                } else {
                    self.rtcp_interval
                }
            }
            Tick::SenderRtcp => {
                for (path, rtcp) in self.sender.periodic_rtcp(now) {
                    let payload = NetPayload::Rtcp(rtcp);
                    net.send(path, self.direction, now, payload.wire_size(), payload);
                }
                now + SENDER_RTCP_INTERVAL
            }
        }
    }

    /// Folds the collected metrics into the direction's report.
    pub(crate) fn finish(self) -> CallReport {
        self.metrics.finish()
    }
}

/// Index of the flow whose media travels in `direction` (see [`run_call`]).
fn slot(direction: Direction) -> usize {
    match direction {
        Direction::Forward => 0,
        Direction::Reverse => 1,
    }
}

/// Runs `N` flows over one emulator built from `paths` to the end of the
/// call described by `cfg`: flow 0 sends `Forward`, flow 1 (if any) sends
/// `Reverse` and starts 16 ms later so the two directions' frames don't
/// collide. Returns one report per flow.
pub(crate) fn run_call<const N: usize>(
    cfg: &SessionConfig,
    paths: Vec<Path>,
    traces: [TraceHandle; N],
) -> [CallReport; N] {
    let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
    let mut emu: NetworkEmulator<NetPayload> = NetworkEmulator::new(paths);
    let mut directions = [Direction::Forward, Direction::Reverse].into_iter();
    let mut flows = traces.map(|trace| {
        let direction = directions.next().expect("a path has two directions");
        Flow::for_session(cfg, &path_ids, direction, trace)
    });

    let mut timers: EventQueue<(usize, Tick)> = EventQueue::new();
    for (i, flow) in flows.iter().enumerate() {
        for (at, tick) in flow.first_ticks(SimDuration::from_millis(16 * i as u64)) {
            timers.schedule(at, (i, tick));
        }
    }

    let end = SimTime::ZERO + cfg.duration;
    let mut clock = SimTime::ZERO;
    // "Never" as a scalar, so the earliest source is a plain integer min.
    // `SimTime::MAX` itself (a stalled link's arrival) ends the call just
    // as no source at all does: both are at or past `end`.
    let micros = |t: Option<SimTime>| t.map_or(u64::MAX, SimTime::as_micros);

    loop {
        // When no pacer holds a packet and nothing is in flight, the only
        // possible event source is a timer: jump straight there.
        let idle = cfg.idle_skip && emu.idle() && flows.iter().all(|f| f.pacer.is_empty());
        // Next event: earliest of timers, network deliveries, and the
        // pacers' next release.
        let mut next = micros(timers.peek_time());
        if !idle {
            next = next.min(micros(emu.next_arrival()));
            for flow in flows.iter() {
                next = next.min(micros(flow.pacer.next_release()));
            }
        }
        // The pacer reports a stale (past) `busy_until` for a path that
        // went idle and was re-filled; clamp so simulated time never runs
        // backwards.
        let now = SimTime::from_micros(next).max(clock);
        clock = now;
        if now >= end {
            break;
        }

        // Paced transmissions and network deliveries due now (idle pacers
        // release nothing, an idle emulator delivers nothing). One at a
        // time: handling a delivery can only put arrivals strictly after
        // `now` into the emulator, so this visits what a drained batch
        // would.
        if !idle {
            for flow in flows.iter_mut() {
                flow.drain_pacer(now, &mut emu);
            }
            while let Some(delivery) = emu.pop_due(now) {
                // Media and SR/SDES travel with their flow, to its
                // receiver; feedback and probe echoes travel against it,
                // to its sender.
                let with_flow = matches!(
                    &delivery.payload,
                    NetPayload::Rtp(_)
                        | NetPayload::Rtcp(RtcpPacket::SenderReport(_) | RtcpPacket::Sdes(_))
                );
                let flow_direction = if with_flow {
                    delivery.direction
                } else {
                    opposite(delivery.direction)
                };
                if let Some(flow) = flows.get_mut(slot(flow_direction)) {
                    flow.on_delivery(now, delivery.path, delivery.payload, &mut emu);
                }
            }
        }

        // Timer events due now.
        while let Some((_, (i, tick))) = timers.pop_due(now) {
            let next = flows[i].on_tick(now, tick, &mut emu);
            timers.schedule(next, (i, tick));
        }
    }

    flows.map(Flow::finish)
}
