//! A line-for-line mirror of `Session::run`, built from the public pieces,
//! with a span around every call into a layer.
//!
//! This is the one file that follows `crates/converge-sim/src/session.rs`
//! statement by statement: keep the two in the same order so a diff reads.
//! Every traced job's `CallReport` is asserted Debug-identical to
//! `Session::run`'s, so a drift shows as failed operations, not as quietly
//! wrong layer numbers.

use std::collections::BTreeMap;

use converge_core::PacketClass;
use converge_net::{
    event::EventQueue, Delivery, Direction, NetworkEmulator, PathId, SimDuration, SimTime,
};
use converge_rtp::RtcpPacket;
use converge_sim::receiver::ReceiverEvent;
use converge_sim::{
    CallReport, ConferenceReceiver, ConferenceSender, MetricsCollector, NetPayload, OutboundPacket,
    Pacer, PacerConfig, RateCoupling, RtpKind, SessionConfig,
};
use converge_trace::{TraceEvent, TraceHandle};

use crate::spans::{Layer, Spans};

/// Exact work counts of one mirrored call: useful outcomes and attempts at
/// the boundaries where the work happens.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopCounts {
    /// Event-loop iterations.
    pub iters: u64,
    /// Iterations that took the idle fast path (clock jump, no polls).
    pub idle_iters: u64,
    /// Pacer polls.
    pub pacer_polls: u64,
    /// Packets those polls released.
    pub pacer_released: u64,
    /// Emulator polls.
    pub emulator_polls: u64,
    /// Deliveries those polls returned.
    pub emulator_deliveries: u64,
    /// Paced packets the forward links dropped.
    pub forward_lost: u64,
    /// RTP packets handed to the receiver.
    pub rtp_delivered: u64,
    /// Receiver events those packets produced.
    pub receiver_events: u64,
}

impl LoopCounts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &LoopCounts) {
        self.iters += o.iters;
        self.idle_iters += o.idle_iters;
        self.pacer_polls += o.pacer_polls;
        self.pacer_released += o.pacer_released;
        self.emulator_polls += o.emulator_polls;
        self.emulator_deliveries += o.emulator_deliveries;
        self.forward_lost += o.forward_lost;
        self.rtp_delivered += o.rtp_delivered;
        self.receiver_events += o.receiver_events;
    }
}

/// The session loop's timer events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    Frame(usize),
    ReceiverRtcp,
    TransportRtcp,
    SenderRtcp,
}

/// The simulated second whose spans are kept in full: a third into the
/// call, which is [60 s, 61 s) of a 180 s call.
fn record_window(duration: SimDuration) -> (SimTime, SimTime) {
    let start = SimTime::ZERO + SimDuration::from_micros(duration.as_micros() / 3);
    (start, start + SimDuration::from_secs(1))
}

/// Runs `cfg` exactly as `Session::new(cfg).run()` does, as job `job` of
/// the traced pass.
pub fn run(cfg: SessionConfig, spans: &mut Spans, job: u32) -> (CallReport, LoopCounts) {
    let mut counts = LoopCounts::default();
    spans.begin_job(job);
    let (window_start, window_end) = record_window(cfg.duration);

    let t = spans.enter();
    let paths = cfg.scenario.build_paths(cfg.seed);
    let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
    let mut emu: NetworkEmulator<NetPayload> = NetworkEmulator::new(paths);

    let format = converge_video::VideoFormat::HD720;
    let mut metrics =
        MetricsCollector::new(cfg.duration, format, cfg.max_encoding_rate_bps, cfg.streams);

    let frame_interval = SimDuration::from_micros(1_000_000 / format.fps as u64);
    let mut sender = ConferenceSender::new(
        cfg.streams,
        &path_ids,
        cfg.scheduler.build(frame_interval),
        cfg.fec.build(),
        cfg.controller,
        cfg.max_encoding_rate_bps,
    );
    if cfg.coupled_cc {
        sender.set_coupling(RateCoupling::Lia);
    }
    let mut receiver = ConferenceReceiver::new(cfg.streams, &path_ids, format.fps, path_ids[0]);
    let mut pacer = Pacer::new(PacerConfig::default());

    let trace = cfg.trace.clone();
    sender.set_trace(trace.clone());
    receiver.set_trace(trace.clone());

    let mut sr_seen: BTreeMap<PathId, (u64, SimTime)> = BTreeMap::new();

    let mut timers: EventQueue<Tick> = EventQueue::new();
    for s in 0..cfg.streams as usize {
        timers.schedule(SimTime::from_micros(s as u64 * 3_000), Tick::Frame(s));
    }
    timers.schedule(SimTime::from_millis(50), Tick::ReceiverRtcp);
    timers.schedule(SimTime::from_millis(60), Tick::TransportRtcp);
    timers.schedule(SimTime::from_millis(40), Tick::SenderRtcp);

    let end = SimTime::ZERO + cfg.duration;
    let mut clock = SimTime::ZERO;

    let mut paced: Vec<OutboundPacket> = Vec::new();
    let mut deliveries: Vec<Delivery<NetPayload>> = Vec::new();
    spans.exit(Layer::SessionSetup, t);

    loop {
        let t = spans.enter();
        let idle = cfg.idle_skip && pacer.is_empty() && emu.idle();
        let next = if idle {
            timers.peek_time()
        } else {
            let candidates = [timers.peek_time(), emu.next_arrival(), pacer.next_release()];
            candidates.into_iter().flatten().min()
        };
        spans.exit(Layer::LoopNextEvent, t);
        let Some(now) = next else { break };
        let now = now.max(clock);
        clock = now;
        if now >= end {
            break;
        }
        counts.iters += 1;
        counts.idle_iters += idle as u64;
        spans.recording = spans.keep_windows && now >= window_start && now < window_end;

        if !idle {
            let t = spans.enter();
            pacer.poll_into(now, &mut paced);
            spans.exit(Layer::Pacer, t);
            counts.pacer_polls += 1;
            counts.pacer_released += paced.len() as u64;
        }
        for out in paced.drain(..) {
            let t = spans.enter();
            let size = out.payload.wire_size();
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
            spans.exit(Layer::Metrics, t);
            let t = spans.enter();
            let (outcome, _) = emu.send(out.path, Direction::Forward, now, size, out.payload);
            spans.exit(Layer::EmulatorSend, t);
            if outcome.is_lost() {
                counts.forward_lost += 1;
                let t = spans.enter();
                metrics.on_packet_lost(out.path);
                spans.exit(Layer::Metrics, t);
            }
        }

        if !idle {
            let t = spans.enter();
            emu.poll_into(now, &mut deliveries);
            spans.exit(Layer::EmulatorPoll, t);
            counts.emulator_polls += 1;
            counts.emulator_deliveries += deliveries.len() as u64;
        }
        for delivery in deliveries.drain(..) {
            match (delivery.direction, delivery.payload) {
                (Direction::Forward, NetPayload::Rtp(rtp)) => {
                    if let RtpKind::Probe { probe_seq } = rtp.kind {
                        let t = spans.enter();
                        let echo = NetPayload::ProbeEcho {
                            probe_seq,
                            probe_sent_at: rtp.sent_at,
                        };
                        let size = echo.wire_size();
                        emu.send(delivery.path, Direction::Reverse, now, size, echo);
                        spans.exit(Layer::EmulatorSend, t);
                    }
                    let t = spans.enter();
                    let media_payload = match &rtp.kind {
                        RtpKind::Media(p) if p.kind.is_media() => p.size,
                        RtpKind::Retransmission(p) if p.kind.is_media() => p.size,
                        _ => 0,
                    };
                    metrics.on_packet_received(now, delivery.path, media_payload);
                    spans.exit(Layer::Metrics, t);
                    let t = spans.enter();
                    let events = receiver.on_rtp(now, &rtp);
                    spans.exit(Layer::ReceiverRtp, t);
                    counts.rtp_delivered += 1;
                    counts.receiver_events += events.len() as u64;
                    if !events.is_empty() {
                        let t = spans.enter();
                        for ev in events {
                            record_receiver_event(&mut metrics, &trace, now, ev);
                        }
                        spans.exit(Layer::Metrics, t);
                    }
                }
                (Direction::Forward, NetPayload::Rtcp(rtcp)) => {
                    let t = spans.enter();
                    match &rtcp {
                        RtcpPacket::SenderReport(sr) => {
                            sr_seen.insert(PathId(sr.path_id), (sr.ntp_micros / 1_000, now));
                        }
                        RtcpPacket::Sdes(sdes) => {
                            if let Some(fr) = sdes.frame_rate {
                                receiver.on_sdes_frame_rate(fr as u32);
                            }
                        }
                        _ => {}
                    }
                    spans.exit(Layer::ReceiverRtcp, t);
                }
                (Direction::Reverse, NetPayload::Rtcp(rtcp)) => {
                    if let RtcpPacket::Nack(ref n) = rtcp {
                        let t = spans.enter();
                        metrics.on_nack_sent(n.lost.len());
                        trace.emit(
                            now,
                            TraceEvent::NackSent {
                                path: delivery.path,
                                packets: n.lost.len() as u32,
                            },
                        );
                        spans.exit(Layer::Metrics, t);
                    }
                    if matches!(rtcp, RtcpPacket::Pli(_)) {
                        let t = spans.enter();
                        metrics.on_keyframe_request();
                        spans.exit(Layer::Metrics, t);
                    }
                    let t = spans.enter();
                    sender.on_rtcp(now, &rtcp);
                    spans.exit(Layer::SenderRtcp, t);
                }
                (Direction::Reverse, NetPayload::ProbeEcho { probe_seq, .. }) => {
                    let t = spans.enter();
                    sender.on_probe_echo(now, probe_seq);
                    spans.exit(Layer::SenderRtcp, t);
                }
                (Direction::Forward, NetPayload::ProbeEcho { .. })
                | (Direction::Reverse, NetPayload::Rtp(_)) => {}
            }
        }

        loop {
            let t = spans.enter();
            let due = timers.pop_due(now);
            spans.exit(Layer::EventTimers, t);
            let Some((_, tick)) = due else { break };
            match tick {
                Tick::Frame(stream_idx) => {
                    let t = spans.enter();
                    let result = sender.on_frame_tick(now, stream_idx);
                    spans.exit(Layer::SenderFrame, t);
                    let t = spans.enter();
                    metrics.on_frame_encoded(now, result.qp, result.height);
                    spans.exit(Layer::Metrics, t);
                    let t = spans.enter();
                    let path_metrics = sender.path_metrics();
                    spans.exit(Layer::SenderFrame, t);
                    let t = spans.enter();
                    for m in path_metrics {
                        pacer.set_rate(m.id, m.rate_bps as f64);
                    }
                    pacer.enqueue(now, result.packets);
                    spans.exit(Layer::Pacer, t);
                    let t = spans.enter();
                    timers.schedule(now + frame_interval, Tick::Frame(stream_idx));
                    spans.exit(Layer::EventTimers, t);
                }
                Tick::ReceiverRtcp | Tick::TransportRtcp => {
                    let transport = tick == Tick::TransportRtcp;
                    let t = spans.enter();
                    let batch = receiver.poll_rtcp_with(now, &sr_seen, transport);
                    spans.exit(Layer::ReceiverRtcp, t);
                    for (path, rtcp) in batch {
                        let t = spans.enter();
                        let payload = NetPayload::Rtcp(rtcp);
                        let size = payload.wire_size();
                        emu.send(path, Direction::Reverse, now, size, payload);
                        spans.exit(Layer::EmulatorSend, t);
                    }
                    let interval = if transport {
                        cfg.transport_rtcp_interval
                    } else {
                        cfg.rtcp_interval
                    };
                    let t = spans.enter();
                    timers.schedule(now + interval, tick);
                    spans.exit(Layer::EventTimers, t);
                }
                Tick::SenderRtcp => {
                    let t = spans.enter();
                    let batch = sender.periodic_rtcp(now);
                    spans.exit(Layer::SenderRtcp, t);
                    for (path, rtcp) in batch {
                        let t = spans.enter();
                        let payload = NetPayload::Rtcp(rtcp);
                        let size = payload.wire_size();
                        emu.send(path, Direction::Forward, now, size, payload);
                        spans.exit(Layer::EmulatorSend, t);
                    }
                    let t = spans.enter();
                    timers.schedule(now + SimDuration::from_millis(500), Tick::SenderRtcp);
                    spans.exit(Layer::EventTimers, t);
                }
            }
        }

        let t = spans.enter();
        metrics.flush_tick();
        spans.exit(Layer::Metrics, t);
    }

    spans.recording = false;
    let t = spans.enter();
    let report = metrics.finish();
    spans.exit(Layer::Metrics, t);
    spans.end_job();
    (report, counts)
}

/// Mirrors `Session::record_receiver_event`.
fn record_receiver_event(
    metrics: &mut MetricsCollector,
    trace: &TraceHandle,
    now: SimTime,
    ev: ReceiverEvent,
) {
    match ev {
        ReceiverEvent::FrameDecoded { stream, at, e2e } => {
            trace.emit(
                now,
                TraceEvent::FrameDecoded {
                    stream: stream.0,
                    e2e_us: e2e.as_micros(),
                },
            );
            if let Some(gap) = metrics.on_frame_decoded(stream, at, e2e) {
                trace.emit(
                    now,
                    TraceEvent::FrameFrozen {
                        gap_us: gap.as_micros(),
                    },
                );
            }
        }
        ReceiverEvent::FrameDropped { stream, .. } => {
            trace.emit(now, TraceEvent::FrameDropped { stream: stream.0 });
            metrics.on_frame_dropped(now);
        }
        ReceiverEvent::Ifd { at, ifd } => metrics.on_ifd(at, ifd),
        ReceiverEvent::Fcd { at, fcd } => metrics.on_fcd(at, fcd),
        ReceiverEvent::FecRecovered => metrics.on_fec_used(),
        ReceiverEvent::FecReceived => metrics.on_fec_received(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_sim::{FecKind, ScenarioConfig, SchedulerKind, Session};

    #[test]
    fn mirror_is_debug_identical_to_session_run() {
        for (loss, streams, seed) in [(0.0, 1, 3), (5.0, 3, 4)] {
            let cfg = SessionConfig::paper_default(
                ScenarioConfig::fec_tradeoff(loss),
                SchedulerKind::Converge,
                FecKind::Converge,
                streams,
                SimDuration::from_secs(12),
                seed,
            );
            let mut spans = Spans::default();
            let (mirrored, counts) = run(cfg.clone(), &mut spans, 0);
            let reference = Session::new(cfg).run();
            assert_eq!(format!("{mirrored:?}"), format!("{reference:?}"));
            assert!(counts.iters > 0 && counts.rtp_delivered > 0);
            assert!(counts.pacer_released >= counts.rtp_delivered);
            assert_eq!(spans.calls(Layer::SessionSetup), 1);
            assert_eq!(spans.calls(Layer::LoopNextEvent), counts.iters + 1);
            // [4 s, 5 s) of a 12 s call is recorded in full.
            assert!(spans.records().len() > 100);
        }
    }

    #[test]
    fn record_window_is_a_third_in() {
        let (a, b) = record_window(SimDuration::from_secs(180));
        assert_eq!((a, b), (SimTime::from_secs(60), SimTime::from_secs(61)));
    }
}
