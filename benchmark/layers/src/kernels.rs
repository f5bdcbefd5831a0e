//! Kernels: direct timed calls into one layer's public functions on seeded
//! inputs. Each reports normalised ns per operation — the median of nine
//! batches, after one untimed batch.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bench_harness::estimator::{nearest_rank, Reference};
use bytes::Bytes;
use converge_cc::{ControllerConfig, ControllerKind};
use converge_core::{
    classify, ConvergeScheduler, ConvergeSchedulerConfig, PathMetrics, Schedulable, Scheduler,
};
use converge_gcc::PacketTiming;
use converge_net::event::EventQueue;
use converge_net::{
    Arena, Direction, PathId, SfuConfig, SfuNode, SimDuration, SimTime, TimerWheel,
};
use converge_rtp::{fec, RtcpPacket, RtpPacket};
use converge_sim::wire::{decode_rtp, encode_rtp};
use converge_sim::{
    ConferenceReceiver, ConferenceSender, DriveFixture, FecKind, NetPayload, PathSpec,
    SchedulerKind, SimRtp,
};
use converge_trace::{jsonl, RingSink, TraceEvent, TraceHandle};
use converge_video::{
    CompleteFrame, EncoderConfig, FrameBuffer, PacketBuffer, PacketBufferEvent, Packetizer,
    PacketizerConfig, StreamId, VideoEncoder, VideoPacket,
};

const BATCHES: usize = 9;
const FRAME_US: u64 = 33_333;

/// Seeded input source for the kernels.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Runs the kernels and collects `(metric name, raw ns per op)`; the
/// reference runs before each so the caller can normalise the lot.
pub struct Kernels<'a> {
    reference: &'a mut Reference,
    /// Reference times taken between kernels.
    pub ref_s: Vec<f64>,
    /// `(name, ns per operation)` in execution order.
    pub results: Vec<(&'static str, f64)>,
    seed: u64,
}

impl<'a> Kernels<'a> {
    /// Kernels whose inputs derive from `seed`.
    pub fn new(reference: &'a mut Reference, seed: u64) -> Self {
        Kernels {
            reference,
            ref_s: Vec::new(),
            results: Vec::new(),
            seed,
        }
    }

    fn rng(&self, salt: u64) -> Rng {
        Rng((self.seed ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Times `batch` (which performs `ops` operations per call).
    fn time(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut()) {
        self.ref_s.push(self.reference.run().0);
        batch();
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                batch();
                started.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        self.results.push((name, nearest_rank(&per_op, 0.5)));
    }

    /// Runs every kernel.
    pub fn run_all(&mut self) {
        self.event_queue("event.push_pop_ns.d64", 64);
        self.event_queue("event.push_pop_ns.d4096", 4096);
        self.timer_wheel("timer.insert_pop_ns.d8", 8);
        self.timer_wheel("timer.insert_pop_ns.d4096", 4096);
        self.arena();
        self.link(
            "link.offer_ns.const",
            PathSpec::constant(15_000_000, 50, 0.0),
        );
        let drive = DriveFixture::Handover.scenario().paths.swap_remove(0);
        self.link("link.offer_ns.drive", drive);
        self.fec();
        self.video();
        self.scheduler("scheduler.assign_ns_per_pkt.p2", 2);
        self.scheduler("scheduler.assign_ns_per_pkt.p8", 8);
        self.controller("cc.feedback_ns.gcc", ControllerKind::Gcc);
        self.controller("cc.feedback_ns.nada", ControllerKind::Nada);
        self.controller("cc.feedback_ns.mpbbr", ControllerKind::MpBbr);
        self.wire();
        self.trace_emit();
        self.sfu();
    }

    /// Pop the earliest event, schedule one a random frame-ish time ahead,
    /// at a steady depth: the session's timer+in-flight queue (d64) and a
    /// fleet shard's shared queue (d4096).
    fn event_queue(&mut self, name: &'static str, depth: u64) {
        let mut rng = self.rng(depth);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.schedule(SimTime::from_micros(rng.next() % FRAME_US), i);
        }
        const OPS: u64 = 20_000;
        self.time(name, OPS, || {
            for _ in 0..OPS {
                let (at, ev) = q.pop().expect("queue stays at depth");
                q.schedule(at + SimDuration::from_micros(1 + rng.next() % FRAME_US), ev);
            }
        });
    }

    /// Advance one wheel slot, re-arm whatever fired a frame-ish time
    /// ahead; ns per timer fired (the advance is part of its price).
    fn timer_wheel(&mut self, name: &'static str, pending: u64) {
        let mut rng = self.rng(pending);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..pending {
            wheel.schedule(SimTime::from_micros(1 + rng.next() % FRAME_US), i);
        }
        let mut due: Vec<(SimTime, u64)> = Vec::new();
        let mut now = 0u64;
        // One batch sweeps 100 frame intervals, so every timer fires 100x.
        let steps = 100 * FRAME_US / 1_024;
        self.time(name, 100 * pending, || {
            for _ in 0..steps {
                now += 1_024;
                wheel.pop_due_into(SimTime::from_micros(now), &mut due);
                for (_, item) in due.drain(..) {
                    wheel.schedule(SimTime::from_micros(now + FRAME_US), item);
                }
            }
        });
    }

    /// Insert / read / remove on a warm free list: the in-flight packet
    /// arena's steady state.
    fn arena(&mut self) {
        let mut arena: Arena<[u8; 64]> = Arena::with_capacity(1024);
        let keys: Vec<_> = (0..512).map(|_| arena.insert([0u8; 64])).collect();
        for k in keys {
            arena.remove(k);
        }
        const OPS: u64 = 50_000;
        self.time("arena.insert_remove_ns", OPS, || {
            for i in 0..OPS {
                let k = arena.insert([i as u8; 64]);
                std::hint::black_box(arena.get(k));
                arena.remove(k).expect("just inserted");
            }
        });
    }

    /// MTU packets offered at just under line rate, so the queue holds a
    /// few packets and nothing overflows.
    fn link(&mut self, name: &'static str, spec: PathSpec) {
        let mut path = spec.build(PathId(0), self.seed);
        let mut now = 0u64;
        const OPS: u64 = 5_000;
        self.time(name, OPS, || {
            for _ in 0..OPS {
                now += 700;
                let at = SimTime::from_micros(now);
                std::hint::black_box(path.offer(Direction::Forward, at, 1_200));
            }
        });
    }

    /// One XOR repair over eight MTU payloads, and recovering one of them.
    fn fec(&mut self) {
        let mut rng = self.rng(0xFEC);
        let pkts: Vec<(u16, Bytes)> = (0..8u16)
            .map(|s| {
                (
                    s,
                    Bytes::from((0..1200).map(|_| rng.next() as u8).collect::<Vec<u8>>()),
                )
            })
            .collect();
        const GROUPS: u64 = 200;
        self.time("fec.encode_ns_per_pkt", GROUPS * 8, || {
            for _ in 0..GROUPS {
                std::hint::black_box(fec::encode_one(std::hint::black_box(&pkts)));
            }
        });
        let group = fec::encode_one(&pkts);
        let received = pkts[1..].to_vec();
        self.time("fec.recover_ns_per_group", GROUPS, || {
            for _ in 0..GROUPS {
                let got = fec::recover(&group, std::hint::black_box(&received));
                std::hint::black_box(got.expect("one loss is recoverable"));
            }
        });
    }

    /// Packetize, reassemble and reorder the same 64 encoded frames.
    fn video(&mut self) {
        let mut encoder = VideoEncoder::new(EncoderConfig::paper_default(StreamId(0)));
        let frames: Vec<_> = (0..64u64)
            .map(|i| encoder.encode(SimTime::from_micros(i * FRAME_US)))
            .collect();
        self.time("video.packetize_ns_per_frame", frames.len() as u64, || {
            let mut packetizer = Packetizer::new(PacketizerConfig::default());
            for frame in &frames {
                std::hint::black_box(packetizer.packetize(frame));
            }
        });

        let mut packetizer = Packetizer::new(PacketizerConfig::default());
        let packets: Vec<VideoPacket> = frames
            .iter()
            .flat_map(|f| packetizer.packetize(f))
            .collect();
        let mut complete: Vec<CompleteFrame> = Vec::new();
        self.time(
            "video.packet_buffer_ns_per_pkt",
            packets.len() as u64,
            || {
                let mut buffer = PacketBuffer::new(768);
                complete.clear();
                for (i, p) in packets.iter().enumerate() {
                    for ev in buffer.insert(SimTime::from_micros(i as u64 * 100), p) {
                        if let PacketBufferEvent::FrameComplete(frame) = ev {
                            complete.push(frame);
                        }
                    }
                }
            },
        );
        assert_eq!(complete.len(), frames.len(), "every frame reassembles");

        self.time(
            "video.frame_buffer_ns_per_frame",
            complete.len() as u64,
            || {
                let mut buffer = FrameBuffer::new(64);
                for frame in &complete {
                    buffer.sps_received(frame.gop_id);
                    std::hint::black_box(buffer.insert(frame.completed_at, *frame));
                }
            },
        );
    }

    /// Converge's scheduler splitting one frame's packets over `n` paths.
    fn scheduler(&mut self, name: &'static str, n: u8) {
        let mut rng = self.rng(n as u64);
        let paths: Vec<PathMetrics> = (0..n)
            .map(|i| {
                let rate = 4_000_000 + rng.next() % 12_000_000;
                let rtt = SimDuration::from_millis(30 + rng.next() % 90);
                PathMetrics::new(PathId(i), rate, rtt, (rng.next() % 30) as f64 / 1_000.0)
            })
            .collect();
        let mut encoder = VideoEncoder::new(EncoderConfig::paper_default(StreamId(0)));
        let mut packetizer = Packetizer::new(PacketizerConfig::default());
        let frame = encoder.encode(SimTime::ZERO);
        let batch: Vec<Schedulable> = packetizer
            .packetize(&frame)
            .into_iter()
            .map(|packet| Schedulable {
                packet,
                class: classify(&packet),
            })
            .collect();
        let mut scheduler = ConvergeScheduler::new(ConvergeSchedulerConfig::default());
        let mut now = 0u64;
        const FRAMES: u64 = 200;
        self.time(name, FRAMES * batch.len() as u64, || {
            for _ in 0..FRAMES {
                now += FRAME_US;
                let at = SimTime::from_micros(now);
                std::hint::black_box(scheduler.assign_batch(at, &batch, &paths));
            }
        });
    }

    /// One 25-packet transport-feedback report every 250 ms into a
    /// long-lived controller, with seeded queueing jitter.
    fn controller(&mut self, name: &'static str, kind: ControllerKind) {
        let mut rng = self.rng(kind as u64);
        let mut controller = ControllerConfig::for_kind(kind).build(PathId(0));
        let mut report = 0u64;
        const REPORTS: u64 = 200;
        let mut timings = Vec::with_capacity(25);
        self.time(name, REPORTS, || {
            for _ in 0..REPORTS {
                report += 1;
                let base = report * 250_000;
                timings.clear();
                timings.extend((0..25u64).map(|i| PacketTiming {
                    send_time: SimTime::from_micros(base + i * 10_000),
                    arrival_time: SimTime::from_micros(
                        base + i * 10_000 + 30_000 + rng.next() % 4_000,
                    ),
                    size: 1_200,
                }));
                controller.on_transport_feedback(SimTime::from_micros(base + 250_000), &timings);
                std::hint::black_box(controller.target_rate_bps());
            }
        });
    }

    /// The three codecs on the packets a real sender/receiver pair
    /// produces: serialize + parse of one packet is one operation.
    fn wire(&mut self) {
        let paths = [PathId(0), PathId(1)];
        let interval = SimDuration::from_micros(FRAME_US);
        let mut sender = ConferenceSender::new(
            1,
            &paths,
            SchedulerKind::Converge.build(interval),
            FecKind::WebRtcTable.build(),
            ControllerConfig::default(),
            10_000_000,
        );
        let mut receiver = ConferenceReceiver::new(1, &paths, 30, paths[0]);
        let mut rtps: Vec<SimRtp> = Vec::new();
        for f in 0..8u64 {
            let now = SimTime::from_micros(f * FRAME_US);
            for out in sender.on_frame_tick(now, 0).packets {
                if let NetPayload::Rtp(rtp) = out.payload {
                    // Every 11th packet goes missing, so NACKs are in the mix.
                    if rtps.len() % 11 != 10 {
                        receiver.on_rtp(now + SimDuration::from_millis(40), &rtp);
                    }
                    rtps.push(rtp);
                }
            }
        }
        let at = SimTime::from_millis(400);
        let mut rtcps: Vec<RtcpPacket> = sender
            .periodic_rtcp(at)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        rtcps.extend(
            receiver
                .poll_rtcp_with(at, &BTreeMap::new(), true)
                .into_iter()
                .map(|(_, p)| p),
        );
        assert!(
            rtps.len() > 20 && rtcps.len() > 3,
            "{} rtp, {} rtcp",
            rtps.len(),
            rtcps.len()
        );

        const ROUNDS: u64 = 40;
        self.time("wire.roundtrip_ns", ROUNDS * rtps.len() as u64, || {
            for _ in 0..ROUNDS {
                for rtp in &rtps {
                    let decoded = decode_rtp(encode_rtp(rtp), rtp.sent_at);
                    std::hint::black_box(decoded.expect("own encoding decodes"));
                }
            }
        });
        let wires: Vec<Bytes> = rtps.iter().map(encode_rtp).collect();
        self.time("rtp.roundtrip_ns", ROUNDS * wires.len() as u64, || {
            for _ in 0..ROUNDS {
                for wire in &wires {
                    let packet = RtpPacket::parse(wire.clone()).expect("own encoding parses");
                    std::hint::black_box(packet.serialize());
                }
            }
        });
        self.time("rtcp.roundtrip_ns", ROUNDS * rtcps.len() as u64, || {
            for _ in 0..ROUNDS {
                for rtcp in &rtcps {
                    let parsed = RtcpPacket::parse(rtcp.serialize());
                    std::hint::black_box(parsed.expect("own encoding parses"));
                }
            }
        });
    }

    /// One emit into a disabled handle, a ring sink, and a ring sink whose
    /// records are then rendered to JSONL.
    fn trace_emit(&mut self) {
        const OPS: u64 = 20_000;
        let emit = |trace: &TraceHandle, t: u64| {
            trace.emit(
                SimTime::from_micros(t),
                TraceEvent::SplitDecision {
                    path: PathId((t % 2) as u8),
                    packets: t as u32,
                    offset: -(t as i64),
                },
            );
        };
        let off = TraceHandle::disabled();
        self.time("trace.emit_ns.off", OPS, || {
            for t in 0..OPS {
                emit(std::hint::black_box(&off), t);
            }
        });
        let sink = Arc::new(RingSink::new(1 << 15));
        let ring = TraceHandle::new(sink.clone());
        self.time("trace.emit_ns.ring", OPS, || {
            for t in 0..OPS {
                emit(&ring, t);
            }
            std::hint::black_box(sink.drain().len());
        });
        self.time("trace.emit_ns.jsonl", OPS, || {
            for t in 0..OPS {
                emit(&ring, t);
            }
            let bytes: usize = sink
                .drain()
                .iter()
                .map(|r| jsonl::record_line(r).len())
                .sum();
            std::hint::black_box(bytes);
        });
    }

    /// A 4-member SFU at its 8 Mbps bottleneck: one packet in, then its
    /// three fan-out copies.
    fn sfu(&mut self) {
        let mut node = SfuNode::new(SfuConfig::for_bottleneck(8_000_000, 4));
        let members: Vec<_> = (0..4)
            .map(|_| node.register_member(&[PathId(0), PathId(1)]))
            .collect();
        let mut now = 0u64;
        const OPS: u64 = 10_000;
        self.time("sfu.ingress_ns_per_pkt", OPS, || {
            for i in 0..OPS {
                now += 1_300;
                let at = SimTime::from_micros(now);
                std::hint::black_box(node.offer_ingress(members[i as usize % 4], at, 1_200));
            }
        });
        self.time("sfu.fanout_ns_per_pkt", OPS, || {
            for _ in 0..OPS {
                now += 1_300;
                std::hint::black_box(node.offer_egress(SimTime::from_micros(now), 1_200));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_time_once() {
        let mut reference = Reference::default();
        let mut kernels = Kernels::new(&mut reference, 11);
        kernels.run_all();
        let names: Vec<_> = kernels.results.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), 25);
        assert!(kernels.results.iter().all(|(_, ns)| *ns > 0.0));
        assert_eq!(kernels.ref_s.len(), names.len());
    }
}
