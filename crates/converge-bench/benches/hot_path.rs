//! Criterion micro-benches for the event-loop hot path introduced by the
//! perf work: slab-backed event-queue push/pop-batch, arena alloc/free,
//! the XOR FEC group encode, the per-packet metrics accounting and the
//! constant-rate link offer.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use converge_net::event::EventQueue;
use converge_net::{Arena, Link, LinkConfig, PathId, SimDuration, SimTime};
use converge_rtp::fec;
use converge_sim::MetricsCollector;
use converge_video::VideoFormat;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");

    // Push/pop churn at steady-state depth: the session keeps a handful
    // of timers plus every in-flight packet queued.
    for depth in [16usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("push_pop", depth), &depth, |b, &depth| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..depth {
                q.schedule(SimTime::from_micros(i as u64), i as u64);
            }
            let mut t = depth as u64;
            b.iter(|| {
                let (at, ev) = q.pop().expect("queue stays non-empty");
                std::hint::black_box((at, ev));
                q.schedule(SimTime::from_micros(t), t);
                t += 1;
            });
        });
    }

    // Batched drain of same-timestamp events — the shape the session loop
    // hits every frame tick, when ~36 packet events land on one instant.
    for batch in [8usize, 36, 128] {
        group.bench_with_input(BenchmarkId::new("drain_due", batch), &batch, |b, &batch| {
            let mut out: Vec<(SimTime, u64)> = Vec::with_capacity(batch);
            let mut t = 0u64;
            b.iter(|| {
                let mut q: EventQueue<u64> = EventQueue::new();
                let at = SimTime::from_micros(t);
                for i in 0..batch {
                    q.schedule(at, i as u64);
                }
                out.clear();
                q.drain_due_into(at, &mut out);
                std::hint::black_box(out.len());
                t += 1;
            });
        });
    }
    group.finish();
}

fn bench_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena");

    // Alloc/free churn with a warm free list — the steady state of the
    // in-flight packet arena (every send inserts, every delivery removes).
    group.bench_function("alloc_free_warm", |b| {
        let mut arena: Arena<[u8; 64]> = Arena::with_capacity(1024);
        let keys: Vec<_> = (0..512).map(|_| arena.insert([0u8; 64])).collect();
        for k in keys {
            arena.remove(k);
        }
        b.iter(|| {
            let k = arena.insert([7u8; 64]);
            std::hint::black_box(arena.get(k));
            arena.remove(k).expect("just inserted");
        });
    });

    // Bulk fill/drain: a burst of sends followed by their deliveries.
    group.bench_function("bulk_64", |b| {
        let mut arena: Arena<[u8; 64]> = Arena::with_capacity(128);
        let mut keys = Vec::with_capacity(64);
        b.iter(|| {
            for _ in 0..64 {
                keys.push(arena.insert([1u8; 64]));
            }
            for k in keys.drain(..) {
                arena.remove(k).expect("inserted this iteration");
            }
        });
    });
    group.finish();
}

fn bench_fec_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fec/encode_kernel");

    // A realistic FEC group: 8 MTU-sized media payloads, one repair.
    let pkts: Vec<(u16, Bytes)> = (0..8u16)
        .map(|s| {
            let payload: Vec<u8> = (0..1200).map(|i| (i as u8).wrapping_mul(s as u8 + 3)).collect();
            (s, Bytes::from(payload))
        })
        .collect();

    group.bench_function("group_encode", |b| {
        b.iter(|| fec::encode_one(std::hint::black_box(&pkts)));
    });

    // The XOR kernel alone on one payload.
    let src: Vec<u8> = (0..1200).map(|i| i as u8).collect();
    group.bench_function("xor", |b| {
        let mut acc = vec![0u8; 1200];
        b.iter(|| fec::xor_into(std::hint::black_box(&mut acc), std::hint::black_box(&src)));
    });
    group.finish();
}

/// The two per-packet kernels of the call loop that are pure bookkeeping:
/// one send + one receive accounted by the metrics collector, and one
/// packet offered to a constant-rate link (queue check + serialization).
fn bench_packet_bookkeeping(c: &mut Criterion) {
    c.bench_function("metrics_on_packet", |b| {
        let mut metrics = MetricsCollector::new(
            SimDuration::from_secs(180),
            VideoFormat::HD720,
            10_000_000,
            1,
        );
        let mut t = 0u64;
        b.iter(|| {
            // ~1600 packets per simulated second over two paths, wrapping
            // so the timestamps stay inside the call.
            t = (t + 625) % 180_000_000;
            let (at, path) = (SimTime::from_micros(t), PathId((t / 625 % 2) as u8));
            metrics.on_packet_sent(at, path, 1_224, false, true);
            metrics.on_packet_received(at, path, 1_200);
        });
        std::hint::black_box(metrics.finish());
    });

    c.bench_function("link_offer_const", |b| {
        // 15 Mbps, offered a 1200 B packet every 800 us (~12 Mbps): the
        // queue stays shallow and every offer walks the serializer.
        let mut link = Link::new(LinkConfig {
            rate: converge_net::RateTrace::constant(15_000_000),
            queue_capacity_bytes: 300_000,
            ..LinkConfig::default()
        });
        let mut t = 0u64;
        b.iter(|| {
            t += 800;
            std::hint::black_box(link.offer(SimTime::from_micros(t), 1_200));
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_arena,
    bench_fec_kernels,
    bench_packet_bookkeeping
);
criterion_main!(benches);
