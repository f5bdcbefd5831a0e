//! The per-layer metric table: names, units, direction. `BENCHMARK.json`
//! lists the same under `per_layer`; `benchmark_json_lists_every_layer_metric`
//! keeps them together. None of these is gated.

use crate::spans::Layer;

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Name, as printed.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
}

/// `(name, unit, higher is better)` of everything that is not a
/// mirror-loop layer's self time or call count.
const FIXED: [(&str, &str, bool); 53] = [
    // Useful outcomes ÷ attempts at the loop's boundaries (exact).
    ("loop.iters_per_sim_s", "1/sim-s", false),
    ("loop.idle_share", "ratio", true),
    ("pacer.release_per_poll", "ratio", true),
    ("emulator.delivery_per_poll", "ratio", true),
    // Simulated statistics of the modelled system (exact).
    ("emulator.lost_share", "ratio", false),
    ("sender.fec_per_media", "ratio", false),
    ("sender.rtx_per_kpkt", "1/kpkt", false),
    ("sender.pkts_per_frame", "count", false),
    ("receiver.events_per_rtp", "ratio", false),
    ("receiver.fec_used_share", "ratio", true),
    ("receiver.frames_dropped_share", "ratio", false),
    ("receiver.e2e_p95_ms", "ms", false),
    // Allocator work of one untraced pass (exact).
    ("alloc.calls_per_sim_s", "1/sim-s", false),
    ("alloc.bytes_per_sim_s", "B/sim-s", false),
    // Traced pass ÷ untraced pass: qualifies the layer table.
    ("trace_overhead_ratio", "ratio", false),
    // Kernels: normalised ns per operation.
    ("event.push_pop_ns.d64", "ns", false),
    ("event.push_pop_ns.d4096", "ns", false),
    ("timer.insert_pop_ns.d8", "ns", false),
    ("timer.insert_pop_ns.d4096", "ns", false),
    ("arena.insert_remove_ns", "ns", false),
    ("link.offer_ns.const", "ns", false),
    ("link.offer_ns.drive", "ns", false),
    ("fec.encode_ns_per_pkt", "ns", false),
    ("fec.recover_ns_per_group", "ns", false),
    ("video.packetize_ns_per_frame", "ns", false),
    ("video.packet_buffer_ns_per_pkt", "ns", false),
    ("video.frame_buffer_ns_per_frame", "ns", false),
    ("scheduler.assign_ns_per_pkt.p2", "ns", false),
    ("scheduler.assign_ns_per_pkt.p8", "ns", false),
    ("cc.feedback_ns.gcc", "ns", false),
    ("cc.feedback_ns.nada", "ns", false),
    ("cc.feedback_ns.mpbbr", "ns", false),
    ("rtp.roundtrip_ns", "ns", false),
    ("rtcp.roundtrip_ns", "ns", false),
    ("wire.roundtrip_ns", "ns", false),
    ("trace.emit_ns.off", "ns", false),
    ("trace.emit_ns.ring", "ns", false),
    ("trace.emit_ns.jsonl", "ns", false),
    // One call with a ring sink / with the invariant checker ÷ plain.
    ("trace.session_cost_ratio.ring", "ratio", false),
    ("trace.session_cost_ratio.checked", "ratio", false),
    ("sfu.ingress_ns_per_pkt", "ns", false),
    ("sfu.fanout_ns_per_pkt", "ns", false),
    // Fleet probes (`fleet-sfu` only; 0 elsewhere).
    ("fleet.shard2_speedup", "ratio", true),
    ("fleet.queue_high_water", "count", false),
    ("fleet.wheel_high_water", "count", false),
    ("fleet.wheel_cascades", "count", false),
    ("fleet.viewer_pkts_per_sim_s", "1/sim-s", true),
    ("fleet.sbd_coupled_share", "ratio", true),
    // Sweep probes (`sweep-quick` only; 0 elsewhere).
    ("sweep.pool_speedup_2w", "ratio", true),
    ("sweep.cache_hit_share", "ratio", true),
    ("sweep.jobs_executed", "count", false),
    ("sweep.job_ms_p50", "ms", false),
    ("sweep.job_ms_p95", "ms", false),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut all = Vec::new();
    for layer in Layer::ALL {
        for (suffix, unit) in [
            ("self_ns_per_sim_s", "ns/sim-s"),
            ("calls_per_sim_s", "1/sim-s"),
        ] {
            all.push(LayerMetric {
                name: format!("{}.{suffix}", layer.name()),
                unit,
                higher_is_better: false,
            });
        }
    }
    all.extend(
        FIXED
            .iter()
            .map(|&(name, unit, higher_is_better)| LayerMetric {
                name: name.to_string(),
                unit,
                higher_is_better,
            }),
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_harness::json::{parse, Value};

    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let listed = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        let ours = per_layer();
        assert_eq!(listed.len(), ours.len());
        assert_eq!(ours.len(), 75);
        for (entry, metric) in listed.iter().zip(&ours) {
            assert_eq!(
                entry.get("name").and_then(Value::as_str),
                Some(metric.name.as_str())
            );
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                metric.name
            );
        }
    }
}
