//! `--smoke` of the traced run: the mirror-equality assert on every call
//! workload (and the sweep's sample), the fleet and sweep A/B probes.

use bench_harness::json::{parse, Value};
use bench_harness::workloads::WORKLOADS;

#[test]
fn every_workload_traces_clean() {
    let dir = std::env::temp_dir().join(format!("bench-layers-smoke-{}", std::process::id()));
    for workload in WORKLOADS {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-layers"))
            .args(["--workload", workload, "--smoke", "--seed", "12"])
            .args(["--results-dir", dir.to_str().expect("utf-8 temp dir")])
            .output()
            .expect("bench-layers runs");
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let result = parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
        // `correct` covers the mirror: a report that is not Debug-identical
        // to `Session::run`'s is a failed operation.
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}:\n{stdout}"
        );
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), 75);
        let value = |name: &str| {
            let entry = metrics.iter().find(|(n, _)| n == name).expect(name);
            entry.1.get("value").and_then(Value::as_f64).expect("value")
        };
        if workload == "fleet-sfu" {
            assert!(value("fleet.shard2_speedup") > 0.0);
            assert_eq!(value("receiver.rtp.self_ns_per_sim_s"), 0.0);
        } else {
            assert!(value("receiver.rtp.self_ns_per_sim_s") > 0.0, "{workload}");
            assert!(value("trace_overhead_ratio") > 1.0, "{workload}");
            let spans = std::fs::read_to_string(dir.join(format!("spans-{workload}.jsonl")));
            let spans = spans.expect("span records are written");
            assert!(spans.lines().all(|l| parse(l).is_ok()));
            assert!(spans.contains("\"name\": \"job\"") && spans.contains("\"name\": \"pacer\""));
        }
        assert_eq!(
            value("sweep.jobs_executed") > 0.0,
            workload == "sweep-quick"
        );
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
