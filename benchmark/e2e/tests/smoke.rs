//! `--smoke`: every workload end to end through the real binary — set-up
//! probe, checked warm-up, one timed pass, result line — in seconds.

use bench_harness::json::{parse, Value};
use bench_harness::spec::END_TO_END;
use bench_harness::workloads::WORKLOADS;

#[test]
fn every_workload_smokes_clean() {
    let dir = std::env::temp_dir().join(format!("bench-e2e-smoke-{}", std::process::id()));
    for workload in WORKLOADS {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
            .args(["--workload", workload, "--smoke", "--seed", "12"])
            .args(["--results-dir", dir.to_str().expect("utf-8 temp dir")])
            .output()
            .expect("bench-e2e runs");
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let result = parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}:\n{stdout}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted")
                >= 2.0
        );
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        for (spec, (name, entry)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(name, spec.name);
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(spec.unit));
            let value = entry.get("value").and_then(Value::as_f64).expect("value");
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload} {name} = {value}"
            );
        }
        // The full record is written and reads back.
        let record = std::fs::read_to_string(dir.join(format!("{workload}.json"))).expect("record");
        let record = parse(&record).expect("record is JSON");
        assert_eq!(
            record.get("workload").and_then(Value::as_str),
            Some(workload)
        );
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"], &[]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
            .args(args)
            .output()
            .expect("bench-e2e runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
