//! The benchmark's contract in code: the end-to-end metrics, their units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same table for the driver; `benchmark_json_matches_the_spec`
//! keeps the two from drifting.

/// One gated metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The end-to-end metrics, the same six on every workload. The bounds are
/// about three times the widest spread ten different seeds gave on any
/// workload on the box this was sized on, capped at the driver's 0.25
/// (README.md, "Why the bounds are what they are").
pub const END_TO_END: [MetricSpec; 6] = [
    metric("sim_s_per_norm_s", "sim-s/norm-s", true, 0.25),
    metric("peak_rss_mb", "MiB", false, 0.10),
    metric("setup_s", "s", false, 0.25),
    metric("qoe_fps", "frames/s/stream", true, 0.25),
    metric("qoe_tput_mbps", "Mbit/s/session", true, 0.10),
    metric("qoe_unfrozen_pct", "%", true, 0.12),
];

/// Looks a metric up by name.
#[cfg(test)]
pub(crate) fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_spec() {
        let doc = benchmark_json();
        let listed = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, spec) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(spec.unit));
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(spec.bound));
        }
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn benchmark_json_keeps_to_the_drivers_schema() {
        let doc = benchmark_json();
        let keys: Vec<_> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc.get(section).and_then(Value::as_array).expect(section) {
                let name = entry.get("name").and_then(Value::as_str).expect("name");
                assert!(name_ok(name), "{name}");
                assert!(seen.insert(name.to_string()), "{name} is used twice");
                if section == "workloads" {
                    let why = entry.get("why").and_then(Value::as_str).expect("why");
                    assert!(
                        why.len() <= 200 && !why.contains('\n'),
                        "{name}: why is {}",
                        why.len()
                    );
                } else {
                    let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(unit_ok(unit), "{name}: {unit}");
                }
            }
        }
        assert!(end_to_end("setup_s").is_some_and(|m| !m.higher_is_better && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let per_layer = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        assert!((1..=128).contains(&per_layer.len()));
    }
}
