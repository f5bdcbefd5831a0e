//! `--compare A.json B.json`: parent-vs-change (or A/A) tables over result
//! files, judged by the bounds in [`crate::spec`].

use crate::json::{parse, Value};
use crate::spec::{MetricSpec, END_TO_END};

/// How B's value of one metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse than A by more than the bound.
    Regressed,
    /// Better than A by more than the bound.
    Improved,
}

/// Judges `b` against `a`; also returns the signed relative difference
/// `(b − a) / a`.
pub fn judge(spec: &MetricSpec, a: f64, b: f64) -> (f64, Verdict) {
    let rel = (b - a) / a;
    let worse = if spec.higher_is_better { -rel } else { rel };
    let verdict = if worse > spec.bound {
        Verdict::Regressed
    } else if worse < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (rel, verdict)
}

/// The per-workload end-to-end records of a result document: a single
/// `results/<workload>.json`, or an `{"e2e": [...]}` set such as
/// `results/baseline.json`.
fn records(doc: &Value) -> Vec<&Value> {
    match doc.get("e2e").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

fn field<'a>(record: &'a Value, key: &str) -> Result<&'a Value, String> {
    record
        .get(key)
        .ok_or_else(|| format!("result record lacks {key:?}"))
}

/// Renders the comparison table; `Err` if a file does not hold results.
/// The flag is true when anything regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a_doc, b_doc) = (parse(a_text)?, parse(b_text)?);
    let mut out = String::new();
    let mut regressed = false;
    let mut compared = 0;
    for a in records(&a_doc) {
        let name = field(a, "workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let Some(b) = records(&b_doc)
            .into_iter()
            .find(|b| b.get("workload").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        compared += 1;
        out.push_str(&format!("{name}\n"));
        for spec in &END_TO_END {
            let value = |r: &Value| -> Result<f64, String> {
                field(field(field(r, "metrics")?, spec.name)?, "value")?
                    .as_f64()
                    .ok_or_else(|| format!("{}: value is not a number", spec.name))
            };
            let (va, vb) = (value(a)?, value(b)?);
            let (rel, verdict) = judge(spec, va, vb);
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "  {:<18} {:>14.4} {:>14.4}  {:>+8.2} %  (bound {:>4.1} %, {} is better)  {}\n",
                spec.name,
                va,
                vb,
                rel * 100.0,
                spec.bound * 100.0,
                if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Improved => "improved",
                }
            ));
        }
        let count = |r: &Value, key: &str| field(r, key).map(|v| v.as_f64().unwrap_or(f64::NAN));
        let share_a = count(a, "failed")? / count(a, "attempted")?;
        let share_b = count(b, "failed")? / count(b, "attempted")?;
        let ops = if share_b > share_a { "regressed" } else { "ok" };
        regressed |= share_b > share_a;
        out.push_str(&format!(
            "  failed share       {share_a:>14.4} {share_b:>14.4}  {ops}\n"
        ));
        let (da, db) = (field(a, "report_digest")?, field(b, "report_digest")?);
        let same = if da == db {
            "same behaviour"
        } else {
            "behaviour differs"
        };
        out.push_str(&format!("  report_digest      {same}\n"));
    }
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn judges_by_direction_and_bound() {
        let tput = end_to_end("qoe_tput_mbps").expect("spec");
        assert!(tput.higher_is_better && tput.bound == 0.10);
        assert_eq!(judge(tput, 100.0, 95.0).1, Verdict::Ok);
        assert_eq!(judge(tput, 100.0, 89.0).1, Verdict::Regressed);
        assert_eq!(judge(tput, 100.0, 111.0).1, Verdict::Improved);
        let lower = MetricSpec {
            higher_is_better: false,
            ..*tput
        };
        assert_eq!(judge(&lower, 50.0, 56.0).1, Verdict::Regressed);
        assert_eq!(judge(&lower, 50.0, 44.0).1, Verdict::Improved);
        assert!((judge(&lower, 50.0, 55.0).0 - 0.1).abs() < 1e-12);
    }

    fn record(speed: f64, failed: u32) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "sim_s_per_norm_s" {
                    speed
                } else {
                    10.0
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"call-clean\", \"attempted\": 40, \"failed\": {failed}, \
             \"report_digest\": \"00\", \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    #[test]
    fn compares_single_records_and_sets() {
        let (table, bad) = compare(&record(100.0, 0), &record(90.0, 0)).expect("valid");
        assert!(!bad, "{table}");
        assert!(table.contains("sim_s_per_norm_s") && table.contains("same behaviour"));
        let set = format!("{{\"e2e\": [{}]}}", record(70.0, 0));
        let (table, bad) = compare(&record(100.0, 0), &set).expect("valid");
        assert!(bad && table.contains("regressed"), "{table}");
    }

    #[test]
    fn a_rising_failed_share_regresses() {
        let (_, bad) = compare(&record(100.0, 0), &record(100.0, 1)).expect("valid");
        assert!(bad);
    }

    #[test]
    fn rejects_files_without_results() {
        assert!(compare("{}", "{}").is_err());
        assert!(compare("not json", &record(1.0, 0)).is_err());
    }
}
