//! Synthetic link traces.
//!
//! The paper replays cellular bandwidth traces collected while stationary,
//! walking, and driving (its Figs. 20–22). We do not have those captures, so
//! this module provides seeded synthetic generators calibrated to the
//! dynamics those figures describe: a stable high-rate WiFi-like trace, a
//! mildly varying walking trace with short coverage dips, and a violently
//! varying driving trace with deep coverage gaps. Each is a
//! [`DriveTrace`] of half-second steps.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::drive::DriveTrace;
use crate::time::SimDuration;

/// Mobility scenario of a synthetic trace, matching the paper's appendix D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Scenario {
    /// Fig. 20: stable rates, rare shallow dips.
    Stationary,
    /// Fig. 21: moderate variation, occasional dips below the required rate.
    Walking,
    /// Fig. 22: heavy variation with deep coverage gaps.
    Driving,
}

/// Network archetype being emulated by a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Carrier {
    /// Home/office WiFi: high and stable when in range.
    Wifi,
    /// "T-Mobile"-like mid-band cellular.
    CellularA,
    /// "Verizon"-like cellular with different gap timing.
    CellularB,
}

/// Generates a synthetic trace for a carrier in a scenario.
///
/// Traces are produced by a mean-reverting random walk (AR(1)) around a
/// carrier-specific base rate, with scenario-dependent variance, plus
/// randomly placed coverage gaps whose depth and frequency grow with
/// mobility. Every step is lossless at the path's one-way delay `owd`.
/// The seed fully determines the trace.
pub fn synthesize(
    scenario: Scenario,
    carrier: Carrier,
    owd: SimDuration,
    duration: SimDuration,
    seed: u64,
) -> DriveTrace {
    let step = SimDuration::from_millis(500);
    let n = (duration.as_micros() / step.as_micros()).max(1) as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_params(scenario, carrier));

    let (base_mbps, sigma_mbps, gap_per_min, gap_len_s, gap_floor_mbps): (f64, f64, f64, f64, f64) =
        match (scenario, carrier) {
            (Scenario::Stationary, Carrier::Wifi) => (40.0, 2.0, 0.3, 3.0, 2.0),
            (Scenario::Stationary, Carrier::CellularA) => (12.0, 2.0, 0.5, 2.0, 4.0),
            (Scenario::Stationary, Carrier::CellularB) => (14.0, 2.0, 0.5, 2.0, 4.0),
            (Scenario::Walking, Carrier::Wifi) => (30.0, 5.0, 1.5, 6.0, 0.5),
            (Scenario::Walking, Carrier::CellularA) => (15.0, 4.0, 1.0, 4.0, 1.0),
            (Scenario::Walking, Carrier::CellularB) => (16.0, 4.0, 1.0, 4.0, 1.0),
            (Scenario::Driving, Carrier::Wifi) => (5.0, 3.0, 3.0, 6.0, 0.5),
            (Scenario::Driving, Carrier::CellularA) => (14.0, 6.0, 1.5, 5.0, 1.5),
            (Scenario::Driving, Carrier::CellularB) => (12.0, 6.0, 1.5, 5.0, 1.5),
        };

    // AR(1) around base with reversion strength phi.
    let phi = 0.85f64;
    let mut level = base_mbps;
    let mut rates = Vec::with_capacity(n);

    // Pre-place coverage gaps.
    let minutes = duration.as_secs_f64() / 60.0;
    let n_gaps = poisson_like(&mut rng, gap_per_min * minutes);
    let gap_len_steps = ((gap_len_s / step.as_secs_f64()).round() as usize).max(1);
    let mut gap_mask = vec![false; n];
    for _ in 0..n_gaps {
        let start = rng.gen_range(0..n);
        let len = rng.gen_range(gap_len_steps / 2..=gap_len_steps.max(1) * 2);
        for slot in gap_mask.iter_mut().skip(start).take(len) {
            *slot = true;
        }
    }

    for &in_gap in gap_mask.iter().take(n) {
        let noise: f64 = rng.gen_range(-1.0..1.0) * sigma_mbps;
        level = phi * level + (1.0 - phi) * base_mbps + noise * (1.0 - phi).sqrt();
        let mbps = if in_gap {
            // Inside a coverage gap the achievable rate collapses toward the
            // floor with some residual jitter.
            (gap_floor_mbps * rng.gen_range(0.2..1.0)).max(0.0)
        } else {
            level.max(0.5)
        };
        rates.push((mbps * 1e6) as u64);
    }

    DriveTrace::uniform(step, rates, owd)
}

fn hash_params(scenario: Scenario, carrier: Carrier) -> u64 {
    let s = match scenario {
        Scenario::Stationary => 1u64,
        Scenario::Walking => 2,
        Scenario::Driving => 3,
    };
    let c = match carrier {
        Carrier::Wifi => 10u64,
        Carrier::CellularA => 20,
        Carrier::CellularB => 30,
    };
    s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(c)
}

/// Draws an approximately Poisson-distributed count with the given mean,
/// using the inversion method capped for sanity.
fn poisson_like(rng: &mut SmallRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveParseError;
    use crate::time::SimTime;

    const OWD: SimDuration = SimDuration::from_millis(30);

    #[test]
    fn constant_trace_always_same_rate() {
        let t = DriveTrace::constant(10_000_000, OWD);
        assert_eq!(t.rate_at(SimTime::ZERO), 10_000_000);
        assert_eq!(t.rate_at(SimTime::from_secs(1000)), 10_000_000);
        assert_eq!(t.owd_at(SimTime::from_secs(1000)), OWD);
        assert_eq!(t.mean_rate(), 10_000_000);
        assert_eq!(t.until_next_change(SimTime::ZERO), None);
    }

    /// A uniform trace indexes its steps and holds the last one past its
    /// end: a link replaying a path capture does not loop back into it.
    #[test]
    fn uniform_steps_index_and_hold() {
        let t = DriveTrace::uniform(SimDuration::from_secs(1), [1, 2, 3], OWD);
        assert_eq!(t.rate_at(SimTime::from_millis(0)), 1);
        assert_eq!(t.rate_at(SimTime::from_millis(999)), 1);
        assert_eq!(t.rate_at(SimTime::from_millis(1000)), 2);
        assert_eq!(t.rate_at(SimTime::from_millis(2500)), 3);
        assert_eq!(t.rate_at(SimTime::from_millis(3000)), 3);
        assert_eq!(t.rate_at(SimTime::from_secs(1_000_000)), 3);
        assert!(t
            .samples()
            .iter()
            .all(|s| s.owd == OWD && s.loss_pct == 0.0));
    }

    #[test]
    fn until_next_change_counts_down() {
        let t = DriveTrace::uniform(SimDuration::from_millis(500), [1, 2, 3], OWD);
        let until = |ms| {
            t.until_next_change(SimTime::from_millis(ms))
                .map(|d| d.as_millis())
        };
        assert_eq!(until(100), Some(400));
        assert_eq!(until(500), Some(500));
        // The last step never ends.
        assert_eq!(until(1_000), None);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = DriveTrace::uniform(
            SimDuration::from_millis(500),
            [5_000_000, 7_000_000, 0],
            OWD,
        );
        assert_eq!(DriveTrace::parse_jsonl(&t.to_jsonl(0)), Ok(vec![t]));
        // A synthesized trace is what `trace-tool gen` prints.
        let t = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            OWD,
            SimDuration::from_secs(60),
            1,
        );
        assert_eq!(DriveTrace::parse_jsonl(&t.to_jsonl(0)), Ok(vec![t]));
    }

    /// One single-path JSONL drive row.
    fn row(t: &str, rate: &str, owd: &str, loss: &str) -> String {
        format!("{{\"t\":{t},\"rate_bps\":{rate},\"owd_ms\":{owd},\"loss_pct\":{loss}}}\n")
    }

    // The `csv_` tests below are named for the CSV reader their cases
    // first ran through; the drive format is JSONL now, and the cases
    // exercise the same row validation through `DriveTrace::parse_jsonl`.

    #[test]
    fn csv_rejects_garbage() {
        assert_eq!(DriveTrace::parse_jsonl(""), Err(DriveParseError::Empty));
        assert_eq!(
            DriveTrace::parse_jsonl("a,b\n"),
            Err(DriveParseError::BadLine(1))
        );
        let text =
            row("0.0", "5", "1", "0") + &row("1.0", "5", "1", "0") + &row("1.0", "5", "1", "0");
        assert_eq!(
            DriveTrace::parse_jsonl(&text),
            Err(DriveParseError::NonMonotoneTime(3))
        );
    }

    #[test]
    fn csv_empty_variants() {
        // Whitespace and comments alone are still "no data rows".
        assert_eq!(DriveTrace::parse_jsonl("\n\n"), Err(DriveParseError::Empty));
        assert_eq!(
            DriveTrace::parse_jsonl("# only a header\n  \n"),
            Err(DriveParseError::Empty)
        );
    }

    #[test]
    fn csv_malformed_rows_report_their_file_line() {
        // The offending line number counts comments and blanks (1-based).
        let ok = row("0.0", "100", "1", "0");
        for (text, line) in [
            (format!("# header\n{ok}bogus\n"), 3),
            (format!("{ok}{}", row("0.5", "-3", "1", "0")), 2),
            (format!("{ok}{}", row("0.5", "1.5", "1", "0")), 2),
            ("{\"t\":0.0,\"rate_bps\":100,\"owd_ms\":1}\n".into(), 1),
        ] {
            assert_eq!(
                DriveTrace::parse_jsonl(&text),
                Err(DriveParseError::BadLine(line)),
                "{text:?}"
            );
        }
    }

    #[test]
    fn csv_rejects_nan_and_inf_timestamps() {
        // f64::parse accepts these spellings; the trace parser must not.
        for bad in ["NaN", "inf", "-inf", "-1.0"] {
            assert_eq!(
                DriveTrace::parse_jsonl(&row(bad, "100", "1", "0")),
                Err(DriveParseError::BadValue(1)),
                "{bad:?}"
            );
        }
        let text = row("0.0", "100", "1", "0") + &row("NaN", "100", "1", "0");
        assert_eq!(
            DriveTrace::parse_jsonl(&text),
            Err(DriveParseError::BadValue(2))
        );
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let text = format!(
            "# header\n\n{}{}",
            row("0.0", "100", "1", "0"),
            row("0.5", "200", "1", "0")
        );
        let [t]: [DriveTrace; 1] = DriveTrace::parse_jsonl(&text).unwrap().try_into().unwrap();
        let rates: Vec<u64> = t.samples().iter().map(|s| s.rate_bps).collect();
        assert_eq!(rates, [100, 200]);
        assert_eq!(t.end(), SimTime::from_millis(500));
    }

    /// Hostile inputs to the trace reader return `Err` or a well-formed
    /// trace and never panic: instants that round to the same microsecond,
    /// NaN, infinities, 1e30, negative values and path ids past the last
    /// path.
    #[test]
    fn hostile_inputs_are_err_or_ok_never_a_panic() {
        use crate::drive::DriveParseError as D;

        let row = |path: &str, t: &str, rate: &str, owd: &str, loss: &str| {
            format!(
                "{{\"t\":{t},\"path\":{path},\"rate_bps\":{rate},\"owd_ms\":{owd},\"loss_pct\":{loss}}}\n"
            )
        };
        let at = |t: &str| row("0", t, "1", "0", "0");
        // Two instants under half a microsecond apart are one instant.
        for second in ["1e-9", "4e-7"] {
            let text = at("0") + &at(second);
            assert_eq!(
                DriveTrace::parse_jsonl(&text),
                Err(D::NonMonotoneTime(2)),
                "{text:?}"
            );
        }
        // Six tenths of a microsecond rounds up to a step of 1 µs.
        let t = DriveTrace::parse_jsonl(&(at("0") + &at("6e-7"))).unwrap();
        assert_eq!(t[0].end(), SimTime::from_micros(1));

        let far = SimTime::from_micros(u64::MAX);
        for (jsonl, want) in [
            (row("0", "NaN", "1", "1", "0"), Err(D::BadValue(1))),
            (row("0", "inf", "1", "1", "0"), Err(D::BadValue(1))),
            (row("0", "-1", "1", "1", "0"), Err(D::BadValue(1))),
            (row("0", "0", "NaN", "1", "0"), Err(D::BadLine(1))),
            (row("0", "0", "1e30", "1", "0"), Err(D::BadLine(1))),
            (row("0", "0", "-1", "1", "0"), Err(D::BadLine(1))),
            (row("0", "0", "1", "-inf", "0"), Err(D::BadValue(1))),
            (row("0", "0", "1", "1", "-1"), Err(D::BadValue(1))),
            (row("0", "0", "1", "1", "1e30"), Err(D::BadValue(1))),
            (row("256", "0", "1", "1", "0"), Err(D::BadLine(1))),
            (row("-1", "0", "1", "1", "0"), Err(D::BadLine(1))),
            (row("255", "0", "1", "1", "0"), Err(D::MissingPath(0))),
            // Past the clock's range a value saturates instead of wrapping.
            (
                row("0", "1e30", "1", "1e30", "0"),
                Ok(vec![(far, SimDuration::from_micros(u64::MAX))]),
            ),
        ] {
            let got = DriveTrace::parse_jsonl(&jsonl).map(|traces| {
                traces
                    .iter()
                    .map(|t| (t.start(), t.owd_at(far)))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, want, "{jsonl:?}");
        }
    }

    #[test]
    fn synthetic_traces_are_deterministic() {
        let driving = |seed| {
            synthesize(
                Scenario::Driving,
                Carrier::CellularA,
                OWD,
                SimDuration::from_secs(60),
                seed,
            )
        };
        let a = driving(1);
        assert_eq!(a, driving(1));
        // One lossless half-second step per half second of the call, each
        // at the path's delay.
        assert_eq!(a.samples().len(), 120);
        assert_eq!(a.end(), SimTime::from_millis(59_500));
        assert!(a
            .samples()
            .iter()
            .all(|s| s.owd == OWD && s.loss_pct == 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            OWD,
            SimDuration::from_secs(60),
            1,
        );
        let b = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            OWD,
            SimDuration::from_secs(60),
            2,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn driving_is_more_variable_than_stationary() {
        let dur = SimDuration::from_secs(180);
        let stat = synthesize(Scenario::Stationary, Carrier::CellularA, OWD, dur, 3);
        let driv = synthesize(Scenario::Driving, Carrier::CellularA, OWD, dur, 3);
        let cv = |t: &DriveTrace| {
            let mean = t.mean_rate() as f64;
            let var: f64 = t
                .samples()
                .iter()
                .map(|s| (s.rate_bps as f64 - mean).powi(2))
                .sum::<f64>()
                / t.samples().len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&driv) > cv(&stat) * 1.5,
            "driving CV {} vs stationary CV {}",
            cv(&driv),
            cv(&stat)
        );
    }

    #[test]
    fn driving_has_deep_gaps() {
        let t = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            OWD,
            SimDuration::from_secs(180),
            5,
        );
        let min = t.samples().iter().map(|s| s.rate_bps).min().unwrap();
        assert!(min < 1_000_000, "expected sub-1Mbps gaps, min was {min}");
    }

    #[test]
    fn stationary_wifi_stays_high() {
        let t = synthesize(
            Scenario::Stationary,
            Carrier::Wifi,
            OWD,
            SimDuration::from_secs(180),
            7,
        );
        assert!(t.mean_rate() > 25_000_000, "mean {}", t.mean_rate());
    }

    #[test]
    fn trace_span() {
        let t = DriveTrace::uniform(SimDuration::from_millis(500), [0; 10], OWD);
        assert_eq!(
            (t.start(), t.end()),
            (SimTime::ZERO, SimTime::from_millis(4_500))
        );
        // A call shorter than one step still gets one.
        let short = synthesize(
            Scenario::Walking,
            Carrier::Wifi,
            OWD,
            SimDuration::from_millis(100),
            1,
        );
        assert_eq!(short.samples().len(), 1);
    }
}
