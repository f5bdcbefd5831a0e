//! Time-varying bandwidth traces.
//!
//! The paper replays cellular bandwidth traces collected while stationary,
//! walking, and driving (its Figs. 20–22). We do not have those captures, so
//! this module provides (a) a piecewise-constant trace container with CSV
//! load/save, and (b) seeded synthetic generators calibrated to the dynamics
//! those figures describe: a stable high-rate WiFi-like trace, a mildly
//! varying walking trace with short coverage dips, and a violently varying
//! driving trace with deep coverage gaps.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// A piecewise-constant bandwidth trace: the rate at segment `i` holds from
/// `i * step` until `(i + 1) * step`. After the last segment the trace wraps
/// around, so any call duration can be simulated from a finite trace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RateTrace {
    /// Duration of each segment.
    step: SimDuration,
    /// Rate per segment, bits per second.
    rates_bps: Vec<u64>,
}

impl RateTrace {
    /// Builds a trace from explicit per-segment rates.
    ///
    /// # Panics
    /// Panics if `rates_bps` is empty or `step` is zero.
    pub fn new(step: SimDuration, rates_bps: Vec<u64>) -> Self {
        assert!(
            !rates_bps.is_empty(),
            "trace must have at least one segment"
        );
        assert!(step > SimDuration::ZERO, "trace step must be positive");
        RateTrace { step, rates_bps }
    }

    /// A trace with one constant rate.
    pub fn constant(bits_per_sec: u64) -> Self {
        RateTrace::new(SimDuration::from_secs(1), vec![bits_per_sec])
    }

    /// Segment duration.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Per-segment rates in bits per second.
    pub fn rates(&self) -> &[u64] {
        &self.rates_bps
    }

    /// Total duration before the trace wraps.
    pub fn span(&self) -> SimDuration {
        self.step * self.rates_bps.len() as u64
    }

    /// The rate in effect at `at`, wrapping past the end of the trace.
    pub fn rate_at(&self, at: SimTime) -> u64 {
        let idx = (at.as_micros() / self.step.as_micros()) as usize % self.rates_bps.len();
        self.rates_bps[idx]
    }

    /// Simulation time remaining until the rate may next change.
    pub fn until_next_change(&self, at: SimTime) -> SimDuration {
        let step = self.step.as_micros();
        let into = at.as_micros() % step;
        SimDuration::from_micros(step - into)
    }

    /// Mean rate over one full trace span.
    pub fn mean_rate(&self) -> u64 {
        let sum: u128 = self.rates_bps.iter().map(|&r| r as u128).sum();
        (sum / self.rates_bps.len() as u128) as u64
    }

    /// Serializes as `seconds,bits_per_sec` CSV lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.rates_bps.iter().enumerate() {
            let t = self.step.as_secs_f64() * i as f64;
            out.push_str(&format!("{t:.3},{r}\n"));
        }
        out
    }

    /// Parses the CSV produced by [`RateTrace::to_csv`]. Requires at least
    /// two rows with a uniform time step (or one row, treated as constant).
    pub fn from_csv(text: &str) -> Result<Self, TraceParseError> {
        let mut times = Vec::new();
        let mut rates = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (t, r) = line
                .split_once(',')
                .ok_or(TraceParseError::BadLine(lineno + 1))?;
            let t: f64 = t
                .trim()
                .parse()
                .map_err(|_| TraceParseError::BadLine(lineno + 1))?;
            // `f64::parse` happily accepts "NaN"/"inf"; a timestamp that is
            // not a finite non-negative number is a malformed row, reported
            // with its 1-based line number like any other parse failure.
            if !t.is_finite() || t < 0.0 {
                return Err(TraceParseError::BadLine(lineno + 1));
            }
            let r: u64 = r
                .trim()
                .parse()
                .map_err(|_| TraceParseError::BadLine(lineno + 1))?;
            times.push((t, lineno + 1));
            rates.push(r);
        }
        if rates.is_empty() {
            return Err(TraceParseError::Empty);
        }
        let step = if times.len() >= 2 {
            let dt = times[1].0 - times[0].0;
            if dt <= 0.0 {
                return Err(TraceParseError::NonUniformStep(times[1].1));
            }
            for w in times.windows(2) {
                if ((w[1].0 - w[0].0) - dt).abs() > 1e-6 {
                    return Err(TraceParseError::NonUniformStep(w[1].1));
                }
            }
            // A positive step under half a microsecond rounds to zero, which
            // is no step at all.
            let step = SimDuration::from_secs_f64(dt);
            if step == SimDuration::ZERO {
                return Err(TraceParseError::NonUniformStep(times[1].1));
            }
            step
        } else {
            SimDuration::from_secs(1)
        };
        Ok(RateTrace::new(step, rates))
    }
}

/// Errors from [`RateTrace::from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The file had no data rows.
    Empty,
    /// The row at this 1-based line was not `seconds,bits_per_sec` with a
    /// finite non-negative timestamp.
    BadLine(usize),
    /// The row at this 1-based line broke the uniform time spacing
    /// established by the first two rows.
    NonUniformStep(usize),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Empty => write!(f, "trace file has no data rows"),
            TraceParseError::BadLine(n) => write!(f, "malformed trace row at line {n}"),
            TraceParseError::NonUniformStep(n) => {
                write!(f, "trace row at line {n} is not uniformly spaced")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

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
/// mobility. The seed fully determines the trace.
pub fn synthesize(
    scenario: Scenario,
    carrier: Carrier,
    duration: SimDuration,
    seed: u64,
) -> RateTrace {
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

    RateTrace::new(step, rates)
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

    #[test]
    fn constant_trace_always_same_rate() {
        let t = RateTrace::constant(10_000_000);
        assert_eq!(t.rate_at(SimTime::ZERO), 10_000_000);
        assert_eq!(t.rate_at(SimTime::from_secs(1000)), 10_000_000);
        assert_eq!(t.mean_rate(), 10_000_000);
    }

    #[test]
    fn rate_at_indexes_segments_and_wraps() {
        let t = RateTrace::new(SimDuration::from_secs(1), vec![1, 2, 3]);
        assert_eq!(t.rate_at(SimTime::from_millis(0)), 1);
        assert_eq!(t.rate_at(SimTime::from_millis(999)), 1);
        assert_eq!(t.rate_at(SimTime::from_millis(1000)), 2);
        assert_eq!(t.rate_at(SimTime::from_millis(2500)), 3);
        assert_eq!(t.rate_at(SimTime::from_millis(3000)), 1); // wrap
    }

    #[test]
    fn until_next_change_counts_down() {
        let t = RateTrace::new(SimDuration::from_millis(500), vec![1, 2]);
        assert_eq!(
            t.until_next_change(SimTime::from_millis(100)).as_millis(),
            400
        );
        assert_eq!(
            t.until_next_change(SimTime::from_millis(500)).as_millis(),
            500
        );
    }

    #[test]
    fn csv_roundtrip() {
        let t = RateTrace::new(SimDuration::from_millis(500), vec![5_000_000, 7_000_000, 0]);
        let csv = t.to_csv();
        let back = RateTrace::from_csv(&csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert_eq!(RateTrace::from_csv(""), Err(TraceParseError::Empty));
        assert_eq!(
            RateTrace::from_csv("a,b\n"),
            Err(TraceParseError::BadLine(1))
        );
        assert_eq!(
            RateTrace::from_csv("0.0,5\n1.0,5\n3.0,5\n"),
            Err(TraceParseError::NonUniformStep(3))
        );
    }

    #[test]
    fn csv_empty_variants() {
        // Whitespace and comments alone are still "no data rows".
        assert_eq!(RateTrace::from_csv("\n\n"), Err(TraceParseError::Empty));
        assert_eq!(
            RateTrace::from_csv("# only a header\n  \n"),
            Err(TraceParseError::Empty)
        );
    }

    #[test]
    fn csv_malformed_rows_report_their_file_line() {
        // The offending line number counts comments and blanks (1-based).
        assert_eq!(
            RateTrace::from_csv("# header\n0.0,100\nbogus\n"),
            Err(TraceParseError::BadLine(3))
        );
        assert_eq!(
            RateTrace::from_csv("0.0,100\n0.5,-3\n"),
            Err(TraceParseError::BadLine(2))
        );
        assert_eq!(
            RateTrace::from_csv("0.0,100\n0.5,1.5\n"),
            Err(TraceParseError::BadLine(2))
        );
        assert_eq!(
            RateTrace::from_csv("0.0,100,extra\n"),
            Err(TraceParseError::BadLine(1))
        );
    }

    #[test]
    fn csv_rejects_nan_and_inf_timestamps() {
        // f64::parse accepts these spellings; the trace parser must not.
        for bad in ["NaN,100\n", "inf,100\n", "-inf,100\n", "-1.0,100\n"] {
            assert_eq!(
                RateTrace::from_csv(bad),
                Err(TraceParseError::BadLine(1)),
                "{bad:?}"
            );
        }
        assert_eq!(
            RateTrace::from_csv("0.0,100\nNaN,100\n"),
            Err(TraceParseError::BadLine(2))
        );
    }

    #[test]
    fn csv_non_uniform_step_names_the_offending_row() {
        // Backwards time shows up on the second row...
        assert_eq!(
            RateTrace::from_csv("1.0,5\n0.5,5\n"),
            Err(TraceParseError::NonUniformStep(2))
        );
        // ...while a late spacing break names the row that broke it, even
        // with comment lines shifting the file line numbers.
        assert_eq!(
            RateTrace::from_csv("# gen\n0.0,5\n0.5,5\n1.0,5\n1.7,5\n"),
            Err(TraceParseError::NonUniformStep(5))
        );
    }

    /// Hostile inputs to the trace readers return `Err` or a well-formed
    /// trace and never panic: a step that rounds to zero microseconds, and
    /// for both drive readers NaN, infinities, 1e30, negative values and path
    /// ids past the last path.
    #[test]
    fn hostile_inputs_are_err_or_ok_never_a_panic() {
        use crate::drive::{DriveParseError as D, DriveTrace};

        // Positive steps that round to 0 µs used to reach `RateTrace::new`'s
        // "trace step must be positive" assert.
        for text in ["0,1\n1e-9,1\n", "0,1\n4e-7,1\n"] {
            assert_eq!(
                RateTrace::from_csv(text),
                Err(TraceParseError::NonUniformStep(2)),
                "{text:?}"
            );
        }
        // Six tenths of a microsecond rounds up to a step of 1 µs.
        let t = RateTrace::from_csv("0,1\n6e-7,2\n").unwrap();
        assert_eq!((t.step().as_micros(), t.rates()), (1, &[1, 2][..]));

        let far = SimTime::from_micros(u64::MAX);
        for (csv, want) in [
            ("NaN,5,40,0\n", Err(D::BadValue(1))),
            ("inf,5,40,0\n", Err(D::BadValue(1))),
            ("-1,5,40,0\n", Err(D::BadValue(1))),
            ("0,NaN,40,0\n", Err(D::BadLine(1))),
            ("0,1e30,40,0\n", Err(D::BadLine(1))),
            ("0,-5,40,0\n", Err(D::BadLine(1))),
            ("0,5,-inf,0\n", Err(D::BadValue(1))),
            ("0,5,40,-1\n", Err(D::BadValue(1))),
            ("0,5,40,1e30\n", Err(D::BadValue(1))),
            // Past the clock's range a value saturates instead of wrapping.
            ("1e30,5,1e30,0\n", Ok((far, SimDuration::from_micros(u64::MAX)))),
        ] {
            let got = DriveTrace::from_csv(csv).map(|t| (t.start(), t.owd_at(far)));
            assert_eq!(got, want, "{csv:?}");
        }

        let row = |path: &str, t: &str, rate: &str| {
            format!("{{\"t\":{t},\"path\":{path},\"rate_bps\":{rate},\"owd_ms\":1,\"loss_pct\":0}}\n")
        };
        for (jsonl, want) in [
            (row("0", "NaN", "1"), Err(D::BadValue(1))),
            (row("0", "inf", "1"), Err(D::BadValue(1))),
            (row("0", "-1", "1"), Err(D::BadValue(1))),
            (row("0", "0", "1e30"), Err(D::BadLine(1))),
            (row("0", "0", "-1"), Err(D::BadLine(1))),
            (row("256", "0", "1"), Err(D::BadLine(1))),
            (row("-1", "0", "1"), Err(D::BadLine(1))),
            (row("255", "0", "1"), Err(D::MissingPath(0))),
            (row("0", "1e30", "1"), Ok(vec![far])),
        ] {
            let got = DriveTrace::parse_jsonl(&jsonl)
                .map(|traces| traces.iter().map(DriveTrace::start).collect::<Vec<_>>());
            assert_eq!(got, want, "{jsonl:?}");
        }
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let t = RateTrace::from_csv("# header\n\n0.0,100\n0.5,200\n").unwrap();
        assert_eq!(t.rates(), &[100, 200]);
        assert_eq!(t.step().as_millis(), 500);
    }

    #[test]
    fn synthetic_traces_are_deterministic() {
        let a = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            SimDuration::from_secs(60),
            1,
        );
        let b = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            SimDuration::from_secs(60),
            1,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            SimDuration::from_secs(60),
            1,
        );
        let b = synthesize(
            Scenario::Driving,
            Carrier::CellularA,
            SimDuration::from_secs(60),
            2,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn driving_is_more_variable_than_stationary() {
        let dur = SimDuration::from_secs(180);
        let stat = synthesize(Scenario::Stationary, Carrier::CellularA, dur, 3);
        let driv = synthesize(Scenario::Driving, Carrier::CellularA, dur, 3);
        let cv = |t: &RateTrace| {
            let mean = t.mean_rate() as f64;
            let var: f64 = t
                .rates()
                .iter()
                .map(|&r| (r as f64 - mean).powi(2))
                .sum::<f64>()
                / t.rates().len() as f64;
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
            SimDuration::from_secs(180),
            5,
        );
        let min = *t.rates().iter().min().unwrap();
        assert!(min < 1_000_000, "expected sub-1Mbps gaps, min was {min}");
    }

    #[test]
    fn stationary_wifi_stays_high() {
        let t = synthesize(
            Scenario::Stationary,
            Carrier::Wifi,
            SimDuration::from_secs(180),
            7,
        );
        assert!(t.mean_rate() > 25_000_000, "mean {}", t.mean_rate());
    }

    #[test]
    fn trace_span() {
        let t = RateTrace::new(SimDuration::from_millis(500), vec![0; 10]);
        assert_eq!(t.span().as_secs_f64(), 5.0);
    }
}
