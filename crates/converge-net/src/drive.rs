//! File-driven cellular drive replay.
//!
//! The paper's headline experiments replay bandwidth/latency/loss captures
//! recorded while driving through T-Mobile and Verizon coverage (its
//! Figs. 20–22). A [`DriveTrace`] is the reproduction's container for such
//! a capture: a sequence of non-uniformly spaced samples, each pinning the
//! path's achievable **rate**, one-way **delay**, and random **loss** from
//! that instant on. Unlike [`crate::trace::RateTrace`] — uniform-step,
//! rate-only, wrapping past the end — a drive trace:
//!
//! - carries all three impairment axes per sample (LoLa observes that
//!   multi-carrier paths diverge in rate *and* RTT *and* loss
//!   simultaneously during handoffs);
//! - allows arbitrary strictly-increasing timestamps, so sparse captures
//!   and dense handover bursts coexist in one file;
//! - uses **hold semantics**: before the first sample the first sample's
//!   values apply, each sample takes effect exactly at its timestamp, and
//!   after the last sample the final values hold forever (a capture that
//!   ends healthy stays healthy — it does not wrap back into its gaps).
//!
//! Two serializations are supported: single-path CSV
//! (`t_s,rate_bps,owd_ms,loss_pct` rows) and multi-path JSONL (one object
//! per line with an optional `"path"` field), the format of the committed
//! fixtures under `tests/tests/fixtures/drives/`.

use crate::time::{SimDuration, SimTime};

/// One sample of a drive capture: the path's behaviour from [`DriveSample::at`]
/// until the next sample (or forever, for the last one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveSample {
    /// Instant this sample takes effect.
    pub at: SimTime,
    /// Achievable bottleneck rate, bits per second (0 = coverage gap).
    pub rate_bps: u64,
    /// One-way delay of the path.
    pub owd: SimDuration,
    /// Random loss in percent (0–100).
    pub loss_pct: f64,
}

/// A drive capture for one path: strictly time-ordered [`DriveSample`]s
/// with hold semantics (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DriveTrace {
    samples: Vec<DriveSample>,
}

impl DriveTrace {
    /// Builds a trace from samples, validating non-emptiness, strictly
    /// increasing timestamps, and finite in-range loss values. Error line
    /// numbers are 1-based sample indices.
    pub fn new(samples: Vec<DriveSample>) -> Result<Self, DriveParseError> {
        if samples.is_empty() {
            return Err(DriveParseError::Empty);
        }
        for (i, s) in samples.iter().enumerate() {
            if !s.loss_pct.is_finite() || !(0.0..=100.0).contains(&s.loss_pct) {
                return Err(DriveParseError::BadValue(i + 1));
            }
            if i > 0 && s.at <= samples[i - 1].at {
                return Err(DriveParseError::NonMonotoneTime(i + 1));
            }
        }
        Ok(DriveTrace { samples })
    }

    /// The samples, in time order.
    pub fn samples(&self) -> &[DriveSample] {
        &self.samples
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> SimTime {
        self.samples[0].at
    }

    /// Timestamp of the last sample — the start of the final hold segment.
    pub fn end(&self) -> SimTime {
        self.samples[self.samples.len() - 1].at
    }

    /// The sample in effect at `at` under hold semantics: the last sample
    /// with `sample.at <= at`, or the first sample before the trace starts.
    pub fn sample_at(&self, at: SimTime) -> &DriveSample {
        let idx = self.samples.partition_point(|s| s.at <= at);
        &self.samples[idx.saturating_sub(1)]
    }

    /// Achievable rate at `at`, bits per second.
    pub fn rate_at(&self, at: SimTime) -> u64 {
        self.sample_at(at).rate_bps
    }

    /// One-way delay at `at`.
    pub fn owd_at(&self, at: SimTime) -> SimDuration {
        self.sample_at(at).owd
    }

    /// Random loss at `at`, percent.
    pub fn loss_at(&self, at: SimTime) -> f64 {
        self.sample_at(at).loss_pct
    }

    /// Time until the next sample boundary after `at`, or `None` once `at`
    /// is in the final hold segment (the values never change again).
    pub fn until_next_change(&self, at: SimTime) -> Option<SimDuration> {
        let idx = self.samples.partition_point(|s| s.at <= at);
        self.samples.get(idx).map(|s| s.at.saturating_since(at))
    }

    /// Mean rate across samples (unweighted — a summary statistic for
    /// reports, not a capacity model).
    pub fn mean_rate(&self) -> u64 {
        let sum: u128 = self.samples.iter().map(|s| s.rate_bps as u128).sum();
        (sum / self.samples.len() as u128) as u64
    }

    /// Serializes as `t_s,rate_bps,owd_ms,loss_pct` CSV rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# t_s,rate_bps,owd_ms,loss_pct\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{:.6},{},{:.3},{}\n",
                s.at.as_micros() as f64 / 1e6,
                s.rate_bps,
                s.owd.as_micros() as f64 / 1e3,
                s.loss_pct
            ));
        }
        out
    }

    /// Parses the CSV produced by [`DriveTrace::to_csv`]. Blank lines and
    /// `#` comments are skipped; errors carry 1-based line numbers.
    pub fn from_csv(text: &str) -> Result<Self, DriveParseError> {
        let mut samples = Vec::new();
        let mut last: Option<(SimTime, usize)> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = lineno + 1;
            let mut fields = line.split(',');
            let mut next = || fields.next().map(str::trim);
            let (Some(t), Some(rate), Some(owd), Some(loss)) = (next(), next(), next(), next())
            else {
                return Err(DriveParseError::BadLine(lineno));
            };
            if next().is_some() {
                return Err(DriveParseError::BadLine(lineno));
            }
            let sample = DriveSample {
                at: parse_time_secs(t, lineno)?,
                rate_bps: rate.parse().map_err(|_| DriveParseError::BadLine(lineno))?,
                owd: parse_duration_ms(owd, lineno)?,
                loss_pct: parse_loss_pct(loss, lineno)?,
            };
            if let Some((prev, _)) = last {
                if sample.at <= prev {
                    return Err(DriveParseError::NonMonotoneTime(lineno));
                }
            }
            last = Some((sample.at, lineno));
            samples.push(sample);
        }
        if samples.is_empty() {
            return Err(DriveParseError::Empty);
        }
        // Loss range/monotonicity already validated with file line numbers.
        Ok(DriveTrace { samples })
    }

    /// Serializes as the multi-path JSONL row format, tagging every row
    /// with `path`.
    pub fn to_jsonl(&self, path: u8) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&format!(
                "{{\"t\":{:.6},\"path\":{},\"rate_bps\":{},\"owd_ms\":{:.3},\"loss_pct\":{}}}\n",
                s.at.as_micros() as f64 / 1e6,
                path,
                s.rate_bps,
                s.owd.as_micros() as f64 / 1e3,
                s.loss_pct
            ));
        }
        out
    }

    /// Parses a multi-path JSONL drive file: one object per line with
    /// numeric fields `t` (seconds), `rate_bps`, `owd_ms`, `loss_pct`, and
    /// an optional `path` (default 0). Returns one trace per path, indexed
    /// by path ID; path IDs must form a contiguous `0..n`. Blank lines and
    /// `#` comments are skipped; errors carry 1-based line numbers.
    pub fn parse_jsonl(text: &str) -> Result<Vec<DriveTrace>, DriveParseError> {
        // Samples and the last sample's instant, indexed by path id; an id
        // no row names stays `None`.
        let mut per_path: Vec<Option<(Vec<DriveSample>, SimTime)>> = Vec::new();
        let mut any = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = lineno + 1;
            if !line.starts_with('{') || !line.ends_with('}') {
                return Err(DriveParseError::BadLine(lineno));
            }
            let field = |key: &str| json_number_field(line, key);
            let t = field("t").ok_or(DriveParseError::BadLine(lineno))?;
            let rate = field("rate_bps").ok_or(DriveParseError::BadLine(lineno))?;
            let owd = field("owd_ms").ok_or(DriveParseError::BadLine(lineno))?;
            let loss = field("loss_pct").ok_or(DriveParseError::BadLine(lineno))?;
            let path: u8 = match field("path") {
                Some(p) => p.parse().map_err(|_| DriveParseError::BadLine(lineno))?,
                None => 0,
            };
            let sample = DriveSample {
                at: parse_time_secs(t, lineno)?,
                rate_bps: rate.parse().map_err(|_| DriveParseError::BadLine(lineno))?,
                owd: parse_duration_ms(owd, lineno)?,
                loss_pct: parse_loss_pct(loss, lineno)?,
            };
            any = true;
            let idx = usize::from(path);
            if idx >= per_path.len() {
                per_path.resize_with(idx + 1, || None);
            }
            let (samples, last) = per_path[idx].get_or_insert_with(|| (Vec::new(), SimTime::ZERO));
            if !samples.is_empty() && sample.at <= *last {
                return Err(DriveParseError::NonMonotoneTime(lineno));
            }
            *last = sample.at;
            samples.push(sample);
        }
        if !any {
            return Err(DriveParseError::Empty);
        }
        per_path
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let (samples, _) = slot.ok_or(DriveParseError::MissingPath(i as u8))?;
                DriveTrace::new(samples)
            })
            .collect()
    }
}

/// Parses a finite non-negative seconds value into a [`SimTime`].
fn parse_time_secs(text: &str, lineno: usize) -> Result<SimTime, DriveParseError> {
    let secs: f64 = text.parse().map_err(|_| DriveParseError::BadLine(lineno))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(DriveParseError::BadValue(lineno));
    }
    Ok(SimTime::from_micros((secs * 1e6).round() as u64))
}

/// Parses a finite non-negative milliseconds value into a [`SimDuration`].
fn parse_duration_ms(text: &str, lineno: usize) -> Result<SimDuration, DriveParseError> {
    let ms: f64 = text.parse().map_err(|_| DriveParseError::BadLine(lineno))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(DriveParseError::BadValue(lineno));
    }
    Ok(SimDuration::from_micros((ms * 1e3).round() as u64))
}

/// Parses a finite loss percentage in `[0, 100]`.
fn parse_loss_pct(text: &str, lineno: usize) -> Result<f64, DriveParseError> {
    let pct: f64 = text.parse().map_err(|_| DriveParseError::BadLine(lineno))?;
    if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
        return Err(DriveParseError::BadValue(lineno));
    }
    Ok(pct)
}

/// Extracts the raw text of a numeric field from a single-line JSON object.
/// The drive row format has no string values, so scanning for `"key":` is
/// unambiguous.
fn json_number_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let value = rest[..end].trim();
    (!value.is_empty()).then_some(value)
}

/// Errors from the drive-trace parsers and [`DriveTrace::new`]. All line
/// numbers are 1-based (file lines for the parsers, sample indices for
/// the constructor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveParseError {
    /// The input had no data rows.
    Empty,
    /// A row was structurally malformed (wrong field count, unparsable
    /// number, missing required JSON field).
    BadLine(usize),
    /// A numeric value was non-finite (NaN/inf) or out of its legal range.
    BadValue(usize),
    /// A row's timestamp did not strictly increase within its path.
    NonMonotoneTime(usize),
    /// Multi-path input skipped a path ID (IDs must form `0..n`).
    MissingPath(u8),
}

impl std::fmt::Display for DriveParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveParseError::Empty => write!(f, "drive trace has no data rows"),
            DriveParseError::BadLine(n) => write!(f, "malformed drive row at line {n}"),
            DriveParseError::BadValue(n) => {
                write!(f, "non-finite or out-of-range value at line {n}")
            }
            DriveParseError::NonMonotoneTime(n) => {
                write!(f, "timestamp at line {n} does not increase within its path")
            }
            DriveParseError::MissingPath(p) => {
                write!(f, "multi-path drive file skips path {p} (IDs must be 0..n)")
            }
        }
    }
}

impl std::error::Error for DriveParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: u64, rate: u64, owd_ms: u64, loss: f64) -> DriveSample {
        DriveSample {
            at: SimTime::from_millis(t_ms),
            rate_bps: rate,
            owd: SimDuration::from_millis(owd_ms),
            loss_pct: loss,
        }
    }

    fn trace() -> DriveTrace {
        DriveTrace::new(vec![
            sample(0, 10_000_000, 40, 0.0),
            sample(2_000, 2_000_000, 80, 2.5),
            sample(5_000, 15_000_000, 35, 0.0),
        ])
        .expect("valid")
    }

    #[test]
    fn hold_semantics_at_boundaries() {
        let t = trace();
        // Before the first sample: hold-first.
        assert_eq!(t.rate_at(SimTime::ZERO), 10_000_000);
        // Exactly at a boundary the new sample applies.
        assert_eq!(t.rate_at(SimTime::from_millis(2_000)), 2_000_000);
        assert_eq!(t.owd_at(SimTime::from_millis(2_000)).as_millis(), 80);
        // Between boundaries the previous sample holds (no interpolation).
        assert_eq!(t.rate_at(SimTime::from_millis(4_999)), 2_000_000);
        // After the last sample: hold-last forever.
        assert_eq!(t.rate_at(SimTime::from_secs(10_000)), 15_000_000);
        assert_eq!(t.loss_at(SimTime::from_secs(10_000)), 0.0);
    }

    #[test]
    fn hold_first_before_start() {
        let t = DriveTrace::new(vec![sample(3_000, 7_000_000, 50, 1.0)]).unwrap();
        assert_eq!(t.rate_at(SimTime::ZERO), 7_000_000);
        assert_eq!(t.owd_at(SimTime::from_millis(1)).as_millis(), 50);
        assert_eq!(t.loss_at(SimTime::ZERO), 1.0);
    }

    #[test]
    fn until_next_change_counts_to_boundary_then_none() {
        let t = trace();
        assert_eq!(
            t.until_next_change(SimTime::from_millis(500)),
            Some(SimDuration::from_millis(1_500))
        );
        // Exactly at a boundary the countdown targets the *next* one.
        assert_eq!(
            t.until_next_change(SimTime::from_millis(2_000)),
            Some(SimDuration::from_millis(3_000))
        );
        // Final hold segment never changes again.
        assert_eq!(t.until_next_change(SimTime::from_millis(5_000)), None);
        assert_eq!(t.until_next_change(SimTime::from_secs(99)), None);
    }

    #[test]
    fn rejects_empty_and_non_monotone_and_bad_loss() {
        assert_eq!(DriveTrace::new(vec![]), Err(DriveParseError::Empty));
        assert_eq!(
            DriveTrace::new(vec![sample(1_000, 1, 1, 0.0), sample(1_000, 2, 1, 0.0)]),
            Err(DriveParseError::NonMonotoneTime(2))
        );
        assert_eq!(
            DriveTrace::new(vec![sample(0, 1, 1, f64::NAN)]),
            Err(DriveParseError::BadValue(1))
        );
        assert_eq!(
            DriveTrace::new(vec![sample(0, 1, 1, 101.0)]),
            Err(DriveParseError::BadValue(1))
        );
    }

    #[test]
    fn csv_roundtrip() {
        let t = trace();
        assert_eq!(DriveTrace::from_csv(&t.to_csv()), Ok(t));
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        assert_eq!(DriveTrace::from_csv(""), Err(DriveParseError::Empty));
        assert_eq!(
            DriveTrace::from_csv("# header only\n\n"),
            Err(DriveParseError::Empty)
        );
        assert_eq!(
            DriveTrace::from_csv("0.0,5,40,0\nnot-a-row\n"),
            Err(DriveParseError::BadLine(2))
        );
        assert_eq!(
            DriveTrace::from_csv("0.0,5,40,0\n1.0,5,40\n"),
            Err(DriveParseError::BadLine(2))
        );
        assert_eq!(
            DriveTrace::from_csv("# c\n0.0,5,40,0\n1.0,5,NaN,0\n"),
            Err(DriveParseError::BadValue(3))
        );
        assert_eq!(
            DriveTrace::from_csv("0.0,5,40,0\n1.0,5,40,inf\n"),
            Err(DriveParseError::BadValue(2))
        );
        assert_eq!(
            DriveTrace::from_csv("0.0,5,40,0\n2.0,5,40,0\n1.0,5,40,0\n"),
            Err(DriveParseError::NonMonotoneTime(3))
        );
    }

    #[test]
    fn jsonl_roundtrip_and_multi_path() {
        let t = trace();
        let parsed = DriveTrace::parse_jsonl(&t.to_jsonl(0)).expect("parses");
        assert_eq!(parsed, vec![t.clone()]);
        // Interleaved rows for two paths demultiplex cleanly.
        let mut interleaved = String::new();
        for (a, b) in t.to_jsonl(1).lines().zip(t.to_jsonl(0).lines()) {
            interleaved.push_str(a);
            interleaved.push('\n');
            interleaved.push_str(b);
            interleaved.push('\n');
        }
        let both = DriveTrace::parse_jsonl(&interleaved).expect("parses");
        assert_eq!(both.len(), 2);
        assert_eq!(both[0], t);
        assert_eq!(both[1], t);
    }

    #[test]
    fn jsonl_rejects_gaps_in_path_ids_and_bad_rows() {
        let row = |p: u8| format!("{{\"t\":0.0,\"path\":{p},\"rate_bps\":1,\"owd_ms\":1,\"loss_pct\":0}}\n");
        let text = format!("{}{}", row(0), row(2));
        assert_eq!(
            DriveTrace::parse_jsonl(&text),
            Err(DriveParseError::MissingPath(1))
        );
        assert_eq!(
            DriveTrace::parse_jsonl("{\"t\":0.0,\"rate_bps\":1}\n"),
            Err(DriveParseError::BadLine(1))
        );
        assert_eq!(
            DriveTrace::parse_jsonl("plain text\n"),
            Err(DriveParseError::BadLine(1))
        );
        // Per-path monotonicity: a repeated timestamp on the same path is
        // rejected even with other paths interleaved between the rows.
        let text = format!(
            "{}{}{}",
            "{\"t\":1.0,\"path\":0,\"rate_bps\":1,\"owd_ms\":1,\"loss_pct\":0}\n",
            "{\"t\":2.0,\"path\":1,\"rate_bps\":1,\"owd_ms\":1,\"loss_pct\":0}\n",
            "{\"t\":1.0,\"path\":0,\"rate_bps\":2,\"owd_ms\":1,\"loss_pct\":0}\n",
        );
        assert_eq!(
            DriveTrace::parse_jsonl(&text),
            Err(DriveParseError::NonMonotoneTime(3))
        );
    }

    #[test]
    fn mean_rate_and_span() {
        let t = trace();
        assert_eq!(t.mean_rate(), 9_000_000);
        assert_eq!(t.start(), SimTime::ZERO);
        assert_eq!(t.end(), SimTime::from_secs(5));
    }
}
