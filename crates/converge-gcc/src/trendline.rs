//! Trendline estimator and adaptive-threshold overuse detector.
//!
//! The delay-based controller smooths the delay-variation samples, fits a
//! line through the recent window, and compares the (scaled) slope against
//! an adaptive threshold to classify the path as underused, normal, or
//! overused — the structure of WebRTC's `TrendlineEstimator`.

use converge_net::SimTime;

use crate::arrival::DelaySample;

/// Bandwidth usage signal produced by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthUsage {
    /// Queues draining: the path can take more.
    Underusing,
    /// Stable delay.
    Normal,
    /// Queues building: back off.
    Overusing,
}

/// Exponential smoothing factor for accumulated delay.
const SMOOTHING: f64 = 0.9;
/// Samples in the regression window.
const WINDOW: usize = 20;
/// Gain applied to the fitted slope before thresholding.
const THRESHOLD_GAIN: f64 = 4.0;
/// Initial adaptive threshold, ms.
const INITIAL_THRESHOLD_MS: f64 = 12.5;
/// Threshold adaptation rate when |trend| is above it.
const K_UP: f64 = 0.0087;
/// Threshold adaptation rate when |trend| is below it.
const K_DOWN: f64 = 0.039;
/// Time the trend must stay above threshold before declaring overuse, ms.
const OVERUSE_TIME_MS: f64 = 10.0;

/// Sliding-window trendline estimator with adaptive-threshold detection.
#[derive(Debug)]
pub struct TrendlineEstimator {
    /// (arrival ms since first sample, smoothed accumulated delay ms)
    history: std::collections::VecDeque<(f64, f64)>,
    first_arrival: Option<SimTime>,
    accumulated_delay_ms: f64,
    smoothed_delay_ms: f64,
    threshold_ms: f64,
    last_update: Option<SimTime>,
    time_over_using_ms: f64,
    overuse_count: u32,
    prev_trend: f64,
    state: BandwidthUsage,
    num_samples: usize,
}

impl Default for TrendlineEstimator {
    fn default() -> Self {
        TrendlineEstimator {
            history: std::collections::VecDeque::new(),
            first_arrival: None,
            accumulated_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            threshold_ms: INITIAL_THRESHOLD_MS,
            last_update: None,
            time_over_using_ms: -1.0,
            overuse_count: 0,
            prev_trend: 0.0,
            state: BandwidthUsage::Normal,
            num_samples: 0,
        }
    }
}

impl TrendlineEstimator {
    /// Current detector state.
    pub fn state(&self) -> BandwidthUsage {
        self.state
    }

    /// Current adaptive threshold (exposed for tests/telemetry).
    pub fn threshold_ms(&self) -> f64 {
        self.threshold_ms
    }

    /// Feeds one delay sample; returns the (possibly updated) state.
    pub fn on_sample(&mut self, sample: DelaySample) -> BandwidthUsage {
        self.num_samples += 1;
        let first = *self.first_arrival.get_or_insert(sample.at);
        let t_ms = sample.at.saturating_since(first).as_micros() as f64 / 1_000.0;

        self.accumulated_delay_ms += sample.delta_ms;
        self.smoothed_delay_ms =
            SMOOTHING * self.smoothed_delay_ms + (1.0 - SMOOTHING) * self.accumulated_delay_ms;

        self.history.push_back((t_ms, self.smoothed_delay_ms));
        while self.history.len() > WINDOW {
            self.history.pop_front();
        }
        let trend = if self.history.len() >= 2 {
            linear_slope(self.history.iter().copied())
        } else {
            0.0
        };
        self.detect(trend, sample);
        self.state
    }

    /// The WebRTC-style overuse detector with adaptive threshold.
    fn detect(&mut self, trend: f64, sample: DelaySample) {
        let modified_trend = trend * (self.num_samples.min(60) as f64) * THRESHOLD_GAIN;

        if modified_trend > self.threshold_ms {
            // Require the trend to persist before declaring overuse.
            if self.time_over_using_ms < 0.0 {
                self.time_over_using_ms = sample.send_gap_ms / 2.0;
            } else {
                self.time_over_using_ms += sample.send_gap_ms;
            }
            self.overuse_count += 1;
            if self.time_over_using_ms > OVERUSE_TIME_MS
                && self.overuse_count > 1
                && trend >= self.prev_trend
            {
                self.time_over_using_ms = 0.0;
                self.overuse_count = 0;
                self.state = BandwidthUsage::Overusing;
            }
        } else if modified_trend < -self.threshold_ms {
            self.time_over_using_ms = -1.0;
            self.overuse_count = 0;
            self.state = BandwidthUsage::Underusing;
        } else {
            self.time_over_using_ms = -1.0;
            self.overuse_count = 0;
            self.state = BandwidthUsage::Normal;
        }
        self.prev_trend = trend;
        self.adapt_threshold(modified_trend, sample.at);
    }

    /// Threshold adaptation: tracks |trend| slowly so that a persistent
    /// offset (e.g. a competing flow) does not starve the controller.
    fn adapt_threshold(&mut self, modified_trend: f64, now: SimTime) {
        let dt_ms = match self.last_update {
            Some(prev) => (now.saturating_since(prev).as_micros() as f64 / 1_000.0).min(100.0),
            None => 100.0,
        };
        self.last_update = Some(now);
        // Ignore wild outliers entirely (WebRTC: 15 ms beyond threshold).
        if modified_trend.abs() > self.threshold_ms + 15.0 {
            return;
        }
        let k = if modified_trend.abs() < self.threshold_ms {
            K_DOWN
        } else {
            K_UP
        };
        self.threshold_ms += k * (modified_trend.abs() - self.threshold_ms) * dt_ms;
        self.threshold_ms = self.threshold_ms.clamp(6.0, 600.0);
    }
}

/// Ordinary least-squares slope of `(x, y)` points.
fn linear_slope(points: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
    let n = points.clone().count() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean_x = points.clone().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.clone().map(|(_, y)| y).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in points {
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x) * (x - mean_x);
    }
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: u64, delta_ms: f64) -> DelaySample {
        DelaySample {
            at: SimTime::from_millis(at_ms),
            delta_ms,
            send_gap_ms: 20.0,
        }
    }

    #[test]
    fn stable_delay_stays_normal() {
        let mut e = TrendlineEstimator::default();
        for i in 0..100 {
            e.on_sample(sample(i * 20, 0.0));
        }
        assert_eq!(e.state(), BandwidthUsage::Normal);
    }

    #[test]
    fn sustained_positive_gradient_detects_overuse() {
        let mut e = TrendlineEstimator::default();
        let mut saw_overuse = false;
        for i in 0..100 {
            if e.on_sample(sample(i * 20, 2.0)) == BandwidthUsage::Overusing {
                saw_overuse = true;
            }
        }
        assert!(saw_overuse);
    }

    #[test]
    fn sustained_negative_gradient_detects_underuse() {
        let mut e = TrendlineEstimator::default();
        // Build a queue first, then drain it.
        for i in 0..30 {
            e.on_sample(sample(i * 20, 2.0));
        }
        let mut saw_underuse = false;
        for i in 30..90 {
            if e.on_sample(sample(i * 20, -2.5)) == BandwidthUsage::Underusing {
                saw_underuse = true;
            }
        }
        assert!(saw_underuse);
    }

    #[test]
    fn noise_within_threshold_stays_normal() {
        let mut e = TrendlineEstimator::default();
        for i in 0..200u64 {
            let jitter = if i % 2 == 0 { 0.3 } else { -0.3 };
            e.on_sample(sample(i * 20, jitter));
        }
        assert_eq!(e.state(), BandwidthUsage::Normal);
    }

    #[test]
    fn threshold_adapts_upward_under_persistent_trend() {
        let mut e = TrendlineEstimator::default();
        let initial = e.threshold_ms();
        for i in 0..60 {
            // A slope strong enough that the modified trend sits above the
            // threshold (but under the outlier cutoff), pushing it upward.
            e.on_sample(sample(i * 20, 1.5));
        }
        assert!(
            e.threshold_ms() > initial,
            "{} <= {initial}",
            e.threshold_ms()
        );
    }

    #[test]
    fn slope_of_line_is_exact() {
        let pts = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0));
        assert!((linear_slope(pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_constant_is_zero() {
        let pts = (0..10).map(|i| (i as f64, 5.0));
        assert_eq!(linear_slope(pts), 0.0);
    }

    #[test]
    fn single_point_slope_zero() {
        assert_eq!(linear_slope([(1.0, 1.0)].into_iter()), 0.0);
    }
}
