//! Per-path state shared between the congestion controller and the
//! schedulers.

use converge_net::{PathId, SimDuration};

/// A snapshot of one path's transport-level state, as derived from per-path
//  GCC and RTCP statistics, consumed by every scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMetrics {
    /// Path identity.
    pub id: PathId,
    /// GCC sending rate `S_i` for this path, bits per second.
    pub rate_bps: u64,
    /// Smoothed round-trip time.
    pub srtt: SimDuration,
    /// Most recent loss fraction (0..=1).
    pub loss: f64,
    /// Whether the path is currently usable for media. Disabled paths
    /// receive only probe duplicates (paper §4.2).
    pub enabled: bool,
}

impl PathMetrics {
    /// Convenience constructor for an enabled path.
    pub fn new(id: PathId, rate_bps: u64, srtt: SimDuration, loss: f64) -> Self {
        PathMetrics {
            id,
            rate_bps,
            srtt,
            loss,
            enabled: true,
        }
    }

    /// Effective goodput: the sending rate discounted by loss.
    pub fn goodput_bps(&self) -> f64 {
        self.rate_bps as f64 * (1.0 - self.loss.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(id: u8, rate: u64, enabled: bool) -> PathMetrics {
        PathMetrics {
            id: PathId(id),
            rate_bps: rate,
            srtt: SimDuration::from_millis(50),
            loss: 0.0,
            enabled,
        }
    }

    #[test]
    fn goodput_discounts_loss() {
        let mut p = pm(0, 10_000_000, true);
        p.loss = 0.1;
        assert_eq!(p.goodput_bps(), 9_000_000.0);
    }

    #[test]
    fn goodput_clamps_bad_loss() {
        let mut p = pm(0, 10_000_000, true);
        p.loss = 2.0;
        assert_eq!(p.goodput_bps(), 0.0);
    }
}
