//! Fast-path selection (paper Algorithm 1).
//!
//! The fast path is the one that can deliver the current batch of packets
//! in the least time: `cpt_i = N*k / rate_i + rtt_i / 2`, where `N` is the
//! number of RTP packets to send, `k` the maximum RTP packet size, `rate_i`
//! the path's goodput-adjusted encoding rate in bytes/sec, and `rtt_i` its
//! measured round-trip time.

use converge_net::PathId;

use crate::metrics::PathMetrics;

/// How the fast path is chosen — Algorithm 1 uses completion time; minRTT
/// exists for the ablation study of the design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FastPathMetric {
    /// Algorithm 1: minimize `N·k/rate + rtt/2`.
    CompletionTime,
    /// The minRTT criterion of MPTCP/MPQUIC schedulers.
    MinRtt,
}

/// Selects the fast path under the given metric.
pub fn select_fast_path_by(
    metric: FastPathMetric,
    paths: &[PathMetrics],
    n_packets: usize,
    max_packet_bytes: usize,
) -> Option<PathId> {
    match metric {
        FastPathMetric::CompletionTime => select_fast_path(paths, n_packets, max_packet_bytes),
        FastPathMetric::MinRtt => paths
            .iter()
            .filter(|p| p.enabled)
            .min_by_key(|p| p.srtt)
            .map(|p| p.id),
    }
}

/// Completion time of sending `n_packets` of `max_packet_bytes` over `path`
/// (Algorithm 1, line 9), in seconds. Disabled or zero-rate paths return
/// infinity.
pub fn completion_time(path: &PathMetrics, n_packets: usize, max_packet_bytes: usize) -> f64 {
    if !path.enabled {
        return f64::INFINITY;
    }
    // Goodput-adjusted rate in bytes per second ("the measured goodput rate
    // (which accounts for packet loss)").
    let rate_bytes = path.goodput_bps() / 8.0;
    if rate_bytes <= 0.0 {
        return f64::INFINITY;
    }
    let serialization = (n_packets * max_packet_bytes) as f64 / rate_bytes;
    let half_rtt = path.srtt.as_secs_f64() / 2.0;
    serialization + half_rtt
}

/// Selects the fast path: argmin over completion times. Returns `None` when
/// no path is usable.
pub fn select_fast_path(
    paths: &[PathMetrics],
    n_packets: usize,
    max_packet_bytes: usize,
) -> Option<PathId> {
    paths
        .iter()
        .map(|p| (p.id, completion_time(p, n_packets, max_packet_bytes)))
        .filter(|(_, cpt)| cpt.is_finite())
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite cpts"))
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use converge_net::SimDuration;

    fn pm(id: u8, rate_mbps: u64, rtt_ms: u64, loss: f64) -> PathMetrics {
        PathMetrics {
            id: PathId(id),
            rate_bps: rate_mbps * 1_000_000,
            srtt: SimDuration::from_millis(rtt_ms),
            loss,
            enabled: true,
        }
    }

    #[test]
    fn completion_time_formula() {
        // 40 packets * 1250 B = 50 kB at 10 Mbps (1.25 MB/s) = 40 ms; +25 ms
        // half-RTT = 65 ms.
        let p = pm(0, 10, 50, 0.0);
        let cpt = completion_time(&p, 40, 1250);
        assert!((cpt - 0.065).abs() < 1e-9, "{cpt}");
    }

    #[test]
    fn higher_rate_wins_for_large_batches() {
        // Fat path with higher RTT beats thin path with low RTT when the
        // batch is large.
        let fat = pm(0, 20, 80, 0.0);
        let thin = pm(1, 2, 20, 0.0);
        assert_eq!(select_fast_path(&[fat, thin], 100, 1250), Some(PathId(0)));
    }

    #[test]
    fn lower_rtt_wins_for_tiny_batches() {
        let fat = pm(0, 20, 80, 0.0);
        let thin = pm(1, 10, 20, 0.0);
        assert_eq!(select_fast_path(&[fat, thin], 1, 1250), Some(PathId(1)));
    }

    #[test]
    fn loss_discounts_rate() {
        // Same nominal rate; the lossy path's goodput is lower.
        let clean = pm(0, 10, 50, 0.0);
        let lossy = pm(1, 10, 50, 0.3);
        assert_eq!(select_fast_path(&[lossy, clean], 50, 1250), Some(PathId(0)));
    }

    #[test]
    fn disabled_paths_skipped() {
        let mut a = pm(0, 100, 10, 0.0);
        a.enabled = false;
        let b = pm(1, 1, 200, 0.0);
        assert_eq!(select_fast_path(&[a, b], 10, 1250), Some(PathId(1)));
        assert_eq!(completion_time(&a, 10, 1250), f64::INFINITY);
    }

    #[test]
    fn no_usable_path_returns_none() {
        let mut a = pm(0, 10, 10, 0.0);
        a.enabled = false;
        let b = pm(1, 0, 10, 0.0);
        assert_eq!(select_fast_path(&[a, b], 10, 1250), None);
    }

    #[test]
    fn total_loss_is_unusable() {
        let p = pm(0, 10, 10, 1.0);
        assert_eq!(completion_time(&p, 10, 1250), f64::INFINITY);
    }

    #[test]
    fn metric_variants_differ_where_expected() {
        // Fat-but-far path vs thin-but-near path.
        let fat = pm(0, 30, 120, 0.0);
        let thin = pm(1, 3, 20, 0.0);
        let paths = [fat, thin];
        assert_eq!(
            select_fast_path_by(FastPathMetric::MinRtt, &paths, 50, 1250),
            Some(PathId(1))
        );
        // Completion time prefers the fat path for large batches...
        assert_eq!(
            select_fast_path_by(FastPathMetric::CompletionTime, &paths, 100, 1250),
            Some(PathId(0))
        );
        // ...and the near path for tiny ones.
        assert_eq!(
            select_fast_path_by(FastPathMetric::CompletionTime, &paths, 1, 1250),
            Some(PathId(1))
        );
    }

    #[test]
    fn metric_variants_skip_disabled() {
        let mut a = pm(0, 100, 1, 0.0);
        a.enabled = false;
        let b = pm(1, 1, 500, 0.0);
        for m in [FastPathMetric::CompletionTime, FastPathMetric::MinRtt] {
            assert_eq!(select_fast_path_by(m, &[a, b], 10, 1250), Some(PathId(1)));
        }
    }
}
