//! Small statistics helpers for experiment reporting: seed aggregation
//! (mean ± std) and metric extraction. Fig. 14c's E2E quantiles are read
//! off the report's own samples (`E2eSamples::quantile_ms`).

use converge_sim::CallReport;

/// Mean and sample standard deviation of a series.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Formats `mean ± std` compactly.
pub fn pm(values: &[f64], decimals: usize) -> String {
    let (m, s) = mean_std(values);
    format!("{m:.decimals$} ± {s:.decimals$}")
}

/// Extracts a metric from each report.
pub fn metric(reports: &[&CallReport], f: impl Fn(&CallReport) -> f64) -> Vec<f64> {
    reports.iter().map(|&r| f(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 6.0]);
        assert_eq!(m, 4.0);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(&[1.0, 3.0], 1), "2.0 ± 1.4");
    }

    /// The E2E samples of a call that decoded one frame per value of
    /// `ms`, in the given order: what Fig. 14c's quantiles read.
    fn e2e_samples(ms: &[u64]) -> converge_sim::E2eSamples {
        use converge_net::{SimDuration, SimTime};
        use converge_video::{StreamId, VideoFormat};
        let mut m = converge_sim::MetricsCollector::new(
            SimDuration::from_secs(10),
            VideoFormat::HD720,
            10_000_000,
            1,
        );
        for (i, &e2e) in ms.iter().enumerate() {
            m.on_frame_decoded(
                StreamId(0),
                SimTime::from_millis(i as u64),
                SimDuration::from_millis(e2e),
            );
        }
        m.finish().e2e_samples_ms
    }

    #[test]
    fn quantile_of_known_series() {
        let v = e2e_samples(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(v.quantile_ms(0.0), 1.0);
        assert_eq!(v.quantile_ms(1.0), 100.0);
        assert!((v.quantile_ms(0.5) - 50.0).abs() <= 1.0);
        assert!((v.quantile_ms(0.95) - 95.0).abs() <= 1.0);
    }

    #[test]
    fn quantile_handles_edge_cases() {
        assert_eq!(e2e_samples(&[]).quantile_ms(0.5), 0.0);
        assert_eq!(e2e_samples(&[7]).quantile_ms(0.99), 7.0);
        assert_eq!(e2e_samples(&[3, 1]).quantile_ms(-1.0), 1.0); // clamped
        assert_eq!(e2e_samples(&[3, 1]).quantile_ms(2.0), 3.0);
    }
}
