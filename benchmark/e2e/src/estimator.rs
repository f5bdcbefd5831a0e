//! The timing estimator every host-time number goes through.
//!
//! On this shared 2-core box a deterministic, CPU-bound job does not have
//! one run time: whatever runs on the neighbouring hardware slows it by
//! 1.2x to 1.7x, for milliseconds or for minutes. So a fixed reference
//! kernel that never calls repo code runs before every job, and host time
//! is reported as a ratio of totals — all job time over all reference time
//! — scaled to what the reference costs on a quiet machine. Totals, not
//! quantiles: the share of time spent slowed moves both totals alike and
//! cancels, while a quantile flips between the fast and the slow mode
//! (README.md, "Why normalised seconds", has the measured comparison).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// What the reference kernel costs on the box the benchmark was sized on,
/// in a quiet phase. Normalised seconds are wall seconds on a machine
/// phase where the reference takes exactly this long.
pub const REF_NOMINAL_S: f64 = 0.045;

const REF_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const REF_ROUNDS: u64 = 180;

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The benchmark-owned reference kernel. Each round builds and sorts a
/// 4096-entry vector, folds it into a hash map and makes 512 small
/// allocations: allocation, unpredictable branches and hashing are what the
/// simulator's inner loops look like to the machine, and of the kernels
/// tried (pure arithmetic, heap churn, pointer chasing, streaming copies)
/// only this mix slowed by the simulator's own factor under contention.
#[derive(Default)]
pub struct Reference {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Reference {
    /// Runs the kernel once from its fixed seed; returns (seconds,
    /// checksum).
    pub fn run(&mut self) -> (f64, u64) {
        let started = Instant::now();
        let mut rng = REF_SEED;
        let mut sum = 0u64;
        for _ in 0..REF_ROUNDS {
            let mut keyed: Vec<(u64, u32)> = (0..4096).map(|i| (xorshift64(&mut rng), i)).collect();
            keyed.sort_unstable();
            self.map.clear();
            for (key, i) in &keyed {
                *self.map.entry(key % 2048).or_insert(0) += *i as u64;
            }
            for _ in 0..512 {
                let small: Vec<u64> = Vec::with_capacity(4 + (xorshift64(&mut rng) % 60) as usize);
                sum = sum.wrapping_add(std::hint::black_box(&small).capacity() as u64);
            }
            sum = sum
                .wrapping_add(keyed[17].0)
                .wrapping_add(self.map.len() as u64);
        }
        (started.elapsed().as_secs_f64(), std::hint::black_box(sum))
    }
}

/// Nearest-rank quantile `q` in (0, 1] of a non-empty sample.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `[min, median, max]` of a non-empty sample (nearest-rank median).
pub fn min_median_max(samples: &[f64]) -> [f64; 3] {
    [
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        nearest_rank(samples, 0.5),
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ]
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Wall seconds → normalised seconds, given the mean reference time over
/// the same stretch of the run.
pub fn normalise(wall_s: f64, ref_mean_s: f64) -> f64 {
    wall_s * REF_NOMINAL_S / ref_mean_s
}

/// Per-job and reference times of the timed passes of one run.
#[derive(Debug, Default, Clone)]
pub struct PassTimes {
    /// `job_s[j][p]`: seconds job `j` took in pass `p`.
    pub job_s: Vec<Vec<f64>>,
    /// Every reference-kernel time, in execution order.
    pub ref_s: Vec<f64>,
}

impl PassTimes {
    /// Times for `jobs` jobs, no passes yet.
    pub fn new(jobs: usize) -> Self {
        PassTimes {
            job_s: vec![Vec::new(); jobs],
            ref_s: Vec::new(),
        }
    }

    /// Timed passes recorded so far.
    pub fn passes(&self) -> usize {
        self.job_s.first().map_or(0, Vec::len)
    }

    /// Mean wall seconds of one pass: all job time over the passes.
    pub fn wall_mean_s(&self) -> f64 {
        self.pass_wall_s().iter().sum::<f64>() / self.passes() as f64
    }

    /// Mean of all reference times.
    pub fn ref_mean_s(&self) -> f64 {
        mean(&self.ref_s)
    }

    /// The gated quantity, normalised seconds per pass:
    /// `wall_mean × REF_NOMINAL_S / ref_mean`.
    pub fn norm_s(&self) -> f64 {
        normalise(self.wall_mean_s(), self.ref_mean_s())
    }

    /// Whole-pass wall seconds (Σ jobs), one entry per pass — printed as
    /// min/median/max so the raw noise stays visible; never gated.
    pub fn pass_wall_s(&self) -> Vec<f64> {
        (0..self.passes())
            .map(|p| self.job_s.iter().map(|t| t[p]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        assert_eq!(nearest_rank(&[5.0], 0.25), 5.0);
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.0);
        // n = 5 → rank ⌈1.25⌉ = 2; n = 9 → rank ⌈2.25⌉ = 3.
        assert_eq!(nearest_rank(&[5.0, 4.0, 3.0, 2.0, 1.0], 0.25), 2.0);
        assert_eq!(
            nearest_rank(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 0.25),
            3.0
        );
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(min_median_max(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn normalisation_cancels_a_uniformly_slow_phase() {
        // Reference at nominal speed: normalised = wall.
        assert!((normalise(2.0, REF_NOMINAL_S) - 2.0).abs() < 1e-12);
        // Everything 1.6x slower: same normalised seconds.
        let slow = normalise(2.0 * 1.6, REF_NOMINAL_S * 1.6);
        assert!((slow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pass_times_normalise_totals() {
        let mut t = PassTimes::new(2);
        t.job_s[0] = vec![1.0, 1.2, 1.4, 1.2];
        t.job_s[1] = vec![2.0, 2.4, 2.8, 2.4];
        t.ref_s = vec![0.045, 0.054, 0.063, 0.054, 0.045, 0.054, 0.063, 0.054];
        assert_eq!(t.passes(), 4);
        assert!((t.wall_mean_s() - 3.6).abs() < 1e-12);
        assert!((t.ref_mean_s() - 0.054).abs() < 1e-12);
        // Everything ran 1.2x slow on average, reference included.
        assert!((t.norm_s() - 3.0).abs() < 1e-12);
        assert!((t.pass_wall_s()[2] - 4.2).abs() < 1e-12);
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        let mut r = Reference::default();
        let (_, a) = r.run();
        let (s, b) = r.run();
        assert_eq!(a, b, "same work every run");
        assert!(s > 0.0);
    }
}
