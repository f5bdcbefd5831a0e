//! Packet loss models for emulated links.
//!
//! Two models cover the evaluation's needs: independent (Bernoulli) loss for
//! the controlled FEC sweeps (§6.2 of the paper uses fixed 0–10 % loss), and
//! a two-state Gilbert–Elliott model for bursty cellular-like loss in the
//! mobility scenarios.

use rand::rngs::SmallRng;
use rand::Rng;

/// A stochastic packet-loss process.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LossModel {
    /// No loss.
    None,
    /// Each packet is lost independently with probability `p` (0..=1).
    Bernoulli {
        /// Per-packet loss probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss model.
    ///
    /// The chain moves good→bad with `p_gb` and bad→good with `p_bg` per
    /// packet; packets drop with `loss_good` / `loss_bad` in the respective
    /// states.
    GilbertElliott {
        /// Transition probability good → bad, per packet.
        p_gb: f64,
        /// Transition probability bad → good, per packet.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Convenience constructor: independent loss at `percent` (e.g. `5.0` for
    /// 5 %). Values are clamped to `[0, 100]`.
    pub fn bernoulli_percent(percent: f64) -> Self {
        LossModel::Bernoulli {
            p: (percent / 100.0).clamp(0.0, 1.0),
        }
    }

    /// A bursty model tuned so the long-run average loss is roughly
    /// `percent`, with bursts a few packets long — a reasonable stand-in for
    /// cellular handover loss.
    pub fn bursty_percent(percent: f64) -> Self {
        let avg = (percent / 100.0).clamp(0.0, 1.0);
        // Bad state drops half its packets; dwell ~8 packets in bad state.
        let loss_bad = 0.5;
        let p_bg = 1.0 / 8.0;
        // Stationary fraction of time in bad state needed for target average:
        // avg = pi_bad * loss_bad  =>  pi_bad = avg / loss_bad
        let pi_bad = (avg / loss_bad).min(0.9);
        // pi_bad = p_gb / (p_gb + p_bg)  =>  p_gb = pi_bad * p_bg / (1 - pi_bad)
        let p_gb = pi_bad * p_bg / (1.0 - pi_bad);
        LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// Long-run expected loss fraction of the model.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if p_gb + p_bg == 0.0 {
                    loss_good
                } else {
                    let pi_bad = p_gb / (p_gb + p_bg);
                    (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
                }
            }
        }
    }
}

/// The running state of a loss process bound to one link direction.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    in_bad_state: bool,
}

impl LossProcess {
    /// Creates a process in the good state.
    pub fn new(model: LossModel) -> Self {
        LossProcess {
            model,
            in_bad_state: false,
        }
    }

    /// The model this process draws from.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Draws the fate of one packet: `true` means the packet is lost.
    pub fn should_drop(&mut self, rng: &mut SmallRng) -> bool {
        match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then sample loss in the new state.
                if self.in_bad_state {
                    if rng.gen_bool(p_bg.clamp(0.0, 1.0)) {
                        self.in_bad_state = false;
                    }
                } else if p_gb > 0.0 && rng.gen_bool(p_gb.clamp(0.0, 1.0)) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn measure(model: LossModel, n: usize) -> f64 {
        let mut p = LossProcess::new(model);
        let mut r = rng();
        let lost = (0..n).filter(|_| p.should_drop(&mut r)).count();
        lost as f64 / n as f64
    }

    #[test]
    fn none_never_drops() {
        assert_eq!(measure(LossModel::None, 10_000), 0.0);
    }

    #[test]
    fn bernoulli_matches_rate() {
        let rate = measure(LossModel::bernoulli_percent(5.0), 200_000);
        assert!((rate - 0.05).abs() < 0.005, "measured {rate}");
    }

    #[test]
    fn bernoulli_zero_and_full() {
        assert_eq!(measure(LossModel::bernoulli_percent(0.0), 1_000), 0.0);
        assert_eq!(measure(LossModel::bernoulli_percent(100.0), 1_000), 1.0);
    }

    #[test]
    fn bursty_long_run_average_close_to_target() {
        let rate = measure(LossModel::bursty_percent(5.0), 400_000);
        assert!((rate - 0.05).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn bursty_produces_bursts() {
        // Consecutive losses should appear far more often than under
        // independent loss at the same average rate.
        let mut p = LossProcess::new(LossModel::bursty_percent(5.0));
        let mut r = rng();
        let draws: Vec<bool> = (0..200_000).map(|_| p.should_drop(&mut r)).collect();
        let pairs = draws.windows(2).filter(|w| w[0] && w[1]).count();
        let losses = draws.iter().filter(|&&l| l).count().max(1);
        let p_loss_after_loss = pairs as f64 / losses as f64;
        assert!(
            p_loss_after_loss > 0.2,
            "burstiness too low: {p_loss_after_loss}"
        );
    }

    #[test]
    fn mean_loss_formula() {
        assert_eq!(LossModel::None.mean_loss(), 0.0);
        assert!((LossModel::bernoulli_percent(7.0).mean_loss() - 0.07).abs() < 1e-12);
        let m = LossModel::bursty_percent(4.0);
        assert!((m.mean_loss() - 0.04).abs() < 1e-9, "{}", m.mean_loss());
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<bool> = {
            let mut p = LossProcess::new(LossModel::bernoulli_percent(10.0));
            let mut r = SmallRng::seed_from_u64(7);
            (0..1000).map(|_| p.should_drop(&mut r)).collect()
        };
        let b: Vec<bool> = {
            let mut p = LossProcess::new(LossModel::bernoulli_percent(10.0));
            let mut r = SmallRng::seed_from_u64(7);
            (0..1000).map(|_| p.should_drop(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
