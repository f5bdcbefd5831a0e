//! GCC as a [`CongestionController`]: the delay-based pipeline
//! (inter-arrival filter → trendline estimator → AIMD) combined with the
//! loss-based controller, target = min of the two. The estimator parts
//! live in `converge-gcc`; this is the per-path composition.

use converge_gcc::{
    AimdConfig, AimdController, BandwidthUsage, InterArrival, LossBasedConfig, LossBasedController,
    PacketTiming, TrendlineConfig, TrendlineEstimator,
};
use converge_net::{SimDuration, SimTime};
use converge_trace::CcPhase;

use crate::controller::{CongestionController, PathObservations, RateWindow};

/// Configuration of one per-path GCC instance.
#[derive(Debug, Clone, Copy)]
pub struct GccConfig {
    /// Starting estimate, bps.
    pub initial_rate_bps: f64,
    /// Trendline/overuse detector settings.
    pub trendline: TrendlineConfig,
    /// AIMD settings.
    pub aimd: AimdConfig,
    /// Loss-based settings.
    pub loss: LossBasedConfig,
    /// Window over which the incoming rate is measured.
    pub rate_window: SimDuration,
}

impl Default for GccConfig {
    fn default() -> Self {
        GccConfig {
            initial_rate_bps: 1_000_000.0,
            trendline: TrendlineConfig::default(),
            aimd: AimdConfig::default(),
            loss: LossBasedConfig::default(),
            rate_window: SimDuration::from_millis(1_000),
        }
    }
}

/// Per-path Google Congestion Control.
#[derive(Debug)]
pub struct GccController {
    arrival: InterArrival,
    trendline: TrendlineEstimator,
    aimd: AimdController,
    loss: LossBasedController,
    incoming: RateWindow,
}

impl GccController {
    /// Creates a controller.
    pub fn new(config: GccConfig) -> Self {
        GccController {
            arrival: InterArrival::new(),
            trendline: TrendlineEstimator::new(config.trendline),
            aimd: AimdController::new(config.aimd, config.initial_rate_bps),
            loss: LossBasedController::new(config.loss, config.initial_rate_bps),
            incoming: RateWindow::new(config.rate_window),
        }
    }
}

impl CongestionController for GccController {
    fn on_transport_feedback(
        &mut self,
        now: SimTime,
        packets: &[PacketTiming],
        path: &PathObservations,
    ) -> bool {
        for p in packets {
            if let Some(sample) = self.arrival.on_packet(*p) {
                self.trendline.on_sample(sample);
            }
        }
        let incoming = self.incoming.measure(now, packets);
        self.aimd.set_increase_scale(path.increase_scale);
        let delay_estimate = self
            .aimd
            .update(now, self.trendline.state(), incoming, path.rtt_ms);
        // Keep the loss-based side from floating far above the delay side.
        self.loss.cap_to(delay_estimate * 2.0);
        true
    }

    fn on_loss(&mut self, effective_loss: f64) {
        self.loss.on_loss_report(effective_loss);
    }

    fn cap_estimate(&mut self, bps: f64) {
        self.aimd.cap_to(bps);
        self.loss.cap_to(bps);
    }

    /// The minimum of the delay-based and loss-based estimates (the GCC
    /// combination rule).
    fn target_rate_bps(&self) -> u64 {
        self.aimd.estimate_bps().min(self.loss.estimate_bps()) as u64
    }

    fn estimate_bps(&self) -> f64 {
        self.aimd.estimate_bps()
    }

    fn phase(&self) -> CcPhase {
        match self.trendline.state() {
            BandwidthUsage::Underusing => CcPhase::Underuse,
            BandwidthUsage::Normal => CcPhase::Normal,
            BandwidthUsage::Overusing => CcPhase::Overuse,
        }
    }
}
