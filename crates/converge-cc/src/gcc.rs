//! GCC as a [`CongestionController`]: the delay-based pipeline
//! (inter-arrival filter → trendline estimator → AIMD) combined with the
//! loss-based controller, target = min of the two. The estimator parts
//! live in `converge-gcc`; this is the per-path composition.

use converge_gcc::{
    AimdController, BandwidthUsage, InterArrival, LossBasedController, PacketTiming,
    TrendlineEstimator,
};
use converge_net::{SimDuration, SimTime};
use converge_trace::CcPhase;

use crate::controller::{CongestionController, PathObservations, RateWindow};

/// Starting estimate, bps.
const INITIAL_RATE_BPS: f64 = 1_000_000.0;
/// Window over which the incoming rate is measured.
const RATE_WINDOW: SimDuration = SimDuration::from_millis(1_000);

/// Per-path Google Congestion Control.
#[derive(Debug)]
pub struct GccController {
    arrival: InterArrival,
    trendline: TrendlineEstimator,
    aimd: AimdController,
    loss: LossBasedController,
    incoming: RateWindow,
}

impl Default for GccController {
    fn default() -> Self {
        GccController {
            arrival: InterArrival::new(),
            trendline: TrendlineEstimator::default(),
            aimd: AimdController::new(INITIAL_RATE_BPS),
            loss: LossBasedController::new(INITIAL_RATE_BPS),
            incoming: RateWindow::new(RATE_WINDOW),
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
