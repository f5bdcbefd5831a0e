//! # converge-gcc
//!
//! A from-scratch implementation of Google Congestion Control (GCC), the
//! rate controller WebRTC uses, following the published design (Carlucci
//! et al., "Analysis and Design of the Google Congestion Control for Web
//! Real-Time Communication", MMSys 2016):
//!
//! - [`arrival`]: inter-arrival filter grouping packets and emitting
//!   one-way delay-variation samples.
//! - [`trendline`]: trendline estimator + adaptive-threshold overuse
//!   detector (underuse / normal / overuse).
//! - [`aimd`]: the Hold/Increase/Decrease remote-rate AIMD controller.
//! - [`loss_based`]: the loss-report-driven sender-side controller.
//!
//! These are the estimator parts. Converge extends GCC "for every
//! available path" (paper section 4.1): `converge-cc` composes one set of
//! them per path (target = min of the delay- and loss-based estimates)
//! behind the same controller shell that drives NADA and mp-BBR.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aimd;
pub mod arrival;
pub mod loss_based;
pub mod trendline;

pub use aimd::{AimdController, RateState};
pub use arrival::{DelaySample, InterArrival, PacketTiming};
pub use loss_based::LossBasedController;
pub use trendline::{BandwidthUsage, TrendlineEstimator};

use converge_trace::{RATE_CEILING_BPS, RATE_FLOOR_BPS};

/// The floor and ceiling of both estimates: the bounds the invariant
/// checker polices, in the unit the estimators compute in.
const MIN_RATE_BPS: f64 = RATE_FLOOR_BPS as f64;
const MAX_RATE_BPS: f64 = RATE_CEILING_BPS as f64;
