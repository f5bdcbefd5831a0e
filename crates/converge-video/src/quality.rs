//! Rate–distortion quality models: QP and PSNR from achieved bitrate.
//!
//! The paper measures QP (quantization parameter, lower = better) and PSNR
//! (higher = better) with external tooling. We replace the measurement with
//! a standard logarithmic rate–distortion model: image quality improves
//! roughly linearly in the log of bits-per-pixel, saturating at both ends.
//! The constants below are calibrated to VP8-like 720p behaviour so that a
//! 10 Mbps 720p30 stream sits near QP ≈ 10–15 / PSNR ≈ 42 dB and a starved
//! sub-Mbps stream degrades toward QP ≈ 50+ / PSNR ≈ 28 dB — the dynamic
//! range Figures 10, 14, and 15 of the paper span.

use converge_net::SimDuration;

/// Video geometry used by the quality model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VideoFormat {
    /// Luma width in pixels.
    pub width: u32,
    /// Luma height in pixels.
    pub height: u32,
    /// Nominal capture rate, frames per second.
    pub fps: u32,
}

impl VideoFormat {
    /// The 1280×720 @30 format used throughout the paper's evaluation.
    pub const HD720: VideoFormat = VideoFormat {
        width: 1280,
        height: 720,
        fps: 30,
    };

    /// Time between two captured frames.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_micros(1_000_000 / self.fps.max(1) as u64)
    }

    /// Pixels per second of this format.
    pub fn pixel_rate(&self) -> f64 {
        self.width as f64 * self.height as f64 * self.fps as f64
    }

    /// Bits per pixel achieved at `bitrate_bps`.
    pub fn bits_per_pixel(&self, bitrate_bps: f64) -> f64 {
        bitrate_bps / self.pixel_rate()
    }
}

/// QP range emitted by the model (VP8-style 0..=63).
pub const QP_MIN: u8 = 2;
/// Worst (largest) representable QP; the paper normalizes QoE against 60 as
/// "the lowest video quality".
pub const QP_MAX: u8 = 60;

/// Maps an encoding rate to the quantization parameter the encoder model
/// would pick for it.
///
/// Anchors: 0.36 bpp (10 Mbps 720p30) → QP≈10; 0.036 bpp (1 Mbps) → QP≈35;
/// logarithmic in between, clamped to `[QP_MIN, QP_MAX]`.
pub fn qp_for_bitrate(format: VideoFormat, bitrate_bps: f64) -> u8 {
    if bitrate_bps <= 0.0 {
        return QP_MAX;
    }
    let bpp = format.bits_per_pixel(bitrate_bps);
    // QP drops ~7.5 per doubling of bpp through the anchor points.
    let qp = 10.0 - 7.52 * (bpp / 0.36).log2();
    qp.clamp(QP_MIN as f64, QP_MAX as f64).round() as u8
}

/// Maps an encoding rate to PSNR in dB of the encoded (fully delivered)
/// video.
///
/// Anchors: 10 Mbps 720p30 → ≈42 dB; 1 Mbps → ≈32 dB; ~3 dB per doubling
/// of rate, clamped to a plausible [20, 50] dB envelope.
pub fn psnr_for_bitrate(format: VideoFormat, bitrate_bps: f64) -> f64 {
    if bitrate_bps <= 0.0 {
        return 20.0;
    }
    let bpp = format.bits_per_pixel(bitrate_bps);
    let x = (bpp / 0.36).log2();
    // Asymmetric slope: quality falls ~3 dB per halving below the
    // reference operating point but saturates above it (diminishing
    // returns past ~0.4 bpp, as real encoders show).
    let psnr = if x <= 0.0 {
        42.0 + 3.01 * x
    } else {
        42.0 + 1.2 * x
    };
    psnr.clamp(20.0, 50.0)
}

/// The resolution ladder a conferencing encoder adapts over (16:9 rungs
/// below 720p). Ordered highest first.
pub const RESOLUTION_LADDER: [VideoFormat; 4] = [
    VideoFormat {
        width: 1280,
        height: 720,
        fps: 30,
    },
    VideoFormat {
        width: 960,
        height: 540,
        fps: 30,
    },
    VideoFormat {
        width: 640,
        height: 360,
        fps: 30,
    },
    VideoFormat {
        width: 480,
        height: 270,
        fps: 30,
    },
];

/// Perceived PSNR of video encoded at `encoded` and displayed at 720p:
/// the R–D quality at the encode resolution minus an upscaling penalty of
/// ~3.5 dB per halving of pixel count (detail lost to interpolation).
pub fn display_psnr(encoded: VideoFormat, bitrate_bps: f64) -> f64 {
    let native = psnr_for_bitrate(encoded, bitrate_bps);
    let pixel_ratio = (VideoFormat::HD720.width as f64 * VideoFormat::HD720.height as f64)
        / (encoded.width as f64 * encoded.height as f64);
    let penalty = 3.5 * pixel_ratio.log2().max(0.0);
    (native - penalty).max(20.0)
}

/// Minimum bits-per-pixel below which a resolution rung produces visible
/// blocking and the encoder should downscale (WebRTC's quality scaler
/// switches on QP thresholds that correspond to roughly this operating
/// point).
pub const MIN_BPP: f64 = 0.05;

/// The ladder rung a conferencing encoder picks at `bitrate_bps`: the
/// largest resolution that still gets [`MIN_BPP`] bits per pixel, falling
/// back to the smallest rung when even that is starved.
pub fn best_resolution_for(bitrate_bps: f64) -> VideoFormat {
    RESOLUTION_LADDER
        .into_iter()
        .find(|f| f.bits_per_pixel(bitrate_bps) >= MIN_BPP)
        .unwrap_or(RESOLUTION_LADDER[RESOLUTION_LADDER.len() - 1])
}

/// PSNR of the video *as experienced*, folding in frames that never made it:
/// a dropped or frozen frame repeats the previous image, which for
/// conferencing content costs heavily. We attribute `frozen_fraction` of
/// display time a floor PSNR of 22 dB (repeated stale frame vs moving
/// ground truth) and blend in the delivered-rate PSNR for the rest.
pub fn effective_psnr(format: VideoFormat, bitrate_bps: f64, frozen_fraction: f64) -> f64 {
    let clean = psnr_for_bitrate(format, bitrate_bps);
    let frozen = frozen_fraction.clamp(0.0, 1.0);
    clean * (1.0 - frozen) + 22.0 * frozen
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: VideoFormat = VideoFormat::HD720;

    #[test]
    fn qp_anchor_points() {
        let qp_10m = qp_for_bitrate(F, 10_000_000.0);
        let qp_1m = qp_for_bitrate(F, 1_000_000.0);
        assert!((8..=12).contains(&qp_10m), "10 Mbps → QP {qp_10m}");
        assert!((33..=38).contains(&qp_1m), "1 Mbps → QP {qp_1m}");
    }

    #[test]
    fn qp_monotone_decreasing_in_rate() {
        let rates = [200_000.0, 500_000.0, 1e6, 3e6, 5e6, 10e6, 20e6];
        let qps: Vec<u8> = rates.iter().map(|&r| qp_for_bitrate(F, r)).collect();
        for w in qps.windows(2) {
            assert!(w[0] >= w[1], "QP must not rise with rate: {qps:?}");
        }
    }

    #[test]
    fn qp_clamped_at_extremes() {
        assert_eq!(qp_for_bitrate(F, 0.0), QP_MAX);
        assert_eq!(qp_for_bitrate(F, 1e3), QP_MAX);
        assert_eq!(qp_for_bitrate(F, 1e12), QP_MIN);
    }

    #[test]
    fn psnr_anchor_points() {
        let p10 = psnr_for_bitrate(F, 10_000_000.0);
        let p1 = psnr_for_bitrate(F, 1_000_000.0);
        assert!((41.0..43.0).contains(&p10), "10 Mbps → {p10}");
        assert!((31.0..33.0).contains(&p1), "1 Mbps → {p1}");
    }

    #[test]
    fn psnr_monotone_increasing_in_rate() {
        let rates = [100_000.0, 1e6, 5e6, 10e6, 40e6];
        let ps: Vec<f64> = rates.iter().map(|&r| psnr_for_bitrate(F, r)).collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "{ps:?}");
        }
    }

    #[test]
    fn psnr_clamped() {
        assert_eq!(psnr_for_bitrate(F, 0.0), 20.0);
        assert_eq!(psnr_for_bitrate(F, 1e15), 50.0);
    }

    #[test]
    fn effective_psnr_penalizes_freezes() {
        let clean = effective_psnr(F, 10e6, 0.0);
        let half_frozen = effective_psnr(F, 10e6, 0.5);
        let all_frozen = effective_psnr(F, 10e6, 1.0);
        assert!(clean > half_frozen && half_frozen > all_frozen);
        assert!((all_frozen - 22.0).abs() < 1e-9);
    }

    #[test]
    fn effective_psnr_clamps_fraction() {
        assert_eq!(effective_psnr(F, 10e6, -1.0), effective_psnr(F, 10e6, 0.0));
        assert_eq!(effective_psnr(F, 10e6, 2.0), effective_psnr(F, 10e6, 1.0));
    }

    #[test]
    fn high_rate_prefers_full_resolution() {
        assert_eq!(best_resolution_for(10e6).height, 720);
        assert_eq!(best_resolution_for(4e6).height, 720);
    }

    #[test]
    fn starved_rate_prefers_downscaling() {
        let r = best_resolution_for(400_000.0);
        assert!(
            r.height < 720,
            "400 kbps should downscale, got {}p",
            r.height
        );
        let r2 = best_resolution_for(150_000.0);
        assert!(
            r2.height <= r.height,
            "lower rate must not pick a bigger frame"
        );
    }

    #[test]
    fn display_psnr_penalizes_upscaling_at_high_rates() {
        // With ample bits, native 720p beats upscaled 360p.
        let hd = display_psnr(RESOLUTION_LADDER[0], 8e6);
        let sd = display_psnr(RESOLUTION_LADDER[2], 8e6);
        assert!(hd > sd, "{hd} vs {sd}");
    }

    #[test]
    fn ladder_monotone_in_rate() {
        let mut last = u32::MAX;
        for rate in [15e6, 5e6, 2e6, 1e6, 0.5e6, 0.2e6, 0.05e6] {
            let h = best_resolution_for(rate).height;
            assert!(h <= last, "resolution must not grow as rate falls");
            last = h;
        }
    }

    #[test]
    fn format_helpers() {
        assert_eq!(F.pixel_rate(), 1280.0 * 720.0 * 30.0);
        let bpp = F.bits_per_pixel(10_000_000.0);
        assert!((bpp - 0.3617).abs() < 0.001, "{bpp}");
    }
}
