//! Encoder model: turns a target bitrate into a stream of keyframes and
//! delta frames with realistic sizes.
//!
//! The real system encodes camera frames with VP8/H.264 at the rate the
//! congestion controller dictates (§2.1). The scheduler only consumes the
//! *structure* of the output — frame types, sizes, GOP boundaries — so the
//! model generates exactly that: a GOP-structured stream where keyframes
//! are several times larger than delta frames, per-frame sizes jitter with
//! scene activity, and the QP tracks the rate via the R–D model in
//! [`crate::quality`].

use converge_net::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::quality::{best_resolution_for, qp_for_bitrate, VideoFormat};
use crate::types::{EncodedFrame, FrameType, StreamId};

/// The format every camera captures in (the paper's evaluation setup,
/// 1280×720 at 30 fps). The receiver's frame rate, the metrics and the
/// scheduler's batch interval are derived from it.
pub const CAPTURE_FORMAT: VideoFormat = VideoFormat::HD720;
/// Maximum encoding rate the paper's calls allow a stream, bps.
pub const PAPER_MAX_BITRATE_BPS: u64 = 10_000_000;
/// Minimum rate the encoder can produce sensible video at, bps.
pub const MIN_BITRATE_BPS: u64 = 150_000;
/// Frames between keyframes (GOP length). WebRTC conferencing sends
/// keyframes mostly on request (PLI) plus a slow periodic refresh; a
/// ~10.6 s refresh keeps keyframe bursts rare, as in the real system.
const GOP_LENGTH: u32 = 317;
/// Keyframe size as a multiple of the average frame size.
const KEYFRAME_RATIO: f64 = 4.0;
/// Mean seconds between scene changes. A scene change makes delta frames
/// momentarily large — the bursts that stress schedulers in real
/// conference content.
const SCENE_CHANGE_MEAN_SECS: f64 = 12.0;
/// Seed of stream 0's per-frame size jitter; stream `s` uses this plus `s`.
const JITTER_SEED: u64 = 0xC0DEC;

/// What differs between two camera streams' encoders. Everything else is
/// the consts above; the encoder always downscales when the target rate is
/// too low for the capture format (WebRTC's quality scaler; the paper
/// notes Converge "adjusting the video resolution to match the lower
/// throughput").
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Stream identity; it also picks the stream's jitter seed.
    pub stream: StreamId,
    /// Maximum encoding rate the application allows.
    pub max_bitrate_bps: u64,
}

impl EncoderConfig {
    /// The paper's evaluation setup: a 10 Mbps cap.
    pub fn paper_default(stream: StreamId) -> Self {
        EncoderConfig {
            stream,
            max_bitrate_bps: PAPER_MAX_BITRATE_BPS,
        }
    }
}

/// The encoder model for one stream.
#[derive(Debug)]
pub struct VideoEncoder {
    config: EncoderConfig,
    rng: SmallRng,
    next_frame_id: u64,
    gop_id: u64,
    frames_into_gop: u32,
    force_keyframe: bool,
    target_bitrate_bps: u64,
    /// Current encode resolution (ladder rung).
    current_format: VideoFormat,
    /// Frames the candidate rung has been stable, for switch hysteresis.
    rung_stable_frames: u32,
    /// Frames left in the current scene-change burst.
    scene_burst_frames: u32,
}

impl VideoEncoder {
    /// Creates an encoder; the first frame is always a keyframe.
    pub fn new(config: EncoderConfig) -> Self {
        let seed = JITTER_SEED + config.stream.0 as u64;
        let target = config.max_bitrate_bps;
        VideoEncoder {
            config,
            rng: SmallRng::seed_from_u64(seed),
            next_frame_id: 0,
            gop_id: 0,
            frames_into_gop: 0,
            force_keyframe: true,
            target_bitrate_bps: target,
            current_format: CAPTURE_FORMAT,
            rung_stable_frames: 0,
            scene_burst_frames: 0,
        }
    }

    /// Encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Sets the encoding rate (from the congestion controller), clamped to
    /// the configured range.
    pub fn set_target_bitrate(&mut self, bps: u64) {
        self.target_bitrate_bps = bps.clamp(MIN_BITRATE_BPS, self.config.max_bitrate_bps);
    }

    /// The rate the encoder is currently encoding at.
    pub fn target_bitrate(&self) -> u64 {
        self.target_bitrate_bps
    }

    /// Requests the next frame to be a keyframe (reaction to a PLI).
    pub fn request_keyframe(&mut self) {
        self.force_keyframe = true;
    }

    /// Interval between captured frames.
    pub fn frame_interval(&self) -> SimDuration {
        CAPTURE_FORMAT.frame_interval()
    }

    /// The resolution currently being encoded.
    pub fn current_format(&self) -> VideoFormat {
        self.current_format
    }

    /// Adapts the resolution rung toward what the target rate supports,
    /// with 30-frame (~1 s) hysteresis so rate flutter does not thrash the
    /// encoder. A switch forces a keyframe, as real encoders must.
    fn adapt_resolution(&mut self) {
        let mut want = best_resolution_for(self.target_bitrate_bps as f64);
        // Never exceed the capture format.
        if want.height > CAPTURE_FORMAT.height {
            want = CAPTURE_FORMAT;
        }
        if want.height == self.current_format.height {
            self.rung_stable_frames = 0;
            return;
        }
        self.rung_stable_frames += 1;
        // Downswitches react faster (quality is visibly broken) than
        // upswitches (must be sure the rate will hold).
        let needed = if want.height < self.current_format.height {
            15
        } else {
            45
        };
        if self.rung_stable_frames >= needed {
            self.current_format = VideoFormat {
                width: want.width,
                height: want.height,
                fps: CAPTURE_FORMAT.fps,
            };
            self.rung_stable_frames = 0;
            self.force_keyframe = true;
        }
    }

    /// Encodes the frame captured at `now`.
    pub fn encode(&mut self, now: SimTime) -> EncodedFrame {
        self.adapt_resolution();
        // Scene changes arrive as a Bernoulli-per-frame process with the
        // mean spacing above; each spikes the next few delta frames (the
        // encoder cannot predict across the cut).
        let p = 1.0 / (SCENE_CHANGE_MEAN_SECS * CAPTURE_FORMAT.fps as f64);
        if self.rng.gen_bool(p.clamp(0.0, 0.5)) {
            self.scene_burst_frames = 6;
        }
        let is_key = self.force_keyframe || self.frames_into_gop >= GOP_LENGTH;
        if is_key {
            self.force_keyframe = false;
            self.frames_into_gop = 0;
            if self.next_frame_id > 0 {
                self.gop_id += 1;
            }
        }
        self.frames_into_gop += 1;

        let size = self.frame_size(is_key);
        let qp = qp_for_bitrate(self.current_format, self.target_bitrate_bps as f64);
        let frame = EncodedFrame {
            stream: self.config.stream,
            frame_id: self.next_frame_id,
            gop_id: self.gop_id,
            frame_type: if is_key {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            size,
            qp,
            height: self.current_format.height,
            capture_time: now,
        };
        self.next_frame_id += 1;
        frame
    }

    /// Size for one frame: the per-frame bit budget at the current target
    /// rate, redistributed so keyframes take `KEYFRAME_RATIO`× the delta
    /// share, plus ±20 % scene-activity jitter.
    fn frame_size(&mut self, is_key: bool) -> usize {
        let fps = CAPTURE_FORMAT.fps as f64;
        let gop = GOP_LENGTH as f64;
        let avg_bytes = self.target_bitrate_bps as f64 / 8.0 / fps;
        // One key + (gop-1) deltas must average to avg:
        //   ratio*d + (gop-1)*d = gop*avg  =>  d = gop*avg / (ratio + gop - 1)
        let delta_bytes = gop * avg_bytes / (KEYFRAME_RATIO + gop - 1.0);
        let base = if is_key {
            delta_bytes * KEYFRAME_RATIO
        } else {
            delta_bytes
        };
        let jitter = self.rng.gen_range(0.8..1.2);
        let burst = if !is_key && self.scene_burst_frames > 0 {
            self.scene_burst_frames -= 1;
            2.0
        } else {
            1.0
        };
        (base * jitter * burst).max(64.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> VideoEncoder {
        VideoEncoder::new(EncoderConfig::paper_default(StreamId(0)))
    }

    fn encode_n(enc: &mut VideoEncoder, n: usize) -> Vec<EncodedFrame> {
        (0..n)
            .map(|i| enc.encode(SimTime::from_micros(i as u64 * 33_333)))
            .collect()
    }

    #[test]
    fn first_frame_is_keyframe() {
        let mut e = encoder();
        let f = e.encode(SimTime::ZERO);
        assert_eq!(f.frame_type, FrameType::Key);
        assert_eq!(f.frame_id, 0);
        assert_eq!(f.gop_id, 0);
    }

    #[test]
    fn keyframes_appear_every_gop() {
        let mut e = encoder();
        let gop = GOP_LENGTH as u64;
        let frames = encode_n(&mut e, (gop * 3 + 1) as usize);
        let key_ids: Vec<u64> = frames
            .iter()
            .filter(|f| f.frame_type == FrameType::Key)
            .map(|f| f.frame_id)
            .collect();
        assert_eq!(key_ids, vec![0, gop, gop * 2, gop * 3]);
    }

    #[test]
    fn gop_id_increments_at_keyframes() {
        let mut e = encoder();
        let gop = GOP_LENGTH as usize;
        let frames = encode_n(&mut e, gop * 2 + 1);
        assert_eq!(frames[0].gop_id, 0);
        assert_eq!(frames[gop - 1].gop_id, 0);
        assert_eq!(frames[gop].gop_id, 1);
        assert_eq!(frames[gop * 2].gop_id, 2);
    }

    #[test]
    fn keyframes_are_larger() {
        let mut e = encoder();
        let gop = GOP_LENGTH as usize;
        let frames = encode_n(&mut e, gop * 2);
        let keys: Vec<f64> = frames
            .iter()
            .filter(|f| f.frame_type == FrameType::Key)
            .map(|f| f.size as f64)
            .collect();
        let deltas: Vec<f64> = frames
            .iter()
            .filter(|f| f.frame_type == FrameType::Delta)
            .map(|f| f.size as f64)
            .collect();
        let key_avg = keys.iter().sum::<f64>() / keys.len() as f64;
        let delta_avg = deltas.iter().sum::<f64>() / deltas.len() as f64;
        assert!(
            key_avg > delta_avg * 2.5,
            "key {key_avg:.0} vs delta {delta_avg:.0}"
        );
    }

    #[test]
    fn long_run_rate_matches_target() {
        let mut e = encoder();
        e.set_target_bitrate(5_000_000);
        let frames = encode_n(&mut e, 900); // 30 s
        let total_bytes: usize = frames.iter().map(|f| f.size).sum();
        let rate = total_bytes as f64 * 8.0 / 30.0;
        assert!(
            (rate - 5_000_000.0).abs() / 5_000_000.0 < 0.1,
            "achieved {rate:.0}"
        );
    }

    #[test]
    fn rate_clamped_to_config() {
        let mut e = encoder();
        e.set_target_bitrate(100);
        assert_eq!(e.target_bitrate(), MIN_BITRATE_BPS);
        e.set_target_bitrate(u64::MAX);
        assert_eq!(e.target_bitrate(), e.config().max_bitrate_bps);
    }

    #[test]
    fn keyframe_request_honoured_once() {
        let mut e = encoder();
        encode_n(&mut e, 5);
        e.request_keyframe();
        let f = e.encode(SimTime::from_secs(1));
        assert_eq!(f.frame_type, FrameType::Key);
        let f2 = e.encode(SimTime::from_secs(1));
        assert_eq!(f2.frame_type, FrameType::Delta);
    }

    #[test]
    fn keyframe_request_starts_new_gop() {
        let mut e = encoder();
        let before = encode_n(&mut e, 5).last().unwrap().gop_id;
        e.request_keyframe();
        let f = e.encode(SimTime::from_secs(1));
        assert_eq!(f.gop_id, before + 1);
    }

    #[test]
    fn qp_follows_rate() {
        let mut e = encoder();
        e.set_target_bitrate(10_000_000);
        let qp_high_rate = e.encode(SimTime::ZERO).qp;
        e.set_target_bitrate(500_000);
        let qp_low_rate = e.encode(SimTime::ZERO).qp;
        assert!(qp_low_rate > qp_high_rate);
    }

    #[test]
    fn frame_interval_matches_fps() {
        let e = encoder();
        assert_eq!(e.frame_interval().as_micros(), 33_333);
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<usize> = encode_n(&mut encoder(), 100)
            .iter()
            .map(|f| f.size)
            .collect();
        let b: Vec<usize> = encode_n(&mut encoder(), 100)
            .iter()
            .map(|f| f.size)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn scene_changes_spike_delta_sizes() {
        let mut e = encoder();
        let frames = encode_n(&mut e, 3_600); // 120 s, ten scene changes on average
        let deltas: Vec<usize> = frames
            .iter()
            .filter(|f| f.frame_type == FrameType::Delta)
            .map(|f| f.size)
            .collect();
        let mean = deltas.iter().sum::<usize>() as f64 / deltas.len() as f64;
        let spikes = deltas.iter().filter(|&&s| s as f64 > mean * 1.5).count();
        assert!(spikes > 10, "expected scene-change spikes, saw {spikes}");
    }

    #[test]
    fn resolution_downscales_when_starved() {
        let mut e = encoder();
        e.set_target_bitrate(400_000);
        // Hysteresis: ~15 frames to switch down.
        let frames = encode_n(&mut e, 60);
        assert_eq!(frames[0].height, 720, "starts at capture format");
        let last = frames.last().unwrap();
        assert!(last.height < 720, "should downscale, got {}p", last.height);
        // The switch frame is a keyframe.
        let switch = frames.windows(2).find(|w| w[0].height != w[1].height);
        let switch = switch.expect("a switch happened");
        assert_eq!(switch[1].frame_type, FrameType::Key);
    }

    #[test]
    fn resolution_recovers_when_rate_returns() {
        let mut e = encoder();
        e.set_target_bitrate(400_000);
        encode_n(&mut e, 60);
        assert!(e.current_format().height < 720);
        e.set_target_bitrate(8_000_000);
        encode_n(&mut e, 90); // upswitch hysteresis is slower (45 frames)
        assert_eq!(e.current_format().height, 720);
    }

    #[test]
    fn downscaled_qp_better_than_starved_hd() {
        use crate::quality::qp_for_bitrate;
        let starved_hd = qp_for_bitrate(VideoFormat::HD720, 400_000.0);
        let mut e = encoder();
        e.set_target_bitrate(400_000);
        let last = encode_n(&mut e, 60).pop().unwrap();
        assert!(
            last.qp < starved_hd,
            "adapted QP {} should beat starved-720p QP {starved_hd}",
            last.qp
        );
    }

    #[test]
    fn frame_ids_monotone() {
        let mut e = encoder();
        let frames = encode_n(&mut e, 50);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.frame_id, i as u64);
        }
    }
}
