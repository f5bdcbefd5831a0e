//! QoE metrics collection: everything the paper's evaluation reports.

use std::collections::BTreeMap;

use converge_net::{PathId, SimDuration, SimTime};
use converge_video::{effective_psnr, qp_for_bitrate, StreamId, VideoFormat};

use crate::leb128;

/// Decode gap beyond which the video is considered frozen.
const FREEZE_THRESHOLD: SimDuration = SimDuration::from_millis(200);

/// Per-second time-series bin for the figure-style plots (Figs. 9/11/16).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct SecondBin {
    /// Media payload bits delivered this second.
    pub media_bits: u64,
    /// Frames decoded this second.
    pub frames_decoded: u32,
    /// Sum and count of per-frame E2E latencies (for the mean).
    pub e2e_sum_us: u64,
    /// Number of E2E samples.
    pub e2e_count: u32,
    /// Sum of interframe delays observed.
    pub ifd_sum_us: u64,
    /// Number of IFD samples.
    pub ifd_count: u32,
    /// Sum of frame construction delays observed.
    pub fcd_sum_us: u64,
    /// Number of FCD samples.
    pub fcd_count: u32,
    /// Frames dropped this second.
    pub frames_dropped: u32,
    /// Sum of encoded frame heights this second (resolution telemetry).
    pub height_sum: u64,
    /// Number of encoded frames this second.
    pub encoded_count: u32,
}

impl SecondBin {
    /// The bin's 11 fields in declaration order, widened: what
    /// [`SecondBins`] stores.
    fn fields(&self) -> [u64; 11] {
        [
            self.media_bits,
            u64::from(self.frames_decoded),
            self.e2e_sum_us,
            u64::from(self.e2e_count),
            self.ifd_sum_us,
            u64::from(self.ifd_count),
            self.fcd_sum_us,
            u64::from(self.fcd_count),
            u64::from(self.frames_dropped),
            self.height_sum,
            u64::from(self.encoded_count),
        ]
    }

    /// The bin whose [`SecondBin::fields`] are `f`. Every narrowed field
    /// was a `u32` when it was written, so the casts are exact.
    fn from_fields(f: [u64; 11]) -> Self {
        SecondBin {
            media_bits: f[0],
            frames_decoded: f[1] as u32,
            e2e_sum_us: f[2],
            e2e_count: f[3] as u32,
            ifd_sum_us: f[4],
            ifd_count: f[5] as u32,
            fcd_sum_us: f[6],
            fcd_count: f[7] as u32,
            frames_dropped: f[8] as u32,
            height_sum: f[9],
            encoded_count: f[10] as u32,
        }
    }

    /// Delivered media throughput this second, bits per second.
    pub fn throughput_bps(&self) -> f64 {
        self.media_bits as f64
    }

    /// Mean E2E latency this second, milliseconds (None if no frames).
    pub fn e2e_ms(&self) -> Option<f64> {
        (self.e2e_count > 0).then(|| self.e2e_sum_us as f64 / self.e2e_count as f64 / 1_000.0)
    }

    /// Mean IFD this second, milliseconds.
    pub fn ifd_ms(&self) -> Option<f64> {
        (self.ifd_count > 0).then(|| self.ifd_sum_us as f64 / self.ifd_count as f64 / 1_000.0)
    }

    /// Mean FCD this second, milliseconds.
    pub fn fcd_ms(&self) -> Option<f64> {
        (self.fcd_count > 0).then(|| self.fcd_sum_us as f64 / self.fcd_count as f64 / 1_000.0)
    }

    /// Mean encoded height this second (720 = full resolution).
    pub fn encoded_height(&self) -> Option<f64> {
        (self.encoded_count > 0).then(|| self.height_sum as f64 / self.encoded_count as f64)
    }
}

/// Per-path counters.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct PathCounters {
    /// RTP packets sent on the path.
    pub packets_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// RTP packets that arrived.
    pub packets_received: u64,
    /// Packets lost in the network.
    pub packets_lost: u64,
}

/// One path's running account: its counters plus its bytes-sent-per-second
/// series. The series stays empty (and out of the report) until the path
/// first sends a non-empty packet.
#[derive(Debug, Default)]
struct PathAccount {
    counters: PathCounters,
    series: Vec<u64>,
}

/// The collector the simulation feeds while running.
#[derive(Debug)]
pub struct MetricsCollector {
    duration: SimDuration,
    format: VideoFormat,
    max_encoding_rate_bps: u64,
    streams: u8,

    bins: Vec<SecondBin>,
    /// Per-path accounts, indexed by path id. Every packet event lands
    /// here as an index plus integer adds; the report's maps are built
    /// once, in [`MetricsCollector::finish`].
    paths: Vec<PathAccount>,

    frames_encoded: u64,
    height_sum: u64,
    frames_decoded: u64,
    frames_dropped: u64,
    keyframe_requests: u64,
    nacks_sent: u64,
    retransmissions: u64,

    media_packets_sent: u64,
    fec_packets_sent: u64,
    fec_packets_received: u64,
    fec_packets_used: u64,

    /// Per-frame E2E latencies, whole µs, in decode order.
    e2e_us: Vec<u32>,
    qp_sum: u64,
    qp_count: u64,

    /// Last decode instant per stream, indexed by stream id, for freeze
    /// detection.
    last_decode: Vec<Option<SimTime>>,
    freeze_total: SimDuration,
    freeze_events: u64,
    /// Per-second decoded frame counts for min-FPS style stats.
    expected_frame_interval: SimDuration,
}

impl MetricsCollector {
    /// Creates a collector for a call of `duration` with `streams` cameras.
    pub fn new(
        duration: SimDuration,
        format: VideoFormat,
        max_encoding_rate_bps: u64,
        streams: u8,
    ) -> Self {
        let secs = (duration.as_secs_f64().ceil() as usize).max(1);
        MetricsCollector {
            duration,
            format,
            max_encoding_rate_bps,
            streams,
            bins: vec![SecondBin::default(); secs],
            paths: Vec::new(),
            frames_encoded: 0,
            height_sum: 0,
            frames_decoded: 0,
            frames_dropped: 0,
            keyframe_requests: 0,
            nacks_sent: 0,
            retransmissions: 0,
            media_packets_sent: 0,
            fec_packets_sent: 0,
            fec_packets_received: 0,
            fec_packets_used: 0,
            e2e_us: Vec::new(),
            qp_sum: 0,
            qp_count: 0,
            last_decode: vec![None; usize::from(streams)],
            freeze_total: SimDuration::ZERO,
            freeze_events: 0,
            expected_frame_interval: format.frame_interval(),
        }
    }

    /// Index of the per-second bin `at` falls in; instants past the end of
    /// the call land in the last bin. Whole-second integer division, exact
    /// at second boundaries by construction; it equals truncating
    /// `as_secs_f64()` wherever the float is exact (below 2^53 µs), and
    /// beyond that both clamp to the last bin.
    fn second(&self, at: SimTime) -> usize {
        let sec = at.as_micros() / 1_000_000;
        usize::try_from(sec)
            .unwrap_or(usize::MAX)
            .min(self.bins.len().saturating_sub(1))
    }

    fn bin_mut(&mut self, at: SimTime) -> &mut SecondBin {
        let idx = self.second(at);
        &mut self.bins[idx]
    }

    /// The account for `path`. The collector is not told the path list, so
    /// the table grows to the highest id it is handed; every caller bumps
    /// a counter of the account it gets.
    fn path_mut(&mut self, path: PathId) -> &mut PathAccount {
        let idx = path.index();
        if idx >= self.paths.len() {
            self.paths.resize_with(idx + 1, PathAccount::default);
        }
        &mut self.paths[idx]
    }

    /// Records an encoded frame at `at`.
    pub fn on_frame_encoded(&mut self, at: SimTime, qp: u8, height: u32) {
        self.frames_encoded += 1;
        self.height_sum += height as u64;
        self.qp_sum += qp as u64;
        self.qp_count += 1;
        let bin = self.bin_mut(at);
        bin.height_sum += height as u64;
        bin.encoded_count += 1;
    }

    /// Records a packet sent on a path at `at`.
    pub fn on_packet_sent(
        &mut self,
        at: SimTime,
        path: PathId,
        bytes: usize,
        is_fec: bool,
        is_media: bool,
    ) {
        self.fec_packets_sent += u64::from(is_fec);
        self.media_packets_sent += u64::from(is_media);
        let (sec, n_bins) = (self.second(at), self.bins.len());
        let account = self.path_mut(path);
        account.counters.packets_sent += 1;
        account.counters.bytes_sent += bytes as u64;
        if bytes > 0 {
            if account.series.is_empty() {
                account.series = vec![0; n_bins];
            }
            account.series[sec] += bytes as u64;
        }
    }

    /// Records a packet lost in the network.
    pub fn on_packet_lost(&mut self, path: PathId) {
        self.path_mut(path).counters.packets_lost += 1;
    }

    /// Records a packet arrival; `media_payload` is the media bytes counted
    /// toward delivered throughput (0 for FEC/probe/control).
    pub fn on_packet_received(&mut self, at: SimTime, path: PathId, media_payload: usize) {
        self.path_mut(path).counters.packets_received += 1;
        self.bin_mut(at).media_bits += media_payload as u64 * 8;
    }

    // Empty shim (nothing is staged): `benchmark/layers/src/mirror.rs` is its only caller.
    #[doc(hidden)]
    #[inline]
    pub fn flush_tick(&mut self) {}

    /// Records a received FEC packet.
    pub fn on_fec_received(&mut self) {
        self.fec_packets_received += 1;
    }

    /// Records an FEC packet actually used to recover a loss.
    pub fn on_fec_used(&mut self) {
        self.fec_packets_used += 1;
    }

    /// Records a frame decoded at `at` after an end-to-end latency of `e2e`.
    /// Returns the decode gap when this frame ended a freeze (the gap
    /// since the stream's previous decode exceeded the threshold).
    ///
    /// # Panics
    /// Panics if `e2e` is 2^32 µs (71.6 minutes) or more: the report keeps
    /// its samples as 32-bit microseconds ([`E2eSamples`]).
    pub fn on_frame_decoded(
        &mut self,
        stream: StreamId,
        at: SimTime,
        e2e: SimDuration,
    ) -> Option<SimDuration> {
        self.frames_decoded += 1;
        let e2e_us = u32::try_from(e2e.as_micros()).unwrap_or_else(|_| {
            panic!(
                "E2E latency {} µs is past the report's 32-bit microsecond samples (71.6 min)",
                e2e.as_micros()
            )
        });
        self.e2e_us.push(e2e_us);
        {
            let bin = self.bin_mut(at);
            bin.frames_decoded += 1;
            bin.e2e_sum_us += e2e.as_micros();
            bin.e2e_count += 1;
        }
        // Freeze detection: a decode gap beyond the threshold is a stall.
        if let Some(prev) = self.last_decode[usize::from(stream.0)].replace(at) {
            let gap = at.saturating_since(prev);
            if gap > FREEZE_THRESHOLD {
                self.freeze_total += gap - self.expected_frame_interval;
                self.freeze_events += 1;
                return Some(gap);
            }
        }
        None
    }

    /// Records a dropped (never decoded) frame.
    pub fn on_frame_dropped(&mut self, at: SimTime) {
        self.frames_dropped += 1;
        self.bin_mut(at).frames_dropped += 1;
    }

    /// Records a keyframe request (PLI).
    pub fn on_keyframe_request(&mut self) {
        self.keyframe_requests += 1;
    }

    /// Records NACKed sequence numbers.
    pub fn on_nack_sent(&mut self, count: usize) {
        self.nacks_sent += count as u64;
    }

    /// Records a retransmission.
    pub fn on_retransmission(&mut self) {
        self.retransmissions += 1;
    }

    /// Records an IFD observation.
    pub fn on_ifd(&mut self, at: SimTime, ifd: SimDuration) {
        let bin = self.bin_mut(at);
        bin.ifd_sum_us += ifd.as_micros();
        bin.ifd_count += 1;
    }

    /// Records an FCD observation.
    pub fn on_fcd(&mut self, at: SimTime, fcd: SimDuration) {
        let bin = self.bin_mut(at);
        bin.fcd_sum_us += fcd.as_micros();
        bin.fcd_count += 1;
    }

    /// Produces the final report.
    pub fn finish(mut self) -> CallReport {
        let secs = self.duration.as_secs_f64();
        let media_bits: u64 = self.bins.iter().map(|b| b.media_bits).sum();
        // Account `i` is path `i`'s (ids are `u8`s).
        let ids = || (0..=u8::MAX).map(PathId);
        // The per-second series are packed first, and each frees what it was
        // packed from before the next allocation: the call's heap, still
        // live around the collector, never holds both forms of one.
        let path_series = PathSeries::pack(|| {
            ids()
                .zip(&self.paths)
                .filter(|(_, account)| !account.series.is_empty())
                .map(|(path, account)| (path, account.series.as_slice()))
        });
        for account in &mut self.paths {
            account.series = Vec::new();
        }
        let bins = SecondBins::pack(&std::mem::take(&mut self.bins));
        let throughput_bps = media_bits as f64 / secs;
        let fps = self.frames_decoded as f64 / secs;
        let mut e2e = self.e2e_us;
        e2e.sort_unstable();
        let e2e_mean_ms = if e2e.is_empty() {
            0.0
        } else {
            e2e.iter().map(|&us| u64::from(us)).sum::<u64>() as f64 / e2e.len() as f64 / 1_000.0
        };
        let e2e_samples = E2eSamples::from_sorted_us(&e2e);
        let avg_qp = if self.qp_count > 0 {
            self.qp_sum as f64 / self.qp_count as f64
        } else {
            qp_for_bitrate(self.format, 0.0) as f64
        };
        let freeze_fraction = (self.freeze_total.as_secs_f64() / secs).clamp(0.0, 1.0);
        // PSNR from delivered per-stream rate and freeze fraction.
        let per_stream_rate = throughput_bps / self.streams.max(1) as f64;
        let psnr_db = effective_psnr(self.format, per_stream_rate, freeze_fraction);
        // Inserted one by one: collecting into a map would first collect a
        // `Vec` of the pairs to sort.
        let mut paths = BTreeMap::new();
        for (path, account) in ids().zip(&self.paths) {
            let c = account.counters;
            // Only the paths some event touched: the table also holds the
            // ids below the highest one that saw none. A path with a series
            // has sent a packet, so it is here too.
            if c.packets_sent + c.packets_received + c.packets_lost > 0 {
                paths.insert(path, c);
            }
        }

        CallReport {
            duration_s: secs,
            streams: self.streams,
            max_encoding_rate_bps: self.max_encoding_rate_bps,
            throughput_bps,
            fps,
            e2e_mean_ms,
            e2e_p50_ms: e2e_samples.quantile_ms(0.50),
            e2e_p95_ms: e2e_samples.quantile_ms(0.95),
            e2e_samples_ms: e2e_samples,
            freeze_total_ms: self.freeze_total.as_micros() as f64 / 1_000.0,
            freeze_events: self.freeze_events,
            frames_encoded: self.frames_encoded,
            avg_encoded_height: if self.frames_encoded > 0 {
                self.height_sum as f64 / self.frames_encoded as f64
            } else {
                0.0
            },
            frames_decoded: self.frames_decoded,
            frames_dropped: self.frames_dropped,
            keyframe_requests: self.keyframe_requests,
            nacks_sent: self.nacks_sent,
            retransmissions: self.retransmissions,
            media_packets_sent: self.media_packets_sent,
            fec_packets_sent: self.fec_packets_sent,
            fec_packets_received: self.fec_packets_received,
            fec_packets_used: self.fec_packets_used,
            avg_qp,
            psnr_db,
            paths,
            path_series,
            bins,
        }
    }
}

/// A call's per-frame E2E latencies, ascending, in whole microseconds.
///
/// A report keeps one sample per decoded frame for as long as it lives, so
/// the samples are kept as what they are: ascending integers, most of them
/// close to the one before. The buffer holds the difference between each
/// sample and the one before it (the first from zero) in the report's
/// LEB128 codec, in one allocation of exactly the encoded length. A sample
/// costs one byte when it is within 127 µs of the one before, and about
/// 1.2 bytes on the sweep's calls, against eight as an `f64`.
///
/// Samples are below 2^32 µs (71.6 minutes);
/// [`MetricsCollector::on_frame_decoded`] panics past that bound.
///
/// `Debug` prints the list of milliseconds, exactly as the `Vec<f64>` of
/// `us as f64 / 1000.0` this type replaces printed them: a report's
/// `Debug` text is what its digests hash.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct E2eSamples {
    /// Number of samples.
    len: usize,
    /// The samples' LEB128 deltas, back to back.
    deltas: Box<[u8]>,
}

impl E2eSamples {
    /// Encodes `sorted_us`, ascending whole microseconds.
    fn from_sorted_us(sorted_us: &[u32]) -> Self {
        E2eSamples {
            len: sorted_us.len(),
            deltas: leb128::pack(|| {
                sorted_us.iter().scan(0, |prev, &us| {
                    Some(u64::from(us - std::mem::replace(prev, us)))
                })
            }),
        }
    }

    /// Number of samples (one per decoded frame).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the call decoded no frame.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The samples in ascending order, milliseconds.
    pub fn iter_ms(&self) -> impl Iterator<Item = f64> + '_ {
        let mut bytes = self.deltas.iter();
        let mut us = 0u32;
        std::iter::from_fn(move || {
            // A delta of two `u32` samples fits a `u32`.
            us += leb128::read(&mut bytes)? as u32;
            Some(f64::from(us) / 1_000.0)
        })
    }

    /// The nearest-rank quantile `q` (clamped to `[0, 1]`) in milliseconds:
    /// the sample at index `round((len − 1) · q)`, 0.0 when there is none.
    /// [`CallReport::e2e_p50_ms`] and [`CallReport::e2e_p95_ms`] are its
    /// `0.5` and `0.95`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let idx = ((self.len - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.iter_ms()
            .nth(idx)
            .expect("the index is below the sample count")
    }
}

impl std::fmt::Debug for E2eSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter_ms()).finish()
    }
}

/// A call's per-second bins ([`SecondBin`]), packed: each bin's 11 fields in
/// declaration order in the report's LEB128 codec, bin after bin, in one
/// allocation of exactly the encoded length. The counts are small (a
/// second's frames, its IFD samples, …), so a bin takes about 23 bytes on
/// the quick sweep's calls against 64 as a struct.
///
/// [`SecondBins::iter`] decodes the bins in order; `Debug` prints exactly
/// what the `Vec<SecondBin>` this type replaces printed, because a report's
/// `Debug` text is what its digests hash.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct SecondBins {
    /// Number of bins (a call has one a second, and at least one).
    len: usize,
    /// Every bin's fields, back to back.
    bytes: Box<[u8]>,
}

impl SecondBins {
    /// Packs `bins`, in order.
    fn pack(bins: &[SecondBin]) -> Self {
        SecondBins {
            len: bins.len(),
            bytes: leb128::pack(|| bins.iter().flat_map(SecondBin::fields)),
        }
    }

    /// Number of bins: one per second of the call.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no bin.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bins in time order, second 0 first.
    pub fn iter(&self) -> impl Iterator<Item = SecondBin> + '_ {
        let mut bytes = self.bytes.iter();
        std::iter::from_fn(move || {
            let mut fields = [0; 11];
            for field in &mut fields {
                *field = leb128::read(&mut bytes)?;
            }
            Some(SecondBin::from_fields(fields))
        })
    }
}

impl std::fmt::Debug for SecondBins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Each path's bytes sent per second, packed: for every path with a
/// series, in ascending id order, its id, its series' length and the
/// series, all in the report's LEB128 codec, in one allocation of exactly
/// the encoded length. A path's per-second byte count takes about 3 bytes
/// on the quick sweep's calls against 8 as a `u64`.
///
/// `Debug` prints exactly what the `BTreeMap<PathId, Vec<u64>>` this type
/// replaces printed, because a report's `Debug` text is what its digests
/// hash.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct PathSeries {
    bytes: Box<[u8]>,
}

/// One path's values inside a [`PathSeries`], decoded as they are read.
#[derive(Clone)]
struct SeriesValues<'a> {
    bytes: std::slice::Iter<'a, u8>,
    left: usize,
}

impl Iterator for SeriesValues<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        leb128::read(&mut self.bytes)
    }
}

impl std::fmt::Debug for SeriesValues<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl PathSeries {
    /// Packs the `(path, series)` pairs `series()` yields, ids ascending.
    fn pack<'a, I>(series: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (PathId, &'a [u64])>,
    {
        let bytes = leb128::pack(|| {
            series().flat_map(|(path, values)| {
                [u64::from(path.0), values.len() as u64]
                    .into_iter()
                    .chain(values.iter().copied())
            })
        });
        PathSeries { bytes }
    }

    /// Every path's id and values, ids ascending.
    fn entries(&self) -> impl Iterator<Item = (PathId, SeriesValues<'_>)> {
        let mut bytes = self.bytes.iter();
        std::iter::from_fn(move || {
            let path = PathId(leb128::read(&mut bytes)? as u8);
            let left = leb128::read(&mut bytes)? as usize;
            let values = SeriesValues {
                bytes: bytes.clone(),
                left,
            };
            // Step past this path's values: each ends on a byte below 0x80.
            bytes.by_ref().filter(|&&b| b < 0x80).take(left).count();
            Some((path, values))
        })
    }

    /// The paths that sent a non-empty packet, ascending.
    pub fn paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.entries().map(|(path, _)| path)
    }

    /// Whether `path` has a series.
    pub fn contains(&self, path: PathId) -> bool {
        self.paths().any(|p| p == path)
    }

    /// The bytes `path` sent in each second of the call, second 0 first;
    /// `None` when it never sent a non-empty packet.
    pub fn get(&self, path: PathId) -> Option<impl Iterator<Item = u64> + '_> {
        self.entries().find(|(p, _)| *p == path).map(|(_, v)| v)
    }
}

impl std::fmt::Debug for PathSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

/// The final report of one simulated call.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CallReport {
    /// Call duration in seconds.
    pub duration_s: f64,
    /// Number of camera streams.
    pub streams: u8,
    /// Application encoding cap, bps.
    pub max_encoding_rate_bps: u64,
    /// Delivered media throughput, bps (all streams).
    pub throughput_bps: f64,
    /// Decoded frames per second (all streams; divide by `streams` for
    /// per-camera FPS).
    pub fps: f64,
    /// Mean per-frame end-to-end latency, ms.
    pub e2e_mean_ms: f64,
    /// Median E2E, ms.
    pub e2e_p50_ms: f64,
    /// 95th-percentile E2E, ms.
    pub e2e_p95_ms: f64,
    /// Every per-frame E2E sample, ascending, for CDFs (Fig. 14c): read
    /// them in milliseconds with [`E2eSamples::iter_ms`] or
    /// [`E2eSamples::quantile_ms`]. Stored as whole-microsecond deltas, it
    /// prints (`{:?}`) as the list of milliseconds it holds.
    pub e2e_samples_ms: E2eSamples,
    /// Total stall time, ms.
    pub freeze_total_ms: f64,
    /// Number of distinct stalls.
    pub freeze_events: u64,
    /// Frames the encoder produced.
    pub frames_encoded: u64,
    /// Mean encoded frame height (720 = never downscaled; lower values
    /// show the resolution adaptation the paper observes in Fig. 9b).
    pub avg_encoded_height: f64,
    /// Frames the decoder displayed.
    pub frames_decoded: u64,
    /// Frames dropped at the receiver.
    pub frames_dropped: u64,
    /// Keyframe requests (PLIs).
    pub keyframe_requests: u64,
    /// NACKed sequence numbers.
    pub nacks_sent: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Media packets sent.
    pub media_packets_sent: u64,
    /// FEC packets generated.
    pub fec_packets_sent: u64,
    /// FEC packets that reached the receiver.
    pub fec_packets_received: u64,
    /// FEC packets used for recovery.
    pub fec_packets_used: u64,
    /// Mean encoder QP (image quality; lower is better).
    pub avg_qp: f64,
    /// Effective PSNR in dB from the R–D model.
    pub psnr_db: f64,
    /// Per-path counters.
    pub paths: BTreeMap<PathId, PathCounters>,
    /// Bytes sent per second per path (per-path rate series, e.g. the
    /// paper's Fig. 11 share-shift visual), for every path that sent a
    /// non-empty packet: read one with [`PathSeries::get`]. Stored packed,
    /// it prints (`{:?}`) as the map of `Vec<u64>`s it holds.
    pub path_series: PathSeries,
    /// Per-second time series: read them with [`SecondBins::iter`]. Stored
    /// packed, it prints (`{:?}`) as the `Vec<SecondBin>` it holds.
    pub bins: SecondBins,
}

impl CallReport {
    /// Per-camera FPS.
    pub fn fps_per_stream(&self) -> f64 {
        self.fps / self.streams.max(1) as f64
    }

    /// Average duration of one freeze event, ms (the paper's "average
    /// freeze duration" of Fig. 3b); zero when the call never froze.
    pub fn avg_freeze_ms(&self) -> f64 {
        if self.freeze_events == 0 {
            return 0.0;
        }
        self.freeze_total_ms / self.freeze_events as f64
    }

    /// Fraction of the call spent frozen, percent; zero for a zero-length
    /// call.
    pub fn freeze_ratio_pct(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.freeze_total_ms / (self.duration_s * 1_000.0) * 100.0
    }

    /// FEC overhead: extra FEC packets relative to media packets, percent.
    pub fn fec_overhead_pct(&self) -> f64 {
        if self.media_packets_sent == 0 {
            return 0.0;
        }
        self.fec_packets_sent as f64 / self.media_packets_sent as f64 * 100.0
    }

    /// FEC utilization: received FEC packets actually used, percent.
    pub fn fec_utilization_pct(&self) -> f64 {
        if self.fec_packets_received == 0 {
            return 0.0;
        }
        self.fec_packets_used as f64 / self.fec_packets_received as f64 * 100.0
    }

    /// Normalized throughput: delivered / (streams × max encoding rate),
    /// matching the paper's normalization in §6.
    pub fn normalized_throughput(&self) -> f64 {
        let denom = self.max_encoding_rate_bps as f64 * self.streams.max(1) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.throughput_bps / denom
    }

    /// Normalized FPS against the 24-FPS good-QoE floor.
    pub fn normalized_fps(&self) -> f64 {
        self.fps_per_stream() / 24.0
    }

    /// Normalized QP against 60 (the lowest quality).
    pub fn normalized_qp(&self) -> f64 {
        self.avg_qp / 60.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> MetricsCollector {
        MetricsCollector::new(
            SimDuration::from_secs(10),
            VideoFormat::HD720,
            10_000_000,
            1,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn throughput_counts_media_bytes() {
        let mut m = collector();
        m.on_packet_received(t(100), PathId(0), 1_250_000); // 10 Mbit
        let r = m.finish();
        assert!((r.throughput_bps - 1_000_000.0).abs() < 1.0); // over 10 s
    }

    #[test]
    fn fps_counts_decoded_frames() {
        let mut m = collector();
        for i in 0..300u64 {
            m.on_frame_decoded(StreamId(0), t(i * 33), d(100));
        }
        let r = m.finish();
        assert!((r.fps - 30.0).abs() < 0.1);
        assert_eq!(r.frames_decoded, 300);
    }

    #[test]
    fn freeze_detected_on_decode_gap() {
        let mut m = collector();
        m.on_frame_decoded(StreamId(0), t(0), d(100));
        m.on_frame_decoded(StreamId(0), t(33), d(100));
        // 1-second gap → freeze.
        m.on_frame_decoded(StreamId(0), t(1033), d(100));
        let r = m.finish();
        assert_eq!(r.freeze_events, 1);
        assert!((r.freeze_total_ms - (1_000.0 - 33.333)).abs() < 1.0);
    }

    #[test]
    fn no_freeze_on_steady_decode() {
        let mut m = collector();
        for i in 0..30u64 {
            m.on_frame_decoded(StreamId(0), t(i * 33), d(100));
        }
        assert_eq!(m.finish().freeze_events, 0);
    }

    #[test]
    fn freezes_tracked_per_stream() {
        let mut m = MetricsCollector::new(
            SimDuration::from_secs(10),
            VideoFormat::HD720,
            10_000_000,
            2,
        );
        // Stream 0 steady, stream 1 gapped: only one freeze.
        for i in 0..30u64 {
            m.on_frame_decoded(StreamId(0), t(i * 33), d(100));
        }
        m.on_frame_decoded(StreamId(1), t(0), d(100));
        m.on_frame_decoded(StreamId(1), t(900), d(100));
        assert_eq!(m.finish().freeze_events, 1);
    }

    #[test]
    fn e2e_percentiles() {
        let mut m = collector();
        for i in 1..=100u64 {
            m.on_frame_decoded(StreamId(0), t(i * 10), d(i));
        }
        let r = m.finish();
        assert!((r.e2e_p50_ms - 51.0).abs() <= 1.0, "{}", r.e2e_p50_ms);
        assert!((r.e2e_p95_ms - 95.0).abs() <= 1.0);
        assert!((r.e2e_mean_ms - 50.5).abs() <= 0.1);
    }

    /// Ascending µs lists: none, one, all equal, a delta at each edge of a
    /// LEB128 length and the largest, 5 000 seeded samples, and 50 lists of
    /// seeded edge-heavy draws.
    fn sample_lists() -> Vec<Vec<u32>> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut edges = vec![1_000u32];
        for delta in [0, 127, 128, 16_383, 16_384, 0, 2_097_151, 2_097_152] {
            edges.push(edges.last().unwrap() + delta);
        }
        let mut rng = SmallRng::seed_from_u64(34);
        let mut random: Vec<u32> = (0..5_000)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..2_000_000),
                _ => rng.gen_range(20_000..200_000),
            })
            .collect();
        random.sort_unstable();
        let mut lists = vec![
            vec![],
            vec![40_000],
            vec![33_333; 50],
            edges,
            vec![0, u32::MAX],
            vec![u32::MAX],
            random,
        ];
        // Lists of the report codec's seeded draws: LEB128 length edges
        // and uniform draws of random widths, up to 2^32 − 1.
        let mut rng = SmallRng::seed_from_u64(51);
        for _ in 0..50 {
            let n = rng.gen_range(2..300);
            let max = u64::from(u32::MAX);
            let mut list: Vec<u32> = (0..n).map(|_| draw(&mut rng, max) as u32).collect();
            list.sort_unstable();
            lists.push(list);
        }
        lists
    }

    #[test]
    fn e2e_samples_read_as_the_vector_they_replace() {
        for sorted_us in sample_lists() {
            // What the report kept before: milliseconds as `f64`, ascending.
            let vector: Vec<f64> = sorted_us.iter().map(|&us| us as f64 / 1_000.0).collect();
            let nearest_rank = |q: f64| {
                if vector.is_empty() {
                    return 0.0;
                }
                vector[((vector.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
            };
            // Decoded in descending order: the collector sorts.
            let mut m = collector();
            for (i, &us) in sorted_us.iter().rev().enumerate() {
                m.on_frame_decoded(
                    StreamId(0),
                    t(i as u64),
                    SimDuration::from_micros(us.into()),
                );
            }
            let r = m.finish();
            let samples = &r.e2e_samples_ms;
            let n = vector.len();
            assert_eq!(format!("{samples:?}"), format!("{vector:?}"), "{n} samples");
            assert_eq!(
                format!("{samples:#?}"),
                format!("{vector:#?}"),
                "{n} samples"
            );
            assert_eq!((samples.len(), samples.is_empty()), (n, n == 0));
            assert_eq!(samples.iter_ms().count(), n);
            for q in [-1.0, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, 2.0] {
                assert_eq!(
                    samples.quantile_ms(q),
                    nearest_rank(q),
                    "{n} samples, q {q}"
                );
            }
            assert_eq!(r.e2e_p50_ms, samples.quantile_ms(0.5), "{n} samples");
            assert_eq!(r.e2e_p95_ms, samples.quantile_ms(0.95), "{n} samples");
        }
    }

    #[test]
    fn e2e_samples_take_exactly_their_encoded_bytes() {
        // Deltas 0, 127, 128, 16 383 and 16 384: 1 + 1 + 2 + 2 + 3 bytes.
        let edges = E2eSamples::from_sorted_us(&[0, 127, 255, 16_638, 33_022]);
        assert_eq!(edges.deltas.len(), 9);
        assert_eq!(E2eSamples::from_sorted_us(&[0, u32::MAX]).deltas.len(), 6);
        assert_eq!(E2eSamples::from_sorted_us(&[]).deltas.len(), 0);
    }

    #[test]
    #[should_panic(expected = "32-bit microsecond samples (71.6 min)")]
    fn e2e_sample_past_the_bound_panics() {
        let mut m = collector();
        m.on_frame_decoded(StreamId(0), t(0), SimDuration::from_micros(1 << 32));
    }

    #[test]
    fn fec_ratios() {
        let mut m = collector();
        for _ in 0..100 {
            m.on_packet_sent(t(0), PathId(0), 1200, false, true);
        }
        for _ in 0..10 {
            m.on_packet_sent(t(0), PathId(0), 1200, true, false);
        }
        for _ in 0..8 {
            m.on_fec_received();
        }
        for _ in 0..2 {
            m.on_fec_used();
        }
        let r = m.finish();
        assert!((r.fec_overhead_pct() - 10.0).abs() < 1e-9);
        assert!((r.fec_utilization_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_rules() {
        let mut m = collector();
        m.on_packet_received(t(0), PathId(0), 12_500_000); // 100 Mbit / 10 s = 10 Mbps
        for i in 0..240u64 {
            m.on_frame_decoded(StreamId(0), t(i * 41), d(10));
        }
        let r = m.finish();
        assert!((r.normalized_throughput() - 1.0).abs() < 0.01);
        assert!((r.normalized_fps() - 1.0).abs() < 0.01);
    }

    #[test]
    fn bins_capture_time_series() {
        let mut m = collector();
        m.on_packet_received(t(500), PathId(0), 1000);
        m.on_packet_received(t(1500), PathId(0), 2000);
        m.on_ifd(t(1500), d(40));
        m.on_fcd(t(2500), d(15));
        let bins: Vec<SecondBin> = m.finish().bins.iter().collect();
        assert_eq!(bins[0].media_bits, 8000);
        assert_eq!(bins[1].media_bits, 16000);
        assert_eq!(bins[1].ifd_ms(), Some(40.0));
        assert_eq!(bins[2].fcd_ms(), Some(15.0));
        assert_eq!(bins[0].ifd_ms(), None);
    }

    #[test]
    fn per_path_counters() {
        let mut m = collector();
        m.on_packet_sent(t(0), PathId(0), 100, false, true);
        m.on_packet_sent(t(0), PathId(1), 200, false, true);
        m.on_packet_lost(PathId(1));
        m.on_packet_received(t(0), PathId(0), 100);
        let r = m.finish();
        assert_eq!(r.paths[&PathId(0)].packets_sent, 1);
        assert_eq!(r.paths[&PathId(1)].packets_lost, 1);
        assert_eq!(r.paths[&PathId(0)].packets_received, 1);
    }

    /// The per-iteration staging fold the collector used before it
    /// accounted packets directly, kept as the reference arithmetic: packet
    /// events accumulate per path under one timestamp and are folded into
    /// maps and `f64`-indexed bins when the timestamp changes.
    #[derive(Default)]
    struct StagedFold {
        n_bins: usize,
        at: Option<SimTime>,
        /// (path, packets_sent, bytes_sent, fec_sent, media_sent,
        /// packets_received, packets_lost, media_bits)
        staged: Vec<(PathId, [u64; 7])>,
        paths: BTreeMap<PathId, PathCounters>,
        path_series: BTreeMap<PathId, Vec<u64>>,
        media_bits: Vec<u64>,
        fec_sent: u64,
        media_sent: u64,
    }

    impl StagedFold {
        fn new(n_bins: usize) -> Self {
            StagedFold {
                n_bins,
                media_bits: vec![0; n_bins],
                ..Default::default()
            }
        }

        fn slot(&mut self, path: PathId) -> &mut [u64; 7] {
            if let Some(i) = self.staged.iter().position(|(p, _)| *p == path) {
                return &mut self.staged[i].1;
            }
            self.staged.push((path, [0; 7]));
            &mut self.staged.last_mut().unwrap().1
        }

        fn stage(&mut self, at: SimTime) {
            if self.at != Some(at) {
                self.flush();
                self.at = Some(at);
            }
        }

        fn sent(&mut self, at: SimTime, path: PathId, bytes: usize, fec: bool, media: bool) {
            self.stage(at);
            let p = self.slot(path);
            p[0] += 1;
            p[1] += bytes as u64;
            p[2] += u64::from(fec);
            p[3] += u64::from(media);
        }

        fn lost(&mut self, path: PathId) {
            self.slot(path)[5] += 1;
        }

        fn received(&mut self, at: SimTime, path: PathId, media_payload: usize) {
            self.stage(at);
            let p = self.slot(path);
            p[4] += 1;
            p[6] += media_payload as u64 * 8;
        }

        fn flush(&mut self) {
            let idx = self
                .at
                .take()
                .map(|t| (t.as_secs_f64() as usize).min(self.n_bins - 1));
            for (path, p) in std::mem::take(&mut self.staged) {
                let c = self.paths.entry(path).or_default();
                c.packets_sent += p[0];
                c.bytes_sent += p[1];
                c.packets_received += p[4];
                c.packets_lost += p[5];
                self.fec_sent += p[2];
                self.media_sent += p[3];
                if let Some(idx) = idx {
                    self.media_bits[idx] += p[6];
                    if p[1] > 0 {
                        let n = self.n_bins;
                        self.path_series.entry(path).or_insert_with(|| vec![0; n])[idx] += p[1];
                    }
                }
            }
        }
    }

    #[test]
    fn direct_accounting_matches_the_staged_fold() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = collector();
            let mut reference = StagedFold::new(10);
            // A path that is only ever lost on: it must still get counters.
            m.on_packet_lost(PathId(7));
            reference.lost(PathId(7));
            let mut now = 0u64;
            for _ in 0..4_000 {
                // Mostly small steps (several events share an instant), with
                // jumps onto second boundaries and one past the last bin.
                now = match rng.gen_range(0..24u32) {
                    0 => (now / 1_000_000 + 1) * 1_000_000 - 1,
                    1 => (now / 1_000_000 + 1) * 1_000_000,
                    2 if now > 9_000_000 => 25_000_000 + rng.gen_range(0..3u64),
                    3..=12 => now,
                    _ => now + rng.gen_range(1..900u64),
                };
                let at = SimTime::from_micros(now);
                let path = PathId(rng.gen_range(0..4u8));
                match rng.gen_range(0..8u32) {
                    0..=3 => {
                        let bytes = if rng.gen_bool(0.1) {
                            0
                        } else {
                            rng.gen_range(1..1_500usize)
                        };
                        let (fec, media) = (rng.gen_bool(0.2), rng.gen_bool(0.7));
                        m.on_packet_sent(at, path, bytes, fec, media);
                        reference.sent(at, path, bytes, fec, media);
                    }
                    4 => {
                        m.on_packet_lost(path);
                        reference.lost(path);
                    }
                    _ => {
                        let payload = rng.gen_range(0..1_400usize);
                        m.on_packet_received(at, path, payload);
                        reference.received(at, path, payload);
                    }
                }
            }
            reference.flush();
            let r = m.finish();
            assert_eq!(
                format!("{:?}", r.paths),
                format!("{:?}", reference.paths),
                "seed {seed}"
            );
            assert_eq!(unpack(&r.path_series), reference.path_series, "seed {seed}");
            let media_bits: Vec<u64> = r.bins.iter().map(|b| b.media_bits).collect();
            assert_eq!(media_bits, reference.media_bits, "seed {seed}");
            assert_eq!(r.fec_packets_sent, reference.fec_sent, "seed {seed}");
            assert_eq!(r.media_packets_sent, reference.media_sent, "seed {seed}");
        }
    }

    #[test]
    fn zero_byte_sends_count_but_open_no_series() {
        let mut m = collector();
        m.on_packet_sent(t(0), PathId(0), 0, false, false);
        m.on_packet_sent(t(0), PathId(1), 0, false, false);
        m.on_packet_sent(t(1_000), PathId(1), 10, false, false);
        let r = m.finish();
        assert_eq!(r.paths[&PathId(0)].packets_sent, 1);
        assert!(!r.path_series.contains(PathId(0)));
        assert_eq!(r.path_series.get(PathId(1)).unwrap().nth(1), Some(10));
    }

    #[test]
    fn late_events_clamp_to_last_bin() {
        let mut m = collector();
        // Event after nominal duration must not panic.
        m.on_packet_received(t(20_000), PathId(0), 42);
        let r = m.finish();
        assert_eq!(r.bins.iter().last().unwrap().media_bits, 42 * 8);
    }

    /// The map a [`PathSeries`] holds, unpacked.
    fn unpack(series: &PathSeries) -> BTreeMap<PathId, Vec<u64>> {
        series
            .paths()
            .map(|path| (path, series.get(path).unwrap().collect()))
            .collect()
    }

    /// A seeded draw of at most `max`: an edge of a LEB128 length, the
    /// largest, or a uniform draw of a random bit width.
    fn draw(rng: &mut rand::rngs::SmallRng, max: u64) -> u64 {
        use rand::Rng;
        const EDGES: [u64; 5] = [0, 127, 128, u32::MAX as u64, u64::MAX];
        match rng.gen_range(0..3u32) {
            0 => EDGES[rng.gen_range(0..EDGES.len())].min(max),
            1 => max,
            _ => {
                let width = rng.gen_range(0..64u32);
                rng.gen_range(0..=max >> width)
            }
        }
    }

    #[test]
    fn codec_round_trips_every_length() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(50);
        let mut values: Vec<u64> = vec![0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX)];
        values.extend([1 << 32, 1 << 63, u64::MAX]);
        values.extend((0..2_000).map(|_| draw(&mut rng, u64::MAX)));
        let bytes = leb128::pack(|| values.iter().copied());
        let mut read = bytes.iter();
        let decoded: Vec<u64> = std::iter::from_fn(|| leb128::read(&mut read)).collect();
        assert_eq!(decoded, values);
        // One byte per started seven bits: 0 and 1 take one, 2^64 − 1 ten.
        let one = |v: u64| leb128::pack(|| std::iter::once(v)).len();
        let lengths = [0, 127, 128, u64::from(u32::MAX), 1 << 63, u64::MAX].map(one);
        assert_eq!(lengths, [1, 1, 2, 5, 10, 10]);
        assert!(leb128::pack(std::iter::empty).is_empty());
        // The frame log's signed fields: small magnitudes stay small either
        // side of zero, and every value folds back.
        let folded = [0, -1, 1, -2, 63, -64, 64].map(leb128::zigzag);
        assert_eq!(folded, [0, 1, 2, 3, 126, 127, 128]);
        for v in values.iter().map(|&v| v as i64).chain([i64::MIN, i64::MAX]) {
            assert_eq!(leb128::unzigzag(leb128::zigzag(v)), v);
        }
    }

    /// A bin built field by field (not through [`SecondBin::from_fields`],
    /// which the packing uses): each field is `value(its largest value)`.
    fn bin_of(mut value: impl FnMut(u64) -> u64) -> SecondBin {
        let (wide, narrow) = (u64::MAX, u64::from(u32::MAX));
        SecondBin {
            media_bits: value(wide),
            frames_decoded: value(narrow) as u32,
            e2e_sum_us: value(wide),
            e2e_count: value(narrow) as u32,
            ifd_sum_us: value(wide),
            ifd_count: value(narrow) as u32,
            fcd_sum_us: value(wide),
            fcd_count: value(narrow) as u32,
            frames_dropped: value(narrow) as u32,
            height_sum: value(wide),
            encoded_count: value(narrow) as u32,
        }
    }

    #[test]
    fn packed_bins_read_as_the_vector_they_replace() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(52);
        for case in 0..200 {
            let n = match case {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..200),
            };
            let bins: Vec<SecondBin> = (0..n).map(|_| bin_of(|max| draw(&mut rng, max))).collect();
            let packed = SecondBins::pack(&bins);
            assert_eq!(
                (packed.len(), packed.is_empty()),
                (n, n == 0),
                "case {case}"
            );
            assert_eq!(format!("{packed:?}"), format!("{bins:?}"), "case {case}");
            assert_eq!(format!("{packed:#?}"), format!("{bins:#?}"), "case {case}");
        }
        // An empty second takes one byte a field; one with every field at
        // its largest 10 bytes for each `u64` and 5 for each `u32`: 80.
        assert_eq!(SecondBins::pack(&[SecondBin::default()]).bytes.len(), 11);
        assert_eq!(SecondBins::pack(&[bin_of(|max| max)]).bytes.len(), 80);
    }

    #[test]
    fn packed_path_series_read_as_the_map_it_replaces() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(53);
        for case in 0..200 {
            // Some of ids 0–9, each with a series of 0, 1 or more seconds;
            // the ids left out are paths with no series.
            let mut map = BTreeMap::new();
            for id in 0..10u8 {
                if case > 0 && rng.gen_bool(0.5) {
                    let len = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => 1,
                        _ => rng.gen_range(2..200),
                    };
                    let series: Vec<u64> = (0..len).map(|_| draw(&mut rng, u64::MAX)).collect();
                    map.insert(PathId(id), series);
                }
            }
            let packed = PathSeries::pack(|| map.iter().map(|(&p, s)| (p, s.as_slice())));
            assert_eq!(unpack(&packed), map, "case {case}");
            for id in 0..12u8 {
                let path = PathId(id);
                assert_eq!(
                    packed.contains(path),
                    map.contains_key(&path),
                    "case {case}"
                );
                let got = packed.get(path).map(|s| s.collect::<Vec<_>>());
                assert_eq!(got.as_ref(), map.get(&path), "case {case}, {path:?}");
            }
            assert_eq!(format!("{packed:?}"), format!("{map:?}"), "case {case}");
            assert_eq!(format!("{packed:#?}"), format!("{map:#?}"), "case {case}");
        }
    }
}
