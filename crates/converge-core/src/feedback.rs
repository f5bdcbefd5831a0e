//! The video QoE feedback loop (paper §4.2).
//!
//! Receiver side: [`QoeMonitor`] watches frame construction. Per frame it
//! records, for every path, how many packets arrived after the fast path's
//! last packet (late) or comfortably before it (early). When the interframe
//! delay exceeds the expectation (`IFD > IFD_exp = 1/fps`), it emits a
//! feedback message `(path_id, α, FCD)`: negative α asks the sender to move
//! that many packets off the offending path; positive α offers headroom.
//!
//! Sender side: [`PathShare`] applies Eq. 2 to the per-path packet counts,
//! disables a path whose share reaches zero, and re-enables it when Eq. 3
//! holds: `(rtt_fast − rtt_i)/2 ≤ FCD`.

use std::collections::{BTreeMap, VecDeque};

use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::QoeFeedback;
use converge_trace::{TraceEvent, TraceHandle};

/// Least time between two feedback messages of one monitor, so one
/// congestion event does not spray feedback every frame.
const FEEDBACK_COOLDOWN: SimDuration = SimDuration::from_millis(50);

/// Frames a monitor gathers at once; a packet of another frame forgets the
/// oldest.
const MAX_GATHERING: usize = 64;

/// A frame still being gathered.
#[derive(Debug, Clone, Copy)]
struct Gathering {
    frame_id: u64,
    /// When the frame's latest fast-path packet arrived, if one has.
    last_fast: Option<SimTime>,
}

/// One non-fast path's packets of one gathering frame, split by the
/// frame's latest fast-path arrival so far.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Packets that arrived at or before it: early, for good.
    before: u32,
    /// Packets that arrived after it: late, unless another fast-path
    /// packet of the frame arrives.
    after: u32,
}

/// Receiver-side QoE monitor for one stream.
///
/// A packet is late when it arrived strictly after its frame's last
/// fast-path packet. The monitor keeps counts, not arrivals: `on_packet`
/// sees `now` never decrease and the fast path never changes, so a
/// fast-path arrival is at or after every packet of its frame seen before
/// it, and turns each path's `after` count into `before`.
#[derive(Debug)]
pub struct QoeMonitor {
    ssrc: u32,
    /// Expected IFD = 1 / advertised frame rate.
    expected_ifd: SimDuration,
    /// Frames still being gathered, sorted by frame id. A key-sorted deque
    /// beats an ordered map here: the hot path is "count a packet of the
    /// newest frame", which is a back() check, and the set never exceeds
    /// [`MAX_GATHERING`] entries.
    gathering: VecDeque<Gathering>,
    /// `width` tallies per gathering frame, in `gathering`'s order, the
    /// `i`-th of a frame's for path `i` (the fast path's stays zero).
    tallies: Vec<Tally>,
    /// One more than the highest non-fast path id seen.
    width: usize,
    /// The path considered fast (reference for lateness).
    fast_path: PathId,
    /// Pending feedback to emit.
    pending: Vec<QoeFeedback>,
    /// When the last feedback left, for `FEEDBACK_COOLDOWN`.
    last_feedback_at: Option<SimTime>,
    trace: TraceHandle,
}

impl QoeMonitor {
    /// Creates a monitor expecting `fps` frames per second.
    pub fn new(ssrc: u32, fps: u32, fast_path: PathId) -> Self {
        QoeMonitor {
            ssrc,
            expected_ifd: SimDuration::from_micros(1_000_000 / fps.max(1) as u64),
            gathering: VecDeque::new(),
            tallies: Vec::new(),
            width: 0,
            fast_path,
            pending: Vec::new(),
            last_feedback_at: None,
            trace: TraceHandle::disabled(),
        }
    }

    /// Installs a trace handle; the monitor then emits a
    /// [`TraceEvent::FeedbackEmitted`] per feedback message.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Updates the expected frame rate (from the sender's SDES message).
    pub fn set_frame_rate(&mut self, fps: u32) {
        self.expected_ifd = SimDuration::from_micros(1_000_000 / fps.max(1) as u64);
    }

    /// Expected interframe delay.
    pub fn expected_ifd(&self) -> SimDuration {
        self.expected_ifd
    }

    /// Gives every gathering frame `width` tallies, keeping its counts.
    fn widen(&mut self, width: usize) {
        let old = std::mem::replace(
            &mut self.tallies,
            Vec::with_capacity(self.gathering.len() * width),
        );
        for i in 0..self.gathering.len() {
            self.tallies
                .extend_from_slice(&old[i * self.width..(i + 1) * self.width]);
            let len = self.tallies.len();
            self.tallies
                .resize(len + width - self.width, Tally::default());
        }
        self.width = width;
    }

    /// The tallies of the `idx`-th gathering frame.
    fn tally_range(&self, idx: usize) -> std::ops::Range<usize> {
        idx * self.width..(idx + 1) * self.width
    }

    /// Records a media/control packet arrival for `frame_id` via `path`.
    /// `now` never decreases from one call to the next.
    pub fn on_packet(&mut self, now: SimTime, path: PathId, frame_id: u64) {
        if path != self.fast_path && path.index() >= self.width {
            self.widen(path.index() + 1);
        }
        // Fast path: the packet belongs to the newest frame in flight.
        let found = match self.gathering.back() {
            Some(g) if g.frame_id == frame_id => Ok(self.gathering.len() - 1),
            Some(g) if g.frame_id > frame_id => {
                // Out-of-order arrival for an older frame: insert sorted.
                self.gathering
                    .binary_search_by_key(&frame_id, |g| g.frame_id)
            }
            _ => Err(self.gathering.len()),
        };
        let idx = match found {
            Ok(idx) => idx,
            Err(mut idx) => {
                // Bound memory: a 65th frame forgets the oldest, which is
                // the new one itself if it is older than every frame held.
                if self.gathering.len() == MAX_GATHERING {
                    if idx == 0 {
                        return;
                    }
                    self.gathering.pop_front();
                    self.tallies.drain(..self.width);
                    idx -= 1;
                }
                let fresh = Gathering {
                    frame_id,
                    last_fast: None,
                };
                self.gathering.insert(idx, fresh);
                let at = idx * self.width;
                let fresh = std::iter::repeat_n(Tally::default(), self.width);
                self.tallies.splice(at..at, fresh);
                idx
            }
        };
        let range = self.tally_range(idx);
        let frame = &mut self.gathering[idx];
        if path == self.fast_path {
            debug_assert!(frame.last_fast.is_none_or(|fast| fast <= now));
            frame.last_fast = Some(now);
            for tally in &mut self.tallies[range] {
                tally.before += std::mem::take(&mut tally.after);
            }
        } else {
            let tally = &mut self.tallies[range.start + path.index()];
            if frame.last_fast.is_some_and(|fast| now <= fast) {
                tally.before += 1;
            } else {
                tally.after += 1;
            }
        }
    }

    /// Notifies that `frame_id` entered the frame buffer with the given IFD
    /// and FCD (from the packet/frame buffer events).
    pub fn on_frame_entered(
        &mut self,
        now: SimTime,
        frame_id: u64,
        ifd: Option<SimDuration>,
        fcd: SimDuration,
    ) {
        let Ok(idx) = self
            .gathering
            .binary_search_by_key(&frame_id, |g| g.frame_id)
        else {
            return;
        };
        if let Some(ifd) = ifd {
            self.judge(now, idx, ifd, fcd);
        }
        self.gathering.remove(idx);
        self.tallies.drain(self.tally_range(idx));
    }

    /// Emits feedback for the `idx`-th gathering frame, which entered with
    /// interframe delay `ifd`, if that delay shows QoE deteriorating.
    fn judge(&mut self, now: SimTime, idx: usize, ifd: SimDuration, fcd: SimDuration) {
        // Fire only on a clear violation: scheduling jitter makes IFD
        // fluctuate a few percent around the expectation every frame, and
        // reacting to that noise oscillates the sender's shares.
        if ifd.as_micros() * 2 <= self.expected_ifd.as_micros() * 3 {
            return;
        }
        // QoE is deteriorating. Rate-limit feedback.
        if let Some(last) = self.last_feedback_at {
            if now.saturating_since(last) < FEEDBACK_COOLDOWN {
                return;
            }
        }
        // Lateness is measured against the frame's last fast-path packet.
        if self.gathering[idx].last_fast.is_none() {
            return; // no fast-path packets in this frame: no baseline
        }

        // Worst offender: the path with the most late packets → negative α.
        // No late packets anywhere, yet IFD is high: some slow path
        // finished entirely before the fast path, so it has headroom —
        // positive α for the earliest-finishing one. A path with no
        // packets in the frame (the fast path among them) counts (0, 0)
        // and is never picked. (Ties go to the highest path id, as
        // `max_by_key` over the tallies in id order does.)
        let tallies = || {
            let ids = self.tallies[self.tally_range(idx)].iter().enumerate();
            ids.map(|(i, t)| (PathId(i as u8), t.after as i32, t.before as i32))
        };
        let worst_late = tallies()
            .filter(|&(_, late, _)| late > 0)
            .max_by_key(|&(_, late, _)| late)
            .map(|(path, late, _)| (path, -late));
        let most_early = || {
            tallies()
                .filter(|&(_, _, early)| early > 0)
                .max_by_key(|&(_, _, early)| early)
                .map(|(path, _, early)| (path, early))
        };
        if let Some((path, alpha)) = worst_late.or_else(most_early) {
            self.pending.push(QoeFeedback {
                path_id: path.0,
                ssrc: self.ssrc,
                alpha,
                fcd_micros: fcd.as_micros(),
            });
            self.last_feedback_at = Some(now);
            self.trace.emit(
                now,
                TraceEvent::FeedbackEmitted {
                    path,
                    alpha: i64::from(alpha),
                    fcd_us: fcd.as_micros(),
                },
            );
        }
    }

    /// Drains feedback messages ready to send.
    pub fn take_feedback(&mut self) -> Vec<QoeFeedback> {
        std::mem::take(&mut self.pending)
    }
}

/// Sender-side reaction to QoE feedback: per-path packet-share offsets
/// (Eq. 2) and path enable/disable with Eq. 3 re-enablement.
#[derive(Debug, Default)]
pub struct PathShare {
    /// Persistent α-driven offset per path, in packets.
    offsets: BTreeMap<PathId, i64>,
    /// Paths currently disabled by feedback.
    disabled: BTreeMap<PathId, DisabledState>,
    /// `split_into`'s re-balancing order, `(rate, index into the split)`;
    /// kept so a split allocates nothing.
    order: Vec<(u64, usize)>,
}

#[derive(Debug, Clone, Copy)]
struct DisabledState {
    /// FCD from the feedback that disabled the path, for Eq. 3.
    fcd: SimDuration,
}

/// The cap `caps` (indexed by path id) holds for `path`; a path past its
/// end is uncapped.
fn cap_of(caps: &[usize], path: PathId) -> usize {
    caps.get(path.index()).copied().unwrap_or(usize::MAX)
}

impl PathShare {
    /// Creates an empty state (no offsets, nothing disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current offset for a path.
    pub fn offset(&self, path: PathId) -> i64 {
        self.offsets.get(&path).copied().unwrap_or(0)
    }

    /// Whether feedback has disabled the path.
    pub fn is_disabled(&self, path: PathId) -> bool {
        self.disabled.contains_key(&path)
    }

    /// Applies one feedback message (Eq. 2): adjusts the offset by α. The
    /// caller decides whether the resulting share bottomed out and, if so,
    /// calls [`PathShare::mark_disabled`] with the feedback's FCD.
    ///
    /// Offsets are clamped to a sane band: an unbounded accumulation would
    /// let a long streak of positive feedback drown the Eq. 1 baseline.
    pub fn apply_feedback(&mut self, path: PathId, alpha: i32) {
        let off = self.offsets.entry(path).or_insert(0);
        *off = (*off + alpha as i64).clamp(-256, 64);
    }

    /// Decays every offset toward zero; called once per scheduled batch so
    /// stale feedback fades as conditions change (half-life ~1 s at 30 fps).
    pub fn decay_offsets(&mut self) {
        for off in self.offsets.values_mut() {
            *off -= off.signum() * ((off.abs() / 32) + i64::from(*off != 0));
        }
    }

    /// Marks a path disabled (its computed share reached zero), remembering
    /// the FCD that justified it.
    pub fn mark_disabled(&mut self, path: PathId, fcd: SimDuration) {
        self.disabled.insert(path, DisabledState { fcd });
    }

    /// Eq. 3 re-enable check: `|rtt_fast − rtt_i|/2 ≤ max(FCD, 5 ms)`.
    /// `rtt_i` comes from probe packets duplicated onto the disabled path.
    /// Returns the margin and the threshold it passed, in µs, if the path
    /// is re-enabled; `None` if it stays disabled or never was.
    pub fn try_reenable(
        &mut self,
        path: PathId,
        rtt_fast: SimDuration,
        rtt_path: SimDuration,
    ) -> Option<(u64, u64)> {
        let state = self.disabled.get(&path)?;
        let margin = rtt_fast.as_micros().abs_diff(rtt_path.as_micros()) / 2;
        let threshold = state.fcd.max(SimDuration::from_millis(5)).as_micros();
        if margin > threshold {
            return None;
        }
        self.disabled.remove(&path);
        // Fresh start: clear the negative offset that killed the path.
        self.offsets.insert(path, 0);
        Some((margin, threshold))
    }

    /// Computes the per-path media packet counts for a batch of `n` packets
    /// (Eq. 1 proportional split, then Eq. 2 offsets, then the `P_max` cap),
    /// replacing the contents of `counts`.
    ///
    /// `paths` must carry current GCC rates; `caps` is indexed by path id
    /// (a path past its end is uncapped). Leaves `(path, count)` pairs
    /// covering exactly `n` packets across enabled paths. If every path is
    /// disabled, the offsets are ignored and the split is proportional.
    pub fn split_into(
        &mut self,
        n: usize,
        paths: &[crate::metrics::PathMetrics],
        caps: &[usize],
        counts: &mut Vec<(PathId, usize)>,
    ) {
        let (offsets, disabled, order) = (&self.offsets, &self.disabled, &mut self.order);
        counts.clear();
        // The enabled paths, or every path when none is.
        let any_enabled = paths
            .iter()
            .any(|p| p.enabled && !disabled.contains_key(&p.id));
        let use_paths = || {
            paths
                .iter()
                .filter(move |p| !any_enabled || (p.enabled && !disabled.contains_key(&p.id)))
        };
        let total_rate: u64 = use_paths().map(|p| p.rate_bps).sum();
        if total_rate == 0 || n == 0 {
            // Degenerate: dump everything on the first path.
            counts.extend(use_paths().next().map(|p| (p.id, n)));
            return;
        }

        // Eq. 1: proportional share, then Eq. 2 offset, then cap.
        for p in use_paths() {
            let base = (p.rate_bps as f64 / total_rate as f64 * n as f64).round() as i64;
            let adjusted = base + offsets.get(&p.id).copied().unwrap_or(0);
            let cap = cap_of(caps, p.id).min(i64::MAX as usize) as i64;
            counts.push((p.id, adjusted.clamp(0, cap) as usize));
        }

        // Re-balance so the counts sum to exactly n, preferring paths with
        // spare cap, highest rate first.
        let mut assigned: usize = counts.iter().map(|(_, c)| c).sum();
        order.clear();
        order.extend(use_paths().enumerate().map(|(i, p)| (p.rate_bps, i)));
        order.sort_by_key(|&(rate, _)| std::cmp::Reverse(rate));
        // Add missing packets: fill the fastest path up to its cap before
        // touching slower ones, so a feedback-penalized path keeps its
        // reduced share (the paper's 4:2 → 5:1 example).
        if assigned < n {
            for &(_, i) in order.iter() {
                if assigned >= n {
                    break;
                }
                let cap = cap_of(caps, counts[i].0);
                let room = cap.saturating_sub(counts[i].1);
                let add = room.min(n - assigned);
                counts[i].1 += add;
                assigned += add;
            }
            if assigned < n {
                // All caps hit: overflow onto the fastest path regardless.
                if let Some(&(_, i)) = order.first() {
                    counts[i].1 += n - assigned;
                }
                assigned = n;
            }
        }
        // Remove excess packets (from slowest paths first).
        while assigned > n {
            let mut progressed = false;
            for &(_, i) in order.iter().rev() {
                if assigned <= n {
                    break;
                }
                if counts[i].1 > 0 {
                    counts[i].1 -= 1;
                    assigned -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PathMetrics;

    const P1: PathId = PathId(1);
    const P2: PathId = PathId(2);

    fn monitor() -> QoeMonitor {
        QoeMonitor::new(7, 30, P1)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn no_feedback_when_ifd_ok() {
        let mut m = monitor();
        m.on_packet(t(0), P1, 0);
        m.on_packet(t(5), P2, 0);
        m.on_frame_entered(t(5), 0, Some(d(30)), d(5));
        assert!(m.take_feedback().is_empty());
    }

    #[test]
    fn late_packets_produce_negative_alpha() {
        let mut m = monitor();
        // Fast path P1 finishes at 10 ms; P2 delivers 2 packets at 40/45 ms.
        m.on_packet(t(5), P1, 0);
        m.on_packet(t(10), P1, 0);
        m.on_packet(t(40), P2, 0);
        m.on_packet(t(45), P2, 0);
        m.on_frame_entered(t(45), 0, Some(d(60)), d(40));
        let fb = m.take_feedback();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].path_id, 2);
        assert_eq!(fb[0].alpha, -2);
        assert_eq!(fb[0].fcd_micros, 40_000);
    }

    #[test]
    fn early_packets_produce_positive_alpha() {
        let mut m = monitor();
        // P2's packets all arrive before P1's last → headroom on P2 even
        // though the frame rate sagged (sender underfeeding).
        m.on_packet(t(2), P2, 0);
        m.on_packet(t(3), P2, 0);
        m.on_packet(t(10), P1, 0);
        m.on_frame_entered(t(10), 0, Some(d(60)), d(8));
        let fb = m.take_feedback();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].path_id, 2);
        assert_eq!(fb[0].alpha, 2);
    }

    #[test]
    fn feedback_rate_limited() {
        let mut m = monitor();
        for frame in 0..5u64 {
            let base = frame * 10;
            m.on_packet(t(base), P1, frame);
            m.on_packet(t(base + 5), P2, frame);
            m.on_frame_entered(t(base + 5), frame, Some(d(60)), d(5));
        }
        // Frames arrive 10 ms apart; cooldown is 50 ms → only the first
        // violation emits.
        assert_eq!(m.take_feedback().len(), 1);
    }

    #[test]
    fn first_frame_without_ifd_ignored() {
        let mut m = monitor();
        m.on_packet(t(0), P1, 0);
        m.on_frame_entered(t(0), 0, None, d(0));
        assert!(m.take_feedback().is_empty());
    }

    #[test]
    fn expected_ifd_from_fps() {
        let m = QoeMonitor::new(1, 30, P1);
        assert_eq!(m.expected_ifd().as_micros(), 33_333);
        let mut m = m;
        m.set_frame_rate(24);
        assert_eq!(m.expected_ifd().as_micros(), 41_666);
    }

    /// The monitor as it stood before it kept tallies: every arrival of a
    /// frame in a fresh vector, judged against the frame's last fast-path
    /// arrival in tree maps.
    #[derive(Default)]
    struct RefMonitor {
        gathering: BTreeMap<u64, Vec<(PathId, SimTime)>>,
        last_feedback_at: Option<SimTime>,
        pending: Vec<QoeFeedback>,
    }

    impl RefMonitor {
        fn on_packet(&mut self, now: SimTime, path: PathId, frame_id: u64) {
            self.gathering
                .entry(frame_id)
                .or_default()
                .push((path, now));
            while self.gathering.len() > 64 {
                self.gathering.pop_first();
            }
        }

        fn on_frame_entered(
            &mut self,
            now: SimTime,
            frame_id: u64,
            ifd: Option<SimDuration>,
            fcd: SimDuration,
        ) {
            let Some(arrivals) = self.gathering.remove(&frame_id) else {
                return;
            };
            let Some(ifd) = ifd else {
                return;
            };
            if ifd.as_micros() * 2 <= 33_333 * 3 {
                return;
            }
            if self
                .last_feedback_at
                .is_some_and(|last| now.saturating_since(last) < d(50))
            {
                return;
            }
            let Some(reference) = arrivals
                .iter()
                .filter(|(p, _)| *p == P1)
                .map(|(_, t)| *t)
                .max()
            else {
                return;
            };
            let mut late: BTreeMap<PathId, i32> = BTreeMap::new();
            let mut early: BTreeMap<PathId, i32> = BTreeMap::new();
            for (path, at) in &arrivals {
                if *path == P1 {
                    continue;
                }
                if *at > reference {
                    *late.entry(*path).or_insert(0) += 1;
                } else {
                    *early.entry(*path).or_insert(0) += 1;
                }
            }
            let alpha = match late.iter().max_by_key(|(_, &c)| c) {
                Some((&path, &count)) => Some((path, -count)),
                None => early
                    .iter()
                    .max_by_key(|(_, &c)| c)
                    .map(|(&path, &count)| (path, count)),
            };
            if let Some((path, alpha)) = alpha {
                self.pending.push(QoeFeedback {
                    path_id: path.0,
                    ssrc: 7,
                    alpha,
                    fcd_micros: fcd.as_micros(),
                });
                self.last_feedback_at = Some(now);
            }
        }
    }

    /// One drawn script of 4 000 packets of seed `seed`, fed to the
    /// monitor and to the reference: mostly the newest frames, sometimes
    /// one far behind (out of order, or never completing so the 64-frame
    /// bound evicts it), on paths `paths`, at instants `instant(step,
    /// draw)` that never decrease. Three frames in four enter the buffer
    /// at a drawn IFD. The feedback must be the reference's after every
    /// packet, and the monitor must hold `width` tallies for exactly the
    /// frames the reference is gathering. Returns the feedback messages
    /// emitted, the most frames gathered at once, and the non-fast packets
    /// that arrived at the same instant as their frame's last fast-path
    /// packet so far.
    fn matches_reference(
        seed: u64,
        paths: std::ops::Range<u8>,
        mut instant: impl FnMut(u64, &mut dyn FnMut(u64) -> u64) -> SimTime,
    ) -> (usize, usize, usize) {
        let mut rng = crate::test_rng::Rng(seed);
        let mut below = move |n: u64| rng.below(n);
        let mut new = monitor();
        let mut old = RefMonitor::default();
        let mut last_fast: BTreeMap<u64, SimTime> = BTreeMap::new();
        let (mut emitted, mut most_held, mut ties) = (0, 0, 0);
        let mut previous = SimTime::ZERO;
        for step in 0..4_000u64 {
            let now = instant(step, &mut below);
            assert!(now >= previous, "instants never decrease");
            previous = now;
            let newest = step / 6;
            let frame = match below(10) {
                0 => newest.saturating_sub(below(80)),
                _ => newest.saturating_sub(below(3)),
            };
            let path = PathId(paths.start + below(u64::from(paths.end - paths.start)) as u8);
            if path == P1 {
                last_fast.insert(frame, now);
            } else {
                ties += usize::from(last_fast.get(&frame) == Some(&now));
            }
            new.on_packet(now, path, frame);
            old.on_packet(now, path, frame);
            if below(3) == 0 && frame % 4 != 3 {
                let ifd = [None, Some(d(30)), Some(d(60)), Some(d(90))][below(4) as usize];
                let fcd = SimDuration::from_micros(below(40_000));
                new.on_frame_entered(now, frame, ifd, fcd);
                old.on_frame_entered(now, frame, ifd, fcd);
            }
            let feedback = new.take_feedback();
            emitted += feedback.len();
            assert_eq!(
                feedback,
                std::mem::take(&mut old.pending),
                "seed {seed} step {step}"
            );
            let held: Vec<u64> = new.gathering.iter().map(|g| g.frame_id).collect();
            assert!(
                held.iter().eq(old.gathering.keys()),
                "seed {seed} step {step}"
            );
            assert_eq!(new.tallies.len(), held.len() * new.width);
            most_held = most_held.max(held.len());
        }
        (emitted, most_held, ties)
    }

    /// Frames that arrive out of order, frames that never complete (so the
    /// 64-frame bound evicts them) and ties between paths, at distinct
    /// instants: the tallies must emit exactly the feedback the arrival
    /// lists did.
    #[test]
    fn recycled_records_emit_the_same_feedback() {
        for seed in 0..8u64 {
            let (emitted, most_held, _) = matches_reference(seed, 1..5, |step, below| {
                SimTime::from_micros(step * 7_000 + below(5_000))
            });
            assert!(
                emitted > 20,
                "seed {seed}: only {emitted} feedback messages"
            );
            assert_eq!(most_held, 64, "the bound must have been reached");
        }
    }

    /// Two packets in three arrive at the same instant as the one before,
    /// on the fast path and on four others (path 0 among them, below the
    /// fast path's id): a packet at the same instant as its frame's last
    /// fast-path packet is early, one strictly after it late.
    #[test]
    fn equal_instants_are_judged_by_the_last_fast_arrival() {
        let mut ties = 0;
        for seed in 100..108u64 {
            let mut now = 0;
            let (emitted, _, seed_ties) = matches_reference(seed, 0..5, |_, below| {
                if below(3) == 0 {
                    now += 1 + below(20_000);
                }
                SimTime::from_micros(now)
            });
            assert!(
                emitted > 20,
                "seed {seed}: only {emitted} feedback messages"
            );
            ties += seed_ties;
        }
        assert!(
            ties > 1_000,
            "only {ties} packets tied with a fast-path arrival"
        );
    }

    // ---- PathShare ----

    fn pm(id: PathId, rate_mbps: u64) -> PathMetrics {
        PathMetrics::new(id, rate_mbps * 1_000_000, d(50), 0.0)
    }

    /// [`PathShare::split_into`] into a fresh vector.
    fn split(
        s: &mut PathShare,
        n: usize,
        paths: &[PathMetrics],
        caps: &[usize],
    ) -> Vec<(PathId, usize)> {
        let mut counts = Vec::new();
        s.split_into(n, paths, caps, &mut counts);
        counts
    }

    #[test]
    fn split_matches_eq1_example() {
        // Paper's example: rate1=15 Mbps, rate2=5 Mbps, 40 packets →
        // 30 on P1, 10 on P2.
        let mut s = PathShare::new();
        let counts = split(&mut s, 40, &[pm(P1, 15), pm(P2, 5)], &[]);
        assert_eq!(counts, vec![(P1, 30), (P2, 10)]);
    }

    #[test]
    fn split_applies_alpha_offset() {
        // Paper's example continued: feedback α = −5 for P2 → 35 on P1,
        // 5 on P2.
        let mut s = PathShare::new();
        s.apply_feedback(P2, -5);
        let counts = split(&mut s, 40, &[pm(P1, 15), pm(P2, 5)], &[]);
        assert_eq!(counts, vec![(P1, 35), (P2, 5)]);
    }

    #[test]
    fn split_respects_pmax() {
        let mut s = PathShare::new();
        let caps = [usize::MAX, 25, 100];
        let counts = split(&mut s, 40, &[pm(P1, 15), pm(P2, 5)], &caps);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 40);
        let p1 = counts.iter().find(|(p, _)| *p == P1).unwrap().1;
        assert!(p1 <= 25);
    }

    #[test]
    fn split_always_sums_to_n() {
        let mut s = PathShare::new();
        s.apply_feedback(P2, -3);
        for n in [0usize, 1, 7, 40, 100] {
            let counts = split(&mut s, n, &[pm(P1, 7), pm(P2, 3)], &[]);
            assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), n, "n={n}");
        }
    }

    #[test]
    fn negative_offset_can_zero_a_path() {
        let mut s = PathShare::new();
        s.apply_feedback(P2, -100);
        let counts = split(&mut s, 40, &[pm(P1, 15), pm(P2, 5)], &[]);
        let p2 = counts.iter().find(|(p, _)| *p == P2).unwrap().1;
        assert_eq!(p2, 0);
    }

    #[test]
    fn disabled_path_excluded_from_split() {
        let mut s = PathShare::new();
        s.mark_disabled(P2, d(10));
        let counts = split(&mut s, 40, &[pm(P1, 15), pm(P2, 5)], &[]);
        assert_eq!(counts, vec![(P1, 40)]);
        assert!(s.is_disabled(P2));
    }

    #[test]
    fn reenable_follows_eq3() {
        let mut s = PathShare::new();
        s.apply_feedback(P2, -20);
        s.mark_disabled(P2, d(10));
        // RTT gap too large: (200−60)/2 = 70 ms > FCD 10 ms → stay disabled.
        assert_eq!(s.try_reenable(P2, d(60), d(200)), None);
        assert!(s.is_disabled(P2));
        // Path recovered: (70−60)/2 = 5 ms ≤ 10 ms → re-enable, offset reset.
        assert_eq!(s.try_reenable(P2, d(60), d(70)), Some((5_000, 10_000)));
        assert!(!s.is_disabled(P2));
        assert_eq!(s.offset(P2), 0);
    }

    #[test]
    fn reenable_noop_when_not_disabled() {
        let mut s = PathShare::new();
        assert_eq!(s.try_reenable(P1, d(50), d(50)), None);
    }

    #[test]
    fn offsets_decay_toward_zero() {
        let mut s = PathShare::new();
        s.apply_feedback(P2, -40);
        assert_eq!(s.offset(P2), -40);
        for _ in 0..200 {
            s.decay_offsets();
        }
        assert_eq!(s.offset(P2), 0, "offset must fully decay");
        // Positive offsets decay symmetrically.
        s.apply_feedback(P1, 30);
        let before = s.offset(P1);
        s.decay_offsets();
        assert!(s.offset(P1) < before && s.offset(P1) > 0);
    }

    #[test]
    fn offsets_clamped_to_band() {
        let mut s = PathShare::new();
        for _ in 0..100 {
            s.apply_feedback(P2, -100);
        }
        assert_eq!(s.offset(P2), -256, "negative clamp");
        let mut s = PathShare::new();
        for _ in 0..100 {
            s.apply_feedback(P2, 50);
        }
        assert_eq!(s.offset(P2), 64, "positive clamp");
    }

    #[test]
    fn all_paths_disabled_falls_back_to_proportional() {
        let mut s = PathShare::new();
        s.mark_disabled(P1, d(10));
        s.mark_disabled(P2, d(10));
        let counts = split(&mut s, 20, &[pm(P1, 10), pm(P2, 10)], &[]);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 20);
        assert_eq!(counts.len(), 2);
    }
}
