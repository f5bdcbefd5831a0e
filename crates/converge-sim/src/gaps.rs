//! NACK gap tracking for one stream's media sequence space.
//!
//! Paths of different delay reorder by construction — every packet the
//! slow path delivers behind the fast one opens a gap and closes it again
//! — so this runs per packet, not per loss. The tracker keeps one byte per
//! sequence from its oldest open gap to its newest (an open bit and the
//! NACK attempts): a fill is one index, and an in-order arrival with no
//! gap open stores nothing. A skip pads the in-order run since the last
//! slot with closed slots, appends one open slot per skipped sequence, and
//! notes where it began and when; closed slots are trimmed off the front,
//! so the slots follow the open gaps, not the call's length.
//!
//! Gaps are only ever discovered in ascending sequence order at
//! non-decreasing instants, so the open slots are in order of both: a
//! NACK round walks from the front, reading each gap's first-seen instant
//! off the skip it came from, and stops at the first gap too young to ask
//! for, or once it has asked for [`MAX_PER_ROUND`].

use std::collections::VecDeque;
use std::iter;

use converge_net::{SimDuration, SimTime};

/// NACK attempts before a gap is given up on. A retransmission on a
/// 10 %-loss path is lost as often as its original, and two attempts leave
/// about a quarter of a one-stream call's 35-packet frames a packet short.
const MAX_ATTEMPTS: u8 = 3;
/// Most sequences one NACK round asks for.
const MAX_PER_ROUND: usize = 30;

/// A slot is `attempts << 1 | OPEN`; a padded slot is 0 (closed).
const OPEN: u8 = 1;
/// One NACK attempt, in a slot.
const ATTEMPT: u8 = 2;

/// The media sequences of one stream that are missing and still wanted.
#[derive(Debug, Default)]
pub(crate) struct GapTracker {
    /// Highest media sequence seen.
    max_seq: Option<u64>,
    /// Sequence of `slots[0]`.
    base: u64,
    /// One slot per sequence from `base` on, up to the newest gap; empty
    /// or led by an open one.
    slots: VecDeque<u8>,
    /// Each skip still covering a slot: its first gap's sequence and the
    /// instant it was seen, ascending in both. The first covers `base`;
    /// a gap was first seen when the last skip at or before it was.
    skips: VecDeque<(u64, SimTime)>,
}

impl GapTracker {
    /// A media packet arrived: every sequence it skipped past becomes a
    /// gap; one at or behind the newest fills its gap (a reordered or
    /// retransmitted packet).
    pub(crate) fn on_arrival(&mut self, now: SimTime, seq: u64) {
        match self.max_seq {
            Some(max) if seq <= max => self.fill(seq),
            Some(max) if seq > max + 1 => {
                self.open(now, max + 1..seq);
                self.max_seq = Some(seq);
            }
            _ => self.max_seq = Some(seq),
        }
    }

    /// Opens a gap at every sequence of `skipped`, which starts just past
    /// the newest sequence seen before.
    fn open(&mut self, now: SimTime, skipped: std::ops::Range<u64>) {
        debug_assert!(
            self.skips.back().is_none_or(|&(_, seen)| seen <= now),
            "gaps discovered out of time order"
        );
        if self.slots.is_empty() {
            self.base = skipped.start;
        } else {
            let end = self.base + self.slots.len() as u64;
            let pad = (skipped.start - end) as usize;
            self.slots.extend(iter::repeat_n(0, pad));
        }
        self.skips.push_back((skipped.start, now));
        let gaps = (skipped.end - skipped.start) as usize;
        self.slots.extend(iter::repeat_n(OPEN, gaps));
    }

    /// `seq` no longer needs NACKing (it arrived, or FEC rebuilt it).
    pub(crate) fn fill(&mut self, seq: u64) {
        let Some(at) = seq.checked_sub(self.base) else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(at as usize) {
            *slot &= !OPEN;
            if at == 0 {
                self.trim();
            }
        }
    }

    /// Drops the closed slots in front of the oldest open gap, and the
    /// skips no slot is left of.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(|&s| s & OPEN == 0) {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.slots.is_empty() {
            self.skips.clear();
        }
        while self
            .skips
            .get(1)
            .is_some_and(|&(start, _)| start <= self.base)
        {
            self.skips.pop_front();
        }
    }

    /// One NACK round at `now`: appends to `lost` the low 16 bits of up to
    /// [`MAX_PER_ROUND`] gaps older than `nack_delay` (the reordering
    /// tolerance), oldest first, and forgets those already asked for
    /// [`MAX_ATTEMPTS`] times.
    pub(crate) fn nack_round(
        &mut self,
        now: SimTime,
        nack_delay: SimDuration,
        lost: &mut Vec<u16>,
    ) {
        let (mut asked, mut skip) = (0, 0);
        for (seq, slot) in (self.base..).zip(self.slots.iter_mut()) {
            if *slot & OPEN == 0 {
                continue;
            }
            while self
                .skips
                .get(skip + 1)
                .is_some_and(|&(start, _)| start <= seq)
            {
                skip += 1;
            }
            let first_seen = self.skips[skip].1;
            if asked == MAX_PER_ROUND || now.saturating_since(first_seen) < nack_delay {
                break;
            }
            if *slot >= MAX_ATTEMPTS * ATTEMPT {
                *slot &= !OPEN;
                continue;
            }
            *slot += ATTEMPT;
            lost.push((seq & 0xFFFF) as u16);
            asked += 1;
        }
        self.trim();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::*;

    /// One missing media sequence, as the reference lists it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Gap {
        seq: u64,
        first_seen: SimTime,
        attempts: u8,
    }

    impl GapTracker {
        /// The open gaps, ascending by sequence.
        fn gaps(&self) -> Vec<Gap> {
            (self.base..)
                .zip(&self.slots)
                .filter(|&(_, &slot)| slot & OPEN != 0)
                .map(|(seq, &slot)| Gap {
                    seq,
                    first_seen: self.skips.iter().rev().find(|s| s.0 <= seq).unwrap().1,
                    attempts: slot / ATTEMPT,
                })
                .collect()
        }
    }

    /// The tracker as it stood: two tree maps and the loop from
    /// `poll_rtcp_into`.
    #[derive(Default)]
    struct RefTracker {
        max_media_seq: Option<u64>,
        missing: BTreeMap<u64, SimTime>,
        nacked: BTreeMap<u64, u8>,
    }

    impl RefTracker {
        fn on_arrival(&mut self, now: SimTime, seq: u64) {
            match self.max_media_seq {
                None => self.max_media_seq = Some(seq),
                Some(max) if seq > max => {
                    for missing in (max + 1)..seq {
                        self.missing.entry(missing).or_insert(now);
                    }
                    self.max_media_seq = Some(seq);
                }
                Some(_) => self.fill(seq),
            }
        }

        fn fill(&mut self, seq: u64) {
            self.missing.remove(&seq);
            self.nacked.remove(&seq);
        }

        fn nack_round(&mut self, now: SimTime, nack_delay: SimDuration) -> Vec<u16> {
            let mut to_nack: Vec<u16> = Vec::new();
            let mut give_up: Vec<u64> = Vec::new();
            for (&seq, &first_seen) in &self.missing {
                if now.saturating_since(first_seen) < nack_delay {
                    continue;
                }
                let attempts = self.nacked.get(&seq).copied().unwrap_or(0);
                if attempts >= MAX_ATTEMPTS {
                    give_up.push(seq);
                    continue;
                }
                self.nacked.insert(seq, attempts + 1);
                to_nack.push((seq & 0xFFFF) as u16);
                if to_nack.len() >= 30 {
                    break;
                }
            }
            for seq in give_up {
                self.missing.remove(&seq);
                self.nacked.remove(&seq);
            }
            to_nack
        }

        fn gaps(&self) -> Vec<Gap> {
            self.missing
                .iter()
                .map(|(&seq, &first_seen)| Gap {
                    seq,
                    first_seen,
                    attempts: self.nacked.get(&seq).copied().unwrap_or(0),
                })
                .collect()
        }
    }

    /// The flat tracker and the reference, driven alike.
    struct Pair {
        new: GapTracker,
        old: RefTracker,
        now: SimTime,
        lost: Vec<u16>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                new: GapTracker::default(),
                old: RefTracker::default(),
                now: SimTime::ZERO,
                lost: Vec::new(),
            }
        }

        fn arrive(&mut self, seq: u64) {
            self.new.on_arrival(self.now, seq);
            self.old.on_arrival(self.now, seq);
        }

        fn fill(&mut self, seq: u64) {
            self.new.fill(seq);
            self.old.fill(seq);
        }

        /// One NACK round on both; the sequences asked for.
        fn round(&mut self, delay: SimDuration) -> usize {
            self.lost.clear();
            self.new.nack_round(self.now, delay, &mut self.lost);
            assert_eq!(self.lost, self.old.nack_round(self.now, delay));
            self.lost.len()
        }

        /// Asserts that both hold the same gaps, and that the flat tracker
        /// holds no slot in front of its oldest open gap: none at all once
        /// every gap has closed.
        fn assert_same(&self, at: &str) {
            assert_eq!(self.new.max_seq, self.old.max_media_seq, "{at}");
            assert_eq!(self.new.gaps(), self.old.gaps(), "{at}");
            let new = &self.new;
            assert!(
                new.slots.front().is_none_or(|&slot| slot & OPEN != 0),
                "{at}: a closed slot leads"
            );
            assert!(
                new.skips
                    .front()
                    .is_none_or(|&(start, _)| start <= new.base)
                    && new.skips.get(1).is_none_or(|&(start, _)| start > new.base),
                "{at}: the first skip does not cover the first slot"
            );
            if self.old.missing.is_empty() {
                assert!(
                    new.slots.is_empty() && new.skips.is_empty(),
                    "{at}: slots outlive the gaps"
                );
            }
        }
    }

    /// Reordering, duplicates, retransmissions that fill, FEC recoveries
    /// that fill, bursts of more than thirty gaps in one round, gaps given
    /// up on after [`MAX_ATTEMPTS`], and the 16-bit wrap of the NACKed
    /// sequence; then one gap held open across thousands of in-order
    /// arrivals and a jump of thousands of sequences, all closed again:
    /// the flat tracker against the two tree maps it replaced.
    #[test]
    fn flat_tracker_matches_the_tree_maps() {
        let delay = SimDuration::from_millis(60);
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut below = move |n: u64| rng.gen_range(0..n);
            let mut t = Pair::new();
            // Start below the wrap so the NACKed low bits cross it.
            let mut head = 65_000 + seed;
            let (mut rounds_capped, mut gave_up, mut filled) = (0, 0, 0);
            for step in 0..4_000u64 {
                t.now += SimDuration::from_micros(below(9_000));
                match below(16) {
                    // A NACK round.
                    0 | 1 => {
                        let open = t.old.missing.len();
                        rounds_capped += usize::from(t.round(delay) == 30);
                        gave_up += open - t.old.missing.len();
                    }
                    // Something behind the head arrives: a reordered or
                    // retransmitted packet, a duplicate, or a sequence
                    // that was never missing.
                    2..=5 => {
                        let open = t.old.missing.len();
                        t.arrive(head.saturating_sub(below(120)));
                        filled += open - t.old.missing.len();
                    }
                    // FEC rebuilds one.
                    6 => t.fill(head.saturating_sub(below(60))),
                    // The head advances: in order, past a few losses, or
                    // past a burst longer than one round may ask for.
                    _ => {
                        head += match below(40) {
                            0 => 35 + below(40),
                            1..=6 => 2 + below(4),
                            _ => 1,
                        };
                        t.arrive(head);
                    }
                }
                t.assert_same(&format!("seed {seed} step {step}"));
            }
            assert!(
                rounds_capped > 5 && gave_up > 50 && filled > 50,
                "seed {seed}: {rounds_capped} capped rounds, {gave_up} given up, {filled} filled"
            );

            // Everything still open arrives late.
            for gap in t.old.gaps() {
                t.fill(gap.seq);
            }
            t.assert_same(&format!("seed {seed}, all filled"));

            // One gap held open across thousands of in-order arrivals,
            // which store nothing, then a jump of thousands of sequences.
            let held = head + 1;
            head += 2;
            t.arrive(head);
            for _ in 0..3_000 + below(1_000) {
                t.now += SimDuration::from_micros(below(300));
                head += 1;
                t.arrive(head);
            }
            assert_eq!(
                t.new.slots.len(),
                1,
                "seed {seed}: in-order arrivals stored slots"
            );
            head += 2_000 + below(2_000);
            t.arrive(head);
            assert_eq!(t.new.slots.len() as u64, head - held, "seed {seed}");
            t.assert_same(&format!("seed {seed}, after the jump"));

            // They close in any order, between NACK rounds that ask for
            // and give up on some; the slots go with the last of them.
            let mut open: Vec<u64> = t.old.missing.keys().copied().collect();
            let mut step = 0;
            while !open.is_empty() {
                t.now += SimDuration::from_micros(below(2_000));
                if below(40) == 0 {
                    t.round(delay);
                    open.retain(|seq| t.old.missing.contains_key(seq));
                } else {
                    let seq = open.swap_remove(below(open.len() as u64) as usize);
                    t.fill(seq);
                }
                // Comparing thousands of gaps every step is quadratic.
                step += 1;
                if step % 64 == 0 || open.is_empty() {
                    t.assert_same(&format!("seed {seed} closing step {step}"));
                }
            }
            assert!(
                t.new.slots.is_empty(),
                "seed {seed}: slots outlive the gaps"
            );
        }
    }

    #[test]
    fn first_arrival_opens_no_gap() {
        let mut t = GapTracker::default();
        t.on_arrival(SimTime::ZERO, 500);
        assert!(t.slots.is_empty());
        assert_eq!(t.max_seq, Some(500));
    }
}
