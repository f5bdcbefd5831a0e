//! NACK gap tracking for one stream's media sequence space.
//!
//! Gaps are only ever discovered in ascending order (everything between
//! the newest sequence and a newer arrival), so one sequence-sorted deque
//! holds them: a discovery appends, a fill is a binary search, a NACK
//! round is one pass. Paths of different delay reorder by construction —
//! every packet the slow path delivers behind the fast one opens a gap and
//! closes it again — so this runs per packet, not per loss.

use std::collections::VecDeque;

use converge_net::{SimDuration, SimTime};

/// NACK attempts before a gap is given up on. A retransmission on a
/// 10 %-loss path is lost as often as its original, and two attempts leave
/// about a quarter of a one-stream call's 35-packet frames a packet short.
const MAX_ATTEMPTS: u8 = 3;
/// Most sequences one NACK round asks for.
const MAX_PER_ROUND: usize = 30;

/// One missing media sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gap {
    seq: u64,
    /// When the gap was first noticed.
    first_seen: SimTime,
    /// NACKs sent for it so far.
    attempts: u8,
}

/// The media sequences of one stream that are missing and still wanted.
#[derive(Debug, Default)]
pub(crate) struct GapTracker {
    /// Highest media sequence seen.
    max_seq: Option<u64>,
    /// Open gaps, ascending by sequence.
    gaps: VecDeque<Gap>,
}

impl GapTracker {
    /// A media packet arrived: every sequence it skipped past becomes a
    /// gap; one at or behind the newest fills its gap (a reordered or
    /// retransmitted packet).
    pub(crate) fn on_arrival(&mut self, now: SimTime, seq: u64) {
        match self.max_seq {
            Some(max) if seq <= max => self.fill(seq),
            max => {
                let skipped = max.map_or(seq, |max| max + 1)..seq;
                self.gaps.extend(skipped.map(|seq| Gap {
                    seq,
                    first_seen: now,
                    attempts: 0,
                }));
                self.max_seq = Some(seq);
            }
        }
    }

    /// `seq` no longer needs NACKing (it arrived, or FEC rebuilt it).
    pub(crate) fn fill(&mut self, seq: u64) {
        if let Ok(at) = self.gaps.binary_search_by_key(&seq, |g| g.seq) {
            self.gaps.remove(at);
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
        let mut asked = 0;
        self.gaps.retain_mut(|gap| {
            if asked >= MAX_PER_ROUND || now.saturating_since(gap.first_seen) < nack_delay {
                return true;
            }
            if gap.attempts >= MAX_ATTEMPTS {
                return false;
            }
            gap.attempts += 1;
            lost.push((gap.seq & 0xFFFF) as u16);
            asked += 1;
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::*;

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

    /// Reordering, duplicates, retransmissions that fill, FEC recoveries
    /// that fill, bursts of more than thirty gaps in one round, gaps given
    /// up on after [`MAX_ATTEMPTS`], and the 16-bit wrap of the NACKed
    /// sequence: the flat tracker against the two tree maps it replaced.
    #[test]
    fn flat_tracker_matches_the_tree_maps() {
        let delay = SimDuration::from_millis(60);
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut below = move |n: u64| rng.gen_range(0..n);
            let (mut new, mut old) = (GapTracker::default(), RefTracker::default());
            // Start below the wrap so the NACKed low bits cross it.
            let mut head = 65_000 + seed;
            let mut now = SimTime::ZERO;
            let (mut rounds_capped, mut gave_up, mut filled) = (0, 0, 0);
            let mut lost = Vec::new();
            for step in 0..4_000u64 {
                now += SimDuration::from_micros(below(9_000));
                match below(16) {
                    // A NACK round.
                    0 | 1 => {
                        lost.clear();
                        let open = new.gaps.len();
                        new.nack_round(now, delay, &mut lost);
                        assert_eq!(lost, old.nack_round(now, delay), "seed {seed} step {step}");
                        rounds_capped += usize::from(lost.len() == 30);
                        gave_up += open - new.gaps.len();
                    }
                    // Something behind the head arrives: a reordered or
                    // retransmitted packet, a duplicate, or a sequence
                    // that was never missing.
                    2..=5 => {
                        let seq = head.saturating_sub(below(120));
                        let open = new.gaps.len();
                        new.on_arrival(now, seq);
                        old.on_arrival(now, seq);
                        filled += open - new.gaps.len();
                    }
                    // FEC rebuilds one.
                    6 => {
                        let seq = head.saturating_sub(below(60));
                        new.fill(seq);
                        old.fill(seq);
                    }
                    // The head advances: in order, past a few losses, or
                    // past a burst longer than one round may ask for.
                    _ => {
                        head += match below(40) {
                            0 => 35 + below(40),
                            1..=6 => 2 + below(4),
                            _ => 1,
                        };
                        new.on_arrival(now, head);
                        old.on_arrival(now, head);
                    }
                }
                assert_eq!(new.max_seq, old.max_media_seq, "seed {seed} step {step}");
                assert!(
                    new.gaps.iter().eq(old.gaps().iter()),
                    "seed {seed} step {step}"
                );
            }
            assert!(
                rounds_capped > 5 && gave_up > 50 && filled > 50,
                "seed {seed}: {rounds_capped} capped rounds, {gave_up} given up, {filled} filled"
            );
        }
    }

    #[test]
    fn first_arrival_opens_no_gap() {
        let mut t = GapTracker::default();
        t.on_arrival(SimTime::ZERO, 500);
        assert!(t.gaps.is_empty());
        assert_eq!(t.max_seq, Some(500));
    }
}
