//! The receiver's frame buffer (§2.1) and decode dependency tracking.
//!
//! Complete frames arrive from the packet buffer; the frame buffer hands
//! them to the decoder in order. A delta frame is decodable only if the
//! previous frame was decoded and its GOP's SPS arrived; a keyframe needs
//! only its SPS. When a frame goes missing and newer frames pile up, the
//! buffer purges the dependent chain and asks for a keyframe — the frame
//! drop + keyframe-request behaviour Table 1 of the paper measures. The
//! inter-arrival time of frames entering the buffer is the InterFrame
//! Delay (IFD) used by the QoE feedback.

use std::collections::{BTreeMap, BTreeSet};

use converge_net::{SimDuration, SimTime};

use crate::types::{CompleteFrame, FrameType};

/// Events the frame buffer reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBufferEvent {
    /// A frame was released to the decoder.
    Decoded {
        /// The decoded frame.
        frame: CompleteFrame,
        /// When it was released.
        at: SimTime,
    },
    /// A frame (and possibly its dependent chain) was abandoned.
    Dropped {
        /// Frame id abandoned.
        frame_id: u64,
        /// Why.
        reason: DropReason,
    },
    /// The receiver must request a keyframe to resynchronize.
    KeyframeNeeded,
    /// A new frame entered the buffer; `ifd` is the gap since the previous
    /// frame entered (None for the first frame).
    FrameEntered {
        /// Frame id that entered.
        frame_id: u64,
        /// Interframe delay at entry.
        ifd: Option<SimDuration>,
    },
}

/// Why a frame was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A frame it depends on never became decodable.
    BrokenDependency,
    /// The buffer was full and this was the oldest unplayable frame.
    BufferFull,
    /// The frame's GOP SPS never arrived.
    MissingSps,
    /// The frame predates the current decode position (arrived too late).
    TooOld,
}

/// Bounded reorder/dependency buffer for one stream.
#[derive(Debug)]
pub struct FrameBuffer {
    capacity_frames: usize,
    /// Complete frames waiting for decode, keyed by frame id.
    pending: BTreeMap<u64, CompleteFrame>,
    /// GOPs whose SPS has been received.
    sps_seen: BTreeSet<u64>,
    /// Next frame id the decoder expects; None until the first keyframe.
    next_decode: Option<u64>,
    /// Entry time of the last frame that entered the buffer (IFD reference).
    last_entry: Option<SimTime>,
    /// Frames the buffer has given up on (so late completions are dropped).
    abandoned_before: u64,
}

impl FrameBuffer {
    /// Creates a buffer holding at most `capacity_frames` pending frames.
    pub fn new(capacity_frames: usize) -> Self {
        FrameBuffer {
            capacity_frames: capacity_frames.max(1),
            pending: BTreeMap::new(),
            sps_seen: BTreeSet::new(),
            next_decode: None,
            last_entry: None,
            abandoned_before: 0,
        }
    }

    /// Frames currently waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no frames wait.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Records that the SPS for `gop_id` arrived.
    pub fn sps_received(&mut self, gop_id: u64) {
        self.sps_seen.insert(gop_id);
    }

    /// Whether the SPS for `gop_id` has arrived.
    pub fn has_sps(&self, gop_id: u64) -> bool {
        self.sps_seen.contains(&gop_id)
    }

    /// Frame ids of packets the buffer no longer wants (already abandoned);
    /// lets the owner purge the packet buffer.
    pub fn is_abandoned(&self, frame_id: u64) -> bool {
        frame_id < self.abandoned_before
    }

    /// The decode/abandon position: every frame id below it has been
    /// decoded or given up on, and can never decode (again).
    pub fn abandoned_before(&self) -> u64 {
        self.abandoned_before
    }

    /// Inserts a complete frame and drains everything now decodable.
    pub fn insert(&mut self, now: SimTime, frame: CompleteFrame) -> Vec<FrameBufferEvent> {
        let mut events = Vec::new();
        self.insert_into(now, frame, &mut events);
        events
    }

    /// [`FrameBuffer::insert`], appending the events to `events` so a
    /// per-frame caller can reuse one buffer.
    pub fn insert_into(
        &mut self,
        now: SimTime,
        frame: CompleteFrame,
        events: &mut Vec<FrameBufferEvent>,
    ) {
        if self.is_abandoned(frame.frame_id) {
            events.push(FrameBufferEvent::Dropped {
                frame_id: frame.frame_id,
                reason: DropReason::TooOld,
            });
            return;
        }

        let ifd = self.last_entry.map(|prev| now.saturating_since(prev));
        self.last_entry = Some(now);
        events.push(FrameBufferEvent::FrameEntered {
            frame_id: frame.frame_id,
            ifd,
        });

        self.pending.insert(frame.frame_id, frame);
        self.drain(now, events);

        // Enforce capacity: if the buffer is still over-full, the decoder is
        // stuck waiting on a missing frame. Purge the blocked chain up to
        // the next keyframe and request a refresh.
        while self.pending.len() > self.capacity_frames {
            self.abandon_blocked_chain(events);
            self.drain(now, events);
        }
    }

    /// Releases every frame that is decodable in order.
    fn drain(&mut self, now: SimTime, events: &mut Vec<FrameBufferEvent>) {
        loop {
            let Some((&first_id, frame)) = self.pending.iter().next() else {
                return;
            };
            let frame = *frame;
            match self.next_decode {
                // Before the first decode, we need a keyframe to start.
                None => {
                    if frame.frame_type == FrameType::Key && self.has_sps(frame.gop_id) {
                        self.decode(first_id, now, events);
                    } else if frame.frame_type == FrameType::Key {
                        // Keyframe waiting on SPS: hold.
                        return;
                    } else {
                        // Delta before any keyframe: useless.
                        self.pending.remove(&first_id);
                        self.abandoned_before = self.abandoned_before.max(first_id + 1);
                        events.push(FrameBufferEvent::Dropped {
                            frame_id: first_id,
                            reason: DropReason::BrokenDependency,
                        });
                        events.push(FrameBufferEvent::KeyframeNeeded);
                    }
                }
                Some(expect) => {
                    if first_id < expect {
                        // Shouldn't happen (abandoned_before guards), but be
                        // safe: frame is too old.
                        self.pending.remove(&first_id);
                        events.push(FrameBufferEvent::Dropped {
                            frame_id: first_id,
                            reason: DropReason::TooOld,
                        });
                        continue;
                    }
                    if first_id == expect {
                        if self.has_sps(frame.gop_id) {
                            self.decode(first_id, now, events);
                            continue;
                        }
                        // Complete but SPS missing: hold (it may still come).
                        return;
                    }
                    // first_id > expect: a keyframe can restart decode
                    // immediately; a delta must wait for `expect`.
                    if frame.frame_type == FrameType::Key && self.has_sps(frame.gop_id) {
                        // Everything before the keyframe is now moot.
                        self.abandoned_before = self.abandoned_before.max(first_id);
                        self.decode(first_id, now, events);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    fn decode(&mut self, frame_id: u64, now: SimTime, events: &mut Vec<FrameBufferEvent>) {
        let frame = self.pending.remove(&frame_id).expect("frame present");
        self.next_decode = Some(frame_id + 1);
        self.abandoned_before = self.abandoned_before.max(frame_id + 1);
        events.push(FrameBufferEvent::Decoded { frame, at: now });
    }

    /// The decoder is blocked on a missing frame (or missing SPS). Abandon
    /// pending frames up to the next usable keyframe and request a refresh.
    fn abandon_blocked_chain(&mut self, events: &mut Vec<FrameBufferEvent>) {
        // Find the first pending keyframe whose SPS we have.
        let restart = self
            .pending
            .iter()
            .find(|(_, f)| f.frame_type == FrameType::Key && self.has_sps(f.gop_id))
            .map(|(&id, _)| id);

        let cut = restart.unwrap_or(u64::MAX);
        let doomed: Vec<u64> = self.pending.range(..cut).map(|(&id, _)| id).collect();
        if doomed.is_empty() && restart.is_none() {
            // Nothing to abandon and no keyframe: drop the oldest pending
            // frame outright to guarantee progress.
            if let Some((&id, _)) = self.pending.iter().next() {
                self.pending.remove(&id);
                self.abandoned_before = self.abandoned_before.max(id + 1);
                events.push(FrameBufferEvent::Dropped {
                    frame_id: id,
                    reason: DropReason::BufferFull,
                });
            }
            events.push(FrameBufferEvent::KeyframeNeeded);
            return;
        }
        for id in doomed {
            let f = self.pending.remove(&id).expect("pending");
            let reason = if self.has_sps(f.gop_id) {
                DropReason::BrokenDependency
            } else {
                DropReason::MissingSps
            };
            events.push(FrameBufferEvent::Dropped {
                frame_id: id,
                reason,
            });
        }
        if let Some(k) = restart {
            self.abandoned_before = self.abandoned_before.max(k);
            // Decoder will restart at the keyframe on the next drain.
            self.next_decode = Some(k);
        } else {
            // No keyframe available at all: resynchronize from the sender.
            self.abandoned_before = self.abandoned_before.max(self.next_decode.unwrap_or(0));
            events.push(FrameBufferEvent::KeyframeNeeded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamId;

    fn frame(frame_id: u64, gop_id: u64, ft: FrameType, at_ms: u64) -> CompleteFrame {
        CompleteFrame {
            stream: StreamId(0),
            frame_id,
            gop_id,
            frame_type: ft,
            size: 4000,
            capture_time: SimTime::from_millis(frame_id * 33),
            first_arrival: SimTime::from_millis(at_ms),
            completed_at: SimTime::from_millis(at_ms),
        }
    }

    fn decoded_ids(events: &[FrameBufferEvent]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                FrameBufferEvent::Decoded { frame, .. } => Some(frame.frame_id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn decodes_in_order_after_keyframe() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        let mut all = Vec::new();
        all.extend(fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0)));
        all.extend(fb.insert(SimTime::from_millis(33), frame(1, 0, FrameType::Delta, 33)));
        all.extend(fb.insert(SimTime::from_millis(66), frame(2, 0, FrameType::Delta, 66)));
        assert_eq!(decoded_ids(&all), vec![0, 1, 2]);
    }

    #[test]
    fn delta_before_keyframe_dropped_and_keyframe_requested() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        let evs = fb.insert(SimTime::ZERO, frame(1, 0, FrameType::Delta, 0));
        assert!(evs.contains(&FrameBufferEvent::Dropped {
            frame_id: 1,
            reason: DropReason::BrokenDependency
        }));
        assert!(evs.contains(&FrameBufferEvent::KeyframeNeeded));
    }

    #[test]
    fn out_of_order_insert_reorders() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        let mut all = Vec::new();
        all.extend(fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0)));
        // Frame 2 arrives before frame 1.
        all.extend(fb.insert(SimTime::from_millis(50), frame(2, 0, FrameType::Delta, 50)));
        assert_eq!(decoded_ids(&all), vec![0]);
        all.extend(fb.insert(SimTime::from_millis(60), frame(1, 0, FrameType::Delta, 60)));
        assert_eq!(decoded_ids(&all), vec![0, 1, 2]);
    }

    #[test]
    fn missing_sps_holds_keyframe_until_it_arrives() {
        let mut fb = FrameBuffer::new(10);
        let evs = fb.insert(SimTime::ZERO, frame(0, 0, FrameType::Key, 0));
        assert!(decoded_ids(&evs).is_empty());
        fb.sps_received(0);
        // Next insert triggers a drain that releases both.
        let evs = fb.insert(SimTime::from_millis(33), frame(1, 0, FrameType::Delta, 33));
        assert_eq!(decoded_ids(&evs), vec![0, 1]);
    }

    #[test]
    fn later_keyframe_restarts_decode() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        fb.sps_received(1);
        let mut all = Vec::new();
        all.extend(fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0)));
        // Frame 1 lost forever; keyframe 2 (new GOP) arrives.
        all.extend(fb.insert(SimTime::from_millis(90), frame(2, 1, FrameType::Key, 90)));
        assert_eq!(decoded_ids(&all), vec![0, 2]);
        // Late frame 1 is now too old.
        let evs = fb.insert(SimTime::from_millis(95), frame(1, 0, FrameType::Delta, 95));
        assert!(evs.contains(&FrameBufferEvent::Dropped {
            frame_id: 1,
            reason: DropReason::TooOld
        }));
    }

    #[test]
    fn buffer_overflow_purges_blocked_chain_and_requests_keyframe() {
        let mut fb = FrameBuffer::new(3);
        fb.sps_received(0);
        let mut all = Vec::new();
        all.extend(fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0)));
        // Frame 1 never completes. Deltas 2..=5 pile up.
        for id in 2..=5 {
            all.extend(fb.insert(
                SimTime::from_millis(id * 33),
                frame(id, 0, FrameType::Delta, id * 33),
            ));
        }
        let dropped: Vec<u64> = all
            .iter()
            .filter_map(|e| match e {
                FrameBufferEvent::Dropped { frame_id, .. } => Some(*frame_id),
                _ => None,
            })
            .collect();
        assert!(!dropped.is_empty(), "chain should be purged: {all:?}");
        assert!(all.contains(&FrameBufferEvent::KeyframeNeeded));
        // Decoded only the keyframe.
        assert_eq!(decoded_ids(&all), vec![0]);
    }

    #[test]
    fn recovery_after_purge_via_new_keyframe() {
        let mut fb = FrameBuffer::new(3);
        fb.sps_received(0);
        fb.sps_received(1);
        fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0));
        for id in 2..=5 {
            fb.insert(
                SimTime::from_millis(id * 33),
                frame(id, 0, FrameType::Delta, id * 33),
            );
        }
        // Sender responds with a fresh keyframe (new GOP).
        let evs = fb.insert(SimTime::from_millis(300), frame(6, 1, FrameType::Key, 300));
        assert_eq!(decoded_ids(&evs), vec![6]);
    }

    #[test]
    fn ifd_reported_between_entries() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        let e1 = fb.insert(SimTime::from_millis(100), frame(0, 0, FrameType::Key, 100));
        let ifd1 = e1.iter().find_map(|e| match e {
            FrameBufferEvent::FrameEntered { ifd, .. } => Some(*ifd),
            _ => None,
        });
        assert_eq!(ifd1, Some(None));
        let e2 = fb.insert(
            SimTime::from_millis(150),
            frame(1, 0, FrameType::Delta, 150),
        );
        let ifd2 = e2.iter().find_map(|e| match e {
            FrameBufferEvent::FrameEntered { ifd, .. } => Some(*ifd),
            _ => None,
        });
        assert_eq!(ifd2, Some(Some(SimDuration::from_millis(50))));
    }

    #[test]
    fn abandoned_frames_flagged_for_packet_buffer_purge() {
        let mut fb = FrameBuffer::new(10);
        fb.sps_received(0);
        fb.sps_received(1);
        fb.insert(SimTime::from_millis(0), frame(0, 0, FrameType::Key, 0));
        fb.insert(SimTime::from_millis(90), frame(3, 1, FrameType::Key, 90));
        // Frames 1 and 2 were skipped by the keyframe restart.
        assert!(fb.is_abandoned(1));
        assert!(fb.is_abandoned(2));
        assert!(!fb.is_abandoned(4));
    }
}
