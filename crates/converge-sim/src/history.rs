//! What the sender remembers about the packets it sent.
//!
//! Two histories, both rings indexed by the low bits of a sequence number
//! so that remembering a packet is one indexed store:
//!
//! - [`MediaHistory`], per stream: what a NACK needs to retransmit a media
//!   packet and to attribute its loss to a path. A sent packet is a pure
//!   function of its frame ([`Packetizer::packet_at`]), so the ring keeps
//!   one byte per sequence — the path it took — and the packet itself is
//!   rebuilt from a 24-byte per-frame record when a NACK asks for it.
//! - [`FeedbackRing`], per path: send time and size of each transport
//!   sequence, for matching transport feedback into packet timings, in six
//!   bytes a sequence.
//!
//! Both rings are written in strictly increasing sequence order, so which
//! sequence a slot holds follows from the newest one written: a slot
//! stores no sequence bits, and a hit is a range check against the newest,
//! never assumed from the index alone.

use std::collections::VecDeque;

use converge_net::{PathId, SimTime};
use converge_video::{EncodedFrame, FrameType, PacketizedFrame, Packetizer, StreamId, VideoPacket};

/// One stream's retransmission history: the newest `slots` media
/// sequences the stream sent, each with the path it travelled.
///
/// Slot `i` holds the path of the newest remembered sequence whose low
/// bits are `i`; `frames` holds the record of every frame that still has a
/// sequence inside that window, oldest first. Sequences are remembered in
/// increasing order and every packet of a begun frame is remembered, so
/// the sequence a NACK's 16 bits name is the newest one below `next` with
/// those bits, and it is in the ring iff it lies inside the window and
/// inside a frame record. A lookup answers exactly what a ring of whole
/// packets would — the packet, if it is among the newest `slots`
/// sequences — except that a sequence WebRTC-CM consumed without sending
/// (it drops whole batches during a blackout, and a dropped batch begins
/// no frame) answers `None` instead of a packet `slots` or more sequences
/// older than the one asked for.
#[derive(Debug)]
pub(crate) struct MediaHistory {
    paths: Box<[PathId]>,
    frames: VecDeque<FrameRecord>,
    /// One past the newest remembered sequence (0 before the first).
    next: u64,
}

// The point of the slot is its size: the path id alone.
const _: () = assert!(std::mem::size_of::<PathId>() == 1);

impl MediaHistory {
    /// A history of the newest `slots` sequences.
    ///
    /// # Panics
    /// Panics unless `slots` is a power of two no larger than 65 536 (a
    /// NACK names a sequence by its low 16 bits, so a larger ring could
    /// not be addressed).
    pub(crate) fn new(slots: usize) -> Self {
        assert!(
            slots.is_power_of_two() && slots <= 1 << 16,
            "media history of {slots} slots"
        );
        MediaHistory {
            paths: vec![PathId(0); slots].into_boxed_slice(),
            frames: VecDeque::new(),
            next: 0,
        }
    }

    /// Starts remembering the packets of `frame`; the caller follows with
    /// one [`MediaHistory::remember`] per packet of it, in order. Frames
    /// arrive in sequence order.
    ///
    /// # Panics
    /// Panics past any of the bounds in [`FrameRecord`]'s docs.
    pub(crate) fn begin_frame(&mut self, frame: PacketizedFrame) {
        debug_assert!(self.next <= frame.first_sequence);
        debug_assert!(
            self.frames.back().is_none_or(|f| f.end() == self.next),
            "every packet of the previous frame must be remembered"
        );
        let record = FrameRecord::new(&frame);
        // A frame whose last sequence is a full ring behind the newest one
        // can never be looked up again.
        let window = self.paths.len() as u64;
        while self
            .frames
            .front()
            .is_some_and(|oldest| oldest.end() + window <= self.next)
        {
            self.frames.pop_front();
        }
        self.frames.push_back(record);
    }

    /// Remembers that `sequence`, the next packet of the frame last begun,
    /// went out on `path`.
    pub(crate) fn remember(&mut self, sequence: u64, path: PathId) {
        debug_assert!(
            self.frames
                .back()
                .is_some_and(|f| sequence == f.first().max(self.next) && sequence < f.end()),
            "sequence {sequence} is not the next packet of the frame last begun"
        );
        let mask = self.paths.len() - 1;
        self.paths[sequence as usize & mask] = path;
        self.next = sequence + 1;
    }

    /// The remembered packet whose sequence ends in `seq16`, rebuilt by
    /// the stream's `packetizer`, and the path it was sent on.
    pub(crate) fn lookup(
        &self,
        packetizer: &Packetizer,
        seq16: u16,
    ) -> Option<(VideoPacket, PathId)> {
        let newest = self.next.checked_sub(1)?;
        // The newest sequence up to `newest` that ends in `seq16`; any
        // older one is 65 536 or more behind, outside every ring.
        let behind = u64::from((newest as u16).wrapping_sub(seq16));
        if behind >= self.paths.len() as u64 {
            return None;
        }
        let sequence = newest.checked_sub(behind)?;
        let after = self.frames.partition_point(|f| f.first() <= sequence);
        let frame = self.frames.get(after.checked_sub(1)?)?;
        // Past the frame's end, `sequence` belongs to a dropped batch.
        if sequence >= frame.end() {
            return None;
        }
        #[cfg(test)]
        lookback::note_media(behind);
        let n = (sequence - frame.first()) as u32;
        let mask = self.paths.len() - 1;
        Some((
            packetizer.packet_at(&frame.packetized(), n),
            self.paths[sequence as usize & mask],
        ))
    }
}

/// What [`Packetizer::packet_at`] reads of a [`PacketizedFrame`], in 24
/// bytes instead of 56: the encoder's QP and frame height are dropped and
/// every other field is narrowed. Narrowing bounds what a record can hold
/// — sequences, frame and GOP ids below 2^32, frames under 4 GiB, capture
/// times below 2^32 µs (71.6 minutes of simulated time, the bound
/// [`FeedbackRing`] already puts on every call) and 65 535 packets a frame
/// — and [`FrameRecord::new`] panics past any of them rather than store a
/// truncated value.
#[derive(Debug, Clone, Copy)]
struct FrameRecord {
    first_sequence: u32,
    frame_id: u32,
    gop_id: u32,
    size: u32,
    capture_us: u32,
    packet_count: u16,
    stream: u8,
    /// [`FrameRecord::KEY`] | [`FrameRecord::SPS`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<FrameRecord>() <= 24);

/// `value` as a `T`, or a panic naming the record field and its bound.
fn narrow<T: TryFrom<u64>>(value: u64, field: &str, bound: &str) -> T {
    T::try_from(value)
        .unwrap_or_else(|_| panic!("{field} {value} is past the frame record's {bound}"))
}

impl FrameRecord {
    /// The frame is a keyframe.
    const KEY: u8 = 1;
    /// The frame leads with an SPS packet.
    const SPS: u8 = 2;

    fn new(p: &PacketizedFrame) -> Self {
        let frame = &p.frame;
        let mut flags = 0;
        if frame.frame_type == FrameType::Key {
            flags |= Self::KEY;
        }
        if p.has_sps {
            flags |= Self::SPS;
        }
        FrameRecord {
            first_sequence: narrow(p.first_sequence, "media sequence", "32 bits"),
            frame_id: narrow(frame.frame_id, "frame id", "32 bits"),
            gop_id: narrow(frame.gop_id, "GOP id", "32 bits"),
            size: narrow(frame.size as u64, "frame size", "32 bits"),
            capture_us: narrow(
                frame.capture_time.as_micros(),
                "capture time (µs)",
                "32-bit microsecond clock (71.6 min)",
            ),
            packet_count: narrow(u64::from(p.packet_count), "packet count", "65 535"),
            stream: frame.stream.0,
            flags,
        }
    }

    /// The frame's first sequence.
    fn first(&self) -> u64 {
        u64::from(self.first_sequence)
    }

    /// One past the frame's last sequence.
    fn end(&self) -> u64 {
        self.first() + u64::from(self.packet_count)
    }

    /// The record widened back into what [`Packetizer::packet_at`] takes.
    fn packetized(&self) -> PacketizedFrame {
        PacketizedFrame {
            frame: EncodedFrame {
                stream: StreamId(self.stream),
                frame_id: u64::from(self.frame_id),
                gop_id: u64::from(self.gop_id),
                frame_type: if self.flags & Self::KEY != 0 {
                    FrameType::Key
                } else {
                    FrameType::Delta
                },
                size: self.size as usize,
                // `packet_at` reads neither.
                qp: 0,
                height: 0,
                capture_time: SimTime::from_micros(u64::from(self.capture_us)),
            },
            first_sequence: self.first(),
            packet_count: u32::from(self.packet_count),
            has_sps: self.flags & Self::SPS != 0,
        }
    }
}

/// How far behind the newest sequence look-ups reach: a test-only tally,
/// so the horizon the rings must cover is measured, not guessed.
#[cfg(test)]
pub(crate) mod lookback {
    use std::cell::Cell;

    thread_local! {
        static MEDIA: Cell<u64> = const { Cell::new(0) };
        static FEEDBACK: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn note_media(behind: u64) {
        MEDIA.with(|f| f.set(f.get().max(behind)));
    }

    pub(super) fn note_feedback(behind: u64) {
        FEEDBACK.with(|f| f.set(f.get().max(behind)));
    }

    /// The farthest NACK hit and the farthest transport-feedback hit on
    /// this thread since the last call, in sequences behind the newest of
    /// the stream and of the path.
    pub(crate) fn take() -> (u64, u64) {
        (
            MEDIA.with(|f| f.replace(0)),
            FEEDBACK.with(|f| f.replace(0)),
        )
    }
}

/// One sent transport sequence awaiting feedback.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct SentSlot {
    /// Send time in microseconds of simulated time.
    send_us: u32,
    /// Wire size in bytes; 0 marks a slot never written or already taken.
    size: u16,
}

// The point of the slot is its size: three quarters of the word it
// replaced, and no sequence bits.
const _: () = assert!(std::mem::size_of::<SentSlot>() == 6);

impl SentSlot {
    const EMPTY: SentSlot = SentSlot {
        send_us: 0,
        size: 0,
    };
}

/// One path's sent transport sequences, for matching transport feedback:
/// slot `transport_seq % slots` holds the send time and wire size of the
/// newest sequence with that residue. Sequences are handed out
/// consecutively, so that slot holds `transport_seq` iff it is one of the
/// newest `slots` sent; a match is taken out of the slot (its size set to
/// 0) so duplicated feedback cannot yield a timing twice.
///
/// A slot is six bytes, which bounds what a ring can record: send times
/// below 2^32 µs (71.6 minutes of simulated time) and packets of 1 to
/// 65 535 bytes (no RTP packet is empty on the wire, and size 0 marks an
/// empty slot). [`FeedbackRing::send`] panics past any of them rather than
/// record a truncated value.
#[derive(Debug)]
pub(crate) struct FeedbackRing {
    slots: Box<[SentSlot]>,
    next_transport_seq: u64,
    /// Highest transport sequence acknowledged so far, for unwrapping the
    /// 16-bit sequence numbers feedback carries on the wire.
    highest_acked: u64,
}

impl FeedbackRing {
    /// A ring of `slots` sequences.
    ///
    /// # Panics
    /// Panics unless `slots` is a power of two.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "feedback ring of {slots} slots");
        FeedbackRing {
            slots: vec![SentSlot::EMPTY; slots].into_boxed_slice(),
            next_transport_seq: 0,
            highest_acked: 0,
        }
    }

    /// Records a packet of `size` bytes on the wire leaving at `send_time`
    /// and returns the transport sequence it carries.
    ///
    /// # Panics
    /// Panics past any of the bounds in the type's docs.
    pub(crate) fn send(&mut self, send_time: SimTime, size: usize) -> u64 {
        let send_us = u32::try_from(send_time.as_micros()).unwrap_or_else(|_| {
            panic!(
                "send time {} µs is past the ring's 32-bit microsecond clock (71.6 min)",
                send_time.as_micros()
            )
        });
        let size = u16::try_from(size)
            .unwrap_or_else(|_| panic!("a packet of {size} bytes is past the ring's 65 535"));
        assert!(size > 0, "a packet of 0 bytes: size 0 marks an empty slot");
        let transport_seq = self.next_transport_seq;
        self.next_transport_seq += 1;
        let mask = self.slots.len() - 1;
        self.slots[transport_seq as usize & mask] = SentSlot { send_us, size };
        transport_seq
    }

    /// Feedback arrived for the packet whose transport sequence ends in
    /// `seq16`: takes out its send time and size, if it is still one of
    /// the newest `slots` sent and no earlier feedback matched it.
    pub(crate) fn take(&mut self, seq16: u16) -> Option<(SimTime, usize)> {
        let transport_seq = unwrap_seq16(seq16, self.highest_acked);
        self.highest_acked = self.highest_acked.max(transport_seq);
        let sent = self.next_transport_seq;
        if transport_seq >= sent || sent - transport_seq > self.slots.len() as u64 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[transport_seq as usize & mask];
        if slot.size == 0 {
            return None;
        }
        #[cfg(test)]
        lookback::note_feedback(sent - 1 - transport_seq);
        let hit = (
            SimTime::from_micros(u64::from(slot.send_us)),
            usize::from(slot.size),
        );
        *slot = SentSlot::EMPTY;
        Some(hit)
    }
}

/// Reconstructs a full 64-bit sequence from its low 16 bits, choosing the
/// candidate nearest to `reference` (handles the wrap at 65 536 packets,
/// which a 9 Mbps path crosses after ~2 minutes).
fn unwrap_seq16(seq16: u16, reference: u64) -> u64 {
    let base = reference & !0xFFFF;
    let candidates = [
        base.wrapping_sub(0x1_0000) | seq16 as u64,
        base | seq16 as u64,
        base.wrapping_add(0x1_0000) | seq16 as u64,
    ];
    candidates
        .into_iter()
        .min_by_key(|c| c.abs_diff(reference))
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use converge_video::PacketizerConfig;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::*;

    /// The media history as it stood: a ring of whole packets, confirmed
    /// by the stored packet's low 16 bits.
    struct RefMediaRing(Box<[Option<(VideoPacket, PathId)>]>);

    impl RefMediaRing {
        fn remember(&mut self, p: &VideoPacket, path: PathId) {
            let mask = self.0.len() - 1;
            self.0[p.sequence as usize & mask] = Some((*p, path));
        }

        fn lookup(&self, seq16: u16) -> Option<(VideoPacket, PathId)> {
            let (p, path) = self.0[seq16 as usize & (self.0.len() - 1)]?;
            ((p.sequence & 0xFFFF) as u16 == seq16).then_some((p, path))
        }
    }

    /// 4 000 frames per seed — keyframes with SPS, one-packet and zero-byte
    /// frames, one frame in ten dropped whole after it took its sequences —
    /// each followed by NACKs for recent, just-pruned, dropped, aliased and
    /// arbitrary suffixes. Every answer equals the packet ring's, except
    /// where that ring answers with a packet a full ring or more behind
    /// the newest: there the history must answer `None`.
    #[test]
    fn media_history_matches_the_packet_ring() {
        let (mut hits, mut stale) = ([0u64; 2], [0u64; 2]);
        for seed in 0..8u64 {
            let which = (seed % 2) as usize;
            let slots = [1usize << 16, 1 << 11][which];
            let mut rng = SmallRng::seed_from_u64(0x415_7047 + seed);
            let mut packetizer = Packetizer::new(PacketizerConfig);
            let mut history = MediaHistory::new(slots);
            let mut reference = RefMediaRing(vec![None; slots].into_boxed_slice());
            let mut packets = Vec::new();
            let mut dropped: Vec<u64> = Vec::new();
            // One past the newest remembered sequence.
            let mut next = 0u64;
            let mut gop_id = 0;
            for frame_id in 0..4_000u64 {
                let key = frame_id == 0 || rng.gen_bool(0.04);
                gop_id += u64::from(key && frame_id > 0);
                let frame = EncodedFrame {
                    stream: StreamId(0),
                    frame_id,
                    gop_id,
                    frame_type: if key {
                        FrameType::Key
                    } else {
                        FrameType::Delta
                    },
                    size: match rng.gen_range(0..8) {
                        0 => 0,
                        1 => rng.gen_range(1..1_200),
                        _ => rng.gen_range(1_200..120_000),
                    },
                    qp: rng.gen_range(10..50),
                    height: 720,
                    capture_time: SimTime::from_micros(frame_id * 33_333),
                };
                packets.clear();
                let packetized = packetizer.packetize_into(&frame, &mut packets);
                if rng.gen_bool(0.1) {
                    dropped.extend(packets.iter().map(|p| p.sequence));
                } else {
                    history.begin_frame(packetized);
                    for p in &packets {
                        let path = PathId(rng.gen_range(0..8));
                        history.remember(p.sequence, path);
                        reference.remember(p, path);
                    }
                    next = packetizer.next_sequence();
                }
                for _ in 0..rng.gen_range(0..6) {
                    let window = slots as u64;
                    let sequence = match rng.gen_range(0..6) {
                        // Inside the window, around its far edge, beyond it.
                        0 | 1 => next.saturating_sub(rng.gen_range(0..window + window / 4)),
                        2 => (next + 64).saturating_sub(window + rng.gen_range(0..128)),
                        // A sequence a dropped frame consumed.
                        3 if !dropped.is_empty() => dropped[rng.gen_range(0..dropped.len())],
                        // One or two generations off a recent one.
                        4 => {
                            next.saturating_sub(rng.gen_range(0..64)) + window * rng.gen_range(1..3)
                        }
                        _ => rng.gen(),
                    };
                    let seq16 = (sequence & 0xFFFF) as u16;
                    let got = history.lookup(&packetizer, seq16);
                    match reference.lookup(seq16) {
                        Some((p, _)) if p.sequence + window < next => {
                            assert_eq!(got, None, "seed {seed} frame {frame_id} seq16 {seq16}");
                            stale[which] += 1;
                        }
                        want => {
                            assert_eq!(got, want, "seed {seed} frame {frame_id} seq16 {seq16}");
                            hits[which] += u64::from(want.is_some());
                        }
                    }
                }
            }
            assert!(next > 131_071, "the script must cross two 16-bit wraps");
        }
        assert!(hits.iter().all(|&n| n > 1_000), "{hits:?}");
        assert!(stale.iter().all(|&n| n > 0), "{stale:?}");
    }

    #[test]
    fn frame_records_are_pruned_a_full_ring_behind() {
        let mut packetizer = Packetizer::new(PacketizerConfig);
        let mut history = MediaHistory::new(1 << 11);
        let mut packets = Vec::new();
        for frame_id in 0..5_000u64 {
            let frame = EncodedFrame {
                stream: StreamId(0),
                frame_id,
                gop_id: 0,
                frame_type: FrameType::Delta,
                size: 6_000,
                qp: 30,
                height: 720,
                capture_time: SimTime::ZERO,
            };
            packets.clear();
            history.begin_frame(packetizer.packetize_into(&frame, &mut packets));
            for p in &packets {
                history.remember(p.sequence, PathId(0));
            }
            // Six packets a frame: the window's 2 048 sequences span 342
            // frames, and pruning trails by the frame being begun.
            assert!(
                history.frames.len() <= 2_048 / 6 + 3,
                "{}",
                history.frames.len()
            );
        }
    }

    /// The feedback ring as it stood: the full sequence, send time and
    /// size per slot, unwrapped against the highest acknowledged.
    struct RefFeedbackRing {
        next_transport_seq: u64,
        sent: Box<[Option<(u64, SimTime, usize)>]>,
        highest_acked: u64,
    }

    impl RefFeedbackRing {
        fn send(&mut self, now: SimTime, size: usize) -> u64 {
            let transport_seq = self.next_transport_seq;
            self.next_transport_seq += 1;
            let mask = self.sent.len() - 1;
            self.sent[transport_seq as usize & mask] = Some((transport_seq, now, size));
            transport_seq
        }

        fn take(&mut self, seq: u16) -> Option<(SimTime, usize)> {
            let full = unwrap_seq16(seq, self.highest_acked);
            self.highest_acked = self.highest_acked.max(full);
            let mask = self.sent.len() - 1;
            let slot = &mut self.sent[full as usize & mask];
            match *slot {
                Some((s, send_time, size)) if s == full => {
                    *slot = None;
                    Some((send_time, size))
                }
                _ => None,
            }
        }
    }

    /// Bursts of sends, then feedback for most of them in order, some of
    /// it duplicated, some for sequences overwritten since or never sent.
    #[test]
    fn feedback_ring_matches_the_tuple_ring() {
        let mut hits = 0u64;
        for seed in 0..8u64 {
            let slots = if seed % 2 == 0 { 1usize << 14 } else { 1 << 9 };
            let mut rng = SmallRng::seed_from_u64(0xfeed_bac4 + seed);
            let mut ring = FeedbackRing::new(slots);
            let mut reference = RefFeedbackRing {
                next_transport_seq: 0,
                sent: vec![None; slots].into_boxed_slice(),
                highest_acked: 0,
            };
            // Next sequence feedback has not reported yet.
            let mut reported = 0u64;
            for step in 0..4_000u64 {
                let now = SimTime::from_micros(step * 5_000);
                for _ in 0..rng.gen_range(0..48) {
                    let size = rng.gen_range(40..1_500);
                    assert_eq!(ring.send(now, size), reference.send(now, size));
                }
                let sent = reference.next_transport_seq;
                // Sometimes feedback lags until the ring has lapped it.
                if rng.gen_bool(0.02) {
                    continue;
                }
                while reported < sent {
                    let seq16 = (reported & 0xFFFF) as u16;
                    reported += 1;
                    if rng.gen_bool(0.05) {
                        continue; // lost on the way to the receiver
                    }
                    let want = reference.take(seq16);
                    assert_eq!(ring.take(seq16), want, "seed {seed} step {step}");
                    hits += u64::from(want.is_some());
                    if rng.gen_bool(0.1) {
                        assert_eq!(ring.take(seq16), None, "a hit is taken out");
                        assert_eq!(reference.take(seq16), None);
                    }
                }
                // A report for a sequence reported before, lapped since, or
                // not sent yet.
                let stray = if rng.gen_bool(0.8) {
                    sent.saturating_sub(rng.gen_range(0..2 * slots as u64))
                } else {
                    sent + rng.gen_range(0..64)
                };
                let seq16 = (stray & 0xFFFF) as u16;
                assert_eq!(
                    ring.take(seq16),
                    reference.take(seq16),
                    "seed {seed} step {step}"
                );
            }
            assert!(reference.next_transport_seq > 65_535 + slots as u64);
        }
        assert!(hits > 100_000, "{hits}");
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().map_or("", |s| s).to_owned(),
        }
    }

    /// A slot is six bytes, so each field has a bound: at the bound the
    /// ring answers exactly, past it `send` panics naming the bound and
    /// records nothing, so nothing is ever truncated.
    #[test]
    fn feedback_ring_panics_past_what_a_slot_can_hold() {
        let mut ring = FeedbackRing::new(1 << 14);
        let last_us = SimTime::from_micros(u64::from(u32::MAX));
        assert_eq!(ring.send(last_us, 65_535), 0);
        assert_eq!(ring.take(0), Some((last_us, 65_535)));

        let past_clock = SimTime::from_micros(1 << 32);
        let message = panic_message(|| {
            ring.send(past_clock, 1_200);
        });
        assert!(message.contains("32-bit microsecond clock"), "{message}");
        let message = panic_message(|| {
            ring.send(last_us, 65_536);
        });
        assert!(message.contains("65 535"), "{message}");
        // Size 0 marks an empty slot, so no packet may have it.
        let message = panic_message(|| {
            ring.send(last_us, 0);
        });
        assert!(message.contains("size 0 marks an empty slot"), "{message}");
        assert_eq!(
            ring.send(last_us, 1_200),
            1,
            "a refused send takes no sequence"
        );
    }

    /// Each narrowed field of a frame record has a bound: at the bound the
    /// record widens back to the frame exactly (but for the QP and height
    /// it drops), past it building the record panics naming the bound.
    #[test]
    fn frame_record_panics_past_what_it_can_hold() {
        let last = u64::from(u32::MAX);
        let at_bounds = PacketizedFrame {
            frame: EncodedFrame {
                stream: StreamId(255),
                frame_id: last,
                gop_id: last,
                frame_type: FrameType::Key,
                size: last as usize,
                qp: 0,
                height: 0,
                capture_time: SimTime::from_micros(last),
            },
            first_sequence: last,
            packet_count: u32::from(u16::MAX),
            has_sps: true,
        };
        assert_eq!(FrameRecord::new(&at_bounds).packetized(), at_bounds);

        let past = |f: fn(&mut PacketizedFrame)| {
            let mut p = at_bounds;
            f(&mut p);
            panic_message(|| {
                FrameRecord::new(&p);
            })
        };
        let message = past(|p| p.frame.capture_time = SimTime::from_micros(1 << 32));
        assert!(message.contains("32-bit microsecond clock"), "{message}");
        let message = past(|p| p.first_sequence = 1 << 32);
        assert!(message.contains("media sequence"), "{message}");
        let message = past(|p| p.frame.frame_id = 1 << 32);
        assert!(message.contains("frame id"), "{message}");
        let message = past(|p| p.frame.gop_id = 1 << 32);
        assert!(message.contains("GOP id"), "{message}");
        let message = past(|p| p.frame.size = 1 << 32);
        assert!(message.contains("frame size"), "{message}");
        let message = past(|p| p.packet_count = 1 << 16);
        assert!(message.contains("65 535"), "{message}");
    }

    /// Not a check but a measurement: the farthest NACK hit, in sequences
    /// behind the stream's newest, and the farthest transport-feedback
    /// hit, in sequences behind the path's newest, on each cell of the
    /// benchmark's `call-npath` workload at its default seed (DESIGN §6c's
    /// look-back table). Minutes in a debug build:
    /// `cargo test --release -p converge-sim --lib nack_lookback -- --ignored --nocapture`
    #[test]
    #[ignore = "prints a table; run it in a release build when the table is wanted"]
    fn nack_lookback_per_npath_cell() {
        use crate::{
            ControllerKind, DriveFixture, FecKind, ScenarioConfig, SchedulerKind, Session,
            SessionConfig,
        };
        use converge_net::SimDuration;

        let mut cells: Vec<(String, SessionConfig)> = Vec::new();
        let mut call = |label: String, scenario, streams, secs, seed| {
            let cfg = SessionConfig::paper_default(
                scenario,
                SchedulerKind::Converge,
                FecKind::Converge,
                streams,
                SimDuration::from_secs(secs),
                seed,
            );
            cells.push((label, cfg));
        };
        call(
            "symmetric3".into(),
            ScenarioConfig::symmetric3(),
            1,
            180,
            11,
        );
        call("constant8".into(), ScenarioConfig::constant8(), 3, 90, 11);
        for seed in [11, 12] {
            for fixture in DriveFixture::ALL {
                let label = format!("drive-{}/seed{seed}", fixture.id());
                call(label, fixture.scenario(), 1, 60, seed);
            }
        }
        let d = SimDuration::from_secs(90);
        for seed in [11, 12] {
            let carriers = std::iter::once((4, ControllerKind::Gcc))
                .chain(ControllerKind::ALL.into_iter().map(|kind| (8, kind)));
            for (paths, kind) in carriers {
                let cfg = SessionConfig::builder()
                    .scenario(ScenarioConfig::multi_carrier(paths, d, seed))
                    .duration(d)
                    .seed(seed)
                    .controller(kind)
                    .build()
                    .expect("multi-carrier cell is a valid config");
                cells.push((
                    format!("multi-carrier-{paths}/{}/seed{seed}", kind.id()),
                    cfg,
                ));
            }
        }
        lookback::take();
        for (label, cfg) in cells {
            let report = Session::new(cfg).run();
            let (nack, feedback) = lookback::take();
            println!(
                "{label:<34} farthest NACK hit {nack:>6} behind, {} retransmissions; farthest feedback hit {feedback:>5} behind",
                report.retransmissions,
            );
        }
    }
}
