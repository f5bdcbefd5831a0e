//! What the sender remembers about the packets it sent.
//!
//! Two histories, both indexed by the low bits of a sequence number so
//! that remembering a packet is one indexed store:
//!
//! - [`MediaHistory`], per stream: what a NACK needs to retransmit a media
//!   packet and to attribute its loss to a path. A sent packet is a pure
//!   function of its frame ([`Packetizer::packet_at`]), so the ring keeps
//!   only the path each sequence took, packed into the fewest bits the
//!   sender's path count needs (1, 2, 4 or 8), and the packet itself is
//!   rebuilt from the stream's frame log when a NACK asks for it. The log
//!   keeps a frame as six LEB128 fields against the frame before it, about
//!   seven bytes, in groups of up to [`GROUP_FRAMES`]: a group's first
//!   frame is a checkpoint, written against a zero frame at the group's
//!   first sequence, so a lookup binary-searches the groups by their first
//!   sequence and decodes one group.
//! - [`FeedbackRing`], per path: send time and size of each transport
//!   sequence, for matching transport feedback into packet timings, in six
//!   bytes a sequence. A dense ring holds the newest [`DENSE_SLOTS`]; an
//!   older sequence stays, in a sorted spill, only while it is untaken and
//!   inside the horizon.
//!
//! Both are written in strictly increasing sequence order, so which
//! sequence a slot holds follows from the newest one written: a slot
//! stores no sequence bits, and a hit is a range check against the newest,
//! never assumed from the index alone.

use std::collections::VecDeque;

use converge_net::{PathId, SimDuration, SimTime};
use converge_video::{EncodedFrame, FrameType, PacketizedFrame, Packetizer, StreamId, VideoPacket};

use crate::leb128;

/// One stream's retransmission history: the newest `slots` media
/// sequences the stream sent, each with the path it travelled.
///
/// Slot `i` holds the path of the newest remembered sequence whose low
/// bits are `i`; `groups` holds every frame that still has a sequence
/// inside that window, oldest first. Sequences are remembered in
/// increasing order and every packet of a begun frame is remembered, so
/// the sequence a NACK's 16 bits name is the newest one below `next` with
/// those bits, and it is in the ring iff it lies inside the window and
/// inside a logged frame. A lookup answers exactly what a ring of whole
/// packets would — the packet, if it is among the newest `slots`
/// sequences — except that a sequence WebRTC-CM consumed without sending
/// (it drops whole batches during a blackout, and a dropped batch begins
/// no frame) answers `None` instead of a packet `slots` or more sequences
/// older than the one asked for.
///
/// A slot is `1 << width_log2` bits, the fewest of 1, 2, 4 or 8 that hold
/// every path id of the sender: 8 KiB for 65 536 sequences on two paths,
/// 32 KiB on eight. The frame log takes a 128-byte [`FrameGroup`] for
/// every 15 or 16 frames of a call's usual stream: 8 to 9 bytes a frame.
#[derive(Debug)]
pub(crate) struct MediaHistory {
    /// The slots, packed low bits first.
    paths: Box<[u8]>,
    /// `slots − 1`: a sequence's slot is its low bits.
    mask: u64,
    /// log2 of a slot's width in bits, 0 to 3.
    width_log2: u32,
    /// The frame log, oldest group first. A group leaves once the group
    /// after it begins a full ring behind the newest sequence, so a group
    /// may keep a few frames no lookup can reach: `lookup` answers `None`
    /// for anything `slots` or more behind before it reads the log.
    groups: VecDeque<FrameGroup>,
    /// The frame last begun: the next frame's record is written against
    /// it, and every frame of the log is of its stream.
    last: PacketizedFrame,
    /// The encoder's frame interval, µs: the capture step a record assumes.
    interval_us: u64,
    /// One past the newest remembered sequence (0 before the first).
    next: u64,
}

// A path id is a byte, the widest slot.
const _: () = assert!(std::mem::size_of::<PathId>() == 1);

impl MediaHistory {
    /// A history of the newest `slots` sequences sent over `paths` paths,
    /// by an encoder that captures a frame every `interval`.
    ///
    /// # Panics
    /// Panics unless `slots` is a power of two no larger than 65 536 (a
    /// NACK names a sequence by its low 16 bits, so a larger ring could
    /// not be addressed), or unless `paths` is 1 to 256.
    pub(crate) fn new(slots: usize, paths: usize, interval: SimDuration) -> Self {
        assert!(
            slots.is_power_of_two() && slots <= 1 << 16,
            "media history of {slots} slots"
        );
        assert!(
            (1..=256).contains(&paths),
            "media history over {paths} paths"
        );
        // Bits in the largest path id, at least one, rounded up to 1, 2, 4
        // or 8 so a slot never straddles a byte.
        let bits = (usize::BITS - (paths - 1).leading_zeros()).max(1);
        let width_log2 = bits.next_power_of_two().trailing_zeros();
        MediaHistory {
            paths: vec![0; (slots << width_log2).div_ceil(8)].into_boxed_slice(),
            mask: slots as u64 - 1,
            width_log2,
            groups: VecDeque::new(),
            last: origin(StreamId(0), 0),
            interval_us: interval.as_micros(),
            next: 0,
        }
    }

    /// Sequences the history holds.
    fn slots(&self) -> u64 {
        self.mask + 1
    }

    /// The byte holding `sequence`'s slot, the slot's shift within it, and
    /// the mask of a slot's bits.
    fn slot_of(&self, sequence: u64) -> (usize, u32, u8) {
        let bit = ((sequence & self.mask) as usize) << self.width_log2;
        let field = (1u16 << (1 << self.width_log2)) - 1;
        (bit / 8, (bit % 8) as u32, field as u8)
    }

    /// Starts remembering the packets of `frame`; the caller follows with
    /// one [`MediaHistory::remember`] per packet of it, in order. Frames
    /// arrive in sequence order, all of one stream.
    ///
    /// # Panics
    /// Panics if the frame's first sequence is 2^32 or more (a group keeps
    /// its first sequence in 32 bits), or if the frame is of another stream
    /// than the frames before it.
    pub(crate) fn begin_frame(&mut self, frame: PacketizedFrame) {
        debug_assert!(self.next <= frame.first_sequence);
        debug_assert!(
            self.groups.is_empty() || end(&self.last) == self.next,
            "every packet of the previous frame must be remembered"
        );
        assert!(
            self.groups.is_empty() || frame.frame.stream == self.last.frame.stream,
            "a frame of stream {} in the history of stream {}",
            frame.frame.stream.0,
            self.last.frame.stream.0
        );
        let first_sequence = u32::try_from(frame.first_sequence).unwrap_or_else(|_| {
            panic!(
                "media sequence {} is past the frame log's 32 bits",
                frame.first_sequence
            )
        });
        // A group whose successor begins a full ring behind the newest
        // sequence holds nothing a lookup can reach.
        let window = self.slots();
        while self
            .groups
            .get(1)
            .is_some_and(|next| u64::from(next.first_sequence) + window <= self.next)
        {
            self.groups.pop_front();
        }
        let mut fields = record(&frame, &self.last, self.interval_us);
        let len: usize = fields.iter().copied().map(leb128::len).sum();
        let group = match self.groups.back_mut() {
            Some(g) if g.frames < GROUP_FRAMES && usize::from(g.used) + len <= GROUP_BYTES => g,
            // The frame opens a group: its record is written against the
            // group's origin, so it holds the frame's absolute fields.
            _ => {
                self.groups.push_back(FrameGroup {
                    first_sequence,
                    frames: 0,
                    used: 0,
                    records: [0; GROUP_BYTES],
                });
                let origin = origin(frame.frame.stream, frame.first_sequence);
                fields = record(&frame, &origin, self.interval_us);
                self.groups.back_mut().expect("just pushed")
            }
        };
        for field in fields {
            let used = usize::from(group.used);
            group.used += leb128::write(field, &mut group.records[used..]) as u8;
        }
        group.frames += 1;
        self.last = frame;
    }

    /// Remembers that `sequence`, the next packet of the frame last begun,
    /// went out on `path`.
    ///
    /// # Panics
    /// Panics if `path`'s id does not fit a slot: a path the history was
    /// not built for.
    pub(crate) fn remember(&mut self, sequence: u64, path: PathId) {
        debug_assert!(
            !self.groups.is_empty()
                && sequence == self.last.first_sequence.max(self.next)
                && sequence < end(&self.last),
            "sequence {sequence} is not the next packet of the frame last begun"
        );
        let (byte, shift, field) = self.slot_of(sequence);
        assert!(
            path.0 <= field,
            "path {} is past the history's slot",
            path.0
        );
        let slot = &mut self.paths[byte];
        *slot = *slot & !(field << shift) | path.0 << shift;
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
        if behind >= self.slots() {
            return None;
        }
        let sequence = newest.checked_sub(behind)?;
        let after = self
            .groups
            .partition_point(|g| u64::from(g.first_sequence) <= sequence);
        let group = self.groups.get(after.checked_sub(1)?)?;
        // The first frame of the group that ends past `sequence`; if it
        // begins past it too, or no frame does, `sequence` belongs to a
        // dropped batch.
        let frame = group
            .frames(self.last.frame.stream, self.interval_us)
            .find(|f| sequence < end(f))
            .filter(|f| f.first_sequence <= sequence)?;
        #[cfg(test)]
        lookback::note_media(behind);
        let n = (sequence - frame.first_sequence) as u32;
        let (byte, shift, field) = self.slot_of(sequence);
        Some((
            packetizer.packet_at(&frame, n),
            PathId(self.paths[byte] >> shift & field),
        ))
    }
}

/// Frames a group holds at most, and so the records a lookup decodes.
const GROUP_FRAMES: u8 = 16;

/// Record bytes a group holds: with its six-byte header a group is 128
/// bytes. Sixteen usual records take about 115 (the checkpoint ten to
/// twelve, the rest about seven each); a group whose next record does not
/// fit closes early, with fewer frames.
const GROUP_BYTES: usize = 122;

/// The longest record: six fields of up to ten bytes. A group's first
/// record always fits.
const _: () = assert!(6 * 10 <= GROUP_BYTES);
const _: () = assert!(std::mem::size_of::<FrameGroup>() == 128);

/// Up to [`GROUP_FRAMES`] consecutive frames of the log, each a record of
/// six LEB128 fields ([`record`]) against the frame before it, the first
/// against the group's [`origin`].
#[derive(Debug, Clone, Copy)]
struct FrameGroup {
    /// The first sequence of the group's first frame.
    first_sequence: u32,
    /// Frames recorded.
    frames: u8,
    /// Bytes of `records` written.
    used: u8,
    records: [u8; GROUP_BYTES],
}

impl FrameGroup {
    /// The group's frames, oldest first, decoded as they are read.
    fn frames(
        &self,
        stream: StreamId,
        interval_us: u64,
    ) -> impl Iterator<Item = PacketizedFrame> + '_ {
        let mut bytes = self.records[..usize::from(self.used)].iter();
        let mut prev = origin(stream, u64::from(self.first_sequence));
        std::iter::from_fn(move || {
            prev = read_record(&prev, &mut bytes, interval_us)?;
            Some(prev)
        })
    }
}

/// The record flag of a keyframe, in the packet-count field's low bits.
const KEY: u64 = 1;
/// The record flag of a frame that leads with an SPS packet.
const SPS: u64 = 2;

/// A group's first record is written against this: a zero frame of
/// `stream` that ends where the group begins, so the record holds the
/// frame's absolute fields (its capture time less one interval).
fn origin(stream: StreamId, first_sequence: u64) -> PacketizedFrame {
    PacketizedFrame {
        frame: EncodedFrame {
            stream,
            frame_id: 0,
            gop_id: 0,
            frame_type: FrameType::Delta,
            size: 0,
            qp: 0,
            height: 0,
            capture_time: SimTime::ZERO,
        },
        first_sequence,
        packet_count: 0,
        has_sps: false,
    }
}

/// One past the frame's last sequence.
fn end(frame: &PacketizedFrame) -> u64 {
    frame.first_sequence + u64::from(frame.packet_count)
}

/// `frame`'s record against `prev`, the frame before it in the log: the
/// sequences skipped since `prev` ended (those of dropped batches), the
/// frame-id and GOP-id steps, how far the capture time is from one
/// `interval_us` after `prev`'s (zig-zag), the size, and the packet count
/// with the [`KEY`] and [`SPS`] flags in its low two bits. Every step
/// wraps, so any frame is recorded exactly; a usual one costs a byte a
/// field and two or three for the size. The encoder's QP and frame height
/// are not recorded: [`Packetizer::packet_at`] reads neither.
fn record(frame: &PacketizedFrame, prev: &PacketizedFrame, interval_us: u64) -> [u64; 6] {
    let (f, p) = (&frame.frame, &prev.frame);
    let capture = f
        .capture_time
        .as_micros()
        .wrapping_sub(p.capture_time.as_micros())
        .wrapping_sub(interval_us);
    let mut flags = 0;
    if f.frame_type == FrameType::Key {
        flags |= KEY;
    }
    if frame.has_sps {
        flags |= SPS;
    }
    [
        frame.first_sequence.wrapping_sub(end(prev)),
        f.frame_id.wrapping_sub(p.frame_id),
        f.gop_id.wrapping_sub(p.gop_id),
        leb128::zigzag(capture as i64),
        f.size as u64,
        u64::from(frame.packet_count) << 2 | flags,
    ]
}

/// The frame whose [`record`] against `prev` is next in `bytes`; `None`
/// once they are used up.
fn read_record(
    prev: &PacketizedFrame,
    bytes: &mut std::slice::Iter<'_, u8>,
    interval_us: u64,
) -> Option<PacketizedFrame> {
    let mut fields = [0; 6];
    for field in &mut fields {
        *field = leb128::read(bytes)?;
    }
    let [skipped, frame_step, gop_step, capture, size, count] = fields;
    let p = &prev.frame;
    let capture_us = p
        .capture_time
        .as_micros()
        .wrapping_add(interval_us)
        .wrapping_add(leb128::unzigzag(capture) as u64);
    Some(PacketizedFrame {
        frame: EncodedFrame {
            stream: p.stream,
            frame_id: p.frame_id.wrapping_add(frame_step),
            gop_id: p.gop_id.wrapping_add(gop_step),
            frame_type: if count & KEY != 0 {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            size: size as usize,
            qp: 0,
            height: 0,
            capture_time: SimTime::from_micros(capture_us),
        },
        first_sequence: end(prev).wrapping_add(skipped),
        packet_count: (count >> 2) as u32,
        has_sps: count & SPS != 0,
    })
}

/// How far behind the newest sequence look-ups reach, and how much of the
/// feedback rings' spill they use: a test-only tally, so the horizon the
/// rings must cover and the dense window's size are measured, not guessed.
#[cfg(test)]
pub(crate) mod lookback {
    use std::cell::Cell;

    /// What the look-ups on one thread reached since the last
    /// [`take`].
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Reach {
        /// The farthest NACK hit, in sequences behind the stream's newest.
        pub(crate) media: u64,
        /// The farthest transport-feedback hit, in sequences behind the
        /// path's newest.
        pub(crate) feedback: u64,
        /// Untaken sequences the feedback rings moved from the dense
        /// window to the spill.
        pub(crate) spill_pushes: u64,
        /// Transport-feedback hits answered from the spill.
        pub(crate) spill_hits: u64,
        /// The most entries one ring's spill held at once.
        pub(crate) longest_spill: u64,
    }

    thread_local! {
        static REACH: Cell<Reach> = const {
            Cell::new(Reach {
                media: 0,
                feedback: 0,
                spill_pushes: 0,
                spill_hits: 0,
                longest_spill: 0,
            })
        };
    }

    fn note(f: impl FnOnce(&mut Reach)) {
        REACH.with(|r| {
            let mut reach = r.get();
            f(&mut reach);
            r.set(reach);
        });
    }

    pub(super) fn note_media(behind: u64) {
        note(|r| r.media = r.media.max(behind));
    }

    pub(super) fn note_feedback(behind: u64, from_spill: bool) {
        note(|r| {
            r.feedback = r.feedback.max(behind);
            r.spill_hits += u64::from(from_spill);
        });
    }

    pub(super) fn note_spill_push(len: usize) {
        note(|r| {
            r.spill_pushes += 1;
            r.longest_spill = r.longest_spill.max(len as u64);
        });
    }

    /// What this thread's look-ups reached since the last call.
    pub(crate) fn take() -> Reach {
        REACH.with(|r| r.replace(Reach::default()))
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

/// A sequence that left the dense window untaken: its low 32 bits, which
/// name it exactly since the spill spans less than the horizon, and its
/// slot.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct Spilled {
    seq: u32,
    slot: SentSlot,
}

const _: () = assert!(std::mem::size_of::<Spilled>() == 10);

/// Slots in a feedback ring's dense window (a power of two so the index is
/// a mask), or the whole horizon if that is shorter. DESIGN §4.7's reach
/// table has the spill columns: on `symmetric3`, `constant8`, the
/// `drive-handover` and `drive-blackout-flap` replays and every lossy,
/// blackout and feedback-loss cell of `call-impaired`, the farthest
/// feedback hit is at most 922 sequences back, so every hit is dense and
/// what spills is only sequences no report will ever name (the packet or
/// its report was lost). Only `drive-coverage-gaps` and the
/// `multi-carrier` cells reach further (up to 3 709 back): 28 to 1 091 of
/// a call's hits come from the spill. The window costs 6 KiB a path,
/// where the 16 384-slot horizon took 96 KiB.
const DENSE_SLOTS: usize = 1 << 10;

/// One path's sent transport sequences, for matching transport feedback:
/// the send time and wire size of each of the newest `horizon` sequences
/// that no feedback has matched yet. A match is taken out, so duplicated
/// feedback cannot yield a timing twice.
///
/// Two tiers, answering exactly as one `horizon`-slot ring would. Slot
/// `transport_seq % dense` of the dense ring holds the newest sequence
/// with that residue: sequences are handed out consecutively, so the slot
/// holds `transport_seq` iff it is one of the newest `dense` sent. When a
/// send overwrites a slot still untaken and still inside the horizon, the
/// old entry moves to the back of `spill`, which therefore stays in
/// ascending sequence order; an entry leaves the spill when it is taken or
/// falls `horizon` behind. Nothing acknowledged, the spill holds
/// `horizon − dense` entries.
///
/// A slot is six bytes, which bounds what a ring can record: send times
/// below 2^32 µs (71.6 minutes of simulated time) and packets of 1 to
/// 65 535 bytes (no RTP packet is empty on the wire, and size 0 marks an
/// empty slot). [`FeedbackRing::send`] panics past any of them rather than
/// record a truncated value.
#[derive(Debug)]
pub(crate) struct FeedbackRing {
    dense: Box<[SentSlot]>,
    /// Untaken sequences older than the dense window but inside the
    /// horizon, ascending.
    spill: VecDeque<Spilled>,
    /// How many of the newest sequences a match may reach back.
    horizon: u64,
    next_transport_seq: u64,
    /// Highest transport sequence acknowledged so far, for unwrapping the
    /// 16-bit sequence numbers feedback carries on the wire.
    highest_acked: u64,
}

impl FeedbackRing {
    /// A ring matching the newest `horizon` sequences.
    ///
    /// # Panics
    /// Panics unless `horizon` is a power of two no larger than 65 536 (a
    /// report names a sequence by its low 16 bits).
    pub(crate) fn new(horizon: usize) -> Self {
        assert!(
            horizon.is_power_of_two() && horizon <= 1 << 16,
            "feedback ring of {horizon} slots"
        );
        FeedbackRing {
            dense: vec![SentSlot::EMPTY; horizon.min(DENSE_SLOTS)].into_boxed_slice(),
            spill: VecDeque::new(),
            horizon: horizon as u64,
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
        let dense = self.dense.len() as u64;
        let slot = &mut self.dense[(transport_seq & (dense - 1)) as usize];
        // The slot's sequence leaves the dense window; until it is
        // `horizon` behind, feedback may still name it.
        if slot.size != 0 && dense < self.horizon {
            self.spill.push_back(Spilled {
                seq: (transport_seq - dense) as u32,
                slot: *slot,
            });
            #[cfg(test)]
            lookback::note_spill_push(self.spill.len());
        }
        *slot = SentSlot { send_us, size };
        while self
            .spill
            .front()
            .is_some_and(|oldest| self.widen(oldest.seq) + self.horizon < self.next_transport_seq)
        {
            self.spill.pop_front();
        }
        transport_seq
    }

    /// The sequence below the next one to send whose low 32 bits are `low`.
    fn widen(&self, low: u32) -> u64 {
        let next = self.next_transport_seq;
        next - u64::from((next as u32).wrapping_sub(low))
    }

    /// Feedback arrived for the packet whose transport sequence ends in
    /// `seq16`: takes out its send time and size, if it is still one of
    /// the newest `horizon` sent and no earlier feedback matched it.
    pub(crate) fn take(&mut self, seq16: u16) -> Option<(SimTime, usize)> {
        let transport_seq = unwrap_seq16(seq16, self.highest_acked);
        self.highest_acked = self.highest_acked.max(transport_seq);
        let sent = self.next_transport_seq;
        if transport_seq >= sent {
            return None;
        }
        let dense = self.dense.len() as u64;
        let from_spill = sent - transport_seq > dense;
        let slot = if from_spill {
            // Everything in the spill is inside the horizon.
            let at = self
                .spill
                .binary_search_by_key(&transport_seq, |e| self.widen(e.seq))
                .ok()?;
            self.spill.remove(at)?.slot
        } else {
            let slot = &mut self.dense[(transport_seq & (dense - 1)) as usize];
            if slot.size == 0 {
                return None;
            }
            std::mem::replace(slot, SentSlot::EMPTY)
        };
        #[cfg(test)]
        lookback::note_feedback(sent - 1 - transport_seq, from_spill);
        Some((
            SimTime::from_micros(u64::from(slot.send_us)),
            usize::from(slot.size),
        ))
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
    use std::collections::BTreeMap;

    use converge_video::PacketizerConfig;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::*;

    /// What a media history must answer: the packet and path of each of
    /// the newest `slots` sequences remembered, keyed by sequence. A NACK's
    /// 16 bits name at most one of them, since they span fewer than 65 536
    /// sequences.
    struct Spec {
        slots: u64,
        sent: BTreeMap<u64, (VideoPacket, PathId)>,
    }

    impl Spec {
        fn remember(&mut self, p: &VideoPacket, path: PathId) {
            self.sent.insert(p.sequence, (*p, path));
            while self
                .sent
                .first_key_value()
                .is_some_and(|(&oldest, _)| oldest + self.slots <= p.sequence)
            {
                self.sent.pop_first();
            }
        }

        fn lookup(&self, seq16: u16) -> Option<(VideoPacket, PathId)> {
            let (&oldest, _) = self.sent.first_key_value()?;
            let sequence = oldest + u64::from(seq16.wrapping_sub(oldest as u16));
            self.sent.get(&sequence).copied()
        }
    }

    /// The encoder's frame interval at 30 fps, as the sender passes it.
    const INTERVAL: SimDuration = SimDuration::from_micros(33_333);

    /// 4 000 frames per seed over 1 to 256 paths, on a 65 536- and a
    /// 2 048-slot ring: keyframes with SPS, one-packet and zero-byte
    /// frames, frames of more than 127 packets, capture times on the
    /// interval, off it by a few microseconds or by whole skipped frames,
    /// and one frame in ten dropped whole after it took its sequences (a
    /// CM-dropped batch: a gap no frame begins). Each frame is followed by
    /// NACKs for recent, just-evicted, dropped, aliased and arbitrary
    /// suffixes, and every answer must equal the specification's. The
    /// script crosses two 16-bit wraps and evicts whole groups on both
    /// rings.
    #[test]
    fn media_history_matches_the_packet_ring() {
        let mut hits = [0u64; 2];
        for seed in 0..8u64 {
            let which = (seed % 2) as usize;
            let slots = [1usize << 16, 1 << 11][which];
            // Every slot width: 1, 2, 4 and 8 bits, each at both sizes.
            let paths = [2usize, 1, 3, 4, 8, 5, 256, 17][seed as usize];
            let mut rng = SmallRng::seed_from_u64(0x415_7047 + seed);
            let mut packetizer = Packetizer::new(PacketizerConfig);
            let mut history = MediaHistory::new(slots, paths, INTERVAL);
            let mut spec = Spec {
                slots: slots as u64,
                sent: BTreeMap::new(),
            };
            let mut packets = Vec::new();
            let mut dropped: Vec<u64> = Vec::new();
            // One past the newest remembered sequence.
            let mut next = 0u64;
            let (mut gop_id, mut capture_us) = (0, 0u64);
            let mut long_frames = 0;
            for frame_id in 0..4_000u64 {
                let key = frame_id == 0 || rng.gen_bool(0.04);
                gop_id += u64::from(key && frame_id > 0);
                capture_us += match rng.gen_range(0..8) {
                    0 => INTERVAL.as_micros() - rng.gen_range(0..500),
                    1 => INTERVAL.as_micros() + rng.gen_range(0..500),
                    2 => INTERVAL.as_micros() * rng.gen_range(2..5),
                    _ => INTERVAL.as_micros(),
                };
                let frame = EncodedFrame {
                    stream: StreamId(3),
                    frame_id,
                    gop_id,
                    frame_type: if key {
                        FrameType::Key
                    } else {
                        FrameType::Delta
                    },
                    size: match rng.gen_range(0..16) {
                        0 => 0,
                        1 | 2 => rng.gen_range(1..1_200),
                        3 => rng.gen_range(152_400..400_000),
                        _ => rng.gen_range(1_200..120_000),
                    },
                    qp: rng.gen_range(10..50),
                    height: 720,
                    capture_time: SimTime::from_micros(capture_us),
                };
                packets.clear();
                let packetized = packetizer.packetize_into(&frame, &mut packets);
                if rng.gen_bool(0.1) {
                    dropped.extend(packets.iter().map(|p| p.sequence));
                } else {
                    long_frames += u32::from(packetized.packet_count > 127);
                    history.begin_frame(packetized);
                    for p in &packets {
                        let path = PathId(rng.gen_range(0..paths) as u8);
                        history.remember(p.sequence, path);
                        spec.remember(p, path);
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
                    let want = spec.lookup(seq16);
                    assert_eq!(
                        history.lookup(&packetizer, seq16),
                        want,
                        "seed {seed} frame {frame_id} seq16 {seq16}"
                    );
                    hits[which] += u64::from(want.is_some());
                }
            }
            assert!(next > 131_071, "the script must cross two 16-bit wraps");
            assert!(long_frames > 100, "seed {seed}: {long_frames} long frames");
            let oldest = history.groups.front().expect("frames were logged");
            assert!(
                u64::from(oldest.first_sequence) + 2 * slots as u64 > next,
                "seed {seed}: whole groups must have left"
            );
        }
        assert!(hits.iter().all(|&n| n > 1_000), "{hits:?}");
    }

    /// Six packets a frame, one frame per interval: every group fills to
    /// [`GROUP_FRAMES`] frames, 96 sequences, and the log never holds more
    /// groups than the window's 2 048 sequences can touch, though a group
    /// leaves only once its successor begins a full ring behind.
    #[test]
    fn frame_records_are_pruned_a_full_ring_behind() {
        let mut packetizer = Packetizer::new(PacketizerConfig);
        // The window spans 21 1/3 groups, so it touches at most 23.
        const BOUND: usize = 2_048 / (6 * 16) + 2;
        let mut history = MediaHistory::new(1 << 11, 1, INTERVAL);
        let mut packets = Vec::new();
        let mut most = 0;
        for frame_id in 0..5_000u64 {
            let frame = EncodedFrame {
                stream: StreamId(0),
                frame_id,
                gop_id: 0,
                frame_type: FrameType::Delta,
                size: 6_000,
                qp: 30,
                height: 720,
                capture_time: SimTime::from_micros(frame_id * INTERVAL.as_micros()),
            };
            packets.clear();
            history.begin_frame(packetizer.packetize_into(&frame, &mut packets));
            for p in &packets {
                history.remember(p.sequence, PathId(0));
            }
            let groups = history.groups.len();
            most = most.max(groups);
            assert!(groups <= BOUND, "frame {frame_id}: {groups}");
            let (full, open) = (groups - 1, &history.groups[groups - 1]);
            assert!(
                history
                    .groups
                    .iter()
                    .take(full)
                    .all(|g| g.frames == GROUP_FRAMES),
                "frame {frame_id}"
            );
            assert_eq!(u64::from(open.frames), frame_id % 16 + 1);
        }
        assert_eq!(most, BOUND, "the bound is reached");
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
    /// it duplicated, some for sequences overwritten since or never sent,
    /// and now and then none for a while, so the reports that follow lag
    /// past the dense window (and, on the 512-slot horizon, past the
    /// horizon), over more than one 16-bit wrap. At the 16 384-slot
    /// horizon, lost and lagged feedback must reach the spill, across a
    /// wrap too, and the spill must never outgrow `horizon − dense`.
    #[test]
    fn feedback_ring_matches_the_tuple_ring() {
        let mut hits = 0u64;
        let (mut spill_hits, mut wrapped_lag_hits) = (0u64, 0u64);
        for seed in 0..8u64 {
            let slots = if seed % 2 == 0 { 1usize << 14 } else { 1 << 9 };
            let mut rng = SmallRng::seed_from_u64(0xfeed_bac4 + seed);
            let mut ring = FeedbackRing::new(slots);
            let mut reference = RefFeedbackRing {
                next_transport_seq: 0,
                sent: vec![None; slots].into_boxed_slice(),
                highest_acked: 0,
            };
            let dense = ring.dense.len();
            assert_eq!(dense, slots.min(DENSE_SLOTS));
            lookback::take();
            // Next sequence feedback has not reported yet.
            let mut reported = 0u64;
            // Steps left before feedback resumes.
            let mut stalled = 0;
            for step in 0..4_000u64 {
                let now = SimTime::from_micros(step * 5_000);
                for _ in 0..rng.gen_range(0..48) {
                    let size = rng.gen_range(40..1_500);
                    assert_eq!(ring.send(now, size), reference.send(now, size));
                }
                assert!(ring.spill.len() <= slots - dense, "seed {seed} step {step}");
                let sent = reference.next_transport_seq;
                // Sometimes feedback lags until the ring has lapped it;
                // now and then for 40 to 400 steps, ~1 000 to ~10 000
                // sequences.
                if stalled > 0 {
                    stalled -= 1;
                    continue;
                }
                if rng.gen_bool(0.02) {
                    stalled = if rng.gen_bool(0.25) {
                        rng.gen_range(40..400)
                    } else {
                        1
                    };
                    continue;
                }
                while reported < sent {
                    let seq16 = (reported & 0xFFFF) as u16;
                    let behind = sent - reported;
                    let wrapped = reported >> 16 != (sent - 1) >> 16;
                    reported += 1;
                    if rng.gen_bool(0.05) {
                        continue; // lost on the way to the receiver
                    }
                    let want = reference.take(seq16);
                    assert_eq!(ring.take(seq16), want, "seed {seed} step {step}");
                    hits += u64::from(want.is_some());
                    if want.is_some() && behind > dense as u64 && wrapped {
                        wrapped_lag_hits += 1;
                    }
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
            let reach = lookback::take();
            if slots > DENSE_SLOTS {
                assert!(reach.spill_pushes > 1_000, "seed {seed}: {reach:?}");
                spill_hits += reach.spill_hits;
            } else {
                assert_eq!(
                    (reach.spill_pushes, reach.spill_hits),
                    (0, 0),
                    "a ring no longer than the dense window never spills"
                );
            }
        }
        assert!(hits > 100_000, "{hits}");
        assert!(spill_hits > 1_000, "{spill_hits}");
        assert!(wrapped_lag_hits > 0, "no lagged hit crossed a wrap");
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

    /// Every field of a frame is recorded exactly, at the extremes of its
    /// type and when it steps backwards, except the first sequence, which a
    /// group keeps in 32 bits: past that bound, and for a frame of another
    /// stream, `begin_frame` panics naming it rather than log a wrong frame.
    #[test]
    fn frame_record_panics_past_what_it_can_hold() {
        let last = u64::from(u32::MAX);
        let at_bounds = PacketizedFrame {
            frame: EncodedFrame {
                stream: StreamId(255),
                frame_id: u64::MAX,
                gop_id: u64::MAX,
                frame_type: FrameType::Key,
                size: usize::MAX,
                qp: 0,
                height: 0,
                capture_time: SimTime::from_micros(u64::MAX),
            },
            first_sequence: last - 3,
            packet_count: 3,
            has_sps: true,
        };
        // Every step backwards or wrapping: ids past the largest to 0, the
        // capture clock back to its start, a frame as large as it can be.
        let backwards = PacketizedFrame {
            frame: EncodedFrame {
                frame_id: 0,
                gop_id: 7,
                frame_type: FrameType::Delta,
                size: 0,
                capture_time: SimTime::ZERO,
                ..at_bounds.frame
            },
            first_sequence: last,
            packet_count: u32::MAX,
            has_sps: false,
        };
        let origin = origin(StreamId(255), at_bounds.first_sequence);
        for (frame, prev) in [(at_bounds, origin), (backwards, at_bounds)] {
            let bytes = leb128::pack(|| record(&frame, &prev, 33_333).into_iter());
            assert!(bytes.len() <= GROUP_BYTES, "{}", bytes.len());
            let read = read_record(&prev, &mut bytes.iter(), 33_333);
            assert_eq!(read, Some(frame));
        }

        let past = PacketizedFrame {
            first_sequence: 1 << 32,
            ..at_bounds
        };
        let message = panic_message(|| MediaHistory::new(1 << 11, 1, INTERVAL).begin_frame(past));
        assert!(message.contains("32 bits"), "{message}");

        let mut history = MediaHistory::new(1 << 11, 1, INTERVAL);
        let first = PacketizedFrame {
            first_sequence: 0,
            ..backwards
        };
        let first = PacketizedFrame {
            packet_count: 2,
            ..first
        };
        history.begin_frame(first);
        history.remember(0, PathId(0));
        history.remember(1, PathId(0));
        let other = PacketizedFrame {
            frame: EncodedFrame {
                stream: StreamId(0),
                ..first.frame
            },
            first_sequence: 2,
            ..first
        };
        let message = panic_message(|| history.begin_frame(other));
        assert!(
            message.contains("stream 0 in the history of stream 255"),
            "{message}"
        );
    }

    /// Not a check but a measurement: the farthest NACK hit, in sequences
    /// behind the stream's newest, the farthest transport-feedback hit, in
    /// sequences behind the path's newest, and the feedback rings' spill
    /// pushes, spill hits and longest spill, on each cell of the
    /// benchmark's `call-npath` workload and on the `call-impaired` cells
    /// where feedback goes missing (5 % and 10 % loss, blackout, feedback
    /// loss), at seeds 11 and 12 (DESIGN §4.7's look-back table). Minutes
    /// in a debug build:
    /// `cargo test --release -p converge-sim --lib nack_lookback -- --ignored --nocapture`
    #[test]
    #[ignore = "prints a table; run it in a release build when the table is wanted"]
    fn nack_lookback_per_npath_cell() {
        use crate::{
            ControllerKind, DriveFixture, FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind,
            Session, SessionConfig,
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
        // `call-impaired`'s cells where feedback goes missing: a blackout,
        // lost feedback packets, random loss.
        let mut chaos = |kind: ImpairmentKind, streams, seed| {
            call(
                format!("chaos-{}/seed{seed}", kind.id()),
                ScenarioConfig::chaos(kind),
                streams,
                180,
                seed,
            );
        };
        chaos(ImpairmentKind::Blackout, 3, 11);
        chaos(ImpairmentKind::FeedbackLoss, 1, 11);
        chaos(ImpairmentKind::FeedbackLoss, 1, 12);
        for seed in [11, 12] {
            for (loss, fec, streams) in [
                (5.0, FecKind::Converge, 3),
                (5.0, FecKind::WebRtcTable, 3),
                (10.0, FecKind::Converge, 1),
                (10.0, FecKind::WebRtcTable, 3),
            ] {
                let label = format!("loss{loss}/{fec:?}/seed{seed}");
                let cfg = SessionConfig::paper_default(
                    ScenarioConfig::fec_tradeoff(loss),
                    SchedulerKind::Converge,
                    fec,
                    streams,
                    SimDuration::from_secs(180),
                    seed,
                );
                cells.push((label, cfg));
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
            let reach = lookback::take();
            println!(
                "{label:<34} farthest NACK hit {:>6} behind, {} retransmissions; farthest feedback hit {:>5} behind; spill: {} pushes, {} hits, longest {}",
                reach.media,
                report.retransmissions,
                reach.feedback,
                reach.spill_pushes,
                reach.spill_hits,
                reach.longest_spill,
            );
        }
    }
}
