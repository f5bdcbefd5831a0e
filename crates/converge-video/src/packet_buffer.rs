//! The receiver's packet buffer (§2.1).
//!
//! Accumulates RTP packets per frame until a frame is complete, then hands
//! the frame to the frame buffer. It has a bounded size; when full it makes
//! room by evicting packets of the oldest incomplete frame ("the packet
//! buffer may discard packets from that frame to make room for newly
//! arriving packets"). The time from a frame's first packet arrival until
//! its last is the Frame Construction Delay (FCD).

use std::collections::BTreeMap;

use converge_net::SimTime;

use crate::types::{CompleteFrame, FrameType, PacketKind, StreamId, VideoPacket};

/// Events the packet buffer reports to its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketBufferEvent {
    /// A frame finished gathering all of its packets.
    FrameComplete(CompleteFrame),
    /// A frame's partial packets were evicted to make room; the frame can
    /// never complete (unless retransmissions rebuild it from scratch).
    FrameEvicted {
        /// Which frame lost its packets.
        frame_id: u64,
        /// How many gathered packets were discarded.
        packets_dropped: usize,
    },
    /// A packet arrived for a frame that was already completed or evicted —
    /// it arrived too late to matter.
    StalePacket {
        /// The late packet's frame.
        frame_id: u64,
    },
    /// A duplicate of an already-buffered packet arrived.
    Duplicate {
        /// Sequence number of the duplicate.
        sequence: u64,
    },
}

/// Sequences, and media indices, an assembly marks in its inline bit
/// windows. A frame's sequences are contiguous from its PPS, so a frame of
/// fewer than this many media packets never spills.
const WINDOW: usize = 128;

/// Presence bits over [`WINDOW`] consecutive values.
#[derive(Debug, Default, Clone, Copy)]
struct Bits([u64; WINDOW / 64]);

impl Bits {
    /// Sets bit `i`; `false` if it was set already.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// The set bits, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| w * 64 + rest.trailing_zeros() as usize);
                rest &= rest.wrapping_sub(1);
                bit
            })
        })
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// What an assembly holds outside its windows: only a frame of more media
/// packets than [`WINDOW`], or a packet no packetizer would send, puts
/// anything here, so it is boxed and the common assembly stays small.
#[derive(Debug, Default)]
struct Spill {
    /// Sequences held outside the window, ascending.
    sequences: Vec<u64>,
    /// Media indices held at or past [`WINDOW`], with sizes, ascending.
    media: Vec<(u16, usize)>,
}

/// Assembly state of one frame.
#[derive(Debug)]
struct Assembly {
    stream: StreamId,
    gop_id: u64,
    frame_type: FrameType,
    capture_time: SimTime,
    first_arrival: SimTime,
    /// Sequence of bit 0 of `sequences`: the frame's PPS, as the first
    /// packet that arrived places it.
    first_sequence: u64,
    /// Sequences held in `first_sequence..first_sequence + WINDOW`.
    sequences: Bits,
    /// Media indices held below [`WINDOW`].
    media: Bits,
    /// The size of each media index held below [`WINDOW`], by index; an
    /// entry means something only while its bit is set.
    sizes: Vec<usize>,
    /// Everything held outside the two windows, once there is any.
    spill: Option<Box<Spill>>,
    /// Distinct media indices held: the count completion compares.
    media_count: usize,
    /// Total media packets expected, learnt from any media packet.
    expected_media: Option<u16>,
    has_pps: bool,
}

impl Assembly {
    /// Where the first packet of a frame places its window: at the PPS,
    /// one sequence before media index 0.
    fn first_sequence(packet: &VideoPacket) -> u64 {
        match packet.kind {
            PacketKind::Media { index, .. } => packet.sequence.saturating_sub(1 + u64::from(index)),
            _ => packet.sequence,
        }
    }

    /// `sequence`'s bit, if it falls inside the window.
    fn window_bit(&self, sequence: u64) -> Option<usize> {
        sequence
            .checked_sub(self.first_sequence)
            .filter(|&bit| bit < WINDOW as u64)
            .map(|bit| bit as usize)
    }

    fn packet_count(&self) -> usize {
        self.sequences.len() + self.spill.as_ref().map_or(0, |s| s.sequences.len())
    }

    /// Sum of the sizes of the media indices held.
    fn media_bytes(&self) -> usize {
        let spilled: usize = self.spill.iter().flat_map(|s| &s.media).map(|m| m.1).sum();
        spilled + self.media.iter().map(|i| self.sizes[i]).sum::<usize>()
    }

    fn is_complete(&self) -> bool {
        self.has_pps
            && self
                .expected_media
                .is_some_and(|n| self.media_count == n as usize)
    }

    /// Holds `sequence` from now on; `false` if it was held already.
    fn hold_sequence(&mut self, sequence: u64) -> bool {
        if let Some(bit) = self.window_bit(sequence) {
            return self.sequences.insert(bit);
        }
        let spilled = &mut self.spill.get_or_insert_default().sequences;
        match spilled.binary_search(&sequence) {
            Ok(_) => false,
            Err(at) => {
                spilled.insert(at, sequence);
                true
            }
        }
    }

    /// Records media packet `index` of `size` bytes; a second packet
    /// claiming an index replaces the first one's size.
    fn hold_media(&mut self, index: u16, size: usize) {
        let i = usize::from(index);
        if i < WINDOW {
            if i >= self.sizes.len() {
                self.sizes.resize(i + 1, 0);
            }
            self.media_count += usize::from(self.media.insert(i));
            self.sizes[i] = size;
            return;
        }
        let spilled = &mut self.spill.get_or_insert_default().media;
        match spilled.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => spilled[at].1 = size,
            Err(at) => {
                spilled.insert(at, (index, size));
                self.media_count += 1;
            }
        }
    }
}

/// The heap buffers of a finished [`Assembly`]: `sizes` as it was, and
/// its spill, emptied, if it had one.
type Spare = (Vec<usize>, Option<Box<Spill>>);

/// Bounded per-frame packet reassembly buffer for one stream.
#[derive(Debug)]
pub struct PacketBuffer {
    /// Maximum packets held across all frames under assembly.
    capacity_packets: usize,
    frames: BTreeMap<u64, Assembly>,
    total_packets: usize,
    /// Frames already completed or evicted; late packets for them are stale.
    /// We track the highest such frame id per category (frames complete in
    /// order of eviction/completion, not necessarily frame order, so keep a
    /// small recent-set).
    finished: std::collections::BTreeSet<u64>,
    /// Cap on the `finished` memory.
    finished_cap: usize,
    /// Highest frame id ever marked finished: any id above it cannot be in
    /// the set, which lets the common case (a packet of a brand-new frame)
    /// skip the set probe entirely.
    max_finished: Option<u64>,
    /// Buffers of finished assemblies, handed to the next new frame so
    /// steady-state assembly reuses their capacity instead of growing
    /// fresh vectors per frame.
    spare: Vec<Spare>,
}

impl PacketBuffer {
    /// Creates a buffer holding at most `capacity_packets` packets.
    pub fn new(capacity_packets: usize) -> Self {
        PacketBuffer {
            capacity_packets: capacity_packets.max(1),
            frames: BTreeMap::new(),
            total_packets: 0,
            finished: std::collections::BTreeSet::new(),
            finished_cap: 1024,
            max_finished: None,
            spare: Vec::new(),
        }
    }

    /// Packets currently buffered.
    pub fn len(&self) -> usize {
        self.total_packets
    }

    /// Whether no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.total_packets == 0
    }

    /// Frames currently under assembly.
    pub fn frames_pending(&self) -> usize {
        self.frames.len()
    }

    /// Whether `frame_id` has already completed or been evicted.
    pub fn is_finished(&self, frame_id: u64) -> bool {
        match self.max_finished {
            Some(max) if frame_id <= max => self.finished.contains(&frame_id),
            _ => false,
        }
    }

    /// Drops all partial packets of `frame_id` (used by the frame buffer
    /// when it gives up on a frame: "the frame buffer can also drop packets
    /// in the packet buffer if they belong to missing and purged frames").
    pub fn purge_frame(&mut self, frame_id: u64) -> Option<PacketBufferEvent> {
        let assembly = self.frames.remove(&frame_id)?;
        let packets_dropped = assembly.packet_count();
        self.total_packets -= packets_dropped;
        self.remember_finished(frame_id);
        self.recycle(assembly);
        Some(PacketBufferEvent::FrameEvicted {
            frame_id,
            packets_dropped,
        })
    }

    /// Returns a finished assembly's buffers to the pool.
    fn recycle(&mut self, mut assembly: Assembly) {
        if let Some(spill) = &mut assembly.spill {
            spill.sequences.clear();
            spill.media.clear();
        }
        self.spare.push((assembly.sizes, assembly.spill));
    }

    /// Inserts one arriving packet; returns the events it produced.
    ///
    /// SPS packets are GOP-scoped, not frame-scoped; the caller should route
    /// them to its GOP ledger instead — passing one here is ignored with no
    /// event.
    pub fn insert(&mut self, now: SimTime, packet: &VideoPacket) -> Vec<PacketBufferEvent> {
        let mut events = Vec::new();
        self.insert_into(now, packet, &mut events);
        events
    }

    /// [`PacketBuffer::insert`], appending the events to `events` so a
    /// per-packet caller can reuse one buffer.
    pub fn insert_into(
        &mut self,
        now: SimTime,
        packet: &VideoPacket,
        events: &mut Vec<PacketBufferEvent>,
    ) {
        if packet.kind == PacketKind::Sps {
            return;
        }
        if self.is_finished(packet.frame_id) {
            events.push(PacketBufferEvent::StalePacket {
                frame_id: packet.frame_id,
            });
            return;
        }

        let spare = &mut self.spare;
        let assembly = self.frames.entry(packet.frame_id).or_insert_with(|| {
            let (sizes, spill) = spare.pop().unwrap_or_default();
            Assembly {
                stream: packet.stream,
                gop_id: packet.gop_id,
                frame_type: packet.frame_type,
                capture_time: packet.capture_time,
                first_arrival: now,
                first_sequence: Assembly::first_sequence(packet),
                sequences: Bits::default(),
                media: Bits::default(),
                sizes,
                spill,
                media_count: 0,
                expected_media: None,
                has_pps: false,
            }
        });

        if !assembly.hold_sequence(packet.sequence) {
            events.push(PacketBufferEvent::Duplicate {
                sequence: packet.sequence,
            });
            return;
        }

        match packet.kind {
            PacketKind::Media { index, count } => {
                assembly.expected_media = Some(count);
                assembly.hold_media(index, packet.size);
            }
            PacketKind::Pps => assembly.has_pps = true,
            PacketKind::Sps => unreachable!("SPS filtered above"),
        }
        let complete = assembly.is_complete();
        self.total_packets += 1;

        let frame_id = packet.frame_id;
        if complete {
            let a = self.frames.remove(&frame_id).expect("assembly exists");
            self.total_packets -= a.packet_count();
            self.remember_finished(frame_id);
            events.push(PacketBufferEvent::FrameComplete(CompleteFrame {
                stream: a.stream,
                frame_id,
                gop_id: a.gop_id,
                frame_type: a.frame_type,
                size: a.media_bytes(),
                capture_time: a.capture_time,
                first_arrival: a.first_arrival,
                completed_at: now,
            }));
            self.recycle(a);
        }

        // Evict oldest incomplete frames while over capacity, never the
        // frame that just received a packet unless it is the only one.
        while self.total_packets > self.capacity_packets {
            let victim = match self.frames.keys().next().copied() {
                Some(oldest) if oldest != frame_id || self.frames.len() == 1 => oldest,
                // Oldest is the active frame but others exist: evict the
                // next oldest instead.
                Some(_) => match self.frames.keys().nth(1).copied() {
                    Some(v) => v,
                    None => break,
                },
                None => break,
            };
            if let Some(ev) = self.purge_frame(victim) {
                events.push(ev);
            } else {
                break;
            }
        }
    }

    fn remember_finished(&mut self, frame_id: u64) {
        self.max_finished = Some(self.max_finished.map_or(frame_id, |m| m.max(frame_id)));
        self.finished.insert(frame_id);
        while self.finished.len() > self.finished_cap {
            let oldest = *self.finished.iter().next().expect("non-empty");
            self.finished.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamId;

    fn pkt(frame_id: u64, seq: u64, kind: PacketKind) -> VideoPacket {
        VideoPacket {
            stream: StreamId(0),
            sequence: seq,
            frame_id,
            gop_id: frame_id / 90,
            frame_type: if frame_id.is_multiple_of(90) {
                FrameType::Key
            } else {
                FrameType::Delta
            },
            kind,
            size: match kind {
                PacketKind::Media { .. } => 1200,
                PacketKind::Pps => 64,
                PacketKind::Sps => 96,
            },
            capture_time: SimTime::from_millis(frame_id * 33),
        }
    }

    fn frame_packets(frame_id: u64, first_seq: u64, media: u16) -> Vec<VideoPacket> {
        let mut v = vec![pkt(frame_id, first_seq, PacketKind::Pps)];
        for i in 0..media {
            v.push(pkt(
                frame_id,
                first_seq + 1 + i as u64,
                PacketKind::Media {
                    index: i,
                    count: media,
                },
            ));
        }
        v
    }

    #[test]
    fn frame_completes_when_all_packets_arrive() {
        let mut buf = PacketBuffer::new(100);
        let pkts = frame_packets(0, 0, 3);
        let mut completed = None;
        for (i, p) in pkts.iter().enumerate() {
            let evs = buf.insert(SimTime::from_millis(i as u64), p);
            for e in evs {
                if let PacketBufferEvent::FrameComplete(f) = e {
                    completed = Some(f);
                }
            }
        }
        let f = completed.expect("frame should complete");
        assert_eq!(f.frame_id, 0);
        assert_eq!(f.size, 3600);
        assert_eq!(f.first_arrival.as_millis(), 0);
        assert_eq!(f.completed_at.as_millis(), 3);
        assert_eq!(f.fcd().as_millis(), 3);
        assert!(buf.is_empty());
    }

    #[test]
    fn incomplete_without_pps() {
        let mut buf = PacketBuffer::new(100);
        for p in frame_packets(0, 0, 2).iter().skip(1) {
            let evs = buf.insert(SimTime::ZERO, p);
            assert!(evs.is_empty(), "{evs:?}");
        }
        assert_eq!(buf.frames_pending(), 1);
    }

    #[test]
    fn completes_out_of_order() {
        let mut buf = PacketBuffer::new(100);
        let mut pkts = frame_packets(0, 0, 3);
        pkts.reverse();
        let mut done = false;
        for p in &pkts {
            for e in buf.insert(SimTime::from_millis(1), p) {
                if matches!(e, PacketBufferEvent::FrameComplete(_)) {
                    done = true;
                }
            }
        }
        assert!(done);
    }

    #[test]
    fn duplicate_detected() {
        let mut buf = PacketBuffer::new(100);
        let p = pkt(0, 5, PacketKind::Media { index: 0, count: 2 });
        buf.insert(SimTime::ZERO, &p);
        let evs = buf.insert(SimTime::ZERO, &p);
        assert_eq!(evs, vec![PacketBufferEvent::Duplicate { sequence: 5 }]);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn stale_packet_after_completion() {
        let mut buf = PacketBuffer::new(100);
        for p in frame_packets(0, 0, 2) {
            buf.insert(SimTime::ZERO, &p);
        }
        // Re-deliver one of them after the frame completed.
        let evs = buf.insert(
            SimTime::from_millis(9),
            &pkt(0, 1, PacketKind::Media { index: 0, count: 2 }),
        );
        assert_eq!(evs, vec![PacketBufferEvent::StalePacket { frame_id: 0 }]);
    }

    #[test]
    fn eviction_targets_oldest_incomplete_frame() {
        let mut buf = PacketBuffer::new(4);
        // Frame 0: 2 packets, incomplete (missing one media).
        buf.insert(SimTime::ZERO, &pkt(0, 0, PacketKind::Pps));
        buf.insert(
            SimTime::ZERO,
            &pkt(0, 1, PacketKind::Media { index: 0, count: 2 }),
        );
        // Frame 1 packets push the buffer over capacity.
        buf.insert(SimTime::from_millis(33), &pkt(1, 3, PacketKind::Pps));
        buf.insert(
            SimTime::from_millis(33),
            &pkt(1, 4, PacketKind::Media { index: 0, count: 3 }),
        );
        let evs = buf.insert(
            SimTime::from_millis(34),
            &pkt(1, 5, PacketKind::Media { index: 1, count: 3 }),
        );
        assert!(
            evs.contains(&PacketBufferEvent::FrameEvicted {
                frame_id: 0,
                packets_dropped: 2
            }),
            "{evs:?}"
        );
        assert!(buf.is_finished(0));
        // Frame 0's straggler is now stale even though it never completed.
        let evs = buf.insert(
            SimTime::from_millis(40),
            &pkt(0, 2, PacketKind::Media { index: 1, count: 2 }),
        );
        assert_eq!(evs, vec![PacketBufferEvent::StalePacket { frame_id: 0 }]);
    }

    #[test]
    fn eviction_spares_active_frame_when_possible() {
        let mut buf = PacketBuffer::new(3);
        // Oldest frame is the one receiving packets; next-oldest is evicted.
        buf.insert(SimTime::ZERO, &pkt(0, 0, PacketKind::Pps));
        buf.insert(SimTime::ZERO, &pkt(1, 1, PacketKind::Pps));
        buf.insert(
            SimTime::ZERO,
            &pkt(1, 2, PacketKind::Media { index: 0, count: 9 }),
        );
        // This 4th packet belongs to frame 0 (oldest): victim must be frame 1.
        let evs = buf.insert(
            SimTime::ZERO,
            &pkt(0, 3, PacketKind::Media { index: 0, count: 9 }),
        );
        assert!(
            evs.contains(&PacketBufferEvent::FrameEvicted {
                frame_id: 1,
                packets_dropped: 2
            }),
            "{evs:?}"
        );
        assert_eq!(buf.frames_pending(), 1);
    }

    #[test]
    fn purge_frame_reports_drop() {
        let mut buf = PacketBuffer::new(100);
        buf.insert(SimTime::ZERO, &pkt(3, 0, PacketKind::Pps));
        let ev = buf.purge_frame(3).unwrap();
        assert_eq!(
            ev,
            PacketBufferEvent::FrameEvicted {
                frame_id: 3,
                packets_dropped: 1
            }
        );
        assert!(buf.purge_frame(3).is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn sps_packets_ignored() {
        let mut buf = PacketBuffer::new(100);
        let evs = buf.insert(SimTime::ZERO, &pkt(0, 0, PacketKind::Sps));
        assert!(evs.is_empty());
        assert!(buf.is_empty());
    }

    #[test]
    fn multiple_frames_assemble_concurrently() {
        let mut buf = PacketBuffer::new(100);
        let f0 = frame_packets(0, 0, 2);
        let f1 = frame_packets(1, 10, 2);
        // Interleave.
        let mut completions = 0;
        for p in [&f0[0], &f1[0], &f0[1], &f1[1], &f0[2], &f1[2]] {
            for e in buf.insert(SimTime::ZERO, p) {
                if matches!(e, PacketBufferEvent::FrameComplete(_)) {
                    completions += 1;
                }
            }
        }
        assert_eq!(completions, 2);
    }

    /// The buffer as it stood: an assembly that scans its sequences for a
    /// duplicate and its media for an index, and sums sizes on completion.
    struct RefAssembly {
        stream: StreamId,
        gop_id: u64,
        frame_type: FrameType,
        capture_time: SimTime,
        first_arrival: SimTime,
        media: Vec<(u16, usize)>,
        expected_media: Option<u16>,
        has_pps: bool,
        sequences: Vec<u64>,
    }

    impl RefAssembly {
        fn packet_count(&self) -> usize {
            self.sequences.len()
        }

        fn is_complete(&self) -> bool {
            if !self.has_pps {
                return false;
            }
            match self.expected_media {
                Some(n) => self.media.len() == n as usize,
                // (distinct indices: inserts overwrite an existing index)
                None => false,
            }
        }

        fn media_bytes(&self) -> usize {
            self.media.iter().map(|(_, size)| size).sum()
        }
    }

    /// The emptied `(media, sequences)` vectors of a finished [`RefAssembly`].
    type RefSpareVecs = (Vec<(u16, usize)>, Vec<u64>);

    struct RefPacketBuffer {
        capacity_packets: usize,
        frames: BTreeMap<u64, RefAssembly>,
        total_packets: usize,
        finished: std::collections::BTreeSet<u64>,
        finished_cap: usize,
        max_finished: Option<u64>,
        spare: Vec<RefSpareVecs>,
    }

    impl RefPacketBuffer {
        fn new(capacity_packets: usize) -> Self {
            RefPacketBuffer {
                capacity_packets: capacity_packets.max(1),
                frames: BTreeMap::new(),
                total_packets: 0,
                finished: std::collections::BTreeSet::new(),
                finished_cap: 1024,
                max_finished: None,
                spare: Vec::new(),
            }
        }

        fn len(&self) -> usize {
            self.total_packets
        }

        fn frames_pending(&self) -> usize {
            self.frames.len()
        }

        fn is_finished(&self, frame_id: u64) -> bool {
            match self.max_finished {
                Some(max) if frame_id <= max => self.finished.contains(&frame_id),
                _ => false,
            }
        }

        fn purge_frame(&mut self, frame_id: u64) -> Option<PacketBufferEvent> {
            let assembly = self.frames.remove(&frame_id)?;
            let packets_dropped = assembly.packet_count();
            self.total_packets -= packets_dropped;
            self.remember_finished(frame_id);
            self.recycle(assembly);
            Some(PacketBufferEvent::FrameEvicted {
                frame_id,
                packets_dropped,
            })
        }

        fn recycle(&mut self, mut assembly: RefAssembly) {
            assembly.media.clear();
            assembly.sequences.clear();
            self.spare.push((assembly.media, assembly.sequences));
        }

        fn insert_into(
            &mut self,
            now: SimTime,
            packet: &VideoPacket,
            events: &mut Vec<PacketBufferEvent>,
        ) {
            if packet.kind == PacketKind::Sps {
                return;
            }
            if self.is_finished(packet.frame_id) {
                events.push(PacketBufferEvent::StalePacket {
                    frame_id: packet.frame_id,
                });
                return;
            }

            let spare = &mut self.spare;
            let assembly = self.frames.entry(packet.frame_id).or_insert_with(|| {
                let (media, sequences) = spare.pop().unwrap_or_default();
                RefAssembly {
                    stream: packet.stream,
                    gop_id: packet.gop_id,
                    frame_type: packet.frame_type,
                    capture_time: packet.capture_time,
                    first_arrival: now,
                    media,
                    expected_media: None,
                    has_pps: false,
                    sequences,
                }
            });

            if assembly.sequences.contains(&packet.sequence) {
                events.push(PacketBufferEvent::Duplicate {
                    sequence: packet.sequence,
                });
                return;
            }

            match packet.kind {
                PacketKind::Media { index, count } => {
                    assembly.expected_media = Some(count);
                    match assembly.media.iter_mut().find(|(i, _)| *i == index) {
                        Some(slot) => slot.1 = packet.size,
                        None => assembly.media.push((index, packet.size)),
                    }
                }
                PacketKind::Pps => assembly.has_pps = true,
                PacketKind::Sps => unreachable!("SPS filtered above"),
            }
            assembly.sequences.push(packet.sequence);
            let complete = assembly.is_complete();
            self.total_packets += 1;

            let frame_id = packet.frame_id;
            if complete {
                let a = self.frames.remove(&frame_id).expect("assembly exists");
                self.total_packets -= a.packet_count();
                self.remember_finished(frame_id);
                events.push(PacketBufferEvent::FrameComplete(CompleteFrame {
                    stream: a.stream,
                    frame_id,
                    gop_id: a.gop_id,
                    frame_type: a.frame_type,
                    size: a.media_bytes(),
                    capture_time: a.capture_time,
                    first_arrival: a.first_arrival,
                    completed_at: now,
                }));
                self.recycle(a);
            }

            // Evict oldest incomplete frames while over capacity, never the
            // frame that just received a packet unless it is the only one.
            while self.total_packets > self.capacity_packets {
                let victim = match self.frames.keys().next().copied() {
                    Some(oldest) if oldest != frame_id || self.frames.len() == 1 => oldest,
                    // Oldest is the active frame but others exist: evict the
                    // next oldest instead.
                    Some(_) => match self.frames.keys().nth(1).copied() {
                        Some(v) => v,
                        None => break,
                    },
                    None => break,
                };
                if let Some(ev) = self.purge_frame(victim) {
                    events.push(ev);
                } else {
                    break;
                }
            }
        }

        fn remember_finished(&mut self, frame_id: u64) {
            self.max_finished = Some(self.max_finished.map_or(frame_id, |m| m.max(frame_id)));
            self.finished.insert(frame_id);
            while self.finished.len() > self.finished_cap {
                let oldest = *self.finished.iter().next().expect("non-empty");
                self.finished.remove(&oldest);
            }
        }
    }

    /// Seeded packet streams — in order, reordered within and across
    /// frames, duplicated, with a second packet claiming a held index at
    /// another size, with indices and counts no packetizer would produce,
    /// with sequences before and far past a frame's window and frames of
    /// more packets than the window holds, through buffers small enough
    /// to evict and with frames purged from outside — into the buffer and
    /// into the buffer as it stood: the same events, `len()` and
    /// `frames_pending()` after every packet. Every spill branch runs.
    #[test]
    fn buffer_matches_the_scanning_assembly() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let (mut completed, mut duplicates, mut evicted) = (0u64, 0u64, 0u64);
        // Sequences spilled below and past the window, duplicates found
        // in the spill; media indices spilled, and replaced in the spill.
        let (mut below, mut past, mut spilled_duplicates) = (0u64, 0u64, 0u64);
        let (mut spilled_media, mut replaced_media) = (0u64, 0u64);
        // Frames past the window that completed.
        let mut spilled_completed = 0u64;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0x9b0f + seed);
            let capacity = [6, 24, 96, 768][(seed % 4) as usize];
            let mut buffer = PacketBuffer::new(capacity);
            let mut reference = RefPacketBuffer::new(capacity);
            let mut stream: Vec<VideoPacket> = Vec::new();
            // High enough that a sequence from before a frame exists.
            let mut sequence = 10_000u64;
            for frame_id in 0..600u64 {
                // Every 30th frame is larger than the window, loses nothing
                // and gets no packet that breaks its count, so it completes
                // with sizes replaced in the spill.
                let big = frame_id % 30 == 0;
                let media = if big {
                    rng.gen_range(100..300u16)
                } else {
                    rng.gen_range(1..40u16)
                };
                for mut p in frame_packets(frame_id, sequence, media) {
                    p.size = rng.gen_range(1..1_400);
                    if !big && rng.gen_bool(0.03) {
                        continue; // lost
                    }
                    stream.push(p);
                    if rng.gen_bool(0.04) {
                        stream.push(p); // duplicated, maybe reordered below
                    }
                    if let PacketKind::Media { index, count } = p.kind {
                        match rng.gen_range(0..60) {
                            // The same index again under a sequence of its
                            // own (a stray retransmission id), another size.
                            0 => stream.push(VideoPacket {
                                sequence: p.sequence + 1_000_000,
                                size: p.size + 7,
                                ..p
                            }),
                            // An index far beyond the frame's count.
                            1 if !big => stream.push(VideoPacket {
                                sequence: p.sequence + 2_000_000,
                                kind: PacketKind::Media {
                                    index: u16::MAX - index,
                                    count,
                                },
                                ..p
                            }),
                            // A count that disagrees with the frame's.
                            2 if !big => stream.push(VideoPacket {
                                sequence: p.sequence + 3_000_000,
                                kind: PacketKind::Media {
                                    index,
                                    count: rng.gen(),
                                },
                                ..p
                            }),
                            // A sequence from before the frame.
                            3 => stream.push(VideoPacket {
                                sequence: p.sequence - 5_000,
                                size: p.size + 3,
                                ..p
                            }),
                            _ => {}
                        }
                    }
                }
                sequence += u64::from(media) + 1;
            }
            // Reordering: none, local, or across several frames.
            let reach = [0usize, 4, 90][(seed / 4 % 3) as usize];
            if reach > 0 {
                for i in 0..stream.len() {
                    if rng.gen_bool(0.3) {
                        let j = (i + rng.gen_range(0..reach)).min(stream.len() - 1);
                        stream.swap(i, j);
                    }
                }
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (i, p) in stream.iter().enumerate() {
                let now = SimTime::from_micros(i as u64 * 100);
                // The branches the packet takes, read off its assembly
                // (or the one it opens) before it goes in.
                let (spill, replaces) = match buffer.frames.get(&p.frame_id) {
                    _ if p.kind == PacketKind::Sps || buffer.is_finished(p.frame_id) => {
                        (None, false)
                    }
                    held => {
                        let first =
                            held.map_or_else(|| Assembly::first_sequence(p), |a| a.first_sequence);
                        let spill = match p.sequence.checked_sub(first) {
                            None => Some(&mut below),
                            Some(bit) if bit >= WINDOW as u64 => Some(&mut past),
                            Some(_) => None,
                        };
                        let replaces = match p.kind {
                            PacketKind::Media { index, .. } if usize::from(index) >= WINDOW => held
                                .and_then(|a| a.spill.as_ref())
                                .is_some_and(|s| s.media.iter().any(|m| m.0 == index)),
                            _ => false,
                        };
                        (spill, replaces)
                    }
                };
                got.clear();
                buffer.insert_into(now, p, &mut got);
                want.clear();
                reference.insert_into(now, p, &mut want);
                assert_eq!(got, want, "seed {seed} packet {i}: {p:?}");
                let duplicate = matches!(want.first(), Some(PacketBufferEvent::Duplicate { .. }));
                if let Some(spill) = spill {
                    *spill += 1;
                    spilled_duplicates += u64::from(duplicate);
                }
                if let PacketKind::Media { index, .. } = p.kind {
                    let held = !duplicate && !buffer.is_finished(p.frame_id);
                    if held && usize::from(index) >= WINDOW {
                        spilled_media += u64::from(!replaces);
                        replaced_media += u64::from(replaces);
                    }
                }
                if rng.gen_bool(0.01) {
                    let victim = p.frame_id.saturating_sub(rng.gen_range(0..3));
                    assert_eq!(buffer.purge_frame(victim), reference.purge_frame(victim));
                }
                assert_eq!(buffer.len(), reference.len(), "seed {seed} packet {i}");
                assert_eq!(buffer.frames_pending(), reference.frames_pending());
                for e in &want {
                    match e {
                        PacketBufferEvent::FrameComplete(f) => {
                            completed += 1;
                            spilled_completed += u64::from(f.frame_id % 30 == 0);
                        }
                        PacketBufferEvent::Duplicate { .. } => duplicates += 1,
                        PacketBufferEvent::FrameEvicted { .. } => evicted += 1,
                        PacketBufferEvent::StalePacket { .. } => {}
                    }
                }
            }
        }
        assert!(completed > 2_000, "{completed} frames completed");
        assert!(duplicates > 500, "{duplicates} duplicates");
        assert!(evicted > 500, "{evicted} frames evicted");
        assert!(
            below > 1_000 && past > 1_000 && spilled_duplicates > 20,
            "sequences spilled: {below} below the window, {past} past it, \
             {spilled_duplicates} duplicates found there"
        );
        assert!(
            spilled_media > 1_000 && replaced_media > 20,
            "media indices spilled: {spilled_media}, {replaced_media} replaced there"
        );
        assert!(
            spilled_completed > 20,
            "{spilled_completed} frames past the window completed"
        );
    }
}
