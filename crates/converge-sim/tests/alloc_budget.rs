//! Deterministic allocation budgets, read off catalogue cells
//! (`converge_sim::cells`) at seed 11.
//!
//! The simulation is seed-deterministic, so the number of allocator calls
//! it makes is byte-stable on every machine: unlike wall-clock time it can
//! be ratcheted exactly, with zero noise margin. Each budget is the exact
//! reading of the commit that last lowered it:
//!
//! - the allocator calls of simulated seconds [10, 20) of `clean` (two
//!   clean paths, one stream) and of `loss5` (5 % loss, three streams: the
//!   FEC, NACK and retransmission paths the clean call never touches),
//!   measured as the difference between a 20 s and a 10 s run (the first
//!   ten seconds of the long call are the short call; construction and
//!   `finish` allocate the same number of times in both);
//! - the bytes the first second of either asks for: what a session costs
//!   to build, mostly the history rings (a sweep pays it per cell);
//! - the peak live heap of 20 s of either, which `peak_rss_mb` measures in
//!   pages; of `constant8` over 90 s, the cell behind the `call-npath`
//!   workload's peak; of `loss5` over 180 s, the length of the
//!   `call-impaired` workload's cells, what a long call accumulates (the
//!   sender's frame logs most of all); and of `fleet8` over 10 s, one
//!   conference's peak, which is what a second shard adds;
//! - the bytes the 20 s `loss5` report holds once the call is over: what a
//!   sweep's memo cache keeps per cell.
//!
//! `cargo run --release -p converge-sim --example alloc_sites -- clean` (or
//! `-- --peak --to 20 loss5`) names the sites behind a count. The counters
//! are per thread: the call loop and a one-shard fleet are single-threaded,
//! and the test harness's own threads allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use converge_net::SimDuration;
use converge_sim::cells;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Signed: a block this thread frees may have come from another one.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One allocator call asking for `bytes`, which changes this thread's
/// live bytes by `delta`.
fn count_one(bytes: usize, delta: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    change_live(delta);
}

fn change_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// What one run of a cell made: allocator calls, bytes asked for, the most
/// bytes live at once above what was live when it started, and the bytes
/// its report holds (what dropping the report frees).
struct Counts {
    calls: u64,
    bytes: u64,
    peak: u64,
    kept: u64,
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        change_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls (alloc + realloc) seconds [10, 20) of the clean cell may
/// make: the exact count of the commit that last lowered it. Ratchet it
/// down whenever a change lowers the count; never raise it without saying
/// why in CHANGES.md. At `bdc7642`, before the per-frame buffers were
/// pooled, the same window made 16 509 calls; at `18016e0`, while
/// `RtcpPacket::wire_len` still serialised every RTCP packet to measure it,
/// 9 071; at `7c5ef18`, before the schedulers and the QoE monitor kept
/// their working buffers, 8 166; until the packet buffer kept its finished
/// frame ids as a bit window, 263: the `BTreeSet` it replaced allocated a
/// B-tree node every few frames it remembered (−47; a 20 s call finishes
/// about 600 frames, under the 1 024 it keeps, so the set only grew). What
/// is left is one `Vec` per RTCP packet that owns a list, and one growth
/// step of the sender's frame log: its `VecDeque` of 128-byte groups of
/// up to 16 frames doubles from 32 to 64 groups when the 33rd opens, about
/// 17 s into the call (as the deque of 24-byte per-frame records it
/// replaced doubled from 512 to 1 024 at the 513th frame, 17.1 s). The
/// log is not reserved up front: it holds the frames of the newest 65 536
/// sequences, thousands on a long call and a few dozen on a short one.
const CLEAN_BUDGET: u64 = 216;

/// The same for the lossy cell. At `7c5ef18` the window made 29 432 calls;
/// what is left is mostly the `protected` list each FEC packet is built
/// with (which the receiver's pending group now takes over instead of
/// copying), the list each NACK packet owns, and the same growth step of
/// the frame log once per stream (3). It was 4 261 until retransmissions
/// were paid for out of the rate: the window now carries 11 029 media
/// packets where its own repair traffic used to hold it to 7 689, so the
/// same 5 % loss makes 470 NACKed sequences instead of 320 (FEC packets:
/// 1 777 either way), 4 368 until the receiver stopped copying each
/// arriving FEC packet's list (−1 667), and 2 701 until each stream paid
/// for its own retransmissions in the tick they leave and a gap was NACKed
/// three times: the window now carries 13 176 media packets instead of
/// 11 029 and 722 NACKed sequences instead of 470, each NACK packet owning
/// its list, against 1 707 FEC packets instead of 1 777. It was 2 770
/// until the receiver's reorder path kept presence as bits and slots
/// (−24): a fresh packet-buffer assembly grows one vector of sizes where it
/// grew a vector of (index, size) pairs and one of sequences (−27 measured
/// with the old gap tracker), and the gap tracker's two deques grow in
/// more steps than its one deque of gap records did (+3). It was 2 746
/// until the finished frame ids became a bit window (−143, three streams'
/// B-tree nodes, as in the clean cell). It was 2 603 until the QoE
/// monitors kept tallies instead of arrivals (−188): a recycled arrival
/// list grew whenever a frame brought more packets than the list it
/// reused had room for; a tally is counted in place. (The feedback rings'
/// spills grow in the window too, a few doubling steps.)
const LOSSY_BUDGET: u64 = 2_415;

/// What the catalogue cell `name` asks of the allocator over `secs`, at
/// seed 11. Building the cell's config is not counted.
fn counts(name: &str, secs: u64) -> Counts {
    let cell = cells::cell(name, SimDuration::from_secs(secs), 11).expect("a catalogue cell");
    let (calls, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    let outcome = cell.run();
    let (calls, bytes, peak) = (
        ALLOCATIONS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
        (PEAK.with(Cell::get) - live) as u64,
    );
    assert!(outcome.fps() > 0.0, "{name} must carry video");
    // What the report holds is what dropping it frees, on this thread
    // (`LOSSY_REPORT_BYTES` says why).
    let live = LIVE.with(Cell::get);
    drop(outcome);
    let kept = (live - LIVE.with(Cell::get)) as u64;
    Counts {
        calls,
        bytes,
        peak,
        kept,
    }
}

/// Asserts that `reading` repeats exactly and stays within `budget`, and
/// prints it: "`what` <reading> `unit`, budget <budget>".
fn assert_within(budget: u64, what: &str, unit: &str, reading: impl Fn() -> u64) {
    let value = reading();
    assert_eq!(value, reading(), "{what} must repeat exactly");
    println!("{what} {value} {unit}, budget {budget}");
    assert!(value <= budget, "{what} {value} {unit}, budget {budget}");
}

/// Asserts that seconds [10, 20) of the cell repeat exactly and stay within
/// `budget`.
fn assert_window_within(budget: u64, name: &str) {
    let window = || counts(name, 20).calls - counts(name, 10).calls;
    let what = format!("{name}: seconds [10, 20) made");
    assert_within(budget, &what, "allocator calls", window);
}

#[test]
fn steady_state_allocation_count_stays_within_budget() {
    assert_window_within(CLEAN_BUDGET, "clean");
}

#[test]
fn lossy_steady_state_allocation_count_stays_within_budget() {
    assert_window_within(LOSSY_BUDGET, "loss5");
}

/// Bytes the first simulated second of the clean one-stream call may ask
/// the allocator for (the flows and their rings are built inside `run`):
/// the exact count of the commit that last lowered it, to be ratcheted
/// like the call counts above. At `64417ed` it asked for 4 988 774: the
/// sender's ring of whole packets per stream (65 536 × 56 B) and a 32-byte
/// feedback slot per transport sequence per path (2 × 16 384 × 32 B) made
/// up 4.7 MB of it. The stream ring is now four bytes a sequence plus a
/// 56-byte record per frame sent. It was 1 060 510 until every per-packet
/// record shrank to one 8-byte word:
///
/// - the receiver's `recent` ring, a sequence instead of a 48-byte
///   `Option<VideoPacket>`: −163 840 (4 096 × 40 B, one stream);
/// - the feedback slot, 16 → 8 bytes: −262 144 (16 384 × 8 B, two paths);
/// - the QoE monitor's arrival records, 16 → 8 bytes an arrival: −800;
/// - the rate windows' entries, 16 → 8 bytes a packet: −6 080.
///
/// The largest buffers left are the feedback rings (128 KiB a path) and
/// the media slots (256 KiB a stream). It was 627 646 until the GCC tuning
/// became constants: each path's boxed controller stopped carrying copies
/// of the trendline (56 B), AIMD (40 B) and loss-based (40 B) settings,
/// −136 B a path, −272 over two. It was 627 374 until per-path and
/// per-stream state became tables indexed by id (−7 112):
///
/// - the receiver's stream tree map, −5 912: a 5 920-byte B-tree leaf and
///   the 544-byte-a-stream `Vec` it was collected from, against one
///   552-byte entry a stream (which now holds the stream's last PLI);
/// - the sender's controller tree map and path-tagged ring list, −944: a
///   992-byte leaf and two collection `Vec`s against one 128-byte entry a
///   path;
/// - the small tables that lost their ids, −256: per-path media groups
///   −64, the metrics' decode map −96, metrics accounts, pacer queues and
///   the scheduler's budget −32 each, receiver path state −16; and +16
///   for the NACK attribution table, now built with the sender.
///
/// It was 620 262 until the media pipeline's settings became constants
/// (−224), each a copy the structures no longer carry:
///
/// - a link, 552 → 520 B (CoDel's target and interval left the link's
///   stage state, which shrank 32 B with the enum's layout), −128 over
///   the two paths' four links;
/// - the encoder, 152 → 104 B (its config keeps the stream and the rate
///   cap: 64 → 16 B), −48 a stream;
/// - the packetizer, 48 → 24 B (MTU, PPS and SPS sizes), −24 a stream;
/// - the boxed Converge scheduler, 376 → 360 B (`k` and the probe
///   interval), −16;
/// - the QoE monitor, 176 → 168 B (its feedback cooldown), −8 a stream.
///
/// It was 620 038 until the sender's rings stopped storing what send order
/// already says (−264 344):
///
/// - the media slot, 4 → 1 B (the path id, no generation): −196 608
///   (65 536 × 3 B, one stream);
/// - the feedback slot, 8 → 6 B (no generation): −65 536 (16 384 × 2 B,
///   two paths);
/// - the frame record, 56 → 24 B: −1 920 (the log grows to 32 records in
///   the first second, asking for 4 + 8 + 16 + 32 of them);
/// - the report's E2E samples, converted in place instead of copied: −280
///   (35 samples × 8 B).
///
/// It was 355 694 until the report kept its E2E samples as LEB128 deltas
/// (−190; the second decodes 29 frames):
///
/// - the collector records a sample as a `u32`, not a `u64`: its buffer
///   grows through 4, 8, 16 and 32 slots of 4 B instead of 8, −240;
/// - the report's samples are one exactly sized buffer of 50 bytes, +50
///   (they reused the collector's buffer before).
///
/// It was 355 504 until the receiver's reorder path kept presence as bits
/// and slots (−1 352):
///
/// - the packet buffer, −1 160 (measured with the old gap tracker): a
///   fresh assembly grows one vector of 8-byte sizes where it grew one of
///   16-byte (index, size) pairs and one of 8-byte sequences; of that,
///   +264 is the frame map's B-tree leaf, which holds eleven 112-byte
///   assemblies instead of eleven 88-byte ones;
/// - the gap tracker, −192: a byte per sequence and a 16-byte record per
///   skip instead of a 24-byte record per open gap.
///
/// It was 354 152 until a link followed one trace (−224): a `LinkConfig`
/// holds one shared `DriveTrace` (16 B) where it held a rate trace (32 B),
/// a static delay (8 B) and an optional drive (24 B), −48 B a link, −192
/// over the two paths' four links; and a link shares its path's samples
/// where it copied the rate trace's one 8-byte rate, −32.
///
/// It was 353 928 until the QoE monitor dropped the last FCD it kept and
/// nothing read (−8): one 8-byte `SimDuration` in each stream's monitor.
///
/// It was 353 920 until the packet buffer kept its finished frame ids as
/// a bit window (−560): the first second's 30 ids take one 64-byte block
/// of 16-byte words where the `BTreeSet` grew B-tree nodes.
///
/// It was 353 360 until a call kept only what a lookup can still reach
/// (−242 312):
///
/// - the feedback rings, 16 384 → 1 024 dense slots of 6 B (the rest of
///   the horizon is a spill of unmatched sequences, empty in a clean
///   first second): −184 320 (2 × 15 360 × 6 B);
/// - the media slots, 8 → 1 bit a sequence on two paths: −57 344
///   (65 536 × 7/8 B);
/// - the QoE monitor, tallies instead of arrival lists, less the larger
///   ring and history structs: −648.
///
/// It was 111 048 until the report packed its per-second series (−255):
/// the path series' 288-byte B-tree leaf went, the packed series take
/// 10 bytes (two paths' one second, with their ids and lengths) and the
/// one packed bin 23 (the collector's bins and series were moved into
/// the report before, and are freed now).
///
/// It was 110 793 until the frame log was delta-packed and the receiver's
/// `recent` slot became a 32-bit tag (−17 184):
///
/// - the receiver's `recent` ring, 8 → 4 B a slot: −16 384 (4 096 slots);
/// - the frame log, −928: the first second's 30 frames take two 128-byte
///   groups of a deque of 4 (512 B) where the deque of 24-byte records
///   grew through 4, 8, 16 and 32 of them (1 440 B);
/// - the media history, 72 → 136 B (it keeps the frame last begun, 56 B,
///   to write the next one's deltas against, and the frame interval),
///   asked for twice, in the list of histories and in the stream's
///   pipeline: +128.
const CLEAN_CONSTRUCTION_BYTES: u64 = 93_609;

/// The same for the lossy three-stream call; 12 775 968 at `64417ed`,
/// 2 039 080 until the first second's retransmissions were paid for out of
/// its frames (376 media packets against 382: no buffer changed size), and
/// 2 038 542 until the one-word records: `recent` −491 520 (three
/// streams), feedback slots −262 144, arrival records −2 256, rate windows
/// −6 080, and −5 856 for the FEC lists the receiver no longer copies; and
/// 1 270 686 until each stream paid for its own retransmissions in the tick
/// they leave (−11 682: the first second sends 79 FEC packets, each owning
/// its protected list, instead of 108; no buffer changed size); and
/// 1 259 004 until the GCC tuning became constants (−136 B a path, as
/// above); and 1 258 732 until the tables indexed by id (−7 288): as
/// above, but the stream map −5 896 on three streams, the decode map −64,
/// the NACK table −48 (the first second NACKs, and the old list grew to
/// four entries), and two things the clean second never allocates: the
/// tree map of PLI instants −112 and the late/early tally of the three
/// monitors that judged a frame, −16 each; and 1 251 444 until the
/// pipeline constants (−384: as above, three streams' encoders, packetizers
/// and monitors −240, the four links −128, the scheduler −16); and
/// 1 251 060 until the rings stopped storing what send order says
/// (−661 728): media slots −589 824 (three streams), feedback slots
/// −65 536, frame records −5 760 (three logs) and the E2E samples' copy
/// −608 (76 samples); and 589 332 until the samples became LEB128 deltas
/// (−875, 66 samples): the `u32` buffer's growth to 128 slots −1 008, the
/// report's 133-byte buffer +133; and 588 457 until the reorder path's
/// bits and slots (−2 000): the packet buffer −2 072 (three streams'
/// leaves +792 of it), the gap tracker +72; and 586 457 until a link
/// followed one trace (−224, as above); and 586 233 until the monitors'
/// unread last FCD went (−24, three streams); and 586 209 until the
/// finished frame ids became a bit window (−1 680, three streams, as
/// above); and 584 529 until a call kept only what a lookup can reach
/// (−358 280): feedback rings −184 320 and media slots −172 032 (three
/// streams) as above, and the three QoE monitors' tallies less the larger
/// structs −1 928; and 226 249 until the report packed its per-second
/// series (−254: the leaf −288, the packed series +10 and bin +24); and
/// 225 995 until the delta-packed frame log and the 32-bit `recent` tag
/// (−51 552: three streams of −16 384 and −800, as above).
const LOSSY_CONSTRUCTION_BYTES: u64 = 174_443;

#[test]
fn construction_bytes_stay_within_budget() {
    for (budget, name) in [
        (CLEAN_CONSTRUCTION_BYTES, "clean"),
        (LOSSY_CONSTRUCTION_BYTES, "loss5"),
    ] {
        let what = format!("{name}: second [0, 1) asked for");
        assert_within(budget, &what, "bytes", || counts(name, 1).bytes);
    }
}

/// The most bytes a 20 s clean one-stream call holds at once, above what
/// was live before it ran: the exact reading of the commit that last
/// lowered it, to be ratcheted like the budgets above. Unlike the
/// construction bytes, it sees what a call accumulates (the frame log, the
/// metrics' samples) and what it frees along the way. It read 796 082
/// while the sender's rings still stored what send order already says: a
/// 4-byte media slot, an 8-byte feedback slot, a 56-byte frame record, and
/// a copy of the E2E samples made by the report. It read 500 353 while
/// the collector recorded its E2E samples as `u64`s: at the peak their
/// buffer holds 1 024 slots, −4 096 at 4 B a slot. It read 496 257 until
/// the receiver's reorder path kept presence as bits and slots: −5 104, of
/// which the packet buffer's assemblies and their spare buffers −4 280
/// (measured with the old gap tracker), the gap tracker −824. It read
/// 491 153 until a link followed one trace: −224, the four links' smaller
/// configs and the rate copies they no longer make (see the construction
/// bytes above). It read 490 929 until the QoE monitor's unread last FCD
/// went: −8. It read 490 921 until the packet buffer kept its finished
/// frame ids as a bit window: −10 848, about 600 ids in the B-tree nodes
/// of a `BTreeSet` against ten 16-byte words. It read 480 073 until a call
/// kept only what a lookup can reach: −243 992, of which the feedback
/// rings' dense slots −184 320, the one-bit media slots −57 344 and the
/// QoE monitor's tallies (with the larger structs) −2 328; no sequence
/// spills on this call. It read 236 081 until the frame log was
/// delta-packed and the `recent` slot became a 32-bit tag: −32 704, of
/// which `recent` −16 384 and the frame log −16 320 (by 20 s its
/// some 40 groups sit in a deque of 64, 8 KiB, where about 600 records
/// sat in one of 1 024, 24 KiB; the history itself is 64 B larger).
const CLEAN_PEAK_BYTES: u64 = 203_377;

/// The same for the 20 s lossy three-stream call; 1 608 388 before the
/// sender's rings stopped storing what send order says, and 847 202 before
/// the `u32` samples (2 048 slots at the peak, −8 192), and 839 010 before
/// the reorder path's bits and slots (−7 440: the packet buffer −7 752,
/// the gap tracker +312), and 831 570 before a link followed one trace
/// (−224, as in the clean cell), and 831 346 before the monitors' unread
/// last FCD went (−24), and 831 322 before the finished frame ids became a
/// bit window (−33 472, three streams, as in the clean cell), and 797 850
/// before a call kept only what a lookup can reach (−369 360, `alloc_sites
/// -- --peak --to 20 loss5`): the feedback rings' dense slots −184 320, the
/// one-bit media slots −172 032, the three QoE monitors −37.8 KiB
/// (45.4 KiB of arrival lists, their pool and the tally buffer against
/// 7.6 KiB of tallies), and +25.0 KiB for what the two rings' spills hold
/// at the peak: the sequences 5 % loss leaves unmatched, 10 bytes each;
/// and 428 490 before the delta-packed frame log and the 32-bit `recent`
/// tag (−98 112: three streams of −16 384 and −16 320, as in the clean
/// cell).
const LOSSY_PEAK_BYTES: u64 = 330_378;

/// Asserts that `secs` of the cell peak at the same live bytes twice and
/// within `budget`.
fn assert_peak_within(budget: u64, name: &str, secs: u64) {
    let what = format!("{name} x {secs} s: peak live heap");
    assert_within(budget, &what, "bytes", || counts(name, secs).peak);
}

#[test]
fn clean_peak_heap_stays_within_budget() {
    assert_peak_within(CLEAN_PEAK_BYTES, "clean", 20);
}

#[test]
fn lossy_peak_heap_stays_within_budget() {
    assert_peak_within(LOSSY_PEAK_BYTES, "loss5", 20);
}

/// The most bytes the `alloc_sites` `constant8` cell holds at once over
/// 90 s: three streams over eight constant paths, seed 11, the cell that
/// sets the `call-npath` workload's peak (`alloc_sites -- --peak --to 90
/// constant8` names the sites, and reads 2 314 B more: it also counts
/// what building the session allocates). The exact reading of the commit
/// that last lowered it, to be ratcheted like the budgets above. It read
/// 2 214 769 while every path kept a 16 384-slot feedback ring (768 KiB
/// over eight paths), every QoE monitor kept each arrival of up to 64
/// frames and a pool of emptied arrival lists (190 KiB over three
/// streams), and each stream's media history kept one byte per sequence
/// (192 KiB). The rings now keep 1 024 dense slots (48 KiB) and a spill
/// of the sequences whose feedback is still out (12.5 KiB at the peak),
/// the monitors keep tallies (16.5 KiB), and a sequence's path takes
/// 4 bits (96 KiB). It read 1 214 505 until the frame log was
/// delta-packed and the `recent` slot became a 32-bit tag (−245 568):
/// each stream's 2 700 frames take 186 groups in a deque of 256 (32 KiB)
/// where their records took a deque of 4 096 (96 KiB), −196 416
/// over three streams with their 64-byte larger histories; the three
/// `recent` rings −49 152.
const CONSTANT8_PEAK_BYTES: u64 = 968_937;

#[test]
fn constant8_peak_heap_stays_within_budget() {
    assert_peak_within(CONSTANT8_PEAK_BYTES, "constant8", 90);
}

/// The most bytes the 5 %-loss three-stream call holds at once over 180 s,
/// the length of the `call-impaired` workload's cells, above what was live
/// before it ran: the exact reading of the commit that last lowered it, to
/// be ratcheted like the budgets above (`alloc_sites -- --peak --to 180
/// loss5` names the sites, and reads 608 B more: it also counts building
/// the session). It read 1 129 773 while each stream's frame log was a
/// deque of 24-byte records, one per frame of the newest 65 536 sequences
/// (some 4 500 by the end of the call) in a deque of 8 192: 576 KiB over
/// three streams. Each log is now a deque of 128-byte groups of up to 16
/// frames, 15.5 on average, 8.3 B a frame: some 290 groups in a deque of
/// 512, 192 KiB over three (−393 024 with the histories' 64 more bytes);
/// and the three `recent` rings take 4 B a slot where they took 8
/// (−49 152).
const LONG_LOSSY_PEAK_BYTES: u64 = 687_597;

#[test]
fn long_lossy_peak_heap_stays_within_budget() {
    assert_peak_within(LONG_LOSSY_PEAK_BYTES, "loss5", 180);
}

/// The most bytes a fleet of 128 sessions in conferences of 8 holds at
/// once over 10 s, seed 11, on one shard (which runs on the calling
/// thread): the peak of its largest conference, the exact reading of the
/// commit that last lowered it, to be ratcheted like the budgets above.
/// It is the `alloc_sites -- --peak --to 10 fleet8` cell, whose table
/// names the sites. It read 1 111 419 while every viewer kept its frames in
/// assembly in a hash map of 512 slots of 56 B (228.1 KiB over 8
/// viewers), every member owned a frame tick's working buffers (109.4 KiB
/// over 8), and every receiver kept its finished frame ids in a
/// `BTreeSet` (43.6 KiB). It reads 830 942 since each viewer's frames are
/// in a table of 352 packed 32-byte slots (88.0 KiB over 8 viewers), one
/// set of working buffers serves the whole shard, and a receiver's finished
/// ids are a bit window. It read 830 942 until the QoE monitors kept
/// tallies (44.0 + 25.3 KiB of arrival lists and their pools against
/// 20.0 KiB of tallies) and a member's 2 048 media slots took one bit each
/// on its one uplink path (16 → 2 KiB over 8): −64 504. The fleet's
/// 512-slot feedback rings are all dense, as before. It read 766 438
/// until the frame log was delta-packed and the `recent` slot became a
/// 32-bit tag (−81 408): a member's 300 frames take a deque of 32 groups
/// (4 KiB) where its records took one of 512 (12 KiB), −65 024 over 8
/// members with their 64-byte larger histories; the 512-slot `recent`
/// rings, 2 KiB less each, −16 384. It read 685 030 until the metrics
/// collector stopped keeping five call totals beside the per-second bins
/// that count the same events (−320: 40 B in each of the 8 members' flows,
/// which a conference keeps on the heap). It read 684 710 until the
/// receiver dropped its PLI counter, which nothing read (−64: a `u64` in
/// each of the 8 members' flows). It read 684 646 until a flow stopped
/// storing the direction its media travels, always `Forward` (−64: a flow
/// shrank from 688 to 680 bytes, in each of the 8 members).
const FLEET8_PEAK_BYTES: u64 = 684_582;

#[test]
fn fleet8_peak_heap_stays_within_budget() {
    assert_peak_within(FLEET8_PEAK_BYTES, "fleet8", 10);
}

/// The bytes the report of the 20 s lossy three-stream call holds: what
/// dropping the `CallReport` frees, on the thread that made it. The exact
/// reading of the commit that last lowered it, to be ratcheted like the
/// budgets above. A sweep's memo cache keeps one report per cell for the
/// whole run, so this is what a cell costs after it has run. It read
/// 18 648 while the report kept its E2E samples as a `Vec<f64>` of
/// milliseconds: the collector's buffer, 2 048 slots of 8 B for 1 769
/// samples. They are now 2 310 bytes of LEB128 deltas (−14 074).
///
/// Until it was measured as what `drop` frees, this read the thread's live
/// bytes gained over the whole call, which also counted whatever else the
/// thread allocated or freed meanwhile: 3 966 in a run of the whole file,
/// 4 574 alone. The 4 574 B were: E2E samples 2 310; `bins` 1 280 (20
/// seconds × 64 B); `path_series` 608 (two paths × 20 × 8 B, and a
/// 288-byte B-tree leaf); `paths` 376 (one B-tree leaf of counters).
///
/// Since the report packs its per-second series (−1 274), the 3 300 B are:
/// E2E samples 2 310; `bins` 490 (the 20 bins' 220 fields as LEB128,
/// −790); `path_series` 124 (each path's id, length and 20 byte counts as
/// LEB128, −484); `paths` 376.
const LOSSY_REPORT_BYTES: u64 = 3_300;

#[test]
fn report_bytes_stay_within_budget() {
    let what = "loss5 x 20 s: its report holds";
    assert_within(LOSSY_REPORT_BYTES, what, "bytes", || {
        counts("loss5", 20).kept
    });
}
