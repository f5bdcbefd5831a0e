//! Deterministic allocation budgets for the steady-state call loop.
//!
//! The simulation is seed-deterministic, so the number of allocator calls
//! it makes is byte-stable on every machine: unlike wall-clock time it can
//! be ratcheted exactly, with zero noise margin. Each budget covers
//! simulated seconds [10, 20) of one call, measured as the difference
//! between a 20 s and a 10 s run of the same seed (the first ten seconds
//! of the long call are the short call; construction and `finish` allocate
//! the same number of times in both). Two cells: a clean two-path
//! one-stream call, and a 5 %-loss three-stream call whose FEC, NACK and
//! retransmission paths the clean one never touches.
//! `cargo run --release -p converge-sim --example alloc_sites -- clean`
//! (or `loss5`) names the call sites behind either count.
//!
//! A third budget covers what a session costs to build: the bytes the
//! first simulated second of either cell asks the allocator for, which is
//! dominated by the sender's and the receiver's history rings (a sweep of
//! a few hundred short calls pays it per cell). `alloc_sites --peak`
//! names the sites that hold the most live bytes at a call's peak.
//!
//! The counter is per thread: the call loop is single-threaded, and the
//! test harness's own threads allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use converge_net::SimDuration;
use converge_sim::{FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// One allocator call asking for `bytes`.
fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocator calls and bytes asked for on this thread so far.
fn allocations_so_far() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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
/// their working buffers, 8 166. What is left is one `Vec` per RTCP packet
/// that owns a list (262), and one growth step of the sender's frame log:
/// its `VecDeque` of per-frame records doubles from 512 to 1 024 entries at
/// the stream's 513th frame, 17.1 s into the call. (The log is not
/// reserved up front: it holds the frames of the newest 65 536 sequences,
/// thousands on a long call and a few dozen on a short one.)
const CLEAN_BUDGET: u64 = 263;

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
/// its list, against 1 707 FEC packets instead of 1 777.
const LOSSY_BUDGET: u64 = 2_770;

/// Allocator calls one two-path Converge call of `secs` makes at `loss_pct`
/// loss on both paths, and the bytes they ask for.
fn allocations(loss_pct: f64, streams: u8, secs: u64) -> (u64, u64) {
    let cfg = SessionConfig::paper_default(
        ScenarioConfig::fec_tradeoff(loss_pct),
        SchedulerKind::Converge,
        FecKind::Converge,
        streams,
        SimDuration::from_secs(secs),
        11,
    );
    let session = Session::new(cfg);
    let before = allocations_so_far();
    let report = session.run();
    let after = allocations_so_far();
    assert!(report.frames_decoded > 0, "the call must carry video");
    (after.0 - before.0, after.1 - before.1)
}

/// Asserts that seconds [10, 20) of the cell repeat exactly and stay within
/// `budget`.
fn assert_window_within(budget: u64, loss_pct: f64, streams: u8) {
    let run = |secs| allocations(loss_pct, streams, secs).0;
    let (ten, twenty) = (run(10), run(20));
    assert_eq!(
        (ten, twenty),
        (run(10), run(20)),
        "the allocation count must repeat exactly"
    );
    let window = twenty - ten;
    println!("seconds [10, 20) made {window} allocator calls, budget {budget}");
    assert!(
        window <= budget,
        "seconds [10, 20) made {window} allocator calls, budget {budget}"
    );
}

#[test]
fn steady_state_allocation_count_stays_within_budget() {
    assert_window_within(CLEAN_BUDGET, 0.0, 1);
}

#[test]
fn lossy_steady_state_allocation_count_stays_within_budget() {
    assert_window_within(LOSSY_BUDGET, 5.0, 3);
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
const CLEAN_CONSTRUCTION_BYTES: u64 = 620_262;

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
/// monitors that judged a frame, −16 each.
const LOSSY_CONSTRUCTION_BYTES: u64 = 1_251_444;

#[test]
fn construction_bytes_stay_within_budget() {
    for (budget, loss_pct, streams) in [
        (CLEAN_CONSTRUCTION_BYTES, 0.0, 1),
        (LOSSY_CONSTRUCTION_BYTES, 5.0, 3),
    ] {
        let (_, bytes) = allocations(loss_pct, streams, 1);
        assert_eq!(
            bytes,
            allocations(loss_pct, streams, 1).1,
            "the byte count must repeat exactly"
        );
        println!("{streams}-stream call at {loss_pct} % loss: second [0, 1) asked for {bytes} bytes, budget {budget}");
        assert!(
            bytes <= budget,
            "{streams}-stream call at {loss_pct} % loss: second [0, 1) asked for {bytes} bytes, budget {budget}"
        );
    }
}
