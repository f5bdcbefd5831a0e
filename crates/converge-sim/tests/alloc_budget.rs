//! A deterministic allocation budget for the steady-state call loop.
//!
//! The simulation is seed-deterministic, so the number of allocator calls
//! it makes is byte-stable on every machine: unlike wall-clock time it can
//! be ratcheted exactly, with zero noise margin. The budget covers
//! simulated seconds [10, 20) of a clean two-path one-stream call, measured
//! as the difference between a 20 s and a 10 s run of the same seed (the
//! first ten seconds of the long call are the short call; construction and
//! `finish` allocate the same number of times in both).
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
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations_so_far() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls (alloc + realloc) seconds [10, 20) may make: the exact
/// count of the commit that last lowered it. Ratchet it down whenever a
/// change lowers the count; never raise it without saying why in
/// CHANGES.md. At `bdc7642`, before the per-frame buffers were pooled, the
/// same window made 16 509 calls; at `18016e0`, while `RtcpPacket::wire_len`
/// still serialised every RTCP packet to measure it, 9 071.
const BUDGET: u64 = 8_166;

/// Allocator calls one clean two-path one-stream call of `secs` makes.
fn allocations(secs: u64) -> u64 {
    let cfg = SessionConfig::paper_default(
        ScenarioConfig::fec_tradeoff(0.0),
        SchedulerKind::Converge,
        FecKind::Converge,
        1,
        SimDuration::from_secs(secs),
        11,
    );
    let session = Session::new(cfg);
    let before = allocations_so_far();
    let report = session.run();
    let after = allocations_so_far();
    assert!(report.frames_decoded > 0, "the call must carry video");
    after - before
}

#[test]
fn steady_state_allocation_count_stays_within_budget() {
    let ten = allocations(10);
    let twenty = allocations(20);
    assert_eq!(
        (ten, twenty),
        (allocations(10), allocations(20)),
        "the allocation count must repeat exactly"
    );
    let window = twenty - ten;
    println!("seconds [10, 20) made {window} allocator calls, budget {BUDGET}");
    assert!(
        window <= BUDGET,
        "seconds [10, 20) made {window} allocator calls, budget {BUDGET}"
    );
}
