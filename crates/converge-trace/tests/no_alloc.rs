//! The zero-overhead-when-disabled guarantee, enforced: emitting through
//! a disabled [`TraceHandle`] must not touch the allocator. Every event
//! payload is a few `Copy` integers and the handle is an `Option<Arc<..>>`
//! that is `None` when disabled, so the whole emit path is a branch.
//!
//! The counter is per thread: the emit loop runs on the test's own thread,
//! and libtest's main thread allocates whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use converge_net::{PathId, SimTime};
use converge_trace::{CcAlgorithm, CcPhase, LinkState, TraceEvent, TraceHandle};

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

fn every_event(i: u64) -> [TraceEvent; 15] {
    let path = PathId((i % 2) as u8);
    [
        TraceEvent::SplitDecision {
            path,
            packets: i as u32,
            offset: -(i as i64),
        },
        TraceEvent::FastPathSwitched { path },
        TraceEvent::AlphaAdjusted {
            path,
            alpha: i as i64,
            offset: 3,
        },
        TraceEvent::PathDisabled { path, fcd_us: i },
        TraceEvent::PathReenabled {
            path,
            margin_us: i,
            threshold_us: 5_000,
        },
        TraceEvent::FecUpdated {
            path,
            beta_milli: 1_000 + i as u32,
            media: 20,
            repair: 2,
        },
        TraceEvent::CcStateChanged {
            path,
            algorithm: CcAlgorithm::Gcc,
            phase: CcPhase::Overuse,
        },
        TraceEvent::CcRateChanged {
            path,
            algorithm: CcAlgorithm::Gcc,
            rate_bps: i * 1_000,
        },
        TraceEvent::MonitorEdge {
            path,
            state: LinkState::Suspect,
        },
        TraceEvent::FeedbackEmitted {
            path,
            alpha: 1,
            fcd_us: i,
        },
        TraceEvent::NackSent {
            path,
            packets: i as u32,
        },
        TraceEvent::Retransmitted { path },
        TraceEvent::FrameDecoded {
            stream: 0,
            e2e_us: i,
        },
        TraceEvent::FrameDropped { stream: 1 },
        TraceEvent::FrameFrozen { gap_us: i },
    ]
}

#[test]
fn disabled_handle_emits_without_allocating() {
    let trace = TraceHandle::disabled();
    assert!(!trace.is_enabled());

    // Warm up (first iteration may lazily initialize something unrelated).
    for event in every_event(0) {
        trace.emit(SimTime::ZERO, event);
    }

    let before = allocations_so_far();
    for i in 0..10_000u64 {
        let cloned = trace.clone();
        for event in every_event(i) {
            cloned.emit(SimTime::from_micros(i), event);
        }
    }
    let after = allocations_so_far();
    assert_eq!(
        after - before,
        0,
        "disabled trace path allocated {} time(s)",
        after - before
    );
}
