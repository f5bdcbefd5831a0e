//! Where does the steady state still call the allocator?
//!
//! Runs one named cell twice — to `--from` and to `--to` simulated seconds —
//! under a counting `#[global_allocator]` that captures a backtrace on
//! every Nth call, and prints the allocator calls per simulated second of
//! the window `[from, to)`, grouped by the three innermost `converge_*`
//! frames of each sampled call. The simulation is seed-deterministic, so
//! the long run's first `from` seconds make exactly the short run's calls
//! and hit exactly its samples: the difference is the window.
//!
//! ```text
//! cargo run --release -p converge-sim --example alloc_sites -- loss5
//! cargo run --release -p converge-sim --example alloc_sites -- --every 4 --from 10 --to 20 carrier8
//! ```
//!
//! Cells: `clean` and `loss5` are the two cells `tests/alloc_budget.rs`
//! ratchets; the rest are the benchmark's other shapes (`clean3`,
//! `loss10-table`, `reorder`, `symmetric3`, `carrier8`). The total is exact;
//! per-site rows are samples × N. The release profile keeps line tables, so
//! inlined frames resolve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use converge_net::SimDuration;
use converge_sim::{
    FecKind, ImpairmentKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};

struct SamplingAlloc;

/// Calls and bytes per site key (`inner < caller < caller's caller`).
type Sites = BTreeMap<String, (u64, u64)>;

thread_local! {
    // Const-initialised and without destructors where the allocator reads
    // them, so it can touch them at any point of the thread's life.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// 0 = counting only; N = sample every Nth call.
    static EVERY: Cell<u64> = const { Cell::new(0) };
    /// Set while a sample is being taken: capturing and symbolising a
    /// backtrace allocates, and those calls are the tool's, not the cell's.
    static IN_SAMPLE: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Sites> = const { RefCell::new(BTreeMap::new()) };
}

fn on_call(bytes: usize) {
    if IN_SAMPLE.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let n = CALLS.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    let every = EVERY.with(Cell::get);
    if every == 0 || !n.is_multiple_of(every) {
        return;
    }
    IN_SAMPLE.with(|f| f.set(true));
    let key = site_key(&Backtrace::force_capture().to_string());
    SITES.with(|s| {
        let mut sites = s.borrow_mut();
        let entry = sites.entry(key).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes as u64;
    });
    IN_SAMPLE.with(|f| f.set(false));
}

/// The three innermost `converge_*` frames of a rendered backtrace.
fn site_key(backtrace: &str) -> String {
    let frames: Vec<&str> = backtrace
        .lines()
        .filter_map(|line| line.trim_start().split_once(": ").map(|(_, name)| name))
        .filter(|name| name.contains("converge_") && !name.contains("alloc_sites"))
        .take(3)
        .collect();
    if frames.is_empty() {
        "(no converge_* frame)".into()
    } else {
        frames.join(" < ")
    }
}

unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_call(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_call(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: SamplingAlloc = SamplingAlloc;

const CELLS: &str = "clean clean3 loss5 loss10-table reorder symmetric3 carrier8";

fn cell(name: &str, duration: SimDuration) -> Option<SessionConfig> {
    use SchedulerKind::Converge;
    let (scenario, fec, streams) = match name {
        "clean" => (ScenarioConfig::fec_tradeoff(0.0), FecKind::Converge, 1),
        "clean3" => (ScenarioConfig::fec_tradeoff(0.0), FecKind::Converge, 3),
        "loss5" => (ScenarioConfig::fec_tradeoff(5.0), FecKind::Converge, 3),
        "loss10-table" => (ScenarioConfig::fec_tradeoff(10.0), FecKind::WebRtcTable, 3),
        "reorder" => (
            ScenarioConfig::chaos(ImpairmentKind::Reorder),
            FecKind::Converge,
            1,
        ),
        "symmetric3" => (
            ScenarioConfig::symmetric3(),
            FecKind::Converge,
            1,
        ),
        // A fixed synthesis horizon, so the short and the long run see the
        // same network.
        "carrier8" => (
            ScenarioConfig::multi_carrier(8, SimDuration::from_secs(90), 11),
            FecKind::Converge,
            1,
        ),
        _ => return None,
    };
    Some(SessionConfig::paper_default(
        scenario, Converge, fec, streams, duration, 11,
    ))
}

/// Runs `name` for `secs` simulated seconds; returns exact calls, exact
/// bytes and the sampled sites.
fn measure(name: &str, secs: u64, every: u64) -> (u64, u64, Sites) {
    let cfg = cell(name, SimDuration::from_secs(secs)).expect("cell name was checked");
    let session = Session::new(cfg);
    SITES.with(|s| s.borrow_mut().clear());
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    EVERY.with(|e| e.set(every));
    let report = session.run();
    EVERY.with(|e| e.set(0));
    assert!(report.frames_decoded > 0, "the call must carry video");
    (
        CALLS.with(Cell::get),
        BYTES.with(Cell::get),
        SITES.with(|s| std::mem::take(&mut *s.borrow_mut())),
    )
}

fn usage() -> ! {
    eprintln!("usage: alloc_sites [--every N] [--from S] [--to S] <cell>\ncells: {CELLS}");
    std::process::exit(2);
}

fn main() {
    let (mut every, mut from, mut to, mut name) = (16u64, 10u64, 20u64, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |flag: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {flag} takes a number");
                usage()
            })
        };
        match arg.as_str() {
            "--every" => every = number("--every").max(1),
            "--from" => from = number("--from"),
            "--to" => to = number("--to"),
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    if cell(&name, SimDuration::from_secs(1)).is_none() || from == 0 || to <= from {
        usage();
    }

    let (calls_a, bytes_a, sites_a) = measure(&name, from, every);
    let (calls_b, bytes_b, mut sites) = measure(&name, to, every);
    for (key, (calls, bytes)) in sites_a {
        let entry = sites.entry(key).or_insert((0, 0));
        entry.0 = entry.0.saturating_sub(calls);
        entry.1 = entry.1.saturating_sub(bytes);
    }
    let window = (to - from) as f64;
    println!(
        "cell {name}, simulated seconds [{from}, {to}): {} allocator calls ({:.1}/sim-s), {:.0} B/sim-s; rows are samples x {every}",
        calls_b - calls_a,
        (calls_b - calls_a) as f64 / window,
        (bytes_b - bytes_a) as f64 / window,
    );
    let mut rows: Vec<(String, (u64, u64))> =
        sites.into_iter().filter(|(_, (c, _))| *c > 0).collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    println!("{:>12} {:>12}  site", "calls/sim-s", "B/sim-s");
    for (key, (calls, bytes)) in rows {
        println!(
            "{:>12.1} {:>12.0}  {key}",
            (calls * every) as f64 / window,
            (bytes * every) as f64 / window
        );
    }
}
