//! Where does the steady state still call the allocator, and what holds
//! the heap at its peak?
//!
//! Window mode (the default) runs one named cell twice — to `--from` and
//! to `--to` simulated seconds — under a counting `#[global_allocator]`
//! that captures a backtrace on every Nth call, and prints the allocator
//! calls per simulated second of the window `[from, to)`, grouped by the
//! three innermost `converge_*` frames of each sampled call. The
//! simulation is seed-deterministic, so the long run's first `from`
//! seconds make exactly the short run's calls and hit exactly its samples:
//! the difference is the window.
//!
//! Peak mode (`--peak`) runs the cell from 0 to `--to` seconds, twice.
//! The first run tracks every live block and finds the allocator call
//! after which the live total was highest, and which blocks were live at
//! that instant; the second run makes exactly the same calls and captures
//! a backtrace for each of those blocks only. Rows are the bytes and
//! blocks live at the peak per site, and they sum to the peak exactly.
//!
//! ```text
//! cargo run --release -p converge-sim --example alloc_sites -- loss5
//! cargo run --release -p converge-sim --example alloc_sites -- --every 4 --from 10 --to 20 carrier8
//! cargo run --release -p converge-sim --example alloc_sites -- --peak --to 90 constant8
//! ```
//!
//! A cell is any of the catalogue's (`converge_sim::cells`), at seed 11.
//! Totals are exact; window rows are samples × N. The release profile
//! keeps line tables, so inlined frames resolve. A row's key can be
//! renamed by LLVM merging call sites, so rows are not source-stable: a
//! refactor far from an allocation can move its bytes to another row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use converge_net::SimDuration;
use converge_sim::cells;

struct SamplingAlloc;

/// Calls (or blocks) and bytes per site key (`inner < caller < caller's
/// caller`).
type Sites = BTreeMap<String, (u64, u64)>;

/// What the allocator hooks do besides counting.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    Count,
    /// Window mode: sample every Nth call.
    Sample(u64),
    /// Peak mode, first run: track live blocks and the peak.
    Track,
    /// Peak mode, second run: attribute the blocks live at the peak.
    Attribute,
}

thread_local! {
    // Const-initialised and without destructors where the allocator reads
    // them, so it can touch them at any point of the thread's life.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static PASS: Cell<Pass> = const { Cell::new(Pass::Count) };
    /// Set while the tool itself works inside a hook: capturing and
    /// symbolising a backtrace, or growing its own maps, allocates, and
    /// those calls are the tool's, not the cell's.
    static IN_TOOL: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Sites> = const { RefCell::new(BTreeMap::new()) };
    /// `Track`: the call number of every live block, by address.
    static LIVE: RefCell<BTreeMap<usize, u64>> = const { RefCell::new(BTreeMap::new()) };
    /// `Track`: for call `n`, at index `n − 1`, the number of calls made
    /// when its block was freed (`u64::MAX` while it lives).
    static FREED_AT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LIVE_BYTES: Cell<u64> = const { Cell::new(0) };
    /// `Track`: the highest live total and the call it followed.
    static PEAK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// `Attribute`: ascending numbers of the calls whose blocks were live
    /// at the peak, and how many of them have been seen.
    static WANTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static SEEN: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` as the tool's own work: allocations inside it are not counted.
fn as_tool(f: impl FnOnce()) {
    IN_TOOL.with(|t| t.set(true));
    f();
    IN_TOOL.with(|t| t.set(false));
}

fn on_alloc(ptr: *mut u8, bytes: usize) {
    if ptr.is_null() || IN_TOOL.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let n = CALLS.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    match PASS.with(Cell::get) {
        Pass::Count => {}
        Pass::Sample(every) => {
            if n.is_multiple_of(every) {
                as_tool(|| record_site(bytes));
            }
        }
        Pass::Track => as_tool(|| {
            LIVE.with(|l| l.borrow_mut().insert(ptr as usize, n));
            FREED_AT.with(|f| f.borrow_mut().push(u64::MAX));
            let live = LIVE_BYTES.with(|l| {
                l.set(l.get() + bytes as u64);
                l.get()
            });
            if live > PEAK.with(Cell::get).0 {
                PEAK.with(|p| p.set((live, n)));
            }
        }),
        Pass::Attribute => {
            let seen = SEEN.with(Cell::get);
            if WANTED.with(|w| w.borrow().get(seen) == Some(&n)) {
                SEEN.with(|s| s.set(seen + 1));
                as_tool(|| record_site(bytes));
            }
        }
    }
}

fn on_free(ptr: *mut u8, bytes: usize) {
    if IN_TOOL.try_with(Cell::get).unwrap_or(true) || PASS.with(Cell::get) != Pass::Track {
        return;
    }
    as_tool(|| {
        if let Some(n) = LIVE.with(|l| l.borrow_mut().remove(&(ptr as usize))) {
            FREED_AT.with(|f| f.borrow_mut()[n as usize - 1] = CALLS.with(Cell::get));
            LIVE_BYTES.with(|l| l.set(l.get() - bytes as u64));
        }
    });
}

/// Adds one call (or block) of `bytes` to the site of the current
/// backtrace.
fn record_site(bytes: usize) {
    let key = site_key(&Backtrace::force_capture().to_string());
    SITES.with(|s| {
        let mut sites = s.borrow_mut();
        let entry = sites.entry(key).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes as u64;
    });
}

/// The three innermost `converge_*` frames of a rendered backtrace, less
/// the tool's own and the catalogue's that built and ran the cell.
fn site_key(backtrace: &str) -> String {
    let harness = |name: &str| name.contains("alloc_sites") || name.contains("converge_sim::cells");
    let frames: Vec<&str> = backtrace
        .lines()
        .filter_map(|line| line.trim_start().split_once(": ").map(|(_, name)| name))
        .filter(|name| name.contains("converge_") && !harness(name))
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
        let ptr = System.alloc(layout);
        on_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(ptr, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            on_free(ptr, layout.size());
        }
        on_alloc(new, new_size);
        new
    }
}

#[global_allocator]
static ALLOCATOR: SamplingAlloc = SamplingAlloc;

/// Runs `name` for `secs` simulated seconds under `pass`, counting from a
/// reset — before building the cell if `count_build`, after it if not;
/// returns the exact calls and bytes and the recorded sites.
fn measure(name: &str, secs: u64, pass: Pass, count_build: bool) -> (u64, u64, Sites) {
    let build = || cells::build(name, SimDuration::from_secs(secs), 11).expect("a checked name");
    let built = (!count_build).then(build);
    SITES.with(|s| s.borrow_mut().clear());
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    PASS.with(|p| p.set(pass));
    let fps = built.unwrap_or_else(build).run().fps();
    assert!(fps > 0.0, "the cell must carry video");
    PASS.with(|p| p.set(Pass::Count));
    (
        CALLS.with(Cell::get),
        BYTES.with(Cell::get),
        SITES.with(|s| std::mem::take(&mut *s.borrow_mut())),
    )
}

/// Prints one `row(count, bytes, site)` per site, the largest count (or
/// bytes, if `order_by_bytes`) first.
fn print_rows(sites: Sites, order_by_bytes: bool, row: impl Fn(u64, u64, &str)) {
    let mut rows: Vec<(String, (u64, u64))> =
        sites.into_iter().filter(|(_, (c, _))| *c > 0).collect();
    let key = |r: &(String, (u64, u64))| if order_by_bytes { r.1 .1 } else { r.1 .0 };
    rows.sort_by(|a, b| key(b).cmp(&key(a)).then_with(|| a.0.cmp(&b.0)));
    for (site, (count, bytes)) in rows {
        row(count, bytes, &site);
    }
}

fn window(name: &str, every: u64, from: u64, to: u64) {
    let pass = Pass::Sample(every);
    let (calls_a, bytes_a, sites_a) = measure(name, from, pass, false);
    let (calls_b, bytes_b, mut sites) = measure(name, to, pass, false);
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
    println!("{:>12} {:>12}  site", "calls/sim-s", "B/sim-s");
    print_rows(sites, false, |calls, bytes, site| {
        println!(
            "{:>12.1} {:>12.0}  {site}",
            (calls * every) as f64 / window,
            (bytes * every) as f64 / window
        );
    });
}

fn peak(name: &str, to: u64) {
    LIVE_BYTES.with(|l| l.set(0));
    PEAK.with(|p| p.set((0, 0)));
    let (calls, _, _) = measure(name, to, Pass::Track, true);
    let (peak_bytes, at_call) = PEAK.with(Cell::get);
    let freed_at = FREED_AT.with(|f| std::mem::take(&mut *f.borrow_mut()));
    drop(LIVE.with(|l| std::mem::take(&mut *l.borrow_mut())));
    // A block is live at the peak if it was allocated by the peak's call
    // and freed after it.
    let wanted: Vec<u64> = (1..=at_call)
        .filter(|&n| freed_at[n as usize - 1] >= at_call)
        .collect();
    let blocks = wanted.len();
    WANTED.with(|w| *w.borrow_mut() = wanted);
    SEEN.with(|s| s.set(0));
    let (calls_again, _, sites) = measure(name, to, Pass::Attribute, true);
    drop(WANTED.with(|w| std::mem::take(&mut *w.borrow_mut())));
    let attributed: u64 = sites.values().map(|&(_, bytes)| bytes).sum();
    assert_eq!(
        (calls_again, attributed),
        (calls, peak_bytes),
        "the second run must repeat the first"
    );
    println!(
        "cell {name}, simulated seconds [0, {to}): peak live heap {peak_bytes} B ({:.2} MiB) after allocator call {at_call} of {calls}, {blocks} blocks",
        peak_bytes as f64 / (1 << 20) as f64,
    );
    println!("{:>12} {:>8}  site", "live KiB", "blocks");
    print_rows(sites, true, |blocks, bytes, site| {
        println!("{:>12.1} {blocks:>8}  {site}", bytes as f64 / 1024.0);
    });
}

fn usage() -> ! {
    eprintln!(
        "usage: alloc_sites [--every N] [--from S] [--to S] <cell>\n       alloc_sites --peak [--to S] <cell>\ncells: {}",
        cells::names(true)
    );
    std::process::exit(2);
}

fn main() {
    let (mut every, mut from, mut to, mut name) = (16u64, 10u64, 20u64, None);
    let mut peak_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |flag: &str, parse: fn(&str) -> Option<u64>| -> u64 {
            args.next().and_then(|v| parse(&v)).unwrap_or_else(|| {
                eprintln!("error: {flag} takes a number");
                usage()
            })
        };
        match arg.as_str() {
            "--every" => every = number("--every", |v| v.parse().ok()).max(1),
            "--from" => from = number("--from", cells::secs),
            "--to" => to = number("--to", cells::secs),
            "--peak" => peak_mode = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    if cells::find(&name).is_none() {
        usage();
    }
    if peak_mode {
        peak(&name, to);
    } else if to <= from {
        usage();
    } else {
        window(&name, every, from, to);
    }
}
