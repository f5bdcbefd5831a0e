//! Which source lines does the host spend a simulated call on?
//!
//! A dependency-free sampling profiler: `setitimer(ITIMER_PROF)` delivers
//! `SIGPROF` as the process burns CPU time, the handler records the
//! interrupted instruction pointer, and the samples are resolved to
//! `file:line` and function with `addr2line -i` (the release profile keeps
//! line tables, so inlined frames resolve). Only the instruction pointer is
//! taken, no stack: a sample inside `memcpy` or the allocator is listed
//! under that function, not under its caller. A sample outside the
//! executable (libc, the vdso) is listed under its mapped library and the
//! nearest exported symbol at or below it (`/proc/self/maps` + `nm -D`):
//! "near", because libc's internal functions (`_int_malloc`, the
//! `memmove` variants an IFUNC picks) are not exported and take the name of
//! whichever exported neighbour precedes them.
//!
//! ```text
//! cargo run --release -p converge-sim --example hot_lines -- clean1 40
//! cargo run --release -p converge-sim --example hot_lines -- carrier8 60
//! ```
//!
//! `hot_lines <cell> <reps> [rows]` runs one cell of the catalogue
//! (`converge_sim::cells`, seed 11) `reps` times, each for the length the
//! catalogue records for it, and prints the top `rows` (default 20) source
//! lines, functions and source files by share of samples — the per-file
//! table is the one to read when a layer's cost is spread over many lines
//! and none stands out.
//!
//! The timer ticks at the kernel's HZ — 4 ms on the box this was written
//! on, whatever interval is asked for — so 1 000 samples need at least
//! 4 CPU-seconds: pick `reps` accordingly (the header line prints the
//! sample count). Shares below about `3 / sqrt(samples)` are noise.
//!
//! Linux x86_64 only (the signal frame's layout is read directly); any
//! other target prints "unsupported" and exits 0. Without `addr2line` on
//! `PATH` the raw module-relative addresses are printed instead; without
//! `nm`, samples outside the executable stay one row.

use converge_sim::cells;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::BTreeMap;
    use std::ffi::{c_int, c_void};
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Room for ten minutes of CPU time at a 1 ms tick.
    const CAPACITY: usize = 1 << 19;

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: AtomicU64 = AtomicU64::new(0);
    /// Interrupted instruction pointers, in arrival order.
    static SAMPLES: [AtomicU64; CAPACITY] = [EMPTY; CAPACITY];
    /// Signals delivered so far (may exceed `CAPACITY`; the excess is
    /// counted and dropped).
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86_64
    /// `ucontext_t`: `uc_flags` 8 + `uc_link` 8 + `uc_stack` 24, then
    /// general register 16 of 8 bytes each.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    /// glibc's x86_64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: c_int,
        sa_restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        it_interval: TimeVal,
        it_value: TimeVal,
    }

    // std links libc, so these resolve without a manifest entry.
    extern "C" {
        fn sigaction(signum: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    }

    /// One atomic add, one store: nothing here allocates, locks or calls
    /// anything that is not async-signal-safe.
    extern "C" fn on_sigprof(_signal: c_int, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: the kernel passes a valid `ucontext_t` as the third
        // argument of an `SA_SIGINFO` handler; on x86_64 glibc it is far
        // larger than `RIP_OFFSET + 8` bytes and 8-byte aligned, so the
        // read stays inside it.
        let rip = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SAMPLES.get(i) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    /// Arms (`interval_us > 0`) or disarms (`0`) the profiling timer.
    fn set_timer(interval_us: i64) {
        let tick = || TimeVal {
            tv_sec: 0,
            tv_usec: interval_us,
        };
        let timer = ITimerVal {
            it_interval: tick(),
            it_value: tick(),
        };
        // SAFETY: `timer` is a valid `struct itimerval` for the duration of
        // the call and the old value is not asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
    }

    /// Samples `work` and returns the instruction pointers taken plus how
    /// many were dropped for want of room.
    pub fn sample(work: impl FnOnce()) -> (Vec<u64>, usize) {
        let action = SigAction {
            sa_sigaction: on_sigprof as *const () as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `action` matches glibc's x86_64 `struct sigaction`, the
        // handler has the `SA_SIGINFO` signature and is async-signal-safe,
        // and the old action is not asked for.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
        set_timer(1_000);
        work();
        set_timer(0);
        let taken = TAKEN.load(Ordering::Relaxed);
        let kept = taken.min(CAPACITY);
        let rips = SAMPLES[..kept]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        (rips, taken - kept)
    }

    /// The process's named mappings, `(start, end, name)`: a file's path,
    /// or `[vdso]` and the like.
    fn mappings() -> Option<Vec<(u64, u64, String)>> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        let mut named = Vec::new();
        for line in maps.lines() {
            // range perms offset dev inode name
            let mut fields = line.split_ascii_whitespace();
            let (lo, hi) = fields.next()?.split_once('-')?;
            let Some(name) = fields.nth(4) else { continue };
            let lo = u64::from_str_radix(lo, 16).ok()?;
            let hi = u64::from_str_radix(hi, 16).ok()?;
            named.push((lo, hi, name.to_owned()));
        }
        Some(named)
    }

    /// Start and end of everything mapped from `name` (a module's load
    /// bias is the start: its first segment maps file offset 0).
    fn span_of(maps: &[(u64, u64, String)], name: &str) -> Option<(u64, u64)> {
        let mut of_name = maps.iter().filter(|m| m.2 == name);
        let first = of_name.next()?;
        Some(of_name.fold((first.0, first.1), |(lo, hi), m| (lo.min(m.0), hi.max(m.1))))
    }

    /// The exported functions of the shared object at `path`, ascending by
    /// address (`nm -D --defined-only`; `i` is an IFUNC such as `memcpy`).
    fn exported_symbols(path: &str) -> Option<Vec<(u64, String)>> {
        let output = Command::new("nm")
            .args(["-D", "--defined-only", path])
            .stderr(Stdio::null())
            .output()
            .ok()?;
        if !output.status.success() {
            return None;
        }
        let mut symbols = Vec::new();
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut fields = line.split_ascii_whitespace();
            if let (Some(address), Some("T" | "t" | "W" | "w" | "i"), Some(name)) =
                (fields.next(), fields.next(), fields.next())
            {
                let name = name.split('@').next().unwrap_or(name);
                symbols.push((u64::from_str_radix(address, 16).ok()?, name.to_owned()));
            }
        }
        symbols.sort();
        (!symbols.is_empty()).then_some(symbols)
    }

    /// Names the samples taken outside the executable: `(library, row)` →
    /// count, the row being `library` plus the nearest exported symbol at
    /// or below the address. A sample in no named mapping, or in a library
    /// `nm` cannot read, goes under `UNNAMED`.
    fn name_outside(
        maps: &[(u64, u64, String)],
        outside: &BTreeMap<u64, usize>,
    ) -> BTreeMap<(String, String), usize> {
        let mut tables: BTreeMap<&str, Option<Vec<(u64, String)>>> = BTreeMap::new();
        let mut named: BTreeMap<(String, String), usize> = BTreeMap::new();
        for (&rip, &n) in outside {
            let row = maps
                .iter()
                .find(|m| (m.0..m.1).contains(&rip))
                .and_then(|(.., path)| {
                    let library = format!("(outside: {})", path.rsplit('/').next().unwrap_or(path));
                    // `[vdso]` is no file; its few functions all read a clock.
                    if path.starts_with('[') {
                        return Some((library.clone(), library));
                    }
                    let symbols = tables
                        .entry(path.as_str())
                        .or_insert_with(|| exported_symbols(path))
                        .as_ref()?;
                    let relative = rip - span_of(maps, path)?.0;
                    let below = symbols.partition_point(|(address, _)| *address <= relative);
                    let (_, symbol) = symbols.get(below.checked_sub(1)?)?;
                    Some((library.clone(), format!("{library} near {symbol}")))
                });
            let unnamed = || (UNNAMED.to_owned(), UNNAMED.to_owned());
            *named.entry(row.unwrap_or_else(unnamed)).or_default() += n;
        }
        named
    }

    /// The row of samples outside the executable that could not be named.
    const UNNAMED: &str = "(outside the executable: libc, vdso)";

    /// `addr2line -a -i -f -C` over `addresses`: for each, the inlined
    /// frames innermost first as `(function, file:line)`.
    fn resolve(exe: &str, addresses: &[u64]) -> Option<Vec<Vec<(String, String)>>> {
        let mut child = Command::new("addr2line")
            .args(["-e", exe, "-a", "-i", "-f", "-C"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .ok()?;
        let mut stdin = child.stdin.take()?;
        let input: String = addresses.iter().map(|a| format!("{a:#x}\n")).collect();
        // addr2line answers as it reads; a writer thread keeps both pipes
        // moving.
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let output = child.wait_with_output().ok()?;
        writer.join().ok()?.ok()?;
        if !output.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let mut frames: Vec<Vec<(String, String)>> = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if line.starts_with("0x") {
                frames.push(Vec::new());
            } else if let (Some(current), Some(location)) = (frames.last_mut(), lines.next()) {
                current.push((line.to_owned(), location.to_owned()));
            }
        }
        (frames.len() == addresses.len()).then_some(frames)
    }

    /// `/root/repo/crates/converge-sim/src/flow.rs:404 (discriminator 2)`
    /// → `crates/converge-sim/src/flow.rs:404`.
    fn under_crates(location: &str) -> Option<&str> {
        let at = location.find("/crates/")?;
        let rest = &location[at + 1..];
        Some(rest.split_once(' ').map_or(rest, |(head, _)| head))
    }

    fn print_top(title: &str, total: usize, top: usize, rows: BTreeMap<String, usize>) {
        let mut rows: Vec<(String, usize)> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!("\n{:>7} {:>8}  {title}", "share", "samples");
        for (key, n) in rows.into_iter().take(top) {
            println!("{:>6.1}% {n:>8}  {key}", n as f64 * 100.0 / total as f64);
        }
    }

    /// `crates/converge-net/src/link.rs:404` → `crates/converge-net/src/link.rs`;
    /// a key without a line number (a function outside `crates/`) is its
    /// own file.
    fn file_of(line: &str) -> &str {
        match line.rsplit_once(':') {
            Some((file, number)) if number.parse::<u32>().is_ok() => file,
            _ => line,
        }
    }

    pub fn report(cell: &str, reps: u32, top: usize, rips: Vec<u64>, dropped: usize) {
        let total = rips.len();
        println!(
            "cell {cell} x {reps}: {total} samples ({dropped} dropped), one per tick of CPU time"
        );
        if total == 0 {
            println!("no samples: the run was shorter than one timer tick, raise <reps>");
            return;
        }
        let maps = mappings().unwrap_or_default();
        let module = std::fs::read_link("/proc/self/exe")
            .ok()
            .and_then(|exe| exe.to_str().map(str::to_owned))
            .and_then(|exe| span_of(&maps, &exe).map(|(lo, hi)| (exe, lo, hi)));
        let mut by_address: BTreeMap<u64, usize> = BTreeMap::new();
        let mut outside: BTreeMap<u64, usize> = BTreeMap::new();
        for rip in rips {
            match &module {
                Some((_, lo, hi)) if (*lo..*hi).contains(&rip) => {
                    *by_address.entry(rip - lo).or_default() += 1;
                }
                _ => *outside.entry(rip).or_default() += 1,
            }
        }
        let addresses: Vec<u64> = by_address.keys().copied().collect();
        let resolved = module
            .as_ref()
            .and_then(|(exe, ..)| resolve(exe, &addresses));
        let Some(resolved) = resolved else {
            let rows = by_address
                .into_iter()
                .map(|(a, n)| (format!("{a:#x}"), n))
                .collect();
            let title = "module-relative address (addr2line not found)";
            print_top(title, total, top, rows);
            return;
        };
        let mut lines: BTreeMap<String, usize> = BTreeMap::new();
        let mut functions: BTreeMap<String, usize> = BTreeMap::new();
        let mut files: BTreeMap<String, usize> = BTreeMap::new();
        for (frames, n) in resolved.iter().zip(by_address.values()) {
            // The innermost frame whose source is under crates/; a sample
            // in std or libc keeps its own innermost function.
            let (function, line) = frames
                .iter()
                .find_map(|(f, l)| under_crates(l).map(|l| (f.clone(), l.to_owned())))
                .unwrap_or_else(|| {
                    let f = frames.first().map_or("??", |(f, _)| f.as_str());
                    let outside = format!("(outside crates/) {f}");
                    (outside.clone(), outside)
                });
            *files.entry(file_of(&line).to_owned()).or_default() += n;
            *lines.entry(line).or_default() += n;
            *functions.entry(function).or_default() += n;
        }
        for ((library, row), n) in name_outside(&maps, &outside) {
            *files.entry(library).or_default() += n;
            *lines.entry(row.clone()).or_default() += n;
            *functions.entry(row).or_default() += n;
        }
        print_top("file:line", total, top, lines);
        print_top("function", total, top, functions);
        print_top("file", total, top, files);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positive = |text: &str| text.parse::<u32>().ok().filter(|n| *n > 0);
    let parsed = match args.as_slice() {
        [name, reps] => Some((name, reps, "20")),
        [name, reps, rows] => Some((name, reps, rows.as_str())),
        _ => None,
    };
    let parsed = parsed.and_then(|(name, reps, rows)| {
        Some((
            cells::find(name)?,
            positive(reps)?,
            positive(rows)? as usize,
        ))
    });
    let Some((&(name, secs, shape), reps, rows)) = parsed else {
        eprintln!(
            "usage: hot_lines <cell> <reps> [rows]\ncells: {}",
            cells::names(true)
        );
        std::process::exit(2);
    };

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        use converge_net::SimDuration;
        let (rips, dropped) = sampler::sample(|| {
            for _ in 0..reps {
                let fps = shape.build(SimDuration::from_secs(secs), 11).run().fps();
                assert!(fps > 0.0, "the cell must carry video");
            }
        });
        sampler::report(name, reps, rows, rips, dropped);
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (reps, rows, name, secs, shape);
        println!("unsupported: hot_lines samples with SIGPROF on Linux x86_64 only");
    }
}
