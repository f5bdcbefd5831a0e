//! Connection monitoring through a path outage: watch the per-path monitor
//! of paper section 5 mark a path suspect, then down, as it goes silent,
//! and up again when it comes back.
//!
//! ```text
//! cargo run --release -p converge-sim --example connection_monitor
//! ```

use converge_net::{PathId, SimTime};
use converge_signal::{ConnectionMonitor, PathState};

fn main() {
    println!("--- Connection monitor through a path outage ---");
    let mut monitor = ConnectionMonitor::new(&[PathId(0), PathId(1)]);
    let t = SimTime::from_millis;
    // Both paths chatty for 2 s.
    for ms in (0..2_000).step_by(100) {
        monitor.on_activity(t(ms), PathId(0));
        monitor.on_activity(t(ms), PathId(1));
    }
    // Path 1 goes silent (coverage gap); path 0 keeps talking.
    for ms in (2_000..9_000).step_by(100) {
        monitor.on_activity(t(ms), PathId(0));
        for ev in monitor.poll(t(ms)) {
            println!(
                "  t={:.1}s: {} -> {:?}",
                ms as f64 / 1000.0,
                ev.path,
                ev.state
            );
        }
    }
    println!("usable paths during outage: {:?}", monitor.usable_paths());
    // Path 1 resurfaces.
    if let Some(ev) = monitor.on_activity(t(9_100), PathId(1)) {
        println!("  t=9.1s: {} -> {:?}", ev.path, ev.state);
    }
    println!("usable paths after recovery: {:?}", monitor.usable_paths());
    assert_eq!(monitor.state(PathId(1)), Some(PathState::Up));
}
