//! Secure multipath transport: protect RTP payloads with the SRTP-style
//! transform (path-aware nonces, per-path replay windows) and watch the
//! connection monitor react as a path goes silent and comes back — the
//! RTP/SRTP and connection-management extensions of paper section 5.
//!
//! ```text
//! cargo run --release -p converge-sim --example secure_transport
//! ```

use converge_net::{PathId, SimTime};
use converge_rtp::{SrtpContext, SrtpError};
use converge_signal::{ConnectionMonitor, PathState};

fn main() {
    println!("--- SRTP-style protection across paths ---");
    // Both endpoints derive the same context from the (DTLS) session key.
    let sender_ctx = SrtpContext::new(0x5EC0_7E55);
    let mut receiver_ctx = SrtpContext::new(0x5EC0_7E55);

    let payload = b"keyframe slice: independent decode anchor";
    // The same media sequence duplicated over two paths (a Converge probe
    // duplicate) must produce different ciphertexts and both must verify.
    let on_path0 = sender_ctx.protect(7, 1000, 0, payload);
    let on_path1 = sender_ctx.protect(7, 1000, 1, payload);
    println!("ciphertexts differ across paths: {}", on_path0 != on_path1);
    assert!(receiver_ctx.unprotect(7, 1000, 0, &on_path0).is_ok());
    assert!(receiver_ctx.unprotect(7, 1000, 1, &on_path1).is_ok());
    println!("both path copies authenticated and decrypted");

    // Replays and tampering are rejected.
    assert_eq!(
        receiver_ctx.unprotect(7, 1000, 0, &on_path0),
        Err(SrtpError::Replayed)
    );
    let mut tampered = on_path1.to_vec();
    tampered[3] ^= 0x40;
    assert_eq!(
        receiver_ctx.unprotect(7, 1001, 1, &tampered),
        Err(SrtpError::AuthenticationFailed)
    );
    println!("replay and tamper attempts rejected");

    println!();
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
