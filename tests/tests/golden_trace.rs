//! Golden-trace snapshot: one small, fully pinned session is rendered to
//! JSONL and byte-compared against a checked-in fixture. Any change to
//! the control loop, the event vocabulary, the JSONL encoding, or the
//! emulator's RNG consumption shows up here as a diff — including the
//! silent kind where a refactor perturbs the RNG stream without failing
//! any behavioural test.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p converge-integration --test golden_trace
//! ```
//!
//! then review the fixture diff like any other code change.

use std::sync::Arc;

use converge_net::SimDuration;
use converge_sim::{
    ControllerKind, FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};
use converge_trace::{jsonl, RingSink, TraceHandle};

/// Renders a pinned session: `secs` of the FEC trade-off scenario (2%
/// bursty loss, so the FEC controller, NACKs, and the loss process all
/// contribute events) under Converge scheduling, seed 7.
fn render(controller: ControllerKind, secs: u64) -> String {
    let ring = Arc::new(RingSink::new(1 << 20));
    let cfg = SessionConfig::builder()
        .scenario(ScenarioConfig::fec_tradeoff(2.0))
        .scheduler(SchedulerKind::Converge)
        .fec(FecKind::Converge)
        .controller(controller)
        .streams(1)
        .duration(SimDuration::from_secs(secs))
        .seed(7)
        .trace(TraceHandle::new(ring.clone()))
        .build()
        .expect("golden config is valid");
    let report = Session::new(cfg).run();
    assert!(report.frames_decoded > 0, "golden run must decode frames");
    assert_eq!(ring.dropped(), 0, "ring must hold the whole timeline");
    jsonl::render("golden", &ring.drain())
}

/// The golden session: 3 s under the default controller (GCC).
fn render_golden() -> String {
    render(ControllerKind::Gcc, 3)
}

/// 64-bit FNV-1a of a rendered timeline.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_trace.jsonl")
}

#[test]
fn golden_trace_matches_checked_in_fixture() {
    let rendered = render_golden();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("golden fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered != expected {
        // A full-string assert_eq! would dump both multi-hundred-line
        // documents; point at the first divergent line instead.
        let diverged = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                let got = rendered.lines().nth(i).unwrap_or("<eof>");
                let want = expected.lines().nth(i).unwrap_or("<eof>");
                format!("first divergence at line {}:\n  got:  {got}\n  want: {want}", i + 1)
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    rendered.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "golden trace drifted from {} — {diverged}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1 \
             and review the fixture diff.",
            path.display()
        );
    }
}

/// The non-default controllers have no fixture; a digest of 5 s of the
/// same session pins their whole timeline — in particular mp-BBR tracing
/// no rate before its first bandwidth sample, and NADA's state event
/// preceding the rate event of the same feedback round.
#[test]
fn nada_and_mpbbr_timelines_match_pinned_digests() {
    for (kind, digest) in [
        (ControllerKind::Nada, 0xe137_76cf_af0c_3084_u64),
        (ControllerKind::MpBbr, 0xd0d7_ea29_f748_9abf_u64),
    ] {
        let rendered = render(kind, 5);
        assert!(rendered.contains("\"event\":\"cc_state_changed\""), "{}", kind.id());
        assert!(rendered.contains("\"event\":\"cc_rate_changed\""), "{}", kind.id());
        let got = fnv1a(&rendered);
        assert!(
            got == digest,
            "{} timeline drifted: digest {got:#018x}, pinned {digest:#018x} ({} lines)",
            kind.id(),
            rendered.lines().count()
        );
    }
}

/// The golden render itself is stable within a process: two back-to-back
/// renders agree byte-for-byte, so a fixture mismatch always means the
/// *code* changed, never that the run is nondeterministic.
#[test]
fn golden_render_is_self_consistent() {
    assert_eq!(render_golden(), render_golden());
}
