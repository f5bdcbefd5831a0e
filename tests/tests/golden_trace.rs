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

use converge_integration::{assert_matches_golden, render_timeline};
use converge_net::SimDuration;
use converge_sim::{
    CallReport, ControllerKind, FecKind, ScenarioConfig, SchedulerKind, Session, SessionConfig,
};
use converge_trace::{RingSink, TraceHandle};

/// Runs a pinned session: `secs` of the FEC trade-off scenario (2%
/// bursty loss, so the FEC controller, NACKs, and the loss process all
/// contribute events) under Converge scheduling, seed 7. Returns its
/// report and its rendered timeline.
fn run_pinned(controller: ControllerKind, secs: u64) -> (CallReport, String) {
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
    let rendered = render_timeline("golden", &ring.drain());
    (report, rendered)
}

/// The rendered timeline of the pinned session.
fn render(controller: ControllerKind, secs: u64) -> String {
    run_pinned(controller, secs).1
}

/// The golden session: 3 s under the default controller (GCC).
fn render_golden() -> String {
    render(ControllerKind::Gcc, 3)
}

/// 64-bit FNV-1a of a rendered timeline or report.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_trace_matches_checked_in_fixture() {
    assert_matches_golden("golden_trace.jsonl", &render_golden());
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
        assert!(
            rendered.contains("\"event\":\"cc_state_changed\""),
            "{}",
            kind.id()
        );
        assert!(
            rendered.contains("\"event\":\"cc_rate_changed\""),
            "{}",
            kind.id()
        );
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

/// A report's `Debug` text is what the benchmark's `report_digest`s and the
/// sweep's printed tables are made of, so it is pinned here too: the golden
/// 3 s session, and 20 s of three streams at 5 % loss (seed 11), whose
/// report holds every per-second bin, two paths' byte series and an E2E
/// sample per decoded frame. A change to how a report stores them must leave both digests
/// alone; a drift prints the new digest.
#[test]
fn report_debug_text_matches_pinned_digests() {
    let lossy = SessionConfig::paper_default(
        ScenarioConfig::fec_tradeoff(5.0),
        SchedulerKind::Converge,
        FecKind::Converge,
        3,
        SimDuration::from_secs(20),
        11,
    );
    for (name, report, digest) in [
        (
            "golden 3 s session",
            run_pinned(ControllerKind::Gcc, 3).0,
            0x7361_b57a_4682_8656_u64,
        ),
        (
            "3-stream 20 s call at 5 % loss",
            Session::new(lossy).run(),
            0x9e79_4278_e2f3_6838_u64,
        ),
    ] {
        assert!(
            report.paths.len() == 2 && report.path_series.paths().count() == 2,
            "{name}"
        );
        let text = format!("{report:?}");
        let got = fnv1a(&text);
        assert!(
            got == digest,
            "{name}: report text drifted: digest {got:#018x}, pinned {digest:#018x} ({} bytes)",
            text.len()
        );
    }
}
