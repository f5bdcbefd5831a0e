//! Fleet-engine determinism gates: the aggregate fold and the exact work
//! counts must be byte-identical for any shard count, any batch size, and
//! across repeated runs at a fixed seed, and the invariant checker must
//! stay clean. They run through the public API only, and they are the
//! only copies: `converge-sim::fleet`'s unit tests keep none of these
//! gates. Each covers one former unit test at a larger scale, and the
//! three determinism gates compare the work counts beside the fold:
//!
//! - `fold_is_identical_across_shard_counts` by
//!   `fold_and_timelines_are_shard_count_invariant`;
//! - `batch_size_does_not_change_the_fold` by
//!   `fold_and_timelines_are_batch_size_invariant`;
//! - `repeated_runs_are_identical` by `repeated_runs_are_byte_identical`;
//! - `invariants_hold_across_the_fleet` by
//!   `invariant_checker_stays_clean_at_integration_scale`.
//!
//! The fold itself is pinned too: `fixtures/fleet_fold_golden.txt` holds
//! `fold_text()` of three small fleets, byte for byte, and
//! `fixtures/fleet_work_counts.txt` the exact work counts of two of them
//! (`ci.sh`'s `work-counts` gate names that test). To regenerate after an
//! *intentional* change of fleet behaviour, or of the work the engine does
//! for the same behaviour:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p converge-integration --test fleet_determinism
//! ```
//!
//! then review the fixture diff like any other code change.

use converge_integration::assert_matches_golden;
use converge_net::SimDuration;
use converge_sim::FleetConfig;
use converge_sim::FleetEngine;

/// A fleet that is small enough for CI but still spans multiple
/// conferences per batch and a 1-member tail conference.
fn fleet_cfg(shards: usize, batch: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(13, 3);
    cfg.shards = shards;
    cfg.batch_conferences = batch;
    cfg.duration = SimDuration::from_secs(4);
    cfg.seed = 2024;
    cfg
}

/// The fold and the work counts of one run of [`fleet_cfg`].
fn fold_and_work(shards: usize, batch: usize) -> (String, String) {
    let report = FleetEngine::new(fleet_cfg(shards, batch)).run();
    (report.fold_text(), report.work_counts_text())
}

#[test]
fn fold_and_timelines_are_shard_count_invariant() {
    let base = fold_and_work(1, 2);
    for shards in [2, 4] {
        let (fold, work) = fold_and_work(shards, 2);
        assert_eq!(base.0, fold, "fold diverged at {shards} shards");
        assert_eq!(base.1, work, "work counts diverged at {shards} shards");
    }
}

#[test]
fn fold_and_timelines_are_batch_size_invariant() {
    let base = fold_and_work(2, 1);
    for batch in [3, 64] {
        let (fold, work) = fold_and_work(2, batch);
        assert_eq!(base.0, fold, "fold diverged at batch {batch}");
        assert_eq!(base.1, work, "work counts diverged at batch {batch}");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    assert_eq!(fold_and_work(3, 2), fold_and_work(3, 2));
}

#[test]
fn invariant_checker_stays_clean_at_integration_scale() {
    let mut cfg = fleet_cfg(2, 2);
    cfg.check_invariants = true;
    let report = FleetEngine::new(cfg).run();
    assert_eq!(report.violations, 0, "control-loop invariants violated");
    // The run must actually have decoded media — an empty fleet would
    // hold every invariant vacuously.
    let decoded: u64 = report
        .conferences
        .iter()
        .flat_map(|c| c.sessions.iter())
        .map(|s| s.frames_decoded)
        .sum();
    assert!(decoded > 0, "no frames decoded at integration scale");
    // Conservation at the SFU: a fan-out copy is delivered or dropped by
    // the egress link, a delivered one reaches its viewer or is still in
    // flight when the call ends, and what the ingress link delivered is
    // what the members' uplinks were credited with.
    for c in &report.conferences {
        let sum =
            |f: fn(&converge_sim::FleetSessionReport) -> u64| c.sessions.iter().map(f).sum::<u64>();
        let sfu = &c.sfu;
        assert_eq!(
            sfu.fanout_pkts,
            sfu.egress.delivered_pkts + sfu.egress.queue_drops
        );
        assert_eq!(
            sfu.ingress.delivered_pkts,
            sum(|s| s.uplink_pkts),
            "c{}",
            c.conf
        );
        assert_eq!(
            sum(|s| s.viewer_pkts),
            sfu.egress.delivered_pkts - c.fanout_in_flight,
            "c{}",
            c.conf
        );
    }
}

/// The three pinned fleets: conferences of 3 with a 1-member tail (the
/// cell above), conferences of 8 (seven copies per packet), and a call
/// whose length is no multiple of the 33 333 µs frame interval, so the run
/// ends with fan-out copies still crossing the egress link.
fn golden_fleets() -> Vec<(&'static str, FleetConfig)> {
    let mut of_eight = FleetConfig::new(16, 8);
    of_eight.duration = SimDuration::from_secs(3);
    of_eight.seed = 11;
    let mut cut_short = FleetConfig::new(8, 4);
    cut_short.duration = SimDuration::from_micros(2_512_345);
    cut_short.seed = 29;
    vec![
        ("13x3 tail", fleet_cfg(1, 1)),
        ("16x8", of_eight),
        ("8x4 cut mid-fan-out", cut_short),
    ]
}

#[test]
fn fold_matches_checked_in_golden() {
    let mut rendered = String::new();
    for (name, mut cfg) in golden_fleets() {
        cfg.check_invariants = true;
        let report = FleetEngine::new(cfg).run();
        assert_eq!(
            report.violations, 0,
            "{name}: control-loop invariants violated"
        );
        rendered.push_str(&format!("# {name}\n{}", report.fold_text()));
    }
    assert_matches_golden("fleet_fold_golden.txt", &rendered);
}

/// Exact work counts of the 8- and the 4-member pinned fleets (ticks and
/// packets scheduled and popped, pacer polls fired and idle): the fence
/// that says whether a change removed work, in seconds and without noise.
/// The same bytes on 1, 2 and 3 shards; never part of the fold.
#[test]
fn work_counts_match_checked_in_golden() {
    let mut rendered = String::new();
    for (name, cfg) in golden_fleets().into_iter().skip(1) {
        let run = |shards: usize| {
            let mut cfg = cfg.clone();
            cfg.shards = shards;
            FleetEngine::new(cfg).run()
        };
        let report = run(1);
        for c in &report.conferences {
            let w = &c.work;
            assert_eq!(
                w.timer_scheduled,
                w.timer_popped + w.timer_pending,
                "{name} c{}: a tick is popped or pending",
                c.conf
            );
        }
        let text = report.work_counts_text();
        for shards in [2, 3] {
            assert_eq!(
                text,
                run(shards).work_counts_text(),
                "{name}: {shards} shards"
            );
        }
        rendered.push_str(&format!("# {name}\n{text}"));
    }
    assert_matches_golden("fleet_work_counts.txt", &rendered);
}
