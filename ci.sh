#!/usr/bin/env bash
# Tier-1 gate: lint, build, the repo benchmark's smoke run, unit/integration
# tests, a quick-scale smoke run of the full experiment sweep on 2 workers
# (exercises the work-stealing pool, the memo cache, and the bench-report
# writer), a traced experiment run with JSONL timeline validation, the
# chaos fault-injection matrix with the invariant checker armed, a
# fleet-engine smoke cell with invariants armed on every member, and the
# two perf ratchets (fig11 event loop, 1000-session fleet cell).
#
# Lint and build stop the script (nothing after them can run without a
# build). Every step after that is a gate: a failing gate is recorded and
# the script carries on, so one red test cannot hide the gates behind it;
# the exit status is non-zero if any gate failed.
set -euo pipefail
cd "$(dirname "$0")"

failed=()
# gate NAME FUNCTION: runs the gate in a subshell with `set -e`, so its
# first failing command fails the gate.
gate() {
    local name="$1" status
    shift
    # Not `if (...)`: bash ignores `set -e` everywhere inside a condition.
    set +e
    (set -e; "$@")
    status=$?
    set -e
    if [ "$status" -eq 0 ]; then
        echo "ci: $name: ok"
    else
        failed+=("$name")
        echo "ci: $name: FAILED" >&2
    fi
}
experiments() {
    cargo run --release -p converge-bench --bin experiments -- "$@"
}

cargo clippy -q --all-targets -- -D warnings
cargo build --release
mkdir -p results

# The repo benchmark, every workload once: both of its packages must still
# build against this tree (bench-layers pins sim/net internals), and its
# mirror of the call loop must stay Debug-identical to Session::run.
gate benchmark-smoke bash benchmark/run.sh --smoke

# --no-fail-fast: one red binary must not hide the ones sorted after it.
gate tests cargo test -q --no-fail-fast

# The deterministic allocation budget, by name: a rename or a deleted
# test target fails here instead of silently dropping out of `cargo test`.
gate alloc-budget cargo test -q -p converge-sim --test alloc_budget \
    steady_state_allocation_count_stays_within_budget -- --exact

sweep_smoke() {
    experiments all --quick --jobs 2 --bench-json results/BENCH_sweep.json > results/smoke_all.txt
    test -s results/smoke_all.txt
    grep -q '"schema": "converge-bench/sweep/v1"' results/BENCH_sweep.json
}
gate sweep-smoke sweep_smoke

# Traced run: fig11 writes one JSONL timeline per job; validate schema,
# field presence, and monotone timestamps.
traced_fig11() {
    rm -rf results/traces
    experiments fig11 --quick --jobs 2 --trace results/traces > results/smoke_fig11.txt
    ls results/traces/*.jsonl > /dev/null
    for f in results/traces/*.jsonl; do
        head -1 "$f" | grep -q '"schema":"converge-trace/v1"'
        head -1 "$f" | grep -q '"job":"'
        # Every record line carries at_us + event, and at_us never decreases.
        tail -n +2 "$f" | awk '
            !/"at_us":[0-9]+/ || !/"event":"[a-z_]+"/ { print "bad record: " $0; exit 1 }
            { at = $0; sub(/.*"at_us":/, "", at); sub(/[,}].*/, "", at) }
            at + 0 < prev + 0 { print "timestamp regression at " NR ": " at " < " prev; exit 1 }
            { prev = at }
        '
        test -s "${f%.jsonl}.timeline.txt"
    done
}
gate traced-fig11 traced_fig11

# Chaos gate: the fault-injection matrix (scheduler x impairment x seed)
# with every timeline replayed through the control-loop invariant rules;
# --check-invariants exits non-zero on any violation.
chaos() {
    experiments chaos --quick --jobs 2 --check-invariants > results/smoke_chaos.txt
    test -s results/smoke_chaos.txt
    grep -q 'Chaos matrix' results/smoke_chaos.txt
}
gate chaos chaos

# Controller-shootout gate: 1 seed x 3 controllers (GCC, NADA, mp-BBR)
# through the full scheduler/FEC loop with the invariant checker armed —
# proves the non-default controllers hold the control-loop invariants.
shootout() {
    experiments shootout --quick --jobs 2 --check-invariants > results/smoke_shootout.txt
    test -s results/smoke_shootout.txt
    grep -q 'mp-BBR' results/smoke_shootout.txt
    grep -q 'NADA' results/smoke_shootout.txt
}
gate shootout shootout

# Drive-replay gate: the committed 4/6/8-path drive fixtures through
# scheduler x controller (1 seed at quick scale) with the invariant
# checker armed — proves the time-varying drive links hold the
# control-loop invariants across every topology width.
drive() {
    experiments drive --quick --jobs 2 --check-invariants > results/smoke_drive.txt
    test -s results/smoke_drive.txt
    grep -q 'blackout-flap' results/smoke_drive.txt
    grep -q 'coverage-gaps' results/smoke_drive.txt
    grep -q 'handover' results/smoke_drive.txt
}
gate drive drive

# Fleet smoke gate: ~200 concurrent sessions through SFU bottlenecks in
# the sharded fleet engine with the control-loop invariant checker armed
# on every member; the stdout fold must carry the QoE-fairness quantiles.
fleet() {
    experiments fleet --quick --sessions 200 --conference-size 4 --shards 2 \
        --check-invariants > results/smoke_fleet.txt
    test -s results/smoke_fleet.txt
    grep -q '^qoe|p5=' results/smoke_fleet.txt
    grep -q '^total|decoded=' results/smoke_fleet.txt
}
gate fleet fleet

# Idle-skip equivalence gate: chaos + drive scenario generators, idle-skip
# off vs on must produce byte-identical trace streams and QoE folds. The
# pinned seed grid already ran under `cargo test` above; this re-runs the
# suite with a fixed proptest case budget so a real (non-stub) proptest
# explores the same bounded space deterministically on every CI run.
gate idle-skip-equivalence env PROPTEST_CASES=32 \
    cargo test -q -p converge-integration --test idle_skip_equivalence

# Perf ratchets: re-run each committed cell single-worker with bench
# accounting and gate against its trajectory (results/BENCH_fig11.json
# for the single-session event loop, results/BENCH_fleet.json for the
# 1000-session fleet engine). A fresh run must stay within the noise
# margin of the BEST committed run — appending a higher run to a
# trajectory is the only way a floor moves, and it only moves up. The
# gate itself is unit-tested against fixture JSON pairs first.
gate ratchet-selftest bash scripts/perf_ratchet_test.sh
ratchet_fig11() {
    experiments fig11 --quick --jobs 1 --bench-json results/BENCH_fig11.current.json > /dev/null
    bash scripts/perf_ratchet.sh results/BENCH_fig11.json results/BENCH_fig11.current.json
}
gate ratchet-fig11 ratchet_fig11
ratchet_fleet() {
    experiments fleet --sessions 1000 --conference-size 4 --duration-s 20 --shards 1 \
        --bench-json results/BENCH_fleet.current.json > /dev/null
    bash scripts/perf_ratchet.sh results/BENCH_fleet.json results/BENCH_fleet.current.json
}
gate ratchet-fleet ratchet_fleet

if [ ${#failed[@]} -gt 0 ]; then
    echo "ci: FAILED: ${failed[*]}" >&2
    exit 1
fi
echo "ci: ok"
