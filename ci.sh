#!/usr/bin/env bash
# Tier-1 gate: lint, build, rustfmt's layout, the commands and repo paths the README and
# DESIGN name (every `DESIGN §` citation resolving, DESIGN at 700 lines or fewer), the
# API docs with rustdoc's warnings denied, the repo benchmark's smoke run with its five report digests pinned
# and its lock untouched, unit/integration tests, the property tests by count
# and the tests their index of the paper's mechanisms names, the allocation
# budgets, the fleet's exact work counts, the
# receiver's two reorder-path differential tests and the stability
# matrix's tier-1 slice by name, one short run each of the
# peak-heap attribution, the sampling profiler and `experiments explain` (so
# they cannot rot; the removed trace directory option is refused), a
# quick-scale smoke run of the full
# experiment sweep (the fleet experiment included) on 2 workers and on 1
# with the outputs compared and their md5 checked against the committed
# one (exercises the worker pool and the memo cache, pins every printed
# number, and its stderr must report every executed job invariant-clean),
# the chaos,
# controller-shootout and drive-replay matrices (the invariant checker is
# armed on every sweep job, so a violation fails them through the exit
# status; the removed replay flag is refused and its code named nowhere),
# the fleet experiment's quick report (invariants armed on every member)
# with its deleted flags refused, and the perf gate: the repo benchmark
# compared with its committed baseline.
#
# Gates, in order (18): fmt, readme-examples, docs, benchmark-smoke, tests,
# properties, alloc-budget, work-counts, reorder-path, stability, hot-lines,
# explain, sweep-smoke, chaos, shootout, drive, fleet, bench-compare.
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

# The workspace is laid out as rustfmt lays it out, so a format-only diff
# never rides along with a behaviour change.
gate fmt cargo fmt --all -- --check

# declared KIND NAME: some crate manifest declares an [[example]] or [[bin]]
# (KIND) of that name.
declared() {
    awk -v section="[[$1]]" -v entry="name = \"$2\"" '
        /^\[/ { inside = ($0 == section) }
        inside && $0 == entry { found = 1 }
        END { exit !found }' crates/*/Cargo.toml
}

# Every `--example NAME` and `--bin NAME` the README and DESIGN tell a
# reader to run names a target that exists: a crates/*/examples/NAME.rs or
# crates/*/src/bin/NAME.rs, or one a crate manifest declares.
readme_examples() {
    local kind name dir missing=()
    while read -r kind name; do
        case "$kind" in
            --example) dir=examples ;;
            --bin) dir=src/bin ;;
        esac
        compgen -G "crates/*/$dir/$name.rs" > /dev/null \
            || declared "${kind#--}" "$name" || missing+=("$kind $name")
    done < <(grep -ohE -- '--(example|bin) [A-Za-z0-9_-]+' README.md DESIGN.md | sort -u)
    if [ ${#missing[@]} -gt 0 ]; then
        echo "readme-examples: no such target: ${missing[*]}" >&2
        return 1
    fi
    doc_paths
    design_citations
    design_length
    declared_examples
    catalogue_cells
    experiment_ids
}

# Every repo path README.md or DESIGN.md names under tests/tests/fixtures/,
# results/pairs/, benchmark/results/ or crates/ (a `.rs` file, also when
# written from its crate, `converge-sim/src/flow.rs`) exists; a glob must
# match a file, and under benchmark/results/ a run output that .gitignore
# lists (what `benchmark/run.sh` writes) counts as named correctly. Every
# `CHANGES.md PR N` a DESIGN row cites for its readings is an entry there.
doc_paths() {
    local path pr missing=()
    while read -r path; do
        compgen -G "$path" > /dev/null && continue
        [[ "$path" == benchmark/results/* ]] && git check-ignore -q "$path" && continue
        missing+=("$path")
    done < <(grep -ohE '(tests/tests/fixtures|results/pairs|benchmark/results)/[A-Za-z0-9_.*/-]*[A-Za-z0-9_*]|(crates/)?converge-[a-z]+/[A-Za-z0-9_/-]+\.rs' \
        README.md DESIGN.md | sed -E 's|^converge-|crates/converge-|' | sort -u)
    while read -r pr; do
        grep -qE "^PR $pr[: ]" CHANGES.md || missing+=("CHANGES.md PR $pr")
    done < <(tr '\n' ' ' < DESIGN.md | grep -oE 'CHANGES\.md +PRs? [0-9]+' | grep -oE '[0-9]+$' | sort -u)
    if [ ${#missing[@]} -gt 0 ]; then
        echo "readme-examples: named but not in the tree: ${missing[*]}" >&2
        return 1
    fi
}

# Every `DESIGN §N` or `DESIGN §N.M` cited in README.md, EXPERIMENTS.md,
# ROADMAP.md, this script, crates/, tests/, examples/ or .claude/skills/,
# also across a line break inside a comment, is a DESIGN.md heading
# (`## N.` or `### N.M`). CHANGES.md is a log: each of its citations names
# the DESIGN of its own commit.
design_citations() {
    local headings cite dangling=()
    headings=" $(grep -oE '^#{2,3} [0-9]+(\.[0-9]+)?' DESIGN.md | sed -E 's/^#+ //' | tr '\n' ' ') "
    while read -r cite; do
        [[ "$headings" == *" $cite "* ]] || dangling+=("§$cite")
    done < <({ cat README.md EXPERIMENTS.md ROADMAP.md ci.sh
        find crates tests examples .claude/skills -type f \( -name '*.rs' -o -name '*.md' \) -exec cat {} +; } \
        | sed -E 's@^[[:space:]]*(//[/!]?|#+)[[:space:]]?@@' | tr '\n' ' ' \
        | grep -oE 'DESIGN(\.md)? +§ *[0-9]+[a-z]?(\.[0-9]+)?' | sed -E 's/.*§ *//' | sort -u)
    if [ ${#dangling[@]} -gt 0 ]; then
        echo "readme-examples: DESIGN has no section ${dangling[*]}" >&2
        return 1
    fi
}

# DESIGN.md describes the tree at head in 700 lines or fewer.
design_length() {
    local lines
    lines=$(wc -l < DESIGN.md)
    if [ "$lines" -gt 700 ]; then
        echo "readme-examples: DESIGN.md is $lines lines, more than 700" >&2
        return 1
    fi
}

# Every top-level examples/*.rs is the `path` of an [[example]] that some
# crate manifest declares: cargo builds no other file there, so one left
# behind after its entry is deleted would never compile again.
declared_examples() {
    local file paths orphans=()
    paths=$(awk '
        /^\[/ { inside = ($0 == "[[example]]") }
        inside && match($0, /^path = "[^"]*"$/) {
            dir = FILENAME; sub(/[^\/]*$/, "", dir)
            print dir substr($0, 9, RLENGTH - 9)
        }' crates/*/Cargo.toml | xargs -r realpath -m --relative-to=.)
    for file in examples/*.rs; do
        grep -qxF "$file" <<<"$paths" || orphans+=("$file")
    done
    if [ ${#orphans[@]} -gt 0 ]; then
        echo "readme-examples: no [[example]] declares: ${orphans[*]}" >&2
        return 1
    fi
}

# Every cell a README.md or DESIGN.md command hands alloc_sites or
# hot_lines (`--example TOOL -- [flags] CELL` or `` `TOOL [flags] CELL` ``)
# or `experiments explain` (`--bin experiments -- explain CELL` or
# `` `experiments explain CELL` ``), also across a line break, is a name of
# the cell catalogue that the tool's own usage line lists: run without
# arguments, a tool prints `cells: ...` and exits 2.
catalogue_cells() {
    local tool cell names unknown=()
    declare -A usage
    for tool in alloc_sites hot_lines explain; do
        if [ "$tool" = explain ]; then
            names=$( { experiments explain 2>&1 >/dev/null || true; } | sed -n 's/^cells: //p')
        else
            names=$( { cargo run -q --release -p converge-sim --example "$tool" 2>&1 >/dev/null || true; } \
                | sed -n 's/^cells: //p')
        fi
        [ -n "$names" ] || { echo "readme-examples: $tool printed no cells: line" >&2; return 1; }
        usage[$tool]=" $names "
    done
    while read -r tool cell; do
        [[ "${usage[$tool]}" == *" $cell "* ]] || unknown+=("$tool $cell")
    done < <(cat README.md DESIGN.md | tr '\n' ' ' \
        | grep -oE -- '(--example |`)(alloc_sites|hot_lines)( --)?( +(--[a-z]+|[0-9]+))* +[a-z][a-z0-9-]*|(--bin experiments -- |`experiments )explain +[a-z][a-z0-9-]*' \
        | sed -E 's/^(--example |--bin experiments -- |`(experiments )?)//' | awk '{ print $1, $NF }' | sort -u)
    if [ ${#unknown[@]} -gt 0 ]; then
        echo "readme-examples: not a catalogue cell: ${unknown[*]}" >&2
        return 1
    fi
}
# Every experiment id README.md or DESIGN.md passes to the experiments
# binary (`--bin experiments -- ARGS` up to a comment, pipe or backtick, or
# `` `experiments ARGS` ``, also across a line break) is one the binary's
# own `list` prints — an id or an alias — or `all` or `list`. Flags, their
# values and `<placeholders>` are skipped, and so is an `explain` command
# (catalogue_cells checks its cell).
experiment_ids() {
    local line arg ids known unknown=() skip
    ids=$(experiments list 2>&1 | { grep -oE '^  [a-z0-9-]+|\(also: [a-z0-9, -]+' || true; } \
        | sed 's/^(also://' | tr ',\n' '  ')
    [ -n "$ids" ] || { echo "readme-examples: experiments list printed no ids" >&2; return 1; }
    known=" all list $ids "
    while read -r line; do
        skip=0
        for arg in $line; do
            if [ "$arg" = explain ]; then
                break
            elif [ "$skip" -eq 1 ]; then
                skip=0
            elif [ "$arg" = --jobs ]; then
                skip=1
            elif [[ "$arg" != --* && "$arg" != "<"* && "$known" != *" $arg "* ]]; then
                unknown+=("$arg")
            fi
        done
    done < <(grep -ohE -- '--bin experiments -- [^#`|>&;)]*' README.md DESIGN.md \
        | sed 's/^--bin experiments -- //'
        cat README.md DESIGN.md | tr '\n' ' ' | grep -oE '`experiments [^`]*`' \
            | sed -E 's/^`experiments //; s/`$//')
    if [ ${#unknown[@]} -gt 0 ]; then
        echo "readme-examples: not an experiment id: ${unknown[*]}" >&2
        return 1
    fi
}
gate readme-examples readme_examples

# The API docs build with rustdoc's warnings denied, so a deleted or renamed
# item cannot leave a stale or private intra-doc link behind.
docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace
}
gate docs docs

# The repo benchmark, every workload once: both of its packages must still
# build against this tree (bench-layers pins sim/net internals), its
# mirror of the call loop must stay Debug-identical to Session::run, and
# each workload's report_digest must equal the one pinned in
# tests/tests/fixtures/benchmark_smoke_digests.txt — "same bytes on every
# workload" as a gate (UPDATE_GOLDEN=1 ./ci.sh rewrites it). Building
# the benchmark must leave its committed lock as it is.
benchmark_smoke() {
    local w digest digests="" pinned=tests/tests/fixtures/benchmark_smoke_digests.txt
    local results=benchmark/results/smoke workloads=(call-clean call-impaired call-npath fleet-sfu sweep-quick)
    for w in "${workloads[@]}"; do
        rm -f "$results/$w.json"
    done
    bash benchmark/run.sh --smoke
    # run.sh builds without --locked: a change to the benchmark's
    # dependency graph would rewrite its lock on every run. Such a change
    # belongs in a [benchmark] change, with the lock committed beside it.
    if ! git diff --quiet -- benchmark/Cargo.lock; then
        echo "benchmark-smoke: building the benchmark rewrote benchmark/Cargo.lock;" \
            "a change to its dependency graph belongs in a [benchmark] change" >&2
        git diff --stat -- benchmark/Cargo.lock >&2
        return 1
    fi
    for w in "${workloads[@]}"; do
        digest=$(grep -o '"report_digest": "[0-9a-f]*"' "$results/$w.json" | cut -d'"' -f4)
        digests+="$w $digest"$'\n'
    done
    if [ "${UPDATE_GOLDEN:-}" = 1 ]; then
        printf '%s' "$digests" > "$pinned"
    elif ! printf '%s' "$digests" | cmp -s - "$pinned"; then
        echo "benchmark-smoke: report digests differ from $pinned:" >&2
        printf '%s' "$digests" | diff "$pinned" - >&2
        return 1
    fi
}
gate benchmark-smoke benchmark_smoke

# --no-fail-fast: one red binary must not hide the ones sorted after it.
gate tests cargo test -q --no-fail-fast

# tests_by_name COUNT CARGO-TEST-ARGS... -- NAME...: runs the named tests
# and wants exactly COUNT passed. A rename or a deleted test makes libtest
# run fewer, which fails here instead of silently dropping out of
# `cargo test`.
tests_by_name() {
    local want="$1" out
    shift
    out=$(cargo test -q "$@") || { echo "$out"; return 1; }
    echo "$out"
    grep -q "^test result: ok. $want passed" <<<"$out"
}

# The property tests (tests/tests/properties.rs): each property is one
# #[test] through one seeded driver, its fixed cases then its drawn ones.
# All 29 must run (26 properties, the zero-rate trace test, the frame
# buffer's regression and the driver's own test), so a property cannot
# silently drop out again, as 21 did behind an offline `proptest!`
# stand-in that expanded to nothing; and `proptest` is named nowhere under
# crates/, tests/ or examples/. Every test the module doc's table of the
# paper's §4 mechanisms names (`converge_core::…` unit tests,
# `properties::…` tests) runs by its exact name, so a row cannot name a
# test that does not exist.
# table_tests PREFIX: the tests the properties table names as PREFIX::NAME,
# each once, without the prefix.
table_tests() {
    grep '^//! |' tests/tests/properties.rs | grep -oE "\`$1::[a-z0-9_:]+\`" \
        | tr -d '`' | sed "s/^$1:://" | sort -u
}
properties() {
    local named core props
    named=$(grep -rl proptest crates tests examples || true)
    if [ -n "$named" ]; then
        echo "properties: proptest is named under crates/, tests/ or examples/:" $named >&2
        return 1
    fi
    tests_by_name 29 -p converge-integration --test properties
    core=($(table_tests converge_core))
    props=($(table_tests properties))
    tests_by_name ${#core[@]} -p converge-core --lib -- --exact "${core[@]}"
    tests_by_name ${#props[@]} -p converge-integration --test properties -- --exact "${props[@]}"
}
gate properties properties

# The nine deterministic allocation budgets (two steady-state call counts,
# one construction byte count, two peak live heaps of a 20 s call, the
# bytes a finished call's report holds, the peak live heap of a fleet in
# conferences of 8, the peak live heap of the eight-path constant8 call,
# the peak live heap of the 180 s lossy call that the sender's frame logs
# dominate);
# then the report's bytes once more, alone on the parallel harness and on
# one thread, which must print the same count: it is what dropping the
# report frees, so it cannot depend on what else ran on the thread (read as
# live bytes gained over the call, it printed 4 574 and 3 966 there, in
# release); then one short run of the peak-heap attribution, which must
# print a row ("  192.0  2  converge_sim::...").
report_bytes() {
    cargo test -q --release -p converge-sim --test alloc_budget -- --exact \
        report_bytes_stay_within_budget --nocapture "$@" | grep -o 'its report holds [0-9]* bytes'
}
alloc_budget() {
    local out parallel serial
    tests_by_name 9 -p converge-sim --test alloc_budget -- --exact \
        steady_state_allocation_count_stays_within_budget \
        lossy_steady_state_allocation_count_stays_within_budget \
        construction_bytes_stay_within_budget \
        clean_peak_heap_stays_within_budget \
        lossy_peak_heap_stays_within_budget \
        report_bytes_stay_within_budget \
        fleet8_peak_heap_stays_within_budget \
        constant8_peak_heap_stays_within_budget \
        long_lossy_peak_heap_stays_within_budget
    parallel=$(report_bytes)
    serial=$(report_bytes --test-threads 1)
    echo "report bytes: $parallel (parallel harness), $serial (one thread)"
    [ "$parallel" = "$serial" ]
    out=$(cargo run --release -p converge-sim --example alloc_sites -- --peak --to 2 clean)
    echo "$out"
    grep -Eq '^ *[0-9.]+ +[0-9]+  converge_' <<<"$out"
}
gate alloc-budget alloc_budget

# The fleet's exact work counts (ticks and packets scheduled and popped)
# against tests/tests/fixtures/fleet_work_counts.txt, on 1, 2 and 3
# shards: "did this change remove work" without a stopwatch.
gate work-counts tests_by_name 1 -p converge-integration --test fleet_determinism -- --exact \
    work_counts_match_checked_in_golden

# The receiver's reorder path keeps presence as bits and slots (the packet
# buffer's assembly windows, the NACK gap tracker's one word per sequence);
# two differential tests hold each against the design it replaced, on
# hostile streams that reach every spill. By name, in their own crates, so
# a rename cannot drop either.
reorder_path() {
    tests_by_name 1 -p converge-video --lib -- --exact \
        packet_buffer::tests::buffer_matches_the_scanning_assembly
    tests_by_name 1 -p converge-sim --lib -- --exact \
        gaps::tests::flat_tracker_matches_the_tree_maps
}
gate reorder-path reorder_path

# The control loop reads alike on every seed (EXPERIMENTS.md, "Stability
# matrix"): the cells that used to be bistable, and the one-stream 10 %-loss
# cell that used to be one wide mode, hold their frame rate on every seed;
# lossless topologies do not congest themselves; fleet members decode
# 24-26 fps. Every bound sits just under today's reading and fails on the
# design before it. By name, so a rename cannot drop one.
gate stability tests_by_name 7 -p converge-integration --test stability -- --exact \
    reordering_under_three_streams_holds_the_frame_rate_on_every_seed \
    feedback_loss_under_three_streams_holds_the_frame_rate_on_every_seed \
    ten_percent_loss_under_three_streams_does_not_collapse_on_any_seed \
    two_percent_loss_under_two_streams_holds_the_frame_rate_on_every_seed \
    ten_percent_loss_under_one_stream_stays_above_its_measured_floor \
    lossless_topologies_do_not_congest_themselves \
    fleet_members_decode_video_at_both_conference_sizes

# The sampling profiler (DESIGN §8.2's tables come from it): one short cell
# must exit 0 and print either a table row ("  8.7%      112  file:line")
# or, off Linux x86_64, its "unsupported" line.
hot_lines() {
    local out
    out=$(cargo run --release -p converge-sim --example hot_lines -- clean1 1)
    echo "$out"
    grep -Eq '^unsupported|^ *[0-9.]+% +[0-9]+  ' <<<"$out"
}
gate hot-lines hot_lines

# One way to look inside a call: `experiments explain CELL` runs one call of
# the cell catalogue again with its timeline kept and prints the per-second,
# per-path repair table (the one that located the three-path collapse),
# closed by its totals line, then the per-path timeline summary. A seconds
# argument no SimDuration can hold must exit 2 with the usage's `cells:`
# line at once, not wrap into a short call and loop for ever. It replaced
# the `repair_timeline` example and the sweep's trace directory: the option
# is an unknown flag, and the tracing cache, its writer and the test helper
# that read its files are named nowhere under crates/, nor are the capture
# switch and the write-after-sweep pass that came before them.
explain() {
    local gone out status=0
    gone=$(grep -rlwE 'CellCache::tracing|trace_dir|write_timeline|traced_files|set_trace_capture|trace_capture|write_traces|trace_jobs' crates || true)
    if [ -n "$gone" ]; then
        echo "explain: a second place a timeline goes is named under crates/:" $gone >&2
        return 1
    fi
    out=$(experiments explain symmetric3 20)
    echo "$out"
    grep -A1 '^totals: .* sent/received/lost p0 ' <<<"$out" | tail -1 \
        | grep -q '^# per-path timeline summary ('
    out=$(timeout 10 cargo run -q --release -p converge-bench --bin experiments -- \
        explain clean 18446744073710 2>&1) || status=$?
    echo "$out"
    [ "$status" -eq 2 ] && grep -q '^cells: ' <<<"$out" || return 1
    status=0
    experiments fig11 --quick --trace x > /dev/null 2> results/smoke_trace_flag.err || status=$?
    if [ "$status" != 2 ] || ! grep -qF 'unknown flag "--trace"' results/smoke_trace_flag.err; then
        echo "explain: --trace exits $status, not 2 as an unknown flag" >&2
        return 1
    fi
}
gate explain explain

# The whole registry on 2 pool workers and on 1 (the caller's thread, no
# spawn): stdout must not depend on the pool size, and its md5 is pinned in
# tests/tests/fixtures/experiments_quick.md5 — a refactor of converge-bench
# must leave it alone, a behaviour change shows as one reviewed line
# (UPDATE_GOLDEN=1 ./ci.sh rewrites it, like the other goldens). Every job
# the sweep executes runs with the invariant checker armed, and stderr
# must say so for all 204 of them.
sweep_smoke() {
    local md5 pinned=tests/tests/fixtures/experiments_quick.md5
    experiments all --quick --jobs 2 > results/smoke_all.txt 2> results/smoke_all.err
    test -s results/smoke_all.txt
    grep -qx '   invariants checked on 204 job(s): 0 violation(s)' results/smoke_all.err
    experiments all --quick --jobs 1 > results/smoke_all_1job.txt
    cmp results/smoke_all.txt results/smoke_all_1job.txt
    md5=$(md5sum < results/smoke_all.txt | cut -d' ' -f1)
    if [ "${UPDATE_GOLDEN:-}" = 1 ]; then
        echo "$md5" > "$pinned"
    elif [ "$md5" != "$(cat "$pinned")" ]; then
        echo "sweep-smoke: \`experiments all --quick\` prints md5 $md5, $pinned pins $(cat "$pinned")" >&2
        return 1
    fi
}
gate sweep-smoke sweep_smoke

# Chaos gate: the fault-injection matrix (scheduler x impairment x seed).
# Every sweep job runs with the control-loop invariant checker armed as an
# online tee, and the binary exits 1 on any violation. That is the only
# checker: the capture-then-replay flag it replaced exits 2 as an unknown
# flag, and the replay and the run modes around it (`check_records`,
# `run_uncached`, `run_traced`, `is_clean`) are named nowhere under
# crates/, tests/ or examples/.
chaos() {
    local gone status=0
    gone=$(grep -rlwE 'check_records|run_uncached|run_traced|is_clean' crates tests examples || true)
    if [ -n "$gone" ]; then
        echo "chaos: a second invariant path is named under crates/, tests/ or examples/:" $gone >&2
        return 1
    fi
    experiments chaos --quick --jobs 2 > results/smoke_chaos.txt
    test -s results/smoke_chaos.txt
    grep -q 'Chaos matrix' results/smoke_chaos.txt
    experiments chaos --quick --check-invariants > /dev/null 2> results/smoke_chaos_flag.txt || status=$?
    if [ "$status" != 2 ] || ! grep -qF 'unknown flag "--check-invariants"' results/smoke_chaos_flag.txt; then
        echo "chaos: --check-invariants exits $status, not 2 as an unknown flag" >&2
        return 1
    fi
}
gate chaos chaos

# Controller-shootout gate: 1 seed x 3 controllers (GCC, NADA, mp-BBR)
# through the full scheduler/FEC loop, the invariant checker armed as on
# every sweep job —
# proves the non-default controllers hold the control-loop invariants;
# the test it runs by name proves all three trace through the one cc_*
# event family (a `cc_rate_changed` tagged with each algorithm, no `gcc_*`
# event) on a traced run of each.
shootout() {
    experiments shootout --quick --jobs 2 > results/smoke_shootout.txt
    test -s results/smoke_shootout.txt
    grep -q 'mp-BBR' results/smoke_shootout.txt
    grep -q 'NADA' results/smoke_shootout.txt
    tests_by_name 1 -p converge-bench --lib -- --exact \
        experiments::shootout::tests::every_controller_runs_clean_through_the_full_loop
}
gate shootout shootout

# Drive-replay gate: the committed 4/6/8-path drive fixtures through
# scheduler x controller (1 seed at quick scale), the invariant checker
# armed as on every sweep job — proves the time-varying drive links hold the
# control-loop invariants across every topology width. A link follows one
# trace, a `DriveTrace`: the uniform-step, rate-only trace it replaced
# (`RateTrace`), that trace's CSV error (`TraceParseError`) and the
# scenario builder that read its CSV (`from_traces`) are named nowhere
# under crates/, tests/ or examples/. `drive_replay` handed a malformed
# file prints the parser's line-numbered error and exits 1, and handed a
# well-formed drive that spans 0 s (one row at t = 0) prints the session
# builder's error and exits 1; it panics on neither. `trace_tool gen`
# writes a drive that `trace_tool info` reads (exit 0), and seconds no
# SimDuration holds print its usage and exit 2 instead of wrapping.
# replay_fails FILE LINE: drive_replay on FILE exits 1 without a panic,
# and one of its stderr lines is exactly LINE.
replay_fails() {
    local status=0 err=results/smoke_drive_replay.err
    cargo run -q --release -p converge-sim --example drive_replay "$1" \
        > /dev/null 2> "$err" || status=$?
    if [ "$status" -ne 1 ] || grep -q panicked "$err" || ! grep -qx "$2" "$err"; then
        echo "drive: drive_replay on $1 exited $status:" >&2
        cat "$err" >&2
        return 1
    fi
}
drive() {
    local gone status garbage=results/smoke_garbage_drive.jsonl instant=results/smoke_instant_drive.jsonl
    local walk=results/smoke_walking_drive.jsonl
    gone=$(grep -rlwE 'RateTrace|TraceParseError|from_traces' crates tests examples || true)
    if [ -n "$gone" ]; then
        echo "drive: a second link trace is named under crates/, tests/ or examples/:" $gone >&2
        return 1
    fi
    experiments drive --quick --jobs 2 > results/smoke_drive.txt
    test -s results/smoke_drive.txt
    grep -q 'blackout-flap' results/smoke_drive.txt
    grep -q 'coverage-gaps' results/smoke_drive.txt
    grep -q 'handover' results/smoke_drive.txt
    printf 'not a drive row\n' > "$garbage"
    replay_fails "$garbage" "drive_replay: $garbage: parsing drive file: malformed drive row at line 1"
    printf '{"t":0,"path":0,"rate_bps":5000000,"owd_ms":20,"loss_pct":0}\n' > "$instant"
    replay_fails "$instant" "drive_replay: $instant: duration must be positive"
    cargo run -q --release -p converge-bench --bin trace_tool -- gen walking wifi 60 1 > "$walk"
    cargo run -q --release -p converge-bench --bin trace_tool -- info "$walk" | grep -q '^  samples:    120$'
    status=0
    timeout 10 cargo run -q --release -p converge-bench --bin trace_tool -- \
        gen walking wifi 18446744073710 1 > /dev/null 2> results/smoke_trace_tool.err || status=$?
    if [ "$status" -ne 2 ] || ! grep -q '^usage:' results/smoke_trace_tool.err; then
        echo "drive: trace_tool gen with 18446744073710 s exits $status, not 2 with its usage" >&2
        return 1
    fi
}
gate drive drive

# Fleet smoke gate: the `fleet` registry experiment at quick scale, 200
# concurrent sessions through SFU bottlenecks with the control-loop
# invariant checker armed on every member (and timer conservation checked
# per conference; a violation fails the fold); its report must carry the
# header, the fold's totals, the QoE-fairness quantiles and the grid's 8
# cells. The experiment takes no flags of its own: each of the seven it
# had exits 2 as an unknown flag, and its option struct, runner and CLI
# flag state (`FleetOpts`, `run_fleet`, `fleet_flags_seen`) are named
# nowhere under crates/. Shard invariance is the work-counts gate's and
# tier-1 `fleet_determinism`'s. The simulator keeps one timer
# structure, the EventQueue: `TimerWheel` is only the benchmark's name for
# it, so it may be named only where it is defined and re-exported (the
# contract test that held the queue against the old wheel went with the
# wheel; event.rs's model test checks the queue), timer.rs declares that
# one wrapper and nothing else, and `TimerWheelStats` is named nowhere.
# A fleet conference runs through the call loop (flow.rs `run_flows`),
# whose tick queue holds only flow ticks: the second tick family it
# replaced (`PacerPoll` ticks armed by `arm_pacer`, `TickKind`,
# `TimerEvent`) is named nowhere under crates/ or tests/. Neither are the
# run modes no run varied: the fleet's JSONL sampling (`trace_conferences`,
# `sampled_traces`), the emulator's second send fate (`SendOutcome`, the
# link's `Transmit` is the one) and the call loop's idle mode (the
# builder's `.idle_skip(`; `SessionConfig::idle_skip` stays a field only
# for the benchmark's mirror, under benchmark/).
fleet() {
    local wheel decls ticks knobs opts flag status
    ticks=$(grep -rlwE 'PacerPoll|arm_pacer|TickKind|TimerEvent' crates tests || true)
    if [ -n "$ticks" ]; then
        echo "fleet: a second tick family is named under crates/ or tests/:" $ticks >&2
        return 1
    fi
    knobs=$({ grep -rlwE 'trace_conferences|sampled_traces|SendOutcome' crates tests
        grep -rlF '.idle_skip(' crates tests; } || true)
    if [ -n "$knobs" ]; then
        echo "fleet: a deleted run mode is named under crates/ or tests/:" $knobs >&2
        return 1
    fi
    wheel=$({ grep -rlw TimerWheel crates tests --include='*.rs' \
        | grep -vx -e crates/converge-net/src/timer.rs -e crates/converge-net/src/lib.rs
        grep -rlw TimerWheelStats crates tests examples --include='*.rs'; } || true)
    if [ -n "$wheel" ]; then
        echo "fleet: TimerWheel named outside converge-net's timer.rs and lib.rs, or TimerWheelStats named:" $wheel >&2
        return 1
    fi
    decls=$(grep -E '^\s*(pub(\([a-z]+\))? )?(struct|enum|union|trait|type) ' \
        crates/converge-net/src/timer.rs)
    if [ "$decls" != 'pub struct TimerWheel<T>(EventQueue<T>);' ]; then
        echo "fleet: timer.rs must declare only TimerWheel<T>(EventQueue<T>), found:" "$decls" >&2
        return 1
    fi
    opts=$(grep -rlwE 'FleetOpts|run_fleet|fleet_flags_seen' crates || true)
    if [ -n "$opts" ]; then
        echo "fleet: the deleted fleet CLI path is named under crates/:" $opts >&2
        return 1
    fi
    experiments fleet --quick > results/smoke_fleet.txt
    grep -qx '# fleet: 200 sessions x 5s through 50 SFU conference(s)' results/smoke_fleet.txt
    grep -q '^total|decoded=' results/smoke_fleet.txt
    grep -q '^qoe|p5=' results/smoke_fleet.txt
    test "$(grep -c '^cell|' results/smoke_fleet.txt)" = 8
    for flag in --sessions --conference-size --shards --bottleneck-mbps --duration-s --seed --grid; do
        status=0
        experiments fleet --quick "$flag" 1 > /dev/null 2> results/smoke_fleet_flag.txt || status=$?
        if [ "$status" != 2 ] || ! grep -qF "unknown flag \"$flag\"" results/smoke_fleet_flag.txt; then
            echo "fleet: $flag exits $status, not 2 as an unknown flag" >&2
            return 1
        fi
    done
}
gate fleet fleet

# Perf gate: all five benchmark workloads (reference-normalised, median of
# the timed passes), then the benchmark's own comparison against its
# committed baseline — its bounds and normalisation, no absolute floor.
bench_compare() {
    bash benchmark/run.sh
    bash benchmark/run.sh --compare benchmark/results/baseline.json benchmark/results/all.json
}
gate bench-compare bench_compare

if [ ${#failed[@]} -gt 0 ]; then
    echo "ci: FAILED: ${failed[*]}" >&2
    exit 1
fi
echo "ci: ok"
