#!/usr/bin/env bash
# The repo benchmark's one command. See benchmark/README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--layers]              all five workloads -> results/all.json
#   benchmark/run.sh --smoke                                          every workload + the mirror assert, < 10 s
#   benchmark/run.sh --compare A.json B.json                          parent-vs-change table; exit 1 on a regression
#
# stdout of a single run ends with the driver's one-line JSON result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

# The benchmark measures the repo, so it cannot run without it.
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "run.sh: $root holds no converge workspace (Cargo.toml, crates/): nothing to measure" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-$bench_dir/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
results="$bench_dir/results"

workload="" trace=0 layers=0 smoke=0 compare=()
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --layers) layers=1; shift ;;
        --smoke) smoke=1; shift ;;
        --compare) compare=("$2" "$3"); shift 3 ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build everything in the first run (the only one allowed to be slow).
# `e2e` must build; `layers` pins internals and may break after a refactor,
# which must not take the end-to-end gate down with it.
build() {
    cargo build --release --offline --manifest-path "$bench_dir/Cargo.toml" "$@" >&2
}
layers_built=1
if ! build 2>/dev/null; then
    layers_built=0
    build -p converge-benchmark-e2e
    echo "run.sh: bench-layers does not build against this tree (see README, 'Stable and internal surface')" >&2
fi
e2e="$target/release/bench-e2e"
lay="$target/release/bench-layers"

need_layers() {
    if [ "$layers_built" != 1 ]; then
        echo "run.sh: the per-layer run needs bench-layers, which failed to build" >&2
        exit 4
    fi
}

if [ ${#compare[@]} -eq 2 ]; then
    exec "$e2e" --compare "${compare[0]}" "${compare[1]}"
fi

all=(call-clean call-impaired call-npath fleet-sfu sweep-quick)

if [ "$smoke" = 1 ]; then
    need_layers
    for w in "${all[@]}"; do
        "$e2e" --workload "$w" --smoke --results-dir "$results/smoke" "${pass[@]}" | grep -v '^{'
        "$lay" --workload "$w" --smoke --results-dir "$results/smoke" "${pass[@]}" | grep -v '^{'
    done
    exit 0
fi

if [ -n "$workload" ]; then
    if [ "$trace" = 1 ] || [ "$layers" = 1 ]; then
        need_layers
        exec "$lay" --workload "$workload" --results-dir "$results" "${pass[@]}"
    fi
    exec "$e2e" --workload "$workload" --results-dir "$results" "${pass[@]}"
fi

# Every workload, each in its own process; then one merged document.
join() {
    local first=1 f
    for f in "$@"; do
        [ "$first" = 1 ] || printf ',\n'
        first=0
        cat "$f"
    done
}
for w in "${all[@]}"; do
    "$e2e" --workload "$w" --results-dir "$results" "${pass[@]}" | grep -v '^{'
done
e2e_files=("${all[@]/#/$results/}")
e2e_files=("${e2e_files[@]/%/.json}")
layer_files=()
if [ "$layers" = 1 ]; then
    need_layers
    for w in "${all[@]}"; do
        "$lay" --workload "$w" --results-dir "$results" "${pass[@]}" | grep -v '^{'
        layer_files+=("$results/$w.layers.json")
    done
fi
{
    printf '{"e2e": [\n'
    join "${e2e_files[@]}"
    printf '],\n"layers": [\n'
    join "${layer_files[@]}"
    printf ']}\n'
} > "$results/all.json"
echo "wrote $results/all.json"
