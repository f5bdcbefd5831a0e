#!/usr/bin/env python3
"""The driver's acceptance rule, run by hand.

Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, the median and the spread: the distance between the first
and third quartile of the values (statistics.quantiles, n=4) as a share of
their median. A benchmark is steady when every spread except setup_s's is
within the metric's bound in BENCHMARK.json, and comfortably so when it is
below a third of it. With --sets 2 the whole procedure runs twice and the
second medians are checked against the first.

    python3 benchmark/spread.py [--workloads a,b] [--seeds 1-10] [--sets 2] [--out FILE]

Run it from the repo root on an otherwise idle machine; it takes about
15 s per run, 13 minutes per set of all five workloads.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} operations FAILED")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", help="write every value as JSON")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = range(first, last + 1)
    sets, wide = [], False
    for index in range(args.sets):
        medians = {}
        values = {}
        for workload in args.workloads.split(","):
            runs = [run_once(workload, seed) for seed in seeds]
            print(f"set {index + 1}  {workload}")
            for spec in SPEC["end_to_end"]:
                name, bound = spec["name"], spec["bound"]
                column = [r[name] for r in runs]
                values[f"{workload}/{name}"] = column
                median, s = statistics.median(column), spread(column)
                verdict = "" if name == "setup_s" else ("ok" if s <= bound / 3 else "within bound" if s <= bound else "TOO WIDE")
                wide |= verdict == "TOO WIDE"
                line = f"  {name:<18} median {median:12.4f}  spread {100 * s:6.2f} %  bound {100 * bound:4.1f} %  {verdict}"
                if sets:
                    was = sets[0]["medians"][f"{workload}/{name}"]
                    worse = (was - median if spec["better"] == "higher" else median - was) / was
                    shifted = worse > bound
                    wide |= shifted
                    line += f"  vs set 1 {100 * worse:+6.2f} % worse{'  SHIFTED' if shifted else ''}"
                medians[f"{workload}/{name}"] = median
                print(line)
        sets.append({"medians": medians, "values": values})
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(sets, indent=1))
    sys.exit(1 if wide else 0)


if __name__ == "__main__":
    main()
