#!/usr/bin/env python3
"""Runs pimbench over several seeds and reports how steady each metric is.

    python3 pimbench/spread.py --workload yolo_tiny_frame --seeds 1-10
    python3 pimbench/spread.py --workload all --seeds 1-10 --out set1.json
    python3 pimbench/spread.py --compare set1.json set2.json
    python3 pimbench/spread.py --workload all --determinism 7

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json, and exits 1 if any spread exceeds its bound. --compare
checks that
the second set's medians are not worse than the first's by more than the
bound. --determinism runs one seed twice per workload and checks that the
sim-clock metrics read exactly the same. Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys

SIM_CLOCK = ("device_s_per_item", "sim.dpu_cycles_per_item")


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d failed with exit code %d"
                 % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def report(bench, runs):
    ok = True
    for w, per_seed in runs.items():
        print("%s (%d runs)" % (w, len(per_seed)))
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in per_seed]
            med, s = spread(vals)
            steady = s <= m["bound"]
            ok &= steady
            print("  %-22s median %-14.6g spread %6.2f%%  (bound %5.2f%%) %s"
                  % (m["name"], med, 100 * s, 100 * m["bound"],
                     "" if steady else "UNSTEADY"))
    return ok


def compare(bench, first, second):
    ok = True
    for w in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[w])
            b = statistics.median(r[m["name"]] for r in second[w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = worse <= m["bound"]
            ok &= good
            print("%-18s %-22s %-14.6g %-14.6g worse by %6.2f%% (bound %4.1f%%) %s"
                  % (w, m["name"], a, b, 100 * worse, 100 * m["bound"],
                     "" if good else "REGRESSED"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    p.add_argument("--determinism", type=int, metavar="SEED")
    args = p.parse_args()
    bench = load_benchmark()
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(bench, *sets) else 1

    if args.determinism is not None:
        ok = True
        for w in workloads:
            for trace, names in ((0, SIM_CLOCK[:1]), (1, SIM_CLOCK[1:])):
                a = run_once(bench, w, args.determinism, trace)
                b = run_once(bench, w, args.determinism, trace)
                for n in names:
                    same = a[n] == b[n]
                    ok &= same
                    print("%-18s %-24s %r %r %s" % (w, n, a[n], b[n],
                                                    "same" if same else "DIFFER"))
        return 0 if ok else 1

    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            runs[w].append(run_once(bench, w, seed))
            print("%s seed %d done" % (w, seed), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if report(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
