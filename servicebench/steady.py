#!/usr/bin/env python3
"""Steadiness of the service benchmark: runs each workload several times
with a different seed each time and summarises every metric, or compares
two such sets against the bounds in BENCHMARK.json.

    python3 servicebench/steady.py --runs 10 [--first-seed N] [--out set.json]
    python3 servicebench/steady.py --compare first.json second.json

Run from the root of the repository. Every workload of BENCHMARK.json runs
for its run_seconds. For each metric the summary prints the median, the
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median) next to the metric's bound, and the min/max ratio; for each run
the operations attempted and failed and the daemon's mean fold size. The
comparison checks, per workload and end-to-end metric, that every run was
correct, that each set's spread stays within the bound, that the two
medians differ by no more than the bound in either direction, and that
both sets fail the same share of their operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"seed": seed, "error": "exit %d" % p.returncode}
    info = {}
    for line in lines:
        if line.startswith("info "):
            for kv in line.split()[2:]:
                k, _, v = kv.partition("=")
                info[k] = v
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs_by_workload, bounds):
    for workload, runs in runs_by_workload.items():
        ok = [r for r in runs if "result" in r]
        print("\n== %s: %d runs, %d failed to run" % (workload, len(runs), len(runs) - len(ok)))
        for r in runs:
            if "error" in r:
                print("  seed %-4s %s" % (r["seed"], r["error"]))
                continue
            res = r["result"]
            print("  seed %-4s attempted %-7d failed %-5d correct %-5s fold_size_mean %s" % (
                r["seed"], res["attempted"], res["failed"], res["correct"],
                r["info"].get("fold_size_mean", "-")))
        if not ok:
            continue
        names = list(ok[0]["result"]["metrics"])
        print("  %-34s %12s %12s %12s %8s %7s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "min/max"))
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in ok]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            mm = min(vals) / max(vals) if max(vals) else float("nan")
            print("  %-34s %12.4f %12.4f %12.4f %8.4f %7s %8.4f" % (
                name, med, q1, q3, spread, "-" if bound is None else "%.3f" % bound, mm))


def failed_shares(runs):
    return {Fraction(r["result"]["failed"], r["result"]["attempted"])
            for r in runs if "result" in r}


def compare(a, b, s):
    bounds = {m["name"]: m for m in s["end_to_end"]}
    bad = 0
    for workload in a:
        ra = [r for r in a[workload] if "result" in r]
        rb = [r for r in b.get(workload, []) if "result" in r]
        print("\n== %s" % workload)
        if not ra or not rb or len(ra) != len(a[workload]) or len(rb) != len(b[workload]):
            print("  a run failed to produce a result")
            bad += 1
            continue
        correct = all(r["result"]["correct"] for r in ra + rb)
        print("  every run correct: %s" % ("yes" if correct else "NO"))
        bad += not correct
        fa, fb = failed_shares(ra), failed_shares(rb)
        same = fa == fb and len(fa) == 1
        print("  failed share: first %s second %s %s" % (sorted(map(str, fa)), sorted(map(str, fb)),
                                                        "ok" if same else "DIFFERENT"))
        bad += not same
        for name, m in bounds.items():
            va = [r["result"]["metrics"][name]["value"] for r in ra]
            vb = [r["result"]["metrics"][name]["value"] for r in rb]
            qa, qb = quartiles(va), quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            shift = (qb[1] - qa[1]) / qa[1]
            ok_spread = spread_a <= m["bound"] and spread_b <= m["bound"]
            ok_shift = abs(shift) <= m["bound"]
            print("  %-16s median %12.4f -> %12.4f  shift %+7.4f  spread %.4f / %.4f  "
                  "bound %.3f  %s" % (name, qa[1], qb[1], shift, spread_a, spread_b,
                                      m["bound"], "ok" if ok_spread and ok_shift else "FAIL"))
            bad += not (ok_spread and ok_shift)
    print("\n%s" % ("all within bounds" if not bad else "%d check(s) out of bounds" % bad))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    s = spec()
    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        return compare(a, b, s)
    runs = {}
    for w in (w["name"] for w in s["workloads"]):
        runs[w] = []
        for i in range(args.runs):
            r = one_run(w, args.first_seed + i, s["run_seconds"])
            runs[w].append(r)
            sys.stderr.write("%s seed %d: %s\n" % (w, r["seed"], r.get("error", "ok")))
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    summarise(runs, bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
