#!/usr/bin/env python3
"""Steadiness check: run K sets of the benchmark on one commit and report,
per workload and end-to-end metric, each set's median and quartiles, the
spread (Q3 - Q1) / median against the metric's bound, and how far each
later set's median moved from the first set's.

    python3 perfbench/steady.py [--sets 2] [--runs 10] [--workloads a,b]
                                [--seconds S] [--first-seed 1] [--out FILE]

`--sets 1 --runs 1` runs every workload once and prints each one's
end-to-end metrics with their units and its operations attempted and
failed.

Run from the root of the checkout. Set `s` uses seeds
`first_seed + 1000*s + i` for `i < runs`, so sets never share a seed.
Within a set the workloads are interleaved run by run. The spread of
`setup_s` is reported but not judged, as the acceptance rule leaves it
out. Exit status 1 when any judged spread or median shift exceeds its
bound, when failed shares differ between sets, or when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"steady: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2]).get("run_metadata", {}) if len(lines) > 1 else {}
    return result, meta


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {}  # (set, workload) -> list of result objects
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + 1000 * s + i
            for w in workloads:
                r, meta = run_once(w, seed, seconds)
                if not r.get("correct"):
                    raise SystemExit(f"steady: {w} seed {seed} reported correct=false")
                results.setdefault((s, w), []).append(r)
                faults = meta.get("process.minor_faults_per_batch", "?")
                print(f"set {s} {w} seed {seed}: attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g} {m['unit']}"
                                 for m in metrics)
                      + f" faults/op={faults}", flush=True)

    ok = True
    summary = []
    print()
    print(f"{'workload':<12} {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'shift':>8}  verdict")
    for w in workloads:
        shares = set()
        for s in range(args.sets):
            rs = results[(s, w)]
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            shares.add(tuple(sorted({(r["failed"] * 1_000_000 // r["attempted"]) for r in rs})))
            print(f"{w:<12} {'failed share':<16} {s:>3} {failed}/{attempted}")
        if len(shares) > 1:
            ok = False
            print(f"{w:<12} failed shares differ between sets: {sorted(shares)}")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            first_median = None
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                judged = name != "setup_s"
                verdict = []
                if judged and spread > bound:
                    ok = False
                    verdict.append("SPREAD>BOUND")
                elif judged and spread > bound / 3:
                    verdict.append("spread>bound/3")
                shift = 0.0
                if first_median is None:
                    first_median = med
                else:
                    worse = (med - first_median) if better == "lower" else (first_median - med)
                    shift = worse / first_median if first_median else float("inf")
                    if shift > bound:
                        ok = False
                        verdict.append("SHIFT>BOUND")
                print(f"{w:<12} {name:<16} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6.3f} {shift:>8.4f}  {' '.join(verdict) or 'ok'}")
                summary.append({"workload": w, "metric": name, "set": s, "median": med, "q1": q1,
                                "q3": q3, "spread": spread, "bound": bound, "shift": shift,
                                "values": values})
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"ok": ok, "seconds": seconds, "rows": summary}, f, indent=1)
    print("\nsteady: " + ("every judged spread and shift is within its bound" if ok else "OUT OF BOUND"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
