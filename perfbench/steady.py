#!/usr/bin/env python3
"""Steadiness check for the serving benchmark (python3 stdlib only).

Runs every workload of BENCHMARK.json for its run_seconds, one seed per
round, alternating the workload order between rounds, and prints for each
end-to-end metric its median, quartiles and spread (interquartile range
over median) next to the host's CPU steal share. A metric whose spread
exceeds its bound is flagged. With --baseline, each median is also
compared with the same metric in an earlier results file, and a median
that got worse by more than the bound is flagged; so is a seed whose
outcome hash differs between the two files (run the second set with the
same --first-seed to check that outcomes repeat).

    python3 perfbench/steady.py --rounds 10 --save /tmp/set1.jsonl
    python3 perfbench/steady.py --rounds 10 --baseline /tmp/set1.jsonl

Exit code 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit("steady: %s seed %d exited %d"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "result": result,
            "detail": detail}


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def report(spec, records, baseline):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = []
    base = by_workload(baseline) if baseline else {}
    for workload, recs in sorted(by_workload(records).items()):
        steal = [r["detail"].get("host.steal_frac", 0.0) for r in recs]
        hashes = {}
        for r in recs + base.get(workload, []):
            hashes.setdefault(r["seed"], set()).add(
                r["detail"].get("outcome_hash"))
        print("%s: %d runs, host.steal_frac median %.4f (max %.4f)"
              % (workload, len(recs), statistics.median(steal), max(steal)))
        print("  %-26s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, m in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = " SPREAD"
            elif spread > m["bound"] / 3:
                flag = " (over a third of bound)"
            if workload in base:
                old = statistics.median(
                    r["result"]["metrics"][name]["value"]
                    for r in base[workload])
                worse = 0.0
                if old:
                    worse = (med - old) / old if m["better"] == "lower" \
                        else (old - med) / old
                if worse > m["bound"]:
                    flag += " WORSE %+.3f" % worse
            if "SPREAD" in flag or "WORSE" in flag:
                flagged.append((workload, name))
            print("  %-26s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                name, q1, med, q3, spread, m["bound"], flag))
        repeated = 0
        for seed, hs in sorted(hashes.items()):
            runs = [r for r in recs + base.get(workload, [])
                    if r["seed"] == seed]
            repeated += len(runs) > 1
            if len(hs) > 1:
                print("  outcome hash differs between runs of seed %d" % seed)
                flagged.append((workload, "outcome_hash"))
        print("  outcome hash compared across runs for %d seed(s)" % repeated)
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="append raw records to this JSONL file")
    ap.add_argument("--baseline", help="saved JSONL file to compare against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    records = []
    for rnd in range(args.rounds):
        order = workloads if rnd % 2 == 0 else workloads[::-1]
        seed = args.first_seed + rnd
        for w in order:
            rec = run_once(w, seed, seconds)
            records.append(rec)
            print("round %d %s: steal %.4f hash %s" % (
                rnd, w, rec["detail"].get("host.steal_frac", 0.0),
                rec["detail"].get("outcome_hash")),
                file=sys.stderr, flush=True)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(rec) + "\n")
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = [json.loads(l) for l in f if l.strip()]
    flagged = report(spec, records, baseline)
    if flagged:
        print("flagged: %s" % ", ".join("%s/%s" % f for f in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
