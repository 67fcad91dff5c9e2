#!/usr/bin/env python3
"""Checks that the benchmark itself is deterministic.

For each workload it runs the benchmark twice on one seed and twice on a
held-out seed. On each seed the two runs must give identical f1, ok_share
and op counts, and every output check must pass. It then makes the traced
run on the first seed and reports the tracing overhead (traced ops/s
against untraced).

    python3 perfbench/determinism.py [--seconds 5] [--seed 1] [--heldout 977] [workload ...]

Run it from the root of the repository. Exit status 1 means a check failed.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["serve_binary", "serve_jsonl", "sweep_drift", "migrate_resume"]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-3000:]}")
    report = json.loads(lines[-2].split(" ", 2)[2])
    return json.loads(lines[-1]), report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--heldout", type=int, default=977)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        for seed in (args.seed, args.heldout):
            a, arep = run(w, seed, args.seconds, 0)
            b, _ = run(w, seed, args.seconds, 0)
            if seed == args.seed:
                untraced = a["metrics"]["ops_per_s"]["value"]
            same = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"]) for k in ("f1", "ok_share")}
            same["attempted"] = (a["attempted"], b["attempted"])
            same["failed"] = (a["failed"], b["failed"])
            repeat = all(x == y for x, y in same.values())
            correct = a["correct"] and b["correct"] and a["metrics"]["ok_share"]["value"] == 1.0
            print(f"{w} seed {seed}: repeat {'ok' if repeat else 'DIFFERS'} {same}; "
                  f"checks {'ok' if correct else 'FAILED ' + str(arep.get('notes'))}")
            ok = ok and repeat and correct
        t, trep = run(w, args.seed, args.seconds, 1)
        traced = t["metrics"]["trace.ops_per_s"]["value"]
        print(f"{w}: traced run {'ok' if t['correct'] else 'FAILED ' + str(trep.get('notes'))}, "
              f"overhead {1 - traced / untraced:+.1%} (traced {traced:.4g} ops/s, untraced {untraced:.4g}; "
              f"span cost estimate {t['metrics']['trace.overhead_share']['value']:.2%})")
        ok = ok and t["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
