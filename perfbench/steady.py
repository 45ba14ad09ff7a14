"""Rerun a workload k times with k seeds; print each end-to-end metric's
median and quartiles against its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload subset-scan --runs 10 [--sets 2]

Run from the repository root. Every run measures ``run_seconds`` from
BENCHMARK.json. The spread is (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``; a metric is steady when the spread
is within its bound. ``--sets 2`` runs every seed twice, the two sets
interleaved so that both see the same drift in machine speed, and also
checks that the set medians agree within the bound. The header records
the commit, Python, numpy, mpmath and nproc.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
    }


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _run(bench: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(proc.stdout + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    print(json.dumps(environment()))
    sets = [[] for _ in range(args.sets)]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for k, runs in enumerate(sets, 1):
            result = _run(bench, args.workload, seed)
            runs.append(result)
            print(f"set {k} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{m}={v['value']:.4g}"
                             for m, v in result["metrics"].items()),
                  flush=True)

    correct = all(r["correct"] for runs in sets for r in runs)
    ok = correct
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets, 1):
            med, q1, q3, rel = spread(
                [r["metrics"][name]["value"] for r in runs])
            medians.append(med)
            ok &= rel <= bound
            print(f"set {k} {name:12s} median {med:.6g} {metric['unit']}  "
                  f"Q1 {q1:.6g}  Q3 {q3:.6g}  spread {rel:.3f} "
                  f"(bound {bound}, a third {bound / 3:.3f})"
                  f"{'' if rel <= bound else '  OUTSIDE BOUND'}")
        if len(medians) == 2:
            ratio = medians[1] / medians[0] if medians[0] else 1.0
            agree = abs(ratio - 1) <= bound
            ok &= agree
            print(f"      {name:12s} set 2 / set 1 median {ratio:.3f}"
                  f"{'' if agree else '  OUTSIDE BOUND'}")
    print("all correct" if correct else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
