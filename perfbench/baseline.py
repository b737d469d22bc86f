"""Run two ten-seed sets of every workload and compare them.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each set makes one untraced run per seed 1-10 of every workload in
BENCHMARK.json (run length from there); the second set starts after the
first has finished.  Then one traced run per workload on seed 1.  Reports,
per set and end-to-end metric, the median, the quartiles
(``statistics.quantiles(n=4)``), the spread ``(q3 - q1) / median`` and every
value; per metric, how much worse the second set's median is than the first
and whether spread and drift stay within the metric's bound; whether the two
sets' output digests are identical; and the per-layer metrics of the traced
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-1000:]}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {name: [] for name in names}  # workload -> one list of runs per set
    for k in range(SETS):
        for name in names:
            runs[name].append([])
            for seed in SEEDS:
                runs[name][k].append(run_once(name, seed, seconds, 0))
                res = runs[name][k][-1]["result"]
                print(f"set {k + 1} {name} seed {seed}: correct {res['correct']} "
                      f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)
    traced = {name: run_once(name, SEEDS[0], seconds, 1) for name in names}

    first = runs[names[0]][0][0]["record"]
    report = {
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "environment": {k: first[k] for k in (
            "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "git_revision")},
        "workloads": {},
    }
    for name in names:
        sets = []
        for set_runs in runs[name]:
            sets.append({
                "all_correct": all(r["result"]["correct"] for r in set_runs),
                "ops": [r["record"]["ops"] for r in set_runs],
                "tail_percentile": [r["record"]["tail"]["percentile"] for r in set_runs],
                "digests": [r["record"]["digest"] for r in set_runs],
                "end_to_end": {
                    m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"]
                                          for r in set_runs])
                    for m in bench["end_to_end"]
                },
            })
        comparison = {}
        for m in bench["end_to_end"]:
            s1, s2 = (s["end_to_end"][m["name"]] for s in sets)
            worse = worse_by(s1["median"], s2["median"], m["better"])
            spreads_ok = m["name"] == "setup_s" or max(s1["spread"], s2["spread"]) <= m["bound"]
            comparison[m["name"]] = {"bound": m["bound"], "second_worse_by": worse,
                                     "within_bound": spreads_ok and worse <= m["bound"]}
        report["workloads"][name] = {
            "sets": sets,
            "digests_identical": sets[0]["digests"] == sets[1]["digests"],
            "comparison": comparison,
            "traced": {
                "correct": traced[name]["result"]["correct"],
                "per_layer": {k: v["value"]
                              for k, v in traced[name]["result"]["metrics"].items()},
            },
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    for name, wl in report["workloads"].items():
        print(f"{name}: digests identical {wl['digests_identical']}, "
              f"correct {[s['all_correct'] for s in wl['sets']]} + traced {wl['traced']['correct']}")
        for metric, cmp in wl["comparison"].items():
            spreads = " ".join(f"{s['end_to_end'][metric]['spread']:.4f}" for s in wl["sets"])
            medians = " ".join(f"{s['end_to_end'][metric]['median']:12.4f}" for s in wl["sets"])
            print(f"  {metric:18s} medians {medians}  spreads {spreads}  "
                  f"worse by {cmp['second_worse_by']:+.4f}  within {cmp['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
