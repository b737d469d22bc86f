"""Paired benchmark runs of a parent revision against the working checkout.

    python tools/bench_pairs.py --parent REV --label NAME --what TEXT \
        --workload oracle --pairs 10 --seeds 1 2 3 4 5 [--trace-seeds 1 2 3]

Run from the repository root.  The parent is exported with ``git archive``
to ``.bench_out/parent-<sha>/``, so no worktree is registered; the change is
the checkout itself, uncommitted edits included.  Both sides run their own
unchanged ``perfbench/run.py``.

Within each pair both sides run the same seed (``--seeds`` in turn) for
``SECONDS`` each, one after the other, and the side that goes first alternates
from pair to pair.  Set-up is timed separately: ``SETUP_CHILDREN`` cold
``run.py --setup-only`` children per side, alternated the same way, each
timed as ``run.py`` times its own set-up children.  ``--trace-seeds`` adds
one ``--trace 1`` run of ``TRACE_SECONDS`` per side and seed.  The run
lengths and the number of set-up children are fixed, so that every record
made by this script is measured the same way.

Every run is appended to ``BENCH_<label>.json`` as soon as it ends, with
medians and quartiles (linear interpolation) per side, and the number of
pairs in which the change is better on each end-to-end metric.  Running the
script again with the same label adds the new workload to that file.

A run that exits non-zero or reports ``correct: false`` does not end the
pairing.  It stays in the record with its exit code, the last lines of its
standard error and the run record's ``problems``; its metrics count nowhere,
its pair is listed under ``incomplete_pairs``, and the script exits 1 once
every run has been made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SECONDS = 34.0
SETUP_CHILDREN = 12
TRACE_SECONDS = 8.0
#: Lines of a failed run's standard error kept in the record.
STDERR_LINES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--what", required=True, help="one line: what the change is")
    p.add_argument("--workload", required=True, choices=("scan", "session", "oracle"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    return p.parse_args(argv)


def export_parent(rev: str) -> str:
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    dest = os.path.join(ROOT, ".bench_out", f"parent-{sha[:12]}")
    if not os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def run_py(root: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True)


def failure(proc: subprocess.CompletedProcess, problems=()) -> dict:
    """What a failed run leaves to diagnose it."""
    return {"exit_code": proc.returncode,
            "stderr_tail": proc.stderr.strip().splitlines()[-STDERR_LINES:],
            "problems": list(problems)}


def bench_run(root: str, workload: str, seed: int, seconds: float, trace: int):
    """The run record and the flat result of one ``run.py`` invocation.

    A run that exits non-zero, prints no result or reports ``correct:
    false`` gives ``correct: False`` and its :func:`failure` fields, with the
    metrics it printed, if any.
    """
    proc = run_py(root, "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace))
    try:
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return {}, {"correct": False, **failure(proc)}
    flat = {k: result[k] for k in ("correct", "attempted", "failed")}
    flat.update({name: m["value"] for name, m in result["metrics"].items()})
    if proc.returncode != 0 or not flat["correct"]:
        flat.update(correct=False, **failure(proc, record.get("problems", [])))
    return record, flat


def setup_child(root: str, workload: str, seed: int, k: int):
    """Wall time of one cold set-up child, as ``run.py`` times its own, or
    the :func:`failure` of a child that exits non-zero."""
    t0 = time.perf_counter()
    proc = run_py(root, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--setup-only", str(k))
    elapsed = time.perf_counter() - t0
    shutil.rmtree(os.path.join(root, ".bench_out", f"setup-{workload}-{seed}-{k}"),
                  ignore_errors=True)
    return elapsed if proc.returncode == 0 else failure(proc)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(doc: dict, workload: str, declared: list[dict]) -> None:
    """Quartiles and paired wins over the correct runs; a pair with a failed
    run, or with one side not yet run, is incomplete."""
    runs = [r for r in doc["runs"][workload] if r["correct"]]
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    doc["summary"][workload] = {
        m["name"]: {side: quartiles([r[m["name"]] for r in by_side[side]])
                    for side in SIDES if by_side[side]}
        for m in declared
    }
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    complete = [p for p in pairs.values() if len(p) == 2]
    doc["incomplete_pairs"][workload] = sorted(
        {r["pair"] for r in doc["runs"][workload]} - {p["change"]["pair"] for p in complete})
    doc["change_better_in_pairs"][workload] = {
        m["name"]: f"{sum(better(p['change'][m['name']], p['parent'][m['name']], m['better']) for p in complete)}/{len(complete)}"
        for m in declared
    }


def better(change: float, parent: float, direction: str) -> bool:
    return change > parent if direction == "higher" else change < parent


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    roots = {"parent": export_parent(args.parent), "change": ROOT}
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    doc = {"label": args.label, "what": args.what}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for key in ("runs", "summary", "change_better_in_pairs", "incomplete_pairs",
                "setup_only_s"):
        doc.setdefault(key, {})
    doc["runs"][args.workload] = []

    def save():
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    failed = 0
    for pair in range(args.pairs):
        seed = args.seeds[pair % len(args.seeds)]
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            record, flat = bench_run(roots[side], args.workload, seed, SECONDS, 0)
            failed += not flat["correct"]
            if record:
                doc.setdefault("environment", {
                    "nproc": record["nproc"], "machine": platform.machine(),
                    "python": record["python"], "numpy": record["numpy"],
                    "blas": f"{record.get('blas', 'unknown')}, "
                            f"{record.get('blas_threads', '?')} thread(s)",
                })
            doc["runs"][args.workload].append(
                {"pair": pair, "seed": seed, "side": side, **flat})
            summarise(doc, args.workload, declared)
            save()
            print(f"{args.workload} pair {pair} seed {seed} {side}: "
                  f"p50 {flat.get('latency_p50_ms', float('nan')):.1f} ms "
                  f"correct {flat['correct']}", flush=True)

    times = {side: [] for side in SIDES}
    setup_failures = []
    for k in range(SETUP_CHILDREN):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            got = setup_child(roots[side], args.workload, args.seeds[0], k)
            if isinstance(got, dict):
                setup_failures.append({"child": k, "side": side, **got})
            else:
                times[side].append(got)
    failed += len(setup_failures)
    doc["setup_only_s"][args.workload] = {
        side: {"times": times[side], **(quartiles(times[side]) if times[side] else {})}
        for side in SIDES}
    if setup_failures:
        doc["setup_only_s"][args.workload]["failures"] = setup_failures
    save()

    for seed in args.trace_seeds:
        for side in SIDES:
            _, flat = bench_run(roots[side], args.workload, seed, TRACE_SECONDS, 1)
            failed += not flat["correct"]
            doc.setdefault(f"traced_{args.workload}", {})[f"{side}-seed{seed}"] = {
                k: v for k, v in flat.items()
                if v or k in ("correct", "failed", "exit_code", "problems")}
            save()

    doc["method"] = (
        "perfbench/run.py --trace 0 on each side, both sides on the same seed within "
        "a pair, the first side alternating between pairs; set-up: alternated "
        "`run.py --setup-only` children per side on the first seed; traced: "
        "`run.py --trace 1`; quartiles by linear interpolation; made by "
        "tools/bench_pairs.py with the parameters under `params`"
    )
    doc.setdefault("params", {})[args.workload] = {
        "parent": os.path.basename(roots["parent"]).split("-", 1)[1],
        "pairs": args.pairs, "seeds": args.seeds, "seconds": SECONDS,
        "setup_children": SETUP_CHILDREN, "trace_seeds": args.trace_seeds,
        "trace_seconds": TRACE_SECONDS,
    }
    save()
    if failed:
        print(f"{failed} run(s) failed; see their records in {out_path}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
