"""wignerlab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload scan|session|oracle --seed N \
        --seconds S --trace 0|1

Run from the repository root; wignerlab is imported from ``src/``.  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (environment, seed, op count, tail percentile, output digest).

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median of
five cold set-ups, each a child process that imports wignerlab, writes the
seeded inputs of the digest ops and runs op 0 once.  ``--trace 1`` runs every
op twice on its input, untraced and traced in alternating order, and reports
per-layer metrics from the traced executions plus the tracing overhead.
Design and metric definitions: ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One BLAS thread, set before numpy loads: `--workers 2` ops then keep the
# process at nproc busy threads.  Child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"  # relative to ROOT, so file names inside outputs are stable

SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "session", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_parts: list | None = None
    bytes_out: list[int] = field(default_factory=list)
    sha: object = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()

    def add(self, index, out, problems, wall, cpu, digest_ops) -> None:
        self.latencies.append(wall)
        self.cpu.append(cpu)
        if out is not None:
            self.bytes_out.append(out.bytes_out)
            if index < digest_ops:
                for label, data in out.parts:
                    self.sha.update(f"{index}:{label}:{len(data)}\n".encode())
                    self.sha.update(data)
            if index == 0:
                self.first_parts = out.parts
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)


def run_op(workload, inp, index, tracer=None):
    """One op: the timed call into wignerlab, then its output check."""
    workload.clear_opdir()
    out, problems = None, []
    if tracer is not None:
        tracer.install()
        tracer.open_op(index)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # an op that raises is a failed op
        problems = [f"raised {exc!r}"]
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.close_op()
        tracer.uninstall()
    if out is not None:
        try:
            problems = workload.check(inp, out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    return out, problems, t1 - t0, c1 - c0


def run_loop(workload, inputs, seconds, tracer=None) -> list[LoopResult]:
    """Closed loop from op 0 until ``seconds`` of loop time have passed.

    Only the op itself is timed; input generation for ops past the digest
    prefix, output checks and digesting run between ops.  The loop always
    completes the digest prefix.  With a tracer, every op runs twice on its
    input, untraced and traced in alternating order, so that both passes see
    the same inputs and machine conditions; returns ``[untraced, traced]``.
    """
    passes = [LoopResult()] if tracer is None else [LoopResult(), LoopResult()]
    start = time.perf_counter()
    index = 0
    while index < workload.digest_ops or time.perf_counter() - start < seconds:
        inp = inputs[index] if index < len(inputs) else workload.make_input(index)
        order = list(range(len(passes)))
        if index % 2:
            order.reverse()
        for k in order:
            out, problems, wall, cpu = run_op(workload, inp, index, tracer if k else None)
            passes[k].add(index, out, problems, wall, cpu, workload.digest_ops)
        index += 1
    return passes


def code_hash() -> str:
    """Hash of the package and benchmark sources: a digest record's key."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "wignerlab"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_digest_record(workload: str, seed: int, digest: str, clean: bool) -> list[str]:
    """Compare with the digest an earlier run of this code and seed stored.

    Only a ``clean`` run (no failed op, no other problem) stores its digest.
    """
    folder = os.path.join(OUT, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{code_hash()}-{workload}-{seed}.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = fh.read().strip()
        if earlier != digest:
            return [f"digest {digest[:12]} differs from an earlier run's {earlier[:12]}"]
    elif clean:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
    return []


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info() -> dict:
    """OpenBLAS version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "git_revision": git_revision(),
        "code_hash": code_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_times(args) -> list[float]:
    """Wall time of cold set-ups, each in a fresh child process."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(k)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(os.path.join(OUT, f"setup-{args.workload}-{args.seed}-{k}"),
                      ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return times


def prepare(workload_cls, seed: int, workdir: str):
    """Seeded inputs of the digest ops, written out, and one warm-up op 0."""
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workload_cls(seed, workdir)
    inputs = [workload.make_input(i) for i in range(workload.digest_ops)]
    warm = workload.run(inputs[0])
    return workload, inputs, warm


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wignerlab", "__init__.py")):
        print(f"wignerlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    import selftest
    import stats
    import tracer as tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only is not None:
        prepare(workload_cls, args.seed,
                os.path.join(OUT, f"setup-{args.workload}-{args.seed}-{args.setup_only}"))
        return 0

    setups = setup_times(args) if args.trace == 0 else []
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    workload, inputs, warm = prepare(workload_cls, args.seed, workdir)

    problems: list[str] = []
    trace = None if args.trace == 0 else tracing.Tracer()
    loops = run_loop(workload, inputs, args.seconds, trace)
    if trace is not None:
        if loops[0].digest != loops[1].digest:
            problems.append("traced digest differs from untraced digest")
        trace.write(os.path.join(OUT, f"trace-{args.workload}.tsv"))

    main_loop = loops[-1]
    if warm.parts != loops[0].first_parts:
        problems.append("op 0 output differs between warm-up and timed run")
    problems += [f"self-test: {msg}" for msg in selftest.run()]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    problems += check_digest_record(args.workload, args.seed, loops[0].digest,
                                    clean=failed == 0 and not problems)

    lat_ms = [1e3 * x for x in main_loop.latencies]
    tail_ms, tail_pct, tail_beyond = stats.tail(lat_ms)

    if trace is None:
        metrics = {
            "throughput_ops_s": main_loop.throughput,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail_ms,
            "cpu_ms_per_op": 1e3 * sum(main_loop.cpu) / main_loop.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - main_loop.failed / main_loop.attempted,
            "setup_s": statistics.median(setups),
        }
        declared = bench["end_to_end"]
    else:
        metrics = tracing.per_op_summary(trace)
        metrics["cli.bytes_out"] = statistics.fmean(main_loop.bytes_out or [0])
        metrics["trace.overhead"] = loops[0].throughput / main_loop.throughput - 1.0
        declared = bench["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if sorted(units) != sorted(metrics):
        raise SystemExit("measured metrics differ from those BENCHMARK.json declares")

    record = {
        **environment(args),
        "ops": main_loop.attempted,
        "error_rate": main_loop.failed / main_loop.attempted,
        "tail": {"percentile": tail_pct, "samples_beyond": tail_beyond,
                 "samples": main_loop.attempted},
        "setup_samples_s": setups,
        "digest": loops[0].digest,
        "digest_ops": workload.digest_ops,
        "problems": (problems + [p for lp in loops for p in lp.problems])[:20],
    }
    if trace is not None:
        record["untraced_throughput_ops_s"] = loops[0].throughput
        record["traced_throughput_ops_s"] = main_loop.throughput
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
