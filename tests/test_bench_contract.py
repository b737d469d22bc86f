"""The benchmark harness's contract with the library.

``perfbench/`` wraps named wignerlab functions in spans and checks the
outputs of every workload op; a run whose traced names, self-test or checks
break is recorded as incorrect.  These tests import the harness unchanged
and fail in the suite instead.
"""

import csv
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from wignerlab.analysis import negativity_witness, reduced_purities
from wignerlab.photon_ops import PhotonOpSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(ROOT, "tests", "output_digests.json")
#: Seeds, and ops from op 0 of each, whose output parts have committed digests.
DIGEST_SEEDS = (1, 2, 3)
DIGEST_OPS = {"scan": 8, "session": 4, "oracle": 4}
#: The thread pins ``perfbench/run.py`` sets before numpy loads.  numpy reads
#: them only at import, so the digests come from a child process started with
#: them, whatever the calling environment holds.
BLAS_PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", tracer.FUNCTIONS)
def test_traced_name_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"wignerlab.{module}"), fn))


def test_selftest_passes():
    assert selftest.run() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    inp = workload.make_input(0)
    assert workload.check(inp, workload.run(inp)) == []


@pytest.mark.parametrize("seed, index", [(7, 248), (8, 272)])
def test_scan_rows_equal_library_calls(seed, index, tmp_path):
    # low-photon subtraction inputs (a purity-scan and a witness-scan); the
    # harness re-checks sampled rows against these calls
    workload = workloads.Scan(seed, str(tmp_path))
    inp = workload.make_input(index)
    out = workload.run(inp)
    text = dict(out.parts)[f"{inp['command']}:scan.csv"].decode()
    rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    assert len(rows) == workload.samples
    dim = inp["v"].shape[0]
    for row in rows:
        g = np.array([float(row[f"g{i}"]) for i in range(dim)])
        op = PhotonOpSpec(inp["kind"], g)
        rep = reduced_purities(inp["v"], op)
        assert (float(row["mu"]), float(row["mu0"])) == (rep.mu, rep.mu0)
        if "witness" in row:
            assert float(row["witness"]) == negativity_witness(inp["v"], op).value


@pytest.mark.parametrize("name, seed", [
    *(pytest.param(name, 1, id=name) for name in sorted(workloads.WORKLOADS)),
    *(pytest.param(name, seed, id=f"{name}-seed{seed}")
      for name in ("scan", "session") for seed in (2, 3)),
])
def test_first_op_bytes_survive_tracing(name, seed, tmp_path):
    # the harness marks a run incorrect when op 0 or the traced outputs
    # differ from an untraced run of the same input
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    inp = workload.make_input(0)
    parts = [workload.run(inp).parts]
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.open_op(0)
        parts.append(workload.run(inp).parts)
        trace.close_op()
    finally:
        trace.uninstall()
    parts.append(workload.run(inp).parts)
    assert parts[1] == parts[0]
    assert parts[2] == parts[0]


def part_digests(name: str) -> dict[str, str]:
    """sha256 of every output part of the first ``DIGEST_OPS[name]`` ops of
    each seed in ``DIGEST_SEEDS``, keyed ``seed:op:label``.  The workdir ``w``
    is relative to the current directory, so that the file names some parts
    echo do not depend on it."""
    digests = {}
    for seed in DIGEST_SEEDS:
        workload = workloads.WORKLOADS[name](seed, "w")
        inputs = [workload.make_input(i) for i in range(DIGEST_OPS[name])]
        for index, inp in enumerate(inputs):
            workload.clear_opdir()
            for label, data in workload.run(inp).parts:
                digests[f"{seed}:{index}:{label}"] = hashlib.sha256(data).hexdigest()
    return digests


def pinned_part_digests(names, workdir: str) -> dict[str, dict[str, str]]:
    """``part_digests`` of each workload in ``names``, computed by a child
    Python process in ``workdir`` with ``BLAS_PINS`` set."""
    path = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__)),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **BLAS_PINS, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import json, pathlib, sys; from test_bench_contract import part_digests; "
            "pathlib.Path(sys.argv[1]).write_text("
            "json.dumps({n: part_digests(n) for n in sys.argv[2:]}))")
    out = os.path.join(workdir, "digests.json")
    subprocess.run([sys.executable, "-c", code, out, *names], cwd=workdir, env=env,
                   check=True)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(DIGEST_OPS))
def test_output_parts_match_committed_digests(name, tmp_path):
    # any change to the bytes a workload produces shows here, part by part;
    # a change that moves bytes on purpose rewrites the file (see below)
    with open(DIGESTS, encoding="utf-8") as fh:
        record = json.load(fh)
    here = (np.__version__, platform.machine())
    if (record["numpy"], record["machine"]) != here:
        pytest.skip(f"digests recorded with numpy {record['numpy']} on "
                    f"{record['machine']}, running numpy {here[0]} on {here[1]}")
    assert record["env"] == BLAS_PINS
    got, expected = pinned_part_digests([name], str(tmp_path))[name], record["parts"][name]
    moved = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    assert not moved, f"{name} output parts moved: {', '.join(moved)}"


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_bench_contract.py rewrites the digests
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        parts = pinned_part_digests(sorted(DIGEST_OPS), tmp)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(DIGEST_SEEDS), "numpy": np.__version__,
                   "machine": platform.machine(), "env": BLAS_PINS, "parts": parts},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
