"""``tools/bench_pairs.py`` keeps failed runs in its record.

``run.py`` is replaced by a fake that prints what a real run prints, so that
no benchmark runs here.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import bench_pairs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    METRICS = [m["name"] for m in json.load(_fh)["end_to_end"]]


def fake_run(returncode=0, correct=True, problems=(), stderr="", value=1.0):
    record = {"nproc": 2, "python": "3", "numpy": "2", "problems": list(problems)}
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value} for name in METRICS}}
    stdout = f"{json.dumps({'record': record})}\n{json.dumps(result)}\n"
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


@pytest.mark.parametrize("proc, exit_code, problems", [
    (subprocess.CompletedProcess([], 1, "", "Traceback\nBoom"), 1, []),
    (fake_run(correct=False, problems=["op 3: exit code 4"], stderr="Boom"), 0,
     ["op 3: exit code 4"]),
], ids=["crashed", "incorrect"])
def test_failed_run_keeps_its_diagnosis(monkeypatch, proc, exit_code, problems):
    monkeypatch.setattr(bench_pairs, "run_py", lambda root, *args: proc)
    _, flat = bench_pairs.bench_run(ROOT, "scan", 1, 1.0, 0)
    assert flat["correct"] is False
    assert flat["exit_code"] == exit_code
    assert flat["stderr_tail"][-1] == "Boom"
    assert flat["problems"] == problems


def test_failed_run_leaves_its_pair_incomplete(monkeypatch, tmp_path):
    # pair 1's parent run fails: the pairing goes on, the run stays in the
    # record, its pair counts nowhere, and the script exits 1 at the end
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    parent_runs = []

    def run_py(root, *args):
        if root == "parent-root" and "--setup-only" not in args:
            parent_runs.append(args)
            if len(parent_runs) == 2:
                return fake_run(returncode=1, correct=False, stderr="Boom")
        return fake_run(value=2.0 if root == "parent-root" else 1.0)

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev: "parent-root")
    monkeypatch.setattr(bench_pairs, "run_py", run_py)
    code = bench_pairs.main(["--parent", "HEAD", "--label", "t", "--what", "test",
                             "--workload", "scan", "--pairs", "3", "--seeds", "1"])
    assert code == 1
    with open(tmp_path / "BENCH_t.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    failed = [r for r in doc["runs"]["scan"] if not r["correct"]]
    assert [(r["pair"], r["side"], r["exit_code"]) for r in failed] == [(1, "parent", 1)]
    assert failed[0]["stderr_tail"] == ["Boom"]
    assert doc["incomplete_pairs"]["scan"] == [1]
    assert doc["change_better_in_pairs"]["scan"]["latency_p50_ms"] == "2/2"
