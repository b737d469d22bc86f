"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every op is a closed-loop call by one client.  Inputs come from the run seed
and the op index only; wignerlab sees nothing but the state files, arrays and
argv made here.  ``run`` is the timed part; ``check`` runs outside the timed
region and returns the list of problems found (empty when the op is correct).

Each workload walks a fixed design cycle (mode counts, commands, operation
kinds, worker counts, squeezing sequence) in the same order for every seed, so
that runs with different seeds do the same mix of work and only the random
states differ.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from wignerlab import cli, covfile, fock, gaussian, photon_ops
from wignerlab.analysis import negativity_witness, reduced_purities
from wignerlab.gaussian import random_mixed_cov, random_pure_squeezed_cov
from wignerlab.phase_space import random_mode

#: Mode counts visited in turn; small states are overhead-bound, large ones
#: linear-algebra-bound.
M_CYCLE = (2, 16, 4, 12, 6, 10, 3, 8)

NATS_TO_DB = 20.0 / np.log(10.0)

#: Step of the R2 sequence (powers of the inverse plastic number).
R2_STEP = np.array([0.7548776662466927, 0.5698402909980532])


@dataclass
class OpOutput:
    """What one op produced: labelled output bytes plus values to check."""

    parts: list[tuple[str, bytes]] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    bytes_out: int = 0  # CSV and state-file bytes written by the CLI


def _rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _write_state(path: str, v: np.ndarray) -> None:
    """State file in the documented format; floats keep their exact repr."""
    doc = {
        "modes": v.shape[0] // 2,
        "ordering": "xxpp",
        "scaling": "shot-noise-1",
        "matrix": v.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _plane_points(extent: float, n: int, g: np.ndarray) -> np.ndarray:
    """``n x n`` grid over ``[-extent, extent]^2`` in the (g, Jg) plane."""
    axis = np.linspace(-extent, extent, n)
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    flat = np.stack([b1.ravel(), b2.ravel()], axis=-1)
    m = g.size // 2
    jg = np.concatenate([-g[m:], g[:m]])
    return flat[:, :1] * g[None, :] + flat[:, 1:] * jg[None, :]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _cli_step(output: OpOutput, label: str, argv: list[str], files=()) -> None:
    code, text = _run_cli(argv)
    output.values[f"{label}.code"] = code
    output.parts.append((f"{label}.stdout", text.encode()))
    for path in files:
        if code == 0:
            with open(path, "rb") as fh:
                data = fh.read()
            output.parts.append((f"{label}:{os.path.basename(path)}", data))
            output.bytes_out += len(data)


class Workload:
    name: str
    #: ops at the start of every run whose outputs form the digest
    digest_ops: int

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.indir = os.path.join(workdir, "in")
        self.opdir = os.path.join(workdir, "op")
        os.makedirs(self.indir, exist_ok=True)
        os.makedirs(self.opdir, exist_ok=True)

    def clear_opdir(self) -> None:
        for entry in os.listdir(self.opdir):
            os.remove(os.path.join(self.opdir, entry))

    def make_input(self, index: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict) -> OpOutput:
        raise NotImplementedError

    def check(self, inp: dict, out: OpOutput) -> list[str]:
        raise NotImplementedError


class Scan(Workload):
    """One ``witness-scan`` or ``purity-scan`` of 200 random modes per op."""

    name = "scan"
    digest_ops = 16
    samples = 200
    recheck_rows = 3

    def make_input(self, index: int) -> dict:
        block, pos = divmod(index, 8)
        m = M_CYCLE[pos]
        rng = _rng(self.seed, index)
        v = random_pure_squeezed_cov(m, rng.uniform(-6.0, 6.0, size=m), rng)
        kind = ("add", "subtract")[(index + index // 16) % 2]
        inp = {
            "index": index,
            "v": v,
            "kind": kind,
            "command": ("witness-scan", "purity-scan")[block % 2],
            "workers": 2 if (pos + block) % 4 == 3 else 1,
            "scan_seed": int(rng.integers(2**31)),
            "state": os.path.join(self.indir, f"{index}.json"),
        }
        _write_state(inp["state"], v)
        return inp

    def run(self, inp: dict) -> OpOutput:
        csv_path = os.path.join(self.opdir, "scan.csv")
        out = OpOutput()
        _cli_step(out, inp["command"], [
            inp["command"], "--state", inp["state"], "--op", inp["kind"],
            "--samples", str(self.samples), "--seed", str(inp["scan_seed"]),
            "--workers", str(inp["workers"]), "--out", csv_path,
        ], files=[csv_path])
        return out

    def check(self, inp: dict, out: OpOutput) -> list[str]:
        code = out.values[f"{inp['command']}.code"]
        if code != 0:
            return [f"exit code {code}"]
        text = dict(out.parts)[f"{inp['command']}:scan.csv"].decode()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        problems = []
        if len(rows) != self.samples:
            problems.append(f"{len(rows)} rows for {self.samples} samples")
        v, kind = inp["v"], inp["kind"]
        dim = v.shape[0]
        threshold = 2.0 if kind == "subtract" else -2.0
        for row in rows:
            mu, mu0 = float(row["mu"]), float(row["mu0"])
            if not (0.0 < mu <= 1.0 + 1e-12 and 0.0 < mu0 <= 1.0 + 1e-12):
                problems.append(f"sample {row['sample']}: purity out of (0, 1]")
            if "witness" in row and (float(row["witness"]) > threshold) != (row["negative"] == "1"):
                problems.append(f"sample {row['sample']}: negative flag disagrees")
        picks = _rng(self.seed, inp["index"], 1).choice(
            len(rows), size=min(self.recheck_rows, len(rows)), replace=False
        )
        for k in picks:
            row = rows[int(k)]
            g = np.array([float(row[f"g{i}"]) for i in range(dim)])
            op = photon_ops.PhotonOpSpec(kind, g)
            rep = reduced_purities(v, op)
            gaps = [abs(rep.mu - float(row["mu"])), abs(rep.mu0 - float(row["mu0"]))]
            if "witness" in row:
                gaps.append(abs(negativity_witness(v, op).value - float(row["witness"])))
            if max(gaps) > 1e-12:
                problems.append(f"sample {row['sample']}: library recompute differs by {max(gaps):.3e}")
        return problems


class Session(Workload):
    """A user's pass over one mixed state: validate, purify, grid, scan, mixture."""

    name = "session"
    digest_ops = 8
    grid = 201
    mixture_samples = 2000
    mixture_extent = 0.5
    z_limit = 6.0

    def make_input(self, index: int) -> dict:
        m = M_CYCLE[index % 8]
        rng = _rng(self.seed, index)
        v = random_mixed_cov(m, rng)
        g = random_mode(m, rng)
        inp = {
            "index": index,
            "v": v,
            "kind": ("add", "subtract")[(index + index // 8) % 2],
            "points": _plane_points(self.mixture_extent, 8, g),
            "g": g,
            "mixture_seed": int(rng.integers(2**31)),
            "state": os.path.join(self.indir, f"{index}.json"),
        }
        _write_state(inp["state"], v)
        return inp

    def run(self, inp: dict) -> OpOutput:
        state, kind = inp["state"], inp["kind"]
        pure = os.path.join(self.opdir, "pure.json")
        grid = os.path.join(self.opdir, "grid.csv")
        scan = os.path.join(self.opdir, "purity.csv")
        out = OpOutput()
        _cli_step(out, "validate", ["validate", state])
        _cli_step(out, "purify", ["purify", "--state", state, "--out", pure], files=[pure])
        _cli_step(out, "wigner-grid", [
            "wigner-grid", "--state", state, "--op", kind, "--mode", "supermode:0",
            "--grid", str(self.grid), "--out", grid,
        ], files=[grid])
        _cli_step(out, "purity-scan", [
            "purity-scan", "--state", pure, "--op", kind, "--mode", "supermode:0",
            "--out", scan,
        ], files=[scan])
        op = photon_ops.PhotonOpSpec(kind, inp["g"])
        est = photon_ops.mixture_reconstruction(
            inp["v"], op, inp["points"], self.mixture_samples, inp["mixture_seed"]
        )
        out.values["mixture"] = est
        out.parts.append(("mixture", est.values.tobytes() + est.std_errors.tobytes()))
        return out

    def check(self, inp: dict, out: OpOutput) -> list[str]:
        codes = {k: c for k, c in out.values.items() if k.endswith(".code")}
        if any(codes.values()):
            return [f"exit codes {codes}"]
        parts = dict(out.parts)
        problems = []

        v_file = covfile.load_covariance(inp["state"]).matrix
        pure = covfile.load_covariance(os.path.join(self.opdir, "pure.json")).matrix
        expected, _ = photon_ops.decompose_pure_noise(v_file)
        if pure.tobytes() != expected.tobytes():
            problems.append("purified file does not reload bit-exactly")
        nu_gap = float(np.max(np.abs(gaussian.symplectic_eigenvalues(pure) - 1.0)))
        if nu_gap > 1e-6:
            problems.append(f"purified spectrum off unity by {nu_gap:.3e}")

        lines = parts["wigner-grid:grid.csv"].decode().splitlines()
        header = dict(tok.split("=", 1) for tok in lines[1][2:].split())
        values = [float(ln.rsplit(",", 1)[1]) for ln in lines[3:]]
        if len(values) != self.grid**2:
            problems.append(f"grid has {len(values)} rows, expected {self.grid**2}")
        min_w = float(header["min_w"])
        if min(values) != min_w:
            problems.append("grid minimum disagrees with its header")
        if (min_w < 0.0) != (header["negative"] == "True"):
            problems.append(f"min_w = {min_w!r} but negative = {header['negative']}")

        row = list(csv.DictReader(parts["purity-scan:purity.csv"].decode().splitlines()[1:]))[0]
        if not (0.0 < float(row["mu"]) <= 1.0 + 1e-12 and 0.0 < float(row["mu0"]) <= 1.0 + 1e-12):
            problems.append("fixed-mode purity out of (0, 1]")

        est = out.values["mixture"]
        truth = photon_ops.nongaussian_wigner(
            inp["v"], photon_ops.PhotonOpSpec(inp["kind"], inp["g"])
        )(inp["points"])
        z = float(np.max(np.abs(est.values - truth) / est.std_errors))
        if not z < self.z_limit:
            problems.append(f"mixture estimate off by |z| = {z:.2f}")
        return problems


class Oracle(Workload):
    """One two-mode Fock-oracle case checked against the closed forms."""

    name = "oracle"
    digest_ops = 4
    wigner_tol = 1e-8
    cumulant_tol = 1e-7
    covariance_tol = 1e-7

    def make_input(self, index: int) -> dict:
        # Squeezing 0.1-0.7 nats per mode from a two-dimensional
        # low-discrepancy sequence with a seeded start: every stretch of ops
        # covers the square evenly, and the cutoff (the op's cost) follows
        # the larger squeezing.
        start = np.random.default_rng([self.seed]).uniform(size=2)
        rs = 0.1 + 0.6 * ((start + (index + 1) * R2_STEP) % 1.0)
        rng = _rng(self.seed, index)
        signs = rng.choice([-1.0, 1.0], size=2)
        v = random_pure_squeezed_cov(2, rs * signs * NATS_TO_DB, rng)
        g = random_mode(2, rng)
        kind = "add" if index % 2 else "subtract"
        if kind == "subtract" and photon_ops.mean_photon_number(v, g) < 1e-6:
            kind = "add"
        return {
            "index": index,
            "v": v,
            "rs": rs,
            "op": photon_ops.PhotonOpSpec(kind, g),
            "points": _plane_points(4.0, 21, g),
            "fs4": [random_mode(2, rng) for _ in range(4)],
            "fs6": [random_mode(2, rng) for _ in range(6)],
        }

    def run(self, inp: dict) -> OpOutput:
        v, op = inp["v"], inp["op"]
        cutoff = max(80, fock.suggested_cutoff(inp["rs"], 1e-20) + 12)
        state, _ = fock.apply_photon_op(fock.gaussian_fock_state(v, cutoff), op)
        a = photon_ops.covariance_correction(v, op)
        vals = {
            "wigner": (fock.fock_wigner(state, inp["points"]),
                       photon_ops.nongaussian_wigner(v, op)(inp["points"])),
            "k4": (fock.fock_truncated_correlation(state, inp["fs4"]),
                   photon_ops.truncated_correlation(a, inp["fs4"])),
            "k6": (fock.fock_truncated_correlation(state, inp["fs6"]),
                   photon_ops.truncated_correlation(a, inp["fs6"])),
            "covariance": (fock.fock_covariance(state)[0],
                           photon_ops.output_covariance(v, op)),
        }
        out = OpOutput(values=vals)
        out.parts.append(("cutoff", str(cutoff).encode()))
        for key, (oracle, closed) in vals.items():
            out.parts.append((key, np.asarray(oracle).tobytes() + np.asarray(closed).tobytes()))
        return out

    def check(self, inp: dict, out: OpOutput) -> list[str]:
        tols = {"wigner": self.wigner_tol, "k4": self.cumulant_tol,
                "k6": self.cumulant_tol, "covariance": self.covariance_tol}
        problems = []
        for key, (oracle, closed) in out.values.items():
            dev = float(np.max(np.abs(np.asarray(oracle) - np.asarray(closed))))
            if not dev < tols[key]:
                problems.append(f"{key} deviation {dev:.3e} >= {tols[key]:.0e}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Scan, Session, Oracle)}
