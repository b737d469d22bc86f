"""Command-line surface.

Subcommands::

    wignerlab validate     STATE.json
    wignerlab wigner-grid  --state F --op add|subtract --mode SPEC [--plane SPEC]
                           [--grid R] [--range X] [--seed S] [--out CSV]
    wignerlab witness-scan --state F --op OP --samples N [--seed S]
                           [--workers K] [--out CSV]
    wignerlab purity-scan  --state F --op OP --samples N [--seed S]
                           [--mode SPEC] [--workers K] [--out CSV]
    wignerlab purify       --state F --out G.json
    wignerlab oracle-check --preset NAME [--cutoff N]

Mode specs are either explicit coordinates ("1,0,0,0"), "supermode:i"
(resolved through the Williamson and Bloch-Messiah decompositions of the
state's pure part, signed so that the largest-magnitude component is
positive), or "random" (drawn from the seed).

A mode spec that starts with a minus sign is passed as ``--mode=-1,0``;
``--mode -1,0`` reads it as an option and is a usage error.

Exit codes are part of the contract: 0 ok, 1 oracle-check FAIL, 2 invalid
state (asymmetric, singular, unphysical or ill-conditioned, or an entry
beyond ``gaussian.MAX_ENTRY``), 3 parse error (malformed state file, usage
error, numeric flag out of range, unwritable output), 4 subtraction undefined
on a vacuum mode, 5 purity scan on a mixed state, 6 Fock cutoff leakage.
A command returns only 0 or 1 and raises every other outcome, usage errors
included, to :func:`main`, which maps the error to its code and prints one
line on stderr instead of a traceback: a failed run prints nothing on stdout
and leaves no output file.  Identical flags and seed give byte-identical
output; ``--workers`` is accepted but starts no threads.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import analysis, fock, photon_ops
from .covfile import ORDERING, SCALING, load_covariance, save_covariance
from .errors import (
    CovarianceError,
    CutoffError,
    MixedStateError,
    ParseError,
    SubtractionUndefinedError,
    SymplecticError,
)
from .gaussian import (
    MAX_ENTRY,
    bloch_messiah,
    gaussian_state,
    is_pure,
    random_pure_squeezed_cov,
    validate_covariance,
)
from .phase_space import NORM_FLOOR, apply_j, as_mode, random_mode

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_INVALID_STATE = 2
EXIT_PARSE = 3
EXIT_SUBTRACTION = 4
EXIT_MIXED_PURITY_SCAN = 5
EXIT_CUTOFF = 6

#: Most rows one command allocates: ``--samples`` modes or ``--grid``
#: squared points.
MAX_ROWS = 2**24

#: Accepted range ``(low, high)`` of each integer flag; outside it the run
#: exits 3 before any work or allocation.
_FLAG_BOUNDS = {"samples": (1, MAX_ROWS), "grid": (1, math.isqrt(MAX_ROWS)),
                "seed": (0, math.inf), "cutoff": (2, fock.MAX_SUGGESTED_CUTOFF)}


def _fmt(x) -> str:
    """Shortest exact decimal form, flags as 0/1; keeps output byte-stable."""
    return str(int(x)) if isinstance(x, np.bool_) else repr(float(x))


def _check_flags(args) -> None:
    """Reject numeric flags outside their domain before any work starts."""
    for name, (low, high) in _FLAG_BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ParseError(f"--{name} must be at least {low}, got {value}")
        if value is not None and value > high:
            raise ParseError(f"--{name} must be at most {high}, got {value}")
    # grid coordinates obey the covariance entry bound, so squares stay finite
    extent = getattr(args, "range", None)
    if extent is not None and not 0.0 < extent <= MAX_ENTRY:  # NaN too
        raise ParseError(
            f"--range must be positive and at most {MAX_ENTRY:.0e}, got {extent!r}"
        )


def _resolve_mode(spec: str, state, seed) -> np.ndarray:
    m = state.v.shape[0] // 2
    if spec == "random":
        return random_mode(m, [seed, 0xA11CE])
    if spec.startswith("supermode:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"cannot parse mode spec {spec!r}") from exc
        if not 0 <= index < m:
            raise ParseError(f"supermode index {index} out of range")
        return bloch_messiah(state.s).supermode(index)
    try:
        coords = np.array([float(tok) for tok in spec.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"cannot parse mode spec {spec!r}: {exc}") from exc
    norm = float(np.linalg.norm(coords))
    if coords.size != 2 * m or not NORM_FLOOR <= norm < math.inf:  # NaN too
        raise ParseError(f"mode spec {spec!r} does not name a mode of this state")
    return as_mode(coords / norm)


def _load_validated(path):
    """The state file at ``path`` and its one validated :class:`GaussianState`."""
    cov = load_covariance(path)
    validate_covariance(state := gaussian_state(cov.matrix))
    return cov, state


def _require_zero_mean(cov) -> None:
    if np.any(cov.mean != 0.0):
        raise CovarianceError(
            "this command assumes a zero-mean state; strip the displacement first"
        )


@contextmanager
def _open_out(args):
    if not args.out:
        yield sys.stdout
        return
    try:
        out = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc}") from exc
    with out:
        yield out


def _write_header(out, comments: list[str], names) -> None:
    out.writelines(f"# {line}\n" for line in comments)
    out.write(",".join(names) + "\n")


def _write_csv(args, comments: list[str], columns: dict) -> None:
    """CSV: ``#`` provenance lines, the column names, then one row per entry
    of the equal-length 1-D ``columns``.  Cells read as ``_fmt`` writes them:
    integers and floats by ``repr``, flags as 0/1."""
    cells = []
    for col in columns.values():
        col = np.asarray(col)
        cells.append((col.astype(int) if col.dtype == bool else col).tolist())
    with _open_out(args) as out:
        _write_header(out, comments, columns)
        out.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cells))


def _write_grid(args, comments: list[str], axis: np.ndarray, values: np.ndarray) -> None:
    """The :func:`_write_csv` bytes of the columns ``beta1, beta2, w`` of an
    ``n x n`` grid over ``axis`` (``values`` in :func:`_plane_grid` order),
    with each axis value formatted once and one grid row written at a time."""
    cells = [repr(x) + "," for x in axis.tolist()]
    with _open_out(args) as out:
        _write_header(out, comments, ("beta1", "beta2", "w"))
        for i, head in enumerate(cells):
            row = values[i * len(cells):(i + 1) * len(cells)].tolist()
            out.write("".join(f"{head}{cell}{w!r}\n" for cell, w in zip(cells, row)))


def _write_scan(args, modes: np.ndarray, columns: dict, header: str = "") -> None:
    """Scan CSV: provenance header, then per sample its index, mode and ``columns``."""
    _write_csv(args, [
        f"wignerlab {args.command} ordering={ORDERING} scaling={SCALING} "
        f"op={args.op} samples={len(modes)} seed={args.seed}{header}"
    ], {
        "sample": np.arange(len(modes)),
        **{f"g{i}": g for i, g in enumerate(modes.T)},
        **columns,
    })


def _plane_grid(extent: float, n: int, h: np.ndarray):
    """``n x n`` grid over ``[-extent, extent]^2``: the axis and the
    phase-space points ``u1 h + u2 Jh``, ``u1`` the slow index."""
    axis = np.linspace(-extent, extent, n)
    u1_h, u2_jh = axis[:, None] * h, axis[:, None] * apply_j(h)
    return axis, (u1_h[:, None, :] + u2_jh[None, :, :]).reshape(n * n, -1)


def cmd_validate(args) -> int:
    _, state = _load_validated(args.state)
    nus = ", ".join(f"{x:.12g}" for x in state.nu)
    print(f"nu = {nus}; {'pure' if is_pure(state) else 'mixed'}")
    print(f"purity = {np.prod(1.0 / state.nu):.12g}")  # (det V)^-1/2
    return EXIT_OK


def cmd_wigner_grid(args) -> int:
    cov, state = _load_validated(args.state)
    _require_zero_mean(cov)
    g = _resolve_mode(args.mode, state, args.seed)
    plane = g if args.plane is None else _resolve_mode(args.plane, state, args.seed)
    op = photon_ops.PhotonOpSpec(args.op, g)
    w = photon_ops.nongaussian_wigner(state, op)
    witness = analysis.negativity_witness(state, op)

    axis, points = _plane_grid(args.range, args.grid, plane)
    values = w(points)

    _write_grid(args, [
        f"wignerlab wigner-grid ordering={ORDERING} scaling={SCALING} "
        f"op={args.op} mode={args.mode} plane={args.plane or args.mode} "
        f"grid={args.grid} range={_fmt(args.range)} seed={args.seed}",
        f"min_w={_fmt(values.min())} witness={_fmt(witness.value)} "
        f"threshold={_fmt(witness.threshold)} negative={witness.negative}",
    ], axis, values)
    print(f"min W on grid = {_fmt(values.min())}")
    print(f"witness = {_fmt(witness.value)}; negative = {witness.negative}")
    return EXIT_OK


def cmd_witness_scan(args) -> int:
    cov, state = _load_validated(args.state)
    _require_zero_mean(cov)
    modes, _ = analysis.draw_scan_modes(state, args.op, args.samples, args.seed)
    scan = analysis.plane_scan(state, args.op, modes)
    _write_scan(args, modes, {
        "witness": scan.witness, "negative": scan.negative,
        "mu0": scan.mu0, "mu": scan.mu, "mean_photon": scan.nbar,
    })
    print(f"negative fraction = {_fmt(np.mean(scan.negative))}")
    return EXIT_OK


def cmd_purity_scan(args) -> int:
    cov, state = _load_validated(args.state)
    _require_zero_mean(cov)
    if not is_pure(state):
        raise MixedStateError(
            "purity scan requires a pure state; run `wignerlab purify` first "
            f"(symplectic eigenvalues up to {state.nu[0]:.6g})"
        )
    if args.mode is None:
        modes, resampled = analysis.draw_scan_modes(state, args.op, args.samples, args.seed)
    else:
        modes, resampled = _resolve_mode(args.mode, state, args.seed)[None, :], 0
    scan = analysis.plane_scan(state, args.op, modes)
    _write_scan(args, modes, {"mu0": scan.mu0, "mu": scan.mu},
                f" mode={args.mode or 'random'}")
    print(f"fraction mu<mu0 = {_fmt(scan.fraction_lowered)}")
    print(f"mean mu0 = {_fmt(scan.mu0.mean())}")
    print(f"mean mu = {_fmt(scan.mu.mean())}")
    print(f"resampled = {resampled}")
    return EXIT_OK


def cmd_purify(args) -> int:
    cov, state = _load_validated(args.state)
    v_pure, v_noise = photon_ops.decompose_pure_noise(state)
    noise_norm = float(np.linalg.norm(v_noise))
    ratio_txt = ("pure" if noise_norm < NORM_FLOOR
                 else _fmt(float(np.linalg.norm(v_pure)) / noise_norm))
    metadata = {**cov.metadata, "purified-from": str(args.state),
                "discarded-noise-hs-norm": noise_norm, "pure-to-noise-hs-ratio": ratio_txt}
    save_covariance(args.out, v_pure, mean=cov.mean, metadata=metadata)
    print(f"pure part written to {args.out}")
    print(f"pure/noise Hilbert-Schmidt ratio = {ratio_txt}")
    return EXIT_OK


ORACLE_PRESETS = ("vacuum-add", "squeezed-subtract", "two-mode-random", "displaced-add")

WIGNER_TOL = 1e-8
CUMULANT_TOL = 1e-7
COVARIANCE_TOL = 1e-7


def _oracle_presets() -> dict:
    """Covariance, mode, operation, displacement and default cutoff of each
    preset; built per run, so importing the CLI draws no random state."""
    vacuum, x = np.eye(2), np.array([1.0, 0.0])
    return {
        "vacuum-add": (vacuum, x, "add", np.zeros(2), 48),
        "squeezed-subtract": (np.diag([2.0, 0.5]), x, "subtract", np.zeros(2), 64),
        "two-mode-random": (random_pure_squeezed_cov(2, [4.0, -3.0], 0xF0CC),
                            random_mode(2, 0xF0CD), "subtract", np.zeros(4), 64),
        "displaced-add": (vacuum, x, "add", np.array([2.0, 0.0]), 64),
    }


def cmd_oracle_check(args) -> int:
    v, g, kind, xi, cutoff = _oracle_presets()[args.preset]
    cutoff = args.cutoff or cutoff
    op = photon_ops.PhotonOpSpec(kind, g)
    displaced = bool(np.any(xi))
    state = fock.gaussian_fock_state(v, cutoff)
    if displaced:
        state = fock.displace_state(state, xi)
    op_state, _ = fock.apply_photon_op(state, op)
    w = photon_ops.displaced_poly_wigner(v, xi, op)

    _, points = _plane_grid(4.0, 21, op.mode)
    wigner_dev = float(np.max(np.abs(fock.fock_wigner(op_state, points) - w(points))))
    ref_mean, ref_cov = photon_ops.poly_wigner_moments(w)
    out_cov, out_mean = fock.fock_covariance(op_state)
    cov_dev = float(max(np.max(np.abs(out_cov - ref_cov)),
                        np.max(np.abs(out_mean - ref_mean))))
    cum_dev = 0.0  # the closed-form cumulants hold for undisplaced states
    if not displaced:
        fs4 = [op.mode] * 4
        cum_dev = abs(fock.fock_truncated_correlation(op_state, fs4)
                      - photon_ops.truncated_correlation(
                          photon_ops.covariance_correction(v, op), fs4))

    print(f"preset = {args.preset} cutoff = {cutoff}")
    print(f"max wigner deviation = {wigner_dev:.3e} (tol {WIGNER_TOL:.0e})")
    print(f"max cumulant deviation = {cum_dev:.3e} (tol {CUMULANT_TOL:.0e})")
    print(f"max covariance deviation = {cov_dev:.3e} (tol {COVARIANCE_TOL:.0e})")
    ok = wigner_dev < WIGNER_TOL and cum_dev < CUMULANT_TOL and cov_dev < COVARIANCE_TOL
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ORACLE_FAIL


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`ParseError` (exit 3), not ``SystemExit(2)``."""

    def error(self, message):
        raise ParseError(message)


_MODE_HELP = ("mode spec: coordinates, supermode:i or random; write a spec "
              "that starts with a minus as --{0}=-1,0")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused:
    parsing keeps no state between calls, each returns a fresh namespace."""
    parser = _Parser(
        prog="wignerlab",
        description=(
            "Analyze single-photon-added and -subtracted multimode Gaussian "
            "states in optical phase space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file's physicality")
    p.add_argument("state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("wigner-grid", help="evaluate the Wigner function on a grid")
    p.add_argument("--state", required=True)
    p.add_argument("--op", required=True, choices=("add", "subtract"))
    p.add_argument("--mode", required=True, help=_MODE_HELP.format("mode"))
    p.add_argument("--plane", default=None,
                   help="plane for the grid (defaults to the operation mode); "
                   + _MODE_HELP.format("plane"))
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--range", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wigner_grid)

    p = sub.add_parser("witness-scan", help="negativity witness over random modes")
    p.add_argument("--state", required=True)
    p.add_argument("--op", required=True, choices=("add", "subtract"))
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; starts no threads")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness_scan)

    p = sub.add_parser("purity-scan", help="reduced purities over random modes")
    p.add_argument("--state", required=True)
    p.add_argument("--op", required=True, choices=("add", "subtract"))
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default=None,
                   help="force a fixed mode instead of random sampling; "
                   + _MODE_HELP.format("mode"))
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; starts no threads")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_purity_scan)

    p = sub.add_parser("purify", help="write the pure part of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("oracle-check", help="run a Fock-oracle acceptance preset")
    p.add_argument("--preset", required=True, choices=ORACLE_PRESETS)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


#: Error class, exit code and stderr prefix; the first matching row wins.
_EXITS = (
    (ParseError, EXIT_PARSE, "parse error"),
    (SubtractionUndefinedError, EXIT_SUBTRACTION, "subtraction undefined"),
    (CutoffError, EXIT_CUTOFF, "cutoff leakage"),
    (MixedStateError, EXIT_MIXED_PURITY_SCAN, "mixed state"),
    (CovarianceError, EXIT_INVALID_STATE, "invalid state"),
    (SymplecticError, EXIT_INVALID_STATE, "invalid state"),
    (np.linalg.LinAlgError, EXIT_INVALID_STATE, "invalid state"),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except tuple(cls for cls, _, _ in _EXITS) as exc:
        code, prefix = next((c, p) for cls, c, p in _EXITS if isinstance(exc, cls))
        hint = getattr(exc, "suggested_cutoff", None)
        hint = f"; suggested cutoff {hint}" if hint else ""
        print(f"{prefix}: {exc}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
