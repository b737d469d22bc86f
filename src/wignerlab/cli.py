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
state's pure part), or "random" (drawn from the seed).

Exit codes are part of the contract: 0 ok, 1 oracle-check FAIL, 2 invalid
state, 3 parse error, 4 subtraction undefined on a vacuum mode, 5 purity scan
on a mixed state, 6 Fock cutoff leakage.  Identical flags and seed give
byte-identical output; ``--workers`` is accepted but starts no threads.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from . import analysis, fock, photon_ops
from .covfile import ORDERING, SCALING, load_covariance, save_covariance
from .errors import (
    CovarianceError,
    CutoffError,
    ParseError,
    SubtractionUndefinedError,
)
from .gaussian import (
    bloch_messiah,
    gaussian_purity,
    is_pure,
    random_pure_squeezed_cov,
    symplectic_eigenvalues,
    validate_covariance,
    williamson,
)
from .phase_space import apply_j, as_mode, random_mode

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_INVALID_STATE = 2
EXIT_PARSE = 3
EXIT_SUBTRACTION = 4
EXIT_MIXED_PURITY_SCAN = 5
EXIT_CUTOFF = 6


def _fmt(x) -> str:
    """Shortest exact decimal form, flags as 0/1; keeps output byte-stable."""
    return str(int(x)) if isinstance(x, np.bool_) else repr(float(x))


def _resolve_mode(spec: str, v: np.ndarray, seed) -> np.ndarray:
    if spec == "random":
        return random_mode(v.shape[0] // 2, [seed, 0xA11CE])
    if spec.startswith("supermode:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"cannot parse mode spec {spec!r}") from exc
        if not 0 <= index < v.shape[0] // 2:
            raise ParseError(f"supermode index {index} out of range")
        return bloch_messiah(williamson(v).s).supermode(index)
    try:
        coords = np.array([float(tok) for tok in spec.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"cannot parse mode spec {spec!r}: {exc}") from exc
    norm = float(np.linalg.norm(coords))
    if coords.size != v.shape[0] or norm < 1e-12:
        raise ParseError(f"mode spec {spec!r} does not name a mode of this state")
    return as_mode(coords / norm)


def _load_validated(path):
    cov = load_covariance(path)
    validate_covariance(cov.matrix)
    return cov


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
    with open(args.out, "w", encoding="utf-8") as out:
        yield out


def _write_scan(args, modes: np.ndarray, columns: dict, header: str = "") -> None:
    """Scan CSV: provenance header, then per sample its index, mode and ``columns``."""
    names = [f"g{i}" for i in range(modes.shape[1])] + list(columns)
    with _open_out(args) as out:
        out.write(
            f"# wignerlab {args.command} ordering={ORDERING} scaling={SCALING} "
            f"op={args.op} samples={len(modes)} seed={args.seed}{header}\n"
        )
        out.write(",".join(["sample"] + names) + "\n")
        for i, g in enumerate(modes):
            cells = [_fmt(x) for x in g] + [_fmt(col[i]) for col in columns.values()]
            out.write(",".join([str(i)] + cells) + "\n")


def cmd_validate(args) -> int:
    cov = load_covariance(args.state)
    try:
        nu = validate_covariance(cov.matrix)
    except CovarianceError as exc:
        print(f"invalid state: {exc}")
        return EXIT_INVALID_STATE
    purity = gaussian_purity(cov.matrix)
    kind = "pure" if is_pure(cov.matrix) else "mixed"
    nus = ", ".join(f"{x:.12g}" for x in nu)
    print(f"nu = {nus}; {kind}")
    print(f"purity = {purity:.12g}")
    return EXIT_OK


def cmd_wigner_grid(args) -> int:
    cov = _load_validated(args.state)
    _require_zero_mean(cov)
    g = _resolve_mode(args.mode, cov.matrix, args.seed)
    plane = g if args.plane is None else _resolve_mode(args.plane, cov.matrix, args.seed)
    op = photon_ops.PhotonOpSpec(args.op, g)
    w = photon_ops.nongaussian_wigner(cov.matrix, op)
    witness = analysis.negativity_witness(cov.matrix, op)

    axis = np.linspace(-args.range, args.range, args.grid)
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    flat = np.stack([b1.ravel(), b2.ravel()], axis=-1)
    points = flat[:, :1] * plane[None, :] + flat[:, 1:] * apply_j(plane)[None, :]
    values = w(points)

    with _open_out(args) as out:
        out.write(
            f"# wignerlab wigner-grid ordering={ORDERING} scaling={SCALING} "
            f"op={args.op} mode={args.mode} plane={args.plane or args.mode} "
            f"grid={args.grid} range={_fmt(args.range)} seed={args.seed}\n"
        )
        out.write(
            f"# min_w={_fmt(values.min())} witness={_fmt(witness.value)} "
            f"threshold={_fmt(witness.threshold)} negative={witness.negative}\n"
        )
        out.write("beta1,beta2,w\n")
        for (x, y), val in zip(flat, values):
            out.write(f"{_fmt(x)},{_fmt(y)},{_fmt(val)}\n")
    print(f"min W on grid = {_fmt(values.min())}")
    print(f"witness = {_fmt(witness.value)}; negative = {witness.negative}")
    return EXIT_OK


def cmd_witness_scan(args) -> int:
    cov = _load_validated(args.state)
    _require_zero_mean(cov)
    modes, _ = analysis.draw_scan_modes(cov.matrix, args.op, args.samples, args.seed)
    scan = analysis.plane_scan(cov.matrix, args.op, modes)
    _write_scan(args, modes, {
        "witness": scan.witness, "negative": scan.negative,
        "mu0": scan.mu0, "mu": scan.mu, "mean_photon": scan.nbar,
    })
    print(f"negative fraction = {_fmt(np.mean(scan.negative))}")
    return EXIT_OK


def cmd_purity_scan(args) -> int:
    cov = _load_validated(args.state)
    _require_zero_mean(cov)
    v = cov.matrix
    if not is_pure(v):
        print(
            "purity scan requires a pure state; run `wignerlab purify` first "
            f"(symplectic eigenvalues up to {symplectic_eigenvalues(v)[0]:.6g})"
        )
        return EXIT_MIXED_PURITY_SCAN

    if args.mode is None:
        modes, resampled = analysis.draw_scan_modes(v, args.op, args.samples, args.seed)
    else:
        modes, resampled = _resolve_mode(args.mode, v, args.seed)[None, :], 0
    scan = analysis.plane_scan(v, args.op, modes)
    _write_scan(args, modes, {"mu0": scan.mu0, "mu": scan.mu},
                f" mode={args.mode or 'random'}")
    print(f"fraction mu<mu0 = {_fmt(scan.fraction_lowered)}")
    print(f"mean mu0 = {_fmt(scan.mu0.mean())}")
    print(f"mean mu = {_fmt(scan.mu.mean())}")
    print(f"resampled = {resampled}")
    return EXIT_OK


def cmd_purify(args) -> int:
    cov = load_covariance(args.state)
    validate_covariance(cov.matrix)
    v_pure, v_noise = photon_ops.decompose_pure_noise(cov.matrix)
    noise_norm = float(np.linalg.norm(v_noise))
    pure_norm = float(np.linalg.norm(v_pure))
    if noise_norm < 1e-12:
        ratio_txt = "pure"
    else:
        ratio_txt = _fmt(pure_norm / noise_norm)
    metadata = dict(cov.metadata)
    metadata.update(
        {
            "purified-from": str(args.state),
            "discarded-noise-hs-norm": float(noise_norm),
            "pure-to-noise-hs-ratio": ratio_txt,
        }
    )
    save_covariance(args.out, v_pure, metadata=metadata)
    print(f"pure part written to {args.out}")
    print(f"pure/noise Hilbert-Schmidt ratio = {ratio_txt}")
    return EXIT_OK


ORACLE_PRESETS = ("vacuum-add", "squeezed-subtract", "two-mode-random", "displaced-add")

WIGNER_TOL = 1e-8
CUMULANT_TOL = 1e-7
COVARIANCE_TOL = 1e-7


def _preset_case(preset: str, cutoff: int):
    """State, operation and Fock state for one oracle preset."""
    if preset == "vacuum-add":
        v = np.eye(2)
        g = np.array([1.0, 0.0])
        kind = "add"
        state = fock.vacuum_state(1, cutoff)
        xi = None
    elif preset == "squeezed-subtract":
        v = np.diag([2.0, 0.5])
        g = np.array([1.0, 0.0])
        kind = "subtract"
        state = fock.gaussian_fock_state(v, cutoff)
        xi = None
    elif preset == "two-mode-random":
        v = random_pure_squeezed_cov(2, [4.0, -3.0], 0xF0CC)
        g = random_mode(2, 0xF0CD)
        kind = "subtract"
        state = fock.gaussian_fock_state(v, cutoff)
        xi = None
    elif preset == "displaced-add":
        v = np.eye(2)
        g = np.array([1.0, 0.0])
        kind = "add"
        xi = np.array([2.0, 0.0])
        state = fock.displace_state(fock.vacuum_state(1, cutoff), xi)
    else:
        raise ParseError(f"unknown preset {preset!r}")
    return v, photon_ops.PhotonOpSpec(kind, g), state, xi


def cmd_oracle_check(args) -> int:
    cutoffs = {"vacuum-add": 48, "squeezed-subtract": 64,
               "two-mode-random": 64, "displaced-add": 64}
    cutoff = args.cutoff or cutoffs[args.preset]
    v, op, state, xi = _preset_case(args.preset, cutoff)
    op_state, _ = fock.apply_photon_op(state, op)

    axis = np.linspace(-4.0, 4.0, 21)
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    flat = np.stack([b1.ravel(), b2.ravel()], axis=-1)
    plane = op.mode
    points = flat[:, :1] * plane[None, :] + flat[:, 1:] * apply_j(plane)[None, :]

    if xi is None:
        analytic = photon_ops.nongaussian_wigner(v, op)(points)
    else:
        analytic = photon_ops.displaced_wigner(v, xi, op, points)
    wigner_dev = float(np.max(np.abs(fock.fock_wigner(op_state, points) - analytic)))

    if xi is None:
        a = photon_ops.covariance_correction(v, op)
        fs4 = [op.mode] * 4
        cum_dev = abs(
            fock.fock_truncated_correlation(op_state, fs4)
            - photon_ops.truncated_correlation(a, fs4)
        )
        cov_dev = float(
            np.max(np.abs(fock.fock_covariance(op_state)[0]
                          - photon_ops.output_covariance(v, op)))
        )
    else:
        cum_dev = 0.0
        out_cov, out_mean = fock.fock_covariance(op_state)
        ref_mean, ref_cov = photon_ops.poly_wigner_moments(
            photon_ops.displaced_poly_wigner(v, xi, op)
        )
        cov_dev = max(
            float(np.max(np.abs(out_cov - ref_cov))),
            float(np.max(np.abs(out_mean - ref_mean))),
        )

    print(f"preset = {args.preset} cutoff = {cutoff}")
    print(f"max wigner deviation = {wigner_dev:.3e} (tol {WIGNER_TOL:.0e})")
    print(f"max cumulant deviation = {cum_dev:.3e} (tol {CUMULANT_TOL:.0e})")
    print(f"max covariance deviation = {cov_dev:.3e} (tol {COVARIANCE_TOL:.0e})")
    ok = wigner_dev < WIGNER_TOL and cum_dev < CUMULANT_TOL and cov_dev < COVARIANCE_TOL
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ORACLE_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--mode", required=True)
    p.add_argument("--plane", default=None,
                   help="plane for the grid (defaults to the operation mode)")
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
                   help="force a fixed mode instead of random sampling")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SubtractionUndefinedError as exc:
        print(f"subtraction undefined: {exc}", file=sys.stderr)
        return EXIT_SUBTRACTION
    except CutoffError as exc:
        hint = (
            f"; suggested cutoff {exc.suggested_cutoff}"
            if exc.suggested_cutoff
            else ""
        )
        print(f"cutoff leakage: {exc}{hint}", file=sys.stderr)
        return EXIT_CUTOFF
    except (CovarianceError, np.linalg.LinAlgError) as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE


if __name__ == "__main__":
    sys.exit(main())
