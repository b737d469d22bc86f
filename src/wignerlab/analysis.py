"""Decision-grade diagnostics on photon-added and -subtracted states.

* Wigner negativity is decided by the scalar witness
  ``(g, V^-1 g) + (Jg, V^-1 Jg)``: the Wigner function of the subtracted
  state has a negative region iff the witness exceeds 2, and the added state
  always does (the threshold ``-2`` holds trivially).  The bracket of the
  closed-form Wigner function has positive-semidefinite quadratic part, so it
  is minimised at the origin; certifying the sign of ``W(0)`` is therefore
  equivalent to certifying negativity anywhere.

* Entanglement of the operation mode with the rest of the system is measured
  by the purity of the reduced one-mode state, ``4 pi Int |W|^2``, computed
  in closed form from Gaussian moment identities and compared against the
  purity of the same mode before the operation.

* Passive separability: for a pure covariance, adding or subtracting in mode
  ``g`` leaves the state separable under passive optics iff the (g, Jg)
  plane is an invariant subspace of ``V``; otherwise the entanglement cannot
  be undone by any interferometer.

The witness and both purities of one mode are one row of :func:`plane_scan`,
which evaluates them for a batch of modes from the 2x2 plane blocks of ``V``
and ``V^-1``.  :func:`marginal_wigner` is the general route to the reduced
Wigner function of any polynomial Gaussian, in (g, Jg) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CovarianceError, DimensionError, MixedStateError
from .errors import SubtractionUndefinedError
# unused _check_symmetric: perfbench/selftest.py asserts the tracer rebinds it here
from .gaussian import _check_symmetric, gaussian_state, is_pure, state_mode
from .phase_space import NORM_FLOOR, _norms, as_mode, mode_plane, random_mode
from .photon_ops import (
    PhotonOpSpec,
    PolyGaussianWigner,
    _wigner_factors,
    mean_photon_number,
    nongaussian_wigner,
    require_photons,
)

#: Subtraction draws below this mean photon number are resampled in scans.
SCAN_PHOTON_TOL = 1e-10

#: Rejected subtraction draws of one scan sample before the scan gives up.
SCAN_MAX_RESAMPLES = 1000

#: Purities closer than this count as equal when deciding whether a photon
#: operation lowered the purity; supermodes give ``mu = mu0`` up to rounding.
PURITY_TIE_TOL = 1e-12

#: Largest ``||(1 - P) V P||_F`` at which :func:`passive_separability_witness`
#: still counts the mode's plane as invariant under ``V``.
SEPARABILITY_TOL = 1e-8

#: Witness threshold per operation kind (see :func:`negativity_witness`).
WITNESS_THRESHOLD = {"add": -2.0, "subtract": 2.0}


@dataclass(frozen=True)
class WitnessReport:
    """Negativity witness value against its threshold (2 subtract, -2 add)."""

    value: float
    threshold: float
    negative: bool


@dataclass(frozen=True)
class PurityReport:
    """Reduced purity after the photon operation (`mu`) and before (`mu0`)."""

    mu: float
    mu0: float


def negativity_witness(v, op: PhotonOpSpec) -> WitnessReport:
    """Decide Wigner negativity from ``(g, V^-1 g) + (Jg, V^-1 Jg)``.

    One row of :func:`plane_scan`.
    """
    row = plane_scan(v, op.kind, [op.mode])
    return WitnessReport(value=float(row.witness[0]), threshold=WITNESS_THRESHOLD[op.kind],
                         negative=bool(row.negative[0]))


def wigner_at_origin(v, op: PhotonOpSpec) -> float:
    """Wigner value at the phase-space origin, where the bracket is minimal.

    :func:`nongaussian_wigner` evaluated at 0; its sign agrees with
    :func:`negativity_witness` on every valid input.
    """
    w = nongaussian_wigner(v, op)
    return w(np.zeros(w.dim))


def wigner_minimum(
    w: PolyGaussianWigner, n_starts: int = 32, seed=0
) -> tuple[float, np.ndarray]:
    """Diagnostic numerical probe of the minimum of a Wigner function.

    Negativity is settled by the witness at the origin; this inspects where
    and how deep the negative region is.  Multi-start BFGS on the closed-form
    gradient, deterministic per seed, started first at the base mean.

    Raises:
        ValueError: for ``n_starts < 1``.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    sym_quad = w.quad + w.quad.T

    def value_grad(b):
        poly, gauss = _wigner_factors(w, b)  # one Gaussian per value
        val = float(poly * gauss)
        return val, (sym_quad @ b + w.lin) * gauss - val * (w.state.inv @ (b - w.mean))

    rng, scale = np.random.default_rng(seed), np.sqrt(np.max(np.linalg.eigvalsh(w.cov)))
    eye, best = np.eye(w.dim), (np.inf, None)
    for i in range(n_starts):
        b = w.mean + (rng.standard_normal(w.dim) * scale if i else 0.0)
        (f, g), h = value_grad(b), None  # h: inverse Hessian estimate
        for _ in range(200):
            p = -g * (scale / max(np.linalg.norm(g), 1e-300)) if h is None else -h @ g
            if not p @ g < 0:  # stationary point or lost descent direction
                break
            t, (f_new, g_new) = 1.0, value_grad(b + p)
            while f_new > f + 1e-4 * t * (p @ g) and t > 1e-12:
                t *= 0.5
                f_new, g_new = value_grad(b + t * p)
            if not f_new < f:
                break
            s, y = t * p, g_new - g
            b, f, g = b + s, f_new, g_new
            if (sy := s @ y) > 0:
                h = sy / (y @ y) * eye if h is None else h
                u = eye - np.outer(s, y) / sy
                h = u @ h @ u.T + np.outer(s, s) / sy
        best = min(best, (f, b), key=lambda r: r[0])
    return best


def marginal_wigner(w: PolyGaussianWigner, g: np.ndarray) -> PolyGaussianWigner:
    """Integrate all modes but ``g`` out of a polynomial Gaussian Wigner.

    The result lives on the plane coordinates ``u = G^T b``, ``G = [g, Jg]``,
    for every mode count, and keeps total integral one.  Under the base
    Gaussian, ``b | u`` is Gaussian with mean ``K u + d`` and covariance
    ``S``, where

        R = G^T V G,  K = V G R^-1,  d = mean - K G^T mean,  S = V - K G^T V,

    so the conditional expectation of the quadratic polynomial is again
    quadratic in ``u``: ``M -> K^T M K``, ``lin -> K^T (lin + 2 M d)`` and
    ``const -> const + lin.d + d.M d + tr(M S)``, on the base Gaussian
    ``N(u; G^T mean, R)``.
    """
    plane = mode_plane(state_mode(g, w.dim))
    vg = w.cov @ plane
    r = plane.T @ vg
    reduced = gaussian_state(0.5 * (r + r.T))  # rounding may skew r past SYMMETRY_TOL
    k = vg @ reduced.inv
    d = w.mean - k @ (plane.T @ w.mean)
    cond_cov = w.cov - k @ vg.T
    md = w.quad @ d
    quad = k.T @ w.quad @ k
    const = (
        w.const
        + float(w.lin @ d)
        + float(d @ md)
        + float(np.trace(w.quad @ cond_cov))
    )
    return PolyGaussianWigner(
        quad=0.5 * (quad + quad.T),
        lin=k.T @ (w.lin + 2.0 * md),
        const=const,
        cov=reduced,
        mean=plane.T @ w.mean,
    )


def wigner_purity(w: PolyGaussianWigner) -> float:
    """Purity ``4 pi Int |W|^2`` of a one-mode polynomial Gaussian Wigner.

    The square of the Gaussian factor is a Gaussian of half the covariance, so
    the integral reduces to fourth-order moments handled by the Isserlis
    identities:

        mu = [ (tr MS)^2 + 2 tr(MS MS) + 2 c~ tr(MS) + b~.S b~ + c~^2 ]
             / sqrt(det V),  S = V / 2,

    with ``b~, c~`` the polynomial coefficients recentred on the mean.
    """
    if w.dim != 2:
        raise DimensionError("reduced purity expects a one-mode Wigner function")
    half = w.cov / 2.0
    b_c = w.lin + 2.0 * w.quad @ w.mean
    c_c = float(w.mean @ w.quad @ w.mean) + float(w.lin @ w.mean) + w.const
    tr_ms = float(np.trace(w.quad @ half))
    ms = w.quad @ half
    val = (
        tr_ms**2
        + 2.0 * float(np.trace(ms @ ms))
        + 2.0 * c_c * tr_ms
        + float(b_c @ half @ b_c)
        + c_c**2
    )
    return float(val * np.exp(-0.5 * w.state.logdet))


def reduced_purities(v, op: PhotonOpSpec) -> PurityReport:
    """Purity of mode ``g`` after the photon operation and before it.

    One row of :func:`plane_scan`.
    """
    row = plane_scan(v, op.kind, [op.mode])
    return PurityReport(mu=float(row.mu[0]), mu0=float(row.mu0[0]))


@dataclass(frozen=True)
class PurityScan:
    """One photon operation evaluated in each of ``modes``; row ``i`` of every
    array belongs to ``modes[i]``, and ``points[i] = (mu0, mu)``."""

    modes: np.ndarray
    witness: np.ndarray
    negative: np.ndarray
    mu0: np.ndarray
    mu: np.ndarray
    nbar: np.ndarray
    n_resampled: int = 0

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.mu0, self.mu])

    @property
    def fraction_lowered(self) -> float:
        """Share of modes whose purity dropped by more than ``PURITY_TIE_TOL``."""
        return float(np.mean(self.mu < self.mu0 - PURITY_TIE_TOL))


def plane_scan(v, kind: str, modes: np.ndarray) -> PurityScan:
    """Witness, purities and mean photon number for a batch of modes at once.

    With ``G = [g, Jg]``, ``R = G^T V G`` and ``L = G^T V^-1 G`` the witness
    is ``tr L``, ``mu0 = det(R)^-1/2`` and ``nbar = (tr R - 2) / 4``.  On the
    plane coordinates ``u = G^T b``, ``E[G^T V^-1 b | u] = R^-1 u`` with
    covariance ``L - R^-1``, so the marginal of :func:`nongaussian_wigner`
    is ``[u.Q u + c] N(u; 0, R)`` with ``d = tr R + 2s`` and

        Q = (1 + s R^-1)^2 / d,
        c = 1 - (tr R + 4s + tr L) / d + tr(L - R^-1) / d = -(2s + tr R^-1) / d,

    to which the formula of :func:`wigner_purity` applies.
    """
    state = gaussian_state(v)
    if kind not in WITNESS_THRESHOLD:
        raise ValueError(f"kind must be 'add' or 'subtract', got {kind!r}")
    modes = as_mode(modes)
    if modes.ndim != 2 or modes.shape[1] != state.v.shape[0]:
        raise DimensionError("modes must be an (n, 2m) array matching the state")
    s = 1.0 if kind == "add" else -1.0

    plane = mode_plane(modes)  # shape (n, 2m, 2)
    plane_t = plane.transpose(0, 2, 1)  # G^T
    r = plane_t @ (state.v @ plane)
    tr_r = r[:, 0, 0] + r[:, 1, 1]
    nbar = (tr_r - 2.0) / 4.0
    require_photons(kind, nbar)
    lam = plane_t @ (state.inv @ plane)
    witness = lam[:, 0, 0] + lam[:, 1, 1]

    det_r = np.linalg.det(r)
    if np.any(det_r <= 0):
        raise CovarianceError("reduced covariance not positive definite")
    r_inv = np.linalg.inv(r)
    d = tr_r + 2.0 * s
    k = np.eye(2) + s * r_inv
    qs = k @ k @ r / (2.0 * d[:, None, None])  # Q S with S = R / 2
    tr_qs = qs[:, 0, 0] + qs[:, 1, 1]
    tr_qsqs = np.einsum("nij,nji->n", qs, qs)
    c = -(2.0 * s + r_inv[:, 0, 0] + r_inv[:, 1, 1]) / d
    mu = (tr_qs**2 + 2.0 * tr_qsqs + 2.0 * c * tr_qs + c**2) / np.sqrt(det_r)
    return PurityScan(
        modes=modes,
        witness=witness,
        negative=witness > WITNESS_THRESHOLD[kind],
        mu0=1.0 / np.sqrt(det_r),
        mu=mu,
        nbar=nbar,
    )


def sample_scan_mode(
    v, kind: str, master_seed, index: int
) -> tuple[np.ndarray, int]:
    """Mode for scan sample ``index``: deterministic counter substream.

    Subtraction draws landing on a zero-photon mode are redrawn from the same
    substream; returns the mode and the number of resamples.  This is the
    reference for one sample: :func:`draw_scan_modes` takes every first draw
    in one pass and calls it only for the samples that pass rejects.

    Raises:
        SubtractionUndefinedError: after ``SCAN_MAX_RESAMPLES`` rejected draws
            (the state has essentially no photons in any mode).
    """
    state = gaussian_state(v)
    rng = np.random.default_rng([master_seed, index])
    resampled = 0
    while True:
        g = random_mode(state.v.shape[0] // 2, rng)
        if kind != "subtract" or mean_photon_number(state, g) >= SCAN_PHOTON_TOL:
            return g, resampled
        resampled += 1
        if resampled > SCAN_MAX_RESAMPLES:
            raise SubtractionUndefinedError(
                "every sampled mode has zero mean photon number; nothing to subtract"
            )


def draw_scan_modes(
    v, kind: str, n_samples: int, seed
) -> tuple[np.ndarray, int]:
    """Modes of samples ``0 .. n_samples - 1`` and their total resample count.

    Row ``i`` and the count are those of :func:`sample_scan_mode` for every
    ``i``, bit for bit.  The first draw of each sample comes from its own
    substream ``[seed, i]``, one generator at a time; the draws are then
    normalised, validated and, for subtraction, given their mean photon
    numbers in one pass over the whole stack.  Only a draw that
    :func:`sample_scan_mode` would reject (norm at most ``NORM_FLOOR``, or
    mean photon number below ``SCAN_PHOTON_TOL``) goes to it, which draws
    that sample again from its substream.
    """
    state = gaussian_state(v)
    modes = np.empty((n_samples, state.v.shape[0]))
    for i, row in enumerate(modes):
        np.random.default_rng([seed, i]).standard_normal(out=row)
    norms = _norms(modes)
    kept = norms > NORM_FLOOR
    modes /= np.where(kept, norms, 1.0)[:, None]
    modes[kept] = as_mode(modes[kept])
    if kind == "subtract":
        kept[kept] = mean_photon_number(state, modes[kept]) >= SCAN_PHOTON_TOL
    total_resampled = 0
    for i in np.flatnonzero(~kept):
        modes[i], resampled = sample_scan_mode(state, kind, seed, int(i))
        total_resampled += resampled
    return modes, total_resampled


def purity_scan(v, kind: str, n_samples: int, seed) -> PurityScan:
    """Purities (mu0, mu) for ``n_samples`` random choices of the mode.

    The state must be pure: the comparison of reduced purities is an
    entanglement statement only when the global state carries no classical
    noise.  Deterministic per seed; each sample uses the substream
    ``[seed, index]``.
    """
    state = gaussian_state(v)
    if not is_pure(state):
        raise MixedStateError("purity scan requires a pure state")
    modes, resampled = draw_scan_modes(state, kind, n_samples, seed)
    return replace(plane_scan(state, kind, modes), n_resampled=resampled)


def passive_separability_witness(v, g: np.ndarray) -> bool:
    """Whether a photon op in mode ``g`` keeps a pure state passively separable.

    True iff the (g, Jg) plane is an invariant subspace of ``V``, i.e.
    ``||(1 - P) V P||_F < SEPARABILITY_TOL``, computed as
    ``||V G - G (G^T V G)||_F`` with ``G = [g, Jg]`` (orthonormal columns,
    ``P = G G^T``): the initial Wigner function then factorises along that
    plane, and so does the photon-added/subtracted one.  For pure states,
    False means the induced entanglement survives every passive
    transformation.  Mixed states are rejected: their classification needs
    convex decompositions beyond this criterion.
    """
    state = gaussian_state(v)
    if not is_pure(state):
        raise CovarianceError("passive separability witness supports pure states only")
    plane = mode_plane(state_mode(g, len(state.v)))
    vg = state.v @ plane
    return float(np.linalg.norm(vg - plane @ (plane.T @ vg))) < SEPARABILITY_TOL
