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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CovarianceError, DimensionError, SubtractionUndefinedError
from .gaussian import (
    _check_symmetric,
    gaussian_purity,
    is_pure,
    reduce_to_mode,
)
from .phase_space import (
    apply_j,
    as_mode,
    basis_change_matrix,
    complete_symplectic_basis,
    mode_projector,
    random_mode,
)
from .photon_ops import (
    PhotonOpSpec,
    PolyGaussianWigner,
    covariance_correction,
    evaluate_wigner,
    mean_photon_number,
    nongaussian_wigner,
    require_photons,
)

#: Subtraction draws below this mean photon number are resampled in scans.
SCAN_PHOTON_TOL = 1e-10

#: Purities closer than this count as equal when deciding whether a photon
#: operation lowered the purity; supermodes give ``mu = mu0`` up to rounding.
PURITY_TIE_TOL = 1e-12

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


def negativity_witness(v: np.ndarray, op: PhotonOpSpec) -> WitnessReport:
    """Decide Wigner negativity from ``(g, V^-1 g) + (Jg, V^-1 Jg)``."""
    v = _check_symmetric(v)
    require_photons(op.kind, mean_photon_number(v, op.mode))
    g = op.mode
    jg = apply_j(g)
    v_inv = np.linalg.inv(v)
    value = float(g @ v_inv @ g + jg @ v_inv @ jg)
    threshold = WITNESS_THRESHOLD[op.kind]
    return WitnessReport(value=value, threshold=threshold, negative=value > threshold)


def wigner_at_origin(v: np.ndarray, op: PhotonOpSpec) -> float:
    """Wigner value at the phase-space origin, where the bracket is minimal.

    ``W(0) = (2 - tr(V^-1 A)) / 2 * (2 pi)^-m (det V)^-1/2``; its sign agrees
    with :func:`negativity_witness` on every valid input.
    """
    v = _check_symmetric(v)
    m = v.shape[0] // 2
    a = covariance_correction(v, op)
    v_inv = np.linalg.inv(v)
    sign, logdet = np.linalg.slogdet(v)
    if sign <= 0:
        raise CovarianceError("covariance matrix not positive definite")
    w0 = np.exp(-0.5 * logdet - m * np.log(2.0 * np.pi))
    return float(0.5 * (2.0 - np.trace(v_inv @ a)) * w0)


def wigner_minimum(
    w: PolyGaussianWigner, n_starts: int = 32, seed=0
) -> tuple[float, np.ndarray]:
    """Diagnostic numerical probe of the minimum of a Wigner function.

    Negativity certification never needs this (the witness settles it at the
    origin); it exists to inspect where and how deep the negative region is.
    Multi-start quasi-Newton minimisation, deterministic per seed.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    scale = np.sqrt(np.max(np.linalg.eigvalsh(w.cov)))
    best_val, best_pt = np.inf, None
    starts = [np.zeros(w.dim)] + [
        rng.standard_normal(w.dim) * scale for _ in range(n_starts - 1)
    ]
    for start in starts:
        res = minimize(lambda b: float(evaluate_wigner(w, b)), start, method="BFGS")
        if res.fun < best_val:
            best_val, best_pt = float(res.fun), res.x
    return best_val, best_pt


def marginal_wigner(w: PolyGaussianWigner, g: np.ndarray) -> PolyGaussianWigner:
    """Integrate all modes but ``g`` out of a polynomial Gaussian Wigner.

    Rotates to a basis whose first plane is (g, Jg), then applies the
    Gaussian conditional-moment identities: with ``z | u`` Gaussian of mean
    ``C u + d`` and covariance ``S``, the conditional expectation of the
    quadratic polynomial is again quadratic in ``u`` with an extra
    ``tr(M_zz S)``.  The result lives on the two plane coordinates and keeps
    total integral one.
    """
    g = as_mode(g)
    if g.size != w.dim:
        raise DimensionError("mode vector dimension does not match the state")
    if w.dim == 2:
        return w
    t = basis_change_matrix(complete_symplectic_basis(g))
    # plane coordinates occupy slots (0, m) after the xxpp reordering
    m = w.dim // 2
    keep = [0, m]
    drop = [i for i in range(w.dim) if i not in keep]

    cov = t.T @ w.cov @ t
    quad = t.T @ w.quad @ t
    lin = t.T @ w.lin
    mean = t.T @ w.mean

    v_uu = cov[np.ix_(keep, keep)]
    v_zu = cov[np.ix_(drop, keep)]
    v_zz = cov[np.ix_(drop, drop)]
    c = v_zu @ np.linalg.inv(v_uu)
    cond_cov = v_zz - c @ v_zu.T

    m_uu = quad[np.ix_(keep, keep)]
    m_uz = quad[np.ix_(keep, drop)]
    m_zz = quad[np.ix_(drop, drop)]
    b_u = lin[keep]
    b_z = lin[drop]
    mu_u = mean[keep]
    mu_z = mean[drop]
    d = mu_z - c @ mu_u

    quad_out = m_uu + m_uz @ c + c.T @ m_uz.T + c.T @ m_zz @ c
    lin_out = b_u + c.T @ b_z + 2.0 * m_uz @ d + 2.0 * c.T @ m_zz @ d
    const_out = (
        w.const
        + float(b_z @ d)
        + float(d @ m_zz @ d)
        + float(np.trace(m_zz @ cond_cov))
    )
    return PolyGaussianWigner(
        quad=0.5 * (quad_out + quad_out.T),
        lin=lin_out,
        const=const_out,
        cov=0.5 * (v_uu + v_uu.T),
        mean=mu_u,
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
    det = float(np.linalg.det(w.cov))
    if det <= 0:
        raise CovarianceError("reduced covariance not positive definite")
    return float(val / np.sqrt(det))


def reduced_purities(v: np.ndarray, op: PhotonOpSpec) -> PurityReport:
    """Purity of mode ``g`` after the photon operation and before it."""
    mu0 = gaussian_purity(reduce_to_mode(v, op.mode))
    mu = wigner_purity(marginal_wigner(nongaussian_wigner(v, op), op.mode))
    return PurityReport(mu=mu, mu0=mu0)


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


def plane_scan(v: np.ndarray, kind: str, modes: np.ndarray) -> PurityScan:
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
    v = _check_symmetric(v)
    if kind not in WITNESS_THRESHOLD:
        raise ValueError(f"kind must be 'add' or 'subtract', got {kind!r}")
    modes = np.array([as_mode(g) for g in modes])
    if modes.ndim != 2 or modes.shape[1] != v.shape[0]:
        raise DimensionError("modes must be an (n, 2m) array matching the state")
    s = 1.0 if kind == "add" else -1.0

    plane = np.stack([modes, apply_j(modes)], axis=-1)  # G, shape (n, 2m, 2)
    plane_t = plane.transpose(0, 2, 1)  # G^T
    r = plane_t @ (v @ plane)
    tr_r = r[:, 0, 0] + r[:, 1, 1]
    nbar = (tr_r - 2.0) / 4.0
    require_photons(kind, nbar)
    lam = plane_t @ (np.linalg.inv(v) @ plane)
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
    v: np.ndarray, kind: str, master_seed, index: int, max_resamples: int = 1000
) -> tuple[np.ndarray, int]:
    """Mode for scan sample ``index``: deterministic counter substream.

    Subtraction draws landing on a zero-photon mode are redrawn from the same
    substream; returns the mode and the number of resamples.

    Raises:
        SubtractionUndefinedError: after ``max_resamples`` rejected draws
            (the state has essentially no photons in any mode).
    """
    m = v.shape[0] // 2
    rng = np.random.default_rng([master_seed, index])
    resampled = 0
    while True:
        g = random_mode(m, rng)
        if kind != "subtract" or mean_photon_number(v, g) >= SCAN_PHOTON_TOL:
            return g, resampled
        resampled += 1
        if resampled > max_resamples:
            raise SubtractionUndefinedError(
                "every sampled mode has zero mean photon number; nothing to subtract"
            )


def draw_scan_modes(
    v: np.ndarray, kind: str, n_samples: int, seed
) -> tuple[np.ndarray, int]:
    """Modes of samples ``0 .. n_samples - 1`` and their total resample count."""
    modes = np.empty((n_samples, v.shape[0]))
    total_resampled = 0
    for i in range(n_samples):
        modes[i], resampled = sample_scan_mode(v, kind, seed, i)
        total_resampled += resampled
    return modes, total_resampled


def purity_scan(v: np.ndarray, kind: str, n_samples: int, seed) -> PurityScan:
    """Purities (mu0, mu) for ``n_samples`` random choices of the mode.

    The state must be pure: the comparison of reduced purities is an
    entanglement statement only when the global state carries no classical
    noise.  Deterministic per seed; each sample uses the substream
    ``[seed, index]``.
    """
    if not is_pure(v):
        raise CovarianceError("purity scan requires a pure state")
    modes, resampled = draw_scan_modes(v, kind, n_samples, seed)
    return replace(plane_scan(v, kind, modes), n_resampled=resampled)


def passive_separability_witness(
    v: np.ndarray, g: np.ndarray, tol: float = 1e-8
) -> bool:
    """Whether a photon op in mode ``g`` keeps a pure state passively separable.

    True iff the (g, Jg) plane is an invariant subspace of ``V``, i.e.
    ``||(1 - P) V P|| < tol``: the initial Wigner function then factorises
    along that plane, and so does the photon-added/subtracted one.  For pure
    states, False means the induced entanglement survives every passive
    transformation.  Mixed states are rejected: their classification needs
    convex decompositions beyond this criterion.
    """
    v = _check_symmetric(v)
    if not is_pure(v):
        raise CovarianceError("passive separability witness supports pure states only")
    p = mode_projector(g)
    resid = (np.eye(v.shape[0]) - p) @ v @ p
    return float(np.linalg.norm(resid)) < tol
