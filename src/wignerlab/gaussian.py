"""Gaussian states as covariance matrices.

A state of ``m`` modes is a real symmetric ``2m x 2m`` matrix ``V`` in xxpp
ordering with the vacuum equal to the identity, plus an optional mean vector.
Physicality means every symplectic eigenvalue is at least one.

The two workhorse factorisations live here as well:

* Williamson: ``V = S diag(nu, nu) S^T`` with ``S`` symplectic, separating a
  pure squeezed part from thermal noise;
* Bloch-Messiah: ``S = O1 K O2`` with ``O1, O2`` orthogonal symplectic
  (passive optics) and ``K = diag(k, 1/k)`` the squeezers.  The column pairs
  of ``O1`` are the supermodes of ``V = S S^T``.

Degenerate spectra make both decompositions non-unique; any valid factor set
may be returned and all downstream code is required (and tested) to be
invariant under that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import polar, schur

from .errors import CovarianceError, DimensionError, SymplecticError
from .phase_space import apply_j, as_mode, symplectic_form

#: Symplectic eigenvalues may undershoot 1 by this much before a state is
#: declared unphysical (numerical slack on the shot-noise bound).
PHYSICALITY_TOL = 1e-9

#: Absolute asymmetry allowed in an ingested covariance matrix.
SYMMETRY_TOL = 1e-10

#: A state is pure when every symplectic eigenvalue lies this close to one.
PURE_TOL = 1e-6


def _as_even_square(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {mat.shape}")
    if mat.shape[0] % 2 or mat.shape[0] == 0:
        raise DimensionError(f"{what} must have even positive size")
    return mat


def _check_symmetric(v: np.ndarray) -> np.ndarray:
    v = _as_even_square(v, "covariance matrix")
    gap = float(np.max(np.abs(v - v.T)))
    if gap > SYMMETRY_TOL:
        raise CovarianceError(f"covariance matrix asymmetric by {gap:.3e}")
    return 0.5 * (v + v.T)


def _spd_roots(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix."""
    w, u = np.linalg.eigh(v)
    if w[0] <= max(w[-1], 1.0) * 1e-13:
        raise CovarianceError(
            f"covariance matrix near-singular: min eigenvalue {w[0]:.3e}"
        )
    sq = np.sqrt(w)
    return (u * sq) @ u.T, (u / sq) @ u.T


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite matrix.

    Returns the ``m`` doubled eigenvalues of ``i J V`` once each, descending.
    Computed from the singular values of the antisymmetric matrix
    ``V^1/2 J V^1/2`` (each appears twice), which keeps everything real.
    """
    v = _check_symmetric(v)
    sqrt_v, _ = _spd_roots(v)
    m = v.shape[0] // 2
    anti = sqrt_v @ symplectic_form(m) @ sqrt_v
    s = np.linalg.svd(anti, compute_uv=False)
    return 0.5 * (s[0::2] + s[1::2])


def validate_covariance(v: np.ndarray) -> np.ndarray:
    """Check physicality and return the symplectic spectrum, descending.

    Raises:
        CovarianceError: asymmetric input, or any symplectic eigenvalue
            below ``1 - PHYSICALITY_TOL``.
    """
    nu = symplectic_eigenvalues(v)
    if nu[-1] < 1.0 - PHYSICALITY_TOL:
        raise CovarianceError(
            f"unphysical covariance: symplectic eigenvalue {nu[-1]!r} < 1"
        )
    return nu


def is_pure(v: np.ndarray) -> bool:
    """Whether every symplectic eigenvalue of ``v`` lies within ``PURE_TOL`` of one."""
    return bool(np.max(np.abs(symplectic_eigenvalues(v) - 1.0)) <= PURE_TOL)


def gaussian_wigner(v: np.ndarray, beta: np.ndarray, mean=None) -> np.ndarray:
    """Wigner function of a Gaussian state, evaluated at ``beta``.

    ``W(b) = (2 pi)^-m (det V)^-1/2 exp(-(b-mu, V^-1 (b-mu)) / 2)``.

    ``beta`` may carry leading batch axes.  Returns a scalar for a single
    point.
    """
    v = _check_symmetric(v)
    m = v.shape[0] // 2
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] != 2 * m:
        raise DimensionError(
            f"point dimension {beta.shape[-1]} does not match 2m = {2 * m}"
        )
    if mean is not None:
        beta = beta - np.asarray(mean, dtype=float)
    sign, logdet = np.linalg.slogdet(v)
    if sign <= 0:
        raise CovarianceError("covariance matrix not positive definite")
    quad = np.einsum("...i,ij,...j->...", beta, np.linalg.inv(v), beta)
    val = np.exp(-0.5 * quad - 0.5 * logdet - m * np.log(2.0 * np.pi))
    return val if val.ndim else float(val)


def gaussian_purity(v: np.ndarray) -> float:
    """Purity of a Gaussian state: ``(det V)^-1/2``."""
    v = _check_symmetric(v)
    sign, logdet = np.linalg.slogdet(v)
    if sign <= 0:
        raise CovarianceError("covariance matrix not positive definite")
    return float(np.exp(-0.5 * logdet))


def reduce_to_mode(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Covariance of one mode: the 2x2 block of ``V`` in the (g, Jg) plane."""
    v = _check_symmetric(v)
    g = as_mode(g)
    if g.size != v.shape[0]:
        raise DimensionError("mode vector and covariance dimensions differ")
    jg = apply_j(g)
    return np.array(
        [
            [g @ v @ g, g @ v @ jg],
            [jg @ v @ g, jg @ v @ jg],
        ]
    )


@dataclass(frozen=True)
class Williamson:
    """Normal form ``V = S diag(nu, nu) S^T`` with ``S`` symplectic."""

    s: np.ndarray
    nu: np.ndarray  # m symplectic eigenvalues, descending

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(np.concatenate([self.nu, self.nu]))

    def reconstruct(self) -> np.ndarray:
        return self.s @ self.diagonal @ self.s.T


def williamson(v: np.ndarray) -> Williamson:
    """Williamson decomposition of a symmetric positive-definite matrix.

    The antisymmetric matrix ``V^-1/2 J V^-1/2`` is brought to its real Schur
    form of 2x2 rotation generators; sign-fixing and an interleaved-to-xxpp
    permutation turn the orthogonal Schur factor into the symplectic ``S``.
    """
    v = _check_symmetric(v)
    m = v.shape[0] // 2
    sqrt_v, inv_sqrt_v = _spd_roots(v)
    j = symplectic_form(m)
    anti = inv_sqrt_v @ j @ inv_sqrt_v
    anti = 0.5 * (anti - anti.T)
    t, k = schur(anti, output="real")

    # Blocks [[0, b], [-b, 0]] sit on the diagonal in (x1, p1, x2, p2, ...)
    # pair order; flip column pairs until every b is negative so each block
    # matches the J convention, then b = -1/nu.
    nu = np.empty(m)
    for i in range(m):
        if t[2 * i, 2 * i + 1] > 0:
            k[:, [2 * i, 2 * i + 1]] = k[:, [2 * i + 1, 2 * i]]
            t[[2 * i, 2 * i + 1], :] = t[[2 * i + 1, 2 * i], :]
            t[:, [2 * i, 2 * i + 1]] = t[:, [2 * i + 1, 2 * i]]
        nu[i] = -1.0 / t[2 * i, 2 * i + 1]

    order = np.argsort(-nu)
    nu = nu[order]
    perm = np.concatenate([2 * order, 2 * order + 1])  # xxpp target ordering
    k = k[:, perm]
    scale = np.concatenate([nu, nu])
    s = sqrt_v @ k / np.sqrt(scale)
    return Williamson(s=s, nu=nu)


@dataclass(frozen=True)
class BlochMessiah:
    """Passive-squeeze-passive factorisation ``S = O1 K O2``.

    ``squeezing`` holds the ``m`` values ``k_i >= 1`` (descending); the full
    squeezer is ``diag(k, 1/k)``.  Supermode ``i`` is the column pair
    ``(i, m+i)`` of ``passive_out``, with the second column equal to ``J``
    applied to the first.
    """

    passive_out: np.ndarray  # O1
    squeezing: np.ndarray  # k values >= 1, descending
    passive_in: np.ndarray  # O2

    @property
    def squeezer(self) -> np.ndarray:
        return np.diag(np.concatenate([self.squeezing, 1.0 / self.squeezing]))

    def supermode(self, i: int) -> np.ndarray:
        return np.array(self.passive_out[:, i])

    def reconstruct(self) -> np.ndarray:
        return self.passive_out @ self.squeezer @ self.passive_in


def _j_paired_columns(cols: np.ndarray) -> list[np.ndarray]:
    """Pick vectors v1..vd from a J-invariant subspace so that
    (v_i, v_j) = delta_ij and (v_i, J v_j) = 0; the subspace is then spanned
    by the pairs (v_i, J v_i)."""
    picked: list[np.ndarray] = []
    span: list[np.ndarray] = []
    for i in range(cols.shape[1]):
        if 2 * len(picked) == cols.shape[1]:
            break
        cand = cols[:, i]
        for b in span:
            cand = cand - (b @ cand) * b
        norm = np.linalg.norm(cand)
        if norm < 1e-7:
            continue
        cand = cand / norm
        picked.append(cand)
        span.append(cand)
        jc = apply_j(cand)
        for b in span[:-1]:
            jc = jc - (b @ jc) * b
        span.append(jc / np.linalg.norm(jc))
    return picked


def bloch_messiah(s: np.ndarray, tol: float = 1e-9) -> BlochMessiah:
    """Bloch-Messiah decomposition of a symplectic matrix.

    Polar-decomposes ``S = O P`` and diagonalises the positive symplectic
    factor ``P`` in a J-paired eigenbasis: eigenvalues come in ``(k, 1/k)``
    pairs with ``J`` mapping one eigenspace onto the other, so the orthogonal
    diagonaliser can always be chosen symplectic.
    """
    s = _as_even_square(s, "symplectic matrix")
    m = s.shape[0] // 2
    j = symplectic_form(m)
    defect = float(np.max(np.abs(s.T @ j @ s - j)))
    if defect > tol:
        raise SymplecticError(f"matrix violates the symplectic form by {defect:.3e}")

    o_polar, p = polar(s)  # s = o_polar @ p with p symmetric positive definite
    w, u = np.linalg.eigh(p)

    unit = np.abs(w - 1.0) <= 1e-8
    above = (w > 1.0) & ~unit
    order = np.argsort(-w[above])
    vs = [u[:, above][:, i] for i in order]
    if np.any(unit):
        vs.extend(_j_paired_columns(u[:, unit]))
    if len(vs) != m:
        raise SymplecticError("eigenvalue pairing failed; matrix too ill-conditioned")

    q = np.column_stack(vs + [apply_j(v) for v in vs])
    k_vals = np.array([v @ p @ v for v in vs])
    return BlochMessiah(passive_out=o_polar @ q, squeezing=k_vals, passive_in=q.T)


def unitary_to_symplectic(u: np.ndarray) -> np.ndarray:
    """Embed an m x m unitary as an orthogonal symplectic 2m x 2m matrix."""
    u = np.asarray(u, dtype=complex)
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def symplectic_to_unitary(o: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse of :func:`unitary_to_symplectic`, with structure validation."""
    o = _as_even_square(o, "orthogonal symplectic matrix")
    m = o.shape[0] // 2
    x, y = o[:m, :m], o[m:, :m]
    gap = max(
        float(np.max(np.abs(o[:m, m:] + y))), float(np.max(np.abs(o[m:, m:] - x)))
    )
    if gap > tol:
        raise SymplecticError(f"matrix is not orthogonal symplectic (gap {gap:.3e})")
    return x + 1j * y


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x m unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_orthogonal_symplectic(m: int, seed) -> np.ndarray:
    """Haar-random passive transformation (image of a random unitary)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return unitary_to_symplectic(random_unitary(m, rng))


def db_to_scale(db: np.ndarray) -> np.ndarray:
    """Squeezing in dB to quadrature scale factor, ``k = 10^(db/20)``.

    ``k`` multiplies one quadrature axis; the variance changes by ``k^2``,
    i.e. by ``db`` decibels.
    """
    return np.power(10.0, np.asarray(db, dtype=float) / 20.0)


def random_pure_squeezed_cov(m: int, squeezing_db, seed) -> np.ndarray:
    """Pure multimode squeezed covariance with given per-mode squeezing.

    ``V = S S^T`` with ``S = O K``: a Haar-random passive transformation after
    per-mode squeezers taken from ``squeezing_db`` (positive values stretch
    ``x`` and squeeze ``p``).  ``det V = 1`` and every symplectic eigenvalue
    is one.  Deterministic per seed.
    """
    k = db_to_scale(squeezing_db)
    if k.shape != (m,):
        raise DimensionError(f"expected {m} squeezing values, got {k.shape}")
    o = random_orthogonal_symplectic(m, seed)
    s = o * np.concatenate([k, 1.0 / k])  # right-multiply by diag(k, 1/k)
    return s @ s.T


def random_mixed_cov(m: int, seed, max_squeezing_db: float = 6.0,
                     max_thermal: float = 2.0) -> np.ndarray:
    """Random physical covariance ``V = S diag(nu, nu) S^T``.

    ``S`` is a random symplectic (passive-squeeze-passive) and the thermal
    eigenvalues are drawn uniformly from ``[1, max_thermal]``; pass
    ``max_thermal = 1`` for a random pure state.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = db_to_scale(rng.uniform(0.0, max_squeezing_db, size=m))
    o1 = random_orthogonal_symplectic(m, rng)
    o2 = random_orthogonal_symplectic(m, rng)
    s = (o1 * np.concatenate([k, 1.0 / k])) @ o2
    nu = rng.uniform(1.0, max_thermal, size=m) if max_thermal > 1.0 else np.ones(m)
    return s @ np.diag(np.concatenate([nu, nu])) @ s.T
