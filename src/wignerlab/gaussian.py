"""Gaussian states as covariance matrices.

A state of ``m`` modes is a real symmetric ``2m x 2m`` matrix ``V`` in xxpp
ordering with the vacuum equal to the identity, plus an optional mean vector.
Physicality means every symplectic eigenvalue is at least one.

Every reader, here and in :mod:`.photon_ops`, :mod:`.analysis` and
:mod:`.fock`, passes its inputs through three gates.  A covariance, an array
or a :class:`GaussianState`, passes :func:`gaussian_state` (entries finite and
at most ``MAX_ENTRY``, symmetry within ``SYMMETRY_TOL``), which lets a state
through unchanged; the state computes ``V^-1``, ``log det V`` and the
Williamson normal form once each, on first use, for all the readers it is
handed to.  A mode passes :func:`state_mode`, and a point, displacement or
characteristic-function argument :func:`state_points`.

The two workhorse factorisations live here as well:

* Williamson: ``V = S diag(nu, nu) S^T`` with ``S`` symplectic, separating a
  pure squeezed part from thermal noise (the state's ``s`` and ``nu``);
* Bloch-Messiah: ``S = O1 K O2`` with ``O1, O2`` orthogonal symplectic
  (passive optics) and ``K = diag(k, 1/k)`` the squeezers.  The column pairs
  of ``O1`` are the supermodes of ``V = S S^T``.

Degenerate spectra make both decompositions non-unique; any valid factor set
may be returned and all downstream code is required (and tested) to be
invariant under that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CovarianceError, DimensionError, SymplecticError
from .phase_space import apply_j, as_mode, mode_plane, symplectic_form

#: Symplectic eigenvalues may undershoot 1 by this much before a state is
#: declared unphysical (numerical slack on the shot-noise bound).
PHYSICALITY_TOL = 1e-9

#: Absolute asymmetry allowed in an ingested covariance matrix.
SYMMETRY_TOL = 1e-10

#: A state is pure when every symplectic eigenvalue lies this close to one.
PURE_TOL = 1e-6

#: Largest structure defect of a matrix accepted as (orthogonal) symplectic or unitary.
SYMPLECTIC_TOL = 1e-9

#: Singular values of a symplectic matrix this close to one are unsqueezed.
UNIT_SINGULAR_TOL = 1e-8

#: Covariance eigenvalues at most this fraction of ``max(largest, 1)`` are singular.
SINGULAR_TOL = 1e-13

#: Largest accepted covariance entry: quadratic forms and 2x2 plane
#: determinants of accepted states stay finite.
MAX_ENTRY = 1e100

#: Rows of ``b`` per product in :func:`quadratic_form`: its temporaries stay
#: ``QUAD_BLOCK x 2m`` floats however many points are evaluated.
QUAD_BLOCK = 4096


def _as_even_square(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {mat.shape}")
    if mat.shape[0] % 2 or mat.shape[0] == 0:
        raise DimensionError(f"{what} must have even positive size")
    return mat


def _check_symmetric(v: np.ndarray) -> np.ndarray:
    v = _as_even_square(v, "covariance matrix")
    if not np.all(np.abs(v) <= MAX_ENTRY):  # NaN too
        raise np.linalg.LinAlgError(f"covariance entry NaN or beyond {MAX_ENTRY:.0e}")
    gap = float(np.max(np.abs(v - v.T)))
    if gap > SYMMETRY_TOL:
        raise CovarianceError(f"covariance matrix asymmetric by {gap:.3e}")
    return 0.5 * (v + v.T)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A symmetrised covariance past the entry gate (:func:`gaussian_state`)
    with ``inv = V^-1``, ``logdet = log det V`` and the Williamson form
    ``V = S diag(nu, nu) S^T``, each computed on first use and then kept."""

    v: np.ndarray

    @cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.v)

    @cached_property
    def logdet(self) -> float:
        sign, logdet = np.linalg.slogdet(self.v)
        if sign <= 0:
            raise CovarianceError("covariance matrix not positive definite")
        return logdet

    @cached_property
    def _normal_form(self) -> tuple[np.ndarray, np.ndarray]:
        """``(S, nu)`` from the one eigenproblem of ``H = i (A - A^T) / 2``,
        ``A = V^-1/2 J V^-1/2``, with eigenvalues ``+-1/nu``.  Its eigenvectors
        ``w`` for ``+1/nu`` satisfy ``w^T w = 0`` (``conj(w)`` belongs to
        ``-1/nu``), so ``sqrt(2) (Re w, Im w)`` is an orthonormal J-paired basis
        even inside degenerate eigenspaces; ``S`` is ``V^1/2`` times it, scaled."""
        m = self.v.shape[0] // 2
        w, u = np.linalg.eigh(self.v)
        if w[0] <= max(w[-1], 1.0) * SINGULAR_TOL:
            raise CovarianceError(f"near-singular covariance: min eigenvalue {w[0]:.3e}")
        sq = np.sqrt(w)
        inv_sqrt_v = (u / sq) @ u.T
        anti = inv_sqrt_v @ symplectic_form(m) @ inv_sqrt_v
        lam, h_vecs = np.linalg.eigh(0.5j * (anti - anti.T))
        nu = 1.0 / lam[m:]  # lam ascends, so nu descends
        k = np.sqrt(2.0) * np.concatenate([h_vecs[:, m:].real, h_vecs[:, m:].imag], axis=1)
        return (u * sq) @ u.T @ k / np.sqrt(np.concatenate([nu, nu])), nu

    s = property(lambda self: self._normal_form[0])
    nu = property(lambda self: self._normal_form[1])  # m values, descending

    def reconstruct(self) -> np.ndarray:
        return (self.s * np.concatenate([self.nu, self.nu])) @ self.s.T


def gaussian_state(v) -> GaussianState:
    """The one entry gate of a covariance, :func:`_check_symmetric` (an even
    square matrix; ``LinAlgError`` for an entry NaN or beyond ``MAX_ENTRY``;
    symmetric within ``SYMMETRY_TOL``).  A state passes through as it is."""
    return v if isinstance(v, GaussianState) else GaussianState(_check_symmetric(v))


def symplectic_eigenvalues(v) -> np.ndarray:
    """The ``m`` doubled eigenvalues of ``i J V`` once each, descending."""
    return gaussian_state(v).nu


def validate_covariance(v) -> np.ndarray:
    """Check physicality and return the symplectic spectrum, descending.

    Raises:
        CovarianceError: asymmetric or near-singular input, or any symplectic
            eigenvalue below ``1 - PHYSICALITY_TOL``.
        np.linalg.LinAlgError: an entry beyond ``MAX_ENTRY`` or not finite.
    """
    nu = symplectic_eigenvalues(v)
    if nu[-1] < 1.0 - PHYSICALITY_TOL:
        raise CovarianceError(
            f"unphysical covariance: symplectic eigenvalue {float(nu[-1])!r} < 1"
        )
    return nu


def is_pure(v) -> bool:
    """Whether every symplectic eigenvalue lies within ``PURE_TOL`` of one."""
    return bool(np.max(np.abs(symplectic_eigenvalues(v) - 1.0)) <= PURE_TOL)


def state_mode(g, dim: int) -> np.ndarray:
    """:func:`as_mode` of ``g``, a mode of a state of ``dim = 2m`` quadratures;
    the one mode-length check of every reader."""
    g = as_mode(g)
    if g.shape != (dim,):
        raise DimensionError(f"mode of shape {g.shape} is not one vector of 2m = {dim}")
    return g


def state_points(x, dim: int, what: str = "beta", one: bool = False) -> np.ndarray:
    """``x`` as floats, phase-space points of a state of ``dim = 2m``
    quadratures, batched on leading axes unless ``one``; the one point check
    of every reader: ``DimensionError`` for a scalar, a last axis other than
    ``dim`` or a stack where ``one`` point is required, ``ValueError`` for an
    entry that is not finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim or (one and x.ndim != 1):
        points = "one phase-space point" if one else "a phase-space point or a stack of them"
        raise DimensionError(f"{what} of shape {x.shape} is not {points} "
                             f"in 2m = {dim} quadratures")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def quadratic_form(b, mat: np.ndarray) -> np.ndarray:
    """``(b, M b)`` over the last axis of ``b``, batched over its leading axes.

    Computed as ``((b @ M) * b).sum(-1)``, one matrix product per block of
    ``QUAD_BLOCK`` rows, so that a large batch is neither copied nor
    multiplied whole.  Returns a 0-d array for a single point.
    """
    b = np.asarray(b, dtype=float)
    rows = b.reshape(-1, b.shape[-1])  # a view of a contiguous batch
    out = np.empty(len(rows))
    for start in range(0, len(rows), QUAD_BLOCK):
        blk = rows[start:start + QUAD_BLOCK]
        out[start:start + QUAD_BLOCK] = ((blk @ mat) * blk).sum(axis=-1)
    return out.reshape(b.shape[:-1])


def gaussian_wigner(v, beta: np.ndarray, mean=None) -> np.ndarray:
    """Wigner function of a Gaussian state, evaluated at ``beta``.

    ``W(b) = (2 pi)^-m (det V)^-1/2 exp(-(b-mu, V^-1 (b-mu)) / 2)``, with the
    exponent's quadratic form taken by :func:`quadratic_form` on the state's
    one ``V^-1``.

    ``beta`` may carry leading batch axes.  Returns a scalar for a single
    point.
    """
    state = gaussian_state(v)
    m = state.v.shape[0] // 2
    beta = state_points(beta, 2 * m)
    mean = np.zeros(2 * m) if mean is None else state_points(mean, 2 * m, "mean", one=True)
    if np.any(mean):  # a zero mean would copy the points
        beta = beta - mean
    logdet = state.logdet  # a singular V raises here, before the inverse
    quad = quadratic_form(beta, state.inv)
    val = np.exp(-0.5 * quad - 0.5 * logdet - m * np.log(2.0 * np.pi))
    return val if val.ndim else float(val)


def gaussian_purity(v) -> float:
    """Purity of a Gaussian state: ``(det V)^-1/2``."""
    return float(np.exp(-0.5 * gaussian_state(v).logdet))


def reduce_to_mode(v, g: np.ndarray) -> np.ndarray:
    """Covariance of one mode: the 2x2 block ``G^T V G``, ``G = [g, Jg]``."""
    v = gaussian_state(v).v
    plane = mode_plane(state_mode(g, len(v)))
    return plane.T @ (v @ plane)


def williamson(v) -> GaussianState:
    """Williamson form ``V = S diag(nu, nu) S^T``: the state of ``v`` with its
    ``s`` and ``nu`` solved here, so that a near-singular ``V`` raises at the call."""
    state = gaussian_state(v)
    _ = state.nu
    return state


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

    def supermode(self, i: int) -> np.ndarray:
        return np.array(self.passive_out[:, i])

    def reconstruct(self) -> np.ndarray:
        k = np.concatenate([self.squeezing, 1.0 / self.squeezing])
        return (self.passive_out * k) @ self.passive_in


def bloch_messiah(s: np.ndarray) -> BlochMessiah:
    """Bloch-Messiah decomposition of a symplectic matrix.

    One SVD ``S = L diag(w) U^T`` gives the polar factor ``O = L U^T`` and
    the eigenpairs ``(w, U)`` of the positive symplectic factor
    ``P = U diag(w) U^T``.  Eigenvalues come in ``(k, 1/k)`` pairs with ``J``
    mapping one eigenspace onto the other, so the orthogonal diagonaliser of
    ``P`` can always be chosen symplectic; inside the J-invariant ``k = 1``
    subspace that takes the leading right singular vectors of its basis read
    as ``x + ip`` (module :mod:`.phase_space`).  Each supermode is signed so
    that its largest-magnitude component is positive.
    """
    s = _as_even_square(s, "symplectic matrix")
    m = s.shape[0] // 2
    j = symplectic_form(m)
    defect = float(np.max(np.abs(s.T @ j @ s - j)))
    if defect > SYMPLECTIC_TOL:
        raise SymplecticError(f"matrix violates the symplectic form by {defect:.3e}")

    left, w, ut = np.linalg.svd(s)  # w descends
    unit = np.abs(w - 1.0) <= UNIT_SINGULAR_TOL
    u = np.linalg.svd(ut[unit, :m] + 1j * ut[unit, m:])[2][: unit.sum() // 2]
    vs = np.vstack([ut[(w > 1.0) & ~unit], np.hstack([u.real, u.imag])])
    if len(vs) != m:
        raise SymplecticError("eigenvalue pairing failed; matrix too ill-conditioned")

    q = np.column_stack([*vs, *apply_j(vs)])
    out = left @ ut @ q
    top = out[np.argmax(np.abs(out[:, :m]), axis=0), np.arange(m)]
    flip = np.tile(np.sign(top), 2)
    return BlochMessiah(passive_out=out * flip, squeezing=w[:m], passive_in=(q * flip).T)


def unitary_to_symplectic(u: np.ndarray) -> np.ndarray:
    """Embed an m x m unitary as an orthogonal symplectic 2m x 2m matrix."""
    u = np.asarray(u, dtype=complex)
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def symplectic_to_unitary(o: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unitary_to_symplectic`, with structure validation."""
    o = _as_even_square(o, "orthogonal symplectic matrix")
    m = o.shape[0] // 2
    x, y = o[:m, :m], o[m:, :m]
    gap = max(
        float(np.max(np.abs(o[:m, m:] + y))), float(np.max(np.abs(o[m:, m:] - x)))
    )
    if gap > SYMPLECTIC_TOL:
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
    return unitary_to_symplectic(random_unitary(m, np.random.default_rng(seed)))


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
    rng = np.random.default_rng(seed)
    k = db_to_scale(rng.uniform(0.0, max_squeezing_db, size=m))
    o1 = random_orthogonal_symplectic(m, rng)
    o2 = random_orthogonal_symplectic(m, rng)
    s = (o1 * np.concatenate([k, 1.0 / k])) @ o2
    nu = rng.uniform(1.0, max_thermal, size=m) if max_thermal > 1.0 else np.ones(m)
    return s @ np.diag(np.concatenate([nu, nu])) @ s.T
