"""Phase-space primitives: symplectic form, mode vectors, plane projectors.

Conventions fixed here and used everywhere else in the package:

* Quadratures are ordered ``(x_1, ..., x_m, p_1, ..., p_m)`` ("xxpp").
* Shot noise is one: the vacuum covariance matrix is the identity.
* The symplectic form acts as ``J (x, p) = (-p, x)``, so ``J @ J = -1`` and
  ``(J f1, J f2) = (f1, f2)`` for all vectors.
* As complex vectors ``z = x + ip``, ``J`` is multiplication by ``i`` and
  ``conj(z1) . z2 = (f1, f2) - i (f1, J f2)``, so an orthonormal complex basis
  ``u_k`` gives the orthonormal J-paired real basis ``h_k = (Re u_k, Im u_k)``,
  ``J h_k``; every J-paired basis in the package is built this way.

A single optical mode is a normalised vector ``g`` together with its
symplectic partner ``J g``; the two span a phase plane.  Every quantity in
this package depends only on that plane (through the plane matrix
``G = [g, Jg]``, whose columns are orthonormal, or the rank-two projector
``P = G G^T``), never on the sign or phase of ``g`` itself, so the sign
convention of ``J`` is unobservable downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ModeValidationError

#: Inputs farther than this from unit norm are rejected; closer ones are
#: silently renormalised (absorbs file-format rounding without masking bugs).
MODE_NORM_TOL = 1e-9

#: Norms this close to 1 are 1 to rounding and are kept as they are: dividing
#: a normalised vector by its computed norm moves it by an ulp, so without
#: this a mode validated twice would not keep its bits.
_MODE_ROUNDING_TOL = 1e-14

#: A norm below this is zero: no direction is read from a mode draw or mode
#: spec this short, a noise matrix this small is no noise, and a Fock state
#: whose squared norm falls this low has no weight left to renormalise.
NORM_FLOOR = 1e-12


def _even_dim(size: int) -> int:
    if size == 0 or size % 2:
        raise DimensionError(
            f"phase-space vectors have even positive length, got {size}"
        )
    return size // 2


def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form J in xxpp ordering."""
    if m < 1:
        raise DimensionError("mode count must be at least 1")
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def apply_j(f: np.ndarray) -> np.ndarray:
    """Apply the symplectic form, ``(x, p) -> (-p, x)``.

    Accepts a single vector or an array of vectors stacked on leading axes.
    Applying twice returns the negated input.
    """
    f = np.asarray(f, dtype=float)
    m = _even_dim(f.shape[-1])
    return np.concatenate((-f[..., m:], f[..., :m]), axis=-1)


def _norms(f: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a float array.

    One BLAS dot per vector, so that each norm equals ``np.linalg.norm`` of
    that vector bit for bit; a batched ``einsum`` or ``sum`` rounds
    differently.
    """
    return np.sqrt((f[..., None, :] @ f[..., :, None])[..., 0, 0])


def as_mode(f: np.ndarray) -> np.ndarray:
    """Validate a mode vector and return a normalised read-only copy.

    Accepts a single vector or a stack of vectors on leading axes; the whole
    stack is validated in one pass, and each row comes out as the call on that
    row alone would return it (a scan validates all its drawn modes in one
    call).  Idempotent: a vector already normalised to rounding is returned
    with its bits unchanged.

    Raises:
        DimensionError: for a scalar, or an odd or zero last axis.
        ModeValidationError: if any norm deviates from 1 by more than
            ``MODE_NORM_TOL`` or is not a number.
    """
    f = np.array(f, dtype=float)
    if f.ndim == 0:
        raise DimensionError("a mode is a vector, got a scalar")
    _even_dim(f.shape[-1])
    norm = _norms(f)
    off = np.abs(norm - 1.0)
    worst = off.max(initial=0.0)  # NaN if any norm is NaN
    if not worst <= MODE_NORM_TOL:
        bad = norm[~(off <= MODE_NORM_TOL)].flat[0]
        raise ModeValidationError(
            f"mode vector norm {float(bad)!r} deviates from 1 beyond {MODE_NORM_TOL}"
        )
    if worst > _MODE_ROUNDING_TOL:
        f /= np.where(off > _MODE_ROUNDING_TOL, norm, 1.0)[..., None]
    f.flags.writeable = False
    return f


def mode_plane(g: np.ndarray) -> np.ndarray:
    """Plane matrix ``G = [g, Jg]`` of mode ``g``, shape ``(2m, 2)``; a stack
    ``(n, 2m)`` of modes gives ``(n, 2m, 2)``.  ``g`` is used as given (see
    :func:`as_mode`); when normalised, ``G^T G = 1`` and ``G G^T`` is
    :func:`mode_projector`."""
    g = np.asarray(g, dtype=float)
    return np.stack([g, apply_j(g)], axis=-1)


def mode_projector(g: np.ndarray) -> np.ndarray:
    """Projector onto the phase plane of mode ``g``.

    Returns ``G G^T = g g^T + (Jg)(Jg)^T``: symmetric, idempotent, trace 2,
    and identical for every mode spanning the same plane (``g``, ``Jg``, or
    any rotation of the pair).  A stack of modes gives a stack of projectors.
    """
    plane = mode_plane(as_mode(g))
    return plane @ np.swapaxes(plane, -1, -2)


def random_mode(m: int, seed) -> np.ndarray:
    """Draw a uniformly random mode: i.i.d. standard normals, normalised.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, or an
    existing ``Generator`` (consumed in place).  Deterministic per seed.
    """
    if m < 1:
        raise DimensionError("mode count must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        v = rng.standard_normal(2 * m)
        norm = np.linalg.norm(v)
        if norm > NORM_FLOOR:
            break
    return as_mode(v / norm)


def complete_symplectic_basis(g: np.ndarray) -> list[np.ndarray]:
    """Extend mode ``g`` to a full orthonormal basis of J-paired planes.

    Returns ``[g, Jg, h2, Jh2, ..., hm, Jhm]`` where each consecutive pair
    spans a J-invariant plane and the whole set is orthonormal.  Deterministic:
    the ``h_k`` are the columns after the first of the unitary QR factor of
    ``[g_x + i g_p, 1]``, read as real vectors (module conventions).
    """
    g = as_mode(g)
    if g.ndim != 1:
        raise DimensionError("a symplectic basis is completed from one mode vector")
    m = g.size // 2
    q = np.linalg.qr(np.column_stack([g[:m] + 1j * g[m:], np.eye(m)]))[0]
    basis = [np.asarray(g), apply_j(g)]
    for h in np.hstack([q.T.real, q.T.imag])[1:]:
        basis.extend([h, apply_j(h)])
    return basis


def basis_change_matrix(basis: list[np.ndarray]) -> np.ndarray:
    """Orthogonal symplectic matrix built from a J-paired basis.

    The input is ordered in pairs ``[h1, Jh1, h2, Jh2, ...]`` (as produced by
    :func:`complete_symplectic_basis`); the returned matrix has columns
    reordered to xxpp, ``[h1 ... hm | Jh1 ... Jhm]``, so that it is orthogonal
    and preserves ``J``.
    """
    return np.column_stack(basis[0::2] + basis[1::2])
