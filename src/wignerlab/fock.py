"""Brute-force oracle in truncated Fock space, for one to three modes.

Everything here is deliberately independent of the closed forms in
``photon_ops``: states are complex amplitude tensors, operators act by
explicit ladder algebra, and Wigner values come from displaced parity.  The
tests compare the two routes.

Quadrature scaling.  With shot noise one, ``x = a + a^dag`` and
``p = i (a^dag - a)``, so ``a(g) = sum_j c_j a_j`` with
``c_j = g_x[j] - i g_p[j]`` for a normalised mode ``g``.

Wigner scaling, fixed against the vacuum closed form.  The displaced-parity
construction reads ``W(beta) = s_m <psi| D(gamma) Pi D(gamma)^dag |psi>``
with per-mode displacement amplitudes ``gamma_j = (beta_xj + i beta_pj)/2``
and ``Pi`` the photon-number parity.  For the vacuum the expectation is
``|<-gamma|gamma>| = exp(-2 |gamma|^2) = exp(-|beta|^2 / 2)``, and the target
vacuum Wigner function is ``(2 pi)^-m exp(-|beta|^2 / 2)``; hence
``s_m = (2 pi)^-m`` exactly.

Displacements and displaced parity share one spectrum per cutoff.  With
``T = a + a^dag = Q diag(lam) Q^T`` (real tridiagonal), ``E(t) = diag(e^{i t
lam})`` and the gauge ``Phi = diag(e^{i k arg(-i z)})``, the exact truncated
``D(z) = Phi Q E(|z|) Q^T Phi^dag``.  ``T`` has zero diagonal, so
``Pi T Pi = -T`` and ``Q^T Pi Q = R diag(sigma)`` with ``R`` the index
reversal and ``sigma = +-1``; hence ``D(z)^dag Pi D(z) = Phi Q R diag(sigma)
E(2|z|) Q^T Phi^dag``, the identity the line below reads its table through.
A point off one line is the definition itself: displace by ``z_j =
-gamma_j`` along each axis, then sum the parity-weighted populations.

Points on one complex line, ``gamma = w conj(u)`` for one unit ``u``,
displace only the mode ``a(g) = sum_j u_j a_j``, ``g = (Re u, -Im u)``.  The
basis-completion interferometer rotates ``g`` onto axis 0 and commutes with
parity, so with the rotated amplitudes ``psi[k, r]`` (``k`` axis 0's level,
``r`` the other axes) and ``rho~ = sum_r (-1)^|r| psi[:, r] psi[:, r]^dag``
each value is ``s_m tr(D(z)^dag Pi D(z) rho~)`` on axis 0, ``z = -w``.  The
identity above turns it into ``s_m Re sum_a sigma_a e^{2i|z| lam_a} sum_d
e^{-i d phi} T[d, a]``, ``phi = arg(-i z)``, with the table ``T[d, a] =
sum_{k-l=d} Q[k, a] Q[l, n-1-a] rho~[k, l]``, built once.  The index order
matters: the row index ``k`` of ``rho~`` pairs with column ``a`` of ``Q``,
the column index ``l`` with the reversed ``n-1-a``; the other pairing gives
``W(-beta)``, which equals ``W(beta)`` for every undisplaced photon-added
or -subtracted Gaussian state.  Truncation: for ``m >= 2`` this route applies
one truncated rotation and one truncated displacement on axis 0 where the
per-point route displaces every axis, so the two agree wherever the state
fits under the cutoff; for one mode the rotation is a phase and the routes
are the same.

Beamsplitters conserve photon number and act on the blocks of fixed total
``N``.  There the gauged generator ``T`` is real tridiagonal with zero
diagonal, so it only couples even to odd local indices: ``T = [[0, B],
[B^T, 0]]`` with ``B`` bidiagonal.  With ``B = U S V^T`` (full matrices),
``exp(i theta T) = [[U C U^T, i U S' V^T], [i V S'^T U^T, V C' V^T]]``, where
``S' = sin(theta S)`` and ``C``, ``C'`` are ``cos(theta S)`` padded with one
on the null spaces: one half-size SVD per block, exactly unitary on the
truncated space.

Truncated correlations come from polarised one-quadrature cumulants.  The
joint cumulant is a symmetric multilinear form, so it equals
``sum over sign patterns s of prod(s) kappa_n(Q(sum s_i f_i)) / (2^n n!)``.
The truncated quadrature is Hermitian, so ``ceil(n/2)`` ladder passes per
pattern give every moment ``<Q^j> = <Q^floor(j/2) psi, Q^(j-floor(j/2)) psi>``
up to order ``n``, and the one-variable recursion turns them into ``kappa_n``.

Mixed Gaussian states are never represented here: density matrices would
dwarf the oracle, and the package handles mixedness by classical mixtures of
displaced pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache as _lru_cache
from itertools import product

import numpy as np

from .errors import (
    CapacityError,
    CutoffError,
    DimensionError,
    SubtractionUndefinedError,
)
from .gaussian import (SYMPLECTIC_TOL, bloch_messiah, is_pure, state_mode,
                       symplectic_to_unitary, williamson)
from .phase_space import NORM_FLOOR, complete_symplectic_basis
from .photon_ops import PhotonOpSpec

MAX_MODES = 3
MAX_SQUEEZING = 1.2  # nats; leakage is hopeless beyond this at sane cutoffs
LEAK_TOL = 1e-8
DEFAULT_CUTOFF = 20
MAX_SUGGESTED_CUTOFF = 512

#: Squeezing read from ``bloch_messiah`` may exceed ``MAX_SQUEEZING`` by this
#: much through rounding and still be accepted.
_SQUEEZING_SLACK = 1e-12

#: Unitary entries below this magnitude are zero when choosing Givens rotations.
_GIVENS_ZERO_TOL = 1e-14

#: ``fock_wigner`` points lie on one complex line when the second singular
#: value of their ``gamma`` matrix is at most this fraction of the first.
_PLANE_RANK_TOL = 1e-12

#: Points per product on the plane path.  A block's temporaries grow as
#: ``_PLANE_BLOCK * cutoff``; at 32 the plane path's peak memory on a two-mode
#: state at cutoff 80, rotation and table included, is 550 KiB, near the
#: per-point path's 460 KiB.
_PLANE_BLOCK = 32


@dataclass(frozen=True)
class FockState:
    """Pure state as a complex tensor with one axis per mode.

    ``norm_deficit`` is the squared norm lost to the cutoff when the state
    was constructed (zero for states built from exact finite expansions).
    """

    amplitudes: np.ndarray
    norm_deficit: float = 0.0

    @property
    def modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vacuum_state(modes: int, cutoff: int) -> FockState:
    amp = np.zeros((cutoff,) * modes, dtype=complex)
    amp[(0,) * modes] = 1.0
    return FockState(amp)


def _mode_coefficients(g: np.ndarray, modes: int) -> np.ndarray:
    """Annihilation coefficients of mode ``g``: ``a(g) = sum c_j a_j``.

    Raises:
        DimensionError: ``g`` is not a mode of a ``modes``-mode state.
    """
    g = state_mode(g, 2 * modes)
    return g[:modes] - 1j * g[modes:]


@_lru_cache(maxsize=1)
def _ladder_weights(n: int, m: int) -> np.ndarray:
    """``w[j, i] = sqrt(k_j + 1)`` at the flat index ``i`` of an ``m``-mode
    tensor with cutoff ``n``, zero where ``k_j`` is the top level."""
    levels = np.indices((n,) * m).reshape(m, -1)
    w = np.sqrt(levels + 1.0)
    w[levels == n - 1] = 0.0
    w.flags.writeable = False
    return w


def _ladder(psi: np.ndarray, low, high, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """``out = sum_j (low[j] a_j + high[j] a_j^dag) psi``; returns ``out``.

    ``out`` and ``scratch`` are contiguous complex arrays of ``psi``'s shape
    owned by the caller; the kernel allocates nothing state-sized.  Axis
    ``j`` has flat stride ``s = n^(m-1-j)``, so each term is one contiguous
    pass: ``a_j`` adds ``w_j[:-s] psi[s:]`` to ``out[:-s]`` and ``a_j^dag``
    adds ``w_j[:-s] psi[:-s]`` to ``out[s:]``, with the weights of
    ``_ladder_weights``.  Creation drops the top level, annihilation empties
    it.
    """
    n, m = psi.shape[0], psi.ndim
    weights = _ladder_weights(n, m)
    p, o, s = psi.reshape(-1), out.reshape(-1), scratch.reshape(-1)
    out.fill(0.0)
    for axis, (cl, ch) in enumerate(zip(low, high)):
        step = n ** (m - 1 - axis)
        w = weights[axis, :-step]
        if cl != 0:
            np.multiply(w, cl, out=s[:-step])
            s[:-step] *= p[step:]
            o[:-step] += s[:-step]
        if ch != 0:
            np.multiply(w, ch, out=s[step:])
            s[step:] *= p[:-step]
            o[step:] += s[step:]
    return out


def apply_photon_op(state: FockState, op: PhotonOpSpec) -> tuple[FockState, float]:
    """Add or subtract one photon in mode ``g``; renormalises.

    Returns the new state and the pre-normalisation squared norm, which
    equals the mode's mean photon number for subtraction and that plus one
    for addition.

    Raises:
        SubtractionUndefinedError: subtraction from a vacuum-like mode.
        CutoffError: addition pushed the whole state past the cutoff.
    """
    psi = state.amplitudes
    c = _mode_coefficients(op.mode, state.modes)
    zero = np.zeros_like(c)
    low, high = (c, zero) if op.kind == "subtract" else (zero, np.conj(c))
    amp = _ladder(psi, low, high, np.empty(psi.shape, complex),
                  np.empty(psi.shape, complex))
    norm_sq = float(np.vdot(amp, amp).real)
    if norm_sq <= NORM_FLOOR:
        if op.kind == "subtract":
            raise SubtractionUndefinedError(
                "photon subtraction annihilated the state (vacuum mode)"
            )
        raise CutoffError(
            f"photon addition left no norm below cutoff {state.cutoff}"
        )
    amp /= np.sqrt(norm_sq)
    return FockState(amp, state.norm_deficit), norm_sq


# levels summed past the cutoff; at MAX_SQUEEZING the terms underflow by ~4100
TAIL_LEVELS = 8192


def _leak_tails(squeezings, size: int) -> np.ndarray:
    """Squeezed-vacuum leakage at every cutoff: ``tails[c]`` sums, over the
    squeezings in order, ``sum_{k >= c} c_k^2`` for ``c = 0 .. size``.

    The squared even amplitudes ``c_2n^2 = tanh(r)^2n (2n-1)!! / ((2n)!!
    cosh r)`` come from one cumulative product over ``size + TAIL_LEVELS``
    levels and are summed from the far end, so leakages far below machine
    epsilon stay meaningful, and once the far terms underflow every cutoff
    reads the same bits whatever ``size`` is.  ``gaussian_fock_state``'s
    leak check and ``suggested_cutoff`` both read this sum.
    """
    tails = 0.0
    half = np.arange(1.0, (size + TAIL_LEVELS) // 2)
    for r in np.abs(np.atleast_1d(np.asarray(squeezings, dtype=float))):
        t2 = np.tanh(r) ** 2
        terms = np.cumprod(np.concatenate(([1.0 / np.cosh(r)],
                                           t2 * (2.0 * half - 1.0) / (2.0 * half))))
        # even levels k = 2i >= c  <=>  i >= ceil(c / 2)
        tails = tails + np.cumsum(terms[::-1])[::-1][(np.arange(size + 1) + 1) // 2]
    return tails


def squeezed_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """Single-mode squeezed vacuum with ``<x^2> = e^{2r}``, ``<p^2> = e^{-2r}``.

    Even amplitudes ``c_2n = sqrt((2n)!) / (2^n n!) tanh(r)^n / sqrt(cosh r)``
    via a stable two-step recursion.  Returns the truncated vector, not
    renormalised; ``_leak_tails`` gives the squared norm it leaves out.
    """
    c = np.zeros(cutoff)
    c[0] = 1.0 / np.sqrt(np.cosh(r))
    t = np.tanh(r)
    for n in range(0, cutoff - 2, 2):
        c[n + 2] = t * np.sqrt(n + 1.0) / np.sqrt(n + 2.0) * c[n]
    return c


def _phases(psi: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Apply ``exp(i sum_j delta_j n_j)``."""
    for axis, d in enumerate(deltas):
        if d != 0.0:
            shape = [1] * psi.ndim
            shape[axis] = psi.shape[axis]
            psi = psi * np.exp(1j * d * np.arange(psi.shape[axis])).reshape(shape)
    return psi


def _beamsplitter(psi: np.ndarray, ax1: int, ax2: int, theta, phi) -> np.ndarray:
    """Apply ``exp(theta (e^{i phi} a1^dag a2 - e^{-i phi} a2^dag a1))``.

    Photon number is conserved, so the rotation acts block-by-block on the
    anti-diagonals of the two axes.  On the block of total number ``N`` the
    gauge ``D = diag(c^k)``, ``c = -i e^{i phi}``, turns the generator into
    ``i theta T`` with ``T`` real tridiagonal, zero diagonal, off-diagonal
    ``sqrt((k+1)(N-k))`` (Miatto & Quesada, Quantum 4, 366 (2020)).  ``T``
    only couples even to odd local indices, ``T = [[0, B], [B^T, 0]]`` with
    ``B`` bidiagonal; with ``B = U S V^T`` (full matrices) the block is
    ``D [[U cos U^T, i U sin V^T], [i V sin^T U^T, V cos V^T]] D^*`` for
    ``cos``/``sin`` of ``theta S``, the cosines padded with one on the null
    space: exactly unitary on the truncated space.  All-zero blocks are
    left alone.
    """
    def real_dot(a, z):  # real matrix times complex rows, as one real GEMM
        return (a @ z.view(float)).view(complex)

    n = psi.shape[ax1]
    moved = np.moveaxis(psi, (ax1, ax2), (0, 1))
    work = moved.reshape(n, n, -1).copy()
    for total in range(1, 2 * n - 2):
        ks = np.arange(max(0, total - n + 1), min(total, n - 1) + 1)
        block = work[ks, total - ks]
        if not block.any():
            continue
        off = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        p = len(ks) // 2
        b = np.zeros((len(ks) - p, p))  # rows: even local indices, columns: odd
        b[range(p), range(p)] = off[0::2]
        b[range(1, len(ks) - p), range(len(ks) - p - 1)] = off[1::2]
        u, sv, vt = np.linalg.svd(b)
        cos, isin = np.cos(theta * sv)[:, None], 1j * np.sin(theta * sv)[:, None]
        gauge = np.exp(1j * (phi - 0.5 * np.pi) * ks)[:, None]
        block *= np.conj(gauge)
        even, odd = real_dot(u.T, block[0::2]), real_dot(vt, block[1::2])
        even[:p], odd = cos * even[:p] + isin * odd, cos * odd + isin * even[:p]
        block[0::2], block[1::2] = real_dot(u, even), real_dot(vt.T, odd)
        work[ks, total - ks] = gauge * block
    return np.moveaxis(work.reshape(moved.shape), (0, 1), (ax1, ax2))


def _givens_factors(u: np.ndarray):
    """Decompose a unitary into mode-pair rotations and final phases.

    Returns ``(rotations, deltas)`` with ``rotations`` a list of
    ``(p, q, theta, phi)`` in application order such that the unitary equals
    ``G_1^dag ... G_T^dag diag(e^{i delta})`` with
    ``G(theta, phi) = [[cos, e^{i phi} sin], [-e^{-i phi} sin, cos]]``
    embedded at rows/columns (p, q).
    """
    u = np.array(u, dtype=complex)
    n = u.shape[0]
    if np.max(np.abs(u @ u.conj().T - np.eye(n))) > SYMPLECTIC_TOL:
        raise ValueError("interferometer matrix is not unitary")
    factors = []
    for col in range(n):
        for row in range(n - 1, col, -1):
            a, b = u[row - 1, col], u[row, col]
            if abs(b) < _GIVENS_ZERO_TOL:
                continue
            if abs(a) < _GIVENS_ZERO_TOL:
                theta, phi = np.pi / 2.0, 0.0
            else:
                theta = np.arctan2(abs(b), abs(a))
                phi = np.angle(a) - np.angle(b)
            c, s = np.cos(theta), np.sin(theta)
            giv = np.eye(n, dtype=complex)
            giv[row - 1, row - 1] = c
            giv[row - 1, row] = np.exp(1j * phi) * s
            giv[row, row - 1] = -np.exp(-1j * phi) * s
            giv[row, row] = c
            u = giv @ u
            factors.append((row - 1, row, theta, phi))
    deltas = np.angle(np.diagonal(u))
    return factors, deltas


def apply_interferometer(state: FockState, u: np.ndarray) -> FockState:
    """Apply the passive unitary with mode matrix ``u``.

    Convention: the returned state has annihilation operators transforming as
    ``a_j -> sum_k u[j, k] a_k`` in the Heisenberg picture, i.e. a Gaussian
    state's covariance maps as ``V -> O V O^T`` with ``O`` the symplectic
    image of ``u``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (state.modes, state.modes):
        raise DimensionError("interferometer size does not match the state")
    factors, deltas = _givens_factors(u)
    psi = _phases(state.amplitudes.astype(complex), deltas)
    for p, q, theta, phi in reversed(factors):
        psi = _beamsplitter(psi, p, q, -theta, phi)  # G^dag = G(-theta, phi)
    return FockState(psi, state.norm_deficit)


def suggested_cutoff(squeezings, leak_tol: float = LEAK_TOL) -> int:
    """Smallest even cutoff keeping total squeezed-vacuum leakage under tol."""
    leaks = _leak_tails(squeezings, MAX_SUGGESTED_CUTOFF)
    for cutoff in range(8, MAX_SUGGESTED_CUTOFF + 1, 2):
        if leaks[cutoff] < leak_tol:
            return cutoff
    raise CutoffError(
        f"no cutoff up to {MAX_SUGGESTED_CUTOFF} reaches leakage {leak_tol}"
    )


def gaussian_fock_state(v: np.ndarray, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Pure Gaussian state with covariance ``v`` as a Fock tensor.

    Builds per-mode squeezed vacua from the Bloch-Messiah squeezing values,
    then applies the output interferometer.  The combined truncation leakage
    of the squeezed factors is the recorded norm deficit and must stay below
    ``LEAK_TOL``.

    Raises:
        CutoffError: leakage above tolerance; the error carries a suggested
            cutoff that would pass.
        DimensionError: more than ``MAX_MODES`` modes.
        ValueError: mixed covariance or squeezing beyond ``MAX_SQUEEZING``.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0] // 2
    if m > MAX_MODES:
        raise DimensionError(f"oracle supports at most {MAX_MODES} modes")
    wl = williamson(v)
    if not is_pure(wl):
        raise ValueError("oracle states must be pure (unit symplectic spectrum)")
    bm = bloch_messiah(wl.s)
    rs = np.log(bm.squeezing)
    if np.max(rs) > MAX_SQUEEZING + _SQUEEZING_SLACK:
        raise ValueError(
            f"squeezing {np.max(rs):.3f} nats exceeds the oracle bound "
            f"{MAX_SQUEEZING}"
        )
    total_leak = float(_leak_tails(rs, cutoff)[cutoff])
    if total_leak > LEAK_TOL:
        raise CutoffError(
            f"cutoff {cutoff} leaks {total_leak:.3e} > {LEAK_TOL:.0e}",
            suggested_cutoff=suggested_cutoff(rs),
        )
    kets = [squeezed_amplitudes(r, cutoff) for r in rs]
    psi = kets[0].astype(complex)
    for ket in kets[1:]:
        psi = np.multiply.outer(psi, ket)
    psi = psi / np.linalg.norm(psi)
    state = FockState(psi, norm_deficit=total_leak)
    return apply_interferometer(state, symplectic_to_unitary(bm.passive_out))


@_lru_cache(maxsize=8)
def _ladder_spectrum(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lam``, ``Q`` and ``sigma`` of the module docstring at cutoff ``n``."""
    root = np.sqrt(np.arange(1.0, n))
    lam, q = np.linalg.eigh(np.diag(root, 1) + np.diag(root, -1))
    parity = 1.0 - 2.0 * (np.arange(n) % 2)
    return lam, q, np.sign(parity @ (q[:, ::-1] * q))


def _apply_displacement(psi: np.ndarray, axis: int, z: complex) -> np.ndarray:
    """Apply ``D(z) = exp(z a^dag - conj(z) a)`` along one tensor axis as
    ``Phi Q E(|z|) Q^T Phi^dag`` (module docstring): exactly unitary on the
    truncated space and stable at any cutoff.
    """
    if z == 0:
        return psi.astype(complex)
    n = psi.shape[axis]
    lam, q, _ = _ladder_spectrum(n)
    phases = np.exp(1j * np.angle(-1j * z) * np.arange(n))
    shape = [1] * psi.ndim
    shape[axis] = n
    work = psi * np.conj(phases).reshape(shape)
    work = np.moveaxis(np.tensordot(q.T, work, axes=([1], [axis])), 0, axis)
    work = work * np.exp(1j * abs(z) * lam).reshape(shape)
    work = np.moveaxis(np.tensordot(q, work, axes=([1], [axis])), 0, axis)
    return work * phases.reshape(shape)


def displace_state(state: FockState, xi: np.ndarray) -> FockState:
    """Displace by the phase-space vector ``xi`` (mean shifts by ``+xi``).

    Raises:
        DimensionError: ``xi`` is not a phase-space vector of the state.
        ValueError: ``xi`` is not finite.
    """
    xi = np.asarray(xi, dtype=float)
    m = state.modes
    if xi.shape != (2 * m,):
        raise DimensionError("displacement dimension does not match the state")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    psi = state.amplitudes.astype(complex)
    for j in range(m):
        z = 0.5 * (xi[j] + 1j * xi[m + j])
        psi = _apply_displacement(psi, j, z)
    return FockState(psi, state.norm_deficit)


def fock_wigner(state: FockState, beta) -> np.ndarray:
    """Wigner function from displaced parity (identities and scaling in the
    module docstring).

    Every one-mode call, and every multimode set of at least ``cutoff``
    points on one complex line (a grid in one ``(g, Jg)`` plane, say), takes
    the plane path: one rotation of the state, then a table lookup per point.
    Any other point set is evaluated point by point, by the definition.  The
    ``cutoff`` bound keeps one or a few multimode points from paying a whole
    rotation; it is not the crossover.  With one BLAS thread, one rotation
    plus its table costs about as much as 30-55 per-point values on two modes
    at cutoffs 20-120, and 5-15 on three modes at cutoffs 16-32.

    Valid while the displaced state fits under the cutoff, or the unitary
    truncated displacement wraps amplitude around instead of letting the
    value decay.  Point by point the bound is per mode, ``|gamma_j|^2 =
    |beta_mode_j|^2 / 4`` well below the cutoff; on the plane path the whole
    displacement sits on axis 0, so it is ``|w|^2 = sum_j |gamma_j|^2``.

    Raises:
        DimensionError: ``beta`` is not a stack of phase-space points.
        ValueError: ``beta`` is not finite.
    """
    beta = np.asarray(beta, dtype=float)
    m = state.modes
    if beta.ndim == 0 or beta.shape[-1] != 2 * m:
        raise DimensionError("point dimension does not match the state")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    pts = beta.reshape(-1, 2 * m)
    gamma = 0.5 * (pts[:, :m] + 1j * pts[:, m:])
    out = np.empty(0)
    if len(pts):
        _, s, vh = np.linalg.svd(gamma, full_matrices=False)
        on_line = s.size < 2 or s[1] <= _PLANE_RANK_TOL * s[0]
        if on_line and (m == 1 or len(pts) >= state.cutoff):
            out = _plane_wigner(state, gamma, np.conj(vh[0]))
        else:
            out = _point_wigner(state, gamma)
    out *= (2.0 * np.pi) ** (-m)
    return float(out[0]) if beta.ndim == 1 else out.reshape(beta.shape[:-1])


def _point_wigner(state: FockState, gamma: np.ndarray) -> np.ndarray:
    """Unscaled ``<psi| D(gamma) Pi D(gamma)^dag |psi>`` at each row of
    ``gamma``: the state displaced by ``-gamma_j`` along each axis, its
    parity-weighted populations summed.  The definition, and the reference
    for the plane path."""
    parity = 1.0 - 2.0 * (np.indices(state.amplitudes.shape).sum(axis=0) % 2)
    out = np.empty(len(gamma))
    for i, row in enumerate(gamma):
        psi = state.amplitudes
        for j, g in enumerate(row):
            psi = _apply_displacement(psi, j, -g)
        out[i] = np.sum(parity * np.abs(psi) ** 2)
    return out


def _plane_wigner(state: FockState, gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unscaled displaced parity at rows ``gamma = w conj(u)``: rotate mode
    ``a(g) = sum_j u_j a_j`` onto axis 0 once, build the table ``T`` of the
    module docstring, then evaluate ``_PLANE_BLOCK`` points per product."""
    n = state.cutoff
    lam = _ladder_spectrum(n)[0]
    table = _plane_table(_rotated_amplitudes(state, np.concatenate([u.real, -u.imag])),
                         state.modes)
    w = gamma @ u
    out = np.empty(len(w))
    for start in range(0, len(w), _PLANE_BLOCK):
        z = -w[start:start + _PLANE_BLOCK]
        # e^{-i d phi} for d >= 0; the negative shifts are their conjugates
        half = np.exp(-1j * np.outer(np.angle(-1j * z), np.arange(n)))
        gauge = np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)
        weight = np.exp(2j * np.outer(np.abs(z), lam))
        out[start:start + _PLANE_BLOCK] = np.einsum("pa,pa->p", weight, gauge @ table).real
    return out


def _plane_table(psi: np.ndarray, m: int) -> np.ndarray:
    """``T[d, a] sigma_a`` (module docstring) at row ``d + n - 1``, from the
    rotated amplitudes ``psi`` of ``m`` modes as an ``(n, n^(m-1))`` matrix."""
    n = psi.shape[0]
    _, q, sigma = _ladder_spectrum(n)
    parity = 1.0 - 2.0 * (np.indices((n,) * (m - 1)).sum(axis=0).ravel() % 2)
    rho = (psi * parity) @ psi.conj().T
    table = np.empty((2 * n - 1, n), complex)
    for d in range(1 - n, n):
        # rho[k, l] on the diagonal k - l = d, paired with Q[k, a] Q[l, n-1-a]
        k, l = max(d, 0), max(-d, 0)
        table[d + n - 1] = np.diagonal(rho, -d) @ (q[k:n - l] * q[l:n - k, ::-1])
    table *= sigma
    return table


def fock_characteristic(state: FockState, alpha) -> complex:
    """``<exp(i Q(alpha))>`` via per-mode displacements ``D(i lambda_j)``.

    Raises:
        DimensionError: ``alpha`` is not a phase-space vector of the state.
        ValueError: ``alpha`` is not finite.
    """
    alpha = np.asarray(alpha, dtype=float)
    m = state.modes
    if alpha.shape != (2 * m,):
        raise DimensionError("characteristic argument does not match the state")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must be finite")
    psi = state.amplitudes
    for j in range(m):
        lam = alpha[j] + 1j * alpha[m + j]
        psi = _apply_displacement(psi, j, 1j * lam)
    return complex(np.vdot(state.amplitudes, psi))


def fock_covariance(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised covariance matrix and mean recomputed from the state."""
    m = state.modes
    psi = state.amplitudes
    scratch = np.empty(psi.shape, complex)
    # rows: ladder coefficients of x_j = a_j + a_j^dag and p_j = i (a_j^dag - a_j)
    applied = [
        _ladder(psi, c, np.conj(c), np.empty(psi.shape, complex), scratch)
        for c in np.concatenate([np.eye(m), -1j * np.eye(m)])
    ]
    mean = np.array([float(np.vdot(psi, q).real) for q in applied])
    cov = np.empty((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            # Re<Q_i psi | Q_j psi> is the symmetrised second moment
            cov[i, j] = cov[j, i] = float(np.vdot(applied[i], applied[j]).real)
    return cov - np.outer(mean, mean), mean


def fock_mean_photon(state: FockState, g: np.ndarray) -> float:
    """``<n(g)>``: squared norm of ``a(g) psi``."""
    psi = state.amplitudes
    low = _ladder(psi, _mode_coefficients(g, state.modes), np.zeros(state.modes),
                  np.empty(psi.shape, complex), np.empty(psi.shape, complex))
    return float(np.vdot(low, low).real)


def fock_truncated_correlation(state: FockState, modes) -> float:
    """Truncated correlation (joint cumulant) of ``Q(f_1) ... Q(f_n)``.

    Moments are fully symmetrised, so they are the moments of the Wigner
    distribution and match the closed-form route.  Polarisation as in the
    module docstring; patterns ``s`` and ``-s`` contribute equally, so
    ``s_1 = +1`` is fixed and the sum doubled.  Capacity bound ``n <= 6``.

    Raises:
        ValueError: empty mode list.
        DimensionError: a mode that does not match the state.
        CapacityError: order above 6.
    """
    n = len(modes)
    if n == 0:
        raise ValueError("a truncated correlation needs at least one mode")
    if n > 6:
        raise CapacityError("oracle cumulants support order <= 6")
    coeffs = np.array([_mode_coefficients(f, state.modes) for f in modes])
    psi = state.amplitudes
    half = (n + 1) // 2
    powers = [psi] + [np.empty(psi.shape, complex) for _ in range(half)]
    scratch = np.empty(psi.shape, complex)
    total = 0.0
    for rest in product((1.0, -1.0), repeat=n - 1):
        signs = (1.0,) + rest
        c = np.array(signs) @ coeffs
        for i in range(half):
            _ladder(powers[i], c, np.conj(c), powers[i + 1], scratch)
        mu = [float(np.vdot(powers[j // 2], powers[j - j // 2]).real)
              for j in range(n + 1)]
        kappa = [0.0] * (n + 1)
        for j in range(1, n + 1):
            kappa[j] = mu[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * mu[j - i]
                                   for i in range(1, j))
        total += math.prod(signs) * kappa[n]
    return 2.0 * total / (2.0**n * math.factorial(n))


def _rotated_amplitudes(state: FockState, g: np.ndarray) -> np.ndarray:
    """Amplitudes after the basis-completion interferometer of mode ``g``,
    which rotates ``g`` onto the first mode axis, as an ``(n, n^(m-1))``
    matrix: rows are axis 0's levels, columns the other axes' flat index."""
    c = np.array([_mode_coefficients(h, state.modes)
                  for h in complete_symplectic_basis(g)[0::2]])
    return apply_interferometer(state, c).amplitudes.reshape(state.cutoff, -1)


def mode_reduced_purity(state: FockState, g: np.ndarray) -> float:
    """Partial-trace purity of mode ``g``: rotate ``g`` onto the first mode
    axis, trace the rest."""
    amp = _rotated_amplitudes(state, g)
    rho = amp @ amp.conj().T
    return float(np.sum(np.abs(rho) ** 2).real)
