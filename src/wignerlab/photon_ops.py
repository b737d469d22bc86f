"""Single-photon addition and subtraction on multimode Gaussian states.

Adding or subtracting one photon in mode ``g`` of a zero-mean Gaussian state
with covariance ``V`` acts only through the plane matrix ``G = [g, Jg]``
(:func:`mode_plane`), and this module works on ``G`` throughout: no 2m x 2m
projector is formed.  The symmetrised two-point correlations change by a
rank-two positive matrix,

    A = 2 X X^T / tr(G^T X),   X = (V + s) G,   s = +1 add, -1 subtract,

and everything else in this module is a closed-form consequence of ``A``:

* truncated correlations (joint cumulants) of every even order ``2k``: as
  ``A = Y Y^T`` has rank two, ``(f_i, A f_j) = Re(conj(z_i) z_j)`` with
  ``z_i = (Y^T f_i)_1 + i (Y^T f_i)_2``, and the sum over pair partitions of
  their products is ``k! [x^k] prod_i (conj(z_i) + z_i x) / 2^k``; the
  largest eigenvalue ``w_1`` of ``A`` leaves the ``z_i`` as a factor
  ``w_1^k``, so that equal eigenvalues keep them exact,
* the characteristic function,
* the Wigner function of any base state, pure or mixed: the original Gaussian
  times one squared-norm bracket; for the state displaced by ``xi`` before
  the operation it reads

      W(b) = W_0(b - xi) [|K b - e|^2 - c0] / (tr(G^T V G) + |G^T xi|^2 + 2s),
      K = G^T (1 + s V^-1),   e = s G^T V^-1 xi,   c0 = tr(G^T V^-1 G) + 2s,

* a convex decomposition of mixed-state results into displaced pure-state
  Wigner functions with classical Gaussian weights, whose Monte-Carlo
  estimator evaluates that bracket for all sampled displacements at once.

Characteristic function, derivation of the closed form
------------------------------------------------------
The cumulant expansion of ``chi(alpha) = <exp(i Q(alpha))>`` reads
``chi = exp(sum_n i^n <Q(alpha)^n>_T / n!)``.  For the photon-added or
-subtracted state the truncated correlations with all arguments equal are

    <Q(alpha)^2>_T  = (alpha, (V + A) alpha),
    <Q(alpha)^2k>_T = (-1)^(k-1) (k-1)! (2k-1)!! (alpha, A alpha)^k,  k >= 2,

and odd orders vanish ((2k-1)!! counts the pair partitions of 2k slots).
Writing ``t = (alpha, A alpha) / 2`` and using ``i^2k = (-1)^k`` together
with ``(k-1)! (2k-1)!! / (2k)! = 1 / (k 2^k)``, the series collapses to

    sum_k>=1 -t^k / k = log(1 - t),

so that ``chi(alpha) = (1 - (alpha, A alpha)/2) exp(-(alpha, V alpha)/2)``.
The series only converges for ``(alpha, A alpha) < 2`` but the closed form is
entire and equals the characteristic function everywhere (it is the Fourier
transform of the Wigner function below); the Fock-space tests exercise it far
beyond the series radius, where it is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, SubtractionUndefinedError
from .gaussian import (
    GaussianState,
    gaussian_state,
    gaussian_wigner,
    quadratic_form,
    state_mode,
    state_points,
    validate_covariance,
    williamson,
)
from .phase_space import apply_j, as_mode, mode_plane

#: Largest correlation order :func:`truncated_correlation` evaluates; higher
#: orders come from the closed-form characteristic function.
MAX_CORRELATION_ORDER = 12

#: Mean photon number below which subtraction is treated as undefined.
SUBTRACTION_TOL = 1e-12

#: Eigenvalues at most this fraction of ``max(largest, 1)`` count as zero:
#: noise eigenvalues then span null directions, along which displacements are
#: deterministic (fixes the draws), and a correction matrix has rank two.
_NOISE_RANK_TOL = 1e-9

#: A displacement whose coordinate along a null direction of ``V_noise``
#: exceeds this (absolute, in amplitude units) leaves the noise range.  Not
#: ``_NOISE_RANK_TOL``: that one is relative and bounds eigenvalues (variances).
_RANGE_TOL = 1e-9

#: Points per block of :func:`mixture_reconstruction`: its ``(points, draws)``
#: temporaries stay about 1 MB at 2000 draws.
_MIXTURE_BLOCK = 64


@dataclass(frozen=True)
class PhotonOpSpec:
    """One photon operation: ``kind`` is "add" or "subtract", in mode ``g``."""

    kind: str
    mode: np.ndarray

    def __post_init__(self):
        if self.kind not in ("add", "subtract"):
            raise ValueError(f"kind must be 'add' or 'subtract', got {self.kind!r}")
        mode = as_mode(self.mode)
        if mode.ndim != 1:
            raise DimensionError("a photon operation acts on one mode vector")
        object.__setattr__(self, "mode", mode)

    @property
    def sign(self) -> int:
        return 1 if self.kind == "add" else -1


def add(g) -> PhotonOpSpec:
    """Photon addition in mode ``g``."""
    return PhotonOpSpec("add", g)


def subtract(g) -> PhotonOpSpec:
    """Photon subtraction from mode ``g``."""
    return PhotonOpSpec("subtract", g)


def mean_photon_number(v, g: np.ndarray):
    """Mean photon number of mode ``g``: ``(tr(G^T V G) - 2) / 4``, the
    ``nbar`` of :func:`~wignerlab.analysis.plane_scan`.

    ``g`` may be a stack of modes on leading axes, validated by one
    :func:`as_mode` call, which gives one value per mode; a subtraction scan
    checks all its first draws with one call.  Each mode's ``G^T V G`` is a
    matrix product of its own, so every value equals the call on that mode
    alone bit for bit (the rows of one product over the whole stack would
    not).  Returns a float for a single mode.
    """
    v = gaussian_state(v).v
    g = as_mode(g)
    if g.shape[-1] != len(v):
        raise DimensionError(f"modes of shape {g.shape} do not match 2m = {len(v)}")
    plane = mode_plane(g)
    r = np.swapaxes(plane, -1, -2) @ (v @ plane)
    nbar = (r[..., 0, 0] + r[..., 1, 1] - 2.0) / 4.0
    return float(nbar) if g.ndim == 1 else nbar


def require_photons(kind: str, nbar) -> None:
    """Refuse subtraction from modes with mean photon number ``nbar`` at most
    ``SUBTRACTION_TOL``; ``nbar`` is a quarter of ``tr((V + xi xi^T - 1) P)``."""
    if kind == "subtract" and np.min(nbar) <= SUBTRACTION_TOL:
        raise SubtractionUndefinedError(
            "subtraction undefined on vacuum mode: mean photon number "
            f"{float(np.min(nbar))!r} <= {SUBTRACTION_TOL}"
        )


def covariance_correction(v, op: PhotonOpSpec) -> np.ndarray:
    """The additive second-moment correction of the photon operation.

    Returns the symmetric positive-semidefinite rank-<=2 matrix
    ``2 X X^T / tr(G^T X)`` with ``X = (V + s) G``, ``G = [g, Jg]`` and
    ``s = op.sign``.

    Raises:
        SubtractionUndefinedError: subtracting from a mode with zero mean
            photon number (the normalisation would vanish).
    """
    v = gaussian_state(v).v
    plane = mode_plane(state_mode(op.mode, len(v)))
    x = v @ plane + op.sign * plane
    den = float(np.trace(plane.T @ x))
    require_photons(op.kind, den / 4.0)
    return 2.0 * (x @ x.T) / den


def output_covariance(v, op: PhotonOpSpec) -> np.ndarray:
    """Covariance of the photon-added/subtracted state: ``V + A``.

    Validated for physicality before returning.
    """
    state = gaussian_state(v)
    out = state.v + covariance_correction(state, op)
    validate_covariance(out)
    return out


def two_point_correlation(v, op: PhotonOpSpec, f1, f2) -> complex:
    """Operator-ordered two-point function ``<Q(f1) Q(f2)>`` after the op.

    Equals ``(f1, V f2) - i (f1, J f2) + (f1, A f2)``: the symmetrised
    Gaussian part, the commutator part fixed by the canonical commutation
    relations, and the photon-operation correction.
    """
    state = gaussian_state(v)
    f1, f2 = (state_mode(f, len(state.v)) for f in (f1, f2))
    a = covariance_correction(state, op)
    return complex(f1 @ state.v @ f2 + f1 @ a @ f2) - 1j * float(f1 @ apply_j(f2))


def truncated_correlation(a: np.ndarray, modes) -> float:
    """Truncated correlation ``<Q(f1) ... Q(fn)>_T`` of order ``n >= 3``.

    Odd orders vanish identically; for ``n = 2k`` the value is
    ``(-1)^(k-1) (k-1)! sum over pair partitions of prod (f_i, A f_j)``, in
    the closed form of the module docstring.  ``a`` is the correction matrix
    of the operation (see :func:`covariance_correction`).

    Raises:
        ValueError: for ``n < 3``, or when ``a`` has a third (or a negative)
            eigenvalue beyond ``_NOISE_RANK_TOL`` of ``max(|w|, 1)``.
        CapacityError: for ``n > MAX_CORRELATION_ORDER``; higher orders are
            available through the closed-form characteristic function.
    """
    a = np.asarray(a, dtype=float)
    fs = [state_mode(f, len(a)) for f in modes]
    n = len(fs)
    if n < 3:
        raise ValueError("truncated correlations are defined here for n >= 3")
    if n % 2:
        return 0.0
    if n > MAX_CORRELATION_ORDER:
        raise CapacityError(
            f"order {n} exceeds the correlation order bound {MAX_CORRELATION_ORDER}"
        )
    w, u = np.linalg.eigh(a)
    tol = _NOISE_RANK_TOL * max(np.max(np.abs(w)), 1.0)
    if np.any(np.abs(w[:-2]) > tol) or w[-2] < -tol:
        raise ValueError("correction matrix is not positive semidefinite of rank two")
    w1 = w[-1] if w[-1] > 0.0 else 1.0  # a zero matrix has no scale to factor out
    y = np.array(fs) @ (u[:, -2:] * np.sqrt(np.maximum(w[-2:], 0.0) / w1))
    poly = np.ones(1)
    for z in y[:, 0] + 1j * y[:, 1]:
        poly = np.convolve(poly, [z.conjugate(), z])
    k = n // 2
    haf = math.factorial(k) * poly[k].real * (w1 / 2.0) ** k
    return float((-1.0) ** (k - 1) * math.factorial(k - 1) * haf)


def characteristic_function(v, op: PhotonOpSpec, alpha) -> np.ndarray:
    """Closed-form characteristic function (derivation in module docstring).

    ``chi(alpha) = (1 - (alpha, A alpha)/2) exp(-(alpha, V alpha)/2)``.
    Real for the zero-mean states handled here; ``alpha`` may be batched on
    leading axes.
    """
    state = gaussian_state(v)
    v, a = state.v, covariance_correction(state, op)
    alpha = state_points(alpha, len(v), "alpha")
    qa, qv = quadratic_form(alpha, a), quadratic_form(alpha, v)
    val = (1.0 - 0.5 * qa) * np.exp(-0.5 * qv)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class PolyGaussianWigner:
    """Wigner function of the form ``(b.M b + lin.b + const) N(b; mean, cov)``.

    ``N`` is the normalised Gaussian with the stored covariance and mean.
    ``cov`` takes an array or a :class:`GaussianState`; the object keeps that
    state as ``state``, past the entry gate at construction, so that every
    evaluation shares one ``V^-1`` and ``log det V``, and ``cov`` reads back
    its symmetrised matrix.  The class is closed under marginalisation to a
    mode plane and represents both the photon-added/subtracted Wigner function
    and its displaced variants exactly.
    """

    quad: np.ndarray
    lin: np.ndarray
    const: float
    cov: np.ndarray
    mean: np.ndarray
    state: GaussianState = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "state", gaussian_state(self.cov))
        object.__setattr__(self, "cov", self.state.v)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def normalization_defect(self) -> float:
        """``E[b.M b + lin.b + const] - 1`` under the base Gaussian.

        Zero (to rounding) for every object built by this package; the total
        integral of the represented function is ``1 + defect``.
        """
        mu = self.mean
        expect = (
            float(np.trace(self.quad @ self.cov))
            + float(mu @ self.quad @ mu)
            + float(self.lin @ mu)
            + self.const
        )
        return expect - 1.0

    def translate(self, xi: np.ndarray) -> "PolyGaussianWigner":
        """Rigid translation: the result evaluates at ``b`` to ``self(b - xi)``.

        Shifts the base mean and recentres the polynomial accordingly.
        """
        xi = state_points(xi, self.dim, "displacement xi", one=True)
        return PolyGaussianWigner(
            quad=self.quad,
            lin=self.lin - 2.0 * self.quad @ xi,
            const=self.const - float(self.lin @ xi) + float(xi @ self.quad @ xi),
            cov=self.state,
            mean=self.mean + xi,
        )

    def __call__(self, beta):
        return evaluate_wigner(self, beta)


def _wigner_factors(w: PolyGaussianWigner, beta) -> tuple[np.ndarray, np.ndarray]:
    """The polynomial factor ``b.M b + lin.b + const`` and the Gaussian factor
    ``N(b; mean, cov)`` of ``w`` at ``beta``, batched over leading axes; the
    Wigner value is their product; the points pass their gate in
    :func:`gaussian_wigner`."""
    gauss = gaussian_wigner(w.state, beta, mean=w.mean)
    beta = np.asarray(beta, dtype=float)
    return quadratic_form(beta, w.quad) + beta @ w.lin + w.const, gauss


def evaluate_wigner(w: PolyGaussianWigner, beta) -> np.ndarray:
    """Evaluate a polynomial-times-Gaussian Wigner function at ``beta``.

    Batched over leading axes of ``beta``.
    """
    poly, gauss = _wigner_factors(w, beta)
    val = poly * gauss
    return val if val.ndim else float(val)


def poly_wigner_moments(w: PolyGaussianWigner) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the quasi-distribution a poly-Gaussian represents.

    With the polynomial recentred on the base mean (``b~ = lin + 2 M mean``,
    ``c~`` the recentred constant) the Gaussian moment identities give

        mean = base_mean E[q] + V b~,
        second moment = ... + V tr(MV) + 2 V M V + c~ V,

    and for the undisplaced photon-op Wigner function this reproduces
    ``V + A`` exactly.
    """
    mu, v, m_mat = w.mean, w.cov, w.quad
    b_c = w.lin + 2.0 * m_mat @ mu
    c_c = float(mu @ m_mat @ mu) + float(w.lin @ mu) + w.const
    tr_mv = float(np.trace(m_mat @ v))
    total = tr_mv + c_c  # E[q], one for a normalised object
    vb = v @ b_c
    mean = mu * total + vb
    second = (
        np.outer(mu, mu) * total
        + np.outer(mu, vb)
        + np.outer(vb, mu)
        + v * tr_mv
        + 2.0 * v @ m_mat @ v
        + c_c * v
    )
    return mean, second - np.outer(mean, mean)


def nongaussian_wigner(v, op: PhotonOpSpec) -> PolyGaussianWigner:
    """Wigner function of the photon-added or -subtracted Gaussian state.

    ``W(b) = 1/2 [ (b, V^-1 A V^-1 b) - tr(V^-1 A) + 2 ] W0(b)`` with ``W0``
    the Wigner function of the initial state.  The quadratic part is positive
    semidefinite, so the bracket is smallest at the origin.  Built as the
    undisplaced case of :func:`displaced_poly_wigner`, for any covariance.
    """
    return displaced_poly_wigner(v, np.zeros(op.mode.size), op)


def decompose_pure_noise(v) -> tuple[np.ndarray, np.ndarray]:
    """Split ``V = V_pure + V_noise`` along the Williamson normal form.

    ``V_pure = S S^T`` is a pure squeezed covariance (det 1) and
    ``V_noise = S (diag(nu) - 1) S^T`` is positive-semidefinite classical
    noise, zero exactly when ``V`` is pure.
    """
    wl = williamson(v)
    v_pure = wl.s @ wl.s.T
    excess = np.concatenate([wl.nu, wl.nu]) - 1.0
    v_noise = (wl.s * excess) @ wl.s.T
    return 0.5 * (v_pure + v_pure.T), 0.5 * (v_noise + v_noise.T)


def _plane_bracket(state: GaussianState, plane: np.ndarray, s: float):
    """Factors of the bracket ``|K b - e|^2 - c0`` of an op of sign ``s`` on
    the plane ``G``: ``K = G^T (1 + s V^-1)``, ``c0 = tr(G^T V^-1 G) + 2s`` and
    the map ``E = s V^-1 G`` giving ``e = xi @ E`` for one ``xi`` or a batch;
    ``V^-1`` is the state's own."""
    v_inv_g = state.inv @ plane
    k = plane.T + s * v_inv_g.T
    return k, float(np.trace(plane.T @ v_inv_g)) + 2.0 * s, s * v_inv_g


def _noise_spectrum(v_noise: np.ndarray):
    """Eigenpairs ``(w, u)`` of ``V_noise`` and the mask of its range, the
    eigenvalues above ``_NOISE_RANK_TOL`` times ``max(w_max, 1)``."""
    w, u = np.linalg.eigh(v_noise)
    return w, u, w > max(w[-1], 1.0) * _NOISE_RANK_TOL


def displaced_poly_wigner(v_base, xi: np.ndarray, op: PhotonOpSpec) -> PolyGaussianWigner:
    """Wigner function of a photon op on a displaced Gaussian state.

    The state is displaced by ``xi`` before the photon is added to or
    subtracted from mode ``g``; with ``G = [g, Jg]`` the result is exactly
    the base Gaussian times one squared norm on the plane,

        W(b) = W_base(b - xi) [ |K b - e|^2 - c0 ]
               / (tr(G^T V G) + |G^T xi|^2 + 2s),
        K = G^T (1 + s V^-1),  e = s G^T V^-1 xi,  c0 = tr(G^T V^-1 G) + 2s,

    expanded as ``quad = K^T K / d``, ``lin = -2 K^T e / d``, ``const =
    (|e|^2 - c0) / d``; :func:`nongaussian_wigner` is the case ``xi = 0``.
    The formula holds for any base covariance, pure or mixed; on a pure base
    it is one term of the convex mixture of :func:`mixture_reconstruction`.

    Raises:
        SubtractionUndefinedError: if the normalisation trace vanishes
            (subtracting from an undisplaced vacuum mode).
    """
    state = gaussian_state(v_base)
    v = state.v
    plane = mode_plane(state_mode(op.mode, len(v)))
    xi = state_points(xi, len(v), "displacement xi", one=True)
    s = float(op.sign)
    xi_g = xi @ plane
    den = float(np.trace(plane.T @ v @ plane) + xi_g @ xi_g) + 2.0 * s
    require_photons(op.kind, den / 4.0)

    k, c0, e_map = _plane_bracket(state, plane, s)
    e = xi @ e_map
    return PolyGaussianWigner(
        quad=k.T @ k / den, lin=-2.0 * (e @ k) / den,
        const=(float(e @ e) - c0) / den, cov=state, mean=np.array(xi),
    )


def displacement_density(
    v_pure: np.ndarray, v_noise: np.ndarray, xi: np.ndarray, op: PhotonOpSpec
) -> np.ndarray:
    """Classical probability density of displacements in the convex mixture.

    For ``V = V_pure + V_noise`` the photon-added/subtracted state is the
    mixture over ``xi`` of the displaced pure results, weighted by

        p(xi) = (tr(G^T V_pure G) + |G^T xi|^2 + 2s) N(xi; 0, V_noise)
                / (tr(G^T V G) + 2s),

    with ``G = [g, Jg]``, which is nonnegative and integrates to one.  ``xi``
    may be batched on leading axes.

    The density lives on the range of ``V_noise``, the one
    :func:`mixture_reconstruction` samples: its null directions (eigenvalues
    at most ``_NOISE_RANK_TOL`` of the largest) are deterministic, and any
    ``xi`` leaving the range has density zero.
    """
    v_pure = gaussian_state(v_pure).v
    v_noise = gaussian_state(v_noise).v
    s = float(op.sign)
    plane = mode_plane(state_mode(op.mode, len(v_pure)))
    xi = state_points(xi, len(v_pure), "displacement xi")
    if v_noise.shape != v_pure.shape:
        raise DimensionError("noise dimension does not match the pure part")
    squeeze = xi.ndim == 1
    xi2 = np.atleast_2d(xi)

    w, u, pos = _noise_spectrum(v_noise)
    rank = int(pos.sum())
    coords = xi2 @ u  # components along the eigenbasis
    in_range = np.max(np.abs(coords[:, ~pos]), axis=1, initial=0.0) <= _RANGE_TOL

    quad = np.einsum("ni,i->n", coords[:, pos] ** 2, 1.0 / w[pos])
    log_norm = 0.5 * (rank * np.log(2.0 * np.pi) + np.log(w[pos]).sum())
    gauss = np.exp(-0.5 * quad - log_norm)

    xi_g = xi2 @ plane
    tr_ps = float(np.trace(plane.T @ v_pure @ plane)) + 2.0 * s
    num = (tr_ps + (xi_g * xi_g).sum(axis=1)) * gauss
    den = float(np.trace(plane.T @ (v_pure + v_noise) @ plane)) + 2.0 * s
    require_photons(op.kind, den / 4.0)
    out = np.where(in_range, num / den, 0.0)
    return float(out[0]) if squeeze else out


@dataclass(frozen=True)
class MixtureEstimate:
    """Monte-Carlo estimate of Wigner values from the convex decomposition."""

    values: np.ndarray
    std_errors: np.ndarray
    n_samples: int


def mixture_reconstruction(
    v, op: PhotonOpSpec, beta, n_samples: int, seed
) -> MixtureEstimate:
    """Monte-Carlo reconstruction of the Wigner function from the mixture.

    Splits ``V`` into pure part and classical noise, importance-samples
    displacements from the Gaussian noise, and averages the displaced-state
    Wigner values.  The importance weight is the trace ratio of
    :func:`displacement_density` against the sampling Gaussian, which cancels
    the per-sample normalisation trace, so each sample contributes

        W_pure(b - xi) [ |K b - e_xi|^2 - c0 ] / (tr(G^T V G) + 2s)

    with the bracket factors ``K``, ``e_xi`` and ``c0`` of
    :func:`displaced_poly_wigner` on ``V_pure``.  The estimate is the sample
    mean and its standard error ``std(ddof=1) / sqrt(n_samples)``, evaluated
    for every point against every draw as blocked matrix products: with
    ``P = V_pure^-1``, ``(b - xi).P(b - xi) = b.P b - 2 (P b).xi + xi.P xi``
    and ``|K b - e|^2 = |K b|^2 - 2 (K b).e + |e|^2``, so a block of
    ``_MIXTURE_BLOCK`` points costs two GEMMs, against the draws' ``P xi``
    and ``e``.  Deterministic per seed; ``beta`` may be a single point or a
    batch.  For a pure input the mixture is a single point and the exact
    value is returned with zero standard error.

    Raises:
        ValueError: for ``n_samples < 2``, which leaves no standard error.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    state = gaussian_state(v)
    dim = state.v.shape[0]
    plane = mode_plane(state_mode(op.mode, dim))
    beta = state_points(beta, dim)
    squeeze = beta.ndim == 1
    pts = np.atleast_2d(beta)

    v_pure, v_noise = decompose_pure_noise(state)
    pure = gaussian_state(v_pure)  # one inverse for every point
    w, u, pos = _noise_spectrum(v_noise)
    if not pos.any():
        values = nongaussian_wigner(pure, op)(pts)
        errors = np.zeros(len(pts))
    else:
        s = float(op.sign)
        den = float(np.trace(plane.T @ state.v @ plane)) + 2.0 * s
        require_photons(op.kind, den / 4.0)
        z = np.random.default_rng(seed).standard_normal((n_samples, int(pos.sum())))
        xis = (z * np.sqrt(w[pos])) @ u[:, pos].T
        k, c0, e_map = _plane_bracket(pure, plane, s)
        e = xis @ e_map
        xi_p = xis @ pure.inv
        xi_quad, e_sq = (xi_p * xis).sum(axis=1), (e * e).sum(axis=1)
        log_norm = -0.5 * pure.logdet - 0.5 * dim * np.log(2.0 * np.pi)  # of W_pure
        values, errors = np.empty(len(pts)), np.empty(len(pts))
        for start in range(0, len(pts), _MIXTURE_BLOCK):
            blk = slice(start, start + _MIXTURE_BLOCK)
            b = pts[blk]
            kb = b @ k.T
            quad = quadratic_form(b, pure.inv)[:, None] - 2.0 * (b @ xi_p.T) + xi_quad
            bracket = (kb * kb).sum(axis=1)[:, None] - 2.0 * (kb @ e.T) + (e_sq - c0)
            samples = np.exp(log_norm - 0.5 * quad) * bracket / den
            values[blk] = samples.mean(axis=1)
            errors[blk] = samples.std(axis=1, ddof=1) / np.sqrt(n_samples)
    if squeeze:
        return MixtureEstimate(float(values[0]), float(errors[0]), n_samples)
    return MixtureEstimate(values=values, std_errors=errors, n_samples=n_samples)
