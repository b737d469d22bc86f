"""Single-photon addition and subtraction on multimode Gaussian states.

Adding or subtracting one photon in mode ``g`` of a zero-mean Gaussian state
with covariance ``V`` changes the symmetrised two-point correlations by a
rank-two positive matrix,

    A = 2 (V + s) P (V + s) / tr((V + s) P),     s = +1 add, -1 subtract,

where ``P`` projects onto the plane of ``g``.  Everything else in this module
is a closed-form consequence of ``A``:

* truncated correlations (joint cumulants) of every even order,
* the characteristic function,
* the Wigner function, an explicit quadratic polynomial times the original
  Gaussian,
* a convex decomposition of mixed-state results into displaced pure-state
  Wigner functions with classical Gaussian weights.

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    CovarianceError,
    DimensionError,
    SubtractionUndefinedError,
)
from .gaussian import (
    _check_symmetric,
    gaussian_wigner,
    is_pure,
    validate_covariance,
    williamson,
)
from .phase_space import apply_j, as_mode, mode_projector

#: Largest even correlation order enumerated exactly; 12 slots already mean
#: 10395 pair partitions and the count grows as (2k-1)!!.
MAX_CORRELATION_ORDER = 12

#: Mean photon number below which subtraction is treated as undefined.
SUBTRACTION_TOL = 1e-12


@dataclass(frozen=True)
class PhotonOpSpec:
    """One photon operation: ``kind`` is "add" or "subtract", in mode ``g``."""

    kind: str
    mode: np.ndarray

    def __post_init__(self):
        if self.kind not in ("add", "subtract"):
            raise ValueError(f"kind must be 'add' or 'subtract', got {self.kind!r}")
        object.__setattr__(self, "mode", as_mode(self.mode))

    @property
    def sign(self) -> int:
        return 1 if self.kind == "add" else -1


def add(g) -> PhotonOpSpec:
    """Photon addition in mode ``g``."""
    return PhotonOpSpec("add", g)


def subtract(g) -> PhotonOpSpec:
    """Photon subtraction from mode ``g``."""
    return PhotonOpSpec("subtract", g)


def mean_photon_number(v: np.ndarray, g: np.ndarray) -> float:
    """Mean photon number of mode ``g``: ``tr((V - 1) P) / 4``."""
    v = _check_symmetric(v)
    g = as_mode(g)
    jg = apply_j(g)
    return float((g @ v @ g + jg @ v @ jg - 2.0) / 4.0)


def require_photons(kind: str, nbar) -> None:
    """Refuse subtraction from modes with mean photon number ``nbar`` at most
    ``SUBTRACTION_TOL``; ``nbar`` is a quarter of ``tr((V + xi xi^T - 1) P)``."""
    if kind == "subtract" and np.min(nbar) <= SUBTRACTION_TOL:
        raise SubtractionUndefinedError(
            "subtraction undefined on vacuum mode: mean photon number "
            f"{float(np.min(nbar))!r} <= {SUBTRACTION_TOL}"
        )


def covariance_correction(v: np.ndarray, op: PhotonOpSpec) -> np.ndarray:
    """The additive second-moment correction of the photon operation.

    Returns the symmetric positive-semidefinite rank-<=2 matrix
    ``2 (V + s) P (V + s) / tr((V + s) P)`` with ``s = op.sign``.

    Raises:
        SubtractionUndefinedError: subtracting from a mode with zero mean
            photon number (the normalisation would vanish).
    """
    v = _check_symmetric(v)
    if op.mode.size != v.shape[0]:
        raise DimensionError("operation mode and covariance dimensions differ")
    jg = apply_j(op.mode)
    den = float(op.mode @ v @ op.mode + jg @ v @ jg + 2.0 * op.sign)
    require_photons(op.kind, den / 4.0)
    vp = v + op.sign * np.eye(v.shape[0])
    num = 2.0 * vp @ mode_projector(op.mode) @ vp
    a = num / den
    return 0.5 * (a + a.T)


def output_covariance(v: np.ndarray, op: PhotonOpSpec) -> np.ndarray:
    """Covariance of the photon-added/subtracted state: ``V + A``.

    Validated for physicality before returning.
    """
    out = _check_symmetric(v) + covariance_correction(v, op)
    validate_covariance(out)
    return out


def two_point_correlation(v, op: PhotonOpSpec, f1, f2) -> complex:
    """Operator-ordered two-point function ``<Q(f1) Q(f2)>`` after the op.

    Equals ``(f1, V f2) - i (f1, J f2) + (f1, A f2)``: the symmetrised
    Gaussian part, the commutator part fixed by the canonical commutation
    relations, and the photon-operation correction.
    """
    f1 = as_mode(f1)
    f2 = as_mode(f2)
    a = covariance_correction(v, op)
    return complex(f1 @ v @ f2 + f1 @ a @ f2) - 1j * float(f1 @ apply_j(f2))


def _pair_partition_sum(gram: np.ndarray, items: list[int]) -> float:
    if not items:
        return 1.0
    first = items[0]
    rest = items[1:]
    total = 0.0
    for i, partner in enumerate(rest):
        total += gram[first, partner] * _pair_partition_sum(
            gram, rest[:i] + rest[i + 1 :]
        )
    return total


def truncated_correlation(a: np.ndarray, modes) -> float:
    """Truncated correlation ``<Q(f1) ... Q(fn)>_T`` of order ``n >= 3``.

    Odd orders vanish identically; for ``n = 2k`` the value is
    ``(-1)^(k-1) (k-1)! sum over pair partitions of prod (f_i, A f_j)``,
    enumerated exactly.  ``a`` is the correction matrix of the operation
    (see :func:`covariance_correction`).

    Raises:
        CapacityError: for ``n > MAX_CORRELATION_ORDER``; higher orders are
            available through the closed-form characteristic function.
    """
    a = np.asarray(a, dtype=float)
    fs = [as_mode(f) for f in modes]
    n = len(fs)
    if n < 3:
        raise ValueError("truncated correlations are defined here for n >= 3")
    if n % 2:
        return 0.0
    if n > MAX_CORRELATION_ORDER:
        raise CapacityError(
            f"order {n} exceeds the exact enumeration bound {MAX_CORRELATION_ORDER}"
        )
    k = n // 2
    gram = np.array([[f1 @ a @ f2 for f2 in fs] for f1 in fs])
    total = _pair_partition_sum(gram, list(range(n)))
    return float((-1.0) ** (k - 1) * math.factorial(k - 1) * total)


def characteristic_function(v, op: PhotonOpSpec, alpha) -> np.ndarray:
    """Closed-form characteristic function (derivation in module docstring).

    ``chi(alpha) = (1 - (alpha, A alpha)/2) exp(-(alpha, V alpha)/2)``.
    Real for the zero-mean states handled here; ``alpha`` may be batched on
    leading axes.
    """
    v = _check_symmetric(v)
    a = covariance_correction(v, op)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1] != v.shape[0]:
        raise DimensionError("alpha dimension does not match the state")
    qa = np.einsum("...i,ij,...j->...", alpha, a, alpha)
    qv = np.einsum("...i,ij,...j->...", alpha, v, alpha)
    val = (1.0 - 0.5 * qa) * np.exp(-0.5 * qv)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class PolyGaussianWigner:
    """Wigner function of the form ``(b.M b + lin.b + const) N(b; mean, cov)``.

    ``N`` is the normalised Gaussian with the stored covariance and mean.
    The class is closed under marginalisation to a mode plane and represents
    both the photon-added/subtracted Wigner function and its displaced
    variants exactly.
    """

    quad: np.ndarray
    lin: np.ndarray
    const: float
    cov: np.ndarray
    mean: np.ndarray

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
        xi = np.asarray(xi, dtype=float)
        return PolyGaussianWigner(
            quad=self.quad,
            lin=self.lin - 2.0 * self.quad @ xi,
            const=self.const - float(self.lin @ xi) + float(xi @ self.quad @ xi),
            cov=self.cov,
            mean=self.mean + xi,
        )

    def __call__(self, beta):
        return evaluate_wigner(self, beta)


def evaluate_wigner(w: PolyGaussianWigner, beta) -> np.ndarray:
    """Evaluate a polynomial-times-Gaussian Wigner function at ``beta``.

    Batched over leading axes of ``beta``.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] != w.dim:
        raise DimensionError(
            f"point dimension {beta.shape[-1]} does not match {w.dim}"
        )
    quad = np.einsum("...i,ij,...j->...", beta, w.quad, beta)
    lin = beta @ w.lin
    gauss = gaussian_wigner(w.cov, beta, mean=w.mean)
    val = (quad + lin + w.const) * gauss
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


def nongaussian_wigner(v: np.ndarray, op: PhotonOpSpec) -> PolyGaussianWigner:
    """Wigner function of the photon-added or -subtracted Gaussian state.

    ``W(b) = 1/2 [ (b, V^-1 A V^-1 b) - tr(V^-1 A) + 2 ] W0(b)`` with ``W0``
    the Wigner function of the initial state.  The quadratic part is positive
    semidefinite, so the bracket is smallest at the origin.
    """
    v = _check_symmetric(v)
    a = covariance_correction(v, op)
    v_inv = np.linalg.inv(v)
    quad = 0.5 * v_inv @ a @ v_inv
    quad = 0.5 * (quad + quad.T)
    const = 0.5 * (2.0 - float(np.trace(v_inv @ a)))
    return PolyGaussianWigner(
        quad=quad,
        lin=np.zeros(v.shape[0]),
        const=const,
        cov=v,
        mean=np.zeros(v.shape[0]),
    )


def decompose_pure_noise(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def displaced_poly_wigner(
    v_base: np.ndarray,
    xi: np.ndarray,
    op: PhotonOpSpec,
    allow_mixed_base: bool = False,
) -> PolyGaussianWigner:
    """Wigner function of a photon op on a displaced Gaussian state.

    The state is displaced by ``xi`` before the photon is added to or
    subtracted from mode ``g``; the result is exactly

        W(b) = W_base(b - xi) / tr((V + xi xi^T + s) P) *
               [ |P (1 + s V^-1)(b - xi)|^2
                 + 2 (xi, P (1 + s V^-1)(b - xi))
                 + (xi, P xi) - tr(P V^-1) - 2 s ]

    which reduces to :func:`nongaussian_wigner` at ``xi = 0``.  The base
    covariance must be pure unless ``allow_mixed_base`` is set; the formula
    itself is valid for any covariance, but only the pure case carries the
    convex-decomposition semantics used elsewhere in the package.

    Raises:
        SubtractionUndefinedError: if the normalisation trace vanishes
            (subtracting from an undisplaced vacuum mode).
    """
    v = _check_symmetric(v_base)
    if not (allow_mixed_base or is_pure(v)):
        raise CovarianceError("pure base covariance required")
    dim = v.shape[0]
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dim,):
        raise DimensionError("displacement dimension does not match the state")
    s = float(op.sign)
    p = mode_projector(op.mode)
    v_inv = np.linalg.inv(v)
    tr_pv = float(np.trace(p @ v))
    tr_pvinv = float(np.trace(p @ v_inv))
    xi_p_xi = float(xi @ p @ xi)

    den = tr_pv + xi_p_xi + 2.0 * s
    require_photons(op.kind, den / 4.0)

    grad = p @ (np.eye(dim) + s * v_inv)
    gtg = grad.T @ grad
    quad = gtg / den
    lin = (2.0 * grad.T @ xi - 2.0 * gtg @ xi) / den
    const = (
        float(xi @ gtg @ xi) - 2.0 * float(xi @ grad @ xi)
        + xi_p_xi - tr_pvinv - 2.0 * s
    ) / den
    return PolyGaussianWigner(
        quad=0.5 * (quad + quad.T), lin=lin, const=const, cov=v, mean=np.array(xi)
    )


def displaced_wigner(v_base, xi, op: PhotonOpSpec, beta,
                     allow_mixed_base: bool = False) -> np.ndarray:
    """Evaluate :func:`displaced_poly_wigner` at ``beta`` (batched)."""
    return evaluate_wigner(
        displaced_poly_wigner(v_base, xi, op, allow_mixed_base=allow_mixed_base), beta
    )


def displacement_density(
    v_pure: np.ndarray,
    v_noise: np.ndarray,
    xi: np.ndarray,
    op: PhotonOpSpec,
    restrict_to_range: bool = False,
) -> np.ndarray:
    """Classical probability density of displacements in the convex mixture.

    For ``V = V_pure + V_noise`` the photon-added/subtracted state is the
    mixture over ``xi`` of the displaced pure results, weighted by

        p(xi) = tr((V_pure + xi xi^T + s) P) N(xi; 0, V_noise)
                / tr((V + s) P),

    which is nonnegative and integrates to one.  ``xi`` may be batched on
    leading axes.

    ``V_noise`` must be positive definite; with ``restrict_to_range`` the
    density is taken on the range of ``V_noise`` instead (null directions are
    deterministic, and any ``xi`` leaving the range has density zero).
    """
    v_pure = _check_symmetric(v_pure)
    v_noise = _check_symmetric(v_noise)
    dim = v_pure.shape[0]
    s = float(op.sign)
    p = mode_projector(op.mode)
    xi = np.asarray(xi, dtype=float)
    squeeze = xi.ndim == 1
    xi2 = np.atleast_2d(xi)

    w, u = np.linalg.eigh(v_noise)
    pos = w > max(w[-1], 1.0) * 1e-12
    if not pos.all() and not restrict_to_range:
        raise CovarianceError(
            "noise covariance is singular; pass restrict_to_range=True to "
            "evaluate the density on its range"
        )
    rank = int(pos.sum())
    coords = xi2 @ u  # components along the eigenbasis
    if rank < dim:
        off = np.max(np.abs(coords[:, ~pos]), axis=1, initial=0.0)
        in_range = off <= 1e-9
    else:
        in_range = np.ones(len(xi2), dtype=bool)

    quad = np.einsum("ni,i->n", coords[:, pos] ** 2, 1.0 / w[pos])
    log_norm = 0.5 * (rank * np.log(2.0 * np.pi) + np.log(w[pos]).sum())
    gauss = np.exp(-0.5 * quad - log_norm)

    tr_ps = float(np.trace(p @ v_pure)) + 2.0 * s
    num = (tr_ps + np.einsum("ni,ij,nj->n", xi2, p, xi2)) * gauss
    den = float(np.trace(p @ (v_pure + v_noise))) + 2.0 * s
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
    v: np.ndarray, op: PhotonOpSpec, beta, n_samples: int, seed
) -> MixtureEstimate:
    """Monte-Carlo reconstruction of the Wigner function from the mixture.

    Splits ``V`` into pure part and classical noise, importance-samples
    displacements from the Gaussian noise, and averages the displaced-state
    Wigner values.  The importance weight is the trace ratio of
    :func:`displacement_density` against the sampling Gaussian, which cancels
    the per-sample normalisation trace, so each sample contributes

        W_base(b - xi) [t1 + t2 + t3] / tr((V + s) P)

    with the bracket of :func:`displaced_poly_wigner`.  Deterministic per
    seed; ``beta`` may be a single point or a batch.  For a pure input the
    mixture is a single point and the exact value is returned with zero
    standard error.
    """
    v = _check_symmetric(v)
    dim = v.shape[0]
    beta = np.asarray(beta, dtype=float)
    squeeze = beta.ndim == 1
    pts = np.atleast_2d(beta)
    if pts.shape[-1] != dim:
        raise DimensionError("point dimension does not match the state")

    v_pure, v_noise = decompose_pure_noise(v)
    w, u = np.linalg.eigh(v_noise)
    pos = w > max(w[-1], 1.0) * 1e-9
    if not pos.any():
        vals = displaced_wigner(v_pure, np.zeros(dim), op, pts)
        est = MixtureEstimate(
            values=np.atleast_1d(vals), std_errors=np.zeros(len(pts)),
            n_samples=n_samples,
        )
        return _squeeze_estimate(est, squeeze)

    s = float(op.sign)
    p = mode_projector(op.mode)
    den = float(np.trace(p @ v)) + 2.0 * s
    require_photons(op.kind, den / 4.0)

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, int(pos.sum())))
    xis = (z * np.sqrt(w[pos])) @ u[:, pos].T

    v_inv = np.linalg.inv(v_pure)
    grad = p @ (np.eye(dim) + s * v_inv)
    tr_pvinv = float(np.trace(p @ v_inv))
    t3 = np.einsum("ni,ij,nj->n", xis, p, xis) - tr_pvinv - 2.0 * s

    values = np.empty(len(pts))
    errors = np.empty(len(pts))
    for i, pt in enumerate(pts):
        delta = pt - xis
        y = delta @ grad.T
        bracket = np.einsum("ni,ni->n", y, y) + 2.0 * np.einsum(
            "ni,ni->n", xis, y
        ) + t3
        gauss = gaussian_wigner(v_pure, delta)
        samples = gauss * bracket / den
        values[i] = samples.mean()
        errors[i] = samples.std(ddof=1) / np.sqrt(n_samples)
    est = MixtureEstimate(values=values, std_errors=errors, n_samples=n_samples)
    return _squeeze_estimate(est, squeeze)


def _squeeze_estimate(est: MixtureEstimate, squeeze: bool) -> MixtureEstimate:
    if not squeeze:
        return est
    return MixtureEstimate(
        values=float(est.values[0]),
        std_errors=float(est.std_errors[0]),
        n_samples=est.n_samples,
    )
