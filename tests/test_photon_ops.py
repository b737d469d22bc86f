"""Closed forms of the photon-added/subtracted state against independent routes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import grid2d, integrate2d, plane_points, random_case
from wignerlab import fock, gaussian, photon_ops
from wignerlab.errors import (
    CapacityError,
    CovarianceError,
    DimensionError,
    ModeValidationError,
    SubtractionUndefinedError,
)
from wignerlab.gaussian import (
    gaussian_purity,
    gaussian_state,
    gaussian_wigner,
    random_mixed_cov,
    random_orthogonal_symplectic,
    random_pure_squeezed_cov,
    validate_covariance,
)
from wignerlab.phase_space import (
    apply_j,
    complete_symplectic_basis,
    mode_projector,
    random_mode,
)
from wignerlab.photon_ops import (
    _MIXTURE_BLOCK,
    _NOISE_RANK_TOL,
    PhotonOpSpec,
    PolyGaussianWigner,
    add,
    characteristic_function,
    covariance_correction,
    decompose_pure_noise,
    displaced_poly_wigner,
    displacement_density,
    evaluate_wigner,
    mean_photon_number,
    mixture_reconstruction,
    nongaussian_wigner,
    output_covariance,
    poly_wigner_moments,
    subtract,
    truncated_correlation,
    two_point_correlation,
)

X1 = np.array([1.0, 0.0])
SQ = np.diag([0.5, 2.0])
TWO_PI = 2.0 * np.pi


class TestMeanPhotonNumber:
    def test_vacuum(self):
        assert mean_photon_number(np.eye(4), random_mode(2, 1)) == pytest.approx(0.0)

    def test_squeezed(self):
        # sinh^2(r) with e^{-2r} = 0.5
        assert mean_photon_number(SQ, X1) == pytest.approx(0.125)

    def test_thermal(self):
        assert mean_photon_number(3.0 * np.eye(2), X1) == pytest.approx(1.0)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 16),
        n=st.integers(1, 40),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_row_calls(self, m, n, mixed, seed):
        # 2m = 18 and 26 are sizes where rows of one BLAS product over the
        # stack differ in the last bit from the products of single rows
        rng = np.random.default_rng(seed)
        v = random_mixed_cov(m, rng, max_squeezing_db=7.0, max_thermal=2.0 if mixed else 1.0)
        modes = rng.standard_normal((n, 2 * m))
        modes /= np.linalg.norm(modes, axis=1)[:, None]
        stack = mean_photon_number(v, modes)
        assert stack.shape == (n,)
        assert stack.tobytes() == np.array([mean_photon_number(v, g) for g in modes]).tobytes()
        grid = mean_photon_number(v, modes[None, :, :])
        assert grid.tobytes() == stack.tobytes()

    @pytest.mark.parametrize("modes", [np.eye(6)[:2], np.eye(2)[:, :1], np.ones(4)])
    def test_stack_shape_checked(self, modes):
        with pytest.raises((DimensionError, ModeValidationError)):
            mean_photon_number(np.eye(4), modes)

    @pytest.mark.parametrize("reader", [
        lambda g: photon_ops.PhotonOpSpec("add", g),
        lambda g: gaussian.state_mode(g, 4),
        lambda g: photon_ops.two_point_correlation(np.eye(4), add(X1 @ np.eye(2, 4)), g, g),
        lambda g: fock._mode_coefficients(g, 2),
        complete_symplectic_basis,
    ], ids=["op", "state_mode", "two_point", "fock", "basis"])
    def test_single_mode_readers_reject_a_stack(self, reader):
        # as_mode accepts stacks; every reader of one mode still refuses them
        with pytest.raises(DimensionError):
            reader(np.eye(4)[:2])


class TestCovarianceCorrection:
    def test_vacuum_add(self):
        assert np.allclose(covariance_correction(np.eye(2), add(X1)), 2.0 * np.eye(2))

    def test_squeezed_subtract(self):
        a = covariance_correction(SQ, subtract(X1))
        assert np.allclose(a, np.diag([1.0, 4.0]))

    def test_vacuum_subtract_rejected(self):
        with pytest.raises(SubtractionUndefinedError, match="vacuum"):
            covariance_correction(np.eye(2), subtract(X1))

    @pytest.mark.parametrize("seed", range(500))
    def test_psd_rank_two(self, seed):
        v, g = random_case(seed)
        for op in (add(g), subtract(g)):
            if op.kind == "subtract" and mean_photon_number(v, g) < 1e-9:
                continue
            a = covariance_correction(v, op)
            w = np.linalg.eigvalsh(a)
            assert w[0] > -1e-10
            assert np.sum(w > 1e-10 * max(w[-1], 1.0)) <= 2
            assert np.max(np.abs(a - a.T)) < 1e-10
            assert np.trace(a) > 0


class TestOutputCovariance:
    def test_vacuum_add(self):
        assert np.allclose(output_covariance(np.eye(2), add(X1)), 3.0 * np.eye(2))

    def test_squeezed_subtract(self):
        out = output_covariance(SQ, subtract(X1))
        assert np.allclose(out, np.diag([1.5, 6.0]))

    @pytest.mark.parametrize("seed", range(40))
    def test_physicality(self, seed):
        v, g = random_case(seed, max_modes=3)
        for op in (add(g), subtract(g)):
            if op.kind == "subtract" and mean_photon_number(v, g) < 1e-9:
                continue
            nu = validate_covariance(output_covariance(v, op))  # raises if not
            assert nu[-1] >= 1.0 - 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_wigner_moments(self, seed):
        v, g = random_case(seed, max_modes=3)
        op = add(g)
        mean, cov = poly_wigner_moments(nongaussian_wigner(v, op))
        assert np.max(np.abs(mean)) < 1e-12
        assert np.max(np.abs(cov - output_covariance(v, op))) < 1e-10


class TestTwoPoint:
    def test_vacuum_add_diagonal(self):
        val = two_point_correlation(np.eye(2), add(X1), X1, X1)
        assert val == pytest.approx(3.0 + 0.0j)

    def test_vacuum_add_commutator(self):
        val = two_point_correlation(np.eye(2), add(X1), X1, [0.0, 1.0])
        assert val == pytest.approx(1.0j)

    def test_orthogonal_modes_unchanged(self):
        # the correction has rank <= 2 with range (V + s) span{g, Jg}; when the
        # operation mode factorises (product state) that range is the plane
        # itself and every mode orthogonal to it keeps its Gaussian value
        rest = random_mixed_cov(2, 5, max_thermal=1.8)
        v = np.zeros((6, 6))
        v[np.ix_([0, 3], [0, 3])] = np.diag([0.5, 2.0])
        idx = [1, 2, 4, 5]
        v[np.ix_(idx, idx)] = rest
        g = np.array([1.0, 0, 0, 0, 0, 0])
        f1 = np.array([0, 1.0, 0, 0, 0, 0])
        f2 = np.array([0, 0, 0, 0, 1.0, 0])
        with_op = two_point_correlation(v, subtract(g), f1, f2)
        gaussian = complex(f1 @ v @ f2) - 1j * float(f1 @ apply_j(f2))
        assert with_op == pytest.approx(gaussian)


class TestTruncatedCorrelation:
    def test_added_vacuum_fourth(self):
        a = covariance_correction(np.eye(2), add(X1))
        # oracle: 4th cumulant of the n=1 Fock state, <x^4> - 3 <x^2>^2 = 15 - 27
        assert truncated_correlation(a, [X1] * 4) == pytest.approx(-12.0)

    def test_odd_orders_vanish(self):
        a = covariance_correction(np.eye(2), add(X1))
        assert truncated_correlation(a, [X1] * 5) == 0.0

    def test_orthogonal_vector_kills_all_pairings(self):
        # one vector orthogonal to the correction's range zeroes every pairing
        a = covariance_correction(np.eye(4), add([1.0, 0, 0, 0]))
        g = np.array([1.0, 0, 0, 0])
        fs = [g, g, g, np.array([0, 1.0, 0, 0])]
        assert truncated_correlation(a, fs) == pytest.approx(0.0, abs=1e-14)
        # same mechanism on a product state, where the range is the mode plane
        v = np.diag([0.5, 1.0, 2.0, 1.0])
        a = covariance_correction(v, subtract(g))
        assert truncated_correlation(a, fs) == pytest.approx(0.0, abs=1e-14)

    def test_capacity_bound(self):
        a = covariance_correction(np.eye(2), add(X1))
        with pytest.raises(CapacityError):
            truncated_correlation(a, [X1] * 14)

    def test_low_order_rejected(self):
        a = covariance_correction(np.eye(2), add(X1))
        with pytest.raises(ValueError):
            truncated_correlation(a, [X1] * 2)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_series_coefficient(self, k, seed):
        # all slots equal: the enumeration must reproduce the coefficient of
        # the log-resummed characteristic function series term by term
        v, g = random_case(seed, max_modes=2, mixed=False)
        op = add(g)
        a = covariance_correction(v, op)
        alpha = random_mode(v.shape[0] // 2, 123 + seed)
        q = float(alpha @ a @ alpha)
        series = math.factorial(2 * k) / (k * 2.0**k) * (-1.0) ** (k + 1) * q**k
        enum = truncated_correlation(a, [alpha] * (2 * k))
        assert enum == pytest.approx(series, rel=1e-12)


def pair_partition_sum(gram: np.ndarray, items: list[int]) -> float:
    """Reference: sum over pair partitions of ``items`` of the products of
    their ``gram`` entries, enumerated recursively ((2k-1)!! terms)."""
    if not items:
        return 1.0
    first, rest = items[0], items[1:]
    return sum(
        gram[first, partner] * pair_partition_sum(gram, rest[:i] + rest[i + 1:])
        for i, partner in enumerate(rest)
    )


class TestCorrelationClosedForm:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 5),
        kind=st.sampled_from(["add", "subtract"]),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_partition_enumeration(self, m, kind, k, seed):
        rng = np.random.default_rng(seed)
        v = random_mixed_cov(m, rng, max_squeezing_db=7.0,
                             max_thermal=2.2 if rng.integers(2) else 1.0)
        op = PhotonOpSpec(kind, random_mode(m, rng))
        assume(kind == "add" or mean_photon_number(v, op.mode) >= 1e-3)
        a = covariance_correction(v, op)
        fs = [random_mode(m, rng) for _ in range(2 * k)]
        gram = np.array([[f1 @ a @ f2 for f2 in fs] for f1 in fs])
        ref = (-1.0) ** (k - 1) * math.factorial(k - 1) * pair_partition_sum(
            gram, list(range(2 * k)))
        # Cauchy-Schwarz bounds every one of the (k-1)! (2k-1)!! products
        scale = math.factorial(k - 1) * math.prod(range(1, 2 * k, 2)) * math.prod(
            math.sqrt(f @ a @ f) for f in fs)
        assert abs(truncated_correlation(a, fs) - ref) <= 1e-12 * scale

    def test_rank_above_two_rejected(self):
        a = np.diag([2.0, 1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="rank two"):
            truncated_correlation(a, [np.array([1.0, 0, 0, 0])] * 4)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            truncated_correlation(np.diag([1.0, -1.0]), [X1] * 4)


class TestCharacteristicFunction:
    def test_normalized_at_origin(self):
        assert characteristic_function(SQ, subtract(X1), [0.0, 0.0]) == 1.0

    def test_vacuum_add_zero_circle(self):
        assert characteristic_function(np.eye(2), add(X1), [1.0, 0.0]) == pytest.approx(0.0)
        assert characteristic_function(np.eye(2), add(X1), [0.6, 0.8]) == pytest.approx(0.0)

    def test_vacuum_add_negative_region(self):
        # (1 - |alpha|^2) exp(-|alpha|^2 / 2) at alpha = (2, 0)
        val = characteristic_function(np.eye(2), add(X1), [2.0, 0.0])
        assert val == pytest.approx(-3.0 * np.exp(-2.0))

    def test_fourier_transform_gives_wigner(self):
        # chi and the Wigner function are a Fourier pair:
        # W(b) = (2 pi)^-2 Int chi(a) exp(-i a.b) da  on one mode
        v = random_mixed_cov(1, 3, max_squeezing_db=4, max_thermal=1.5)
        op = subtract(random_mode(1, 4))
        axis, alphas = grid2d(9.0, 501)
        chi = characteristic_function(v, op, alphas)
        w = nongaussian_wigner(v, op)
        for beta in ([0.0, 0.0], [1.0, -0.5], [-0.4, 1.3]):
            phases = np.exp(-1j * alphas @ np.asarray(beta))
            val = integrate2d((chi * phases).real, axis) / (TWO_PI**2)
            assert val == pytest.approx(w(np.asarray(beta)), abs=1e-8)


class TestNongaussianWigner:
    def test_vacuum_add_origin(self):
        w = nongaussian_wigner(np.eye(2), add(X1))
        assert w([0.0, 0.0]) == pytest.approx(-1.0 / TWO_PI)

    def test_squeezed_subtract_origin(self):
        w = nongaussian_wigner(SQ, subtract(X1))
        assert w([0.0, 0.0]) == pytest.approx(-1.0 / TWO_PI)

    def test_positive_tail(self):
        w = nongaussian_wigner(SQ, subtract(X1))
        assert w([3.0, 0.0]) > 0.0
        assert w([0.0, 3.0]) > 0.0

    @pytest.mark.parametrize("seed", range(60))
    def test_moment_normalization_identity(self, seed):
        v, g = random_case(seed)
        for op in (add(g), subtract(g)):
            if op.kind == "subtract" and mean_photon_number(v, g) < 1e-9:
                continue
            assert abs(nongaussian_wigner(v, op).normalization_defect()) < 1e-10

    def test_integral_one_by_quadrature(self):
        w = nongaussian_wigner(SQ, subtract(X1))
        axis, pts = grid2d(12.0, 601)
        assert integrate2d(w(pts), axis) == pytest.approx(1.0, abs=1e-6)


class TestEvaluateWigner:
    def test_gaussian_only(self):
        w = PolyGaussianWigner(
            quad=np.zeros((2, 2)), lin=np.zeros(2), const=1.0,
            cov=np.eye(2), mean=np.zeros(2),
        )
        pts = np.random.default_rng(0).normal(size=(5, 2))
        assert np.allclose(evaluate_wigner(w, pts), gaussian_wigner(np.eye(2), pts))

    @pytest.mark.parametrize("cov, error", [
        (np.diag([np.nan, 1.0]), np.linalg.LinAlgError),
        (np.array([[1.0, 0.1], [0.0, 1.0]]), CovarianceError),
        (np.eye(3)[:2], DimensionError),
    ], ids=["nan", "asymmetric", "non-square"])
    def test_bad_cov_rejected_at_construction(self, cov, error):
        with pytest.raises(error):
            PolyGaussianWigner(quad=np.zeros((2, 2)), lin=np.zeros(2), const=1.0,
                               cov=cov, mean=np.zeros(2))

    def test_keeps_its_state(self):
        # an array is gated once and read back symmetrised; a state passes
        # through, to the translations too
        v = SQ + np.array([[0.0, 1e-12], [0.0, 0.0]])
        w = nongaussian_wigner(v, add(X1))
        assert np.array_equal(w.cov, 0.5 * (v + v.T)) and w.cov is w.state.v
        state = gaussian_state(v)
        w = nongaussian_wigner(state, add(X1))
        assert w.state is state and w.translate(np.ones(2)).state is state

    def test_representation_contract(self):
        v, g = random_case(13, max_modes=2)
        op = add(g)
        w = nongaussian_wigner(v, op)
        pts = np.random.default_rng(1).normal(size=(7, v.shape[0]))
        v_inv = np.linalg.inv(v)
        a = covariance_correction(v, op)
        bracket = (
            np.einsum("ni,ij,jk,kl,nl->n", pts, v_inv, a, v_inv, pts)
            - np.trace(v_inv @ a) + 2.0
        )
        direct = 0.5 * bracket * gaussian_wigner(v, pts)
        assert np.allclose(w(pts), direct, atol=1e-14)

    def test_translation_property(self):
        v, g = random_case(29, max_modes=2, mixed=False)
        xi = np.random.default_rng(2).normal(size=4) * 0.8
        w0 = nongaussian_wigner(v, add(g))
        pts = np.random.default_rng(3).normal(size=(6, 4))
        assert np.allclose(w0.translate(xi)(pts), w0(pts - xi), atol=1e-14)
        # note: translating is not the same as displacing before the photon
        # op; the displaced construction carries an extra cross term
        w1 = displaced_poly_wigner(v, xi, add(g))
        assert not np.allclose(w1(pts), w0(pts - xi), atol=1e-6)


class TestDecomposePureNoise:
    def test_pure_input(self, pure_cov_2m):
        v_pure, v_noise = decompose_pure_noise(pure_cov_2m)
        assert np.max(np.abs(v_pure - pure_cov_2m)) < 1e-9
        assert np.max(np.abs(v_noise)) < 1e-9

    def test_thermal(self):
        v_pure, v_noise = decompose_pure_noise(3.0 * np.eye(2))
        assert np.allclose(v_pure, np.eye(2), atol=1e-10)
        assert np.allclose(v_noise, 2.0 * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_mixed(self, seed):
        v = random_mixed_cov(int(seed % 3) + 1, seed, max_thermal=2.4)
        v_pure, v_noise = decompose_pure_noise(v)
        assert gaussian_purity(v_pure) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(v_noise)[0] > -1e-10
        assert np.max(np.abs(v_pure + v_noise - v)) < 1e-9


class TestDisplacedWigner:
    @pytest.mark.parametrize("seed", range(100))
    def test_zero_displacement_reduces(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        v = random_mixed_cov(m, rng, max_squeezing_db=7, max_thermal=1.0)
        g = random_mode(m, rng)
        kind = "add" if seed % 2 else "subtract"
        if kind == "subtract" and mean_photon_number(v, g) < 1e-9:
            kind = "add"
        op = PhotonOpSpec(kind, g)
        w8 = nongaussian_wigner(v, op)
        pts = rng.normal(size=(5, 2 * m))
        w = displaced_poly_wigner(v, np.zeros(2 * m), op)
        assert np.max(np.abs(w(pts) - w8(pts))) < 1e-10

    def test_normalized(self):
        v = random_pure_squeezed_cov(1, [4.0], 8)
        xi = np.array([1.3, -0.6])
        w = displaced_poly_wigner(v, xi, add(X1))
        assert abs(w.normalization_defect()) < 1e-12
        axis, pts = grid2d(13.0, 601)
        assert integrate2d(evaluate_wigner(w, pts), axis) == pytest.approx(1.0, abs=1e-6)

    def test_subtraction_from_displaced_vacuum_defined(self):
        # zero photons at xi = 0, but the displacement puts photons in
        val = displaced_poly_wigner(np.eye(2), np.array([2.0, 0.0]), subtract(X1))(np.zeros(2))
        assert np.isfinite(val)

    def test_subtraction_at_origin_rejected(self):
        with pytest.raises(SubtractionUndefinedError):
            displaced_poly_wigner(np.eye(2), np.zeros(2), subtract(X1))

    def test_mixed_base_accepted(self):
        # the closed form holds for any base covariance, mixed ones included
        v = 2.0 * np.eye(2)
        w = displaced_poly_wigner(v, np.zeros(2), subtract(X1))
        ref = nongaussian_wigner(v, subtract(X1))
        pts = np.random.default_rng(5).normal(size=(6, 2))
        assert np.allclose(evaluate_wigner(w, pts), ref(pts), atol=1e-12)


class TestDisplacementDensity:
    def test_nonnegative(self, mixed_cov_1m):
        v_pure, v_noise = decompose_pure_noise(mixed_cov_1m)
        xis = np.random.default_rng(0).normal(size=(10_000, 2)) * 3.0
        dens = displacement_density(v_pure, v_noise, xis, subtract(X1))
        assert np.all(dens >= 0.0)

    def test_normalized_by_quadrature(self, mixed_cov_1m):
        v_pure, v_noise = decompose_pure_noise(mixed_cov_1m)
        axis, xis = grid2d(9.0, 501)
        dens = displacement_density(v_pure, v_noise, xis, subtract(X1))
        total = integrate2d(dens, axis)
        assert total == pytest.approx(1.0, abs=1e-4)  # quadrature lands ~1e-10
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_displacement_value(self, mixed_cov_1m):
        v_pure, v_noise = decompose_pure_noise(mixed_cov_1m)
        op = subtract(X1)
        from wignerlab.phase_space import mode_projector

        p = mode_projector(X1)
        expected = (np.trace(p @ v_pure) - 2.0) / (
            (np.trace(p @ (v_pure + v_noise)) - 2.0)
            * TWO_PI
            * np.sqrt(np.linalg.det(v_noise))
        )
        assert displacement_density(v_pure, v_noise, np.zeros(2), op) == pytest.approx(
            float(expected)
        )

    def test_singular_noise_on_range(self, pure_cov_2m):
        # a pure state has no noise: the range is the origin, which carries
        # the trace ratio, one, and every other displacement has density zero
        v_pure, v_noise = decompose_pure_noise(pure_cov_2m)
        op = add(random_mode(2, 1))
        assert displacement_density(v_pure, v_noise, np.zeros(4), op) == pytest.approx(1.0)
        assert displacement_density(v_pure, v_noise, np.full(4, 0.1), op) == 0.0


class TestMixtureReconstruction:
    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    @pytest.mark.parametrize("pure", [True, False])
    def test_too_few_samples_rejected(self, pure_cov_2m, mixed_cov_1m, pure, n_samples):
        v = pure_cov_2m if pure else mixed_cov_1m
        with pytest.raises(ValueError, match="n_samples"):
            mixture_reconstruction(v, add(random_mode(len(v) // 2, 0)), np.zeros(len(v)),
                                   n_samples, 0)

    def test_pure_state_exact(self, pure_cov_2m):
        g = random_mode(2, 15)
        op = subtract(g)
        pts = np.random.default_rng(4).normal(size=(4, 4))
        est = mixture_reconstruction(pure_cov_2m, op, pts, 100, 0)
        assert np.allclose(est.values, nongaussian_wigner(pure_cov_2m, op)(pts), atol=1e-12)
        assert np.all(est.std_errors == 0.0)

    def test_mixed_state_within_three_sigma(self, mixed_cov_1m):
        op = subtract(X1)
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.7, 1.1]])
        est = mixture_reconstruction(mixed_cov_1m, op, pts, 100_000, 2024)
        truth = nongaussian_wigner(mixed_cov_1m, op)(pts)
        z = (est.values - truth) / est.std_errors
        assert np.max(np.abs(z)) < 3.0

    def test_error_scales_with_samples(self, mixed_cov_1m):
        op = add(X1)
        beta = np.zeros(2)
        se_small = mixture_reconstruction(mixed_cov_1m, op, beta, 20_000, 5).std_errors
        se_big = mixture_reconstruction(mixed_cov_1m, op, beta, 80_000, 5).std_errors
        assert se_small / se_big == pytest.approx(2.0, rel=0.15)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 16),
        kind=st.sampled_from(["add", "subtract"]),
        extent=st.floats(0.0, 3.0),
        count=st.sampled_from([None, 1, _MIXTURE_BLOCK, _MIXTURE_BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_matches_point_loop(self, m, kind, extent, count, seed):
        # count None is a single 1-D point
        rng = np.random.default_rng(seed)
        v = random_mixed_cov(m, rng)
        op = PhotonOpSpec(kind, random_mode(m, rng))
        pts = extent * rng.uniform(-1.0, 1.0, size=(count or 1, 2 * m))
        beta = pts[0] if count is None else pts
        est = mixture_reconstruction(v, op, beta, 300, seed)
        values, errors = mixture_point_loop(v, op, pts, 300, seed)
        assert isinstance(est.values, float) == (count is None)
        assert np.max(np.abs(est.values - values)) <= 1e-12 * np.max(np.abs(values))
        assert np.max(np.abs(est.std_errors - errors) / errors) <= 1e-10

    def test_no_gaussian_wigner_calls(self, monkeypatch):
        calls = []
        gw = photon_ops.gaussian_wigner
        monkeypatch.setattr(photon_ops, "gaussian_wigner",
                            lambda *a, **k: calls.append(a) or gw(*a, **k))
        v, g = random_mixed_cov(4, 21), random_mode(4, 22)
        pts = np.random.default_rng(23).normal(size=(2 * _MIXTURE_BLOCK + 3, 8))
        mixture_reconstruction(v, subtract(g), pts, 500, 24)
        assert calls == []

    def test_blocked_memory(self):
        # 4096 points x 2000 draws: one unblocked (points, draws) matrix
        # alone would take 64 MiB
        v, g = random_mixed_cov(2, 25), random_mode(2, 26)
        pts = np.random.default_rng(27).uniform(-3.0, 3.0, size=(4096, 4))
        tracemalloc.start()
        try:
            mixture_reconstruction(v, add(g), pts, 2000, 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def mixture_point_loop(v, op, pts, n_samples, seed):
    """Reference: the mixture estimator point by point, each point's samples
    from one ``gaussian_wigner`` call on all draws and the bracket factors
    from ``solve``.  Returns ``(values, std_errors)``."""
    v_pure, v_noise = decompose_pure_noise(v)
    w, u = np.linalg.eigh(v_noise)
    pos = w > max(w[-1], 1.0) * _NOISE_RANK_TOL
    z = np.random.default_rng(seed).standard_normal((n_samples, int(pos.sum())))
    xis = (z * np.sqrt(w[pos])) @ u[:, pos].T
    s = float(op.sign)
    plane = np.column_stack([op.mode, apply_j(op.mode)])
    v_inv_g = np.linalg.solve(v_pure, plane)
    k = plane.T + s * v_inv_g.T
    c0 = float(np.trace(plane.T @ v_inv_g)) + 2.0 * s
    e = s * xis @ v_inv_g
    den = float(np.trace(plane.T @ v @ plane)) + 2.0 * s
    values, errors = [], []
    for pt in pts:
        r = k @ pt - e
        samples = gaussian_wigner(v_pure, pt - xis) * ((r * r).sum(axis=1) - c0) / den
        values.append(samples.mean())
        errors.append(samples.std(ddof=1) / np.sqrt(n_samples))
    return np.array(values), np.array(errors)


def projector_form(v, xi, op):
    """Reference: the displaced bracket expanded with the 2m x 2m projector.

    ``grad = P (1 + s V^-1)`` and ``W = W_base(b - xi) [|grad (b - xi)|^2
    + 2 (xi, grad (b - xi)) + (xi, P xi) - tr(P V^-1) - 2s] / tr((V + xi
    xi^T + s) P)``, returned as ``(quad, lin, const)`` in ``b``.
    """
    s = float(op.sign)
    p = mode_projector(op.mode)
    v_inv = np.linalg.inv(v)
    xi_p_xi = float(xi @ p @ xi)
    den = float(np.trace(p @ v)) + xi_p_xi + 2.0 * s
    grad = p @ (np.eye(v.shape[0]) + s * v_inv)
    gtg = grad.T @ grad
    lin = (2.0 * grad.T @ xi - 2.0 * gtg @ xi) / den
    const = (
        float(xi @ gtg @ xi) - 2.0 * float(xi @ grad @ xi)
        + xi_p_xi - float(np.trace(p @ v_inv)) - 2.0 * s
    ) / den
    return 0.5 * (gtg + gtg.T) / den, lin, const


def mixture_from_constructor(v, op, pts, n_samples, seed, rank):
    """Reference: the mixture estimate averaged over displaced constructors.

    Redraws the displacements from ``default_rng(seed)`` along the ``rank``
    largest noise eigenpairs and weights each displaced pure Wigner function
    by ``den_xi / den`` (the density's trace ratio against the sampling
    Gaussian).
    """
    v_pure, v_noise = decompose_pure_noise(v)
    w, u = np.linalg.eigh(v_noise)
    z = np.random.default_rng(seed).standard_normal((n_samples, rank))
    xis = (z * np.sqrt(w[-rank:])) @ u[:, -rank:].T
    p = mode_projector(op.mode)
    den = np.trace(p @ v) + 2.0 * op.sign
    total = np.zeros(len(pts))
    for xi in xis:
        den_xi = np.trace(p @ v_pure) + xi @ p @ xi + 2.0 * op.sign
        total += den_xi / den * displaced_poly_wigner(v_pure, xi, op)(pts)
    return total / n_samples


class TestPlaneForm:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 5),
        kind=st.sampled_from(["add", "subtract"]),
        displaced=st.booleans(),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constructor_matches_projector_form(self, m, kind, displaced, mixed, seed):
        rng = np.random.default_rng(seed)
        v = random_mixed_cov(m, rng, max_squeezing_db=7.0,
                             max_thermal=2.2 if mixed else 1.0)
        op = PhotonOpSpec(kind, random_mode(m, rng))
        xi = rng.normal(size=2 * m) if displaced else np.zeros(2 * m)
        p = mode_projector(op.mode)
        # near vacuum both forms lose digits roughly as 1 / n
        assume(kind == "add" or np.trace(p @ v) + xi @ p @ xi - 2.0 >= 4e-3)
        quad, lin, const = projector_form(v, xi, op)
        w = displaced_poly_wigner(v, xi, op)
        assert np.max(np.abs(w.quad - quad)) <= 1e-12 * np.max(np.abs(quad))
        assert np.max(np.abs(w.lin - lin)) <= 1e-12 * np.max(np.abs(lin))
        assert abs(w.const - const) <= 1e-12 * abs(const)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixture_matches_constructor(self, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        v = random_mixed_cov(m, rng, max_thermal=2.0)
        op = PhotonOpSpec("add" if seed % 2 else "subtract", random_mode(m, rng))
        pts = rng.normal(size=(5, 2 * m))
        est = mixture_reconstruction(v, op, pts, 300, seed)
        ref = mixture_from_constructor(v, op, pts, 300, seed, rank=2 * m)
        assert np.max(np.abs(est.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_noise_rank_shared(self):
        # two noise eigenvalues at 1e-10 of the largest, between the 1e-12 and
        # 1e-9 cut-offs the density and the mixture used to apply separately:
        # both now take those directions as null
        o = random_orthogonal_symplectic(2, 3)
        v = o @ np.diag([2.0, 1.0 + 1e-10, 2.0, 1.0 + 1e-10]) @ o.T
        v_pure, v_noise = decompose_pure_noise(v)
        w, u = np.linalg.eigh(v_noise)
        assert 1e-12 < w[0] / w[-1] < 1e-9 and 1e-12 < w[1] / w[-1] < 1e-9
        op = add(random_mode(2, 4))
        # the density lives on the two-dimensional range at the origin ...
        p = mode_projector(op.mode)
        ratio = (np.trace(p @ v_pure) + 2.0) / (np.trace(p @ v) + 2.0)
        assert displacement_density(v_pure, v_noise, np.zeros(4), op) == pytest.approx(
            ratio / (TWO_PI * np.sqrt(w[2] * w[3])), rel=1e-9)
        # ... and one standard deviation along a null direction leaves it
        off = np.sqrt(w[0]) * u[:, 0]
        assert displacement_density(v_pure, v_noise, off, op) == 0.0
        pts = np.random.default_rng(5).normal(size=(4, 4))
        est = mixture_reconstruction(v, op, pts, 300, 7)
        ref = mixture_from_constructor(v, op, pts, 300, 7, rank=2)
        assert np.max(np.abs(est.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_grid_evaluation_memory(self):
        # a 201 x 201 plane grid on 16 modes: 40 401 x 32 points, 9.9 MiB;
        # evaluation may copy the points once (the centring in
        # gaussian_wigner) but not twice
        v = random_pure_squeezed_cov(16, np.linspace(1, 8, 16), 5)
        g = random_mode(16, 6)
        pts = plane_points(grid2d(4.0, 201)[1], g)
        w = nongaussian_wigner(v, add(g))
        tracemalloc.start()
        try:
            w(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pts.nbytes

    def test_grid_evaluation_keeps_points_uncopied(self):
        # the undisplaced Wigner function has an all-zero base mean, which
        # gaussian_wigner must not subtract: no copy of the points at all
        v = random_pure_squeezed_cov(16, np.linspace(1, 8, 16), 5)
        g = random_mode(16, 6)
        pts = plane_points(grid2d(4.0, 201)[1], g)
        w = nongaussian_wigner(v, add(g))
        tracemalloc.start()
        try:
            w(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * pts.nbytes
