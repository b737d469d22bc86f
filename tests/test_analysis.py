"""Negativity witness, marginals, reduced purities, passive separability."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import grid2d, integrate2d, random_case
from wignerlab.analysis import (
    marginal_wigner,
    negativity_witness,
    passive_separability_witness,
    plane_scan,
    purity_scan,
    reduced_purities,
    wigner_at_origin,
    wigner_minimum,
    wigner_purity,
)
from wignerlab.errors import (
    CovarianceError,
    DimensionError,
    ModeValidationError,
    SubtractionUndefinedError,
)
from wignerlab.gaussian import (
    bloch_messiah,
    gaussian_purity,
    random_mixed_cov,
    random_pure_squeezed_cov,
    reduce_to_mode,
    williamson,
)
from wignerlab.phase_space import basis_change_matrix, complete_symplectic_basis, random_mode
from wignerlab.photon_ops import (
    PhotonOpSpec,
    PolyGaussianWigner,
    add,
    mean_photon_number,
    nongaussian_wigner,
    subtract,
)

X1 = np.array([1.0, 0.0])
TWO_PI = 2.0 * np.pi


class TestNegativityWitness:
    def test_thermal_subtract_positive(self):
        rep = negativity_witness(2.0 * np.eye(2), subtract(X1))
        assert rep.value == pytest.approx(1.0)
        assert rep.threshold == 2.0
        assert not rep.negative

    def test_squeezed_subtract_negative(self):
        rep = negativity_witness(np.diag([0.5, 2.0]), subtract(X1))
        assert rep.value == pytest.approx(2.5)  # 2 cosh(2r) > 2
        assert rep.negative

    @pytest.mark.parametrize("seed", range(50))
    def test_addition_always_negative(self, seed):
        v, g = random_case(seed)
        rep = negativity_witness(v, add(g))
        assert rep.threshold == -2.0
        assert rep.negative

    def test_vacuum_subtract_rejected(self):
        with pytest.raises(SubtractionUndefinedError):
            negativity_witness(np.eye(2), subtract(X1))

    @pytest.mark.parametrize("nbar", [5e-14, 5e-13])
    def test_near_vacuum_subtract_rejected(self, nbar):
        # the same guard as the Wigner function: n <= SUBTRACTION_TOL
        v = np.diag([1.0 + 4.0 * nbar, 1.0])
        assert 0.0 < mean_photon_number(v, X1) <= 1e-12
        with pytest.raises(SubtractionUndefinedError):
            negativity_witness(v, subtract(X1))
        with pytest.raises(SubtractionUndefinedError):
            nongaussian_wigner(v, subtract(X1))


class TestWignerAtOrigin:
    def test_vacuum_add(self):
        assert wigner_at_origin(np.eye(2), add(X1)) == pytest.approx(-1.0 / TWO_PI)

    def test_thermal_subtract_positive(self):
        assert wigner_at_origin(2.0 * np.eye(2), subtract(X1)) > 0.0

    @pytest.mark.parametrize("seed", range(200))
    def test_sign_matches_witness(self, seed):
        v, g = random_case(seed)
        for kind in ("add", "subtract"):
            op = PhotonOpSpec(kind, g)
            if kind == "subtract" and mean_photon_number(v, g) < 1e-9:
                continue
            rep = negativity_witness(v, op)
            origin = wigner_at_origin(v, op)
            assert rep.negative == (origin < 0.0)
            assert origin == pytest.approx(
                nongaussian_wigner(v, op)(np.zeros(v.shape[0])), rel=1e-12
            )


class TestWignerMinimum:
    def test_vacuum_add_minimum_at_origin(self):
        w = nongaussian_wigner(np.eye(2), add(X1))
        val, pt = wigner_minimum(w, n_starts=8)
        assert val == pytest.approx(-1.0 / TWO_PI, abs=1e-10)
        assert np.linalg.norm(pt) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_never_above_origin_value(self, seed):
        v, g = random_case(seed, max_modes=2, mixed=False)
        op = add(g)
        val, _ = wigner_minimum(nongaussian_wigner(v, op), n_starts=6, seed=seed)
        assert val <= wigner_at_origin(v, op) + 1e-12


class TestMarginalWigner:
    def test_single_mode_identity(self):
        w = nongaussian_wigner(np.diag([0.5, 2.0]), subtract(X1))
        assert marginal_wigner(w, X1) is w

    def test_product_state_factorizes(self):
        v = np.diag([0.5, 1.0, 2.0, 1.0])
        g = np.array([1.0, 0, 0, 0])
        w2 = marginal_wigner(nongaussian_wigner(v, subtract(g)), g)
        w1 = nongaussian_wigner(np.diag([0.5, 2.0]), subtract(X1))
        pts = np.random.default_rng(0).normal(size=(12, 2))
        assert np.allclose(w2(pts), w1(pts), atol=1e-13)

    def test_normalization_preserved(self, pure_cov_2m):
        g = random_mode(2, 5)
        w2 = marginal_wigner(nongaussian_wigner(pure_cov_2m, subtract(g)), g)
        assert abs(w2.normalization_defect()) < 1e-10

    def test_matches_quadrature_marginal(self, pure_cov_2m):
        # integrate the 4D non-Gaussian Wigner function over the complement
        # plane on a fine grid and compare pointwise
        g = random_mode(2, 41)
        op = subtract(g)
        w4 = nongaussian_wigner(pure_cov_2m, op)
        w2 = marginal_wigner(w4, g)
        t = basis_change_matrix(complete_symplectic_basis(g))
        axis = np.linspace(-9.0, 9.0, 301)
        z1, z2 = np.meshgrid(axis, axis, indexing="ij")
        for u in ([0.0, 0.0], [1.1, -0.3], [-0.6, 0.9], [2.0, 1.5]):
            coords = np.zeros(z1.shape + (4,))
            coords[..., 0] = u[0]
            coords[..., 2] = u[1]
            coords[..., 1] = z1
            coords[..., 3] = z2
            vals = w4(coords @ t.T)
            marg = np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
            assert marg == pytest.approx(w2(np.asarray(u)), abs=1e-6)

    def test_mixed_state_marginal(self):
        v = random_mixed_cov(3, 9, max_thermal=1.7)
        g = random_mode(3, 10)
        w = marginal_wigner(nongaussian_wigner(v, add(g)), g)
        assert w.dim == 2
        assert abs(w.normalization_defect()) < 1e-10


class TestWignerPurity:
    def test_added_vacuum_is_pure(self):
        rep = reduced_purities(np.eye(4), add([1.0, 0, 0, 0]))
        assert rep.mu == pytest.approx(1.0, abs=1e-12)
        assert rep.mu0 == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_only_thermal(self):
        nu = 2.5
        w = PolyGaussianWigner(
            quad=np.zeros((2, 2)), lin=np.zeros(2), const=1.0,
            cov=nu * np.eye(2), mean=np.zeros(2),
        )
        assert wigner_purity(w) == pytest.approx(1.0 / nu)

    def test_gaussian_route_consistency(self):
        # purity of the marginal Gaussian object == purity of the reduced matrix
        v = random_mixed_cov(3, 21, max_thermal=1.9)
        g = random_mode(3, 22)
        w = PolyGaussianWigner(
            quad=np.zeros((6, 6)), lin=np.zeros(6), const=1.0,
            cov=v, mean=np.zeros(6),
        )
        mu_a = wigner_purity(marginal_wigner(w, g))
        mu_b = gaussian_purity(reduce_to_mode(v, g))
        assert mu_a == pytest.approx(mu_b, abs=1e-9)

    def test_superposition_lowers_purity(self, pure_cov_2m):
        g = random_mode(2, 33)
        rep = reduced_purities(pure_cov_2m, subtract(g))
        assert rep.mu < rep.mu0

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_quadrature(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(1, 4))
        v = random_mixed_cov(m, rng, max_squeezing_db=6, max_thermal=1.6)
        g = random_mode(m, rng)
        kind = "add" if seed % 2 else "subtract"
        if kind == "subtract" and mean_photon_number(v, g) < 1e-6:
            kind = "add"
        w2 = marginal_wigner(nongaussian_wigner(v, PhotonOpSpec(kind, g)), g)
        mu = wigner_purity(w2)
        extent = 7.0 * np.sqrt(np.linalg.eigvalsh(w2.cov)[-1])
        axis, pts = grid2d(extent, 401)
        mu_quad = 4.0 * np.pi * integrate2d(w2(pts) ** 2, axis)
        assert mu == pytest.approx(mu_quad, abs=1e-6)
        assert 0.0 < mu <= 1.0 + 1e-9


class TestPurityScan:
    def test_single_mode_degenerate(self):
        v = random_pure_squeezed_cov(1, [5.0], 3)
        scan = purity_scan(v, "subtract", 5, 7)
        assert np.allclose(scan.points, 1.0, atol=1e-9)

    def test_supermode_gives_equal_purities(self):
        v = np.diag([1.7, 1.7, 1 / 1.7, 1 / 1.7])  # equal squeezers
        g = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        rep = reduced_purities(v, subtract(g))
        assert rep.mu == pytest.approx(rep.mu0, abs=1e-9)

    def test_four_mode_scan_reports(self):
        v = random_pure_squeezed_cov(4, [6.0, 4.0, 2.0, 1.0], 11)
        scan = purity_scan(v, "subtract", 25, 123)
        assert scan.points.shape == (25, 2)
        assert 0.0 <= scan.fraction_lowered <= 1.0
        assert scan.n_resampled >= 0

    def test_deterministic(self):
        v = random_pure_squeezed_cov(2, [4.0, -2.0], 1)
        a = purity_scan(v, "add", 6, 99)
        b = purity_scan(v, "add", 6, 99)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.modes, b.modes)

    def test_mixed_state_rejected(self):
        with pytest.raises(CovarianceError):
            purity_scan(2.0 * np.eye(2), "subtract", 3, 0)

    def test_vacuum_subtraction_rejected(self):
        with pytest.raises(SubtractionUndefinedError):
            purity_scan(np.eye(4), "subtract", 2, 0)


class TestPlaneScan:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 6),
        mixed=st.booleans(),
        kind=st.sampled_from(["add", "subtract"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_general_path(self, m, mixed, kind, seed):
        rng = np.random.default_rng(seed)
        v = random_mixed_cov(m, rng, max_thermal=2.0 if mixed else 1.0)
        modes = np.array([random_mode(m, rng) for _ in range(4)])
        if kind == "subtract":
            # near vacuum both paths lose digits roughly as 1 / n
            keep = [mean_photon_number(v, g) >= 1e-3 for g in modes]
            assume(any(keep))
            modes = modes[keep]
        scan = plane_scan(v, kind, modes)
        for i, g in enumerate(modes):
            op = PhotonOpSpec(kind, g)
            rep = reduced_purities(v, op)
            witness = negativity_witness(v, op)
            got = [scan.witness[i], scan.mu0[i], scan.mu[i], scan.nbar[i]]
            want = [witness.value, rep.mu0, rep.mu, mean_photon_number(v, g)]
            # relative 1e-12; the absolute floor covers n near zero for addition
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert scan.negative[i] == witness.negative

    def test_rejects_malformed_modes(self):
        v = np.eye(4)
        with pytest.raises(DimensionError):
            plane_scan(v, "add", np.eye(2))
        with pytest.raises(ModeValidationError):
            plane_scan(v, "add", 2.0 * np.eye(4)[:1])
        with pytest.raises(ValueError):
            plane_scan(v, "squeeze", np.eye(4)[:1])


class TestPassiveSeparability:
    def test_eigenmode_of_unequal_squeezers(self):
        v = np.diag([0.5, 3.0, 2.0, 1.0 / 3.0])
        assert passive_separability_witness(v, [1.0, 0, 0, 0])

    def test_superposition_of_unequal_squeezers(self):
        v = np.diag([0.5, 3.0, 2.0, 1.0 / 3.0])
        g = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        assert not passive_separability_witness(v, g)

    def test_degenerate_squeezers_superposition(self):
        s = 1.9
        v = np.diag([s, s, 1 / s, 1 / s])
        g = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        assert passive_separability_witness(v, g)

    @pytest.mark.parametrize("seed", range(10))
    def test_supermodes_always_pass(self, seed):
        rng = np.random.default_rng(4000 + seed)
        m = int(rng.integers(2, 5))
        v = random_pure_squeezed_cov(m, rng.uniform(-6, 6, size=m), rng)
        bm = bloch_messiah(williamson(v).s)
        for i in range(m):
            assert passive_separability_witness(v, bm.supermode(i))

    def test_mixed_rejected(self):
        with pytest.raises(CovarianceError):
            passive_separability_witness(2.0 * np.eye(2), X1)

    def test_witness_false_means_lower_purity(self):
        v = random_pure_squeezed_cov(3, [6.0, 3.0, -2.0], 17)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20):
            g = random_mode(3, rng)
            if passive_separability_witness(v, g):
                continue
            rep = reduced_purities(v, subtract(g))
            hits += rep.mu < rep.mu0
        assert hits == 20
