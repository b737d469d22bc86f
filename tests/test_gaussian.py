"""Covariance validation, Gaussian Wigner functions, decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid2d, integrate2d
from wignerlab.analysis import plane_scan
from wignerlab.errors import CovarianceError, SymplecticError
from wignerlab.gaussian import (
    MAX_ENTRY,
    GaussianState,
    bloch_messiah,
    db_to_scale,
    gaussian_purity,
    gaussian_state,
    gaussian_wigner,
    is_pure,
    random_mixed_cov,
    random_orthogonal_symplectic,
    random_pure_squeezed_cov,
    reduce_to_mode,
    symplectic_eigenvalues,
    validate_covariance,
    williamson,
)
from wignerlab.photon_ops import (
    PolyGaussianWigner,
    add,
    covariance_correction,
    decompose_pure_noise,
    mean_photon_number,
    mixture_reconstruction,
    nongaussian_wigner,
    subtract,
)
from wignerlab.phase_space import (
    basis_change_matrix,
    complete_symplectic_basis,
    random_mode,
    symplectic_form,
)

TWO_PI = 2.0 * np.pi


class TestValidate:
    def test_vacuum(self):
        assert np.allclose(validate_covariance(np.eye(4)), [1.0, 1.0])

    def test_pure_squeezed(self):
        assert validate_covariance(np.diag([0.5, 2.0])) == pytest.approx([1.0])

    def test_thermal(self):
        assert validate_covariance(np.diag([3.0, 3.0])) == pytest.approx([3.0])

    def test_asymmetric_rejected(self):
        v = np.eye(2)
        v[0, 1] = 1e-6
        with pytest.raises(CovarianceError, match="asymmetric"):
            validate_covariance(v)

    def test_unphysical_rejected(self):
        with pytest.raises(CovarianceError, match="unphysical"):
            validate_covariance(0.5 * np.eye(2))


class TestSpectralGate:
    """One entry gate: every reader of a covariance rejects entries that are
    not finite or beyond ``MAX_ENTRY``."""

    X = np.array([1.0, 0.0])
    READERS = {
        "symplectic_eigenvalues": symplectic_eigenvalues,
        "validate_covariance": validate_covariance,
        "is_pure": is_pure,
        "williamson": williamson,
        "decompose_pure_noise": decompose_pure_noise,
        "gaussian_wigner": lambda v: gaussian_wigner(v, np.zeros(2)),
        "gaussian_purity": gaussian_purity,
        "reduce_to_mode": lambda v: reduce_to_mode(v, TestSpectralGate.X),
        "mean_photon_number": lambda v: mean_photon_number(v, TestSpectralGate.X),
        "covariance_correction": lambda v: covariance_correction(v, add(TestSpectralGate.X)),
        "plane_scan": lambda v: plane_scan(v, "add", [TestSpectralGate.X]),
        "nongaussian_wigner": lambda v: nongaussian_wigner(v, add(TestSpectralGate.X))(
            np.zeros(2)),
        "PolyGaussianWigner": lambda v: PolyGaussianWigner(
            quad=np.zeros((2, 2)), lin=np.zeros(2), const=1.0, cov=v, mean=np.zeros(2)),
    }
    BEYOND = {
        "full-1e308": np.full((2, 2), 1e308),
        "diag-1e200": np.diag([1e200, 1e200]),
        "just-above": np.diag([MAX_ENTRY * (1 + 1e-15), 1.0]),
        "nan": np.diag([np.nan, 1.0]),
        "inf": np.diag([np.inf, 1.0]),
        "neg-inf-off-diagonal": np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("name", sorted(BEYOND))
    def test_rejected_before_arithmetic(self, reader, name):
        # warnings are errors in this suite, so an overflow first would fail here
        with pytest.raises(np.linalg.LinAlgError, match="beyond"):
            self.READERS[reader](self.BEYOND[name])

    def test_bound_itself_accepted(self):
        v = np.diag([MAX_ENTRY, MAX_ENTRY])
        assert symplectic_eigenvalues(v) == pytest.approx([MAX_ENTRY], rel=1e-12)
        wl = williamson(v)
        assert np.all(np.isfinite(wl.s)) and wl.nu == pytest.approx([MAX_ENTRY])

    @pytest.mark.parametrize("seed", range(16))
    def test_spectrum_matches_eigenvalues_of_ijv(self, seed):
        # independent reference: the eigenvalues of iJV are +-nu
        rng = np.random.default_rng(7300 + seed)
        m = seed + 1
        v = random_mixed_cov(m, rng, max_squeezing_db=8.0, max_thermal=3.0)
        ref = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(m) @ v)))[::-2]
        nu = symplectic_eigenvalues(v)
        assert np.allclose(nu, ref, rtol=1e-10, atol=0.0)
        assert np.allclose(williamson(v).nu, nu, rtol=1e-12, atol=0.0)


class TestGaussianState:
    """A state and its array give the same bytes from every reader, and a
    state handed on is the same state, computed once."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(m=st.integers(1, 16), pure=st.booleans(), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["add", "subtract"]))
    def test_state_reads_like_its_array(self, m, pure, seed, kind):
        rng = np.random.default_rng(seed)
        if pure:
            v = random_pure_squeezed_cov(m, rng.uniform(-6.0, 6.0, m), rng)
        else:
            v = random_mixed_cov(m, rng)
        g = random_mode(m, rng)
        op = (add if kind == "add" else subtract)(g)
        pts = rng.standard_normal((3, 2 * m))
        modes = [random_mode(m, rng) for _ in range(4)]

        def read(x):
            scan = plane_scan(x, "add", modes)
            est = mixture_reconstruction(x, op, pts, 20, seed)
            return [gaussian_wigner(x, pts), mean_photon_number(x, g),
                    covariance_correction(x, op), nongaussian_wigner(x, op)(pts),
                    scan.witness, scan.mu0, scan.mu, scan.nbar,
                    *decompose_pure_noise(x), est.values, est.std_errors]

        state = gaussian_state(v)
        for a, b in zip(read(v), read(state)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        inv = state.inv
        read(state)
        assert gaussian_state(state) is state and state.inv is inv

    def test_williamson_returns_the_state(self):
        state = gaussian_state(random_mixed_cov(3, 4))
        assert isinstance(state, GaussianState) and williamson(state) is state


class TestGaussianWigner:
    def test_vacuum_origin(self):
        assert gaussian_wigner(np.eye(2), [0.0, 0.0]) == pytest.approx(1.0 / TWO_PI)

    def test_unit_det_origin(self):
        assert gaussian_wigner(np.diag([0.5, 2.0]), [0.0, 0.0]) == pytest.approx(
            1.0 / TWO_PI
        )

    def test_vacuum_displaced_point(self):
        assert gaussian_wigner(np.eye(2), [2.0, 0.0]) == pytest.approx(
            np.exp(-2.0) / TWO_PI
        )

    def test_mean_shift(self):
        v = np.diag([0.7, 1.9])
        assert gaussian_wigner(v, [1.0, -0.5], mean=[1.0, -0.5]) == pytest.approx(
            gaussian_wigner(v, [0.0, 0.0])
        )

    def test_singular_rejected(self):
        with pytest.raises(CovarianceError):
            gaussian_wigner(np.zeros((2, 2)), [0.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_normalization_m1(self, seed):
        v = random_mixed_cov(1, seed, max_squeezing_db=5, max_thermal=1.7)
        axis, pts = grid2d(11.0, 501)
        assert integrate2d(gaussian_wigner(v, pts), axis) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_normalization_m2(self):
        v = random_pure_squeezed_cov(2, [3.0, -2.0], 5)
        axis = np.linspace(-8.5, 8.5, 49)
        mesh = np.meshgrid(*([axis] * 4), indexing="ij")
        pts = np.stack([a.ravel() for a in mesh], axis=-1)
        vals = gaussian_wigner(v, pts).reshape([49] * 4)
        for ax in range(3, -1, -1):
            vals = np.trapezoid(vals, axis, axis=ax)
        assert vals == pytest.approx(1.0, abs=1e-6)


class TestWilliamson:
    def test_normal_form_input(self):
        wl = williamson(np.diag([0.5, 2.0]))
        assert wl.nu == pytest.approx([1.0])
        assert np.allclose(wl.reconstruct(), np.diag([0.5, 2.0]), atol=1e-12)

    def test_thermal(self):
        wl = williamson(3.0 * np.eye(2))
        assert wl.nu == pytest.approx([3.0])
        assert np.allclose(wl.reconstruct(), 3.0 * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        v = random_mixed_cov(m, rng, max_squeezing_db=8, max_thermal=2.5)
        wl = williamson(v)
        j = symplectic_form(m)
        assert np.max(np.abs(wl.reconstruct() - v)) < 1e-9
        assert np.max(np.abs(wl.s @ j @ wl.s.T - j)) < 1e-9
        assert np.all(np.diff(wl.nu) <= 1e-12)
        assert np.allclose(
            np.sort(wl.nu), np.sort(symplectic_eigenvalues(v)), atol=1e-9
        )

    def test_near_singular_diagnostic(self):
        v = np.diag([1.0, 1e-15])
        with pytest.raises(CovarianceError, match="singular"):
            williamson(v)


class TestBlochMessiah:
    def test_diagonal_squeezer(self):
        s = np.diag([np.sqrt(0.5), np.sqrt(2.0)])
        bm = bloch_messiah(s)
        assert bm.squeezing == pytest.approx([np.sqrt(2.0)])
        assert np.allclose(bm.reconstruct(), s, atol=1e-12)

    def test_passive_only(self):
        o = random_orthogonal_symplectic(3, 11)
        bm = bloch_messiah(o)
        assert bm.squeezing == pytest.approx([1.0, 1.0, 1.0])
        assert np.allclose(bm.reconstruct(), o, atol=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(1, 5))
        k = db_to_scale(rng.uniform(0, 8, size=m))
        s = (random_orthogonal_symplectic(m, rng) * np.concatenate([k, 1 / k])) @ \
            random_orthogonal_symplectic(m, rng)
        bm = bloch_messiah(s)
        j = symplectic_form(m)
        assert np.max(np.abs(bm.reconstruct() - s)) < 1e-9
        assert np.all(bm.squeezing >= 1.0 - 1e-12)
        assert np.all(np.diff(bm.squeezing) <= 1e-12)
        for o in (bm.passive_out, bm.passive_in):
            assert np.max(np.abs(o.T @ o - np.eye(2 * m))) < 1e-9
            assert np.max(np.abs(o.T @ j @ o - j)) < 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_partly_unsqueezed(self, seed):
        # some or all singular values exactly one: the unit subspace is paired
        # as a whole, whatever basis of it the SVD returns
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(1, 7))
        db = rng.uniform(0, 8, size=m)
        db[rng.permutation(m)[: int(rng.integers(1, m + 1))]] = 0.0
        k = db_to_scale(db)
        s = (random_orthogonal_symplectic(m, rng) * np.concatenate([k, 1 / k])) @ \
            random_orthogonal_symplectic(m, rng)
        bm = bloch_messiah(s)
        j = symplectic_form(m)
        assert np.max(np.abs(bm.reconstruct() - s)) < 1e-12
        assert bm.squeezing == pytest.approx(np.sort(k)[::-1], abs=1e-12)
        for o in (bm.passive_out, bm.passive_in):
            assert np.max(np.abs(o.T @ o - np.eye(2 * m))) < 1e-12
            assert np.max(np.abs(o.T @ j @ o - j)) < 1e-12

    def test_non_symplectic_rejected(self):
        with pytest.raises(SymplecticError):
            bloch_messiah(np.diag([2.0, 2.0]))

    def test_supermode_pairs(self):
        s = williamson(random_pure_squeezed_cov(3, [4.0, 2.0, -1.0], 3)).s
        bm = bloch_messiah(s)
        from wignerlab.phase_space import apply_j

        for i in range(3):
            col = bm.supermode(i)
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(apply_j(col), bm.passive_out[:, 3 + i], atol=1e-10)


def _equal_squeezing_cov(seed):
    o1 = random_orthogonal_symplectic(2, seed)
    o2 = random_orthogonal_symplectic(2, seed + 1)
    k = db_to_scale(np.array([5.0, 5.0]))
    s = (o1 * np.concatenate([k, 1.0 / k])) @ o2
    return s @ s.T


DEGENERATE_STATES = {
    "vacuum-1": np.eye(2),
    "vacuum-3": np.eye(6),
    "pure-2": random_pure_squeezed_cov(2, [6.0, -2.0], 21),
    "pure-4": random_pure_squeezed_cov(4, [3.0, 1.0, -4.0, 0.5], 22),
    "thermal-1": 2.5 * np.eye(2),
    "thermal-3": 1.7 * np.eye(6),
    "equal-squeezing-a": _equal_squeezing_cov(23),
    "equal-squeezing-b": _equal_squeezing_cov(25),
}


class TestDegenerateDecompositions:
    """Williamson and Bloch-Messiah inside degenerate eigenspaces."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE_STATES))
    def test_williamson(self, name):
        v = DEGENERATE_STATES[name]
        m = v.shape[0] // 2
        wl = williamson(v)
        j = symplectic_form(m)
        assert np.max(np.abs(wl.reconstruct() - v)) < 1e-9
        assert np.max(np.abs(wl.s.T @ j @ wl.s - j)) < 1e-9
        assert np.max(np.abs(wl.nu - symplectic_eigenvalues(v))) < 1e-9

    @pytest.mark.parametrize("name", sorted(DEGENERATE_STATES))
    def test_bloch_messiah(self, name):
        s = williamson(DEGENERATE_STATES[name]).s
        m = s.shape[0] // 2
        bm = bloch_messiah(s)
        j = symplectic_form(m)
        assert np.max(np.abs(bm.reconstruct() - s)) < 1e-9
        for o in (bm.passive_out, bm.passive_in):
            assert np.max(np.abs(o.T @ o - np.eye(2 * m))) < 1e-9
            assert np.max(np.abs(o.T @ j @ o - j)) < 1e-9

    def test_equal_squeezing_values(self):
        bm = bloch_messiah(williamson(DEGENERATE_STATES["equal-squeezing-a"]).s)
        assert bm.squeezing == pytest.approx(db_to_scale(np.array([5.0, 5.0])), abs=1e-9)


class TestSupermodeSign:
    @pytest.mark.parametrize("seed", range(40))
    def test_largest_component_positive(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(1, 5))
        v = random_mixed_cov(m, rng, max_squeezing_db=8, max_thermal=2.0)
        s = williamson(v).s
        bm = bloch_messiah(s)
        assert np.max(np.abs(bm.reconstruct() - s)) < 1e-9
        for i in range(m):
            g = bm.supermode(i)
            assert g[np.argmax(np.abs(g))] > 0.0

    def test_negated_input_gives_same_supermodes(self):
        # S and -S have the same supermodes up to sign; the convention fixes it
        s = williamson(random_pure_squeezed_cov(3, [4.0, 2.0, -1.0], 3)).s
        a = bloch_messiah(s).passive_out
        b = bloch_messiah(-s).passive_out
        assert np.allclose(a, b, atol=1e-10)


class TestRandomStates:
    def test_zero_db_is_vacuum(self):
        assert np.allclose(random_pure_squeezed_cov(1, [0.0], 5), np.eye(2), atol=1e-12)

    def test_single_mode_pure(self):
        v = random_pure_squeezed_cov(1, [4.0], 5)
        assert symplectic_eigenvalues(v) == pytest.approx([1.0], abs=1e-10)

    def test_sixteen_mode_pure(self):
        v = random_pure_squeezed_cov(16, np.linspace(-6.5, 6.5, 16), 12)
        nu = validate_covariance(v)
        assert np.max(np.abs(nu - 1.0)) < 1e-9
        assert gaussian_purity(v) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        a = random_pure_squeezed_cov(3, [1.0, 2.0, 3.0], 9)
        b = random_pure_squeezed_cov(3, [1.0, 2.0, 3.0], 9)
        assert np.array_equal(a, b)


class TestPurity:
    def test_vacuum(self):
        assert gaussian_purity(np.eye(6)) == pytest.approx(1.0)

    def test_thermal(self):
        assert gaussian_purity(2.0 * np.eye(2)) == pytest.approx(0.5)

    def test_pure_squeezed(self):
        assert gaussian_purity(np.diag([0.5, 2.0])) == pytest.approx(1.0)


class TestReduceToMode:
    def test_vacuum(self):
        g = random_mode(3, 2)
        assert np.allclose(reduce_to_mode(np.eye(6), g), np.eye(2), atol=1e-13)

    def test_product_state(self):
        v = np.diag([0.5, 1.0, 2.0, 1.0])  # diag(0.5, 2) on mode 1, vacuum mode 2
        red = reduce_to_mode(v, [1.0, 0, 0, 0])
        assert np.allclose(red, np.diag([0.5, 2.0]))

    def test_matches_numerical_marginal(self, pure_cov_2m):
        # integrate the 4D Gaussian Wigner function over the complement plane
        g = random_mode(2, 77)
        t = basis_change_matrix(complete_symplectic_basis(g))
        axis = np.linspace(-9.0, 9.0, 241)
        z1, z2 = np.meshgrid(axis, axis, indexing="ij")
        red = reduce_to_mode(pure_cov_2m, g)
        for u in ([0.0, 0.0], [0.8, -0.4], [-1.2, 0.5]):
            coords = np.zeros(z1.shape + (4,))
            coords[..., 0] = u[0]
            coords[..., 2] = u[1]
            coords[..., 1] = z1
            coords[..., 3] = z2
            pts = coords @ t.T
            marg = np.trapezoid(
                np.trapezoid(gaussian_wigner(pure_cov_2m, pts), axis, axis=1), axis
            )
            assert marg == pytest.approx(gaussian_wigner(red, u), abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_marginal_physicality(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        v = random_mixed_cov(m, rng, max_squeezing_db=8, max_thermal=2.0)
        g = random_mode(m, rng)
        nu = symplectic_eigenvalues(reduce_to_mode(v, g))
        assert nu[-1] >= 1.0 - 1e-9


class TestDegenerateSpectra:
    def test_balanced_thermal_split_invariant(self):
        # Williamson basis is free for nu-degenerate states; the split is not
        from wignerlab.photon_ops import decompose_pure_noise

        v_pure, v_noise = decompose_pure_noise(2.0 * np.eye(4))
        assert np.allclose(v_pure, np.eye(4), atol=1e-10)
        assert np.allclose(v_noise, np.eye(4), atol=1e-10)
