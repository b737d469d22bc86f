"""Symplectic-form conventions, projectors, mode sampling, basis completion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab.errors import DimensionError, ModeValidationError
from wignerlab.phase_space import (
    _MODE_ROUNDING_TOL,
    MODE_NORM_TOL,
    apply_j,
    as_mode,
    basis_change_matrix,
    complete_symplectic_basis,
    mode_plane,
    mode_projector,
    random_mode,
    symplectic_form,
)


class TestSymplecticForm:
    def test_convention_m1(self):
        assert np.allclose(apply_j([1.0, 0.0]), [0.0, 1.0])
        assert np.allclose(apply_j([0.0, 1.0]), [-1.0, 0.0])

    def test_convention_m2_blocks(self):
        assert np.allclose(apply_j([1.0, 0, 0, 0]), [0, 0, 1.0, 0])

    def test_square_is_minus_identity(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3, 5):
            f = rng.standard_normal(2 * m)
            assert np.max(np.abs(apply_j(apply_j(f)) + f)) < 1e-12
            j = symplectic_form(m)
            assert np.max(np.abs(j @ j + np.eye(2 * m))) < 1e-15

    def test_preserves_inner_product(self):
        rng = np.random.default_rng(1)
        f1, f2 = rng.standard_normal((2, 6))
        assert apply_j(f1) @ apply_j(f2) == pytest.approx(f1 @ f2)

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            apply_j([1.0, 0.0, 0.0])


class TestModeValidation:
    def test_renormalizes_close_input(self):
        g = as_mode([1.0 + 5e-10, 0.0])
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_far_input(self):
        with pytest.raises(ModeValidationError):
            as_mode([1.0, 1.0])

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(-0.99, 0.99),
    )
    def test_idempotent(self, m, seed, offset):
        # a scan writes as_mode(x) and re-checks it through as_mode again
        x = np.random.default_rng(seed).standard_normal(2 * m)
        x *= (1.0 + offset * MODE_NORM_TOL) / np.linalg.norm(x)
        once = as_mode(x)
        assert as_mode(once).tobytes() == once.tobytes()

    def test_read_only(self):
        g = as_mode([1.0, 0.0])
        with pytest.raises(ValueError):
            g[0] = 2.0

    @pytest.mark.parametrize("f", [[np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan],
                                   [np.nan, 0.0, 0.0, 0.0]])
    def test_rejects_non_finite(self, f):
        # a NaN norm compares False against any bound
        with pytest.raises(ModeValidationError):
            as_mode(f)


class TestModeStack:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 16),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_row_calls(self, m, n, seed):
        # rows 1e-12 off unit norm are renormalised, rows within the rounding
        # tolerance keep their bits; either way as the single call does
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2 * m))
        target = 1.0 + rng.choice([0.0, 1e-12, -1e-12, 0.5 * _MODE_ROUNDING_TOL], size=n)
        x *= (target / np.linalg.norm(x, axis=1))[:, None]
        stack = as_mode(x)
        rows = np.array([as_mode(row) for row in x])
        assert stack.tobytes() == rows.tobytes()
        kept = np.abs(np.linalg.norm(x, axis=1) - 1.0) <= _MODE_ROUNDING_TOL
        assert stack[kept].tobytes() == x[kept].tobytes()
        assert not stack.flags.writeable

    def test_leading_axes(self):
        x = np.array([[random_mode(2, 3 * i + j) for j in range(3)] for i in range(2)])
        stack = as_mode(x)
        assert stack.shape == (2, 3, 4)
        assert stack.tobytes() == x.tobytes()

    def test_one_row_beyond_tolerance_rejects_the_stack(self):
        x = np.array([random_mode(2, seed) for seed in range(4)])
        x[2] *= 1.0 + 10.0 * MODE_NORM_TOL
        with pytest.raises(ModeValidationError, match="deviates from 1"):
            as_mode(x)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 0), (2, 2, 5), ()])
    def test_bad_last_axis_rejected(self, shape):
        with pytest.raises(DimensionError):
            as_mode(np.ones(shape))

    def test_projector_of_a_stack(self):
        modes = np.array([random_mode(3, seed) for seed in range(4)])
        for g, p in zip(modes, mode_projector(modes)):
            assert mode_projector(g).tobytes() == p.tobytes()


class TestModeProjector:
    def test_single_mode_is_identity(self):
        g = random_mode(1, 3)
        assert np.allclose(mode_projector(g), np.eye(2), atol=1e-14)

    def test_axis_mode_m2(self):
        p = mode_projector([1.0, 0, 0, 0])
        assert np.allclose(p, np.diag([1.0, 0, 1.0, 0]))

    def test_superposed_mode_m2(self):
        g = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        p = mode_projector(g)
        assert np.allclose(p, p.T)
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.trace(p) == pytest.approx(2.0)
        assert np.linalg.matrix_rank(p, tol=1e-10) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_plane_not_sign(self, seed):
        g = random_mode(3, seed)
        assert np.allclose(mode_projector(g), mode_projector(apply_j(g)), atol=1e-13)
        assert np.allclose(mode_projector(g), mode_projector(-g), atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_projects_own_plane(self, seed):
        g = random_mode(2, seed)
        p = mode_projector(g)
        assert np.allclose(p @ g, g, atol=1e-13)
        assert np.allclose(p @ apply_j(g), apply_j(g), atol=1e-13)

    def test_commutes_with_j(self):
        # the projected plane is J-invariant, so J and the projector commute
        g = random_mode(3, 9)
        p = mode_projector(g)
        j = symplectic_form(3)
        assert np.max(np.abs(j @ p - p @ j)) < 1e-13


class TestModePlane:
    @pytest.mark.parametrize("seed", range(6))
    def test_columns_orthonormal(self, seed):
        g = random_mode(1 + seed, seed)
        plane = mode_plane(g)
        assert plane.shape == (g.size, 2)
        assert np.array_equal(plane[:, 0], g)
        assert np.array_equal(plane[:, 1], apply_j(g))
        assert np.max(np.abs(plane.T @ plane - np.eye(2))) < 1e-15

    def test_stack_matches_single(self):
        modes = np.array([random_mode(3, seed) for seed in range(5)])
        planes = mode_plane(modes)
        assert planes.shape == (5, 6, 2)
        for g, plane in zip(modes, planes):
            assert mode_plane(g).tobytes() == plane.tobytes()


class TestRandomMode:
    def test_deterministic(self):
        assert np.array_equal(random_mode(4, 42), random_mode(4, 42))

    def test_shape_and_norm(self):
        g = random_mode(16, 7)
        assert g.shape == (32,)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            random_mode(0, 1)

    def test_first_component_moment(self):
        # uniform on the sphere: E[(g, e1)^2] = 1/(2m); Monte-Carlo oracle
        m = 3
        samples = np.array([random_mode(m, s)[0] ** 2 for s in range(10_000)])
        sem = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 1.0 / (2 * m)) < 3.0 * sem


class TestBasisCompletion:
    def test_m1(self):
        basis = complete_symplectic_basis([1.0, 0.0])
        assert np.allclose(basis[0], [1.0, 0.0])
        assert np.allclose(basis[1], [0.0, 1.0])

    def test_m2_contains_partner(self):
        basis = complete_symplectic_basis([1.0, 0, 0, 0])
        assert np.allclose(basis[1], [0, 0, 1.0, 0])

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_identity_and_pairing(self, seed):
        g = random_mode(3, seed)
        basis = complete_symplectic_basis(g)
        b = np.array(basis)
        assert np.max(np.abs(b @ b.T - np.eye(6))) < 1e-10
        for k in range(0, 6, 2):
            assert np.max(np.abs(apply_j(basis[k]) - basis[k + 1])) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_keeps_g_and_pairs_every_plane(self, m, seed):
        g = random_mode(m, 50 + seed)
        basis = complete_symplectic_basis(g)
        assert basis[0].tobytes() == g.tobytes()
        b = np.array(basis)
        assert np.max(np.abs(b @ b.T - np.eye(2 * m))) < 1e-14
        assert np.max(np.abs(apply_j(b[0::2]) - b[1::2])) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_change_of_basis_orthogonal_symplectic(self, seed):
        g = random_mode(3, seed)
        t = basis_change_matrix(complete_symplectic_basis(g))
        j = symplectic_form(3)
        assert np.max(np.abs(t.T @ t - np.eye(6))) < 1e-10
        assert np.max(np.abs(t.T @ j @ t - j)) < 1e-10
