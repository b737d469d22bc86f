"""Brute-force Fock-space checks of every analytic closed form."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid2d, integrate2d, plane_points
from wignerlab import fock
from wignerlab.analysis import reduced_purities
from wignerlab.errors import (
    CapacityError,
    CutoffError,
    DimensionError,
    SubtractionUndefinedError,
)
from wignerlab.fock import (
    LEAK_TOL,
    MAX_SUGGESTED_CUTOFF,
    FockState,
    _beamsplitter,
    _ladder,
    _ladder_spectrum,
    _leak_tails,
    apply_interferometer,
    apply_photon_op,
    displace_state,
    fock_characteristic,
    fock_covariance,
    fock_mean_photon,
    fock_truncated_correlation,
    fock_wigner,
    gaussian_fock_state,
    mode_reduced_purity,
    squeezed_amplitudes,
    suggested_cutoff,
    vacuum_state,
)
from wignerlab.gaussian import random_pure_squeezed_cov, random_unitary
from wignerlab.phase_space import random_mode
from wignerlab.photon_ops import (
    PhotonOpSpec,
    add,
    characteristic_function,
    covariance_correction,
    displaced_poly_wigner,
    mean_photon_number,
    nongaussian_wigner,
    output_covariance,
    subtract,
    truncated_correlation,
)

X1 = np.array([1.0, 0.0])
TWO_PI = 2.0 * np.pi
NATS_TO_DB = 20.0 / np.log(10.0)
SQ = np.diag([0.5, 2.0])


class TestStateConstruction:
    def test_vacuum(self):
        st = vacuum_state(2, 6)
        assert st.amplitudes[0, 0] == 1.0
        assert np.sum(np.abs(st.amplitudes)) == 1.0

    def test_squeezed_even_amplitudes(self):
        st = gaussian_fock_state(SQ, 24)
        amps = st.amplitudes
        assert np.max(np.abs(amps[1::2])) == 0.0
        assert fock_mean_photon(st, X1) == pytest.approx(0.125, abs=1e-8)

    def test_squeezed_covariance(self):
        st = gaussian_fock_state(SQ, 24)
        cov, mean = fock_covariance(st)
        assert np.max(np.abs(cov - SQ)) < 1e-7
        assert np.max(np.abs(mean)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_two_mode_covariance(self, seed):
        v = random_pure_squeezed_cov(2, [3.5, -2.5], seed)
        st = gaussian_fock_state(v, 36)
        cov, mean = fock_covariance(st)
        assert np.max(np.abs(cov - v)) < 1e-7
        assert np.max(np.abs(mean)) < 1e-12

    def test_three_mode_covariance(self):
        v = random_pure_squeezed_cov(3, [2.0, 1.0, -1.5], 3)
        st = gaussian_fock_state(v, 14)
        cov, _ = fock_covariance(st)
        assert np.max(np.abs(cov - v)) < 1e-6

    def test_three_mode_wigner_agreement(self):
        v = random_pure_squeezed_cov(3, [1.5, 1.0, -1.0], 5)
        g = random_mode(3, 6)
        op = add(g)
        st, _ = apply_photon_op(gaussian_fock_state(v, 24), op)
        _, flat = grid2d(1.5, 7)
        pts = plane_points(flat, g)
        dev = np.abs(fock_wigner(st, pts) - nongaussian_wigner(v, op)(pts))
        assert np.max(dev) < 1e-8

    def test_cutoff_gate_and_suggestion(self):
        v = random_pure_squeezed_cov(2, [4.0, -3.0], 0xF0CC)
        with pytest.raises(CutoffError) as err:
            gaussian_fock_state(v, 8)
        suggested = err.value.suggested_cutoff
        assert suggested is not None and suggested > 8
        gaussian_fock_state(v, suggested)  # passes at the suggested cutoff

    def test_cutoff_independence(self):
        # results converged at the default cutoff must not drift at 24; the
        # drift tracks the truncated tail amplitude, so this pins the regime
        # where the 20-level truncation is fully converged
        def drift(r):
            v = np.diag([np.exp(2 * r), np.exp(-2 * r)])
            pts = np.random.default_rng(0).normal(size=(20, 2))
            vals = [
                fock_wigner(apply_photon_op(gaussian_fock_state(v, c), subtract(X1))[0], pts)
                for c in (20, 24)
            ]
            return np.max(np.abs(vals[0] - vals[1]))

        assert drift(0.05) < 1e-9
        assert drift(0.3) < 1e-4  # tail amplitude ~2e-6 dominates the drift

    def test_norm_deficit_recorded(self):
        r = 0.4
        leak = _leak_tails(r, 20)[20]
        st = gaussian_fock_state(np.diag([np.exp(2 * r), np.exp(-2 * r)]), 20)
        assert st.norm_deficit == pytest.approx(leak)
        assert 0.0 < st.norm_deficit < 1e-8


class TestPhotonOps:
    def test_addition_to_vacuum(self):
        st, norm_sq = apply_photon_op(vacuum_state(1, 8), add(X1))
        assert norm_sq == pytest.approx(1.0)
        assert abs(st.amplitudes[1]) == pytest.approx(1.0)

    def test_subtraction_from_vacuum_rejected(self):
        with pytest.raises(ValueError, match="vacuum"):
            apply_photon_op(vacuum_state(1, 8), subtract(X1))

    def test_subtraction_error_type(self):
        with pytest.raises(SubtractionUndefinedError, match="subtraction"):
            apply_photon_op(vacuum_state(2, 4), subtract(np.array([0.6, 0.0, 0.0, 0.8])))

    @pytest.mark.parametrize("cutoff", [1, 3])
    def test_addition_past_cutoff_rejected(self, cutoff):
        top = np.zeros(cutoff, dtype=complex)
        top[-1] = 1.0
        with pytest.raises(CutoffError, match="addition"):
            apply_photon_op(FockState(top), add(X1))

    def test_subtraction_norm_is_mean_photon(self):
        st = gaussian_fock_state(SQ, 30)
        _, norm_sq = apply_photon_op(st, subtract(X1))
        assert norm_sq == pytest.approx(mean_photon_number(SQ, X1), abs=1e-8)

    def test_addition_norm_is_mean_photon_plus_one(self):
        v = random_pure_squeezed_cov(2, [3.0, -2.0], 7)
        g = random_mode(2, 8)
        st = gaussian_fock_state(v, 36)
        _, norm_sq = apply_photon_op(st, add(g))
        assert norm_sq == pytest.approx(mean_photon_number(v, g) + 1.0, abs=1e-8)


class TestWigner:
    def test_vacuum_values(self):
        st = vacuum_state(1, 30)
        assert fock_wigner(st, [0.0, 0.0]) == pytest.approx(1.0 / TWO_PI)
        assert fock_wigner(st, [2.0, 0.0]) == pytest.approx(np.exp(-2.0) / TWO_PI)
        st2 = vacuum_state(2, 10)
        assert fock_wigner(st2, [0.0] * 4) == pytest.approx(1.0 / TWO_PI**2)

    def test_single_photon_origin(self):
        st, _ = apply_photon_op(vacuum_state(1, 30), add(X1))
        assert fock_wigner(st, [0.0, 0.0]) == pytest.approx(-1.0 / TWO_PI)

    def test_subtracted_squeezed_grid(self):
        # the module's central check: closed form against displaced parity
        st, _ = apply_photon_op(gaussian_fock_state(SQ, 48), subtract(X1))
        _, pts = grid2d(3.0, 21)
        dev = np.abs(fock_wigner(st, pts) - nongaussian_wigner(SQ, subtract(X1))(pts))
        assert np.max(dev) < 1e-8

    def test_parseval_purity(self):
        # 4 pi Int W^2 == tr(rho^2) == 1 for a pure state, at grid accuracy.
        # The displaced-parity evaluation is trustworthy only while the
        # displaced support fits under the cutoff (|gamma|^2 well below it),
        # so the cutoff carries headroom for the integration domain.
        st, _ = apply_photon_op(gaussian_fock_state(SQ, 128), subtract(X1))
        axis, pts = grid2d(9.0, 301)
        tracemalloc.start()
        try:
            values = fock_wigner(st, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        integral = 4.0 * np.pi * integrate2d(values ** 2, axis)
        assert integral == pytest.approx(1.0, abs=2e-4)
        # the plane path evaluates small point blocks: 1024-point blocks
        # would take 19.3 MiB on these 90 601 points
        assert peak < 8 * 2**20


def _gaussian_at_cutoff(v: np.ndarray, cutoff: int) -> FockState:
    """Pure Gaussian Fock state with ``cutoff`` levels per mode; when the
    leakage gate rejects that cutoff, built at the suggested one, cut down and
    renormalised."""
    try:
        return gaussian_fock_state(v, cutoff)
    except CutoffError as err:
        state = gaussian_fock_state(v, err.suggested_cutoff)
    amp = state.amplitudes[(slice(0, cutoff),) * state.modes]
    return FockState(amp / np.linalg.norm(amp))


class TestDisplacedParity:
    """The parity identity in the ladder eigenbasis, and ``fock_wigner``
    against the definition: displace the state, sum the parity-weighted
    populations.  One-mode calls take the plane path, so this pins it; for
    ``m >= 2`` the random points take the per-point path, which is the same
    definition, so those examples check only the plumbing around it."""

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 80, 200, 512])
    def test_parity_reverses_ladder_eigenbasis(self, cutoff):
        _, q, sigma = _ladder_spectrum(cutoff)
        parity = 1.0 - 2.0 * (np.arange(cutoff) % 2)
        reversed_signs = np.diag(sigma)[::-1]  # R diag(sigma)
        assert np.max(np.abs(q.T @ (parity[:, None] * q) - reversed_signs)) <= 1e-13
        assert np.all(np.abs(sigma) == 1.0)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 3),
        displaced=st.booleans(),
        kind=st.sampled_from(["add", "subtract"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_sided_displacement(self, data, m, displaced, kind, seed):
        cutoff = data.draw(st.integers(4, 40 if m < 3 else 14), label="cutoff")
        rng = np.random.default_rng(seed)
        v = random_pure_squeezed_cov(m, rng.uniform(-4.0, 4.0, size=m), rng)
        state = _gaussian_at_cutoff(v, cutoff)
        if displaced:
            state = displace_state(state, rng.uniform(-1.0, 1.0, size=2 * m))
        g = random_mode(m, rng)
        if kind == "subtract" and fock_mean_photon(state, g) < 1e-6:
            kind = "add"
        state, _ = apply_photon_op(state, PhotonOpSpec(kind, g))
        levels = np.indices((cutoff,) * m).sum(axis=0)
        parity = 1.0 - 2.0 * (levels % 2)
        betas = rng.normal(scale=1.5, size=(6, 2 * m))
        ref = np.array([
            np.sum(parity * np.abs(displace_state(state, -b).amplitudes) ** 2)
            for b in betas
        ]) / TWO_PI**m
        assert np.max(np.abs(fock_wigner(state, betas) - ref)) <= 1e-13


def _gamma(state: FockState, pts: np.ndarray) -> np.ndarray:
    m = state.modes
    return 0.5 * (pts[:, :m] + 1j * pts[:, m:])


def _per_point_wigner(state: FockState, pts: np.ndarray) -> np.ndarray:
    """``fock_wigner`` through the per-point path, whatever the points."""
    return fock._point_wigner(state, _gamma(state, pts)) / TWO_PI**state.modes


def _plane_wigner(state: FockState, pts: np.ndarray) -> np.ndarray:
    """``fock_wigner`` through the plane path, for points on one line."""
    gamma = _gamma(state, pts)
    u = np.conj(np.linalg.svd(gamma)[2][0])
    return fock._plane_wigner(state, gamma, u) / TWO_PI**state.modes


def _refuse(*args):
    raise AssertionError("path entered")


class TestPlanePath:
    """Points on one complex line rotate the state once and read a table;
    the per-point path is the reference."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(2, 3),
        displaced=st.booleans(),
        kind=st.sampled_from(["add", "subtract"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_point_path(self, m, displaced, kind, seed):
        rng = np.random.default_rng(seed)
        rs = rng.uniform(0.1, 0.6 if m == 2 else 0.3, size=m)
        v = random_pure_squeezed_cov(m, rs * rng.choice([-1.0, 1.0], size=m) * NATS_TO_DB,
                                     rng)
        state = gaussian_fock_state(v, suggested_cutoff(rs, 1e-20) + 12)
        if displaced:  # W(beta) != W(-beta), so a reversed table shows here
            state = displace_state(state, rng.uniform(-1.0, 1.0, size=2 * m))
        g = random_mode(m, rng)
        if kind == "subtract" and fock_mean_photon(state, g) < 1e-6:
            kind = "add"
        state, _ = apply_photon_op(state, PhotonOpSpec(kind, g))
        h = g if rng.random() < 0.5 else random_mode(m, rng)
        pts = plane_points(grid2d(3.0, 7)[1], h)
        got = _plane_wigner(state, pts)
        assert np.max(np.abs(got - _per_point_wigner(state, pts))) <= 1e-12

    def test_one_rotation_for_a_two_mode_plane(self, monkeypatch):
        v = random_pure_squeezed_cov(2, [3.0, -2.0], 5)
        g = random_mode(2, 6)
        state, _ = apply_photon_op(gaussian_fock_state(v, 40), add(g))
        calls = []
        rotate = fock.apply_interferometer
        monkeypatch.setattr(fock, "apply_interferometer",
                            lambda *a: calls.append(1) or rotate(*a))
        fock_wigner(state, plane_points(grid2d(4.0, 21)[1], g))
        assert len(calls) == 1

    def test_one_mode_never_evaluates_point_by_point(self, monkeypatch):
        state, _ = apply_photon_op(gaussian_fock_state(SQ, 40), add(X1))
        pts = np.random.default_rng(8).normal(size=(50, 2))
        expected = _per_point_wigner(state, pts)
        monkeypatch.setattr(fock, "_point_wigner", _refuse)
        assert np.max(np.abs(fock_wigner(state, pts) - expected)) <= 1e-13
        assert fock_wigner(state, pts[0]) == pytest.approx(expected[0], abs=1e-13)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fewer_points_than_cutoff_take_the_per_point_path(self, m, monkeypatch):
        # one rotation costs about as much as ``cutoff`` per-point values
        cutoff = 14 if m == 3 else 16
        g = random_mode(m, 10)
        state, _ = apply_photon_op(vacuum_state(m, cutoff), add(g))
        pts = plane_points(np.random.default_rng(11).normal(scale=0.5, size=(cutoff, 2)), g)
        expected = _per_point_wigner(state, pts)
        monkeypatch.setattr(fock, "_point_wigner", _refuse)
        assert np.max(np.abs(fock_wigner(state, pts) - expected)) <= 1e-13
        monkeypatch.undo()
        monkeypatch.setattr(fock, "_plane_wigner", _refuse)
        assert np.max(np.abs(fock_wigner(state, pts[1:]) - expected[1:])) <= 1e-13
        assert fock_wigner(state, pts[0]) == pytest.approx(expected[0], abs=1e-13)

    def test_points_off_one_line_take_the_per_point_path(self, monkeypatch):
        state = vacuum_state(2, 12)
        pts = np.random.default_rng(9).normal(size=(5, 4))
        monkeypatch.setattr(fock, "_plane_wigner", _refuse)
        assert np.allclose(fock_wigner(state, pts),
                           np.exp(-0.5 * np.sum(pts**2, axis=1)) / TWO_PI**2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_empty_point_set(self, m):
        state = vacuum_state(m, 8)
        for shape in [(0, 2 * m), (3, 0, 2 * m)]:
            out = fock_wigner(state, np.empty(shape))
            assert out.shape == shape[:-1]


class TestPerPointPath:
    """Multimode points off one complex line, which only the per-point path
    evaluates, against the closed forms at criterion 1's tolerance."""

    @pytest.mark.parametrize("displaced", [False, True], ids=["undisplaced", "displaced"])
    @pytest.mark.parametrize("kind", ["add", "subtract"])
    @pytest.mark.parametrize("m, cutoff", [(2, 40), (3, 24)])
    def test_matches_closed_form(self, m, cutoff, kind, displaced, monkeypatch):
        rng = np.random.default_rng(40 + m)
        v = random_pure_squeezed_cov(m, rng.uniform(-3.0, 3.0, size=m), rng)
        xi = rng.uniform(-0.7, 0.7, size=2 * m) if displaced else np.zeros(2 * m)
        op = PhotonOpSpec(kind, random_mode(m, rng))
        state, _ = apply_photon_op(displace_state(gaussian_fock_state(v, cutoff), xi), op)
        pts = rng.normal(size=(12, 2 * m))
        assert np.linalg.matrix_rank(_gamma(state, pts)) >= 2
        monkeypatch.setattr(fock, "_plane_wigner", _refuse)
        dev = np.abs(fock_wigner(state, pts) - displaced_poly_wigner(v, xi, op)(pts))
        assert np.max(dev) < 1e-8


class TestDisplacedStates:
    def test_displaced_vacuum_moments(self):
        st = displace_state(vacuum_state(1, 40), np.array([2.0, -1.0]))
        cov, mean = fock_covariance(st)
        assert np.allclose(mean, [2.0, -1.0], atol=1e-10)
        assert np.max(np.abs(cov - np.eye(2))) < 1e-10

    def test_displaced_add_matches_closed_form(self):
        xi = np.array([2.0, 0.0])
        op = add(X1)
        st, norm_sq = apply_photon_op(displace_state(vacuum_state(1, 64), xi), op)
        assert norm_sq == pytest.approx(2.0, abs=1e-10)  # <n> + 1 = 2
        _, pts = grid2d(4.0, 21)
        dev = np.abs(fock_wigner(st, pts) - displaced_poly_wigner(np.eye(2), xi, op)(pts))
        assert np.max(dev) < 1e-8

    def test_displaced_subtract_squeezed(self):
        v = np.diag([np.exp(1.0), np.exp(-1.0)])
        xi = np.array([0.8, -0.5])
        op = subtract(random_mode(1, 3))
        st, _ = apply_photon_op(displace_state(gaussian_fock_state(v, 72), xi), op)
        _, pts = grid2d(4.0, 11)
        dev = np.abs(fock_wigner(st, pts) - displaced_poly_wigner(v, xi, op)(pts))
        assert np.max(dev) < 1e-8


class TestCharacteristicFunction:
    def test_matches_closed_form_including_negative_region(self):
        st, _ = apply_photon_op(gaussian_fock_state(SQ, 60), subtract(X1))
        alphas = np.random.default_rng(3).normal(size=(20, 2)) * 1.5
        chi_o = np.array([fock_characteristic(st, a) for a in alphas])
        chi_a = characteristic_function(SQ, subtract(X1), alphas)
        assert np.max(np.abs(chi_o - chi_a)) < 1e-10
        assert np.max(np.abs(chi_o.imag)) < 1e-10
        assert chi_a.min() < -1e-3  # exercises the continued region


class TestCumulants:
    def test_gaussian_fourth_vanishes(self):
        st = gaussian_fock_state(SQ, 40)
        val = fock_truncated_correlation(st, [X1] * 4)
        assert abs(val) < 1e-8

    def test_added_vacuum_fourth(self):
        st, _ = apply_photon_op(vacuum_state(1, 20), add(X1))
        assert fock_truncated_correlation(st, [X1] * 4) == pytest.approx(-12.0, abs=1e-8)

    def test_sixth_order_matches_closed_form(self):
        st, _ = apply_photon_op(gaussian_fock_state(SQ, 60), subtract(X1))
        a = covariance_correction(SQ, subtract(X1))
        rng = np.random.default_rng(11)
        fs = [random_mode(1, rng) for _ in range(6)]
        oracle = fock_truncated_correlation(st, fs)
        closed = truncated_correlation(a, fs)
        assert oracle == pytest.approx(closed, abs=1e-7)

    def test_two_mode_fourth_matches(self):
        v = random_pure_squeezed_cov(2, [3.0, -2.0], 9)
        g = random_mode(2, 10)
        st, _ = apply_photon_op(gaussian_fock_state(v, 40), add(g))
        a = covariance_correction(v, add(g))
        rng = np.random.default_rng(12)
        fs = [random_mode(2, rng) for _ in range(4)]
        assert fock_truncated_correlation(st, fs) == pytest.approx(
            truncated_correlation(a, fs), abs=1e-7
        )

    def test_capacity_bound(self):
        st = vacuum_state(1, 8)
        with pytest.raises(CapacityError):
            fock_truncated_correlation(st, [X1] * 8)

    def test_empty_mode_list_rejected(self):
        with pytest.raises(ValueError):
            fock_truncated_correlation(vacuum_state(1, 8), [])

    def test_orders_one_and_two_are_mean_and_covariance(self):
        v = random_pure_squeezed_cov(2, [2.0, -1.5], 4)
        state = displace_state(gaussian_fock_state(v, 30), np.array([0.7, -0.4, 0.3, 0.5]))
        state, _ = apply_photon_op(state, add(random_mode(2, 5)))
        cov, mean = fock_covariance(state)
        axes = np.eye(4)
        for i in range(4):
            assert fock_truncated_correlation(state, [axes[i]]) == pytest.approx(
                mean[i], abs=1e-12)
            for j in range(4):
                assert fock_truncated_correlation(state, [axes[i], axes[j]]) == (
                    pytest.approx(cov[i, j], abs=1e-12))


def _reference_moment(psi: np.ndarray, cs: np.ndarray) -> float:
    """``<Sym(Q(f_1) ... Q(f_k))>`` by polarisation over all ``2^k`` sign
    patterns, ``sum_s prod(s) <psi, Q(sum s_i f_i)^k psi> / (2^k k!)``, with
    ``Q`` applied ``k`` times by explicit ladder algebra to a stack holding one
    copy of the state per pattern."""
    k, m, n = len(cs), psi.ndim, psi.shape[0]
    signs = np.array(list(product((1.0, -1.0), repeat=k)))
    c = signs @ cs
    root = np.sqrt(np.arange(1.0, n)).reshape((n - 1,) + (1,) * m)
    phi = np.broadcast_to(psi, (len(signs),) + psi.shape)
    for _ in range(k):
        nxt = np.zeros(phi.shape, complex)
        for j in range(m):
            src, dst = np.moveaxis(phi, j + 1, 0), np.moveaxis(nxt, j + 1, 0)
            cj = c[:, j].reshape((1, -1) + (1,) * (m - 1))
            dst[:-1] += cj * root * src[1:]  # <k| a |k+1> = sqrt(k + 1)
            dst[1:] += np.conj(cj) * root * src[:-1]
        phi = nxt
    vals = (np.conj(psi) * phi).reshape(len(signs), -1).sum(axis=1).real
    return float(np.prod(signs, axis=1) @ vals) / (2.0**k * math.factorial(k))


def _partitions(items: tuple):
    """All set partitions of ``items``."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]
        yield [(first,)] + part


def _reference_cumulant(state: FockState, modes) -> float:
    """Joint cumulant by the set-partition recursion over memoised
    sub-cumulants."""
    m = state.modes
    cs = np.array([f[:m] - 1j * f[m:] for f in modes])  # a(f) = sum c_j a_j
    cumulants: dict[tuple, float] = {}

    def cumulant(idx: tuple) -> float:
        if idx not in cumulants:
            val = _reference_moment(state.amplitudes, cs[list(idx)])
            for part in _partitions(idx):
                if len(part) > 1:
                    val -= math.prod(cumulant(tuple(sorted(b))) for b in part)
            cumulants[idx] = val
        return cumulants[idx]

    return cumulant(tuple(range(len(cs))))


class TestCumulantReference:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 2),
        cutoff=st.integers(12, 18),
        displaced=st.booleans(),
        kind=st.sampled_from(["add", "subtract"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_partition_enumeration(self, m, cutoff, displaced, kind, seed):
        rng = np.random.default_rng(seed)
        v = random_pure_squeezed_cov(m, rng.uniform(-2.0, 2.0, size=m), rng)
        state = gaussian_fock_state(v, cutoff)
        if displaced:
            # a nonzero mean makes the odd orders nonzero
            state = displace_state(state, rng.uniform(-1.0, 1.0, size=2 * m))
        g = random_mode(m, rng)
        if kind == "subtract" and fock_mean_photon(state, g) < 1e-6:
            kind = "add"
        state, _ = apply_photon_op(state, PhotonOpSpec(kind, g))
        for order in range(1, 7):
            fs = [random_mode(m, rng) for _ in range(order)]
            ref = _reference_cumulant(state, fs)
            got = fock_truncated_correlation(state, fs)
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)


class TestDimensionChecks:
    ONE_MODE = vacuum_state(1, 8)
    TWO_MODE_VECTOR = np.array([0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("call", [
        lambda state, g: apply_photon_op(state, add(g)),
        lambda state, g: fock_truncated_correlation(state, [g, g]),
        lambda state, g: fock_mean_photon(state, g),
        lambda state, g: fock_characteristic(state, 0.5 * g),
    ], ids=["apply_photon_op", "fock_truncated_correlation", "fock_mean_photon",
            "fock_characteristic"])
    def test_two_mode_vector_on_one_mode_state(self, call):
        with pytest.raises(DimensionError):
            call(self.ONE_MODE, self.TWO_MODE_VECTOR)


class TestInputContract:
    STATE = vacuum_state(1, 8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, error, match", [
        (lambda s: fock_wigner(s, 3.0), DimensionError, "point"),
        (lambda s: fock_wigner(s, [np.nan, 0.0]), ValueError, "beta"),
        (lambda s: fock_wigner(s, [[0.0, 0.0], [np.inf, 1.0]]), ValueError, "beta"),
        (lambda s: fock_characteristic(s, [np.nan, 0.0]), ValueError, "alpha"),
        (lambda s: displace_state(s, [0.0, -np.inf]), ValueError, "xi"),
        (lambda s: displace_state(s, [[0.5, 0.0]]), DimensionError, "displacement"),
    ], ids=["scalar-point", "nan-point", "inf-in-stack", "nan-alpha", "inf-xi",
            "matrix-xi"])
    def test_rejected_before_any_arithmetic(self, call, error, match):
        with pytest.raises(error, match=match):
            call(self.STATE)


class TestInterferometer:
    @pytest.mark.parametrize("m", [2, 3])
    def test_unitary_preserves_norm(self, m):
        rng = np.random.default_rng(m)
        st = gaussian_fock_state(
            random_pure_squeezed_cov(m, rng.uniform(-2, 2, size=m), rng), 14
        )
        u = random_unitary(m, rng)
        out = apply_interferometer(st, u)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        st = vacuum_state(2, 6)
        with pytest.raises(ValueError, match="unitary"):
            apply_interferometer(st, np.diag([2.0, 1.0]))


def _reference_ladder(psi: np.ndarray, low, high) -> np.ndarray:
    """``sum_j (low[j] a_j + high[j] a_j^dag) psi`` on ``np.moveaxis`` views."""
    n = psi.shape[0]
    root = np.sqrt(np.arange(1.0, n)).reshape((n - 1,) + (1,) * (psi.ndim - 1))
    out = np.zeros(psi.shape, complex)
    for axis, (cl, ch) in enumerate(zip(low, high)):
        p, o = np.moveaxis(psi, axis, 0), np.moveaxis(out, axis, 0)
        o[:-1] += cl * root * p[1:]  # <k| a |k+1> = sqrt(k + 1)
        o[1:] += ch * root * p[:-1]
    return out


def _reference_beamsplitter(psi: np.ndarray, ax1: int, ax2: int, theta,
                            phi) -> np.ndarray:
    """The beamsplitter from one dense ``eigh`` of the full tridiagonal
    generator per photon-number block, ``D Q exp(i theta L) Q^T D^*``."""
    n = psi.shape[ax1]
    moved = np.moveaxis(psi, (ax1, ax2), (0, 1))
    work = moved.reshape(n, n, -1).astype(complex)
    for total in range(1, 2 * n - 2):
        ks = np.arange(max(0, total - n + 1), min(total, n - 1) + 1)
        off = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        lam, q = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        gauge = np.exp(1j * (phi - 0.5 * np.pi) * ks)[:, None]
        block = q.T @ (np.conj(gauge) * work[ks, total - ks])
        work[ks, total - ks] = gauge * (q @ (np.exp(1j * theta * lam)[:, None] * block))
    return np.moveaxis(work.reshape(moved.shape), (0, 1), (ax1, ax2))


def _random_tensor(rng, m: int, cutoff: int) -> np.ndarray:
    shape = (cutoff,) * m
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi / np.linalg.norm(psi)


class TestKernelReferences:
    """The flat-pass ladder and the even/odd SVD beamsplitter against the
    ``moveaxis`` and per-block ``eigh`` references."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 3),
        cutoff=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ladder_matches_moveaxis_reference(self, m, cutoff, seed):
        rng = np.random.default_rng(seed)
        psi = _random_tensor(rng, m, cutoff)
        low, high = (rng.normal(size=(m, 2)) @ [1.0, 1j] for _ in range(2))
        low[rng.random(m) < 0.3] = 0.0
        got = _ladder(psi, low, high, np.empty(psi.shape, complex),
                      np.empty(psi.shape, complex))
        assert np.max(np.abs(got - _reference_ladder(psi, low, high))) <= 1e-13

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(2, 3),
        data=st.data(),
        theta=st.floats(-4.0, 4.0),
        phi=st.floats(-4.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beamsplitter_matches_eigh_reference(self, m, data, theta, phi, seed):
        cutoff = data.draw(st.integers(2, 30), label="cutoff")
        ax1, ax2 = data.draw(st.permutations(range(m)), label="axes")[:2]
        psi = _random_tensor(np.random.default_rng(seed), m, cutoff)
        got = _beamsplitter(psi, ax1, ax2, theta, phi)
        ref = _reference_beamsplitter(psi, ax1, ax2, theta, phi)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("cutoff", [7, 8])
    def test_zero_blocks_stay_exactly_zero(self, cutoff):
        rng = np.random.default_rng(cutoff)
        psi = _random_tensor(rng, 3, cutoff)
        odd_total = np.add.outer(np.arange(cutoff), np.arange(cutoff)) % 2 == 1
        psi[odd_total] = 0.0  # axes 0 and 1 carry the photon-number blocks
        out = _beamsplitter(psi, 0, 1, 0.7, -1.3)
        assert np.all(out[odd_total] == 0.0)
        assert np.max(np.abs(out - _reference_beamsplitter(psi, 0, 1, 0.7, -1.3))) <= 1e-13

    def test_norm_at_cutoff_200(self):
        rng = np.random.default_rng(200)
        out = _beamsplitter(_random_tensor(rng, 2, 200), 1, 0, 1.1, 0.4)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


class TestLeakTails:
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.7, 1.2])
    def test_tails_do_not_depend_on_size(self, r):
        big = _leak_tails(r, MAX_SUGGESTED_CUTOFF)
        for size in (1, 8, 80, 200):
            assert np.array_equal(_leak_tails(r, size), big[:size + 1])

    @pytest.mark.parametrize("r", [0.1, 0.7, 1.2])
    def test_tails_sum_the_squared_amplitudes(self, r):
        sq = squeezed_amplitudes(r, 400) ** 2
        tails = _leak_tails(r, 400)
        assert tails[0] == pytest.approx(1.0, abs=1e-14)
        for c in (2, 9, 20, 60):
            direct = np.sum(sq[c:][::-1]) + tails[400]
            assert tails[c] == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(rs=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=3))
    def test_suggested_cutoff_passes_the_leak_check(self, rs):
        cutoff = suggested_cutoff(rs)
        v = np.diag(np.exp(np.concatenate([2.0 * np.array(rs), -2.0 * np.array(rs)])))
        leak = _leak_tails(rs, cutoff)[cutoff]
        assert leak < LEAK_TOL
        if len(rs) < 3 or cutoff <= 30:
            assert gaussian_fock_state(v, cutoff).norm_deficit < LEAK_TOL


class TestReducedPurityOracle:
    def test_matches_analytic_route(self):
        v = random_pure_squeezed_cov(2, [4.0, -3.0], 21)
        g = random_mode(2, 33)
        st, _ = apply_photon_op(gaussian_fock_state(v, 40), subtract(g))
        mu_oracle = mode_reduced_purity(st, g)
        mu_analytic = reduced_purities(v, subtract(g)).mu
        assert mu_oracle == pytest.approx(mu_analytic, abs=1e-8)

    def test_product_state_stays_pure(self):
        st, _ = apply_photon_op(vacuum_state(2, 12), add([1.0, 0, 0, 0]))
        assert mode_reduced_purity(st, [1.0, 0, 0, 0]) == pytest.approx(1.0, abs=1e-10)


class TestOutputCovarianceAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_covariance_matches(self, seed):
        rng = np.random.default_rng(7000 + seed)
        m = int(rng.integers(1, 3))
        v = random_pure_squeezed_cov(m, rng.uniform(-3.5, 3.5, size=m), rng)
        g = random_mode(m, rng)
        kind = "add" if seed % 2 else "subtract"
        if kind == "subtract" and mean_photon_number(v, g) < 1e-6:
            kind = "add"
        op = PhotonOpSpec(kind, g)
        st, _ = apply_photon_op(gaussian_fock_state(v, 40), op)
        cov, mean = fock_covariance(st)
        assert np.max(np.abs(cov - output_covariance(v, op))) < 1e-7
        assert np.max(np.abs(mean)) < 1e-8
