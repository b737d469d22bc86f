"""Acceptance suite: one test per exit criterion, each printing a verdict line.

The shared oracle case set (criteria 1 and 2) draws fifty random pure states,
half single-mode with squeezing up to 1 nat and half two-mode with per-mode
squeezing up to 0.7 nats, alternating photon addition and subtraction, with
Fock cutoffs chosen so the truncated tail amplitude sits far below every
tolerance (the single-mode cases cover the full squeezing range; the
two-mode cap keeps the brute-force tensors inside the runtime budget).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import grid2d, integrate2d, plane_points, record_acceptance
from wignerlab import analysis, fock, photon_ops
from wignerlab.cli import main as cli_main
from wignerlab.covfile import save_covariance
from wignerlab.errors import CutoffError, SubtractionUndefinedError
from wignerlab.gaussian import (
    bloch_messiah,
    gaussian_purity,
    random_mixed_cov,
    random_pure_squeezed_cov,
    reduce_to_mode,
    williamson,
)
from wignerlab.phase_space import random_mode
from wignerlab.photon_ops import PhotonOpSpec, add, subtract

NATS_TO_DB = 20.0 / np.log(10.0)
X1 = np.array([1.0, 0.0])


@dataclass
class OracleCase:
    v: np.ndarray
    op: PhotonOpSpec
    op_state: fock.FockState
    cutoff: int


@pytest.fixture(scope="module")
def oracle_cases():
    rng = np.random.default_rng(0xACCE)
    cases = []
    for i in range(50):
        m = 1 if i < 25 else 2
        r_cap = 1.0 if m == 1 else 0.7
        rs = rng.uniform(0.1, r_cap, size=m)
        signs = rng.choice([-1.0, 1.0], size=m)
        v = random_pure_squeezed_cov(m, rs * signs * NATS_TO_DB, rng)
        g = random_mode(m, rng)
        kind = "add" if i % 2 else "subtract"
        if kind == "subtract" and photon_ops.mean_photon_number(v, g) < 1e-6:
            kind = "add"
        op = PhotonOpSpec(kind, g)
        # floor 80: the displaced-parity evaluation needs headroom over the
        # grid-corner displacement (photon mean 8) plus the squeezed spread
        cutoff = max(80, fock.suggested_cutoff(rs, 1e-20) + 12)
        state, _ = fock.apply_photon_op(fock.gaussian_fock_state(v, cutoff), op)
        cases.append(OracleCase(v=v, op=op, op_state=state, cutoff=cutoff))
    return cases


def test_criterion_1_wigner_oracle_equivalence(oracle_cases):
    """Closed-form Wigner vs Fock oracle on 21x21 grids, 1e-8, < 2 min."""
    start = time.perf_counter()
    _, flat = grid2d(4.0, 21)
    worst = 0.0
    for case in oracle_cases:
        pts = plane_points(flat, case.op.mode)
        analytic = photon_ops.nongaussian_wigner(case.v, case.op)(pts)
        oracle = fock.fock_wigner(case.op_state, pts)
        worst = max(worst, float(np.max(np.abs(analytic - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 120.0
    record_acceptance(
        1, "wigner oracle equivalence",
        ok, f"max |dW| = {worst:.3e} over 50 cases (tol 1e-8), {elapsed:.1f}s",
    )
    assert worst < 1e-8
    assert elapsed < 120.0


def test_criterion_2_cumulant_equivalence(oracle_cases):
    """Truncated correlations, orders 4 and 6, analytic vs oracle, 1e-7."""
    rng = np.random.default_rng(0xC0DE)
    worst = 0.0
    for case in oracle_cases:
        m = case.v.shape[0] // 2
        a = photon_ops.covariance_correction(case.v, case.op)
        for order in (4, 6):
            fs = [random_mode(m, rng) for _ in range(order)]
            closed = photon_ops.truncated_correlation(a, fs)
            oracle = fock.fock_truncated_correlation(case.op_state, fs)
            worst = max(worst, abs(closed - oracle))
    # fixed point: fourth-order correlation of the photon-added vacuum
    st, _ = fock.apply_photon_op(fock.vacuum_state(1, 24), add(X1))
    fixed = fock.fock_truncated_correlation(st, [X1] * 4)
    fixed_closed = photon_ops.truncated_correlation(
        photon_ops.covariance_correction(np.eye(2), add(X1)), [X1] * 4
    )
    ok = worst < 1e-7 and abs(fixed + 12.0) < 1e-8 and fixed_closed == -12.0
    record_acceptance(
        2, "cumulant equivalence",
        ok, f"max |dk| = {worst:.3e} (tol 1e-7); added-vacuum k4 = {fixed:.9f}",
    )
    assert worst < 1e-7
    assert abs(fixed + 12.0) < 1e-8
    assert fixed_closed == -12.0


def test_criterion_3_witness_exactness():
    """Witness <=> sign of W(0) over 1000 random states, zero disagreements."""
    rng = np.random.default_rng(0xBEEF)
    disagreements = 0
    add_negative = 0
    add_total = 0
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        v = random_mixed_cov(
            m, rng, max_squeezing_db=7.0,
            max_thermal=2.2 if rng.integers(2) else 1.0,
        )
        g = random_mode(m, rng)
        for kind in ("add", "subtract"):
            op = PhotonOpSpec(kind, g)
            if kind == "subtract" and photon_ops.mean_photon_number(v, g) < 1e-9:
                continue
            rep = analysis.negativity_witness(v, op)
            origin = analysis.wigner_at_origin(v, op)
            checked += 1
            if rep.negative != (origin < 0.0):
                disagreements += 1
            if kind == "add":
                add_total += 1
                add_negative += rep.negative
    ok = disagreements == 0 and add_negative == add_total
    record_acceptance(
        3, "witness exactness",
        ok, f"{checked} checks, {disagreements} disagreements; "
        f"addition negative {add_negative}/{add_total}",
    )
    assert disagreements == 0
    assert add_negative == add_total


def test_criterion_4_fourier_consistency():
    """FT of the closed-form characteristic function matches the Wigner
    function within 1e-6 on single-mode grids, 10 random cases."""
    rng = np.random.default_rng(0xFA57)
    worst = 0.0
    for _ in range(10):
        v = random_mixed_cov(1, rng, max_squeezing_db=4.5, max_thermal=1.6)
        g = random_mode(1, rng)
        kind = "add" if rng.integers(2) else "subtract"
        op = PhotonOpSpec(kind, g)
        w = photon_ops.nongaussian_wigner(v, op)
        lam_min = np.linalg.eigvalsh(v)[0]
        extent = np.sqrt(2.0 * 27.0 / lam_min)  # chi below 1e-12 at the edge
        axis, alphas = grid2d(extent, 801)
        chi = photon_ops.characteristic_function(v, op, alphas)
        for beta in ([0.0, 0.0], [0.9, -0.6], [-1.4, 0.3]):
            phases = np.exp(-1j * alphas @ np.asarray(beta))
            val = integrate2d((chi * phases).real, axis) / (2.0 * np.pi) ** 2
            worst = max(worst, abs(val - w(np.asarray(beta))))
    ok = worst < 1e-6
    record_acceptance(
        4, "fourier consistency", ok, f"max |dW| = {worst:.3e} (tol 1e-6)"
    )
    assert worst < 1e-6


def test_criterion_5_mixture_reconstruction():
    """Monte-Carlo convex-decomposition reconstruction within 3 standard
    errors of the closed form at 9 points, 1e5 samples, < 1 min per state."""
    rng = np.random.default_rng(0x5EED)
    axis = np.array([-1.5, 0.0, 1.5])
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([b1.ravel(), b2.ravel()], axis=-1)
    worst_z = 0.0
    worst_time = 0.0
    for i in range(5):
        v = random_mixed_cov(1, rng, max_squeezing_db=4.0, max_thermal=1.9)
        g = random_mode(1, rng)
        kind = "add" if i % 2 else "subtract"
        op = PhotonOpSpec(kind, g)
        start = time.perf_counter()
        est = photon_ops.mixture_reconstruction(v, op, pts, 100_000, 1000 + i)
        elapsed = time.perf_counter() - start
        truth = photon_ops.nongaussian_wigner(v, op)(pts)
        z = np.abs(est.values - truth) / est.std_errors
        worst_z = max(worst_z, float(np.max(z)))
        worst_time = max(worst_time, elapsed)
    ok = worst_z < 3.0 and worst_time < 60.0
    record_acceptance(
        5, "mixture reconstruction",
        ok, f"max |z| = {worst_z:.2f} (limit 3); worst state {worst_time:.2f}s",
    )
    assert worst_z < 3.0
    assert worst_time < 60.0


def test_criterion_6_purity_pipeline():
    """Reduced-purity pipeline: exact point, quadrature agreement, Gaussian
    baseline consistency."""
    # (a) photon-added vacuum stays pure after reduction
    rep = analysis.reduced_purities(np.eye(4), add([1.0, 0, 0, 0]))
    part_a = abs(rep.mu - 1.0) < 1e-6

    # (b) analytic purity vs two-dimensional quadrature on 100 random cases
    rng = np.random.default_rng(0x9017)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        v = random_mixed_cov(m, rng, max_squeezing_db=6.0, max_thermal=1.6)
        g = random_mode(m, rng)
        kind = "add" if rng.integers(2) else "subtract"
        if kind == "subtract" and photon_ops.mean_photon_number(v, g) < 1e-6:
            kind = "add"
        w2 = analysis.marginal_wigner(
            photon_ops.nongaussian_wigner(v, PhotonOpSpec(kind, g)), g
        )
        mu = analysis.wigner_purity(w2)
        extent = 7.0 * np.sqrt(np.linalg.eigvalsh(w2.cov)[-1])
        axis, pts = grid2d(extent, 401)
        mu_quad = 4.0 * np.pi * integrate2d(w2(pts) ** 2, axis)
        worst = max(worst, abs(mu - mu_quad))
    part_b = worst < 1e-6

    # (c) Gaussian-only objects reproduce the reduced-matrix purity
    worst_c = 0.0
    for seed in range(20):
        v = random_mixed_cov(3, 500 + seed, max_thermal=2.0)
        g = random_mode(3, 900 + seed)
        w = photon_ops.PolyGaussianWigner(
            quad=np.zeros((6, 6)), lin=np.zeros(6), const=1.0,
            cov=v, mean=np.zeros(6),
        )
        mu_a = analysis.wigner_purity(analysis.marginal_wigner(w, g))
        mu_b = gaussian_purity(reduce_to_mode(v, g))
        worst_c = max(worst_c, abs(mu_a - mu_b))
    part_c = worst_c < 1e-9

    ok = part_a and part_b and part_c
    record_acceptance(
        6, "purity pipeline",
        ok, f"added-vacuum mu = {rep.mu:.9f}; quadrature gap {worst:.2e} "
        f"(tol 1e-6); baseline gap {worst_c:.2e} (tol 1e-9)",
    )
    assert part_a and part_b and part_c


def test_criterion_7_passive_separability():
    """Supermodes stay passively separable with mu = mu0; non-factorising
    modes lower the purity in at least 95% of draws."""
    rng = np.random.default_rng(0x70DE)
    supermode_ok = True
    worst_gap = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        db = rng.uniform(1.0, 7.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        v = random_pure_squeezed_cov(m, db, rng)
        bm = bloch_messiah(williamson(v).s)
        for i in range(m):
            if not analysis.passive_separability_witness(v, bm.supermode(i)):
                supermode_ok = False
        pick = int(rng.integers(m))
        rep = analysis.reduced_purities(v, subtract(bm.supermode(pick)))
        worst_gap = max(worst_gap, abs(rep.mu - rep.mu0))
    part_a = supermode_ok and worst_gap < 1e-9

    v4 = random_pure_squeezed_cov(4, [7.0, 5.0, 3.0, 1.5], 0xD15C)
    lowered = 0
    total = 0
    for _ in range(200):
        g = random_mode(4, rng)
        if analysis.passive_separability_witness(v4, g):
            continue
        rep = analysis.reduced_purities(v4, subtract(g))
        total += 1
        lowered += rep.mu < rep.mu0
    fraction = lowered / total
    part_b = fraction >= 0.95

    ok = part_a and part_b
    record_acceptance(
        7, "passive separability",
        ok, f"supermodes all pass, max |mu-mu0| = {worst_gap:.2e} (tol 1e-9); "
        f"purity lowered for {lowered}/{total} non-factorising draws",
    )
    assert part_a and part_b


def test_criterion_8_degenerate_and_error_paths(tmp_path):
    """Vacuum-mode subtraction rejected; thermal subtraction certified
    positive; the cutoff-leakage gate trips at a deliberately low cutoff."""
    # vacuum-mode subtraction
    with pytest.raises(SubtractionUndefinedError):
        photon_ops.covariance_correction(np.eye(2), subtract(X1))
    vac_path = tmp_path / "vacuum.json"
    save_covariance(vac_path, np.eye(2))
    code_vac = cli_main(
        ["wigner-grid", "--state", str(vac_path), "--op", "subtract",
         "--mode", "1,0", "--grid", "5"]
    )

    # thermal state: witness 2/nu for every mode, never negative, W(0) > 0
    nu = 2.0
    v = nu * np.eye(4)
    thermal_ok = True
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_mode(2, rng)
        rep = analysis.negativity_witness(v, subtract(g))
        if rep.negative or abs(rep.value - 2.0 / nu) > 1e-12:
            thermal_ok = False
        if analysis.wigner_at_origin(v, subtract(g)) <= 0.0:
            thermal_ok = False

    # cutoff gate
    tight = random_pure_squeezed_cov(2, [4.0, -3.0], 0xF0CC)
    with pytest.raises(CutoffError) as err:
        fock.gaussian_fock_state(tight, 8)
    gate_ok = err.value.suggested_cutoff is not None
    code_gate = cli_main(["oracle-check", "--preset", "two-mode-random", "--cutoff", "8"])

    ok = code_vac == 4 and thermal_ok and gate_ok and code_gate == 6
    record_acceptance(
        8, "degenerate and error paths",
        ok, f"vacuum-subtraction exit {code_vac}; thermal witness 2/nu certified; "
        f"cutoff gate exit {code_gate}",
    )
    assert code_vac == 4
    assert thermal_ok
    assert gate_ok and code_gate == 6


def test_criterion_9_determinism(tmp_path, capsys):
    """Scan commands are byte-identical across reruns and worker counts."""
    state_path = tmp_path / "pure4.json"
    save_covariance(state_path, random_pure_squeezed_cov(4, [6.0, 4.0, 2.0, 1.0], 11))

    outputs = {}
    runs = {
        "witness-a": ["witness-scan", "--workers", "1"],
        "witness-b": ["witness-scan", "--workers", "1"],
        "witness-par": ["witness-scan", "--workers", "4"],
        "purity-a": ["purity-scan", "--workers", "1"],
        "purity-par": ["purity-scan", "--workers", "3"],
    }
    for name, head in runs.items():
        out_path = tmp_path / f"{name}.csv"
        code = cli_main(
            head + ["--state", str(state_path), "--op", "subtract",
                    "--samples", "20", "--seed", "21", "--out", str(out_path)]
        )
        assert code == 0
        outputs[name] = (out_path.read_bytes(), capsys.readouterr().out)

    same_rerun = outputs["witness-a"] == outputs["witness-b"]
    same_parallel = (
        outputs["witness-a"] == outputs["witness-par"]
        and outputs["purity-a"] == outputs["purity-par"]
    )
    ok = same_rerun and same_parallel
    record_acceptance(
        9, "determinism",
        ok, f"rerun identical: {same_rerun}; serial == parallel: {same_parallel}",
    )
    assert same_rerun and same_parallel
