"""Command-line contract: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from wignerlab.cli import main
from wignerlab.covfile import load_covariance, save_covariance
from wignerlab.gaussian import random_pure_squeezed_cov

TWO_PI = 2.0 * np.pi


@pytest.fixture
def states(tmp_path):
    paths = {}
    paths["vacuum1"] = tmp_path / "vacuum1.json"
    save_covariance(paths["vacuum1"], np.eye(2))
    paths["vacuum2"] = tmp_path / "vacuum2.json"
    save_covariance(paths["vacuum2"], np.eye(4))
    paths["thermal"] = tmp_path / "thermal.json"
    save_covariance(paths["thermal"], 3.0 * np.eye(2))
    paths["squeezed"] = tmp_path / "squeezed.json"
    save_covariance(paths["squeezed"], np.diag([0.5, 2.0]))
    paths["pure16"] = tmp_path / "pure16.json"
    save_covariance(
        paths["pure16"], random_pure_squeezed_cov(16, np.linspace(-6, 6, 16), 3)
    )
    paths["mixed16"] = tmp_path / "mixed16.json"
    save_covariance(
        paths["mixed16"],
        1.25 * random_pure_squeezed_cov(16, np.linspace(-6, 6, 16), 3),
    )
    paths["pure4"] = tmp_path / "pure4.json"
    save_covariance(paths["pure4"], random_pure_squeezed_cov(4, [6.0, 4.0, 2.0, 1.0], 11))
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        v = random_pure_squeezed_cov(3, rng.uniform(-5, 5, 3), rng)
        path = tmp_path / "state.json"
        save_covariance(path, v, metadata={"label": "round-trip"})
        loaded = load_covariance(path)
        assert np.array_equal(loaded.matrix, v)  # bit-exact, not approx
        assert loaded.metadata["label"] == "round-trip"

    def test_mean_vector_round_trip(self, tmp_path):
        v = np.diag([0.5, 2.0])
        mean = np.array([0.25, -1.75])
        path = tmp_path / "displaced.json"
        save_covariance(path, v, mean=mean)
        loaded = load_covariance(path)
        assert np.array_equal(loaded.mean, mean)

    def test_photon_op_commands_require_zero_mean(self, tmp_path, capsys):
        path = tmp_path / "displaced.json"
        save_covariance(path, np.diag([0.5, 2.0]), mean=[1.0, 0.0])
        code, _, err = run(
            capsys, "wigner-grid", "--state", path, "--op", "subtract",
            "--mode", "1,0", "--grid", "5",
        )
        assert code == 2
        assert "zero-mean" in err

    def test_missing_convention_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"modes": 1, "matrix": [[1.0, 0.0], [0.0, 1.0]], "scaling": "shot-noise-1"}
        path.write_text(json.dumps(doc))
        from wignerlab.errors import ParseError

        with pytest.raises(ParseError, match="ordering"):
            load_covariance(path)

    def test_wrong_convention_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "modes": 1,
            "ordering": "xpxp",
            "scaling": "shot-noise-1",
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
        }
        path.write_text(json.dumps(doc))
        from wignerlab.errors import ParseError

        with pytest.raises(ParseError, match="ordering"):
            load_covariance(path)


class TestValidate:
    def test_vacuum(self, states, capsys):
        code, out, _ = run(capsys, "validate", states["vacuum2"])
        assert code == 0
        assert "nu = 1, 1; pure" in out

    def test_thermal(self, states, capsys):
        code, out, _ = run(capsys, "validate", states["thermal"])
        assert code == 0
        assert "nu = 3; mixed" in out

    def test_corrupted_symmetry(self, states, tmp_path, capsys):
        doc = json.loads(open(states["vacuum1"]).read())
        doc["matrix"][0][1] = 1e-3
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2

    def test_unphysical(self, tmp_path, capsys):
        bad = tmp_path / "unphys.json"
        save_covariance(bad, 0.5 * np.eye(2))
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "0.5" in out  # failing eigenvalue printed

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", bad)
        assert code == 3


COMMANDS_ON_STATE = {
    "validate": lambda path, tmp: ["validate", path],
    "witness-scan": lambda path, tmp: [
        "witness-scan", "--state", path, "--op", "add", "--samples", "3",
    ],
    "purify": lambda path, tmp: ["purify", "--state", path, "--out", tmp / "out.json"],
}


class TestNonFiniteAndOverflow:
    @pytest.mark.parametrize("command", sorted(COMMANDS_ON_STATE))
    @pytest.mark.parametrize("field", ["matrix", "mean"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_is_parse_error(self, tmp_path, capsys, command, field, value):
        doc = {"modes": 1, "ordering": "xxpp", "scaling": "shot-noise-1",
               "matrix": [[1.0, 0.0], [0.0, 1.0]], "mean": [0.0, 0.0]}
        (doc["matrix"][0] if field == "matrix" else doc["mean"])[0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # writes the NaN / Infinity tokens
        code, _, err = run(capsys, *COMMANDS_ON_STATE[command](bad, tmp_path))
        assert code == 3
        assert "finite" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(COMMANDS_ON_STATE))
    def test_overflowing_matrix_is_invalid_state(self, tmp_path, capsys, command):
        # finite entries that overflow inside the linear algebra; LAPACK fails
        bad = tmp_path / "huge.json"
        save_covariance(bad, np.full((2, 2), 1e308))
        code, _, err = run(capsys, *COMMANDS_ON_STATE[command](bad, tmp_path))
        assert code == 2
        assert "invalid state" in err


class TestWignerGrid:
    def test_vacuum_add_minimum(self, states, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, "wigner-grid", "--state", states["vacuum1"], "--op", "add",
            "--mode", "1,0", "--grid", "41", "--range", "4", "--out", out_csv,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#") and "," in ln][1:]
        assert len(data) == 41 * 41  # resolution^2 data rows
        assert "ordering=xxpp" in header[0] and "scaling=shot-noise-1" in header[0]
        values = np.array([float(ln.split(",")[2]) for ln in data])
        assert values.min() == pytest.approx(-1.0 / TWO_PI, abs=1e-12)

    def test_thermal_subtract_positive(self, states, capsys):
        code, out, _ = run(
            capsys, "wigner-grid", "--state", states["thermal"], "--op", "subtract",
            "--mode", "1,0", "--grid", "21", "--range", "4",
        )
        assert code == 0
        lines = [
            ln for ln in out.splitlines()
            if not ln.startswith(("#", "beta", "min", "witness"))
        ]
        values = np.array([float(ln.split(",")[2]) for ln in lines if "," in ln])
        assert np.all(values > 0.0)
        assert "witness = 0.666" in out  # 2 / nu for nu = 3

    def test_vacuum_subtraction_exit4(self, states, capsys):
        code, _, err = run(
            capsys, "wigner-grid", "--state", states["vacuum1"], "--op", "subtract",
            "--mode", "1,0",
        )
        assert code == 4

    def test_supermode_spec(self, states, capsys):
        code, out, _ = run(
            capsys, "wigner-grid", "--state", states["pure4"], "--op", "subtract",
            "--mode", "supermode:0", "--grid", "5", "--range", "2",
        )
        assert code == 0


class TestWitnessScan:
    def test_addition_always_negative(self, states, tmp_path, capsys):
        csv = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "witness-scan", "--state", states["mixed16"], "--op", "add",
            "--samples", "40", "--seed", "5", "--out", csv,
        )
        assert code == 0
        assert "negative fraction = 1.0" in out
        header = csv.read_text().splitlines()[0]
        assert "ordering=xxpp" in header and "scaling=shot-noise-1" in header

    def test_thermal_subtract_never_negative(self, states, capsys):
        code, out, _ = run(
            capsys, "witness-scan", "--state", states["thermal"], "--op", "subtract",
            "--samples", "30", "--seed", "2",
        )
        assert code == 0
        assert "negative fraction = 0.0" in out

    def test_pure_sixteen_mode_always_negative(self, states, capsys):
        code, out, _ = run(
            capsys, "witness-scan", "--state", states["pure16"], "--op", "subtract",
            "--samples", "100", "--seed", "9",
        )
        assert code == 0
        assert "negative fraction = 1.0" in out

    def test_mixed_variant_intermediate_and_stable(self, states, tmp_path, capsys):
        args = (
            "witness-scan", "--state", states["mixed16"], "--op", "subtract",
            "--samples", "120", "--seed", "31",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        fraction = float(out1.split("negative fraction = ")[1].split()[0])
        assert 0.0 < fraction < 1.0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2  # seed-stable


class TestPurityScan:
    def test_single_mode_degenerate(self, states, capsys):
        for seed in range(10):
            code, out, _ = run(
                capsys, "purity-scan", "--state", states["squeezed"], "--op",
                "subtract", "--samples", "4", "--seed", seed,
            )
            assert code == 0
            mu0 = float(out.split("mean mu0 = ")[1].split()[0])
            mu = float(out.split("mean mu = ")[1].split()[0])
            assert abs(mu0 - 1.0) <= 1e-12
            assert abs(mu - 1.0) <= 1e-12

    def test_supermode_flag_equal_purities(self, states, capsys):
        code, out, _ = run(
            capsys, "purity-scan", "--state", states["pure4"], "--op", "subtract",
            "--mode", "supermode:1",
        )
        assert code == 0
        assert "fraction mu<mu0 = 0.0" in out
        mu0 = float(out.split("mean mu0 = ")[1].split()[0])
        mu = float(out.split("mean mu = ")[1].split()[0])
        assert mu == pytest.approx(mu0, abs=1e-9)

    @pytest.mark.parametrize("op", ["add", "subtract"])
    @pytest.mark.parametrize("index", range(4))
    def test_supermode_ties_not_lowered(self, states, capsys, op, index):
        # mu = mu0 exactly for a supermode; rounding must not count as lowered
        code, out, _ = run(
            capsys, "purity-scan", "--state", states["pure4"], "--op", op,
            "--mode", f"supermode:{index}",
        )
        assert code == 0
        assert "fraction mu<mu0 = 0.0" in out

    def test_vacuum_mode_subtraction_exit4(self, states, capsys):
        code, _, err = run(
            capsys, "purity-scan", "--state", states["vacuum2"], "--op", "subtract",
            "--mode", "1,0,0,0",
        )
        assert code == 4
        assert "subtraction undefined" in err

    def test_mixed_rejected_exit5(self, states, capsys):
        code, out, _ = run(
            capsys, "purity-scan", "--state", states["mixed16"], "--op", "subtract",
            "--samples", "2",
        )
        assert code == 5
        assert "purify" in out

    def test_subtract_vs_add(self, states, tmp_path, capsys):
        # subtraction typically gives lower reduced purity than addition on
        # the same modes; reported, not asserted as universal
        outs = {}
        for op in ("subtract", "add"):
            csv = tmp_path / f"scan-{op}.csv"
            code, out, _ = run(
                capsys, "purity-scan", "--state", states["pure4"], "--op", op,
                "--samples", "30", "--seed", "8", "--out", csv,
            )
            assert code == 0
            rows = [
                ln for ln in csv.read_text().splitlines()
                if ln and not ln.startswith(("#", "sample"))
            ]
            outs[op] = np.array([float(r.split(",")[-1]) for r in rows])
        frac = np.mean(outs["subtract"] <= outs["add"] + 1e-12)
        assert frac > 0.5


class TestPurify:
    def test_pure_input_unchanged(self, states, tmp_path, capsys):
        out_path = tmp_path / "purified.json"
        code, out, _ = run(capsys, "purify", "--state", states["pure16"], "--out", out_path)
        assert code == 0
        assert "pure" in out
        original = load_covariance(states["pure16"]).matrix
        purified = load_covariance(out_path).matrix
        assert np.max(np.abs(original - purified)) < 1e-9

    def test_thermal_becomes_vacuum(self, states, tmp_path, capsys):
        out_path = tmp_path / "vac.json"
        code, out, _ = run(capsys, "purify", "--state", states["thermal"], "--out", out_path)
        assert code == 0
        assert np.allclose(load_covariance(out_path).matrix, np.eye(2), atol=1e-10)
        assert "ratio = 0.5" in out  # |I|/|2 I| in Hilbert-Schmidt norm

    def test_mixed_output_is_pure(self, states, tmp_path, capsys):
        out_path = tmp_path / "purified.json"
        code, _, _ = run(capsys, "purify", "--state", states["mixed16"], "--out", out_path)
        assert code == 0
        from wignerlab.gaussian import gaussian_purity

        assert gaussian_purity(load_covariance(out_path).matrix) == pytest.approx(
            1.0, abs=1e-9
        )
        meta = load_covariance(out_path).metadata
        assert "pure-to-noise-hs-ratio" in meta


class TestOracleCheck:
    @pytest.mark.parametrize("preset", ["vacuum-add", "squeezed-subtract"])
    def test_presets_pass(self, preset, capsys):
        code, out, _ = run(capsys, "oracle-check", "--preset", preset)
        assert code == 0
        assert "PASS" in out

    def test_two_mode_preset(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--preset", "two-mode-random")
        assert code == 0

    def test_displaced_preset(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--preset", "displaced-add")
        assert code == 0

    def test_low_cutoff_exit6(self, capsys):
        code, _, err = run(
            capsys, "oracle-check", "--preset", "two-mode-random", "--cutoff", "8"
        )
        assert code == 6
        assert "suggested" in err


class TestDeterminism:
    def test_wigner_grid_bytes(self, states, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "wigner-grid", "--state", states["squeezed"], "--op",
                "subtract", "--mode", "random", "--seed", "3", "--grid", "15",
                "--out", p,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_scan_serial_vs_parallel_bytes(self, states, tmp_path, capsys):
        outs = []
        for workers, name in ((1, "s.csv"), (4, "p.csv")):
            p = tmp_path / name
            code, out, _ = run(
                capsys, "witness-scan", "--state", states["pure16"], "--op",
                "subtract", "--samples", "24", "--seed", "11",
                "--workers", str(workers), "--out", p,
            )
            assert code == 0
            outs.append((p.read_bytes(), out))
        assert outs[0] == outs[1]

    def test_purity_scan_workers_bytes(self, states, tmp_path, capsys):
        outs = []
        for workers, name in ((1, "s.csv"), (3, "p.csv")):
            p = tmp_path / name
            code, out, _ = run(
                capsys, "purity-scan", "--state", states["pure4"], "--op", "add",
                "--samples", "18", "--seed", "4", "--workers", str(workers),
                "--out", p,
            )
            assert code == 0
            outs.append((p.read_bytes(), out))
        assert outs[0] == outs[1]
