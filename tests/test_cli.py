"""Command-line contract: formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wignerlab
from wignerlab import cli, gaussian
from wignerlab.cli import main
from wignerlab.covfile import load_covariance, save_covariance
from wignerlab.errors import ParseError, SymplecticError
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
        from wignerlab.errors import ParseError, SymplecticError

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
        from wignerlab.errors import ParseError, SymplecticError

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
        code, out, err = run(capsys, "validate", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid state:") and "0.5" in err  # failing eigenvalue

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", bad)
        assert code == 3


class TestOneSpectrum:
    @pytest.mark.parametrize("argv, code", [
        (["validate", "pure4"], 0),
        (["validate", "mixed16"], 0),
        (["purity-scan", "--state", "pure4", "--op", "subtract", "--samples", "3"], 0),
        (["purity-scan", "--state", "mixed16", "--op", "add", "--samples", "3"], 5),
        (["oracle-check", "--preset", "two-mode-random"], 0),
        (["purify", "--state", "mixed16", "--out", "out.json"], 0),
        (["wigner-grid", "--state", "mixed16", "--op", "add", "--mode", "supermode:0",
          "--grid", "3"], 0),
        (["purity-scan", "--state", "pure4", "--op", "add", "--mode", "supermode:0"], 0),
        (["witness-scan", "--state", "mixed16", "--op", "subtract", "--samples", "3"], 0),
    ])
    def test_one_symplectic_eigenproblem(self, states, tmp_path, capsys, monkeypatch,
                                         argv, code):
        # the normal form solved at validation serves every later reader of the
        # state file: purity, the purity value, supermodes and the pure part
        calls = []
        normal_form = gaussian.GaussianState.__dict__["_normal_form"]
        solve = normal_form.func

        def counted(state):
            calls.append(state)
            return solve(state)

        monkeypatch.setattr(normal_form, "func", counted)
        states["out.json"] = tmp_path / "out.json"
        assert run(capsys, *[states.get(a, a) for a in argv])[0] == code
        assert len(calls) == 1


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

    @pytest.mark.parametrize("command", sorted(COMMANDS_ON_STATE))
    def test_overflowing_matrix_is_invalid_state(self, tmp_path, capsys, command):
        # finite entries beyond the entry gate; no overflow warning fires first
        bad = tmp_path / "huge.json"
        save_covariance(bad, np.full((2, 2), 1e308))
        code, _, err = run(capsys, *COMMANDS_ON_STATE[command](bad, tmp_path))
        assert code == 2
        assert "invalid state" in err


STATE_COMMANDS = {
    **COMMANDS_ON_STATE,
    "wigner-grid": lambda path, tmp: [
        "wigner-grid", "--state", path, "--op", "add", "--mode", "1,0", "--grid", "3",
        "--out", tmp / "grid.csv",
    ],
    "purity-scan": lambda path, tmp: [
        "purity-scan", "--state", path, "--op", "add", "--out", tmp / "scan.csv",
    ],
}


class TestEntryBound:
    @pytest.mark.parametrize("command", sorted(STATE_COMMANDS))
    @pytest.mark.parametrize("matrix", ["full-1e308", "diag-1e200"])
    def test_beyond_bound_is_invalid_state(self, tmp_path, capsys, command, matrix):
        # diag(1e200, 1e200) used to pass validation; witness-scan then wrote
        # mu0 = mu = 0.0 after an overflow warning and exited 0
        v = np.full((2, 2), 1e308) if matrix == "full-1e308" else np.diag([1e200, 1e200])
        bad = tmp_path / "huge.json"
        save_covariance(bad, v)
        code, out, err = run(capsys, *STATE_COMMANDS[command](bad, tmp_path))
        assert code == 2
        assert err.startswith("invalid state:") and len(err.splitlines()) == 1
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    def test_state_within_bound_gives_finite_rows(self, tmp_path, capsys):
        state = tmp_path / "big.json"
        save_covariance(state, np.diag([1e99, 1e99]))
        code, out, _ = run(capsys, "witness-scan", "--state", state, "--op", "add",
                           "--samples", "4")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()[1:-1]))
        assert len(rows) == 4
        assert all(float(r["mu0"]) == pytest.approx(1e-99) for r in rows)
        assert all(np.isfinite(float(x)) for r in rows for x in r.values())


def test_symplectic_error_is_invalid_state(states, capsys, monkeypatch):
    # supermode:i on a state too ill-conditioned for Bloch-Messiah
    def fail(s):
        raise SymplecticError("eigenvalue pairing failed; matrix too ill-conditioned")

    monkeypatch.setattr(cli, "bloch_messiah", fail)
    code, out, err = run(capsys, "wigner-grid", "--state", states["squeezed"], "--op",
                         "add", "--mode", "supermode:0", "--grid", "3")
    assert code == 2
    assert err.startswith("invalid state:") and len(err.splitlines()) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["witness-scan", "--state", "{squeezed}", "--op", "add"],
        ["witness-scan", "--state", "{squeezed}", "--op", "add", "--samples", "x"],
        ["witness-scan", "--state", "{squeezed}", "--op", "mul", "--samples", "1"],
        ["wigner-grid", "--state", "{squeezed}", "--op", "add", "--mode", "-1,0"],
        ["wigner-grid", "--state", "{squeezed}", "--op", "add", "--mode", "1,0",
         "--range", "wide"],
        ["validate", "{squeezed}", "--unknown"],
    ], ids=["no-command", "unknown-command", "missing-flag", "samples-not-int",
            "bad-op", "leading-minus-mode", "range-not-float", "unknown-flag"])
    def test_exit_3_through_main(self, states, capsys, argv):
        code, out, err = run(capsys, *[a.format(**states) for a in argv])
        assert code == 3
        assert err.startswith("parse error: ") and len(err.splitlines()) == 1
        assert out == ""

    def test_leading_minus_mode_with_equals_form(self, states, capsys):
        code, out, _ = run(capsys, "wigner-grid", "--state", states["squeezed"],
                           "--op", "add", "--mode=-1,0", "--grid", "3")
        assert code == 0
        assert "mode=-1,0" in out

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wigner-grid", "--help"])
        assert exc.value.code == 0
        assert "--mode=-1,0" in capsys.readouterr().out


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it; parsing
    keeps nothing from one call to the next."""

    @staticmethod
    def calls(states, tmp_path):
        return [
            ["wigner-grid", "--state", states["squeezed"], "--op", "add", "--mode", "1,0",
             "--grid", "3", "--seed", "5", "--out", tmp_path / "grid.csv"],
            ["wigner-grid", "--state", states["squeezed"], "--op", "subtract",
             "--mode", "random", "--grid", "2"],
            ["validate", states["thermal"]],
            ["purity-scan", "--state", states["pure4"], "--op", "add", "--samples", "3"],
            ["purity-scan", "--state", states["pure4"], "--op", "add", "--bogus"],
            ["witness-scan", "--state", states["squeezed"], "--op", "add",
             "--samples", "2", "--seed", "9"],
            ["witness-scan", "--state", states["squeezed"], "--op", "add", "--samples", "2"],
        ]

    def test_built_once_across_calls(self, states, tmp_path, capsys):
        cli._build_parser.cache_clear()
        calls = self.calls(states, tmp_path)
        for argv in calls:
            run(capsys, *argv)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)

    def test_consecutive_calls_share_no_state(self, states, tmp_path, capsys):
        calls = self.calls(states, tmp_path)
        reused = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 3, 0, 0]

    @pytest.mark.parametrize("argv", [["--help"], ["wigner-grid", "--help"],
                                      ["oracle-check", "--help"]])
    def test_help_matches_a_fresh_parser(self, argv, states, capsys):
        run(capsys, "validate", states["vacuum1"])
        texts = []
        for parse in (main, cli._build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            texts.append((exc.value.code, capsys.readouterr().out))
        assert texts[0] == texts[1]
        assert texts[0][0] == 0 and texts[0][1].startswith("usage: wignerlab")


UNWRITABLE = {
    "witness-scan": lambda s, out: ["witness-scan", "--state", s["squeezed"], "--op",
                                    "add", "--samples", "2", "--out", out],
    "purity-scan": lambda s, out: ["purity-scan", "--state", s["squeezed"], "--op",
                                   "add", "--out", out],
    "wigner-grid": lambda s, out: ["wigner-grid", "--state", s["squeezed"], "--op",
                                   "add", "--mode", "1,0", "--grid", "3", "--out", out],
    "purify": lambda s, out: ["purify", "--state", s["thermal"], "--out", out],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", sorted(UNWRITABLE))
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_exit_3_and_nothing_written(self, states, tmp_path, capsys, command, target):
        out_dir = tmp_path / "outputs"
        out_dir.mkdir()
        out = out_dir / "missing" / "x.out" if target == "missing-directory" else out_dir
        code, stdout, err = run(capsys, *UNWRITABLE[command](states, out))
        assert code == 3
        assert err.startswith("parse error: cannot write") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert list(out_dir.iterdir()) == []
        assert "written" not in stdout


def _state_doc(**fields):
    doc = {"modes": 1, "ordering": "xxpp", "scaling": "shot-noise-1",
           "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    doc.update(fields)
    return doc


class TestStrictSchema:
    @pytest.mark.parametrize("fields", [
        {"modes": 1.7},
        {"modes": 1.0},
        {"modes": "1"},
        {"modes": True},
        {"modes": None},
        {"matrix": [[True, 0], [0, True]]},
        {"matrix": [["1", 0], [0, 1]]},
        {"matrix": [[1, 0], [0, None]]},
        {"matrix": [[1, 0], [0]]},
        {"matrix": [1, 0, 0, 1]},
        {"matrix": [[[1], 0], [0, 1]]},
        {"matrix": [[1e400, 0], [0, 1]]},
        {"matrix": [[10**400, 0], [0, 1]]},
        {"mean": [False, 0.0]},
        {"mean": ["0", 0.0]},
        {"mean": [[0.0, 0.0]]},
    ], ids=["modes-fraction", "modes-float", "modes-string", "modes-bool",
            "modes-null", "matrix-bools", "matrix-string", "matrix-null",
            "matrix-ragged", "matrix-flat", "matrix-nested", "matrix-inf-literal",
            "matrix-huge-int", "mean-bool", "mean-string", "mean-nested"])
    def test_exit_3(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_state_doc(**fields)))
        with pytest.raises(ParseError):
            load_covariance(path)
        code, out, err = run(capsys, "validate", path)
        assert code == 3
        assert err.startswith("parse error: ") and out == ""

    def test_integers_are_numbers(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(_state_doc(matrix=[[2, 0], [0, 1]], mean=[0, 1])))
        cov = load_covariance(path)
        assert cov.matrix.dtype == float and cov.mean.tolist() == [0.0, 1.0]


BAD_FLAGS = [
    ("witness-scan", "--samples", "0"),
    ("witness-scan", "--samples", "-3"),
    ("purity-scan", "--samples", "0"),
    ("purity-scan", "--samples", "-3"),
    ("wigner-grid", "--grid", "0"),
    ("wigner-grid", "--grid", "-1"),
    ("wigner-grid", "--range", "nan"),
    ("wigner-grid", "--range", "inf"),
    ("wigner-grid", "--range", "0"),
    ("wigner-grid", "--range", "-2"),
    ("oracle-check", "--cutoff", "1"),
    ("oracle-check", "--cutoff", "0"),
    ("oracle-check", "--cutoff", "-2"),
    ("oracle-check", "--cutoff", "513"),
    ("witness-scan", "--seed", "-1"),
    ("wigner-grid", "--seed", "-1"),
    ("wigner-grid", "--range", "1.01e100"),
    ("wigner-grid", "--range", "1e308"),
    # beyond cli.MAX_ROWS: refused before anything is allocated
    ("witness-scan", "--samples", str(cli.MAX_ROWS + 1)),
    ("witness-scan", "--samples", "99999999999999999999999999999"),
    ("purity-scan", "--samples", str(cli.MAX_ROWS + 1)),
    ("wigner-grid", "--grid", "4097"),
    ("wigner-grid", "--grid", "99999999999999999999"),
]


FLAG_BASE = {
    "witness-scan": lambda s: ["--state", s["squeezed"], "--op", "add", "--samples", "2"],
    "purity-scan": lambda s: ["--state", s["squeezed"], "--op", "add"],
    "wigner-grid": lambda s: ["--state", s["squeezed"], "--op", "add", "--mode", "1,0"],
    "oracle-check": lambda s: ["--preset", "vacuum-add"],
}


class TestFlagRanges:
    @pytest.mark.parametrize("command,flag,value", BAD_FLAGS)
    def test_out_of_range_is_parse_error(self, states, tmp_path, capsys,
                                         command, flag, value):
        out_csv = tmp_path / "out.csv"
        argv = [command, *FLAG_BASE[command](states), flag, value]
        if command != "oracle-check":
            argv += ["--out", out_csv]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert f"parse error: {flag}" in err
        assert out == ""
        assert not out_csv.exists()

    def test_smallest_values_accepted(self, states, capsys):
        base = ["--state", states["squeezed"], "--op", "add"]
        assert run(capsys, "witness-scan", *base, "--samples", "1")[0] == 0
        assert run(capsys, "wigner-grid", *base, "--mode", "1,0",
                   "--grid", "1", "--range", "1e-300")[0] == 0


NON_FINITE_MODES = [
    ("wigner-grid", "--mode", spec) for spec in ("nan,0", "inf,0", "1,nan")
] + [
    ("wigner-grid", "--plane", spec) for spec in ("nan,0", "0,inf")
] + [
    ("purity-scan", "--mode", spec) for spec in ("nan,0", "inf,0", "1,nan")
]


class TestNonFiniteMode:
    @pytest.mark.parametrize("command,flag,spec", NON_FINITE_MODES)
    def test_is_parse_error(self, states, tmp_path, capsys, command, flag, spec):
        # used to pass validation as a NaN mode and write a NaN grid
        out_csv = tmp_path / "out.csv"
        argv = [command, "--state", states["squeezed"], "--op", "add", flag, spec,
                "--out", out_csv]
        if flag == "--plane":
            argv += ["--mode", "1,0"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("parse error: mode spec") and "Traceback" not in err
        assert out == ""
        assert not out_csv.exists()


CLI_COMMANDS = {
    "validate": lambda s, tmp: ["validate", s["pure4"]],
    "wigner-grid": lambda s, tmp: [
        "wigner-grid", "--state", s["pure4"], "--op", "subtract",
        "--mode", "supermode:0", "--grid", "3",
    ],
    "witness-scan": lambda s, tmp: [
        "witness-scan", "--state", s["pure4"], "--op", "add", "--samples", "3",
    ],
    "purity-scan": lambda s, tmp: [
        "purity-scan", "--state", s["pure4"], "--op", "add", "--samples", "3",
    ],
    "purify": lambda s, tmp: ["purify", "--state", s["pure4"], "--out", tmp / "p.json"],
    "oracle-check": lambda s, tmp: ["oracle-check", "--preset", "vacuum-add"],
}


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
    def test_command_never_imports_scipy(self, states, tmp_path, command):
        argv = [str(a) for a in CLI_COMMANDS[command](states, tmp_path)]
        script = (
            "import sys\n"
            "from wignerlab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(wignerlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestImportTime:
    def test_import_computes_nothing_and_loads_no_foreign_module(self):
        # set-up cost: importing the package, the CLI and the Fock oracle runs
        # no linear algebra, draws no random state and loads only numpy
        script = (
            "import sys\n"
            "import numpy as np\n"
            "calls = []\n"
            "def counted(name, fn):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls.append(name)\n"
            "        return fn(*args, **kwargs)\n"
            "    return wrapper\n"
            "for name in [n for n in dir(np.linalg) if not n.startswith('_')]:\n"
            "    fn = getattr(np.linalg, name)\n"
            "    if callable(fn) and not isinstance(fn, type):\n"
            "        setattr(np.linalg, name, counted(name, fn))\n"
            "np.random.default_rng = counted('default_rng', np.random.default_rng)\n"
            "before = set(sys.modules)\n"
            "import wignerlab, wignerlab.cli, wignerlab.fock\n"
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'wignerlab'}\n"
            "foreign = sorted(m for m in set(sys.modules) - before\n"
            "                 if m.split('.')[0] not in allowed)\n"
            "print(calls, foreign)\n"
        )
        src = os.path.dirname(os.path.dirname(wignerlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] []"


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

    @pytest.mark.parametrize("name, dim", [("pure4", 8), ("mixed16", 32)])
    def test_one_inverse(self, states, capsys, monkeypatch, name, dim):
        # the witness, the bracket factors and every grid point read the
        # state file's one V^-1; nothing factors V again
        inv, sizes, solves = np.linalg.inv, [], []
        monkeypatch.setattr(np.linalg, "inv", lambda a: sizes.append(a.shape) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a))
        assert run(capsys, "wigner-grid", "--state", states[name], "--op", "add",
                   "--mode", "supermode:0", "--grid", "3")[0] == 0
        assert sizes.count((dim, dim)) == 1
        assert solves == []

    @pytest.mark.parametrize("grid", [1, 2, 201])
    @pytest.mark.parametrize("plane", [None, "random"])
    def test_csv_bytes_equal_generic_writer(self, states, tmp_path, capsys,
                                            monkeypatch, grid, plane):
        # the per-axis-value formatting writes what _write_csv writes for
        # the columns beta1, beta2, w
        def generic(args, comments, axis, values):
            b1, b2 = np.meshgrid(axis, axis, indexing="ij")
            cli._write_csv(args, comments,
                           {"beta1": b1.ravel(), "beta2": b2.ravel(), "w": values})

        argv = ["wigner-grid", "--state", states["pure4"], "--op", "subtract",
                "--mode", "supermode:0", "--grid", grid, "--range", "2.5"]
        argv += [] if plane is None else ["--plane", plane]
        outs = [tmp_path / "fast.csv", tmp_path / "generic.csv"]
        assert run(capsys, *argv, "--out", outs[0])[0] == 0
        monkeypatch.setattr(cli, "_write_grid", generic)
        assert run(capsys, *argv, "--out", outs[1])[0] == 0
        data = outs[0].read_bytes()
        assert data == outs[1].read_bytes()
        assert data.count(b"\n") == 3 + grid * grid


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

    @pytest.mark.parametrize("command", ["purity-scan", "witness-scan"])
    def test_vacuum_sampled_subtraction_exit4(self, states, capsys, tmp_path, command):
        # every draw of every sample has zero photons; the scan gives up
        code, _, err = run(
            capsys, command, "--state", states["vacuum2"], "--op", "subtract",
            "--samples", "3", "--out", tmp_path / "scan.csv",
        )
        assert code == 4
        assert "every sampled mode has zero mean photon number" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_mixed_rejected_exit5(self, states, capsys):
        code, out, err = run(
            capsys, "purity-scan", "--state", states["mixed16"], "--op", "subtract",
            "--samples", "2",
        )
        assert code == 5
        assert out == ""
        assert err.startswith("mixed state:") and "purify" in err

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

    def test_mean_kept(self, tmp_path, capsys):
        path = tmp_path / "displaced.json"
        mean = np.array([0.5, -1.25, 0.0, 3.0])
        v = 1.5 * random_pure_squeezed_cov(2, [3.0, -1.0], 4)
        save_covariance(path, v, mean=mean)
        out_path = tmp_path / "purified.json"
        assert run(capsys, "purify", "--state", path, "--out", out_path)[0] == 0
        assert np.array_equal(load_covariance(out_path).mean, mean)

    def test_zero_mean_written_without_mean_field(self, states, tmp_path, capsys):
        out_path = tmp_path / "purified.json"
        code, _, _ = run(capsys, "purify", "--state", states["pure4"], "--out", out_path)
        assert code == 0
        assert "mean" not in json.loads(out_path.read_text())


class TestOracleCheck:
    @pytest.mark.parametrize("preset", cli.ORACLE_PRESETS)
    def test_presets_pass(self, preset, capsys):
        code, out, _ = run(capsys, "oracle-check", "--preset", preset)
        assert code == 0
        assert "PASS" in out
        for quantity in ("wigner", "cumulant", "covariance"):
            assert f"max {quantity} deviation = " in out

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
