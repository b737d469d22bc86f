"""Fuzzed command-line contract.

Derandomized ``hypothesis`` runs of ``validate``, ``wigner-grid``,
``witness-scan``, ``purity-scan`` and ``purify`` on generated state files and
flag lists.  Every run must return a documented exit code without raising
(a warning included); a successful run prints nothing on stderr, and a failed
one prints nothing on stdout, exactly one line on stderr and leaves no
``--out`` file behind.  Where the input settles the outcome (a usage
error, a malformed file, an entry beyond the gate) the code itself is pinned.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from wignerlab.cli import main
from wignerlab.gaussian import MAX_ENTRY, random_mixed_cov

FUZZ = settings(max_examples=250, derandomize=True, database=None, deadline=None)

#: Exit codes of the fuzzed commands (1 and 6 belong to ``oracle-check``).
DOCUMENTED = {0, 2, 3, 4, 5}

COMMANDS = ("validate", "wigner-grid", "witness-scan", "purity-scan", "purify")

#: Replacement entries: JSON tokens and types the schema refuses (exit 3),
#: finite entries beyond the gate (exit 2), and the bound itself.
ENTRIES = {
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
    "string": "1", "bool": True, "null": None, "list": [1.0],
    "above-bound": MAX_ENTRY * (1 + 1e-15), "1e101": 1e101, "-1e200": -1e200,
    "1e308": 1e308, "at-bound": MAX_ENTRY,
}
MALFORMED = {"nan", "inf", "-inf", "string", "bool", "null", "list"}

#: ``modes`` overrides, each a parse error.
MODES = {"fraction": 1.7, "string": "1", "bool": True, "zero": 0, "negative": -1,
         "one-more": "m+1"}


def _base(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "pure":
        return random_mixed_cov(m, rng, max_squeezing_db=12.0, max_thermal=1.0)
    if kind == "mixed":
        return random_mixed_cov(m, rng)
    if kind == "ill-conditioned":
        return random_mixed_cov(m, rng, max_squeezing_db=60.0, max_thermal=1.0)
    if kind == "near-bound":
        return random_mixed_cov(m, rng) * 10.0 ** rng.uniform(95.0, 101.0)
    if kind == "vacuum-first":
        v = random_mixed_cov(m, rng)
        for i in (0, m):
            v[i, :] = v[:, i] = 0.0
            v[i, i] = 1.0
        return v
    # near-vacuum: every mode holds at most ~1e-9 photons
    a = rng.standard_normal((2 * m, 2 * m))
    return np.eye(2 * m) + 10.0 ** rng.uniform(-14.0, -9.0) * (a @ a.T) / (2 * m)


@st.composite
def state_cases(draw, changes=("none", "unphysical", "asymmetric", "entry",
                               "wrong-shape", "modes")):
    """A state file document plus what it should do: "malformed", "beyond"
    the entry gate, or "open" (any documented code)."""
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["pure", "mixed", "ill-conditioned", "near-bound",
                                 "vacuum-first", "near-vacuum"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _base(kind, m, rng)
    change = draw(st.sampled_from(changes))
    outcome = "open"
    if change == "unphysical":
        v = 0.5 * v
    elif change == "asymmetric":
        v[0, -1] += 1e-6 * max(1.0, abs(v[0, -1]))
    matrix = v.tolist()
    modes = m
    if change == "entry":
        name = draw(st.sampled_from(sorted(ENTRIES)))
        i, j = draw(st.integers(0, 2 * m - 1)), draw(st.integers(0, 2 * m - 1))
        matrix[i][j] = ENTRIES[name]
        if name in MALFORMED:
            outcome = "malformed"
    elif change == "wrong-shape":
        matrix = matrix[:-1]
        outcome = "malformed"
    elif change == "modes":
        name = draw(st.sampled_from(sorted(MODES)))
        modes = m + 1 if MODES[name] == "m+1" else MODES[name]
        outcome = "malformed"
    if outcome != "malformed" and max(abs(x) for row in matrix for x in row) > MAX_ENTRY:
        outcome = "beyond"
    doc = {"modes": modes, "ordering": "xxpp", "scaling": "shot-noise-1",
           "matrix": matrix}
    return doc, outcome, m


@st.composite
def flag_cases(draw, m: int, allow_bad: bool):
    """Command-line flags after the state, and whether they are a usage error
    or out of range (exit 3 before the state is read)."""
    command = draw(st.sampled_from(COMMANDS))
    flags, bad = [], False

    def pick(name, values):
        nonlocal bad
        value, wrong = draw(st.sampled_from([v for v in values if allow_bad or not v[1]]))
        bad = bad or wrong
        if value is not None:
            flags.extend([name, value])

    if command not in ("validate", "purify"):
        pick("--op", [("add", False), ("subtract", False), ("mul", True), (None, True)])
    if command in ("witness-scan", "purity-scan"):
        pick("--samples", [("1", False), ("3", False), ("0", True), ("-2", True),
                           ("x", True), ("2.5", True), (None, command == "witness-scan")])
    if command in ("wigner-grid", "purity-scan"):
        coords = np.random.default_rng(draw(st.integers(0, 99))).standard_normal(2 * m)
        coords[0] = -abs(coords[0])
        spec = draw(st.sampled_from([
            "supermode:0", f"supermode:{m}", "random", ",".join(map(repr, coords)),
            ",".join(["1"] + ["0"] * (2 * m - 1)), "nan,0", "a,b", "1",
        ]))
        forms = ["equals", "separate", "missing"] if allow_bad else ["equals"]
        form = draw(st.sampled_from(forms + ["missing"] * (command == "purity-scan")))
        if form == "equals":
            flags.append(f"--mode={spec}")
        elif form == "separate":
            flags.extend(["--mode", spec])
            bad = bad or spec.startswith("-")  # read as an option
        else:
            bad = bad or command == "wigner-grid"
    if command == "wigner-grid":
        flags.extend(["--grid", "3"])
        pick("--range", [("2", False), (None, False), ("1e308", True), ("0", True),
                         ("nan", True)])
    if command not in ("validate", "purify"):
        pick("--seed", [("7", False), (None, False), ("-1", True), ("x", True)])
    outs = ["file", "unwritable"] + ["none"] * (allow_bad or command != "purify")
    out = "none" if command == "validate" else draw(st.sampled_from(outs))
    bad = bad or (command == "purify" and out == "none")  # --out is required
    return command, flags, out, bad


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _check_streams(argv, code, stdout, stderr):
    assert code in DOCUMENTED
    assert "Traceback" not in stdout + stderr
    if code == 0:
        assert stderr == "", (argv, stderr)
    else:
        assert stdout == "" and len(stderr.splitlines()) == 1, (argv, stdout, stderr)


def _check_run(doc, outcome, command, flags, out, bad_flags):
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "state.json")
        with open(state, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # writes NaN / Infinity tokens
        out_path = {"none": None, "file": os.path.join(tmp, "out.dat"),
                    "unwritable": os.path.join(tmp, "missing", "out.dat")}[out]
        if command == "validate":
            argv = ["validate", state]
        else:
            argv = [command, "--state", state, *flags]
            argv += ["--out", out_path] if out_path else []

        code, stdout, stderr = _run(argv)

        _check_streams(argv, code, stdout, stderr)
        if bad_flags or outcome == "malformed":
            assert code == 3, (argv, stderr)
        elif outcome == "beyond":
            assert code == 2 and stderr.startswith("invalid state:"), (argv, stderr)
        if out == "unwritable":
            assert code != 0
        if out_path:
            assert os.path.exists(out_path) == (code == 0)
            assert os.listdir(tmp) == ["state.json"] or code == 0


@FUZZ
@given(data=st.data())
def test_state_files(data):
    # wrong shapes, NaN/Infinity tokens, strings, booleans, fractional modes,
    # asymmetry, unphysical spectra, entries near and beyond the gate and
    # near-vacuum modes, each under well-formed flags
    doc, outcome, m = data.draw(state_cases())
    _check_run(doc, outcome, *data.draw(flag_cases(m, allow_bad=False)))


@FUZZ
@given(data=st.data())
def test_flags(data):
    # leading-minus mode specs, non-integers, missing flags, out-of-range
    # values and unwritable outputs, on well-formed state files
    doc, outcome, m = data.draw(state_cases(changes=("none",)))
    _check_run(doc, outcome, *data.draw(flag_cases(m, allow_bad=True)))


#: Flag groups for free-form lists; "OUT" and "BAD_OUT" become paths.
GROUPS = [("--op", "add"), ("--op", "subtract"), ("--op", "mul"), ("--samples", "2"),
          ("--samples", "x"), ("--samples", "-1"), ("--mode", "1,0"),
          ("--mode", "-1,0"), ("--mode=-1,0",), ("--mode", "supermode:0"),
          ("--mode", "random"), ("--plane", "0,1"), ("--plane", "-1,0"),
          ("--grid", "3"), ("--range", "2"), ("--range", "1e308"), ("--seed", "7"),
          ("--seed", "-1"), ("--out", "OUT"), ("--out", "BAD_OUT"),
          ("--workers", "2"), ("--cutoff", "4"), ("--mode",), ("--",)]


@FUZZ
@given(command=st.sampled_from(COMMANDS),
       groups=st.lists(st.sampled_from(GROUPS), max_size=7))
def test_free_flag_lists(command, groups):
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "state.json")
        with open(state, "w", encoding="utf-8") as fh:
            json.dump({"modes": 1, "ordering": "xxpp", "scaling": "shot-noise-1",
                       "matrix": [[2.0, 0.0], [0.0, 0.5]]}, fh)
        paths = {"OUT": os.path.join(tmp, "out.dat"),
                 "BAD_OUT": os.path.join(tmp, "missing", "out.dat")}
        argv = [command, *([state] if command == "validate" else ["--state", state])]
        argv += [paths.get(t, t) for group in groups for t in group]

        code, stdout, stderr = _run(argv)

        _check_streams(argv, code, stdout, stderr)
        if code != 0:
            assert os.listdir(tmp) == ["state.json"]
