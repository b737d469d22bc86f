"""Call spans around wignerlab functions, recorded from the benchmark's side.

`Tracer.install` rebinds each listed function, in every loaded wignerlab
module namespace that holds it, to a wrapper that records a span
``(span id, parent id, op id, name, start, end)``.  Calls made through a
module global (``analysis`` calling ``mean_photon_number``) or across a module
boundary (``cli`` calling ``analysis.sample_scan_mode``) are all timed.
Spans are recorded only while an op is open and stay in memory until the
caller writes them out.

Threads: a span opened on a thread that has no open span of its own (a
worker of ``cli``'s thread pool) takes as parent the innermost open span of
the thread that opened the op, which is the span that caused it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

#: module -> functions wrapped in that module (names as defined there).
TRACED = {
    "cli": ("main",),
    "covfile": ("load_covariance", "save_covariance"),
    "analysis": (
        "sample_scan_mode",
        "negativity_witness",
        "marginal_wigner",
        "wigner_purity",
        "reduced_purities",
    ),
    "photon_ops": (
        "nongaussian_wigner",
        "covariance_correction",
        "mean_photon_number",
        "evaluate_wigner",
        "decompose_pure_noise",
        "mixture_reconstruction",
        "truncated_correlation",
        "output_covariance",
    ),
    "gaussian": (
        "_check_symmetric",
        "gaussian_purity",
        "reduce_to_mode",
        "symplectic_eigenvalues",
        "validate_covariance",
        "williamson",
        "bloch_messiah",
        "gaussian_wigner",
    ),
    "phase_space": ("random_mode", "as_mode", "complete_symplectic_basis"),
    "fock": (
        "_beamsplitter",
        "apply_interferometer",
        "gaussian_fock_state",
        "apply_photon_op",
        "fock_wigner",
        "fock_truncated_correlation",
        "fock_covariance",
        "suggested_cutoff",
    ),
}

MODULES = tuple(TRACED)
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

#: Name of the root span that encloses one op.
OP = "op"


def _points(args, kwargs, result) -> tuple[str, float]:
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    return "fock.fock_wigner.points", float(math.prod(beta.shape[:-1]))


def _state_bytes(args, kwargs, result) -> tuple[str, float]:
    # computed from the tensor size, not measured memory traffic
    return "fock.state_bytes", float(result.amplitudes.nbytes)


#: Counters read from arguments or results at a layer boundary.
COUNTERS = {
    "fock.fock_wigner": _points,
    "fock.gaussian_fock_state": _state_bytes,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[int] | None = None
        self._op_start = 0.0
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_op(self, op_id: int) -> None:
        """Start the root span of one op on the calling thread."""
        self._op = op_id
        self._op_stack = self._stack()
        self._op_stack.append(next(self._ids))
        self._op_start = self.clock()

    def close_op(self) -> None:
        end = self.clock()
        sid = self._op_stack.pop()
        self.spans.append((sid, None, self._op, OP, self._op_start, end))
        self._op = None
        self._op_stack = None

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = self._op_stack
                parent = op_stack[-1] if op_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append((sid, parent, op, name, start, end))
            if counter is not None:
                key, value = counter(args, kwargs, result)
                self.counts[(op, key)] += value
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a wignerlab module holds it."""
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "wignerlab" or name.startswith("wignerlab."))
        ]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"wignerlab.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(original, f"{mod_name}.{fn_name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._originals.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._originals):
            setattr(ns, attr, original)
        self._originals.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{parent or 0}\t{name}\t{start!r}\t{end!r}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, each clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, _, _, start, end in spans
    }


def per_op_summary(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics averaged over the traced ops."""
    spans = tracer.spans
    ops = {op for _, _, op, name, _, _ in spans if name == OP}
    n_ops = len(ops)
    if n_ops == 0:
        raise ValueError("no traced op completed")
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    op_wall = 0.0
    for sid, _, _, name, start, end in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        if name == OP:
            op_wall += end - start

    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
    for mod in MODULES:
        mod_self = sum(self_s[name] for name in FUNCTIONS if name.startswith(mod + "."))
        out[f"{mod}.self_ms"] = 1e3 * mod_self / n_ops
        out[f"{mod}.share"] = mod_self / op_wall
    totals = defaultdict(float)
    for (_, key), value in tracer.counts.items():
        totals[key] += value
    for key in ("fock.fock_wigner.points", "fock.state_bytes"):
        out[key] = totals[key] / n_ops
    return out

