"""Covariance-matrix state files.

One JSON document per state.  Convention fields are mandatory and checked on
load, because silently mismatched quadrature orderings and noise scalings are
the classic interoperability failure in this domain:

    {
      "modes": 2,
      "ordering": "xxpp",
      "scaling": "shot-noise-1",
      "matrix": [[...], ...],        # 2m x 2m, row-major
      "mean": [...],                 # optional, defaults to zero
      "metadata": {"label": "..."}   # optional, free-form
    }

``modes`` is a JSON integer and every matrix and mean entry a JSON number;
booleans, strings and fractional mode counts are rejected.  Floats are
serialised with full precision (shortest round-trip decimal form,
up to 17 significant digits), so write-then-read reproduces a matrix
bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

ORDERING = "xxpp"
SCALING = "shot-noise-1"


@dataclass(frozen=True)
class CovarianceFile:
    """Parsed state file: matrix, optional mean, free-form metadata."""

    matrix: np.ndarray
    mean: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


def _numbers(value, depth: int, what: str) -> np.ndarray:
    """``value``, lists nested ``depth`` deep around JSON numbers, as floats."""
    items = [value]
    for _ in range(depth):
        if not all(type(x) is list for x in items):
            raise ParseError(f"{what} must be lists nested {depth} deep")
        items = [y for x in items for y in x]
    if not all(type(x) in (int, float) for x in items):
        raise ParseError(f"{what} entries must be JSON numbers")
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows, huge integers
        raise ParseError(f"malformed {what} data: {exc}") from exc


def _check_structure(matrix: np.ndarray, mean, modes: int) -> None:
    """The structure of every state file, read or written: a ``2m x 2m`` matrix,
    ``m = modes >= 1``, a mean of ``2m`` entries or ``None``, all finite."""
    if modes < 1 or matrix.shape != (2 * modes, 2 * modes):
        raise ParseError(f"matrix shape {matrix.shape} does not match modes = {modes}")
    if mean is not None and mean.shape != (2 * modes,):
        raise ParseError("mean vector length does not match the matrix")
    if not (np.all(np.isfinite(matrix)) and (mean is None or np.all(np.isfinite(mean)))):
        raise ParseError("matrix and mean must hold finite numbers only")


def load_covariance(path) -> CovarianceFile:
    """Read and structurally validate a state file.

    Raises:
        ParseError: unreadable JSON, missing fields, convention mismatch,
            wrongly typed fields, inconsistent shapes or non-finite numbers.
            Symmetry and the symplectic spectrum are the caller's job
            (``validate_covariance``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("state file must hold a JSON object")
    for key in ("modes", "ordering", "scaling", "matrix"):
        if key not in doc:
            raise ParseError(f"state file missing mandatory field {key!r}")
    if doc["ordering"] != ORDERING:
        raise ParseError(
            f"unsupported quadrature ordering {doc['ordering']!r}; this tool "
            f"reads {ORDERING!r} only"
        )
    if doc["scaling"] != SCALING:
        raise ParseError(
            f"unsupported scaling {doc['scaling']!r}; expected {SCALING!r}"
        )
    modes = doc["modes"]
    if type(modes) is not int:  # bool is a subclass of int
        raise ParseError(f"modes must be a JSON integer, got {modes!r}")
    matrix = _numbers(doc["matrix"], 2, "matrix")
    mean = None if doc.get("mean") is None else _numbers(doc["mean"], 1, "mean")
    _check_structure(matrix, mean, modes)
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    mean = np.zeros(2 * modes) if mean is None else mean
    return CovarianceFile(matrix=matrix, mean=mean, metadata=metadata)


def save_covariance(path, matrix: np.ndarray, mean=None, metadata=None) -> None:
    """Write a state file; floats keep their exact shortest repr.

    Raises:
        ParseError: a matrix or mean that :func:`load_covariance` would
            refuse (checked before the file is opened), or the file cannot be
            opened for writing.
    """
    matrix = np.asarray(matrix, dtype=float)
    mean = None if mean is None else np.asarray(mean, dtype=float)
    modes = matrix.shape[0] // 2 if matrix.ndim else 0
    _check_structure(matrix, mean, modes)
    doc = {
        "modes": modes,
        "ordering": ORDERING,
        "scaling": SCALING,
        "matrix": [[float(x) for x in row] for row in matrix],
    }
    if mean is not None and np.any(mean != 0.0):
        doc["mean"] = [float(x) for x in mean]
    if metadata:
        doc["metadata"] = metadata
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    with fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
