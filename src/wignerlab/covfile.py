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

Floats are serialised with full precision (shortest round-trip decimal form,
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


def load_covariance(path) -> CovarianceFile:
    """Read and structurally validate a state file.

    Raises:
        ParseError: unreadable JSON, missing fields, convention mismatch,
            inconsistent shapes or non-finite numbers.  Symmetry and the
            symplectic spectrum are the caller's job (``validate_covariance``).
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
    try:
        modes = int(doc["modes"])
        matrix = np.array(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix data: {exc}") from exc
    if modes < 1 or matrix.shape != (2 * modes, 2 * modes):
        raise ParseError(
            f"matrix shape {matrix.shape} does not match modes = {modes}"
        )
    if "mean" in doc and doc["mean"] is not None:
        mean = np.array(doc["mean"], dtype=float)
        if mean.shape != (2 * modes,):
            raise ParseError("mean vector length does not match the matrix")
    else:
        mean = np.zeros(2 * modes)
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(mean))):
        raise ParseError("matrix and mean must hold finite numbers only")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return CovarianceFile(matrix=matrix, mean=mean, metadata=metadata)


def save_covariance(path, matrix: np.ndarray, mean=None, metadata=None) -> None:
    """Write a state file; floats keep their exact shortest repr."""
    matrix = np.asarray(matrix, dtype=float)
    modes = matrix.shape[0] // 2
    doc = {
        "modes": modes,
        "ordering": ORDERING,
        "scaling": SCALING,
        "matrix": [[float(x) for x in row] for row in matrix],
    }
    if mean is not None and np.any(np.asarray(mean) != 0.0):
        doc["mean"] = [float(x) for x in np.asarray(mean, dtype=float)]
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
