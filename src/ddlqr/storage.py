"""Dataset and matrix persistence.

CSV only, written atomically (temp file + rename) with 17 significant digits
so float64 values round-trip exactly.
"""

from __future__ import annotations

import csv
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from .plant_sim import Dataset

FLOAT_FMT = "%.17g"


def _atomic_write_text(path: Union[str, Path], text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dataset(path: Union[str, Path], data: Dataset) -> None:
    """Write a dataset as CSV with header k,u1..,y1..,x1.. and one row per sample."""
    p, q, n = data.n_inputs, data.n_outputs, data.n_states
    header = (
        ["k"]
        + [f"u{i + 1}" for i in range(p)]
        + [f"y{i + 1}" for i in range(q)]
        + [f"x{i + 1}" for i in range(n)]
    )
    lines = [",".join(header)]
    for k in range(data.n_samples):
        row = np.concatenate([data.u[k], data.y[k], data.x[k]])
        lines.append(str(k) + "," + ",".join(FLOAT_FMT % v for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path: Union[str, Path]) -> Dataset:
    """Read a dataset CSV produced by :func:`write_dataset`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "k":
            raise ValueError(f"{path}: expected a dataset CSV header starting with 'k'")
        p = sum(1 for h in header if h.startswith("u"))
        q = sum(1 for h in header if h.startswith("y"))
        n = sum(1 for h in header if h.startswith("x"))
        if 1 + p + q + n != len(header):
            raise ValueError(f"{path}: unrecognized dataset header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise ValueError(f"{path}: dataset is empty")
    arr = np.asarray(rows)
    return Dataset(u=arr[:, :p], y=arr[:, p:p + q], x=arr[:, p + q:])


def write_matrix(path: Union[str, Path], matrix) -> None:
    """Write a matrix as bare CSV rows."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(FLOAT_FMT % v for v in row) for row in matrix]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix(path: Union[str, Path]) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`."""
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: matrix file is empty")
    if len({len(row) for row in rows}) != 1:
        raise ValueError(f"{path}: ragged rows of lengths {[len(row) for row in rows]}")
    return np.asarray(rows)


def write_text(path: Union[str, Path], text: str) -> None:
    """Atomic plain-text write."""
    _atomic_write_text(path, text)
