"""File formats: CSV vector series, JSON-lines matrix series, PGM heatmaps.

Vector series are plain CSV, one row per time index, one column per
coordinate; a header row is detected and skipped. Matrix series are JSON
lines, each line `{"t": int, "rows": int, "cols": int, "data": [row-major
reals]}`, each t once and rows, cols >= 1. A file read is UTF-8 text,
perhaps after a byte-order mark; other text raises InvalidValue naming
the file. Heatmaps are written as plot-ready CSV plus an ASCII PGM (P2)
image with values scaled from [min, max] to [0, 255].
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from typing import List

import numpy as np

from ._grammar import integer, real_float
from .errors import InvalidValue, ShapeMismatch


@contextmanager
def _open_text(path: str, error: type = InvalidValue):
    """path opened to read as UTF-8 text, after any byte-order mark, with
    line ends as written (as csv needs them). A byte that does not decode,
    here or in the block that reads, raises error naming the path rather
    than a UnicodeDecodeError."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------- vectors


def load_vector_csv(path: str) -> np.ndarray:
    rows: List[List[float]] = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise InvalidValue(
                    f"{path}:{lineno}: non-numeric value in CSV row"
                ) from None
    if not rows:
        raise InvalidValue(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeMismatch(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
    return np.asarray(rows, dtype=np.float64)


def write_csv(path: str, values: np.ndarray):
    """A 2-d array as CSV, one row per line, each value as repr(float):
    a vector series that loads back exactly, or a heatmap's matrix."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {values.shape}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


# --------------------------------------------------------------- matrices


def load_matrix_jsonl(path: str) -> np.ndarray:
    entries, seen = [], set()
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidValue(f"{path}:{lineno}: invalid JSON: {exc}") from None
            try:
                t, rows, cols = (integer(obj[key]) for key in ("t", "rows", "cols"))
                data = [real_float(v) for v in obj["data"]]  # JSON numbers only
            except (KeyError, TypeError, OverflowError) as exc:
                raise InvalidValue(f"{path}:{lineno}: bad record: {exc}") from None
            if t in seen:
                raise InvalidValue(f"{path}:{lineno}: t={t} repeats an earlier record")
            seen.add(t)
            if rows < 1 or cols < 1:
                raise ShapeMismatch(f"{path}:{lineno}: {rows}x{cols} record, need 1x1 or more")
            if len(data) != rows * cols:
                raise ShapeMismatch(
                    f"{path}:{lineno}: data length {len(data)} != rows*cols {rows * cols}"
                )
            entries.append((t, rows, cols, data))
    if not entries:
        raise InvalidValue(f"{path}: no records")
    entries.sort(key=lambda e: e[0])
    r0, c0 = entries[0][1], entries[0][2]
    for t, rows, cols, _ in entries:
        if (rows, cols) != (r0, c0):
            raise ShapeMismatch(
                f"{path}: record t={t} is {rows}x{cols}, expected {r0}x{c0}"
            )
    stacked = np.asarray([e[3] for e in entries], dtype=np.float64)
    return stacked.reshape(len(entries), r0, c0)


def write_matrix_jsonl(path: str, data: np.ndarray):
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeMismatch(f"matrix series must be 3-d, got shape {data.shape}")
    n, rows, cols = data.shape
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(n):
            obj = {
                "t": t,
                "rows": rows,
                "cols": cols,
                "data": [float(v) for v in data[t].ravel()],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# --------------------------------------------------------------- heatmaps


def write_pgm(path: str, values: np.ndarray):
    """ASCII PGM (P2), one gray level per matrix entry.

    Values are scaled affinely from [min, max] to [0, 255]; a constant
    matrix renders as all zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {values.shape}")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255.0).astype(int)
    else:
        scaled = np.zeros(values.shape, dtype=int)
    h, w = values.shape
    lines = ["P2", f"{w} {h}", "255"]
    for row in scaled:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
