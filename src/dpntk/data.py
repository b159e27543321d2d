"""Dataset generation, CSV ingestion, and splitting for the harness."""

from __future__ import annotations

import csv
import itertools
import math
from typing import TextIO

import numpy as np

from .kernel import Dataset, normalize_rows
from .rng import RngStream

__all__ = [
    "CsvParseError",
    "generate_synthetic",
    "load_features_csv",
    "read_features_csv",
    "save_features_csv",
    "train_test_split",
]


class CsvParseError(ValueError):
    """Malformed feature CSV; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def generate_synthetic(
    n: int,
    d: int,
    n_cls: int,
    separation: float,
    rng: RngStream,
    cluster_std: float = 0.25,
) -> Dataset:
    """Gaussian clusters around unit-norm centers with pairwise center
    distance >= separation, rows normalized to unit norm, one-hot labels."""
    if n < 1 or d < 1 or n_cls < 1:
        raise ValueError("n, d, n_cls must be >= 1")
    if n % n_cls != 0:
        raise ValueError(f"n={n} must be divisible by n_cls={n_cls}")
    if separation < 0:
        raise ValueError("separation must be non-negative")
    if separation > 2.0:
        raise ValueError("unit-norm centers cannot be more than 2 apart")
    gen = rng.substream("synthetic").generator()
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < n_cls:
        c = gen.standard_normal(d)
        norm = np.linalg.norm(c)
        if norm == 0.0:
            continue
        c = c / norm
        if all(np.linalg.norm(c - prev) >= separation for prev in centers):
            centers.append(c)
            attempts = 0
        else:
            attempts += 1
            if attempts > 2000:
                raise ValueError(
                    f"could not place {n_cls} centers at separation {separation} in dimension {d}"
                )
    per_class = n // n_cls
    feats = np.empty((n, d))
    labels = np.zeros((n, n_cls))
    for cls, center in enumerate(centers):
        block = slice(cls * per_class, (cls + 1) * per_class)
        feats[block] = center + cluster_std * gen.standard_normal((per_class, d))
        labels[block, cls] = 1.0
    raw = Dataset(feats, labels, bound_B=float(np.linalg.norm(feats, axis=1).max()))
    return normalize_rows(raw)


# ASCII separators that np.loadtxt strips as whitespace and float() refuses.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def read_features_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read and check a "label,f0,...,f{d-1}" CSV: (labels (n,), features
    (n, d) C-contiguous), as the file gives them.

    A cell is anything Python ``float()`` accepts; a label must be finite,
    and a row whose L2 norm is not finite (an infinite cell, or squares that
    overflow the largest float) is refused with its line. ``load_features_csv``
    builds a dataset on it and ``dpntk predict`` scores its features
    directly, so both accept exactly the same files.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        d = _read_header(fh)
        # A plain body is parsed in one C pass; np.loadtxt converts each cell
        # with the same correctly rounded routine as float(), so the bits are
        # the same. A body it refuses or could read differently (quotes,
        # underscores, non-ASCII digits, a stray separator, a non-finite
        # label, no rows, on which np.loadtxt would warn) is re-read by
        # _read_cells, the one definition of a valid file, which returns the
        # float() values or raises the first fault with its line. The body
        # goes in as its "\n"-split lines, not a StringIO, which would copy
        # it at four bytes a character: np.loadtxt takes a line's trailing
        # "\r" as its end and refuses a lone "\r" inside one, as it does in
        # a stream.
        try:
            body = fh.read()
            if not body.strip("\r\n") or any(c in body for c in _SEPARATORS):
                table = None
            else:
                table = np.loadtxt(
                    body.split("\n"), dtype=np.float64, delimiter=",",
                    comments=None, quotechar=None, ndmin=2,
                )
        except ValueError:
            table = None
    if table is None or table.shape[1] != d + 1 or not np.isfinite(table[:, 0]).all():
        table = _read_cells(path)
    feats = np.ascontiguousarray(table[:, 1:])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(feats, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise CsvParseError(
            _line_of_row(path, int(bad[0])),
            "row norm is not finite (a cell is infinite or the squares overflow)",
        )
    return table[:, 0], feats


def load_features_csv(
    path: str, normalize: bool = False, bound_B: float | None = None
) -> Dataset:
    """Read a "label,f0,...,f{d-1}" CSV (``read_features_csv``) into a dataset.

    Labels become one-hot columns over the observed classes sorted
    ascending. When ``bound_B`` is omitted the maximum row norm is stated as
    the bound; ``normalize`` rescales rows to unit norm instead (bound 1).
    """
    labels, feats = read_features_csv(path)
    classes, index = np.unique(labels, return_inverse=True)
    one_hot = np.zeros((len(labels), len(classes)))
    one_hot[np.arange(len(labels)), index] = 1.0
    if bound_B is None:
        bound_B = float(np.linalg.norm(feats, axis=1).max())
        if bound_B == 0.0:
            bound_B = 1.0
    data = Dataset(feats, one_hot, bound_B)
    if normalize:
        data = normalize_rows(data)
    return data


def _read_header(fh: TextIO) -> int:
    """Check the header record of an open feature CSV; return d."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise CsvParseError(1, "empty file") from None
    if len(header) < 2 or header[0].strip() != "label":
        raise CsvParseError(1, f"expected header 'label,f0,...', got {header!r}")
    for j, name in enumerate(header[1:]):
        if name.strip() != f"f{j}":
            raise CsvParseError(1, f"expected feature column 'f{j}', got {name!r}")
    return len(header) - 1


def _read_cells(path: str) -> np.ndarray:
    """Per-cell reader: every cell through ``float()``, rows checked in file
    order, the first fault raised as a ``CsvParseError`` naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        d = _read_header(fh)
        rows: list[list[float]] = []
        for lineno, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise CsvParseError(lineno, f"expected {d + 1} cells, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise CsvParseError(lineno, f"non-numeric cell: {exc}") from None
            if not math.isfinite(values[0]):
                raise CsvParseError(lineno, f"non-finite label {row[0]!r}")
            rows.append(values)
    if not rows:
        raise CsvParseError(2, "no data rows")
    return np.array(rows)


def _line_of_row(path: str, index: int) -> int:
    """Line of the index-th (0-based) data row: both parsers skip empty
    records, and the header is the first record."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = (lineno for lineno, row in enumerate(csv.reader(fh), start=1) if row)
        return next(itertools.islice(lines, index + 1, None))


def save_features_csv(data: Dataset, path: str) -> None:
    """Write a dataset in the load_features_csv format.

    Floats are written with shortest round-trip repr, so a write-then-read
    cycle reproduces the features bit-for-bit. One-hot labels are written as
    the class index, single-column labels verbatim. Each row is formatted
    from Python floats (``tolist``) and streamed: building the whole text
    first held about 1.8 MiB at 900 x 32 for no gain in speed.
    """
    if data.n_outputs > 1:
        labels = data.labels.argmax(axis=1).astype(np.float64).tolist()
    else:
        labels = data.labels[:, 0].tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label," + ",".join(f"f{j}" for j in range(data.dim)) + "\n")
        fh.writelines(
            ",".join(map(repr, [label, *row.tolist()])) + "\n"
            for label, row in zip(labels, data.features)
        )


def train_test_split(
    data: Dataset, train_frac: float, rng: RngStream
) -> tuple[Dataset, Dataset]:
    """Random split by permutation; both sides keep bound_B and label width."""
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must lie in (0, 1)")
    if data.n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = rng.substream("split").generator().permutation(data.n)
    n_train = int(round(data.n * train_frac))
    n_train = max(1, min(data.n - 1, n_train))
    tr, te = perm[:n_train], perm[n_train:]
    train = Dataset(data.features[tr], data.labels[tr], data.bound_B)
    test = Dataset(data.features[te], data.labels[te], data.bound_B)
    return train, test
