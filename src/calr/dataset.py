"""Datasets, CSV ingestion, and planted piecewise-linear data generation."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .calf import CalfModel
from .exceptions import (
    CsvFormatError,
    DimensionMismatchError,
    InputError,
    PlacementError,
    _int_at_least,
    _real,
)
from .geometry import ConvexArea, HalfSpace
from .linreg import LinearModel, coefficient_distance

BOX_SIDE = 2.0
GRID_CELLS_PER_AXIS = 6
_COEFF_RANGE = 3.0
_COEFF_RETRIES = 1000
_REJECTION_FACTOR = 1000
_WRITE_BLOCK_ROWS = 4096
# Rows the cell-by-cell parser makes room for before its array first doubles.
_PARSE_BLOCK_ROWS = 1024


@dataclass(eq=False)
class Dataset:
    """n rows of (x in R^d, y in R) with optional column names."""

    X: np.ndarray
    y: np.ndarray
    column_names: tuple = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or X.shape[1] < 1:
            raise InputError("X must be an (n, d) array with d >= 1")
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError("y must have one value per row of X")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InputError("dataset values must be finite")
        X = X.copy()
        y = y.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y
        if self.column_names is None:
            self.column_names = tuple(f"x{j + 1}" for j in range(X.shape[1])) + ("y",)
        else:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != X.shape[1] + 1:
                raise InputError("need one column name per feature plus the target")
            self.column_names = names

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(X=self.X[idx], y=self.y[idx], column_names=self.column_names)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
            and self.column_names == other.column_names
        )

    def __len__(self):
        return self.n


# numpy strips these separator controls around a number; float() does not.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# Characters read per step while the body is scanned for those controls.
_SCAN_CHARS = 1 << 16
# np.loadtxt opens a path through numpy's DataSource, which decompresses by
# these suffixes (and fetches URLs, which an absolute path never looks like).
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _nonblank(row) -> bool:
    return bool(row) and any(cell.strip() for cell in row)


def load_matrix(path):
    """Parse a numeric CSV with one header row into (column names, matrix).

    The header is the first non-blank row.  numpy's C reader parses the
    body straight from the file, past the lines the header took, so the
    whole body never sits in memory as text: reading costs the output
    array plus a bounded chunk.  When numpy refuses the body (blank
    cells, quotes, ragged rows, or cells such as "1_000" that only
    Python's float accepts), the body is read again and parsed cell by
    cell, which either reads it the same way or names the offending row
    and column.  A byte the file's encoding cannot decode is reported
    with its row.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(iter(fh.readline, ""))
            header = next((row for row in reader if _nonblank(row)), None)
            if header is None:
                raise CsvFormatError("empty file")
            header = tuple(c.strip() for c in header)
            body_at = fh.tell()
            blank = plain = True
            for chunk in iter(lambda: fh.read(_SCAN_CHARS), ""):
                blank = blank and chunk.isspace()
                plain = plain and not any(c in chunk for c in _NUMPY_ONLY_SPACE)
            source = os.path.abspath(os.fsdecode(path))
            if not blank and plain and not source.endswith(_DECOMPRESSED_SUFFIXES):
                try:
                    values = np.loadtxt(
                        source,
                        delimiter=",",
                        comments=None,
                        ndmin=2,
                        skiprows=reader.line_num,
                        encoding=fh.encoding,
                    )
                except ValueError:
                    values = None
                if values is not None and values.shape[1] == len(header):
                    return header, values
            fh.seek(body_at)
            return header, _parse_cells(header, csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise CsvFormatError(str(exc), row=1) from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc.encoding) from None


def _undecodable(path, encoding) -> CsvFormatError:
    """The error for a file that does not decode, naming the row of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as exc:
        start = exc.start
    else:  # the file changed after it was first read
        return CsvFormatError(f"the file does not decode as {encoding}")
    message = f"byte 0x{raw[start]:02x} does not decode as {encoding}"
    # The bad byte makes its row non-blank; "0" stands in for it.
    text = raw[:start].decode(encoding) + "0"
    try:
        row = sum(1 for r in csv.reader(io.StringIO(text, newline="")) if _nonblank(r))
    except csv.Error:
        row = None
    return CsvFormatError(message, row=row)


def _parse_cells(header, rows) -> np.ndarray:
    """The body of a CSV, one float() per cell, with the row and column of a bad cell.

    Each row is converted as it is read, into an array that doubles as it
    fills, so the body never sits in memory as strings.
    """
    values = np.empty((_PARSE_BLOCK_ROWS, len(header)))
    n = 0
    try:
        for row in rows:
            if not _nonblank(row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"expected {len(header)} cells, found {len(row)}", row=n + 2)
            if n == len(values):
                values.resize((2 * n, len(header)), refcheck=False)
            for j, cell in enumerate(row):
                try:
                    values[n, j] = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"non-numeric cell {cell.strip()!r}", row=n + 2, column=j + 1
                    ) from None
            n += 1
    except csv.Error as exc:
        raise CsvFormatError(str(exc), row=n + 2) from None
    if n == 0:
        raise CsvFormatError("no data rows after the header")
    values.resize((n, len(header)), refcheck=False)
    return values


def load_csv(path, target_column=None) -> Dataset:
    """Parse a numeric CSV with one header row into a Dataset.

    The target column defaults to the last one; the remaining columns form
    x in header order.
    """
    header, values = load_matrix(path)
    if len(header) < 2:
        raise CsvFormatError("need at least one feature column and one target column")
    if target_column is None:
        target_idx = len(header) - 1
    else:
        if target_column not in header:
            raise CsvFormatError(
                f"target column {target_column!r} not in header {list(header)}"
            )
        target_idx = header.index(target_column)
    feature_idx = [j for j in range(len(header)) if j != target_idx]
    names = tuple(header[j] for j in feature_idx) + (header[target_idx],)
    return Dataset(X=values[:, feature_idx], y=values[:, target_idx], column_names=names)


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset as comma-delimited text with full-precision reals."""
    write_rows(path, data.column_names, np.column_stack([data.X, data.y]))


def write_rows(path, names, values) -> None:
    """Write a header and the rows of a float matrix, each real as its repr."""
    row = ",".join(["%r"] * values.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(values), _WRITE_BLOCK_ROWS):
            block = values[start : start + _WRITE_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass(eq=False)
class GroundTruth:
    """The planted model behind a generated dataset.

    assignments[i] is the piece index of row i (0 = the default region);
    margin_epsilon bounds every |f(x) - y| strictly, and separation_delta
    lower-bounds all pairwise coefficient distances.  All three scalars are
    finite real numbers, noise_sigma >= 0 and the other two > 0.
    """

    model: CalfModel
    noise_sigma: float
    separation_delta: float
    margin_epsilon: float
    assignments: np.ndarray

    def __post_init__(self):
        a = np.array(self.assignments)
        if a.size and a.dtype.kind not in "iu":
            raise InputError("assignments must be integers")
        a = a.astype(int)
        if a.ndim != 1:
            raise InputError("assignments must be a 1-D index vector")
        if np.any(a < 0) or np.any(a > len(self.model.pieces)):
            raise InputError("assignments must index the model's pieces")
        a.setflags(write=False)
        self.assignments = a
        if not (_real(self.noise_sigma) and 0 <= self.noise_sigma < np.inf):
            raise InputError("noise_sigma must be finite and nonnegative")
        positive = (self.separation_delta, self.margin_epsilon)
        if not all(_real(v) and 0 < v < np.inf for v in positive):
            raise InputError("separation_delta and margin_epsilon must be finite and positive")

    @property
    def functions(self) -> tuple:
        return (self.model.default,) + tuple(f for f, _ in self.model.pieces)


def _box_area(lo: np.ndarray, hi: np.ndarray) -> ConvexArea:
    """Axis-aligned box [lo, hi] as 2d half-spaces."""
    d = lo.size
    halfspaces = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        halfspaces.append(HalfSpace(alpha=e, gamma=-hi[j]))
        halfspaces.append(HalfSpace(alpha=-e, gamma=lo[j]))
    return ConvexArea(tuple(halfspaces))


def _place_boxes(rng, d: int, m: int):
    """Disjoint axis-aligned boxes of side BOX_SIDE with pairwise gaps >= BOX_SIDE.

    Boxes are anchored in distinct cells of a coarse grid (cell side three
    box sides) and jittered inside their cell, which guarantees the gap.
    """
    capacity = GRID_CELLS_PER_AXIS**d
    if m > capacity:
        raise PlacementError(
            f"cannot place {m} disjoint regions in dimension {d} "
            f"(capacity {capacity})"
        )
    cells = rng.choice(capacity, size=m, replace=False)
    boxes = []
    for cell in cells:
        index = np.empty(d)
        rest = int(cell)
        for j in range(d):
            index[j] = rest % GRID_CELLS_PER_AXIS
            rest //= GRID_CELLS_PER_AXIS
        lo = index * 3.0 * BOX_SIDE + rng.uniform(0.0, BOX_SIDE, size=d)
        boxes.append((lo, lo + BOX_SIDE))
    return boxes


def _draw_functions(rng, d: int, m: int, delta: float):
    """m+1 coefficient vectors with pairwise Euclidean distance >= delta."""
    for _ in range(_COEFF_RETRIES):
        coeffs = rng.uniform(-_COEFF_RANGE, _COEFF_RANGE, size=(m + 1, d + 1))
        models = [LinearModel(coeffs=c) for c in coeffs]
        ok = all(
            coefficient_distance(models[i], models[j]) >= delta
            for i in range(m + 1)
            for j in range(i + 1, m + 1)
        )
        if ok:
            return models
    raise PlacementError(
        f"could not draw {m + 1} functions with pairwise distance >= {delta}"
    )


def _default_points(rng, needed, d, boxes):
    """needed points uniform over the arena, rejecting anything near a box.

    Candidates are drawn in blocks, then the generator is rewound and made
    to redraw exactly the candidates up to the last accepted one, so it
    ends in the state that drawing them one at a time leaves.
    """
    span = GRID_CELLS_PER_AXIS * 3.0 * BOX_SIDE
    pad = 0.25 * BOX_SIDE
    cap = _REJECTION_FACTOR * max(needed, 1)
    start = rng.bit_generator.state
    blocks, clear = [], []
    drawn = got = 0
    while got < needed:
        if drawn >= cap:
            raise PlacementError("could not place default-region points clear of the boxes")
        C = rng.uniform(-BOX_SIDE, span + BOX_SIDE, size=(min(cap - drawn, 2 * (needed - got)), d))
        near = np.zeros(len(C), dtype=bool)
        for lo, hi in boxes:
            near |= np.all(C >= lo - pad, axis=1) & np.all(C <= hi + pad, axis=1)
        blocks.append(C)
        clear.append(~near)
        drawn += len(C)
        got += len(C) - int(near.sum())
    C, clear = np.concatenate(blocks), np.concatenate(clear)
    used = int(np.flatnonzero(clear)[needed - 1]) + 1  # what one-at-a-time draws consume
    rng.bit_generator.state = start
    rng.uniform(-BOX_SIDE, span + BOX_SIDE, size=(used, d))
    return C[:used][clear[:used]]


def generate_separable(n, d, m, sigma, delta, seed):
    """Plant m disjoint convex regions plus a default region and sample them.

    Returns (Dataset, GroundTruth).  Each planted region is an axis-aligned
    box holding at least d+2 points; the default region holds at least d+2
    points kept clear of every box; y = f_piece(x) + N(0, sigma^2) noise
    from a seeded PCG64 generator, so output is a deterministic function of
    the arguments.  n, d, m and seed must be integers; 10.7 and "10" are
    InputErrors, not 10.  sigma >= 0 and delta > 0 must be finite real
    numbers; "0.1" is not parsed.
    """
    if not (_int_at_least(n, 1) and _int_at_least(d, 1) and _int_at_least(m, 0)):
        raise InputError("need integers n >= 1, d >= 1, m >= 0")
    if not (_real(sigma) and 0 <= sigma < np.inf):
        raise InputError("sigma must be finite and nonnegative")
    if not (_real(delta) and 0 < delta < np.inf):
        raise InputError("delta must be finite and positive")
    if not _int_at_least(seed, 0):
        raise InputError("seed must be a nonnegative integer")
    if n < (m + 1) * (d + 2):
        raise InputError(
            f"need n >= (m+1)(d+2) = {(m + 1) * (d + 2)} so every region "
            f"can host d+2 points (got n={n})"
        )
    rng = np.random.default_rng(seed)
    boxes = _place_boxes(rng, d, m)
    models = _draw_functions(rng, d, m, delta)

    per_piece = max(d + 2, n // (2 * m)) if m > 0 else 0
    counts = [n - m * per_piece] + [per_piece] * m
    inset = 0.05 * BOX_SIDE

    X = np.empty((n, d))
    assignments = np.empty(n, dtype=int)
    row = 0
    for piece in range(1, m + 1):
        lo, hi = boxes[piece - 1]
        pts = rng.uniform(lo + inset, hi - inset, size=(counts[piece], d))
        X[row : row + counts[piece]] = pts
        assignments[row : row + counts[piece]] = piece
        row += counts[piece]
    X[row:] = _default_points(rng, counts[0], d, boxes)
    assignments[row:] = 0

    order = rng.permutation(n)
    X = X[order]
    assignments = assignments[order]

    noise = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    y = np.empty(n)
    for k, f in enumerate(models):
        rows = np.flatnonzero(assignments == k)
        # A stacked (1, d) @ (d, 1) product takes the same dot kernel as
        # f.predict(x) on each row, so y matches the per-row sum bit for bit.
        dots = np.matmul(X[rows, None, :], f.coeffs[1:, None])[:, 0, 0]
        y[rows] = f.coeffs[0] + dots + noise[rows]

    pieces = tuple((models[k + 1], _box_area(*boxes[k])) for k in range(m))
    model = CalfModel(default=models[0], pieces=pieces)
    peak_noise = float(np.max(np.abs(noise))) if n else 0.0
    truth = GroundTruth(
        model=model,
        noise_sigma=float(sigma),
        separation_delta=float(delta),
        margin_epsilon=max(1e-9, 1.000001 * peak_noise),
        assignments=assignments,
    )
    return Dataset(X=X, y=y), truth
