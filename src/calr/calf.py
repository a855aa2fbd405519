"""Piecewise-linear models on disjoint convex areas."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, InputError, _real, as_points
from .geometry import ConvexArea, HalfSpace
from .linreg import LinearModel


@dataclass(eq=False)
class CalfModel:
    """A default affine model plus ordered (model, area) pieces.

    Prediction uses the lowest-index piece whose area contains the query
    point and falls back to the default model outside every piece.  Piece
    index 0 names the default region; pieces are numbered from 1.
    fit_info is what the solver that made the model reports about the fit
    (every solver sets "algorithm"); it takes no part in equality.
    """

    default: LinearModel
    pieces: tuple = ()
    fit_info: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ps = []
        for entry in self.pieces:
            f, area = entry
            if not isinstance(f, LinearModel) or not isinstance(area, ConvexArea):
                raise InputError("pieces must be (LinearModel, ConvexArea) pairs")
            if f.d != self.default.d:
                raise DimensionMismatchError(
                    f"piece model dimension {f.d} != default dimension {self.default.d}"
                )
            if area.d is not None and area.d != self.default.d:
                raise DimensionMismatchError(
                    f"piece area dimension {area.d} != default dimension {self.default.d}"
                )
            ps.append((f, area))
        self.pieces = tuple(ps)

    @property
    def d(self) -> int:
        return self.default.d

    @property
    def m(self) -> int:
        return len(self.pieces)

    def piece_index(self, x) -> int:
        """Index of the lowest piece containing x; 0 for the default region."""
        return int(self.assign_batch(np.asarray(x, dtype=float)[None])[0])

    def predict(self, x) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float)[None])[0])

    def assign_batch(self, X) -> np.ndarray:
        """Piece index per row; later pieces never override earlier ones."""
        X = as_points(X, self.d)
        idx = np.zeros(len(X), dtype=int)
        for i in range(len(self.pieces) - 1, -1, -1):
            idx[self.pieces[i][1].contains_batch(X)] = i + 1
        return idx

    def predict_batch(self, X) -> np.ndarray:
        X = as_points(X, self.d)
        idx = self.assign_batch(X)
        out = self.default.predict_batch(X)
        for i, (f, _) in enumerate(self.pieces):
            sel = idx == i + 1
            if np.any(sel):
                out[sel] = f.predict_batch(X[sel])
        return out

    def __eq__(self, other):
        if not isinstance(other, CalfModel):
            return NotImplemented
        return self.default == other.default and self.pieces == other.pieces


def overlapping_training_points(model: CalfModel, X) -> np.ndarray:
    """Rows of X claimed by two or more piece areas (should be empty)."""
    X = np.asarray(X, dtype=float)
    if len(model.pieces) < 2 or len(X) == 0:
        return np.zeros(0, dtype=int)
    counts = np.zeros(len(X), dtype=int)
    for _, area in model.pieces:
        counts += area.contains_batch(X)
    return np.flatnonzero(counts >= 2)


@dataclass(eq=False)
class PldcSpec:
    """A difference of two max-affine functions: max_k(a_k.x + c_k) - max_k(b_k.x + c'_k)."""

    plus_terms: tuple
    minus_terms: tuple

    def __post_init__(self):
        def norm(terms, label):
            if len(terms) == 0:
                raise InputError(f"{label} must be nonempty")
            out = []
            for a, c in terms:
                a = np.asarray(a, dtype=float).copy()
                if a.ndim != 1 or a.size == 0:
                    raise InputError(f"{label} slopes must be nonempty 1-D vectors")
                if not (np.all(np.isfinite(a)) and _real(c) and -np.inf < c < np.inf):
                    raise InputError(f"{label} coefficients must be finite")
                a.setflags(write=False)
                out.append((a, float(c)))
            return tuple(out)

        self.plus_terms = norm(self.plus_terms, "plus_terms")
        self.minus_terms = norm(self.minus_terms, "minus_terms")
        dims = {a.size for a, _ in self.plus_terms} | {a.size for a, _ in self.minus_terms}
        if len(dims) != 1:
            raise DimensionMismatchError("plus and minus terms disagree on dimension")

    @property
    def d(self) -> int:
        return self.plus_terms[0][0].size

    def evaluate(self, x) -> float:
        """Direct max-minus-max evaluation."""
        (x,) = as_points(np.asarray(x, dtype=float)[None], self.d)
        plus = max(float(a @ x) + c for a, c in self.plus_terms)
        minus = max(float(b @ x) + c for b, c in self.minus_terms)
        return plus - minus


def _argmax_region(terms, i):
    """Half-spaces where term i attains the max: (a_k - a_i).x + (c_k - c_i) <= 0.

    Returns None when term i is strictly dominated by a term with the same
    slope and a larger constant, i.e. the region is empty everywhere.
    """
    a_i, c_i = terms[i]
    halfspaces = []
    for k, (a_k, c_k) in enumerate(terms):
        if k == i:
            continue
        alpha = a_k - a_i
        if not np.any(alpha != 0.0):
            if c_k > c_i:
                return None
            continue  # equal slope, no larger constant: never flips the max
        halfspaces.append(HalfSpace(alpha=alpha, gamma=c_k - c_i))
    return halfspaces


def pldc_to_calf(spec: PldcSpec) -> CalfModel:
    """Rewrite a difference of max-affine functions as a piecewise model.

    Each pair (i, j) of argmax regions of the two sides becomes one piece
    with the affine function (a_i - b_j).x + (c_i - c'_j); regions with
    empty interiors are retained (they are simply never selected).  The
    default model duplicates the (0, 0) piece so prediction is total.
    """
    pieces = []
    a_0, c_0 = spec.plus_terms[0]
    b_0, cq_0 = spec.minus_terms[0]
    default = LinearModel(coeffs=np.concatenate([[c_0 - cq_0], a_0 - b_0]))
    minus_regions = [_argmax_region(spec.minus_terms, j) for j in range(len(spec.minus_terms))]
    for i, (a_i, c_i) in enumerate(spec.plus_terms):
        plus_hs = _argmax_region(spec.plus_terms, i)
        if plus_hs is None:
            continue
        for j, (b_j, c_j) in enumerate(spec.minus_terms):
            if minus_regions[j] is None:
                continue
            f = LinearModel(coeffs=np.concatenate([[c_i - c_j], a_i - b_j]))
            pieces.append((f, ConvexArea(tuple(plus_hs + minus_regions[j]))))
    return CalfModel(default=default, pieces=tuple(pieces))
