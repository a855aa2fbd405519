"""Ordinary least squares with minimum-norm semantics and an F-test.

Every fit drops singular values at or below RCOND times the largest, so
rank-deficient systems return the minimum-norm coefficient vector instead
of failing: _ols through lstsq, _lstsq (a stack of systems, one SVD) for
the samplers.  Significance is the overall F-test, its tail probability a
continued fraction of the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ConvergenceError, DimensionMismatchError, InputError, as_points

if TYPE_CHECKING:
    from .dataset import Dataset

# Relative SVD cutoff for the pseudo-inverse.
RCOND = 1e-10

# SSE/SSR smaller than this fraction of SST count as exactly zero.  Any
# genuine residual this small would drive the F tail below the smallest
# positive float anyway, so the threshold is not observable from outside.
_ZERO_FRACTION = 1e-14


@dataclass(eq=False)
class LinearModel:
    """Affine model y = coeffs[0] + coeffs[1:] . x with fit metadata.

    Identity is the coefficient vector; mse/p_value are metadata
    from the fit and do not participate in equality (a model loaded from
    disk equals the model that was saved).
    """

    coeffs: np.ndarray
    mse: float = field(default=0.0)
    p_value: float = field(default=1.0)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise InputError("coeffs must be a 1-D vector of length d+1")
        if not np.all(np.isfinite(c)):
            raise InputError("coeffs must be finite")
        c = c.copy()
        c.setflags(write=False)
        self.coeffs = c

    @property
    def d(self) -> int:
        return self.coeffs.size - 1

    def predict(self, x) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float)[None])[0])

    def predict_batch(self, X) -> np.ndarray:
        X = as_points(X, self.d)
        return self.coeffs[0] + X @ self.coeffs[1:]

    def __eq__(self, other):
        if not isinstance(other, LinearModel):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.coeffs + 0.0).tobytes())


def coefficient_distance(a: LinearModel, b: LinearModel) -> float:
    """Euclidean distance between full coefficient vectors (intercepts included)."""
    if a.d != b.d:
        raise DimensionMismatchError("models live in different dimensions")
    return float(np.linalg.norm(a.coeffs - b.coeffs))


def _ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Fit on raw arrays; shared by lr() and the samplers."""
    n, d = X.shape
    if n < 1:
        raise InputError("need at least one row to fit")
    A = np.concatenate([np.ones((n, 1)), X], axis=1)
    beta, _, _, _ = np.linalg.lstsq(A, y, rcond=RCOND)
    fitted = A @ beta
    resid = y - fitted
    sse = float(resid @ resid)
    mean_sq = sse / n
    ybar = float(np.mean(y))
    ssr = float(np.sum((fitted - ybar) ** 2))
    return LinearModel(
        coeffs=beta,
        mse=mean_sq,
        p_value=_f_pvalue(ssr, sse, n, d, y_scale=float(y @ y)),
    )


def _lstsq(A, Y):
    """Minimum-norm least squares of each system A[c] b ~ Y[c] of a stack, by one SVD.

    Singular values at or below RCOND times their system's largest are
    dropped, as by _ols's lstsq, and never inverted.  Returns b, the
    residuals Y - A b, the thin factors (U, s, Vt) and the mask of kept s.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > RCOND * s[..., :1]
    c = np.einsum("...ki,...k->...i", U, Y) * (keep / np.where(keep, s, 1.0))
    beta = np.einsum("...ij,...i->...j", Vt, c)
    return beta, Y - np.einsum("...kj,...j->...k", A, beta), (U, s, Vt), keep


def lr(data: "Dataset") -> LinearModel:
    """Least-squares fit of data; minimum-norm when the design is singular."""
    return _ols(data.X, data.y)


def mse(model, data: "Dataset") -> float:
    """Mean squared error of any model exposing predict_batch.

    A residual sum of squares that overflows is an InputError, and no
    overflow warning leaks.
    """
    if data.n < 1:
        raise InputError("need at least one row to score")
    pred = model.predict_batch(data.X)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = data.y - pred
        sse = float(resid @ resid)
    if not math.isfinite(sse):
        raise InputError(
            f"the residual sum of squares overflows: |y - prediction| reaches "
            f"{float(np.max(np.abs(resid))):.3g} over {data.n} rows"
        )
    return sse / data.n


def _f_pvalue(ssr: float, sse: float, n: int, d: int, y_scale: float = 0.0) -> float:
    """F-test tail probability with the exact-fit / no-signal edge cases.

    Sums of squares at rounding-noise size count as zero, judged against
    both the explained-plus-residual total and y_scale (the raw sum of
    squares of y, which stays meaningful when y is constant and both parts
    are pure noise).  For saturated fits (n <= d+1, no error degrees of
    freedom) the F statistic does not exist; an interpolating fit still
    reports 0 (the SSE=0 branch) and anything else reports 1.
    """
    sst = ssr + sse
    zero = _ZERO_FRACTION * max(sst, y_scale, 1e-300)
    if ssr <= zero:
        return 1.0
    if sse <= zero:
        return 0.0
    dof_err = n - d - 1
    if dof_err <= 0:
        return 1.0
    f_stat = (ssr / d) / (sse / dof_err)
    # P(F >= f) for F ~ F(d, dof_err), written directly in its stable form.
    x = dof_err / (dof_err + d * f_stat)
    return regularized_incomplete_beta(dof_err / 2.0, d / 2.0, x)


# ---- regularized incomplete beta, continued fraction evaluation ----

_BETA_EPS = 1e-12
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 500


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], to absolute tolerance ~1e-12."""
    if a <= 0.0 or b <= 0.0:
        raise InputError("incomplete beta requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only below the distribution
    # bulk; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) past it.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
