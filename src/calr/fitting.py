"""Fitting piecewise-linear models over disjoint convex areas.

Three solution paths live here:

* naive_calr: exact single-piece solver by subset enumeration (small n):
  SSE lower bounds from one pass over the subset lattice, each subset's
  QR factor grown from its parent's by one Givens row update and each
  subset scored once; a walk over partitions in bound order that sorts
  only its front, both sides fitted once, _ols only in the tie window;
* cas_calr: the sampling solver — draw d+1 points near a random anchor,
  gate on y not flat on them (the F-test on d+1 points), an empty sample
  simplex and coefficient distance, shrink the residual set, then build
  piece areas and hand overlap strips to post;
* cas2: a two-function variant: one sampled fit and the fit of its
  complement, assembled as cas_calr assembles its accepted models.

Both sampling solvers run one loop, _sample (RANSAC's hypothesize and
verify), and differ only in how an attempt proposes its models.  They
share one _Sampler: its setup, its local proposals (an anchor row and d
of its nearest neighbours, NAPSAC-style) and its draw gates, all settled
by one SVD of the sample.  The barycentric simplex test decides
separability exactly, so cas_calr's sampling needs no separator.  One
refit loop, _refit_within, refits a candidate on its within-eps rows
until that row set stops changing, and every proposed model at assembly
on the rows it alone fits.

All randomness goes through numpy's default PCG64 generator seeded from
the config, so fits are deterministic per (data, config).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, combinations, count

import numpy as np

from .calf import CalfModel, overlapping_training_points
from .dataset import Dataset
from .exceptions import (
    BudgetExhaustedError,
    ConvergenceError,
    InputError,
    SeparabilityError,
    _int_at_least,
    _real,
    as_points,
)
from .geometry import ConvexArea, _point_sets, _sq_dist, cac, cacs
from .linreg import LinearModel, _f_pvalue, _lstsq, _ols, coefficient_distance, lr

_EPS_MULTIPLIER = 4.0
# Anchor rows whose nearest-neighbour fits _local_scale takes the median of.
_SCALE_ANCHORS = 25
_EPS_FLOOR_SCALE = 1e-9
_REFIT_CAP = 20
_SUPPORT_SHARE = 4
_NEIGHBOURS_PER_POINT = 3
_ROUNDING_SLACK = 1e-12
_QR_COND_LIMIT = 1e8
# A sum of squares above it lost at most 2^-62 of itself to underflow.
_SQUARES_FLOOR = 2.0**-960
NAIVE_CAP_DEFAULT = 16
# naive_calr codes a subset as an int64 with one bit per row.
_NAIVE_ROWS_LIMIT = 62


@dataclass
class FitConfig:
    """Knobs for the sampling solvers.

    m must be a nonnegative integer.  epsilon may be the string "auto"
    (estimate the residual scale from nearest-neighbour fits, _local_scale,
    before the first draw) or a finite positive real number, as must delta;
    seed is a nonnegative integer.  Numbers are taken as given: "0.1" and
    True are InputErrors, not parsed.
    max_samples is a positive integer, or None for 200 * (2m)^(d+1) draws,
    sized so a pure within-piece sample is drawn many times over in
    expectation.
    """

    m: int = 1
    epsilon: object = "auto"
    delta: float = 0.5
    seed: int = 0
    max_samples: int | None = None
    separator: str = "lp"

    def __post_init__(self):
        if not _int_at_least(self.m, 0):
            raise InputError("m must be a nonnegative integer")
        if not (_real(self.epsilon) and 0 < self.epsilon < math.inf or self.epsilon == "auto"):
            raise InputError('epsilon must be finite and positive, or "auto"')
        if not (_real(self.delta) and 0 < self.delta < math.inf):
            raise InputError("delta must be finite and positive (a real number)")
        if not _int_at_least(self.seed, 0):
            raise InputError("seed must be a nonnegative integer")
        if not (self.max_samples is None or _int_at_least(self.max_samples, 1)):
            raise InputError("max_samples must be a positive integer or None")
        if self.separator not in ("lp", "svm"):
            raise InputError('separator must be "lp" or "svm"')


def default_budget(m: int, d: int) -> int:
    """Default sampling budget: 200 * (2m)^(d+1) draws, for integers m >= 0 and d >= 1."""
    if not (_int_at_least(m, 0) and _int_at_least(d, 1)):
        raise InputError("need integers m >= 0 and d >= 1")
    return 200 * (2 * max(m, 1)) ** (d + 1)


def _epsilon_floor(y: np.ndarray) -> float:
    peak = float(np.max(np.abs(y))) if len(y) else 0.0
    return _EPS_FLOOR_SCALE * (1.0 + peak)


def _nearest(X, x, k):
    """Indices of the k rows of X nearest to x by squared Euclidean distance."""
    dist2 = _sq_dist(X, x)
    return np.argpartition(dist2, k - 1)[:k] if k < len(X) else np.arange(len(X))


def _local_scale(X, y, rng) -> float:
    """Noise-scale estimate from small nearest-neighbor fits.

    Fits a hyperplane to the 2(d+2) nearest neighbors of each of a few
    random anchors, all in one _lstsq call, and takes the median residual
    scale: neighborhoods deep inside one region measure the noise, while
    those straddling a region boundary inflate and drop out of the median.
    """
    n, d = X.shape
    k = min(n, 2 * (d + 2))
    if k < d + 2:
        return 0.0
    idx = rng.choice(n, size=min(n, _SCALE_ANCHORS), replace=False)
    nb = np.array([_nearest(X, X[i], k) for i in idx])
    r = _lstsq(np.concatenate([np.ones((len(idx), k, 1)), X[nb]], axis=2), y[nb])[1]
    return float(np.median(np.sqrt(np.einsum("ck,ck->c", r, r) / (k - d - 1))))


def _auto_epsilon(X, y, rng) -> float:
    """Fitting tolerance from the estimated noise scale, floored above zero."""
    return max(_EPS_MULTIPLIER * _local_scale(X, y, rng), _epsilon_floor(y))


def _within(X, y, F, eps):
    """Rows of (X, y) with residual < eps under each model of F: one mask row per model."""
    return np.array([np.abs(y - f.predict_batch(X)) < eps for f in F])


def _refit_within(X, y, F, eps, fits):
    """Refit each model of F on the rows only it fits until those rows settle.

    fits holds F's within-eps masks, _within(X, y, F, eps).  F is refitted
    in place; returns the within-eps masks of its last models.  A model
    with fewer than d+2 rows of its own keeps its fit.  Unless _REFIT_CAP
    refits run out (a cycling set), each other model is the fit of
    exactly its own rows.  A model whose own rows are those it was last
    refitted on in this call keeps its fit, which a refit would repeat bit
    for bit, so the loop ends on the first pass that refits none.
    """
    d = X.shape[1]
    fitted = [None] * len(F)
    for _ in range(_REFIT_CAP):
        own = fits & (fits.sum(axis=0) == 1)
        refitted = False
        for i, rows in enumerate(own):
            if int(rows.sum()) >= d + 2 and not np.array_equal(rows, fitted[i]):
                F[i], fitted[i] = _ols(X[rows], y[rows]), rows
                refitted = True
        if not refitted:
            break
        fits = _within(X, y, F, eps)
    return fits


def _interpolant(S, ys, rest=None, own=None):
    """_ols's fit of d+1 sample rows (S, ys), or None if a sampling gate rejects it.

    One _lstsq call on A = [1 | S] settles the gates with its fit and SVD:
    full rank (matrix_rank's tolerance); y fitted exactly and not flat, to
    which the F-test on d+1 points reduces (_f_pvalue is 0, else 1); and,
    given rest = [1 | Q], no row q of Q outside the sample's rows own whose
    barycentric coordinates A^-T [1 | q] are all >= -1e-6, which for
    affinely independent S is exact separability from Q and also skips
    rows barely outside, costly to separate.
    """
    k = len(S)
    beta, r, (U, s, Vt), _ = _lstsq(np.column_stack([np.ones(k), S]), ys)
    if s[-1] <= s[0] * k * np.finfo(float).eps:
        return None
    sse = float(r @ r)
    ssr = float(np.sum((ys - r - float(np.mean(ys))) ** 2))
    if _f_pvalue(ssr, sse, k, k - 1, y_scale=float(ys @ ys)) != 0.0:
        return None
    if rest is not None:
        lam = U @ ((Vt @ rest.T) / s[:, None])
        inside = np.min(lam, axis=0) >= -1e-6
        if own is not None:
            inside[own] = False
        if np.any(inside):
            return None
    return LinearModel(coeffs=beta, mse=sse / k, p_value=0.0)


class _Sampler:
    """Setup and draw gates shared by the sampling solvers.

    Holds the seeded rng, the draw budget, the separator and the fitting
    tolerance epsilon; with epsilon="auto" it comes from a
    nearest-neighbor noise estimate made before any draw.
    """

    def __init__(self, data: Dataset, config: FitConfig):
        n, d, m = data.n, data.d, config.m
        if n <= (m + 1) * (d + 1):
            raise InputError(f"need n > (m+1)(d+1) = {(m + 1) * (d + 1)} points (got {n})")
        _point_sets(data.X)
        self.m = m
        self.rng = np.random.default_rng(config.seed)
        self.budget = config.max_samples or default_budget(m, d)
        self.separate = cac if config.separator == "lp" else cacs
        eps = config.epsilon
        self.eps = _auto_epsilon(data.X, data.y, self.rng) if eps == "auto" else float(eps)
        self.draws = 0

    @property
    def exhausted(self) -> bool:
        return self.draws >= self.budget

    def draw(self, X, y, rest=None):
        """One draw of d+1 rows of (X, y): (model, fit mask) or None if a gate rejects it.

        The sample is local: one anchor row drawn uniformly, plus d rows
        drawn from the anchor's k = 3(d+1) nearest other rows.  Close rows
        mostly lie in one piece and span a simplex holding no other row,
        so the acceptance rate does not fall as n grows (NAPSAC-style
        proposals).  Gates: those of _interpolant (the simplex test only
        given rest = [1 | X], against every row but the sample's own),
        then the refined candidate must fit enough rows.  Refitting on the
        rows within eps until they stop changing snaps a sample drawn
        inside one piece onto that piece; the support stays near d+1 for
        a plane cutting across pieces, because a slab of width 2 eps
        around a wrong plane holds almost nothing.
        """
        self.draws += 1
        n, d = X.shape
        anchor = int(self.rng.integers(n))
        k = min(_NEIGHBOURS_PER_POINT * (d + 1), n - 1)
        near = _nearest(X, X[anchor], k + 1)
        near = near[near != anchor][:k]
        sample = np.concatenate([[anchor], self.rng.choice(near, size=d, replace=False)])
        f = _interpolant(X[sample], y[sample], rest, sample)
        return None if f is None else self.settle(X, y, f)

    def settle(self, X, y, f):
        """f refitted on its rows of (X, y) within eps: (model, fit mask), or None.

        None when fewer rows fit than the support floor, the larger of d+2
        and n / (4(m+1)) for the n rows of X.
        """
        n, d = X.shape
        F = [f]
        fits = _refit_within(X, y, F, self.eps, _within(X, y, F, self.eps))[0]
        if int(fits.sum()) < max(d + 2, n // (_SUPPORT_SHARE * (self.m + 1))):
            return None
        return F[0], fits


def post(H_partial, leftovers: Dataset, epsilon: float, exclude=None, separate=cac):
    """Assign points fitting two models to a new area for the pair's first model.

    H_partial holds (LinearModel, ConvexArea or None) pairs; any other
    entry is an InputError.  For each pair of models (earlier, later) the
    leftover points fitting both, less those an earlier pair took, are
    carved out with one convex area and handed to the earlier model.  Each
    area is built against every other leftover point and the optional
    exclude points, (k, d) with the leftovers' d (else
    DimensionMismatchError), so every leftover point ends up in exactly
    one returned area and no exclude point in any.  Raises
    SeparabilityError when some pair's point set cannot be separated.
    epsilon must be a finite positive real number.
    """
    if not (_real(epsilon) and 0 < epsilon < math.inf):
        raise InputError("epsilon must be finite and positive")
    exclude = np.zeros((0, leftovers.d)) if exclude is None else as_points(exclude, leftovers.d)
    models = []
    for entry in H_partial:
        try:
            f, area = entry
        except (TypeError, ValueError):  # not a pair
            f = area = None
        if not isinstance(f, LinearModel) or not (area is None or isinstance(area, ConvexArea)):
            raise InputError("H_partial must hold (LinearModel, ConvexArea or None) pairs")
        models.append(f)
    if leftovers.n == 0:
        return []
    X, y = leftovers.X, leftovers.y
    fits = _within(X, y, models, epsilon)
    # One point set for every pair: the leftovers, then the exclude points.
    pts = np.vstack([X, exclude])
    unassigned = np.ones(leftovers.n, dtype=bool)
    new_pairs = []
    for i, j in combinations(range(len(models)), 2):
        pair_mask = unassigned & fits[i] & fits[j]
        if not np.any(pair_mask):
            continue
        inside = np.zeros(len(pts), dtype=bool)
        inside[: leftovers.n] = pair_mask
        area = separate(pts, inside)
        if area is None:
            raise SeparabilityError(
                "points fitting two models could not be carved into their own area"
            )
        new_pairs.append((models[i], area))
        unassigned &= ~pair_mask
    if np.any(unassigned):
        raise SeparabilityError(
            "some leftover points fit fewer than two models; caller contract violated"
        )
    return new_pairs


def _global_model(data: Dataset, **fit_info) -> CalfModel:
    return CalfModel(default=lr(data), fit_info=fit_info)


def _assemble(data, F, eps, separate):
    """Turn proposed models into a model whose piece areas share no training point.

    F is refitted in place, so the returned model's functions are its entries.
    """
    X, y = data.X, data.y
    n = data.n
    fits = _within(X, y, F, eps)
    unique = fits.sum(axis=0) == 1
    if int(unique.sum()) < n // 2:
        # On separable data nearly every point fits exactly one model; an
        # eps blown up by a bad acceptance floods the overlap instead.
        raise SeparabilityError(
            f"only {int(unique.sum())} of {n} points fit exactly one model"
        )
    # Where two models run within eps of each other, one was accepted off
    # a refit that also swallowed a strip of the other's points; a model
    # grown from a band of its piece plus a few far points of another
    # region sheds them in the refit and regrows over its whole piece.
    fits = _refit_within(X, y, F, eps, fits)
    counts = fits.sum(axis=0)
    unique = counts == 1
    # The best-supported model is the default unless another model's own
    # point set is inseparable; its own set is separated only in that case.
    default_idx = int(np.argmax((fits & unique).sum(axis=1)))

    def area_of(fi):
        own = fits[fi][unique]
        return separate(X[unique], own) if np.any(own) else None

    areas = {fi: area_of(fi) for fi in range(len(F)) if fi != default_idx}
    inseparable = [fi for fi, area in areas.items() if area is None]
    if inseparable:
        areas[default_idx] = area_of(default_idx)
        if len(inseparable) > 1 or areas[default_idx] is None:
            raise SeparabilityError(
                "two or more fitted models have non-separable point sets; "
                "expected at most one (the default)"
            )
        default_idx = inseparable[0]
    pieces = [(F[fi], areas[fi]) for fi in range(len(F)) if fi != default_idx]

    # Points fitting two or more models: those fitting the default stay in
    # the default region; those inside an existing piece area are already
    # predicted consistently; the rest get strip areas of their own.
    strip = (counts >= 2) & ~fits[default_idx]
    strip[strip] = CalfModel(F[default_idx], tuple(pieces)).assign_batch(X[strip]) == 0
    if np.any(strip):
        pieces += post(pieces, data.subset(strip), eps, exclude=X[~strip], separate=separate)
    model = CalfModel(default=F[default_idx], pieces=tuple(pieces))
    # A point fitting no model is kept out of no area, so two areas can
    # both reach it.
    if len(overlapping_training_points(model, X)):
        raise SeparabilityError("two piece areas hold the same training point")
    return model


def _sample(data, config, propose):
    """The sampling loop shared by cas_calr and cas2: propose models, then assemble them.

    Each attempt calls propose(sampler) once for a list of models.  A list
    of m+1 goes to _assemble; a shorter list, or an assembly that fails (a
    separator failure counts as that), starts the next attempt on the same
    draw budget.  Returns the model, with the shared fit_info keys, and the
    list it was assembled from, refitted in place.  Raises
    BudgetExhaustedError (carrying the longest list proposed and a
    global-fit fallback) when the budget runs out.
    """
    sampler = _Sampler(data, config)
    target = config.m + 1
    longest = []
    for attempts in count(1):
        F = propose(sampler)
        if len(F) > len(longest):
            longest = list(F)
        if len(F) == target:
            try:
                model = _assemble(data, F, sampler.eps, sampler.separate)
            except (SeparabilityError, ConvergenceError):
                pass
            else:
                model.fit_info = {
                    "samples_used": sampler.draws, "epsilon": sampler.eps, "attempts": attempts
                }
                return model, F
        if sampler.exhausted:
            raise BudgetExhaustedError(
                f"no assembly of {target} models within {sampler.draws} draws "
                f"({attempts} attempts)",
                partial_models=longest,
                samples_used=sampler.draws,
                fallback=_global_model(data),
            )


def cas_calr(data: Dataset, config: FitConfig) -> CalfModel:
    """Sampling solver: find m piece models plus a default, then carve areas.

    Each attempt draws d+1-point subsets of the residual set, each a
    uniform anchor plus d of its 3(d+1) nearest residual rows, refits the
    interpolant on its within-eps rows until they stop changing, and
    accepts a candidate that passes the draw gates (full rank; y not flat
    on the sample, the F-test on d+1 points; no other residual point in
    the sample simplex, exactly separability from the rest; enough fitting
    points) and sits at coefficient distance >= delta from every earlier
    acceptance; each acceptance shrinks the residual set.  An attempt ends
    with m+1 acceptances, a residual set run dry or the budget spent, and
    _sample assembles or retries.  With epsilon="auto" the fitting
    tolerance comes from a nearest-neighbor noise estimate made before
    sampling.
    """
    if config.m == 0:
        return _global_model(data, samples_used=0, epsilon=None, algorithm="cas")
    X, y, d = data.X, data.y, data.d
    A = np.column_stack([np.ones(data.n), X])
    target = config.m + 1

    def propose(sampler):
        accepted = []
        # The residual rows change only on an acceptance; draws share them.
        X_rest, y_rest, A_rest = X, y, A
        while len(accepted) < target and not sampler.exhausted and len(y_rest) > d:
            drawn = sampler.draw(X_rest, y_rest, A_rest)
            if drawn is None:
                continue
            f, fits = drawn
            if any(coefficient_distance(f, g) < config.delta for g in accepted):
                continue
            accepted.append(f)
            X_rest, y_rest, A_rest = (R.compress(~fits, axis=0) for R in (X_rest, y_rest, A_rest))
        return accepted

    model, F = _sample(data, config, propose)
    model.fit_info.update(algorithm="cas", accepted_p_values=[f.p_value for f in F])
    return model


def cas2(data: Dataset, config: FitConfig) -> CalfModel:
    """Two-function solver: one sampled fit and the fit of its complement.

    Each attempt is one draw passing the draw gates (full rank, y not flat
    on the sample, support) and the fit of the points outside its fitting
    set, refitted on its own within-eps rows and held to the same support
    floor.  _sample assembles the pair as it assembles cas_calr's
    acceptances: the better-supported model is the default unless the
    other's own point set admits no convex area.
    """
    if config.m != 1:
        raise InputError("this solver handles exactly one piece (m=1)")
    X, y = data.X, data.y

    def propose(sampler):
        drawn = sampler.draw(X, y)
        if drawn is None:
            return []
        f1, fits1 = drawn
        if int((~fits1).sum()) < data.d + 2:
            return [f1]
        settled = sampler.settle(X, y, _ols(X[~fits1], y[~fits1]))
        return [f1] if settled is None else [f1, settled[0]]

    model, F = _sample(data, config, propose)
    # The sampled fit is F[0], refitted in place by _assemble.
    branch = "complement_area" if model.default is F[0] else "piece_area"
    model.fit_info.update(algorithm="cas2", branch=branch)
    return model


def _svd_sse_floor(A, Y):
    """_subset_floors's fallback: each system's _lstsq residual norm less the slack, squared.

    _lstsq cuts as _ols does; the slack is _subset_floors's, with cond the
    ratio of the largest kept singular value to the smallest.
    """
    _, r, (_, s, _), keep = _lstsq(A, Y)
    cond = s[:, 0] / np.min(np.where(keep, s, np.inf), axis=1)
    slack = _ROUNDING_SLACK * cond * np.linalg.norm(Y, axis=1)
    return np.maximum(np.linalg.norm(r, axis=1) - slack, 0.0) ** 2


def _inverse_norm2(R):
    """||R^-1||_F^2 of each upper-triangular system R[:, :, c], by back-substitution.

    A zero on R's diagonal makes that system's value not finite.
    """
    p = R.shape[0]
    R_inv = np.zeros_like(R)
    for i in range(p - 1, -1, -1):
        R_inv[i, i] = inv = 1.0 / R[i, i]
        R_inv[i, i + 1 :] = -inv * np.einsum("lc,ljc->jc", R[i, i + 1 :], R_inv[i + 1 :, i + 1 :])
    return np.einsum("ijc,ijc->c", R_inv, R_inv)


def _givens(x, z):
    """Rotations that zero each z against x: returns (c, s), and x becomes r in place.

    r = sqrt(x^2 + z^2) takes a fraction of np.hypot's time and lies
    within a rounding or two of it while every x^2 + z^2 is a normal
    float, as a square lost to underflow then lies below the sum's last
    bit.  Otherwise r is np.hypot's, with c = 1, s = 0 where x and z are
    both 0.
    """
    r = x * x
    r += z * z
    if r.min() > _SQUARES_FLOOR and r.max() < np.inf:
        np.sqrt(r, out=r)
        c, s = x / r, z / r
    else:
        r = np.hypot(x, z)
        zero = r == 0
        r_safe = r + zero
        c, s = (x + zero) / r_safe, z / r_safe
    x[...] = r
    return c, s


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _subset_floors(A, y, low):
    """Every subset of A's n rows with low..n-low rows, and a lower bound on its _ols SSE.

    A's first column is the intercept's ones, and 1 <= low <= n - low.
    Returns one flat (codes, floors) pair, by size and within a size in
    combinations order: one int64 code per subset, bit i set for row i, and
    the floor of the system A[mask] b ~ y[mask].  The sizes are symmetric,
    so the complement of the i-th subset is the (len - 1 - i)-th.  One pass
    over the subset lattice, level by level: the children of a subset add
    one row j past its last row, in increasing j, so each level keeps
    combinations order.  A child gathers its parent's code, R of [A | y]
    (p x p+1, y's column Q^T y) and residual sum of squares, and takes row
    j in with its bit and p Givens rotations, O(p^2) work instead of a QR
    over its k rows.
    Every k-subset has the same R[0, 0], h_k = hypot(h_{k-1}, 1), so the
    intercept's rotation is two scalars per level; _givens finds the others.
    Rounding moves a least-squares residual by about eps * cond * ||y||, in
    these backward-stable updates and in lstsq, so the residual norm is
    lowered by a generous multiple of that before it is squared.  cond is
    bounded from above by ||R||_F * ||R^-1||_F: ||R||_F^2 is the sum of
    ||a_i||^2 over the subset's rows, and a row added to a system only grows
    A^T A, so a child may use its parent's ||R^-1||_F; back-substitution
    runs only where that inherited bound passes _QR_COND_LIMIT.  A system
    whose own bound passes the limit, or is not finite, goes to
    _svd_sse_floor, where the RCOND cutoff decides as in _ols.  Below the
    limit lstsq keeps every singular value, so the full projection leaves no
    more residual than lstsq's.
    """
    n, p = A.shape
    # Subsets run along the last axis, so each row of R is contiguous;
    # take keeps that layout when it gathers the parents, and gathers each
    # subset's new row from the contiguous rows of a transpose: [A | y]
    # past the intercept, then ||a_i||^2 and y_i^2, the terms of two sums
    # over a subset's rows.
    rows_T = np.vstack([A[:, 1:].T, y, np.einsum("ij,ij->i", A, A), y * y])
    # One array per level holds each subset's R and, below it, ||R||_F^2,
    # y.y, its residual sum of squares and its inherited ||R^-1||_F^2.
    state = np.zeros((p * (p + 1) + 4, 1))
    state[-1] = np.inf
    h = 0.0
    levels = []
    codes, last = np.zeros(1, dtype=np.int64), np.full(1, -1)
    step = np.arange(math.comb(n, n // 2))
    for k in range(1, n - low + 1):
        # A subset's children take the rows after its last, in order: the
        # children of a subset end at rows n - count .. n - 1.
        counts = n - 1 - last
        parent = np.repeat(step[: len(last)], counts)
        ends = np.cumsum(counts)
        last = (n - ends).take(parent) + step[: ends[-1]]
        codes = codes.take(parent) | (1 << last)
        state, new = state.take(parent, axis=1), rows_T.take(last, axis=1)
        R, acc = state[: p * (p + 1)].reshape(p, p + 1, -1), state[p * (p + 1) :]
        # a[j - 1] is the new row's entry in column j.
        a = new[:p]
        acc[:2] += new[p:]
        h, h_prev = np.hypot(h, 1.0), h
        c, s = h_prev / h, 1.0 / h
        for i in range(p):
            R_i, a_i = R[i, i + 1 :], a[i:]
            if i:
                c, s = _givens(R[i, i], a[i - 1])
            sR = s * R_i
            R_i *= c
            R_i += s * a_i
            a_i *= c
            a_i -= sR
        R[0, 0] = h
        acc[2] += a[-1] * a[-1]
        if k < low:
            continue
        cond = np.sqrt(acc[0] * acc[3])
        ill = ~(cond <= _QR_COND_LIMIT)
        if ill.any():
            acc[3, ill] = _inverse_norm2(R[:, :p].compress(ill, axis=2))
            cond = np.sqrt(acc[0] * acc[3])
            ill = ~(cond <= _QR_COND_LIMIT)
        slack = _ROUNDING_SLACK * cond * np.sqrt(acc[1])
        floors = np.maximum(np.sqrt(acc[2]) - slack, 0.0) ** 2
        if ill.any():
            rows = np.nonzero(codes[ill, None] >> np.arange(n) & 1)[1].reshape(-1, k)
            floors[ill] = _svd_sse_floor(A[rows], y[rows])
        levels.append((codes, floors))
    return tuple(np.concatenate(side) for side in zip(*levels))


def _stable_front(floors):
    """np.argsort(floors, kind="stable") in blocks, each sorted only when read.

    A block holds the smallest floors not yet returned, found by
    np.partition, and every other floor equal to the cut, sorted stably, so
    each block continues the full stable order with equal floors in index
    order.  Blocks start at 64 floors and grow 4x: a walk that reads a few
    candidates sorts a few dozen, and one that reads them all sorts each
    floor once.
    """
    rest = np.arange(len(floors))
    block = 64
    while block < len(rest):
        vals = floors[rest]
        front = vals <= np.partition(vals, block - 1)[block - 1]
        yield rest[front][np.argsort(vals[front], kind="stable")]
        rest = rest[~front]
        block *= 4
    yield rest[np.argsort(floors[rest], kind="stable")]


def naive_calr(data: Dataset, cap: int = NAIVE_CAP_DEFAULT) -> CalfModel:
    """Exact one-piece solver by exhaustive subset enumeration.

    Tries every subset D of size d+1 .. n-d-1 as the piece's point set,
    keeps those whose convex area excludes everything else, and returns
    the area-plus-complement model with the smallest total squared error
    (_ols's, ties to the earlier subset in combinations order); falls
    back to the single global fit when it ties or nothing separates.
    SSE lower bounds, _ols only in the tie window: _subset_floors bounds
    every k-subset's _ols SSE from below in one pass over the subset
    lattice, each subset's QR factor its parent's plus one Givens row
    update, allowing for rounding in proportion to a bound on the
    system's condition, inherited from its parent where that suffices,
    and ||y||.  Each partition is scored and fitted once: in that pass's
    flat order the complement of the i-th subset is the (len-1-i)-th, so
    the walk holds one entry per partition, its side of at most n/2 rows,
    bounded by its floor plus its complement's.  It takes entries in the
    stable order of their bounds, but _stable_front sorts only as far as
    it reads; only an entry whose bound reaches the walk's front has its
    code decoded to a mask and both sides fitted by _ols, and both
    orientations go on the heap that settles their order.  The loop
    refuses to run past the cap, an integer, unless it is raised, or past
    62 rows, one bit each of a subset's int64 code.  An empty dataset is an
    InputError, and so is an X whose squared distances would overflow or a
    y whose sums of squares would, each decided before any is formed.  The
    model's fit_info is {"algorithm": "naive"}.
    """
    n, d = data.n, data.d
    if not _int_at_least(cap, n):
        raise InputError(
            f"subset enumeration over n={n} points is exponential; "
            f"raise the cap ({cap!r}, an integer) explicitly to force it"
        )
    if n > _NAIVE_ROWS_LIMIT:
        raise InputError(
            f"subset enumeration takes at most {_NAIVE_ROWS_LIMIT} points, "
            f"one bit of a subset's code each (got n={n})"
        )
    X, y = data.X, data.y
    _point_sets(X)
    # Every sum of squares below, global or per subset, stays under
    # 4 n max|y|^2 (one term of sum((y - mean)^2) reaches 4 max|y|^2).
    top, limit = float(np.max(np.abs(y))), math.sqrt(np.finfo(float).max / (4 * n))
    if top > limit:
        raise InputError(
            f"the sums of squares of y overflow: |y| reaches {top:.3g}, "
            f"past {limit:.3g} for n={n}"
        )
    global_fit = lr(data)
    global_sse = global_fit.mse * n
    # Ties are judged at rounding-noise resolution so an exactly-linear
    # dataset does not hand the win to an arbitrary subset split.  For a
    # constant y the spread is zero and rounding noise at the scale of
    # y.y decides, as in _f_pvalue.
    tie_tol = 1e-12 * max(float(np.sum((y - y.mean()) ** 2)), 1e-12 * float(y @ y))
    stop = global_sse - tie_tol
    if n < 2 * (d + 1):
        return _global_model(data, algorithm="naive")
    codes, floors = _subset_floors(np.column_stack([np.ones(n), X]), y, d + 1)
    # Candidate i's complement is candidate last - i, so the walk reads the
    # first half, one entry per partition.
    floors, last = (floors + floors[::-1])[: len(floors) // 2], len(floors) - 1
    order = chain.from_iterable(_stable_front(floors))
    nxt = next(order, None)
    fitted = []  # heap of (_ols SSE, candidate index, mask, f_in, f_out)
    while True:
        # Lower bound on the _ols SSE of every candidate not fitted yet.
        floor = math.inf if nxt is None else float(floors[nxt])
        if fitted and fitted[0][0] < floor:
            # The head comes first in (_ols SSE, index) order among all candidates.
            sse, _, mask, f_in, f_out = heapq.heappop(fitted)
            if sse >= stop:
                break  # remaining candidates cannot beat the zero-piece model
            area = cac(X, mask)
            if area is not None:
                return CalfModel(f_out, ((f_in, area),), fit_info={"algorithm": "naive"})
            continue
        if floor >= stop:
            break
        i, nxt = int(nxt), next(order, None)
        mask = (codes[i] >> np.arange(n) & 1).astype(bool)
        k = int(mask.sum())
        f_in, f_out = _ols(X[mask], y[mask]), _ols(X[~mask], y[~mask])
        # IEEE addition commutes, so the mirrored candidate's SSE is this one.
        sse = f_in.mse * k + f_out.mse * (n - k)
        heapq.heappush(fitted, (sse, i, mask, f_in, f_out))
        heapq.heappush(fitted, (sse, last - i, ~mask, f_out, f_in))
    return _global_model(data, algorithm="naive")
