"""Fitting piecewise-linear models over disjoint convex areas.

Three solution paths live here:

* naive_calr: exact single-piece solver by subset enumeration (small n):
  SSE lower bounds from one batched Householder QR per subset size, each
  subset scored once, _ols only in the tie window;
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
)
from .geometry import cac, cacs
from .linreg import RCOND, LinearModel, _f_pvalue, _ols, coefficient_distance, lr

_EPS_MULTIPLIER = 4.0
_EPS_FLOOR_SCALE = 1e-9
_REFIT_CAP = 20
_SUPPORT_SHARE = 4
_NEIGHBOURS_PER_POINT = 3
_ROUNDING_SLACK = 1e-12
_QR_COND_LIMIT = 1e8
NAIVE_CAP_DEFAULT = 16


@dataclass
class FitConfig:
    """Knobs for the sampling solvers.

    epsilon may be the string "auto" (estimate the residual scale from
    nearest-neighbour fits, _local_scale, before the first draw) or a
    finite positive float, and delta must be finite and positive.
    max_samples of None means 200 * (2m)^(d+1) draws, sized so a pure
    within-piece sample is drawn many times over in expectation.
    """

    m: int = 1
    epsilon: object = "auto"
    delta: float = 0.5
    seed: int = 0
    max_samples: int | None = None
    separator: str = "lp"

    def __post_init__(self):
        if self.m < 0:
            raise InputError("m must be nonnegative")
        if self.epsilon != "auto":
            self.epsilon = float(self.epsilon)
            if not (math.isfinite(self.epsilon) and self.epsilon > 0):
                raise InputError('epsilon must be finite and positive, or "auto"')
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InputError("delta must be finite and positive")
        if self.max_samples is not None and self.max_samples < 1:
            raise InputError("max_samples must be positive")
        if self.separator not in ("lp", "svm"):
            raise InputError('separator must be "lp" or "svm"')


def default_budget(m: int, d: int) -> int:
    """Default sampling budget: 200 * (2m)^(d+1) draws."""
    return 200 * (2 * max(m, 1)) ** (d + 1)


def _epsilon_floor(y: np.ndarray) -> float:
    peak = float(np.max(np.abs(y))) if len(y) else 0.0
    return _EPS_FLOOR_SCALE * (1.0 + peak)


def _nearest(X, x, k):
    """Indices of the k rows of X nearest to x by squared Euclidean distance."""
    dist2 = np.sum((X - x) ** 2, axis=1)
    return np.argpartition(dist2, k - 1)[:k] if k < len(X) else np.arange(len(X))


def _local_scale(X, y, rng, anchors: int = 25) -> float:
    """Noise-scale estimate from small nearest-neighbor fits.

    Fits a hyperplane to the 2(d+2) nearest neighbors of a few random
    anchor points and takes the median residual scale: neighborhoods deep
    inside one region measure the noise, while the minority straddling a
    region boundary inflate and drop out of the median.
    """
    n, d = X.shape
    k = min(n, 2 * (d + 2))
    if k < d + 2:
        return 0.0
    idx = rng.choice(n, size=min(n, anchors), replace=False)
    ones = np.ones((k, 1))
    scales = []
    for i in idx:
        nb = _nearest(X, X[i], k)
        Xn, yn = X[nb], y[nb]
        # _ols's least squares without its F-test, which this scale never reads.
        beta = np.linalg.lstsq(np.concatenate([ones, Xn], axis=1), yn, rcond=RCOND)[0]
        r = yn - (beta[0] + Xn @ beta[1:])
        scales.append(math.sqrt(float(r @ r) / (k - d - 1)))
    return float(np.median(scales))


def _auto_epsilon(X, y, rng) -> float:
    """Fitting tolerance from the estimated noise scale, floored above zero."""
    return max(_EPS_MULTIPLIER * _local_scale(X, y, rng), _epsilon_floor(y))


def _within(X, y, F, eps):
    """Rows of (X, y) with residual < eps under each model of F: one mask row per model."""
    return np.array([np.abs(y - f.predict_batch(X)) < eps for f in F])


def _refit_within(X, y, F, eps):
    """Refit each model of F on the rows only it fits until those rows settle.

    F is refitted in place; returns the within-eps masks of its last
    models.  A model with fewer than d+2 rows of its own keeps its fit.
    Unless _REFIT_CAP refits run out (a cycling set), each other model is
    the fit of exactly its own rows.
    """
    d = X.shape[1]
    fits = _within(X, y, F, eps)
    for _ in range(_REFIT_CAP):
        own = fits & (fits.sum(axis=0) == 1)
        for i, rows in enumerate(own):
            if int(rows.sum()) >= d + 2:
                F[i] = _ols(X[rows], y[rows])
        fits, before = _within(X, y, F, eps), fits
        if np.array_equal(fits, before):
            break
    return fits


def _interpolant(S, ys, rest=None, own=None):
    """_ols's fit of d+1 sample rows (S, ys), or None if a sampling gate rejects it.

    One SVD of A = [1 | S] settles the gates: full rank (matrix_rank's
    tolerance); y fitted exactly and not flat, to which the F-test on d+1
    points reduces (_f_pvalue is 0 then, else 1); and, given rest = [1 | Q],
    no row q of Q outside the sample's own rows own whose barycentric
    coordinates A^-T [1 | q] are all >= -1e-6, which for affinely
    independent S is exact separability from Q and also skips rows barely
    outside, costly to separate.
    """
    k = len(S)
    A = np.column_stack([np.ones(k), S])
    U, s, Vt = np.linalg.svd(A)
    if s[-1] <= s[0] * k * np.finfo(float).eps:
        return None
    s_inv = np.where(s > RCOND * s[0], 1.0 / s, 0.0)
    beta = Vt.T @ (s_inv * (U.T @ ys))
    fitted = A @ beta
    sse = float((ys - fitted) @ (ys - fitted))
    ssr = float(np.sum((fitted - float(np.mean(ys))) ** 2))
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
        fits = _refit_within(X, y, F, self.eps)[0]
        if int(fits.sum()) < max(d + 2, n // (_SUPPORT_SHARE * (self.m + 1))):
            return None
        return F[0], fits


def post(H_partial, leftovers: Dataset, epsilon: float, exclude=None, separate=cac):
    """Assign points fitting two models to a new area for the pair's first model.

    For each pair of models (earlier, later) the points fitting both are
    carved out of the leftovers with one convex area and handed to the
    earlier model; optional exclude points are kept out of every new area.
    Raises SeparabilityError when some pair's point set cannot be
    separated; every leftover point ends up in exactly one returned area.
    """
    if leftovers.n == 0:
        return []
    models = [f for f, _ in H_partial]
    X, y = leftovers.X, leftovers.y
    fits = _within(X, y, models, epsilon)
    exclude = (
        np.zeros((0, leftovers.d)) if exclude is None else np.asarray(exclude, dtype=float)
    )
    unassigned = np.ones(leftovers.n, dtype=bool)
    new_pairs = []
    for i, j in combinations(range(len(models)), 2):
        pair_mask = unassigned & fits[i] & fits[j]
        if not np.any(pair_mask):
            continue
        others = np.flatnonzero(unassigned & ~pair_mask)
        pts = np.vstack([X[pair_mask], X[others], exclude])
        inside = np.zeros(len(pts), dtype=bool)
        inside[: int(pair_mask.sum())] = True
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


def _global_model(data: Dataset) -> CalfModel:
    return CalfModel(default=lr(data), pieces=())


def _assemble(data, F, eps, separate):
    """Turn proposed models into a model whose piece areas share no training point.

    F is refitted in place, so the returned model's functions are its entries.
    """
    X, y = data.X, data.y
    n = data.n
    unique = _within(X, y, F, eps).sum(axis=0) == 1
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
    fits = _refit_within(X, y, F, eps)
    counts = fits.sum(axis=0)
    unique = counts == 1
    # The best-supported model is the default unless another model's own
    # point set is inseparable; its own set is separated only in that case.
    default_idx = int(np.argmax((fits & unique).sum(axis=1)))
    uni_idx = np.flatnonzero(unique)

    def area_of(fi):
        own = unique & fits[fi]
        return separate(X[uni_idx], own[uni_idx]) if np.any(own) else None

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
    leftovers = (counts >= 2) & ~fits[default_idx]
    strip_idx = np.flatnonzero(leftovers)
    if len(strip_idx) and pieces:
        covered = np.zeros(len(strip_idx), dtype=bool)
        for _, area in pieces:
            covered |= area.contains_batch(X[strip_idx])
        strip_idx = strip_idx[~covered]
    if len(strip_idx):
        keep_out = np.ones(n, dtype=bool)
        keep_out[strip_idx] = False
        pieces = pieces + post(
            pieces,
            data.subset(strip_idx),
            eps,
            exclude=X[keep_out],
            separate=separate,
        )
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
        model = _global_model(data)
        model.fit_info = {"samples_used": 0, "epsilon": None, "algorithm": "cas"}
        return model
    X, y, d = data.X, data.y, data.d
    target = config.m + 1

    def propose(sampler):
        remaining = np.arange(data.n)
        accepted = []
        # The residual rows change only on an acceptance; draws share them.
        X_rest, y_rest = X[remaining], y[remaining]
        A_rest = np.column_stack([np.ones(len(remaining)), X_rest])
        while len(accepted) < target and not sampler.exhausted and len(remaining) > d:
            drawn = sampler.draw(X_rest, y_rest, A_rest)
            if drawn is None:
                continue
            f, fits = drawn
            if any(coefficient_distance(f, g) < config.delta for g in accepted):
                continue
            accepted.append(f)
            remaining = remaining[~fits]
            X_rest, y_rest = X[remaining], y[remaining]
            A_rest = np.column_stack([np.ones(len(remaining)), X_rest])
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
    """_sse_floor's fallback: one SVD per system, with _ols's RCOND cutoff.

    Each system's least-squares residual is y minus its projection on the
    left singular vectors whose singular values lie above RCOND times the
    largest, as _ols's lstsq keeps them; the slack is _sse_floor's, with
    cond the ratio of the largest kept singular value to the smallest.
    """
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    keep = s > RCOND * s[:, :1]
    r = Y - np.einsum("cki,ci->ck", U, np.einsum("cki,ck->ci", U, Y) * keep)
    cond = s[:, 0] / np.min(np.where(keep, s, np.inf), axis=1)
    slack = _ROUNDING_SLACK * cond * np.linalg.norm(Y, axis=1)
    return np.maximum(np.linalg.norm(r, axis=1) - slack, 0.0) ** 2


def _sse_floor(A, Y):
    """Lower bound on the SSE that _ols computes for each stacked system A[c] b ~ Y[c].

    Householder QR runs over the whole (N, k, p) stack at once, one
    reflection per column, so no system pays for a LAPACK call; the
    residual is the norm of (Q^T y)[p:].  Rounding moves a least-squares
    residual by about eps * cond * ||y||, in this computation and in
    lstsq's, so the residual norm is lowered by a generous multiple of
    that before it is squared; cond is bounded from above by
    ||R||_F * ||R^-1||_F.  A system whose bound passes _QR_COND_LIMIT, or
    is not finite, goes to _svd_sse_floor, where the RCOND cutoff decides
    as in _ols.  Below the limit lstsq keeps every singular value, so the
    full projection leaves no more residual than lstsq's.
    """
    R, QtY = A.copy(), Y.copy()
    p = R.shape[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(p):
            v = R[:, j:, j].copy()
            norm = np.linalg.norm(v, axis=1)
            v[:, 0] += np.copysign(norm, v[:, 0])
            # A zero column makes v NaN: that system's bound is not finite.
            v *= np.sqrt(2.0 / np.einsum("ci,ci->c", v, v))[:, None]
            R[:, j:, j:] -= v[:, :, None] * np.einsum("ci,cij->cj", v, R[:, j:, j:])[:, None, :]
            QtY[:, j:] -= v * np.einsum("ci,ci->c", v, QtY[:, j:])[:, None]
        R = np.triu(R[:, :p, :])
        # Back-substitution for R^-1, one row at a time from the bottom.
        R_inv = np.zeros_like(R)
        for i in range(p - 1, -1, -1):
            R_inv[:, i, i] = 1.0 / R[:, i, i]
            R_inv[:, i, i + 1 :] = -R_inv[:, i, i, None] * np.einsum(
                "cl,clj->cj", R[:, i, i + 1 :], R_inv[:, i + 1 :, i + 1 :]
            )
        cond = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
        slack = _ROUNDING_SLACK * cond * np.linalg.norm(Y, axis=1)
        floors = np.maximum(np.linalg.norm(QtY[:, p:], axis=1) - slack, 0.0) ** 2
    ill = ~(cond <= _QR_COND_LIMIT)
    if np.any(ill):
        floors[ill] = _svd_sse_floor(A[ill], Y[ill])
    return floors


def naive_calr(data: Dataset, cap: int = NAIVE_CAP_DEFAULT) -> CalfModel:
    """Exact one-piece solver by exhaustive subset enumeration.

    Tries every subset D of size d+1 .. n-d-1 as the piece's point set,
    keeps those whose convex area excludes everything else, and returns
    the area-plus-complement model with the smallest total squared error
    (_ols's, ties to the earlier subset in combinations order); falls
    back to the single global fit when it ties or nothing separates.
    Batched SSE lower bounds, _ols only in the tie window: _sse_floor
    bounds every k-subset's _ols SSE from below, all subsets of one size
    in one batched Householder QR, allowing for rounding in proportion to
    the system's condition and ||y||.  Each subset is scored once: the
    complement of the i-th k-subset in combinations order is the
    (C(n, k)-1-i)-th (n-k)-subset, so a candidate's bound is its subset's
    plus the mirrored entry of the other size.  Only candidates whose
    bound reaches the walk's front get fitted by _ols, which settles their
    order.  The exponential loop refuses to run past the cap unless
    raised.
    """
    n, d = data.n, data.d
    if n > cap:
        raise InputError(
            f"subset enumeration over n={n} points is exponential; "
            f"raise the cap ({cap}) explicitly to force it"
        )
    X, y = data.X, data.y
    global_fit = lr(data)
    global_sse = global_fit.mse * n
    # Ties are judged at rounding-noise resolution so an exactly-linear
    # dataset does not hand the win to an arbitrary subset split.  For a
    # constant y the spread is zero and rounding noise at the scale of
    # y.y decides, as in _f_pvalue.
    tie_tol = 1e-12 * max(float(np.sum((y - y.mean()) ** 2)), 1e-12 * float(y @ y))
    stop = global_sse - tie_tol
    sizes = range(d + 1, n - d)
    if not sizes:
        return _global_model(data)
    A = np.column_stack([np.ones(n), X])
    masks, own = [], {}
    for k in sizes:
        # Every k-subset's rows, in combinations order, scored once.
        inside = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
        inside = inside.reshape(-1, k)
        mk = np.zeros((len(inside), n), dtype=bool)
        mk[np.arange(len(inside))[:, None], inside] = True
        masks.append(mk)
        own[k] = _sse_floor(A[inside], y[inside])
    masks = np.concatenate(masks)
    # The complement of the i-th k-combination is the (C(n, k)-1-i)-th
    # (n-k)-combination, so each side's floor is read off one array.
    floors = np.concatenate([own[k] + own[n - k][::-1] for k in sizes])
    order = np.argsort(floors, kind="stable")
    fitted = []  # heap of (_ols SSE, enumeration index, f_in, f_out)
    pos = 0
    while True:
        # Lower bound on the _ols SSE of every candidate not fitted yet.
        floor = float(floors[order[pos]]) if pos < len(order) else math.inf
        if fitted and fitted[0][0] < floor:
            # The head comes first in (_ols SSE, index) order among all candidates.
            sse, i, f_in, f_out = heapq.heappop(fitted)
            if sse >= stop:
                break  # remaining candidates cannot beat the zero-piece model
            area = cac(X, masks[i])
            if area is not None:
                return CalfModel(default=f_out, pieces=((f_in, area),))
            continue
        if floor >= stop:
            break
        i = int(order[pos])
        pos += 1
        mask = masks[i]
        k = int(mask.sum())
        f_in = _ols(X[mask], y[mask])
        f_out = _ols(X[~mask], y[~mask])
        heapq.heappush(fitted, (f_in.mse * k + f_out.mse * (n - k), i, f_in, f_out))
    return _global_model(data)
