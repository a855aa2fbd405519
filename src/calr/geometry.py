"""Half-space geometry and point-set separation.

A half-space is {x : alpha.x + gamma <= 0}; a convex area is a finite
conjunction of half-spaces.  Membership is tolerant: a point x belongs if
alpha.x + gamma <= tol_geo(x) with tol_geo(x) = 1e-9 * (1 + ||x||_inf).

Two plane searches are provided and kept deliberately independent:

* gslp: a hand-written relaxation (sequential projection) solver for the
  strict separation system w.(x_i - x0) <= -1;
* svm_soft: a soft-margin maximum-margin plane between two point sets.

_certified_inside proves a point lies in a hull without an LP: Wolfe's
nearest-point iteration finds d+1 rows around it, and its barycentric
coordinates in them are checked directly.  An iterate that separates the
point from the hull by a clear margin proves it outside instead.  gslp
asks it before reflecting.

cac and cacs build a convex area around the rows a boolean mask selects:
they visit the excluded points nearest the inside rows' mean first and
give a separating half-space to each point no earlier plane excludes,
pruning the points each new plane pushes out.  Both settle each point in
one ladder and differ only in the search they run in it: a point is
declared inseparable only by an exact check (the certificate, or the LP
hull-membership check for points the certificate settles neither way);
any other point gets the route's search once, and the exact separation
LP if the search finds nothing.  A point shown outside that neither
separates raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DimensionMismatchError, InputError, as_points
from .exceptions import _int_at_least, _real

GEO_TOL_SCALE = 1e-9
HULL_TOL = 1e-9
_OUTSIDE_MARGIN = 1e-6
SVM_C_DEFAULT = 1e3
SVM_MAX_ITER = 100_000
_DIVERGENCE_NORM = 1e14
# gslp's reflection cap, per row and coordinate of its point set.
_GSLP_REFLECTIONS = 1000
# Box bound on each weight of the exact separation LP.
_SEPARATION_LP_BOUND = 1e12
# Rows up to this wide are summed by numpy one column after another.
_ORDERED_SUM_COLUMNS = 7


def tol_geo(x) -> float:
    """Membership tolerance at a point: 1e-9 * (1 + ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    return GEO_TOL_SCALE * (1.0 + peak)


def _tol_geo_batch(X: np.ndarray) -> np.ndarray:
    """tol_geo of each row of X, its peak coordinate taken column by column."""
    peak = np.abs(X[:, 0])
    for j in range(1, X.shape[1]):
        np.maximum(peak, np.abs(X[:, j]), out=peak)
    return GEO_TOL_SCALE * (1.0 + peak)


def _sq_dist(X, x):
    """Squared distance of each row of X to x: np.sum((X - x) ** 2, axis=1), bit for bit.

    Numpy's row sum adds up to _ORDERED_SUM_COLUMNS columns one after
    another, in order, and so does the column loop here, which skips the
    per-row reduction.  Past that numpy sums in interleaved partial sums,
    so wider rows take the expression itself.
    """
    if X.shape[1] > _ORDERED_SUM_COLUMNS:
        return np.sum((X - x) ** 2, axis=1)
    total = X[:, 0] - x[0]
    total *= total
    for j in range(1, X.shape[1]):
        diff = X[:, j] - x[j]
        diff *= diff
        total += diff
    return total


def _point_sets(*sets):
    """The point sets a separator accepts, as float (k, d) arrays.

    They must share one d >= 1 (else DimensionMismatchError) and be
    nonempty and finite (else InputError).  Coordinates no larger than
    L = sqrt(float max / 4d) keep every squared distance under
    4 d L^2 = float max and every inner product under d L^2; larger ones
    are an InputError, decided before either is formed.
    """
    sets = [np.asarray(S, dtype=float) for S in sets]
    dims = {S.shape[1] if S.ndim == 2 else 0 for S in sets}
    if len(dims) != 1 or 0 in dims:
        raise DimensionMismatchError("point sets must be (k, d) arrays sharing one d >= 1")
    if not all(len(S) and np.all(np.isfinite(S)) for S in sets):
        raise InputError("point sets must be nonempty and finite")
    d = dims.pop()
    peak = max(float(np.max(np.abs(S))) for S in sets)
    limit = math.sqrt(np.finfo(float).max / (4 * d))
    if peak > limit:
        raise InputError(
            f"the squared distances of the points overflow: |x| reaches {peak:.3g}, "
            f"past {limit:.3g} for d={d}"
        )
    return sets


@dataclass(eq=False)
class HalfSpace:
    """One closed half-space {x : alpha.x + gamma <= 0}."""

    alpha: np.ndarray
    gamma: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).copy()
        if a.ndim != 1 or a.size == 0:
            raise InputError("alpha must be a nonempty 1-D vector")
        if not (np.all(np.isfinite(a)) and _real(self.gamma) and -math.inf < self.gamma < math.inf):
            raise InputError("half-space coefficients must be finite")
        if not np.any(a != 0.0):
            raise InputError("alpha must be nonzero")
        a.setflags(write=False)
        self.alpha = a
        self.gamma = float(self.gamma)

    @property
    def d(self) -> int:
        return self.alpha.size

    def value(self, x) -> float:
        return float(self.values_batch(np.asarray(x, dtype=float)[None])[0])

    def contains(self, x) -> bool:
        return self.value(x) <= tol_geo(x)

    def values_batch(self, X) -> np.ndarray:
        return as_points(X, self.d) @ self.alpha + self.gamma

    def flipped(self) -> "HalfSpace":
        return HalfSpace(alpha=-self.alpha, gamma=-self.gamma)

    def __eq__(self, other):
        if not isinstance(other, HalfSpace):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and self.gamma == other.gamma

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash(((self.alpha + 0.0).tobytes(), self.gamma))


@dataclass(eq=False)
class ConvexArea:
    """Conjunction of half-spaces; the empty conjunction is all of R^d."""

    halfspaces: tuple = ()

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        dims = {h.d for h in hs}
        if len(dims) > 1:
            raise DimensionMismatchError("half-spaces disagree on dimension")
        self.halfspaces = hs

    @property
    def d(self):
        return self.halfspaces[0].d if self.halfspaces else None

    def contains(self, x) -> bool:
        return bool(self.contains_batch(np.asarray(x, dtype=float)[None])[0])

    def contains_batch(self, X) -> np.ndarray:
        X = as_points(X, self.d)
        mask = np.ones(len(X), dtype=bool)
        if not self.halfspaces or len(X) == 0:
            return mask
        tol = _tol_geo_batch(X)
        for h in self.halfspaces:
            mask &= h.values_batch(X) <= tol
        return mask

    def __eq__(self, other):
        if not isinstance(other, ConvexArea):
            return NotImplemented
        return self.halfspaces == other.halfspaces

    def __len__(self):
        return len(self.halfspaces)


# ---- separation primitives ----


def point_in_hull(x0, points) -> bool:
    """LP feasibility of x0 = sum(lam_i p_i), sum(lam) = 1, lam >= 0.

    The rows are posed as p_i - x0 with right-hand side 0: at |x| ~ 1e8
    the rounding of raw coordinates exceeds the feasibility tolerance.
    """
    (x0,), P = _point_sets(np.asarray(x0, dtype=float)[None], points)
    from scipy.optimize import linprog  # SciPy loads on the first LP only

    n = len(P)
    a_eq = np.vstack([(P - x0).T, np.ones((1, n))])
    b_eq = np.zeros(len(x0) + 1)
    b_eq[-1] = 1.0
    res = linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n,
        method="highs",
        options={
            "primal_feasibility_tolerance": HULL_TOL,
            "dual_feasibility_tolerance": HULL_TOL,
        },
    )
    return bool(res.status == 0)


def _affine_nearest(V):
    """Weights v, summing to 1, of the point of V's affine hull nearest 0."""
    if len(V) == 1:
        return np.ones(1)
    t = np.linalg.lstsq((V[1:] - V[0]).T, -V[0], rcond=None)[0]
    return np.concatenate([[1.0 - t.sum()], t])


def _barycentric_inside(R):
    """True if the hull of the d+1 rows R holds the origin, by one solve.

    Solves sum(lam_i R_i) = 0, sum(lam) = 1 and accepts lam >= 0 with a
    rounding-level residual.
    """
    B = np.vstack([R.T, np.ones(len(R))])
    e = np.zeros(len(R))
    e[-1] = 1.0
    try:
        lam = np.linalg.solve(B, e)
    except np.linalg.LinAlgError:
        return False
    resid = float(np.max(np.abs(B @ lam - e)))
    return bool(np.all(lam >= 0.0) and resid <= 1e-12 * float(np.max(np.abs(B))))


def _certified_inside(x0, P):
    """True when x0 is shown to lie in conv(P), False when shown outside, else None.

    x0 equal to a row is inside at once.  Otherwise Wolfe's nearest-point
    iteration (Wolfe 1976) runs on the unit vectors of P - x0, whose hull
    holds the origin exactly when conv(P) holds x0, for at most 10*(d+1)
    major cycles.  Whenever its corral has d+1 rows, x0's barycentric
    coordinates in those rows are solved for in x-space (on the rows of
    P - x0, not their unit vectors); all >= 0 with a rounding-level
    residual is the certificate.  An iterate x with (p_i - x0).x > 0 on
    every row separates, and min_i (p_i - x0).x / ||x|| bounds x0's
    distance from the hull from below; a bound above _OUTSIDE_MARGIN *
    (1 + ||x0||_inf), far above the hull LP's tolerance, proves x0
    outside.  No LP is involved.
    """
    A = P - x0
    sq = np.einsum("ij,ij->i", A, A)
    if np.any(sq == 0.0):
        return True
    d = A.shape[1]
    U = A / np.sqrt(sq)[:, None]
    corral, w, x = [0], np.ones(1), U[0]
    for _ in range(10 * (d + 1)):
        dots = U @ x
        j = int(np.argmin(dots))
        if dots[j] > 0.0:
            gap = float(np.min(A @ x)) / float(np.linalg.norm(x))
            return False if gap > _OUTSIDE_MARGIN * (1.0 + float(np.max(np.abs(x0)))) else None
        if x @ x - dots[j] <= 1e-12:
            return None  # x is already the nearest point
        corral.append(j)
        w = np.append(w, 0.0)
        while True:  # minor cycles: move to the corral's affine nearest point
            if len(corral) == d + 1 and _barycentric_inside(A[corral]):
                return True
            v = _affine_nearest(U[corral])
            if np.all(v > 0.0):
                w, x = v, v @ U[corral]
                break
            out = np.flatnonzero(v <= 0.0)
            steps = w[out] / np.maximum(w[out] - v[out], 1e-300)
            w = w + float(np.min(steps)) * (v - w)
            w[out[np.argmin(steps)]] = 0.0
            keep = w > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep]
            x = w @ U[corral]
    return None


def gslp(x0, points):
    """Search a plane strictly separating x0 from a point set.

    Solves w.(x_i - x0) <= -1 for all i by relaxation: repeated projection
    of w onto the most violated constraint (strictness realized as a unit
    margin; w is scale-free so this loses no generality).  The returned
    half-space puts its boundary at the margin midpoint, so the set lies
    inside (values <= -1/2) and x0 strictly outside (value +1/2).  Returns
    None at once when _certified_inside proves x0 in the set's hull, and
    otherwise when the iteration cap (1000*n*d reflections) or the
    divergence guard is hit before all constraints hold.  No LP is used.
    """
    (x0,), P = _point_sets(np.asarray(x0, dtype=float)[None], points)
    return None if _certified_inside(x0, P) else _gslp_reflect(x0, P)


def _gslp_reflect(x0, P):
    """gslp's relaxation loop, capped at _GSLP_REFLECTIONS*n*d reflections.

    Callers ask _certified_inside first, which settles an x0 equal to a row.
    """
    n, d = P.shape
    A = P - x0
    norms = np.sqrt(_sq_dist(P, x0))
    A_hat = A / norms[:, None]
    b = -1.0 / norms
    w = np.zeros(d)
    ok = False
    for _ in range(_GSLP_REFLECTIONS * n * d):
        r = A_hat @ w - b
        worst = int(np.argmax(r))
        if r[worst] <= 0.0:
            ok = True
            break
        # Reflect through the violated boundary rather than projecting onto
        # it: plain projection only reaches the feasible cone in the limit,
        # while reflection lands strictly inside it after finitely many
        # steps whenever the cone has an interior.
        w = w - 2.0 * r[worst] * A_hat[worst]
        if w @ w > _DIVERGENCE_NORM**2:
            return None
    if not ok and np.max(A_hat @ w - b) > 0.0:
        return None
    return HalfSpace(alpha=w, gamma=0.5 - float(w @ x0))


def _smo_select(yg, t, lo, hi):
    """Most violating pair for the dual problem; returns (i, j, kkt_gap).

    yg is y * grad and t = y * a the signed multipliers, lo <= t <= hi:
    t[i] can still rise where t < hi, and t[j] can still fall where t > lo.
    """
    up = np.where(t < hi, yg, -np.inf)
    dn = np.where(t > lo, yg, np.inf)
    i, j = int(np.argmax(up)), int(np.argmin(dn))
    if up[i] == -np.inf or dn[j] == np.inf:
        return -1, -1, 0.0
    return i, j, float(yg[i] - yg[j])


def svm_soft(pos, neg, c: float = SVM_C_DEFAULT, max_iter: int = SVM_MAX_ITER):
    """Soft-margin maximum-margin plane between two point sets.

    Minimizes 1/2 ||alpha||^2 + c * sum(xi) subject to
    y_i (alpha.x_i + gamma) >= 1 - xi_i, xi_i >= 0, via deterministic
    most-violating-pair dual ascent on the signed multipliers t = y * a,
    which lie in [0, c] where y = 1 and in [-c, 0] where y = -1 (Keerthi
    et al. 2001); stops on the KKT gap and raises after the iteration
    budget if still far from optimal.  c must be a finite positive real
    number and max_iter a positive integer.  The returned half-space is
    oriented with the pos set on the positive side.  If any input point
    lands exactly on the plane, gamma is nudged by a tiny offset so no
    input evaluates to exactly zero.
    """
    if not (_real(c) and 0 < c < math.inf):
        raise InputError("c must be finite and positive")
    if not _int_at_least(max_iter, 1):
        raise InputError("max_iter must be a positive integer")
    P, N = _point_sets(pos, neg)
    X = np.vstack([P, N])
    y = np.concatenate([np.ones(len(P)), -np.ones(len(N))])
    hi = c * (y > 0)
    lo = hi - c
    n = len(X)
    t = np.zeros(n)
    grad = np.ones(n)  # d(dual)/d(a_i) at a = 0
    kkt_tol = 1e-8
    for _ in range(max_iter):
        i, j, gap = _smo_select(y * grad, t, lo, hi)
        if i < 0 or gap <= kkt_tol:
            break
        room_i = hi[i] - t[i]
        room_j = t[j] - lo[j]
        diff = X[i] - X[j]
        curv = diff @ diff
        if curv > 1e-12:
            step = min(gap / curv, room_i, room_j)
        else:
            step = min(room_i, room_j)
        if step <= 0.0:
            break
        t[i] += step
        t[j] -= step
        grad -= step * y * (X @ diff)
        # Snap multipliers that rounding left a hair inside their bound so a
        # pinned point drops out of the working set instead of being
        # re-selected forever for vanishing steps.
        snapped = False
        for k in (i, j):
            if 0.0 < abs(t[k]) < 1e-12 * c:
                t[k] = 0.0
                snapped = True
            elif c * (1.0 - 1e-12) < abs(t[k]) < c:
                t[k] = math.copysign(c, t[k])
                snapped = True
        if snapped:
            grad = 1.0 - y * (X @ (t @ X))
    _, _, final_gap = _smo_select(y * grad, t, lo, hi)
    if final_gap > 1e-3 * max(1.0, c):
        # The gap has the scale of c times the data, so "far from optimal"
        # is judged relative to the penalty.
        raise ConvergenceError(
            f"svm_soft did not converge in {max_iter} iterations "
            f"(KKT gap {final_gap:.3e}, penalty {c:.1e})"
        )
    w = t @ X
    f_vals = y - X @ w
    a = np.abs(t)
    free = (a > 1e-9 * c) & (a < c * (1.0 - 1e-9))
    if np.any(free):
        b = float(np.mean(f_vals[free]))
    else:
        # With no free multiplier the bias is only bracketed: at least
        # y - f on every row that can still rise, at most on every row
        # that can still fall.
        rise = np.max(np.where(t < hi, f_vals, -np.inf))
        fall = np.min(np.where(t > lo, f_vals, np.inf))
        b = float(np.mean([v for v in (rise, fall) if np.isfinite(v)]))
    if not np.any(w != 0.0):
        # Fully overlapping classes: the optimum carries no direction, but
        # the contract promises a plane.  Report one through the data mean.
        w = np.zeros(X.shape[1])
        w[0] = 1.0
        b = -float(np.mean(X[:, 0]))
    h = HalfSpace(alpha=w, gamma=b)
    if np.any(h.values_batch(X) == 0.0):
        h = HalfSpace(alpha=w, gamma=b + 1e-12 * (1.0 + abs(b)))
    return h


# ---- convex area construction ----


def _separation_lp(u, D):
    """Exact LP for w.(x_i - u) <= -1: the plane gslp searches for.

    Solves the same unit-margin system with the LP solver; points barely
    outside the hull need huge w, hence the wide box bounds.  Returns the
    margin-midpoint half-space or None when even the LP finds the system
    infeasible.
    """
    from scipy.optimize import linprog

    A_ub = D - u
    n = len(A_ub)
    res = linprog(
        c=np.zeros(D.shape[1]),
        A_ub=A_ub,
        b_ub=-np.ones(n),
        bounds=[(-_SEPARATION_LP_BOUND, _SEPARATION_LP_BOUND)] * D.shape[1],
        method="highs",
    )
    if res.status != 0:
        return None
    w = res.x
    if np.max(A_ub @ w) > -0.5:
        return None
    return HalfSpace(alpha=w, gamma=0.5 - float(w @ u))


def _svm_search(u, D):
    """svm_soft plane with no point of D on u's side, else None.

    Tries 5000 iterations at the default penalty, then the full budget at
    a 1000 times harder penalty so the margin beats the slack.
    """
    for c, max_iter in ((SVM_C_DEFAULT, 5000), (SVM_C_DEFAULT * 1e3, SVM_MAX_ITER)):
        try:
            h = svm_soft(D, u[None, :], c=c, max_iter=max_iter)
        except ConvergenceError:
            continue
        if not np.any(h.values_batch(D) * h.value(u) > 0.0):
            return h
    return None


def _separate_one(u, D, search):
    """A plane separating u from D, or None exactly when u lies in D's hull.

    Only exact checks say "inside": _certified_inside settles most points
    without an LP, and the hull LP settles the points it leaves undecided.
    Every other point gets the route's search once and, if the search
    finds nothing, the exact separation LP; if that fails too,
    ConvergenceError is raised.
    """
    verdict = _certified_inside(u, D)
    if verdict or (verdict is None and point_in_hull(u, D)):
        return None
    h = search(u, D)
    if h is None:
        h = _separation_lp(u, D)
    if h is None:
        raise ConvergenceError("no separator found a plane for a point outside the hull")
    return h


def _construct_area(points, inside, search):
    """The area cac and cacs build: a plane per excluded row earlier planes leave in.

    Each such row goes through _separate_one with the route's search.
    Excluded rows are visited by their squared distance to the mean of
    the inside rows, nearest first, ties in data order.  A plane against
    a near row tends to push many farther rows out as well, so fewer
    rows need a plane of their own; the area holds the same rows in any
    order.
    """
    (points,) = _point_sets(points)
    inside = np.asarray(inside)
    if inside.dtype != bool or inside.shape != (len(points),):
        raise DimensionMismatchError("inside must be a boolean mask with one entry per point")
    D = points[inside]
    if len(D) == 0:
        raise InputError("the inside set must be nonempty")
    U = points[~inside]
    U = U[np.argsort(_sq_dist(U, D.mean(axis=0)), kind="stable")]
    halfspaces = []
    excluded = np.zeros(len(U), dtype=bool)
    tols = _tol_geo_batch(U)
    for idx in range(len(U)):
        if excluded[idx]:
            continue
        u = U[idx]
        h = _separate_one(u, D, search)
        if h is None:
            return None
        # Orient so the generating excluded point strictly violates it,
        # then scale (planes are scale-free) until u clears its membership
        # tolerance, which at large |u| exceeds the plane's unit margin.
        value = h.value(u)
        if value <= 0.0:
            h, value = h.flipped(), -value
        if value <= tols[idx]:
            lift = 2.0 * tols[idx] / value
            h = HalfSpace(alpha=h.alpha * lift, gamma=h.gamma * lift)
        halfspaces.append(h)
        # Prune every point this plane already pushes out.
        excluded |= h.values_batch(U) > tols
        excluded[idx] = True
    return ConvexArea(halfspaces)


def cac(points, inside):
    """Convex area containing the rows inside selects, excluding the rest.

    inside must be a boolean mask with one entry per row of points, else
    DimensionMismatchError.  Excluded points are visited nearest the
    inside rows' mean first; each one no earlier plane excludes gets a
    half-space of its own.  Each such point meets the LP-free hull
    certificate, then the LP hull oracle if the certificate settles it
    neither way; a point neither puts inside gets gslp's relaxation
    (1000*n*d reflections), then the exact separation LP.

    Returns None exactly when some excluded point lies in the convex hull
    of the inside rows, and raises ConvergenceError when a point is shown
    outside but no step finds a plane.
    """
    return _construct_area(points, inside, _gslp_reflect)


def cacs(points, inside):
    """Same contract and visit order as cac, with planes from the soft-margin solver.

    The search runs svm_soft for 5000 iterations at its default penalty,
    then for its full budget at 1000 times that penalty.
    """
    return _construct_area(points, inside, _svm_search)
