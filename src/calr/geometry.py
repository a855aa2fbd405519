"""Half-space geometry and point-set separation.

A half-space is {x : alpha.x + gamma <= 0}; a convex area is a finite
conjunction of half-spaces.  Membership is tolerant: a point x belongs if
alpha.x + gamma <= tol_geo(x) with tol_geo(x) = 1e-9 * (1 + ||x||_inf).

Two separator routes are provided and kept deliberately independent:

* gslp: a hand-written relaxation (sequential projection) solver for the
  strict separation system w.(x_i - x0) <= -1.  cac asks it in four steps:
  a short pass of n*d reflections; the LP hull-membership check, which
  alone may declare a point inseparable; a long pass of 1000*n*d
  reflections; and the exact separation LP;
* svm_soft: a soft-margin maximum-margin plane used by the svm-flavoured
  area construction, with the same hull check and exact-LP fallback.

cac and cacs wrap the two routes into convex area construction: one
separating half-space per excluded point, with already-excluded points
pruned as the conjunction grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DimensionMismatchError, InputError

GEO_TOL_SCALE = 1e-9
HULL_TOL = 1e-9
SVM_C_DEFAULT = 1e3
SVM_MAX_ITER = 100_000
_DIVERGENCE_NORM = 1e14


def tol_geo(x) -> float:
    """Membership tolerance at a point: 1e-9 * (1 + ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    return GEO_TOL_SCALE * (1.0 + peak)


def _tol_geo_batch(X: np.ndarray) -> np.ndarray:
    if len(X) == 0:
        return np.zeros(0)
    return GEO_TOL_SCALE * (1.0 + np.max(np.abs(X), axis=1))


@dataclass(eq=False)
class HalfSpace:
    """One closed half-space {x : alpha.x + gamma <= 0}."""

    alpha: np.ndarray
    gamma: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).copy()
        if a.ndim != 1 or a.size == 0:
            raise InputError("alpha must be a nonempty 1-D vector")
        if not np.all(np.isfinite(a)) or not np.isfinite(self.gamma):
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
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionMismatchError(
                f"expected dimension {self.d}, got shape {x.shape}"
            )
        return float(self.alpha @ x + self.gamma)

    def contains(self, x) -> bool:
        return self.value(x) <= tol_geo(x)

    def values_batch(self, X: np.ndarray) -> np.ndarray:
        return X @ self.alpha + self.gamma

    def flipped(self) -> "HalfSpace":
        return HalfSpace(alpha=-self.alpha, gamma=-self.gamma)

    def __eq__(self, other):
        if not isinstance(other, HalfSpace):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.alpha.tobytes(), self.gamma))


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
        x = np.asarray(x, dtype=float)
        if self.d is not None and x.shape != (self.d,):
            raise DimensionMismatchError(f"expected dimension {self.d}, got shape {x.shape}")
        return bool(self.contains_batch(x.reshape(1, -1))[0])

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
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


def point_in_hull(x0, points, tol: float = HULL_TOL) -> bool:
    """LP feasibility of x0 = sum(lam_i p_i), sum(lam) = 1, lam >= 0."""
    x0 = np.asarray(x0, dtype=float)
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or x0.shape != (P.shape[1],):
        raise DimensionMismatchError("point and hull vertices disagree on dimension")
    from scipy.optimize import linprog  # SciPy loads on the first LP only

    n = len(P)
    a_eq = np.vstack([P.T, np.ones((1, n))])
    b_eq = np.concatenate([x0, [1.0]])
    res = linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n,
        method="highs",
        options={
            "primal_feasibility_tolerance": tol,
            "dual_feasibility_tolerance": tol,
        },
    )
    return bool(res.status == 0)


def gslp(x0, points, max_iter: int | None = None):
    """Search a plane strictly separating x0 from a point set.

    Solves w.(x_i - x0) <= -1 for all i by relaxation: repeated projection
    of w onto the most violated constraint (strictness realized as a unit
    margin; w is scale-free so this loses no generality).  The returned
    half-space puts its boundary at the margin midpoint, so the set lies
    inside (values <= -1/2) and x0 strictly outside (value +1/2).  Returns
    None when the iteration cap (default 100*n*d reflections) or the
    divergence guard is hit before all constraints hold.
    """
    x0 = np.asarray(x0, dtype=float)
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or x0.shape != (P.shape[1],):
        raise DimensionMismatchError("x0 and points disagree on dimension")
    n, d = P.shape
    A = P - x0
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < 1e-300):
        return None  # x0 coincides with a set point; nothing separates them
    A_hat = A / norms[:, None]
    b = -1.0 / norms
    if max_iter is None:
        max_iter = 100 * n * d
    w = np.zeros(d)
    ok = False
    for _ in range(max_iter):
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


def _smo_select(y, a, grad, c):
    """Most violating pair for the dual problem; returns (i, j, kkt_gap)."""
    yg = y * grad
    can_up = ((y > 0) & (a < c)) | ((y < 0) & (a > 0))
    can_dn = ((y > 0) & (a > 0)) | ((y < 0) & (a < c))
    if not np.any(can_up) or not np.any(can_dn):
        return -1, -1, 0.0
    i = int(np.argmax(np.where(can_up, yg, -np.inf)))
    j = int(np.argmin(np.where(can_dn, yg, np.inf)))
    return i, j, float(yg[i] - yg[j])


def svm_soft(pos, neg, c: float = SVM_C_DEFAULT, max_iter: int = SVM_MAX_ITER):
    """Soft-margin maximum-margin plane between two point sets.

    Minimizes 1/2 ||alpha||^2 + c * sum(xi) subject to
    y_i (alpha.x_i + gamma) >= 1 - xi_i, xi_i >= 0, via deterministic
    most-violating-pair dual ascent; stops on the KKT gap and raises
    after the iteration budget if still far from optimal.  The returned
    half-space is oriented with the pos set on the positive side.  If any
    input point lands exactly on the plane, gamma is nudged by a tiny
    offset so no input evaluates to exactly zero.  Memory is O(n^2): the
    dense Gram matrix of n = len(pos) + len(neg) points takes 8 n^2 bytes.
    """
    P = np.asarray(pos, dtype=float)
    N = np.asarray(neg, dtype=float)
    if P.ndim != 2 or N.ndim != 2 or P.shape[1] != N.shape[1]:
        raise DimensionMismatchError("pos/neg point sets disagree on dimension")
    if len(P) == 0 or len(N) == 0:
        raise InputError("svm_soft needs both point sets nonempty")
    if c <= 0:
        raise InputError("svm_soft needs c > 0")
    X = np.vstack([P, N])
    y = np.concatenate([np.ones(len(P)), -np.ones(len(N))])
    n = len(X)
    K = X @ X.T
    a = np.zeros(n)
    grad = np.ones(n)  # d(dual)/d(a_i) at a = 0
    kkt_tol = 1e-8
    for _ in range(max_iter):
        i, j, gap = _smo_select(y, a, grad, c)
        if i < 0 or gap <= kkt_tol:
            break
        room_i = (c - a[i]) if y[i] > 0 else a[i]
        room_j = a[j] if y[j] > 0 else (c - a[j])
        curv = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if curv > 1e-12:
            step = min(gap / curv, room_i, room_j)
        else:
            step = min(room_i, room_j)
        if step <= 0.0:
            break
        a[i] += y[i] * step
        a[j] -= y[j] * step
        grad -= step * y * (K[:, i] - K[:, j])
        # Snap multipliers that rounding left a hair inside their bound so a
        # pinned point drops out of the working set instead of being
        # re-selected forever for vanishing steps.
        snapped = False
        for t in (i, j):
            if 0.0 < a[t] < 1e-12 * c:
                a[t] = 0.0
                snapped = True
            elif c * (1.0 - 1e-12) < a[t] < c:
                a[t] = c
                snapped = True
        if snapped:
            grad = 1.0 - y * (K @ (y * a))
    _, _, final_gap = _smo_select(y, a, grad, c)
    if final_gap > 1e-3 * max(1.0, c):
        # The gap has the scale of c times the data, so "far from optimal"
        # is judged relative to the penalty.
        raise ConvergenceError(
            f"svm_soft did not converge in {max_iter} iterations "
            f"(KKT gap {final_gap:.3e}, penalty {c:.1e})"
        )
    w = (y * a) @ X
    fx = X @ w
    free = (a > 1e-9 * c) & (a < c * (1.0 - 1e-9))
    if np.any(free):
        b = float(np.mean(y[free] - fx[free]))
    else:
        f_vals = y - fx
        can_up = ((y > 0) & (a < c)) | ((y < 0) & (a > 0))
        can_dn = ((y > 0) & (a > 0)) | ((y < 0) & (a < c))
        lo = np.max(f_vals[can_up]) if np.any(can_up) else None
        hi = np.min(f_vals[can_dn]) if np.any(can_dn) else None
        if lo is None:
            b = float(hi)
        elif hi is None:
            b = float(lo)
        else:
            b = float((lo + hi) / 2.0)
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


def _resolve_inside_mask(points: np.ndarray, subset) -> np.ndarray:
    """Boolean mask of the rows of points appearing (by value) in subset."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (len(points),):
            raise DimensionMismatchError("boolean mask length does not match points")
        return subset
    S = np.asarray(subset, dtype=float)
    if S.ndim != 2 or S.shape[1] != points.shape[1]:
        raise DimensionMismatchError("subset and point set disagree on dimension")
    mask = np.zeros(len(points), dtype=bool)
    for s in S:
        hit = np.all(points == s, axis=1)
        if not np.any(hit):
            raise InputError("subset contains a point not present in the point set")
        mask |= hit
    return mask


def _separation_lp(u, D, bound: float = 1e12):
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
        bounds=[(-bound, bound)] * D.shape[1],
        method="highs",
    )
    if res.status != 0:
        return None
    w = res.x
    if np.max(A_ub @ w) > -0.5:
        return None
    return HalfSpace(alpha=w, gamma=0.5 - float(w @ u))


def _separate_one_lp(u, D):
    """gslp with hull certification: None only when u is provably inside.

    The first relaxation pass gets only n*d reflections: a separable point
    takes a handful, while a point inside the hull would use up the whole
    budget before the hull LP settles it in one solve.  gslp starts from
    w = 0 every time, so the longer pass retraces the short one and finds
    the plane a single long pass would.
    """
    n, d = D.shape
    h = gslp(u, D, max_iter=n * d)
    if h is not None:
        return h
    if point_in_hull(u, D):
        return None
    # The relaxation gave up on a feasible system; retry with more room,
    # then hand the pathological near-boundary case to the exact LP.
    h = gslp(u, D, max_iter=1000 * n * d)
    if h is not None:
        return h
    return _separation_lp(u, D)


def _separate_one_svm(u, D, c):
    """svm_soft plane with the same-side test; None only when u is provably inside.

    The first attempt runs on a small iteration budget: a separable point
    converges almost immediately, while an inseparable one would grind on
    slack trade-offs the hull oracle settles in one LP.  A certified
    separable point the solver still misses goes to the exact LP.
    """
    try:
        h = svm_soft(D, u[None, :], c=c, max_iter=5000)
        if not np.any(h.values_batch(D) * h.value(u) > 0.0):
            return h
    except ConvergenceError:
        pass
    if point_in_hull(u, D):
        return None
    # Certified separable: give the solver its full budget and a harder
    # penalty so the margin beats the slack.
    try:
        h = svm_soft(D, u[None, :], c=c * 1e3)
        if not np.any(h.values_batch(D) * h.value(u) > 0.0):
            return h
    except ConvergenceError:
        pass
    h = _separation_lp(u, D)
    if h is None:
        raise ConvergenceError("no separator found a plane for a point outside the hull")
    return h


def _construct_area(points, inside_mask, mode, c=SVM_C_DEFAULT):
    points = np.asarray(points, dtype=float)
    D = points[inside_mask]
    if len(D) == 0:
        raise InputError("the inside set must be nonempty")
    U = points[~inside_mask]
    halfspaces = []
    excluded = np.zeros(len(U), dtype=bool)
    tols = _tol_geo_batch(U)
    for idx in range(len(U)):
        if excluded[idx]:
            continue
        u = U[idx]
        h = _separate_one_lp(u, D) if mode == "lp" else _separate_one_svm(u, D, c)
        if h is None:
            return None
        # Orient so the generating excluded point strictly violates it.
        if h.value(u) <= 0.0:
            h = h.flipped()
        halfspaces.append(h)
        # Prune every point this plane already pushes out.
        excluded |= h.values_batch(U) > tols
        excluded[idx] = True
    return ConvexArea(halfspaces)


def cac(points, inside):
    """Convex area containing the inside subset, excluding the rest.

    One half-space per excluded point, skipping points already excluded
    by earlier planes.  Each plane comes from the first of these steps
    that yields one: gslp with n*d reflections; the LP hull oracle, which
    returns None when the point lies in the convex hull of the inside set;
    gslp with 1000*n*d reflections; the exact separation LP.  So None is
    returned exactly when some excluded point lies in that hull.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatchError("points must be an (n, d) array")
    return _construct_area(points, _resolve_inside_mask(points, inside), mode="lp")


def cacs(points, inside, c: float = SVM_C_DEFAULT):
    """Same contract as cac with planes from the soft-margin solver."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatchError("points must be an (n, d) array")
    return _construct_area(points, _resolve_inside_mask(points, inside), mode="svm", c=c)
