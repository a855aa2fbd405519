"""Half-spaces, hull membership, separating planes, and area construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from calr import geometry
from calr.exceptions import ConvergenceError, DimensionMismatchError, InputError
from calr.geometry import (
    SVM_C_DEFAULT,
    ConvexArea,
    HalfSpace,
    _certified_inside,
    _gslp_reflect,
    _separate_one,
    cac,
    cacs,
    gslp,
    point_in_hull,
    svm_soft,
    tol_geo,
)


def svm_objective(h, pos, neg, c):
    """Primal soft-margin objective of a plane, written independently."""
    slack_pos = np.maximum(0.0, 1.0 - (pos @ h.alpha + h.gamma))
    slack_neg = np.maximum(0.0, 1.0 + (neg @ h.alpha + h.gamma))
    return 0.5 * float(h.alpha @ h.alpha) + c * float(slack_pos.sum() + slack_neg.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_column_kernels_match_the_row_reductions_they_replace(draw):
    # Numpy's axis-1 reduction adds up to 7 columns in column order, so the
    # column loops keep every bit of the distances, norms and tolerances;
    # wider rows take numpy's own sum, and a maximum has no order.
    d = draw.draw(st.integers(1, 12), label="d")
    n = draw.draw(
        st.one_of(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 4096]), st.integers(1, 3000)), label="n"
    )
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    x = X[rng.integers(n)] + rng.standard_normal(d)
    assert np.array_equal(geometry._sq_dist(X, x), np.sum((X - x) ** 2, axis=1))
    assert np.array_equal(np.sqrt(geometry._sq_dist(X, x)), np.linalg.norm(X - x, axis=1))
    want = geometry.GEO_TOL_SCALE * (1.0 + np.max(np.abs(X), axis=1))
    assert np.array_equal(geometry._tol_geo_batch(X), want)


def test_tol_geo_scales_with_magnitude():
    assert tol_geo(np.zeros(2)) == 1e-9
    assert tol_geo(np.array([9.0, -3.0])) == 1e-9 * 10.0
    assert tol_geo(np.array([-1e6, 2.0])) == 1e-9 * (1.0 + 1e6)


def test_halfspace_membership_and_validation():
    h = HalfSpace(alpha=np.array([1.0, 0.0]), gamma=-1.0)
    assert h.contains(np.array([0.5, 7.0]))
    assert h.contains(np.array([1.0, 0.0]))  # boundary, within tolerance
    assert not h.contains(np.array([1.1, 0.0]))
    assert h.value(np.array([3.0, 0.0])) == 2.0
    vals = h.values_batch(np.array([[0.0, 0.0], [2.0, 5.0]]))
    assert_allclose(vals, [-1.0, 1.0])
    f = h.flipped()
    assert f.contains(np.array([1.1, 0.0]))
    assert not f.contains(np.array([0.5, 0.0]))
    with pytest.raises(InputError):
        HalfSpace(alpha=np.zeros(2), gamma=1.0)
    with pytest.raises(InputError):
        HalfSpace(alpha=np.array([np.inf, 1.0]), gamma=0.0)
    for gamma in (float("nan"), float("inf"), "0.5", None, True):
        with pytest.raises(InputError, match="must be finite"):
            HalfSpace(alpha=np.array([1.0, 0.0]), gamma=gamma)
    assert HalfSpace(alpha=np.array([1.0, 0.0]), gamma=np.float32(-1.0)) == h
    assert HalfSpace(alpha=np.array([1.0, 0.0]), gamma=-1) == h
    with pytest.raises(DimensionMismatchError):
        h.value(np.array([1.0]))


def test_equal_halfspaces_hash_alike():
    # -0.0 == 0.0, so planes that differ only in the sign of a zero are
    # equal and must hash alike; the stored coefficients keep the sign.
    neg = HalfSpace(alpha=np.array([-0.0, 1.0]), gamma=-0.0)
    pos = HalfSpace(alpha=np.array([0.0, 1.0]), gamma=0.0)
    assert neg == pos
    assert hash(neg) == hash(pos)
    assert len({neg, pos}) == 1
    assert np.signbit(neg.alpha[0])


def test_convex_area_membership():
    square = ConvexArea(
        halfspaces=(
            HalfSpace(alpha=np.array([-1.0, 0.0]), gamma=0.0),
            HalfSpace(alpha=np.array([1.0, 0.0]), gamma=-1.0),
            HalfSpace(alpha=np.array([0.0, -1.0]), gamma=0.0),
            HalfSpace(alpha=np.array([0.0, 1.0]), gamma=-1.0),
        )
    )
    assert square.contains(np.array([0.5, 0.5]))
    assert square.contains(np.array([0.0, 1.0]))
    assert not square.contains(np.array([1.5, 0.5]))
    inside = square.contains_batch(np.array([[0.1, 0.9], [2.0, 2.0]]))
    assert inside.tolist() == [True, False]
    everywhere = ConvexArea()
    assert everywhere.contains(np.array([1e9, -1e9]))
    with pytest.raises(DimensionMismatchError):
        ConvexArea(
            halfspaces=(
                HalfSpace(alpha=np.array([1.0]), gamma=0.0),
                HalfSpace(alpha=np.array([1.0, 2.0]), gamma=0.0),
            )
        )


def test_point_in_hull_basic_cases():
    D = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert point_in_hull(np.array([0.5, 0.5]), D)
    assert point_in_hull(np.array([0.0, 0.0]), D)  # vertex
    assert point_in_hull(np.array([1.0, 1.0]), D)  # edge midpoint
    assert not point_in_hull(np.array([1.5, 1.5001]), D)
    assert not point_in_hull(np.array([-0.1, 0.0]), D)
    single = np.array([[3.0, 4.0]])
    assert point_in_hull(np.array([3.0, 4.0]), single)
    assert not point_in_hull(np.array([3.0, 4.1]), single)


def test_point_in_hull_at_large_coordinates():
    # Posed on raw coordinates near 1e8, the LP called a point 0.01 past
    # the hull inside and a simplex's own centroid outside.
    rng = np.random.default_rng(0)
    line = 1e8 + rng.uniform(-2.0, 2.0, size=(12, 1))
    assert not point_in_hull(line.max(axis=0) + 0.01, line)
    assert point_in_hull(line.mean(axis=0), line)
    simplex = 1e8 + np.random.default_rng(317838).uniform(-2.0, 2.0, size=(5, 4))
    assert point_in_hull(simplex.mean(axis=0), simplex)
    assert not point_in_hull(simplex.mean(axis=0) + 5.0, simplex)


def test_gslp_separates_with_unit_margin():
    D = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x0 = np.array([-1.0, -1.0])
    h = gslp(x0, D)
    assert h is not None
    assert h.value(x0) > 0.0
    assert np.max(h.values_batch(D)) <= -0.5 + 1e-12
    assert gslp(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 1.0]])) is None
    assert gslp(np.array([2.0, 2.0]), np.array([[2.0, 2.0]])) is None
    with pytest.raises(DimensionMismatchError):
        gslp(np.array([1.0]), D)


def test_separation_rejects_empty_or_non_finite_input():
    D = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        gslp(np.array([np.nan, 0.0]), D)
    with pytest.raises(InputError):
        gslp(np.zeros(2), np.zeros((0, 2)))
    with pytest.raises(InputError):
        point_in_hull(np.array([np.inf, 0.0]), D)
    with pytest.raises(InputError):
        point_in_hull(np.zeros(2), np.zeros((0, 2)))
    for separate in (cac, cacs):
        for bad in ([np.nan, 1.0], [np.inf, 3.0]):
            with pytest.raises(InputError):
                separate(np.vstack([D, bad]), np.array([True, True, True, False]))
    for pos, neg in (
        (np.vstack([D, [np.nan, 1.0]]), D + 5.0),
        (D, np.vstack([D + 5.0, [5.0, -np.inf]])),
        (np.zeros((0, 2)), D),
        (D, np.zeros((0, 2))),
    ):
        with pytest.raises(InputError):
            svm_soft(pos, neg)


def test_gslp_agrees_with_hull_membership():
    rng = np.random.default_rng(7)
    for _ in range(120):
        d = int(rng.integers(1, 4))
        D = rng.uniform(-2.0, 2.0, size=(int(rng.integers(d + 1, 12)), d))
        if rng.uniform() < 0.5:
            lam = rng.dirichlet(np.ones(len(D)))
            x0 = lam @ D
        else:
            x0 = rng.uniform(-3.0, 3.0, size=d)
        h = gslp(x0, D)
        if h is None:
            assert point_in_hull(x0, D)
        else:
            assert not point_in_hull(x0, D)
            assert h.value(x0) > 0.0
            assert np.max(h.values_batch(D)) <= -0.5 + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_separator_keeps_gslp_planes_and_hull_verdicts(draw):
    # The separator runs gslp's relaxation once, so a point gslp separates
    # must get gslp's own plane, and None must mean inside the hull.
    d = draw.draw(st.integers(1, 4), label="d")
    n = draw.draw(st.integers(1, 40), label="n")
    coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    D = draw.draw(arrays(float, (n, d), elements=coord), label="D")
    if draw.draw(st.booleans(), label="inside"):
        weights = draw.draw(arrays(float, n, elements=st.floats(0.0, 1.0)), label="weights")
        assume(weights.sum() > 0.0)
        x0 = (weights / weights.sum()) @ D
    else:
        # Just past the hull point that is extreme along a direction.
        c = draw.draw(arrays(float, d, elements=st.floats(-1.0, 1.0)), label="direction")
        assume(np.linalg.norm(c) > 1e-3)
        c = c / np.linalg.norm(c)
        push = draw.draw(st.floats(1e-4, 1.0), label="push")
        x0 = D[np.argmax(D @ c)] + push * c
    h = _separate_one(x0, D, _gslp_reflect)
    assert (h is None) == point_in_hull(x0, D)
    if h is not None:
        assert np.max(h.values_batch(D)) < 0.0 < h.value(x0)
    g = gslp(x0, D)
    if g is not None:
        assert h == g


def _facet_normal(F):
    """Unit normal of the hyperplane through the d rows of F."""
    if len(F) == 1:
        return np.ones(1)
    return np.linalg.svd(F[1:] - F[0])[2][-1]


def _draw_hull_case(draw):
    """x0 and D for the certificate properties; a row x0 must be certified."""
    kind = draw.draw(
        st.sampled_from(["combination", "facet", "row", "duplicates", "collinear", "large"]),
        label="kind",
    )
    d = 2 if kind == "collinear" else draw.draw(st.integers(1, 4), label="d")
    n = draw.draw(st.integers(d + 1, 25), label="n")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    D = rng.uniform(-2.0, 2.0, size=(n, d))
    if kind == "facet":
        # A simplex plus interior rows, and x0 just off one facet, either side.
        simplex = D[: d + 1]
        D = np.vstack([simplex, rng.dirichlet(np.ones(d + 1), size=n - d - 1) @ simplex])
        k = int(rng.integers(d + 1))
        facet = np.delete(simplex, k, axis=0)
        normal = _facet_normal(facet)
        if normal @ (simplex[k] - facet[0]) > 0.0:
            normal = -normal
        offset = draw.draw(st.sampled_from([-1e-3, -1e-12, 1e-12, 1e-6, 1e-3]), label="offset")
        x0 = rng.dirichlet(np.ones(d)) @ facet + offset * normal
    elif kind == "row":
        x0 = D[int(rng.integers(n))].copy()
        assert _certified_inside(x0, D)
    else:
        if kind == "duplicates":
            D = np.vstack([D, D[rng.integers(n, size=n)]])
        elif kind == "collinear":
            t = rng.uniform(-2.0, 2.0, size=n)
            D = rng.uniform(-2.0, 2.0, size=2) + np.outer(t, rng.normal(size=2))
        elif kind == "large":
            D = 1e8 + D
        if draw.draw(st.booleans(), label="inside"):
            x0 = rng.dirichlet(np.ones(len(D))) @ D
        else:
            x0 = D.mean(axis=0) + rng.uniform(-3.0, 3.0, size=d)
    return x0, D


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_hull_certificate_is_sound(draw):
    # A certificate is a proof: whatever _certified_inside accepts, the hull
    # LP must accept too.  None only means "not settled", so it is free.
    x0, D = _draw_hull_case(draw)
    if _certified_inside(x0, D):
        assert point_in_hull(x0, D)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_hull_certificate_outside_is_sound(draw):
    # An "outside" verdict lets the separator skip the hull LP, so the hull
    # LP must reject every point the certificate proves outside.
    x0, D = _draw_hull_case(draw)
    if _certified_inside(x0, D) is False:
        assert not point_in_hull(x0, D)


def test_gslp_settles_an_inside_point_without_relaxation_or_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gslp ran a step the certificate should have spared")

    monkeypatch.setattr(geometry, "_gslp_reflect", forbidden)
    monkeypatch.setattr(geometry, "point_in_hull", forbidden)
    monkeypatch.setattr(geometry, "_separation_lp", forbidden)
    monkeypatch.setattr("scipy.optimize.linprog", forbidden)
    D = np.random.default_rng(11).uniform(-1.0, 1.0, size=(200, 3))
    assert gslp(D.mean(axis=0), D) is None


def test_separator_asks_the_hull_before_a_long_relaxation(monkeypatch):
    # Only exact checks say "inside": a point the certificate leaves
    # undecided meets the hull LP before any search, and a point the hull
    # LP puts inside is never searched.
    D = np.random.default_rng(3).uniform(-1.0, 1.0, size=(250, 2))
    calls = []
    real_reflect, real_hull = geometry._gslp_reflect, geometry.point_in_hull

    def spy_reflect(*args):
        calls.append("search")
        return real_reflect(*args)

    def spy_hull(*args):
        calls.append("hull")
        return real_hull(*args)

    monkeypatch.setattr(geometry, "_gslp_reflect", spy_reflect)
    monkeypatch.setattr(geometry, "point_in_hull", spy_hull)

    def area_around(u):
        points = np.vstack([D, u])
        return cac(points, np.arange(len(points)) < len(D))

    # The certificate settles the centroid: no hull LP, no search.
    assert area_around(D.mean(axis=0)) is None
    assert calls == []
    monkeypatch.setattr(geometry, "_certified_inside", lambda x0, P: None)
    assert area_around(D.mean(axis=0)) is None
    assert calls == ["hull"]
    calls.clear()
    assert area_around(np.array([2.5, 0.5])) is not None
    assert calls == ["hull", "search"]


def test_separator_skips_the_hull_lp_for_a_point_proved_outside(monkeypatch):
    # A point the certificate proves outside goes straight to the search,
    # and to the exact LP only when the search finds nothing.
    def forbidden(*args, **kwargs):
        raise AssertionError("the hull LP ran on a point proved outside")

    real_lp, lp_calls = geometry._separation_lp, []

    def spy_lp(u, D):
        lp_calls.append(len(D))
        return real_lp(u, D)

    monkeypatch.setattr(geometry, "point_in_hull", forbidden)
    monkeypatch.setattr(geometry, "_separation_lp", spy_lp)
    D = np.random.default_rng(13).uniform(-1.0, 1.0, size=(30, 2))
    u = np.array([2.5, 0.5])
    assert _certified_inside(u, D) is False
    searched = _separate_one(u, D, _gslp_reflect)
    assert searched == _gslp_reflect(u, D) and lp_calls == []
    exact = _separate_one(u, D, lambda u, D: None)
    assert lp_calls == [len(D)]
    for h in (searched, exact):
        assert h.value(u) > 0.0 and np.all(h.values_batch(D) < 0.0)


def test_svm_separator_falls_back_to_the_exact_lp(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, size=(12, 2))
    inside = np.linalg.norm(points, axis=1) < 1.2
    assert 0 < inside.sum() < len(points)
    retries = []

    def failing_svm(pos, neg, c=SVM_C_DEFAULT, max_iter=None):
        if c > SVM_C_DEFAULT:
            retries.append(c)  # the search's second, harder penalty
        raise ConvergenceError("stub solver never converges")

    monkeypatch.setattr(geometry, "svm_soft", failing_svm)
    area = cacs(points, inside)
    assert retries
    assert area is not None
    assert area.contains_batch(points).tolist() == inside.tolist()


def test_svm_toy_problem_matches_hand_solution():
    pos = np.array([[0.0]])
    neg = np.array([[2.0]])
    h = svm_soft(pos, neg, c=1.0)
    assert_allclose(h.alpha, [-1.0], atol=1e-3)
    assert_allclose(h.gamma, 1.0, atol=1e-3)
    assert abs(svm_objective(h, pos, neg, 1.0) - 0.5) <= 1e-3


def test_svm_separable_margins():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        shift = np.full(d, 6.0)
        pos = rng.uniform(0.0, 1.0, size=(8, d)) + shift
        neg = rng.uniform(0.0, 1.0, size=(8, d))
        h = svm_soft(pos, neg, c=1e3)
        assert np.all(pos @ h.alpha + h.gamma >= 1.0 - 1e-6)
        assert np.all(neg @ h.alpha + h.gamma <= -1.0 + 1e-6)


def test_svm_overlapping_beats_coarse_grid():
    pos = np.array([[0.0], [1.0], [3.0]])
    neg = np.array([[2.0], [4.0], [5.0]])
    c = 10.0
    h = svm_soft(pos, neg, c=c)
    got = svm_objective(h, pos, neg, c)
    best = np.inf
    for w in np.linspace(-5.0, 5.0, 201):
        for b in np.linspace(-10.0, 10.0, 401):
            plane = HalfSpace(alpha=np.array([w]), gamma=b) if w != 0 else None
            if plane is None:
                continue
            best = min(best, svm_objective(plane, pos, neg, c))
    assert got <= best + 1e-3


def test_svm_never_puts_an_input_exactly_on_the_plane():
    pos = np.array([[0.0, 0.0], [0.0, 1.0]])
    neg = np.array([[2.0, 0.0], [2.0, 1.0]])
    h = svm_soft(pos, neg, c=1e3)
    vals = np.concatenate([pos @ h.alpha + h.gamma, neg @ h.alpha + h.gamma])
    assert np.all(vals != 0.0)


def test_svm_allocates_no_matrix_over_its_points():
    # _svm_search's call at the default penalty: 6,000 rows against one
    # point.  A Gram matrix over the rows would take 288 MB.
    rng = np.random.default_rng(0)
    D = rng.uniform(0.0, 2.0, size=(6000, 2))
    tracemalloc.start()
    try:
        svm_soft(D, np.array([[2.5, 2.5]]), c=SVM_C_DEFAULT, max_iter=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _smo_movable(y, a, c):
    """Multipliers whose y_i * a_i can still rise, and those that can still fall."""
    can_up = ((y > 0) & (a < c)) | ((y < 0) & (a > 0))
    can_dn = ((y > 0) & (a > 0)) | ((y < 0) & (a < c))
    return can_up, can_dn


def _smo_select(y, a, grad, c):
    """Most violating pair for the dual problem on the unsigned multipliers a."""
    yg = y * grad
    can_up, can_dn = _smo_movable(y, a, c)
    if not np.any(can_up) or not np.any(can_dn):
        return -1, -1, 0.0
    i = int(np.argmax(np.where(can_up, yg, -np.inf)))
    j = int(np.argmin(np.where(can_dn, yg, np.inf)))
    return i, j, float(yg[i] - yg[j])


def _gram_svm(pos, neg, c):
    """The soft-margin plane (w, b) by SMO over the dense Gram matrix.

    It keeps its own pair selection, on a rather than on svm_soft's signed
    multipliers, so it shares no step with the solver it checks.
    """
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    K = X @ X.T
    a, grad = np.zeros(len(X)), np.ones(len(X))
    for _ in range(geometry.SVM_MAX_ITER):
        i, j, gap = _smo_select(y, a, grad, c)
        if i < 0 or gap <= 1e-8:
            break
        room_i = (c - a[i]) if y[i] > 0 else a[i]
        room_j = a[j] if y[j] > 0 else (c - a[j])
        curv = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = min(gap / curv, room_i, room_j) if curv > 1e-12 else min(room_i, room_j)
        if step <= 0.0:
            break
        a[i] += y[i] * step
        a[j] -= y[j] * step
        grad -= step * y * (K[:, i] - K[:, j])
        snapped = False
        for t in (i, j):
            if 0.0 < a[t] < 1e-12 * c:
                a[t], snapped = 0.0, True
            elif c * (1.0 - 1e-12) < a[t] < c:
                a[t], snapped = c, True
        if snapped:
            grad = 1.0 - y * (K @ (y * a))
    w = (y * a) @ X
    f_vals = y - X @ w
    free = (a > 1e-9 * c) & (a < c * (1.0 - 1e-9))
    if np.any(free):
        return w, float(np.mean(f_vals[free]))
    can_up, can_dn = _smo_movable(y, a, c)
    bounds = [np.max(f_vals[can_up])] if np.any(can_up) else []
    bounds += [np.min(f_vals[can_dn])] if np.any(can_dn) else []
    return w, float(np.mean(bounds))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_svm_matches_the_gram_matrix_solver_on_separable_sets(draw):
    # Both solvers stop on the same KKT gap, so their planes differ only by
    # where the iterates' rounding took them.
    d = draw.draw(st.integers(1, 4), label="d")
    n = draw.draw(st.integers(2, 60), label="n")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    side = X @ v - np.median(X @ v)
    X = X + np.where(side >= 0.0, 0.25, -0.25)[:, None] * v  # a gap of 0.5 along v
    pos, neg = X[side >= 0.0], X[side < 0.0]
    assume(len(pos) and len(neg))
    h = svm_soft(pos, neg, c=SVM_C_DEFAULT)
    assert np.all(pos @ h.alpha + h.gamma > 0.0)
    assert np.all(neg @ h.alpha + h.gamma < 0.0)
    w, b = _gram_svm(pos, neg, SVM_C_DEFAULT)
    want = svm_objective(HalfSpace(alpha=w, gamma=b), pos, neg, SVM_C_DEFAULT)
    assert abs(svm_objective(h, pos, neg, SVM_C_DEFAULT) - want) <= 1e-2 * want


def test_svm_input_errors():
    with pytest.raises(InputError):
        svm_soft(np.zeros((0, 2)), np.ones((3, 2)), c=1.0)
    for c in (0.0, -1.0, float("nan"), float("inf"), None, "1", True):
        with pytest.raises(InputError, match="must be finite and positive"):
            svm_soft(np.zeros((2, 2)), np.ones((3, 2)), c=c)
    for max_iter in (2.5, 0, "5", None, True):
        with pytest.raises(InputError, match="max_iter must be a positive integer"):
            svm_soft(np.zeros((2, 2)), np.ones((3, 2)), c=1.0, max_iter=max_iter)
    h = svm_soft(np.zeros((2, 2)), np.ones((3, 2)), c=np.float32(1.0), max_iter=np.int64(100))
    assert h == svm_soft(np.zeros((2, 2)), np.ones((3, 2)), c=1.0, max_iter=100)
    with pytest.raises(DimensionMismatchError):
        svm_soft(np.zeros((2, 2)), np.ones((3, 3)), c=1.0)


def test_cac_interval_cases():
    points = np.array([[1.0], [2.0], [3.0], [10.0], [-5.0]])
    inside = np.array([True, True, True, False, False])
    area = cac(points, inside)
    assert area is not None
    for x in points[inside]:
        assert area.contains(x)
    assert not area.contains(np.array([10.0]))
    assert not area.contains(np.array([-5.0]))
    blocked = cac(
        np.array([[1.0], [3.0], [2.0]]), np.array([True, True, False])
    )
    assert blocked is None  # 2 sits between 1 and 3


def test_cac_with_all_points_selected():
    D = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    area = cac(D, np.ones(3, dtype=bool))
    assert area is not None
    assert len(area) == 0  # no exclusions needed: the whole space qualifies
    assert area.contains(np.array([50.0, -50.0]))


def test_cac_refuses_point_inside_the_hull():
    DS = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    blocker = np.array([[1.0, 1.0]])
    points = np.concatenate([DS, blocker])
    assert point_in_hull(blocker[0], DS)
    assert cac(points, np.array([True, True, True, True, False])) is None


def test_cac_soundness_random_instances():
    rng = np.random.default_rng(29)
    built = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 16))
        D = rng.uniform(-3.0, 3.0, size=(n, d))
        k = int(rng.integers(1, n))
        sel = rng.choice(n, size=k, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[sel] = True
        area = cac(D, mask)
        if area is None:
            continue
        built += 1
        for i in range(n):
            assert area.contains(D[i]) == bool(mask[i])
    assert built > 0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_area_routes_are_sound_on_random_masks(draw):
    # On a half-integer grid duplicate, collinear and on-boundary rows are
    # common.  An area must hold exactly the masked rows; None must mean an
    # excluded row lies in the hull of the included ones.
    d = draw.draw(st.integers(1, 3), label="d")
    n = draw.draw(st.integers(2, 12), label="n")
    grid = st.integers(-6, 6).map(lambda k: k / 2.0)
    points = draw.draw(arrays(float, (n, d), elements=grid), label="points")
    mask = np.array(draw.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="mask"))
    assume(mask.any())
    for separate in (cac, cacs):
        area = separate(points, mask)
        if area is None:
            assert any(point_in_hull(u, points[mask]) for u in points[~mask])
        else:
            assert area.contains_batch(points).tolist() == mask.tolist()


def test_cac_prunes_redundant_planes():
    points = np.array([[0.0], [-1.0], [-2.0], [1.0], [2.0], [3.0]])
    mask = np.array([True, False, False, False, False, False])
    area = cac(points, mask)
    assert area is not None
    assert len(area) == 2  # one plane per side of the point
    for h in area.halfspaces:
        assert any(h.value(x) > 0 for x in points[~mask])


def test_cacs_matches_cac_verdicts():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(d + 2, 12))
        D = rng.uniform(-2.0, 2.0, size=(n, d))
        mask = rng.uniform(size=n) < 0.5
        if not mask.any():
            mask[0] = True
        area = cac(D, mask)
        verdict = cacs(D, mask)
        assert (verdict is not None) == (area is not None)
        if verdict is not None:
            for i in range(n):
                assert verdict.contains(D[i]) == bool(mask[i])


def test_area_construction_takes_only_a_boolean_mask():
    points = np.array([[0.0], [1.0], [5.0]])
    for separate in (cac, cacs):
        for inside in (
            np.array([[0.0], [1.0]]),  # rows by value
            np.array([[0.0], [99.0]]),
            np.array([1, 1, 0]),
            np.array([True, True]),
            np.array([True, True, False, False]),
        ):
            with pytest.raises(DimensionMismatchError):
                separate(points, inside)


def test_area_construction_needs_points_with_a_coordinate():
    for separate in (cac, cacs):
        with pytest.raises(DimensionMismatchError):
            separate(np.zeros((3, 0)), np.array([True, False, False]))
    for call in (
        lambda: gslp(np.zeros(0), np.zeros((3, 0))),
        lambda: point_in_hull(np.zeros(0), np.zeros((3, 0))),
        lambda: svm_soft(np.zeros((2, 0)), np.zeros((3, 0))),
    ):
        with pytest.raises(DimensionMismatchError):
            call()


@pytest.mark.parametrize(
    "points, inside",
    [
        ([[1e9], [1e9 + 10], [1e9 - 10]], [True, False, False]),
        ([[1e10], [1e10 + 100], [1e10 - 100]], [True, False, False]),
        ([[1e9, 0], [1e9 + 10, 0], [1e9, 10], [1e9 + 50, 50]], [True, True, True, False]),
    ],
)
def test_area_excludes_its_points_at_large_coordinates(points, inside):
    # The membership tolerance grows with |x| past a unit-margin plane's
    # value at the excluded point, so planes must be scaled past it.
    points, inside = np.array(points, dtype=float), np.array(inside)
    for separate in (cac, cacs):
        area = separate(points, inside)
        assert area is not None
        assert area.contains_batch(points).tolist() == inside.tolist()


def test_area_construction_raises_when_no_step_separates_an_outside_point(monkeypatch):
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    inside = np.array([True, True, False, False])
    assert not point_in_hull(points[3], points[inside])
    monkeypatch.setattr(geometry, "_gslp_reflect", lambda u, D: None)
    monkeypatch.setattr(geometry, "_svm_search", lambda u, D: None)
    monkeypatch.setattr(geometry, "_separation_lp", lambda u, D: None)
    for separate in (cac, cacs):
        with pytest.raises(ConvergenceError):
            separate(points, inside)


def test_area_visits_rows_nearest_the_inside_mean_first():
    # A plane against a near excluded row also pushes out the rows behind
    # it; visited farthest first, as listed, each far row takes a plane.
    g = np.linspace(0.0, 1.0, 6)
    inner = np.array([(a, b) for a in g for b in g])
    r = np.linspace(-0.5, 1.5, 11)
    ring = np.array([(a, b) for a in r for b in r if not (-0.1 < a < 1.1 and -0.1 < b < 1.1)])
    ring = ring[np.argsort(-np.sum((ring - 0.5) ** 2, axis=1), kind="stable")]
    points = np.vstack([ring, inner])
    inside = np.arange(len(points)) >= len(ring)
    for separate in (cac, cacs):
        area = separate(points, inside)
        assert area.contains_batch(points).tolist() == inside.tolist()
        assert len(area) <= 8, separate.__name__
