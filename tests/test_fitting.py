"""The exact, sampling, and two-function solvers plus their helpers."""

import json
import subprocess
import sys
import textwrap
from itertools import combinations, permutations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from calr.calf import CalfModel, overlapping_training_points
from calr.dataset import Dataset, generate_separable
from calr import fitting, geometry
from calr.exceptions import (
    BudgetExhaustedError,
    ConvergenceError,
    FitDiagnostic,
    InputError,
    SeparabilityError,
)
from calr.fitting import (
    FitConfig,
    _interpolant,
    cas2,
    cas_calr,
    default_budget,
    naive_calr,
    post,
)
from calr.geometry import cac
from calr.linreg import LinearModel, _ols, coefficient_distance, lr, mse
from calr.model_io import model_to_doc


def best_matching_distance(truth, model):
    """Smallest worst-case coefficient distance over piece orderings."""
    planted = list(truth.functions)
    fitted = [model.default] + [f for f, _ in model.pieces]
    assert len(planted) == len(fitted)
    best = np.inf
    for perm in permutations(fitted):
        worst = max(coefficient_distance(a, b) for a, b in zip(planted, perm))
        best = min(best, worst)
    return best


def test_default_budget_values():
    assert default_budget(1, 1) == 800
    assert default_budget(2, 2) == 12800
    assert default_budget(0, 1) == 800  # m=0 still budgets as one piece
    assert default_budget(3, 3) == 200 * 6**4
    assert default_budget(np.int64(2), np.int64(2)) == 12800
    for m, d in (("2", 2), (1.5, 2), (True, 2), (2, None), (2, 0)):
        with pytest.raises(InputError):
            default_budget(m, d)


def test_fit_config_validation():
    FitConfig(m=0)
    FitConfig(epsilon=0.5)
    FitConfig(m=np.int64(2), delta=np.float32(0.5), max_samples=np.int64(9))
    assert FitConfig(epsilon=np.float32(0.25), delta=1).epsilon == 0.25
    for bad in (
        dict(m=-1),
        dict(m=1.5),
        dict(m="2"),
        dict(m=None),
        dict(max_samples=2.5),
        dict(max_samples="9"),
        dict(delta=None),
        dict(delta="0.5"),
        dict(epsilon=-0.1),
        dict(epsilon=0.0),
        dict(delta=0.0),
        dict(epsilon=float("nan")),
        dict(epsilon=float("inf")),
        dict(delta=float("nan")),
        dict(delta=float("inf")),
        dict(max_samples=0),
        dict(separator="qp"),
        dict(seed=-1),
        dict(seed=1.5),
        # A number is taken as given: a string is not parsed, a bool is no number.
        dict(epsilon="0.1"),
        dict(epsilon="abc"),
        dict(epsilon=None),
        dict(epsilon=True),
        dict(delta=True),
        dict(m=True),
        dict(seed=True),
        dict(max_samples=True),
    ):
        with pytest.raises(InputError):
            FitConfig(**bad)


def test_post_carves_overlap_strips():
    a = LinearModel(coeffs=np.array([0.0, 0.0]))  # y = 0
    b = LinearModel(coeffs=np.array([0.0, 1.0]))  # y = x
    pair = [(a, None), (b, None)]
    assert post(pair, Dataset(X=np.zeros((0, 1)), y=np.zeros(0)), 0.1) == []
    leftovers = Dataset(X=np.array([[0.0], [0.01]]), y=np.array([0.0, 0.005]))
    carved = post(pair, leftovers, 0.1, exclude=np.array([[5.0], [-5.0]]))
    assert len(carved) == 1
    owner, area = carved[0]
    assert owner is a  # the earlier model takes the shared strip
    assert area.contains(np.array([0.0])) and area.contains(np.array([0.01]))
    assert not area.contains(np.array([5.0])) and not area.contains(np.array([-5.0]))


def test_post_rejects_an_epsilon_that_is_not_a_finite_positive_real():
    pair = [(LinearModel(coeffs=np.array([0.0, 0.0])), None),
            (LinearModel(coeffs=np.array([0.0, 1.0])), None)]
    leftovers = Dataset(X=np.array([[0.0], [0.01]]), y=np.array([0.0, 0.005]))
    assert len(post(pair, leftovers, np.float32(0.1))) == 1
    for epsilon in ("x", None, True, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="epsilon must be finite and positive"):
            post(pair, leftovers, epsilon)


@pytest.mark.parametrize("seed", [43, 65])
def test_assembly_carves_a_strip_area_on_max_affine_data(max_affine_data, seed):
    data = max_affine_data(seed)
    with mock.patch.object(fitting, "post", wraps=fitting.post) as spy:
        model = cas_calr(data, FitConfig(m=2, seed=seed, max_samples=3000))
    assert model.fit_info["attempts"] == 1
    assert spy.call_count == 1
    assert model.m == 3  # two pieces plus the strip that post carved
    assert len(overlapping_training_points(model, data.X)) == 0
    # Without the strip, a row fitting two models falls to one that misses it by more than eps.
    residuals = np.abs(model.predict_batch(data.X) - data.y)
    assert np.max(residuals) < model.fit_info["epsilon"]


def test_post_rejects_contract_violations():
    a = LinearModel(coeffs=np.array([0.0, 0.0]))
    b = LinearModel(coeffs=np.array([0.0, 1.0]))
    pair = [(a, None), (b, None)]
    lonely = Dataset(X=np.array([[7.0]]), y=np.array([0.0]))  # fits only a
    with pytest.raises(SeparabilityError):
        post(pair, lonely, 0.1)
    split = Dataset(X=np.array([[0.0], [0.01]]), y=np.array([0.0, 0.005]))
    with pytest.raises(SeparabilityError):
        post(pair, split, 0.1, exclude=np.array([[0.005]]))  # sits between them


def test_naive_solver_recovers_a_plateau():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0])
    data = Dataset(X=X, y=y)
    model = naive_calr(data)
    assert model.m == 1
    piece_fn, piece_area = model.pieces[0]
    assert_allclose(piece_fn.coeffs, [5.0, 0.0], atol=1e-9)
    assert_allclose(model.default.coeffs, [0.0, 1.0], atol=1e-9)
    for v in (10.0, 11.0, 12.0):
        assert piece_area.contains(np.array([v]))
        assert model.predict(np.array([v])) == pytest.approx(5.0, abs=1e-9)
    for v in (0.0, 3.0):
        assert not piece_area.contains(np.array([v]))
        assert model.predict(np.array([v])) == pytest.approx(v, abs=1e-9)
    assert mse(model, data) <= 1e-18


def test_naive_solver_prefers_global_on_pure_lines():
    X = np.arange(8.0)[:, None]
    data = Dataset(X=X, y=3.0 * X[:, 0] - 2.0)
    model = naive_calr(data)
    assert model.m == 0
    assert_allclose(model.default.coeffs, [-2.0, 3.0], atol=1e-9)


def test_naive_solver_prefers_global_on_constant_y():
    # The global fit is exact up to rounding, and no split may beat it on noise.
    rng = np.random.default_rng(2)
    for d in (1, 2):
        X = rng.uniform(-1.0, 1.0, size=(12, d))
        for level in (0.1, 3.0, 1e6):
            model = naive_calr(Dataset(X=X, y=np.full(12, level)))
            assert model.m == 0
            assert_allclose(model.default.coeffs, [level] + [0.0] * d, atol=1e-9 * level)


def test_naive_solver_enforces_its_cap():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(12, 1))
    data = Dataset(X=X, y=rng.uniform(size=12))
    with pytest.raises(InputError):
        naive_calr(data, cap=10)
    # The cap is an integer: a float, a string or None does not raise it.
    for cap in (12.5, 12.0, float("inf"), float("nan"), "12", None):
        with pytest.raises(InputError):
            naive_calr(data, cap=cap)
    model = naive_calr(data, cap=12)  # explicit raise runs the enumeration
    assert model.fit_info == {"algorithm": "naive"}
    assert naive_calr(data, cap=np.int64(12)) == model


def test_naive_solver_rejects_an_empty_dataset():
    for d in (1, 2):
        with pytest.raises(InputError):
            naive_calr(Dataset(X=np.zeros((0, d)), y=np.zeros(0)))


def _reference_naive_calr(data):
    """naive_calr as one _ols pair per subset, all candidates sorted by SSE."""
    n, d = data.n, data.d
    X, y = data.X, data.y
    global_fit = lr(data)
    global_sse = global_fit.mse * n
    candidates = []
    for size in range(d + 1, n - d):
        for subset in combinations(range(n), size):
            idx = np.array(subset)
            mask = np.zeros(n, dtype=bool)
            mask[idx] = True
            f_in = _ols(X[idx], y[idx])
            f_out = _ols(X[~mask], y[~mask])
            sse = f_in.mse * len(idx) + f_out.mse * (n - len(idx))
            candidates.append((sse, mask, f_in, f_out))
    candidates.sort(key=lambda c: c[0])
    tie_tol = 1e-12 * max(float(np.sum((y - y.mean()) ** 2)), 1e-12 * float(y @ y))
    for sse, mask, f_in, f_out in candidates:
        if sse >= global_sse - tie_tol:
            break
        area = cac(X, mask)
        if area is None:
            continue
        if int(area.contains_batch(X).sum()) != int(mask.sum()):
            continue
        return CalfModel(default=f_out, pieces=((f_in, area),))
    return CalfModel(default=global_fit, pieces=())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_batched_naive_solver_matches_the_per_subset_loop(draw):
    # Grid values and halves mirrored in x1 make equal SSEs common, on the
    # same rows or on mirrored ones, where rounding alone orders them.
    # Constant and collinear columns make every subset rank-deficient, so
    # the RCOND cutoff decides the SSEs; a nearly collinear one keeps
    # singular values a little above it.
    d = draw.draw(st.sampled_from([1, 2]), label="d")
    n = draw.draw(st.integers(d + 2, 9 if d == 1 else 8), label="n")
    coord = draw.draw(
        st.sampled_from([st.floats(-5.0, 5.0), st.integers(-3, 3).map(float)]), label="grid"
    )
    X = draw.draw(arrays(float, (n, d), elements=coord), label="X")
    half = n // 2
    mirrored = draw.draw(st.booleans(), label="mirrored")
    if mirrored:
        X[half : 2 * half] = X[:half]
        X[half : 2 * half, 0] *= -1.0
    shape = draw.draw(
        st.sampled_from(
            ["free", "duplicate rows", "constant column", "collinear", "nearly collinear"]
        ),
        label="shape",
    )
    if shape == "duplicate rows":
        X[half:] = X[: n - half]
    elif shape == "constant column":
        X[:, -1] = 1.5
    elif shape == "collinear":
        X[:, -1] = 2.0 * X[:, 0] - 1.0
    elif shape == "nearly collinear":
        X[:, -1] = 2.0 * X[:, 0] - 1.0 + 1e-7 * np.arange(n) ** 2
    y_kind = draw.draw(st.sampled_from(["random", "step", "linear"]), label="y")
    if y_kind == "random":
        y = draw.draw(arrays(float, n, elements=coord), label="y values")
    else:
        beta = draw.draw(arrays(float, d + 1, elements=st.integers(-3, 3).map(float)), label="beta")
        y = beta[0] + X @ beta[1:]
        if y_kind == "step":
            cut = draw.draw(st.floats(-3.0, 3.0), label="cut")
            y = y + 2.0 * (X[:, 0] > cut)
    if mirrored:
        y[half : 2 * half] = y[:half]
    # A large offset keeps the SSEs and their gaps but scales y.
    y = y + draw.draw(st.sampled_from([0.0, 1e4, 1e6]), label="y offset")
    data = Dataset(X=X, y=y)
    want = json.dumps(model_to_doc(_reference_naive_calr(data)), sort_keys=True)
    got = json.dumps(model_to_doc(naive_calr(data)), sort_keys=True)
    assert got == want


def _adversarial_input(kind):
    rng = np.random.default_rng(41)
    n = 9
    X = rng.uniform(-4.0, 4.0, size=(n, 2 if kind == "constant column" else 1))
    if kind == "constant column":
        X[:, 1] = 3.0
    elif kind == "duplicate x":
        n = 10
        X = np.repeat(rng.uniform(-4.0, 4.0, size=(n // 2, 1)), 2, axis=0)
    elif kind == "large x":
        X = 1e8 + X
    y = 0.5 * (X[:, 0] - X[:, 0].mean()) + rng.normal(0.0, 0.3, size=n)
    y[X[:, 0] > np.median(X[:, 0])] += 2.0
    return Dataset(X=X, y=y)


@pytest.mark.parametrize("kind", ["constant column", "duplicate x", "large x"])
def test_naive_solver_matches_the_per_subset_loop_on_adversarial_inputs(kind):
    # Every subset of a constant column or of duplicate rows is rank-deficient,
    # and |x| ~ 1e8 puts the ones column and x at a condition number past
    # the batched floor's limit: the RCOND cutoff decides these floors.
    data = _adversarial_input(kind)
    want = json.dumps(model_to_doc(_reference_naive_calr(data)), sort_keys=True)
    got = json.dumps(model_to_doc(naive_calr(data)), sort_keys=True)
    assert got == want


def test_complement_of_a_combination_is_the_mirrored_combination():
    # naive_calr reads each candidate's outside floor off the (n-k)-subset
    # array in reverse, which relies on this order of combinations.
    for n in range(1, 9):
        for k in range(n + 1):
            inside = list(combinations(range(n), k))
            outside = list(combinations(range(n), n - k))
            assert len(inside) == len(outside) == comb(n, k)
            for i, subset in enumerate(inside):
                rest = tuple(j for j in range(n) if j not in subset)
                assert outside[len(inside) - 1 - i] == rest


def test_subset_pass_enumerates_in_combinations_order():
    # Tie order and the mirrored complement read both rely on this order.
    rng = np.random.default_rng(3)
    for n in range(1, 11):
        X = rng.uniform(-1.0, 1.0, size=(n, 1))
        A = np.column_stack([np.ones(n), X])
        levels = fitting._subset_floors(A, rng.uniform(size=n), range(1, n + 1))
        assert sorted(levels) == list(range(1, n + 1))
        for k, (codes, floors) in levels.items():
            rows = _code_rows(codes, n)
            assert rows.tolist() == [list(c) for c in combinations(range(n), k)]
            assert floors.shape == (comb(n, k),)


def _code_rows(codes, n):
    """The rows of each of one level's subset codes, bit i set for row i."""
    return np.array([[i for i in range(n) if code >> i & 1] for code in codes.tolist()])


def _every_subset(A, y, low):
    """(rows, floor) for every subset of A's rows with at least low rows."""
    levels = fitting._subset_floors(A, y, range(low, len(A) + 1))
    for codes, floors in levels.values():
        yield _code_rows(codes, len(A)), floors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_subset_floor_lies_below_the_least_squares_sse(draw):
    # Nearly collinear columns raise the condition number up to the RCOND
    # cutoff, and rounding moves a least-squares residual in proportion;
    # the fewer rows a subset has, the worse its conditioning, so one
    # input's subsets can straddle the limit past which a floor comes
    # from the SVD fallback.
    d = draw.draw(st.integers(1, 3), label="d")
    n = draw.draw(st.integers(d + 1, 8), label="n")
    X = draw.draw(arrays(float, (n, d), elements=st.floats(-5.0, 5.0)), label="X")
    tilt = draw.draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-7, 1e-8, 1e-9]), label="tilt")
    if tilt:
        X[:, -1] = 2.0 * X[:, 0] - 1.0 + tilt * X[:, -1]
    if draw.draw(st.booleans(), label="near rows"):
        # The first d+1 rows lie about 1e-9 apart: a subset holding them
        # inherits a bound past the limit, and a back-substitution of its
        # own decides whether its floor comes from its QR factor.
        X[: d + 1] = X[0] + 2e-10 * X[: d + 1]
    # Squares of these coordinates overflow or underflow, where a Givens
    # rotation's r can only come from np.hypot.
    X = X * draw.draw(st.sampled_from([1.0, 1e-160, 1e160]), label="x scale")
    y = draw.draw(arrays(float, n, elements=st.floats(-5.0, 5.0)), label="y")
    y = y + draw.draw(st.sampled_from([0.0, 1e4, 1e6, 1e8]), label="y offset")
    A = np.column_stack([np.ones(n), X])
    for rows, floors in _every_subset(A, y, d + 1):
        for idx, floor in zip(rows, floors):
            f = _ols(X[idx], y[idx])
            assert 0.0 <= floor <= f.mse * len(idx)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_subset_floor_of_a_rank_deficient_input_is_the_svd_floor(draw):
    # Exactly rank-deficient systems are where the RCOND cutoff decides the
    # SSE, so their floors must come from the SVD fallback unchanged.
    d = draw.draw(st.integers(1, 3), label="d")
    n = draw.draw(st.integers(d + 1, 8), label="n")
    X = draw.draw(arrays(float, (n, d), elements=st.floats(-5.0, 5.0)), label="X")
    shapes = ["constant column", "duplicate rows"] + (["collinear"] if d > 1 else [])
    shape = draw.draw(st.sampled_from(shapes), label="shape")
    if shape == "constant column":
        X[:, -1] = 1.5
    elif shape == "duplicate rows":
        X[:, :] = X[:1, :]
    else:
        X[:, -1] = 2.0 * X[:, 0] - 1.0
    y = draw.draw(arrays(float, n, elements=st.floats(-5.0, 5.0)), label="y")
    y = y + draw.draw(st.sampled_from([0.0, 1e4]), label="y offset")
    A = np.column_stack([np.ones(n), X])
    for rows, floors in _every_subset(A, y, d + 1):
        assert np.array_equal(floors, fitting._svd_sse_floor(A[rows], y[rows]))
        for idx, floor in zip(rows, floors):
            assert floor <= _ols(X[idx], y[idx]).mse * len(idx)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_naive_solver_does_not_depend_on_its_floors(draw):
    # Floors only decide how many candidates _ols fits; with every floor 0
    # the walk fits them all, and must still return the same model.
    d = draw.draw(st.sampled_from([1, 2]), label="d")
    n = draw.draw(st.integers(d + 3, 9), label="n")
    coord = draw.draw(
        st.sampled_from([st.floats(-5.0, 5.0), st.integers(-3, 3).map(float)]), label="grid"
    )
    X = draw.draw(arrays(float, (n, d), elements=coord), label="X")
    y = draw.draw(arrays(float, n, elements=coord), label="y")
    half = n // 2
    if draw.draw(st.booleans(), label="mirrored"):
        X[half : 2 * half] = X[:half]
        X[half : 2 * half, 0] *= -1.0
        y[half : 2 * half] = y[:half]
    data = Dataset(X=X, y=y + draw.draw(st.sampled_from([0.0, 1e6]), label="y offset"))
    want = json.dumps(model_to_doc(naive_calr(data)), sort_keys=True)
    real_floors = fitting._subset_floors

    def zero_floors(A, y, sizes):
        levels = real_floors(A, y, sizes)
        return {k: (masks, np.zeros_like(floors)) for k, (masks, floors) in levels.items()}

    with mock.patch.object(fitting, "_subset_floors", zero_floors):
        got = json.dumps(model_to_doc(naive_calr(data)), sort_keys=True)
    assert got == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_stable_front_is_the_stable_argsort_on_every_prefix(draw):
    # Small integers tie heavily, an all-equal array is what zeroed floors
    # give the walk, and the lengths straddle the first blocks' ends
    # (64, then 64 + 256 and 64 + 256 + 1024).
    n = draw.draw(
        st.one_of(
            st.sampled_from([0, 1, 63, 64, 65, 256, 257, 319, 320, 321, 1344, 1345]),
            st.integers(0, 400),
        ),
        label="n",
    )
    kind = draw.draw(st.sampled_from(["ties", "all equal", "with inf", "spread"]), label="kind")
    if kind == "ties":
        elements = st.integers(0, 3).map(float)
    elif kind == "all equal":
        elements = st.just(draw.draw(st.sampled_from([0.0, 1.5, np.inf]), label="value"))
    elif kind == "with inf":
        elements = st.sampled_from([0.0, 1.0, 2.5, np.inf])
    else:
        elements = st.floats(0.0, 1e6)
    floors = draw.draw(arrays(float, n, elements=elements), label="floors")
    want = np.argsort(floors, kind="stable")
    got = np.zeros(0, dtype=want.dtype)
    for block in fitting._stable_front(floors):
        got = np.concatenate([got, block])
        assert np.array_equal(got, want[: len(got)])
    assert len(got) == n


def _step_input(n=12):
    rng = np.random.default_rng(7)
    X = rng.uniform(-4.0, 4.0, size=(n, 1))
    y = 0.5 * X[:, 0] + rng.normal(0.0, 0.3, size=n)
    y[X[:, 0] > 0.5] += 2.0
    return X, y


def test_refits_that_would_repeat_a_fit_are_skipped():
    # A model whose own rows are those of its last refit in the same loop
    # would be refitted to the same bits; the loop that refits every model
    # every round gives the same model and fit_info with more _ols calls.
    data, _ = generate_separable(500, 2, 3, 0.01, 1.0, seed=0)

    def every_round(X, y, F, eps, fits):
        d = X.shape[1]
        for _ in range(fitting._REFIT_CAP):
            own = fits & (fits.sum(axis=0) == 1)
            for i, rows in enumerate(own):
                if int(rows.sum()) >= d + 2:
                    F[i] = fitting._ols(X[rows], y[rows])
            fits, before = fitting._within(X, y, F, eps), fits
            if np.array_equal(fits, before):
                break
        return fits

    def fit(refit):
        calls = []

        def spy(X, y):
            calls.append(len(X))
            return _ols(X, y)

        with mock.patch.object(fitting, "_ols", spy), mock.patch.object(
            fitting, "_refit_within", refit
        ):
            model = cas_calr(data, FitConfig(m=3, seed=1000))
        return json.dumps([model_to_doc(model), model.fit_info], sort_keys=True), len(calls)

    want, every = fit(every_round)
    got, fewer = fit(fitting._refit_within)
    assert got == want
    assert fewer < every


def test_naive_solver_fits_candidates_only_in_the_tie_window(monkeypatch):
    X, y = _step_input()
    n = len(X)
    ols_rows = []
    passes = []
    svd_calls = []
    ordered = []
    real_ols, real_floors, real_svd = fitting._ols, fitting._subset_floors, np.linalg.svd
    real_front = fitting._stable_front

    def ols_spy(X, y):
        ols_rows.append(len(X))
        return real_ols(X, y)

    def floors_spy(A, y, sizes):
        levels = real_floors(A, y, sizes)
        passes.append({k: (codes.shape, floors.shape) for k, (codes, floors) in levels.items()})
        return levels

    def svd_spy(A, *args, **kwargs):
        svd_calls.append(A.shape)
        return real_svd(A, *args, **kwargs)

    def front_spy(floors):
        for block in real_front(floors):
            ordered.append(len(block))
            yield block

    monkeypatch.setattr(fitting, "_ols", ols_spy)
    monkeypatch.setattr(fitting, "_subset_floors", floors_spy)
    monkeypatch.setattr(fitting, "_stable_front", front_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    model = naive_calr(Dataset(X=X, y=y))
    assert model.m == 1
    # A per-subset loop fits both sides of every subset: 8,140 calls here.
    # The walk fits the two sides of a partition once for both orientations.
    assert 0 < len(ols_rows) < 50
    # Each subset is scored once, in one pass with C(n, k) codes and floors
    # per scored size; its complement's floor is read from the complementary size.
    assert passes == [{k: ((comb(n, k),), (comb(n, k),)) for k in range(2, n - 1)}]
    # The walk sorts only its front: one block of the 4,070 candidates.
    assert 0 < sum(ordered) < 100
    # Every system here is well conditioned, so no floor needs an SVD.
    assert svd_calls == []


@pytest.mark.parametrize("kind", ["step", "planted", "mirrored grid"])
def test_naive_solver_fits_no_row_set_twice(kind):
    # A subset and its complement are one partition with one pair of fits,
    # so each row set reaches _ols at most once.  Every row is distinct
    # here, so equal bytes mean equal row sets.
    if kind == "step":
        X, y = _step_input()
    elif kind == "planted":
        data, _ = generate_separable(13, 2, 1, 0.01, 1.0, seed=1)
        X, y = data.X, data.y
    else:
        # Rows 5..9 mirror rows 0..4 in x1, with the same y, so many
        # partitions tie in SSE.
        rng = np.random.default_rng(2)
        half = np.column_stack([np.arange(1.0, 6.0), rng.integers(-3, 4, size=5)])
        X = np.vstack([half, half * [-1.0, 1.0]])
        y = np.tile(rng.integers(-3, 4, size=5).astype(float), 2)
    fitted = []

    def spy(X, y):
        fitted.append((X.tobytes(), y.tobytes()))
        return _ols(X, y)

    with mock.patch.object(fitting, "_ols", spy):
        assert naive_calr(Dataset(X=X, y=y)).m == 1
    assert fitted and len(set(fitted)) == len(fitted)


@pytest.mark.parametrize("n", [63, 70])
def test_naive_solver_refuses_more_rows_than_a_subset_code_holds(n):
    # A subset's code holds one bit per row; a raised cap must not reach
    # the lattice's allocations past 62 rows.
    rng = np.random.default_rng(0)
    data = Dataset(X=rng.uniform(size=(n, 1)), y=rng.uniform(size=n))
    with pytest.raises(InputError, match=f"at most 62 points.*got n={n}"):
        naive_calr(data, cap=100)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
def test_naive_solver_rejects_y_whose_sums_of_squares_overflow(scale):
    # Past |y| ~ 1e154 the global SSE and the tie tolerance overflow, which
    # leaves the walk no finite place to stop; numpy's overflow warning is
    # an error under this suite's settings, so none may leak either.
    X, y = _step_input(n=9)
    if scale > 1e154:
        with pytest.raises(InputError, match="sums of squares of y overflow"):
            naive_calr(Dataset(X=X, y=scale * y))
        return
    model = naive_calr(Dataset(X=X, y=scale * y))
    (_, area), = model.pieces
    (_, unscaled), = naive_calr(Dataset(X=X, y=y)).pieces
    assert np.array_equal(area.contains_batch(X), unscaled.contains_batch(X))


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
@pytest.mark.parametrize(
    "entry", ["naive_calr", "cas_calr", "cas2", "cac", "cacs", "gslp", "svm_soft"]
)
def test_coordinates_whose_squares_overflow_are_an_input_error(entry, scale, monkeypatch):
    # Past |x| ~ 1e153 squared distances and inner products of points
    # overflow, and numpy's warning is an error under this suite's
    # settings; below it a fit returns or raises a diagnostic.  svm_soft's
    # penalty is not scale-free, so at 1e150 it runs out its budget, cut
    # here to keep the test short.
    monkeypatch.setattr(geometry, "SVM_MAX_ITER", 1000)
    X, y = _step_input(n=9)
    data, _ = generate_separable(200, 2, 1, 0.01, 1.0, seed=0)
    P = data.X * scale
    inside = data.X[:, 0] < np.median(data.X[:, 0])
    config = FitConfig(m=1, seed=1, max_samples=20)
    call = {
        "naive_calr": lambda: naive_calr(Dataset(X=X * scale, y=y)),
        "cas_calr": lambda: cas_calr(Dataset(X=P, y=data.y), config),
        "cas2": lambda: cas2(Dataset(X=P, y=data.y), config),
        "cac": lambda: cac(P, inside),
        "cacs": lambda: geometry.cacs(P, inside),
        "gslp": lambda: geometry.gslp(P.max(axis=0) + scale, P),
        "svm_soft": lambda: geometry.svm_soft(P[inside], P[~inside], max_iter=1000),
    }[entry]
    if scale < 1e153:
        try:
            call()
        except FitDiagnostic:
            pass
        return
    with pytest.raises(InputError, match="squared distances of the points overflow"):
        call()
    # Data and predictions take such coordinates as before.
    model = naive_calr(Dataset(X=X, y=y))
    assert np.all(np.isfinite(model.predict_batch(Dataset(X=X * scale, y=y).X)))


def test_naive_solver_tie_window_ignores_an_offset_in_y():
    # The rounding slack scales with cond * ||y||, not y.y, so an offset
    # that leaves every SSE gap in place does not bring back thousands of
    # fits.
    X, y = _step_input()
    with mock.patch.object(fitting, "_ols", wraps=fitting._ols) as ols:
        model = naive_calr(Dataset(X=X, y=y + 1e6))
    assert model.m == 1
    assert 0 < ols.call_count < 100


def test_sampling_solver_m0_is_the_global_fit():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(30, 2))
    data = Dataset(X=X, y=X @ np.array([1.0, -2.0]) + 0.5)
    model = cas_calr(data, FitConfig(m=0, seed=5))
    assert model.m == 0
    assert_allclose(model.default.coeffs, lr(data).coeffs, atol=1e-12)
    assert model.fit_info == {"samples_used": 0, "epsilon": None, "algorithm": "cas"}


def test_sampling_solver_needs_enough_points():
    data = Dataset(X=np.arange(4.0)[:, None], y=np.arange(4.0))
    with pytest.raises(InputError):
        cas_calr(data, FitConfig(m=1))


def test_sampling_solver_recovers_planted_pieces():
    data, truth = generate_separable(500, 2, 2, 0.01, 1.0, seed=0)
    config = FitConfig(m=2, epsilon="auto", delta=0.5, seed=1000)
    model = cas_calr(data, config)
    assert model.m == 2
    assert mse(model, data) <= 4.0 * (4.0 * 0.01**2)
    assert best_matching_distance(truth, model) <= 0.1
    assert len(overlapping_training_points(model, data.X)) == 0
    info = model.fit_info
    assert info["algorithm"] == "cas"
    assert info["samples_used"] >= 3 and info["attempts"] >= 1
    assert all(p < 0.05 for p in info["accepted_p_values"])
    assert 0.01 <= info["epsilon"] <= 9.0 * 0.01


def test_sampling_solver_noiseless_is_exact():
    data, truth = generate_separable(200, 2, 1, 0.0, 1.0, seed=3)
    model = cas_calr(data, FitConfig(m=1, seed=7))
    assert model.m == 1
    assert mse(model, data) <= 1e-16
    assert best_matching_distance(truth, model) <= 1e-6


def test_sampling_solver_is_deterministic():
    data, _ = generate_separable(200, 2, 1, 0.05, 1.0, seed=8)
    config = FitConfig(m=1, seed=21)
    a = cas_calr(data, config)
    b = cas_calr(data, FitConfig(m=1, seed=21))
    assert a == b
    assert a.fit_info == b.fit_info


def test_sampling_solver_honours_explicit_epsilon():
    data, _ = generate_separable(300, 2, 1, 0.01, 1.0, seed=2)
    model = cas_calr(data, FitConfig(m=1, epsilon=0.04, seed=4))
    assert model.fit_info["epsilon"] == 0.04


def test_sampling_solver_auto_epsilon_tracks_the_noise():
    sigma = 0.05
    for seed in range(6):
        data, _ = generate_separable(300, 2, 1, sigma, 1.0, seed=seed)
        model = cas_calr(data, FitConfig(m=1, seed=seed + 100))
        assert sigma <= model.fit_info["epsilon"] <= 9.0 * sigma


@pytest.mark.parametrize("solver", [cas_calr, cas2])
def test_sampling_solver_reports_budget_exhaustion(solver):
    if solver is cas_calr:
        data, _ = generate_separable(500, 2, 2, 0.01, 1.0, seed=0)
        # Two draws cannot hold the m+1 = 3 acceptances a fit needs.
        config = FitConfig(m=2, seed=1, max_samples=2)
    else:
        # With no piece structure the auto epsilon covers every row, so
        # each draw leaves an empty complement and no pair to assemble.
        rng = np.random.default_rng(0)
        data = Dataset(X=rng.uniform(-5.0, 5.0, size=(300, 2)), y=rng.normal(0.0, 1.0, size=300))
        config = FitConfig(m=1, seed=1, max_samples=20)
    with pytest.raises(BudgetExhaustedError) as exc:
        solver(data, config)
    err = exc.value
    assert err.samples_used == config.max_samples
    assert f"no assembly of {config.m + 1} models within" in str(err)
    assert 1 <= len(err.partial_models) <= config.m + 1
    assert isinstance(err.fallback, CalfModel) and err.fallback.m == 0
    assert_allclose(err.fallback.default.coeffs, lr(data).coeffs, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    solver=st.sampled_from([cas_calr, cas2]),
    d=st.integers(1, 2),
    m=st.integers(1, 2),
    kind=st.sampled_from(["planted", "structureless", "offset 1e6"]),
    seed=st.integers(0, 10_000),
)
def test_a_sampling_fit_is_a_valid_model_or_a_diagnostic(solver, d, m, kind, seed):
    # Whatever the data, a fit returns at most m pieces whose areas share
    # no training point, or raises a FitDiagnostic; no other outcome.
    if solver is cas2:
        m = 1
    if kind == "structureless":
        rng = np.random.default_rng(seed)
        data = Dataset(X=rng.uniform(-5.0, 5.0, size=(200, d)), y=rng.normal(0.0, 1.0, size=200))
    else:
        data, _ = generate_separable(200, d, m, 0.01, 1.0, seed=seed)
        if kind == "offset 1e6":
            data = Dataset(X=data.X + 1e6, y=data.y)
    config = FitConfig(m=m, seed=seed, max_samples=300)
    try:
        model = solver(data, config)
    except FitDiagnostic:
        return
    assert model.m <= config.m
    assert len(overlapping_training_points(model, data.X)) == 0


def test_sampling_solver_draws_do_not_grow_with_n():
    # Uniform draws almost always catch another residual point in their
    # simplex at this size (over 3,000 draws per fit); draws near one
    # anchor do not.
    for s in range(5):
        data, _ = generate_separable(5000, 2, 2, 0.01, 1.0, seed=s)
        model = cas_calr(data, FitConfig(m=2, seed=s + 1000))
        assert model.m == 2
        assert model.fit_info["samples_used"] < 100


def test_sampling_solver_fits_ten_thousand_points():
    data, _ = generate_separable(10000, 2, 2, 0.01, 1.0, seed=4)
    model = cas_calr(data, FitConfig(m=2, seed=1004))
    assert model.m == 2
    assert len(overlapping_training_points(model, data.X)) == 0


def test_sampling_solver_settles_pipeline_fits_without_scipy():
    # The hull certificate settles every excluded point of these fits, so
    # fits of the CLI pipeline's and the lp benchmark's shapes and configs
    # never meet the hull LP that an undecided point would load SciPy for.
    script = textwrap.dedent("""
        import sys
        from calr import FitConfig, cas_calr, generate_separable

        for s in (0, 3, 6, 100, 103):
            data, _ = generate_separable(500, 2, 2, 0.01, 1.0, seed=s)
            cas_calr(data, FitConfig(m=2, seed=s + 1000))
        for s in range(6):
            for d, m in ((2, 2), (3, 2), (2, 4)):
                data, _ = generate_separable(1000, d, m, 0.01, 1.0, seed=s)
                cas_calr(data, FitConfig(m=m, seed=s + 1000))
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)[:5]
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_exact_solver_settles_its_fits_without_scipy():
    # Points the certificate proves outside skip the hull LP, so fits of
    # the exact solver's benchmark shapes never need an LP.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from calr import Dataset, generate_separable, naive_calr

        for seed in (0, 1, 2):
            for kind, d, n in (("step", 1, 12), ("planted", 1, 12), ("step", 2, 13),
                               ("planted", 2, 13), ("step", 1, 14), ("planted", 2, 14)):
                if kind == "planted":
                    data, _ = generate_separable(n, d, 1, 0.01, 1.0, seed=seed)
                else:
                    rng = np.random.default_rng(seed)
                    X = rng.uniform(-4.0, 4.0, size=(n, d))
                    y = 0.5 * X[:, 0] + rng.normal(0.0, 0.3, size=n)
                    y[X[:, 0] > float(rng.uniform(-2.0, 2.0))] += 2.0
                    data = Dataset(X=X, y=y)
                naive_calr(data)
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)[:5]
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _within(X, y, F, eps):
    return np.array([np.abs(y - f.predict_batch(X)) < eps for f in F])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 2),
    m=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    sigma=st.sampled_from([0.0, 0.01, 0.05]),
    eps_scale=st.sampled_from([2.0, 4.0, 8.0]),
    start_seed=st.integers(0, 10_000),
    models=st.integers(1, 3),
)
def test_refit_within_returns_a_fixed_point(d, m, seed, sigma, eps_scale, start_seed, models):
    # Started from fits of d+1 training rows each, drawn as the sampler
    # draws them, the refit stops on models each fitted to exactly the
    # rows only it fits within eps, except a model left with fewer than
    # d+2 such rows, unless the refit cap ran out.
    data, _ = generate_separable(60 * (m + 1), d, m, sigma, 1.0, seed=seed)
    X, y = data.X, data.y
    eps = eps_scale * max(sigma, 0.001)
    rng = np.random.default_rng(start_seed)
    F = []
    for _ in range(models):
        anchor = int(rng.integers(data.n))
        near = fitting._nearest(X, X[anchor], 3 * (d + 1) + 1)
        sample = np.append(anchor, rng.choice(near[near != anchor], size=d, replace=False))
        F.append(_ols(X[sample], y[sample]))
    with mock.patch.object(fitting, "_within", wraps=fitting._within) as masks:
        fits = fitting._refit_within(X, y, F, eps, fitting._within(X, y, F, eps))
    assert len(F) == models
    assert fits.tolist() == _within(X, y, F, eps).tolist()
    # One mask for the start, then one per refit round.
    assume(masks.call_count - 1 < fitting._REFIT_CAP)
    own = fits & (fits.sum(axis=0) == 1)
    for f, rows in zip(F, own):
        if int(rows.sum()) >= d + 2:
            assert f == _ols(X[rows], y[rows])


def test_two_function_solver_splits_a_planted_piece():
    data, truth = generate_separable(400, 2, 1, 0.05, 1.0, seed=11)
    model = cas2(data, FitConfig(m=1, seed=31))
    assert model.m == 1
    assert model.fit_info["algorithm"] == "cas2"
    assert model.fit_info["branch"] in ("piece_area", "complement_area")
    got = model.assign_batch(data.X) != 0
    want = truth.assignments != 0
    agree = float(np.mean(got == want))
    assert max(agree, 1.0 - agree) >= 0.95


def test_two_function_solver_uses_the_complement_when_needed():
    # The piece is a constant plateau, so samples drawn inside it fail the
    # flatness gate; the solver can only accept the surrounding line, whose
    # fitting set encircles the plateau and is not separable.
    rng = np.random.default_rng(0)
    inner = rng.uniform(-1.0, 1.0, size=(40, 1))
    outer = np.concatenate(
        [rng.uniform(-6.0, -3.0, size=(40, 1)), rng.uniform(3.0, 6.0, size=(40, 1))]
    )
    X = np.concatenate([inner, outer])
    y = np.concatenate([np.full(40, 10.0), outer[:, 0]])
    data = Dataset(X=X, y=y)
    model = cas2(data, FitConfig(m=1, epsilon=0.5, seed=0))
    assert model.fit_info["branch"] == "complement_area"
    _, piece_area = model.pieces[0]
    assert piece_area.contains_batch(inner).all()
    assert not piece_area.contains_batch(outer).any()
    assert_allclose(model.pieces[0][0].coeffs, [10.0, 0.0], atol=1e-9)
    assert_allclose(model.default.coeffs, [0.0, 1.0], atol=1e-9)


def test_two_function_solver_holds_the_complement_fit_to_the_support_floor():
    # Some draws here leave a complement whose fit covers only a few rows
    # within eps; assembled anyway, such a pair gave a model with MSE 5.75.
    sigma = 0.01
    data, _ = generate_separable(500, 2, 1, sigma, 1.0, seed=9)
    try:
        model = cas2(data, FitConfig(m=1, seed=509))
    except FitDiagnostic:
        return
    assert mse(model, data) <= 4 * sigma**2


def test_assembly_separates_only_the_pieces_when_all_are_separable(monkeypatch):
    # The best-supported model becomes the default, and its own point set
    # needs an area only when some other model's set is inseparable.
    real_assemble = fitting._assemble
    sizes, calls = [], []

    def spy_assemble(data, F, eps, separate):
        def spy(points, inside):
            calls.append(len(points))
            return separate(points, inside)

        sizes.append(len(F))
        return real_assemble(data, F, eps, spy)

    monkeypatch.setattr(fitting, "_assemble", spy_assemble)
    data, _ = generate_separable(500, 2, 2, 0.01, 1.0, seed=0)
    model = cas_calr(data, FitConfig(m=2, seed=1000))
    assert model.m == 2
    assert sizes == [3]
    assert len(calls) == sizes[0] - 1


@pytest.mark.parametrize("case", ["constant feature", "collinear features", "constant y"])
def test_sampling_solver_raises_a_diagnostic_on_degenerate_inputs(case):
    rng = np.random.default_rng(3)
    X = rng.uniform(-5.0, 5.0, size=(200, 2))
    y = 2.0 * X[:, 0] + 1.0 + 3.0 * (X[:, 0] > 0.0)
    if case == "constant feature":
        X[:, 1] = 3.0
    elif case == "collinear features":
        X[:, 1] = 2.0 * X[:, 0] - 1.0
    else:
        y = np.full(200, 4.0)
    data = Dataset(X=X, y=y)
    with pytest.raises(FitDiagnostic) as err:
        cas_calr(data, FitConfig(m=1, max_samples=50))
    fallback = getattr(err.value, "fallback", None)
    if fallback is not None:
        assert fallback.default == lr(data)


def test_two_function_solver_input_errors():
    data = Dataset(X=np.arange(4.0)[:, None], y=np.arange(4.0))
    with pytest.raises(InputError):
        cas2(data, FitConfig(m=2))
    with pytest.raises(InputError):
        cas2(data, FitConfig(m=1))


def test_solvers_work_with_the_svm_separator():
    data, truth = generate_separable(200, 2, 1, 0.01, 1.0, seed=14)
    model = cas_calr(data, FitConfig(m=1, seed=9, separator="svm"))
    assert model.m == 1
    assert best_matching_distance(truth, model) <= 0.1


@pytest.mark.parametrize("seed", [0, 2, 3, 4, 8, 9])
def test_svm_separator_fits_two_pieces(seed):
    # These seeds draw samples whose rest points lie close to the sample's
    # simplex; no separator call on such a draw may end the fit.
    sigma = 0.01
    data, _ = generate_separable(500, 2, 2, sigma, 1.0, seed=seed)
    model = cas_calr(data, FitConfig(m=2, seed=seed + 1000, separator="svm"))
    assert len(overlapping_training_points(model, data.X)) == 0
    assert mse(model, data) <= 4 * sigma**2


def test_assembly_regrows_a_model_accepted_off_a_band():
    # The second acceptance here is refitted onto a band of its piece plus
    # two far points of the default region, which is a stable row set of
    # its own; refitting at assembly until the rows fitting each model
    # alone settle sheds the far points and regrows the whole piece.
    sigma = 0.01
    data, truth = generate_separable(500, 2, 2, sigma, 1.0, seed=14)
    model = cas_calr(data, FitConfig(m=2, seed=1014))
    assert best_matching_distance(truth, model) <= 0.1
    assert mse(model, data) <= 4 * sigma**2


def test_sampling_solver_keeps_piece_areas_apart_on_unfitted_points():
    # Six training points here fit no accepted model, so no area was built
    # to exclude them, and two piece areas could both reach them.
    sigma = 0.01
    data, _ = generate_separable(500, 2, 2, sigma, 1.0, seed=1500)
    model = cas_calr(data, FitConfig(m=2, seed=2500))
    assert len(overlapping_training_points(model, data.X)) == 0
    assert mse(model, data) <= 4 * sigma**2


def _ones_column(Q):
    """[1 | Q], the rest rows as _interpolant takes them."""
    return np.column_stack([np.ones(len(Q)), Q])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_empty_sample_simplex_is_separable_from_the_rest(draw):
    # cas_calr's separability gate is the barycentric test alone: for d+1
    # affinely independent points, a simplex holding no other point must
    # always yield a convex area around exactly the sample.
    d = draw.draw(st.integers(1, 3), label="d")
    coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    S = draw.draw(arrays(float, (d + 1, d), elements=coord), label="simplex")
    assume(np.linalg.cond(np.concatenate([S.T, np.ones((1, d + 1))])) < 1e8)
    # Rest points as affine combinations of S reach faces and corners as
    # readily as far-away points.
    k = draw.draw(st.integers(0, 10), label="rest size")
    lam = draw.draw(arrays(float, (k, d), elements=st.floats(-2.0, 2.0)), label="weights")
    Q = np.column_stack([lam, 1.0 - lam.sum(axis=1)]) @ S
    assume(_interpolant(S, np.arange(d + 1.0), _ones_column(Q)) is not None)
    points = np.vstack([S, Q])
    inside = np.arange(len(points)) < d + 1
    area = cac(points, inside)
    assert area is not None
    assert area.contains_batch(points).tolist() == inside.tolist()


def _failing_first_svm_call(monkeypatch):
    """Make the first plane search raise ConvergenceError; later calls delegate."""
    calls = []
    original = geometry._separate_one

    def flaky(u, D, search):
        calls.append(len(D))
        if len(calls) == 1:
            raise ConvergenceError("no separator found a plane for a point outside the hull")
        return original(u, D, search)

    monkeypatch.setattr(geometry, "_separate_one", flaky)
    return calls


def test_separator_failure_restarts_the_sampling_solver(monkeypatch):
    data, truth = generate_separable(200, 2, 1, 0.01, 1.0, seed=14)
    calls = _failing_first_svm_call(monkeypatch)
    model = cas_calr(data, FitConfig(m=1, seed=9, separator="svm"))
    assert len(calls) > 1
    assert model.fit_info["attempts"] >= 2
    assert best_matching_distance(truth, model) <= 0.1


def test_separator_failure_rejects_one_two_function_draw(monkeypatch):
    data, truth = generate_separable(400, 2, 1, 0.05, 1.0, seed=11)
    config = FitConfig(m=1, seed=31, separator="svm")
    untouched = cas2(data, config).fit_info["samples_used"]
    calls = _failing_first_svm_call(monkeypatch)
    model = cas2(data, config)
    assert len(calls) > 1
    assert model.fit_info["samples_used"] > untouched
    got = model.assign_batch(data.X) != 0
    agree = float(np.mean(got == (truth.assignments != 0)))
    assert max(agree, 1.0 - agree) >= 0.95


def _three_step_gate(S, ys, Q):
    """Reference sampling gate, three separate checks: rank, F-test, barycentric solve.

    Returns (fit or None, barycentric coordinates of Q or None).
    """
    k = len(S)
    if np.linalg.matrix_rank(np.column_stack([np.ones(k), S])) < k:
        return None, None
    f = _ols(S, ys)
    if not f.p_value < 0.05:
        return None, None
    if len(Q) == 0:
        return f, None
    A = np.concatenate([S.T, np.ones((1, k))])
    try:
        lam = np.linalg.solve(A, np.concatenate([Q.T, np.ones((1, len(Q)))]))
    except np.linalg.LinAlgError:
        return None, None
    if np.any(np.min(lam, axis=0) >= -1e-6):
        return None, lam
    return f, lam


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_one_svd_gate_matches_the_three_step_gate(draw):
    # Samples sit on both sides of each gate: duplicate rows and exactly
    # collinear columns (rank), flat and linear y (flatness), rest points
    # on the simplex's faces and corners (barycentric).  Near-collinear
    # columns stay near cond 1e12 or above 1e17, clear of the pinv cutoff
    # 1e10 and of matrix_rank's cutoff near 1e15.
    d = draw.draw(st.integers(1, 4), label="d")
    coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    S = draw.draw(arrays(float, (d + 1, d), elements=coord, fill=st.nothing()), label="sample")
    # Spreading the rows over a corner simplex makes most free samples
    # well-conditioned; without it they are often degenerate.
    spread = draw.draw(st.sampled_from([0.0, 1.0, 10.0]), label="spread")
    S += spread * np.vstack([np.zeros(d), np.eye(d)])
    shape = draw.draw(
        st.sampled_from(["free", "duplicate row", "collinear", "cond 1e12", "cond 1e17"]),
        label="shape",
    )
    wobble = draw.draw(arrays(float, d + 1, elements=st.floats(0.5, 1.0)), label="wobble")
    base = S[:, 0] if d > 1 else np.full(d + 1, S[0, 0])
    if shape == "duplicate row":
        S[-1] = S[0]
    elif shape == "collinear":
        S[:, -1] = 2.0 * base
    elif shape == "cond 1e12":
        S[:, -1] = base + 1e-11 * wobble * np.sign(np.arange(d + 1) - d / 2.0)
    elif shape == "cond 1e17":
        S[:, -1] = base + 1e-17 * wobble * np.sign(np.arange(d + 1) - d / 2.0)
    A = np.column_stack([np.ones(d + 1), S])
    sv = np.linalg.svd(A, compute_uv=False)
    cond = sv[0] / max(sv[-1], 1e-300)
    if shape in ("free", "cond 1e12"):
        assume(not (1e9 <= cond <= 1e11 or 1e13 <= cond <= 1e17))
    y_kind = draw.draw(st.sampled_from(["random", "flat", "linear"]), label="y")
    if y_kind == "random":
        ys = draw.draw(arrays(float, d + 1, elements=coord, fill=st.nothing()), label="ys")
    elif y_kind == "flat":
        ys = np.full(d + 1, draw.draw(coord, label="level"))
    else:
        beta = draw.draw(arrays(float, d + 1, elements=coord, fill=st.nothing()), label="beta")
        ys = A @ beta
    k = draw.draw(st.integers(0, 6), label="rest size")
    weights = draw.draw(arrays(float, (k, d), elements=st.floats(-2.0, 2.0)), label="weights")
    Q = np.column_stack([weights, 1.0 - weights.sum(axis=1)]) @ S
    if draw.draw(st.booleans(), label="sample row in the rest"):
        Q = np.vstack([Q, S[-1]])

    want, lam = _three_step_gate(S, ys, Q)
    if lam is not None:
        # Solving an ill-conditioned system moves lam by about cond * eps;
        # keep the verdict clear of that.
        margin = 1e-15 * cond * (1.0 + np.max(np.abs(lam)))
        assume(np.all(np.abs(np.min(lam, axis=0) + 1e-6) > margin))
    got = _interpolant(S, ys, _ones_column(Q))
    assert (got is None) == (want is None)
    if got is not None:
        P = np.vstack([S, Q])
        ref = want.predict_batch(P)
        atol = 1e-9 * np.max(np.abs(ref), initial=1.0)
        assert_allclose(got.predict_batch(P), ref, rtol=1e-9, atol=atol)
