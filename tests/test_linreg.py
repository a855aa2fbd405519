"""Least-squares fitting, the F-test gate, and the incomplete beta function."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import special, stats

from calr.dataset import Dataset
from calr.exceptions import DimensionMismatchError, InputError
from calr.fitting import _local_scale, _nearest
from calr.linreg import (
    RCOND,
    LinearModel,
    _f_pvalue,
    _lstsq,
    coefficient_distance,
    lr,
    mse,
    regularized_incomplete_beta,
)


def solve_normal_equations(X, y):
    """Independent oracle: Gauss-Jordan elimination on the normal equations."""
    n = len(X)
    A = np.concatenate([np.ones((n, 1)), np.asarray(X, dtype=float)], axis=1)
    k = A.shape[1]
    M = np.concatenate([A.T @ A, (A.T @ y)[:, None]], axis=1)
    for col in range(k):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        M[[col, piv]] = M[[piv, col]]
        M[col] = M[col] / M[col, col]
        for r in range(k):
            if r != col:
                M[r] = M[r] - M[r, col] * M[col]
    return M[:, -1]


def _random_dataset(rng, n, d):
    X = rng.uniform(-5.0, 5.0, size=(n, d))
    beta = rng.uniform(-3.0, 3.0, size=d + 1)
    y = beta[0] + X @ beta[1:] + rng.normal(0.0, 0.5, size=n)
    return Dataset(X=X, y=y)


def test_exact_line_is_interpolated():
    X = np.arange(5.0)[:, None]
    data = Dataset(X=X, y=2.0 * X[:, 0] + 1.0)
    model = lr(data)
    assert_allclose(model.coeffs, [1.0, 2.0], atol=1e-12)
    assert model.mse <= 1e-24


def test_hand_worked_three_point_fit():
    data = Dataset(X=np.array([[0.0], [1.0], [2.0]]), y=np.array([0.0, 1.0, 1.0]))
    model = lr(data)
    assert_allclose(model.coeffs, [1.0 / 6.0, 0.5], atol=1e-12)


def test_single_point_minimum_norm():
    data = Dataset(X=np.array([[1.0, 1.0]]), y=np.array([5.0]))
    model = lr(data)
    assert abs(model.predict(np.array([1.0, 1.0])) - 5.0) <= 1e-9
    assert model.mse <= 1e-18
    # Minimum-norm solutions lie in the row space of the design matrix.
    A = np.array([[1.0, 1.0, 1.0]])
    expected = A.T @ np.linalg.solve(A @ A.T, np.array([5.0]))
    assert_allclose(model.coeffs, expected, atol=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 5))
        data = _random_dataset(rng, n, d)
        model = lr(data)
        oracle = solve_normal_equations(data.X, data.y)
        assert_allclose(model.coeffs, oracle, rtol=1e-8, atol=1e-10)
        A = np.concatenate([np.ones((n, 1)), data.X], axis=1)
        resid = data.y - A @ model.coeffs
        lhs = np.max(np.abs(A.T @ resid))
        rhs = 1e-8 * max(1.0, float(np.max(np.abs(A.T @ data.y))))
        assert lhs <= rhs


def test_mse_values_and_oracle():
    X = np.array([[0.0], [1.0]])
    perfect = Dataset(X=X, y=np.array([1.0, 3.0]))
    assert mse(lr(perfect), perfect) <= 1e-24
    zero = LinearModel(coeffs=np.array([0.0, 0.0]))
    sym = Dataset(X=np.array([[2.0], [2.0]]), y=np.array([1.0, -1.0]))
    assert mse(zero, sym) == 1.0
    rng = np.random.default_rng(5)
    data = _random_dataset(rng, 40, 3)
    model = lr(data)
    total = 0.0
    for i in range(data.n):
        r = data.y[i] - model.predict(data.X[i])
        total += r * r
    assert abs(mse(model, data) - total / data.n) <= 1e-12 * max(1.0, total / data.n)


def test_mse_whose_residual_sum_of_squares_overflows_is_an_input_error():
    # Predictions at |x| ~ 1e200 stay finite, but their squared residuals
    # overflow; numpy's warning is an error under this suite's settings.
    model = LinearModel(coeffs=np.array([0.0, 0.5]))
    data = Dataset(X=np.array([[1e200], [-1e200], [0.0]]), y=np.zeros(3))
    assert np.all(np.isfinite(model.predict_batch(data.X)))
    with pytest.raises(InputError, match="residual sum of squares overflows"):
        mse(model, data)


def test_f_test_edge_branches():
    X = np.arange(10.0)[:, None]
    exact = Dataset(X=X, y=3.0 * X[:, 0] - 1.0)
    assert lr(exact).p_value == 0.0
    flat = Dataset(X=X, y=np.full(10, 2.0))
    assert lr(flat).p_value == 1.0


def test_f_test_matches_frozen_probe():
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 3.0, 20)
    y = x + rng.normal(0.0, 0.5, size=20)
    data = Dataset(X=x[:, None], y=y)
    p = lr(data).p_value
    assert abs(p - 9.057143351984684e-09) <= 1e-8


def test_f_test_matches_f_distribution_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 4))
        data = _random_dataset(rng, n, d)
        model = lr(data)
        pred = model.predict_batch(data.X)
        sse = float(np.sum((data.y - pred) ** 2))
        ssr = float(np.sum((pred - data.y.mean()) ** 2))
        f_stat = (ssr / d) / (sse / (n - d - 1))
        assert abs(model.p_value - stats.f.sf(f_stat, d, n - d - 1)) <= 1e-8


def test_perturbing_coefficients_never_improves_mse():
    rng = np.random.default_rng(23)
    for _ in range(3):
        data = _random_dataset(rng, 30, 2)
        model = lr(data)
        base = mse(model, data)
        for j in range(model.coeffs.size):
            for sign in (-1.0, 1.0):
                bumped = model.coeffs.copy()
                bumped[j] += sign * 1e-3
                assert mse(LinearModel(coeffs=bumped), data) >= base


def test_shrinking_residuals_never_raises_pvalue():
    rng = np.random.default_rng(31)
    data = _random_dataset(rng, 25, 2)
    model = lr(data)
    pred = model.predict_batch(data.X)
    last = 1.0
    for t in (1.0, 0.5, 0.25, 0.1, 0.01):
        y = pred + t * (data.y - pred)
        resid = y - pred
        ssr = float(np.sum((pred - y.mean()) ** 2))
        p = _f_pvalue(ssr, float(resid @ resid), data.n, data.d, y_scale=float(y @ y))
        assert p <= last + 1e-15
        last = p


def test_translation_changes_only_the_intercept():
    rng = np.random.default_rng(37)
    data = _random_dataset(rng, 30, 3)
    shift = rng.uniform(-10.0, 10.0, size=3)
    moved = Dataset(X=data.X + shift, y=data.y)
    assert_allclose(lr(data).coeffs[1:], lr(moved).coeffs[1:], atol=1e-9)


def test_linear_model_validation_and_identity():
    with pytest.raises(InputError):
        LinearModel(coeffs=np.array([np.nan, 1.0]))
    with pytest.raises(InputError):
        LinearModel(coeffs=np.zeros((2, 2)))
    a = LinearModel(coeffs=np.array([1.0, 2.0]), mse=5.0, p_value=0.3)
    b = LinearModel(coeffs=np.array([1.0, 2.0]))
    assert a == b  # metadata does not participate in identity
    with pytest.raises(DimensionMismatchError):
        coefficient_distance(a, LinearModel(coeffs=np.array([1.0, 2.0, 3.0])))
    c = LinearModel(coeffs=np.array([4.0, 6.0]))
    assert coefficient_distance(a, c) == 5.0
    # Equal models hash alike, whatever the sign of their zeros; the stored
    # coefficients keep it.
    neg = LinearModel(coeffs=np.array([-0.0, 2.0]))
    assert neg == LinearModel(coeffs=np.array([0.0, 2.0]))
    assert hash(neg) == hash(LinearModel(coeffs=np.array([0.0, 2.0])))
    assert len({neg, LinearModel(coeffs=np.array([0.0, 2.0]))}) == 1
    assert np.signbit(neg.coeffs[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_kernel_matches_lstsq_on_each_system(draw):
    # Constant columns, duplicate rows and an all-zero system are where the
    # RCOND cutoff drops singular values; an all-zero system drops them all,
    # so inverting a singular value it does not keep would divide by zero.
    p = draw.draw(st.integers(1, 5), label="p")
    k = draw.draw(st.integers(1, 8), label="k")
    stack = draw.draw(st.integers(1, 4), label="stack")
    # Entries are 0 or at least 1e-3 in magnitude, so no coefficient overflows.
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
    A = draw.draw(arrays(float, (stack, k, p), elements=entry), label="A")
    Y = draw.draw(arrays(float, (stack, k), elements=st.floats(-5.0, 5.0)), label="Y")
    shape = draw.draw(
        st.sampled_from(["free", "constant columns", "duplicate rows", "all zero"]), label="shape"
    )
    if shape == "constant columns":
        A[..., 0] = 1.0
        A[..., -1] = 1.5
    elif shape == "duplicate rows":
        A[:, k // 2 :] = A[:, : k - k // 2]
    elif shape == "all zero":
        A[0] = 0.0
    Y = Y + draw.draw(st.sampled_from([0.0, 1e4]), label="y offset")
    beta, resid, (U, s, Vt), keep = _lstsq(A, Y)
    assert beta.shape == (stack, p) and resid.shape == (stack, k)
    assert_allclose(np.einsum("cki,ci,cij->ckj", U, s, Vt), A, atol=1e-12 * (1.0 + np.abs(A).max()))
    for c in range(stack):
        sv = np.linalg.svd(A[c], compute_uv=False)
        # Keep clear of the cutoff, where the two SVDs may keep different
        # numbers of singular values.
        assume(not np.any((sv > 1e-2 * RCOND * sv[0]) & (sv < 1e2 * RCOND * sv[0])))
        want, _, rank, _ = np.linalg.lstsq(A[c], Y[c], rcond=RCOND)
        assert int(keep[c].sum()) == rank
        if rank == 0:
            assert np.array_equal(beta[c], np.zeros(p)) and np.array_equal(resid[c], Y[c])
            continue
        low = sv[rank - 1]
        tol = 1e3 * np.finfo(float).eps * (sv[0] / low) * np.linalg.norm(Y[c])
        # The coefficients in units of y, along the least-resolved direction.
        assert np.linalg.norm(beta[c] - want) * low <= tol
        assert np.linalg.norm(resid[c] - (Y[c] - A[c] @ want)) <= tol


def _per_anchor_scale(X, y, rng):
    """_local_scale as one lstsq per anchor, the loop the stacked kernel replaced."""
    n, d = X.shape
    k = min(n, 2 * (d + 2))
    if k < d + 2:
        return 0.0
    idx = rng.choice(n, size=min(n, 25), replace=False)
    ones = np.ones((k, 1))
    scales = []
    for i in idx:
        nb = _nearest(X, X[i], k)
        Xn, yn = X[nb], y[nb]
        beta = np.linalg.lstsq(np.concatenate([ones, Xn], axis=1), yn, rcond=RCOND)[0]
        r = yn - (beta[0] + Xn @ beta[1:])
        scales.append(math.sqrt(float(r @ r) / (k - d - 1)))
    return float(np.median(scales))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_local_scale_matches_the_per_anchor_loop(draw):
    n = draw.draw(st.integers(3, 400), label="n")
    d = draw.draw(st.integers(1, 4), label="d")
    scale = 10.0 ** draw.draw(st.integers(-3, 3), label="x scale exponent")
    y_kind = draw.draw(st.sampled_from(["noisy plane", "step", "constant"]), label="y")
    offset = 0.0
    if y_kind != "constant":
        offset = draw.draw(st.sampled_from([0.0, 0.0, 1e5]), label="x offset")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(n, d))
    X = offset + scale * u
    if y_kind == "constant":
        y = np.full(n, rng.uniform(-1e3, 1e3))
    else:
        y = 1.0 + u @ rng.uniform(-3.0, 3.0, size=d) + rng.normal(0.0, 0.1, size=n)
        if y_kind == "step":
            y += 2.0 * (u[:, 0] > 0.0)
    got = _local_scale(X, y, np.random.default_rng(seed))
    want = _per_anchor_scale(X, y, np.random.default_rng(seed))
    if y_kind == "constant":
        # Both scales are rounding noise on y's level.
        assert abs(got - want) <= 1e-12 * (1.0 + np.max(np.abs(y)))
    else:
        # A shifted X puts the neighbourhoods' systems at cond up to ~1e9 in
        # raw coordinates, where any two solves differ in the scale's 7th
        # digit or so; unshifted, they agree to about 1e-13.
        assert got == pytest.approx(want, rel=1e-6 if offset else 1e-10, abs=0.0)


def test_incomplete_beta_spot_values_and_edges():
    frozen = [
        (0.5, 0.5, 0.3, 0.36901011956554536),
        (2.0, 3.0, 0.5, 0.6875),
        (9.0, 0.5, 0.99, 0.6748712326262112),
        (5.0, 5.0, 0.1, 0.00089092),
    ]
    for a, b, x, want in frozen:
        assert abs(regularized_incomplete_beta(a, b, x) - want) <= 1e-10
    assert regularized_incomplete_beta(2.0, 2.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 2.0, 1.0) == 1.0
    with pytest.raises(InputError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    nan, inf = float("nan"), float("inf")
    for args in ((nan, 1.0, 0.5), (1.0, nan, 0.5), (1.0, 1.0, nan), (inf, 1.0, 0.5),
                 ("1", 1.0, 0.5), (True, 1.0, 0.5), (1.0, 1.0, None), (1.0, 1.0, 1.5),
                 (1.0, 1.0, -0.5)):
        with pytest.raises(InputError, match="incomplete beta requires"):
            regularized_incomplete_beta(*args)
    want = regularized_incomplete_beta(2.0, 3.0, 0.5)
    assert regularized_incomplete_beta(2, np.int64(3), np.float64(0.5)) == want
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = float(rng.uniform(0.2, 20.0))
        b = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert abs(regularized_incomplete_beta(a, b, x) - special.betainc(a, b, x)) <= 1e-10
