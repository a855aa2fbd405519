"""Piecewise model evaluation, overlap checks, and max-affine rewriting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from calr.calf import CalfModel, PldcSpec, overlapping_training_points, pldc_to_calf
from calr.exceptions import DimensionMismatchError, InputError
from calr.geometry import ConvexArea, HalfSpace
from calr.linreg import LinearModel


def _hs(alpha, gamma):
    return HalfSpace(alpha=np.asarray(alpha, dtype=float), gamma=float(gamma))


def two_piece_model():
    """Sum plane on a quadrilateral, constant 6 on a second region, 0 outside."""
    s1 = ConvexArea(
        halfspaces=(
            _hs([-1.0, 0.0], 0.0),
            _hs([0.0, -1.0], 0.0),
            _hs([0.0, 1.0], -4.0),
            _hs([2.0, 1.0], -12.0),
        )
    )
    s2 = ConvexArea(
        halfspaces=(
            _hs([-2.0, 1.0], 6.0),
            _hs([-1.0, -1.0], 12.0),
            _hs([0.5, -1.0], 0.0),
            _hs([2.0, 1.0], -30.0),
        )
    )
    f1 = LinearModel(coeffs=np.array([0.0, 1.0, 1.0]))
    f2 = LinearModel(coeffs=np.array([6.0, 0.0, 0.0]))
    default = LinearModel(coeffs=np.zeros(3))
    return CalfModel(default=default, pieces=((f1, s1), (f2, s2)))


def test_two_piece_model_evaluates_each_region():
    model = two_piece_model()
    assert model.m == 2 and model.d == 2
    probes = {
        (1.0, 1.0): (1, 2.0),
        (8.0, 8.0): (2, 6.0),
        (100.0, 100.0): (0, 0.0),
        (3.0, 2.0): (1, 5.0),
        (10.0, 6.0): (2, 6.0),
        (-1.0, -1.0): (0, 0.0),
    }
    for xy, (region, value) in probes.items():
        x = np.array(xy)
        assert model.piece_index(x) == region
        assert model.predict(x) == pytest.approx(value, abs=1e-12)
    X = np.array([list(k) for k in probes])
    assert model.assign_batch(X).tolist() == [v[0] for v in probes.values()]
    assert_allclose(model.predict_batch(X), [v[1] for v in probes.values()], atol=1e-12)
    assert len(overlapping_training_points(model, X)) == 0


def test_lowest_indexed_piece_wins_on_overlap():
    right = ConvexArea(halfspaces=(_hs([-1.0], 0.0),))  # x >= 0
    wide = ConvexArea(halfspaces=(_hs([-1.0], -1.0),))  # x >= -1
    f1 = LinearModel(coeffs=np.array([10.0, 0.0]))
    f2 = LinearModel(coeffs=np.array([20.0, 0.0]))
    model = CalfModel(
        default=LinearModel(coeffs=np.zeros(2)), pieces=((f1, right), (f2, wide))
    )
    x = np.array([0.5])
    assert right.contains(x) and wide.contains(x)
    assert model.piece_index(x) == 1
    assert model.predict(x) == 10.0
    assert model.predict(np.array([-0.5])) == 20.0
    assert model.predict(np.array([-2.0])) == 0.0
    assert model.assign_batch(np.array([[0.5], [-0.5], [-2.0]])).tolist() == [1, 2, 0]
    overlap = overlapping_training_points(model, np.array([[0.5], [-2.0]]))
    assert overlap.tolist() == [0]


def test_batch_matches_pointwise_on_random_model():
    rng = np.random.default_rng(19)
    pieces = []
    for _ in range(3):
        hs = tuple(
            _hs(rng.normal(size=2), rng.normal()) for _ in range(int(rng.integers(1, 4)))
        )
        f = LinearModel(coeffs=rng.normal(size=3))
        pieces.append((f, ConvexArea(halfspaces=hs)))
    model = CalfModel(default=LinearModel(coeffs=rng.normal(size=3)), pieces=tuple(pieces))
    X = rng.uniform(-3.0, 3.0, size=(200, 2))
    assert model.assign_batch(X).tolist() == [model.piece_index(x) for x in X]
    assert_allclose(model.predict_batch(X), [model.predict(x) for x in X], atol=1e-12)
    # Pointwise reference: the lowest piece all of whose half-spaces hold x.
    reference = [
        next((i + 1 for i, (_, a) in enumerate(pieces) if all(h.contains(x) for h in a.halfspaces)), 0)
        for x in X
    ]
    assert model.assign_batch(X).tolist() == reference


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_pointwise_and_batch_evaluation_agree_on_random_models(draw):
    # Coefficients and probes on a half-integer grid put probes exactly on
    # area boundaries, where the tolerant membership test decides.
    d = draw.draw(st.integers(1, 3), label="d")
    grid = st.integers(-6, 6).map(lambda k: k / 2.0)

    def halfspace():
        alpha = draw.draw(arrays(float, d, elements=grid), label="alpha")
        assume(np.any(alpha != 0.0))
        return HalfSpace(alpha=alpha, gamma=draw.draw(grid, label="gamma"))

    def linear():
        return LinearModel(coeffs=draw.draw(arrays(float, d + 1, elements=grid), label="coeffs"))

    pieces = tuple(
        (linear(), ConvexArea(tuple(halfspace() for _ in range(draw.draw(st.integers(0, 3))))))
        for _ in range(draw.draw(st.integers(0, 3), label="pieces"))
    )
    model = CalfModel(default=linear(), pieces=pieces)
    k = draw.draw(st.integers(1, 12), label="probes")
    X = draw.draw(arrays(float, (k, d), elements=grid), label="X")
    assert [model.piece_index(x) for x in X] == model.assign_batch(X).tolist()
    assert [model.predict(x) for x in X] == model.predict_batch(X).tolist()


def test_batch_and_scalar_methods_reject_misshapen_points():
    h = _hs([1.0, -1.0], 0.5)
    model = two_piece_model()
    area = ConvexArea((h,))
    spec = PldcSpec(plus_terms=(([1.0, 0.0], 0.0),), minus_terms=(([0.0, 1.0], 0.0),))
    for method in (model.default.predict_batch, model.predict_batch, model.assign_batch,
                   area.contains_batch, h.values_batch):
        for bad in (np.zeros((4, 3)), np.zeros(2), [[1.0], [2.0]]):
            with pytest.raises(DimensionMismatchError):
                method(bad)
    for method in (model.default.predict, model.predict, model.piece_index,
                   area.contains, h.value, h.contains, spec.evaluate):
        for bad in (np.zeros(3), np.zeros((1, 2)), 1.0):
            with pytest.raises(DimensionMismatchError):
                method(bad)


def test_model_construction_errors():
    f2 = LinearModel(coeffs=np.zeros(3))
    area1 = ConvexArea(halfspaces=(_hs([1.0], 0.0),))
    with pytest.raises(InputError):
        CalfModel(default=LinearModel(coeffs=np.zeros(2)), pieces=((f2, "nope"),))
    f1 = LinearModel(coeffs=np.zeros(2))
    for entry in (1, (f1, area1, 3), (f1,), None):  # not a pair
        with pytest.raises(InputError, match=r"pieces must be \(LinearModel, ConvexArea\) pairs"):
            CalfModel(default=f1, pieces=[entry])
    with pytest.raises(DimensionMismatchError):
        CalfModel(default=LinearModel(coeffs=np.zeros(2)), pieces=((f2, ConvexArea()),))
    with pytest.raises(DimensionMismatchError):
        CalfModel(
            default=LinearModel(coeffs=np.zeros(3)),
            pieces=((LinearModel(coeffs=np.zeros(3)), area1),),
        )
    with pytest.raises(DimensionMismatchError):
        two_piece_model().piece_index(np.array([1.0]))


def test_prediction_can_jump_across_a_boundary():
    step = CalfModel(
        default=LinearModel(coeffs=np.zeros(2)),
        pieces=((LinearModel(coeffs=np.array([1.0, 0.0])), ConvexArea((_hs([-1.0], 0.0),))),),
    )
    assert step.predict(np.array([0.001])) == 1.0
    assert step.predict(np.array([-0.001])) == 0.0


def test_absolute_value_as_difference_of_maxes():
    spec = PldcSpec(
        plus_terms=((np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)),
        minus_terms=((np.array([0.0]), 0.0),),
    )
    assert spec.evaluate(np.array([3.0])) == 3.0
    assert spec.evaluate(np.array([-2.5])) == 2.5
    model = pldc_to_calf(spec)
    for x in np.linspace(-4.0, 4.0, 17):
        assert model.predict(np.array([x])) == pytest.approx(abs(x), abs=1e-12)


def test_random_specs_match_direct_evaluation():
    rng = np.random.default_rng(47)
    for _ in range(5):
        spec = PldcSpec(
            plus_terms=tuple((rng.normal(size=2), float(rng.normal())) for _ in range(2)),
            minus_terms=tuple((rng.normal(size=2), float(rng.normal())) for _ in range(2)),
        )
        model = pldc_to_calf(spec)
        X = rng.uniform(-5.0, 5.0, size=(200, 2))
        got = model.predict_batch(X)
        want = np.array([spec.evaluate(x) for x in X])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_dominated_terms_produce_no_pieces():
    spec = PldcSpec(
        plus_terms=((np.array([1.0]), 0.0), (np.array([1.0]), 2.0)),
        minus_terms=((np.array([0.0]), 0.0),),
    )
    model = pldc_to_calf(spec)
    assert model.m == 1  # the lower parallel term never attains the max
    for x in (-3.0, 0.0, 3.0):
        assert model.predict(np.array([x])) == pytest.approx(x + 2.0, abs=1e-12)


def test_pldc_validation_errors():
    with pytest.raises(InputError):
        PldcSpec(plus_terms=(), minus_terms=((np.array([1.0]), 0.0),))
    with pytest.raises(InputError):
        PldcSpec(
            plus_terms=((np.array([np.nan]), 0.0),),
            minus_terms=((np.array([1.0]), 0.0),),
        )
    for c in (float("nan"), float("inf"), "0.5", None, True):
        with pytest.raises(InputError, match="coefficients must be finite"):
            PldcSpec(plus_terms=((np.array([1.0]), c),), minus_terms=((np.array([1.0]), 0.0),))
    with pytest.raises(DimensionMismatchError):
        PldcSpec(
            plus_terms=((np.array([1.0, 2.0]), 0.0),),
            minus_terms=((np.array([1.0]), 0.0),),
        )
    spec = PldcSpec(
        plus_terms=((np.array([1.0]), 0.0),), minus_terms=((np.array([1.0]), 0.0),)
    )
    with pytest.raises(DimensionMismatchError):
        spec.evaluate(np.array([1.0, 2.0]))
