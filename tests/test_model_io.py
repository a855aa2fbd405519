"""JSON persistence: canonical form, round-trips, and schema rejection."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from calr.calf import CalfModel
from calr.dataset import generate_separable
from calr.exceptions import DimensionMismatchError, InputError, SchemaError
from calr.geometry import ConvexArea, HalfSpace
from calr.linreg import LinearModel
from calr.mip import load_mip
from calr.model_io import load_model, load_truth, save_model, save_truth


def sample_model():
    area = ConvexArea(
        halfspaces=(
            HalfSpace(alpha=np.array([1.0, -0.5]), gamma=-2.0),
            HalfSpace(alpha=np.array([0.0, 1.0]), gamma=0.25),
        )
    )
    return CalfModel(
        default=LinearModel(coeffs=np.array([0.1, -1.0, 2.5])),
        pieces=((LinearModel(coeffs=np.array([1.0 / 3.0, 0.0, -7.25])), area),),
    )


def test_model_round_trip_is_structural_identity(tmp_path):
    model = sample_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back == model
    assert back.pieces[0][1] == model.pieces[0][1]


def test_saving_twice_is_byte_identical(tmp_path):
    model = sample_model()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_full_precision_survives_the_trip(tmp_path):
    ugly = CalfModel(default=LinearModel(coeffs=np.array([np.pi, 1.0 / 3.0, 1e-17])))
    path = tmp_path / "ugly.json"
    save_model(ugly, path)
    assert load_model(path).default.coeffs.tobytes() == ugly.default.coeffs.tobytes()


def test_schema_rejections(tmp_path):
    path = tmp_path / "doc.json"
    model = sample_model()
    save_model(model, path)
    doc = json.loads(path.read_text())

    bad_version = dict(doc, version=99)
    path.write_text(json.dumps(bad_version))
    with pytest.raises(SchemaError):
        load_model(path)

    missing = {k: v for k, v in doc.items() if k != "default"}
    path.write_text(json.dumps(missing))
    with pytest.raises(SchemaError):
        load_model(path)

    wrong_d = dict(doc, d=3)
    path.write_text(json.dumps(wrong_d))
    with pytest.raises(DimensionMismatchError):
        load_model(path)

    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model(path)


def test_truth_round_trip(tmp_path):
    _, truth = generate_separable(40, 2, 1, 0.05, 1.0, seed=6)
    path = tmp_path / "truth.json"
    save_truth(truth, path)
    back = load_truth(path)
    assert back.model == truth.model
    assert back.noise_sigma == truth.noise_sigma
    assert back.separation_delta == truth.separation_delta
    assert back.margin_epsilon == truth.margin_epsilon
    assert_array_equal(back.assignments, truth.assignments)
    save_truth(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_truth_requires_its_extra_keys(tmp_path):
    _, truth = generate_separable(40, 2, 1, 0.05, 1.0, seed=6)
    path = tmp_path / "truth.json"
    save_truth(truth, path)
    doc = json.loads(path.read_text())
    del doc["assignments"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_truth(path)
    load_model(path)  # still a valid bare model document


@pytest.mark.parametrize("load", [load_model, load_truth, load_mip])
def test_json_loaders_raise_typed_errors(tmp_path, load):
    with pytest.raises(InputError, match="cannot read"):
        load(tmp_path / "missing.json")
    with pytest.raises(InputError, match="cannot read"):
        load(tmp_path)
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"version": "\xff"}')
    with pytest.raises(SchemaError, match="0xff does not decode"):
        load(path)
    for not_an_object in ("[1, 2]", "3", "null", '"text"'):
        path.write_text(not_an_object)
        with pytest.raises(SchemaError, match="not a JSON object"):
            load(path)
