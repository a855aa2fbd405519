"""JSON persistence: canonical form, round-trips, and schema rejection."""

import ast
import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import calr
from calr.calf import CalfModel
from calr.dataset import Dataset, generate_separable
from calr.exceptions import DimensionMismatchError, InputError, SchemaError
from calr.geometry import ConvexArea, HalfSpace
from calr.linreg import LinearModel
from calr.mip import build_mip, export_mip, load_mip
from calr.model_io import (
    load_model,
    load_pldc_spec,
    load_truth,
    model_to_doc,
    save_model,
    save_truth,
)


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

    wide_piece = copy.deepcopy(doc)
    wide_piece["pieces"][0]["coeffs"].append(1.0)
    path.write_text(json.dumps(wide_piece))
    with pytest.raises(DimensionMismatchError, match="piece model dimension"):
        load_model(path)

    wrong_type = dict(doc, pieces=None)
    path.write_text(json.dumps(wrong_type))
    with pytest.raises(SchemaError, match="doc.json: malformed document"):
        load_model(path)

    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model(path)


def test_integer_fields_reject_booleans_and_fractions(tmp_path):
    path = tmp_path / "doc.json"
    one_d = {"version": 1, "d": 1, "default": {"coeffs": [0.0, 1.0]}, "pieces": []}
    for field, value in (("version", True), ("d", True), ("d", 1.0)):
        path.write_text(json.dumps(dict(one_d, **{field: value})))
        with pytest.raises(SchemaError, match=f"'{field}' must be an integer"):
            load_model(path)

    _, truth = generate_separable(40, 2, 1, 0.05, 1.0, seed=6)
    save_truth(truth, path)
    doc = json.loads(path.read_text())
    for assignments in ([a + 0.9 for a in doc["assignments"]], [True] + doc["assignments"][1:]):
        path.write_text(json.dumps(dict(doc, assignments=assignments)))
        with pytest.raises(SchemaError, match="'assignments' must be an integer"):
            load_truth(path)
    for assignments in (truth.assignments + 0.9, truth.assignments.astype(bool)):
        with pytest.raises(InputError, match="assignments must be integers"):
            dataclasses.replace(truth, assignments=assignments)


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


@pytest.mark.parametrize("load", [load_model, load_truth, load_mip, load_pldc_spec])
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


PLDC_SPEC = {
    "plus_terms": [{"a": [1.0, 0.0], "c": 0.0}, {"a": [-1.0, 0.0], "c": 0.5}],
    "minus_terms": [{"a": [0.0, 1.0], "c": -0.25}],
}
# What the loader property test puts in place of one value of a valid document.
_DELETE = object()
EDITS = (_DELETE, None, "x", 1.5, [], {}, [[1]], True)


@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    """name -> (loader, valid document) for each of the four JSON documents."""
    root = tmp_path_factory.mktemp("valid")
    _, truth = generate_separable(12, 2, 1, 0.05, 1.0, seed=6)
    save_truth(truth, root / "truth.json")
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.uniform(-1.0, 1.0, size=(2, 1)), y=rng.normal(size=2))
    export_mip(build_mip(data, M=1, K=2), root / "program.json")
    return {
        "model": (load_model, model_to_doc(sample_model())),
        "truth": (load_truth, json.loads((root / "truth.json").read_text())),
        "program": (load_mip, json.loads((root / "program.json").read_text())),
        "pldc": (load_pldc_spec, PLDC_SPEC),
    }


@st.composite
def value_paths(draw, doc):
    """The key/index path of one value nested in doc; it stops at each level with chance 1/2."""
    path, node = (), doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not isinstance(node, (dict, list)) or not node or draw(st.booleans()):
            return path


def _edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if edit is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(edit)
    return doc


@pytest.mark.parametrize("kind", ["model", "truth", "program", "pldc"])
def test_valid_documents_load(tmp_path, valid_documents, kind):
    load, doc = valid_documents[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    load(path)


@pytest.mark.parametrize("kind", ["model", "truth", "program", "pldc"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(choice=st.data())
def test_a_damaged_document_loads_or_raises_an_input_error(
    tmp_path_factory, valid_documents, kind, choice
):
    """Delete one key or retype one value: the loader returns or raises InputError, nothing else."""
    load, doc = valid_documents[kind]
    where = choice.draw(value_paths(doc), label="path")
    edit = choice.draw(st.sampled_from(EDITS), label="edit")
    path = tmp_path_factory.mktemp("damaged") / "doc.json"
    path.write_text(json.dumps(_edited(doc, where, edit)))
    try:
        load(path)
    except InputError:
        pass


def test_only_model_io_reads_json():
    """Every JSON document goes through model_io._load; no other module parses JSON."""
    readers = set()
    for module in Path(calr.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            parses = isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            if parses and isinstance(node.value, ast.Name) and node.value.id == "json":
                readers.add(module.name)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                readers.add(module.name)
    assert readers == {"model_io.py"}
