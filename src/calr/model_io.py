"""JSON persistence for piecewise models and generator ground truths.

_load is the one reader of every JSON document: models, ground truths,
exported programs (mip.load_mip) and PLDC specs.  _dump is the one
writer, of models, truths and programs (mip.export_mip).  Written
documents are canonical: sorted keys, two-space indent, trailing
newline, reals serialized at full precision (shortest round-trip form),
so saving the same value twice produces identical bytes.
"""

from __future__ import annotations

import json

from .calf import CalfModel, PldcSpec
from .dataset import GroundTruth
from .exceptions import DimensionMismatchError, InputError, SchemaError
from .geometry import ConvexArea, HalfSpace
from .linreg import LinearModel

SCHEMA_VERSION = 1


def _dump(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load(path, convert):
    """convert(doc) for the JSON object doc stored at path.

    InputError when the file cannot be read.  SchemaError when its bytes do
    not decode, are not JSON or hold something other than an object, and
    when convert meets a missing key (KeyError) or a value of the wrong
    type or shape (TypeError, ValueError, IndexError, OverflowError).  The
    package's own errors, which the constructors raise, pass through.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: byte {exc.object[exc.start]:#04x} does not decode as {exc.encoding}"
        ) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: the document is not a JSON object")
    try:
        return convert(doc)
    except KeyError as exc:
        raise SchemaError(f"{path}: missing required key {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed document: {exc}") from exc


def _integer(value, name) -> int:
    """value, which must be a JSON integer: true and 2.9 are malformed, not 1 and 2."""
    if type(value) is not int:
        raise TypeError(f"{name!r} must be an integer, not {value!r}")
    return value


def _number(value, name) -> float:
    """value, which must be a JSON number: true and "0.5" are malformed, not 1.0 and 0.5."""
    if type(value) not in (int, float):
        raise TypeError(f"{name!r} must be a number, not {value!r}")
    return float(value)


def _numbers(values, name):
    """values, once each number in it (lists may nest) passes _number; the caller checks shape."""
    if isinstance(values, list):
        for value in values:
            _numbers(value, name)
    else:
        _number(values, name)
    return values


def model_to_doc(model: CalfModel) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "d": model.d,
        "default": {"coeffs": [float(v) for v in model.default.coeffs]},
        "pieces": [
            {
                "coeffs": [float(v) for v in f.coeffs],
                "area": [
                    {"alpha": [float(a) for a in h.alpha], "gamma": float(h.gamma)}
                    for h in area.halfspaces
                ],
            }
            for f, area in model.pieces
        ],
    }


def model_from_doc(doc, path="<doc>") -> CalfModel:
    """The model a document describes; the constructors check its dimensions."""
    version, d = _integer(doc["version"], "version"), _integer(doc["d"], "d")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema version {version} != {SCHEMA_VERSION}")
    default = LinearModel(coeffs=_numbers(doc["default"]["coeffs"], "coeffs"))
    if default.d != d:
        raise DimensionMismatchError(
            f"{path}: default has {default.d} features, document says d={d}"
        )
    pieces = tuple(
        (
            LinearModel(coeffs=_numbers(entry["coeffs"], "coeffs")),
            ConvexArea(
                tuple(
                    HalfSpace(_numbers(h["alpha"], "alpha"), _number(h["gamma"], "gamma"))
                    for h in entry["area"]
                )
            ),
        )
        for entry in doc["pieces"]
    )
    return CalfModel(default=default, pieces=pieces)


def save_model(model: CalfModel, path) -> None:
    """Write a model as canonical JSON."""
    _dump(model_to_doc(model), path)


def load_model(path) -> CalfModel:
    """Read a model back; load(save(m)) equals m structurally."""
    return _load(path, lambda doc: model_from_doc(doc, str(path)))


def save_truth(truth: GroundTruth, path) -> None:
    """Write a ground truth: the model document plus its generation facts."""
    doc = model_to_doc(truth.model)
    doc["sigma"] = float(truth.noise_sigma)
    doc["delta"] = float(truth.separation_delta)
    doc["epsilon"] = float(truth.margin_epsilon)
    doc["assignments"] = [int(a) for a in truth.assignments]
    _dump(doc, path)


def load_truth(path) -> GroundTruth:
    """Read a ground truth written by save_truth."""

    def convert(doc):
        return GroundTruth(
            model=model_from_doc(doc, str(path)),
            noise_sigma=_number(doc["sigma"], "sigma"),
            separation_delta=_number(doc["delta"], "delta"),
            margin_epsilon=_number(doc["epsilon"], "epsilon"),
            assignments=[_integer(a, "assignments") for a in doc["assignments"]],
        )

    return _load(path, convert)


def load_pldc_spec(path) -> PldcSpec:
    """Read a PLDC spec: {"plus_terms": [{"a": [...], "c": ...}, ...], "minus_terms": [...]}."""

    def terms(doc, key):
        return tuple((_numbers(t["a"], "a"), _number(t["c"], "c")) for t in doc[key])

    return _load(path, lambda doc: PldcSpec(terms(doc, "plus_terms"), terms(doc, "minus_terms")))
