"""JSON persistence for piecewise models and generator ground truths.

Documents are canonical: sorted keys, two-space indent, trailing newline,
reals serialized at full precision (shortest round-trip form), so saving
the same value twice produces identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .calf import CalfModel
from .dataset import GroundTruth
from .exceptions import DimensionMismatchError, InputError, SchemaError
from .geometry import ConvexArea, HalfSpace
from .linreg import LinearModel

SCHEMA_VERSION = 1


def _dump(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load(path) -> dict:
    """The JSON object stored at path: the one reader of every JSON document.

    InputError when the file cannot be read; SchemaError when its bytes do
    not decode, are not JSON, or hold something other than an object.
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
    return doc


def _require(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{path}: missing required key {key!r}")
    return doc[key]


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
    version = _require(doc, "version", path)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema version {version} != {SCHEMA_VERSION}")
    d = _require(doc, "d", path)
    default_coeffs = _require(_require(doc, "default", path), "coeffs", path)
    if len(default_coeffs) != d + 1:
        raise DimensionMismatchError(
            f"{path}: default has {len(default_coeffs) - 1} features, document says d={d}"
        )
    pieces = []
    for k, entry in enumerate(_require(doc, "pieces", path)):
        coeffs = _require(entry, "coeffs", path)
        if len(coeffs) != d + 1:
            raise DimensionMismatchError(
                f"{path}: piece {k} has {len(coeffs) - 1} features, expected d={d}"
            )
        halfspaces = []
        for h in _require(entry, "area", path):
            alpha = _require(h, "alpha", path)
            if len(alpha) != d:
                raise DimensionMismatchError(
                    f"{path}: piece {k} half-space has dimension {len(alpha)}, expected {d}"
                )
            halfspaces.append(
                HalfSpace(alpha=np.array(alpha, dtype=float), gamma=float(_require(h, "gamma", path)))
            )
        pieces.append(
            (
                LinearModel(coeffs=np.array(coeffs, dtype=float)),
                ConvexArea(tuple(halfspaces)),
            )
        )
    return CalfModel(
        default=LinearModel(coeffs=np.array(default_coeffs, dtype=float)),
        pieces=tuple(pieces),
    )


def save_model(model: CalfModel, path) -> None:
    """Write a model as canonical JSON."""
    _dump(model_to_doc(model), path)


def load_model(path) -> CalfModel:
    """Read a model back; load(save(m)) equals m structurally."""
    return model_from_doc(_load(path), path=str(path))


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
    doc = _load(path)
    model = model_from_doc(doc, path=str(path))
    return GroundTruth(
        model=model,
        noise_sigma=float(_require(doc, "sigma", str(path))),
        separation_delta=float(_require(doc, "delta", str(path))),
        margin_epsilon=float(_require(doc, "epsilon", str(path))),
        assignments=np.array(_require(doc, "assignments", str(path)), dtype=int),
    )
