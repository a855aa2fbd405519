"""Export the piecewise fit as a mixed-integer program document.

The program picks M local models (coefficients beta_j), M*K half-spaces
(alpha_jk, gamma_jk), and binary indicators ind[i,j,k] deciding which
half-spaces hold at each point; prod[i,j] = prod_k ind[i,j,k] marks point
i as belonging to piece j.  The objective is the total squared error of
the default model plus the indicator-activated local corrections.  We
build and serialize the program; solving it is left to external tools.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import InputError, SchemaError
from .model_io import _load

MIP_SCHEMA_VERSION = 1
_TAU_SCALE = 1e-6


def default_tau(X: np.ndarray) -> float:
    """Default activation slack: a small negative value at the data's scale."""
    peak = float(np.max(np.abs(X))) if X.size else 0.0
    return -_TAU_SCALE * (1.0 + peak)


@dataclass(eq=False)
class MipInstance:
    """One program: data matrix plus sizes (M pieces, K half-spaces each)."""

    n: int
    d: int
    M: int
    K: int
    tau: float
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.M < 1 or self.K < 1:
            raise InputError("need M >= 1 and K >= 1")
        if not self.tau < 0:
            raise InputError("tau must be strictly negative")
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.shape != (self.n, self.d) or y.shape != (self.n,):
            raise InputError("data matrix does not match the declared sizes")
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y

    def __eq__(self, other):
        if not isinstance(other, MipInstance):
            return NotImplemented
        return (
            (self.n, self.d, self.M, self.K) == (other.n, other.d, other.M, other.K)
            and self.tau == other.tau
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )

    @property
    def local_continuous_count(self) -> int:
        """Continuous variables of the M local models: (d+1)(K+1)M."""
        return (self.d + 1) * (self.K + 1) * self.M

    @property
    def constraint_count(self) -> int:
        """Total constraints: n(M(2K+1)+1)."""
        return self.n * (self.M * (2 * self.K + 1) + 1)

    def variable_blocks(self) -> list:
        return [
            {"name": "beta", "shape": [self.M + 1, self.d + 1], "kind": "continuous"},
            {"name": "alpha", "shape": [self.M, self.K, self.d], "kind": "continuous"},
            {"name": "gamma", "shape": [self.M, self.K], "kind": "continuous"},
            {"name": "ind", "shape": [self.n, self.M, self.K], "kind": "binary"},
            {"name": "prod", "shape": [self.n, self.M], "kind": "derived"},
        ]

    def constraints(self) -> list:
        """All constraint rows, one dict per row, grouped by family."""
        return list(_constraint_rows(self.n, self.M, self.K))

    def objective_terms(self) -> list:
        """Per point: the residual's terms; objective = sum of squared residuals."""
        return [
            _residual(i, x, -v, self.M)
            for i, (x, v) in enumerate(zip(self.X.tolist(), self.y.tolist()))
        ]

    # -- evaluation against a candidate assignment --

    def residuals(self, assignment) -> np.ndarray:
        beta = np.asarray(assignment["beta"], dtype=float)
        prod = np.asarray(assignment["prod"], dtype=float)
        A = np.concatenate([np.ones((self.n, 1)), self.X], axis=1)
        pred = A @ beta[0]
        for j in range(self.M):
            pred = pred + prod[:, j] * (A @ beta[j + 1])
        return pred - self.y

    def evaluate_objective(self, assignment) -> float:
        """Total squared error of an assignment of all variable blocks."""
        r = self.residuals(assignment)
        return float(r @ r)

    def constraint_violations(self, assignment) -> np.ndarray:
        """Violation magnitude per constraint row (0 when satisfied), in constraints() order."""
        ind = np.asarray(assignment["ind"], dtype=float)
        prod = np.asarray(assignment["prod"], dtype=float)
        alpha = np.asarray(assignment["alpha"], dtype=float)
        # values[i, j, k] = alpha_jk . x_i + gamma_jk
        values = np.inner(self.X, alpha) + assignment["gamma"]
        return np.concatenate(
            [
                np.abs(ind * (1.0 - ind)).ravel(),
                np.maximum(0.0, prod.sum(axis=1) - 1.0),
                np.abs(prod - ind.prod(axis=2)).ravel(),
                np.maximum(0.0, (ind - 0.5) * values - self.tau).ravel(),
            ]
        )


def build_mip(data: Dataset, M: int, K: int, tau: float | None = None) -> MipInstance:
    """Materialize the program for a dataset and piece/half-space budget."""
    if tau is None:
        tau = default_tau(data.X)
    return MipInstance(n=data.n, d=data.d, M=int(M), K=int(K), tau=float(tau), X=data.X, y=data.y)


def _constraint_rows(n: int, M: int, K: int):
    for i in range(n):
        for j in range(M):
            for k in range(K):
                yield {"family": "indicator_binary", "i": i, "j": j, "k": k}
    for i in range(n):
        yield {"family": "one_piece_per_point", "i": i}
    for i in range(n):
        for j in range(M):
            yield {"family": "product_link", "i": i, "j": j}
    for i in range(n):
        for j in range(M):
            for k in range(K):
                yield {"family": "halfspace_activation", "i": i, "j": j, "k": k}


def _residual(i, x, constant, M: int) -> dict:
    """Point i's residual: the default model's terms, then each piece's gated by prod[i, j]."""
    terms = [{"coeff": 1.0, "vars": [["beta", 0, 0]]}]
    for l, v in enumerate(x):
        terms.append({"coeff": v, "vars": [["beta", 0, l + 1]]})
    for j in range(M):
        terms.append({"coeff": 1.0, "vars": [["prod", i, j], ["beta", j + 1, 0]]})
        for l, v in enumerate(x):
            terms.append({"coeff": v, "vars": [["prod", i, j], ["beta", j + 1, l + 1]]})
    return {"point": i, "constant": constant, "terms": terms}


def _document(instance: MipInstance, residuals, constraints, X, y) -> dict:
    return {
        "version": MIP_SCHEMA_VERSION,
        "note": (
            "indicators are binary: the quadratic row ind*(1-ind)=0 pins each "
            "ind to {0,1}; prod rows are their per-piece products"
        ),
        "n": instance.n,
        "d": instance.d,
        "M": instance.M,
        "K": instance.K,
        "tau": float(instance.tau),
        "counts": {
            "local_continuous_variables": instance.local_continuous_count,
            "constraints": instance.constraint_count,
        },
        "variables": instance.variable_blocks(),
        "objective": {
            "sense": "minimize",
            "form": "sum of squared point residuals",
            "residuals": residuals,
        },
        "constraints": constraints,
        "data": {"X": X, "y": y},
    }


def instance_to_doc(instance: MipInstance) -> dict:
    return _document(
        instance,
        instance.objective_terms(),
        instance.constraints(),
        instance.X.tolist(),
        instance.y.tolist(),
    )


# The skeleton holds each bulk list as one marker item, which json writes as "\u0000name".
_MARK = "\x00"
_MARKED = re.compile(r'"\\u0000(\w+)"')
_SLOT = re.compile(r'"%%\((\w+)\)s"')


def _slot(name: str) -> str:
    return f"%({name})s"


def _template(item, indent: str) -> str:
    """json's text of a list item at `indent`, with its "%(name)s" strings as % slots."""
    text = json.dumps(item, sort_keys=True, indent=2).replace("%", "%%")
    return _SLOT.sub(r"%(\1)s", text).replace("\n", "\n" + indent)


def _json_float(v: float) -> str:
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _bulk_rows(instance: MipInstance, name: str, indent: str):
    """The item texts of one bulk list of the document, written at `indent`."""
    if name == "constraints":
        templates = {
            row["family"]: _template(
                {key: v if key == "family" else _slot(key) for key, v in row.items()}, indent
            )
            for row in _constraint_rows(1, 1, 1)
        }
        for row in _constraint_rows(instance.n, instance.M, instance.K):
            yield templates[row["family"]] % row
        return
    xs = [f"x{l}" for l in range(instance.d)]
    item = {
        "residuals": _residual(_slot("i"), [_slot(x) for x in xs], _slot("c"), instance.M),
        "X": [_slot(x) for x in xs],
        "y": _slot("y"),
    }[name]
    template = _template(item, indent)
    for i, (x, v) in enumerate(zip(instance.X.tolist(), instance.y.tolist())):
        fields = dict(zip(xs, map(_json_float, x)), i=i, c=_json_float(-v), y=_json_float(v))
        yield template % fields


def export_mip(instance: MipInstance, path) -> None:
    """Write the program as canonical JSON (sorted keys, full precision).

    The file is json.dumps(instance_to_doc(instance), sort_keys=True,
    indent=2) plus a newline, byte for byte, without building that
    document: json writes a skeleton in which each bulk list (residuals,
    constraints, data) holds one marker, and each list's rows are filled
    into templates that json made from one row of placeholders.
    """
    bulk = [[_MARK + name] if instance.n else [] for name in ("residuals", "constraints", "X", "y")]
    parts = _MARKED.split(json.dumps(_document(instance, *bulk), sort_keys=True, indent=2))
    with open(path, "w") as fh:
        fh.write(parts[0])
        for k in range(1, len(parts), 2):
            indent = parts[k - 1][parts[k - 1].rfind("\n") + 1 :]
            rows = _bulk_rows(instance, parts[k], indent)
            fh.write(next(rows))
            fh.writelines(",\n" + indent + row for row in rows)
            fh.write(parts[k + 1])
        fh.write("\n")


def _instance_from_doc(doc) -> MipInstance:
    if doc["version"] != MIP_SCHEMA_VERSION:
        raise SchemaError(f"unsupported document version {doc['version']}")
    n, d = int(doc["n"]), int(doc["d"])
    instance = MipInstance(
        n=n,
        d=d,
        M=int(doc["M"]),
        K=int(doc["K"]),
        tau=float(doc["tau"]),
        X=np.array(doc["data"]["X"], dtype=float).reshape(n, d),
        y=np.array(doc["data"]["y"], dtype=float),
    )
    counts = doc["counts"]
    if (counts["constraints"], counts["local_continuous_variables"]) != (
        instance.constraint_count,
        instance.local_continuous_count,
    ):
        raise SchemaError("document header counts disagree with its declared sizes")
    return instance


def load_mip(path) -> MipInstance:
    """Read an exported program back into an instance, checking its header."""
    return _load(path, _instance_from_doc)
