"""Export the piecewise fit as a mixed-integer program document.

The program picks M local models (coefficients beta_j), M*K half-spaces
(alpha_jk, gamma_jk), and binary indicators ind[i,j,k] deciding which
half-spaces hold at each point; prod[i,j] = prod_k ind[i,j,k] marks point
i as belonging to piece j.  The objective is the total squared error of
the default model plus the indicator-activated local corrections.

The document (schema version 2) names each of the four constraint
families with the index shape its rows range over, and gives the
objective as one residual template over the point index i whose
coefficients refer into the data block.  So it holds the data plus a
part that does not grow with n.  We build and serialize the program;
solving it is left to external tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import InputError, SchemaError, _int_at_least, _real
from .model_io import _dump, _integer, _load, _number, _numbers

MIP_SCHEMA_VERSION = 2
_TAU_SCALE = 1e-6


def default_tau(X: np.ndarray) -> float:
    """Default activation slack: a small negative value at the data's scale."""
    peak = float(np.max(np.abs(X))) if X.size else 0.0
    return -_TAU_SCALE * (1.0 + peak)


@dataclass(eq=False)
class MipInstance:
    """One program: data matrix plus sizes (M pieces, K half-spaces each).

    The sizes must be integers (numpy integers become ints): n, d >= 0 and
    M, K >= 1.  tau is a negative real number, -inf included.  X and y are
    kept as read-only float copies; the caller's arrays stay writable.
    """

    n: int
    d: int
    M: int
    K: int
    tau: float
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not (_int_at_least(self.n, 0) and _int_at_least(self.d, 0)):
            raise InputError("need integers n >= 0 and d >= 0")
        if not (_int_at_least(self.M, 1) and _int_at_least(self.K, 1)):
            raise InputError("need integers M >= 1 and K >= 1")
        self.n, self.d, self.M, self.K = int(self.n), int(self.d), int(self.M), int(self.K)
        if not (_real(self.tau) and self.tau < 0):
            raise InputError("tau must be strictly negative")
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
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
        """The constraint families in row order; a family has one row per index of its shape."""
        n, M, K = self.n, self.M, self.K
        return [
            {"family": "indicator_binary", "index": ["i", "j", "k"], "shape": [n, M, K]},
            {"family": "one_piece_per_point", "index": ["i"], "shape": [n]},
            {"family": "product_link", "index": ["i", "j"], "shape": [n, M]},
            {"family": "halfspace_activation", "index": ["i", "j", "k"], "shape": [n, M, K]},
        ]

    def objective(self) -> dict:
        """The residual template over point i; the objective sums its squares over i < n.

        A term's coefficient is a number or the data reference ["X", "i", l],
        meaning X[i][l]; the constant is -y[i].  The default model's terms come
        first, then each piece's, gated by prod[i, j].
        """
        terms = []
        for j in range(self.M + 1):
            gate = [["prod", "i", j - 1]] if j else []
            terms.append({"coeff": 1.0, "vars": gate + [["beta", j, 0]]})
            terms.extend(
                {"coeff": ["X", "i", l], "vars": gate + [["beta", j, l + 1]]} for l in range(self.d)
            )
        return {
            "sense": "minimize",
            "form": "sum over i < n of residual(i) squared",
            "residual": {
                "index": ["i"],
                "shape": [self.n],
                "constant": {"negated": ["y", "i"]},
                "terms": terms,
            },
        }

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
        """Violation magnitude per constraint row (0 when satisfied), in constraints() row order."""
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
    return MipInstance(n=data.n, d=data.d, M=M, K=K, tau=tau, X=data.X, y=data.y)


def instance_to_doc(instance: MipInstance) -> dict:
    return {
        "version": MIP_SCHEMA_VERSION,
        "note": (
            "indicators are binary: the quadratic row ind*(1-ind)=0 pins each "
            "ind to {0,1}; prod rows are their per-piece products.  Each "
            "constraint family and the residual template expand over their "
            "index shapes in C order"
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
        "objective": instance.objective(),
        "constraints": instance.constraints(),
        "data": {"X": instance.X.tolist(), "y": instance.y.tolist()},
    }


def export_mip(instance: MipInstance, path) -> None:
    """Write the program as canonical JSON, with the writer that models use."""
    _dump(instance_to_doc(instance), path)


def _instance_from_doc(doc) -> MipInstance:
    version = _integer(doc["version"], "version")
    if version != MIP_SCHEMA_VERSION:
        raise SchemaError(f"unsupported document version {version}")
    n, d, M, K = (_integer(doc[key], key) for key in ("n", "d", "M", "K"))
    X = np.array(_numbers(doc["data"]["X"], "X"), dtype=float).reshape(n, d)
    y = np.array(_numbers(doc["data"]["y"], "y"), dtype=float)
    instance = MipInstance(n, d, M, K, _number(doc["tau"], "tau"), X, y)
    counts = doc["counts"]
    if (counts["constraints"], counts["local_continuous_variables"]) != (
        instance.constraint_count,
        instance.local_continuous_count,
    ):
        raise SchemaError("document header counts disagree with its declared sizes")
    if doc["constraints"] != instance.constraints() or doc["objective"] != instance.objective():
        raise SchemaError("constraint families or residual template disagree with the sizes")
    return instance


def load_mip(path) -> MipInstance:
    """Read an exported program back into an instance, checking it against its sizes."""
    return _load(path, _instance_from_doc)
