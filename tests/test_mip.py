"""Mixed-integer program export: sizes, serialization, and a feasible witness."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from calr.dataset import Dataset, generate_separable
from calr.exceptions import InputError, SchemaError
from calr.mip import (
    MipInstance,
    build_mip,
    default_tau,
    export_mip,
    instance_to_doc,
    load_mip,
)


def tiny_instance(n=10, d=2, M=2, K=3, seed=0):
    rng = np.random.default_rng(seed)
    data = Dataset(X=rng.uniform(-2.0, 2.0, size=(n, d)), y=rng.normal(size=n))
    return build_mip(data, M=M, K=K)


def planted_assignment(instance, truth):
    """Variable assignment reproducing a planted model, piece areas as given."""
    M, K, n = instance.M, instance.K, instance.n
    beta = np.zeros((M + 1, instance.d + 1))
    beta[0] = truth.model.default.coeffs
    alpha = np.zeros((M, K, instance.d))
    gamma = np.zeros((M, K))
    for j, (f, area) in enumerate(truth.model.pieces):
        beta[j + 1] = f.coeffs - truth.model.default.coeffs
        assert len(area.halfspaces) == K
        for k, h in enumerate(area.halfspaces):
            alpha[j, k] = h.alpha
            gamma[j, k] = h.gamma
    ind = np.zeros((n, M, K))
    for j in range(M):
        for k in range(K):
            vals = instance.X @ alpha[j, k] + gamma[j, k]
            ind[:, j, k] = (vals <= 0.0).astype(float)
    prod = ind.prod(axis=2)
    return {"beta": beta, "alpha": alpha, "gamma": gamma, "ind": ind, "prod": prod}


def test_pinned_variable_and_constraint_counts():
    instance = tiny_instance(n=10, d=2, M=2, K=3)
    assert instance.local_continuous_count == 24  # (d+1)(K+1)M = 3*4*2
    assert instance.constraint_count == 150  # n(M(2K+1)+1) = 10*(2*7+1)
    assert len(instance.constraints()) == 150


def test_counts_hold_across_a_small_grid():
    rng = np.random.default_rng(1)
    for n in (3, 5):
        for d in (1, 3):
            for M in (1, 4):
                for K in (1, 5):
                    data = Dataset(
                        X=rng.uniform(size=(n, d)), y=rng.uniform(size=n)
                    )
                    instance = build_mip(data, M=M, K=K)
                    assert instance.local_continuous_count == (d + 1) * (K + 1) * M
                    want = n * (M * (2 * K + 1) + 1)
                    assert instance.constraint_count == want
                    assert len(instance.constraints()) == want
                    blocks = {b["name"]: b for b in instance.variable_blocks()}
                    assert blocks["beta"]["shape"] == [M + 1, d + 1]
                    assert blocks["ind"]["shape"] == [n, M, K]
                    assert blocks["ind"]["kind"] == "binary"
                    terms = instance.objective_terms()
                    assert len(terms) == n
                    for i, entry in enumerate(terms):
                        assert entry["constant"] == -float(data.y[i])
                        assert len(entry["terms"]) == (1 + d) * (M + 1)


def test_constraint_families_are_complete():
    instance = tiny_instance(n=4, d=1, M=2, K=2)
    rows = instance.constraints()
    by_family = {}
    for row in rows:
        by_family[row["family"]] = by_family.get(row["family"], 0) + 1
    assert by_family == {
        "indicator_binary": 4 * 2 * 2,
        "one_piece_per_point": 4,
        "product_link": 4 * 2,
        "halfspace_activation": 4 * 2 * 2,
    }


def test_instance_validation():
    rng = np.random.default_rng(2)
    X, y = rng.uniform(size=(5, 2)), rng.uniform(size=5)
    with pytest.raises(InputError):
        MipInstance(n=5, d=2, M=0, K=1, tau=-1e-6, X=X, y=y)
    with pytest.raises(InputError):
        MipInstance(n=5, d=2, M=1, K=0, tau=-1e-6, X=X, y=y)
    with pytest.raises(InputError):
        MipInstance(n=5, d=2, M=1, K=1, tau=0.0, X=X, y=y)
    with pytest.raises(InputError):
        MipInstance(n=4, d=2, M=1, K=1, tau=-1e-6, X=X, y=y)


def test_default_tau_scales_with_the_data():
    assert default_tau(np.array([[9.0, -3.0]])) == -1e-6 * 10.0
    data = Dataset(X=np.array([[0.5], [1.5]]), y=np.zeros(2))
    assert build_mip(data, M=1, K=1).tau == default_tau(data.X)


def test_export_round_trip_and_determinism(tmp_path):
    instance = tiny_instance()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    export_mip(instance, p1)
    export_mip(instance, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_mip(p1)
    assert back == instance


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("M, K", [(1, 1), (2, 3), (3, 1)])
def test_export_is_byte_identical_to_the_json_dump_of_the_document(tmp_path, n, d, M, K):
    rng = np.random.default_rng(n * 100 + d * 10 + M + K)
    special = [-0.0, 0.0, 1e-300, -1e300, 1e300, 5e-324, 3.0, -17.0, 2.0**60]
    X = rng.choice(special, size=(n, d)) if n else np.zeros((0, d))
    if n > 1:
        X[1] = rng.normal(size=d) * 1e5
    y = rng.choice(special + [0.1, float(np.pi)], size=n)
    instance = MipInstance(n=n, d=d, M=M, K=K, tau=-1e-6 * (1 + n), X=X, y=y)
    path = tmp_path / "program.json"
    export_mip(instance, path)
    want = json.dumps(instance_to_doc(instance), sort_keys=True, indent=2) + "\n"
    assert path.read_text() == want


def test_export_writes_non_finite_reals_as_json_does(tmp_path):
    X = np.array([[np.inf, -np.inf], [np.nan, 1.0]])
    instance = MipInstance(n=2, d=2, M=1, K=2, tau=-np.inf, X=X, y=np.array([np.nan, -np.inf]))
    path = tmp_path / "program.json"
    export_mip(instance, path)
    assert path.read_text() == json.dumps(instance_to_doc(instance), sort_keys=True, indent=2) + "\n"


def test_load_rejects_corrupt_documents(tmp_path):
    instance = tiny_instance()
    path = tmp_path / "mip.json"
    export_mip(instance, path)
    doc = json.loads(path.read_text())

    bad = dict(doc, version=2)
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError):
        load_mip(path)

    bad = dict(doc)
    bad["counts"] = dict(doc["counts"], constraints=doc["counts"]["constraints"] + 1)
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError):
        load_mip(path)

    bad = {k: v for k, v in doc.items() if k != "data"}
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError, match="missing required key 'data'"):
        load_mip(path)

    for field, value in (("counts", [1]), ("n", float("inf")), ("K", "x")):
        path.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(SchemaError, match="malformed document"):
            load_mip(path)

    path.write_text("...")
    with pytest.raises(SchemaError):
        load_mip(path)


def test_planted_assignment_is_feasible_and_optimal():
    data, truth = generate_separable(60, 2, 2, 0.0, 1.0, seed=12)
    instance = build_mip(data, M=2, K=4)
    assignment = planted_assignment(instance, truth)
    violations = instance.constraint_violations(assignment)
    assert violations.shape == (instance.constraint_count,)
    assert float(np.max(violations)) <= 1e-9
    assert_allclose(instance.residuals(assignment), np.zeros(60), atol=1e-12)
    assert instance.evaluate_objective(assignment) <= 1e-18


def test_flipping_an_indicator_breaks_feasibility():
    data, truth = generate_separable(60, 2, 2, 0.0, 1.0, seed=12)
    instance = build_mip(data, M=2, K=4)
    assignment = planted_assignment(instance, truth)
    assignment["ind"][0, 0, 0] = 1.0 - assignment["ind"][0, 0, 0]
    violations = instance.constraint_violations(assignment)
    assert float(np.max(violations)) > 1e-6


def _violations_row_by_row(instance, assignment):
    """One violation per row of instance.constraints(), computed from that row's own fields."""
    ind, prod = assignment["ind"], assignment["prod"]
    out = []
    for row in instance.constraints():
        family = row["family"]
        if family == "indicator_binary":
            v = ind[row["i"], row["j"], row["k"]]
            out.append(abs(v * (1.0 - v)))
        elif family == "one_piece_per_point":
            out.append(max(0.0, float(prod[row["i"]].sum()) - 1.0))
        elif family == "product_link":
            expected = float(np.prod(ind[row["i"], row["j"]]))
            out.append(abs(float(prod[row["i"], row["j"]]) - expected))
        else:
            i, j, k = row["i"], row["j"], row["k"]
            value = float(assignment["alpha"][j, k] @ instance.X[i] + assignment["gamma"][j, k])
            out.append(max(0.0, (ind[i, j, k] - 0.5) * value - instance.tau))
    return np.array(out)


@pytest.mark.parametrize("n, d, M, K", [(60, 2, 2, 4), (60, 5, 3, 2), (7, 1, 1, 1), (0, 2, 2, 2)])
def test_constraint_violations_match_the_row_by_row_oracle(n, d, M, K):
    instance = tiny_instance(n=n, d=d, M=M, K=K, seed=n + d)
    rng = np.random.default_rng(d * 10 + M)
    assignment = {
        "alpha": rng.normal(size=(M, K, d)),
        "gamma": rng.normal(size=(M, K)),
        "ind": rng.uniform(-0.5, 1.5, size=(n, M, K)),
        "prod": rng.uniform(-0.5, 1.5, size=(n, M)),
    }
    got = instance.constraint_violations(assignment)
    want = _violations_row_by_row(instance, assignment)
    assert got.shape == want.shape == (instance.constraint_count,)
    assert np.array_equal(got, want)
