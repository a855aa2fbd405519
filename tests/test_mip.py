"""Mixed-integer program export: sizes, serialization, and a feasible witness."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from calr import mip
from calr.dataset import Dataset, generate_separable
from calr.exceptions import InputError, SchemaError
from calr.fitting import FitConfig, cas2, cas_calr, naive_calr
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


def model_assignment(instance, model):
    """A piecewise model written as an assignment of the program's variable blocks.

    beta[0] is the default's coefficients and beta[j+1] piece j's minus the
    default's; half-space slots that piece j does not use hold alpha=0,
    gamma=-1, which every point satisfies.
    """
    M, K, d = instance.M, instance.K, instance.d
    beta = np.zeros((M + 1, d + 1))
    beta[0] = model.default.coeffs
    alpha = np.zeros((M, K, d))
    gamma = np.full((M, K), -1.0)
    for j, (f, area) in enumerate(model.pieces):
        beta[j + 1] = f.coeffs - model.default.coeffs
        assert len(area.halfspaces) <= K
        for k, h in enumerate(area.halfspaces):
            alpha[j, k] = h.alpha
            gamma[j, k] = h.gamma
    ind = (np.inner(instance.X, alpha) + gamma <= 0.0).astype(float)
    return {"beta": beta, "alpha": alpha, "gamma": gamma, "ind": ind, "prod": ind.prod(axis=2)}


# -- schema version 1, kept as the reference that a v2 document must expand to --


def v1_constraint_rows(n, M, K):
    """Version 1's constraint rows, one dict per row, grouped by family."""
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


def v1_residual(i, x, constant, M):
    """Version 1's entry for point i: default terms, then each piece's gated by prod[i, j]."""
    terms = [{"coeff": 1.0, "vars": [["beta", 0, 0]]}]
    for l, v in enumerate(x):
        terms.append({"coeff": v, "vars": [["beta", 0, l + 1]]})
    for j in range(M):
        terms.append({"coeff": 1.0, "vars": [["prod", i, j], ["beta", j + 1, 0]]})
        for l, v in enumerate(x):
            terms.append({"coeff": v, "vars": [["prod", i, j], ["beta", j + 1, l + 1]]})
    return {"point": i, "constant": constant, "terms": terms}


def family_rows(families):
    """One row per index of each family's shape, in C order."""
    for family in families:
        for idx in np.ndindex(*family["shape"]):
            yield {"family": family["family"], **dict(zip(family["index"], idx))}


def residual_entries(doc):
    """The residual template of a v2 document, substituted for each point i."""
    template = doc["objective"]["residual"]

    def value(coeff, i):
        if not isinstance(coeff, list):
            return coeff
        v = doc["data"][coeff[0]]
        for key in coeff[1:]:
            v = v[i if key == "i" else key]
        return v

    for (i,) in np.ndindex(*template["shape"]):
        terms = [
            {
                "coeff": value(t["coeff"], i),
                "vars": [[i if key == "i" else key for key in var] for var in t["vars"]],
            }
            for t in template["terms"]
        ]
        constant = -value(template["constant"]["negated"], i)
        yield {"point": i, "constant": constant, "terms": terms}


def assert_expands_to_v1(instance, path):
    """The exported document, expanded, gives every v1 row, term and constant exactly."""
    doc = json.loads(path.read_text())
    got_rows = list(family_rows(doc["constraints"]))
    assert got_rows == list(v1_constraint_rows(instance.n, instance.M, instance.K))
    want = [
        v1_residual(i, x, -v, instance.M)
        for i, (x, v) in enumerate(zip(instance.X.tolist(), instance.y.tolist()))
    ]
    # json text compares reals exactly, nan and -0.0 included.
    assert json.dumps(list(residual_entries(doc))) == json.dumps(want)


def test_pinned_variable_and_constraint_counts():
    instance = tiny_instance(n=10, d=2, M=2, K=3)
    assert instance.local_continuous_count == 24  # (d+1)(K+1)M = 3*4*2
    assert instance.constraint_count == 150  # n(M(2K+1)+1) = 10*(2*7+1)
    assert sum(np.prod(f["shape"]) for f in instance.constraints()) == 150


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
                    assert sum(np.prod(f["shape"]) for f in instance.constraints()) == want
                    blocks = {b["name"]: b for b in instance.variable_blocks()}
                    assert blocks["beta"]["shape"] == [M + 1, d + 1]
                    assert blocks["ind"]["shape"] == [n, M, K]
                    assert blocks["ind"]["kind"] == "binary"
                    doc = instance_to_doc(instance)
                    assert len(doc["objective"]["residual"]["terms"]) == (1 + d) * (M + 1)
                    terms = list(residual_entries(doc))
                    assert len(terms) == n
                    for i, entry in enumerate(terms):
                        assert entry["constant"] == -float(data.y[i])
                        assert len(entry["terms"]) == (1 + d) * (M + 1)


def test_constraint_families_are_complete():
    instance = tiny_instance(n=4, d=1, M=2, K=2)
    by_family = {}
    for row in family_rows(instance.constraints()):
        by_family[row["family"]] = by_family.get(row["family"], 0) + 1
    assert [f["family"] for f in instance.constraints()] == list(by_family)
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
    # Sizes are integers: a float or a string is not truncated or parsed.
    for M, K in ((1.5, 1), (1, 2.7), ("1", 1), (1, None)):
        with pytest.raises(InputError):
            MipInstance(n=5, d=2, M=M, K=K, tau=-1e-6, X=X, y=y)
        with pytest.raises(InputError):
            build_mip(Dataset(X=X, y=y), M=M, K=K)
    with pytest.raises(InputError):
        MipInstance(n=5.0, d=2, M=1, K=1, tau=-1e-6, X=X, y=y)
    with pytest.raises(InputError):
        MipInstance(n=5, d=2, M=True, K=1, tau=-1e-6, X=X, y=y)
    # tau is a real number: a string is not parsed, None is no value.
    for tau in ("-1e-6", None):
        with pytest.raises(InputError, match="tau must be strictly negative"):
            MipInstance(n=5, d=2, M=1, K=1, tau=tau, X=X, y=y)
    with pytest.raises(InputError, match="tau must be strictly negative"):
        build_mip(Dataset(X=X, y=y), M=1, K=1, tau="-1e-6")
    assert build_mip(Dataset(X=X, y=y), M=1, K=1, tau=-1) == build_mip(
        Dataset(X=X, y=y), M=1, K=1, tau=np.float64(-1.0))
    instance = build_mip(Dataset(X=X, y=y), M=np.int64(2), K=np.int64(3))
    assert (type(instance.M), type(instance.K)) == (int, int)


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
    assert_expands_to_v1(instance, path)


def test_export_writes_non_finite_reals_as_json_does(tmp_path):
    X = np.array([[np.inf, -np.inf], [np.nan, 1.0]])
    instance = MipInstance(n=2, d=2, M=1, K=2, tau=-np.inf, X=X, y=np.array([np.nan, -np.inf]))
    path = tmp_path / "program.json"
    export_mip(instance, path)
    assert path.read_text() == json.dumps(instance_to_doc(instance), sort_keys=True, indent=2) + "\n"
    assert_expands_to_v1(instance, path)


def test_a_larger_export_expands_to_every_v1_row_and_term(tmp_path):
    data, _ = generate_separable(60, 3, 2, 0.01, 1.0, seed=5)
    instance = build_mip(data, M=3, K=5)
    path = tmp_path / "program.json"
    export_mip(instance, path)
    assert_expands_to_v1(instance, path)
    assert len(list(family_rows(instance.constraints()))) == instance.constraint_count


def test_export_uses_the_model_writer(tmp_path, monkeypatch):
    written = []
    monkeypatch.setattr(mip, "_dump", lambda doc, path: written.append((doc, path)))
    instance = tiny_instance(n=3)
    export_mip(instance, tmp_path / "p.json")
    assert len(written) == 1
    doc, path = written[0]
    assert path == tmp_path / "p.json"
    assert json.dumps(doc, sort_keys=True) == json.dumps(instance_to_doc(instance), sort_keys=True)


def test_load_rejects_corrupt_documents(tmp_path):
    instance = tiny_instance()
    path = tmp_path / "mip.json"
    export_mip(instance, path)
    doc = json.loads(path.read_text())

    bad = dict(doc, version=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError, match="unsupported document version 1"):
        load_mip(path)

    bad = dict(doc)
    bad["counts"] = dict(doc["counts"], constraints=doc["counts"]["constraints"] + 1)
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError, match="counts disagree"):
        load_mip(path)

    families = doc["constraints"]
    template = doc["objective"]["residual"]

    def with_template(**changes):
        return dict(doc, objective=dict(doc["objective"], residual=dict(template, **changes)))

    for bad in (
        dict(doc, constraints=families[:-1]),
        dict(doc, constraints=[dict(families[0], shape=[10, 2, 4])] + families[1:]),
        dict(doc, constraints=[families[1], families[0]] + families[2:]),
        with_template(shape=[9]),
        with_template(terms=template["terms"][:-1]),
        with_template(constant={"negated": ["X", "i", 0]}),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="residual template disagree with the sizes"):
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


def test_load_requires_integer_sizes(tmp_path):
    instance = tiny_instance(n=1, d=1, M=1, K=3)
    path = tmp_path / "mip.json"
    export_mip(instance, path)
    doc = json.loads(path.read_text())
    assert load_mip(path) == instance
    wrong = (("M", True), ("n", True), ("d", True), ("K", 3.9), ("K", 3.0), ("version", 2.0))
    for field, value in wrong:
        path.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(SchemaError, match=f"'{field}' must be an integer"):
            load_mip(path)


def test_planted_assignment_is_feasible_and_optimal():
    data, truth = generate_separable(60, 2, 2, 0.0, 1.0, seed=12)
    instance = build_mip(data, M=2, K=4)
    assert [len(area) for _, area in truth.model.pieces] == [4, 4]  # no padded slot
    assignment = model_assignment(instance, truth.model)
    violations = instance.constraint_violations(assignment)
    assert violations.shape == (instance.constraint_count,)
    assert float(np.max(violations)) <= 1e-9
    assert_allclose(instance.residuals(assignment), np.zeros(60), atol=1e-12)
    assert instance.evaluate_objective(assignment) <= 1e-18


def _fitted(kind, seed, max_affine_data):
    """(data, model) for one fixed input of each solver."""
    if kind == "cas_calr":  # fit-lp's inputs: n=1000, (d, m) in ((2, 2), (3, 2), (2, 4))
        d, m = {0: (2, 2), 1: (3, 2), 2: (2, 4)}[seed]
        data, _ = generate_separable(1000, d, m, 0.01, 1.0, seed=seed)
        return data, cas_calr(data, FitConfig(m=m, seed=seed + 1000))
    if kind == "strip":  # assembly carves a strip area here
        data = max_affine_data(seed)
        return data, cas_calr(data, FitConfig(m=2, seed=seed, max_samples=3000))
    if kind == "cas2":
        data, _ = generate_separable(500, 2, 1, 0.01, 1.0, seed=seed)
        return data, cas2(data, FitConfig(m=1, seed=seed))
    data, _ = generate_separable(13, 1, 1, 0.01, 1.0, seed=seed)
    return data, naive_calr(data)


@pytest.mark.parametrize(
    "kind, seed",
    [("cas_calr", 0), ("cas_calr", 1), ("cas_calr", 2), ("strip", 43), ("cas2", 0), ("naive", 0)],
)
def test_a_fitted_model_is_a_feasible_assignment_with_its_sse(max_affine_data, kind, seed):
    data, model = _fitted(kind, seed, max_affine_data)
    K = max(len(area) for _, area in model.pieces)
    instance = build_mip(data, M=model.m, K=K)
    assignment = model_assignment(instance, model)
    assert float(np.max(instance.constraint_violations(assignment))) == 0.0
    sse = float(np.sum((model.predict_batch(data.X) - data.y) ** 2))
    assert instance.evaluate_objective(assignment) == pytest.approx(sse, rel=1e-9, abs=0)


def test_flipping_an_indicator_breaks_feasibility():
    data, truth = generate_separable(60, 2, 2, 0.0, 1.0, seed=12)
    instance = build_mip(data, M=2, K=4)
    assignment = model_assignment(instance, truth.model)
    assignment["ind"][0, 0, 0] = 1.0 - assignment["ind"][0, 0, 0]
    violations = instance.constraint_violations(assignment)
    assert float(np.max(violations)) > 1e-6


def _violations_row_by_row(instance, assignment):
    """One violation per row of each family's index grid, computed from that row's own fields."""
    ind, prod = assignment["ind"], assignment["prod"]
    out = []
    for row in family_rows(instance.constraints()):
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
