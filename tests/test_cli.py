"""End-to-end command-line checks through real subprocesses."""

import hashlib
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

from calr.calf import CalfModel
from calr.dataset import Dataset, load_csv, write_csv
from calr.linreg import LinearModel, mse
from calr.mip import load_mip
from calr.model_io import load_model, save_model


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "calr", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def plateau_csv(path):
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0])
    write_csv(Dataset(X=X, y=y), path)


def test_generation_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        r = run_cli("gen", "--n", 40, "--d", 2, "--m", 1, "--sigma", 0.05,
                    "--seed", 7, "--out", out)
        assert r.returncode == 0, r.stderr
        assert "wrote 40 rows" in r.stdout
    assert a.read_bytes() == b.read_bytes()
    (tmp_path / "t.json").unlink(missing_ok=True)
    r = run_cli("gen", "--n", 40, "--d", 2, "--m", 1, "--sigma", 0.05,
                "--seed", 7, "--out", a, "--truth", tmp_path / "t.json")
    assert r.returncode == 0
    assert (tmp_path / "t.json").exists()


def test_fit_eval_round_trip_matches_the_library(tmp_path):
    data_path = tmp_path / "data.csv"
    r = run_cli("gen", "--n", 120, "--d", 2, "--m", 1, "--sigma", 0.02,
                "--seed", 3, "--out", data_path)
    assert r.returncode == 0, r.stderr
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (m1, m2):
        r = run_cli("fit", "--data", data_path, "--m", 1, "--seed", 11,
                    "--out", out, "--report", tmp_path / "report.txt")
        assert r.returncode == 0, r.stderr
    assert m1.read_bytes() == m2.read_bytes()
    report = (tmp_path / "report.txt").read_text()
    assert "status: ok" in report
    assert "algorithm: cas" in report
    assert "pieces: 1" in report
    assert "samples consumed:" in report and "epsilon:" in report

    model = load_model(m1)
    data = load_csv(data_path)
    want = mse(model, data)
    r = run_cli("eval", "--model", m1, "--data", data_path)
    assert r.returncode == 0
    assert f"mse: {want!r}" in r.stdout  # CLI output matches the library bit for bit

    r = run_cli("eval", "--model", m1, "--data", data_path, "--bound", 1.0)
    assert "decision (mse < 1.0): PASS" in r.stdout
    r = run_cli("eval", "--model", m1, "--data", data_path, "--bound", 1e-12)
    assert "decision (mse < 1e-12): FAIL" in r.stdout


def test_eval_bound_is_strict(tmp_path):
    data_path, model_path = tmp_path / "data.csv", tmp_path / "model.json"
    # Residuals are 0, 0, 3; the mean squared error is exactly 3.
    write_csv(Dataset(X=np.array([[0.0], [1.0], [2.0]]), y=np.array([1.0, 1.0, 4.0])), data_path)
    save_model(CalfModel(default=LinearModel(coeffs=np.array([1.0, 0.0]))), model_path)
    for bound, verdict in ((3.0001, "PASS"), (3.0, "FAIL"), (2.9, "FAIL")):
        r = run_cli("eval", "--model", model_path, "--data", data_path, "--bound", bound)
        assert r.returncode == 0, r.stderr
        assert "mse: 3.0" in r.stdout.splitlines()
        assert f"decision (mse < {bound!r}): {verdict}" in r.stdout


def test_fit_exhaustion_exits_2_and_writes_the_fallback(tmp_path):
    data_path = tmp_path / "data.csv"
    run_cli("gen", "--n", 100, "--d", 2, "--m", 2, "--sigma", 0.02,
            "--seed", 5, "--out", data_path)
    out = tmp_path / "fallback.json"
    r = run_cli("fit", "--data", data_path, "--m", 2, "--seed", 1,
                "--max-samples", 1, "--out", out, "--report", tmp_path / "r.txt")
    assert r.returncode == 2
    assert "budget exhausted" in r.stdout
    fallback = load_model(out)
    assert fallback.m == 0  # the global fit stands in for the missing pieces
    assert "status: budget exhausted" in (tmp_path / "r.txt").read_text()


def test_every_solver_and_outcome_saves_the_model_and_writes_the_report(tmp_path):
    small, two, one = tmp_path / "small.csv", tmp_path / "two.csv", tmp_path / "one.csv"
    plateau_csv(small)
    for path, m, seed, n in ((two, 2, 5, 100), (one, 1, 7, 300)):
        r = run_cli("gen", "--n", n, "--d", 2, "--m", m, "--sigma", 0.02, "--seed", seed,
                    "--out", path)
        assert r.returncode == 0, r.stderr
    exhausted = ("fit", "--data", two, "--m", 2, "--seed", 1, "--max-samples", 1)
    ok = ("fit", "--data", two, "--m", 2, "--seed", 1)
    runs = (
        (("fit", "--data", small, "--algo", "naive"), 0),
        (ok, 0),
        (("fit", "--data", one, "--algo", "cas2", "--m", 1, "--seed", 1), 0),
        (exhausted, 2),
        (("naive-fit", "--data", small), 0),
    )
    for k, (argv, code) in enumerate(runs):
        out, report = tmp_path / f"model{k}.json", tmp_path / f"report{k}.txt"
        r = run_cli(*argv, "--out", out, "--report", report)
        assert r.returncode == code, (argv, r.stderr)
        assert report.read_text() == r.stdout
        load_model(out)
    # An output that cannot be written fails the same way on every outcome.
    spent, done = (run_cli(*argv, "--out", "") for argv in (exhausted, ok))
    assert spent.returncode == 1 and spent.stderr.startswith("error: ")
    assert "wrote" not in spent.stdout
    assert (spent.returncode, spent.stdout, spent.stderr) == (
        done.returncode, done.stdout, done.stderr)


def option_help(text):
    """flag -> its entry in the options section of --help output."""
    entries, flag = {}, None
    for line in text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0]
            entries[flag] = line
        elif flag:
            entries[flag] += "\n" + line
    return entries


def test_fit_and_naive_fit_declare_their_shared_flags_once():
    fit, naive = (option_help(run_cli(cmd, "--help").stdout) for cmd in ("fit", "naive-fit"))
    shared = {"--data", "--cap", "--target-column", "--out", "--report"}
    assert set(naive) == shared | {"-h,"}
    assert all(fit[flag] == naive[flag] for flag in shared)
    assert "size cap" in naive["--cap"] and "text report" in naive["--report"]


def test_bad_inputs_exit_1(tmp_path):
    r = run_cli("fit", "--data", tmp_path / "missing.csv")
    assert r.returncode == 1 and "error:" in r.stderr
    data_path = tmp_path / "data.csv"
    plateau_csv(data_path)
    for algo in ("cas2", "naive"):
        r = run_cli("fit", "--data", data_path, "--algo", algo, "--m", 3)
        assert r.returncode == 1 and "exactly one piece (m=1)" in r.stderr, algo
    huge = tmp_path / "huge.csv"
    write_csv(Dataset(X=np.arange(9.0).reshape(-1, 1), y=1e200 * (np.arange(9.0) > 4)), huge)
    r = run_cli("fit", "--data", huge, "--algo", "naive")
    assert r.returncode == 1 and "sums of squares of y overflow" in r.stderr
    assert "Traceback" not in r.stderr
    write_csv(Dataset(X=1e160 * np.arange(9.0).reshape(-1, 1), y=np.arange(9.0) > 4), huge)
    r = run_cli("fit", "--data", huge, "--algo", "naive")
    assert r.returncode == 1 and "squared distances of the points overflow" in r.stderr
    assert "Traceback" not in r.stderr
    gen = ("gen", "--n", 40, "--d", 1, "--m", 1, "--out", tmp_path / "gen.csv")
    fit = ("fit", "--data", data_path)
    for argv, flag, value, message in (
        (fit, "--delta", 0, "must be finite and positive"),
        (fit, "--delta", "nan", "must be finite and positive"),
        (fit, "--epsilon", "nan", "must be finite and positive"),
        (fit, "--epsilon", "inf", "must be finite and positive"),
        (fit, "--seed", -1, "seed must be a nonnegative integer"),
        (gen, "--seed", -1, "seed must be a nonnegative integer"),
        (gen, "--sigma", "nan", "sigma must be finite and nonnegative"),
    ):
        r = run_cli(*argv, flag, value)
        assert r.returncode == 1 and message in r.stderr, (argv[0], flag, value)
        assert "Traceback" not in r.stderr
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    model = {"version": 1, "d": 1, "default": {"coeffs": [0.0, 1.0]}, "pieces": []}
    untyped = tmp_path / "untyped.json"
    untyped.write_text(json.dumps(dict(model, pieces=None)))
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps(dict(model, default={"coeffs": 5})))
    for model_path, message in ((tmp_path / "nope.json", "cannot read"),
                                (listed, "not a JSON object"),
                                (untyped, "untyped.json: malformed document"),
                                (scalar, "coeffs must be a 1-D vector")):
        for argv in (("eval", "--model", model_path, "--data", data_path),
                     ("predict", "--model", model_path, "--data", data_path,
                      "--out", tmp_path / "p.csv")):
            r = run_cli(*argv)
            assert r.returncode == 1, (argv, r.stderr)
            assert r.stderr.startswith("error: ") and message in r.stderr
            assert "Traceback" not in r.stderr
    r = run_cli("gen", "--n", 10)  # missing required flags
    assert r.returncode == 1


@pytest.mark.parametrize("command, flag", [
    ("gen", "--out"), ("gen", "--truth"), ("fit", "--out"), ("fit", "--report"),
    ("predict", "--out"), ("export-mip", "--out"), ("pldc-convert", "--out"),
])
def test_an_output_under_a_missing_directory_exits_1(tmp_path, command, flag):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    model_path = tmp_path / "model.json"
    save_model(CalfModel(default=LinearModel(coeffs=np.array([0.0, 1.0]))), model_path)
    spec = tmp_path / "spec.json"
    term = {"a": [1.0], "c": 0.0}
    spec.write_text(json.dumps({"plus_terms": [term], "minus_terms": [term]}))
    inputs = {
        "gen": ("--n", 20, "--d", 1, "--m", 1),
        "fit": ("--data", data_path, "--algo", "naive"),
        "predict": ("--model", model_path, "--data", data_path),
        "export-mip": ("--data", data_path, "--m", 1, "--k", 2),
        "pldc-convert": ("--spec", spec),
    }[command]
    # The command's other outputs go to their defaults in tmp_path.
    r = run_cli(command, *inputs, flag, tmp_path / "missing" / "out", cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: ") and "missing" in r.stderr
    assert "Traceback" not in r.stderr


def test_eval_reports_an_oversized_csv_cell_as_an_error(tmp_path):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    model_path = tmp_path / "model.json"
    assert run_cli("naive-fit", "--data", data_path, "--out", model_path).returncode == 0
    huge = tmp_path / "huge.csv"
    huge.write_text("x1,y\n0.0,\"" + "1" * 200_000 + "\"\n")
    r = run_cli("eval", "--model", model_path, "--data", huge)
    assert r.returncode == 1
    assert "error:" in r.stderr and "field larger than field limit" in r.stderr
    assert "Traceback" not in r.stderr


def test_eval_reports_an_overflowing_residual_sum_as_an_error(tmp_path):
    data_path, model_path = tmp_path / "data.csv", tmp_path / "model.json"
    write_csv(Dataset(X=np.array([[1e200], [-1e200], [0.0]]), y=np.zeros(3)), data_path)
    save_model(CalfModel(default=LinearModel(coeffs=np.array([0.0, 0.5]))), model_path)
    r = run_cli("eval", "--model", model_path, "--data", data_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: the residual sum of squares overflows")
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr


def test_naive_fit_past_62_rows_exits_1(tmp_path):
    data_path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    write_csv(Dataset(X=rng.uniform(size=(70, 1)), y=rng.uniform(size=70)), data_path)
    r = run_cli("fit", "--data", data_path, "--algo", "naive", "--cap", 100,
                "--out", tmp_path / "model.json")
    assert r.returncode == 1
    assert r.stderr.startswith("error: subset enumeration takes at most 62 points")
    assert "got n=70" in r.stderr and "Traceback" not in r.stderr


def test_csv_commands_report_an_undecodable_byte_as_an_error(tmp_path):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    model_path = tmp_path / "model.json"
    assert run_cli("naive-fit", "--data", data_path, "--out", model_path).returncode == 0
    in_header, in_body = tmp_path / "header.csv", tmp_path / "body.csv"
    in_header.write_bytes(b"x1,\xffy\n0.0,1.0\n1.0,2.0\n")
    in_body.write_bytes(b"x1,y\n0.0,1.0\n1.0,2.0\xff\n")
    runs = [
        (("eval", "--model", model_path, "--data", in_header), 1),
        (("eval", "--model", model_path, "--data", in_body), 3),
        (("fit", "--data", in_body, "--out", tmp_path / "m.json"), 3),
        (("predict", "--model", model_path, "--data", in_body, "--out", tmp_path / "p.csv"), 3),
        (("export-mip", "--data", in_body, "--m", 1, "--k", 2, "--out", tmp_path / "p.json"), 3),
    ]
    for argv, row in runs:
        r = run_cli(*argv)
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stderr.startswith("error: byte 0xff does not decode") and f"(row {row})" in r.stderr
        assert "Traceback" not in r.stderr


def test_naive_fit_recovers_the_plateau(tmp_path):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    out = tmp_path / "model.json"
    r = run_cli("naive-fit", "--data", data_path, "--out", out)
    assert r.returncode == 0, r.stderr
    assert "algorithm: naive" in r.stdout
    model = load_model(out)
    assert model.m == 1
    assert_allclose(model.pieces[0][0].coeffs, [5.0, 0.0], atol=1e-9)
    r = run_cli("fit", "--data", data_path, "--algo", "naive", "--out", out)
    assert r.returncode == 0
    assert load_model(out) == model


def test_predict_accepts_both_csv_widths(tmp_path):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    model_path = tmp_path / "model.json"
    run_cli("naive-fit", "--data", data_path, "--out", model_path)

    with_target = tmp_path / "preds1.csv"
    r = run_cli("predict", "--model", model_path, "--data", data_path,
                "--out", with_target)
    assert r.returncode == 0
    header, rows = with_target.read_text().strip().split("\n", 1)
    assert header == "x1,prediction"
    got = np.array([[float(c) for c in line.split(",")] for line in rows.split("\n")])
    model = load_model(model_path)
    assert_allclose(got[:, 1], model.predict_batch(got[:, :1]), atol=0)

    features_only = tmp_path / "features.csv"
    features_only.write_text("x1\n1.5\n10.5\n")
    out2 = tmp_path / "preds2.csv"
    r = run_cli("predict", "--model", model_path, "--data", features_only, "--out", out2)
    assert r.returncode == 0
    assert "10.5" in out2.read_text()

    too_wide = tmp_path / "wide.csv"
    too_wide.write_text("a,b,c\n1,2,3\n")
    r = run_cli("predict", "--model", model_path, "--data", too_wide, "--out", tmp_path / "x.csv")
    assert r.returncode == 1


def test_export_mip_writes_a_loadable_program(tmp_path):
    data_path = tmp_path / "plateau.csv"
    plateau_csv(data_path)
    out = tmp_path / "program.json"
    r = run_cli("export-mip", "--data", data_path, "--m", 2, "--k", 3, "--out", out)
    assert r.returncode == 0
    assert "16 local continuous variables" in r.stdout  # (d+1)(K+1)M for d=1
    instance = load_mip(out)
    assert instance.M == 2 and instance.K == 3 and instance.n == 7
    assert instance.constraint_count == 7 * (2 * 7 + 1)


def test_pldc_convert_produces_a_working_model(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "plus_terms": [{"a": [1.0], "c": 0.0}, {"a": [-1.0], "c": 0.0}],
        "minus_terms": [{"a": [0.0], "c": 0.0}],
    }))
    out = tmp_path / "abs.json"
    r = run_cli("pldc-convert", "--spec", spec, "--out", out)
    assert r.returncode == 0
    model = load_model(out)
    for x in (-2.0, 0.5, 3.0):
        assert model.predict(np.array([x])) == pytest.approx(abs(x), abs=1e-12)
    bad = tmp_path / "bad.json"
    for text in ('{"plus_terms": []}', '{"plus_terms": 5, "minus_terms": []}'):
        bad.write_text(text)
        r = run_cli("pldc-convert", "--spec", bad, "--out", out)
        assert r.returncode == 1 and r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr


# sha256 of the data CSV and the --truth JSON that `calr gen` writes; they
# pin the generator's random stream and the CSV and JSON text.
GOLDEN_GEN = {
    (40, 1, 0, "0.0", 3): (
        "8cb31f9bb41bbb822c3aee6eb61b5ad3d3c33fa27968bfa3ca989f69302cbd42",
        "35b9b8d74fc3bde50db456a3e88c0d76dbb7ba8905f660094709a368755f1734",
    ),
    (3000, 3, 4, "0.05", 11): (
        "78d1374d5e563177f0a319e739a8052c1ec4f5d60d113b82379d17d93f7348d3",
        "7c9609d5ef52f3644d119c24aefb62c9802d27c6b5c9e88cbf72dc5804a3b455",
    ),
    (100_000, 2, 2, "0.01", 5): (
        "ef9e0790faa9d7d1edfe4cb4c5f8f41e0d9f06ecfb594f1612f9b8d36f5f56aa",
        "caa32799bfbad73324ab054d926553382e0dbf90315e88dc0973fd483e621f4a",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_GEN))
def test_generated_files_match_their_golden_hashes(tmp_path, shape):
    n, d, m, sigma, seed = shape
    data, truth = tmp_path / "data.csv", tmp_path / "truth.json"
    r = run_cli("gen", "--n", n, "--d", d, "--m", m, "--sigma", sigma,
                "--seed", seed, "--out", data, "--truth", truth)
    assert r.returncode == 0, r.stderr
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (data, truth))
    assert got == GOLDEN_GEN[shape]


def test_only_fitting_loads_scipy(tmp_path):
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import calr
        from calr import cli

        def run(*argv):
            assert cli.main([str(a) for a in argv]) == 0, argv

        run("gen", "--n", 200, "--d", 2, "--m", 1, "--sigma", 0.01, "--seed", 1,
            "--out", "data.csv", "--truth", "truth.json")
        calr.save_model(calr.load_truth("truth.json").model, "model.json")
        run("predict", "--model", "model.json", "--data", "data.csv", "--out", "pred.csv")
        run("eval", "--model", "model.json", "--data", "data.csv")
        run("export-mip", "--data", "data.csv", "--m", 1, "--k", 4, "--out", "program.json")
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)[:5]
        run("fit", "--data", "data.csv", "--m", 1, "--seed", 2, "--out", "fitted.json")
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
