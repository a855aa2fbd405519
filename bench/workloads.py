"""The benchmark's workloads, run one round at a time.

A workload builds its inputs when it is constructed, from its seed or
from a fixed list whose order the seed sets, then runs rounds, its
repeating unit, in a closed loop: one fit or one CLI command at a time.
Every operation returns a record with its wall seconds and whether it
failed; a failure is caught, recorded by type and never ends the run.

Why these workloads:

* fit-lp: ``cas_calr`` with the lp separator.  Separation (``_assemble`` ->
  ``cac`` -> ``gslp``) takes most of the fit time here, so a separation
  change shows on this workload.
* fit-exact: ``naive_calr`` enumerates every subset, so least squares and
  its F-test do nearly all the work and geometry is nearly absent.  A
  geometry change should show no effect here.
* pipeline: ``python -m calr`` run as a user would, one process per step.
  CSV I/O, batch prediction, model JSON, program export and the import of
  the package dominate; fitting is a small part.
* fit-svm: the svm separator (``cacs``/``svm_soft``) on planted one-piece
  data, with ``cas_calr`` and ``cas2``.  Runnable but not listed in
  BENCHMARK.json: its ``cas_calr`` fits escape with ``ConvergenceError`` on
  about half of the seeds and their times range over more than an order
  of magnitude, so it can be neither failure-free nor steady.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import calr
from calr import cli, fitting

SIGMA = 0.01
# How often a pipeline step's memory is sampled while it runs.
POLL_S = 0.01

# fit-lp fits every (d, m) shape at n=1000 on each data seed of its list.
LP_SHAPES = ((2, 2), (3, 2), (2, 4))
LP_DATA_SEEDS = (0, 1, 2, 3, 4, 5)
LP_N = 1000
# Distinct rounds of fit-svm inputs; later rounds reuse them in order.
INPUT_ROUNDS = 6

# fit-exact fits each (kind, d, n) on each data seed of its list.
EXACT_DATA_SEEDS = (0, 1, 2)
EXACT_ROUND = (
    ("step", 1, 12), ("planted", 1, 12), ("step", 2, 13),
    ("planted", 2, 13), ("step", 1, 14), ("planted", 2, 14),
)


def _best_matching_distance(truth, model):
    """Smallest worst-case coefficient distance over orderings of the fitted functions."""
    planted = list(truth.functions)
    fitted = [model.default] + [f for f, _ in model.pieces]
    if len(planted) != len(fitted):
        return float("inf")
    return min(
        max(calr.coefficient_distance(a, b) for a, b in zip(planted, perm))
        for perm in itertools.permutations(fitted)
    )


def _recovered(truth, model, data):
    """Planted functions recovered within distance 0.1 and mse <= 4 sigma^2."""
    return (
        _best_matching_distance(truth, model) <= 0.1
        and calr.mse(model, data) <= 4 * truth.noise_sigma**2
    )


def _timed(fn, *args):
    """(result, error type name, seconds) of one call; no exception escapes."""
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failed fit is counted, never fatal
        result, error = None, type(exc).__name__
    return result, error, time.perf_counter() - t0


def _fit_record(fn, data, m, config, tracer):
    """Run one fit; return (model or None, its record)."""
    with _tracing(tracer):
        model, error, seconds = _timed(fn, data) if config is None else _timed(fn, data, config)
    info = getattr(model, "fit_info", None) or {}
    return model, {
        "kind": "fit",
        "solver": fn.__name__,
        "n": data.n,
        "d": data.d,
        "m": m,
        "seconds": seconds,
        "rows": data.n,
        "error": error,
        "check": None,
        "draws": info.get("samples_used"),
        "attempts": info.get("attempts"),
        "accepted": len(info["accepted_p_values"]) if "accepted_p_values" in info else None,
        "recovered": None,
        "halfspaces": [len(area) for _, area in model.pieces] if model is not None else [],
    }


def _guarded(check, rec, *args):
    """Run an output check; one that raises fails its operation, not the run."""
    try:
        check(*args)
    except Exception as exc:  # a broken output must not end the workload
        rec["check"] = f"check raised {type(exc).__name__}: {exc}"


def _check_sampled_fit(model, rec, data, truth):
    """Output checks of a sampling fit: disjoint pieces on the training points."""
    if model is None:
        return
    overlap = calr.overlapping_training_points(model, data.X)
    rec["overlap"] = len(overlap)
    if len(overlap):
        rec["check"] = f"{len(overlap)} training points lie in two piece areas"
    elif len(model.pieces) < truth.model.m:
        rec["check"] = f"{len(model.pieces)} pieces for a planted m={truth.model.m}"
    rec["recovered"] = _recovered(truth, model, data)


class FitLp:
    """cas_calr, lp separator, n=1000: one pass over a fixed list per round.

    A fit's cost follows its draw count, which ranges over more than an
    order of magnitude between inputs, so a run of a few dozen seconds
    cannot time a steady median over fresh inputs.  Every run therefore
    fits the same list of (shape, data seed) inputs, and the workload seed
    sets the order in which a round visits them.
    """

    def __init__(self, seed):
        pool = []
        for s in LP_DATA_SEEDS:
            for d, m in LP_SHAPES:
                data, truth = calr.generate_separable(LP_N, d, m, SIGMA, 1.0, seed=s)
                pool.append((data, truth, calr.FitConfig(m=m, seed=s + 1000)))
        k = seed % len(pool)
        self.inputs = pool[k:] + pool[:k]

    def run_round(self, r, tracer):
        records = []
        for data, truth, config in self.inputs:
            model, rec = _fit_record(fitting.cas_calr, data, config.m, config, tracer)
            _guarded(_check_sampled_fit, rec, model, rec, data, truth)
            records.append(rec)
        return records


class FitSvm:
    """cas_calr (n=200) and cas2 (n=500) with the svm separator, m=1."""

    def __init__(self, seed):
        self.inputs = []
        for r in range(INPUT_ROUNDS):
            for k, (solver, n) in enumerate((("cas_calr", 200), ("cas2", 500))):
                s = seed * 100 + r * 2 + k
                data, truth = calr.generate_separable(n, 2, 1, SIGMA, 1.0, seed=s)
                config = calr.FitConfig(m=1, seed=s + 1000, separator="svm")
                self.inputs.append((solver, data, truth, config))

    def run_round(self, r, tracer):
        records = []
        base = (r % INPUT_ROUNDS) * 2
        for solver, data, truth, config in self.inputs[base : base + 2]:
            model, rec = _fit_record(getattr(fitting, solver), data, 1, config, tracer)
            _guarded(_check_sampled_fit, rec, model, rec, data, truth)
            records.append(rec)
        return records


def _exact_instance(kind, d, n, seed):
    """Step-shaped data as acceptance criterion 4 builds it, or planted m=1 data."""
    if kind == "planted":
        return calr.generate_separable(n, d, 1, SIGMA, 1.0, seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-4.0, 4.0, size=(n, d))
    y = 0.5 * X[:, 0] + rng.normal(0.0, 0.3, size=n)
    y[X[:, 0] > float(rng.uniform(-2.0, 2.0))] += 2.0
    return calr.Dataset(X=X, y=y), None


def _check_exact_fit(model, rec, data, truth):
    """naive_calr beats or ties the global fit, and its area holds exactly its subset."""
    if truth is not None:
        rec["recovered"] = _recovered(truth, model, data)
    X, y = data.X, data.y
    global_fit = calr.lr(data)
    sse = calr.mse(model, data) * data.n
    tie_tol = 1e-9 * max(1.0, float(np.sum((y - y.mean()) ** 2)))
    if sse > global_fit.mse * data.n + tie_tol:
        rec["check"] = "total squared error worse than the global fit"
        return
    if not model.pieces:
        if model.default != global_fit:
            rec["check"] = "zero-piece model is not the global fit"
        return
    (f_in, area), = model.pieces
    inside = area.contains_batch(X)
    if not (data.d + 1 <= int(inside.sum()) <= data.n - data.d - 1):
        rec["check"] = f"piece area holds {int(inside.sum())} of {data.n} points"
        return
    refit_in = calr.lr(data.subset(np.flatnonzero(inside)))
    refit_out = calr.lr(data.subset(np.flatnonzero(~inside)))
    if not (np.allclose(refit_in.coeffs, f_in.coeffs, rtol=1e-9, atol=1e-9)
            and np.allclose(refit_out.coeffs, model.default.coeffs, rtol=1e-9, atol=1e-9)):
        rec["check"] = "piece area does not hold exactly the subset its model was fitted on"


class FitExact:
    """naive_calr on n=12..14, d in {1, 2}: one pass over a fixed list per round.

    The subset enumeration costs the same for every input of one size, but
    the search for a separable best subset after it does not: one input in
    a few dozen takes several times longer.  As on fit-lp, every run fits
    the same list and the workload seed sets the order.
    """

    def __init__(self, seed):
        pool = [_exact_instance(kind, d, n, s) for s in EXACT_DATA_SEEDS for kind, d, n in EXACT_ROUND]
        k = seed % len(pool)
        self.inputs = pool[k:] + pool[:k]

    def run_round(self, r, tracer):
        records = []
        for data, truth in self.inputs:
            model, rec = _fit_record(fitting.naive_calr, data, 1, None, tracer)
            if model is not None:
                _guarded(_check_exact_fit, rec, model, rec, data, truth)
            records.append(rec)
        return records


def _peak_rss_kb(pid):
    """A live process's own peak resident set (VmHWM), 0 once it has exited.

    A child's ru_maxrss cannot serve: a child started by vfork or
    posix_spawn inherits the parent's high-water mark at exec.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Pipeline:
    """The CLI chain gen -> gen -> fit -> predict -> eval -> gen -> export-mip.

    Untraced, every step is its own ``python -m calr`` process.  Traced, the
    steps call ``calr.cli.main(argv)`` in this process so the layer wrappers
    see them.
    """

    TRAIN_N, SCORE_N, MIP_N = 500, 100_000, 5000
    MIP_M, MIP_K = 2, 4

    def __init__(self, seed, root, workdir, in_process=False):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        os.makedirs(workdir, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _step(self, name, argv, rows, tracer):
        """One CLI command: (record, stdout text)."""
        t0 = time.perf_counter()
        if self.in_process:
            out_path = self._path("stdout.txt")
            saved = sys.stdout
            with open(out_path, "w") as fh:
                sys.stdout = fh
                try:
                    with _tracing(tracer):
                        code = cli.main(argv)
                finally:
                    sys.stdout = saved
            seconds = time.perf_counter() - t0
            peak_kb = None
            with open(out_path) as fh:
                stdout = fh.read()
        else:
            env = dict(os.environ)
            src = os.path.join(self.root, "src")
            env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
            with open(self._path("stdout.txt"), "w") as out, open(self._path("stderr.txt"), "w") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "calr", *argv], stdout=out, stderr=err, env=env
                )
                peak_kb = 0
                try:
                    while proc.poll() is None:
                        peak_kb = max(peak_kb, _peak_rss_kb(proc.pid))
                        time.sleep(POLL_S)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            seconds = time.perf_counter() - t0
            code = proc.returncode
            with open(self._path("stdout.txt")) as fh:
                stdout = fh.read()
        rec = {"kind": name, "seconds": seconds, "rows": rows, "peak_kb": peak_kb,
               "error": None, "check": None}
        if code != 0:
            rec["error"] = f"exit{code}"
        return rec, stdout

    def run_round(self, r, tracer):
        s = self.seed * 100 + r * 3
        # Every chain writes fresh files, as a first run does.
        shutil.rmtree(self.workdir)
        os.makedirs(self.workdir)
        p = self._path
        train, score, mipdata = p("train.csv"), p("score.csv"), p("mip.csv")
        model_path, pred, program = p("model.json"), p("pred.csv"), p("program.json")
        common = ["--d", "2", "--m", "2", "--sigma", str(SIGMA)]
        # (kind, argv, rows the step works on)
        steps = [
            ("gen", ["gen", "--n", str(self.TRAIN_N), *common, "--seed", str(s),
                     "--out", train, "--truth", p("truth.json")], self.TRAIN_N),
            ("gen", ["gen", "--n", str(self.SCORE_N), *common, "--seed", str(s + 1),
                     "--out", score], self.SCORE_N),
            ("fit", ["fit", "--data", train, "--m", "2", "--seed", str(s + 1000),
                     "--out", model_path, "--report", p("report.txt")], self.TRAIN_N),
            ("predict", ["predict", "--model", model_path, "--data", score, "--out", pred],
             self.SCORE_N),
            ("eval", ["eval", "--model", model_path, "--data", score], self.SCORE_N),
            ("gen", ["gen", "--n", str(self.MIP_N), *common, "--seed", str(s + 2),
                     "--out", mipdata], self.MIP_N),
            ("export-mip", ["export-mip", "--data", mipdata, "--m", str(self.MIP_M),
                            "--k", str(self.MIP_K), "--out", program], self.MIP_N),
        ]
        records = []
        outputs = {}
        for name, argv, rows in steps:
            rec, stdout = self._step(name, argv, rows, tracer)
            records.append(rec)
            outputs[name] = stdout
            if rec["error"] is not None:
                break  # later steps need this step's files
        else:
            _guarded(self._check, records[-1], records, outputs)
        return records

    def _check(self, records, outputs):
        """CLI output matches the library bit for bit; the program reloads."""
        by_kind = {rec["kind"]: rec for rec in records}
        fit, predict, ev, export = (by_kind[k] for k in ("fit", "predict", "eval", "export-mip"))
        model = calr.load_model(self._path("model.json"))
        train = calr.load_csv(self._path("train.csv"))
        truth = calr.load_truth(self._path("truth.json"))
        fit["halfspaces"] = [len(area) for _, area in model.pieces]
        fit["recovered"] = _recovered(truth, model, train)
        # Recorded, not a failed operation: the chain's own contract is that
        # the CLI agrees with the library, which the checks below test.
        fit["overlap"] = len(calr.overlapping_training_points(model, train.X))
        score = calr.load_csv(self._path("score.csv"))
        _, pred = calr.dataset.load_matrix(self._path("pred.csv"))
        if not np.array_equal(pred[:, -1], model.predict_batch(score.X)):
            predict["check"] = "CLI predictions differ from predict_batch"
        if f"mse: {calr.mse(model, score)!r}" not in outputs["eval"].splitlines():
            ev["check"] = "printed mse differs from the library mse"
        program = self._path("program.json")
        export["bytes"] = os.path.getsize(program)
        inst = calr.load_mip(program)
        n, d, M, K = self.MIP_N, 2, self.MIP_M, self.MIP_K
        if (inst.n, inst.d, inst.M, inst.K) != (n, d, M, K) or (
            inst.constraint_count != n * (M * (2 * K + 1) + 1)
            or inst.local_continuous_count != (d + 1) * (K + 1) * M
        ):
            export["check"] = "exported program does not reload with the expected counts"


@contextlib.contextmanager
def _tracing(tracer):
    """Record spans for the calls inside the block; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
