"""calr benchmark: one command, one workload per run.

    python3 bench/run.py --workload fit-lp --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --acceptance

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  A run makes its inputs from
``--seed``, then runs rounds of the workload in a closed loop (one fit or
one CLI command at a time) for about ``--seconds`` seconds, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
run's facts, which are not gated: versions, thread settings, the seed,
each fit's (n, d, m, draws, attempts), failures by type, quality ratios
and the line count of ``src/``.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
They are defined for every workload, so an operation is one fit on the fit
workloads and one whole CLI chain on pipeline:

* setup_s: median wall seconds of a fresh interpreter that imports calr
  and builds the workload's inputs, over several set-ups in the run;
* op_s_p50: median wall seconds per operation, failed ones included (the
  median fit time, or on pipeline the chain's wall time);
* rows_per_s: training rows fitted per second of fit wall time, or on
  pipeline rows scored per second by the ``calr predict`` and ``calr eval``
  steps, process included;
* peak_rss_mb: peak resident memory of the process that ran the workload,
  the largest CLI process on pipeline.

The facts line adds what is not gated: fit_s_p50 and fit_rows_per_s on
every workload, fit_fail_ratio, recovered_ratio (planted functions within
coefficient distance 0.1 and mse <= 4 sigma^2), halfspaces_per_piece, and
on pipeline every step's seconds and peak memory.

``--trace 1`` wraps the public functions of every layer (see tracer.py),
runs traced rounds for half the time, replays the same rounds untraced,
and reports per-layer metrics named ``<module>.<function>.<stat>``.  Calls
and self seconds (``s``) are per operation; ``cli.<command>_s`` is the
command's whole time per chain; ``trace.overhead_ratio`` is the traced
operations' wall time over the same operations replayed untraced, minus
one.  The spans are written to ``bench/out/``.

``--workload fit-svm`` also runs but is not in BENCHMARK.json; see
workloads.py for why.

``--acceptance`` runs the acceptance suite once and reports each
criterion's seconds and headroom against its bound.  It is not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 3
WORKLOADS = ("fit-lp", "fit-exact", "pipeline", "fit-svm")


def _import_calr():
    """Import calr from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "calr", "__init__.py")):
        sys.exit(f"error: no calr package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import calr

    if os.path.dirname(os.path.dirname(os.path.abspath(calr.__file__))) != SRC:
        sys.exit(f"error: calr was imported from {calr.__file__}, not from {SRC}")
    return calr


def _make(workload, seed, in_process=False):
    import workloads as w

    if workload == "pipeline":
        workdir = os.path.join(OUT_DIR, f"pipeline-{os.getpid()}")
        return w.Pipeline(seed, ROOT, workdir, in_process=in_process)
    return {"fit-lp": w.FitLp, "fit-exact": w.FitExact, "fit-svm": w.FitSvm}[workload](seed)


def _setup_probe(workload, seed):
    _import_calr()
    work = _make(workload, seed)
    if hasattr(work, "close"):
        work.close()


def _setup_seconds(workload, seed):
    """Median wall seconds of fresh interpreters that import calr and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_rounds(work, seconds, tracer=None, rounds=None):
    """Run rounds until the next one would end past `seconds` (at least one).

    With `rounds` given, run exactly that many instead.  Returns the list of
    rounds, each a list of operation records.
    """
    done = []
    t0 = time.perf_counter()
    while True:
        done.append(work.run_round(len(done), tracer))
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif elapsed + elapsed / len(done) > seconds:
            break
    return done


def _src_line_count():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _blas_facts():
    import numpy as np

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    facts = {name: os.environ.get(name, "unset") for name in names}
    try:
        config = np.show_config(mode="dicts")
        facts["blas"] = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def _facts(workload, seed, rounds):
    import numpy as np
    import scipy

    ops = [rec for rnd in rounds for rec in rnd]
    fits = [rec for rec in ops if rec["kind"] == "fit"]
    errors = {}
    for rec in ops:
        if rec["error"] is not None:
            errors[rec["error"]] = errors.get(rec["error"], 0) + 1
    graded = [rec["recovered"] for rec in fits if rec.get("recovered") is not None]
    pieces = [h for rec in fits for h in rec.get("halfspaces", [])]
    facts = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": _blas_facts(),
        "src_lines": _src_line_count(),
        "rounds": len(rounds),
        "fit_samples": len(fits),
        "fit_s_p50": statistics.median(r["seconds"] for r in fits),
        "fit_rows_per_s": sum(r["rows"] for r in fits) / sum(r["seconds"] for r in fits),
        "fit_fail_ratio": sum(rec["error"] is not None for rec in fits) / max(1, len(fits)),
        "errors_by_type": errors,
        "check_failures": [rec["check"] for rec in ops if rec["check"] is not None],
        "fits_with_overlap": sum(bool(rec.get("overlap")) for rec in fits),
        "recovered_ratio": sum(graded) / len(graded) if graded else None,
        "halfspaces_per_piece": sum(pieces) / len(pieces) if pieces else None,
        "fits": [
            {k: rec.get(k) for k in ("solver", "n", "d", "m", "draws", "attempts", "seconds", "error")}
            for rec in fits
        ],
    }
    if workload == "pipeline":
        kinds = dict.fromkeys(r["kind"] for r in ops)
        facts["step_s"] = {k: [r["seconds"] for r in ops if r["kind"] == k] for k in kinds}
        facts["step_peak_mb"] = {
            k: [r["peak_kb"] / 1024.0 for r in ops if r["kind"] == k and r["peak_kb"]] for k in kinds
        }
    return facts


def _end_to_end(workload, rounds, setup_s):
    ops = [rec for rnd in rounds for rec in rnd]
    if workload == "pipeline":
        op_seconds = [sum(r["seconds"] for r in rnd) for rnd in rounds]
        throughput = [r for r in ops if r["kind"] in ("predict", "eval")]
        peak_kb = max(r["peak_kb"] for r in ops)
    else:
        throughput = [r for r in ops if r["kind"] == "fit"]
        op_seconds = [r["seconds"] for r in throughput]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows_per_s = sum(r["rows"] for r in throughput) / sum(r["seconds"] for r in throughput)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(op_seconds), "s"),
        "rows_per_s": (rows_per_s, "rows/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# Which span outcome each per-layer ratio counts, over all calls.
_OUTCOMES = {"none_ratio": "none", "inside_ratio": "true", "error_ratio": "errors"}


def _per_layer(tracer, workload, rounds, overhead):
    from tracer import FIT_SPANS

    stats = tracer.stats()
    ops = [rec for rnd in rounds for rec in rnd]
    fits = [rec for rec in ops if rec["kind"] == "fit"]
    n_ops = len(rounds) if workload == "pipeline" else len(fits)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "none": 0, "true": 0, "errors": 0, "sizes": []}

    def st(name):
        return stats.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, fields in (
        ("geometry.gslp", ("calls", "s", "none_ratio")),
        ("geometry.cac", ("calls", "s", "none_ratio")),
        ("geometry.point_in_hull", ("calls", "s", "inside_ratio")),
        ("geometry.contains_batch", ("calls", "s")),
        ("geometry.cacs", ("calls", "s", "none_ratio")),
        ("geometry.svm_soft", ("calls", "s", "error_ratio")),
        ("fitting.post", ("calls", "s")),
        ("linreg.lr", ("calls", "s")),
        ("linreg.ols", ("calls", "s")),
        ("linreg.incomplete_beta", ("calls", "s")),
        ("linreg.predict_batch", ("calls", "s")),
        ("calf.predict_batch", ("s",)),
        ("calf.assign_batch", ("s",)),
        ("dataset.load_csv", ("s",)),
        ("dataset.load_matrix", ("s",)),
        ("dataset.write_csv", ("s",)),
        ("dataset.generate_separable", ("s",)),
        ("model_io.save_model", ("s",)),
        ("model_io.load_model", ("s",)),
        ("mip.build_mip", ("s",)),
        ("mip.export_mip", ("s",)),
    ):
        s = st(name)
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (s["calls"] / n_ops, "count")
            elif field == "s":
                out[f"{name}.s"] = (s["self_s"] / n_ops, "s")
            else:
                out[f"{name}.{field}"] = (ratio(s[_OUTCOMES[field]], s["calls"]), "ratio")
    areas = st("geometry.cac")["sizes"] + st("geometry.cacs")["sizes"]
    out["geometry.halfspaces_per_area"] = (ratio(sum(areas), len(areas)), "count")
    sampled = [r for r in fits if r.get("draws") is not None]
    draws = sum(r["draws"] for r in sampled)
    out["fitting.draws"] = (ratio(draws, len(sampled)), "count")
    attempts = [r["attempts"] for r in sampled if r.get("attempts") is not None]
    out["fitting.attempts"] = (ratio(sum(attempts), len(attempts)), "count")
    # cas_calr reports its accepted models; cas2 keeps one sampled model.
    accepted = sum(r["accepted"] if r.get("accepted") is not None else 1 for r in sampled)
    out["fitting.accept_ratio"] = (ratio(accepted, draws), "ratio")
    out["fitting.self_s"] = (sum(st(n)["self_s"] for n in FIT_SPANS) / n_ops, "s")
    cpb = st("calf.predict_batch")
    out["calf.predict_batch.rows_per_s"] = (ratio(sum(cpb["sizes"]), cpb["total_s"]), "rows/s")
    export_bytes = [r["bytes"] for r in ops if "bytes" in r]
    out["mip.export_bytes"] = (ratio(sum(export_bytes), len(export_bytes)), "bytes")
    for sub in ("gen", "fit", "predict", "eval", "export_mip"):
        out[f"cli.{sub}_s"] = (st(f"cli.{sub}")["total_s"] / n_ops, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _op_seconds(rounds):
    return sum(rec["seconds"] for rnd in rounds for rec in rnd)


def _result(rounds, metrics):
    ops = [rec for rnd in rounds for rec in rnd]
    failed = sum(rec["error"] is not None or rec["check"] is not None for rec in ops)
    return {
        "correct": all(rec["check"] is None for rec in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload, seed, seconds, trace):
    _import_calr()
    os.makedirs(OUT_DIR, exist_ok=True)
    if not trace:
        setup_s = _setup_seconds(workload, seed)
        work = _make(workload, seed)
        try:
            rounds = _run_rounds(work, seconds)
            metrics = _end_to_end(workload, rounds, setup_s)
        finally:
            if hasattr(work, "close"):
                work.close()
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        work = _make(workload, seed, in_process=True)
        try:
            rounds = _run_rounds(work, seconds / 2.0, tracer)
            tracer.uninstall()
            replay = _run_rounds(work, 0.0, rounds=len(rounds))
        finally:
            tracer.uninstall()
            if hasattr(work, "close"):
                work.close()
        overhead = _op_seconds(rounds) / _op_seconds(replay) - 1.0
        metrics = _per_layer(tracer, workload, rounds, overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz")
        tracer.write(spans_path)
    facts = _facts(workload, seed, rounds)
    if trace:
        facts["spans"] = len(tracer.spans)
        facts["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"facts": facts}))
    print(json.dumps(_result(rounds, metrics)))


_VERDICT = re.compile(r"criterion (\d+) \((.*)\): (PASS|FAIL) \[.*; ([\d.]+)s of ([\d.]+)s\]")


def acceptance_report():
    """Run the acceptance suite once; report each criterion's time against its bound."""
    _import_calr()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         os.path.join("tests", "test_acceptance.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    report = []
    for match in _VERDICT.finditer(proc.stdout):
        num, name, verdict, secs, bound = match.groups()
        secs, bound = float(secs), float(bound)
        report.append({
            "criterion": int(num), "name": name, "verdict": verdict,
            "seconds": secs, "bound_s": bound,
            "headroom_s": round(bound - secs, 1), "headroom_ratio": round(1.0 - secs / bound, 3),
        })
    print(json.dumps({"acceptance": report, "pytest_exit": proc.returncode}, indent=1))
    return 0 if report else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true", help="time the acceptance criteria")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.acceptance:
        return acceptance_report()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
