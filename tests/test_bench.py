"""The benchmark's contract, smoke-tested on short runs of every workload."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_lines(workload, trace):
    """The output lines of a 0.5 s bench/run.py run, which must exit 0."""
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.5",
         "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.strip().splitlines()


def test_traced_fit_lp_run_is_correct_and_reads_the_fit_info():
    # The tracer wraps functions by name, so a renamed target fails its
    # install; bench/workloads.py reads fit_info with .get, so a missing
    # samples_used, attempts or accepted_p_values key only zeroes these
    # figures and would not fail the run.
    *_, facts_line, last_line = _bench_lines("fit-lp", 1)
    facts, last = json.loads(facts_line)["facts"], json.loads(last_line)
    assert last["correct"] is True
    assert last["failed"] == 0
    metrics = last["metrics"]
    for name in ("fitting.draws", "fitting.attempts", "fitting.accept_ratio"):
        assert metrics[name]["value"] > 0, name
    # Accepted models per fit: at least m+1 = 3 on fit-lp, where a fit
    # without accepted_p_values counts as 1.
    per_fit = metrics["fitting.accept_ratio"]["value"] * metrics["fitting.draws"]["value"]
    assert per_fit > 2.5
    # Areas built nearest row first need about 5 half-spaces per piece
    # here; the planted boxes need 4.5.
    assert facts["halfspaces_per_piece"] <= 8


def test_fit_exact_run_checks_every_exact_fit():
    # bench/workloads.py's _check_exact_fit fails a naive_calr fit whose
    # total squared error exceeds the global fit's, or whose piece area
    # does not hold exactly the rows its two functions were fitted on.
    last = json.loads(_bench_lines("fit-exact", 0)[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


@pytest.mark.parametrize("workload", ["pipeline", "fit-svm"])
def test_pipeline_and_fit_svm_runs_are_correct(workload):
    # With these, every workload bench/run.py accepts runs here; fit-svm is
    # the only one whose areas come from svm_soft.
    last = json.loads(_bench_lines(workload, 0)[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
