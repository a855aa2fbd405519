"""Shared test set-up: the import path of ``python -m calr`` subprocesses and shared inputs."""

import os

import numpy as np
import pytest

from calr.dataset import Dataset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_inherited = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _inherited if _inherited else "")


@pytest.fixture
def max_affine_data():
    """make(seed): 400 rows of a noisy maximum of three random planes over [-5, 5]^2.

    No piece of it is a box, and fits on it leave rows that two models fit
    and no area holds, so assembly carves strips for them.
    """

    def make(seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, (400, 2))
        A = rng.uniform(-3, 3, (3, 2))
        c = rng.uniform(-2, 2, 3)
        y = np.max(X @ A.T + c, axis=1) + rng.normal(0, 0.01, 400)
        return Dataset(X, y)

    return make
