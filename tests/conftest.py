import os
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import vcsample

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_coords(fam_name: str, n: int, seed: int) -> np.ndarray:
    """Random ground-set coordinates of the right ambient dimension."""
    rng = np.random.default_rng(seed)
    if fam_name == "intervals":
        return rng.random(n)
    return rng.random((n, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def run_fresh(cmd):
    """Run ``cmd`` with the package under test first on the child's import path.

    The child then imports this checkout's ``vcsample`` whether or not the
    parent's ``PYTHONPATH`` points at it, and never a stale installed copy.
    """
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(vcsample.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)
