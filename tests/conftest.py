import os
import subprocess
import sys

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


def run_from_small_interpreter(code):
    """``run_fresh`` of the Python source ``code``, started from a small
    interpreter.

    A process keeps, across exec, the peak RSS of the memory image it
    replaced (this test runner's), so a child that measures its own peak
    RSS is started from an interpreter that does nothing else.
    """
    hop = (
        "import subprocess, sys\n"
        f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)"
    )
    return run_fresh([sys.executable, "-c", hop])
