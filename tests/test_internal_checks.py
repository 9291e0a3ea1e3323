"""Internal checks must survive ``python -O``: the modules that carry them
hold no bare assert statement, and a tripped check still raises
AssertionError under the optimized interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import crlie

PACKAGE = Path(crlie.__file__).parent


@pytest.mark.parametrize("module", ["realforms", "crcore", "regularize"])
def test_no_bare_asserts(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text("utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert in {module}.py at lines {lines}"


# theta' = i theta squares to -1.  sigma' = i sigma keeps sigma' an
# involution and tau = sigma' o theta' = -conj(X)^T, so the matrix checks pass
# and the coordinate check of theta trips.
BROKEN_THETA = """
from crlie import realforms
from crlie.exactlin import IUNIT

present = realforms._present


def broken(spec):
    pres = present(spec)
    sigma, theta = pres.sigma, pres.theta
    pres.sigma = lambda x: sigma(x).scale(IUNIT)
    pres.theta = lambda x: theta(x).scale(IUNIT)
    return pres


realforms._present = broken
realforms.build_real_form("su:1,2")
"""


def test_build_checks_survive_optimized_interpreter():
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_THETA], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert "AssertionError: theta is not an involution" in done.stderr
