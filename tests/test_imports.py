"""``import crlie`` and ``import crlie.cli`` load only what a solve runs.
None of the modules below may be loaded after either import, unless the bare
interpreter, started with the same flags, already holds it."""

import subprocess
import sys

import pytest

# dataclasses pulls in inspect, ast, dis and tokenize; only the command line
# parser needs argparse, only the corpus reads package data, and only
# splittable_evidence draws random numbers; fractions, which pulls in decimal
# and numbers, is imported only by the APIs that hand a Fraction back
UNNEEDED = (
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
    "argparse",
    "string",
    "importlib.resources",
    "typing",
    "random",
    "fractions",
    "decimal",
    "numbers",
)


def loaded(flags, statement):
    script = f"import sys\n{statement}\nprint(*sorted(set(sys.modules) & {set(UNNEEDED)!r}))"
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "flags",
    [[], ["-O"], ["-X", "dev", "-W", "error"]],
    ids=["plain", "optimized", "dev"],
)
@pytest.mark.parametrize("module", ["crlie", "crlie.cli"])
def test_import_loads_no_unneeded_module(module, flags):
    assert loaded(flags, f"import {module}") - loaded(flags, "pass") == set()


# one problem per path that reads rational literals or divides: a matrix
# real form, an embedded root set, explicit toral rows on the root backend
# and a matrix with a 1/2 entry
SOLVE = """
import json
from crlie import cli

problems = [
    ("analyze", {"ambient": {"form": "su:2,2"}, "crosses": [2],
                 "subalgebra": {"minimal-orbit": True}}),
    ("fibration", {"ambient": {"form": "compact-sp:2"},
                   "subalgebra": {"roots": ["2e1", "2e2", "e1+e2"], "toral": "full"}}),
    ("par-min", {"ambient": {"system": "B3"},
                 "subalgebra": {"roots": ["e1-e2"], "toral": [["1/2", "-1/3", "0"]]}}),
    ("analyze", {"ambient": {"form": "su:1,2"},
                 "subalgebra": {"matrices": [[["1/2", "0", "0"], ["0", "-1", "0"],
                                              ["0", "0", "1/2"]]]}}),
]
for command, problem in problems:
    parsed = cli.parse_problem(json.dumps(problem))
    report = cli.run(command, parsed)
    if report["ok"] is not True:
        raise SystemExit(f"{command}: report not ok")
    cli.emit_report(report, parsed.format)
"""


@pytest.mark.parametrize(
    "flags",
    [[], ["-O"], ["-X", "dev", "-W", "error"]],
    ids=["plain", "optimized", "dev"],
)
def test_solving_loads_no_unneeded_module(flags):
    assert loaded(flags, SOLVE) - loaded(flags, "pass") == set()
