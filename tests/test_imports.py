"""``import crlie`` and ``import crlie.cli`` load only what a solve runs.
None of the modules below may be loaded after either import, unless the bare
interpreter, started with the same flags, already holds it."""

import subprocess
import sys

import pytest

# dataclasses pulls in inspect, ast, dis and tokenize; only the command line
# parser needs argparse, only the corpus reads package data, and only
# splittable_evidence draws random numbers
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
