"""The bundled corpus reports, pinned byte for byte.

tests/corpus_digests.json holds, for each fixture, the sha256 of its JSON
and of its text report, with the "timings" key removed.  A change that
alters any answer, or the order or spelling of a report, fails here.
Rewrite the file only with a reviewed change to the answers:

    PYTHONPATH=src python tests/test_corpus_digests.py --write
"""

import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from crlie import cli

DIGESTS = Path(__file__).with_name("corpus_digests.json")


def fixture_digests(name: str) -> dict:
    data = json.loads((resources.files("crlie") / "corpus" / name).read_text("utf-8"))
    report = cli.run(data["command"], cli.parse_problem(data["problem"]))
    del report["timings"]
    return {
        fmt: hashlib.sha256(cli.emit_report(report, fmt)).hexdigest()
        for fmt in ("json", "text")
    }


def test_digest_file_lists_every_fixture():
    assert sorted(json.loads(DIGESTS.read_text())) == cli._fixture_names()


@pytest.mark.parametrize("name", cli._fixture_names())
def test_corpus_report_digest(name):
    assert fixture_digests(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {name: fixture_digests(name) for name in cli._fixture_names()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
