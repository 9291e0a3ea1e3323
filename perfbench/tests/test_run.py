"""The benchmark's command-line contract.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


class ContractTests(unittest.TestCase):
    def test_per_layer_names_match_what_a_traced_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        reported = set(tracing.Tracer().metrics())
        reported |= {"regularize.chain_steps", "trace.overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, reported)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as folder:
            shutil.copy(ROOT / "BENCHMARK.json", folder)
            shutil.copytree(
                BENCH, Path(folder) / BENCH.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "root-par",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=folder,
                capture_output=True,
                text=True,
                timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
