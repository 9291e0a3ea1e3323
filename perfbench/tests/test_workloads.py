"""Problem generators: determinism, valid root data, replay through the
``crlie`` command, and the stored reference digests.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from crlie import cli  # noqa: E402
from crlie.realforms import build_real_form  # noqa: E402
from crlie.rootsys import build_root_system, is_closed  # noqa: E402


def _system(problem):
    ambient = problem["ambient"]
    if "system" in ambient:
        tag = ambient["system"]
        return build_root_system(tag[0], int(tag[1:]))
    return build_root_system(*workloads.COMPACT_SYSTEMS[ambient["form"]])


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in workloads.WORKLOADS:
            for seed in (0, 1, 17):
                first = json.dumps(workloads.generate(workload, seed))
                second = json.dumps(workloads.generate(workload, seed))
                self.assertEqual(first, second, (workload, seed))

    def test_seeds_change_the_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(
                json.dumps(workloads.generate(workload, 0)),
                json.dumps(workloads.generate(workload, 1)),
            )

    def test_every_problem_parses(self):
        for workload in workloads.WORKLOADS:
            for seed in range(4):
                for command, problem in workloads.generate(workload, seed):
                    self.assertIn(command, cli.COMMANDS)
                    cli.parse_problem(json.dumps(problem))

    def test_root_sets_are_closed_with_coroots_in_the_toral_part(self):
        for workload in ("embedded-roots", "root-par"):
            for seed in range(6):
                for _, problem in workloads.generate(workload, seed):
                    system = _system(problem)
                    v = cli._regular_subalgebra(cli.parse_problem(problem), system)
                    self.assertTrue(is_closed(system, v.rootset))
                    for alpha in v.reductive_roots:
                        self.assertTrue(v.toral.contains(list(system.coroot(alpha))))

    def test_root_sets_are_weyl_conjugates_of_the_slot_shape(self):
        for seed in range(6):
            sizes = [
                len(problem["subalgebra"]["roots"])
                for _, problem in workloads.generate("root-par", seed)
            ]
            self.assertEqual(
                sorted(sizes),
                sorted(
                    len(p["subalgebra"]["roots"])
                    for _, p in workloads.generate("root-par", 0)
                ),
            )

    def test_compact_forms_present_the_listed_root_systems(self):
        for tag, (family, rank) in workloads.COMPACT_SYSTEMS.items():
            self.assertEqual(build_real_form(tag).system, build_root_system(family, rank))

    def test_reference_lists_the_default_problems(self):
        for workload in workloads.WORKLOADS:
            reference = run._reference(workload)
            commands = [c for c, _ in workloads.generate(workload, workloads.DEFAULT_SEED)]
            self.assertEqual(reference["commands"], commands)
            self.assertEqual(len(reference["digests"]), len(commands))
            self.assertEqual(len(reference["fingerprints"]), len(commands))

    def test_fingerprint_ignores_what_a_weyl_conjugate_changes(self):
        report = {
            "seed": 1,
            "input": {"roots": ["e1-e2"]},
            "chain": {"dims": [5, 3], "nr_dims": [1, 2]},
            "par": {
                "count": 2,
                "members": [
                    {"nilpotent": ["e1-e2", "2e1"], "z_component_dims": [6, 1]},
                    {"nilpotent": ["-e3"], "z_component_dims": [2]},
                ],
            },
            "flags": {"kind": "regular", "n_reductive": True},
        }
        conjugate = json.loads(json.dumps(report))
        conjugate["seed"] = 7
        conjugate["input"] = {"roots": ["e2-e3"]}
        conjugate["par"]["members"] = [
            {"nilpotent": ["e2"], "z_component_dims": [2]},
            {"nilpotent": ["2e2", "-e1+e3"], "z_component_dims": [1, 6]},
        ]
        self.assertEqual(worker.fingerprint(report), worker.fingerprint(conjugate))
        for path, value in (
            (("chain", "dims"), [3, 5]),
            (("par", "count"), 3),
            (("flags", "kind"), "irregular"),
            (("flags", "n_reductive"), False),
        ):
            changed = json.loads(json.dumps(report))
            changed[path[0]][path[1]] = value
            self.assertNotEqual(worker.fingerprint(report), worker.fingerprint(changed), path)
        fewer = json.loads(json.dumps(report))
        fewer["par"]["members"][0]["nilpotent"].pop()
        self.assertNotEqual(worker.fingerprint(report), worker.fingerprint(fewer))

    def test_written_problems_replay_through_the_command(self):
        with tempfile.TemporaryDirectory() as folder:
            run.write_problems("root-par", 3, folder)
            generated = workloads.generate("root-par", 3)
            files = sorted(Path(folder).iterdir())
            self.assertEqual(len(files), len(generated))
            index = next(i for i, (c, _) in enumerate(generated) if c == "regularize")
            command, problem = generated[index]
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "crlie", command, str(files[index])],
                env=env,
                capture_output=True,
                timeout=120,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            expected = cli.emit_report(cli.run(command, cli.parse_problem(problem)))
            self.assertEqual(done.stdout, expected)


if __name__ == "__main__":
    unittest.main()
