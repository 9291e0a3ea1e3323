"""Span arithmetic and the tracing wrappers.

    python3 -m pytest perfbench/tests
"""

import inspect
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import crlie  # noqa: E402
import crlie.exactlin  # noqa: E402
import crlie.fibration  # noqa: E402
import crlie.matrixlie  # noqa: E402
import crlie.realforms  # noqa: E402
import crlie.rootsys  # noqa: E402
import tracing  # noqa: E402


class ArithmeticTests(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(tracing.covered([], 0, 10), 0)
        self.assertEqual(tracing.covered([(1, 3), (2, 4), (6, 7)], 0, 10), 4)
        self.assertEqual(tracing.covered([(-5, 2), (9, 20)], 0, 10), 3)
        self.assertEqual(tracing.covered([(1, 9), (2, 3)], 0, 10), 8)

    def test_self_time_subtracts_what_children_cover(self):
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 6.0]
        parents = [-1, 0, 1, 0]
        self.assertEqual(tracing.self_times(starts, ends, parents), [6.0, 2.0, 1.0, 1.0])

    def test_inclusive_time_counts_outermost_spans_of_a_layer(self):
        # exactlin [0,10] > exactlin [1,4] > rootsys [2,3]; rootsys [5,6]
        layers = ["exactlin", "rootsys"]
        names = [0, 0, 1, 1]
        out = tracing.layer_metrics(
            names, layers, [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0],
            [-1, 0, 1, 0], [0, 1, 0, 0],
        )
        self.assertEqual(out["exactlin"], {"self_s": 8.0, "incl_s": 10.0, "calls": 2, "errors": 1})
        self.assertEqual(out["rootsys"], {"self_s": 2.0, "incl_s": 2.0, "calls": 2, "errors": 0})
        self.assertEqual(out["cli"]["calls"], 0)


class WrapperTests(unittest.TestCase):
    def setUp(self):
        self.tracer = tracing.Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    def test_every_binding_of_a_wrapped_function_is_patched(self):
        missed = []
        for modname, module in sys.modules.items():
            if modname != "crlie" and not modname.startswith("crlie."):
                continue
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or hasattr(value, "__wrapped__"):
                    continue
                layer = value.__module__.rpartition(".")[2]
                name = f"{layer}.{value.__name__}"
                if (
                    layer in tracing.LAYERS
                    and not value.__name__.startswith("_")
                    and name not in tracing.UNTRACED
                ):
                    missed.append(f"{modname}.{attr}")
        self.assertEqual(missed, [])
        self.assertIs(crlie.canonicalize, crlie.rootsys.canonicalize)
        self.assertIs(crlie.canonicalize, crlie.exactlin.canonicalize)

    def test_uninstall_restores_the_originals(self):
        self.tracer.uninstall()
        self.assertIs(crlie.exactlin.canonicalize, crlie.canonicalize)
        self.assertFalse(hasattr(crlie.canonicalize, "__wrapped__"))
        self.assertFalse(hasattr(crlie.exactlin.DenseMatrix.bracket, "__wrapped__"))
        self.tracer.install()

    def test_spans_counts_and_errors(self):
        t = self.tracer
        t.begin_problem(0)
        system = crlie.rootsys.build_root_system("B", 2)
        crlie.rootsys.enumerate_parabolics(system)
        with self.assertRaises(ValueError):
            system.parse_root("e9")
        t.begin_problem(1)
        crlie.rootsys.enumerate_parabolics(system)
        metrics = {name: value for name, (value, _) in t.metrics().items()}
        self.assertEqual(metrics["rootsys.enumerate_parabolics.calls"], 2)
        self.assertEqual(metrics["rootsys.enumerate_parabolics.shared"], 1)
        self.assertEqual(metrics["rootsys.errors"], 2)  # the method and parse_root
        self.assertGreater(metrics["rootsys.weyl_images"], 0)
        self.assertEqual(set(t.problems), {0, 1})
        nested = [i for i, p in enumerate(t.parents) if p >= 0]
        self.assertTrue(nested)

    def test_canonicalize_cells_count_rows_of_a_one_shot_iterable(self):
        self.tracer.begin_problem(0)
        space = crlie.exactlin.canonicalize(iter([[1, 0], [2, 0], [0, 1]]), 2)
        self.assertEqual(space.dim, 2)
        metrics = {name: value for name, (value, _) in self.tracer.metrics().items()}
        self.assertEqual(metrics["exactlin.canonicalize.cells"], 6)
        self.assertEqual(metrics["exactlin.canonicalize.calls"], 1)

    def test_repeats_count_within_one_problem_and_shared_across_problems(self):
        t = self.tracer
        v = crlie.matrixlie.gl_ambient(2).full_subalg()
        t.begin_problem(0)
        crlie.matrixlie.nilradical_nr(v)
        crlie.matrixlie.nilradical_nr(v)
        crlie.realforms.build_real_form("compact-u:2")
        t.begin_problem(1)
        crlie.matrixlie.nilradical_nr(v)
        crlie.realforms.build_real_form("compact-u:2")
        crlie.realforms.build_real_form("compact-u:2")
        metrics = {name: value for name, (value, _) in t.metrics().items()}
        self.assertEqual(metrics["matrixlie.nilradical_nr.calls"], 3)
        self.assertEqual(metrics["matrixlie.nilradical_nr.repeats"], 1)
        self.assertEqual(metrics["realforms.build_real_form.shared"], 2)

    def test_par_members_and_candidates(self):
        t = self.tracer
        system = crlie.rootsys.build_root_system("C", 2)
        v = crlie.rootsys.RegularSubalgebra(
            system, system.cartan, frozenset(system.parse_root(x) for x in ("2e1", "2e2", "e1+e2"))
        )
        for problem in (0, 1):
            t.begin_problem(problem)
            crlie.fibration.maximal_par(v)
            crlie.fibration.maximal_par(v)
        metrics = {name: value for name, (value, _) in t.metrics().items()}
        self.assertEqual(metrics["fibration.par.members"], 4)
        self.assertGreater(metrics["fibration.par.candidates"], 4)
        self.assertAlmostEqual(
            metrics["fibration.par.yield"],
            metrics["fibration.par.members"] / metrics["fibration.par.candidates"],
        )


if __name__ == "__main__":
    unittest.main()
