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


MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_scanned():
    names = {path.stem for path in MODULES}
    assert {"cli", "exactlin", "realforms", "matrixlie"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_bare_asserts(path):
    tree = ast.parse(path.read_text("utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert in {path.name} at lines {lines}"


# __init__ imports names to re-export them
IMPORTING = [path for path in MODULES if path.name != "__init__.py"]


@pytest.mark.parametrize("path", IMPORTING, ids=[path.stem for path in IMPORTING])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text("utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name not in used]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


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


# theta' = -theta still keeps g, but tau' = sigma o theta' is X -> conj(X)^T.
# The tau check is what makes the trace form on the tau-fixed span negative
# definite, so it must trip before anything is built on a wrong tau.
BROKEN_TAU = """
from crlie import realforms

present = realforms._present


def broken(spec):
    pres = present(spec)
    theta = pres.theta
    pres.theta = lambda x: theta(x).scale(-1)
    return pres


realforms._present = broken
realforms.build_real_form("su:1,2")
"""


def test_tau_check_survives_optimized_interpreter():
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_TAU], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert "AssertionError: tau is not -conj(X)^T" in done.stderr


# one tripped check per module, and one for each of the Par(v) search's own
# checks, each with the message it must carry
TRIPPED = {
    "fibration": (
        "from crlie.fibration import MapClassification\n"
        "MapClassification(is_cr=True, is_submersion=True, is_spread=False,\n"
        "                  is_deployment=False, fibers_totally_real=False,\n"
        "                  fibers_totally_complex=False, witnesses={})\n",
        "AssertionError: a submersion that is not a spread",
    ),
    # a Borel and the opposite of a non-Borel parabolic, both posing as the
    # chambers of Par(0): the Levi of the second is not R cap span(V_r) = {}
    "fibration.minimal_par": (
        "from crlie import fibration\n"
        "from crlie.exactlin import Subspace\n"
        "from crlie.rootsys import ParabolicRootSet, RegularSubalgebra\n"
        "from crlie.rootsys import build_root_system, standard_borel\n"
        "from crlie.rootsys import standard_parabolic\n"
        "b3 = build_root_system('B', 3)\n"
        "std = standard_parabolic(b3, [1])\n"
        "opposite = ParabolicRootSet(\n"
        "    b3, std.q_r | {tuple(-x for x in a) for a in std.q_n})\n"
        "fake = [(standard_borel(b3)._mask, 3, None), (opposite._mask, 3, None)]\n"
        "fibration._chambers = lambda *a: iter(fake)\n"
        "fibration.minimal_par(RegularSubalgebra(b3, Subspace.zero(3), ()))\n",
        "AssertionError: a minimal element has a Levi root set other than "
        "R cap span(V_r)",
    ),
    # a basis of all of t in place of z = ker(e1-e2): the lexicographic
    # start holds e1-e2 but not -e1+e2
    "fibration.minimal_par.start": (
        "from crlie import fibration\n"
        "from crlie.exactlin import canonicalize\n"
        "from crlie.rootsys import RegularSubalgebra, build_root_system\n"
        "c2 = build_root_system('C', 2)\n"
        "v = RegularSubalgebra(c2, canonicalize([[1, -1]], 2), [(1, -1), (-1, 1)])\n"
        "fibration._center = lambda system, roots: (None, 1, [[1, 0], [0, 1]])\n"
        "fibration.minimal_par(v)\n",
        "AssertionError: the start chamber is not in Par(v)",
    ),
    # the standard Borel of B3 with e1 swapped for -e1, passed off as a
    # chamber: e1 is no simple root, so the set is not closed
    "fibration.minimal_par.parabolic": (
        "from crlie import fibration\n"
        "from crlie.exactlin import Subspace\n"
        "from crlie.rootsys import RegularSubalgebra, build_root_system\n"
        "from crlie.rootsys import standard_borel\n"
        "b3 = build_root_system('B', 3)\n"
        "e1 = 1 << b3.root_index[(1, 0, 0)]\n"
        "doctored = standard_borel(b3)._mask ^ e1 | b3._neg_mask(e1)\n"
        "fibration._chambers = lambda *a: iter([(doctored, 3, None)])\n"
        "fibration.minimal_par(RegularSubalgebra(b3, Subspace.zero(3), ()))\n",
        "AssertionError: a Par(v) answer is not parabolic: "
        "parabolic set must be closed",
    ),
    # the opposite Borel, passed off as a chamber of Par(v) for v = {e2}
    "fibration.minimal_par.member": (
        "from crlie import fibration\n"
        "from crlie.exactlin import Subspace\n"
        "from crlie.rootsys import RegularSubalgebra, build_root_system\n"
        "from crlie.rootsys import standard_borel\n"
        "b3 = build_root_system('B', 3)\n"
        "opposite = b3._neg_mask(standard_borel(b3)._mask)\n"
        "fibration._chambers = lambda *a: iter([(opposite, 3, None)])\n"
        "fibration.minimal_par(RegularSubalgebra(b3, Subspace.zero(3), [(0, 1, 0)]))\n",
        "AssertionError: a Par(v) answer is not in Par(v)",
    ),
    # every free set in place of the maximal ones: the chambers come out
    # too, and each has an upper cover in Par(v)
    "fibration.maximal_par": (
        "from crlie import fibration\n"
        "from crlie.exactlin import Subspace\n"
        "from crlie.rootsys import RegularSubalgebra, build_root_system\n"
        "b3 = build_root_system('B', 3)\n"
        "fibration._free_sets = lambda d, edges: [\n"
        "    s for s in range(1 << d) if all(e & ~s for e in edges)]\n"
        "fibration.maximal_par(\n"
        "    RegularSubalgebra(b3, Subspace.zero(3), [(1, 0, -1), (0, 1, 0)]))\n",
        "AssertionError: a maximal element has an upper cover in Par(v)",
    ),
    # the Levi of the B3 parabolic crossed at e2-e3 and e3, with -e1+e2
    # left out: -e1+e2 vanishes on z all the same
    "fibration.z_root_decomposition": (
        "from crlie.fibration import z_root_decomposition\n"
        "from crlie.rootsys import build_root_system, standard_parabolic\n"
        "q = standard_parabolic(build_root_system('B', 3), [1])\n"
        "q.q_r = q.q_r - {(-1, 1, 0)}\n"
        "z_root_decomposition(q)\n",
        "AssertionError: roots vanishing on z are not exactly the Levi roots",
    ),
    # the same Levi fault in the middle of a batch of Borel sets of A2:
    # e2-e3 left out of the full Levi set of the whole algebra
    "fibration.z_root_decompositions": (
        "from crlie.fibration import z_root_decompositions\n"
        "from crlie.rootsys import ParabolicRootSet, build_root_system, standard_borel\n"
        "a2 = build_root_system('A', 2)\n"
        "q = ParabolicRootSet(a2, a2.roots)\n"
        "q.q_r = q.q_r - {(0, 1, -1)}\n"
        "z_root_decompositions([standard_borel(a2), q, standard_borel(a2)])\n",
        "AssertionError: roots vanishing on z are not exactly the Levi roots",
    ),
    # t^2 passed off as squarefree shares the factor t with its derivative
    "matrixlie": (
        "from crlie import matrixlie\n"
        "from crlie.exactlin import DenseMatrix\n"
        "matrixlie.squarefree_part = lambda p: p\n"
        "matrixlie.jordan_chevalley(DenseMatrix.unit(2, 0, 1))\n",
        "AssertionError: squarefree part shares a factor with its derivative",
    ),
    # every element of a torus is semisimple, so a test that says otherwise
    # must trip the torus's own check
    "matrixlie.maximal_torus": (
        "from crlie import matrixlie\n"
        "matrixlie.is_semisimple_matrix = lambda x: False\n"
        "matrixlie.maximal_torus(matrixlie.gl_ambient(2).full_subalg())\n",
        "AssertionError: maximal torus holds a non-semisimple element",
    ),
    # the strictly upper triangular algebra of gl_3 is its own associative
    # hull up to the identity, so one failed round of the nilradical loop
    # leaves nothing to add, and the loop must raise the failed check
    "matrixlie.nilradical_nr": (
        "from crlie import matrixlie\n"
        "from crlie.exactlin import DenseMatrix\n"
        "matrixlie.is_nilpotent_algebra = lambda sub: False\n"
        "units = [DenseMatrix.unit(3, i, j) for i, j in ((0, 1), (0, 2), (1, 2))]\n"
        "n3 = matrixlie.Subalg.from_matrices(matrixlie.gl_ambient(3), units)\n"
        "matrixlie.nilradical_nr(n3)\n",
        "AssertionError: nilradical candidate is not a nilpotent algebra",
    ),
    # 2(1,1,1)/3 is not integral: (1,1,1) is not a root of B3
    "rootsys": (
        "from crlie.rootsys import build_root_system\n"
        "build_root_system('B', 3).coroot((1, 1, 1))\n",
        "AssertionError: (1, 1, 1) has no integral coroot",
    ),
    # <-e1-e2, (1,1,1)^vee> = -4/3: (1, 1, 1) is no simple root of B3, so
    # a fresh instance that takes it for one builds no reflection table
    "rootsys._reflections": (
        "from crlie import rootsys\n"
        "b3 = rootsys.RootSystem('B', 3)\n"
        "b3.simple_roots = ((1, -1, 0), (0, 1, -1), (1, 1, 1))\n"
        "rootsys.weyl_root_permutations(b3)\n",
        "AssertionError: <(-1, -1, 0), (1, 1, 1)^vee> is not an integer",
    ),
    # a Cartan without e3: the coroot table, read once per system by the
    # first toral part other than t, finds -e1-e3 outside it
    "rootsys._coroot_rows": (
        "from crlie import rootsys\n"
        "from crlie.exactlin import Subspace, canonicalize\n"
        "b3 = rootsys.RootSystem('B', 3)\n"
        "b3.cartan = canonicalize([[1, 0, 0], [0, 1, 0]], 3)\n"
        "rootsys.RegularSubalgebra(b3, Subspace.zero(3), [(0, 0, 1), (0, 0, -1)])\n",
        "AssertionError: coroot of (-1, 0, -1) not in t",
    ),
    # e2 is a root of B3, but the simple roots of R+ are e1-e2, e2-e3, e3
    "rootsys._simple_table": (
        "from crlie import rootsys\n"
        "b3 = rootsys.RootSystem('B', 3)\n"
        "b3.simple_roots = ((1, -1, 0), (0, 1, -1), (0, 1, 0))\n"
        "b3.simple_coefficients((1, 0, 0))\n",
        "AssertionError: the simple roots of R+ are not simple_roots",
    ),
    # the identity with the images of e1 and -e1 swapped maps the maximal
    # parabolic crossed at e3 onto a set holding -e1 and e1-e2 but not -e2
    "rootsys.enumerate_parabolics": (
        "from crlie import rootsys\n"
        "b3 = rootsys.build_root_system('B', 3)\n"
        "perms = rootsys.weyl_root_permutations(b3)\n"
        "i, j = b3.root_index[(1, 0, 0)], b3.root_index[(-1, 0, 0)]\n"
        "identity = list(perms[0])\n"
        "identity[i], identity[j] = identity[j], identity[i]\n"
        "perms[0] = tuple(identity)\n"
        "rootsys.weyl_root_permutations = lambda system, rank_cap: perms\n"
        "rootsys.enumerate_parabolics(b3)\n",
        "ValueError: parabolic set must be closed",
    ),
    # an element that sends every root to e1 maps each maximal parabolic
    # onto {e1}, which is closed; their intersection, the Borel image, is
    # {e1} as well and misses the pair e2, -e2
    "rootsys.enumerate_parabolics.borel": (
        "from crlie import rootsys\n"
        "b3 = rootsys.build_root_system('B', 3)\n"
        "perms = rootsys.weyl_root_permutations(b3)\n"
        "perms[0] = (b3.root_index[(1, 0, 0)],) * len(b3.roots_sorted)\n"
        "rootsys.weyl_root_permutations = lambda system, rank_cap: perms\n"
        "rootsys.enumerate_parabolics(b3)\n",
        "ValueError: Q union -Q must be all of R",
    ),
}


@pytest.mark.parametrize("module", sorted(TRIPPED))
def test_module_checks_survive_optimized_interpreter(module):
    script, message = TRIPPED[module]
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert message in done.stderr
