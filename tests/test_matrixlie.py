import inspect
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from crlie import cli, matrixlie
from crlie.crcore import levi_part, regularity_type
from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    IUNIT,
    SpanTracker,
    Subspace,
    canonicalize,
    kernel,
    min_poly,
    squarefree_part,
)
from crlie.matrixlie import (
    AmbientAlgebra,
    Subalg,
    _internal_ads,
    _internal_coords,
    _radical_space_from_ads,
    bracket_closure,
    centralizer,
    centralizer_element,
    derived_series,
    gl_ambient,
    i_spectrum,
    is_nilpotent_algebra,
    is_semisimple_matrix,
    is_solvable,
    is_subalgebra,
    jordan_chevalley,
    lower_central_series,
    maximal_torus,
    nilradical_nr,
    normalizer,
    parabolic_from_element,
    radical,
    rational_roots_complete,
    sigma,
    sl_ambient,
    splittable_evidence,
)
from crlie.fibration import euler_positive_clause, homotopic_characteristic
from crlie.realforms import build_real_form, embed_regular
from crlie.rootsys import RegularSubalgebra, build_root_system, closed_closure, neg
from helpers import diagonal


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def unit(n, i, j):
    return DenseMatrix.unit(n, i, j)


def diag(*entries):
    return diagonal([GaussRational.of(e) for e in entries])


def idiag(*entries):
    return diagonal([IUNIT * GaussRational.of(e) for e in entries])


GL2 = gl_ambient(2)
GL3 = gl_ambient(3)
SL2 = sl_ambient(2)
SL3 = sl_ambient(3)


def rand_matrix(rng, n, span=3):
    return DenseMatrix(
        [
            [g(rng.randrange(-span, span + 1)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_coords(rng, dim, density=0.5):
    return tuple(
        g(rng.randrange(-3, 4), rng.randrange(-2, 3)) if rng.random() < density else g(0)
        for _ in range(dim)
    )


def oracle_ambients():
    """gl_3, sl_3 and the compact parts k of five real forms."""
    forms = ("su:2,2", "slH:2", "so:2,3", "compact-sp:2", "compact-so:5")
    return [GL3, SL3] + [build_real_form(tag).k for tag in forms]


# The matrix route that the coordinate route replaced: brackets of n x n
# matrices read back through coords or a SpanTracker.  Kept as oracles.


def matrix_route_normalizer(sub):
    amb = sub.ambient
    rows, pivots = sub.space.basis, sub.space.pivots

    def res(u):
        u = list(u)
        for row, p in zip(rows, pivots):
            f = u[p]
            if f:
                for t in range(len(u)):
                    u[t] = u[t] - f * row[t]
        return u

    equations = []
    for s in sub.matrices():
        cols = []
        for b in amb.basis:
            c = amb.coords(b.bracket(s))
            assert c is not None
            cols.append(res(c))
        for t in range(amb.dim):
            equations.append([cols[i][t] for i in range(amb.dim)])
    if not equations:
        return amb.full_subalg()
    return Subalg(amb, kernel(DenseMatrix(equations)))


def matrix_route_centralizer(sub):
    amb = sub.ambient
    equations = []
    for s in sub.matrices():
        cols = [amb.coords(b.bracket(s)) for b in amb.basis]
        for t in range(amb.dim):
            equations.append([cols[i][t] for i in range(amb.dim)])
    if not equations:
        return amb.full_subalg()
    return Subalg(amb, kernel(DenseMatrix(equations)))


def matrix_route_internal_ads(sub):
    mats = sub.matrices()
    tracker = SpanTracker(sub.ambient.n ** 2)
    for m in mats:
        added = tracker.add(m.flatten())
        assert added, "subalgebra basis is linearly dependent"
    ads = []
    for a in mats:
        cols = []
        for b in mats:
            c = tracker.express(a.bracket(b).flatten())
            assert c is not None, "not a subalgebra"
            cols.append(c)
        ads.append(
            DenseMatrix([[cols[j][i] for j in range(len(mats))] for i in range(len(mats))])
        )
    return ads


class TestAmbient:
    def test_dims(self):
        assert GL3.dim == 9
        assert SL3.dim == 8
        assert GL3.n == 3

    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            AmbientAlgebra(2, [unit(2, 0, 1), unit(2, 1, 0)])

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            AmbientAlgebra(2, [unit(2, 0, 1), unit(2, 0, 1).scale(g(2))])

    def test_rejects_sigma_unstable(self):
        with pytest.raises(ValueError):
            AmbientAlgebra(2, [unit(2, 0, 1)])

    def test_coords_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            x = rand_matrix(rng, 3)
            c = GL3.coords(x)
            assert c is not None
            assert GL3.from_coords(c) == x

    def test_sigma_coords_matches_sigma(self):
        rng = random.Random(7)
        for _ in range(40):
            x = rand_matrix(rng, 3)
            c = GL3.coords(x)
            assert GL3.from_coords(GL3.sigma_coords(c)) == sigma(x)
        for amb in oracle_ambients():
            for _ in range(10):
                c = rand_coords(rng, amb.dim)
                assert amb.from_coords(amb.sigma_coords(c)) == sigma(amb.from_coords(c))

    def test_bracket_matches_matrix_bracket(self):
        rng = random.Random(23)
        pairs = 0
        for amb in oracle_ambients():
            for _ in range(30):
                density = rng.choice((0.2, 0.5, 1.0))
                x = rand_coords(rng, amb.dim, density)
                y = rand_coords(rng, amb.dim, density)
                product = amb.from_coords(x).bracket(amb.from_coords(y))
                assert amb.bracket(x, y) == amb.coords(product)
                pairs += 1
        assert pairs >= 200

    def test_ad_matrix(self):
        rng = random.Random(9)
        for _ in range(30):
            x = rand_matrix(rng, 2)
            y = rand_matrix(rng, 2)
            ad = GL2.ad_matrix(x)
            cy = GL2.coords(y)
            image = tuple(
                sum(
                    (ad[i, j] * cy[j] for j in range(GL2.dim)),
                    GaussRational.of(0),
                )
                for i in range(GL2.dim)
            )
            assert GL2.from_coords(image) == x.bracket(y)

    def test_membership(self):
        assert SL3.coords(unit(3, 0, 0)) is None
        assert SL3.contains_matrix(unit(3, 0, 1))

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1), (3, 3), (2, 3)])
    def test_wrong_shape_is_outside(self, shape):
        # a 1 x 4 matrix has the entry count of gl_2 but is not in it
        rows, cols = shape
        x = DenseMatrix([[g(k + 1) for k in range(cols)] for _ in range(rows)])
        assert GL2.coords(x) is None
        assert not GL2.contains_matrix(x)
        assert not GL2.full_subalg().contains_matrix(x)
        with pytest.raises(ValueError):
            GL2.ad_matrix(x)
        with pytest.raises(ValueError):
            Subalg.from_matrices(GL2, [x])


class TestClosureAndSeries:
    def test_sl2_from_nilpotents(self):
        v = Subalg.from_matrices(GL2, [unit(2, 0, 1), unit(2, 1, 0)])
        assert not is_subalgebra(v)
        w = bracket_closure(v)
        assert w.dim == 3
        assert w.contains_matrix(diag(1, -1))

    def test_upper_triangular_closed(self):
        b = Subalg.from_matrices(
            GL2, [unit(2, 0, 0), unit(2, 1, 1), unit(2, 0, 1)]
        )
        assert is_subalgebra(b)
        assert bracket_closure(b).space == b.space
        assert is_solvable(b)
        assert not is_nilpotent_algebra(b)

    def test_strictly_upper_nilpotent(self):
        n3 = Subalg.from_matrices(
            GL3, [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
        )
        assert is_nilpotent_algebra(n3)
        assert len(lower_central_series(n3)) == 3

    def test_sl2_not_solvable(self):
        s = Subalg.from_matrices(
            GL2, [unit(2, 0, 1), unit(2, 1, 0), diag(1, -1)]
        )
        assert not is_solvable(s)
        assert derived_series(s)[-1] == s.space


class TestNormalizerCentralizer:
    def test_normalizer_of_strictly_upper(self):
        n3 = Subalg.from_matrices(
            GL3, [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
        )
        nm = normalizer(n3)
        assert nm.dim == 6
        assert nm.contains_matrix(diag(1, 2, 3))
        assert not nm.contains_matrix(unit(3, 1, 0))

    def test_borel_self_normalizing_in_sl3(self):
        b = Subalg.from_matrices(
            SL3,
            [
                unit(3, 0, 1),
                unit(3, 0, 2),
                unit(3, 1, 2),
                diag(1, -1, 0),
                diag(0, 1, -1),
            ],
        )
        nm = normalizer(b)
        assert nm.space == b.space

    def test_normalizer_of_zero(self):
        z = GL3.zero_subalg()
        assert normalizer(z).dim == 9

    def test_centralizer_of_regular_diag(self):
        zc = centralizer_element(GL3, diag(1, 2, 3))
        assert zc.dim == 3
        assert zc.contains_matrix(diag(5, -1, 7))
        assert not zc.contains_matrix(unit(3, 0, 1))

    def test_center_of_gl3(self):
        zc = centralizer(GL3.full_subalg())
        assert zc.dim == 1
        assert zc.contains_matrix(DenseMatrix.identity(3))

    def test_normalizer_contains_input_random(self):
        rng = random.Random(13)
        for _ in range(25):
            seeds = [rand_matrix(rng, 3, span=2) for _ in range(2)]
            v = bracket_closure(Subalg.from_matrices(GL3, seeds))
            nm = normalizer(v)
            assert v.is_subspace_of(nm)
            for a in nm.matrices():
                for b in v.matrices():
                    assert v.contains_matrix(a.bracket(b))
            zc = centralizer(v)
            assert zc.is_subspace_of(nm)


class TestCoordinateRouteOracles:
    def test_against_matrix_route(self):
        # spans of basis elements or of random vectors; their normalizers are
        # subalgebras, so they also feed the internal ad matrices
        rng = random.Random(29)
        cases = 0
        for amb in oracle_ambients():
            for _ in range(29):
                k = rng.randint(0, 3)
                if rng.random() < 0.5:
                    rows = rng.sample(amb.unit_coords, k)
                else:
                    rows = [rand_coords(rng, amb.dim, rng.choice((0.15, 0.3))) for _ in range(k)]
                span = Subalg(amb, canonicalize(rows, amb.dim))
                assert normalizer(span) == matrix_route_normalizer(span)
                assert centralizer(span) == matrix_route_centralizer(span)
                v = normalizer(span)
                assert _internal_ads(v) == matrix_route_internal_ads(v)
                cases += 1
        assert cases >= 200

    def test_checks_survive_optimized_interpreter(self):
        # span{E12, E21} is not bracket-closed in sl_2; each structure
        # routine must refuse it under python -O too
        script = (
            "from crlie.exactlin import DenseMatrix\n"
            "from crlie.matrixlie import Subalg, sl_ambient, radical, nilradical_nr, _internal_ads\n"
            "amb = sl_ambient(2)\n"
            "v = Subalg.from_matrices(amb, [DenseMatrix.unit(2, 0, 1), DenseMatrix.unit(2, 1, 0)])\n"
            "for fn in (radical, nilradical_nr, _internal_ads):\n"
            "    try:\n"
            "        fn(v)\n"
            "    except AssertionError:\n"
            "        print(fn.__name__, 'AssertionError')\n"
            "    else:\n"
            "        print(fn.__name__, 'returned')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().splitlines() == [
            "radical AssertionError",
            "nilradical_nr AssertionError",
            "_internal_ads AssertionError",
        ]


class TestRadical:
    def test_solvable_is_own_radical(self):
        b = Subalg.from_matrices(
            GL2, [unit(2, 0, 0), unit(2, 1, 1), unit(2, 0, 1)]
        )
        assert radical(b).space == b.space

    def test_semisimple_has_zero_radical(self):
        s = Subalg.from_matrices(
            GL2, [unit(2, 0, 1), unit(2, 1, 0), diag(1, -1)]
        )
        assert radical(s).dim == 0

    def test_gl2_radical_is_center(self):
        r = radical(GL2.full_subalg())
        assert r.dim == 1
        assert r.contains_matrix(DenseMatrix.identity(2))

    def test_parabolic_in_gl3(self):
        p = Subalg.from_matrices(
            GL3,
            [
                unit(3, 0, 0),
                unit(3, 0, 1),
                unit(3, 1, 0),
                unit(3, 1, 1),
                unit(3, 2, 2),
                unit(3, 0, 2),
                unit(3, 1, 2),
            ],
        )
        r = radical(p)
        assert r.dim == 4
        nil = nilradical_nr(p)
        assert nil.dim == 2
        expected = Subalg.from_matrices(GL3, [unit(3, 0, 2), unit(3, 1, 2)])
        assert nil.space == expected.space


class TestNilradical:
    def test_toral_has_zero_nilradical(self):
        t = Subalg.from_matrices(GL3, [diag(1, 0, 0), diag(0, 1, -1)])
        assert nilradical_nr(t).dim == 0

    def test_strictly_upper_is_own_nilradical(self):
        n3 = Subalg.from_matrices(
            GL3, [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
        )
        assert nilradical_nr(n3).space == n3.space

    def test_upper_triangular_gl2(self):
        b = Subalg.from_matrices(
            GL2, [unit(2, 0, 0), unit(2, 1, 1), unit(2, 0, 1)]
        )
        nil = nilradical_nr(b)
        assert nil.dim == 1
        assert nil.contains_matrix(unit(2, 0, 1))

    def test_nonsplit_line(self):
        # the semisimple part of the generator escapes the line, so the line
        # holds no nonzero nilpotents
        x = diag(1, 1, 0) + unit(3, 0, 1)
        v = Subalg.from_matrices(GL3, [x])
        assert nilradical_nr(v).dim == 0

    def test_isotropic_diagonal_line(self):
        # tr(x^2) = 0 here even though x is semisimple; the associative hull
        # pairing must still exclude it from the nilradical
        v = Subalg.from_matrices(GL2, [diagonal([g(1), IUNIT])])
        assert nilradical_nr(v).dim == 0


# The Killing-form route that the trace-form loop of nilradical_nr replaced:
# the radical by Cartan's criterion, the associative hull of the radical,
# and the hull's trace-form perp met with the radical.  Kept as the oracle.


def reference_associative_hull(mats, n):
    """Span of all products of the given matrices, identity included."""
    tracker = SpanTracker(n * n)
    hull = [DenseMatrix.identity(n)]
    tracker.add(hull[0].flatten())
    frontier = [m for m in mats if tracker.add(m.flatten())]
    hull += frontier
    while frontier:
        frontier = [
            prod
            for f in frontier
            for m in mats
            for prod in (f * m, m * f)
            if tracker.add(prod.flatten())
        ]
        hull += frontier
    return hull


def reference_nilradical(sub):
    amb = sub.ambient
    rad = radical(sub)
    if rad.dim == 0:
        return rad
    hull = reference_associative_hull(rad.matrices(), amb.n)
    equations = [[b.trace_product(z) for b in amb.basis] for z in hull]
    return Subalg(amb, kernel(DenseMatrix(equations)).meet(rad.space))


def quotient_ads(sub, ideal):
    """Structure of v / ideal: ad matrices on a complement of the ideal."""
    amb, space = sub.ambient, sub.space
    ideal_internal = canonicalize(
        [
            _internal_coords(space, row, "ideal is not inside the subalgebra")
            for row in ideal.space.basis
        ],
        sub.dim,
    )
    pivset = set(ideal_internal.pivots)
    free = [i for i in range(sub.dim) if i not in pivset]
    ads = []
    for c1 in free:
        cols = []
        for c2 in free:
            br = amb.bracket(space.basis[c1], space.basis[c2])
            red, _ = ideal_internal.reduce(_internal_coords(space, br))
            cols.append([red[t] for t in free])
        ads.append(DenseMatrix(cols).transpose())
    return ads, len(free)


def assert_reductive_quotient(sub, nil):
    """Killing-form oracle: the radical of v / nil, Killing-orthogonal to
    its derived algebra, is central, so v / nil is reductive."""
    ads, dim = quotient_ads(sub, nil)
    for c in _radical_space_from_ads(ads, dim).basis:
        assert not any(any(ad.mul_vec(c)) for ad in ads), "v / nr(v) is not reductive"


GL4 = gl_ambient(4)
# the 3-cycle: tr P = tr P^2 = 0 and tr P^3 = 3
CYCLE3 = DenseMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
# tr h = tr h^2 = tr h^3 = 0 and tr h^4 = 4
H4 = diagonal([g(1), g(-1), g(0, 1), g(0, -1)])
CYCLE3_PLUS_0 = DenseMatrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
# rounds of the trace-form loop and dim nr(v) for algebras whose nilradical
# needs more than span(1, v) in the trace form
LATER_ROUNDS = {
    "3-cycle in gl3": (GL3, [CYCLE3], 2, 0),
    "diag(1, -1, i, -i) in gl4": (GL4, [H4], 3, 0),
    "span(h, h^2) in gl4": (GL4, [H4, H4 * H4], 2, 0),
    # P + 0 moves E03 to E13, E23 and back: nr is their span
    "3-cycle on span(E03, E13, E23)": (GL4, [CYCLE3_PLUS_0, unit(4, 0, 3)], 2, 3),
}


def rand_closure(rng, amb):
    """Bracket closure of 1-3 random sums of scaled unit matrices, most of
    them upper triangular, so that many closures are not n-reductive."""
    n = amb.n
    gens = []
    for _ in range(rng.randint(1, 3)):
        m = DenseMatrix.zero(n, n)
        for _ in range(rng.randint(1, 3)):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            if rng.random() < 0.3:
                i, j = j, i
            c = g(rng.choice((-2, -1, 1, 2)), rng.randrange(-1, 2))
            m = m + unit(n, i, j).scale(c)
        gens.append(m)
    return bracket_closure(Subalg.from_matrices(amb, gens))


def rand_conjugator(rng, n):
    """A product of elementary matrices I + c E_ij and its inverse."""
    x, x_inv = DenseMatrix.identity(n), DenseMatrix.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        e = unit(n, i, j).scale(g(rng.choice((-2, -1, 1, 2)), rng.randrange(-1, 2)))
        x = x * (DenseMatrix.identity(n) + e)
        x_inv = (DenseMatrix.identity(n) - e) * x_inv
    return x, x_inv


def killing_route_cases():
    """Seeded subalgebras: bracket closures in gl3 and gl4, normalizers of
    spans in the oracle ambients, conjugates of the later-round algebras,
    and the fixed cases of TestNilradical and test_crcore."""
    rng = random.Random(37)
    for amb in (GL3, GL4):
        for _ in range(80):
            yield rand_closure(rng, amb)
    for amb in oracle_ambients():
        for _ in range(6):
            k = rng.randint(1, 2)
            if rng.random() < 0.5:
                rows = rng.sample(amb.unit_coords, k)
            else:
                rows = [rand_coords(rng, amb.dim, 0.2) for _ in range(k)]
            yield normalizer(Subalg(amb, canonicalize(rows, amb.dim)))
    for amb, mats, _, _ in LATER_ROUNDS.values():
        yield bracket_closure(Subalg.from_matrices(amb, mats))
        for _ in range(3):
            x, x_inv = rand_conjugator(rng, amb.n)
            conj = [x * m * x_inv for m in mats]
            yield bracket_closure(Subalg.from_matrices(amb, conj))
    yield GL3.zero_subalg()
    yield GL3.full_subalg()
    yield Subalg.from_matrices(GL2, [diagonal([g(1), IUNIT])])
    yield Subalg.from_matrices(GL3, [diag(1, 1, 0) + unit(3, 0, 1)])
    # V_TWISTED of test_crcore: not n-reductive
    yield Subalg.from_matrices(
        GL3, [idiag(1, 1, 0) + unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
    )


@pytest.fixture
def round_dims(monkeypatch):
    """dim n of every round of the trace-form loop, in call order."""
    checks = matrixlie._nilradical_failure
    dims = []

    def counted(sub, nil):
        dims.append(nil.dim)
        return checks(sub, nil)

    monkeypatch.setattr(matrixlie, "_nilradical_failure", counted)
    return dims


class TestNilradicalAgainstKillingRoute:
    def test_matches_reference(self, round_dims):
        cases = not_n_reductive = later_rounds = 0
        for v in killing_route_cases():
            expected = reference_nilradical(v)
            start = len(round_dims)
            nil = nilradical_nr(v)
            assert nil.space == expected.space
            assert_reductive_quotient(v, nil)
            later_rounds += len(round_dims) - start > 1
            meet, join = expected.meet_join(levi_part(v))
            not_n_reductive += meet.dim > 0 or join.space != v.space
            cases += 1
        assert cases >= 200
        assert not_n_reductive >= 40
        assert later_rounds >= 16

    @pytest.mark.parametrize("name", sorted(LATER_ROUNDS))
    def test_later_rounds(self, round_dims, name):
        amb, mats, rounds, nr_dim = LATER_ROUNDS[name]
        v = bracket_closure(Subalg.from_matrices(amb, mats))
        nil = nilradical_nr(v)
        assert len(round_dims) == rounds
        assert nil.dim == nr_dim == round_dims[-1]
        assert nil.space == reference_nilradical(v).space


def test_corpus_quotients_by_the_nilradical_are_reductive(monkeypatch):
    fresh, seen = matrixlie.nilradical_nr, []

    def recorded(sub):
        seen.append((sub, fresh(sub)))
        return seen[-1][1]

    monkeypatch.setattr(matrixlie, "nilradical_nr", recorded)
    for name in cli._fixture_names():
        assert cli._run_fixture(name)["ok"], name
    assert len(seen) >= 16
    for sub, nil in seen:
        assert_reductive_quotient(sub, nil)
    # the oracle refuses a quotient that is not reductive: the Borel of gl2
    borel = Subalg.from_matrices(GL2, [unit(2, 0, 0), unit(2, 1, 1), unit(2, 0, 1)])
    with pytest.raises(AssertionError, match="not reductive"):
        assert_reductive_quotient(borel, GL2.zero_subalg())


class TestNilradicalAccessor:
    def test_matches_a_fresh_computation_once(self, monkeypatch):
        # normalizers of seeded spans are subalgebras, most with a nonzero
        # nilradical
        rng = random.Random(31)
        fresh = matrixlie.nilradical_nr
        calls = []

        def counted(sub):
            calls.append(sub)
            return fresh(sub)

        monkeypatch.setattr(matrixlie, "nilradical_nr", counted)
        nonzero = 0
        for amb in oracle_ambients()[:4]:
            for _ in range(6):
                k = rng.randint(1, 2)
                if rng.random() < 0.5:
                    rows = rng.sample(amb.unit_coords, k)
                else:
                    rows = [rand_coords(rng, amb.dim, 0.2) for _ in range(k)]
                v = normalizer(Subalg(amb, canonicalize(rows, amb.dim)))
                expected = fresh(Subalg(amb, v.space))
                calls.clear()
                assert v.nilradical().space == expected.space
                assert v.nilradical() is v.nilradical()
                assert len(calls) == 1 and calls[0] is v
                nonzero += expected.dim > 0
        assert nonzero >= 12


class TestJordanChevalley:
    def test_jordan_block(self):
        x = diag(1, 1) + unit(2, 0, 1)
        s, n = jordan_chevalley(x)
        assert s == DenseMatrix.identity(2)
        assert n == unit(2, 0, 1)

    def test_nilpotent(self):
        x = unit(3, 0, 1) + unit(3, 1, 2)
        s, n = jordan_chevalley(x)
        assert s.is_zero()
        assert n == x

    def test_already_semisimple(self):
        x = unit(2, 0, 1) + unit(2, 1, 0)
        s, n = jordan_chevalley(x)
        assert s == x
        assert n.is_zero()

    def test_conjugated_jordan_form(self):
        rng = random.Random(17)
        jordan = DenseMatrix(
            [
                [g(2), g(1), g(0)],
                [g(0), g(2), g(0)],
                [g(0), g(0), g(3)],
            ]
        )
        for _ in range(20):
            nil = DenseMatrix(
                [
                    [g(0), g(rng.randrange(-4, 5)), g(rng.randrange(-4, 5))],
                    [g(0), g(0), g(rng.randrange(-4, 5))],
                    [g(0), g(0), g(0)],
                ]
            )
            p = DenseMatrix.identity(3) + nil
            pinv = DenseMatrix.identity(3) - nil + nil * nil
            assert (p * pinv) == DenseMatrix.identity(3)
            x = p * jordan * pinv
            s, n = jordan_chevalley(x)
            assert s == p * diag(2, 2, 3) * pinv
            assert not n.is_zero()
            assert s.bracket(n).is_zero()

    def test_random_properties(self):
        rng = random.Random(19)
        for _ in range(40):
            x = rand_matrix(rng, 3, span=2)
            s, n = jordan_chevalley(x)
            assert s + n == x
            assert s.bracket(n).is_zero()
            assert (n ** 3).is_zero()
            assert is_semisimple_matrix(s)
            assert s.bracket(x).is_zero()


class TestMaximalTorus:
    def test_gl3(self):
        t = maximal_torus(GL3.full_subalg())
        assert t.dim == 3
        for m in t.matrices():
            assert is_semisimple_matrix(m)

    def test_sl2(self):
        t = maximal_torus(SL2.full_subalg())
        assert t.dim == 1

    def test_torus_is_its_own(self):
        t = maximal_torus(
            Subalg.from_matrices(
                GL3, [idiag(1, 0, 0), idiag(0, 1, 0), idiag(0, 0, 1)]
            )
        )
        assert t.dim == 3

    def test_rejects_sigma_unstable(self):
        v = Subalg.from_matrices(GL2, [unit(2, 0, 1)])
        with pytest.raises(ValueError):
            maximal_torus(v)


def search_torus(sub, seed=0):
    """Reference: the centralizer of a random element of the compact real
    points (coefficients -9..9), kept once it passes the four torus checks;
    eight attempts."""
    amb = sub.ambient
    if sub.dim == 0:
        return sub
    n = amb.n
    generators = []
    for b in sub.matrices():
        for x in (b + sigma(b), (b - sigma(b)).scale(IUNIT)):
            if not x.is_zero():
                generators.append(x)
    rng = random.Random(seed)
    for _ in range(8):
        y = DenseMatrix.zero(n, n)
        for x in generators:
            y = y + x.scale(rng.randrange(-9, 10))
        t = centralizer_element(amb, y).meet(sub)
        if torus_checks(sub, t):
            return t
    raise RuntimeError("no generic element found for the maximal torus")


def torus_checks(sub, t):
    """Abelian, sigma-stable, semisimple and self-centralizing in sub."""
    basis = t.space.basis
    return (
        t.is_subspace_of(sub)
        and not any(any(t.ambient.bracket(a, b)) for a in basis for b in basis)
        and t.is_sigma_stable()
        and all(is_semisimple_matrix(m) for m in t.matrices())
        and centralizer(t).meet(sub).space == t.space
    )


# real forms whose k the reference search handles in well under a second
TORUS_FORMS = (
    "su:1,2", "su:2,2", "su:1,3", "su:2,3", "slH:2", "slH:3", "so:1,4",
    "so:2,3", "so:3,5", "compact-u:3", "compact-u:4", "compact-sp:2",
    "compact-so:5", "compact-so:7",
)
# compact form -> its root system
TORUS_EMBEDDED = {
    "compact-u:3": ("A", 2),
    "compact-sp:2": ("C", 2),
    "compact-so:5": ("B", 2),
}


def torus_cases():
    """14 ks, then L(v) and N(v) meet sigma N(v) for 93 seeded closed root
    sets embedded in compact forms: 200 sigma-stable subalgebras."""
    for form in TORUS_FORMS:
        yield build_real_form(form).k.full_subalg()
    rng = random.Random("maximal-torus")
    forms = sorted(TORUS_EMBEDDED)
    for i in range(93):
        form = forms[i % 3]
        system = build_root_system(*TORUS_EMBEDDED[form])
        seed_roots = rng.sample(system.roots_sorted, rng.randrange(5))
        roots = closed_closure(system, seed_roots)
        toral = [list(system.coroot(a)) for a in roots if neg(a) in roots]
        if rng.random() < 0.5:
            # a random element of the Cartan, spanned by the simple roots
            extra = [0] * system.coord_dim
            for simple in system.simple_roots:
                c = rng.randrange(-2, 3)
                extra = [x + c * y for x, y in zip(extra, simple)]
            toral.append(extra)
        reg = RegularSubalgebra(system, canonicalize(toral, system.coord_dim), roots)
        v = embed_regular(form, reg)
        yield levi_part(v)
        n = normalizer(v)
        yield n.meet(n.sigma_image())


class TestMaximalTorusAgainstSearch:
    def test_matches_random_search(self):
        cases = 0
        for sub in torus_cases():
            assert sub.is_sigma_stable()
            t = maximal_torus(sub)
            assert t.dim == search_torus(sub).dim
            assert torus_checks(sub, t)
            assert maximal_torus(sub).space == t.space
            cases += 1
        assert cases >= 200

    def test_takes_no_seed(self):
        for func in (
            maximal_torus,
            regularity_type,
            homotopic_characteristic,
            euler_positive_clause,
        ):
            assert "seed" not in inspect.signature(func).parameters


class TestSpectrum:
    def test_i_spectrum(self):
        assert i_spectrum(idiag(1, 2, 2)) == [
            Fraction(1),
            Fraction(2),
        ]
        assert i_spectrum(DenseMatrix.zero(2, 2)) == [Fraction(0)]

    def test_i_spectrum_rejects_real(self):
        with pytest.raises(ValueError):
            i_spectrum(diag(1, 2))
        with pytest.raises(ValueError):
            i_spectrum(unit(2, 0, 1) + unit(2, 1, 0))

    def test_rational_roots(self):
        from crlie.exactlin import Poly

        p = Poly([g(-2), g(1)]) * Poly([g(Fraction(1, 3)), g(1)])
        roots = rational_roots_complete(p)
        assert roots == [Fraction(-1, 3), Fraction(2)]
        with pytest.raises(ValueError):
            rational_roots_complete(Poly([g(-2), g(0), g(1)]))


class TestParabolicFromElement:
    def test_regular_element_gives_borel(self):
        q = parabolic_from_element(GL3, idiag(2, 1, 0))
        assert q.dim == 6
        assert q.contains_matrix(unit(3, 0, 1))
        assert q.contains_matrix(unit(3, 0, 2))
        assert q.contains_matrix(unit(3, 1, 2))
        assert not q.contains_matrix(unit(3, 1, 0))

    def test_subregular_element(self):
        q = parabolic_from_element(GL3, idiag(1, 1, 0))
        assert q.dim == 7
        assert q.contains_matrix(unit(3, 1, 0))
        assert not q.contains_matrix(unit(3, 2, 0))

    def test_zero_element(self):
        q = parabolic_from_element(GL3, DenseMatrix.zero(3, 3))
        assert q.dim == 9

    def test_fractional_spectrum(self):
        a = diagonal([IUNIT * g(Fraction(1, 2)), IUNIT * g(Fraction(3, 2)), g(0)])
        q = parabolic_from_element(GL3, a)
        assert q.dim == 6
        assert q.contains_matrix(unit(3, 1, 0))
        assert q.contains_matrix(unit(3, 0, 2))
        assert not q.contains_matrix(unit(3, 0, 1))

    def test_rejects_non_sigma_fixed(self):
        with pytest.raises(ValueError):
            parabolic_from_element(GL3, diag(1, 2, 3))


class TestSplittable:
    def test_semisimple_splits(self):
        s = Subalg.from_matrices(
            GL2, [unit(2, 0, 1), unit(2, 1, 0), diag(1, -1)]
        )
        ev = splittable_evidence(s)
        assert ev.all_split
        assert ev.witness is None

    def test_nilpotent_splits(self):
        v = Subalg.from_matrices(GL2, [unit(2, 0, 1)])
        assert splittable_evidence(v).all_split

    def test_nonsplit_line(self):
        v = Subalg.from_matrices(GL3, [diag(1, 1, 0) + unit(3, 0, 1)])
        ev = splittable_evidence(v)
        assert not ev.all_split
        assert ev.witness is not None
        s, _ = jordan_chevalley(ev.witness)
        assert not v.contains_matrix(s)
