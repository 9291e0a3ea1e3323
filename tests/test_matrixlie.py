import random
import subprocess
import sys
from fractions import Fraction

import pytest

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
from crlie.realforms import build_real_form


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def unit(n, i, j):
    return DenseMatrix.unit(n, i, j)


def diag(*entries):
    return DenseMatrix.diag([GaussRational.of(e) for e in entries])


def idiag(*entries):
    return DenseMatrix.diag([IUNIT * GaussRational.of(e) for e in entries])


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
            for _ in range(9):
                k = rng.randint(1, 3)
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
        assert cases >= 60

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
        v = Subalg.from_matrices(GL2, [DenseMatrix.diag([g(1), IUNIT])])
        assert nilradical_nr(v).dim == 0


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
        a = DenseMatrix.diag([IUNIT * g(Fraction(1, 2)), IUNIT * g(Fraction(3, 2)), g(0)])
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
