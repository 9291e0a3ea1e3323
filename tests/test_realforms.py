import itertools
from fractions import Fraction

import pytest

from crlie.crcore import cr_dims, is_n_reductive, regularity_type
from crlie.exactlin import IUNIT, DenseMatrix, GaussRational, Subspace, canonicalize
from crlie.matrixlie import Subalg, maximal_torus, nilradical_nr, normalizer, sigma
from crlie.realforms import (
    COMPLEX,
    IMAGINARY_COMPACT,
    IMAGINARY_NONCOMPACT,
    MATRIX_SIZE_CAP,
    REAL,
    RealFormSpec,
    build_minimal_orbit,
    build_real_form,
    classify_roots,
    embed_regular,
    theta_sets,
    type_criteria,
)
from crlie.regularize import regularize
from crlie.rootsys import RegularSpan, build_root_system, neg

A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
B3 = build_root_system("B", 3)


def units(n):
    return lambda i, j: DenseMatrix.unit(n, i, j)


def gl_span(mats, n):
    return canonicalize([m.flatten() for m in mats], n * n)


def sub_span(sub):
    n = sub.ambient.n
    return canonicalize([m.flatten() for m in sub.matrices()], n * n)


def r(*coords):
    return tuple(coords)


class TestRealFormSpec:
    def test_parse_round_trip(self):
        for tag in ("su:2,3", "slH:2", "so:3,5", "compact-u:4", "compact-so:7",
                    "compact-sp:2"):
            spec = RealFormSpec.parse(tag)
            assert str(spec) == tag
            assert RealFormSpec.parse(str(spec)) == spec

    def test_matrix_sizes(self):
        assert RealFormSpec.parse("su:2,3").matrix_size == 5
        assert RealFormSpec.parse("slH:2").matrix_size == 4
        assert RealFormSpec.parse("so:3,5").matrix_size == 8
        assert RealFormSpec.parse("compact-u:4").matrix_size == 4
        assert RealFormSpec.parse("compact-sp:2").matrix_size == 4

    def test_compact_flag(self):
        assert not RealFormSpec.parse("su:1,1").compact
        assert RealFormSpec.parse("compact-so:7").compact

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unsupported family"):
            RealFormSpec.parse("sq:2,3")

    def test_rejects_p_greater_than_q(self):
        with pytest.raises(ValueError, match="p <= q"):
            RealFormSpec.parse("su:3,2")
        with pytest.raises(ValueError, match="p <= q"):
            RealFormSpec.parse("so:5,3")

    def test_rejects_oversized_matrices(self):
        with pytest.raises(ValueError, match="exceeds"):
            RealFormSpec.parse("su:4,5")
        with pytest.raises(ValueError, match="exceeds"):
            RealFormSpec.parse("slH:5")

    def test_rejects_small_even_orthogonal(self):
        with pytest.raises(ValueError, match="even orthogonal"):
            RealFormSpec.parse("so:1,3")
        with pytest.raises(ValueError, match="even orthogonal"):
            RealFormSpec.parse("compact-so:4")

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            RealFormSpec.parse("su:0,3")
        with pytest.raises(ValueError, match="compact-u needs"):
            RealFormSpec.parse("compact-u:1")
        with pytest.raises(ValueError):
            RealFormSpec.parse("su:2")
        with pytest.raises(ValueError, match="non-integer"):
            RealFormSpec.parse("su:a,b")
        with pytest.raises(ValueError, match="malformed"):
            RealFormSpec.parse("su23")


EXPECTED_K_DIM = {
    "su:1,2": 4,
    "su:2,2": 7,
    "su:1,3": 9,
    "su:2,3": 12,
    "slH:2": 10,
    "slH:3": 21,
    "so:1,4": 6,
    "so:2,3": 4,
    "so:3,5": 13,
    "compact-u:3": 9,
    "compact-u:4": 16,
    "compact-so:5": 10,
    "compact-so:7": 21,
    "compact-sp:2": 10,
}

EXPECTED_SYSTEM = {
    "su:1,2": ("A", 2),
    "su:2,2": ("A", 3),
    "su:1,3": ("A", 3),
    "su:2,3": ("A", 4),
    "slH:2": ("A", 3),
    "slH:3": ("A", 5),
    "so:1,4": ("B", 2),
    "so:2,3": ("B", 2),
    "so:3,5": ("D", 4),
    "compact-u:3": ("A", 2),
    "compact-u:4": ("A", 3),
    "compact-so:5": ("B", 2),
    "compact-so:7": ("B", 3),
    "compact-sp:2": ("C", 2),
}

# every form MATRIX_SIZE_CAP admits: its root system, dim k, the numbers of
# real, imaginary-compact, imaginary-noncompact and complex roots, |h+|,
# |h-| and the rank of k
FORM_INVARIANTS = {
    "su:1,1": ("A1", 1, (2, 0, 0, 0), 0, 1, 1),
    "su:1,2": ("A2", 4, (2, 0, 0, 4), 1, 1, 2),
    "su:1,3": ("A3", 9, (2, 2, 0, 8), 2, 1, 3),
    "su:1,4": ("A4", 16, (2, 6, 0, 12), 3, 1, 4),
    "su:1,5": ("A5", 25, (2, 12, 0, 16), 4, 1, 5),
    "su:1,6": ("A6", 36, (2, 20, 0, 20), 5, 1, 6),
    "su:1,7": ("A7", 49, (2, 30, 0, 24), 6, 1, 7),
    "su:2,2": ("A3", 7, (4, 0, 0, 8), 1, 2, 3),
    "su:2,3": ("A4", 12, (4, 0, 0, 16), 2, 2, 4),
    "su:2,4": ("A5", 19, (4, 2, 0, 24), 3, 2, 5),
    "su:2,5": ("A6", 28, (4, 6, 0, 32), 4, 2, 6),
    "su:2,6": ("A7", 39, (4, 12, 0, 40), 5, 2, 7),
    "su:3,3": ("A5", 17, (6, 0, 0, 24), 2, 3, 5),
    "su:3,4": ("A6", 24, (6, 0, 0, 36), 3, 3, 6),
    "su:3,5": ("A7", 33, (6, 2, 0, 48), 4, 3, 7),
    "su:4,4": ("A7", 31, (8, 0, 0, 48), 3, 4, 7),
    "slH:1": ("A1", 3, (0, 2, 0, 0), 1, 0, 1),
    "slH:2": ("A3", 10, (0, 4, 0, 8), 2, 1, 2),
    "slH:3": ("A5", 21, (0, 6, 0, 24), 3, 2, 3),
    "slH:4": ("A7", 36, (0, 8, 0, 48), 4, 3, 4),
    "so:1,2": ("B1", 1, (2, 0, 0, 0), 0, 1, 1),
    "so:1,4": ("B2", 6, (2, 2, 0, 4), 1, 1, 2),
    "so:1,5": ("D3", 10, (0, 4, 0, 8), 2, 1, 2),
    "so:1,6": ("B3", 15, (2, 8, 0, 8), 2, 1, 3),
    "so:1,7": ("D4", 21, (0, 12, 0, 12), 3, 1, 3),
    "so:2,3": ("B2", 4, (8, 0, 0, 0), 0, 2, 2),
    "so:2,4": ("D3", 7, (4, 0, 0, 8), 1, 2, 3),
    "so:2,5": ("B3", 11, (8, 2, 0, 8), 1, 2, 3),
    "so:2,6": ("D4", 16, (4, 4, 0, 16), 2, 2, 4),
    "so:3,3": ("D3", 6, (12, 0, 0, 0), 0, 3, 2),
    "so:3,4": ("B3", 9, (18, 0, 0, 0), 0, 3, 3),
    "so:3,5": ("D4", 13, (12, 0, 0, 12), 1, 3, 3),
    "so:4,4": ("D4", 12, (24, 0, 0, 0), 0, 4, 4),
    "compact-u:2": ("A1", 4, (0, 2, 0, 0), 2, 0, 2),
    "compact-u:3": ("A2", 9, (0, 6, 0, 0), 3, 0, 3),
    "compact-u:4": ("A3", 16, (0, 12, 0, 0), 4, 0, 4),
    "compact-u:5": ("A4", 25, (0, 20, 0, 0), 5, 0, 5),
    "compact-u:6": ("A5", 36, (0, 30, 0, 0), 6, 0, 6),
    "compact-u:7": ("A6", 49, (0, 42, 0, 0), 7, 0, 7),
    "compact-u:8": ("A7", 64, (0, 56, 0, 0), 8, 0, 8),
    "compact-so:3": ("B1", 3, (0, 2, 0, 0), 1, 0, 1),
    "compact-so:5": ("B2", 10, (0, 8, 0, 0), 2, 0, 2),
    "compact-so:6": ("D3", 15, (0, 12, 0, 0), 3, 0, 3),
    "compact-so:7": ("B3", 21, (0, 18, 0, 0), 3, 0, 3),
    "compact-so:8": ("D4", 28, (0, 24, 0, 0), 4, 0, 4),
    "compact-sp:1": ("C1", 3, (0, 2, 0, 0), 1, 0, 1),
    "compact-sp:2": ("C2", 10, (0, 8, 0, 0), 2, 0, 2),
    "compact-sp:3": ("C3", 21, (0, 18, 0, 0), 3, 0, 3),
    "compact-sp:4": ("C4", 36, (0, 32, 0, 0), 4, 0, 4),
}

FAMILY_PARAM_COUNTS = {
    "su": 2, "slH": 1, "so": 2, "compact-u": 1, "compact-so": 1, "compact-sp": 1,
}


def psd_rank(gram):
    """Rank of a symmetric rational matrix if it is positive semidefinite,
    else None.  Diagonal-pivot Schur elimination; for a PSD matrix a zero
    diagonal forces a zero row, which is exactly what gets checked."""
    m = [list(row) for row in gram]
    active = list(range(len(m)))
    rank = 0
    while active:
        piv = None
        for i in active:
            if m[i][i] < 0:
                return None
            if m[i][i] > 0:
                piv = i
                break
        if piv is None:
            for i in active:
                for j in active:
                    if m[i][j]:
                        return None
            break
        rank += 1
        active.remove(piv)
        p = m[piv][piv]
        for i in active:
            f = m[i][piv] / p
            if f:
                for j in active:
                    m[i][j] -= f * m[piv][j]
    return rank


def compact_trace_form_rank(form):
    """Reference for the build: the Gram matrix of -tr(YZ) on a real
    spanning set of the tau-fixed span of g, and its rank if it is
    positive semidefinite (None otherwise)."""
    g_basis = list(form.cartan_basis) + [
        form.root_vectors[a] for a in form.system.roots_sorted
    ]
    vecs = []
    for b in g_basis:
        tb = sigma(b)
        for y in (b + tb, (b - tb).scale(IUNIT)):
            if not y.is_zero():
                vecs.append(y)
    gram = []
    for a in vecs:
        row = []
        for c in vecs:
            t = a.trace_product(c)
            assert not t.im, "trace form is not real on the tau-fixed span"
            row.append(-t.re)
        gram.append(row)
    return psd_rank(gram)


class TestBuildRealForm:
    @pytest.mark.parametrize("tag", sorted(EXPECTED_K_DIM))
    def test_build_verifies(self, tag):
        form = build_real_form(tag)
        assert form.k.dim == EXPECTED_K_DIM[tag]
        assert (form.system.family, form.system.rank) == EXPECTED_SYSTEM[tag]
        assert len(form.root_vectors) == len(form.system.roots)
        g_dim = len(form.cartan_basis) + len(form.root_vectors)
        assert compact_trace_form_rank(form) == g_dim

    def test_every_form_within_the_cap_builds(self):
        specs = []
        for family, count in FAMILY_PARAM_COUNTS.items():
            sizes = range(1, MATRIX_SIZE_CAP + 1)
            for params in itertools.product(sizes, repeat=count):
                try:
                    specs.append(RealFormSpec(family, params))
                except ValueError:
                    continue
        assert sorted(map(str, specs)) == sorted(FORM_INVARIANTS)
        for spec in specs:
            form = build_real_form(spec)
            cls = form.classification
            tags = (
                cls.real_roots,
                cls.imaginary_compact_roots,
                cls.imaginary_noncompact_roots,
                cls.complex_roots,
            )
            torus = maximal_torus(Subalg(form.k, Subspace.full(form.k.dim)))
            got = (
                f"{form.system.family}{form.system.rank}",
                form.k.dim,
                tuple(map(len, tags)),
                len(form.adapted.h_plus_basis),
                len(form.adapted.h_minus_basis),
                torus.dim,
            )
            assert got == FORM_INVARIANTS[str(spec)], spec

    def test_builds_are_cached(self):
        a = build_real_form("su:1,3")
        b = build_real_form(RealFormSpec("su", (1, 3)))
        assert a is b

    def test_root_vector_lookup(self):
        form = build_real_form("compact-u:3")
        assert form.root_vectors[r(1, -1, 0)] == DenseMatrix.unit(3, 0, 1)
        assert r(1, 1, -2) not in form.root_vectors

    def test_adapted_pair_split_sizes(self):
        expected = {
            "su:1,3": (1, 2),
            "su:2,3": (2, 2),
            "slH:2": (1, 2),
            "so:3,5": (3, 1),
            "compact-u:3": (0, 3),
            "compact-so:7": (0, 3),
            "compact-sp:2": (0, 2),
        }
        for tag, (minus, plus) in expected.items():
            form = build_real_form(tag)
            pair = form.adapted
            assert len(pair.h_minus_basis) == minus
            assert len(pair.h_plus_basis) == plus
            h0 = gl_span(pair.h0_basis, form.n)
            assert h0.dim == len(pair.h0_basis)
            assert h0 == gl_span(form.cartan_basis, form.n)

    def test_su13_compact_part_matches_display(self):
        # the nine-parameter family tied by the outer exchange of rows 0, 3
        form = build_real_form("su:1,3")
        e = units(4)
        lines = [
            e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
            e(1, 1) - e(2, 2),
            e(0, 1) + e(3, 1),
            e(0, 2) + e(3, 2),
            e(0, 3) + e(3, 0),
            e(1, 0) + e(1, 3),
            e(1, 2),
            e(2, 0) + e(2, 3),
            e(2, 1),
        ]
        assert gl_span(lines, 4) == sub_span(form.k.full_subalg())

    def test_su23_compact_part_matches_display(self):
        form = build_real_form("su:2,3")
        e = units(5)
        lines = [
            e(0, 0) + e(4, 4) - e(1, 1) - e(3, 3),
            e(1, 1) + e(3, 3) - e(2, 2) - e(2, 2),
            e(0, 1) + e(4, 3),
            e(0, 2) + e(4, 2),
            e(0, 3) + e(4, 1),
            e(0, 4) + e(4, 0),
            e(1, 0) + e(3, 4),
            e(1, 2) + e(3, 2),
            e(1, 3) + e(3, 1),
            e(1, 4) + e(3, 0),
            e(2, 0) + e(2, 4),
            e(2, 1) + e(2, 3),
        ]
        assert gl_span(lines, 5) == sub_span(form.k.full_subalg())

    def test_slh2_compact_part_is_sp2(self):
        # sp for the paired 2x2 blocks: X: (0,1) and (2,3) are the diagonal
        # pairs, off-block entries tie with a sign
        form = build_real_form("slH:2")
        e = units(4)
        lines = [
            e(0, 0) - e(1, 1),
            e(2, 2) - e(3, 3),
            e(0, 1), e(1, 0), e(2, 3), e(3, 2),
            e(0, 2) - e(3, 1),
            e(2, 0) - e(1, 3),
            e(0, 3) + e(2, 1),
            e(3, 0) + e(1, 2),
        ]
        assert gl_span(lines, 4) == sub_span(form.k.full_subalg())


class TestClassifyRoots:
    def test_compact_forms_are_all_imaginary_compact(self):
        for tag in ("compact-u:3", "compact-so:7", "compact-sp:2"):
            cls = classify_roots(build_real_form(tag))
            assert not cls.real_roots
            assert not cls.complex_roots
            assert not cls.imaginary_noncompact_roots
            assert cls.imaginary_compact_roots == build_real_form(tag).system.roots

    def test_su13_tags(self):
        cls = classify_roots(build_real_form("su:1,3"))
        assert cls.imaginary_compact_roots == {r(0, 1, -1, 0), r(0, -1, 1, 0)}
        assert cls.real_roots == {r(1, 0, 0, -1), r(-1, 0, 0, 1)}
        assert not cls.imaginary_noncompact_roots
        assert len(cls.complex_roots) == 8

    def test_su13_sigma_star(self):
        cls = classify_roots(build_real_form("su:1,3"))
        assert cls.bar(r(1, -1, 0, 0)) == r(0, 1, 0, -1)
        assert cls.theta_star[r(1, -1, 0, 0)] == r(0, -1, 0, 1)

    def test_slh2_tags(self):
        cls = classify_roots(build_real_form("slH:2"))
        assert not cls.real_roots
        assert not cls.imaginary_noncompact_roots
        assert cls.imaginary_compact_roots == {
            r(1, -1, 0, 0), r(-1, 1, 0, 0), r(0, 0, 1, -1), r(0, 0, -1, 1),
        }

    def test_su23_tags(self):
        cls = classify_roots(build_real_form("su:2,3"))
        assert not cls.imaginary_compact_roots
        assert not cls.imaginary_noncompact_roots
        assert cls.real_roots == {
            r(0, 1, 0, -1, 0), r(0, -1, 0, 1, 0),
            r(1, 0, 0, 0, -1), r(-1, 0, 0, 0, 1),
        }
        # sigma flips the diagram: alpha1 <-> alpha4, alpha2 <-> alpha3
        assert cls.bar(r(1, -1, 0, 0, 0)) == r(0, 0, 0, 1, -1)
        assert cls.bar(r(0, 1, -1, 0, 0)) == r(0, 0, 1, -1, 0)

    def test_so35_tags(self):
        cls = classify_roots(build_real_form("so:3,5"))
        assert not cls.imaginary_compact_roots
        assert not cls.imaginary_noncompact_roots
        real = {a for a in cls.real_roots}
        assert len(real) == 12
        assert all(a[3] == 0 for a in real)
        assert cls.bar(r(0, 0, 1, -1)) == r(0, 0, 1, 1)

    def test_sigma_star_is_an_involution(self):
        cls = classify_roots(build_real_form("su:2,3"))
        for alpha, beta in cls.sigma_star.items():
            assert cls.sigma_star[beta] == alpha
            assert cls.theta_star[alpha] == neg(beta)


class TestThetaSets:
    def test_su13_cross_2(self):
        sets = theta_sets(build_real_form("su:1,3"), [2])
        assert sets.crosses == (2,)
        assert len(sets.flag_roots) == 8
        assert sets.flag_nilpotent == {
            r(0, 1, -1, 0), r(1, 0, -1, 0), r(0, 1, 0, -1), r(1, 0, 0, -1),
        }
        assert sets.flag_reductive == {
            r(1, -1, 0, 0), r(-1, 1, 0, 0), r(0, 0, 1, -1), r(0, 0, -1, 1),
        }
        assert sets.projectable == sets.flag_roots
        assert sets.theta_core == {
            r(0, 1, -1, 0), r(1, 0, -1, 0), r(0, 1, 0, -1),
            r(-1, 1, 0, 0), r(0, 0, -1, 1),
        }
        assert sets.theta_core_nilpotent == {
            r(0, 1, -1, 0), r(1, 0, -1, 0), r(0, 1, 0, -1),
        }
        assert sets.theta_core_reductive == frozenset()

    def test_su13_crosses_12(self):
        sets = theta_sets(build_real_form("su:1,3"), [1, 2])
        assert sets.theta_core == {
            r(0, 1, -1, 0), r(1, 0, -1, 0), r(0, 0, -1, 1),
        }
        assert sets.theta_core_nilpotent == {r(0, 1, -1, 0), r(1, 0, -1, 0)}
        assert sets.theta_core_reductive == frozenset()

    def test_su23_crosses_13(self):
        sets = theta_sets(build_real_form("su:2,3"), [1, 3])
        assert len(sets.flag_roots) == 12
        assert len(sets.flag_nilpotent) == 8
        assert sets.flag_reductive == {
            r(0, 1, -1, 0, 0), r(0, -1, 1, 0, 0),
            r(0, 0, 0, 1, -1), r(0, 0, 0, -1, 1),
        }
        assert sets.theta_core == {
            r(1, -1, 0, 0, 0), r(0, 0, 1, -1, 0),
            r(0, -1, 1, 0, 0), r(0, 0, 0, -1, 1),
        }
        assert sets.theta_core_nilpotent == {
            r(1, -1, 0, 0, 0), r(0, 0, 1, -1, 0),
        }
        assert sets.theta_core_reductive == frozenset()

    def test_so35_cross_4(self):
        sets = theta_sets(build_real_form("so:3,5"), [4])
        assert len(sets.flag_roots) == 18
        assert sets.flag_nilpotent == {
            r(1, 1, 0, 0), r(1, 0, 1, 0), r(0, 1, 1, 0),
            r(1, 0, 0, 1), r(0, 1, 0, 1), r(0, 0, 1, 1),
        }
        assert sets.theta_core_nilpotent == {
            r(1, 0, 0, 1), r(0, 1, 0, 1), r(0, 0, 1, 1),
        }
        assert sets.theta_core_reductive == {
            r(1, -1, 0, 0), r(-1, 1, 0, 0), r(1, 0, -1, 0),
            r(-1, 0, 1, 0), r(0, 1, -1, 0), r(0, -1, 1, 0),
        }

    def test_so35_core_extras_pair_with_nilpotent_part(self):
        # theta_core is not the union of its nilpotent and reductive slices:
        # the leftover roots project onto the same lines of k as roots of the
        # nilpotent slice, so the root formula for v is unaffected.
        form = build_real_form("so:3,5")
        sets = theta_sets(form, [4])
        cls = classify_roots(form)
        extras = sets.theta_core - sets.theta_core_nilpotent - sets.theta_core_reductive
        assert extras == {r(-1, 0, 0, 1), r(0, -1, 0, 1), r(0, 0, -1, 1)}
        n = form.n
        for alpha in extras:
            partner = neg(cls.sigma_star[alpha])
            assert partner in sets.theta_core_nilpotent
            pa = (form.root_vectors[alpha] + form.theta(form.root_vectors[alpha]))
            pb = (form.root_vectors[partner] + form.theta(form.root_vectors[partner]))
            assert gl_span([pa], n) == gl_span([pb], n)

    def test_slh2_crosses_13(self):
        sets = theta_sets(build_real_form("slH:2"), [1, 3])
        assert len(sets.flag_roots) == 7
        assert sets.flag_reductive == {r(0, 1, -1, 0), r(0, -1, 1, 0)}
        assert sets.theta_core == {
            r(1, -1, 0, 0), r(0, 0, 1, -1), r(0, -1, 1, 0), r(1, 0, 0, -1),
        }
        assert sets.theta_core_nilpotent == {
            r(1, -1, 0, 0), r(0, 0, 1, -1), r(1, 0, 0, -1),
        }
        assert sets.theta_core_reductive == frozenset()

    def test_compact_core_is_whole_flag(self):
        sets = theta_sets(build_real_form("compact-u:3"), [1])
        assert sets.projectable == sets.flag_roots
        assert sets.theta_core == sets.flag_roots
        assert sets.theta_core_nilpotent == sets.flag_nilpotent
        assert sets.theta_core_reductive == sets.flag_reductive


class TestMinimalOrbit:
    def test_su13_cross_2_dimensions(self):
        orbit = build_minimal_orbit("su:1,3", [2])
        assert orbit.v.dim == 5
        assert orbit.nr.dim == 3
        assert orbit.levi.dim == 2
        assert cr_dims(orbit.v) == (3, 1)
        assert is_n_reductive(orbit.v)

    def test_su13_cross_2_matches_display(self):
        orbit = build_minimal_orbit("su:1,3", [2])
        e = units(4)
        v_lines = [
            e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
            e(1, 1) - e(2, 2),
            e(0, 2) + e(3, 2),
            e(1, 0) + e(1, 3),
            e(1, 2),
        ]
        assert sub_span(orbit.v) == gl_span(v_lines, 4)
        assert sub_span(orbit.nr) == gl_span(v_lines[2:], 4)

    def test_su13_crosses_12_matches_display(self):
        orbit = build_minimal_orbit("su:1,3", [1, 2])
        e = units(4)
        v_lines = [
            e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
            e(1, 1) - e(2, 2),
            e(0, 2) + e(3, 2),
            e(1, 2),
        ]
        assert orbit.v.dim == 4
        assert sub_span(orbit.v) == gl_span(v_lines, 4)
        assert orbit.nr.dim == 2

    def test_su23_matches_display(self):
        orbit = build_minimal_orbit("su:2,3", [1, 3])
        e = units(5)
        v_lines = [
            e(0, 0) + e(4, 4) - e(1, 1) - e(3, 3),
            e(1, 1) + e(3, 3) - e(2, 2) - e(2, 2),
            e(0, 1) + e(4, 3),
            e(2, 1) + e(2, 3),
        ]
        assert orbit.v.dim == 4
        assert sub_span(orbit.v) == gl_span(v_lines, 5)
        assert sub_span(orbit.nr) == gl_span(v_lines[2:], 5)

    def test_su23_normalizer_matches_display(self):
        # the normalizer adds a single line, tying both antidiagonal corner
        # pairs with one parameter; it is too small to hold a maximal torus
        orbit = build_minimal_orbit("su:2,3", [1, 3])
        e = units(5)
        mu = e(0, 4) + e(4, 0) + e(1, 3) + e(3, 1)
        nv = normalizer(orbit.v)
        assert nv.dim == 5
        assert sub_span(nv) == sub_span(orbit.v).join(gl_span([mu], 5))

    def test_slh2_matches_display_and_embeds(self):
        orbit = build_minimal_orbit("slH:2", [1, 3])
        e = units(4)
        v_lines = [
            e(0, 0) - e(1, 1),
            e(2, 2) - e(3, 3),
            e(0, 1),
            e(2, 3),
            e(0, 3) + e(2, 1),
        ]
        assert orbit.v.dim == 5
        assert sub_span(orbit.v) == gl_span(v_lines, 4)
        reg = RegularSpan(
            C2, Subspace.full(2),
            frozenset({r(2, 0), r(0, 2), r(1, 1)}),
        )
        embedded = embed_regular("compact-sp:2", reg)
        assert sub_span(embedded) == sub_span(orbit.v)

    def test_so35_dimensions(self):
        orbit = build_minimal_orbit("so:3,5", [4])
        assert orbit.v.dim == 7
        assert orbit.nr.dim == 3
        assert orbit.levi.dim == 4

    def test_compact_orbit_is_the_flag_parabolic(self):
        # a root datum over A2 cannot carry the center of u(3), so the orbit
        # is the embedded flag parabolic plus the line through i*I
        orbit = build_minimal_orbit("compact-u:3", [1])
        assert orbit.v.dim == 7
        embedded = embed_regular("compact-u:3", orbit.sets.flag.to_regular())
        assert embedded.dim == 6
        assert embedded.is_subspace_of(orbit.v)
        e = units(3)
        center = (e(0, 0) + e(1, 1) + e(2, 2)).scale(IUNIT)
        assert sub_span(orbit.v) == sub_span(embedded).join(gl_span([center], 3))
        assert is_n_reductive(orbit.v)

    def test_regularization_chains(self):
        chains = {
            ("su:1,3", (2,)): [5, 6, 6],
            ("su:1,3", (1, 2)): [4, 7, 7],
            ("su:2,3", (1, 3)): [4, 7, 8, 8],
            ("slH:2", (1, 3)): [5, 7, 7],
        }
        for (tag, crosses), dims in chains.items():
            orbit = build_minimal_orbit(tag, list(crosses))
            chain = regularize(orbit.v)
            assert chain.dims == dims
            assert chain.certificate.ok

    def test_su23_chain_matches_display(self):
        orbit = build_minimal_orbit("su:2,3", [1, 3])
        chain = regularize(orbit.v)
        e = units(5)
        shared = [
            e(0, 0) + e(4, 4) - e(1, 1) - e(3, 3),
            e(1, 1) + e(3, 3) - e(2, 2) - e(2, 2),
            e(0, 1) + e(4, 3),
            e(0, 3) + e(4, 1),
            e(2, 0) + e(2, 4),
            e(2, 1) + e(2, 3),
        ]
        v1 = shared + [e(0, 4) + e(4, 0) + e(1, 3) + e(3, 1)]
        v2 = shared + [e(0, 4) + e(4, 0), e(1, 3) + e(3, 1)]
        assert sub_span(chain.steps[1]) == gl_span(v1, 5)
        assert sub_span(chain.steps[2]) == gl_span(v2, 5)
        assert chain.nr_dims == [2, 4, 4, 4]


class TestTypeCriteria:
    def test_su23_fails_type_one_with_witness(self):
        crit = type_criteria(build_minimal_orbit("su:2,3", [1, 3]))
        assert not crit.type_I
        assert crit.type_II
        assert crit.regularity.kind == "II"
        assert crit.systems == ((r(0, 1, 0, -1, 0), r(1, 0, 0, 0, -1)),)
        record = crit.witnesses["type_I"]
        assert not record["holds"]
        (cex,) = record["counterexamples"]
        assert cex["sum"] == r(1, 0, 0, -1, 0)
        assert crit.witnesses["type_II"]["holds"]

    def test_so35_fails_both_types_on_every_system(self):
        form = build_real_form("so:3,5")
        crit = type_criteria(build_minimal_orbit(form, [4]))
        assert not crit.type_I
        assert not crit.type_II
        assert crit.regularity.kind == "III"
        assert crit.systems == (
            (r(0, 1, -1, 0), r(0, 1, 1, 0)),
            (r(1, -1, 0, 0), r(1, 1, 0, 0)),
            (r(1, 0, -1, 0), r(1, 0, 1, 0)),
        )
        sets = theta_sets(form, [4])
        for record in (crit.witnesses["type_I"], crit.witnesses["type_II"]):
            assert not record["holds"]
            assert len(record["counterexamples"]) == 3
            assert {c["system"] for c in record["counterexamples"]} == set(crit.systems)
        for cex in crit.witnesses["type_II"]["counterexamples"]:
            assert cex["sum"] in form.system.roots
            assert cex["sum"] not in sets.theta_core_reductive

    def test_slh2_is_type_one_vacuously(self):
        crit = type_criteria(build_minimal_orbit("slH:2", [1, 3]))
        assert crit.type_I and crit.type_II
        assert crit.regularity.kind == "I"
        assert crit.systems == ((),)

    def test_su13_cross_2_is_regular(self):
        crit = type_criteria(build_minimal_orbit("su:1,3", [2]))
        assert crit.type_I and crit.type_II
        assert crit.regularity.kind == "I"
        assert crit.systems == ((r(1, 0, 0, -1),),)
        assert crit.witnesses["type_I"] == {
            "holds": True, "system": (r(1, 0, 0, -1),),
        }

    def test_compact_orbit_is_type_one(self):
        crit = type_criteria(build_minimal_orbit("compact-u:3", [1]))
        assert crit.type_I and crit.type_II
        assert crit.regularity.kind == "I"


class TestEmbedRegular:
    def test_rejects_noncompact_forms(self):
        a3 = build_root_system("A", 3)
        reg = RegularSpan(a3, a3.cartan, frozenset())
        with pytest.raises(ValueError, match="compact"):
            embed_regular("su:1,3", reg)

    def test_rejects_mismatched_systems(self):
        reg = RegularSpan(C2, C2.cartan, frozenset())
        with pytest.raises(ValueError, match="presents"):
            embed_regular("compact-u:3", reg)

    def test_torus_only(self):
        reg = RegularSpan(A2, A2.cartan, frozenset())
        embedded = embed_regular("compact-u:3", reg)
        assert embedded.dim == 2
        form = build_real_form("compact-u:3")
        assert sub_span(embedded).is_subspace_of(gl_span(form.cartan_basis, 3))

    def test_nilpotent_pair_in_so7(self):
        reg = RegularSpan(
            B3, Subspace.zero(3),
            frozenset({r(1, 0, -1), r(0, 1, 0)}),
        )
        embedded = embed_regular("compact-so:7", reg)
        assert embedded.dim == 2
        assert nilradical_nr(embedded).dim == 2

    def test_regularizing_the_so7_pair(self):
        # the iteration picks up the torus, then a thirteen dimensional
        # parabolic whose Levi part keeps only +-(e1+e3)
        reg = RegularSpan(
            B3, Subspace.zero(3),
            frozenset({r(1, 0, -1), r(0, 1, 0)}),
        )
        embedded = embed_regular("compact-so:7", reg)
        chain = regularize(embedded)
        assert chain.dims == [2, 9, 13, 13]
        assert chain.certificate.ok


class TestRegularityReports:
    def test_report_ranks(self):
        expected = {
            ("su:1,3", (2,)): ("I", 3, 3, 3),
            ("su:2,3", (1, 3)): ("II", 4, 3, 4),
            ("so:3,5", (4,)): ("III", 3, 2, 2),
        }
        for (tag, crosses), (kind, amb, vrank, lrank) in expected.items():
            orbit = build_minimal_orbit(tag, list(crosses))
            report = regularity_type(orbit.v)
            assert report.kind == kind
            assert report.ambient_rank == amb
            assert report.v_normalizer_rank == vrank
            assert report.levi_normalizer_rank == lrank


# ---------------------------------------------------------------------------
# reference: the matrix route.  Roots are identified by ad-eigenvalues of the
# images of root vectors under sigma and theta, and v, nr(v) and L(v) are
# spans of flattened matrices in gl_n.  The build works on g's coordinates
# instead; both must give the same classification and the same spans.
# ---------------------------------------------------------------------------

ORACLE_FORMS = (
    "su:1,2", "su:2,2", "su:1,3", "su:2,3", "slH:2", "slH:3", "so:1,4",
    "so:2,3", "compact-u:3", "compact-sp:2", "compact-so:5",
)
HALF = GaussRational(Fraction(1, 2))


def _first_nonzero(x):
    return next(
        (i, j) for i, row in enumerate(x.entries) for j, v in enumerate(row) if v
    )


def _ad_eigenvalue(h, x):
    b = h.bracket(x)
    i, j = _first_nonzero(x)
    val = b[i, j] / x[i, j]
    assert b == x.scale(val), "not an ad-eigenvector"
    return val


def _root_image(form, y):
    """Identify y as c * X_beta for a root beta; returns beta."""
    beta = []
    for h in form.coord_elements:
        val = _ad_eigenvalue(h, y)
        assert not val.im and val.re.denominator == 1
        beta.append(int(val.re))
    beta = tuple(beta)
    xb = form.root_vectors[beta]
    i, j = _first_nonzero(xb)
    assert y == xb.scale(y[i, j] / xb[i, j])
    return beta


def matrix_classification(form):
    sigma_star, theta_star, tags = {}, {}, {}
    for alpha in form.system.roots_sorted:
        x = form.root_vectors[alpha]
        sigma_star[alpha] = _root_image(form, form.sigma(x))
        theta_star[alpha] = _root_image(form, form.theta(x))
        bar = sigma_star[alpha]
        if bar == alpha:
            tags[alpha] = REAL
        elif bar == neg(alpha):
            tx = form.theta(x)
            assert tx in (x, x.scale(-1))
            tags[alpha] = IMAGINARY_COMPACT if tx == x else IMAGINARY_NONCOMPACT
        else:
            tags[alpha] = COMPLEX
    return sigma_star, theta_star, tags


def matrix_orbit_spans(form, sets):
    """v as the meet of the flag space with k, and the root formulas for
    nr(v) and L(v), all in flattened gl_n coordinates."""
    n = form.n

    def project(x):
        return (x + form.theta(x)).scale(HALF)

    roots = form.system.roots_sorted
    g_basis = list(form.cartan_basis) + [form.root_vectors[a] for a in roots]
    k_space = gl_span([project(b) for b in g_basis], n)
    flag = gl_span(
        list(form.cartan_basis) + [form.root_vectors[a] for a in sets.flag_roots], n
    )
    h_plus = list(form.adapted.h_plus_basis)
    nr = gl_span([project(form.root_vectors[a]) for a in sets.theta_core_nilpotent], n)
    levi = gl_span(
        h_plus + [project(form.root_vectors[a]) for a in sets.theta_core_reductive], n
    )
    return k_space, flag.meet(k_space), nr, levi


def _crosses_sets(rank):
    for size in range(1, rank + 1):
        yield from itertools.combinations(range(1, rank + 1), size)


class TestMatrixRouteOracle:
    @pytest.mark.parametrize("tag", ORACLE_FORMS)
    def test_classification_matches_matrix_route(self, tag):
        form = build_real_form(tag)
        cls = form.classification
        sigma_star, theta_star, tags = matrix_classification(form)
        assert cls.sigma_star == sigma_star
        assert cls.theta_star == theta_star
        assert cls.tags == tags

    @pytest.mark.parametrize(
        "tag", [t for t in ORACLE_FORMS if t not in ("su:2,3", "slH:3")]
    )
    def test_orbit_spans_match_matrix_route(self, tag):
        form = build_real_form(tag)
        assert form.system.rank <= 3
        checked = 0
        for crosses in _crosses_sets(form.system.rank):
            orbit = build_minimal_orbit(form, list(crosses))
            k_space, v, nr, levi = matrix_orbit_spans(form, orbit.sets)
            assert sub_span(orbit.k.full_subalg()) == k_space
            assert sub_span(orbit.v) == v
            assert sub_span(orbit.nr) == nr
            assert sub_span(orbit.levi) == levi
            checked += 1
        assert checked == 2 ** form.system.rank - 1
