import functools
import itertools
import math
import pickle
import random
import subprocess
import sys

import pytest

from crlie import rootsys
from crlie.exactlin import DenseMatrix, Subspace, canonicalize, solve_linear
from crlie.rootsys import (
    ParabolicRootSet,
    RootSystem,
    _check_parabolic_mask,
    _weyl_orbit,
    RegularSpan,
    RegularSubalgebra,
    build_root_system,
    closed_closure,
    enumerate_parabolics,
    format_root,
    is_closed,
    lie_closure_regular,
    neg,
    normalizer_regular,
    nr_and_levi,
    parabolic_from_crosses,
    parabolic_from_grading,
    parse_root,
    regular_sum,
    root_sum,
    standard_borel,
    standard_parabolic,
    strongly_orthogonal,
    strongly_orthogonal_maximal_sets,
    weyl_conjugate_sets,
    weyl_root_permutations,
)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
A4 = build_root_system("A", 4)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
C2 = build_root_system("C", 2)
D3 = build_root_system("D", 3)
D4 = build_root_system("D", 4)

ALL_SYSTEMS = [A2, A3, A4, B2, B3, C2, D3, D4]


def r(system, text):
    return system.parse_root(text)


def signed_permutations(system):
    """Reference Weyl group in e_i coordinates: every coordinate permutation
    with every sign vector, none for A and an even number of -1 for D."""
    n = system.coord_dim
    if system.family == "A":
        for perm in itertools.permutations(range(n)):
            yield perm, (1,) * n
        return
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if system.family == "D" and signs.count(-1) % 2:
                continue
            yield perm, signs


def weyl_apply(element, alpha):
    perm, signs = element
    return tuple(signs[i] * alpha[perm[i]] for i in range(len(alpha)))


@functools.lru_cache(maxsize=None)
def reference_weyl_table(system):
    """Reference Weyl table, independent of the simple reflections: each
    signed permutation applied to every root, as a root-index permutation,
    in the order of ``signed_permutations``."""
    index = system.root_index
    return tuple(
        tuple(index[weyl_apply(element, a)] for a in system.roots_sorted)
        for element in signed_permutations(system)
    )


def reference_simple_coefficients(system, alpha):
    """Reference coordinates on the simple roots: one exact linear solve."""
    columns = DenseMatrix(
        [[s[i] for s in system.simple_roots] for i in range(system.coord_dim)]
    )
    sol = solve_linear(columns, list(alpha))
    if sol is None or any(c.im or c.re.denominator != 1 for c in sol):
        raise AssertionError(f"{alpha} has no integer simple coordinates")
    return tuple(int(c.re) for c in sol)


def is_root(system, alpha) -> bool:
    return tuple(alpha) in system.roots


def fundamental_coweight(system, index):
    """A rational vector A with alpha_j(A) = delta_{j,index} (1-based index),
    by one exact linear solve."""
    rows = DenseMatrix([list(s) for s in system.simple_roots])
    rhs = [1 if j == index - 1 else 0 for j in range(system.rank)]
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise AssertionError("simple roots are not independent")
    return tuple(c.re for c in sol)


def rs(system, *texts):
    return frozenset(system.parse_root(t) for t in texts)


class TestConstruction:
    def test_root_counts(self):
        assert len(A2.roots) == 6
        assert len(A3.roots) == 12
        assert len(B3.roots) == 18
        assert len(C2.roots) == 8
        assert len(D3.roots) == 12
        assert len(D4.roots) == 24

    def test_positive_plus_negative_partition(self):
        for system in ALL_SYSTEMS:
            pos = set(system.positive_roots)
            assert len(pos) * 2 == len(system.roots)
            assert pos | {neg(a) for a in pos} == set(system.roots)

    def test_simple_roots(self):
        assert B3.simple_roots == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
        assert C2.simple_roots == ((1, -1), (0, 2))
        assert D4.simple_roots == (
            (1, -1, 0, 0),
            (0, 1, -1, 0),
            (0, 0, 1, -1),
            (0, 0, 1, 1),
        )
        for system in ALL_SYSTEMS:
            for s in system.simple_roots:
                assert is_root(system, list(s))
            assert not is_root(system, [0] * system.coord_dim)

    def test_every_positive_root_has_nonneg_simple_coords(self):
        for system in ALL_SYSTEMS:
            for alpha in system.positive_roots:
                coeffs = system.simple_coefficients(alpha)
                assert all(c >= 0 for c in coeffs)
                assert any(c > 0 for c in coeffs)
                rebuilt = [0] * system.coord_dim
                for c, s in zip(coeffs, system.simple_roots):
                    for i, x in enumerate(s):
                        rebuilt[i] += c * x
                assert tuple(rebuilt) == alpha

    def test_simple_coefficients_match_linear_solve(self):
        for system in ALL_SYSTEMS:
            for alpha in system.roots_sorted:
                assert system.simple_coefficients(alpha) == (
                    reference_simple_coefficients(system, alpha)
                )

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (0, 0, 0), (2, 0, 0), (1, 0)])
    def test_simple_coefficients_reject_non_roots(self, alpha):
        with pytest.raises(ValueError, match="is not a root of RootSystem"):
            B3.simple_coefficients(alpha)

    def test_simple_roots_must_be_those_of_the_positive_roots(self):
        system = RootSystem("B", 3)
        system.simple_roots = ((1, -1, 0), (0, 1, -1), (0, 1, 0))
        with pytest.raises(AssertionError, match="simple roots of R"):
            system.simple_coefficients((1, 0, 0))

    @pytest.mark.parametrize(
        "family, simples, message",
        [
            ("B", ((1, -1, 0), (0, 1, -1), (1, 1, 1)), "is not an integer"),
            ("A", ((1, -1, 0), (1, 1, 0)), "maps .* off R"),
        ],
    )
    def test_reflections_check_their_images(self, family, simples, message):
        # a fresh instance: the shared one keeps its tables
        system = RootSystem(family, len(simples))
        system.simple_roots = simples
        with pytest.raises(AssertionError, match=message):
            weyl_root_permutations(system)

    @pytest.mark.parametrize("rank", [True, 3.0, "3", None])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(ValueError, match="rank must be an int"):
            build_root_system("B", rank)
        with pytest.raises(ValueError, match="rank must be an int"):
            RootSystem("B", rank)

    @pytest.mark.parametrize("family, rank", [(3, 3), (None, 2)])
    def test_family_must_be_a_str(self, family, rank):
        with pytest.raises(ValueError, match="family must be a str"):
            build_root_system(family, rank)
        with pytest.raises(ValueError, match="family must be a str"):
            RootSystem(family, rank)

    def test_rank_is_checked_in_either_call_order(self):
        # 3.0 hashes like 3 and True like 1: neither may get the cached
        # system, whether or not B3 and B1 were built before
        script = (
            "from crlie.rootsys import build_root_system\n"
            "def rejected(rank):\n"
            "    try:\n"
            "        build_root_system('B', rank)\n"
            "    except ValueError:\n"
            "        return True\n"
            "    return False\n"
            "before = [rejected(3.0), rejected(True)]\n"
            "build_root_system('B', 3), build_root_system('B', 1)\n"
            "print(before, [rejected(3.0), rejected(True)])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert done.stdout.split("\n")[0] == "[True, True] [True, True]", done.stderr

    def test_coroots(self):
        assert B3.coroot((0, 0, 1)) == (0, 0, 2)
        assert B3.coroot((1, -1, 0)) == (1, -1, 0)
        assert C2.coroot((2, 0)) == (1, 0)
        assert A2.coroot((1, -1, 0)) == (1, -1, 0)

    def test_cartan_dimension(self):
        assert A3.cartan.dim == 3
        assert A3.coord_dim == 4
        assert B3.cartan.dim == 3
        for system in ALL_SYSTEMS:
            for alpha in system.roots:
                assert system.cartan.contains(list(alpha))

    def test_bad_families(self):
        with pytest.raises(ValueError):
            build_root_system("E", 6)
        with pytest.raises(ValueError):
            build_root_system("D", 2)


class TestRootLiterals:
    def test_parse(self):
        assert parse_root("e1-e3", 3) == (1, 0, -1)
        assert parse_root("2e1", 2) == (2, 0)
        assert parse_root("-e2", 3) == (0, -1, 0)
        assert parse_root("e1+e2", 4) == (1, 1, 0, 0)

    def test_parse_rejects(self):
        for bad in ["", "x", "e0", "e9", "e1-", "1.5e1", "e1 e2"]:
            with pytest.raises(ValueError):
                parse_root(bad, 3)
        with pytest.raises(ValueError):
            B3.parse_root("2e1")  # not a root of B3

    def test_format(self):
        assert format_root((1, 0, -1)) == "e1-e3"
        assert format_root((2, 0)) == "2e1"
        assert format_root((0, -1, 0)) == "-e2"
        assert format_root((0, 0, 0)) == "0"

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            system = rng.choice(ALL_SYSTEMS)
            alpha = rng.choice(system.roots_sorted)
            assert parse_root(format_root(alpha), system.coord_dim) == alpha


class TestClosure:
    def test_c2_example(self):
        start = rs(C2, "e1-e2", "2e2")
        closure = closed_closure(C2, start)
        assert closure == rs(C2, "e1-e2", "2e2", "e1+e2", "2e1")

    def test_a2_simples_close_to_positive_system(self):
        closure = closed_closure(A2, A2.simple_roots)
        assert closure == frozenset(A2.positive_roots)

    def test_closed_detection(self):
        assert is_closed(C2, rs(C2, "2e1", "e1+e2", "2e2"))
        assert not is_closed(C2, rs(C2, "e1-e2", "2e2"))

    def test_closure_properties_random(self):
        rng = random.Random(23)
        for _ in range(250):
            system = rng.choice(ALL_SYSTEMS)
            size = rng.randrange(0, 5)
            start = frozenset(rng.sample(system.roots_sorted, size))
            closure = closed_closure(system, start)
            assert start <= closure
            assert is_closed(system, closure)
            assert closed_closure(system, closure) == closure
            sub = frozenset(a for a in start if rng.random() < 0.5)
            assert closed_closure(system, sub) <= closure


class TestRegularSubalgebra:
    def test_validation(self):
        toral = Subspace.zero(2)
        with pytest.raises(ValueError):
            RegularSubalgebra(C2, toral, rs(C2, "e1-e2", "2e2"))  # not closed
        with pytest.raises(ValueError):
            # opposite pair without its coroot
            RegularSubalgebra(C2, toral, rs(C2, "2e1", "-2e1"))
        with pytest.raises(ValueError):
            # toral part must sit inside the Cartan (zero-sum for type A)
            RegularSubalgebra(
                A2, canonicalize([[1, 0, 0]], 3), frozenset()
            )

    def test_dim_and_split(self):
        v = RegularSubalgebra(C2, Subspace.zero(2), rs(C2, "2e1", "e1+e2", "2e2"))
        assert v.dim == 3
        vn, levi = nr_and_levi(v)
        assert vn == v.rootset
        assert levi.dim == 0

    def test_sl2_inside(self):
        toral = canonicalize([[1, 0]], 2)
        v = RegularSubalgebra(C2, toral, rs(C2, "2e1", "-2e1"))
        assert v.dim == 3
        vn, levi = nr_and_levi(v)
        assert vn == frozenset()
        assert levi.rootset == v.rootset

    def test_conj(self):
        from crlie.exactlin import GaussRational

        i = GaussRational.parse("i")
        toral = canonicalize([[1, i, -1 - i]], 3)
        v = RegularSubalgebra(A2, toral, rs(A2, "e1-e2"))
        w = v.conj()
        assert w.rootset == rs(A2, "e2-e1")
        assert w.toral != v.toral
        assert w.conj().same_span(v)


class TestNormalizer:
    def test_c2_nilpotent_part(self):
        n = rs(C2, "2e1", "e1+e2", "2e2")
        norm = normalizer_regular(C2, n)
        assert norm.toral == C2.cartan
        assert norm.rootset == rs(C2, "e1-e2", "e2-e1", "2e1", "e1+e2", "2e2")
        q = ParabolicRootSet(C2, norm.rootset)
        assert q.q_r == rs(C2, "e1-e2", "e2-e1")
        assert q.q_n == n

    def test_parabolic_nilradical_is_fixed_point(self):
        for system, crosses in [(C2, [2]), (B3, [1]), (A3, [2]), (D4, [1, 3])]:
            q = parabolic_from_crosses(system, crosses)
            norm = normalizer_regular(system, q.q_n)
            assert norm.rootset == q.q

    def test_b3_chain_step_by_step(self):
        n0 = rs(B3, "e1-e3", "e2")
        v1 = normalizer_regular(B3, n0)
        assert v1.dim == 9
        assert v1.rootset == rs(
            B3, "e2", "e1+e2", "e1-e3", "e1+e3", "-e1-e3", "e2-e3"
        )
        n1, levi1 = nr_and_levi(v1)
        assert n1 == rs(B3, "e2", "e1+e2", "e1-e3", "e2-e3")
        assert levi1.rootset == rs(B3, "e1+e3", "-e1-e3")

        v2 = normalizer_regular(B3, n1)
        assert v2.dim == 13
        n2, _ = nr_and_levi(v2)
        assert n2 == rs(
            B3, "e1", "e2", "-e3", "e1+e2", "e2-e1", "e1-e3", "e2+e3", "e2-e3"
        )

        v3 = normalizer_regular(B3, n2)
        assert v3.same_span(v2)
        q = ParabolicRootSet(B3, v2.rootset)
        assert q.q_r == rs(B3, "e1+e3", "-e1-e3")
        assert q == parabolic_from_grading(B3, (1, 2, -1))
        assert q != standard_borel(B3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalizer_regular(C2, rs(C2, "2e1", "-2e1"))
        with pytest.raises(ValueError):
            normalizer_regular(C2, rs(C2, "e1-e2", "2e2"))

    def test_normalizes_random(self):
        rng = random.Random(31)
        for _ in range(150):
            system = rng.choice(ALL_SYSTEMS)
            q = parabolic_from_crosses(
                system,
                [i for i in range(1, system.rank + 1) if rng.random() < 0.5],
            )
            seed = rng.sample(sorted(q.q_n), min(len(q.q_n), rng.randrange(0, 4)))
            n = closed_closure(system, seed)
            assert n <= q.q_n
            norm = normalizer_regular(system, n)
            assert n <= norm.rootset
            assert norm.toral == system.cartan
            for beta in norm.rootset:
                for alpha in n:
                    s = root_sum(alpha, beta)
                    if s in system.roots:
                        assert s in n


class TestLieClosure:
    def test_algebra_mode_adds_coroots(self):
        span = RegularSpan(C2, Subspace.zero(2), rs(C2, "2e1", "-2e1"))
        v = lie_closure_regular(C2, span, mode="algebra")
        assert isinstance(v, RegularSubalgebra)
        assert v.toral.dim == 1
        assert v.toral.contains([1, 0])
        assert v.rootset == span.rootset

    def test_algebra_mode_adds_sums(self):
        span = RegularSpan(A2, Subspace.zero(3), rs(A2, "e1-e2", "e2-e3"))
        v = lie_closure_regular(A2, span, mode="algebra")
        assert v.rootset == rs(A2, "e1-e2", "e2-e3", "e1-e3")
        assert v.toral.dim == 0

    def test_module_vs_algebra_mode(self):
        # module closure under a Levi can be strictly smaller than the Lie
        # closure of the same generators
        levi = RegularSubalgebra(
            B3,
            canonicalize([[1, -1, 0]], 3),
            rs(B3, "e1-e2", "e2-e1"),
        )
        span = RegularSpan(B3, Subspace.zero(3), rs(B3, "e2"))
        mod = lie_closure_regular(B3, span, mode="module", levi=levi)
        assert mod.rootset == rs(B3, "e1", "e2")
        assert not is_closed(B3, mod.rootset)
        alg = lie_closure_regular(
            B3, regular_sum(B3, [span, levi]), mode="algebra"
        )
        assert rs(B3, "e1", "e2", "e1+e2") <= alg.rootset

    def test_module_mode_spans_nilradical(self):
        q = parabolic_from_crosses(C2, [2])
        levi = q.levi()
        span = RegularSpan(C2, Subspace.zero(2), rs(C2, "2e1"))
        mod = lie_closure_regular(C2, span, mode="module", levi=levi)
        assert mod.rootset == q.q_n
        assert mod.toral.dim == 0

    def test_module_mode_needs_levi(self):
        span = RegularSpan(C2, Subspace.zero(2), rs(C2, "2e1"))
        with pytest.raises(ValueError):
            lie_closure_regular(C2, span, mode="module")
        with pytest.raises(ValueError):
            lie_closure_regular(C2, span, mode="ideal")


class TestParabolics:
    def test_from_grading_c2(self):
        q = parabolic_from_grading(C2, (1, 1))
        assert q.q_r == rs(C2, "e1-e2", "e2-e1")
        assert q.q_n == rs(C2, "2e1", "e1+e2", "2e2")
        assert q.dim == 7

    def test_from_grading_b3(self):
        q = parabolic_from_grading(B3, (1, 1, 1))
        assert q == parabolic_from_crosses(B3, [3])
        assert len(q.q_r) == 6
        assert len(q.q_n) == 6

    def test_from_crosses_a3(self):
        q = parabolic_from_crosses(A3, [1, 3])
        assert q.q_r == rs(A3, "e2-e3", "e3-e2")
        assert len(q.q_n) == 5
        assert all(a in A3.positive_roots for a in q.q_n)

    def test_no_crosses_gives_whole_algebra(self):
        q = parabolic_from_crosses(B3, [])
        assert q.q == B3.roots
        assert q.q_n == frozenset()

    def test_all_crosses_gives_borel(self):
        assert parabolic_from_crosses(B3, [1, 2, 3]) == standard_borel(B3)
        assert standard_parabolic(B3, []) == standard_borel(B3)

    def test_standard_parabolic_levi(self):
        q = standard_parabolic(B3, [1, 2])
        assert q == parabolic_from_crosses(B3, [3])
        levi = q.levi()
        assert levi.rootset == q.q_r

    def test_crosses_match_coweight_grading(self):
        rng = random.Random(47)
        for _ in range(200):
            system = rng.choice(ALL_SYSTEMS)
            crosses = [
                i for i in range(1, system.rank + 1) if rng.random() < 0.5
            ]
            q1 = parabolic_from_crosses(system, crosses)
            a = [0] * system.coord_dim
            for c in crosses:
                w = fundamental_coweight(system, c)
                a = [x + y for x, y in zip(a, w)]
            q2 = parabolic_from_grading(system, a)
            assert q1 == q2

    def test_generic_grading_gives_borel(self):
        rng = random.Random(53)
        for _ in range(200):
            system = rng.choice(ALL_SYSTEMS)
            vals = rng.sample(range(1, 200), system.coord_dim)
            vals.sort(reverse=True)
            q = parabolic_from_grading(system, vals)
            assert q == standard_borel(system)

    def test_rejects_non_parabolic(self):
        with pytest.raises(ValueError):
            ParabolicRootSet(C2, rs(C2, "2e1", "e1+e2", "2e2"))  # not covering
        with pytest.raises(ValueError):
            parabolic_from_crosses(B3, [4])

    def test_checks_fire_on_both_paths(self):
        # covers R, but e1-e2 + e2-e3 = e1-e3 is missing
        not_closed = rs(A2, "e1-e2", "e2-e3", "e3-e1")
        # closed, but neither e1-e2 nor e2-e1 is in it
        not_covering = rs(C2, "2e1", "e1+e2", "2e2")
        for system, q, message in [
            (A2, not_closed, "closed"),
            (C2, not_covering, "Q union -Q"),
        ]:
            with pytest.raises(ValueError, match=message):
                ParabolicRootSet(system, q)
            # masks from the Weyl table are checked by the same helper
            with pytest.raises(ValueError, match=message):
                _check_parabolic_mask(system, system._mask_of(q))
        with pytest.raises(ValueError, match="non-roots"):
            ParabolicRootSet(C2, [(1, 0)] + list(C2.roots))

    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "D4"])
    def test_dim_counts_the_mask(self, tag):
        system = build_root_system(tag[0], int(tag[1:]))
        for q in enumerate_parabolics(system):
            assert q.dim == system.cartan.dim + len(q.q)

    def test_fundamental_coweights(self):
        for system in ALL_SYSTEMS:
            for i in range(1, system.rank + 1):
                a = fundamental_coweight(system, i)
                for j, s in enumerate(system.simple_roots, start=1):
                    val = sum(c * x for c, x in zip(s, a))
                    assert val == (1 if j == i else 0)


class TestWeyl:
    def test_orders(self):
        assert len(weyl_root_permutations(A2)) == 6
        assert len(weyl_root_permutations(B2)) == 8
        assert len(weyl_root_permutations(B3)) == 48
        assert len(weyl_root_permutations(D3)) == 24
        assert len(weyl_root_permutations(D4)) == 192

    def test_rank_cap(self):
        big = build_root_system("B", 7)
        with pytest.raises(ValueError):
            weyl_root_permutations(big)

    def test_apply_preserves_roots_and_sums(self):
        # every element of the table permutes the roots, commutes with
        # negation and maps the sum pairs of each root onto those of its image
        for system in (A2, B2, C2, D3, B3, D4):
            roots, index = system.roots_sorted, system.root_index
            minus = [index[neg(a)] for a in roots]
            pairs = [set(p) for p in system._sum_pairs]
            for w in weyl_root_permutations(system):
                assert sorted(w) == list(range(len(roots)))
                for k, image in enumerate(w):
                    assert w[minus[k]] == minus[image]
                    moved = {
                        sum(1 << w[i] for i in system._mask_indices(p))
                        for p in pairs[k]
                    }
                    assert moved == pairs[image]

    @pytest.mark.parametrize(
        "tag", "A1 A2 A3 A4 A5 B2 B3 B4 B5 C2 C3 C4 D3 D4 D5".split()
    )
    def test_matches_per_root_construction(self, tag):
        # reference: every signed permutation applied to every root; the
        # table's order is its own, so only the identity's place is fixed
        rank = int(tag[1:])
        system = build_root_system(tag[0], rank)
        order = {
            "A": math.factorial(rank + 1),
            "B": 2**rank * math.factorial(rank),
            "C": 2**rank * math.factorial(rank),
            "D": 2 ** (rank - 1) * math.factorial(rank),
        }[tag[0]]
        table = weyl_root_permutations(system)
        reference = reference_weyl_table(system)
        assert table[0] == tuple(range(len(system.roots_sorted)))
        assert len(set(table)) == len(table) == len(reference) == order
        assert set(table) == set(reference)

    @pytest.mark.parametrize("tag", "A3 B3 C3 D4".split())
    def test_orbit_by_simple_reflections_matches_table(self, tag):
        # reference: the images of the mask under every element of the table
        system = build_root_system(tag[0], int(tag[1:]))
        perms = reference_weyl_table(system)
        bit = [1 << i for i in range(len(system.roots_sorted))]
        for q in enumerate_parabolics(system)[::7]:
            levi = q._mask & system._neg_mask(q._mask)
            for mask in (q._mask, levi):
                indices = system._mask_indices(mask)
                expected = {sum(bit[perm[i]] for i in indices) for perm in perms}
                assert _weyl_orbit(system, mask) == expected

    @pytest.mark.parametrize("tag", "A3 B3 C3 D4".split())
    def test_conjugate_sets_match_table_scan(self, tag):
        # reference: map the first Levi set by every element of the table
        system = build_root_system(tag[0], int(tag[1:]))
        perms = reference_weyl_table(system)
        levis = sorted({q.q_r for q in enumerate_parabolics(system)}, key=sorted)
        index = system.root_index
        images = [
            {frozenset(perm[index[a]] for a in levi) for perm in perms}
            for levi in levis
        ]
        classes = set()
        for levi1, orbit in zip(levis, images):
            for levi2 in levis:
                expected = frozenset(index[a] for a in levi2) in orbit
                assert weyl_conjugate_sets(system, levi1, levi2) == expected
            classes.add(frozenset(orbit))
        assert 1 < len(classes) < len(levis)

    def test_conjugate_sets_keep_rank_cap(self):
        with pytest.raises(ValueError, match="exceeds the Weyl enumeration cap 2"):
            weyl_conjugate_sets(B3, rs(B3, "e1"), rs(B3, "e2"), rank_cap=2)
        # sets of different sizes are never conjugate, but the cap comes first
        with pytest.raises(ValueError, match="exceeds the Weyl enumeration cap 1"):
            weyl_conjugate_sets(B3, rs(B3, "e1"), rs(B3, "e1", "e2"), rank_cap=1)

    @pytest.mark.parametrize(
        "first, second",
        [
            ([(5, 0, 0)], [(1, 0, 0)]),
            ([(1, 0, 0)], [(5, 0, 0)]),
            ([(1, 0)], [(1, 0, 0)]),
        ],
    )
    def test_conjugate_sets_reject_non_roots(self, first, second):
        with pytest.raises(ValueError, match="contain non-roots"):
            weyl_conjugate_sets(B3, first, second)

    def test_conjugate_sets(self):
        assert weyl_conjugate_sets(B3, rs(B3, "e3", "-e3"), rs(B3, "e1", "-e1"))
        assert not weyl_conjugate_sets(
            B3, rs(B3, "e3", "-e3"), rs(B3, "e1-e2", "e2-e1")
        )
        assert not weyl_conjugate_sets(B3, rs(B3, "e3"), rs(B3, "e1", "e2"))


def closed_by_sums(system, rootset):
    """Reference closedness: every sum of two distinct members that is a
    root lies in the set, tried on all pairs of coordinate tuples."""
    s = set(rootset)
    for a, b in itertools.combinations(s, 2):
        c = root_sum(a, b)
        if c in system.roots and c not in s:
            return False
    return True


def brute_force_parabolics(system):
    """Oracle: check every +/-/0 pattern over the positive roots."""
    found = []
    pos = system.positive_roots
    for pattern in itertools.product((1, -1, 0), repeat=len(pos)):
        q = set()
        for alpha, p in zip(pos, pattern):
            if p >= 0:
                q.add(alpha)
            if p <= 0:
                q.add(neg(alpha))
        if closed_by_sums(system, q):
            found.append(frozenset(q))
    return sorted(found, key=lambda s: tuple(sorted(s)))


def parabolics_by_index_sets(system):
    """Reference enumeration on frozensets of root indices: the Weyl images
    of each of the 2^rank standard parabolics, deduplicated, each checked
    with tuple sums, sorted by their sorted root tuples."""
    perms = reference_weyl_table(system)
    index = system.root_index
    seen = set()
    for subset in itertools.product((0, 1), repeat=system.rank):
        chosen = [i + 1 for i, bit in enumerate(subset) if bit]
        std_idx = frozenset(index[a] for a in standard_parabolic(system, chosen).q)
        for perm in perms:
            seen.add(frozenset(perm[i] for i in std_idx))
    out = [frozenset(system.roots_sorted[i] for i in idx) for idx in seen]
    for q in out:
        assert closed_by_sums(system, q)
        assert all(a in q or neg(a) in q for a in system.roots)
    return sorted(out, key=lambda q: tuple(sorted(q)))


CLOSEDNESS_SYSTEMS = [
    build_root_system(tag[0], int(tag[1:]))
    for tag in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D3 D4".split()
]


def closedness_cases(system, rng):
    """Seeded root sets: random subsets, closed_closure outputs and those
    outputs less one root, the standard parabolics and Weyl images of them."""
    roots = system.roots_sorted
    cases = [
        frozenset(rng.sample(roots, rng.randrange(len(roots) + 1)))
        for _ in range(80)
    ]
    for _ in range(60):
        start = rng.sample(roots, rng.randrange(min(4, len(roots))))
        closure = closed_closure(system, start)
        cases.append(closure)
        if closure:
            cases.append(closure - {rng.choice(sorted(closure))})
    standard = [
        standard_parabolic(system, [i + 1 for i, bit in enumerate(bits) if bit]).q
        for bits in itertools.product((0, 1), repeat=system.rank)
    ]
    perms = reference_weyl_table(system)
    index = system.root_index
    cases += standard
    for _ in range(60):
        q = rng.choice(standard)
        perm = rng.choice(perms)
        cases.append(frozenset(roots[perm[index[a]]] for a in q))
    return cases


class TestClosednessOnMasks:
    def test_matches_tuple_sums(self):
        rng = random.Random(97)
        for system in CLOSEDNESS_SYSTEMS:
            cases = closedness_cases(system, rng)
            assert len(cases) >= 200
            answers = [closed_by_sums(system, s) for s in cases]
            assert [is_closed(system, s) for s in cases] == answers, system
            # in A1 every set is closed
            assert set(answers) == ({True} if system.rank == 1 else {True, False})

    def test_sets_with_non_roots_keep_their_answer(self):
        rng = random.Random(101)
        for system in CLOSEDNESS_SYSTEMS:
            n = system.coord_dim
            answers = set()
            for _ in range(40):
                size = rng.randrange(min(6, len(system.roots)))
                s = set(rng.sample(system.roots_sorted, size))
                for _ in range(rng.randrange(1, 3)):
                    s.add(tuple(rng.randrange(-2, 3) for _ in range(n)))
                answer = closed_by_sums(system, s)
                answers.add(answer)
                assert is_closed(system, s) == answer, (system, s)
            assert answers == {True, False}

    def test_sum_pair_table(self):
        for system in CLOSEDNESS_SYSTEMS:
            rs_ = system.roots_sorted
            for k, pairs in enumerate(system._sum_pairs):
                expected = {
                    1 << i | 1 << j
                    for i, j in itertools.combinations(range(len(rs_)), 2)
                    if root_sum(rs_[i], rs_[j]) == rs_[k]
                }
                assert set(pairs) == expected


class TestEnumerateParabolics:
    def test_counts(self):
        assert len(enumerate_parabolics(build_root_system("A", 1))) == 3
        assert len(enumerate_parabolics(A2)) == 13
        assert len(enumerate_parabolics(B2)) == 17
        assert len(enumerate_parabolics(B3)) == 147

    @pytest.mark.parametrize(
        "family, rank, count",
        [("A", 4, 541), ("B", 4, 1697), ("C", 4, 1697), ("D", 4, 865)],
    )
    def test_counts_rank_4(self, family, rank, count):
        assert len(enumerate_parabolics(build_root_system(family, rank))) == count

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "family, rank, count", [("A", 5, 4683), ("D", 5, 12483), ("B", 5, 24483)]
    )
    def test_counts_rank_5(self, family, rank, count):
        assert len(enumerate_parabolics(build_root_system(family, rank))) == count

    # reference: each returned parabolic checked on its own (closed, and
    # Q | -Q = R), as the enumeration did before it checked only the
    # maximal and Borel images of each Weyl element
    @pytest.mark.parametrize(
        "tag",
        "A1 A2 A3 A4 A5 B2 B3 B4 C2 C3 C4 D3 D4 D5".split()
        + [pytest.param("B5", marks=pytest.mark.slow)],
    )
    def test_every_parabolic_passes_the_per_set_check(self, tag):
        system = build_root_system(tag[0], int(tag[1:]))
        pars = enumerate_parabolics(system)
        for q in pars:
            _check_parabolic_mask(system, q._mask)
        assert len({q._mask for q in pars}) == len(pars)

    @pytest.mark.parametrize("tag", ["A3", "A4", "B3", "B4", "C3", "C4", "D4"])
    def test_matches_index_set_enumeration(self, tag):
        system = build_root_system(tag[0], int(tag[1:]))
        reference = parabolics_by_index_sets(system)
        ours = enumerate_parabolics(system)
        assert [q.q for q in ours] == reference
        for q in ours:
            assert q.q_n == frozenset(a for a in q.q if neg(a) not in q.q)
            assert q.q_r == frozenset(a for a in q.q if neg(a) in q.q)

    def test_matches_brute_force_small(self):
        for system in [build_root_system("A", 1), A2, B2, C2]:
            oracle = brute_force_parabolics(system)
            ours = [q.q for q in enumerate_parabolics(system)]
            assert ours == oracle

    @pytest.mark.slow
    def test_matches_brute_force_b3(self):
        oracle = brute_force_parabolics(B3)
        ours = [q.q for q in enumerate_parabolics(B3)]
        assert ours == oracle

    def test_deterministic(self):
        first = [q.q for q in enumerate_parabolics(B2)]
        second = [q.q for q in enumerate_parabolics(B2)]
        assert first == second

    def test_repeated_calls_return_new_equal_objects(self):
        first, second = enumerate_parabolics(B3), enumerate_parabolics(B3)
        assert first == second
        assert all(a is not b for a, b in zip(first, second))

    def test_fresh_instance_runs_its_own_checks(self, monkeypatch):
        # the shared B3 is enumerated first; a fresh, equal B3 whose Weyl
        # table swaps the images of e1 and -e1 in the identity must still
        # fail the closedness check (the table of TRIPPED's script)
        enumerate_parabolics(B3)
        fresh = RootSystem("B", 3)
        assert fresh == B3 and fresh is not B3
        perms = list(weyl_root_permutations(fresh))
        i, j = fresh.root_index[(1, 0, 0)], fresh.root_index[(-1, 0, 0)]
        identity = list(perms[0])
        identity[i], identity[j] = identity[j], identity[i]
        perms[0] = tuple(identity)
        original = rootsys.weyl_root_permutations

        def doctored(system, rank_cap):
            return perms if system is fresh else original(system, rank_cap)

        monkeypatch.setattr(rootsys, "weyl_root_permutations", doctored)
        with pytest.raises(ValueError, match="parabolic set must be closed"):
            enumerate_parabolics(fresh)
        assert len(enumerate_parabolics(B3)) == 147

    # reference: the ascending index tuples; each parabolic without its
    # last member is a prefix of it, which must sort first
    @pytest.mark.parametrize(
        "tag",
        "A3 B3 C3 A4 D4 B4".split() + [pytest.param("B5", marks=pytest.mark.slow)],
    )
    def test_mask_order_matches_index_tuples(self, tag):
        system = build_root_system(tag[0], int(tag[1:]))
        masks = [q._mask for q in enumerate_parabolics(system)]
        assert masks == sorted(masks, key=system._mask_indices)
        rng = random.Random(f"mask-order:{tag}")
        masks += [m ^ (1 << m.bit_length() - 1) for m in masks]
        masks += [rng.getrandbits(len(system.roots_sorted)) for _ in range(2000)]
        masks = list(set(masks))
        assert sorted(masks, key=system._mask_order) == sorted(
            masks, key=system._mask_indices
        )

    def test_hash_and_containment_read_masks(self):
        # reference: containment of the frozenset views, built afterwards
        pars = enumerate_parabolics(B3)
        for q in pars:
            assert hash(q) == hash(ParabolicRootSet(B3, q.system._mask_roots(q._mask)))
        table = [[o.contains_parabolic(q) for q in pars] for o in pars]
        assert not any("q" in q.__dict__ for q in pars)
        assert table == [[q.q <= o.q for q in pars] for o in pars]
        assert sum(map(sum, table)) > len(pars)

    def test_every_entry_contains_a_borel_conjugate(self):
        rng = random.Random(71)
        for q in enumerate_parabolics(C2):
            assert len(q.q) >= len(C2.positive_roots)
            assert q.dim == C2.cartan.dim + len(q.q)


class TestStronglyOrthogonal:
    def test_relation(self):
        assert strongly_orthogonal(D4, (1, -1, 0, 0), (0, 0, 1, -1))
        assert strongly_orthogonal(D4, (1, 1, 0, 0), (1, -1, 0, 0))
        assert not strongly_orthogonal(B3, (1, 0, 0), (0, 1, 0))
        assert not strongly_orthogonal(A2, (1, -1, 0), (1, -1, 0))

    def test_b2_maximal_sets(self):
        cands = rs(B2, "e1", "e2", "e1-e2", "e1+e2")
        sets = strongly_orthogonal_maximal_sets(B2, cands)
        assert sets == sorted(
            [
                frozenset({(0, 1)}),
                frozenset({(1, 0)}),
                rs(B2, "e1-e2", "e1+e2"),
            ],
            key=lambda s: tuple(sorted(s)),
        )

    def test_d4_coordinate_pairs(self):
        cands = [a for a in D4.positive_roots]
        sets = strongly_orthogonal_maximal_sets(D4, cands)
        assert all(len(s) == 4 for s in sets)
        assert rs(D4, "e1-e2", "e1+e2", "e3-e4", "e3+e4") in sets
        assert rs(D4, "e1-e3", "e1+e3", "e2-e4", "e2+e4") in sets
        assert rs(D4, "e1-e4", "e1+e4", "e2-e3", "e2+e3") in sets
        assert len(sets) == 3

    def test_a4_disjoint_transpositions(self):
        cands = rs(A4, "e1-e5", "e2-e4")
        sets = strongly_orthogonal_maximal_sets(A4, cands)
        assert sets == [rs(A4, "e1-e5", "e2-e4")]

    def test_maximality_random(self):
        rng = random.Random(83)
        for _ in range(120):
            system = rng.choice(ALL_SYSTEMS)
            k = rng.randrange(1, min(7, len(system.positive_roots) + 1))
            cands = rng.sample(system.positive_roots, k)
            sets = strongly_orthogonal_maximal_sets(system, cands)
            assert sets
            seen = set()
            for s in sets:
                assert s not in seen
                seen.add(s)
                for a, b in itertools.combinations(s, 2):
                    assert strongly_orthogonal(system, a, b)
                for c in cands:
                    if tuple(c) not in s:
                        assert any(
                            not strongly_orthogonal(system, tuple(c), a)
                            for a in s
                        )


class TestSharedSystemsAndPickle:
    def test_one_instance_per_family_and_rank(self):
        assert build_root_system("B", 3) is B3
        assert build_root_system("b", 3) is B3
        assert build_root_system("C", 3) is not B3

    def test_root_system_round_trip(self):
        for system in ALL_SYSTEMS:
            back = pickle.loads(pickle.dumps(system))
            assert back is system
            assert hash(back) == hash(system)

    def test_tables_are_not_pickled(self):
        assert b"_sum_pairs" not in pickle.dumps(D4)

    def test_regular_subalgebra_round_trip(self):
        toral = canonicalize([[1, -1, 0]], 3)
        roots = rs(B3, "e1-e2", "e2-e1", "e3", "e1+e3", "e2+e3")
        v = RegularSubalgebra(B3, toral, roots)
        back = pickle.loads(pickle.dumps(v))
        assert back == v
        assert hash(back) == hash(v)
        assert back.system is B3
        assert back.nilpotent_roots == v.nilpotent_roots

    def test_parabolic_round_trip(self):
        for q in enumerate_parabolics(B2) + [parabolic_from_crosses(D4, [1, 3])]:
            back = pickle.loads(pickle.dumps(q))
            assert back == q
            assert hash(back) == hash(q)
            assert (back.q, back.q_n, back.q_r) == (q.q, q.q_n, q.q_r)
            assert back.system is q.system
