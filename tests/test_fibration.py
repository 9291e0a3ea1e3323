import bisect
import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from crlie.crcore import levi_part, levi_part_regular
from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    IUNIT,
    Subspace,
    canonicalize,
    kernel,
)
from crlie import fibration, rootsys
from crlie.fibration import (
    classify_map,
    classify_regular,
    combine_parabolics,
    combine_parabolics_regular,
    deployment_verify,
    euler_positive_clause,
    euler_positive_clause_regular,
    homotopic_characteristic,
    homotopic_characteristic_regular,
    lift,
    lift_regular,
    maximal_par,
    minimal_par,
    par_membership,
    par_membership_regular,
    ZRootDecomposition,
    z_root_decomposition,
    z_root_decompositions,
)
from crlie.matrixlie import Subalg, gl_ambient, nilradical_nr, sl_ambient
from crlie.regularize import certify_parabolic_regular, regularize_regular
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSpan,
    RootSystem,
    RegularSubalgebra,
    build_root_system,
    enumerate_parabolics,
    lie_closure_regular,
    regular_sum,
    root_sum,
    standard_borel,
    standard_parabolic,
)
from helpers import diagonal
from test_rootsys import reference_weyl_table

GL3 = gl_ambient(3)
SL3 = sl_ambient(3)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
B3 = build_root_system("B", 3)


def unit(i, j):
    return DenseMatrix.unit(3, i, j)


def idiag(*entries):
    return diagonal([IUNIT * GaussRational.of(e) for e in entries])


def sub(*mats):
    return Subalg.from_matrices(GL3, list(mats))


V_SPLIT = sub(idiag(1, 1, 0), unit(0, 2), unit(1, 2))
V_U3 = sub(DenseMatrix.identity(3), unit(0, 1) + unit(1, 2), unit(0, 2))
Q_U3 = sub(
    unit(0, 0), unit(1, 1), unit(2, 2),
    unit(0, 1), unit(0, 2), unit(1, 2), unit(2, 1),
)
BOREL = sub(unit(0, 0), unit(1, 1), unit(2, 2), unit(0, 1), unit(0, 2), unit(1, 2))
P21 = sub(
    unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1),
    unit(0, 2), unit(1, 2), unit(2, 2),
)
DIAG = sub(unit(0, 0), unit(1, 1), unit(2, 2))
FULL = GL3.full_subalg()

V_REG = RegularSubalgebra(
    C2,
    canonicalize([[1, 1]], 2),
    frozenset({(2, 0), (1, 1), (0, 2)}),
)
Q_C2 = standard_parabolic(C2, [1])

SO7_V = RegularSubalgebra(B3, Subspace.zero(3), {(1, 0, -1), (0, 1, 0)})
Q1_B3 = standard_parabolic(B3, [1, 3])
Q2_B3 = standard_parabolic(B3, [2])
W_B3 = standard_borel(B3)

ZV_A2 = RegularSubalgebra(A2, Subspace.zero(3), ())
V1_A2 = RegularSubalgebra(A2, Subspace.zero(3), {(1, -1, 0)})
V2_A2 = RegularSubalgebra(
    A2, canonicalize([[1, -1, 0]], 3), {(1, -1, 0), (-1, 1, 0)}
)


def embed_a2(span):
    """Root-space model of a t-regular subalgebra inside sl(3)."""
    mats = [diagonal(row) for row in span.toral.basis]
    for alpha in sorted(span.rootset):
        mats.append(DenseMatrix.unit(3, alpha.index(1), alpha.index(-1)))
    return Subalg.from_matrices(SL3, mats)


def module_closure(v, q):
    system = v.system
    levi = q.levi()
    start = regular_sum(
        system,
        [RegularSpan(system, Subspace.zero(system.coord_dim), v.nilpotent_roots), levi],
    )
    return lie_closure_regular(system, start, mode="module", levi=levi)


ALL_FALSE = {
    "is_cr": False,
    "is_submersion": False,
    "is_spread": False,
    "is_deployment": False,
    "fibers_totally_real": False,
    "fibers_totally_complex": False,
}


class TestClassifyMatrix:
    def test_identity_map(self):
        out = classify_map(V_SPLIT, V_SPLIT)
        assert out.flags() == {
            "is_cr": True,
            "is_submersion": True,
            "is_spread": True,
            "is_deployment": True,
            "fibers_totally_real": True,
            "fibers_totally_complex": True,
        }

    def test_u3_submersion_totally_real(self):
        out = classify_map(V_U3, Q_U3)
        assert out.is_cr
        assert out.is_submersion
        assert out.is_deployment
        assert out.fibers_totally_real
        assert not out.fibers_totally_complex
        # the target's nilradical is not inside the source's here
        assert not nilradical_nr(Q_U3).is_subspace_of(nilradical_nr(V_U3))

    def test_u3_target_decomposes(self):
        nrv = nilradical_nr(V_U3)
        lq = levi_part(Q_U3)
        assert nrv.meet(lq).dim == 0
        assert nrv.join(lq).space == Q_U3.space

    def test_split_to_block(self):
        out = classify_map(V_SPLIT, P21)
        assert out.is_submersion and out.is_deployment
        assert out.fibers_totally_real and not out.fibers_totally_complex

    def test_parabolic_to_full(self):
        out = classify_map(P21, FULL)
        assert out.is_submersion and out.is_spread
        assert not out.fibers_totally_real
        assert out.fibers_totally_complex
        assert not out.is_deployment

    def test_not_cr(self):
        assert classify_map(P21, V_SPLIT).flags() == ALL_FALSE

    def test_ambient_mismatch(self):
        other = gl_ambient(2).full_subalg()
        with pytest.raises(ValueError):
            classify_map(V_SPLIT, other)

    def test_witnesses(self):
        out = classify_map(V_SPLIT, P21)
        assert out.witnesses["levi_e"].dim == 5
        assert out.witnesses["v_meet_conj_e"].space == levi_part(V_SPLIT).space


class TestClassifyRegular:
    def test_identity_map(self):
        out = classify_regular(V_REG, V_REG)
        assert out.is_submersion and out.is_deployment
        assert out.fibers_totally_real and out.fibers_totally_complex

    def test_c2_to_regularization(self):
        out = classify_regular(V_REG, Q_C2.to_regular())
        assert out.flags() == {
            "is_cr": True,
            "is_submersion": True,
            "is_spread": True,
            "is_deployment": True,
            "fibers_totally_real": True,
            "fibers_totally_complex": False,
        }

    def test_c2_to_full(self):
        out = classify_regular(V_REG, ParabolicRootSet(C2, C2.roots).to_regular())
        assert out.is_submersion
        assert not out.fibers_totally_real
        assert not out.fibers_totally_complex
        assert not out.is_deployment

    def test_b3_first_normalizer_step(self):
        v1 = RegularSubalgebra(
            B3,
            B3.cartan,
            {
                (0, 1, 0), (1, 1, 0), (1, 0, -1),
                (1, 0, 1), (-1, 0, -1), (0, 1, -1),
            },
        )
        out = classify_regular(SO7_V, v1)
        assert out.is_cr
        assert not out.is_submersion
        assert not out.is_spread
        assert out.fibers_totally_real
        assert not out.fibers_totally_complex

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            classify_regular(V_REG, SO7_V)


class TestClassifyCrossBackend:
    def test_a2_against_matrix_backend(self):
        pars = enumerate_parabolics(A2)
        assert len(pars) == 13
        for v in (ZV_A2, V1_A2, V2_A2):
            vm = embed_a2(v)
            for q in pars:
                reg = classify_regular(v, q.to_regular()).flags()
                mat = classify_map(vm, embed_a2(q.to_regular())).flags()
                assert reg == mat


class TestParMembership:
    def test_matrix_members(self):
        assert par_membership(V_SPLIT, P21)
        assert par_membership(V_SPLIT, BOREL)

    def test_full_k(self):
        # k itself admits only subalgebras with trivial nilradical
        assert not par_membership(V_SPLIT, FULL)
        assert par_membership(DIAG, FULL)

    def test_rejects_non_parabolic(self):
        with pytest.raises(ValueError):
            par_membership(V_SPLIT, sub(unit(0, 2)))

    def test_b3_paper_members(self):
        assert par_membership_regular(SO7_V, W_B3)
        assert par_membership_regular(SO7_V, Q1_B3)
        assert par_membership_regular(SO7_V, Q2_B3)

    def test_blocked_by_levi_overlap(self):
        q = standard_parabolic(C2, [2])
        assert (0, 2) in q.q_r
        assert not par_membership_regular(V_REG, q)

    def test_regularization_is_member(self):
        for v in (V_REG, SO7_V):
            chain = regularize_regular(v)
            assert par_membership_regular(v, chain.parabolic)

    def test_combination_stays_member(self):
        pars = enumerate_parabolics(A2)
        for v in (V1_A2, V2_A2):
            members = [q for q in pars if par_membership_regular(v, q)]
            for q1, q2 in itertools.product(members, members):
                assert par_membership_regular(
                    v, combine_parabolics_regular(q1, q2)
                )

    def test_full_k_needs_trivial_nilradical(self):
        # Par(v) is not upward closed towards k: the whole algebra is a
        # member exactly when v is already reductive
        full = ParabolicRootSet(A2, A2.roots)
        assert par_membership_regular(ZV_A2, full)
        assert par_membership_regular(V2_A2, full)
        assert not par_membership_regular(V1_A2, full)

    def test_matrix_agreement(self):
        for v in (V1_A2, V2_A2):
            vm = embed_a2(v)
            for q in enumerate_parabolics(A2):
                expected = par_membership_regular(v, q)
                assert par_membership(vm, embed_a2(q.to_regular())) == expected


class TestMaximalPar:
    def test_b3_two_maximals_over_borel(self):
        res = maximal_par(SO7_V, containing=W_B3)
        assert len(res) == 2
        assert Q1_B3 in res
        assert Q2_B3 in res

    def test_b3_standard_membership_pattern(self):
        good = [set(), {1}, {2}, {3}, {1, 3}]
        for levi in map(set, itertools.chain.from_iterable(
            itertools.combinations([1, 2, 3], k) for k in range(4)
        )):
            q = standard_parabolic(B3, levi)
            assert par_membership_regular(SO7_V, q) == (levi in good)

    def test_c2_single_maximal_is_regularization(self):
        res = maximal_par(V_REG)
        assert res == [regularize_regular(V_REG).parabolic]
        assert res == [Q_C2]

    def test_zero_subalgebra(self):
        assert maximal_par(ZV_A2) == [ParabolicRootSet(A2, A2.roots)]

    def test_bruteforce_b2(self):
        pars = enumerate_parabolics(B2)
        vs = [
            RegularSubalgebra(B2, Subspace.zero(2), {(1, -1)}),
            RegularSubalgebra(B2, Subspace.zero(2), {(1, 1)}),
            RegularSubalgebra(B2, canonicalize([[1, 0]], 2), {(1, 0)}),
            RegularSubalgebra(B2, Subspace.zero(2), {(1, 0), (1, 1)}),
        ]
        for v in vs:
            members = [
                q
                for q in pars
                if v.rootset <= q.q and not (v.nilpotent_roots & q.q_r)
            ]
            maxima = [
                q
                for q in members
                if all(o == q or not o.contains_parabolic(q) for o in members)
            ]
            assert maximal_par(v) == sorted(maxima, key=ParabolicRootSet.sort_key)

    def test_constrained_results_still_maximal(self):
        v = RegularSubalgebra(B2, Subspace.zero(2), {(1, -1)})
        constrained = maximal_par(v, containing=standard_borel(B2))
        assert set(constrained) <= set(maximal_par(v))

    def test_constraint_from_another_system_is_rejected(self):
        for other in (standard_borel(B2), standard_borel(build_root_system("C", 3))):
            with pytest.raises(ValueError, match="different root systems"):
                maximal_par(SO7_V, containing=other)


class TestMinimalPar:
    def test_parabolic_input_is_its_minimum(self):
        q = standard_parabolic(C2, [1])
        assert minimal_par(q.to_regular()) == [q]

    def test_cartan_gives_borels(self):
        v = RegularSubalgebra(C2, C2.cartan, ())
        res = minimal_par(v)
        assert len(res) == 8
        assert all(not q.q_r for q in res)
        assert standard_borel(C2) in res

    def test_c2_two_borels(self):
        res = minimal_par(V_REG)
        assert len(res) == 2
        assert all(not q.q_r for q in res)
        expected = {
            frozenset({(1, -1), (2, 0), (1, 1), (0, 2)}),
            frozenset({(-1, 1), (2, 0), (1, 1), (0, 2)}),
        }
        assert {q.q for q in res} == expected

    def test_minimal_absorbs_in_combine(self):
        res = minimal_par(V_REG)
        for q1 in res:
            for q2 in (Q_C2, res[0], res[1]):
                assert combine_parabolics_regular(q1, q2, v=V_REG) == q1

    def test_builds_no_weyl_table(self, monkeypatch):
        # a fresh instance, so nothing an earlier test built is reused
        d4 = RootSystem("D", 4)
        pair = [d4.parse_root(t) for t in ("e1-e2", "-e1+e2")]
        v = RegularSubalgebra(
            d4,
            canonicalize([list(d4.coroot(pair[0]))], 4),
            pair + [d4.parse_root("e3+e4")],
        )
        names = (
            "weyl_conjugate_sets",
            "weyl_root_permutations",
            "enumerate_parabolics",
            "_parabolic_masks",
            "_weyl_orbit",
        )
        calls = dict.fromkeys(names, 0)
        for module in (fibration, rootsys):
            for name in calls:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        assert len(minimal_par(v)) > 1
        assert maximal_par(v)
        assert maximal_par(v, containing=minimal_par(v)[0])
        assert calls == dict.fromkeys(names, 0)

    def test_non_conjugate_levi_sets_are_rejected(self, monkeypatch):
        # a Borel and the opposite of a non-Borel parabolic, both passed off
        # as chambers of Par(0), whose minimal members are the Borels
        borel = standard_borel(B3)
        std = standard_parabolic(B3, [1])
        opposite = ParabolicRootSet(
            B3, std.q_r | {tuple(-x for x in a) for a in std.q_n}
        )
        fake = [(borel._mask, 3, None), (opposite._mask, 3, None)]
        monkeypatch.setattr(fibration, "_chambers", lambda *a: iter(fake))
        v = RegularSubalgebra(B3, Subspace.zero(3), ())
        with pytest.raises(AssertionError, match="Levi root set other than"):
            minimal_par(v)

    def test_non_parabolic_chamber_is_rejected(self, monkeypatch):
        # the standard Borel with e1 swapped for -e1: e1 is no simple root,
        # so the set is not closed
        borel = standard_borel(B3)
        i = B3.root_index[(1, 0, 0)]
        doctored = borel._mask ^ (1 << i) | B3._neg_mask(1 << i)
        fake = [(borel._mask, 3, None), (doctored, 3, None)]
        monkeypatch.setattr(fibration, "_chambers", lambda *a: iter(fake))
        v = RegularSubalgebra(B3, Subspace.zero(3), ())
        with pytest.raises(AssertionError, match="answer is not parabolic"):
            minimal_par(v)

    def test_start_off_the_center_is_rejected(self, monkeypatch):
        # a basis of all of t in place of z = ker(e1-e2): the lexicographic
        # start then holds e1-e2 but not -e1+e2
        pair = [(1, -1), (-1, 1)]
        v = RegularSubalgebra(C2, canonicalize([list(C2.coroot(pair[0]))], 2), pair)
        monkeypatch.setattr(
            fibration, "_center", lambda system, roots: (None, 1, [[1, 0], [0, 1]])
        )
        with pytest.raises(AssertionError, match="start chamber is not in Par"):
            minimal_par(v)

    def test_non_maximal_answer_is_rejected(self, monkeypatch):
        # every free set in place of the maximal ones: the chambers
        # themselves come out, and each has an upper cover in Par(v)
        def every_free_set(d, edges):
            return [s for s in range(1 << d) if all(e & ~s for e in edges)]

        monkeypatch.setattr(fibration, "_free_sets", every_free_set)
        with pytest.raises(AssertionError, match="has an upper cover in Par"):
            maximal_par(SO7_V)


def reference_select(members, largest):
    """Pairwise selection over the ParabolicRootSet members of Par(v), on
    their masks: the members that no other member contains (largest) or
    lies in.  A strict superset has more roots, so each member is compared
    with every larger (smaller) one."""
    by_size = sorted((q._mask for q in members), key=int.bit_count)
    sizes = [m.bit_count() for m in by_size]
    out = []
    for q in members:
        m = q._mask
        if largest:
            others = by_size[bisect.bisect_right(sizes, m.bit_count()):]
            beaten = any(not m & ~o for o in others)
        else:
            others = by_size[: bisect.bisect_left(sizes, m.bit_count())]
            beaten = any(not o & ~m for o in others)
        if not beaten:
            out.append(q)
    return sorted(out, key=ParabolicRootSet.sort_key)


def reference_maximal_par(members, containing=None):
    if containing is not None:
        members = [q for q in members if q.contains_parabolic(containing)]
    return reference_select(members, largest=True)


def reference_minimal_par(v, members, perms):
    """Pairwise selection, and the Levi check on frozensets of indices."""
    out = reference_select(members, largest=False)
    assert all(v.nilpotent_roots <= q.q_n for q in out)
    if out:
        index = v.system.root_index
        first = frozenset(index[a] for a in out[0].q_r)
        orbit = {frozenset(perm[i] for i in first) for perm in perms}
        assert all(frozenset(index[a] for a in q.q_r) in orbit for q in out)
    return out


def seeded_closed_subalgebras(system, salt, count=40):
    """The Lie closures of 0-3 random roots, with the coroots of their +-
    pairs as toral part, seeded by the system and the salt."""
    rng = random.Random(f"{salt}:{system.family}{system.rank}")
    for _ in range(count):
        roots = rng.sample(system.roots_sorted, rng.randrange(4))
        span = RegularSpan(system, Subspace.zero(system.coord_dim), roots)
        yield rng, lie_closure_regular(system, span, mode="algebra")


def dot(alpha, beta):
    return sum(a * b for a, b in zip(alpha, beta))


class TestChamberStart:
    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "B4", "C4", "D4"])
    def test_rho_n_lies_in_the_cone(self, tag):
        # 7 x 40 = 280 seeded closed sets: rho_N, the sum of the roots of
        # nr(v), is positive on N (at least |beta|^2) and zero on V_r, and
        # the start chamber is a member of Par(v) whose Levi is exactly the
        # roots in the span of V_r, by a rank test
        system = build_root_system(tag[0], int(tag[1:]))
        for _, v in seeded_closed_subalgebras(system, "rho-n"):
            nilpotent, reductive = v.nilpotent_roots, v.reductive_roots
            rho = [sum(col) for col in zip(*nilpotent)] or [0] * system.coord_dim
            assert all(dot(b, rho) >= dot(b, b) for b in nilpotent)
            assert all(dot(g, rho) == 0 for g in reductive)
            start = fibration._start_chamber(v)
            q = ParabolicRootSet(system, system._mask_roots(start))
            assert par_membership_regular(v, q)
            rank = canonicalize([list(g) for g in reductive], system.coord_dim).dim
            spanned = {
                a
                for a in system.roots
                if canonicalize(
                    [list(g) for g in reductive] + [list(a)], system.coord_dim
                ).dim
                == rank
            }
            assert q.q_r == spanned


class TestParExtremaAgainstReference:
    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "B4", "C4", "D4"])
    def test_seeded_closed_subalgebras(self, tag):
        # 7 x 40 = 280 seeded closed root subalgebras: the Lie closure of 0-3
        # random roots, with the coroots of their +- pairs as toral part;
        # the constraint is a random member of Par(v), which is never empty
        system = build_root_system(tag[0], int(tag[1:]))
        pars = enumerate_parabolics(system)
        perms = reference_weyl_table(system)
        several = 0
        for rng, v in seeded_closed_subalgebras(system, "par-extrema"):
            members = [q for q in pars if par_membership_regular(v, q)]
            containing = rng.choice(members)
            expected = reference_minimal_par(v, members, perms)
            assert minimal_par(v) == expected
            assert maximal_par(v) == reference_maximal_par(members)
            assert maximal_par(v, containing=containing) == (
                reference_maximal_par(members, containing)
            )
            several += len(expected) > 1
        assert several > 0


class TestCombine:
    def test_b3_maximals_meet_in_borel(self):
        assert combine_parabolics_regular(Q1_B3, Q2_B3, v=SO7_V) == W_B3
        assert combine_parabolics_regular(Q2_B3, Q1_B3, v=SO7_V) == W_B3

    def test_same_is_identity(self):
        for q in (Q1_B3, Q2_B3, Q_C2):
            assert combine_parabolics_regular(q, q) == q

    def test_matrix_blocks(self):
        assert combine_parabolics(P21, BOREL).space == BOREL.space
        assert combine_parabolics(BOREL, P21).space == BOREL.space
        assert combine_parabolics(P21, P21.sigma_image()).space == P21.space

    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            combine_parabolics_regular(
                Q_C2, standard_parabolic(C2, [2]), v=V_REG
            )

    def test_random_pairs_cross_backend(self):
        rng = random.Random(3)
        pars = enumerate_parabolics(A2)
        for _ in range(8):
            a, b = rng.choice(pars), rng.choice(pars)
            qr = combine_parabolics_regular(a, b)
            assert certify_parabolic_regular(qr).ok
            qm = combine_parabolics(
                embed_a2(a.to_regular()), embed_a2(b.to_regular())
            )
            assert qm.space == embed_a2(qr.to_regular()).space


class TestDeployment:
    def test_so7_first_maximal(self):
        assert deployment_verify(SO7_V, Q1_B3)
        assert not deployment_verify(SO7_V, Q1_B3, mode="module")
        missing = Q1_B3.q - module_closure(SO7_V, Q1_B3).rootset
        assert missing == {(1, 1, 0)}

    def test_so7_second_maximal(self):
        assert deployment_verify(SO7_V, Q2_B3)
        assert not deployment_verify(SO7_V, Q2_B3, mode="module")
        missing = Q2_B3.q - module_closure(SO7_V, Q2_B3).rootset
        assert missing == {(1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_c2_module_mode_can_succeed(self):
        assert deployment_verify(V_REG, Q_C2)
        assert deployment_verify(V_REG, Q_C2, mode="module")

    def test_parabolic_generates_itself(self):
        v = standard_parabolic(C2, [1]).to_regular()
        assert deployment_verify(v, standard_parabolic(C2, [1]))
        assert deployment_verify(v, standard_parabolic(C2, [1]), mode="module")

    def test_not_member_raises(self):
        with pytest.raises(ValueError):
            deployment_verify(V_REG, standard_parabolic(C2, [2]))

    def test_needs_n_reductive(self):
        v = RegularSubalgebra(
            C2,
            canonicalize([[GaussRational.of(1), IUNIT]], 2),
            {(2, 0)},
        )
        with pytest.raises(ValueError):
            deployment_verify(v, standard_borel(C2))

    def test_simple_components_lie_in_module_closure(self):
        # the module closure always reaches the simple z-root components
        for q in (Q1_B3, Q2_B3):
            reached = module_closure(SO7_V, q).rootset
            z = z_root_decomposition(q)
            for _, comp in z.simple_zroots:
                assert set(comp) <= reached


def _frac(*xs):
    return tuple(Fraction(x) for x in xs)


class TestZRoots:
    def test_b3_first_maximal(self):
        z = z_root_decomposition(Q1_B3)
        assert z.center == canonicalize([[1, 1, 0]], 3)
        comp = dict(z.zroots)
        assert comp[_frac(1)] == (
            (0, 1, -1), (0, 1, 0), (0, 1, 1),
            (1, 0, -1), (1, 0, 0), (1, 0, 1),
        )
        assert comp[_frac(2)] == ((1, 1, 0),)
        assert z.positive == (_frac(1), _frac(2))
        assert [nu for nu, _ in z.simple_zroots] == [_frac(1)]
        assert len(z.zroots) == 4

    def test_b3_second_maximal(self):
        z = z_root_decomposition(Q2_B3)
        assert z.center == canonicalize([[1, 0, 0], [0, 1, 1]], 3)
        comp = dict(z.zroots)
        assert comp[_frac(0, 1)] == ((0, 0, 1), (0, 1, 0))
        assert comp[_frac(0, 2)] == ((0, 1, 1),)
        assert comp[_frac(1, -1)] == ((1, -1, 0), (1, 0, -1))
        assert comp[_frac(1, 0)] == ((1, 0, 0),)
        assert comp[_frac(1, 1)] == ((1, 0, 1), (1, 1, 0))
        assert z.positive == (
            _frac(0, 1), _frac(0, 2), _frac(1, -1), _frac(1, 0), _frac(1, 1)
        )
        assert [nu for nu, _ in z.simple_zroots] == [_frac(0, 1), _frac(1, -1)]

    def test_borel_zroots_are_roots(self):
        z = z_root_decomposition(standard_borel(B2))
        assert z.center == B2.cartan
        assert len(z.zroots) == 8
        assert len(z.positive) == 4
        assert {comp for _, comp in z.simple_zroots} == {((1, -1),), ((0, 1),)}

    def test_full_k_has_no_zroots(self):
        z = z_root_decomposition(ParabolicRootSet(A2, A2.roots))
        assert z.center.dim == 0
        assert z.zroots == ()
        assert z.positive == ()
        assert z.simple_zroots == ()

    def test_bracket_compatibility(self):
        for q in (Q1_B3, Q2_B3, Q_C2):
            z = z_root_decomposition(q)
            comp = dict(z.zroots)
            for (n1, c1), (n2, c2) in itertools.product(z.zroots, z.zroots):
                target = tuple(a + b for a, b in zip(n1, n2))
                for s in (root_sum(a, b) for a in c1 for b in c2):
                    if s not in q.system.roots:
                        continue
                    if any(target):
                        assert s in comp[target]
                    else:
                        assert s in q.q_r

    def test_levi_invariance(self):
        for q in (Q1_B3, Q2_B3):
            z = z_root_decomposition(q)
            for _, comp in z.zroots:
                for alpha, gamma in itertools.product(comp, q.q_r):
                    s = root_sum(alpha, gamma)
                    if s in q.system.roots:
                        assert s in comp

    def test_standard_parabolic_sweep(self):
        d4 = build_root_system("D", 4)
        for system in (B3, d4):
            indices = range(1, system.rank + 1)
            for k in range(system.rank + 1):
                for levi in itertools.combinations(indices, k):
                    q = standard_parabolic(system, levi)
                    z = z_root_decomposition(q)
                    total = sum(len(c) for _, c in z.zroots)
                    assert total + len(q.q_r) == len(system.roots)
                    covered = {
                        a
                        for nu, c in z.zroots
                        if nu in z.positive
                        for a in c
                    }
                    assert covered == q.q_n


def _sum_counter(keys, fvals):
    """Brute-force oracle: count(target, fvalue) is the number of multisets
    of keys summing to target; fvalue is the value on target of a
    functional with the values fvals, positive on every key, which bounds
    the search.  Counts are memoized for the lifetime of the counter."""

    @functools.cache
    def count(target, fvalue, idx=0):
        if not any(target):
            return 1
        if fvalue <= 0 or idx == len(keys):
            return 0
        total = 0
        cur, curf = target, fvalue
        while curf >= 0:
            total += count(cur, curf, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, keys[idx]))
            curf -= fvals[idx]
        return total

    return count


def _multiset_counter(keys, fvals):
    """Counter of multisets of the integer keys summing to a target.

    fvals are the values on the keys of an integer functional that is
    positive on every key; it bounds the search.  Keys are tried in order of
    decreasing value, and counts are memoized on (target, first usable key)
    for the lifetime of the returned counter."""
    order = sorted(range(len(keys)), key=lambda i: -fvals[i])
    keys = [keys[i] for i in order]
    fvals = [fvals[i] for i in order]
    memo = {}

    def count(target, fvalue, idx=0):
        if not any(target):
            return 1
        while idx < len(keys) and fvals[idx] > fvalue:
            idx += 1
        if idx == len(keys):
            return 0
        state = (target, idx)
        total = memo.get(state)
        if total is None:
            rest = tuple(a - b for a, b in zip(target, keys[idx]))
            total = count(target, fvalue, idx + 1) + count(
                rest, fvalue - fvals[idx], idx
            )
            memo[state] = total
        return total

    return count


def _counted_zroots(q, center):
    """Positive z-roots of q and their simple ones by counting multisets.

    The positive z-roots are the restrictions of Q_n to the center.  One is
    simple iff it is the only multiset of positive z-roots summing to it.
    2*rho_n lies in the center and bounds the search; keys and its values
    are scaled to integers.  Returns the positive z-roots, the simple ones,
    and for each positive z-root its number of decompositions into simple
    ones."""
    delta = [sum(a[i] for a in q.q_n) for i in range(q.system.coord_dim)]
    basis = [[x.re for x in row] for row in center.basis]
    coords = [delta[p] for p in center.pivots]
    assert [sum(c * row[i] for c, row in zip(coords, basis))
            for i in range(len(delta))] == delta

    def restrict(alpha):
        return tuple(sum(a * x for a, x in zip(alpha, row)) for row in basis)

    keys = sorted({restrict(a) for a in q.q_n})
    fvals = [sum(c * x for c, x in zip(coords, nu)) for nu in keys]
    assert all(f > 0 for f in fvals)
    scale = math.lcm(
        *(x.denominator for nu in keys for x in nu),
        *(f.denominator for f in fvals),
    )

    def scaled(nu):
        return tuple(int(x * scale) for x in nu)

    ints = [scaled(nu) for nu in keys]
    fints = [int(f * scale) for f in fvals]
    count_all = _multiset_counter(ints, fints)
    simple = [i for i, nu in enumerate(ints) if count_all(nu, fints[i]) == 1]
    count_simple = _multiset_counter(
        [ints[i] for i in simple], [fints[i] for i in simple]
    )
    counts = [count_simple(nu, f) for nu, f in zip(ints, fints)]
    return keys, [keys[i] for i in simple], counts


def _standard_parabolics(system):
    indices = range(1, system.rank + 1)
    for k in range(system.rank + 1):
        for levi in itertools.combinations(indices, k):
            yield standard_parabolic(system, levi)


def _with_q_n(q, q_n):
    """A copy of q whose nilradical root set is replaced by q_n."""
    bad = copy.copy(q)
    bad.q_n = frozenset(q_n)
    return bad


def reference_z_root_decomposition(q):
    """The z-root decomposition certified by one reduction over Q(i).

    Classes, their split into positive and negative ones and the checks on
    them are as in ``z_root_decomposition``.  The simple roots outside Q_r
    of B = Q_n | (Q_r cap R+) are the members that are no sum of two, and
    one ``canonicalize`` of [S | positive classes] proves that their
    restrictions S are a basis of z* and gives each positive class its
    coordinates in S, which must be nonnegative integers.  Returns
    (center, zroots, positive, simple_zroots), the values that
    ``ZRootDecomposition`` builds when they are read."""
    system = q.system
    if q.q_r:
        rows = DenseMatrix([list(a) for a in sorted(q.q_r)])
        center = kernel(rows).meet(system.cartan)
    else:
        center = system.cartan
    scale = math.lcm(*(x.re.denominator for row in center.basis for x in row))
    basis = [[int(x.re * scale) for x in row] for row in center.basis]

    def restrict(alpha):
        return tuple(sum(a * x for a, x in zip(alpha, row)) for row in basis)

    def unscaled(key):
        return tuple(Fraction(k, scale) for k in key)

    classes = {}
    for alpha in system.roots_sorted:
        classes.setdefault(restrict(alpha), []).append(alpha)
    dim = len(basis)
    zero = (0,) * dim
    if frozenset(classes.get(zero, [])) != q.q_r:
        raise AssertionError("roots vanishing on z are not exactly the Levi roots")
    zroots = []
    positive = []
    for key in sorted(k for k in classes if k != zero):
        comp = tuple(sorted(classes[key]))
        inside = sum(1 for a in comp if a in q.q_n)
        if inside not in (0, len(comp)):
            raise AssertionError("mixed z-root component")
        zroots.append((key, comp))
        if inside:
            positive.append(key)
    if frozenset(a for key, comp in zroots if key in positive for a in comp) != q.q_n:
        raise AssertionError("positive components do not fill nr(q)")

    borel = q.q_n | q.q_r.intersection(system.positive_roots)
    sums = {root_sum(a, b) for a, b in itertools.combinations(borel, 2)}
    simple = [restrict(a) for a in sorted(borel - sums - q.q_r)]
    reduced = canonicalize(
        [[key[i] for key in simple + positive] for i in range(dim)],
        len(simple) + len(positive),
    )
    if len(simple) != dim or reduced.pivots != tuple(range(dim)):
        raise AssertionError("simple restrictions are not a basis of z*")
    for j in range(dim, dim + len(positive)):
        for row in reduced.basis:
            if row[j].re.denominator != 1 or row[j].re < 0:
                raise AssertionError("not a nonnegative integer combination")
    negatives = {tuple(-k for k in key) for key in positive}
    if {key for key, _ in zroots} - set(positive) != negatives:
        raise AssertionError("negative z-roots are not the negated positive ones")
    return (
        center,
        tuple((unscaled(key), comp) for key, comp in zroots),
        tuple(unscaled(key) for key in positive),
        tuple((unscaled(key), comp) for key, comp in zroots if key in simple),
    )


def read_fields(z):
    """The decomposition's values that the reference returns, in its order."""
    return z.center, z.zroots, z.positive, z.simple_zroots


LAZY = {"zroots", "positive", "simple_zroots"}


def _random_conjugate_parabolic(rng, system, perms):
    levi = [i for i in range(1, system.rank + 1) if rng.random() < 0.5]
    std = standard_parabolic(system, levi)
    index = {a: i for i, a in enumerate(system.roots_sorted)}
    perm = rng.choice(perms)
    return ParabolicRootSet(
        system, [system.roots_sorted[perm[index[a]]] for a in std.q]
    )


class TestZRootCounter:
    @pytest.mark.parametrize("tag", ["A3", "A4", "B3", "C3", "D4", "B4"])
    def test_random_conjugates_against_brute_force(self, tag):
        # 6 x 40 = 240 seeded random Weyl conjugates of standard parabolics
        system = build_root_system(tag[0], int(tag[1:]))
        perms = reference_weyl_table(system)
        rng = random.Random(f"zroots:{tag}")
        for _ in range(40):
            q = _random_conjugate_parabolic(rng, system, perms)
            z = z_root_decomposition(q)
            delta = [sum(a[i] for a in q.q_n) for i in range(system.coord_dim)]
            coords = [delta[p] for p in z.center.pivots]
            keys = list(z.positive)
            kf = [sum(c * x for c, x in zip(coords, nu)) for nu in keys]

            # the targets are the positive z-roots and sums of pairs of them
            pairs = list(itertools.combinations(range(min(len(keys), 5)), 2))
            targets = keys + [
                tuple(a + b for a, b in zip(keys[i], keys[j])) for i, j in pairs
            ]
            tf = kf + [kf[i] + kf[j] for i, j in pairs]
            count_every = _sum_counter(keys, kf)
            every = [count_every(t, f) for t, f in zip(targets, tf)]
            simple = [i for i in range(len(keys)) if every[i] == 1]
            assert [nu for nu, _ in z.simple_zroots] == [keys[i] for i in simple]
            sk = [keys[i] for i in simple]
            sf = [kf[i] for i in simple]
            count_into = _sum_counter(sk, sf)
            into_simples = [count_into(t, f) for t, f in zip(targets, tf)]
            assert into_simples[: len(keys)] == [1] * len(keys)

            scale = math.lcm(
                *(x.denominator for nu in keys for x in nu),
                *(f.denominator for f in kf),
            )

            def scaled(nu):
                return tuple(int(x * scale) for x in nu)

            count_all = _multiset_counter(
                [scaled(nu) for nu in keys], [int(f * scale) for f in kf]
            )
            count_simple = _multiset_counter(
                [scaled(nu) for nu in sk], [int(f * scale) for f in sf]
            )
            assert [
                count_all(scaled(t), int(f * scale)) for t, f in zip(targets, tf)
            ] == every
            assert [
                count_simple(scaled(t), int(f * scale)) for t, f in zip(targets, tf)
            ] == into_simples

    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "D4"])
    def test_every_parabolic_against_counter(self, tag):
        # 1775 parabolics in all: the simple z-roots are exactly those the
        # multiset counter finds indecomposable, and every positive z-root
        # has exactly one decomposition into them
        system = build_root_system(tag[0], int(tag[1:]))
        for q in enumerate_parabolics(system):
            z = z_root_decomposition(q)
            keys, simple, counts = _counted_zroots(q, z.center)
            assert list(z.positive) == keys
            assert [nu for nu, _ in z.simple_zroots] == simple
            assert counts == [1] * len(keys)

    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "D4"])
    def test_every_parabolic_against_reference(self, tag):
        # 1775 parabolics: the integer certificate and the reduction over
        # Q(i) give the same decomposition, and the sizes the CLI reports,
        # read off the masks before any field is built, are those of the
        # positive components
        system = build_root_system(tag[0], int(tag[1:]))
        for q in enumerate_parabolics(system):
            z = z_root_decomposition(q)
            dims = z.positive_dims
            assert not LAZY & z.__dict__.keys()
            assert read_fields(z) == reference_z_root_decomposition(q)
            assert dims == [len(c) for nu, c in z.zroots if nu in z.positive]

    def test_pickle_round_trip_and_equality(self):
        names = [f.name for f in dataclasses.fields(ZRootDecomposition)]
        assert names == ["center", "system", "scale", "classes", "simple_keys"]
        for q in (Q1_B3, Q2_B3, Q_C2, standard_borel(B2)):
            z = z_root_decomposition(q)
            unread = pickle.loads(pickle.dumps(z))
            assert not LAZY & (z.__dict__.keys() | unread.__dict__.keys())
            fields = read_fields(z)
            assert LAZY <= z.__dict__.keys()
            for back in (unread, pickle.loads(pickle.dumps(z))):
                assert back == z and z == back
                assert hash(back) == hash(z)
                assert back.system is q.system
                assert back.positive_dims == z.positive_dims
                assert read_fields(back) == fields
            assert dataclasses.replace(z) == z
        one, other = z_root_decomposition(Q1_B3), z_root_decomposition(Q2_B3)
        assert one != other
        assert one != "not a decomposition"

    def test_cyclic_borel_raises_assertion_error(self):
        # flipping e1-e3 in the Borel of A3 leaves the simple roots e1-e2,
        # e2-e3 and e3-e1.  The other roots split only as e1-e4 = (e1-e2) +
        # (e2-e4), e2-e4 = (e2-e3) + (e3-e4) and e3-e4 = (e3-e1) + (e1-e4),
        # so each waits for the next and none gets coordinates
        a3 = build_root_system("A", 3)
        q = standard_borel(a3)
        q_n = q.q_n - {(1, 0, -1, 0)} | {(-1, 0, 1, 0)}
        with pytest.raises(AssertionError, match="not a positive system"):
            z_root_decomposition(_with_q_n(q, q_n))
        with pytest.raises(AssertionError):
            reference_z_root_decomposition(_with_q_n(q, q_n))

    def test_dropped_nilradical_root_is_rejected(self):
        # without one root of Q_n, Q_n | Q_r misses its negative, so no
        # parabolic has this split
        cases = 0
        for tag in ("A3", "B3", "C3", "D4", "B4"):
            system = build_root_system(tag[0], int(tag[1:]))
            for q in _standard_parabolics(system):
                for alpha in sorted(q.q_n):
                    with pytest.raises(AssertionError):
                        z_root_decomposition(_with_q_n(q, q.q_n - {alpha}))
                    cases += 1
        assert cases == 469

    def test_flipped_nilradical_root_raises_iff_not_parabolic(self):
        # the certificate passes exactly when Q_n' | Q_r is a parabolic
        # that splits as Q_n' and Q_r, and then agrees with its answer
        cases = raised = 0
        for tag in ("A3", "B3", "C3", "D4", "B4"):
            system = build_root_system(tag[0], int(tag[1:]))
            for q in _standard_parabolics(system):
                for alpha in sorted(q.q_n):
                    q_n = q.q_n - {alpha} | {rootsys.neg(alpha)}
                    try:
                        p = ParabolicRootSet(system, q_n | q.q_r)
                    except ValueError:
                        p = None
                    valid = p is not None and (p.q_n, p.q_r) == (q_n, q.q_r)
                    cases += 1
                    try:
                        z = z_root_decomposition(_with_q_n(q, q_n))
                    except AssertionError:
                        raised += 1
                        assert not valid
                        with pytest.raises(AssertionError):
                            reference_z_root_decomposition(_with_q_n(q, q_n))
                    else:
                        assert valid
                        assert z == z_root_decomposition(p)
                        assert read_fields(z) == reference_z_root_decomposition(
                            _with_q_n(q, q_n)
                        )
        assert (cases, raised) == (469, 429)

    def test_uniqueness_check_survives_optimized_interpreter(self):
        # a q_n that misses its first root leaves a Borel with more simple
        # roots outside Q_r than dim z; the check must hold under python -O
        script = (
            "from crlie.fibration import z_root_decomposition\n"
            "from crlie.rootsys import build_root_system, standard_parabolic\n"
            "q = standard_parabolic(build_root_system('B', 3), [1])\n"
            "q.q_n = q.q_n - {min(q.q_n)}\n"
            "z_root_decomposition(q)\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True
        )
        assert done.returncode == 1
        err = done.stderr.decode()
        assert "AssertionError" in err
        assert "simple restrictions are not a basis of z*" in err


class TestZRootBatch:
    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "D4"])
    def test_batch_equals_per_q_on_seeded_par_answers(self, tag):
        # 5 x 20 seeded closed root subalgebras: the maximal members and
        # the minimal ones, shuffled, in one batch; each entry equals, field
        # by field, the decomposition of a fresh copy of its q on its own
        # (which TestZRootCounter checks against the reduction over Q(i))
        system = build_root_system(tag[0], int(tag[1:]))
        several = 0
        for rng, v in seeded_closed_subalgebras(system, "z-batch", count=20):
            batch = maximal_par(v) + minimal_par(v)
            rng.shuffle(batch)
            levis = {q.q_r for q in batch}
            several += len(levis) > 1 and len(batch) > len(levis)
            zs = z_root_decompositions(batch)
            assert len(zs) == len(batch)
            for q, z in zip(batch, zs):
                alone = z_root_decomposition(
                    ParabolicRootSet._from_mask(system, q._mask)
                )
                assert z == alone
                assert z.positive_dims == alone.positive_dims
        assert several > 0

    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "A4", "D4"])
    def test_center_is_the_kernel_inside_t(self, tag):
        # every Levi set of a parabolic, and the same sets without their
        # negative roots: one kernel with the equations of t gives the
        # kernel of the roots met with t
        system = build_root_system(tag[0], int(tag[1:]))
        levis = {q.q_r for q in enumerate_parabolics(system)}
        halves = {frozenset(a for a in r if a in system.positive_roots) for r in levis}
        for roots in levis | halves:
            if roots:
                rows = DenseMatrix([list(a) for a in sorted(roots)])
                expected = kernel(rows).meet(system.cartan)
            else:
                expected = system.cartan
            assert fibration._center(system, roots)[0] == expected

    def test_faulty_split_inside_a_batch_raises(self):
        # the Borel sets of A3 share one Levi set, so a bad q_n in the
        # middle meets the center and restrictions its neighbours use, and
        # a bad q_r in the middle gets a center of its own
        a3 = build_root_system("A", 3)
        borels = minimal_par(RegularSubalgebra(a3, a3.cartan, ()))
        assert len(borels) == 24
        assert len(z_root_decompositions(borels)) == 24
        middle = borels[12]
        dropped = _with_q_n(middle, middle.q_n - {min(middle.q_n)})
        with pytest.raises(AssertionError):
            z_root_decompositions(borels[:12] + [dropped] + borels[13:])
        alpha = min(middle.q_n)
        flipped = _with_q_n(middle, middle.q_n - {alpha} | {rootsys.neg(alpha)})
        with pytest.raises(AssertionError):
            z_root_decompositions(borels[:12] + [flipped] + borels[13:])
        q = standard_parabolic(a3, [1])
        bad = copy.copy(q)
        bad.q_r = q.q_r - {min(q.q_r)}
        with pytest.raises(AssertionError, match="not exactly the Levi roots"):
            z_root_decompositions([q, bad, q])


class TestLift:
    def test_borel_lift(self):
        vq = lift(V_SPLIT, BOREL)
        assert vq.dim == 4
        assert vq.contains_matrix(unit(0, 1))
        assert nilradical_nr(vq).dim == 3

    def test_idempotent(self):
        vq = lift(V_SPLIT, BOREL)
        assert lift(vq, BOREL).space == vq.space

    def test_horocyclic(self):
        # totally real base: the lift is L (+) nr(q)
        vq = lift(DIAG, P21)
        assert vq.dim == 5
        assert nilradical_nr(vq).space == nilradical_nr(P21).space

    def test_full_k_is_trivial(self):
        assert lift(DIAG, FULL).space == DIAG.space

    def test_membership_error(self):
        with pytest.raises(ValueError):
            lift(V_SPLIT, FULL)

    def test_regular_b3(self):
        vq = lift_regular(SO7_V, Q1_B3)
        assert vq.rootset == Q1_B3.q_n
        assert vq.toral.dim == 0
        borel_lift = lift_regular(SO7_V, W_B3)
        assert borel_lift.rootset == frozenset(B3.positive_roots)

    def test_regular_horocyclic(self):
        v = RegularSubalgebra(C2, C2.cartan, ())
        vq = lift_regular(v, Q_C2)
        assert vq.rootset == Q_C2.q_n
        assert vq.toral == C2.cartan

    def test_cross_backend(self):
        q = standard_parabolic(A2, [1])
        vq_reg = lift_regular(V2_A2, q)
        vq_mat = lift(embed_a2(V2_A2), embed_a2(q.to_regular()))
        assert vq_mat.space == embed_a2(vq_reg).space


class TestCharacteristic:
    def test_u3_circle_fiber(self):
        m = levi_part(V_U3)
        assert homotopic_characteristic(Q_U3, m) == 1
        assert not euler_positive_clause(Q_U3, m)

    def test_levi_itself(self):
        m = levi_part(Q_U3)
        assert homotopic_characteristic(Q_U3, m) == 0
        assert euler_positive_clause(Q_U3, m)

    def test_borel_target(self):
        m = levi_part(V_SPLIT)
        assert homotopic_characteristic(BOREL, m) == 0
        assert euler_positive_clause(BOREL, m)

    def test_regular_c2(self):
        m = levi_part_regular(V_REG)
        assert homotopic_characteristic_regular(Q_C2, m) == 1
        assert not euler_positive_clause_regular(Q_C2, m)

    def test_regular_levi_itself(self):
        m = Q_C2.levi()
        assert homotopic_characteristic_regular(Q_C2, m) == 0
        assert euler_positive_clause_regular(Q_C2, m)

    def test_regular_b3(self):
        m = levi_part_regular(SO7_V)
        assert homotopic_characteristic_regular(Q1_B3, m) == 2
        assert not euler_positive_clause_regular(Q1_B3, m)
        assert homotopic_characteristic_regular(W_B3, m) == 0
        assert euler_positive_clause_regular(W_B3, m)

    def test_cross_backend(self):
        q = standard_parabolic(A2, [1])
        qm = embed_a2(q.to_regular())
        assert homotopic_characteristic_regular(q, V2_A2) == 0
        assert euler_positive_clause_regular(q, V2_A2)
        assert homotopic_characteristic(qm, embed_a2(V2_A2)) == 0
        assert euler_positive_clause(qm, embed_a2(V2_A2))
        assert homotopic_characteristic_regular(q, ZV_A2) == 1
        assert not euler_positive_clause_regular(q, ZV_A2)
        assert homotopic_characteristic(qm, embed_a2(ZV_A2)) == 1
        assert not euler_positive_clause(qm, embed_a2(ZV_A2))

    def test_m_outside_levi(self):
        with pytest.raises(ValueError):
            homotopic_characteristic(Q_U3, V_U3)
