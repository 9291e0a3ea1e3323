import itertools
import math
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
)
from crlie import fibration, rootsys
from crlie.fibration import (
    _multiset_counter,
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
    z_root_decomposition,
)
from crlie.matrixlie import Subalg, gl_ambient, nilradical_nr, sl_ambient
from crlie.regularize import certify_parabolic_regular, regularize_regular
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSpan,
    RegularSubalgebra,
    build_root_system,
    enumerate_parabolics,
    lie_closure_regular,
    regular_sum,
    root_sum,
    standard_borel,
    standard_parabolic,
    weyl_root_permutations,
)

GL3 = gl_ambient(3)
SL3 = sl_ambient(3)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
B3 = build_root_system("B", 3)


def unit(i, j):
    return DenseMatrix.unit(3, i, j)


def idiag(*entries):
    return DenseMatrix.diag([IUNIT * GaussRational.of(e) for e in entries])


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
    mats = [DenseMatrix.diag(list(row)) for row in span.toral.basis]
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

    def test_builds_one_weyl_orbit(self, monkeypatch):
        d4 = build_root_system("D", 4)
        pair = [d4.parse_root(t) for t in ("e1-e2", "-e1+e2")]
        v = RegularSubalgebra(
            d4,
            canonicalize([list(d4.coroot(pair[0]))], 4),
            pair + [d4.parse_root("e3+e4")],
        )
        calls = dict.fromkeys(("weyl_conjugate_sets", "weyl_root_permutations"), 0)
        for module in (fibration, rootsys):
            for name in calls:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        res = minimal_par(v)
        assert len(res) > 1
        assert calls["weyl_conjugate_sets"] == 0
        assert calls["weyl_root_permutations"] <= 2

    def test_non_conjugate_levi_sets_are_rejected(self, monkeypatch):
        borel = standard_borel(B3)
        std = standard_parabolic(B3, [1])
        opposite = ParabolicRootSet(
            B3, std.q_r | {tuple(-x for x in a) for a in std.q_n}
        )
        monkeypatch.setattr(
            fibration, "enumerate_parabolics", lambda *a, **k: [borel, opposite]
        )
        v = RegularSubalgebra(B3, Subspace.zero(3), ())
        with pytest.raises(AssertionError, match="non-conjugate"):
            minimal_par(v)


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


def _count_sums(target, fvalue, keys, fvals, idx) -> int:
    """Brute-force oracle: number of multisets of keys summing to target;
    fvalue is the value of a functional that is positive on every key,
    which bounds the search."""
    if not any(target):
        return 1
    if fvalue <= 0 or idx == len(keys):
        return 0
    total = 0
    cur, curf = target, fvalue
    while curf >= 0:
        total += _count_sums(cur, curf, keys, fvals, idx + 1)
        cur = tuple(a - b for a, b in zip(cur, keys[idx]))
        curf -= fvals[idx]
    return total


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
        perms = weyl_root_permutations(system)
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
            every = [_count_sums(t, f, keys, kf, 0) for t, f in zip(targets, tf)]
            simple = [i for i in range(len(keys)) if every[i] == 1]
            assert [nu for nu, _ in z.simple_zroots] == [keys[i] for i in simple]
            sk = [keys[i] for i in simple]
            sf = [kf[i] for i in simple]
            into_simples = [_count_sums(t, f, sk, sf, 0) for t, f in zip(targets, tf)]
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

    def test_uniqueness_check_survives_optimized_interpreter(self):
        # a q_n that misses its first root gives a positive z-root with two
        # decompositions into simples; the check must hold under python -O
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
        assert "has 2 decompositions into simples" in err


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
