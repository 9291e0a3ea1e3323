"""Top level acceptance checks.

Each test_criterion_N function pins one headline behaviour end to end, so
``pytest -v`` on this file reads as a checklist.  The 7x functions are the
seeded property suites (at least 200 cases each, rank at most 4, matrices at
most 6 by 6).  The 8x functions compare the parabolic machinery against
brute-force enumeration.
"""

import itertools
import random
from fractions import Fraction

import pytest

from crlie.crcore import (
    ambient_dim_regular,
    cr_dims,
    cr_dims_regular,
    is_n_reductive,
    is_n_reductive_regular,
    levi_part,
    nr_regular,
    regularity_type,
    strengthens,
)
from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    IUNIT,
    Subspace,
    canonicalize,
    min_poly,
    squarefree_part,
)
from crlie.fibration import (
    classify_map,
    classify_regular,
    combine_parabolics,
    combine_parabolics_regular,
    deployment_verify,
    lift,
    maximal_par,
    minimal_par,
    par_membership_regular,
    z_root_decomposition,
)
from crlie.matrixlie import (
    Subalg,
    bracket_closure,
    gl_ambient,
    is_semisimple_matrix,
    jordan_chevalley,
    nilradical_nr,
    radical,
)
from crlie.realforms import (
    REAL,
    build_minimal_orbit,
    build_real_form,
    classify_roots,
    embed_regular,
    type_criteria,
)
from crlie.regularize import (
    certify_parabolic_regular,
    regularize,
    regularize_regular,
)
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSpan,
    RegularSubalgebra,
    build_root_system,
    closed_closure,
    enumerate_parabolics,
    lie_closure_regular,
    neg,
    parabolic_from_crosses,
    parabolic_from_grading,
    regular_sum,
    standard_borel,
    strongly_orthogonal_maximal_sets,
)
from helpers import diagonal

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
A4 = build_root_system("A", 4)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
B4 = build_root_system("B", 4)
C2 = build_root_system("C", 2)
C3 = build_root_system("C", 3)
C4 = build_root_system("C", 4)
D3 = build_root_system("D", 3)
D4 = build_root_system("D", 4)

HALF = GaussRational.of(Fraction(1, 2))


def units(n):
    return lambda i, j: DenseMatrix.unit(n, i, j)


def gl_span(mats, n):
    return canonicalize([m.flatten() for m in mats], n * n)


def sub_span(sub):
    n = sub.ambient.n
    return canonicalize([m.flatten() for m in sub.matrices()], n * n)


def roots_of(system, *texts):
    return frozenset(system.parse_root(t) for t in texts)


def random_regular(rng, system, max_seed_roots=4):
    k = min(rng.randrange(0, max_seed_roots), len(system.roots_sorted))
    seed_roots = rng.sample(system.roots_sorted, k)
    roots = closed_closure(system, seed_roots)
    toral_rows = [list(system.coroot(a)) for a in roots if neg(a) in roots]
    if rng.random() < 0.5:
        extra = [0] * system.coord_dim
        for s in system.simple_roots:
            c = rng.randrange(-2, 3)
            extra = [x + c * y for x, y in zip(extra, s)]
        toral_rows.append(extra)
    return RegularSubalgebra(
        system, canonicalize(toral_rows, system.coord_dim), roots
    )


def random_sub_regular(rng, e):
    """A random regular subalgebra contained in e."""
    system = e.system
    pool = sorted(e.rootset)
    seed_roots = rng.sample(pool, min(len(pool), rng.randrange(0, 4)))
    roots = closed_closure(system, seed_roots)
    toral_rows = [list(system.coroot(a)) for a in roots if neg(a) in roots]
    if rng.random() < 0.4:
        toral_rows += [list(row) for row in e.toral.basis]
    return RegularSubalgebra(
        system, canonicalize(toral_rows, system.coord_dim), roots
    )


_POOL = {}


def parabolic_pool(system):
    key = id(system)
    if key not in _POOL:
        _POOL[key] = enumerate_parabolics(system)
    return _POOL[key]


# ---------------------------------------------------------------------------
# criterion 1: the horocyclic subalgebra of sp(2)
# ---------------------------------------------------------------------------


def test_criterion_1_horocyclic_regularization_stabilizes_in_one_step():
    v = RegularSubalgebra(
        C2, C2.cartan, roots_of(C2, "2e1", "2e2", "e1+e2")
    )
    chain = regularize_regular(v)
    assert chain.dims == [5, 7, 7]
    assert len(chain.steps) == 3
    assert chain.steps[1].same_span(chain.steps[2])
    q = chain.parabolic
    assert q.q_n == roots_of(C2, "2e1", "2e2", "e1+e2")
    assert q.q_r == roots_of(C2, "e1-e2", "-e1+e2")
    assert chain.steps[1].nilpotent_roots == v.nilpotent_roots
    assert nr_regular(chain.result) == nr_regular(v)
    assert chain.certificate.ok
    # the same picture through the quaternionic presentation
    orbit = build_minimal_orbit("slH:2", [1, 3])
    mchain = regularize(orbit.v)
    assert mchain.dims == [5, 7, 7]
    assert mchain.nr_dims == [3, 3, 3]
    assert sub_span(nilradical_nr(mchain.result)) == sub_span(orbit.nr)


# ---------------------------------------------------------------------------
# criterion 2: su(1, 3) with the middle cross
# ---------------------------------------------------------------------------


def test_criterion_2_su13_single_cross_chain_and_dimensions():
    orbit = build_minimal_orbit("su:1,3", [2])
    chain = regularize(orbit.v)
    assert chain.dims == [5, 6, 6]
    assert chain.steps[1].space == chain.steps[2].space
    e = units(4)
    q_lines = [
        e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
        e(1, 1) - e(2, 2),
        e(0, 2) + e(3, 2),
        e(1, 0) + e(1, 3),
        e(1, 2),
        e(0, 3) + e(3, 0),
    ]
    assert sub_span(chain.result) == gl_span(q_lines, 4)
    assert cr_dims(orbit.v) == (3, 1)
    assert is_n_reductive(orbit.v)
    assert chain.certificate.ok


# ---------------------------------------------------------------------------
# criterion 3: su(1, 3) with two crosses, lifted into its normalizer
# ---------------------------------------------------------------------------


def test_criterion_3_su13_double_cross_lift_strengthens():
    orbit = build_minimal_orbit("su:1,3", [1, 2])
    chain = regularize(orbit.v)
    assert chain.dims == [4, 7, 7]
    assert chain.steps[1].space == chain.steps[2].space
    q = chain.result
    e = units(4)
    q_lines = [
        e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
        e(1, 1) - e(2, 2),
        e(0, 1) + e(3, 1),
        e(0, 2) + e(3, 2),
        e(0, 3) + e(3, 0),
        e(1, 0) + e(1, 3),
        e(1, 2),
    ]
    assert sub_span(q) == gl_span(q_lines, 4)
    lifted = lift(orbit.v, q)
    assert lifted.dim == 4
    assert strengthens(orbit.v, lifted)
    cls = classify_map(lifted, q)
    assert cls.is_cr
    assert cls.is_submersion
    assert cls.is_spread
    assert cls.is_deployment
    assert cls.fibers_totally_real
    assert not cls.fibers_totally_complex
    assert chain.certificate.ok


@pytest.mark.xfail(
    reason="a six line family for this normalizer is one line short: "
    "E10+E13 brackets back into the nilradical, so it normalizes too and "
    "the computed normalizer is seven dimensional",
    strict=True,
)
def test_criterion_3_six_line_normalizer_family_as_stated():
    orbit = build_minimal_orbit("su:1,3", [1, 2])
    q = regularize(orbit.v).result
    e = units(4)
    six_lines = [
        e(0, 0) + e(3, 3) - e(1, 1) - e(2, 2),
        e(1, 1) - e(2, 2),
        e(0, 1) + e(3, 1),
        e(0, 2) + e(3, 2),
        e(0, 3) + e(3, 0),
        e(1, 2),
    ]
    assert sub_span(q) == gl_span(six_lines, 4)


# ---------------------------------------------------------------------------
# criterion 4: su(2, 3) with crosses 1 and 3
# ---------------------------------------------------------------------------


def test_criterion_4_su23_root_sets_two_paths_and_rank_test():
    form = build_real_form("su:2,3")
    orbit = build_minimal_orbit(form, [1, 3])
    system = form.system
    sets = orbit.sets
    assert sets.flag_nilpotent == roots_of(
        system,
        "e1-e2", "e1-e3", "e1-e4", "e1-e5",
        "e2-e4", "e2-e5", "e3-e4", "e3-e5",
    )
    assert sets.flag_reductive == roots_of(
        system, "e2-e3", "-e2+e3", "e4-e5", "-e4+e5"
    )
    assert sets.theta_core_nilpotent == roots_of(system, "e1-e2", "e3-e4")
    assert sets.theta_core_reductive == frozenset()

    # two routes to v and nr(v): the matrix build against the root formula
    # h_plus (+) projections of the core root vectors
    def pi(x):
        return (x + form.theta(x)).scale(HALF)

    n = form.k.n
    v_lines = list(form.adapted.h_plus_basis) + [
        pi(form.root_vectors[a]) for a in sorted(sets.theta_core)
    ]
    assert sub_span(orbit.v) == gl_span(v_lines, n)
    nr_lines = [pi(form.root_vectors[a]) for a in sorted(sets.theta_core_nilpotent)]
    assert sub_span(orbit.nr) == gl_span(nr_lines, n)
    assert sub_span(nilradical_nr(orbit.v)) == gl_span(nr_lines, n)

    # rank test: the normalizer of v contains no maximal torus
    report = regularity_type(orbit.v)
    assert report.v_normalizer_rank < report.ambient_rank

    # the first type criterion fails with the displayed obstruction
    crit = type_criteria(orbit)
    assert not crit.type_I
    record = crit.witnesses["type_I"]
    assert not record["holds"]
    (cex,) = record["counterexamples"]
    total = tuple(
        sum(parts) for parts in zip(*system.simple_roots[:3])
    )
    assert cex["sum"] == total
    assert cex["sum"] == system.parse_root("e1-e4")


@pytest.mark.xfail(
    reason="the normalizer of the Levi part here still contains a maximal "
    "torus, so the report comes out as type II; only the normalizer of v "
    "itself drops rank, which the main test asserts directly",
    strict=True,
)
def test_criterion_4_type_three_label_as_stated():
    orbit = build_minimal_orbit("su:2,3", [1, 3])
    assert regularity_type(orbit.v).kind == "III"


# ---------------------------------------------------------------------------
# criterion 5: so(3, 5) with the last cross
# ---------------------------------------------------------------------------


def test_criterion_5_so35_orthogonal_systems_and_type_failures():
    form = build_real_form("so:3,5")
    orbit = build_minimal_orbit(form, [4])
    system = form.system
    sets = orbit.sets
    assert sets.theta_core_nilpotent == roots_of(
        system, "e1+e4", "e2+e4", "e3+e4"
    )
    assert sets.theta_core_reductive == roots_of(
        system, "e1-e2", "-e1+e2", "e1-e3", "-e1+e3", "e2-e3", "-e2+e3"
    )

    crit = type_criteria(orbit)
    expected_systems = {
        frozenset(roots_of(system, "e1-e2", "e1+e2")),
        frozenset(roots_of(system, "e1-e3", "e1+e3")),
        frozenset(roots_of(system, "e2-e3", "e2+e3")),
    }
    assert {frozenset(s) for s in crit.systems} == expected_systems

    # second route to the maximal strongly orthogonal systems: collect the
    # positive real roots of the flag and run the clique search directly
    cls = classify_roots(form)
    positive = set(system.positive_roots)
    reps = sorted(
        {a if a in positive else neg(a)
         for a in sets.flag_roots if cls.tags[a] == REAL}
    )
    cliques = strongly_orthogonal_maximal_sets(system, reps)
    assert {frozenset(c) for c in cliques} == expected_systems

    assert not crit.type_II
    record = crit.witnesses["type_II"]
    assert not record["holds"]
    assert {c["system"] for c in record["counterexamples"]} == set(crit.systems)
    for cex in record["counterexamples"]:
        assert cex["sum"] in system.roots
        assert cex["sum"] not in sets.theta_core_reductive
    assert not crit.type_I


# ---------------------------------------------------------------------------
# criterion 6: the nilpotent pair in so(7)
# ---------------------------------------------------------------------------


def test_criterion_6_so7_chain_parabolics_and_closures():
    v = RegularSubalgebra(
        B3, Subspace.zero(3), roots_of(B3, "e1-e3", "e2")
    )
    chain = regularize_regular(v)
    assert chain.dims == [2, 9, 13, 13]
    assert chain.parabolic == parabolic_from_grading(B3, (1, 2, -1))
    assert chain.parabolic.q_r == roots_of(B3, "e1+e3", "-e1-e3")
    assert chain.certificate.ok

    borel = standard_borel(B3)
    members = maximal_par(v, containing=borel)
    q_cross_2 = parabolic_from_crosses(B3, [2])
    q_cross_13 = parabolic_from_crosses(B3, [1, 3])
    assert members == sorted(
        [q_cross_2, q_cross_13], key=ParabolicRootSet.sort_key
    )
    assert q_cross_2.q_r == roots_of(B3, "e1-e2", "-e1+e2", "e3", "-e3")
    assert q_cross_13.q_r == roots_of(B3, "e2-e3", "-e2+e3")

    dec_2 = z_root_decomposition(q_cross_2)
    comps_2 = {
        frozenset(comp)
        for nu, comp in dec_2.zroots
        if nu in set(dec_2.positive)
    }
    assert comps_2 == {
        roots_of(B3, "e1", "e2", "e1-e3", "e1+e3", "e2-e3", "e2+e3"),
        roots_of(B3, "e1+e2"),
    }
    assert sorted(len(c) for c in comps_2) == [1, 6]

    dec_13 = z_root_decomposition(q_cross_13)
    comps_13 = {
        frozenset(comp)
        for nu, comp in dec_13.zroots
        if nu in set(dec_13.positive)
    }
    assert comps_13 == {
        roots_of(B3, "e1-e2", "e1-e3"),
        roots_of(B3, "e2", "e3"),
        roots_of(B3, "e1"),
        roots_of(B3, "e1+e2", "e1+e3"),
        roots_of(B3, "e2+e3"),
    }
    assert sorted(len(c) for c in comps_13) == [1, 1, 2, 2, 2]

    # v + L(q) generates q as a Lie algebra but not as an L(q)-module
    for q in (q_cross_2, q_cross_13):
        levi = q.levi()
        start = regular_sum(B3, [v, levi])
        alg = lie_closure_regular(B3, start, mode="algebra")
        assert alg.same_span(q.to_regular())
        mod = lie_closure_regular(B3, start, mode="module", levi=levi)
        assert mod.rootset <= q.q
        assert mod.dim < q.dim
        assert not mod.same_span(q.to_regular())


@pytest.mark.xfail(
    reason="the first normalizer step already picks up the lowering root "
    "-e1-e3, so the chain stabilizes on the (1, 2, -1) grading parabolic "
    "and not on the standard Borel",
    strict=True,
)
def test_criterion_6_regularization_is_borel_as_stated():
    v = RegularSubalgebra(
        B3, Subspace.zero(3), roots_of(B3, "e1-e3", "e2")
    )
    chain = regularize_regular(v)
    assert chain.parabolic == standard_borel(B3)


# ---------------------------------------------------------------------------
# criterion 7: seeded property suites
# ---------------------------------------------------------------------------


def test_criterion_7a_regularization_property_suite():
    rng = random.Random(701)
    systems = [A2, A3, A4, B2, B3, B4, C2, C3, C4, D3, D4]
    for _ in range(220):
        system = rng.choice(systems)
        v = random_regular(rng, system)
        chain = regularize_regular(v)
        steps = chain.steps
        dims = chain.dims
        # monotone, strictly until the confirming step
        for a, b in zip(steps, steps[1:]):
            assert a.is_contained_in(b)
        assert dims[-1] == dims[-2]
        assert all(a < b for a, b in zip(dims[:-2], dims[1:-1]))
        # nilpotent sets only ever grow, and once they freeze the next
        # normalizer returns the same span
        for a, b in zip(steps, steps[1:]):
            assert a.nilpotent_roots <= b.nilpotent_roots
        for m in range(len(steps) - 1):
            if steps[m].nilpotent_roots == steps[m + 1].nilpotent_roots:
                assert steps[m + 1].same_span(chain.result)
        # parabolics are fixed points
        rerun = regularize_regular(chain.parabolic.to_regular())
        assert len(rerun.steps) == 2
        assert rerun.parabolic == chain.parabolic
        assert chain.certificate.ok


def test_criterion_7b_nilradical_property_suite():
    rng = random.Random(702)
    gl3 = gl_ambient(3)
    seeds_pool = [
        DenseMatrix.unit(3, 0, 1),
        DenseMatrix.unit(3, 0, 2),
        DenseMatrix.unit(3, 1, 2),
        DenseMatrix.unit(3, 1, 0),
        diagonal([GaussRational.of(1), GaussRational.of(-1), GaussRational.of(0)]),
        diagonal([IUNIT, IUNIT, IUNIT * GaussRational.of(-2)]),
    ]
    cases = 0
    for i in range(200):
        if i % 7 == 0:
            seeds = rng.sample(seeds_pool, rng.randrange(1, 4))
            v = bracket_closure(Subalg.from_matrices(gl3, seeds))
        elif i % 4 == 0:
            v = embed_regular("compact-sp:2", random_regular(rng, C2))
        else:
            v = embed_regular("compact-u:3", random_regular(rng, A2))
        nil = nilradical_nr(v)
        assert nil.is_subspace_of(v)
        size = v.ambient.n
        for b in nil.matrices():
            assert (b ** size).is_zero()
            for a in v.matrices():
                assert nil.contains_matrix(a.bracket(b))
        # a combination of nilradical elements is again nilpotent
        if nil.dim:
            combo = DenseMatrix.zero(size, size)
            for b in nil.matrices():
                c = GaussRational(
                    Fraction(rng.randrange(-3, 4)),
                    Fraction(rng.randrange(-2, 3)),
                )
                combo = combo + b.scale(c)
            assert (combo ** size).is_zero()
        # the quotient is reductive: a complement with central radical
        m = levi_part(v)
        assert nil.space.meet(m.space).dim == 0
        assert nil.space.join(m.space) == v.space
        rad = radical(m)
        for a in m.matrices():
            for b in rad.matrices():
                assert a.bracket(b).is_zero()
        cases += 1
    assert cases == 200


def test_criterion_7c_jordan_chevalley_property_suite():
    rng = random.Random(703)

    def entry():
        return GaussRational(
            Fraction(rng.randrange(-2, 3), rng.choice((1, 1, 2))),
            Fraction(rng.randrange(-1, 2)),
        )

    for i in range(210):
        n = rng.choice((2, 3, 3, 4))
        style = i % 4
        x = DenseMatrix.zero(n, n)
        for r in range(n):
            for c in range(n):
                if style == 1 and r >= c:
                    continue
                if style == 2 and r != c:
                    continue
                if style == 0 and rng.random() < 0.3:
                    continue
                x = x + DenseMatrix.unit(n, r, c).scale(entry())
        s, npart = jordan_chevalley(x)
        assert (s + npart - x).is_zero()
        assert s.bracket(npart).is_zero()
        assert (npart ** n).is_zero()
        assert s.bracket(x).is_zero()
        assert is_semisimple_matrix(s)
        p = squarefree_part(min_poly(x))
        assert p(s).is_zero()
        s2, n2 = jordan_chevalley(s)
        assert (s2 - s).is_zero()
        assert n2.is_zero()
        if style == 1:
            assert s.is_zero()
        if style == 2:
            assert npart.is_zero()


def test_criterion_7d_backend_agreement_suite():
    rng = random.Random(704)
    setups = (
        [("compact-u:2", A1)] * 75
        + [("compact-u:3", A2)] * 60
        + [("compact-sp:2", C2)] * 50
        + [("compact-u:4", A3)] * 15
    )
    rng.shuffle(setups)
    # the full matrix chain is the expensive half, so it runs on a seeded
    # budget per form while the pointwise agreements run on every case
    chain_budget = {
        "compact-u:2": 60,
        "compact-u:3": 8,
        "compact-sp:2": 6,
        "compact-u:4": 1,
    }
    for tag, system in setups:
        form = build_real_form(tag)
        seeds = 2 if tag in ("compact-sp:2", "compact-u:4") else 3
        v_reg = random_regular(rng, system, max_seed_roots=seeds)
        v_mat = embed_regular(form, v_reg)
        delta = form.k.dim - ambient_dim_regular(v_reg)
        size = form.k.n

        assert v_mat.dim == v_reg.dim
        nil = nilradical_nr(v_mat)
        nr_emb = embed_regular(
            form,
            RegularSpan(
                system, Subspace.zero(system.coord_dim), nr_regular(v_reg)
            ),
        )
        assert nil.space == nr_emb.space
        assert is_n_reductive(v_mat) == is_n_reductive_regular(v_reg)
        cr_m = cr_dims(v_mat)
        cr_r = cr_dims_regular(v_reg)
        assert cr_m[0] == cr_r[0]
        assert cr_m[1] == cr_r[1] + delta

        if chain_budget[tag] <= 0:
            continue
        chain_budget[tag] -= 1
        chain_m = regularize(v_mat)
        chain_r = regularize_regular(v_reg)
        assert chain_m.certificate.ok and chain_r.certificate.ok
        # the unitary ambient carries a central line the root datum cannot
        # see; it joins the chain at the first normalizer step
        extra = 1 if (delta == 1 and len(chain_r.steps) == 2) else 0
        assert len(chain_m.steps) == len(chain_r.steps) + extra
        assert chain_m.dims[0] == chain_r.dims[0]
        last = len(chain_r.steps) - 1
        for i in range(1, len(chain_m.steps)):
            assert chain_m.dims[i] == chain_r.dims[min(i, last)] + delta
            assert chain_m.nr_dims[i] == chain_r.nr_dims[min(i, last)]

        q = chain_r.parabolic
        expected = embed_regular(form, q.to_regular()).space
        if delta:
            center = diagonal([IUNIT] * size)
            expected = expected.join(
                canonicalize([form.k.coords(center)], form.k.dim)
            )
        assert chain_m.result.space == expected
        final_nr = embed_regular(
            form,
            RegularSpan(
                system, Subspace.zero(system.coord_dim), frozenset(q.q_n)
            ),
        )
        assert nilradical_nr(chain_m.result).space == final_nr.space


def test_criterion_7e_classification_lattice_suite():
    rng = random.Random(705)
    systems = [A2, A3, B2, B3, C2, C3, D3, D4]
    for i in range(210):
        system = rng.choice(systems)
        e = random_regular(rng, system)
        if i % 3 == 0:
            v = random_regular(rng, system)
        else:
            v = random_sub_regular(rng, e)
        cls = classify_regular(v, e)
        contained = v.rootset <= e.rootset and v.toral.is_subspace_of(e.toral)
        assert cls.is_cr == contained
        if not cls.is_cr:
            assert not cls.is_submersion
            assert not cls.is_spread
            assert not cls.is_deployment
            assert not cls.fibers_totally_real
            assert not cls.fibers_totally_complex
        if cls.is_submersion:
            assert cls.is_spread
        assert cls.is_deployment == (
            cls.is_spread and cls.fibers_totally_real
        )
        # the identity map is a submersion with point fibers
        self_cls = classify_regular(v, v)
        assert self_cls.is_cr
        assert self_cls.is_submersion
        assert self_cls.fibers_totally_real
        assert self_cls.fibers_totally_complex
        if i % 3 != 0:
            continue
        # maps onto the regularization are CR, and spread-ness matches the
        # closure computed by hand
        q = regularize_regular(v).parabolic
        cls_q = classify_regular(v, q.to_regular())
        assert cls_q.is_cr
        levi = q.levi()
        closure = lie_closure_regular(
            system, regular_sum(system, [v, levi]), mode="algebra"
        )
        assert closure.same_span(q.to_regular()) == cls_q.is_spread
        if (
            is_n_reductive_regular(v)
            and cls_q.is_spread
            and cls_q.fibers_totally_real
        ):
            assert deployment_verify(v, q, mode="algebra")


def test_criterion_7f_combine_parabolics_property_suite():
    rng = random.Random(706)
    systems = [A2, A3, B2, B3, C2, C3, D3]
    cases = 0
    for _ in range(500):
        if cases >= 200:
            break
        system = rng.choice(systems)
        v = random_regular(rng, system)
        members = [
            q for q in parabolic_pool(system) if par_membership_regular(v, q)
        ]
        if len(members) < 2:
            continue
        q1 = rng.choice(members)
        q2 = rng.choice(members)
        out = combine_parabolics_regular(q1, q2, v)
        assert certify_parabolic_regular(out).ok
        assert par_membership_regular(v, out)
        assert out.q <= q1.q
        assert q1.q_n <= out.q_n
        assert combine_parabolics_regular(out, out, v) == out
        cases += 1
    assert cases >= 200
    # the matrix route agrees once the central line is restored
    form = build_real_form("compact-u:3")
    center = diagonal([IUNIT] * 3)

    def realize(q):
        emb = embed_regular(form, q.to_regular())
        return Subalg.from_matrices(
            form.k, list(emb.matrices()) + [center]
        )

    matrix_cases = 0
    for _ in range(60):
        if matrix_cases >= 20:
            break
        v = random_regular(rng, A2)
        members = [
            q for q in parabolic_pool(A2) if par_membership_regular(v, q)
        ]
        if len(members) < 2:
            continue
        q1 = rng.choice(members)
        q2 = rng.choice(members)
        out = combine_parabolics_regular(q1, q2, v)
        m_out = combine_parabolics(realize(q1), realize(q2))
        assert m_out.space == realize(out).space
        matrix_cases += 1
    assert matrix_cases >= 20


def test_criterion_7g_exactlin_law_suite():
    rng = random.Random(707)

    def entry():
        return GaussRational(
            Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-2, 3))
        )

    def random_subspace(n):
        rows = [
            [entry() for _ in range(n)]
            for _ in range(rng.randrange(0, n + 1))
        ]
        return canonicalize(rows, n)

    def combo_of(basis, n):
        row = [GaussRational.of(0)] * n
        for b in basis:
            c = GaussRational.of(rng.randrange(-2, 3))
            row = [x + c * y for x, y in zip(row, b)]
        return row

    for _ in range(260):
        n = rng.randrange(2, 7)
        vee = random_subspace(n)
        dub = random_subspace(n)
        inner_rows = [
            combo_of(dub.basis, n) for _ in range(rng.randrange(0, 4))
        ]
        u = canonicalize(inner_rows, n)
        assert u.is_subspace_of(dub)
        # modular law for u inside dub
        left = u.join(vee.meet(dub))
        right = (u.join(vee)).meet(dub)
        assert left == right
        # dimension formula and lattice bounds
        join = u.join(vee)
        meet = u.meet(vee)
        assert join.dim + meet.dim == u.dim + vee.dim
        assert meet.is_subspace_of(u) and meet.is_subspace_of(vee)
        assert u.is_subspace_of(join) and vee.is_subspace_of(join)
        # the reduced basis is unique: shuffled, rescaled spanning sets
        # canonicalize to the same object
        noisy = [list(row) for row in vee.basis]
        for row in list(noisy):
            c = GaussRational(
                Fraction(rng.randrange(1, 4)), Fraction(rng.randrange(0, 3))
            )
            noisy.append([c * x for x in row])
        for _ in range(3):
            if len(vee.basis) >= 2:
                a, b = rng.sample(range(len(vee.basis)), 2)
                noisy.append(
                    [x + y for x, y in zip(vee.basis[a], vee.basis[b])]
                )
        rng.shuffle(noisy)
        assert canonicalize(noisy, n) == vee
        assert canonicalize([list(r) for r in vee.basis], n) == vee


# ---------------------------------------------------------------------------
# criterion 8: brute-force oracles for the parabolic machinery
# ---------------------------------------------------------------------------


def sign_pattern_parabolics(system):
    """Every subset of the roots built by choosing, for each opposite pair,
    the plus root, the minus root or both, kept when closed under root
    addition."""
    index = {a: i for i, a in enumerate(system.roots_sorted)}
    sums = {}
    for a in system.roots_sorted:
        for b in system.roots_sorted:
            s = tuple(x + y for x, y in zip(a, b))
            if s in index:
                sums[index[a], index[b]] = index[s]
    pos = sorted(system.positive_roots)
    out = set()
    for pattern in itertools.product((0, 1, 2), repeat=len(pos)):
        chosen = []
        for flag, alpha in zip(pattern, pos):
            if flag != 1:
                chosen.append(index[alpha])
            if flag != 0:
                chosen.append(index[neg(alpha)])
        member = set(chosen)
        ok = True
        for a in chosen:
            for b in chosen:
                target = sums.get((a, b))
                if target is not None and target not in member:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(
                frozenset(
                    system.roots_sorted[i] for i in member
                )
            )
    return out


def test_criterion_8_enumeration_matches_sign_pattern_oracle():
    for system in (A1, A2, A3, B2, B3, C2, C3, D3):
        expected = sign_pattern_parabolics(system)
        produced = {frozenset(q.q) for q in parabolic_pool(system)}
        assert produced == expected
        assert len(parabolic_pool(system)) == len(produced)


def test_criterion_8_par_extrema_match_brute_force():
    rng = random.Random(708)
    for system in (A1, A2, A3, B2, B3, C2, C3, D3):
        pool = parabolic_pool(system)
        zero = Subspace.zero(system.coord_dim)
        cases = [
            RegularSubalgebra(system, zero, frozenset()),
            standard_borel(system).to_regular(),
            RegularSubalgebra(system, system.cartan, frozenset(system.roots)),
        ]
        cases += [random_regular(rng, system) for _ in range(12)]
        for v in cases:
            members = [
                q
                for q in pool
                if v.rootset <= q.q and not (v.nilpotent_roots & q.q_r)
            ]
            maxi = {
                frozenset(q.q)
                for q in members
                if not any(o.q > q.q for o in members)
            }
            mini = {
                frozenset(q.q)
                for q in members
                if not any(o.q < q.q for o in members)
            }
            assert {frozenset(q.q) for q in maximal_par(v)} == maxi
            assert {frozenset(q.q) for q in minimal_par(v)} == mini
