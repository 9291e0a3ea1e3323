import pickle
import random
from fractions import Fraction

import pytest

from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    Poly,
    POLY_X,
    SpanTracker,
    Subspace,
    _rref,
    canonicalize,
    kernel,
    meet_join,
    min_poly,
    poly_gcd,
    poly_xgcd,
    solve_linear,
    solve_membership,
    squarefree_part,
)


def g(re, im=0):
    return GaussRational(re, im)


def rand_scalar(rng, span=4):
    return GaussRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def rand_vector(rng, n):
    return [rand_scalar(rng) for _ in range(n)]


def rand_matrix(rng, rows, cols):
    return DenseMatrix([rand_vector(rng, cols) for _ in range(rows)])


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_scalar_field_ops():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_scalar_parse_round_trip():
    cases = ["0", "7", "-2", "3/2", "-5/4", "i", "-i", "2i", "-2/3i", "1+i",
             "3/2-5i", "-1/2+3/4i", "0", "10/7+10/7i"]
    for text in cases:
        v = GaussRational.parse(text)
        assert GaussRational.parse(str(v)) == v
    assert GaussRational.parse("i") == g(0, 1)
    assert GaussRational.parse("-i") == g(0, -1)
    assert GaussRational.parse("3/2-5i") == g(Fraction(3, 2), -5)
    with pytest.raises(ValueError):
        GaussRational.parse("x")
    with pytest.raises(ValueError):
        GaussRational.parse("1.5")


def test_scalar_parse_random_round_trip():
    rng = random.Random(12)
    for _ in range(300):
        v = rand_scalar(rng, span=30)
        assert GaussRational.parse(str(v)) == v


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------


def test_canonicalize_trivial_cases():
    s = canonicalize([[1, 0], [2, 0]])
    assert s.dim == 1
    assert s.basis == ((GaussRational(1), GaussRational(0)),)

    assert canonicalize([], 3).dim == 0

    s = canonicalize([[g(1), g(0, 1)], [g(0), g(1)]])
    assert s.dim == 2


def test_canonicalize_rejects_ragged_input():
    with pytest.raises(ValueError):
        canonicalize([[1, 0], [1, 2, 3]])


def test_rref_uniqueness_under_shuffle_and_rescale():
    rng = random.Random(101)
    for _ in range(250):
        n = rng.randint(1, 7)
        k = rng.randint(0, n + 2)
        vecs = [rand_vector(rng, n) for _ in range(k)]
        s = canonicalize(vecs, n)
        mixed = [list(v) for v in vecs]
        rng.shuffle(mixed)
        for i, v in enumerate(mixed):
            c = rand_scalar(rng)
            if not c:
                c = GaussRational(1)
            mixed[i] = [c * x for x in v]
        if len(mixed) >= 2:
            i, j = rng.sample(range(len(mixed)), 2)
            f = rand_scalar(rng)
            mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
        assert canonicalize(mixed, n) == s


# ---------------------------------------------------------------------------
# row reduction against a textbook Gauss-Jordan oracle
# ---------------------------------------------------------------------------


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _oracle_rref(rows, width):
    """Dense textbook Gauss-Jordan over (re, im) Fraction pairs."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        src = next((i for i in range(r, len(m)) if m[i][c] != (0, 0)), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        inv = _pair_inv(m[r][c])
        m[r] = [_pair_mul(a, inv) for a in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [
                    (a[0] - p[0], a[1] - p[1])
                    for a, p in zip(m[i], (_pair_mul(f, b) for b in m[r]))
                ]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _rand_pair(rng, density):
    if rng.random() >= density:
        return (Fraction(0), Fraction(0))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0
    return (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(im))


def test_rref_matches_textbook_gauss_jordan():
    rng = random.Random(2024)
    for _ in range(300):
        width = rng.randint(1, 10)
        density = rng.choice([0.15, 0.4, 1.0])
        rows = [
            [_rand_pair(rng, density) for _ in range(width)]
            for _ in range(rng.randint(0, 8))
        ]
        if rng.random() < 0.3:
            rows.append([(Fraction(0), Fraction(0))] * width)
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        rng.shuffle(rows)
        want_rows, want_pivots = _oracle_rref(rows, width)
        basis, pivots = _rref([[g(*x) for x in r] for r in rows], width)
        assert list(pivots) == want_pivots
        assert [[(a.re, a.im) for a in row] for row in basis] == want_rows
    with pytest.raises(ValueError, match="length 3 in ambient of dimension 2"):
        _rref([[1, 0], [1, 2, 3]], 2)


def _entrywise(a, b, op):
    return DenseMatrix(
        [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
    )


def _rand_sparse_matrix(rng, n):
    return DenseMatrix(
        [
            [rand_scalar(rng) if rng.random() < 0.25 else g(0) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_matrix_add_sub_bracket_match_entrywise_reference():
    rng = random.Random(4242)
    scalars = random.Random(4343)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = _rand_sparse_matrix(rng, n), _rand_sparse_matrix(rng, n)
        assert a + b == _entrywise(a, b, lambda x, y: x + y)
        assert a - b == _entrywise(a, b, lambda x, y: x - y)
        c = rand_scalar(scalars) if scalars.random() < 0.8 else g(0)
        assert a.scale(c) == _entrywise(a, a, lambda x, _: c * x)
        product = [
            [
                sum((a[i, k] * b[k, j] for k in range(n)), g(0))
                - sum((b[i, k] * a[k, j] for k in range(n)), g(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert a.bracket(b) == DenseMatrix(product)


def test_meet_join_equals_canonicalized_halves():
    rng = random.Random(515)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = canonicalize([rand_vector(rng, n) for _ in range(rng.randint(0, n))], n)
        shared = [list(row) for row in a.basis[: rng.randint(0, a.dim)]]
        b = canonicalize(
            shared + [rand_vector(rng, n) for _ in range(rng.randint(0, n))], n
        )
        meet, join = meet_join(a, b)
        stacked = [list(r) + list(r) for r in a.basis]
        stacked += [list(r) + [g(0)] * n for r in b.basis]
        reduced = canonicalize(stacked, 2 * n).basis
        want_join = canonicalize([r[:n] for r in reduced if any(r[:n])], n)
        want_meet = canonicalize([r[n:] for r in reduced if not any(r[:n])], n)
        assert (meet, meet.pivots) == (want_meet, want_meet.pivots)
        assert (join, join.pivots) == (want_join, want_join.pivots)
        assert join == canonicalize(list(a.basis) + list(b.basis), n)


def test_value_types_pickle_round_trip():
    rng = random.Random(9)
    values = [
        g(Fraction(1, 2), -3),
        rand_matrix(rng, 3, 4),
        DenseMatrix([]),
        canonicalize([rand_vector(rng, 4) for _ in range(2)], 4),
        Subspace.zero(3),
        Poly([g(1), g(0, 2), g(Fraction(-1, 3))]),
        Poly([]),
    ]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
    s = values[3]
    assert pickle.loads(pickle.dumps(s)).pivots == s.pivots


def test_meet_join_axes():
    x = canonicalize([[1, 0]])
    y = canonicalize([[0, 1]])
    meet, join = meet_join(x, y)
    assert meet.dim == 0
    assert join == Subspace.full(2)


def test_meet_join_idempotent():
    rng = random.Random(5)
    a = canonicalize([rand_vector(rng, 4) for _ in range(2)], 4)
    meet, join = meet_join(a, a)
    assert meet == a and join == a


def test_modular_law_random():
    rng = random.Random(77)
    for _ in range(250):
        n = rng.randint(2, 6)
        a = canonicalize([rand_vector(rng, n) for _ in range(rng.randint(0, n))], n)
        b = canonicalize([rand_vector(rng, n) for _ in range(rng.randint(0, n))], n)
        meet, join = meet_join(a, b)
        assert meet.dim + join.dim == a.dim + b.dim
        assert meet.is_subspace_of(a) and meet.is_subspace_of(b)
        assert a.is_subspace_of(join) and b.is_subspace_of(join)


def test_conjugation_involution():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        s = canonicalize([rand_vector(rng, n) for _ in range(rng.randint(0, n))], n)
        assert s.conjugate().conjugate() == s


def test_membership_and_solve():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(2, 6)
        s = canonicalize([rand_vector(rng, n) for _ in range(rng.randint(1, n))], n)
        coeffs = [rand_scalar(rng) for _ in range(s.dim)]
        v = [GaussRational(0)] * n
        for c, row in zip(coeffs, s.basis):
            v = [a + c * b for a, b in zip(v, row)]
        got = solve_membership(v, s)
        assert got is not None
        rebuilt = [GaussRational(0)] * n
        for c, row in zip(got, s.basis):
            rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
        assert rebuilt == v
    assert solve_membership([0, 0, 1], canonicalize([[1, 0, 0]], 3)) is None


def test_kernel_annihilates():
    rng = random.Random(59)
    for _ in range(150):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ker = kernel(m)
        row_rank = canonicalize(list(m.entries), m.cols).dim
        assert ker.dim == m.cols - row_rank
        for v in ker.basis:
            image = [
                sum((a * b for a, b in zip(row, v)), GaussRational(0))
                for row in m.entries
            ]
            assert not any(image)


def test_solve_linear():
    a = DenseMatrix([[1, 2], [0, 1], [1, 3]])
    x = solve_linear(a, [5, 2, 7])
    assert x is not None
    assert [x[0] + 2 * x[1], x[1], x[0] + 3 * x[1]] == [g(5), g(2), g(7)]
    assert solve_linear(DenseMatrix([[1, 0], [1, 0]]), [1, 2]) is None


def test_span_tracker_expressions():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(2, 6)
        tracker = SpanTracker(n)
        inserted = []
        for _ in range(rng.randint(1, 2 * n)):
            v = rand_vector(rng, n)
            inserted.append(v)
            tracker.add(v)
        combo = [rand_scalar(rng) for _ in range(len(inserted))]
        target = [GaussRational(0)] * n
        for c, v in zip(combo, inserted):
            target = [a + c * b for a, b in zip(target, v)]
        expr = tracker.express(target)
        assert expr is not None
        rebuilt = [GaussRational(0)] * n
        for c, v in zip(expr, inserted):
            rebuilt = [a + c * b for a, b in zip(rebuilt, v)]
        assert rebuilt == target


# ---------------------------------------------------------------------------
# polynomials and minimal polynomials
# ---------------------------------------------------------------------------


def test_poly_divmod_property():
    rng = random.Random(71)
    for _ in range(200):
        a = Poly([rand_scalar(rng) for _ in range(rng.randint(0, 6))])
        b = Poly([rand_scalar(rng) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_poly_gcd_divides_both():
    rng = random.Random(73)
    for _ in range(100):
        a = Poly([rand_scalar(rng) for _ in range(rng.randint(1, 5))])
        b = Poly([rand_scalar(rng) for _ in range(rng.randint(1, 5))])
        if a.is_zero() or b.is_zero():
            continue
        h = poly_gcd(a, b)
        assert (a % h).is_zero() and (b % h).is_zero()
        gg, u, v = poly_xgcd(a, b)
        assert u * a + v * b == gg
        assert gg == h


def test_min_poly_identity():
    assert min_poly(DenseMatrix.identity(3)) == Poly([-1, 1])


def test_min_poly_nilpotent_block():
    j = DenseMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert min_poly(j) == Poly([0, 0, 0, 1])


def test_min_poly_repeated_diagonal():
    m = DenseMatrix.diag([2, 2, 5])
    assert min_poly(m) == (POLY_X - Poly([2])) * (POLY_X - Poly([5]))


def test_min_poly_annihilates_random():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        p = min_poly(m)
        assert p.leading() == GaussRational(1)
        assert p.degree <= n
        assert p(m).is_zero()


def test_squarefree_part():
    x = POLY_X
    p = (x - Poly([1])) * (x - Poly([1])) * (x + Poly([2]))
    sf = squarefree_part(p)
    assert sf == ((x - Poly([1])) * (x + Poly([2]))).monic()
    assert squarefree_part(sf) == sf


def test_matrix_basics():
    a = DenseMatrix([[1, g(0, 1)], [0, 2]])
    assert a.conj_transpose() == DenseMatrix([[1, 0], [g(0, -1), 2]])
    assert a.trace() == g(3)
    assert (a - a).is_zero()
    b = DenseMatrix.unit(2, 0, 1)
    assert a.bracket(b) == a * b - b * a
    assert DenseMatrix.parse([["1+i", "0"], ["-3/2", "2i"]]) == DenseMatrix(
        [[g(1, 1), 0], [g(Fraction(-3, 2)), g(0, 2)]]
    )
