import math
import pickle
import random
import sys
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
    apply_sparse,
    canonicalize,
    combine,
    kernel,
    meet_join,
    min_poly,
    poly_gcd,
    poly_xgcd,
    solve_linear,
    solve_membership,
    sparse,
    squarefree_part,
)
from crlie.matrixlie import SplitEvidence
from helpers import diagonal


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


@pytest.mark.parametrize(
    ("text", "literal"),
    [("1/0", "1/0"), ("-3/00", "-3/00"), ("2i/0", None), ("1/2-3/0i", "-3/0"), ("7/0i", "7/0")],
)
def test_zero_denominator_is_a_bad_literal(text, literal):
    # a zero denominator once escaped as Fraction's ZeroDivisionError
    with pytest.raises(ValueError, match="bad rational literal") as err:
        GaussRational.parse(text)
    if literal is not None:
        assert str(err.value) == f"bad rational literal {literal!r}"
    assert GaussRational.parse("1/05") == g(Fraction(1, 5))


def test_scalar_parse_random_round_trip():
    rng = random.Random(12)
    for _ in range(300):
        v = rand_scalar(rng, span=30)
        assert GaussRational.parse(str(v)) == v


# ---------------------------------------------------------------------------
# the integer-triple scalar against a two-Fraction reference
# ---------------------------------------------------------------------------


class RefGaussRational:
    """Reference scalar: a + b*i held as two Fractions, every operation
    written out on them."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefGaussRational is immutable")

    def conjugate(self):
        return RefGaussRational(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _ref(other)
        return RefGaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref(other)
        return RefGaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _ref(other) - self

    def __mul__(self, other):
        other = _ref(other)
        return RefGaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref(other)
        n = other.norm2()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        c = other.conjugate()
        return RefGaussRational(
            (self.re * c.re - self.im * c.im) / n,
            (self.re * c.im + self.im * c.re) / n,
        )

    def __rtruediv__(self, other):
        return _ref(other) / self

    def __neg__(self):
        return RefGaussRational(-self.re, -self.im)

    def __pow__(self, k):
        if k < 0:
            return (RefGaussRational(1) / self) ** (-k)
        out = RefGaussRational(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _ref(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return imag
        return f"{self.re}+{imag}" if self.im > 0 else f"{self.re}{imag}"


def _ref(x):
    return x if isinstance(x, RefGaussRational) else RefGaussRational(x)


def _rand_part(rng):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def _rand_pair_of_scalars(rng):
    """The same random value as (GaussRational, RefGaussRational)."""
    re, im = _rand_part(rng), _rand_part(rng)
    return GaussRational(re, im), RefGaussRational(re, im)


def _assert_normalized(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(n) is int for n in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if not a and not b:
        assert d == 1


def _assert_same(x, ref):
    assert type(x) is GaussRational
    _assert_normalized(x)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert hash(x) == hash(ref)
    assert str(x) == str(ref) and repr(x) == repr(ref)
    assert bool(x) == bool(ref)


# parts the random draws do not reach: 30 digits, and denominators divisible
# by the hash modulus, whose Fraction hash is sys.hash_info.inf
_P = sys.hash_info.modulus
_EDGE_PARTS = (
    Fraction(123456789012345678901234567890, 987654321098765432109876543211),
    Fraction(-(10**29) - 7),
    Fraction(1, _P),
    Fraction(-4, _P),
    Fraction(3, 2 * _P),
    Fraction(-5, 3 * _P),
)
# values whose triple (a, b, d) is not reduced part by part, as (2 + i)/4
_UNREDUCED = (
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(-2, 3), Fraction(1, 6)),
    (Fraction(5, 6), Fraction(-1, 2)),
    (Fraction(1, 2 * _P), Fraction(1, _P)),
)


def _edge_scalars():
    values = [*_UNREDUCED]
    for p in _EDGE_PARTS:
        values += [(p, 0), (0, p), (p, 1), (p, -1), (p, Fraction(1, 4)), (1, p)]
    return [(GaussRational(re, im), RefGaussRational(re, im)) for re, im in values]


def _check_scalar_against_reference(x, rx, y, ry, k):
    _assert_same(x, rx)
    for op in (
        lambda p, q: p + q,
        lambda p, q: p - q,
        lambda p, q: p * q,
    ):
        _assert_same(op(x, y), op(rx, ry))
    if ry:
        _assert_same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    _assert_same(-x, -rx)
    _assert_same(x.conjugate(), rx.conjugate())
    _assert_same(x * x.conjugate(), RefGaussRational(rx.norm2()))
    if k >= 0 or rx:
        _assert_same(x**k, rx**k)
    else:
        with pytest.raises(ZeroDivisionError):
            x**k
    assert (x == y) == (rx == ry) and (x != y) == (not rx == ry)
    assert (x == GaussRational(rx.re, rx.im)) and not (x != x)
    assert GaussRational.parse(str(x)) == x
    _assert_same(GaussRational.parse(str(x)), rx)
    back = pickle.loads(pickle.dumps(x))
    _assert_same(back, rx)
    assert x.__reduce__() == (GaussRational, (rx.re, rx.im))


def test_scalar_matches_two_fraction_reference():
    rng = random.Random(1010)
    for _ in range(400):
        (x, rx), (y, ry) = _rand_pair_of_scalars(rng), _rand_pair_of_scalars(rng)
        _check_scalar_against_reference(x, rx, y, ry, rng.randint(-3, 4))
    edges = _edge_scalars()
    for (x, rx), (y, ry) in zip(edges, edges[1:] + edges[:1]):
        for k in (-2, 3):
            _check_scalar_against_reference(x, rx, y, ry, k)
    for re, im in _UNREDUCED:
        x = GaussRational(re, im)
        assert math.gcd(x._a, x._d) > 1 or math.gcd(x._b, x._d) > 1
    assert hash(GaussRational(Fraction(1, _P))) == sys.hash_info.inf
    assert hash(GaussRational(Fraction(-1, _P))) == -sys.hash_info.inf


def test_scalar_mixed_operands_match_reference():
    rng = random.Random(2020)
    for _ in range(300):
        x, rx = _rand_pair_of_scalars(rng)
        n = rng.choice([_rand_part(rng), rng.randint(-9, 9)])
        for op in (
            lambda p, q: p + q,
            lambda p, q: q + p,
            lambda p, q: p - q,
            lambda p, q: q - p,
            lambda p, q: p * q,
            lambda p, q: q * p,
        ):
            _assert_same(op(x, n), op(rx, n))
        if n:
            _assert_same(x / n, rx / n)
        if rx:
            _assert_same(n / x, n / rx)
        assert (x == n) == (rx == n) and (n == x) == (rx == n)
        assert (x != n) == (not rx == n)
        _assert_same(GaussRational(n), RefGaussRational(n))
        _assert_same(GaussRational.of(n), RefGaussRational(n))


def test_scalar_set_and_dict_lookups_across_types():
    # equal values are one key, whichever of int, Fraction or GaussRational
    reals = [0, 1, -7, Fraction(1, 2), Fraction(-22, 7), Fraction(6, 3)]
    for x in reals:
        z = GaussRational(x)
        assert z == x and hash(z) == hash(x)
        assert x in {z} and z in {x}
        assert {z: "z"}.get(x) == "z" and {x: "x"}[z] == "x"
        assert len({x, z, GaussRational.of(x)}) == 1
    for z in (GaussRational(0, 1), GaussRational(1, 1), GaussRational(Fraction(1, 2), -3)):
        assert z in {GaussRational(z.re, z.im)}
        assert not any(z == x for x in reals) and z not in set(reals)
    table = {GaussRational(x): x for x in reals}
    assert all(table[x] == x for x in reals)


def test_scalar_normal_form():
    assert (g(0)._a, g(0)._b, g(0)._d) == (0, 0, 1)
    zero = g(Fraction(3, 4), Fraction(-1, 6)) - g(Fraction(3, 4), Fraction(-1, 6))
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    half = g(Fraction(1, 2), Fraction(1, 3))
    assert (half._a, half._b, half._d) == (3, 2, 6)
    q = g(Fraction(2, 4), Fraction(-6, 4))
    assert (q._a, q._b, q._d) == (1, -3, 2)
    w = g(1, 1) / g(1, -1)  # (1 + i)/(1 - i) = i
    assert (w._a, w._b, w._d) == (0, 1, 1)
    v = g(1) / g(-3)
    assert (v._a, v._b, v._d) == (-1, 0, 3)
    assert GaussRational("3/6", 0.5) == g(Fraction(1, 2), Fraction(1, 2))
    assert GaussRational(True) == g(1) and type(GaussRational.of(True)._a) is int


def test_scalar_zero_division_and_immutability():
    x = g(Fraction(1, 2), 3)
    for divisor in (0, Fraction(0), g(0)):
        with pytest.raises(ZeroDivisionError):
            x / divisor
    with pytest.raises(ZeroDivisionError):
        1 / g(0)
    with pytest.raises(ZeroDivisionError):
        g(0) ** -1
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == g(Fraction(1, 2), 3)
    with pytest.raises(TypeError):
        GaussRational.of(1.5)
    assert x.__eq__("x") is NotImplemented and x != "x"
    assert x.__add__(1.5) is NotImplemented


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
    # narrow dense-ish rows, and wide sparse ones as the Zassenhaus and
    # bracket-kernel inputs are; each given dense to canonicalize and as
    # nonzeros to _rref
    rng = random.Random(2024)
    for case in range(360):
        if case < 300:
            width, count = rng.randint(1, 10), rng.randint(0, 8)
            density = rng.choice([0.15, 0.4, 1.0])
        else:
            width, count = rng.randint(11, 40), rng.randint(0, 12)
            density = rng.choice([0.05, 0.075, 0.1])
        rows = [[_rand_pair(rng, density) for _ in range(width)] for _ in range(count)]
        if rng.random() < 0.3:
            rows.append([(Fraction(0), Fraction(0))] * width)
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        rng.shuffle(rows)
        want_rows, want_pivots = _oracle_rref(rows, width)
        dense = [[g(*x) for x in r] for r in rows]
        s = canonicalize(dense, width)
        assert list(s.pivots) == want_pivots
        assert [[(a.re, a.im) for a in row] for row in s.basis] == want_rows
        basis, pivots = _rref([dict(sparse(r)) for r in dense])
        assert (basis, pivots) == (s._nz, s.pivots)
        assert all(row[0] == (p, g(1)) for row, p in zip(basis, pivots))
    with pytest.raises(ValueError, match="length 3 in ambient of dimension 2"):
        canonicalize([[1, 0], [1, 2, 3]], 2)


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


def _rand_rect(rng, rows, cols, density):
    """A seeded rows x cols matrix, given as lists, a share density nonzero."""
    return [
        [rand_scalar(rng) if rng.random() < density else g(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def _assert_kernel_form(m):
    """m holds its nonzeros in the one stored form, and agrees with the
    matrix the public constructor builds from its dense view."""
    assert len(m._nz) == m.rows and all(len(row) == m.cols for row in m.entries)
    for row in m._nz:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(type(x) is GaussRational and x for _, x in row)
    again = DenseMatrix(m.entries)
    assert m == again and hash(m) == hash(again)
    assert (m.rows, m.cols) == (again.rows, again.cols)


def test_rectangular_kernel_matches_entrywise_reference():
    rng = random.Random(5151)
    for _ in range(300):
        k, m, p = (rng.choice((0, 1, 2, 3, 4, 5)) for _ in range(3))
        m = m if k else 0  # a matrix with no rows has no columns
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        ra, rb = _rand_rect(rng, k, m, density), _rand_rect(rng, m, p, density)
        a, b = DenseMatrix(ra), DenseMatrix(rb)
        product = a * b
        want = [
            [sum((ra[i][t] * rb[t][j] for t in range(m)), g(0)) for j in range(b.cols)]
            for i in range(k)
        ]
        assert product == DenseMatrix(want)
        assert (product.rows, product.cols) == (k, b.cols if k else 0)
        assert a.transpose() == DenseMatrix(
            [[ra[i][j] for i in range(k)] for j in range(a.cols)]
        )
        assert a.conj_transpose() == DenseMatrix(
            [[ra[i][j].conjugate() for i in range(k)] for j in range(a.cols)]
        )
        assert a.conj().conj() == a
        if m:  # a k x 0 matrix transposes to 0 x 0, as DenseMatrix([]) is
            assert a.transpose().transpose() == a
        v = [rand_scalar(rng) if rng.random() < 0.5 else g(0) for _ in range(a.cols)]
        assert a.mul_vec(v) == tuple(
            sum((x * y for x, y in zip(row, v)), g(0)) for row in ra
        )
        if k == m:
            assert a.trace() == sum((ra[i][i] for i in range(k)), g(0))
        if m and k:
            c = DenseMatrix(_rand_rect(rng, m, k, density))
            assert a.trace_product(c) == (a * c).trace()
        for x in (product, a.transpose(), a.conj_transpose(), a.scale(rand_scalar(rng))):
            _assert_kernel_form(x)
    with pytest.raises(ValueError, match="shape mismatch"):
        DenseMatrix([[1, 2]]) * DenseMatrix([[1, 2]])
    with pytest.raises(ValueError, match="outside gl_2"):
        DenseMatrix.unit(2, 0, 2)


def test_kernel_results_cancel_to_zero():
    rng = random.Random(5252)
    for _ in range(200):
        k, m = rng.randint(1, 5), rng.randint(1, 5)
        a = DenseMatrix(_rand_rect(rng, k, m, rng.choice((0.3, 0.7, 1.0))))
        b = DenseMatrix(_rand_rect(rng, k, m, 0.5))
        zero = DenseMatrix.zero(k, m)
        for x in (a - a, a + a.scale(-1), -a + a, (a + b) - b - a, a.scale(0)):
            assert x == zero and x.is_zero() and not any(x._nz)
            _assert_kernel_form(x)
        assert (a + b) - b == a
        # a times a basis of its null space: every entry sums to zero
        null = kernel(a).basis
        if null:
            n = DenseMatrix([list(col) for col in zip(*null)])
            assert (a * n).is_zero() and a * n == DenseMatrix.zero(k, len(null))
            _assert_kernel_form(a * n)
    x = DenseMatrix([[1, g(0, 1)], [g(0, 1), -1]])
    assert (x * x).is_zero() and x.bracket(x).is_zero()
    assert not DenseMatrix([[0, 1]]).is_zero()


def test_kernel_built_values_agree_with_public_constructor():
    e, f = DenseMatrix.unit(3, 0, 1), DenseMatrix.unit(3, 1, 0)
    h = e.bracket(f)
    for m in (
        e,
        h,
        DenseMatrix.identity(3),
        DenseMatrix.zero(2, 3),
        DenseMatrix.zero(0, 4),
        (e + f.scale(g(0, 2))).conj_transpose(),
        e ** 0,
        e ** 2,
    ):
        _assert_kernel_form(m)
        assert {m: 1}[DenseMatrix(m.entries)] == 1
    assert h == DenseMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) and h[1, 1] == g(-1)
    assert DenseMatrix.zero(0, 4) == DenseMatrix([]) and DenseMatrix([]).cols == 0


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


# ---------------------------------------------------------------------------
# coordinate primitives against dense and entrywise references
# ---------------------------------------------------------------------------


def _column(v):
    return DenseMatrix([[x] for x in v])


def _sparse_vector(rng, n):
    return [rand_scalar(rng) if rng.random() < 0.4 else g(0) for _ in range(n)]


def test_apply_sparse_matches_dense_product():
    rng = random.Random(6161)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _rand_sparse_matrix(rng, n)
        columns = [sparse([m[i, j] for i in range(n)]) for j in range(n)]
        v = _sparse_vector(rng, n)
        assert apply_sparse(columns, sparse(v)) == sparse((m * _column(v)).flatten())
        conj = [x.conjugate() for x in v]
        want = sparse((m * _column(conj)).flatten())
        assert apply_sparse(columns, sparse(v), antilinear=True) == want


def test_apply_sparse_antilinear_is_sigma_on_gl_coordinates():
    # gl_n in the basis E_ij, where the coordinates of X are X.flatten()
    def sigma(x):
        return x.conj_transpose().scale(-1)

    rng = random.Random(6262)
    maps = {
        n: [
            sparse(sigma(DenseMatrix.unit(n, i, j)).flatten())
            for i in range(n)
            for j in range(n)
        ]
        for n in range(1, 5)
    }
    for _ in range(200):
        n = rng.randint(1, 4)
        x = _rand_sparse_matrix(rng, n)
        got = apply_sparse(maps[n], sparse(x.flatten()), antilinear=True)
        assert got == sparse(sigma(x).flatten())


def test_sparse_keeps_exactly_the_nonzero_entries():
    rng = random.Random(6363)
    for _ in range(200):
        v = _sparse_vector(rng, rng.randint(0, 8))
        assert sparse(v) == tuple((k, x) for k, x in enumerate(v) if x != g(0))


def test_combine_matches_entrywise_sum():
    rng = random.Random(6464)
    for _ in range(200):
        width, count = rng.randint(0, 7), rng.randint(0, 5)
        rows = [_sparse_vector(rng, width) for _ in range(count)]
        coeffs = _sparse_vector(rng, count)
        want = tuple(
            sum((c * row[j] for c, row in zip(coeffs, rows)), g(0)) for j in range(width)
        )
        assert combine(sparse(coeffs), list(map(sparse, rows))) == sparse(want)


def test_mul_vec_matches_dense_product():
    rng = random.Random(6565)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = DenseMatrix([_sparse_vector(rng, cols) for _ in range(rows)])
        v = _sparse_vector(rng, cols)
        assert m.mul_vec(v) == (m * _column(v)).flatten()
    with pytest.raises(ValueError, match="shape mismatch"):
        DenseMatrix.identity(2).mul_vec([g(1)])


def test_from_flat_inverts_flatten():
    rng = random.Random(6666)
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert DenseMatrix.from_flat(m.flatten(), m.cols) == m


@pytest.mark.parametrize("n", range(13))
def test_full_subspace_is_canonical_identity(n):
    full = Subspace.full(n)
    want = canonicalize(DenseMatrix.identity(n).entries, n)
    assert (full, full.pivots, full.dim) == (want, want.pivots, n)


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
        SplitEvidence(True, 12),
        SplitEvidence(False, 3, witness=rand_matrix(rng, 3, 3)),
        # built by the kernel, not the public constructor
        rand_matrix(rng, 3, 3).bracket(DenseMatrix.unit(3, 0, 2)),
        rand_matrix(rng, 2, 4).conj_transpose(),
        DenseMatrix.unit(4, 1, 3),
    ]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        if isinstance(value, DenseMatrix):
            # the pickle carries the entries alone, never the cached view
            assert value.__reduce__() == (DenseMatrix, (value.entries,))
            assert (back.rows, back.cols, back.entries) == (value.rows, value.cols, value.entries)
    s = values[3]
    assert pickle.loads(pickle.dumps(s)).pivots == s.pivots
    # a Subspace pickles as its RREF nonzeros, never with the dense view
    # read above; one from the public constructor equals one from the
    # elimination, with the same hash, as fibration's cache keys need
    for space in (s, canonicalize([[0, 0, 1], [0, 2, 0]], 3), Subspace.full(4)):
        space.basis
        assert space.__reduce__()[1] == (space.ambient_dim, space._nz, space.pivots)
        back = pickle.loads(pickle.dumps(space))
        assert back._dense is None and back == space and back.basis == space.basis
        public = Subspace(space.ambient_dim, space.basis, space.pivots)
        assert (public, hash(public), public.pivots) == (space, hash(space), space.pivots)


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
    # the conjugate maps the nonzeros without elimination; it must be the
    # RREF of the conjugated rows, on dense and on wide sparse spans
    rng = random.Random(31)
    for case in range(200):
        n = rng.randint(1, 5) if case < 100 else rng.randint(6, 16)
        k = rng.randint(0, n)
        vecs = [rand_vector(rng, n) if case < 100 else _sparse_vector(rng, n) for _ in range(k)]
        s = canonicalize(vecs, n)
        got = s.conjugate()
        want = canonicalize([[a.conjugate() for a in row] for row in vecs], n)
        assert (got, got.pivots, hash(got)) == (want, want.pivots, hash(want))
        assert got.conjugate() == s


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


def test_span_tracker_express_matches_solve_linear():
    # sparse vectors with unit entries exercise the zero-skipping and
    # unit-pivot paths of add; repeats and sums exercise dependent inserts.
    # Free variables of solve_linear are the dependent inserts, which
    # express leaves at zero, so the two solutions coincide.
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randint(1, 6)
        tracker = SpanTracker(n)
        inserted = []
        for _ in range(rng.randint(1, 2 * n)):
            if inserted and rng.random() < 0.25:
                a, b = rng.choice(inserted), rng.choice(inserted)
                v = [x + rand_scalar(rng) * y for x, y in zip(a, b)]
            else:
                v = [
                    rng.choice((g(1), g(-1), g(0, 1), rand_scalar(rng)))
                    if rng.random() < 0.4
                    else g(0)
                    for _ in range(n)
                ]
            inserted.append(v)
            tracker.add(v)
        columns = DenseMatrix([[v[i] for v in inserted] for i in range(n)])
        for _ in range(4):
            if rng.random() < 0.5:
                target = rand_vector(rng, n)
            else:
                target = [g(0)] * n
                for v in inserted:
                    c = rand_scalar(rng)
                    target = [a + c * b for a, b in zip(target, v)]
            assert tracker.express(target) == solve_linear(columns, target)


class DenseSpanTracker:
    """Reference: SpanTracker on dense rows, each combination a full list."""

    def __init__(self, width):
        self.width, self.rows, self.count = width, [], 0

    def _reduce(self, vector):
        w = [GaussRational.of(x) for x in vector]
        assert len(w) == self.width
        combo = [g(0)] * self.count
        for row, pivot, rcombo in self.rows:
            c = w[pivot]
            if c:
                w = [a - c * b for a, b in zip(w, row)]
                combo = [a + c * b for a, b in zip(combo, rcombo)]
        return w, combo

    def express(self, vector):
        w, combo = self._reduce(vector)
        return tuple(combo) if not any(w) else None

    def add(self, vector):
        w, combo = self._reduce(vector)
        for other in self.rows:
            other[2].append(g(0))
        self.count += 1
        if not any(w):
            return False
        pivot = next(i for i, a in enumerate(w) if a)
        piv = w[pivot]
        w, combo = [a / piv for a in w], [a / piv for a in combo]
        self.rows.append([w, pivot, [-a for a in combo] + [g(1) / piv]])
        return True


def _check_against_reference(rng, rows, cols, density, inserts, found):
    width = rows * cols
    on_matrices, on_tuples = SpanTracker(width), SpanTracker(width)
    reference = DenseSpanTracker(width)
    inserted = []
    for _ in range(inserts):
        if inserted and rng.random() < 0.3:
            a, b = rng.choice(inserted), rng.choice(inserted)
            m = a + b.scale(rand_scalar(rng))
        else:
            m = DenseMatrix(_rand_rect(rng, rows, cols, density))
        inserted.append(m)
        want = reference.add(m.flatten())
        assert on_matrices.add(m) == want == on_tuples.add(m.flatten())
        found[want] += 1
        member = DenseMatrix.zero(rows, cols)
        for x in inserted:
            member = member + x.scale(rand_scalar(rng))
        other = DenseMatrix(_rand_rect(rng, rows, cols, density))
        for target in (member, other, DenseMatrix.zero(rows, cols)):
            want = reference.express(target.flatten())
            assert on_matrices.express(target) == want
            assert on_tuples.express(target.flatten()) == want
            found["outside" if want is None else "member"] += 1
    assert on_matrices.dim == on_tuples.dim == len(reference.rows)
    with pytest.raises(ValueError, match="width mismatch"):
        on_matrices.add(DenseMatrix.zero(rows, cols + 1))
    with pytest.raises(ValueError, match="width mismatch"):
        on_tuples.express([g(0)] * (width + 1))


def test_span_tracker_matches_dense_reference():
    rng = random.Random(7373)
    found = {True: 0, False: 0, "member": 0, "outside": 0}
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice((0.15, 0.4, 1.0))
        inserts = rng.randint(1, rows * cols + 3)
        _check_against_reference(rng, rows, cols, density, inserts, found)
    assert min(found.values()) >= 100
    # the widths of an ambient in gl_n, n = 5..8, with sparse matrices
    found = dict.fromkeys(found, 0)
    for n in (5, 6, 7, 8):
        for _ in range(3):
            density = rng.choice((0.05, 0.1, 0.15))
            inserts = rng.randint(n, n * n // 2)
            _check_against_reference(rng, n, n, density, inserts, found)
    assert min(found.values()) >= 40


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
    m = diagonal([2, 2, 5])
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


def test_matrix_coerces_mixed_rows_entrywise():
    rng = random.Random(77)
    kinds = [
        lambda: rng.randint(-5, 5),
        lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        lambda: rand_scalar(rng),
        lambda: True,
    ]
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        raw = [[rng.choice(kinds)() for _ in range(cols)] for _ in range(rows)]
        m = DenseMatrix(raw)
        want = tuple(tuple(GaussRational.of(x) for x in row) for row in raw)
        assert m.entries == want and (m.rows, m.cols) == (rows, cols if rows else 0)
        assert all(type(x) is GaussRational for row in m.entries for x in row)
        # rows given as GaussRational tuples are kept as they are
        assert DenseMatrix(m.entries).entries == want
    with pytest.raises(ValueError, match="ragged"):
        DenseMatrix([[1, g(2)], [Fraction(1, 2)]])
    with pytest.raises(TypeError, match="cannot coerce float"):
        DenseMatrix([[g(1), 0.5]])
    with pytest.raises(TypeError, match="cannot coerce str"):
        DenseMatrix([["1"]])


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
