"""Exact linear algebra over the Gaussian rationals Q(i).

Everything downstream (root systems, matrix Lie algebras, CR invariants)
reduces to membership, intersection and kernel questions about spans of
vectors with Gaussian-rational coordinates.  This module provides the
scalar type, matrices, canonical subspaces (unique reduced row echelon
basis, so structural equality is subspace equality), and minimal
polynomials.  No floats anywhere.

A scalar (a + b*i)/d is three ints with d > 0 and gcd(a, b, d) = 1, zero
being 0/1.  The form is unique, so equality and truth compare ints, and
each +, -, * and / takes one gcd to restore it.  Parsing, hashing and
printing read the ints too; only .re and .im, which give the parts as
Fractions to a caller, import fractions.

A vector's nonzeros are its (index, value) pairs, indices increasing.  A
DenseMatrix holds the nonzeros of each row, a Subspace those of its RREF
rows, each with a dense view built when read.  _rref is the one
row-elimination routine, a sparse Gauss-Jordan on {index: value} rows;
SpanTracker places its rows through its two steps.
The coordinate primitives the Lie algebra modules share live here too, on
nonzeros: sparse, sparse_span, combine (linear combinations of rows) and
apply_sparse (maps stored as sparse columns, linear or antilinear).
"""

from __future__ import annotations

import math
import re as _re
import sys
from itertools import zip_longest

# string.whitespace, which is ASCII only
_WHITESPACE = " \t\n\r\x0b\x0c"


class GaussRational:
    """An element (a + b*i)/d of Q(i), held as three ints a, b and d.

    The triple is normalized: d > 0 and gcd(a, b, d) = 1, so zero is 0/1 and
    equal scalars have equal triples.  Each +, -, * and / ends in one such
    normalization.  The rational parts a/d and b/d are read as Fractions
    through .re and .im; values are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        s, t = _ratio(im)
        if q == t:
            a, b, d = p, s, q
        else:
            a, b, d = p * t, s * q, q * t
        if d != 1:
            g = _gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @staticmethod
    def of(x) -> "GaussRational":
        if type(x) is GaussRational:
            return x
        z = _coerce(x)
        if z is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")
        return z

    @staticmethod
    def parse(s: str) -> "GaussRational":
        """Parse literals like "0", "-7", "3/2", "i", "-i", "2i", "1/2-3/4i", "1+i"."""
        text = s.strip(_WHITESPACE).replace(" ", "")
        if not text:
            raise ValueError("empty scalar literal")
        if not text.endswith("i"):
            p, q = _parse_fraction(text)
            return _normalized(p, 0, q)
        body = text[:-1]
        # imaginary part starts at the last top-level sign, if any
        split = max(body.rfind("+", 1), body.rfind("-", 1))
        if split <= 0:
            s, t = _parse_sign_fraction(body)
            return _normalized(0, s, t)
        p, q = _parse_fraction(body[:split])
        s, t = _parse_sign_fraction(body[split:])
        return _normalized(p * t, s * q, q * t)

    def conjugate(self) -> "GaussRational":
        return _make(self._a, -self._b, self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _normalized(self._a + other._a, self._b + other._b, d)
        return _normalized(
            self._a * f + other._a * d, self._b * f + other._b * d, d * f
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _normalized(self._a - other._a, self._b - other._b, d)
        return _normalized(
            self._a * f - other._a * d, self._b * f - other._b * d, d * f
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        return _normalized(a, b, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if e:
            n = c * c + e * e
            a, b = (a * c + b * e) * f, (b * c - a * e) * f
        elif c > 0:
            n, a, b = c, a * f, b * f
        elif c:
            n, a, b = -c, -a * f, -b * f
        else:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _normalized(a, b, self._d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not GaussRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (
            self._a == other._a and self._b == other._b and self._d == other._d
        )

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals, as
        # hash(1+0j) == hash(1), and any other as the pair of its parts
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return hash((a, b)) if b else hash(a)
        re = _fraction_hash(a, d)
        return hash((re, _fraction_hash(b, d))) if b else re

    def __repr__(self):
        re, im = _part(self._a, self._d), _part(self._b, self._d)
        return f"GaussRational(Fraction({re[0]}, {re[1]}), Fraction({im[0]}, {im[1]}))"

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        re, im = _part_str(a, d), _part_str(b, d)
        if not b:
            return re
        imag = "i" if im == "1" else ("-i" if im == "-1" else f"{im}i")
        if not a:
            return imag
        return f"{re}+{imag}" if b > 0 else f"{re}{imag}"


_gcd = math.gcd
_new = object.__new__
_set_a = GaussRational._a.__set__
_set_b = GaussRational._b.__set__
_set_d = GaussRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussRational:
    """The scalar (a + b*i)/d from an already normalized triple."""
    z = _new(GaussRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _normalized(a: int, b: int, d: int) -> GaussRational:
    """The scalar (a + b*i)/d for ints with d > 0, divided by their gcd."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _make's body, inlined: every +, -, * and / ends here
    z = _new(GaussRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _part(n: int, d: int) -> tuple:
    """The reduced (numerator, denominator) of n/d, for d > 0."""
    g = _gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _part_str(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) prints it, for d > 0."""
    n, d = _part(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _fraction_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by the rule for rational numbers in
    the Python docs ("Hashing of numeric types")."""
    n, d = _part(n, d)
    if d % _HASH_MODULUS:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    else:
        h = _HASH_INF
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _int_ratio(x):
    """(numerator, denominator) of an object with int numerator and positive
    int denominator, as a Fraction has (recognised without importing
    fractions); None for anything else."""
    n = getattr(x, "numerator", None)
    d = getattr(x, "denominator", None)
    if type(n) is int and type(d) is int and d > 0:
        return n, d
    return None


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or of anything Fraction accepts;
    fractions is imported only for what is neither an int nor a Fraction."""
    if type(x) is int:
        return x, 1
    nd = _int_ratio(x)
    if nd is None:
        from fractions import Fraction

        x = Fraction(x)
        nd = x.numerator, x.denominator
    return nd


def _coerce(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    nd = _int_ratio(x)
    if nd is None:
        return None
    return _normalized(nd[0], 0, nd[1])


def _require(ok, message):
    """An internal check; unlike assert it also runs under python -O."""
    if not ok:
        raise AssertionError(message)


def _parse_fraction(text: str) -> tuple:
    """(numerator, denominator) of a rational literal such as "-3/6"; the
    denominator is positive, and the pair need not be reduced."""
    # a zero denominator is no literal either
    if not _re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", text):
        raise ValueError(f"bad rational literal {text!r}")
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def _parse_sign_fraction(text: str) -> tuple:
    if text in ("", "+"):
        return 1, 1
    if text == "-":
        return -1, 1
    return _parse_fraction(text)


ZERO = GaussRational(0)
ONE = GaussRational(1)
IUNIT = GaussRational(0, 1)


def _co_row(row) -> tuple:
    """row as a tuple of GaussRationals; a row of GaussRationals is kept."""
    row = tuple(row)
    for x in row:
        if type(x) is not GaussRational:
            return tuple(map(GaussRational.of, row))
    return row


class DenseMatrix:
    """Immutable rectangular matrix with GaussRational entries.

    Stored by rows of nonzeros: _nz[i] holds the (column, value) pairs of
    row i, columns increasing, values nonzero.  The form is unique, so ==
    and hash compare it.  The arithmetic and zero, identity and unit touch
    the nonzeros alone (the product row by row, as Gustavson's sparse
    product) and build their results through _from_nonzeros, which checks
    nothing; DenseMatrix(rows) coerces and validates.  .entries is the dense
    view, built on first read and kept; [i, j], flatten and pickling read
    it.  A matrix with no rows has no columns, as DenseMatrix([]) has.
    """

    __slots__ = ("rows", "cols", "_nz", "_dense")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(map(_co_row, entries))
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged matrix rows")
        _set_rows(self, len(grid))
        _set_cols(self, len(grid[0]) if grid else 0)
        _set_nz(self, tuple(map(sparse, grid)))
        _set_dense(self, grid)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    def __reduce__(self):
        return DenseMatrix, (self.entries,)

    @property
    def entries(self) -> tuple:
        if self._dense is None:
            _set_dense(self, tuple(_densify(row, self.cols) for row in self._nz))
        return self._dense

    @staticmethod
    def zero(rows: int, cols: int) -> "DenseMatrix":
        return _from_nonzeros(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        return _from_nonzeros(n, n, tuple(((i, ONE),) for i in range(n)))

    @staticmethod
    def unit(n: int, i: int, j: int) -> "DenseMatrix":
        """The elementary matrix E_ij (0-based indices) in gl_n."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit index ({i}, {j}) outside gl_{n}")
        rows = [()] * n
        rows[i] = ((j, ONE),)
        return _from_nonzeros(n, n, tuple(rows))

    @staticmethod
    def from_flat(values: Sequence, cols: int) -> "DenseMatrix":
        """The matrix whose rows, read one after another, are values."""
        return DenseMatrix([values[i : i + cols] for i in range(0, len(values), cols)])

    @staticmethod
    def parse(entries: Sequence[Sequence[str]]) -> "DenseMatrix":
        return DenseMatrix([[GaussRational.parse(e) for e in row] for row in entries])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, -ONE)

    def _plus(self, other, c):
        self._match(other)
        out = []
        for ra, rb in zip(self._nz, other._nz):
            acc = dict(ra)
            _axpy(acc, c, rb)
            out.append(_pairs(acc))
        return _from_nonzeros(self.rows, self.cols, tuple(out))

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix product shape mismatch")
        onz = other._nz
        out = []
        for row in self._nz:
            if len(row) == 1:
                # one nonzero: a multiple of one row of other, no sums
                k, a = row[0]
                out.append(onz[k] if a is ONE else tuple((j, a * b) for j, b in onz[k]))
                continue
            acc = {}
            for k, a in row:
                _axpy(acc, a, onz[k])
            out.append(_pairs(acc))
        return _from_nonzeros(self.rows, other.cols, tuple(out))

    def __pow__(self, k: int):
        if self.rows != self.cols or k < 0:
            raise ValueError("power needs a square matrix and k >= 0")
        out = DenseMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def mul_vec(self, vector) -> tuple:
        """self times vector taken as a column, as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("matrix-vector shape mismatch")
        return tuple(
            sum((a * vector[j] for j, a in row if vector[j]), ZERO) for row in self._nz
        )

    def scale(self, c) -> "DenseMatrix":
        c = GaussRational.of(c)
        return self._mapped(c.__mul__) if c else DenseMatrix.zero(self.rows, self.cols)

    def bracket(self, other: "DenseMatrix") -> "DenseMatrix":
        """self * other - other * self, row by row in one pass."""
        self._match(other)
        if self.rows != self.cols:
            raise ValueError("matrix product shape mismatch")
        anz, bnz = self._nz, other._nz
        out = []
        for ra, rb in zip(anz, bnz):
            acc = {}
            for k, a in ra:
                _axpy(acc, a, bnz[k])
            for k, b in rb:
                _axpy(acc, -b, anz[k])
            out.append(_pairs(acc))
        return _from_nonzeros(self.rows, self.cols, tuple(out))

    def transpose(self) -> "DenseMatrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, x in row:
                out[j].append((i, x))
        return _from_nonzeros(self.cols, self.rows, tuple(map(tuple, out)))

    def conj(self) -> "DenseMatrix":
        return self._mapped(GaussRational.conjugate)

    def conj_transpose(self) -> "DenseMatrix":
        return self.conj().transpose()

    def _mapped(self, f) -> "DenseMatrix":
        """f applied to each nonzero entry; f must keep it nonzero."""
        rows = tuple(tuple((j, f(x)) for j, x in row) for row in self._nz)
        return _from_nonzeros(self.rows, self.cols, rows)

    def trace(self) -> GaussRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((x for i, row in enumerate(self._nz) for j, x in row if j == i), ZERO)

    def trace_product(self, other: "DenseMatrix") -> GaussRational:
        """trace(self @ other) without forming the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("trace_product shape mismatch")
        lookup = [dict(row) for row in other._nz]
        acc = ZERO
        for t, row in enumerate(self._nz):
            for s, x in row:
                y = lookup[s].get(t)
                if y is not None:
                    acc = acc + x * y
        return acc

    def flatten(self) -> tuple:
        return tuple(a for row in self.entries for a in row)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def _match(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError("expected DenseMatrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __hash__(self):
        return hash((self.cols, self._nz))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"DenseMatrix[{self.rows}x{self.cols}: {body}]"


_set_rows = DenseMatrix.rows.__set__
_set_cols = DenseMatrix.cols.__set__
_set_nz = DenseMatrix._nz.__set__
_set_dense = DenseMatrix._dense.__set__


def _from_nonzeros(rows: int, cols: int, nz: tuple) -> DenseMatrix:
    """The matrix of shape rows x cols whose rows of nonzeros are nz, already
    in DenseMatrix's form; nothing is checked."""
    m = _new(DenseMatrix)
    _set_rows(m, rows)
    _set_cols(m, cols if rows else 0)
    _set_nz(m, nz)
    _set_dense(m, None)
    return m


def _rref(rows) -> tuple:
    """(RREF rows as nonzeros, pivots) of the span of rows, {column: value}
    dicts that are consumed; the RREF is unique, so order does not matter."""
    placed = {}
    for w in rows:
        _reduce_by(placed, w)
        if w:
            _place(placed, w)
    pivots = tuple(sorted(placed))
    return tuple(_pairs(placed[p]) for p in pivots), pivots


def _reduce_by(placed: dict, w: dict) -> None:
    """Reduce w in place by the RREF rows placed, keyed by pivot."""
    for p, c in [(p, c) for p, c in w.items() if p in placed]:
        _axpy(w, -c, placed[p].items())


def _place(placed: dict, w: dict) -> None:
    """Scale w to 1 at its pivot, clear that column from placed, add w."""
    pivot = min(w)
    piv = w[pivot]
    if piv != ONE:
        w = {j: a / piv for j, a in w.items()}
    for other in placed.values():
        f = other.get(pivot)
        if f is not None:
            _axpy(other, -f, w.items())
    placed[pivot] = w


class Subspace:
    """A subspace of Q(i)^n held by its unique RREF basis.

    _nz holds the nonzeros of the RREF rows, so == and hash compare
    subspaces; .basis is the dense view, built on first read, and pickling
    carries _nz alone.
    """

    __slots__ = ("ambient_dim", "pivots", "_nz", "_dense", "_at")

    def __init__(self, ambient_dim: int, basis: tuple, pivots: tuple):
        basis = tuple(map(_co_row, basis))
        _fill(self, ambient_dim, tuple(pivots), tuple(map(sparse, basis)), basis, None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return _subspace, (self.ambient_dim, self._nz, self.pivots)

    @property
    def basis(self) -> tuple:
        if self._dense is None:
            dense = tuple(_densify(row, self.ambient_dim) for row in self._nz)
            object.__setattr__(self, "_dense", dense)
        return self._dense

    @property
    def dim(self) -> int:
        return len(self._nz)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return _subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        """The whole space; its RREF basis is the unit rows."""
        units = tuple(((i, ONE),) for i in range(ambient_dim))
        return _subspace(ambient_dim, units, tuple(range(ambient_dim)))

    def reduce(self, vector: Sequence):
        """Return (residual, coefficients w.r.t. basis rows) for a vector."""
        w = dict(self._sparse(vector))
        coeffs = _densify(self._reduce_nz(w), self.dim)
        return list(_densify(w.items(), self.ambient_dim)), coeffs

    def _reduce_nz(self, w: dict) -> list:
        """Reduce the {index: value} dict w by the rows, in place; the
        (row, coefficient) nonzeros used.  The rows are 0 at each other's
        pivots, so w's entries there are the coefficients."""
        if self._at is None:
            object.__setattr__(self, "_at", {p: r for r, p in enumerate(self.pivots)})
        coeffs = sorted((self._at[p], c) for p, c in w.items() if p in self._at)
        for r, c in coeffs:
            _axpy(w, -c, self._nz[r])
        return coeffs

    def _sparse(self, vector) -> tuple:
        row = _co_row(vector)
        if len(row) != self.ambient_dim:
            raise ValueError("vector/ambient dimension mismatch")
        return sparse(row)

    def contains(self, vector: Sequence) -> bool:
        return self._contains_nz(self._sparse(vector))

    def _contains_nz(self, vector) -> bool:
        w = dict(vector)
        self._reduce_nz(w)
        return not w

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._match(other)
        return all(map(other._contains_nz, self._nz))

    def meet(self, other: "Subspace") -> "Subspace":
        return meet_join(self, other)[0]

    def join(self, other: "Subspace") -> "Subspace":
        return meet_join(self, other)[1]

    def conjugate(self) -> "Subspace":
        """Conjugation keeps the zeros and pivot 1s: no elimination."""
        rows = tuple(tuple((j, x.conjugate()) for j, x in row) for row in self._nz)
        return _subspace(self.ambient_dim, rows, self.pivots)

    def _match(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected Subspace")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._nz == other._nz
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._nz))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _fill(value, *slots):
    for name, x in zip(type(value).__slots__, slots):
        object.__setattr__(value, name, x)


def _subspace(ambient_dim: int, nz: tuple, pivots: tuple) -> Subspace:
    """The Subspace of RREF nonzeros nz, unchecked."""
    s = _new(Subspace)
    _fill(s, ambient_dim, pivots, nz, None, None)
    return s


def canonicalize(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """The unique RREF basis of the span of the given vectors."""
    vectors = [_co_row(v) for v in vectors]
    if ambient_dim is None:
        if not vectors:
            raise ValueError("ambient dimension required for an empty span")
        ambient_dim = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient of dimension {ambient_dim}"
            )
    return sparse_span(map(sparse, vectors), ambient_dim)


def sparse_span(rows, ambient_dim: int) -> Subspace:
    """canonicalize for vectors given by their nonzeros."""
    return _subspace(ambient_dim, *_rref([dict(row) for row in rows]))


def meet_join(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Intersection and sum, via the Zassenhaus double-width reduction."""
    a._match(b)
    n = a.ambient_dim
    stacked = [dict(row + tuple((j + n, x) for j, x in row)) for row in a._nz]
    stacked += [dict(row) for row in b._nz]
    reduced, pivots = _rref(stacked)
    # rows pivoting in the left half give the join by their left halves,
    # the others (zero on the left) the meet by their right halves
    split = sum(1 for p in pivots if p < n)
    join = tuple(tuple(e for e in row if e[0] < n) for row in reduced[:split])
    meet = tuple(tuple((j - n, x) for j, x in row) for row in reduced[split:])
    return (
        _subspace(n, meet, tuple(p - n for p in pivots[split:])),
        _subspace(n, join, pivots[:split]),
    )


def solve_membership(vector: Sequence, space: Subspace):
    """Coefficients of vector in space's RREF basis, or None if outside."""
    residual, coeffs = space.reduce(vector)
    return coeffs if not any(residual) else None


def kernel(m: DenseMatrix) -> Subspace:
    """Right null space {x : m x = 0}, returned as rows of a Subspace."""
    reduced, pivots = _rref([dict(row) for row in m._nz])
    pivot_set = set(pivots)
    # per free column f: 1 at f and, at each pivot, minus that row's entry at f
    free = {f: {f: ONE} for f in range(m.cols) if f not in pivot_set}
    for row in reduced:
        p = row[0][0]
        for j, x in row[1:]:
            free[j][p] = -x
    return _subspace(m.cols, *_rref(list(free.values())))


def solve_linear(a: DenseMatrix, b: Sequence):
    """One solution x of a x = b, or None if inconsistent (free vars set to 0)."""
    rhs = _co_row(b)
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length mismatch")
    rows = [dict(row) for row in a._nz]
    for row, y in zip(rows, rhs):
        if y:
            row[a.cols] = y
    reduced, pivots = _rref(rows)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for row in reduced:
        j, y = row[-1]
        if j == a.cols:
            x[row[0][0]] = y
    return tuple(x)


def sparse(vector) -> tuple:
    """The nonzero entries of a vector as (index, value) pairs."""
    return tuple((k, x) for k, x in enumerate(vector) if x)


def apply_sparse(columns, vector, antilinear=False) -> tuple:
    """vector under the map whose j-th column is the sparse list columns[j];
    an antilinear map conjugates the entries of vector first."""
    if antilinear:
        vector = [(j, x.conjugate()) for j, x in vector]
    return combine(vector, columns)


def combine(coeffs, rows) -> tuple:
    """The sum of c * rows[i] over the (i, c) of coeffs."""
    acc = {}
    for i, c in coeffs:
        _axpy(acc, c, rows[i])
    return _pairs(acc)


class SpanTracker:
    """Incremental span with expression tracking.

    Vectors are inserted one at a time; express() answers membership in the
    span of everything inserted so far and returns coordinates with respect
    to the inserted (not the reduced) vectors.  Used for minimal polynomials,
    structure constants and bracket closures.

    A vector is a sequence of width scalars or a DenseMatrix with width
    entries, read row after row from its nonzeros.  The rows are an RREF
    placed by _rref's steps, inserted vector i with ONE in column width + i,
    so a member reduces to its negated coordinates past width; a dependent
    insert is not placed.
    """

    def __init__(self, width: int):
        self.width = width
        self.count = 0
        self._rows = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vector):
        if isinstance(vector, DenseMatrix):
            size, cols = vector.rows * vector.cols, vector.cols
            w = {i * cols + j: x for i, row in enumerate(vector._nz) for j, x in row}
        else:
            vector = _co_row(vector)
            size, w = len(vector), dict(sparse(vector))
        if size != self.width:
            raise ValueError("vector width mismatch")
        _reduce_by(self._rows, w)
        return w

    def express(self, vector):
        combo = self.express_nz(vector)
        return None if combo is None else _densify(combo, self.count)

    def express_nz(self, vector):
        """express, with the coordinates as nonzeros."""
        w = self._reduce(vector)
        if w and min(w) < self.width:
            return None
        return tuple((j - self.width, -x) for j, x in sorted(w.items()))

    def add(self, vector) -> bool:
        """Insert a vector; True if it enlarged the span."""
        w = self._reduce(vector)
        w[self.width + self.count] = ONE
        self.count += 1
        if min(w) >= self.width:
            return False
        _place(self._rows, w)
        return True


def _axpy(acc: dict, c: GaussRational, pairs):
    """acc += c * pairs, for (index, value) pairs and a dict of nonzeros;
    entries that cancel leave the dict."""
    for j, b in pairs:
        x = acc.get(j)
        x = c * b if x is None else x + c * b
        if x:
            acc[j] = x
        else:
            del acc[j]


def _pairs(acc: dict) -> tuple:
    return tuple(sorted(acc.items()))


def _densify(pairs, width: int) -> tuple:
    out = [ZERO] * width
    for j, x in pairs:
        out[j] = x
    return tuple(out)


# ---------------------------------------------------------------------------
# Polynomials over Q(i), for minimal polynomials and Jordan decompositions.
# ---------------------------------------------------------------------------


class Poly:
    """Polynomial with GaussRational coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [GaussRational.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        pairs = zip_longest(self.coeffs, _as_poly(other).coeffs, fillvalue=ZERO)
        return Poly([x + y for x, y in pairs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            f = rem[-1] / lead
            quot[shift] = f
            for k, c in enumerate(other.coeffs):
                rem[shift + k] = rem[shift + k] - f * c
            rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Evaluate by Horner at a scalar or a square DenseMatrix."""
        if isinstance(x, DenseMatrix):
            if x.rows != x.cols:
                raise ValueError("polynomial evaluation needs a square matrix")
            acc = DenseMatrix.zero(x.rows, x.cols)
            eye = DenseMatrix.identity(x.rows)
            for c in reversed(self.coeffs):
                acc = acc * x + eye.scale(c)
            return acc
        acc = ZERO
        xg = GaussRational.of(x)
        for c in reversed(self.coeffs):
            acc = acc * xg + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            x = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k > 0 and c == ONE:
                terms.append(x)
            elif k > 0 and c == -ONE:
                terms.append(f"-{x}")
            else:
                terms.append(f"{c}{'*' if x else ''}{x}")
        return "Poly(" + " + ".join(terms).replace("+ -", "- ") + ")"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if _coerce(x) is not None:
        return Poly([x])
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


POLY_X = Poly([0, 1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g monic when nonzero."""
    r0, r1 = a, b
    u0, u1 = Poly([1]), Poly([])
    v0, v1 = Poly([]), Poly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading()
    inv = ONE / lead
    return r0.monic(), Poly([c * inv for c in u0.coeffs]), Poly([c * inv for c in v0.coeffs])


def min_poly(m: DenseMatrix) -> Poly:
    """Monic minimal polynomial, by Krylov iteration on the powers of m."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        return Poly([1])
    tracker = SpanTracker(n * n)
    power = DenseMatrix.identity(n)
    for d in range(n + 1):
        combo = tracker.express(power)
        if combo is not None:
            return Poly([-c for c in combo] + [1])
        tracker.add(power)
        power = power * m
    raise AssertionError("minimal polynomial degree exceeded matrix size")


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic: same roots, all simple."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()
