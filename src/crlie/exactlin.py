"""Exact linear algebra over the Gaussian rationals Q(i).

Everything downstream (root systems, matrix Lie algebras, CR invariants)
reduces to membership, intersection and kernel questions about spans of
vectors with Gaussian-rational coordinates.  This module provides the
scalar type, dense matrices, canonical subspaces (unique reduced row
echelon basis, so structural equality is subspace equality), and minimal
polynomials.  No floats anywhere.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Sequence


class GaussRational:
    """An element a + b*i of Q(i) with arbitrary-precision rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")

    @staticmethod
    def parse(s: str) -> "GaussRational":
        """Parse literals like "0", "-7", "3/2", "i", "-i", "2i", "1/2-3/4i", "1+i"."""
        text = s.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar literal")
        if not text.endswith("i"):
            return GaussRational(_parse_fraction(text))
        body = text[:-1]
        # imaginary part starts at the last top-level sign, if any
        split = max(body.rfind("+", 1), body.rfind("-", 1))
        if split <= 0:
            return GaussRational(0, _parse_sign_fraction(body))
        return GaussRational(
            _parse_fraction(body[:split]), _parse_sign_fraction(body[split:])
        )

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussRational(self.re * other.re)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm2()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        c = other.conjugate()
        return GaussRational(
            (self.re * c.re - self.im * c.im) / n,
            (self.re * c.im + self.im * c.re) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

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
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return imag
        return f"{self.re}+{imag}" if self.im > 0 else f"{self.re}{imag}"


def _coerce(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    return None


def _parse_fraction(text: str) -> Fraction:
    if not _re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        raise ValueError(f"bad rational literal {text!r}")
    return Fraction(text)


def _parse_sign_fraction(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return _parse_fraction(text)


ZERO = GaussRational(0)
ONE = GaussRational(1)
IUNIT = GaussRational(0, 1)


def _co_row(row) -> tuple:
    return tuple(GaussRational.of(x) for x in row)


class DenseMatrix:
    """Immutable rectangular matrix with GaussRational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(_co_row(r) for r in entries)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    def __reduce__(self):
        return DenseMatrix, (self.entries,)

    @staticmethod
    def zero(rows: int, cols: int) -> "DenseMatrix":
        return DenseMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        return DenseMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "DenseMatrix":
        """The elementary matrix E_ij (0-based indices) in gl_n."""
        return DenseMatrix(
            [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]
        )

    @staticmethod
    def diag(values: Sequence) -> "DenseMatrix":
        vals = [GaussRational.of(v) for v in values]
        n = len(vals)
        return DenseMatrix(
            [[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def parse(entries: Sequence[Sequence[str]]) -> "DenseMatrix":
        return DenseMatrix([[GaussRational.parse(e) for e in row] for row in entries])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __add__(self, other):
        self._match(other)
        return DenseMatrix(
            [
                [a + b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        self._match(other)
        return DenseMatrix(
            [
                [a - b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix product shape mismatch")
        oe = other.entries
        p = other.cols
        out = []
        for row in self.entries:
            acc = [ZERO] * p
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(oe[k]):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return DenseMatrix(out)

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

    def scale(self, c) -> "DenseMatrix":
        c = GaussRational.of(c)
        return DenseMatrix([[c * a for a in row] for row in self.entries])

    def bracket(self, other: "DenseMatrix") -> "DenseMatrix":
        return self * other - other * self

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def conj(self) -> "DenseMatrix":
        return DenseMatrix([[a.conjugate() for a in row] for row in self.entries])

    def conj_transpose(self) -> "DenseMatrix":
        return self.conj().transpose()

    def trace(self) -> GaussRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def trace_product(self, other: "DenseMatrix") -> GaussRational:
        """trace(self @ other) without forming the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("trace_product shape mismatch")
        acc = ZERO
        oe = other.entries
        for t, row in enumerate(self.entries):
            for s, x in enumerate(row):
                if x:
                    y = oe[s][t]
                    if y:
                        acc = acc + x * y
        return acc

    def flatten(self) -> tuple:
        return tuple(a for row in self.entries for a in row)

    def is_zero(self) -> bool:
        return not any(a for row in self.entries for a in row)

    def _match(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError("expected DenseMatrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.entries == other.entries
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"DenseMatrix[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------------
# Row reduction: one sparse Gauss-Jordan pass.  Each pivot row is divided by
# its pivot once, then cleared out of every other row, remaining or already
# placed, that is nonzero in the pivot column; only the columns where the
# pivot row is nonzero are touched.  Rows that vanish are dropped.  The RREF
# of a span is unique, so the result does not depend on the elimination
# order.
# ---------------------------------------------------------------------------


def _rref(vectors: Iterable[Sequence], width: int):
    work = []
    for v in vectors:
        row = _co_row(v)
        if len(row) != width:
            raise ValueError(
                f"vector of length {len(row)} in ambient of dimension {width}"
            )
        if any(row):
            work.append(list(row))
    placed = []
    pivots = []
    for c in range(width):
        if not work:
            break
        src = next((i for i, row in enumerate(work) if row[c]), None)
        if src is None:
            continue
        row = work.pop(src)
        piv = row[c]
        if piv != ONE:
            row = [a / piv if a else a for a in row]
        support = [j for j in range(c, width) if row[j]]
        for other in placed:
            f = other[c]
            if f:
                for j in support:
                    other[j] = other[j] - f * row[j]
        kept = []
        for other in work:
            f = other[c]
            if f:
                for j in support:
                    other[j] = other[j] - f * row[j]
                # columns before c are already zero in every remaining row
                if not any(other[c + 1 :]):
                    continue
            kept.append(other)
        work = kept
        placed.append(row)
        pivots.append(c)
    return tuple(tuple(row) for row in placed), tuple(pivots)


class Subspace:
    """A subspace of Q(i)^n held by its unique RREF basis.

    Structural equality of Subspace values is equality of subspaces.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: tuple, pivots: tuple):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self.basis, self.pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return canonicalize(
            [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)],
            ambient_dim,
        )

    def reduce(self, vector: Sequence):
        """Return (residual, coefficients w.r.t. basis rows) for a vector."""
        w = list(_co_row(vector))
        if len(w) != self.ambient_dim:
            raise ValueError("vector/ambient dimension mismatch")
        coeffs = []
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            coeffs.append(c)
            if c:
                w = [a - c * b if b else a for a, b in zip(w, row)]
        return w, tuple(coeffs)

    def contains(self, vector: Sequence) -> bool:
        residual, _ = self.reduce(vector)
        return not any(residual)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._match(other)
        return all(other.contains(row) for row in self.basis)

    def meet(self, other: "Subspace") -> "Subspace":
        return meet_join(self, other)[0]

    def join(self, other: "Subspace") -> "Subspace":
        return meet_join(self, other)[1]

    def conjugate(self) -> "Subspace":
        return canonicalize(
            [[a.conjugate() for a in row] for row in self.basis], self.ambient_dim
        )

    def _match(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected Subspace")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def canonicalize(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """The unique RREF basis of the span of the given vectors."""
    vectors = [list(v) for v in vectors]
    if ambient_dim is None:
        if not vectors:
            raise ValueError("ambient dimension required for an empty span")
        ambient_dim = len(vectors[0])
    basis, pivots = _rref(vectors, ambient_dim)
    return Subspace(ambient_dim, basis, pivots)


def meet_join(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Intersection and sum, via the Zassenhaus double-width reduction."""
    a._match(b)
    n = a.ambient_dim
    stacked = [list(row) + list(row) for row in a.basis]
    stacked += [list(row) + [ZERO] * n for row in b.basis]
    reduced, pivots = _rref(stacked, 2 * n)
    # Both halves are already in RREF: rows pivoting in the left half give
    # the join by their left halves, the others (zero on the left) give the
    # meet by their right halves.
    split = sum(1 for p in pivots if p < n)
    join = Subspace(n, tuple(row[:n] for row in reduced[:split]), pivots[:split])
    meet = Subspace(
        n,
        tuple(row[n:] for row in reduced[split:]),
        tuple(p - n for p in pivots[split:]),
    )
    return meet, join


def solve_membership(vector: Sequence, space: Subspace):
    """Coefficients of vector in space's RREF basis, or None if outside."""
    residual, coeffs = space.reduce(vector)
    return coeffs if not any(residual) else None


def kernel(m: DenseMatrix) -> Subspace:
    """Right null space {x : m x = 0}, returned as rows of a Subspace."""
    reduced, pivots = _rref(list(m.entries), m.cols)
    pivot_set = set(pivots)
    vectors = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        vectors.append(v)
    return canonicalize(vectors, m.cols)


def solve_linear(a: DenseMatrix, b: Sequence):
    """One solution x of a x = b, or None if inconsistent (free vars set to 0)."""
    rhs = _co_row(b)
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length mismatch")
    augmented = [list(row) + [rhs[i]] for i, row in enumerate(a.entries)]
    reduced, pivots = _rref(augmented, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


class SpanTracker:
    """Incremental span with expression tracking.

    Vectors are inserted one at a time; express() answers membership in the
    span of everything inserted so far and returns coordinates with respect
    to the inserted (not the reduced) vectors.  Used for minimal polynomials,
    structure constants and bracket closures.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows = []  # (reduced vector, pivot, combo over inserted vectors)
        self.count = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vector):
        w = list(_co_row(vector))
        if len(w) != self.width:
            raise ValueError("vector width mismatch")
        combo = [ZERO] * self.count
        for row, pivot, rcombo in self.rows:
            c = w[pivot]
            if c:
                w = [a - c * b if b else a for a, b in zip(w, row)]
                combo = [a + c * b if b else a for a, b in zip(combo, rcombo)]
        return w, combo

    def express(self, vector):
        w, combo = self._reduce(vector)
        return tuple(combo) if not any(w) else None

    def add(self, vector) -> bool:
        """Insert a vector; True if it enlarged the span."""
        w, combo = self._reduce(vector)
        for other in self.rows:
            other[2].append(ZERO)
        self.count += 1
        if not any(w):
            return False
        pivot = next(i for i, a in enumerate(w) if a)
        piv = w[pivot]
        row = [a / piv for a in w]
        rcombo = [-a / piv for a in combo] + [ONE / piv]
        self.rows.append([row, pivot, rcombo])
        return True


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
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [ZERO] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

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
    if isinstance(x, (int, Fraction, GaussRational)):
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
    """Monic minimal polynomial, by Krylov iteration on flattened powers."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        return Poly([1])
    tracker = SpanTracker(n * n)
    power = DenseMatrix.identity(n)
    for d in range(n + 1):
        combo = tracker.express(power.flatten())
        if combo is not None:
            return Poly([-c for c in combo] + [1])
        tracker.add(power.flatten())
        power = power * m
    raise AssertionError("minimal polynomial degree exceeded matrix size")


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic: same roots, all simple."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()
