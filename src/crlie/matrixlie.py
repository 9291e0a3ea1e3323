"""Matrix Lie algebras over Q(i) with the compact structure sigma(X) = -X*.

An AmbientAlgebra is a bracket-closed, sigma-stable span of n x n matrices
(typically gl_n or sl_n, or an orthogonal/symplectic algebra built elsewhere).
Subalgebras are subspaces of its coordinate space.  Everything downstream
(normalizers, radicals, nilradicals, Jordan decompositions, maximal tori,
parabolics from grading elements) is exact linear algebra plus verification
of the properties each result is supposed to have.  Brackets and sigma run
on coordinates, through the ambient's stored sparse structure constants;
matrices are used only where a matrix is the point (nilpotency, associative
hulls, minimal polynomials, Jordan decompositions).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    IUNIT,
    Poly,
    SpanTracker,
    Subspace,
    ZERO,
    canonicalize,
    kernel,
    min_poly,
    poly_xgcd,
    squarefree_part,
)


def sigma(x: DenseMatrix) -> DenseMatrix:
    """The compact real structure X -> -conj(X)^T."""
    return x.conj_transpose().scale(GaussRational.of(-1))


def _sparse(c) -> tuple:
    return tuple((k, x) for k, x in enumerate(c) if x)


class AmbientAlgebra:
    """A bracket-closed, sigma-stable matrix Lie algebra with a fixed basis.

    Coordinates of subalgebras and of all derived objects refer to this basis.
    The closure and sigma-stability checks of the constructor keep what they
    compute: [b_i, b_j] and sigma(b_j) as sparse (index, coefficient) lists,
    which bracket() and sigma_coords() read.
    """

    def __init__(self, n: int, basis, name: str = ""):
        self.n = n
        self.name = name
        self.basis = list(basis)
        self.dim = len(self.basis)
        self._tracker = SpanTracker(n * n)
        for b in self.basis:
            if b.rows != n or b.cols != n:
                raise ValueError("basis matrix has wrong shape")
            if not self._tracker.add(b.flatten()):
                raise ValueError("ambient basis is linearly dependent")
        self._brackets = [[()] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(self.basis):
            for j in range(i + 1, self.dim):
                c = self.coords(a.bracket(self.basis[j]))
                if c is None:
                    raise ValueError("ambient basis does not close under brackets")
                terms = _sparse(c)
                self._brackets[i][j] = terms
                self._brackets[j][i] = tuple((k, -x) for k, x in terms)
        self._sigma = []
        for b in self.basis:
            c = self.coords(sigma(b))
            if c is None:
                raise ValueError("ambient algebra is not sigma-stable")
            self._sigma.append(_sparse(c))
        self.unit_coords = Subspace.full(self.dim).basis

    def coords(self, x: DenseMatrix):
        return self._tracker.express(x.flatten())

    def contains_matrix(self, x: DenseMatrix) -> bool:
        return self.coords(x) is not None

    def from_coords(self, c) -> DenseMatrix:
        acc = [[ZERO] * self.n for _ in range(self.n)]
        for coeff, b in zip(c, self.basis):
            coeff = GaussRational.of(coeff)
            if coeff:
                for i, row in enumerate(b.entries):
                    arow = acc[i]
                    for j, x in enumerate(row):
                        if x:
                            arow[j] = arow[j] + coeff * x
        return DenseMatrix(acc)

    def bracket(self, x, y) -> tuple:
        """[x, y] for coordinate vectors x and y."""
        ys = _sparse(y)
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if a:
                row = self._brackets[i]
                for j, b in ys:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] = out[k] + ab * c
        return tuple(out)

    def sigma_coords(self, c) -> tuple:
        """sigma on coordinates; sigma is antilinear, so the coefficients
        are conjugated."""
        out = [ZERO] * self.dim
        for x, terms in zip(c, self._sigma):
            if x:
                x = GaussRational.of(x).conjugate()
                for k, s in terms:
                    out[k] = out[k] + x * s
        return tuple(out)

    def ad_matrix(self, x: DenseMatrix) -> DenseMatrix:
        """Matrix of ad_x on the ambient algebra in basis coordinates."""
        c = self.coords(x)
        if c is None:
            raise ValueError("element outside the ambient algebra")
        return _from_columns([self.bracket(c, e) for e in self.unit_coords])

    def full_subalg(self) -> "Subalg":
        return Subalg(self, Subspace.full(self.dim))

    def zero_subalg(self) -> "Subalg":
        return Subalg(self, Subspace.zero(self.dim))

    def __repr__(self):
        label = self.name or f"dim {self.dim} in gl_{self.n}"
        return f"AmbientAlgebra({label})"


def _from_columns(cols) -> DenseMatrix:
    return DenseMatrix(list(zip(*cols)))


def gl_ambient(n: int) -> AmbientAlgebra:
    basis = [DenseMatrix.unit(n, i, j) for i in range(n) for j in range(n)]
    return AmbientAlgebra(n, basis, name=f"gl_{n}")


def sl_ambient(n: int) -> AmbientAlgebra:
    basis = [
        DenseMatrix.unit(n, i, j) for i in range(n) for j in range(n) if i != j
    ]
    for i in range(n - 1):
        basis.append(
            DenseMatrix.unit(n, i, i) - DenseMatrix.unit(n, i + 1, i + 1)
        )
    return AmbientAlgebra(n, basis, name=f"sl_{n}")


class Subalg:
    """A subspace of an ambient algebra, in ambient coordinates.

    Nothing here checks bracket closure; use bracket_closure or is_subalgebra
    when the distinction matters.
    """

    def __init__(self, ambient: AmbientAlgebra, space: Subspace):
        if space.ambient_dim != ambient.dim:
            raise ValueError("coordinate space does not match the ambient algebra")
        self.ambient = ambient
        self.space = space
        self._mats = None

    @classmethod
    def from_matrices(cls, ambient: AmbientAlgebra, mats) -> "Subalg":
        rows = []
        for m in mats:
            c = ambient.coords(m)
            if c is None:
                raise ValueError("matrix outside the ambient algebra")
            rows.append(list(c))
        return cls(ambient, canonicalize(rows, ambient.dim))

    @property
    def dim(self) -> int:
        return self.space.dim

    def matrices(self):
        if self._mats is None:
            self._mats = [
                self.ambient.from_coords(row) for row in self.space.basis
            ]
        return self._mats

    def contains_matrix(self, x: DenseMatrix) -> bool:
        c = self.ambient.coords(x)
        return c is not None and self.space.contains(list(c))

    def is_subspace_of(self, other: "Subalg") -> bool:
        return self.space.is_subspace_of(other.space)

    def meet(self, other: "Subalg") -> "Subalg":
        return Subalg(self.ambient, self.space.meet(other.space))

    def join(self, other: "Subalg") -> "Subalg":
        return Subalg(self.ambient, self.space.join(other.space))

    def sigma_image(self) -> "Subalg":
        rows = [self.ambient.sigma_coords(row) for row in self.space.basis]
        return Subalg(self.ambient, canonicalize(rows, self.ambient.dim))

    def is_sigma_stable(self) -> bool:
        return self.sigma_image().space == self.space

    def __eq__(self, other):
        return (
            isinstance(other, Subalg)
            and self.ambient is other.ambient
            and self.space == other.space
        )

    def __hash__(self):
        return hash((id(self.ambient), self.space))

    def __repr__(self):
        return f"Subalg(dim {self.dim} of {self.ambient!r})"


def _pair_brackets(amb: AmbientAlgebra, rows):
    """[a, b] for every pair a before b of the rows: they span [v, v]."""
    return [amb.bracket(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :]]


def _is_ideal(sub: Subalg, ideal: Subalg) -> bool:
    amb = sub.ambient
    return all(
        ideal.space.contains(amb.bracket(a, b))
        for a in sub.space.basis
        for b in ideal.space.basis
    )


def is_subalgebra(sub: Subalg) -> bool:
    return all(sub.space.contains(c) for c in _pair_brackets(sub.ambient, sub.space.basis))


def bracket_closure(sub: Subalg) -> Subalg:
    """Smallest bracket-closed subspace containing the input."""
    space = sub.space
    while True:
        rows = list(space.basis) + _pair_brackets(sub.ambient, space.basis)
        new = canonicalize(rows, sub.ambient.dim)
        if new == space:
            return Subalg(sub.ambient, space)
        space = new


def derived_series(sub: Subalg):
    out = [sub.space]
    current = sub
    while current.dim:
        rows = _pair_brackets(sub.ambient, current.space.basis)
        nxt = Subalg(sub.ambient, canonicalize(rows, sub.ambient.dim))
        if nxt.space == current.space:
            break
        out.append(nxt.space)
        current = nxt
    return out


def lower_central_series(sub: Subalg):
    amb = sub.ambient
    out = [sub.space]
    current = sub
    while current.dim:
        rows = [amb.bracket(a, b) for a in sub.space.basis for b in current.space.basis]
        nxt = Subalg(sub.ambient, canonicalize(rows, sub.ambient.dim))
        if nxt.space == current.space:
            break
        out.append(nxt.space)
        current = nxt
    return out


def is_solvable(sub: Subalg) -> bool:
    return derived_series(sub)[-1].dim == 0


def is_nilpotent_algebra(sub: Subalg) -> bool:
    return lower_central_series(sub)[-1].dim == 0


def _bracket_kernel(sub: Subalg, target: Subspace) -> Subalg:
    """{w in ambient : [w, s] lies in target for every s in sub}."""
    amb = sub.ambient
    equations = []
    for s in sub.space.basis:
        cols = [target.reduce(amb.bracket(e, s))[0] for e in amb.unit_coords]
        equations.extend([col[t] for col in cols] for t in range(amb.dim))
    if not equations:
        return amb.full_subalg()
    return Subalg(amb, kernel(DenseMatrix(equations)))


def normalizer(sub: Subalg) -> Subalg:
    """N(v) = {w in ambient : [w, v] inside v}."""
    return _bracket_kernel(sub, sub.space)


def centralizer(sub: Subalg) -> Subalg:
    """Z(v) = {w in ambient : [w, v] = 0}."""
    return _bracket_kernel(sub, Subspace.zero(sub.ambient.dim))


def centralizer_element(amb: AmbientAlgebra, x: DenseMatrix) -> Subalg:
    return centralizer(Subalg.from_matrices(amb, [x]))


def _internal_coords(space: Subspace, vector, failure="not a subalgebra") -> tuple:
    """Coordinates of a vector of space in its RREF basis (the vector's
    entries at the pivots); AssertionError(failure) if it lies outside."""
    residual, coeffs = space.reduce(vector)
    if any(residual):
        raise AssertionError(failure)
    return coeffs


def _internal_ads(sub: Subalg):
    """ad matrices of the subalgebra on itself, in its own basis coordinates."""
    amb, space = sub.ambient, sub.space
    return [
        _from_columns([_internal_coords(space, amb.bracket(a, b)) for b in space.basis])
        for a in space.basis
    ]


def _radical_space_from_ads(ads, dim):
    """Cartan's criterion: the radical is the Killing-orthogonal of [v, v],
    taken inside v.  Works on abstract ad matrices."""
    if dim == 0:
        return Subspace.zero(0)
    killing = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            val = ads[i].trace_product(ads[j])
            killing[i][j] = val
            killing[j][i] = val
    derived_rows = []
    for i in range(dim):
        for j in range(dim):
            derived_rows.append([ads[i][t, j] for t in range(dim)])
    derived = canonicalize(derived_rows, dim)
    equations = []
    for d in derived.basis:
        equations.append(
            [
                sum(
                    (killing[i][j] * d[j] for j in range(dim)),
                    GaussRational.of(0),
                )
                for i in range(dim)
            ]
        )
    if not equations:
        return Subspace.full(dim)
    return kernel(DenseMatrix(equations))


def radical(sub: Subalg) -> Subalg:
    """Solvable radical of a subalgebra, verified solvable."""
    if sub.dim == 0:
        return sub
    if not is_subalgebra(sub):
        raise AssertionError("radical needs a bracket-closed input")
    ads = _internal_ads(sub)
    rad_internal = _radical_space_from_ads(ads, sub.dim)
    rows = []
    for c in rad_internal.basis:
        combo = [GaussRational.of(0)] * sub.ambient.dim
        for coeff, brow in zip(c, sub.space.basis):
            for t in range(sub.ambient.dim):
                combo[t] = combo[t] + coeff * brow[t]
        rows.append(combo)
    rad = Subalg(sub.ambient, canonicalize(rows, sub.ambient.dim))
    if not is_solvable(rad):
        raise AssertionError("radical candidate is not solvable")
    if not _is_ideal(sub, rad):
        raise AssertionError("radical candidate is not an ideal")
    return rad


def _associative_hull(mats, n):
    """Span of all products of the given matrices, identity included."""
    tracker = SpanTracker(n * n)
    hull = [DenseMatrix.identity(n)]
    tracker.add(hull[0].flatten())
    frontier = []
    for m in mats:
        if tracker.add(m.flatten()):
            hull.append(m)
            frontier.append(m)
    while frontier:
        new_frontier = []
        for f in frontier:
            for g in mats:
                for prod in (f * g, g * f):
                    if tracker.add(prod.flatten()):
                        hull.append(prod)
                        new_frontier.append(prod)
        frontier = new_frontier
    return hull


def _quotient_ads(sub: Subalg, ideal: Subalg):
    """Structure of v / ideal: ad matrices on a complement of the ideal."""
    amb, space = sub.ambient, sub.space
    ideal_internal = canonicalize(
        [
            _internal_coords(space, row, "ideal is not inside the subalgebra")
            for row in ideal.space.basis
        ],
        sub.dim,
    )
    pivset = set(ideal_internal.pivots)
    free = [i for i in range(sub.dim) if i not in pivset]
    ads = []
    for c1 in free:
        cols = []
        for c2 in free:
            br = amb.bracket(space.basis[c1], space.basis[c2])
            red, _ = ideal_internal.reduce(_internal_coords(space, br))
            cols.append([red[t] for t in free])
        ads.append(_from_columns(cols))
    return ads, len(free)


def nilradical_nr(sub: Subalg) -> Subalg:
    """The ideal of nilpotent matrices inside the radical.

    Nilpotence of x in a solvable matrix algebra r is equivalent to tr(x z)
    vanishing for every z in the associative hull of r, which keeps the
    computation linear.  The result is verified to be a nilpotent ideal of
    nilpotent matrices with reductive quotient.
    """
    amb = sub.ambient
    rad = radical(sub)
    if rad.dim == 0:
        return rad
    rad_mats = rad.matrices()
    hull = _associative_hull(rad_mats, amb.n)
    equations = []
    for z in hull:
        equations.append([b.trace_product(z) for b in amb.basis])
    perp = kernel(DenseMatrix(equations))
    nil = Subalg(amb, perp.meet(rad.space))

    for m in nil.matrices():
        if not (m ** amb.n).is_zero():
            raise AssertionError("nilradical candidate contains a non-nilpotent")
    if not _is_ideal(sub, nil):
        raise AssertionError("nilradical candidate is not an ideal")
    if not is_nilpotent_algebra(nil):
        raise AssertionError("nilradical candidate is not a nilpotent algebra")
    qads, qdim = _quotient_ads(sub, nil)
    qrad = _radical_space_from_ads(qads, qdim)
    for c in qrad.basis:
        for ad in qads:
            img = [
                sum(
                    (ad[t, j] * c[j] for j in range(qdim)),
                    GaussRational.of(0),
                )
                for t in range(qdim)
            ]
            if any(img):
                raise AssertionError("quotient by the nilradical is not reductive")
    return nil


def jordan_chevalley(x: DenseMatrix):
    """Exact Jordan decomposition x = s + n by Newton iteration on the
    squarefree part of the minimal polynomial."""
    m = min_poly(x)
    p = squarefree_part(m)
    # p squarefree, so gcd(p, p') = 1 and u inverts p' modulo p
    g, u, _ = poly_xgcd(p.derivative(), p)
    assert g.degree == 0
    y = x
    guard = 0
    while True:
        val = p(y)
        if val.is_zero():
            break
        y = y - val * u(y)
        guard += 1
        assert guard <= x.rows + 2, "Newton iteration failed to converge"
    s, n = y, x - y
    assert s.bracket(n).is_zero()
    assert (n ** x.rows).is_zero()
    sf = min_poly(s)
    assert squarefree_part(sf).degree == sf.degree
    return s, n


class SplitEvidence:
    """Outcome of sampling-based splittability checking.

    all_split means every sampled element had its semisimple part inside the
    subalgebra; a witness is an element whose semisimple part escapes.  A True
    answer is evidence, not a certificate.
    """

    def __init__(self, all_split: bool, samples: int, witness=None):
        self.all_split = all_split
        self.samples = samples
        self.witness = witness

    def __repr__(self):
        status = "split" if self.all_split else "non-split witness found"
        return f"SplitEvidence({status}, samples={self.samples})"


def splittable_evidence(sub: Subalg, trials: int = 12, seed: int = 0) -> SplitEvidence:
    """Check x_s in v for each basis element and for random combinations."""
    rng = random.Random(seed)
    mats = sub.matrices()
    samples = 0
    for m in mats:
        samples += 1
        s, _ = jordan_chevalley(m)
        if not sub.contains_matrix(s):
            return SplitEvidence(False, samples, witness=m)
    for _ in range(trials):
        combo = DenseMatrix.zero(sub.ambient.n, sub.ambient.n)
        for m in mats:
            c = GaussRational(
                Fraction(rng.randrange(-6, 7)), Fraction(rng.randrange(-6, 7))
            )
            combo = combo + m.scale(c)
        samples += 1
        s, _ = jordan_chevalley(combo)
        if not sub.contains_matrix(s):
            return SplitEvidence(False, samples, witness=combo)
    return SplitEvidence(True, samples)


def is_semisimple_matrix(x: DenseMatrix) -> bool:
    m = min_poly(x)
    return squarefree_part(m).degree == m.degree


def maximal_torus(sub: Subalg, seed: int = 0) -> Subalg:
    """Maximal torus of a sigma-stable (hence reductive) subalgebra: the
    centralizer of a generic element of the compact real points, verified
    abelian, semisimple, sigma-stable and self-centralizing."""
    if not sub.is_sigma_stable():
        raise ValueError("maximal_torus needs a sigma-stable subalgebra")
    if sub.dim == 0:
        return sub
    generators = []
    for b in sub.matrices():
        for g in (b + sigma(b), (b - sigma(b)).scale(IUNIT)):
            if not g.is_zero():
                generators.append(g)
    rng = random.Random(seed)
    for attempt in range(8):
        y = DenseMatrix.zero(sub.ambient.n, sub.ambient.n)
        for g in generators:
            y = y + g.scale(GaussRational.of(Fraction(rng.randrange(-9, 10))))
        t = centralizer_element(sub.ambient, y).meet(sub)
        ok = not any(any(c) for c in _pair_brackets(sub.ambient, t.space.basis))
        ok = ok and t.is_sigma_stable()
        ok = ok and all(is_semisimple_matrix(m) for m in t.matrices())
        ok = ok and centralizer(t).meet(sub).space == t.space
        if ok:
            return t
    raise RuntimeError("no generic element found for the maximal torus")


def _integer_divisors(n: int):
    n = abs(n)
    if n == 0:
        return [0]
    if n > 10**12:
        raise ValueError("constant term too large for rational root search")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def rational_roots_complete(p: Poly):
    """All roots of a polynomial that splits over Q; ValueError otherwise."""
    for c in p.coeffs:
        if c.im:
            raise ValueError("polynomial has non-real coefficients")
    roots = []
    current = p
    while current.degree > 0:
        fracs = [c.re for c in current.coeffs]
        denom = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * denom) for f in fracs]
        lead, const = ints[-1], ints[0]
        root = None
        if const == 0:
            root = Fraction(0)
        else:
            for pn in _integer_divisors(const):
                for qn in _integer_divisors(lead):
                    for cand in (Fraction(pn, qn), Fraction(-pn, qn)):
                        if not current(GaussRational.of(cand)):
                            root = cand
                            break
                    if root is not None:
                        break
                if root is not None:
                    break
        if root is None:
            raise ValueError("polynomial does not split over Q")
        roots.append(root)
        quot, rem = divmod(
            current, Poly([GaussRational.of(-root), GaussRational.of(1)])
        )
        assert rem.degree < 0
        current = quot
    return sorted(roots)


def i_spectrum(x: DenseMatrix):
    """Distinct eigenvalues i*lambda of a matrix with spectrum in i*Q,
    returned as the sorted rational lambdas; ValueError if not of that form."""
    p = squarefree_part(min_poly(x))
    d = p.degree
    coeffs = []
    for j, c in enumerate(p.coeffs):
        coeffs.append(c * IUNIT**j * (-IUNIT) ** d)
    shifted = Poly(coeffs)
    return sorted(set(rational_roots_complete(shifted)))


def parabolic_from_element(amb: AmbientAlgebra, a: DenseMatrix) -> Subalg:
    """q_A: the sum of the nonnegative eigenspaces of ad_A, for a
    sigma-fixed element A with spectrum in i*Q."""
    if amb.coords(a) is None:
        raise ValueError("element outside the ambient algebra")
    if sigma(a) != a:
        raise ValueError("grading element must be sigma-fixed")
    mus = i_spectrum(a)
    lambdas = sorted(set(m1 - m2 for m1 in mus for m2 in mus))
    ad = amb.ad_matrix(a)
    total = 0
    q_rows = []
    for lam in lambdas:
        shift = ad - DenseMatrix.identity(amb.dim).scale(
            IUNIT * GaussRational.of(lam)
        )
        ker = kernel(shift)
        total += ker.dim
        if lam >= 0:
            q_rows.extend(list(r) for r in ker.basis)
    assert total == amb.dim, "grading element is not semisimple on the ambient algebra"
    q = Subalg(amb, canonicalize(q_rows, amb.dim))
    assert bracket_closure(q).space == q.space
    assert q.join(q.sigma_image()).dim == amb.dim
    assert q.meet(q.sigma_image()).space == centralizer_element(amb, a).space
    return q
