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
from functools import cached_property

from crlie._record import _record
from crlie.exactlin import (
    DenseMatrix,
    GaussRational,
    IUNIT,
    ONE,
    Poly,
    SpanTracker,
    Subspace,
    ZERO,
    _axpy,
    _densify,
    _from_nonzeros,
    _pairs,
    apply_sparse,
    canonicalize,
    combine,
    kernel,
    meet_join,
    min_poly,
    poly_xgcd,
    sparse,
    sparse_span,
    squarefree_part,
)


def sigma(x: DenseMatrix) -> DenseMatrix:
    """The compact real structure X -> -conj(X)^T."""
    return x.conj_transpose().scale(GaussRational.of(-1))


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
        self._flat = [sparse(b.flatten()) for b in self.basis]
        for b in self.basis:
            if b.rows != n or b.cols != n:
                raise ValueError("basis matrix has wrong shape")
            if not self._tracker.add(b):
                raise ValueError("ambient basis is linearly dependent")
        express = self._tracker.express_nz
        self._brackets = [[()] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(self.basis):
            for j in range(i + 1, self.dim):
                terms = express(a.bracket(self.basis[j]))
                if terms is None:
                    raise ValueError("ambient basis does not close under brackets")
                self._brackets[i][j] = terms
                self._brackets[j][i] = tuple((k, -x) for k, x in terms)
        self._sigma = [express(sigma(b)) for b in self.basis]
        if None in self._sigma:
            raise ValueError("ambient algebra is not sigma-stable")

    @cached_property
    def unit_coords(self) -> tuple:
        return Subspace.full(self.dim).basis

    def coords(self, x: DenseMatrix):
        """x on the basis, or None if x is no n x n matrix of the algebra."""
        return self._tracker.express(x) if x.rows == x.cols == self.n else None

    def contains_matrix(self, x: DenseMatrix) -> bool:
        return self.coords(x) is not None

    def from_coords(self, c) -> DenseMatrix:
        return self._matrix(sparse(c))

    def _matrix(self, c) -> DenseMatrix:
        return DenseMatrix.from_flat(_densify(combine(c, self._flat), self.n**2), self.n)

    def bracket(self, x, y) -> tuple:
        """[x, y] for coordinate vectors x and y."""
        return _densify(self._bracket_nz(sparse(x), sparse(y)), self.dim)

    def _bracket_nz(self, x, y) -> tuple:
        acc = {}
        for i, a in x:
            row = self._brackets[i]
            for j, b in y:
                if row[j]:
                    _axpy(acc, a * b, row[j])
        return _pairs(acc)

    def sigma_coords(self, c) -> tuple:
        """sigma on coordinates; sigma is antilinear, so the coefficients
        are conjugated."""
        return _densify(self._sigma_nz(sparse(c)), self.dim)

    def _sigma_nz(self, c) -> tuple:
        return apply_sparse(self._sigma, c, antilinear=True)

    def ad_matrix(self, x: DenseMatrix) -> DenseMatrix:
        """Matrix of ad_x on the ambient algebra in basis coordinates."""
        c = self.coords(x)
        if c is None:
            raise ValueError("element outside the ambient algebra")
        return _from_columns([self.bracket(c, e) for e in self.unit_coords])

    def full_subalg(self) -> "Subalg":
        return Subalg(self, Subspace.full(self.dim))

    @cached_property
    def rank(self) -> int:
        """Dimension of a maximal torus, built and verified once."""
        return maximal_torus(self.full_subalg()).dim

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
    when the distinction matters.  A Subalg keeps its matrices and its
    nilradical once they have been computed: matrices() and nilradical()
    fill them on first use, so every caller holding the same object shares
    one computation.
    """

    def __init__(self, ambient: AmbientAlgebra, space: Subspace):
        if space.ambient_dim != ambient.dim:
            raise ValueError("coordinate space does not match the ambient algebra")
        self.ambient = ambient
        self.space = space
        self._mats = None
        self._nr = None

    @classmethod
    def from_matrices(cls, ambient: AmbientAlgebra, mats) -> "Subalg":
        rows = [ambient.coords(m) for m in mats]
        if None in rows:
            raise ValueError("matrix outside the ambient algebra")
        return cls(ambient, canonicalize(rows, ambient.dim))

    @property
    def dim(self) -> int:
        return self.space.dim

    def matrices(self):
        if self._mats is None:
            self._mats = [self.ambient._matrix(row) for row in self.space._nz]
        return self._mats

    def nilradical(self) -> "Subalg":
        """nr of this subalgebra: nilradical_nr on first use, then kept."""
        if self._nr is None:
            self._nr = nilradical_nr(self)
        return self._nr

    def contains_matrix(self, x: DenseMatrix) -> bool:
        c = self.ambient.coords(x)
        return c is not None and self.space.contains(c)

    def is_subspace_of(self, other: "Subalg") -> bool:
        return self.space.is_subspace_of(other.space)

    def meet_join(self, other: "Subalg"):
        """(self meet other, self join other) from one reduction."""
        pair = meet_join(self.space, other.space)
        return tuple(Subalg(self.ambient, s) for s in pair)

    def meet(self, other: "Subalg") -> "Subalg":
        return Subalg(self.ambient, self.space.meet(other.space))

    def join(self, other: "Subalg") -> "Subalg":
        return Subalg(self.ambient, self.space.join(other.space))

    def sigma_image(self) -> "Subalg":
        rows = map(self.ambient._sigma_nz, self.space._nz)
        return Subalg(self.ambient, sparse_span(rows, self.ambient.dim))

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
    return [amb._bracket_nz(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :]]


def _is_ideal(sub: Subalg, ideal: Subalg) -> bool:
    amb = sub.ambient
    return all(
        ideal.space._contains_nz(amb._bracket_nz(a, b))
        for a in sub.space._nz
        for b in ideal.space._nz
    )


def is_subalgebra(sub: Subalg) -> bool:
    return all(map(sub.space._contains_nz, _pair_brackets(sub.ambient, sub.space._nz)))


def _series(sub: Subalg, step):
    """sub's space, then spans of step(newest rows) until zero or unchanged."""
    out = [sub.space]
    while out[-1].dim:
        nxt = sparse_span(step(out[-1]._nz), sub.ambient.dim)
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def derived_series(sub: Subalg):
    return _series(sub, lambda rows: _pair_brackets(sub.ambient, rows))


def bracket_closure(sub: Subalg) -> Subalg:
    """Smallest bracket-closed subspace containing the input."""
    amb = sub.ambient
    return Subalg(amb, _series(sub, lambda rows: [*rows, *_pair_brackets(amb, rows)])[-1])


def lower_central_series(sub: Subalg):
    bracket = sub.ambient._bracket_nz
    return _series(sub, lambda rows: [bracket(a, b) for a in sub.space._nz for b in rows])


def is_solvable(sub: Subalg) -> bool:
    return derived_series(sub)[-1].dim == 0


def is_nilpotent_algebra(sub: Subalg) -> bool:
    return lower_central_series(sub)[-1].dim == 0


def _bracket_kernel(sub: Subalg, target: Subspace) -> Subalg:
    """{w in ambient : [w, s] lies in target for every s in sub}: one
    equation per row s and coordinate t, entry t of [e_i, s] reduced by
    target at column i, with [e_i, s] from the structure constants."""
    amb = sub.ambient
    equations = {}
    for n, s in enumerate(sub.space._nz):
        for i, row in enumerate(amb._brackets):
            w = dict(combine(s, row))
            target._reduce_nz(w)
            for t, x in w.items():
                equations.setdefault((n, t), []).append((i, x))
    if not equations:
        return amb.full_subalg()
    rows = tuple(map(tuple, equations.values()))
    return Subalg(amb, kernel(_from_nonzeros(len(rows), amb.dim, rows)))


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
    gram = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            val = ads[i].trace_product(ads[j])
            gram[i][j] = val
            gram[j][i] = val
    killing = DenseMatrix(gram)
    # [v, v] is spanned by the columns of the ad matrices
    derived = canonicalize([col for ad in ads for col in ad.transpose().entries], dim)
    equations = [killing.mul_vec(d) for d in derived.basis]
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
    rows = [combine(c, sub.space._nz) for c in rad_internal._nz]
    rad = Subalg(sub.ambient, sparse_span(rows, sub.ambient.dim))
    if not is_solvable(rad):
        raise AssertionError("radical candidate is not solvable")
    if not _is_ideal(sub, rad):
        raise AssertionError("radical candidate is not an ideal")
    return rad


def _nilradical_failure(sub: Subalg, nil: Subalg):
    """The message of the first nilradical check that nil fails, or None."""
    for m in nil.matrices():
        if not (m ** sub.ambient.n).is_zero():
            return "nilradical candidate contains a non-nilpotent"
    if not _is_ideal(sub, nil):
        return "nilradical candidate is not an ideal"
    if not is_nilpotent_algebra(nil):
        return "nilradical candidate is not a nilpotent algebra"
    return None


def nilradical_nr(sub: Subalg) -> Subalg:
    """nr(v), the largest ideal of v acting nilpotently on C^n, as
    n = v meet S^perp for the trace form tr(xz) and a subspace S of the
    associative hull A of v, identity included.

    S starts as span(1, v).  While n fails a check (spanned by nilpotent
    matrices, an ideal of v, a nilpotent algebra), S gains the products
    f g and g f of its newest elements f with v's matrices g.  Then n = nr(v):
    - nr(v) lies in n for every S: v, hence A, fixes a flag of C^n on whose
      quotients nr(v) acts by zero, so xz is nilpotent for x in nr(v), z in A.
    - A passing n lies in nr(v): a nilpotent algebra of matrices has linear
      weights on C^n, zero on its nilpotent basis, so all of n is nilpotent.
    - n passes once S = A, which holds when a round adds nothing: then
      n = v meet J(A), as in characteristic 0 the radical of the trace form
      on A is its Jacobson radical J(A) (Dickson), a nilpotent ideal of A.
    v / nr(v) is then reductive, so no check of the quotient follows.  Let
    gr C^n be the sum of the factors of a composition series of C^n under v.
    An ideal of v made of nilpotents fixes a nonzero vector of each factor
    (Engel); its fixed vectors form a submodule, so it kills each factor.
    The kernel of v on gr C^n is strictly triangular for the flag, hence an
    ideal of nilpotents; so it is nr(v).  gr C^n is then a faithful
    semisimple module of v / nr(v), which is therefore reductive (Bourbaki,
    Lie Groups and Lie Algebras, ch. I, 6.4, Prop. 5).
    """
    if not is_subalgebra(sub):
        raise AssertionError("nilradical needs a bracket-closed input")
    amb = sub.ambient
    mats = sub.matrices()
    tracker = SpanTracker(amb.n * amb.n)
    equations, new = [], [DenseMatrix.identity(amb.n), *mats]
    while True:
        # the identity is new in round 1, so failure is set before any raise
        new = [z for z in new if tracker.add(z)]
        if not new:
            raise AssertionError(failure)
        equations += [[b.trace_product(z) for b in amb.basis] for z in new]
        nil = Subalg(amb, kernel(DenseMatrix(equations)).meet(sub.space))
        failure = _nilradical_failure(sub, nil)
        if failure is None:
            break
        new = [p for f in new for g in mats for p in (f * g, g * f)]
    return nil


def jordan_chevalley(x: DenseMatrix):
    """Exact Jordan decomposition x = s + n by Newton iteration on the
    squarefree part of the minimal polynomial."""
    m = min_poly(x)
    p = squarefree_part(m)
    # p squarefree, so gcd(p, p') = 1 and u inverts p' modulo p
    g, u, _ = poly_xgcd(p.derivative(), p)
    if g.degree != 0:
        raise AssertionError("squarefree part shares a factor with its derivative")
    y = x
    for _ in range(x.rows + 3):
        val = p(y)
        if val.is_zero():
            break
        y = y - val * u(y)
    else:
        raise AssertionError("Newton iteration failed to converge")
    s, n = y, x - y
    if not s.bracket(n).is_zero():
        raise AssertionError("Jordan parts do not commute")
    if not (n ** x.rows).is_zero():
        raise AssertionError("nilpotent Jordan part is not nilpotent")
    if not is_semisimple_matrix(s):
        raise AssertionError("semisimple Jordan part is not semisimple")
    return s, n


@_record(frozen=True)
class SplitEvidence:
    """Outcome of sampling-based splittability checking.

    all_split means every sampled element had its semisimple part inside the
    subalgebra; a witness is an element whose semisimple part escapes.  A True
    answer is evidence, not a certificate.
    """

    all_split: bool
    samples: int
    witness: DenseMatrix | None = None


def splittable_evidence(sub: Subalg, trials: int = 12, seed: int = 0) -> SplitEvidence:
    """Check x_s in v for each basis element and for random combinations."""
    from random import Random

    rng = Random(seed)
    mats = sub.matrices()
    samples = 0
    for m in mats:
        samples += 1
        s, _ = jordan_chevalley(m)
        if not sub.contains_matrix(s):
            return SplitEvidence(False, samples, witness=m)
    amb = sub.ambient
    for _ in range(trials):
        coeffs = [
            GaussRational(rng.randrange(-6, 7), rng.randrange(-6, 7)) for _ in mats
        ]
        combo = amb._matrix(combine(sparse(coeffs), sub.space._nz))
        samples += 1
        s, _ = jordan_chevalley(combo)
        if not sub.contains_matrix(s):
            return SplitEvidence(False, samples, witness=combo)
    return SplitEvidence(True, samples)


def is_semisimple_matrix(x: DenseMatrix) -> bool:
    m = min_poly(x)
    return squarefree_part(m).degree == m.degree


def maximal_torus(sub: Subalg) -> Subalg:
    """Maximal torus of a sigma-stable (hence reductive) subalgebra, built
    greedily: while c = Z(t) meet sub is larger than t, t takes the first
    sigma-fixed part r + sigma(r) or i(r - sigma(r)) outside t of a basis
    row r of c (r lies in their span).  Such parts are skew-Hermitian, hence
    semisimple, and commute with t.  The loop exits at the self-centralizing
    check, and a toral subalgebra equal to its own centralizer is maximal
    (Humphreys, Introduction to Lie Algebras, 8.2).  Deterministic; verified
    abelian, sigma-stable and semisimple."""
    if not sub.is_sigma_stable():
        raise ValueError("maximal_torus needs a sigma-stable subalgebra")
    amb = sub.ambient
    t, c = amb.zero_subalg(), sub
    while c.space != t.space:
        parts = (
            combine(pair, (r, amb._sigma_nz(r)))
            for r in c.space._nz
            for pair in (((0, ONE), (1, ONE)), ((0, IUNIT), (1, -IUNIT)))
        )
        part = next((p for p in parts if not t.space._contains_nz(p)), None)
        if part is None:
            raise AssertionError("no sigma-fixed part of Z(t) escapes the torus")
        t = Subalg(amb, sparse_span([*t.space._nz, part], amb.dim))
        c = centralizer(t).meet(sub)
    if any(_pair_brackets(amb, t.space._nz)):
        raise AssertionError("maximal torus is not abelian")
    if not t.is_sigma_stable():
        raise AssertionError("maximal torus is not sigma-stable")
    if not all(map(is_semisimple_matrix, t.matrices())):
        raise AssertionError("maximal torus holds a non-semisimple element")
    return t


def _integer_divisors(n: int):
    n = abs(n)
    if n == 0:
        return [0]
    if n > 10**12:
        raise ValueError("constant term too large for rational root search")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def rational_roots_complete(p: Poly):
    """All roots of a polynomial that splits over Q; ValueError otherwise."""
    from fractions import Fraction

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
        if const == 0:
            root = Fraction(0)
        else:
            candidates = (
                c
                for pn in _integer_divisors(const)
                for qn in _integer_divisors(lead)
                for c in (Fraction(pn, qn), Fraction(-pn, qn))
                if not current(GaussRational.of(c))
            )
            root = next(candidates, None)
        if root is None:
            raise ValueError("polynomial does not split over Q")
        roots.append(root)
        quot, rem = divmod(
            current, Poly([GaussRational.of(-root), GaussRational.of(1)])
        )
        if rem.degree >= 0:
            raise AssertionError("rational root does not divide the polynomial")
        current = quot
    return sorted(roots)


def i_spectrum(x: DenseMatrix):
    """Distinct eigenvalues i*lambda of a matrix with spectrum in i*Q,
    returned as the sorted rational lambdas; ValueError if not of that form."""
    p = squarefree_part(min_poly(x))
    d = p.degree
    shifted = Poly([c * IUNIT**j * (-IUNIT) ** d for j, c in enumerate(p.coeffs)])
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
            q_rows.extend(ker._nz)
    if total != amb.dim:
        raise AssertionError("grading element is not semisimple on the ambient algebra")
    q = Subalg(amb, sparse_span(q_rows, amb.dim))
    if bracket_closure(q).space != q.space:
        raise AssertionError("q_A is not a subalgebra")
    if q.join(q.sigma_image()).dim != amb.dim:
        raise AssertionError("q_A + sigma(q_A) is not the ambient")
    if q.meet(q.sigma_image()).space != centralizer_element(amb, a).space:
        raise AssertionError("q_A meet sigma(q_A) is not the centralizer of A")
    return q
