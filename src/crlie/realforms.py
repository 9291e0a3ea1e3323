"""Classical real forms in fixed matrix presentations.

Each supported family carries a hard-wired complex matrix algebra g inside
gl_n, a conjugation sigma cutting out the real form, and a Cartan involution
theta chosen so that the compact conjugation tau = sigma o theta is exactly
X -> -conj(X)^T.  With that normalization the sigma of matrixlie, restricted
to the theta-fixed subalgebra k, is the real structure of the maximal compact
subgroup, so the CR machinery of crcore and regularize applies to subalgebras
of k without any change of coordinates.

From a list of crossed simple roots the module classifies roots under the
permutation induced by sigma, forms the root sets of the flag parabolic f,
and builds the CR algebra v = f cap k of the minimal real orbit in the flag
manifold.  The central discipline here is that every root-combinatorial
formula (for v, for its nilpotent ideal, for its reductive part) is
recomputed by plain matrix linear algebra and the two answers are asserted
equal on every build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from crlie.crcore import (
    RegularityReport,
    n_reductive_split,
    regularity_type,
)
from crlie.exactlin import (
    IUNIT,
    DenseMatrix,
    GaussRational,
    Subspace,
    canonicalize,
)
from crlie.matrixlie import AmbientAlgebra, Subalg
from crlie.matrixlie import sigma as compact_conjugation
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSpan,
    RootSystem,
    build_root_system,
    is_closed,
    neg,
    parabolic_from_crosses,
    root_sum,
    strongly_orthogonal_maximal_sets,
)

MATRIX_SIZE_CAP = 8

REAL = "real"
IMAGINARY_COMPACT = "imaginary-compact"
IMAGINARY_NONCOMPACT = "imaginary-noncompact"
COMPLEX = "complex"

_HALF = GaussRational(Fraction(1, 2))

_PARAM_COUNT = {
    "su": 2,
    "slH": 1,
    "so": 2,
    "compact-u": 1,
    "compact-so": 1,
    "compact-sp": 1,
}


@dataclass(frozen=True)
class RealFormSpec:
    """A family tag plus integer parameters, e.g. su:2,3 or compact-so:7.

    The invariant forms of every family use the anti-diagonal convention;
    it is the only one implemented.
    """

    family: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.family not in _PARAM_COUNT:
            raise ValueError(
                f"unsupported family {self.family!r}; expected one of "
                + ", ".join(sorted(_PARAM_COUNT))
            )
        if len(self.params) != _PARAM_COUNT[self.family]:
            raise ValueError(
                f"family {self.family} takes {_PARAM_COUNT[self.family]} "
                f"parameter(s), got {len(self.params)}"
            )
        if any(p < 1 for p in self.params):
            raise ValueError("parameters must be positive")
        if self.family in ("su", "so") and self.params[0] > self.params[1]:
            raise ValueError(f"{self.family}:p,q expects p <= q")
        n = self.matrix_size
        if n > MATRIX_SIZE_CAP:
            raise ValueError(
                f"matrix size {n} exceeds the supported bound {MATRIX_SIZE_CAP}"
            )
        if self.family in ("so", "compact-so"):
            if n < 3:
                raise ValueError("orthogonal forms need matrix size >= 3")
            if n % 2 == 0 and n < 6:
                raise ValueError(
                    "even orthogonal forms need matrix size >= 6 "
                    "(the rank-2 case is not covered by the D-family tables)"
                )
        if self.family == "compact-u" and n < 2:
            raise ValueError("compact-u needs n >= 2")

    @staticmethod
    def parse(text: str) -> "RealFormSpec":
        """Parse tags like "su:2,3", "slH:2", "so:3,5", "compact-sp:2"."""
        head, sep, tail = text.strip().partition(":")
        if not sep or not tail:
            raise ValueError(f"malformed real-form tag {text!r}")
        try:
            params = tuple(int(part) for part in tail.split(","))
        except ValueError:
            raise ValueError(f"non-integer parameter in {text!r}") from None
        return RealFormSpec(head, params)

    @property
    def matrix_size(self) -> int:
        if self.family in ("su", "so"):
            return self.params[0] + self.params[1]
        if self.family in ("slH", "compact-sp"):
            return 2 * self.params[0]
        return self.params[0]

    @property
    def compact(self) -> bool:
        return self.family.startswith("compact-")

    def __str__(self):
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


@dataclass(frozen=True, eq=False)
class AdaptedPair:
    """A theta-stable Cartan subalgebra of the real form, split into its
    compact and noncompact halves.

    The basis tuples are real bases (matrices fixed by sigma); the Subspace
    fields are their complex spans in flattened gl coordinates.  theta is the
    Cartan involution the pair is adapted to.
    """

    theta: object
    h0_basis: tuple
    h_plus_basis: tuple
    h_minus_basis: tuple
    cartan_h0: Subspace
    h_plus: Subspace
    h_minus: Subspace


@dataclass(frozen=True, eq=False)
class RealForm:
    """A built real form: verified involutions, the compact subalgebra k as
    an AmbientAlgebra, root vectors, and the adapted Cartan pair."""

    spec: RealFormSpec
    n: int
    system: RootSystem
    k: AmbientAlgebra
    adapted: AdaptedPair
    sigma: object
    theta: object
    tau: object
    cartan_basis: tuple
    coord_elements: tuple
    root_vectors: dict
    cartan_space: Subspace
    k_space: Subspace

    @property
    def compact(self) -> bool:
        return self.spec.compact

    @cached_property
    def classification(self) -> "RootClassification":
        """The verified root classification, computed once per form."""
        return classify_roots(self)

    def root_vector(self, alpha) -> DenseMatrix:
        key = tuple(alpha)
        try:
            return self.root_vectors[key]
        except KeyError:
            raise ValueError(f"{key} is not a root of {self.system}") from None

    def __repr__(self):
        return f"RealForm({self.spec})"


@dataclass(eq=False)
class RootClassification:
    """Tags for every root under the conjugation, plus the two induced root
    permutations (sigma_star for sigma, theta_star for theta)."""

    system: RootSystem
    tags: dict
    sigma_star: dict
    theta_star: dict
    real_roots: frozenset = field(init=False)
    imaginary_compact_roots: frozenset = field(init=False)
    imaginary_noncompact_roots: frozenset = field(init=False)
    complex_roots: frozenset = field(init=False)

    def __post_init__(self):
        by_tag = {REAL: [], IMAGINARY_COMPACT: [], IMAGINARY_NONCOMPACT: [], COMPLEX: []}
        for alpha, tag in self.tags.items():
            by_tag[tag].append(alpha)
        self.real_roots = frozenset(by_tag[REAL])
        self.imaginary_compact_roots = frozenset(by_tag[IMAGINARY_COMPACT])
        self.imaginary_noncompact_roots = frozenset(by_tag[IMAGINARY_NONCOMPACT])
        self.complex_roots = frozenset(by_tag[COMPLEX])

    def bar(self, alpha):
        """The root sigma carries g^alpha to."""
        return self.sigma_star[tuple(alpha)]


@dataclass(eq=False)
class ThetaSets:
    """Root sets of a crossed flag parabolic, filtered through theta.

    flag_roots / flag_nilpotent / flag_reductive are the parabolic's root set
    and its nilradical/Levi parts.  projectable drops the roots whose spaces
    die under the projection onto k.  theta_core is the part of projectable
    stable under theta_star; its nilpotent/reductive slices drive the
    root-formula construction of the minimal-orbit algebra.
    """

    crosses: tuple
    flag: ParabolicRootSet
    flag_roots: frozenset
    flag_nilpotent: frozenset
    flag_reductive: frozenset
    projectable: frozenset
    theta_core: frozenset
    theta_core_nilpotent: frozenset
    theta_core_reductive: frozenset


@dataclass(eq=False)
class MinimalOrbit:
    """The CR algebra v = f cap k of the minimal real orbit, with the data
    that produced it and the verified split into nilpotent and reductive
    parts."""

    form: RealForm
    crosses: tuple
    sets: ThetaSets
    classification: RootClassification
    k: AmbientAlgebra
    v: Subalg
    nr: Subalg
    levi: Subalg
    flag_space: Subspace


@dataclass(eq=False)
class TypeCriteria:
    """Outcome of the strongly-orthogonal-system tests for regularity.

    type_I: some maximal system certifies that v itself is normalized by a
    maximal torus; type_II: some maximal system certifies the same for the
    reductive part of v.  systems lists the maximal sets of pairwise strongly
    orthogonal real flag roots (one representative per sign choice, positive
    where available).  regularity is the independent matrix-side rank report
    the criteria were checked against.
    """

    type_I: bool
    type_II: bool
    systems: tuple
    witnesses: dict
    regularity: RegularityReport


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Presentation:
    system: RootSystem
    sigma: object
    theta: object
    cartan_basis: tuple
    coord_elements: tuple
    root_vectors: dict
    h_minus: tuple
    h_plus: tuple


def _unit(n, i, j):
    return DenseMatrix.unit(n, i, j)


def _exchange_matrix(n: int, pairs: int) -> DenseMatrix:
    """Permutation matrix swapping row i with row n-1-i for i < pairs."""
    perm = list(range(n))
    for i in range(pairs):
        perm[i], perm[n - 1 - i] = perm[n - 1 - i], perm[i]
    return DenseMatrix([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)])


def _a_root_vectors(size: int):
    system = build_root_system("A", size - 1)
    vectors = {}
    for alpha in system.roots_sorted:
        vectors[alpha] = _unit(size, alpha.index(1), alpha.index(-1))
    coord = tuple(_unit(size, a, a) for a in range(size))
    return system, vectors, coord


def _orthogonal_root_vectors(size: int):
    """Root vectors of so(B) for the anti-diagonal symmetric form B."""
    ell = size // 2
    system = build_root_system("B" if size % 2 else "D", ell)

    def m(a):
        return size - 1 - a

    center = ell
    vectors = {}
    for alpha in system.roots_sorted:
        support = [(i, c) for i, c in enumerate(alpha) if c]
        if len(support) == 1:
            i, c = support[0]
            if c == 1:
                x = _unit(size, i, center) - _unit(size, center, m(i))
            else:
                x = _unit(size, center, i) - _unit(size, m(i), center)
        else:
            (i, ci), (j, cj) = support
            if (ci, cj) == (1, -1):
                x = _unit(size, i, j) - _unit(size, m(j), m(i))
            elif (ci, cj) == (-1, 1):
                x = _unit(size, j, i) - _unit(size, m(i), m(j))
            elif (ci, cj) == (1, 1):
                x = _unit(size, i, m(j)) - _unit(size, j, m(i))
            else:
                x = _unit(size, m(j), i) - _unit(size, m(i), j)
        vectors[alpha] = x
    cartan = tuple(_unit(size, i, i) - _unit(size, m(i), m(i)) for i in range(ell))
    return system, vectors, cartan


def _symplectic_root_vectors(half: int):
    """Root vectors of sp(J) for J built from 2x2 blocks on index pairs
    (2i, 2i+1)."""
    size = 2 * half
    system = build_root_system("C", half)
    vectors = {}
    for alpha in system.roots_sorted:
        support = [(i, c) for i, c in enumerate(alpha) if c]
        if len(support) == 1:
            i, c = support[0]
            if c == 2:
                x = _unit(size, 2 * i, 2 * i + 1)
            else:
                x = _unit(size, 2 * i + 1, 2 * i)
        else:
            (i, ci), (j, cj) = support
            if (ci, cj) == (1, -1):
                x = _unit(size, 2 * i, 2 * j) - _unit(size, 2 * j + 1, 2 * i + 1)
            elif (ci, cj) == (-1, 1):
                x = _unit(size, 2 * j, 2 * i) - _unit(size, 2 * i + 1, 2 * j + 1)
            elif (ci, cj) == (1, 1):
                x = _unit(size, 2 * i, 2 * j + 1) + _unit(size, 2 * j, 2 * i + 1)
            else:
                x = _unit(size, 2 * j + 1, 2 * i) + _unit(size, 2 * i + 1, 2 * j)
        vectors[alpha] = x
    cartan = tuple(
        _unit(size, 2 * i, 2 * i) - _unit(size, 2 * i + 1, 2 * i + 1)
        for i in range(half)
    )
    return system, vectors, cartan


def _paired_symplectic_form(half: int) -> DenseMatrix:
    size = 2 * half
    grid = [[0] * size for _ in range(size)]
    for i in range(half):
        grid[2 * i][2 * i + 1] = 1
        grid[2 * i + 1][2 * i] = -1
    return DenseMatrix(grid)


def _traceless_diagonal_basis(size: int):
    return tuple(
        _unit(size, a, a) - _unit(size, a + 1, a + 1) for a in range(size - 1)
    )


def _identity_map(x):
    return x


def _present(spec: RealFormSpec) -> _Presentation:
    n = spec.matrix_size
    if spec.family == "su":
        p, q = spec.params
        system, vectors, coord = _a_root_vectors(n)
        j = _exchange_matrix(n, p)

        def sigma(x, j=j):
            return (j * x.conj_transpose() * j).scale(-1)

        def theta(x, j=j):
            return j * x * j

        h_minus = tuple(
            _unit(n, i, i) - _unit(n, n - 1 - i, n - 1 - i) for i in range(p)
        )
        raw = [_unit(n, i, i) + _unit(n, n - 1 - i, n - 1 - i) for i in range(p)]
        raw += [_unit(n, a, a) for a in range(p, n - p)]
        ident = DenseMatrix.identity(n)
        h_plus = tuple(
            (m - ident.scale(m.trace() / GaussRational.of(n))).scale(IUNIT)
            for m in raw[: q - 1]
        )
        return _Presentation(
            system, sigma, theta, _traceless_diagonal_basis(n), coord, vectors,
            h_minus, h_plus,
        )

    if spec.family == "slH":
        half = spec.params[0]
        system, vectors, coord = _a_root_vectors(n)
        j = _paired_symplectic_form(half)

        def sigma(x, j=j):
            return (j * x.conj() * j).scale(-1)

        def theta(x, j=j):
            return j * x.transpose() * j

        h_minus = tuple(
            _unit(n, 2 * i, 2 * i)
            + _unit(n, 2 * i + 1, 2 * i + 1)
            - _unit(n, 2 * i + 2, 2 * i + 2)
            - _unit(n, 2 * i + 3, 2 * i + 3)
            for i in range(half - 1)
        )
        h_plus = tuple(
            (_unit(n, 2 * i, 2 * i) - _unit(n, 2 * i + 1, 2 * i + 1)).scale(IUNIT)
            for i in range(half)
        )
        return _Presentation(
            system, sigma, theta, _traceless_diagonal_basis(n), coord, vectors,
            h_minus, h_plus,
        )

    if spec.family in ("so", "compact-so"):
        p = spec.params[0] if spec.family == "so" else 0
        system, vectors, cartan = _orthogonal_root_vectors(n)
        t = _exchange_matrix(n, p)

        def sigma(x, t=t):
            return (t * x.conj_transpose() * t).scale(-1)

        def theta(x, t=t):
            return t * x * t

        ell = n // 2
        h_minus = cartan[:p]
        h_plus = tuple(cartan[j].scale(IUNIT) for j in range(p, ell))
        return _Presentation(
            system, sigma, theta, cartan, cartan, vectors, h_minus, h_plus
        )

    if spec.family == "compact-sp":
        half = spec.params[0]
        system, vectors, cartan = _symplectic_root_vectors(half)
        h_plus = tuple(h.scale(IUNIT) for h in cartan)
        return _Presentation(
            system, compact_conjugation, _identity_map, cartan, cartan, vectors,
            (), h_plus,
        )

    # compact-u
    system, vectors, coord = _a_root_vectors(n)
    cartan = tuple(_unit(n, a, a) for a in range(n))
    h_plus = tuple(h.scale(IUNIT) for h in cartan)
    return _Presentation(
        system, compact_conjugation, _identity_map, cartan, coord, vectors,
        (), h_plus,
    )


def _k_dimension(spec: RealFormSpec) -> int:
    if spec.family == "su":
        p, q = spec.params
        return p * p + q * q - 1
    if spec.family in ("slH", "compact-sp"):
        half = spec.params[0]
        return half * (2 * half + 1)
    if spec.family == "so":
        p, q = spec.params
        return (p * (p - 1) + q * (q - 1)) // 2
    if spec.family == "compact-so":
        n = spec.params[0]
        return n * (n - 1) // 2
    n = spec.params[0]
    return n * n


# ---------------------------------------------------------------------------
# building and verifying a form
# ---------------------------------------------------------------------------


def _first_nonzero(x: DenseMatrix):
    for i, row in enumerate(x.entries):
        for j, v in enumerate(row):
            if v:
                return i, j
    raise ValueError("zero matrix has no nonzero entry")


def _ad_eigenvalue(h: DenseMatrix, x: DenseMatrix) -> GaussRational:
    """The scalar c with [h, x] = c x; asserts x really is an eigenvector."""
    b = h.bracket(x)
    i, j = _first_nonzero(x)
    val = b[i, j] / x[i, j]
    assert b == x.scale(val), "not an ad-eigenvector"
    return val


def _root_image(form: RealForm, y: DenseMatrix):
    """Identify y as c * X_beta for a root beta; returns (beta, c)."""
    assert not y.is_zero()
    coords = []
    for h in form.coord_elements:
        val = _ad_eigenvalue(h, y)
        assert not val.im and val.re.denominator == 1
        coords.append(int(val.re))
    beta = tuple(coords)
    assert form.system.is_root(beta), f"{beta} is not a root"
    xb = form.root_vector(beta)
    i, j = _first_nonzero(xb)
    c = y[i, j] / xb[i, j]
    assert y == xb.scale(c)
    return beta, c


def _unflatten(row, n: int) -> DenseMatrix:
    return DenseMatrix([[row[i * n + j] for j in range(n)] for i in range(n)])


def _gl_space(sub: Subalg, n: int) -> Subspace:
    return canonicalize([m.flatten() for m in sub.matrices()], n * n)


def _psd_rank(gram):
    """Rank of a symmetric rational matrix if it is positive semidefinite,
    else None.  Diagonal-pivot Schur elimination; for a PSD matrix a zero
    diagonal forces a zero row, which is exactly what gets checked."""
    m = [list(row) for row in gram]
    active = list(range(len(m)))
    rank = 0
    while active:
        piv = None
        for i in active:
            if m[i][i] < 0:
                return None
            if m[i][i] > 0:
                piv = i
                break
        if piv is None:
            for i in active:
                for j in active:
                    if m[i][j]:
                        return None
            break
        rank += 1
        active.remove(piv)
        p = m[piv][piv]
        for i in active:
            f = m[i][piv] / p
            if f:
                for j in active:
                    m[i][j] -= f * m[piv][j]
    return rank


def _assert_compact_trace_form(g_basis, tau):
    """The tau-fixed real span must carry a negative-definite trace form."""
    vecs = []
    for b in g_basis:
        for y in (b + tau(b), (b - tau(b)).scale(IUNIT)):
            if not y.is_zero():
                vecs.append(y)
    gram = []
    for a in vecs:
        row = []
        for c in vecs:
            t = a.trace_product(c)
            assert not t.im, "trace form is not real on the tau-fixed span"
            row.append(-t.re)
        gram.append(row)
    rank = _psd_rank(gram)
    assert rank is not None, "trace form is not negative semidefinite"
    assert rank == len(g_basis), "tau-fixed span has the wrong real dimension"


def build_real_form(spec) -> RealForm:
    """Build and verify a real form from a RealFormSpec or a tag string.

    Verification covers: the basis really spans g and is stable under both
    involutions, sigma and theta are commuting involutions whose composite is
    X -> -conj(X)^T, the root vectors have the advertised Cartan eigenvalues,
    k has the expected dimension and closes under brackets, the adapted
    Cartan pair has the right splitting, the induced root permutations are
    consistent, and the trace form on the tau-fixed real span is negative
    definite.  Results are cached per spec.
    """
    if isinstance(spec, str):
        spec = RealFormSpec.parse(spec)
    return _build(spec)


@lru_cache(maxsize=None)
def _build(spec: RealFormSpec) -> RealForm:
    pres = _present(spec)
    n = spec.matrix_size
    system = pres.system
    sigma, theta = pres.sigma, pres.theta

    def tau(x):
        return sigma(theta(x))

    g_basis = tuple(pres.cartan_basis) + tuple(
        pres.root_vectors[a] for a in system.roots_sorted
    )
    g_space = canonicalize([m.flatten() for m in g_basis], n * n)
    assert g_space.dim == len(g_basis), "presentation basis is dependent"
    for b in g_basis:
        assert sigma(sigma(b)) == b, "sigma is not an involution"
        assert theta(theta(b)) == b, "theta is not an involution"
        assert sigma(theta(b)) == theta(sigma(b)), "sigma and theta do not commute"
        assert tau(b) == compact_conjugation(b), "tau is not -conj(X)^T"
        assert g_space.contains(sigma(b).flatten()), "sigma leaves g"
        assert g_space.contains(theta(b).flatten()), "theta leaves g"
    for alpha in system.roots_sorted:
        x = pres.root_vectors[alpha]
        for c, h in zip(alpha, pres.coord_elements):
            assert h.bracket(x) == x.scale(c), "root vector eigenvalue mismatch"

    k_rows = []
    for b in g_basis:
        y = (b + theta(b)).scale(_HALF)
        if not y.is_zero():
            k_rows.append(y.flatten())
    k_space = canonicalize(k_rows, n * n)
    assert k_space.dim == _k_dimension(spec), "unexpected dim for the compact part"
    k_basis = [_unflatten(row, n) for row in k_space.basis]
    k = AmbientAlgebra(n, k_basis, name=f"k({spec})")

    h0 = tuple(pres.h_minus) + tuple(pres.h_plus)
    for b in h0:
        assert sigma(b) == b, "Cartan basis element is not sigma-fixed"
    for b in pres.h_minus:
        assert theta(b) == b.scale(-1)
    for b in pres.h_plus:
        assert theta(b) == b
    for i, a in enumerate(h0):
        for b in h0[i + 1 :]:
            assert a.bracket(b).is_zero(), "adapted Cartan is not abelian"
    cartan_space = canonicalize([m.flatten() for m in pres.cartan_basis], n * n)
    cartan_h0 = canonicalize([m.flatten() for m in h0], n * n)
    assert cartan_h0 == cartan_space, "h0 is not a real form of the Cartan"
    h_plus_space = canonicalize([m.flatten() for m in pres.h_plus], n * n)
    h_minus_space = canonicalize([m.flatten() for m in pres.h_minus], n * n)
    assert h_plus_space.dim == len(pres.h_plus)
    assert h_minus_space.dim == len(pres.h_minus)
    adapted = AdaptedPair(
        theta=theta,
        h0_basis=h0,
        h_plus_basis=tuple(pres.h_plus),
        h_minus_basis=tuple(pres.h_minus),
        cartan_h0=cartan_h0,
        h_plus=h_plus_space,
        h_minus=h_minus_space,
    )
    form = RealForm(
        spec=spec,
        n=n,
        system=system,
        k=k,
        adapted=adapted,
        sigma=sigma,
        theta=theta,
        tau=tau,
        cartan_basis=tuple(pres.cartan_basis),
        coord_elements=tuple(pres.coord_elements),
        root_vectors=dict(pres.root_vectors),
        cartan_space=cartan_space,
        k_space=k_space,
    )
    form.classification  # classify_roots verifies the root tags during the build
    _assert_compact_trace_form(g_basis, tau)
    return form


# ---------------------------------------------------------------------------
# root classification and the theta root sets
# ---------------------------------------------------------------------------


def classify_roots(form: RealForm) -> RootClassification:
    """Tag every root as real, imaginary (compact or noncompact) or complex.

    The permutation sigma_star is read off from sigma acting on the actual
    root spaces, then checked three ways: it must be an involution, theta
    must induce its negative, and the coarse tag must agree with the
    independent test by root values on the split and compact halves of h0.
    The fixed positive system is checked to be compatible (the conjugate of
    a positive complex root stays positive).
    """
    pair = form.adapted
    system = form.system
    sigma_star = {}
    theta_star = {}
    for alpha in system.roots_sorted:
        x = form.root_vector(alpha)
        sigma_star[alpha], _ = _root_image(form, form.sigma(x))
        theta_star[alpha], _ = _root_image(form, form.theta(x))
    for alpha in system.roots_sorted:
        assert sigma_star[sigma_star[alpha]] == alpha
        assert theta_star[alpha] == neg(sigma_star[alpha])
    positive = set(system.positive_roots)
    tags = {}
    for alpha in system.roots_sorted:
        x = form.root_vector(alpha)
        bar = sigma_star[alpha]
        if bar == alpha:
            tag = REAL
        elif bar == neg(alpha):
            tx = form.theta(x)
            if tx == x:
                tag = IMAGINARY_COMPACT
                assert form.k.contains_matrix(x)
            else:
                assert tx == x.scale(-1)
                tag = IMAGINARY_NONCOMPACT
                assert not form.k.contains_matrix(x)
        else:
            tag = COMPLEX
            if alpha in positive:
                assert bar in positive, "positive system is not compatible"
        vanishes_plus = all(
            not _ad_eigenvalue(b, x) for b in pair.h_plus_basis
        )
        vanishes_minus = all(
            not _ad_eigenvalue(b, x) for b in pair.h_minus_basis
        )
        assert vanishes_plus == (tag == REAL)
        assert vanishes_minus == (tag in (IMAGINARY_COMPACT, IMAGINARY_NONCOMPACT))
        tags[alpha] = tag
    return RootClassification(
        system=system, tags=tags, sigma_star=sigma_star, theta_star=theta_star
    )


def theta_sets(form: RealForm, crosses) -> ThetaSets:
    """Root sets of the flag parabolic marked by crosses, and their
    theta-stable cores.

    crosses are 1-based simple-root indices; the flag parabolic consists of
    the roots with nonnegative coefficients on every crossed simple root.
    """
    if isinstance(form, (str, RealFormSpec)):
        form = build_real_form(form)
    flag = parabolic_from_crosses(form.system, crosses)
    cls = form.classification
    flag_roots = frozenset(flag.q)
    flag_nilpotent = frozenset(flag.q_n)
    flag_reductive = frozenset(flag.q_r)
    projectable = flag_roots - cls.imaginary_noncompact_roots
    theta_core = frozenset(
        a for a in projectable if cls.theta_star[a] in projectable
    )
    theta_core_nilpotent = theta_core & flag_nilpotent
    theta_core_reductive = frozenset(
        a for a in flag_reductive if cls.theta_star[a] in flag_reductive
    )
    for part in (theta_core, theta_core_nilpotent, theta_core_reductive):
        assert is_closed(form.system, part), "theta core is not closed"
    return ThetaSets(
        crosses=tuple(sorted(set(int(c) for c in crosses))),
        flag=flag,
        flag_roots=flag_roots,
        flag_nilpotent=flag_nilpotent,
        flag_reductive=flag_reductive,
        projectable=projectable,
        theta_core=theta_core,
        theta_core_nilpotent=theta_core_nilpotent,
        theta_core_reductive=theta_core_reductive,
    )


# ---------------------------------------------------------------------------
# the minimal-orbit CR algebra
# ---------------------------------------------------------------------------


def build_minimal_orbit(form, crosses) -> MinimalOrbit:
    """The CR algebra v = f cap k for the flag parabolic f marked by crosses.

    v is computed twice: as a plain intersection of matrix spaces, and as
    the span of h_plus together with the k-projections of the theta-core
    root spaces.  The nilpotent ideal and the reductive part are likewise
    computed twice (structure algorithms vs root formula).  Any disagreement
    raises; so does a failure of n-reductivity.
    """
    if isinstance(form, (str, RealFormSpec)):
        form = build_real_form(form)
    sets = theta_sets(form, crosses)
    cls = form.classification
    n = form.n

    def project(x):
        return (x + form.theta(x)).scale(_HALF)

    for alpha in form.system.roots_sorted:
        x = form.root_vector(alpha)
        px = project(x)
        assert project(px) == px, "projection is not idempotent"
        assert px.is_zero() == (alpha in cls.imaginary_noncompact_roots)
        if not px.is_zero():
            assert form.k.contains_matrix(px)
            partner = neg(cls.sigma_star[alpha])
            pm = project(form.root_vector(partner))
            assert canonicalize([px.flatten()], n * n) == canonicalize(
                [pm.flatten()], n * n
            ), "projected root spaces of alpha and -bar(alpha) differ"

    flag_space = canonicalize(
        [m.flatten() for m in form.cartan_basis]
        + [form.root_vector(a).flatten() for a in sorted(sets.flag_roots)],
        n * n,
    )
    meet_space = flag_space.meet(form.k_space)
    formula_rows = [b.flatten() for b in form.adapted.h_plus_basis]
    for alpha in sorted(sets.theta_core):
        formula_rows.append(project(form.root_vector(alpha)).flatten())
    assert meet_space == canonicalize(formula_rows, n * n), (
        "matrix intersection and root formula disagree for v"
    )
    v = Subalg.from_matrices(form.k, [_unflatten(r, n) for r in meet_space.basis])

    n_reductive, nr, levi = n_reductive_split(v)
    nr_rows = [
        project(form.root_vector(a)).flatten()
        for a in sorted(sets.theta_core_nilpotent)
    ]
    assert _gl_space(nr, n) == canonicalize(nr_rows, n * n), (
        "matrix nilpotent ideal and root formula disagree"
    )
    levi_rows = [b.flatten() for b in form.adapted.h_plus_basis]
    for alpha in sorted(sets.theta_core_reductive):
        y = project(form.root_vector(alpha))
        if not y.is_zero():
            levi_rows.append(y.flatten())
    assert _gl_space(levi, n) == canonicalize(levi_rows, n * n), (
        "matrix reductive part and root formula disagree"
    )
    assert n_reductive
    return MinimalOrbit(
        form=form,
        crosses=sets.crosses,
        sets=sets,
        classification=cls,
        k=form.k,
        v=v,
        nr=nr,
        levi=levi,
        flag_space=flag_space,
    )


# ---------------------------------------------------------------------------
# regularity criteria by strongly orthogonal systems
# ---------------------------------------------------------------------------


def _first_violation(assignment, universe, system):
    for beta in sorted(universe):
        for alpha in assignment:
            total = root_sum(alpha, beta)
            if total in system.roots and total not in universe:
                return {"alpha": alpha, "beta": beta, "sum": total}
    return None


def type_criteria(form, crosses, orbit: MinimalOrbit | None = None) -> TypeCriteria:
    """Test the two strongly-orthogonal-system criteria for the minimal
    orbit marked by crosses.

    For each maximal set of pairwise strongly orthogonal real roots of the
    flag parabolic, and each admissible choice of signs, the type-I test
    asks that theta_core absorb sums with the system's roots, the type-II
    test asks the same of theta_core_reductive.  A criterion holds when some
    system passes.  The verdicts are cross-checked against the rank-based
    regularity report of the matrix build, which must agree exactly.  The
    root sets and the classification are read off the orbit, which is
    built here when not given.
    """
    if isinstance(form, (str, RealFormSpec)):
        form = build_real_form(form)
    if orbit is None:
        orbit = build_minimal_orbit(form, crosses)
    sets, cls = orbit.sets, orbit.classification
    system = form.system
    positive = set(system.positive_roots)

    available = {}
    for alpha in sorted(sets.flag_roots):
        if cls.tags[alpha] != REAL:
            continue
        rep = alpha if alpha in positive else neg(alpha)
        if rep not in sets.flag_roots:
            rep = neg(rep)
        available.setdefault(rep, set()).add(alpha)
    cliques = strongly_orthogonal_maximal_sets(system, list(available))
    systems = tuple(tuple(sorted(c)) for c in cliques)

    verdicts = {}
    witnesses = {}
    for label, universe in (
        ("type_I", sets.theta_core),
        ("type_II", sets.theta_core_reductive),
    ):
        passing = None
        failures = []
        for rep_system in systems:
            choices = [tuple(sorted(available[r])) for r in rep_system]
            hit = None
            for assignment in itertools.product(*choices):
                if _first_violation(assignment, universe, system) is None:
                    hit = tuple(sorted(assignment))
                    break
            if hit is not None:
                passing = hit
                break
            failures.append(
                {"system": rep_system,
                 **_first_violation(rep_system, universe, system)}
            )
        verdicts[label] = passing is not None
        if passing is not None:
            witnesses[label] = {"holds": True, "system": passing}
        else:
            witnesses[label] = {"holds": False, "counterexamples": tuple(failures)}

    report = regularity_type(orbit.v)
    assert verdicts["type_I"] == (report.kind == "I"), (
        "type-I criterion disagrees with the matrix rank test"
    )
    assert verdicts["type_II"] == (report.kind in ("I", "II")), (
        "type-II criterion disagrees with the matrix rank test"
    )
    return TypeCriteria(
        type_I=verdicts["type_I"],
        type_II=verdicts["type_II"],
        systems=systems,
        witnesses=witnesses,
        regularity=report,
    )


# ---------------------------------------------------------------------------
# embedding regular data for compact forms
# ---------------------------------------------------------------------------


def embed_regular(form, reg: RegularSpan) -> Subalg:
    """Realize toral-plus-rootset data as matrices inside k.

    Only compact forms qualify: there g = k, the root system of the
    presentation is the root system of k, and the coordinate elements span
    the Cartan, so the translation is basis bookkeeping.
    """
    if isinstance(form, (str, RealFormSpec)):
        form = build_real_form(form)
    if not form.compact:
        raise ValueError(
            "regular data embeds via the presentation tables only for compact "
            "forms, where g = k"
        )
    if reg.system != form.system:
        raise ValueError(
            f"regular data lives in {reg.system}, the form presents {form.system}"
        )
    mats = []
    for row in reg.toral.basis:
        h = DenseMatrix.zero(form.n, form.n)
        for c, elt in zip(row, form.coord_elements):
            if c:
                h = h + elt.scale(c)
        mats.append(h)
    for alpha in sorted(reg.rootset):
        mats.append(form.root_vector(alpha))
    return Subalg.from_matrices(form.k, mats)
