"""Classical real forms in fixed matrix presentations.

Each supported family carries a hard-wired complex matrix algebra g inside
gl_n, a conjugation sigma cutting out the real form, and a Cartan involution
theta chosen so that the compact conjugation tau = sigma o theta is exactly
X -> -conj(X)^T.  With that normalization the sigma of matrixlie, restricted
to the theta-fixed subalgebra k, is the real structure of the maximal compact
subgroup, so the CR machinery of crcore and regularize applies to subalgebras
of k without any change of coordinates.

The presentation is checked on matrices once per form.  From then on g is
handled in the coordinates of its basis (the Cartan basis, then one root
vector per root), where sigma and theta are sparse maps sending each root
vector to a multiple of one root vector.  The root classification, k, the
flag parabolic f and the CR algebra v = f cap k of the minimal real orbit
are computed on those coordinates; k's matrices are made once, for its
AmbientAlgebra.  Every root-combinatorial formula (for v, for its nilpotent
ideal, for its reductive part) is checked against an independent route, the
meet of f with k or the structure algorithms, on every build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from crlie.crcore import (
    RegularityReport,
    n_reductive_split,
    regularity_type,
)
from crlie.exactlin import (
    IUNIT,
    ONE,
    ZERO,
    DenseMatrix,
    GaussRational,
    SpanTracker,
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

    The basis tuples are real bases (matrices fixed by sigma).  h_plus_coords
    holds h_plus in g coordinates; the weights hold each h in the coordinates
    of coord_elements, so a root alpha takes the value sum_i w_i alpha_i on h.
    """

    h0_basis: tuple
    h_plus_basis: tuple
    h_minus_basis: tuple
    h_plus_coords: tuple
    h_plus_weights: tuple
    h_minus_weights: tuple


@dataclass(frozen=True, eq=False)
class RealForm:
    """A built real form: verified involutions, the compact subalgebra k as
    an AmbientAlgebra, root vectors, and the adapted Cartan pair.

    g coordinates refer to cartan_basis, then the root vectors in the order
    of root_index.  g_sigma and g_theta hold sigma(b_j) and theta(b_j) as
    sparse (index, coefficient) lists; k's basis is the RREF basis of
    k_space, its span in g coordinates.
    """

    spec: RealFormSpec
    n: int
    system: RootSystem
    k: AmbientAlgebra
    adapted: AdaptedPair
    sigma: object
    theta: object
    cartan_basis: tuple
    coord_elements: tuple
    root_vectors: dict
    root_index: dict
    g_sigma: tuple
    g_theta: tuple
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


def _require(ok, message):
    """An internal check; unlike assert it also runs under python -O."""
    if not ok:
        raise AssertionError(message)


def _unit_row(dim: int, j: int) -> tuple:
    return tuple(ONE if i == j else ZERO for i in range(dim))


def _apply(columns, c, antilinear=False) -> tuple:
    """c under the map whose j-th column is the sparse list columns[j]; an
    antilinear map conjugates c first."""
    out = [ZERO] * len(columns)
    for x, col in zip(c, columns):
        if x:
            x = x.conjugate() if antilinear else x
            for k, s in col:
                out[k] = out[k] + x * s
    return tuple(out)


def _project(g_theta, c) -> tuple:
    return tuple((a + b) * _HALF for a, b in zip(c, _apply(g_theta, c)))


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


def _assert_compact_trace_form(g_basis):
    """The tau-fixed real span must carry a negative-definite trace form."""
    vecs = []
    for b in g_basis:
        tb = compact_conjugation(b)
        for y in (b + tb, (b - tb).scale(IUNIT)):
            if not y.is_zero():
                vecs.append(y)
    gram = []
    for a in vecs:
        row = []
        for c in vecs:
            t = a.trace_product(c)
            _require(not t.im, "trace form is not real on the tau-fixed span")
            row.append(-t.re)
        gram.append(row)
    rank = _psd_rank(gram)
    _require(rank is not None, "trace form is not negative semidefinite")
    _require(rank == len(g_basis), "tau-fixed span has the wrong real dimension")


def build_real_form(spec) -> RealForm:
    """Build and verify a real form from a RealFormSpec or a tag string.

    On matrices: the basis of g is independent, its root vectors have the
    advertised Cartan eigenvalues, tau = sigma o theta is X -> -conj(X)^T,
    h0 is abelian, and the trace form on the tau-fixed real span is negative
    definite.  sigma and theta keep g and are stored as sparse maps on its
    coordinates, which must keep the Cartan and send each root vector to a
    multiple of one root vector.  On coordinates: sigma and theta are
    commuting involutions, k has the expected dimension (its closure under
    brackets is checked by AmbientAlgebra), h0 is a sigma-fixed basis of
    the Cartan split by theta, and the induced root permutations are
    consistent.  Results are cached per spec.
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
    rank = len(pres.cartan_basis)
    g_basis = tuple(pres.cartan_basis) + tuple(
        pres.root_vectors[a] for a in system.roots_sorted
    )
    dim = len(g_basis)
    tracker = SpanTracker(n * n)
    for b in g_basis:
        _require(tracker.add(b.flatten()), "presentation basis is dependent")

    def coords(x):
        c = tracker.express(x.flatten())
        _require(c is not None, "sigma, theta or h0 leaves g")
        return c

    g_sigma, g_theta = [], []
    for j, b in enumerate(g_basis):
        tb = theta(b)
        _require(sigma(tb) == compact_conjugation(b), "tau is not -conj(X)^T")
        for image, columns in ((sigma(b), g_sigma), (tb, g_theta)):
            col = tuple((k, x) for k, x in enumerate(coords(image)) if x)
            keeps_roots = len(col) == 1 and col[0][0] >= rank
            _require(
                all(k < rank for k, _ in col) if j < rank else keeps_roots,
                "sigma or theta mixes the Cartan and the root spaces",
            )
            columns.append(col)
    sig = partial(_apply, g_sigma, antilinear=True)
    th = partial(_apply, g_theta)
    units = [_unit_row(dim, j) for j in range(dim)]
    for e in units:
        _require(sig(sig(e)) == e, "sigma is not an involution")
        _require(th(th(e)) == e, "theta is not an involution")
        _require(sig(th(e)) == th(sig(e)), "sigma and theta do not commute")
    for alpha in system.roots_sorted:
        x = pres.root_vectors[alpha]
        for c, h in zip(alpha, pres.coord_elements):
            _require(h.bracket(x) == x.scale(c), "root vector eigenvalue mismatch")

    k_space = canonicalize([_project(g_theta, e) for e in units], dim)
    _require(k_space.dim == _k_dimension(spec), "unexpected dim for the compact part")
    k_basis = [
        sum((b.scale(x) for x, b in zip(row, g_basis) if x), DenseMatrix.zero(n, n))
        for row in k_space.basis
    ]
    k = AmbientAlgebra(n, k_basis, name=f"k({spec})")

    h0 = tuple(pres.h_minus) + tuple(pres.h_plus)
    h0_coords = [coords(h) for h in h0]
    signs = [-1] * len(pres.h_minus) + [1] * len(pres.h_plus)
    for c, sign in zip(h0_coords, signs):
        _require(sig(c) == c, "Cartan basis element is not sigma-fixed")
        _require(th(c) == tuple(sign * x for x in c), "wrong theta-eigenvalue on h0")
    _require(
        len(h0) == rank and canonicalize(h0_coords, dim).basis == tuple(units[:rank]),
        "h0 is not a basis of the Cartan",
    )
    for i, a in enumerate(h0):
        for b in h0[i + 1 :]:
            _require(a.bracket(b).is_zero(), "adapted Cartan is not abelian")
    on_coord = SpanTracker(n * n)
    for h in pres.coord_elements:
        on_coord.add(h.flatten())
    weights = [on_coord.express(h.flatten()) for h in h0]
    _require(None not in weights, "h0 leaves the span of the coordinate elements")

    split = len(pres.h_minus)
    adapted = AdaptedPair(
        h0_basis=h0,
        h_plus_basis=tuple(pres.h_plus),
        h_minus_basis=tuple(pres.h_minus),
        h_plus_coords=tuple(h0_coords[split:]),
        h_plus_weights=tuple(weights[split:]),
        h_minus_weights=tuple(weights[:split]),
    )
    form = RealForm(
        spec=spec,
        n=n,
        system=system,
        k=k,
        adapted=adapted,
        sigma=sigma,
        theta=theta,
        cartan_basis=tuple(pres.cartan_basis),
        coord_elements=tuple(pres.coord_elements),
        root_vectors=dict(pres.root_vectors),
        root_index={a: rank + i for i, a in enumerate(system.roots_sorted)},
        g_sigma=tuple(g_sigma),
        g_theta=tuple(g_theta),
        k_space=k_space,
    )
    form.classification  # classify_roots verifies the root tags during the build
    _assert_compact_trace_form(g_basis)
    return form


# ---------------------------------------------------------------------------
# root classification and the theta root sets
# ---------------------------------------------------------------------------


def classify_roots(form: RealForm) -> RootClassification:
    """Tag every root as real, imaginary (compact or noncompact) or complex.

    sigma_star and theta_star are read off sigma and theta on g's root
    coordinates, then checked: sigma_star is an involution, theta induces
    its negative, k holds the compact and not the noncompact imaginary root
    vectors, and the coarse tag agrees with the independent test by root
    values on the split and compact halves of h0.  The fixed positive system
    is checked to be compatible (the conjugate of a positive complex root
    stays positive).
    """
    pair = form.adapted
    system = form.system
    roots = system.roots_sorted
    rank = len(form.cartan_basis)
    sigma_star = {}
    theta_star = {}
    for alpha in roots:
        ((s, _),) = form.g_sigma[form.root_index[alpha]]
        ((t, _),) = form.g_theta[form.root_index[alpha]]
        sigma_star[alpha], theta_star[alpha] = roots[s - rank], roots[t - rank]
    for alpha in roots:
        _require(sigma_star[sigma_star[alpha]] == alpha, "sigma_star is no involution")
        _require(theta_star[alpha] == neg(sigma_star[alpha]), "theta_star != -sigma_star")

    def vanishes(weights, alpha):
        return all(not sum((w * a for w, a in zip(ws, alpha)), ZERO) for ws in weights)

    positive = set(system.positive_roots)
    tags = {}
    for alpha in roots:
        bar = sigma_star[alpha]
        if bar == alpha:
            tag = REAL
        elif bar == neg(alpha):
            # theta_star fixes alpha: theta x = c x with c = +-1
            j = form.root_index[alpha]
            ((_, c),) = form.g_theta[j]
            in_k = form.k_space.contains(_unit_row(form.k_space.ambient_dim, j))
            _require(in_k == (c == ONE), "imaginary root vector misplaced in k")
            tag = IMAGINARY_COMPACT if c == ONE else IMAGINARY_NONCOMPACT
        else:
            tag = COMPLEX
            if alpha in positive:
                _require(bar in positive, "positive system is not compatible")
        on_plus = vanishes(pair.h_plus_weights, alpha)
        on_minus = vanishes(pair.h_minus_weights, alpha)
        _require(on_plus == (tag == REAL), "real tag disagrees with h_plus")
        _require(on_minus == (bar == neg(alpha)), "imaginary tag disagrees with h_minus")
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
        _require(is_closed(form.system, part), "theta core is not closed")
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


def _k_span(form: RealForm, rows) -> Subspace:
    """The span of rows of g coordinates, in k's coordinates.  k's basis is
    the RREF basis of k_space, so reducing a row of k by it leaves no
    residual and its coefficients are the row's k coordinates."""
    out = []
    for row in rows:
        residual, coeffs = form.k_space.reduce(row)
        _require(not any(residual), "element outside k")
        out.append(coeffs)
    return canonicalize(out, form.k.dim)


def build_minimal_orbit(form, crosses) -> MinimalOrbit:
    """The CR algebra v = f cap k for the flag parabolic f marked by crosses.

    v is computed twice, on g's coordinates: as the intersection of the
    flag space (the Cartan plus the flag root vectors) with k, and as the
    span of h_plus together with the k-projections of the theta-core root
    vectors.  The nilpotent ideal and the reductive part are likewise
    computed twice (structure algorithms vs root formula).  Any
    disagreement raises; so does a failure of n-reductivity.
    """
    if isinstance(form, (str, RealFormSpec)):
        form = build_real_form(form)
    sets = theta_sets(form, crosses)
    dim = form.k_space.ambient_dim

    def projected(alphas):
        return [
            _project(form.g_theta, _unit_row(dim, form.root_index[a]))
            for a in sorted(alphas)
        ]

    flag_space = canonicalize(
        [_unit_row(dim, j) for j in range(len(form.cartan_basis))]
        + [_unit_row(dim, form.root_index[a]) for a in sorted(sets.flag_roots)],
        dim,
    )
    meet_space = flag_space.meet(form.k_space)
    h_plus = list(form.adapted.h_plus_coords)
    _require(
        meet_space == canonicalize(h_plus + projected(sets.theta_core), dim),
        "flag space meet k and root formula disagree for v",
    )
    v = Subalg(form.k, _k_span(form, meet_space.basis))

    n_reductive, nr, levi = n_reductive_split(v)
    _require(
        nr.space == _k_span(form, projected(sets.theta_core_nilpotent)),
        "matrix nilpotent ideal and root formula disagree",
    )
    _require(
        levi.space == _k_span(form, h_plus + projected(sets.theta_core_reductive)),
        "matrix reductive part and root formula disagree",
    )
    _require(n_reductive, "minimal orbit algebra is not n-reductive")
    return MinimalOrbit(
        form=form,
        crosses=sets.crosses,
        sets=sets,
        classification=form.classification,
        k=form.k,
        v=v,
        nr=nr,
        levi=levi,
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
    _require(
        verdicts["type_I"] == (report.kind == "I"),
        "type-I criterion disagrees with the matrix rank test",
    )
    _require(
        verdicts["type_II"] == (report.kind in ("I", "II")),
        "type-II criterion disagrees with the matrix rank test",
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
    """Realize toral-plus-rootset data as a subalgebra of k.

    Only compact forms qualify: there g = k, the root system of the
    presentation is the root system of k, and the coordinate elements are
    the Cartan basis, so a toral row and a root are g coordinates as they
    stand, and k's coordinates follow from its RREF basis.
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
    _require(
        form.coord_elements == form.cartan_basis,
        "the coordinate elements of a compact form are not its Cartan basis",
    )
    dim = form.k_space.ambient_dim
    pad = (ZERO,) * (dim - len(form.cartan_basis))
    rows = [tuple(row) + pad for row in reg.toral.basis]
    rows += [_unit_row(dim, form.root_index[a]) for a in sorted(reg.rootset)]
    return Subalg(form.k, _k_span(form, rows))
