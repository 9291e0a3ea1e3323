"""Classical real forms in matrix presentations made by one rule.

The complex algebra g of a form is gl_n (sl_n for su and slH), so(B) or sp(J)
inside gl_n, for the anti-diagonal symmetric form B and the paired symplectic
form J.  Its root vectors are elementary matrices projected onto g, its
Cartan basis the projected diagonal ones (_root_vectors).  The real form is
cut out by sigma X = -J X* J with Cartan involution theta X = J X J, J the
exchange matrix of p index pairs (p = 0 for the compact forms, where sigma is
X -> -X* and theta the identity); slH keeps its own pair.  So the compact
conjugation tau = sigma o theta is exactly X -> -conj(X)^T, for every form.
With that normalization the sigma of matrixlie, restricted
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
import re
from functools import cached_property, lru_cache, partial

from crlie._record import _record
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
    _WHITESPACE,
    _densify,
    _from_nonzeros,
    _require,
    apply_sparse,
    canonicalize,
    combine,
    sparse,
    sparse_span,
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

_HALF = GaussRational(1) / 2

_PARAM_COUNT = {
    "su": 2,
    "slH": 1,
    "so": 2,
    "compact-u": 1,
    "compact-so": 1,
    "compact-sp": 1,
}


@_record(frozen=True)
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
        head, sep, tail = text.strip(_WHITESPACE).partition(":")
        if not sep or not tail:
            raise ValueError(f"malformed real-form tag {text!r}")
        params = tail.split(",")
        if not all(re.fullmatch(r"\s*[0-9]+\s*", p, re.ASCII) for p in params):
            raise ValueError(f"non-integer parameter in {text!r}")
        return RealFormSpec(head, tuple(map(int, params)))

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


@_record(frozen=True, eq=False)
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


@_record(frozen=True, eq=False)
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

    def __repr__(self):
        return f"RealForm({self.spec})"


@_record(eq=False)
class RootClassification:
    """Tags for every root under the conjugation, plus the two induced root
    permutations (sigma_star for sigma, theta_star for theta)."""

    system: RootSystem
    tags: dict
    sigma_star: dict
    theta_star: dict

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


@_record(eq=False)
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


@_record(eq=False)
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


@_record(eq=False)
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


@_record(eq=False)
class _Presentation:
    system: RootSystem
    sigma: object
    theta: object
    cartan_basis: tuple
    coord_elements: tuple
    root_vectors: dict
    h_minus: tuple
    h_plus: tuple


def _exchange_matrix(n: int, pairs: int) -> DenseMatrix:
    """Permutation matrix swapping row i with row n-1-i for i < pairs."""
    perm = list(range(n))
    for i in range(pairs):
        perm[i], perm[n - 1 - i] = perm[n - 1 - i], perm[i]
    return DenseMatrix([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)])


def _root_vectors(kind: str, size: int):
    """The root system, a root vector per root and the coordinate elements
    of g = gl_size (kind "A"), so(B) ("so") or sp(J) ("sp").

    The invariant form pairs each index b with b*: B is the anti-diagonal
    symmetric form, b* = size-1-b; J has the blocks [[0, 1], [-1, 0]] on the
    index pairs (2i, 2i+1), b* = b xor 1.  The unit vector e_a has weight
    w(a): e_a for gl; e_1 ... e_l, then 0 if size is odd, then -e_l ... -e_1
    for B; e_i at 2i and -e_i at 2i+1 for J.  E_ab projects onto g as
    X_ab = E_ab + s E_b*a* (up to a factor 2), with s = -1 for B and
    -(-1)^(a+b) for J: a root vector for w(a) - w(b).  When (b*, a*) = (a, b)
    it is E_ab itself, a long root of sp (for B, 2w(a) is no root).  Each
    root takes the X_ab of its first (a, b) in row-major order, and the
    coordinate elements are the X_aa with w(a) = e_1, e_2, ...  _build checks
    all of it on the matrices.
    """
    rank = size if kind == "A" else size // 2

    def unit(i, c=1):
        return tuple(c if k == i else 0 for k in range(rank))

    # partner(a, b) = (b*, a*, s): the second entry of X_ab and its sign
    if kind == "A":
        system = build_root_system("A", size - 1)
        weights = [unit(a) for a in range(size)]
        partner = None
    elif kind == "so":
        system = build_root_system("B" if size % 2 else "D", rank)
        weights = [unit(a) for a in range(rank)] + [(0,) * rank] * (size % 2)
        weights += [unit(a, -1) for a in reversed(range(rank))]

        def partner(a, b):
            return size - 1 - b, size - 1 - a, -ONE

    else:
        system = build_root_system("C", rank)
        weights = [unit(a // 2, 1 - 2 * (a % 2)) for a in range(size)]

        def partner(a, b):
            return b ^ 1, a ^ 1, ONE if (a + b) % 2 else -ONE

    def x(a, b):
        rows = [()] * size
        rows[a] = ((b, ONE),)
        if partner:
            c, d, s = partner(a, b)
            if (c, d) != (a, b):
                rows[c] = ((d, s),)
        return _from_nonzeros(size, size, tuple(rows))

    vectors = {}
    for a, b in itertools.product(range(size), repeat=2):
        alpha = tuple(p - q for p, q in zip(weights[a], weights[b]))
        if alpha in system.roots and alpha not in vectors:
            vectors[alpha] = x(a, b)
    _require(vectors.keys() == system.roots, "root vectors do not cover the roots")
    coord = tuple(x(a, a) for a in range(size) if 1 in weights[a])
    return system, vectors, coord


def _present(spec: RealFormSpec) -> _Presentation:
    n = spec.matrix_size
    family = spec.family
    kind = "so" if family.endswith("so") else "sp" if family == "compact-sp" else "A"
    system, vectors, coord = _root_vectors(kind, n)
    cartan = coord
    if family in ("su", "slH"):
        cartan = tuple(coord[a] - coord[a + 1] for a in range(n - 1))

    if family == "slH":
        half = spec.params[0]
        # the paired symplectic form: [[0, 1], [-1, 0]] on each (2i, 2i+1)
        j = _from_nonzeros(
            n, n, tuple(((a ^ 1, -ONE if a % 2 else ONE),) for a in range(n))
        )

        def sigma(x, j=j):
            return (j * x.conj() * j).scale(-1)

        def theta(x, j=j):
            return j * x.transpose() * j

        h_minus = tuple(
            coord[2 * i] + coord[2 * i + 1] - coord[2 * i + 2] - coord[2 * i + 3]
            for i in range(half - 1)
        )
        h_plus = tuple(
            (coord[2 * i] - coord[2 * i + 1]).scale(IUNIT) for i in range(half)
        )
        return _Presentation(
            system, sigma, theta, cartan, coord, vectors, h_minus, h_plus
        )

    # compact forms: p = 0, sigma is X -> -X* and theta the identity
    p = 0 if spec.compact else spec.params[0]
    j = _exchange_matrix(n, p)

    def sigma(x, j=j):
        return (j * x.conj_transpose() * j).scale(-1)

    def theta(x, j=j):
        return j * x * j

    if family == "su":
        h_minus = tuple(coord[i] - coord[n - 1 - i] for i in range(p))
        raw = [coord[i] + coord[n - 1 - i] for i in range(p)] + list(coord[p : n - p])
        ident = DenseMatrix.identity(n)
        h_plus = tuple(
            (m - ident.scale(m.trace() / GaussRational.of(n))).scale(IUNIT)
            for m in raw[: spec.params[1] - 1]
        )
    else:
        h_minus = cartan[:p]
        h_plus = tuple(h.scale(IUNIT) for h in cartan[p:])
    return _Presentation(system, sigma, theta, cartan, coord, vectors, h_minus, h_plus)


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


def _project(g_theta, c) -> tuple:
    return combine(((0, _HALF), (1, _HALF)), (c, apply_sparse(g_theta, c)))


def build_real_form(spec) -> RealForm:
    """Build and verify a real form from a RealFormSpec or a tag string.

    On matrices: the basis of g is independent, its root vectors have the
    advertised Cartan eigenvalues, tau = sigma o theta is X -> -conj(X)^T,
    and h0 is abelian.  sigma and theta keep g and are stored as sparse maps
    on its coordinates, which must keep the Cartan and send each root vector
    to a multiple of one root vector.  On coordinates: sigma and theta are
    commuting involutions, k has the expected dimension (its closure under
    brackets is checked by AmbientAlgebra), h0 is a sigma-fixed basis of
    the Cartan split by theta, and the induced root permutations are
    consistent.  The trace form is then negative definite on the tau-fixed
    real span of g: that span consists of skew-Hermitian matrices, where
    -tr(YZ) is the Frobenius inner product.  Results are cached per spec.
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
        _require(tracker.add(b), "presentation basis is dependent")

    def coords(x):
        c = tracker.express(x)
        _require(c is not None, "sigma, theta or h0 leaves g")
        return c

    g_sigma, g_theta = [], []
    for j, b in enumerate(g_basis):
        tb = theta(b)
        # tau and X -> -conj(X)^T are antilinear, so this makes them agree on
        # g; sigma(b), theta(b) lie in g (coords below), so g is tau-stable and
        # its tau-fixed real span, of real dimension dim g, is skew-Hermitian.
        # There -tr(YZ) is the Frobenius inner product: definite, rank dim g.
        _require(sigma(tb) == compact_conjugation(b), "tau is not -conj(X)^T")
        for image, columns in ((sigma(b), g_sigma), (tb, g_theta)):
            col = sparse(coords(image))
            keeps_roots = len(col) == 1 and col[0][0] >= rank
            _require(
                all(k < rank for k, _ in col) if j < rank else keeps_roots,
                "sigma or theta mixes the Cartan and the root spaces",
            )
            columns.append(col)
    sig = partial(apply_sparse, g_sigma, antilinear=True)
    th = partial(apply_sparse, g_theta)
    units = Subspace.full(dim)._nz
    for e in units:
        _require(sig(sig(e)) == e, "sigma is not an involution")
        _require(th(th(e)) == e, "theta is not an involution")
        _require(sig(th(e)) == th(sig(e)), "sigma and theta do not commute")
    for alpha in system.roots_sorted:
        x = pres.root_vectors[alpha]
        for c, h in zip(alpha, pres.coord_elements):
            _require(h.bracket(x) == x.scale(c), "root vector eigenvalue mismatch")

    k_space = sparse_span([_project(g_theta, e) for e in units], dim)
    _require(k_space.dim == _k_dimension(spec), "unexpected dim for the compact part")
    g_flat = [sparse(b.flatten()) for b in g_basis]
    k_basis = [
        DenseMatrix.from_flat(_densify(combine(row, g_flat), n * n), n)
        for row in k_space._nz
    ]
    k = AmbientAlgebra(n, k_basis, name=f"k({spec})")

    h0 = tuple(pres.h_minus) + tuple(pres.h_plus)
    h0_coords = [coords(h) for h in h0]
    signs = [-1] * len(pres.h_minus) + [1] * len(pres.h_plus)
    for c, sign in zip(map(sparse, h0_coords), signs):
        _require(sig(c) == c, "Cartan basis element is not sigma-fixed")
        _require(th(c) == tuple((j, sign * x) for j, x in c), "wrong theta-eigenvalue on h0")
    _require(
        len(h0) == rank and canonicalize(h0_coords, dim)._nz == units[:rank],
        "h0 is not a basis of the Cartan",
    )
    for i, a in enumerate(h0):
        for b in h0[i + 1 :]:
            _require(a.bracket(b).is_zero(), "adapted Cartan is not abelian")
    on_coord = SpanTracker(n * n)
    for h in pres.coord_elements:
        on_coord.add(h)
    weights = [on_coord.express(h) for h in h0]
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
            in_k = form.k_space._contains_nz(((j, ONE),))
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
    """The span of rows of g coordinates, as nonzeros, in k's coordinates.
    k's basis is the RREF basis of k_space, so reducing a row of k by it
    leaves no residual and its coefficients are the row's k coordinates."""
    out = []
    for row in rows:
        w = dict(row)
        out.append(form.k_space._reduce_nz(w))
        _require(not w, "element outside k")
    return sparse_span(out, form.k.dim)


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
    units = Subspace.full(dim)._nz

    def projected(alphas):
        return [
            _project(form.g_theta, units[form.root_index[a]]) for a in sorted(alphas)
        ]

    flag_space = sparse_span(
        list(units[: len(form.cartan_basis)])
        + [units[form.root_index[a]] for a in sorted(sets.flag_roots)],
        dim,
    )
    meet_space = flag_space.meet(form.k_space)
    h_plus = list(map(sparse, form.adapted.h_plus_coords))
    _require(
        meet_space == sparse_span(h_plus + projected(sets.theta_core), dim),
        "flag space meet k and root formula disagree for v",
    )
    v = Subalg(form.k, _k_span(form, meet_space._nz))

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


def type_criteria(orbit: MinimalOrbit) -> TypeCriteria:
    """Test the two strongly-orthogonal-system criteria for a minimal orbit.

    For each maximal set of pairwise strongly orthogonal real roots of the
    flag parabolic, and each admissible choice of signs, the type-I test
    asks that theta_core absorb sums with the system's roots, the type-II
    test asks the same of theta_core_reductive.  A criterion holds when some
    system passes.  The verdicts are cross-checked against the rank-based
    regularity report of the matrix build, which must agree exactly.  The
    root sets and the classification are read off the orbit.
    """
    sets, cls = orbit.sets, orbit.classification
    system = orbit.form.system
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
    units = Subspace.full(form.k_space.ambient_dim)._nz
    rows = list(reg.toral._nz)
    rows += [units[form.root_index[a]] for a in sorted(reg.rootset)]
    return Subalg(form.k, _k_span(form, rows))
