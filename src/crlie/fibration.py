"""Equivariant maps between CR algebras and the poset of compatible parabolics.

Covers the classification flags of a map (k0, v) -> (k0, e), membership and
maximal/minimal searches in Par(v) = {q parabolic : v in q, nr(v) cap L(q) = 0},
z-root decompositions of a parabolic, the lift v_q = v + nr(q), and the
homotopic characteristic of the intermediate fiber.  Matrix and t-regular
backends are implemented separately so tests can cross-check them.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from operator import add, mul

from crlie._record import _record
from crlie.crcore import (
    is_n_reductive,
    is_n_reductive_regular,
    levi_part,
    levi_part_regular,
    strengthens,
    strengthens_regular,
)
from crlie.exactlin import DenseMatrix, Subspace, canonicalize, kernel
from crlie.matrixlie import (
    Subalg,
    bracket_closure,
    centralizer,
    derived_series,
    is_subalgebra,
    maximal_torus,
)
from crlie.regularize import certify_parabolic
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSpan,
    RegularSubalgebra,
    RootSystem,
    _check_parabolic_mask,
    _with_coroots,
    lie_closure_regular,
    regular_sum,
)


@_record
class MapClassification:
    """Flags of an equivariant map (k0, v) -> (k0, e), plus the subspaces that
    were compared to decide them."""

    is_cr: bool
    is_submersion: bool
    is_spread: bool
    is_deployment: bool
    fibers_totally_real: bool
    fibers_totally_complex: bool
    witnesses: dict

    def __post_init__(self):
        if self.is_submersion and not self.is_spread:
            raise AssertionError("a submersion that is not a spread")
        if self.is_deployment and not (self.is_spread and self.fibers_totally_real):
            raise AssertionError(
                "a deployment that is not a spread with totally real fibers"
            )

    def flags(self) -> dict:
        """The six flags by name, for reports: every field but witnesses."""
        return {name: getattr(self, name) for name in self._fields[:-1]}


def _classified(e, is_cr, same, joined, lv, le, v_plus_le, closure, vse, esv):
    """The flags of a map to e, from the subspaces compared: same decides
    that two of them are equal and joined takes a sum."""
    totally_real = is_cr and same(vse, lv) and same(esv, lv)
    is_spread = is_cr and same(closure, e)
    return MapClassification(
        is_cr=is_cr,
        is_submersion=is_cr and same(v_plus_le, e),
        is_spread=is_spread,
        is_deployment=is_spread and totally_real,
        fibers_totally_real=totally_real,
        fibers_totally_complex=is_cr and same(joined(vse, esv), le),
        witnesses={
            "levi_v": lv,
            "levi_e": le,
            "v_plus_levi_e": v_plus_le,
            "lie_closure": closure,
            "v_meet_conj_e": vse,
            "e_meet_conj_v": esv,
        },
    )


def classify_map(v: Subalg, e: Subalg) -> MapClassification:
    """Classify (k0, v) -> (k0, e) for matrix subalgebras.

    The map is CR iff v is contained in e; a submersion iff e = v + L(e); a
    spread iff e is generated by v + L(e) as a Lie algebra.  Fibers are
    totally real iff v cap sigma(e) = e cap sigma(v) = L(v) and totally
    complex iff those two meets sum to L(e).  The fiber conditions are only
    meaningful for CR maps and are reported false otherwise.
    """
    if v.ambient is not e.ambient:
        raise ValueError("map endpoints live in different ambient algebras")
    le = levi_part(e)
    v_plus_le = v.join(le)
    return _classified(
        e, v.is_subspace_of(e), lambda a, b: a.space == b.space, Subalg.join,
        levi_part(v), le, v_plus_le, bracket_closure(v_plus_le),
        v.meet(e.sigma_image()), e.meet(v.sigma_image()),
    )


def classify_regular(
    v: RegularSubalgebra, e: RegularSubalgebra
) -> MapClassification:
    """Same flags as classify_map, decided purely on toral parts and root
    sets."""
    if v.system != e.system:
        raise ValueError("map endpoints live in different root systems")
    system = v.system
    le = levi_part_regular(e)
    v_plus_le = regular_sum(system, [v, le])
    return _classified(
        e, v.is_contained_in(e), RegularSpan.same_span,
        lambda a, b: regular_sum(system, [a, b]), levi_part_regular(v), le,
        v_plus_le, lie_closure_regular(system, v_plus_le, mode="algebra"),
        v.meets(e.conj()), e.meets(v.conj()),
    )


# ---------------------------------------------------------------------------
# the poset Par(v)
# ---------------------------------------------------------------------------


def par_membership(v: Subalg, q: Subalg) -> bool:
    """Is q in Par(v)?  q must pass the parabolic certificate."""
    if v.ambient is not q.ambient:
        raise ValueError("v and q live in different ambient algebras")
    if not certify_parabolic(q).ok:
        raise ValueError("q does not certify as a parabolic subalgebra")
    return (
        v.is_subspace_of(q)
        and v.nilradical().meet(levi_part(q)).dim == 0
    )


def _par_test(v: RegularSubalgebra):
    """Membership in Par(v), for t-regular v, as a test on the root-index
    mask m of a parabolic Q: Q contains V and Q_r = Q & -Q misses nr(v)."""
    vmask, nr, neg = v._mask, v._nilpotent_mask, v.system._neg_mask
    return lambda m: m & vmask == vmask and not nr & m & neg(m)


def par_membership_regular(v: RegularSubalgebra, q: ParabolicRootSet) -> bool:
    """Is q in Par(v), for t-regular v?  Here v in q reads as rootset
    containment and nr(v) cap L(q) = 0 as disjointness from Q_r."""
    if v.system != q.system:
        raise ValueError("v and q live in different root systems")
    return _par_test(v)(q._mask)


def _center(system: RootSystem, roots) -> tuple:
    """z = {H in t : alpha(H) = 0 for every alpha in roots}, the center of
    the Levi algebra the roots span, with its basis scaled to integers:
    returns the subspace, the common denominator ``scale`` of its basis,
    and the basis rows times scale.  z is one kernel: of the roots, one of
    each pair +-alpha, and the equations of t."""
    if roots:
        positive = {max(a, tuple(-x for x in a)) for a in roots}
        center = kernel(DenseMatrix([*sorted(positive), *system._cartan_equations]))
    else:
        center = system.cartan
    # the basis is real: x._a / x._d is each entry in lowest terms
    rows = center.basis
    scale = math.lcm(*(x._d for row in rows for x in row))
    basis = [[x._a * (scale // x._d) for x in row] for row in rows]
    return center, scale, basis


def _start_chamber(v: RegularSubalgebra) -> int:
    """The mask of a member of Par(v) whose Levi is L0 = R cap span(V_r).

    Write V for the root set of v, V_r = V cap -V, N = V minus V_r (the
    roots of nr(v)) and z = {H in t : V_r(H) = 0}.  A parabolic q_A, the
    roots with alpha(A) >= 0 (every parabolic is one), is in Par(v) iff A
    lies in C = {A in z : beta(A) > 0 for beta in N}, which is convex and
    open in z.  The sum rho_N of the roots of N lies in C:

    - N is an ideal of V: for beta in N and alpha in V, a root beta + alpha
      lies in V, and not in V_r, or else -beta = -(beta + alpha) + alpha
      would lie in V.  So N is closed, and stable under adding roots of V_r.
    - For beta in N, the beta-strings through the roots other than +-beta
      partition them.  N being closed, a string meets N in an upper
      segment; the values <beta, .> along a string increase and are
      symmetric about 0, so the segment sums to >= 0.  So
      <beta, rho_N> >= |beta|^2 > 0.
    - For gamma in V_r, N is stable under adding +-gamma, so it is a union
      of whole gamma-strings, each summing to 0 against gamma (+-gamma are
      not in N).  So <gamma, rho_N> = 0, and rho_N lies in t, so in z.

    The start is the set of roots alpha with (<alpha, rho_N>, <alpha, h_1>,
    ..., <alpha, h_d>) >=_lex 0, for h_i the integer basis of z: the q_A of
    A = rho_N + eps h_1 + ... + eps^d h_d for small eps > 0, which lies in
    C.  A root outside span(V_r) is nonzero on some h_i, so the Levi of the
    start, the roots whose whole tuple is 0, is exactly L0.  No genericity
    is guessed."""
    system = v.system
    _, _, basis = _center(system, v.reductive_roots)
    rho = [sum(col) for col in zip(*v.nilpotent_roots)] or [0] * system.coord_dim
    grading = [rho] + basis
    zero = (0,) * len(grading)
    start = 0
    for k, alpha in enumerate(system.roots_sorted):
        if tuple(sum(map(mul, alpha, h)) for h in grading) >= zero:
            start |= 1 << k
    if not _par_test(v)(start):
        raise AssertionError("the start chamber is not in Par(v)")
    return start


def _supports(system: RootSystem, q: int, levi: int) -> tuple:
    """The z-supports of the roots, for a parabolic mask q with Levi mask
    levi.  B = Q_n | (levi cap R+) is a positive system; let Pi_z be its
    simple roots outside levi, d of them.  The support of a root of B is
    the bitmask of the positions in Pi_z where its coordinate on the simple
    roots of B is nonzero, and a root of -B gets the support of its
    negative.  The coordinates are nonnegative, so the support of a sum is
    the union of the supports, and they are read along
    ``RootSystem._positive_sums``.  Returns d, the list of supports by
    root index (0 on levi, nonzero elsewhere), and the pass over B as
    (mask of B, simple roots, sums), which ``_decompose`` reuses."""
    borel = q & ~levi | levi & system._positive_mask
    simple, sums = system._positive_sums(borel)
    support = [0] * len(system.roots_sorted)
    last = len(support) - 1
    d = 0
    for k in simple:
        if not levi >> k & 1:
            support[k] = support[last - k] = 1 << d
            d += 1
    for k, a, b in sums:
        support[k] = support[last - k] = support[a] | support[b]
    return d, support, (borel, simple, sums)


def _walls(system: RootSystem, q: int, d: int, support: list) -> list:
    """The walls of the parabolic mask q, given its supports from
    ``_supports``: for each position j of Pi_z, the mask X_j of the roots
    of Q_n supported on j alone.  These are the roots whose restriction to
    z is a multiple of the j-th simple z-root."""
    walls = [0] * d
    for k in system._mask_indices(q):
        s = support[k]
        if s and not s & s - 1:
            walls[s.bit_length() - 1] |= 1 << k
    return walls


def _chambers(system: RootSystem, start: int, nr: int, passes: dict | None = None):
    """Every chamber of C once, from the start chamber: yields each mask
    with d and its supports, as ``_supports`` gives them, and records its
    pass in passes, if given.

    The chambers are the members q of Par(v) whose Levi is L0 = Q_r of the
    start: the q_A with A in C off every root hyperplane of z.  Restricted
    to z, the roots of B = Q_n | (L0 cap R+) are the nonnegative integer
    combinations of the simple ones outside L0, which form a basis of z*
    (the proof at ``z_root_decomposition``).  So the chamber of q is the
    simplicial cone where those simple z-roots are positive, and its walls
    are theirs (``_walls``).  Across the wall j the roots whose restriction
    is a multiple of the j-th one, X_j, change sign and no other root does,
    so the neighbour is (q minus X_j) | -X_j, in Par(v) iff X_j misses N.
    C is convex and open in z, so a generic segment between two of its
    chambers stays in C and crosses walls only: the walk reaches every
    chamber."""
    neg = system._neg_mask
    levi = start & neg(start)
    seen, todo = {start}, [start]
    while todo:
        q = todo.pop()
        d, support, shared = _supports(system, q, levi)
        if passes is not None:
            passes[q] = shared
        yield q, d, support
        for x in _walls(system, q, d, support):
            if x & nr:
                continue
            flipped = q ^ x | neg(x)
            if flipped in seen:
                continue
            seen.add(flipped)
            todo.append(flipped)


def _check_answer(system: RootSystem, member, m: int):
    """Raise AssertionError unless the mask is a parabolic in Par(v)."""
    try:
        _check_parabolic_mask(system, m)
    except ValueError as exc:
        raise AssertionError(f"a Par(v) answer is not parabolic: {exc}") from None
    if not member(m):
        raise AssertionError("a Par(v) answer is not in Par(v)")


def _sorted_parabolics(system: RootSystem, masks, passes: dict) -> list:
    """The answers, each keeping its pass from passes for
    ``z_root_decompositions``."""
    out = []
    for m in sorted(masks, key=system._mask_order):
        q = ParabolicRootSet._from_mask(system, m)
        q._positive_pass = passes[m]
        out.append(q)
    return out


def _free_sets(d: int, edges: frozenset) -> list:
    """The maximal subsets of range(d), as bitmasks, that hold no edge."""
    free = {s for s in range(1 << d) if all(e & ~s for e in edges)}
    return [s for s in free if not any(t != s and t & s == s for t in free)]


def maximal_par(
    v: RegularSubalgebra, containing: ParabolicRootSet | None = None
) -> list[ParabolicRootSet]:
    """Inclusion-maximal elements of Par(v), sorted by ``sort_key``,
    optionally restricted to those containing a given parabolic of the same
    root system.  Any member strictly above a restricted element still
    contains the constraint, so the restricted maximal elements are maximal
    in Par(v) as well.

    Every member contains a chamber of ``_chambers``, and the parabolics
    containing a chamber q = P_J(B), with J the simple roots of
    B = Q_n | (L0 cap R+) in L0, are the P_{J|S}(B) for the subsets S of
    the other simple roots.  P_{J|S}(B) is q with the negatives of the
    roots of B supported in S added, and it is in Par(v) iff no root of N
    is supported in S.  So the maximal members above q are those of the
    maximal such S, and the maximal members of Par(v) are their union over
    the chambers.  Each answer is checked to be a parabolic in Par(v) with
    no upper cover in Par(v): adding the negatives of one wall of its own
    positive system (``_walls``) must put a root of N into its Levi.

    The walk visits every chamber of C, one per minimal member, whatever
    the answer: B7 with v = nr(P_1) walks 46 080 chambers for 1 answer."""
    if containing is not None and containing.system != v.system:
        raise ValueError("v and containing live in different root systems")
    system = v.system
    neg = system._neg_mask
    member = _par_test(v)
    nr = v._nilpotent_mask
    nr_indices = system._mask_indices(nr)
    start = _start_chamber(v)
    free_sets: dict = {}
    found = set()
    for q, d, support in _chambers(system, start, nr):
        edges = frozenset(map(support.__getitem__, nr_indices))
        if edges not in free_sets:
            free_sets[edges] = _free_sets(d, edges)
        indices = system._mask_indices(q)
        for free in free_sets[edges]:
            below = sum(1 << k for k in indices if not support[k] & ~free)
            found.add(q | neg(below))
    if containing is not None:
        c = containing._mask
        found = {m for m in found if m & c == c}
    passes = {}
    for m in found:
        _check_answer(system, member, m)
        d, support, passes[m] = _supports(system, m, m & neg(m))
        if any(member(m | neg(x)) for x in _walls(system, m, d, support)):
            raise AssertionError("a maximal element has an upper cover in Par(v)")
    return _sorted_parabolics(system, found, passes)


def minimal_par(v: RegularSubalgebra) -> list[ParabolicRootSet]:
    """Inclusion-minimal elements of Par(v), sorted by ``sort_key``: the
    chambers of ``_chambers``.

    Every member of Par(v) has a Levi containing L0 = R cap span(V_r), and
    one with Levi L0 is minimal: a member q' below q has Q'_r inside Q_r,
    so equal to it, and then |Q'| = |Q|.  A member with a larger Levi is
    some q_A with A in C on a root hyperplane, and contains the q_A' of
    the chambers next to A.  So the minimal members are the chambers, which
    the walk reaches without building any Weyl table.  Each is rechecked
    to be a parabolic in Par(v), to have Levi exactly L0, and to absorb
    nr(v) into its nilradical."""
    system = v.system
    neg = system._neg_mask
    member = _par_test(v)
    nr = v._nilpotent_mask
    start = _start_chamber(v)
    levi = start & neg(start)
    passes: dict = {}
    out = []
    for q, _, _ in _chambers(system, start, nr, passes):
        _check_answer(system, member, q)
        if q & neg(q) != levi:
            raise AssertionError(
                "a minimal element has a Levi root set other than R cap span(V_r)"
            )
        if nr & ~q | nr & neg(q):
            raise AssertionError("a minimal element does not absorb nr(v)")
        out.append(q)
    return _sorted_parabolics(system, out, passes)


def combine_parabolics(
    q1: Subalg, q2: Subalg, v: Subalg | None = None
) -> Subalg:
    """q = nr(q1) + q1 cap q2, again parabolic; with v given, membership of
    q1, q2 and of the result in Par(v) is enforced."""
    if v is not None and not (par_membership(v, q1) and par_membership(v, q2)):
        raise ValueError("inputs are not both in Par(v)")
    q = q1.nilradical().join(q1.meet(q2))
    if not certify_parabolic(q).ok:
        raise AssertionError("combined subalgebra failed the certificate")
    if v is not None and not par_membership(v, q):
        raise AssertionError("combined subalgebra is not in Par(v)")
    return q


def combine_parabolics_regular(
    q1: ParabolicRootSet,
    q2: ParabolicRootSet,
    v: RegularSubalgebra | None = None,
) -> ParabolicRootSet:
    if q1.system != q2.system:
        raise ValueError("parabolics live in different root systems")
    if v is not None and not (
        par_membership_regular(v, q1) and par_membership_regular(v, q2)
    ):
        raise ValueError("inputs are not both in Par(v)")
    q = ParabolicRootSet(q1.system, q1.q_n | (q1.q & q2.q))
    if v is not None and not par_membership_regular(v, q):
        raise AssertionError("combined parabolic is not in Par(v)")
    return q


# ---------------------------------------------------------------------------
# deployments
# ---------------------------------------------------------------------------


def deployment_verify(
    v: RegularSubalgebra, q: ParabolicRootSet, mode: str = "algebra"
) -> bool:
    """Does nr(v) + L(q) generate q in the given closure mode?

    For n-reductive v and q maximal in Par(v) the answer in "algebra" mode is
    a theorem; "module" mode asks for generation as an L(q)-module instead,
    which can genuinely fail.  When the algebra mode succeeds the resulting
    map is rechecked to be a deployment.
    """
    if not par_membership_regular(v, q):
        raise ValueError("q is not in Par(v)")
    if not is_n_reductive_regular(v):
        raise ValueError("deployment check needs an n-reductive v")
    system = v.system
    levi = q.levi()
    start = RegularSpan._from_mask(system, levi.toral, v._nilpotent_mask | levi._mask)
    closure = lie_closure_regular(system, start, mode=mode, levi=levi)
    ok = closure.same_span(q.to_regular())
    if ok and mode == "algebra":
        flags = classify_regular(v, q.to_regular())
        if not flags.is_deployment:
            raise AssertionError("generating parabolic is not a deployment")
    return ok


# ---------------------------------------------------------------------------
# z-root decompositions
# ---------------------------------------------------------------------------


@_record(frozen=True)
class ZRootDecomposition:
    """Decomposition of the root spaces of k under the center z of L(q).

    center is z, as a subspace of the Cartan coordinates of ``system``.
    classes holds each positive class as (key, mask), in key order: the key
    is the restriction of the class's roots to z, in the basis of center,
    times ``scale`` so that it is integer; bit k of the mask is set iff the
    k-th root of ``system.roots_sorted`` is in the class.  simple_keys is
    the frozenset of the keys of the simple classes.

    Three values are read off the fields, each built when first read.
    zroots lists every nonzero restriction nu, in ascending order, together
    with its component k_nu as a sorted root tuple; positive is the sublist
    of nu whose components fill nr(q); simple_zroots are the positive
    entries with unit coordinates in the basis of z* that they form.  Every
    positive entry is a unique nonnegative integer combination of the
    simple ones, which are the restrictions of the simple roots outside Q_r
    of the positive system Q_n | (Q_r cap R+).  ``positive_dims`` reads the
    masks only.  Equality and hashing compare the five fields only."""

    center: Subspace
    system: RootSystem
    scale: int
    classes: tuple
    simple_keys: frozenset

    def __init__(self, center, system, scale, classes, simple_keys):
        # built per Par(v) answer: faster than the generic __init__
        state = self.__dict__
        state["center"], state["system"], state["scale"] = center, system, scale
        state["classes"], state["simple_keys"] = classes, simple_keys

    @property
    def positive_dims(self) -> list:
        """The number of roots in each positive component, in key order."""
        return [m.bit_count() for _, m in self.classes]

    def _entry(self, key, mask) -> tuple:
        roots = compress(self.system.roots_sorted, self.system._flags(mask))
        return _unscaled(key, self.scale), tuple(roots)

    @cached_property
    def zroots(self) -> tuple:
        neg = self.system._neg_mask
        negative = tuple((tuple(-k for k in key), neg(m)) for key, m in self.classes)
        return tuple(self._entry(*c) for c in sorted(self.classes + negative))

    @cached_property
    def positive(self) -> tuple:
        return tuple(_unscaled(key, self.scale) for key, _ in self.classes)

    @cached_property
    def simple_zroots(self) -> tuple:
        return tuple(
            self._entry(key, m) for key, m in self.classes if key in self.simple_keys
        )


def _unscaled(key, scale) -> tuple:
    """The z-root of an integer key, as Fractions."""
    from fractions import Fraction

    return tuple(Fraction(k, scale) for k in key)


def _levi_restrictions(system: RootSystem, q_r) -> tuple:
    """What the z-roots of every parabolic with Levi set q_r share: the
    center z and the common denominator ``scale`` of ``_center``, the mask
    of q_r, and the integer restriction to z of every root, by root
    index."""
    center, scale, basis = _center(system, q_r)
    restriction = [
        tuple(sum(map(mul, alpha, row)) for row in basis)
        for alpha in system.roots_sorted
    ]
    return center, scale, system._mask_of(q_r), restriction


def z_root_decompositions(qs) -> list[ZRootDecomposition]:
    """The ``z_root_decomposition`` of each parabolic of qs, in order.  The
    center z and the restrictions of the roots to it depend on the Levi set
    alone, so they are computed once per distinct ``q.q_r`` of the batch;
    each q still gets the whole certificate.  An answer of
    ``minimal_par``/``maximal_par`` hands over the walk's pass over its
    positive system B (``_supports``), used only if it is the pass over
    the B that the split of q gives; the pass is dropped once read, which
    keeps a large batch at the peak memory it had without it."""
    levis: dict = {}
    out = []
    for q in qs:
        key = q.system, q.q_r
        if key not in levis:
            levis[key] = _levi_restrictions(*key)
        out.append(_decompose(q, *levis[key]))
    return out


def z_root_decomposition(q: ParabolicRootSet) -> ZRootDecomposition:
    """Group all roots by their restriction to z = {H in t : Q_r(H) = 0},
    for the split of q read from ``q.q_n`` and ``q.q_r``.

    For a parabolic q, B = Q_n | (Q_r cap R+) is a positive system.  Its
    simple roots Pi are the roots of B that are no sum of two roots of B,
    and every other root of B is the sum of two of smaller height
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    section 10.1), as ``RootSystem._positive_sums`` lists them (it raises
    if B is no positive system).  So every root of B gets nonnegative
    integer coordinates on Pi, the sum of a splitting pair's coordinates.
    Call c the coordinates of a root on Pi minus Q_r.

    The simple roots in Q_r must vanish on z, and those outside Q_r give
    the simple keys S, their restrictions to z, which must number dim z.
    Restriction is linear, so a root of B restricts to the combination of
    S with its c.  Once R = B | -B (checked last), every root is plus or
    minus a combination of Pi, so Pi spans t*; restriction maps t* onto z*,
    so S spans z*, and |S| = dim z makes it a basis.  So two roots of B
    restrict alike iff their c agree, and a root of B and the negative of
    one iff both c are zero, since c is nonnegative: the restriction
    classes are the groups of B on c and their negatives.

    c and the combination of S with it are summed along the same pairs.
    The checks: the zero group and its negatives, the roots vanishing on z,
    are exactly Q_r; every other group, a positive class, lies inside Q_n,
    and together they fill it; each positive key, the combination of S with
    the class's c, equals the restriction of its first root; and Q_n, its
    negatives (the negative classes, from ``_neg_mask``) and Q_r split R.
    Then every positive class decomposes uniquely into simple ones with the
    nonnegative integer coordinates c, and a class is simple iff c is a
    unit vector, i.e. iff its key is in S.  Keys are computed on integer
    coordinates, scaled by the common denominator of the basis of z, so
    they sort as the restrictions do.

    Returns the ``ZRootDecomposition`` of z, the system, that denominator,
    the positive classes as (key, root-index mask) in key order, and the
    keys S; its Fraction tuples and root tuples are built when read.  A
    batch of parabolics shares its work per Levi set through
    ``z_root_decompositions``.
    """
    return z_root_decompositions([q])[0]


def _decompose(
    q: ParabolicRootSet, center: Subspace, scale: int, q_r: int, restriction: list
) -> ZRootDecomposition:
    """The certificate of ``z_root_decomposition`` for one q, given what
    ``_levi_restrictions`` computed for its Levi set."""
    system = q.system

    q_n = system._mask_of(q.q_n)
    borel = q_n | q_r & system._positive_mask
    shared = q.__dict__.pop("_positive_pass", None)
    if shared is not None and shared[0] == borel:
        simple, sums = shared[1:]
    else:
        simple, sums = system._positive_sums(borel)
    outside = [k for k in simple if not q_r >> k & 1]
    dim = center.dim
    if len(outside) != dim:
        raise AssertionError("simple restrictions are not a basis of z*")
    zero = (0,) * dim
    levi_message = "roots vanishing on z are not exactly the Levi roots"
    if any(restriction[k] != zero for k in simple if q_r >> k & 1):
        raise AssertionError(levi_message)
    simple_keys = [restriction[k] for k in outside]

    # each root of B as c followed by its key: a unit c and its restriction
    # for a simple root outside Q_r, zero for the other simple roots, and
    # sums along the pairs
    folded = dict.fromkeys(simple, zero + zero)
    for j, k in enumerate(outside):
        folded[k] = zero[:j] + (1,) + zero[j + 1 :] + simple_keys[j]
    for k, a, b in sums:
        folded[k] = tuple(map(add, folded[a], folded[b]))
    groups: dict = {}
    for k, ck in folded.items():
        groups[ck] = groups.get(ck, 0) | 1 << k
    neg = system._neg_mask
    vanishing = groups.pop(zero + zero, 0)
    if vanishing | neg(vanishing) != q_r:
        raise AssertionError(levi_message)

    positive = []
    covered = 0
    for ck, m in groups.items():
        key = ck[dim:]
        inside = m & q_n
        if inside not in (0, m):
            raise AssertionError(f"mixed z-root component at {_unscaled(key, scale)}")
        if inside:
            positive.append((key, m))
            covered |= m
    if covered != q_n:
        raise AssertionError("positive components do not fill nr(q)")
    for key, m in positive:
        if restriction[(m & -m).bit_length() - 1] != key:
            raise AssertionError(
                f"positive z-root {_unscaled(key, scale)} is not a nonnegative "
                "integer combination of simple ones"
            )

    if q_n | neg(q_n) | q_r != system._full_mask or (
        2 * q_n.bit_count() + q_r.bit_count() != len(system.roots_sorted)
    ):
        raise AssertionError(
            "the negative z-roots are not the negatives of the positive ones"
        )

    positive.sort()
    return ZRootDecomposition(
        center, system, scale, tuple(positive), frozenset(simple_keys)
    )


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def lift(v: Subalg, q: Subalg) -> Subalg:
    """v_q = v + nr(q) for q in Par(v); its nilradical is nr(v) + nr(q) and,
    when v is n-reductive, v_q strengthens v with the same Levi part."""
    if not par_membership(v, q):
        raise ValueError("q is not in Par(v)")
    nrq = q.nilradical()
    # when nr(q) lies in v, v_q is v itself and keeps v's nilradical
    vq = v if nrq.is_subspace_of(v) else v.join(nrq)
    if not is_subalgebra(vq):
        raise AssertionError("the lift is not a subalgebra")
    if vq.nilradical().space != v.nilradical().join(nrq).space:
        raise AssertionError("the nilradical of the lift is not nr(v) + nr(q)")
    if is_n_reductive(v):
        if levi_part(vq).space != levi_part(v).space:
            raise AssertionError("the lift changes the Levi part")
        if not is_n_reductive(vq):
            raise AssertionError("the lift of an n-reductive v is not n-reductive")
        if not strengthens(v, vq):
            raise AssertionError("the lift does not strengthen v")
    return vq


def lift_regular(v: RegularSubalgebra, q: ParabolicRootSet) -> RegularSubalgebra:
    if not par_membership_regular(v, q):
        raise ValueError("q is not in Par(v)")
    q_n = q._mask & ~v.system._neg_mask(q._mask)
    vq = RegularSubalgebra._from_mask(v.system, v.toral, v._mask | q_n)
    if vq._nilpotent_mask != v._nilpotent_mask | q_n:
        raise AssertionError("the nilradical of the lift is not nr(v) + nr(q)")
    if is_n_reductive_regular(v):
        if not levi_part_regular(vq).same_span(levi_part_regular(v)):
            raise AssertionError("the lift changes the Levi part")
        if not is_n_reductive_regular(vq):
            raise AssertionError("the lift of an n-reductive v is not n-reductive")
        if not strengthens_regular(v, vq):
            raise AssertionError("the lift does not strengthen v")
    return vq


# ---------------------------------------------------------------------------
# homotopic characteristic of the intermediate fiber
# ---------------------------------------------------------------------------


def _semisimple_part(l: Subalg) -> Subalg:
    series = derived_series(l)
    return Subalg(l.ambient, series[1]) if len(series) > 1 else l


def homotopic_characteristic(q: Subalg, m: Subalg) -> int:
    """c = rank(s) - dim(tau cap s) for s = [L(q), L(q)] and tau the maximal
    torus built in m, the Levi part of the CR algebra being fibered.

    The proof route rank(m + s) - rank(m) is computed as well and must agree.
    """
    lq = levi_part(q)
    if not m.is_subspace_of(lq):
        raise ValueError("m must lie inside the Levi part of q")
    s = _semisimple_part(lq)
    tau = maximal_torus(m)
    c = maximal_torus(s).dim - tau.meet(s).dim
    if c != maximal_torus(m.join(s)).dim - tau.dim:
        raise AssertionError("torus count disagrees with rank formula")
    if c < 0:
        raise AssertionError("negative homotopic characteristic")
    return c


def euler_positive_clause(q: Subalg, m: Subalg) -> bool:
    """The containment t cap s in tau, for t a maximal torus adapted to the
    pair: built in Z(tau) cap L(q), so maximal in k, inside L(q), and
    containing tau (central there).  Reported independently of c."""
    lq = levi_part(q)
    if not m.is_subspace_of(lq):
        raise ValueError("m must lie inside the Levi part of q")
    s = _semisimple_part(lq)
    tau = maximal_torus(m)
    adapted = maximal_torus(centralizer(tau).meet(lq))
    if not tau.is_subspace_of(adapted):
        raise AssertionError("the adapted maximal torus does not contain tau")
    return adapted.meet(s).is_subspace_of(tau)


def _coroot_span(q: ParabolicRootSet, m: RegularSubalgebra) -> Subspace:
    """The coroot span of Q_r, for m inside the Levi part of q."""
    system = q.system
    levi = q._mask & system._neg_mask(q._mask)
    if m._mask & ~levi or not m.toral.is_subspace_of(system.cartan):
        raise ValueError("m must lie inside the Levi part of q")
    return _with_coroots(system, Subspace.zero(system.coord_dim), levi)


def homotopic_characteristic_regular(
    q: ParabolicRootSet, m: RegularSubalgebra
) -> int:
    """Regular backend: tau is the toral part of m and the Cartan of s is the
    coroot span of Q_r, which has the same dimension as the root span."""
    span = _coroot_span(q, m)
    roots = canonicalize(sorted(q.q_r), q.system.coord_dim)
    if span.dim != roots.dim:
        raise AssertionError("coroot span and root span differ in dimension")
    c = span.dim - span.meet(m.toral).dim
    if c < 0:
        raise AssertionError("negative homotopic characteristic")
    return c


def euler_positive_clause_regular(
    q: ParabolicRootSet, m: RegularSubalgebra
) -> bool:
    """Here the adapted maximal torus is the standard Cartan, whose meet with
    s is the whole coroot span of Q_r."""
    return _coroot_span(q, m).is_subspace_of(m.toral)
