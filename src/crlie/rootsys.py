"""Classical root systems and t-regular subalgebras as combinatorial data.

Roots live in integer e_i coordinates (A_n inside the zero-sum hyperplane of
R^{n+1}, B/C/D in R^n).  A t-regular subalgebra is a pair (toral subspace of
the Cartan coordinate space, closed set of roots); parabolic sets, normalizers,
Lie/module closures and Weyl orbits are all finite set manipulations here.

Root sets are checked on index masks: an int whose bit i stands for
``roots_sorted[i]``.  Root combinatorics reads three integer tables each
``RootSystem`` builds once: the negation permutation, which reverses the
order of ``roots_sorted`` (checked), so negating a mask reverses its bits;
the sum-pair table (for every root, the index pairs summing to it, as
masks), which gives closedness, the parabolic checks and the simple roots
of a positive system with every root's coordinates on them; and the simple
reflections as root-index permutations, which generate W.  A
``ParabolicRootSet`` reads its root sets off its mask on first use, so the
Par(v) search in ``fibration`` walks parabolics as ints and builds root
sets for its answers only.  The public API still takes and returns
frozensets of root tuples.
"""

from __future__ import annotations

import itertools
import re as _re
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable, Sequence

from crlie.exactlin import DenseMatrix, Subspace, canonicalize, kernel

Root = tuple  # integer coordinate tuple

_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def neg(alpha: Root) -> Root:
    return tuple(-a for a in alpha)


def root_sum(alpha: Root, beta: Root) -> Root:
    return tuple(a + b for a, b in zip(alpha, beta))


def format_root(alpha: Root) -> str:
    """Render a root in e_i syntax, e.g. "e1-e3", "2e1", "-e2"."""
    parts = []
    for i, c in enumerate(alpha):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        term = f"{mag}e{i + 1}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(parts) if parts else "0"


def parse_root(text: str, coord_dim: int) -> Root:
    """Parse e_i syntax back into a coordinate tuple."""
    coords = [0] * coord_dim
    cleaned = text.replace(" ", "")
    if not _re.fullmatch(r"[+-]?\d*e\d+([+-]\d*e\d+)*", cleaned):
        raise ValueError(f"bad root literal {text!r}")
    for m in _re.finditer(r"([+-]?)(\d*)e(\d+)", cleaned):
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        idx = int(m.group(3)) - 1
        if not 0 <= idx < coord_dim:
            raise ValueError(f"coordinate e{idx + 1} out of range in {text!r}")
        coords[idx] += sign * mag
    return tuple(coords)


class RootSystem:
    """A classical root system of type A, B, C or D in e_i coordinates."""

    def __init__(self, family: str, rank: int):
        if not isinstance(family, str):
            raise ValueError(f"family must be a str, got {family!r}")
        family = family.upper()
        if family not in ("A", "B", "C", "D"):
            raise ValueError(f"unsupported family {family!r}")
        if type(rank) is not int:
            raise ValueError(f"rank must be an int, got {rank!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        if family == "D" and rank < 3:
            raise ValueError("family D needs rank >= 3")
        self.family = family
        self.rank = rank
        self.coord_dim = rank + 1 if family == "A" else rank
        self.roots = frozenset(self._generate())
        self.roots_sorted = tuple(sorted(self.roots))
        self.root_index = {a: i for i, a in enumerate(self.roots_sorted)}
        self.positive_roots = tuple(
            sorted(a for a in self.roots if self._is_positive(a))
        )
        self.simple_roots = self._simples()
        self.cartan = self._cartan_space()
        expected = {
            "A": rank * (rank + 1),
            "B": 2 * rank * rank,
            "C": 2 * rank * rank,
            "D": 2 * rank * (rank - 1),
        }[family]
        if len(self.roots) != expected:
            raise AssertionError(f"{family}{rank} has {len(self.roots)} roots")
        self._build_mask_tables()

    def _generate(self):
        n = self.coord_dim

        def e(i, c=1):
            v = [0] * n
            v[i] = c
            return v

        out = []
        if self.family == "A":
            for i in range(n):
                for j in range(n):
                    if i != j:
                        v = e(i)
                        v[j] -= 1
                        out.append(tuple(v))
            return out
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * n
                        v[i], v[j] = si, sj
                        out.append(tuple(v))
        if self.family == "B":
            for i in range(n):
                out.append(tuple(e(i)))
                out.append(tuple(e(i, -1)))
        elif self.family == "C":
            for i in range(n):
                out.append(tuple(e(i, 2)))
                out.append(tuple(e(i, -2)))
        return out

    def _build_mask_tables(self):
        n = len(self.roots_sorted)
        self._full_mask = (1 << n) - 1
        self._positive_mask = self._mask_of(self.positive_roots)
        self._bit_format = f"0{n}b"
        negation = tuple(self.root_index[neg(a)] for a in self.roots_sorted)
        if negation != tuple(range(n - 1, -1, -1)):
            raise AssertionError("negation does not reverse the root order")
        pairs = [[] for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            k = self.root_index.get(
                root_sum(self.roots_sorted[i], self.roots_sorted[j])
            )
            if k is not None:
                pairs[k].append(1 << i | 1 << j)
        self._sum_pairs = tuple(tuple(p) for p in pairs)

    def _mask_of(self, rootset) -> int:
        index = self.root_index
        mask = 0
        for a in rootset:
            mask |= 1 << index[a]
        return mask

    def _flags(self, mask: int) -> bytes:
        """Membership of each index in the mask, as bytes 0 or 1."""
        return format(mask, self._bit_format)[::-1].encode().translate(_FLAG_BYTES)

    def _mask_roots(self, mask: int) -> frozenset:
        return frozenset(itertools.compress(self.roots_sorted, self._flags(mask)))

    def _mask_indices(self, mask: int) -> tuple:
        """Indices in the mask, ascending: a sort key that orders masks as
        their sorted root tuples are ordered."""
        n = len(self.roots_sorted)
        return tuple(itertools.compress(range(n), self._flags(mask)))

    def _mask_order(self, mask: int) -> str:
        """A sort key that orders masks as ``_mask_indices`` does, from
        string methods alone: the bits from index 0, "1" for a member and
        "2" for a non-member with a later member, ending at the last
        member."""
        # Two masks agree below their first differing index i.  If one has
        # no member from i on, its string ends by i and is a prefix of the
        # other one's, as its index tuple is: both sort first.  Otherwise
        # one string has "1" at i, the member i, and the other "2", a later
        # member: the "1" sorts first, and so does the tuple holding i.
        return format(mask, self._bit_format)[::-1].rstrip("0").replace("0", "2")

    def _neg_mask(self, mask: int) -> int:
        return int(format(mask, self._bit_format)[::-1], 2)

    def _mask_closed(self, mask: int) -> bool:
        """No root outside the mask is the sum of a pair inside it."""
        for k, pairs in enumerate(self._sum_pairs):
            if not mask >> k & 1:
                for p in pairs:
                    if mask & p == p:
                        return False
        return True

    @staticmethod
    def _is_positive(alpha: Root) -> bool:
        for a in alpha:
            if a:
                return a > 0
        return False

    def _simples(self):
        n = self.coord_dim
        simples = []
        for i in range(self.rank - 1 if self.family != "A" else self.rank):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        if self.family == "B":
            v = [0] * n
            v[n - 1] = 1
            simples.append(tuple(v))
        elif self.family == "C":
            v = [0] * n
            v[n - 1] = 2
            simples.append(tuple(v))
        elif self.family == "D":
            v = [0] * n
            v[n - 2], v[n - 1] = 1, 1
            simples.append(tuple(v))
        return tuple(simples)

    def _cartan_space(self) -> Subspace:
        if self.family != "A":
            return Subspace.full(self.coord_dim)
        return canonicalize(list(self.simple_roots), self.coord_dim)

    def coroot(self, alpha: Root) -> Root:
        norm = sum(a * a for a in alpha)
        scaled = [Fraction(2 * a, norm) for a in alpha]
        if any(c.denominator != 1 for c in scaled):
            raise AssertionError(f"{alpha} has no integral coroot")
        return tuple(int(c) for c in scaled)

    def simple_coefficients(self, alpha: Root) -> tuple:
        """Integer coordinates of a root in the simple-root basis."""
        coeffs = self._simple_table.get(tuple(alpha))
        if coeffs is None:
            raise ValueError(f"{alpha} is not a root of {self}")
        return coeffs

    @cached_property
    def _simple_table(self) -> dict:
        """Every root's coordinates on ``simple_roots``, read off the
        positive roots; negative roots get the negated coordinates."""
        simple, coords = self._positive_coordinates(self._positive_mask)
        roots = self.roots_sorted
        if {roots[k] for k in simple} != set(self.simple_roots):
            raise AssertionError("the simple roots of R+ are not simple_roots")
        order = [simple.index(self.root_index[s]) for s in self.simple_roots]
        table = {}
        for k, c in coords.items():
            table[roots[k]] = c = tuple(map(c.__getitem__, order))
            table[neg(roots[k])] = neg(c)
        return table

    @cached_property
    def _cartan_equations(self) -> tuple:
        """Rows whose common kernel is the Cartan t, in the coordinates: a
        basis of its annihilator (none when t is the whole space)."""
        return kernel(DenseMatrix([list(row) for row in self.cartan.basis])).basis

    @cached_property
    def _formatted_roots(self) -> tuple:
        """``format_root`` of each root, in the order of ``roots_sorted``."""
        return tuple(map(format_root, self.roots_sorted))

    def _positive_sums(self, borel: int) -> tuple:
        """The simple roots Pi of a positive system B, given as a mask, in
        ascending index order, and every other root of B as a triple
        (k, i, j) of indices with root k = root i + root j, each of i and j
        simple or the first entry of an earlier triple.  A root of B is
        simple iff no pair in B sums to it; any other is the sum of a pair
        of smaller height (Humphreys, Introduction to Lie Algebras and
        Representation Theory, section 10.1).  A pass over the roots still
        without a triple that finds none means B is no positive system."""
        pairs = self._sum_pairs
        members = self._mask_indices(borel)
        outside = ~borel
        simple = tuple(k for k in members if all(map(outside.__and__, pairs[k])))
        done = sum(1 << k for k in simple)
        pending = [k for k in members if not done >> k & 1]
        sums = []
        while pending:
            left = []
            for k in pending:
                for p in pairs[k]:
                    if done & p == p:
                        low = p & -p
                        sums.append((k, low.bit_length() - 1, (p ^ low).bit_length() - 1))
                        done |= 1 << k
                        break
                else:
                    left.append(k)
            if len(left) == len(pending):
                raise AssertionError(
                    "the root set is not a positive system: "
                    f"{len(left)} of its roots get no coordinates"
                )
            pending = left
        return simple, sums

    def _positive_coordinates(self, borel: int) -> tuple:
        """The simple roots Pi of a positive system B, given as a mask, in
        ascending index order, and {index: integer coordinates on Pi} for
        every root of B, summed along ``_positive_sums``."""
        simple, sums = self._positive_sums(borel)
        zero = (0,) * len(simple)
        coords = {k: zero[:j] + (1,) + zero[j + 1:] for j, k in enumerate(simple)}
        for k, a, b in sums:
            coords[k] = tuple(map(add, coords[a], coords[b]))
        return simple, coords

    @cached_property
    def _reflections(self) -> tuple:
        """The simple reflections alpha -> alpha - <alpha, s^vee> s, in the
        order of ``simple_roots``, as permutations of root indices."""
        out = []
        for s in self.simple_roots:
            norm = sum(x * x for x in s)
            images = []
            for alpha in self.roots_sorted:
                c, rest = divmod(2 * sum(a * b for a, b in zip(alpha, s)), norm)
                if rest:
                    raise AssertionError(f"<{alpha}, {s}^vee> is not an integer")
                k = self.root_index.get(tuple(a - c * b for a, b in zip(alpha, s)))
                if k is None:
                    raise AssertionError(f"the reflection in {s} maps {alpha} off R")
                images.append(k)
            out.append(tuple(images))
        return tuple(out)

    def parse_root(self, text: str) -> Root:
        alpha = parse_root(text, self.coord_dim)
        if alpha not in self.roots:
            raise ValueError(f"{text!r} is not a root of {self}")
        return alpha

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RootSystem)
            and (self.family, self.rank) == (other.family, other.rank)
        )

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank})"

    def __reduce__(self):
        return build_root_system, (self.family, self.rank)


# typed: 3.0 and True hash like 3 and 1, and must reach the rank check
@lru_cache(maxsize=None, typed=True)
def _shared_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of a family and rank.  A process holds one instance
    per (family, rank), so its index tables are built once."""
    if not isinstance(family, str):
        raise ValueError(f"family must be a str, got {family!r}")
    return _shared_system(family.upper(), rank)


def is_closed(system: RootSystem, rootset: Iterable[Root]) -> bool:
    """Does every sum of two distinct members that is a root lie in the set?"""
    s = set(rootset)
    inside = s & system.roots
    if not system._mask_closed(system._mask_of(inside)):
        return False
    # a member that is no root may still sum with another member to a root
    for a in s - inside:
        for b in s - {a}:
            c = root_sum(a, b)
            if c in system.roots and c not in s:
                return False
    return True


def closed_closure(system: RootSystem, rootset: Iterable[Root]) -> frozenset:
    """Smallest closed set of roots containing the input."""
    s = set(tuple(a) for a in rootset)
    if not s <= system.roots:
        raise ValueError("input contains non-roots")
    grew = True
    while grew:
        grew = False
        for a, b in itertools.combinations(list(s), 2):
            c = root_sum(a, b)
            if c in system.roots and c not in s:
                s.add(c)
                grew = True
    return frozenset(s)


def _coroot_line(system: RootSystem, alpha: Root) -> Subspace:
    return canonicalize([list(system.coroot(alpha))], system.coord_dim)


class RegularSpan:
    """A t-stable subspace: toral part plus a set of root spaces.

    Unlike RegularSubalgebra there is no closure requirement; module closures
    and intermediate sums live here.
    """

    def __init__(self, system: RootSystem, toral: Subspace, rootset):
        self.system = system
        self.toral = toral
        self.rootset = frozenset(tuple(a) for a in rootset)
        if not self.rootset <= system.roots:
            raise ValueError("rootset contains non-roots")
        if toral.ambient_dim != system.coord_dim:
            raise ValueError("toral subspace has wrong ambient dimension")
        if not toral.is_subspace_of(system.cartan):
            raise ValueError("toral part is not inside the Cartan subalgebra")

    @property
    def dim(self) -> int:
        return self.toral.dim + len(self.rootset)

    def same_span(self, other: "RegularSpan") -> bool:
        return (
            self.system == other.system
            and self.toral == other.toral
            and self.rootset == other.rootset
        )

    def __eq__(self, other):
        return isinstance(other, RegularSpan) and self.same_span(other)

    def __hash__(self):
        return hash((self.system, self.toral, self.rootset))

    def __repr__(self):
        roots = ",".join(format_root(a) for a in sorted(self.rootset))
        return (
            f"{type(self).__name__}({self.system.family}{self.system.rank}, "
            f"toral dim {self.toral.dim}, roots {{{roots}}})"
        )


class RegularSubalgebra(RegularSpan):
    """A subalgebra normalized by the Cartan: closed root set + toral part,
    with coroots of opposite pairs inside the toral part."""

    def __init__(self, system: RootSystem, toral: Subspace, rootset):
        super().__init__(system, toral, rootset)
        if not is_closed(system, self.rootset):
            raise ValueError("rootset is not closed")
        for alpha in self.rootset:
            if neg(alpha) in self.rootset:
                if not self.toral.contains(list(system.coroot(alpha))):
                    raise ValueError(
                        f"coroot of {format_root(alpha)} missing from toral part"
                    )

    @property
    def nilpotent_roots(self) -> frozenset:
        return frozenset(a for a in self.rootset if neg(a) not in self.rootset)

    @property
    def reductive_roots(self) -> frozenset:
        return frozenset(a for a in self.rootset if neg(a) in self.rootset)

    def conj(self) -> "RegularSubalgebra":
        return RegularSubalgebra(
            self.system,
            self.toral.conjugate(),
            frozenset(neg(a) for a in self.rootset),
        )

    def meets(self, other: "RegularSpan") -> "RegularSpan":
        return RegularSpan(
            self.system,
            self.toral.meet(other.toral),
            self.rootset & other.rootset,
        )

    def is_contained_in(self, other: "RegularSpan") -> bool:
        return (
            self.toral.is_subspace_of(other.toral)
            and self.rootset <= other.rootset
        )


def nr_and_levi(v: RegularSubalgebra) -> tuple[frozenset, RegularSubalgebra]:
    """Nilpotent ideal roots V_n and the Levi part (toral, V_r) of a regular
    subalgebra."""
    vn = v.nilpotent_roots
    levi = RegularSubalgebra(v.system, v.toral, v.reductive_roots)
    return vn, levi


def normalizer_regular(system: RootSystem, nilpotent_set) -> RegularSubalgebra:
    """Normalizer in k of the span of a purely nilpotent closed root set:
    full Cartan plus every k^beta with -beta outside the set that maps the
    set into itself under root addition."""
    n = frozenset(tuple(a) for a in nilpotent_set)
    if not n <= system.roots:
        raise ValueError("input contains non-roots")
    if n & frozenset(neg(a) for a in n):
        raise ValueError("set is not purely nilpotent (contains an opposite pair)")
    if not is_closed(system, n):
        raise ValueError("set is not closed")
    keep = []
    for beta in system.roots_sorted:
        if neg(beta) in n:
            continue
        ok = True
        for alpha in n:
            s = root_sum(alpha, beta)
            if s in system.roots and s not in n:
                ok = False
                break
        if ok:
            keep.append(beta)
    return RegularSubalgebra(system, system.cartan, frozenset(keep))


def regular_sum(system: RootSystem, pieces: Sequence[RegularSpan]) -> RegularSpan:
    toral = Subspace.zero(system.coord_dim)
    roots: set = set()
    for p in pieces:
        toral = toral.join(p.toral)
        roots |= p.rootset
    return RegularSpan(system, toral, roots)


def lie_closure_regular(
    system: RootSystem,
    span: RegularSpan,
    mode: str = "algebra",
    levi: RegularSpan | None = None,
):
    """Close a t-stable span under brackets.

    In "algebra" mode the result is the Lie subalgebra generated by the span
    (sums of roots are added, opposite pairs contribute coroot lines to the
    toral part) and is returned as a RegularSubalgebra.  In "module" mode the
    result is the levi-module generated by the span (only levi roots may be
    added to elements) and is returned as a RegularSpan, since it need not be
    a subalgebra.
    """
    toral = span.toral
    roots = set(span.rootset)
    if mode == "algebra":
        roots = set(closed_closure(system, roots))
        for alpha in list(roots):
            if neg(alpha) in roots:
                toral = toral.join(_coroot_line(system, alpha))
        return RegularSubalgebra(system, toral, frozenset(roots))
    if mode != "module":
        raise ValueError(f"unknown closure mode {mode!r}")
    if levi is None:
        raise ValueError("module closure needs the acting Levi subalgebra")
    grew = True
    while grew:
        grew = False
        for beta in levi.rootset:
            for gamma in list(roots):
                s = root_sum(beta, gamma)
                if s in system.roots and s not in roots:
                    roots.add(s)
                    grew = True
                if gamma == neg(beta):
                    line = _coroot_line(system, beta)
                    if not line.is_subspace_of(toral):
                        toral = toral.join(line)
                        grew = True
            if beta not in roots and any(
                sum(b * h for b, h in zip(beta, row)) for row in toral.basis
            ):
                roots.add(beta)
                grew = True
    return RegularSpan(system, toral, frozenset(roots))


def _check_parabolic_mask(system: RootSystem, mask: int):
    """Raise ValueError unless the mask is parabolic: closed, Q | -Q = R."""
    if not system._mask_closed(mask):
        raise ValueError("parabolic set must be closed")
    if mask | system._neg_mask(mask) != system._full_mask:
        raise ValueError("Q union -Q must be all of R")


class ParabolicRootSet:
    """A parabolic set of roots Q with Q union -Q = R, split as Q_n | Q_r.
    The root sets are read off the mask on first use."""

    def __init__(self, system: RootSystem, rootset):
        q = frozenset(tuple(a) for a in rootset)
        if not q <= system.roots:
            raise ValueError("rootset contains non-roots")
        mask = system._mask_of(q)
        _check_parabolic_mask(system, mask)
        self.system = system
        self._mask = mask

    @classmethod
    def _from_mask(cls, system: RootSystem, mask: int) -> "ParabolicRootSet":
        """The parabolic of a mask already proven parabolic."""
        out = cls.__new__(cls)
        out.system = system
        out._mask = mask
        return out

    @cached_property
    def q(self) -> frozenset:
        return self.system._mask_roots(self._mask)

    @cached_property
    def q_n(self) -> frozenset:
        return self.system._mask_roots(self._mask & ~self.system._neg_mask(self._mask))

    @cached_property
    def q_r(self) -> frozenset:
        return self.system._mask_roots(self._mask & self.system._neg_mask(self._mask))

    @property
    def dim(self) -> int:
        return self.system.cartan.dim + self._mask.bit_count()

    def to_regular(self) -> RegularSubalgebra:
        return RegularSubalgebra(self.system, self.system.cartan, self.q)

    def levi(self) -> RegularSubalgebra:
        return RegularSubalgebra(self.system, self.system.cartan, self.q_r)

    def contains_parabolic(self, other: "ParabolicRootSet") -> bool:
        return self.system == other.system and not other._mask & ~self._mask

    def sort_key(self):
        return tuple(sorted(self.q))

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicRootSet)
            and self.system == other.system
            and self._mask == other._mask
        )

    def __hash__(self):
        return hash((self.system, self._mask))

    def __repr__(self):
        qr = ",".join(format_root(a) for a in sorted(self.q_r))
        return f"ParabolicRootSet({self.system.family}{self.system.rank}, Q_r={{{qr}}})"


def parabolic_from_grading(system: RootSystem, a: Sequence) -> ParabolicRootSet:
    """q_A: all roots with alpha(A) >= 0, for a rational covector A."""
    vec = [Fraction(x) for x in a]
    if len(vec) != system.coord_dim:
        raise ValueError("grading covector has wrong length")
    q = [
        alpha
        for alpha in system.roots_sorted
        if sum(c * x for c, x in zip(alpha, vec)) >= 0
    ]
    return ParabolicRootSet(system, q)


def parabolic_from_crosses(system: RootSystem, crosses: Iterable[int]) -> ParabolicRootSet:
    """Parabolic selected by crossed simple roots (1-based indices): roots
    with nonnegative coefficients on every crossed simple root."""
    crossed = sorted(set(crosses))
    for c in crossed:
        if not 1 <= c <= system.rank:
            raise ValueError(f"crossed index {c} out of range 1..{system.rank}")
    q = [
        alpha
        for alpha in system.roots_sorted
        if all(system.simple_coefficients(alpha)[c - 1] >= 0 for c in crossed)
    ]
    return ParabolicRootSet(system, q)


def standard_parabolic(system: RootSystem, levi_simples: Iterable[int]) -> ParabolicRootSet:
    """Standard parabolic containing the standard Borel, whose Levi part is
    generated by the given simple roots (1-based indices)."""
    chosen = set(levi_simples)
    crosses = [i for i in range(1, system.rank + 1) if i not in chosen]
    return parabolic_from_crosses(system, crosses)


def standard_borel(system: RootSystem) -> ParabolicRootSet:
    return ParabolicRootSet(system, system.positive_roots)


# ---------------------------------------------------------------------------
# Weyl group enumeration (closure under simple reflections) and parabolics.
# ---------------------------------------------------------------------------

RANK_CAP_DEFAULT = 6

def _check_rank_cap(system: RootSystem, rank_cap: int):
    if system.rank > rank_cap:
        raise ValueError(
            f"rank {system.rank} exceeds the Weyl enumeration cap {rank_cap}"
        )


def weyl_root_permutations(system: RootSystem, rank_cap: int = RANK_CAP_DEFAULT):
    """Each Weyl element as a permutation of root indices, the identity
    first: the breadth-first closure of the identity under the simple
    reflections, which generate W (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI section 1.5)."""
    _check_rank_cap(system, rank_cap)
    identity = tuple(range(len(system.roots_sorted)))
    # an element is known by its images of a basis, the simple roots of R+
    simple, _ = system._positive_coordinates(system._positive_mask)
    out, seen = [identity], {simple}
    for w in out:  # visits the elements appended on the way
        images = [w[i] for i in simple]
        for s in system._reflections:
            key = tuple(map(s.__getitem__, images))
            if key not in seen:
                seen.add(key)
                out.append(tuple(map(s.__getitem__, w)))
    return out


def enumerate_parabolics(
    system: RootSystem, rank_cap: int = RANK_CAP_DEFAULT
) -> list[ParabolicRootSet]:
    """All parabolic subsets of R, sorted by ``sort_key``, as new objects on
    every call (their root sets are built only when read).  The masks come
    from ``_parabolic_masks``, sorted by ``RootSystem._mask_order``, whose
    comment proves that it orders them as ``sort_key`` orders their root
    sets.  Nothing in the package calls it: the Par(v) search in
    ``fibration`` walks chambers, and this enumeration is its test
    oracle."""
    _check_rank_cap(system, rank_cap)
    return [
        ParabolicRootSet._from_mask(system, m)
        for m in _parabolic_masks(system, rank_cap)
    ]


def _parabolic_masks(system: RootSystem, rank_cap: int) -> tuple:
    """The masks of all parabolic subsets of R, sorted by ``_mask_order``:
    the Weyl orbits of the standard parabolics (Bourbaki, Lie Groups and Lie
    Algebras, ch. VI section 1.7), from the Weyl table of
    ``weyl_root_permutations``.

    The standard parabolic crossed at the simple roots C is the intersection
    of the maximal parabolics crossed at each c in C, and a Weyl element
    maps intersections to intersections.  So each element's images of the
    rank maximal parabolics give its images of all 2^rank standard ones,
    the Borel's image being the intersection of all of them.

    The images are proven parabolic without checking each one.  Every
    distinct maximal image is checked to be closed, and each element's
    Borel image B to satisfy B | -B = R.  An intersection of closed sets is
    closed, and a set that contains B covers R with its negative, so every
    image of the element is parabolic, whatever the table holds."""
    perms = weyl_root_permutations(system, rank_cap)
    maximal = [
        system._mask_indices(parabolic_from_crosses(system, [c])._mask)
        for c in range(1, system.rank + 1)
    ]
    bit = [1 << i for i in range(len(system.roots_sorted))]
    closed = set()
    seen = set()
    for perm in perms:
        images = [system._full_mask]
        for indices in maximal:
            image = sum(map(bit.__getitem__, map(perm.__getitem__, indices)))
            if image not in closed:
                if not system._mask_closed(image):
                    raise ValueError("parabolic set must be closed")
                closed.add(image)
            images += [m & image for m in images]
        # the last image is the intersection of all maximal ones
        borel = images[-1]
        if borel | system._neg_mask(borel) != system._full_mask:
            raise ValueError("Q union -Q must be all of R")
        seen.update(images)
    return tuple(sorted(seen, key=system._mask_order))


def _weyl_orbit(system: RootSystem, mask: int) -> set:
    """The Weyl orbit of a root-index mask: its closure under the simple
    reflections, which generate W."""
    reflections = system._reflections
    bit = [1 << i for i in range(len(system.roots_sorted))]
    orbit, todo = {mask}, [mask]
    while todo:
        indices = system._mask_indices(todo.pop())
        for reflection in reflections:
            image = sum(bit[reflection[i]] for i in indices)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def weyl_conjugate_sets(
    system: RootSystem, set1, set2, rank_cap: int = RANK_CAP_DEFAULT
) -> bool:
    """Is some Weyl element mapping the first root set onto the second?"""
    _check_rank_cap(system, rank_cap)
    s1 = frozenset(tuple(a) for a in set1)
    s2 = frozenset(tuple(a) for a in set2)
    if not s1 | s2 <= system.roots:
        raise ValueError("root sets contain non-roots")
    if len(s1) != len(s2):
        return False
    return system._mask_of(s2) in _weyl_orbit(system, system._mask_of(s1))


# ---------------------------------------------------------------------------
# strongly orthogonal sets
# ---------------------------------------------------------------------------


def strongly_orthogonal(system: RootSystem, alpha: Root, beta: Root) -> bool:
    if alpha == beta or alpha == neg(beta):
        return False
    return (
        root_sum(alpha, beta) not in system.roots
        and root_sum(alpha, neg(beta)) not in system.roots
    )


def strongly_orthogonal_maximal_sets(system: RootSystem, candidates) -> list[frozenset]:
    """All inclusion-maximal subsets of the candidates that are pairwise
    strongly orthogonal, in deterministic order."""
    cand = sorted(set(tuple(a) for a in candidates))
    if not set(cand) <= system.roots:
        raise ValueError("candidates contain non-roots")
    compat = {
        a: {b for b in cand if strongly_orthogonal(system, a, b)} for a in cand
    }
    results = []

    def extend(current, allowed, forbidden):
        if not allowed and not forbidden:
            results.append(frozenset(current))
            return
        for a in list(allowed):
            extend(
                current + [a],
                allowed & compat[a],
                forbidden & compat[a],
            )
            allowed = allowed - {a}
            forbidden = forbidden | {a}

    extend([], set(cand), set())
    unique = sorted(set(results), key=lambda s: tuple(sorted(s)))
    return unique
