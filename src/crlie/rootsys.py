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
sets for its answers only.  A ``RegularSpan`` holds its roots as a mask
too: closures, normalizers, sums and meets run on the sum-pair table and
on bit operations, and coroots come from a per-system table of sparse
rows, checked once to be integral and to lie in t.  The public API still
takes and returns frozensets of root tuples.
"""

from __future__ import annotations

import itertools
import re as _re
from functools import cached_property, lru_cache
from operator import add, mul

from crlie.exactlin import DenseMatrix, GaussRational, Subspace, _require
from crlie.exactlin import canonicalize, kernel, sparse_span

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
    if not _re.fullmatch(r"[+-]?[0-9]*e[0-9]+([+-][0-9]*e[0-9]+)*", cleaned):
        raise ValueError(f"bad root literal {text!r}")
    for m in _re.finditer(r"([+-]?)([0-9]*)e([0-9]+)", cleaned):
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

    def _closure_mask(self, mask: int) -> int:
        """The smallest closed mask containing the mask."""
        grown = None
        while grown != mask:
            grown = mask
            for k, pairs in enumerate(self._sum_pairs):
                if not mask >> k & 1 and any(mask & p == p for p in pairs):
                    mask |= 1 << k
        return mask

    def _mask_closed(self, mask: int) -> bool:
        """No root outside the mask is the sum of a pair inside it."""
        return self._closure_mask(mask) == mask

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
        return canonicalize(self.simple_roots, self.coord_dim)

    def coroot(self, alpha: Root) -> Root:
        norm = sum(a * a for a in alpha)
        scaled = [divmod(2 * a, norm) for a in alpha]
        _require(not any(r for _, r in scaled), f"{alpha} has no integral coroot")
        return tuple(c for c, _ in scaled)

    @cached_property
    def _coroot_rows(self) -> tuple:
        """The coroot of each root, by root index, as the nonzeros of a row
        of the coordinates.  Checked once per system: each is integral
        (by ``coroot``) and lies in t."""
        rows = []
        for alpha in self.roots_sorted:
            coroot = enumerate(self.coroot(alpha))
            rows.append(tuple((j, GaussRational(c)) for j, c in coroot if c))
            _require(self.cartan._contains_nz(rows[-1]), f"coroot of {alpha} not in t")
        return tuple(rows)

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
        simple, sums = self._positive_sums(self._positive_mask)
        roots = self.roots_sorted
        if {roots[k] for k in simple} != set(self.simple_roots):
            raise AssertionError("the simple roots of R+ are not simple_roots")
        zero = (0,) * len(simple)
        coords = {
            self.root_index[s]: zero[:j] + (1,) + zero[j + 1 :]
            for j, s in enumerate(self.simple_roots)
        }
        for k, a, b in sums:
            coords[k] = tuple(map(add, coords[a], coords[b]))
        table = {}
        for k, c in coords.items():
            table[roots[k]], table[neg(roots[k])] = c, neg(c)
        return table

    @cached_property
    def _cartan_equations(self) -> tuple:
        """Rows whose common kernel is the Cartan t, in the coordinates: a
        basis of its annihilator (none when t is the whole space)."""
        return kernel(DenseMatrix(self.cartan.basis)).basis

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
    return system._mask_roots(system._closure_mask(system._mask_of(s)))


class RegularSpan:
    """A t-stable subspace: toral part plus a set of root spaces.

    Unlike RegularSubalgebra there is no closure requirement; module closures
    and intermediate sums live here.  The roots are held as a root-index
    mask; ``rootset`` is its frozenset view, built on first read, and a
    pickle or a copy carries the mask alone.
    """

    def __init__(self, system: RootSystem, toral: Subspace, rootset):
        self.rootset = frozenset(tuple(a) for a in rootset)
        if not self.rootset <= system.roots:
            raise ValueError("rootset contains non-roots")
        self._setup(system, toral, system._mask_of(self.rootset))

    @classmethod
    def _from_mask(cls, system: RootSystem, toral: Subspace, mask: int):
        """The span of a root-index mask, with the checks of the class."""
        out = cls.__new__(cls)
        out._setup(system, toral, mask)
        return out

    def _setup(self, system: RootSystem, toral: Subspace, mask: int):
        if toral.ambient_dim != system.coord_dim:
            raise ValueError("toral subspace has wrong ambient dimension")
        if toral != system.cartan and not toral.is_subspace_of(system.cartan):
            raise ValueError("toral part is not inside the Cartan subalgebra")
        self.system, self.toral, self._mask = system, toral, mask

    @cached_property
    def rootset(self) -> frozenset:
        return self.system._mask_roots(self._mask)

    def __getstate__(self):
        return {"system": self.system, "toral": self.toral, "_mask": self._mask}

    @property
    def dim(self) -> int:
        return self.toral.dim + self._mask.bit_count()

    def same_span(self, other: "RegularSpan") -> bool:
        return (
            self.system == other.system
            and self._mask == other._mask
            and self.toral == other.toral
        )

    def __eq__(self, other):
        return isinstance(other, RegularSpan) and self.same_span(other)

    def __hash__(self):
        return hash((self.system, self.toral, self._mask))

    def __repr__(self):
        roots = ",".join(format_root(a) for a in sorted(self.rootset))
        return (
            f"{type(self).__name__}({self.system.family}{self.system.rank}, "
            f"toral dim {self.toral.dim}, roots {{{roots}}})"
        )


class RegularSubalgebra(RegularSpan):
    """A subalgebra normalized by the Cartan: closed root set + toral part,
    with coroots of opposite pairs inside the toral part.

    -alpha has the coroot line of alpha, so one root of each pair is
    checked, read from ``RootSystem._coroot_rows``.  A toral part equal to
    t needs no check: a coroot is a multiple of its root, and t is the
    whole space for B, C and D and the span of the roots (trace zero) for
    A; the table checks once per system that every coroot lies in t."""

    def _setup(self, system: RootSystem, toral: Subspace, mask: int):
        super()._setup(system, toral, mask)
        if not system._mask_closed(mask):
            raise ValueError("rootset is not closed")
        # the negative root of each pair, the lower index
        pairs = mask & system._neg_mask(mask) & ~system._positive_mask
        for k in system._mask_indices(pairs) if toral != system.cartan else ():
            if not toral._contains_nz(system._coroot_rows[k]):
                raise ValueError(
                    f"coroot of {system._formatted_roots[k]} missing from toral part"
                )

    @cached_property
    def _reductive_mask(self) -> int:
        return self._mask & self.system._neg_mask(self._mask)

    @property
    def _nilpotent_mask(self) -> int:
        return self._mask ^ self._reductive_mask

    @cached_property
    def nilpotent_roots(self) -> frozenset:
        return self.system._mask_roots(self._nilpotent_mask)

    @cached_property
    def reductive_roots(self) -> frozenset:
        return self.system._mask_roots(self._reductive_mask)

    def conj(self) -> "RegularSubalgebra":
        return RegularSubalgebra._from_mask(
            self.system, self.toral.conjugate(), self.system._neg_mask(self._mask)
        )

    def meets(self, other: "RegularSpan") -> "RegularSpan":
        _same_system(self.system, other)
        return RegularSpan._from_mask(
            self.system, self.toral.meet(other.toral), self._mask & other._mask
        )

    def is_contained_in(self, other: "RegularSpan") -> bool:
        _same_system(self.system, other)
        return not self._mask & ~other._mask and self.toral.is_subspace_of(other.toral)


def _same_system(system: RootSystem, span: RegularSpan):
    """The masks of two systems index different roots."""
    if span.system != system:
        raise ValueError("regular spans live in different root systems")


def nr_and_levi(v: RegularSubalgebra) -> tuple[frozenset, RegularSubalgebra]:
    """Nilpotent ideal roots V_n and the Levi part (toral, V_r) of a regular
    subalgebra."""
    levi = RegularSubalgebra._from_mask(v.system, v.toral, v._reductive_mask)
    return v.nilpotent_roots, levi


def normalizer_regular(system: RootSystem, nilpotent_set) -> RegularSubalgebra:
    """Normalizer in k of the span of a purely nilpotent closed root set:
    full Cartan plus every k^beta with -beta outside the set that maps the
    set into itself under root addition."""
    n = frozenset(tuple(a) for a in nilpotent_set)
    if not n <= system.roots:
        raise ValueError("input contains non-roots")
    mask = system._mask_of(n)
    if mask & system._neg_mask(mask):
        raise ValueError("set is not purely nilpotent (contains an opposite pair)")
    if not system._mask_closed(mask):
        raise ValueError("set is not closed")
    return _normalizer(system, mask)


def _normalizer(system: RootSystem, n: int) -> RegularSubalgebra:
    """``normalizer_regular`` of a purely nilpotent closed mask.  beta is
    left out iff -beta is in N or some alpha in N has alpha + beta a root
    outside N: a sum pair of a root outside N with one member in N (not
    both, N being closed) leaves out the other member."""
    out = system._neg_mask(n)
    for k, pairs in enumerate(system._sum_pairs):
        if not n >> k & 1:
            for p in pairs:
                if p & n:
                    out |= p & ~n
    return RegularSubalgebra._from_mask(system, system.cartan, system._full_mask & ~out)


def regular_sum(system: RootSystem, pieces: Sequence[RegularSpan]) -> RegularSpan:
    toral = Subspace.zero(system.coord_dim)
    mask = 0
    for p in pieces:
        _same_system(system, p)
        toral = toral.join(p.toral)
        mask |= p._mask
    return RegularSpan._from_mask(system, toral, mask)


def _with_coroots(system: RootSystem, toral: Subspace, mask: int) -> Subspace:
    """The toral part joined with the coroots of the roots in the mask."""
    rows = map(system._coroot_rows.__getitem__, system._mask_indices(mask))
    return sparse_span([*toral._nz, *rows], system.coord_dim)


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
    _same_system(system, span)
    if mode == "algebra":
        mask = system._closure_mask(span._mask)
        pairs = mask & system._neg_mask(mask) & system._positive_mask
        return RegularSubalgebra._from_mask(
            system, _with_coroots(system, span.toral, pairs), mask
        )
    if mode != "module":
        raise ValueError(f"unknown closure mode {mode!r}")
    if levi is None:
        raise ValueError("module closure needs the acting Levi subalgebra")
    _same_system(system, levi)
    neg, roots = system._neg_mask, system.roots_sorted
    mask, toral, lmask = span._mask, span.toral, levi._mask
    while True:
        before = mask, toral
        # [e_beta, e_-beta] for beta in the Levi and -beta in the span, and
        # [e_beta, e_gamma] for a sum pair with one member in each
        toral = _with_coroots(system, toral, neg(lmask) & mask)
        for k, pairs in enumerate(system._sum_pairs):
            if any(p & lmask and p & mask and p & (lmask | mask) == p for p in pairs):
                mask |= 1 << k
        # [H, e_beta] = beta(H) e_beta
        for k in system._mask_indices(lmask & ~mask):
            if any(sum(map(mul, roots[k], row)) for row in toral.basis):
                mask |= 1 << k
        if (mask, toral) == before:
            return RegularSpan._from_mask(system, toral, mask)


def _check_parabolic_mask(system: RootSystem, mask: int):
    """Raise ValueError unless the mask is parabolic: closed, Q | -Q = R."""
    if not system._mask_closed(mask):
        raise ValueError("parabolic set must be closed")
    if mask | system._neg_mask(mask) != system._full_mask:
        raise ValueError("Q union -Q must be all of R")


class ParabolicRootSet:
    """A parabolic set of roots Q with Q union -Q = R, split as Q_n | Q_r.
    The root sets are read off the mask on first use; a pickle or a copy
    carries the system and the mask alone."""

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

    def __getstate__(self):
        return {"system": self.system, "_mask": self._mask}

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
        return RegularSubalgebra._from_mask(self.system, self.system.cartan, self._mask)

    def levi(self) -> RegularSubalgebra:
        levi = self._mask & self.system._neg_mask(self._mask)
        return RegularSubalgebra._from_mask(self.system, self.system.cartan, levi)

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
    from fractions import Fraction

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
    simple, _ = system._positive_sums(system._positive_mask)
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
