"""CR structure of subalgebras: Levi parts, nilradicals, n-reductiveness.

A CR algebra here is a pair (k, v) with k a compact Lie algebra and v a
complex subalgebra of its complexification; the ambient AmbientAlgebra plays
the role of k^C.  The same notions exist for t-regular data, where they are
plain root-set arithmetic; the two routes are kept separate so results can be
cross-checked.
"""

from __future__ import annotations

from crlie._record import _record
from crlie.matrixlie import Subalg, maximal_torus, normalizer
from crlie.rootsys import RegularSubalgebra


def levi_part(v: Subalg) -> Subalg:
    """L(v) = v meet sigma(v), the complexified Levi factor of the CR algebra."""
    return v.meet(v.sigma_image())


def cr_dims(v: Subalg) -> tuple[int, int]:
    """(CR dimension, CR codimension) of the orbit attached to v."""
    levi, span = v.meet_join(v.sigma_image())
    return v.dim - levi.dim, v.ambient.dim - span.dim


def n_reductive_split(v: Subalg):
    """Whether v = nr(v) (+) L(v), together with both pieces."""
    nr = v.nilradical()
    levi = levi_part(v)
    meet, join = nr.meet_join(levi)
    return meet.dim == 0 and join.space == v.space, nr, levi


def is_n_reductive(v: Subalg) -> bool:
    ok, _, _ = n_reductive_split(v)
    return ok


def strengthens(v1: Subalg, v2: Subalg) -> bool:
    """v2 strengthens v1: same Levi part, larger algebra."""
    return (
        levi_part(v1).space == levi_part(v2).space
        and v1.is_subspace_of(v2)
    )


@_record
class RegularityReport:
    kind: str  # "I", "II" or "III"
    ambient_rank: int
    v_normalizer_rank: int
    levi_normalizer_rank: int


def regularity_type(v: Subalg) -> RegularityReport:
    """Type I: some maximal torus normalizes v.  Type II: some maximal torus
    normalizes L(v) but none normalizes v.  Type III: neither.

    Any normalizing torus lies in N(v) meet sigma(N(v)), which is sigma-stable
    and hence reductive, so the test compares the dimension of a maximal
    torus built there with the ambient rank, which the ambient keeps.  When
    that space is the whole ambient, its rank is the ambient rank.
    """
    amb = v.ambient
    ambient_rank = amb.rank

    def rank(m):
        return ambient_rank if m.dim == amb.dim else maximal_torus(m).dim

    m1, m2 = (n.meet(n.sigma_image()) for n in (normalizer(v), normalizer(levi_part(v))))
    rank1 = rank(m1)
    rank2 = rank1 if m2 == m1 else rank(m2)

    if rank1 == ambient_rank:
        kind = "I"
    elif rank2 == ambient_rank:
        kind = "II"
    else:
        kind = "III"
    return RegularityReport(kind, ambient_rank, rank1, rank2)


# ---------------------------------------------------------------------------
# the same layer for t-regular data
# ---------------------------------------------------------------------------


def levi_part_regular(v: RegularSubalgebra) -> RegularSubalgebra:
    return RegularSubalgebra._from_mask(
        v.system, v.toral.meet(v.toral.conjugate()), v._reductive_mask
    )


def nr_regular(v: RegularSubalgebra) -> frozenset:
    return v.nilpotent_roots


def cr_dims_regular(v: RegularSubalgebra) -> tuple[int, int]:
    system = v.system
    levi = levi_part_regular(v)
    cr_dim = v.dim - levi.dim
    both = v._mask | system._neg_mask(v._mask)
    joint_toral = v.toral.join(v.toral.conjugate())
    cr_codim = ambient_dim_regular(v) - joint_toral.dim - both.bit_count()
    return cr_dim, cr_codim


def is_n_reductive_regular(v: RegularSubalgebra) -> bool:
    """For t-regular v = a (+) sum of root spaces this is just a = conj(a);
    the dimension count is checked alongside as a second route."""
    direct = v.toral == v.toral.conjugate()
    levi = levi_part_regular(v)
    counted = v.dim == v._nilpotent_mask.bit_count() + levi.dim
    if direct != counted:
        raise AssertionError("n-reductivity tests disagree on t-regular data")
    return direct


def strengthens_regular(v1: RegularSubalgebra, v2: RegularSubalgebra) -> bool:
    l1, l2 = levi_part_regular(v1), levi_part_regular(v2)
    return l1.same_span(l2) and v1.is_contained_in(v2)


def ambient_dim_regular(v: RegularSubalgebra) -> int:
    return v.system.cartan.dim + len(v.system.roots)
