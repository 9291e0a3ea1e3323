"""Parabolic regularization: iterate v -> N_k(nr(v)) until it stabilizes.

The chain is increasing, so it terminates; the fixed point is a parabolic
subalgebra q.  The certificate takes nr(q) from q, which computed it during
the chain, and re-checks the three properties: q is self-normalizing,
q + sigma(q) = k, and k = nr(q) (+) L(q) (+) sigma(nr(q)).
"""

from __future__ import annotations

from crlie._record import _record
from crlie.matrixlie import Subalg, normalizer
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSubalgebra,
    RootSystem,
    _check_parabolic_mask,
    _normalizer,
    normalizer_regular,
)


@_record
class ParabolicCertificate:
    self_normalizing: bool
    spans_with_conjugate: bool
    triple_decomposition: bool

    @property
    def ok(self) -> bool:
        return (
            self.self_normalizing
            and self.spans_with_conjugate
            and self.triple_decomposition
        )


@_record(eq=False)
class RegularizationChain:
    """The successive subalgebras of one regularization run.

    parabolic is the certified fixed point: the last step itself on the
    matrix backend, its ParabolicRootSet on the root backend.
    """

    backend: str
    steps: list
    nr_dims: list
    certificate: ParabolicCertificate
    parabolic: Subalg | ParabolicRootSet

    @property
    def result(self):
        return self.steps[-1]

    @property
    def dims(self):
        return [s.dim for s in self.steps]


def certify_parabolic(q: Subalg) -> ParabolicCertificate:
    amb = q.ambient
    self_norm = normalizer(q).space == q.space
    levi, span = q.meet_join(q.sigma_image())
    nr = q.nilradical()
    snr = nr.sigma_image()
    nr_meet_levi, nr_join_levi = nr.meet_join(levi)
    triple = (
        nr.dim + levi.dim + snr.dim == amb.dim
        and nr_meet_levi.dim == 0
        and nr.meet(snr).dim == 0
        and levi.meet(snr).dim == 0
        and nr_join_levi.join(snr).dim == amb.dim
    )
    return ParabolicCertificate(self_norm, span.dim == amb.dim, triple)


def regularize(v: Subalg) -> RegularizationChain:
    steps = [v]
    guard = v.ambient.dim + 2
    while len(steps) <= guard:
        nxt = normalizer(steps[-1].nilradical())
        if not steps[-1].is_subspace_of(nxt):
            raise AssertionError("regularization chain must increase")
        if nxt.space == steps[-1].space:
            # the fixed point: repeat the step, which keeps its nilradical
            steps.append(steps[-1])
            break
        steps.append(nxt)
    else:
        raise RuntimeError("regularization did not stabilize")
    q = steps[-1]
    nr_dims = [s.nilradical().dim for s in steps]
    return RegularizationChain("matrix", steps, nr_dims, certify_parabolic(q), q)


def certify_parabolic_regular(q: ParabolicRootSet) -> ParabolicCertificate:
    system = q.system
    full, neg = system._full_mask, system._neg_mask
    m, q_n, q_r = map(system._mask_of, (q.q, q.q_n, q.q_r))
    self_norm = normalizer_regular(system, q.q_n)._mask == m
    spans = m | neg(m) == full
    triple = q_n | q_r | neg(q_n) == full and not q_n & q_r and not q_n & neg(q_n)
    return ParabolicCertificate(self_norm, spans, triple)


def regularize_regular(v: RegularSubalgebra) -> RegularizationChain:
    system: RootSystem = v.system
    steps = [v]
    guard = system.cartan.dim + len(system.roots) + 2
    while len(steps) <= guard:
        nxt = _normalizer(system, steps[-1]._nilpotent_mask)
        if not steps[-1].is_contained_in(nxt):
            raise AssertionError("regularization chain must increase")
        steps.append(nxt)
        if nxt.same_span(steps[-2]):
            break
    else:
        raise RuntimeError("regularization did not stabilize")
    nr_dims = [s._nilpotent_mask.bit_count() for s in steps]
    _check_parabolic_mask(system, steps[-1]._mask)
    result = ParabolicRootSet._from_mask(system, steps[-1]._mask)
    return RegularizationChain(
        "regular", steps, nr_dims, certify_parabolic_regular(result), result
    )
