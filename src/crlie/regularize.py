"""Parabolic regularization: iterate v -> N_k(nr(v)) until it stabilizes.

The chain is increasing, so it terminates; the fixed point is a parabolic
subalgebra, which the certificate re-verifies from scratch (self-normalizing,
q + sigma(q) = k, and k = nr(q) (+) L(q) (+) sigma(nr(q))).
"""

from __future__ import annotations

from dataclasses import dataclass

from crlie.crcore import levi_part
from crlie.matrixlie import Subalg, nilradical_nr, normalizer
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSubalgebra,
    RootSystem,
    neg,
    normalizer_regular,
)


@dataclass
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


class RegularizationChain:
    """The successive subalgebras of one regularization run.

    parabolic is the certified fixed point: the last step itself on the
    matrix backend, its ParabolicRootSet on the root backend.
    """

    def __init__(self, backend: str, steps, nr_dims, certificate, parabolic):
        self.backend = backend
        self.steps = list(steps)
        self.nr_dims = list(nr_dims)
        self.certificate = certificate
        self.parabolic = parabolic

    @property
    def result(self):
        return self.steps[-1]

    @property
    def dims(self):
        return [s.dim for s in self.steps]

    def __repr__(self):
        return (
            f"RegularizationChain({self.backend}, dims {self.dims}, "
            f"certified={self.certificate.ok})"
        )


def certify_parabolic(q: Subalg) -> ParabolicCertificate:
    amb = q.ambient
    self_norm = normalizer(q).space == q.space
    spans = q.join(q.sigma_image()).dim == amb.dim
    nr = nilradical_nr(q)
    levi = levi_part(q)
    snr = nr.sigma_image()
    triple = (
        nr.dim + levi.dim + snr.dim == amb.dim
        and nr.meet(levi).dim == 0
        and nr.meet(snr).dim == 0
        and levi.meet(snr).dim == 0
        and nr.join(levi).join(snr).dim == amb.dim
    )
    return ParabolicCertificate(self_norm, spans, triple)


def regularize(v: Subalg) -> RegularizationChain:
    steps = [v]
    nr = nilradical_nr(v)
    nr_dims = [nr.dim]
    guard = v.ambient.dim + 2
    while len(steps) <= guard:
        nxt = normalizer(nr)
        assert steps[-1].is_subspace_of(nxt), "regularization chain must increase"
        steps.append(nxt)
        if nxt.space == steps[-2].space:
            break
        nr = nilradical_nr(nxt)
        nr_dims.append(nr.dim)
    else:
        raise RuntimeError("regularization did not stabilize")
    nr_dims.append(nr.dim)
    return RegularizationChain(
        "matrix", steps, nr_dims, certify_parabolic(steps[-1]), steps[-1]
    )


def certify_parabolic_regular(q: ParabolicRootSet) -> ParabolicCertificate:
    system = q.system
    self_norm = normalizer_regular(system, q.q_n).rootset == q.q
    spans = q.q | {neg(a) for a in q.q} == system.roots
    triple = (
        q.q_n | q.q_r | {neg(a) for a in q.q_n} == system.roots
        and not q.q_n & q.q_r
        and not q.q_n & {neg(a) for a in q.q_n}
    )
    return ParabolicCertificate(self_norm, spans, triple)


def regularize_regular(v: RegularSubalgebra) -> RegularizationChain:
    system: RootSystem = v.system
    steps = [v]
    nr_dims = [len(v.nilpotent_roots)]
    guard = system.cartan.dim + len(system.roots) + 2
    while len(steps) <= guard:
        nxt = normalizer_regular(system, steps[-1].nilpotent_roots)
        assert steps[-1].is_contained_in(nxt), "regularization chain must increase"
        steps.append(nxt)
        if nxt.same_span(steps[-2]):
            break
        nr_dims.append(len(nxt.nilpotent_roots))
    else:
        raise RuntimeError("regularization did not stabilize")
    nr_dims.append(len(steps[-1].nilpotent_roots))
    result = ParabolicRootSet(system, steps[-1].rootset)
    return RegularizationChain(
        "regular", steps, nr_dims, certify_parabolic_regular(result), result
    )
