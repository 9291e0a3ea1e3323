"""Builders shared by the tier-1 test modules."""

import random

from crlie.exactlin import DenseMatrix, Subspace
from crlie.rootsys import RegularSpan, lie_closure_regular


def diagonal(values):
    """The square matrix with ``values`` on its diagonal and 0 elsewhere."""
    n = len(values)
    return DenseMatrix(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def seeded_closed_subalgebras(system, salt, count=40):
    """The Lie closures of 0-3 random roots (at most all of them), with the
    coroots of their +- pairs as toral part, seeded by the system and the
    salt."""
    rng = random.Random(f"{salt}:{system.family}{system.rank}")
    for _ in range(count):
        most = min(3, len(system.roots))
        roots = rng.sample(system.roots_sorted, rng.randrange(most + 1))
        span = RegularSpan(system, Subspace.zero(system.coord_dim), roots)
        yield rng, lie_closure_regular(system, span, mode="algebra")
