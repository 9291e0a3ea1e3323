"""Matrix builders shared by the tier-1 test modules."""

from crlie.exactlin import DenseMatrix


def diagonal(values):
    """The square matrix with ``values`` on its diagonal and 0 elsewhere."""
    n = len(values)
    return DenseMatrix(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
