"""Helpers shared by the test modules."""

from ellrmx.elliptic import LatticeIndex


def all_indices(n: int) -> list[LatticeIndex]:
    """All ``n^2`` canonical characteristics, row-major."""
    return [LatticeIndex(a1, a2, n) for a1 in range(n) for a2 in range(n)]
