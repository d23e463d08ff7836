import functools
import time

import pytest

from affinetoeplitz import algebra
from affinetoeplitz.semigroup import SemigroupElement
from affinetoeplitz.spectrum import contains

GRID_MULTS = (1, 2, 3, 4, 6)


@functools.cache
def enumerate_members(point, bound):
    """The elements (m, a) of a spectrum point with m, a <= bound, by brute force."""
    return frozenset(
        SemigroupElement(m, a)
        for m in range(bound + 1)
        for a in range(1, bound + 1)
        if contains(point, SemigroupElement(m, a))
    )


@pytest.fixture(scope="session")
def grid_monomials():
    """The verification grid: m, n <= 5 and a, b in {1, 2, 3, 4, 6}, in (m, a, b, n) order."""
    return sorted(algebra.monomial_grid(5, GRID_MULTS))


@pytest.fixture(scope="session")
def product_table(grid_monomials):
    """All pairwise products of the grid, each distinct product stored once.

    Returns (seconds, distinct, index): `algebra.product_table` of the grid
    with itself, where distinct[index[i, j]] is monomial_mul(grid[i], grid[j])
    for the (900, 900) index array.  `seconds` is the build time, charged to
    the runtime budget of every criterion using the table.
    """
    start = time.monotonic()
    table = algebra.product_table(grid_monomials, grid_monomials)
    return time.monotonic() - start, *table
