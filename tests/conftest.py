import functools
import math
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from affinetoeplitz import algebra
from affinetoeplitz.algebra import Monomial, adjoint, monomial_mul
from affinetoeplitz.semigroup import SemigroupElement
from affinetoeplitz.spectrum import contains
from affinetoeplitz.states import evaluate

GRID_MULTS = (1, 2, 3, 4, 6)

# Reproducible runs for CI (`pytest --hypothesis-profile=ci`): the same examples
# on every run, and a failing example printed as a blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)


@st.composite
def graded_pairs(draw, shift_max, factor_max):
    """(x, y) = (s^m v_a v_b* s*^n, s^q v_c v_d* s*^r), with a c = b d half the time.

    Balanced indices are a = p u, b = p w, c = w t, d = u t for factors up to
    `factor_max`; the others are free up to factor_max^2.  Each middle shift
    pair is aligned mod the gcd of its middle indices, so that x y and y x are
    mostly not zero.
    """
    if draw(st.booleans()):
        p, u, w, t = draw(st.lists(st.integers(1, factor_max), min_size=4, max_size=4))
        a, b, c, d = p * u, p * w, w * t, u * t
    else:
        a, b, c, d = draw(st.lists(st.integers(1, factor_max**2), min_size=4, max_size=4))
    m, n, q, r = draw(st.lists(st.integers(0, shift_max), min_size=4, max_size=4))
    if draw(st.booleans()):
        g, h = math.gcd(b, c), math.gcd(d, a)
        q -= (q - n) % g
        m -= (m - r) % h
        q, m = q + g * (q < 0), m + h * (m < 0)
    return Monomial(m, a, b, n), Monomial(q, c, d, r)


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


def tabulate_products(left, right):
    """All products left[i] * right[j], as (distinct, index).

    distinct lists each product once, in first-seen order, ZERO included when
    some product vanishes; index is an intp array of shape
    (len(left), len(right)) with distinct[index[i, j]] = left[i] * right[j].
    """
    slots = {}
    index = np.fromiter(
        (slots.setdefault(monomial_mul(x, y), len(slots)) for x in left for y in right),
        dtype=np.intp,
        count=len(left) * len(right),
    )
    return list(slots), index.reshape(len(left), len(right))


def gram_matrix(phi, xs):
    """Gram matrix G[i][j] = phi(x_i* x_j) and its least eigenvalue.

    Positive semidefiniteness of G certifies positivity of the state formula
    on the span of the chosen monomials.
    """
    gram = np.array([[evaluate(phi, monomial_mul(adjoint(x), y)) for y in xs] for x in xs], dtype=complex)
    return gram, float(np.linalg.eigvalsh(gram)[0])


@pytest.fixture(scope="session")
def product_table(grid_monomials):
    """All pairwise products of the grid, each distinct product stored once.

    Returns (seconds, distinct, index): `tabulate_products` of the grid
    with itself, where distinct[index[i, j]] is monomial_mul(grid[i], grid[j])
    for the (900, 900) index array.  `seconds` is the build time, charged to
    the runtime budget of every criterion using the table.
    """
    start = time.monotonic()
    table = tabulate_products(grid_monomials, grid_monomials)
    return time.monotonic() - start, *table
