"""Array sweeps over monomial grids with numpy, over the exact one-value layers.
No other module of the package reads a product table's (distinct, index) format."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import Monomial, adjoint, monomial_mul
from .states import StateSpec, evaluate

__all__ = ["product_table", "gram_matrix"]


def product_table(left: Sequence[Monomial], right: Sequence[Monomial]) -> tuple[list[Monomial], np.ndarray]:
    """All products left[i] * right[j], as (distinct, index).

    distinct lists each product once, in first-seen order, ZERO included when
    some product vanishes; index is an intp array of shape
    (len(left), len(right)) with distinct[index[i, j]] = left[i] * right[j].
    """
    slots: dict[Monomial, int] = {}
    index = np.fromiter(
        (slots.setdefault(monomial_mul(x, y), len(slots)) for x in left for y in right),
        dtype=np.intp,
        count=len(left) * len(right),
    )
    return list(slots), index.reshape(len(left), len(right))


def gram_matrix(phi: StateSpec, xs: Sequence[Monomial]) -> tuple[np.ndarray, float]:
    """Gram matrix G[i][j] = phi(x_i* x_j) and its least eigenvalue.

    Positive semidefiniteness of G certifies positivity of the state formula
    on the span of the chosen monomials.
    """
    if not xs or len(xs) > 64:
        raise ValueError("need between 1 and 64 monomials")
    if any(x.is_zero for x in xs):
        raise ValueError("zero monomial in family")
    gram = np.array([[evaluate(phi, monomial_mul(adjoint(x), y)) for y in xs] for x in xs], dtype=complex)
    eigs = np.linalg.eigvalsh(gram)
    return gram, float(eigs[0])
