"""Array sweeps over monomial grids with numpy, over the exact one-value layers.
No other module of the package reads a product table's (distinct, index) format."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import Monomial, adjoint, monomial_mul
from .numtheory import float_power
from .states import StateSpec, _finite_beta, evaluate, kms_characterisation_check

__all__ = ["product_table", "kms_grid", "gram_matrix"]


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


def kms_grid(phi: StateSpec, monos: Sequence[Monomial], table: tuple, beta: float | None = None) -> tuple:
    """`kms_defect` over every pair (x, y) and `kms_characterisation_check` over
    every x of a grid, at a finite beta (the state's own by default).

    `table` is `product_table(monos, monos)`: the x y products are its entries
    and the y x products its transpose.  Each distinct product is evaluated
    once.  Returns (worst pair defect, its (x, y), worst characterisation
    defect, its x), each witness the first maximum in x-major order.
    """
    beta = _finite_beta(phi, beta)
    distinct, index = table
    values = np.array([evaluate(phi, p) for p in distinct], dtype=complex)[index]
    weight_a = np.array([float_power(x.a, beta) for x in monos])[:, None]
    weight_b = np.array([float_power(x.b, beta) for x in monos])[:, None]
    defects = np.abs(weight_a * values - weight_b * values.T)
    i, j = np.unravel_index(np.argmax(defects), defects.shape)
    chars = [kms_characterisation_check(phi, x, beta) for x in monos]
    k = chars.index(max(chars))
    return float(defects[i, j]), (monos[i], monos[j]), chars[k], monos[k]


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
