"""Word rewriting to canonical spanning monomials s^m v_a v_b* s*^n.

The algebra is generated by one isometry s together with commuting isometries
v_p (one per prime) subject to

    (T1) v_p s = s^p v_p            (T4) s* v_p = s^(p-1) v_p s*
    (T2) v_p v_q = v_q v_p          (T5) v_p* s^k v_p = 0  for 0 < k < p
    (T3) v_p* v_q = v_q v_p*  (p != q)

Every word in the generators collapses to zero or to a unique monomial
s^m v_a v_b* s*^n.  The engine below never searches: the middle factor
v_a* s*^m s^n v_b of any product reduces in one step (`covariance_reduce`)
through the smallest non-negative solution of (n-m)/gcd = alpha*a' - beta*b',
and `monomial_mul` splices the result back into the outer factors.  Products
of two spanning monomials are therefore again spanning-or-zero, which is the
closure property everything else relies on.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence

import numpy as np

from .numtheory import is_prime, json_number
from .semigroup import euclid_smallest

__all__ = [
    "Monomial",
    "ZERO",
    "GeneratorToken",
    "WordSyntaxError",
    "covariance_reduce",
    "monomial_mul",
    "adjoint",
    "monomial_grid",
    "product_table",
    "parse_word",
    "reduce_word",
    "token_monomial",
]


# --------------------------------------------------------------------------
# monomials
# --------------------------------------------------------------------------


class Monomial(namedtuple("Monomial", "m a b n")):
    """Canonical spanning element s^m v_a v_b* s*^n, or the zero element.

    An immutable tuple of four ints, equal to (and hashing like) the plain
    tuple of its components.  Zero is encoded by the reserved tuple
    (0, 0, 0, 0); genuine monomials have a, b >= 1 and m, n >= 0, and
    distinct tuples denote distinct spanning elements.  The constructor
    validates; the rewriter builds its results with tuple.__new__, since
    they are derived from operands that already passed.
    """

    __slots__ = ()

    def __new__(cls, m: int, a: int, b: int, n: int) -> "Monomial":
        if m or a or b or n:
            if m < 0 or n < 0:
                raise ValueError("shift exponents must be >= 0")
            if a < 1 or b < 1:
                raise ValueError("isometry indices must be >= 1")
        return tuple.__new__(cls, (m, a, b, n))

    @property
    def is_zero(self) -> bool:
        return self.a == 0

    @classmethod
    def identity(cls) -> "Monomial":
        return cls(0, 1, 1, 0)

    @classmethod
    def s_power(cls, k: int) -> "Monomial":
        """s^k for k >= 0, s*^(-k) for k < 0."""
        return cls(k, 1, 1, 0) if k >= 0 else cls(0, 1, 1, -k)

    @classmethod
    def v(cls, a: int) -> "Monomial":
        return cls(0, a, 1, 0)

    @classmethod
    def v_star(cls, b: int) -> "Monomial":
        return cls(0, 1, b, 0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.m:
            parts.append(f"s^{self.m}" if self.m > 1 else "s")
        if self.a > 1:
            parts.append(f"v{self.a}")
        if self.b > 1:
            parts.append(f"v{self.b}*")
        if self.n:
            parts.append(f"s*^{self.n}" if self.n > 1 else "s*")
        return " ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        if self.is_zero:
            return {"kind": "zero"}
        return {"kind": "mono", "m": self.m, "a": self.a, "b": self.b, "n": self.n}

    @classmethod
    def from_json(cls, obj: dict) -> "Monomial":
        if not isinstance(obj, dict):
            raise ValueError(f"a monomial is a JSON object, got {obj!r}")
        if obj.get("kind") == "zero":
            return ZERO
        if obj.get("kind") == "mono":
            return cls(*(json_number(obj[key]) for key in ("m", "a", "b", "n")))
        raise ValueError(f"not a monomial object: {obj!r}")


ZERO = Monomial(0, 0, 0, 0)


@lru_cache(maxsize=1 << 16)
def covariance_reduce(a: int, m: int, n: int, b: int) -> Monomial:
    """Normal form of v_a* s*^m s^n v_b.

    Zero when m and n disagree mod gcd(a, b); otherwise s^alpha v_b' v_a'* s*^beta
    with a' = a/gcd, b' = b/gcd and (alpha, beta) the smallest non-negative
    solution of (n - m)/gcd = alpha*a' - beta*b'.  Memoised: sweeps revisit
    the same (a, m, n, b) middles constantly.
    """
    g = gcd(a, b)
    if (n - m) % g != 0:
        return ZERO
    alpha, beta = euclid_smallest(a // g, b // g, (n - m) // g)
    return tuple.__new__(Monomial, (alpha, b // g, a // g, beta))


def monomial_mul(left: Monomial, right: Monomial) -> Monomial:
    """Product of two spanning monomials in normal form (zero absorbs).

    For left = s^m v_a v_b* s*^n and right = s^q v_c v_d* s*^r, the middle
    v_b* s*^n s^q v_c reduces by `covariance_reduce`; the surviving case is
    s^(m + beta*a) v_(a*c') v_(d*b')* s*^(r + gamma*d) with b' = b/g, c' = c/g,
    g = gcd(b, c) and (beta, gamma) solving (q - n)/g = beta*b' - gamma*c'.
    """
    m, a, b, n = left
    q, c, d, r = right
    if a == 0 or c == 0:
        return ZERO
    beta, c1, b1, gamma = covariance_reduce(b, n, q, c)
    if c1 == 0:
        return ZERO
    return tuple.__new__(Monomial, (m + beta * a, a * c1, d * b1, r + gamma * d))


def adjoint(x: Monomial) -> Monomial:
    """Formal star: (s^m v_a v_b* s*^n)* = s^n v_b v_a* s*^m."""
    if x.is_zero:
        return ZERO
    return tuple.__new__(Monomial, (x.n, x.b, x.a, x.m))


def monomial_grid(shift_max: int, mults: Sequence[int]) -> list[Monomial]:
    """Every s^m v_a v_b* s*^n with m, n in [0, shift_max] and a, b in `mults`,
    in (m, n, a, b) order."""
    if any(c < 1 for c in mults):
        raise ValueError("isometry indices must be >= 1")
    return [
        Monomial(m, a, b, n)
        for m in range(shift_max + 1)
        for n in range(shift_max + 1)
        for a in mults
        for b in mults
    ]


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


# --------------------------------------------------------------------------
# word grammar
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorToken:
    """One parsed term: base generator, power, and whether it is starred.

    kind is "s" or "v"; `index` is the v-subscript (None for s).
    """

    kind: str
    index: int | None = None
    power: int = 1
    star: bool = False


_MAX_INDEX_BITS = 1 << 20  # bound on k * bitlength(p) for a word's term v_p^k


class WordSyntaxError(ValueError):
    """Malformed word; `position` is the zero-based offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_word(text: str, expand_composite: bool = False) -> list[GeneratorToken]:
    """Parse whitespace-separated terms  base power? star?  into tokens.

    base := "s" | "v" uint ; power := "^" uint ; star := "*".  The star
    applies to the whole powered term.  v-subscripts must be prime unless
    `expand_composite` is set, in which case any integer >= 1 is accepted
    and expanded through its prime factorization (v1 is the identity).  A
    term v_p^k with k * bitlength(p) past `_MAX_INDEX_BITS` is refused.
    """
    tokens: list[GeneratorToken] = []
    i, size = 0, len(text)
    while i < size:
        if text[i].isspace():
            i += 1
            continue
        start = i
        ch = text[i]
        if ch == "s":
            kind, index = "s", None
            i += 1
        elif ch == "v":
            i += 1
            j = i
            while j < size and text[j].isdigit():
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after 'v'", i)
            index = int(text[i:j])
            if index < 1:
                raise WordSyntaxError("v-index must be >= 1", start)
            if not expand_composite and not is_prime(index):
                raise WordSyntaxError(
                    f"v{index} is not prime; write it as a product of v_p or enable composite expansion",
                    start,
                )
            kind = "v"
            i = j
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        power = 1
        if i < size and text[i] == "^":
            i += 1
            j = i
            while j < size and text[j].isdigit():
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            power = int(text[i:j])
            i = j
        if kind == "v" and power * index.bit_length() > _MAX_INDEX_BITS:
            raise WordSyntaxError(f"{text[start:i]} builds an index past {_MAX_INDEX_BITS} bits", start)
        star = False
        if i < size and text[i] == "*":
            star = True
            i += 1
        if i < size and not text[i].isspace():
            raise WordSyntaxError(f"unexpected character {text[i]!r}", i)
        tokens.append(GeneratorToken(kind, index, power, star))
    if not tokens:
        raise WordSyntaxError("empty word", 0)
    return tokens


def token_monomial(tok: GeneratorToken) -> Monomial:
    """The monomial of a single powered term."""
    if tok.kind == "s":
        return Monomial.s_power(-tok.power if tok.star else tok.power)
    base = tok.index**tok.power
    return Monomial.v_star(base) if tok.star else Monomial.v(base)


def reduce_word(word: str, expand_composite: bool = False) -> Monomial:
    """Normal form of a word: fold its token monomials through `monomial_mul`."""
    out = Monomial.identity()
    for tok in parse_word(word, expand_composite):
        out = monomial_mul(out, token_monomial(tok))
        if out.is_zero:
            return ZERO
    return out

