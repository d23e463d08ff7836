"""Word rewriting to canonical spanning monomials s^m v_a v_b* s*^n.

The algebra is generated by one isometry s together with commuting isometries
v_p (one per prime) subject to

    (T1) v_p s = s^p v_p            (T4) s* v_p = s^(p-1) v_p s*
    (T2) v_p v_q = v_q v_p          (T5) v_p* s^k v_p = 0  for 0 < k < p
    (T3) v_p* v_q = v_q v_p*  (p != q)

Every word in the generators collapses to zero or to a unique monomial
s^m v_a v_b* s*^n.  The engine below never searches: the middle factor
v_a* s*^m s^n v_b of any product reduces in one step (`covariance_reduce`)
through the join of (m, a) and (n, b) in the quasi-lattice order, and
`monomial_mul` splices the result back into the outer factors.  Products
of two spanning monomials are therefore again spanning-or-zero, which is the
closure property everything else relies on.  `reduce_word` grows the
normal form of a word in closed form, by (T1) and its adjoint, and takes
that one step only where an unstarred term follows a starred part.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .numtheory import is_prime, json_number
from .semigroup import TupleValue, join

__all__ = [
    "Monomial",
    "ZERO",
    "GeneratorToken",
    "WordSyntaxError",
    "covariance_reduce",
    "monomial_mul",
    "adjoint",
    "monomial_grid",
    "parse_word",
    "reduce_word",
]


# --------------------------------------------------------------------------
# monomials
# --------------------------------------------------------------------------


class Monomial(TupleValue, namedtuple("Monomial", "m a b n")):
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
            parts.append(f"s^{self.n}*" if self.n > 1 else "s*")
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
_IDENTITY = Monomial.identity()
_tuple_new = tuple.__new__  # the rewriter's results skip validation; bound once for the hot paths


@lru_cache(maxsize=1 << 16)
def covariance_reduce(a: int, m: int, n: int, b: int) -> Monomial:
    """Normal form of v_a* s*^m s^n v_b, the product T_(m,a)* T_(n,b).

    Zero when (m, a) and (n, b) have no common upper bound; otherwise
    s^alpha v_b' v_a'* s*^beta with (alpha, b'), (beta, a') the complements
    a^-1 * (join) and b^-1 * (join) from `join`.  Memoised: sweeps revisit
    the same (a, m, n, b) middles constantly.
    """
    lub = join((m, a), (n, b))
    if lub is None:
        return ZERO
    _, _, alpha, beta, a1, b1 = lub
    return _tuple_new(Monomial, (alpha, b1, a1, beta))


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
    return _tuple_new(Monomial, (m + beta * a, a * c1, d * b1, r + gamma * d))


def adjoint(x: Monomial) -> Monomial:
    """Formal star: (s^m v_a v_b* s*^n)* = s^n v_b v_a* s*^m."""
    if x.is_zero:
        return ZERO
    return _tuple_new(Monomial, (x.n, x.b, x.a, x.m))


def monomial_grid(shift_max: int, mults: Sequence[int]) -> list[Monomial]:
    """Every s^m v_a v_b* s*^n with m, n in [0, shift_max] and a, b in `mults`,
    in (m, n, a, b) order; a repeated mult counts once, where it first occurs."""
    if any(c < 1 for c in mults):
        raise ValueError("isometry indices must be >= 1")
    mults = list(dict.fromkeys(mults))
    return [
        Monomial(m, a, b, n)
        for m in range(shift_max + 1)
        for n in range(shift_max + 1)
        for a in mults
        for b in mults
    ]


# --------------------------------------------------------------------------
# word grammar
# --------------------------------------------------------------------------


class GeneratorToken(TupleValue, namedtuple("GeneratorToken", "kind index power star", defaults=(None, 1, False))):
    """One parsed term: base generator, power, and whether it is starred.

    An immutable tuple (kind, index, power, star), equal to (and hashing like)
    the plain tuple.  kind is "s" or "v"; `index` is the v-subscript (None
    for s).  The constructor does not validate: `parse_word` checks the
    power and the index before it builds a token.
    """

    __slots__ = ()


# bound on k * bitlength(p) for a word's term v_p^k.  `join` inverts indices
# modulo each other, quadratic in their bit length: `v2^32768* s^5 v3^32767`,
# two terms at this bound, reduces in about 0.1 s, and the same word at 2^20
# took 28 s.  Every result the CLI can print (4300 digits, about 14,300 bits)
# stays admitted.
_MAX_INDEX_BITS = 1 << 16


class WordSyntaxError(ValueError):
    """Malformed word; `position` is the zero-based offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# one term: base, v-digits, power digits, star, and any text left after the
# term; the final alternative is a character no term starts with.  Digits are
# ASCII only: \d would also take other scripts' digits, which int() reads
_TERM = re.compile(r"(s|v([0-9]*))(?:\^([0-9]*))?(\*?)(\S*)|\S")


def _uint(digits: str, position: int) -> int:
    """The digit run at `position` as an int; a run past int()'s digit limit
    (4300 digits by default since Python 3.11) is refused where it starts."""
    try:
        return int(digits)
    except ValueError:
        raise WordSyntaxError(f"a run of {len(digits)} digits is too long to read", position) from None


def parse_word(text: str, expand_composite: bool = False) -> list[GeneratorToken]:
    """Parse whitespace-separated terms  base power? star?  into tokens.

    base := "s" | "v" uint ; power := "^" uint ; star := "*", where a uint
    is a run of ASCII digits 0-9.  The star applies to the whole powered
    term.  v-subscripts must be prime unless `expand_composite` is set, in
    which case any integer >= 1 is accepted as a single token (v1 is the
    identity).  A term v_p^k with k * bitlength(p) past `_MAX_INDEX_BITS` is
    refused.
    """
    tokens: list[GeneratorToken] = []
    for term in _TERM.finditer(text):
        base, digits, power, star, rest = term.groups()
        start = term.start()
        if base is None:
            raise WordSyntaxError(f"unexpected character {text[start]!r}", start)
        index = None
        if digits is not None:
            if not digits:
                raise WordSyntaxError("expected digits after 'v'", start + 1)
            index = _uint(digits, start + 1)
            if index < 1:
                raise WordSyntaxError("v-index must be >= 1", start)
            if not expand_composite and not is_prime(index):
                message = f"v{index} is not prime; write it as a product of v_p or enable composite expansion"
                raise WordSyntaxError(message, start)
        if power == "":
            raise WordSyntaxError("expected digits after '^'", term.start(3))
        power = 1 if power is None else _uint(power, term.start(3))
        if index is not None and power * index.bit_length() > _MAX_INDEX_BITS:
            raise WordSyntaxError(f"{text[start:term.start(4)]} builds an index past {_MAX_INDEX_BITS} bits", start)
        if rest:
            raise WordSyntaxError(f"unexpected character {rest[0]!r}", term.start(5))
        tokens.append(_tuple_new(GeneratorToken, (base[0], index, power, star == "*")))
    if not tokens:
        raise WordSyntaxError("empty word", 0)
    return tokens


def reduce_word(word: str, expand_composite: bool = False) -> Monomial:
    """Normal form of a word, grown term by term as s^m v_a v_b* s*^n.

    A term is s^k v_q with k = 0 or q = 1, or its star v_q* s*^k.  Three cases:

    * a starred term: v_b* s*^n v_q* s*^k = v_(b*q)* s*^(n*q + k), the
      adjoint of (T1), so no join is needed;
    * an unstarred term while nothing is starred (b = 1, n = 0):
      v_a s^k v_q = s^(a*k) v_(a*q), which is (T1);
    * an unstarred term after a starred part (a junction): `monomial_mul`,
      whose middle v_b* s*^n s^k v_q is the one covariance step.  A zero
      there is the whole word's value.
    """
    m, a, b, n = _IDENTITY
    for kind, index, power, star in parse_word(word, expand_composite):
        shift, index = (power, 1) if kind == "s" else (0, index**power)
        if star:
            b, n = b * index, n * index + shift
        elif b == 1 and n == 0:
            m, a = m + a * shift, a * index
        else:
            m, a, b, n = monomial_mul(_tuple_new(Monomial, (m, a, b, n)), _tuple_new(Monomial, (shift, index, 1, 0)))
            if a == 0:
                return ZERO
    return _tuple_new(Monomial, (m, a, b, n))
