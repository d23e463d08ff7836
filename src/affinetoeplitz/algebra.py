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

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence, Union

import numpy as np

from .numtheory import is_prime
from .semigroup import euclid_smallest

__all__ = [
    "Monomial",
    "ZERO",
    "GaussianRational",
    "AlgebraElement",
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
    "sigma_phase",
    "sigma_analytic_factor",
    "expectation_coaction",
    "expectation_dual_action",
]


# --------------------------------------------------------------------------
# monomials
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Canonical spanning element s^m v_a v_b* s*^n, or the zero element.

    Zero is encoded by the reserved tuple (0, 0, 0, 0); genuine monomials
    have a, b >= 1 and m, n >= 0, and distinct tuples denote distinct
    spanning elements.
    """

    m: int
    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        if (self.m, self.a, self.b, self.n) == (0, 0, 0, 0):
            return
        if self.m < 0 or self.n < 0:
            raise ValueError("shift exponents must be >= 0")
        if self.a < 1 or self.b < 1:
            raise ValueError("isometry indices must be >= 1")

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
            return cls(int(obj["m"]), int(obj["a"]), int(obj["b"]), int(obj["n"]))
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
    return Monomial(alpha, b // g, a // g, beta)


def monomial_mul(left: Monomial, right: Monomial) -> Monomial:
    """Product of two spanning monomials in normal form (zero absorbs).

    For left = s^m v_a v_b* s*^n and right = s^q v_c v_d* s*^r, the middle
    v_b* s*^n s^q v_c reduces by `covariance_reduce`; the surviving case is
    s^(m + beta*a) v_(a*c') v_(d*b')* s*^(r + gamma*d) with b' = b/g, c' = c/g,
    g = gcd(b, c) and (beta, gamma) solving (q - n)/g = beta*b' - gamma*c'.
    """
    if left.is_zero or right.is_zero:
        return ZERO
    mid = covariance_reduce(left.b, left.n, right.m, right.a)
    if mid.is_zero:
        return ZERO
    beta, c1, b1, gamma = mid.m, mid.a, mid.b, mid.n
    return Monomial(
        left.m + beta * left.a,
        left.a * c1,
        right.b * b1,
        right.n + gamma * right.b,
    )


def adjoint(x: Monomial) -> Monomial:
    """Formal star: (s^m v_a v_b* s*^n)* = s^n v_b v_a* s*^m."""
    if x.is_zero:
        return ZERO
    return Monomial(x.n, x.b, x.a, x.m)


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
# exact scalars and finite linear combinations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other) -> "Scalar":
        if isinstance(other, (complex, float)):
            return complex(self) + other  # float mode wins
        other = _exact(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "Scalar":
        return self + (-other if isinstance(other, (complex, float)) else -_exact(other))

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (complex, float)):
            return complex(self) * other
        other = _exact(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"{self.re}+{self.im}i"


Scalar = Union[GaussianRational, complex]


def _exact(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(Fraction(c))
    raise TypeError(f"not an exact scalar: {c!r}")


def _as_scalar(c) -> Scalar:
    """Exact scalars stay exact; floats and complex drop to float mode."""
    if isinstance(c, (GaussianRational, complex)):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(Fraction(c))
    if isinstance(c, float):
        return complex(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _conj(c: Scalar) -> Scalar:
    return c.conjugate()


class AlgebraElement:
    """Finite linear combination of spanning monomials.

    Coefficients are exact Gaussian rationals by default; passing a float or
    complex coefficient switches the affected terms to float mode.  Zero
    coefficients are never stored, and the zero monomial is never a key.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Scalar] | None = None):
        self._terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                self._add_term(mono, _as_scalar(coeff))

    def _add_term(self, mono: Monomial, coeff: Scalar) -> None:
        if mono.is_zero or not coeff:
            return
        cur = self._terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new:
            self._terms[mono] = new
        else:
            self._terms.pop(mono, None)

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=1) -> "AlgebraElement":
        return cls({mono: coeff} if not mono.is_zero else None)

    def terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: (kv[0].m, kv[0].a, kv[0].b, kv[0].n))

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, GaussianRational(Fraction(0)))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = AlgebraElement()
        for mono, coeff in self._terms.items():
            out._add_term(mono, coeff)
        for mono, coeff in other._terms.items():
            out._add_term(mono, coeff)
        return out

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = AlgebraElement()
        for lm, lc in self._terms.items():
            for rm, rc in other._terms.items():
                out._add_term(monomial_mul(lm, rm), lc * rc)
        return out

    def scaled(self, coeff) -> "AlgebraElement":
        out = AlgebraElement()
        c = _as_scalar(coeff)
        for mono, cur in self._terms.items():
            out._add_term(mono, cur * c)
        return out

    def adjoint(self) -> "AlgebraElement":
        out = AlgebraElement()
        for mono, coeff in self._terms.items():
            out._add_term(adjoint(mono), _conj(coeff))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({coeff})*{mono}" for mono, coeff in self.terms())


# --------------------------------------------------------------------------
# word grammar
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorToken:
    """One parsed term: base generator, power, and whether it is starred.

    kind is "s" or "v"; `index` is the v-subscript (None for s).
    """

    kind: str
    index: int | None
    power: int
    star: bool


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
    and expanded through its prime factorization (v1 is the identity).
    """
    tokens: list[GeneratorToken] = []
    i, size = 0, len(text)
    saw_term = False
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
        star = False
        if i < size and text[i] == "*":
            star = True
            i += 1
        if i < size and not text[i].isspace():
            raise WordSyntaxError(f"unexpected character {text[i]!r}", i)
        tokens.append(GeneratorToken(kind, index, power, star))
        saw_term = True
    if not saw_term:
        raise WordSyntaxError("empty word", 0)
    return tokens


def token_monomial(tok: GeneratorToken) -> Monomial:
    """The monomial of a single powered term."""
    if tok.kind == "s":
        return Monomial.s_power(-tok.power if tok.star else tok.power)
    base = tok.index**tok.power
    return Monomial.v_star(base) if tok.star else Monomial.v(base)


def reduce_word(word: str | Iterable[GeneratorToken], expand_composite: bool = False) -> Monomial:
    """Normal form of a word: fold the token monomials through `monomial_mul`."""
    tokens = parse_word(word, expand_composite) if isinstance(word, str) else list(word)
    out = Monomial.identity()
    for tok in tokens:
        out = monomial_mul(out, token_monomial(tok))
        if out.is_zero:
            return ZERO
    return out


# --------------------------------------------------------------------------
# dynamics and expectations
# --------------------------------------------------------------------------


def sigma_phase(x: Monomial, t: float) -> complex:
    """Eigenvalue of the time evolution at time t: (a/b)^(it)."""
    if x.is_zero:
        raise ValueError("zero has no dynamical phase")
    return cmath.exp(1j * t * (math.log(x.a) - math.log(x.b)))


def sigma_analytic_factor(x: Monomial, beta: float) -> float:
    """Scalar with sigma_{i*beta}(x) = (a/b)^(-beta) * x."""
    if x.is_zero:
        raise ValueError("zero has no dynamical phase")
    return (x.a / x.b) ** (-beta)


def expectation_coaction(x: AlgebraElement) -> AlgebraElement:
    """Projection onto the diagonal monomials (a = b and m = n)."""
    out = AlgebraElement()
    for mono, coeff in x.terms():
        if mono.a == mono.b and mono.m == mono.n:
            out._add_term(mono, coeff)
    return out


def expectation_dual_action(x: AlgebraElement) -> AlgebraElement:
    """Projection onto the fixed points of the dynamics (a = b)."""
    out = AlgebraElement()
    for mono, coeff in x.terms():
        if mono.a == mono.b:
            out._add_term(mono, coeff)
    return out
