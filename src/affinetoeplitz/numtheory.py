"""Integer, supernatural and zeta arithmetic shared by every other module.

Factorizations are plain tuples of increasing (prime, exponent) pairs,
residues are `ResidueClass` values (split into prime-power components and
reassembled by the Chinese remainder theorem), and supernatural numbers are
formal prime products with exponents in N union {inf}.  Whether an integer
divides a supernatural number is decided by stripping the listed primes,
without factoring the integer.

All integer arithmetic is exact (Python integers).  Real values are IEEE
doubles; series are accumulated with `math.fsum`, so the only error that
matters is the stated truncation error, which every routine bounds
explicitly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Iterable, Iterator

__all__ = [
    "SupernaturalNumber",
    "ResidueClass",
    "NABLA",
    "factorize",
    "is_prime",
    "first_primes",
    "divisors",
    "iter_smooth",
    "sn_divides",
    "int_divides_sn",
    "crt_split",
    "crt_combine",
    "float_power",
    "json_number",
    "zeta",
    "zeta_e",
]


# --------------------------------------------------------------------------
# primes and factorizations
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_primes(k: int) -> list[int]:
    """The first k primes (none for k <= 0)."""
    return list(itertools.islice(filter(is_prime, itertools.count(2)), max(k, 0)))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer by trial division.

    Returns the (prime, exponent) pairs in increasing prime order; the empty
    tuple represents 1.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def iter_smooth(primes: Iterable[int]) -> Iterator[int]:
    """Positive integers with all prime factors in `primes`, in increasing order."""
    ps = sorted(set(primes))
    heap = [1]
    seen = {1}
    while heap:
        n = heapq.heappop(heap)
        yield n
        for p in ps:
            m = n * p
            if m not in seen:
                seen.add(m)
                heapq.heappush(heap, m)


def json_number(value, kind: type = int):
    """An integer (`kind` int), real (`kind` float) or rational (`kind`
    Fraction) leaf of a JSON input.

    Accepts a JSON number or a numeric string ("inf" for a real, "p/q" for a
    rational) whose value `kind` represents exactly; a rational reads a float
    by its decimal text, so 0.1 is 1/10.  Anything else -- null, a boolean, a
    container, 0.5 where an integer is due -- raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    if kind is Fraction:
        return Fraction(str(value))
    out = kind(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return out


# --------------------------------------------------------------------------
# supernatural numbers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal product prod_p p^{e_p} with exponents in N union {inf}.

    `listed` holds the finitely many primes whose exponent differs from
    `default`; `default` is 0 (finitely supported values) or inf (cofinite
    values such as the largest element, which has every exponent infinite).
    """

    listed: tuple[tuple[int, int | float], ...] = ()
    default: int | float = 0

    def __post_init__(self) -> None:
        if self.default not in (0, inf):
            raise ValueError("default exponent must be 0 or inf")
        last = 1
        for p, e in self.listed:
            if p <= last or not is_prime(p):
                raise ValueError(f"listed primes must increase, got {p}")
            if e == self.default:
                raise ValueError(f"exponent at {p} equals the default; not canonical")
            if e != inf and (not isinstance(e, int) or e < 0):
                raise ValueError(f"exponent at {p} must be a natural number or inf")
            last = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        return cls(factorize(n), 0)

    @classmethod
    def from_exponents(cls, exps: dict[int, int | float], default: int | float = 0) -> "SupernaturalNumber":
        listed = tuple(sorted((p, e) for p, e in exps.items() if e != default))
        return cls(listed, default)

    # -- queries -----------------------------------------------------------

    def exponent(self, p: int) -> int | float:
        for q, e in self.listed:
            if q == p:
                return e
        return self.default

    @property
    def is_finite(self) -> bool:
        return self.default == 0 and all(e != inf for _, e in self.listed)

    def to_int(self) -> int:
        if not self.is_finite:
            raise ValueError("supernatural number is infinite")
        out = 1
        for p, e in self.listed:
            out *= p ** int(e)
        return out

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        factors = {str(p): ("inf" if e == inf else e) for p, e in self.listed}
        return {"factors": factors, "default": "inf" if self.default == inf else 0}

    @classmethod
    def from_json(cls, obj: dict) -> "SupernaturalNumber":
        if not isinstance(obj, dict):
            raise ValueError(f"a supernatural number is a JSON object, got {obj!r}")
        default = inf if obj.get("default") == "inf" else json_number(obj.get("default", 0))
        factors = obj.get("factors", {})
        if not isinstance(factors, dict):
            raise ValueError(f"factors are a JSON object of prime -> exponent, got {factors!r}")
        exps = {int(key): inf if val == "inf" else json_number(val) for key, val in factors.items()}
        return cls.from_exponents(exps, default)


NABLA = SupernaturalNumber((), inf)  # the largest: every exponent infinite


def sn_divides(m: SupernaturalNumber, n: SupernaturalNumber) -> bool:
    """Pointwise exponent comparison e_p(m) <= e_p(n)."""
    if m.default > n.default:
        return False
    return all(m.exponent(p) <= n.exponent(p) for p, _ in m.listed + n.listed)


def int_divides_sn(a: int, n: SupernaturalNumber) -> bool:
    """Whether the positive integer a divides the supernatural number n.

    Strips n's listed primes from a, failing at the first exponent that a's
    multiplicity exceeds (counted by division, so O(log a) however large the
    exponent); what is left must be 1 unless n's default exponent is inf.
    """
    if a < 1:
        raise ValueError("a must be positive")
    for p, e in n.listed:
        count = 0
        while a % p == 0:
            a //= p
            count += 1
        if count > e:
            return False
    return n.default == inf or a == 1


# --------------------------------------------------------------------------
# residues and CRT
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueClass:
    """A residue value in Z/modulus."""

    modulus: int
    value: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} outside [0, {self.modulus})")

    def reduce(self, modulus: int) -> "ResidueClass":
        """Project to Z/modulus; requires modulus | self.modulus."""
        if self.modulus % modulus != 0:
            raise ValueError(f"{modulus} does not divide {self.modulus}")
        return ResidueClass(modulus, self.value % modulus)


def crt_split(r: ResidueClass) -> list[ResidueClass]:
    """Reduce a residue mod N to its prime-power components."""
    return [r.reduce(p**e) for p, e in factorize(r.modulus)]


def crt_combine(parts: Iterable[ResidueClass]) -> ResidueClass:
    """Inverse of `crt_split`: assemble a residue from pairwise coprime moduli."""
    parts = list(parts)
    moduli = [part.modulus for part in parts]
    modulus = math.prod(moduli)
    if modulus != math.lcm(*moduli):
        raise ValueError(f"moduli {moduli} are not pairwise coprime")
    value = 0
    for part in parts:
        other = modulus // part.modulus
        value = (value + part.value * other * pow(other, -1, part.modulus)) % modulus
    return ResidueClass(modulus, value)


# --------------------------------------------------------------------------
# powers and zeta values
# --------------------------------------------------------------------------


def float_power(n: int, s: float) -> float:
    """n^s as a float for an integer n >= 1 of any size.

    IEEE pow wherever n fits a double (so 1^s = 1 and n^-inf = 0 for n >= 2;
    an overflowing result raises OverflowError), and exp(s log n) beyond.
    """
    try:
        base = float(n)
    except OverflowError:
        return math.exp(s * math.log(n))
    return base**s


_ZETA_TOL = 1e-12


@lru_cache(maxsize=256)
def zeta(s: float) -> float:
    """Riemann zeta for s > 1 within absolute error `_ZETA_TOL`.

    Direct series plus an integral tail correction; two Euler-Maclaurin
    correction terms keep the cutoff small near s = 1.  The remainder after
    the B_2 term is bounded by the first omitted term
    s(s+1)(s+2)/720 * N^(-s-3), which fixes the cutoff N.  Memoised: the
    states evaluate the same zeta(beta - 1) on every off-diagonal monomial.
    """
    if s == inf:
        return 1.0
    if s <= 1:
        raise ValueError(f"zeta series requires s > 1, got {s}")
    c = s * (s + 1) * (s + 2) / 720.0
    n = max(16, math.ceil((c / (0.5 * _ZETA_TOL)) ** (1.0 / (s + 3))))
    head = math.fsum(k**-s for k in range(1, n))
    tail = n ** (1 - s) / (s - 1) + 0.5 * n**-s + (s / 12.0) * n ** (-s - 1)
    return head + tail


def zeta_e(s: float, primes: Iterable[int]) -> float:
    """Euler product prod_{p in E} (1 - p^-s)^-1 over a finite prime set.

    Converges for every s > 0 because the product is finite.
    """
    if s != inf and s <= 0:
        raise ValueError(f"zeta_e requires s > 0, got {s}")
    ps = sorted(set(primes))
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if s == inf:
        return 1.0
    out = 1.0
    for p in ps:
        out *= 1.0 / (1.0 - p ** (-s))
    return out
