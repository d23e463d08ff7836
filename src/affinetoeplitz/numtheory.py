"""Integer, supernatural and zeta arithmetic shared by every other module.

Factorizations are plain tuples of increasing (prime, exponent) pairs,
found by trial division by the primes below 1000 and Pollard-Brent rho on
the cofactor, so factoring n costs about n^(1/4) steps, and never more than
a fixed budget of rho steps per split.  Supernatural numbers are formal
prime products with exponents in N union {inf}, and a finite prime set is
a `PrimeWindow`, the one place that checks it is nonempty and prime.
Whether an integer divides a supernatural number is decided by stripping
the listed primes, without factoring the integer.

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
    "PrimeWindow",
    "NABLA",
    "factorize",
    "is_prime",
    "first_primes",
    "divisors",
    "iter_smooth",
    "sn_divides",
    "int_divides_sn",
    "float_power",
    "json_number",
    "zeta",
    "zeta_e",
]


# --------------------------------------------------------------------------
# primes and factorizations
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k) with psi_k the least strong pseudoprime to the first k bases, so
# that those bases decide primality exactly below it (OEIS A014233; psi_8 =
# psi_7 and psi_10 = psi_11 = psi_9, so those rows are left out)
_MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),  # psi_12
)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Strong Fermat test of the odd n > a to base a, with n - 1 = d 2^s and d odd."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for an odd n >= 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd n > 13 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D / n) = -1, and
    P = 1, Q = (1 - D) / 4.  With n + 1 = d 2^s and d odd, n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n along the bits of d, from k = 0
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k) / 2 and V_(k+1) = (D U_k + V_k) / 2, halved mod the odd n
            U, V = U + V, D * U + V
            U, V, Qk = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: deterministic Miller-Rabin below psi_12, Baillie-PSW at and above.

    Below psi_12 the shortest prefix of the twelve prime bases up to 37 that
    is exact below some psi_k > n decides.  At and above psi_12, n must pass
    a strong test to base 2 and a strong Lucas test; no composite is known to
    pass both.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, k in _MR_PREFIXES:
        if n < bound:  # n > 13 exceeds every base it is tested with
            return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES[:k])
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def first_primes(k: int) -> list[int]:
    """The first k primes (none for k <= 0)."""
    return list(itertools.islice(filter(is_prime, itertools.count(2)), max(k, 0)))


_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(filter(is_prime, range(_TRIAL_BOUND)))


# rho steps one split may take, about 5 s on a 137-bit cofactor.  A least
# prime factor p takes a median of 2 sqrt(p) steps and 8 sqrt(p) in 1 case of
# 10^3 (3000 semiprimes with p near 10^7.5), so p up to about 10^12 splits.
_RHO_STEPS = 1 << 23


def _brent_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below `_TRIAL_BOUND`.

    Pollard's rho on y -> y^2 + c with Brent's cycle detection (Brent 1980):
    the differences are multiplied together and one gcd is taken per block of
    128 steps; a block whose gcd is n is replayed one step at a time, and a
    polynomial that still meets n as a whole is replaced by the next c.
    Expected cost about sqrt(p) steps for the least prime factor p of n.
    Raises ValueError rather than start a round that could take the steps,
    counted block by block, past `_RHO_STEPS`.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_STEPS:  # a round: r steps ahead, then at most r in blocks
                raise ValueError(
                    f"no factor of a {n.bit_length()}-bit cofactor within {_RHO_STEPS} rho steps; "
                    "its least prime factor is likely past 10^12"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                block = min(128, r - k)
                steps += block
                ys = y
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer: trial division by the primes below 1000,
    then Pollard-Brent rho on the cofactor.

    A cofactor with no prime factor below 1000 is prime when it is below
    1000^2, and otherwise `is_prime` decides whether to stop or split it.
    Returns the (prime, exponent) pairs in increasing prime order; the empty
    tuple represents 1.  A composite cofactor that rho cannot split within
    `_RHO_STEPS` steps raises ValueError.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # the cofactor has no prime factor below the bound (or below p, with n < p^2),
    # so below the bound's square it is prime
    large: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _brent_factor(m)
            stack += (d, m // d)
    return tuple(out + sorted(large.items()))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def iter_smooth(primes: Iterable[int]) -> Iterator[int]:
    """Positive integers with all prime factors in `primes`, in increasing order.

    Each n is pushed once, by n / P(n) for P(n) its largest prime factor: the
    heap holds (n, index of P(n)) and n*p is pushed only for p >= P(n), so no
    set of seen values is kept.  That rests on unique factorization, so a
    window that is not a nonempty set of primes raises ValueError at the call.
    """
    return _smooth(PrimeWindow.of(primes).primes)


def _smooth(ps: tuple[int, ...]) -> Iterator[int]:
    # (n, i) is kept as the one int n*w + i, which orders as n does, not as a tuple
    w = len(ps)
    heap = [w]
    while heap:
        n, i = divmod(heapq.heappop(heap), w)
        yield n
        for j in range(i, w):
            heapq.heappush(heap, n * ps[j] * w + j)


@dataclass(frozen=True)
class PrimeWindow:
    """A finite nonempty set of primes."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("prime window must be nonempty")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be distinct and sorted")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def of(cls, primes: Iterable[int]) -> "PrimeWindow":
        return cls(tuple(sorted(set(primes))))

    def supports(self, n: int) -> bool:
        """Whether every prime factor of n >= 1 lies in the window."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        for p in self.primes:
            while n % p == 0:
                n //= p
        return n == 1


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
            if p <= last:
                raise ValueError(f"listed primes must increase, got {p}")
            if not is_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
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
# powers and zeta values
# --------------------------------------------------------------------------


def float_power(n: int, s: float) -> float:
    """n^s as a float for an integer n >= 1 of any size.

    IEEE pow wherever n fits a double (so 1^s = 1 and n^-inf = 0 for n >= 2),
    and exp(s log n) beyond.  A result past the largest double raises
    OverflowError naming n and s.
    """
    try:
        try:
            base = float(n)
        except OverflowError:
            return math.exp(s * math.log(n))
        return base**s
    except OverflowError:
        name = str(n) if n.bit_length() <= 256 else f"(a {n.bit_length()}-bit integer)"
        raise OverflowError(f"{name}**{s} is past the largest double") from None


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


def zeta_e(s: float, window: PrimeWindow) -> float:
    """Euler product prod_{p in E} (1 - p^-s)^-1 over the window's primes E.

    Converges for every s > 0 because the product is finite.
    """
    if s != inf and s <= 0:
        raise ValueError(f"zeta_e requires s > 0, got {s}")
    if s == inf:
        return 1.0
    out = 1.0
    for p in window.primes:
        out *= 1.0 / (1.0 - p ** (-s))
    return out
