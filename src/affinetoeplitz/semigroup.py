"""The quasi-lattice ordered pair: affine maps over Q and the monoid over N.

Group elements (r, x) act on numbers by t -> r + x*t, so the product is
(r, x)(s, y) = (r + x*s, x*y).  The monoid of elements with r in N and
x in N^x induces a left-invariant order on the group, and any two elements
with a common upper bound have a least one; computing it reduces to finding
the smallest non-negative solution of k = alpha*c - beta*d for coprime c, d.
`join` solves it by the modular inverse, in O(log d) steps, and `_lift` is
the one home of that formula: `euclid_smallest_direct` is its argument checks
plus a join, and `joins_within`, which checks a window's joins one pair of
multiplicative parts (a, b) at a time, finds the gcd, inverse and lcm once per
(a, b) and lifts each pair's join through `_lift` as well.  The alternating
subtraction scheme of `euclid_smallest`, up to about min(c, d) rounds, stays
as the reference implementation and as join's independent check.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "SemigroupElement",
    "GroupElement",
    "Join",
    "leq",
    "euclid_smallest",
    "euclid_smallest_direct",
    "join",
    "joins_within",
]


class TupleValue:
    """Mixin for the tuple-backed values: refuses the tuple + and *, which
    Python falls back to even when __add__ or __mul__ returns NotImplemented."""

    __slots__ = ()

    def _refuse(self, other):
        raise TypeError(f"{type(self).__name__} has no tuple + or * (other operand: {type(other).__name__})")

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse


class SemigroupElement(TupleValue, namedtuple("SemigroupElement", "m a")):
    """(m, a) with m a natural number and a a positive integer.

    An immutable pair of ints, equal to (and hashing like) the plain tuple
    (m, a).  The constructor validates; a product of two elements is built
    with tuple.__new__, since it is valid whenever its factors are.
    """

    __slots__ = ()

    def __new__(cls, m: int, a: int) -> "SemigroupElement":
        if m < 0:
            raise ValueError(f"additive part must be >= 0, got {m}")
        if a < 1:
            raise ValueError(f"multiplicative part must be >= 1, got {a}")
        return tuple.__new__(cls, (m, a))

    def __mul__(self, other: "SemigroupElement") -> "SemigroupElement":
        if not isinstance(other, SemigroupElement):  # a plain pair would skip validation
            self._refuse(other)
        m, a = self
        n, b = other
        return tuple.__new__(SemigroupElement, (m + a * n, a * b))

    def to_group(self) -> "GroupElement":
        return GroupElement(Fraction(self.m), Fraction(self.a))


@dataclass(frozen=True)
class GroupElement:
    """(r, x) with r rational and x a positive rational."""

    r: Fraction
    x: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x <= 0:
            raise ValueError(f"multiplicative part must be positive, got {self.x}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.r + self.x * other.r, self.x * other.x)

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.r / self.x, 1 / self.x)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(Fraction(0), Fraction(1))


def leq(g: GroupElement | SemigroupElement, h: GroupElement | SemigroupElement) -> bool:
    """Left-invariant order: g <= h iff g^-1 h lies in the monoid.

    Equivalently x^-1 (s - r) is a natural number and x^-1 y a positive
    integer, for g = (r, x), h = (s, y).
    """
    g, h = (v.to_group() if isinstance(v, SemigroupElement) else v for v in (g, h))
    step = (h.r - g.r) / g.x
    scale = h.x / g.x
    return step.denominator == 1 and step >= 0 and scale.denominator == 1


def _euclid_iterative(c: int, d: int, k: int) -> tuple[int, int]:
    """Alternating subtraction scheme for k >= 0, gcd(c, d) = 1.

    alpha_0 is the unique natural with -c < k - alpha_0*c <= 0; then beta_n
    lifts the running value into [0, d) and alpha_{n+1} drops it back into
    (-c, 0], until both corrections vanish.  The sums of the alpha_i and
    beta_i give the smallest non-negative solution of k = alpha*c - beta*d.
    """
    alpha = -((-k) // c)  # ceil(k / c)
    beta = 0
    t = k - alpha * c
    while True:
        beta_n = -(t // d)  # ceil(-t / d)
        t += beta_n * d
        alpha_n = -((-t) // c)
        t -= alpha_n * c
        if beta_n == 0 and alpha_n == 0:
            return alpha, beta
        alpha += alpha_n
        beta += beta_n


def _check_coprime(c: int, d: int) -> None:
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive")
    if gcd(c, d) != 1:
        raise ValueError(f"gcd({c}, {d}) != 1")


def euclid_smallest(c: int, d: int, k: int) -> tuple[int, int]:
    """Smallest non-negative (alpha, beta) with k = alpha*c - beta*d.

    For k >= 0 alpha is minimal (and beta comes along); for k < 0 the roles
    swap: (beta, alpha) is the smallest non-negative solution of
    -k = beta*d - alpha*c.  Requires gcd(c, d) = 1.

    The reference implementation: the alternating subtraction scheme, at
    most about min(alpha, beta) + 1 rounds, so up to about min(c, d), kept
    as the oracle that `join`'s modular route is tested against.
    """
    _check_coprime(c, d)
    if k >= 0:
        return _euclid_iterative(c, d, k)
    beta, alpha = _euclid_iterative(d, c, -k)
    return alpha, beta


def euclid_smallest_direct(c: int, d: int, k: int) -> tuple[int, int]:
    """The same smallest solution by the modular inverse, in O(log d) steps:
    `euclid_smallest`'s argument checks, then the complement data of
    join((0, c), (k, d)), whose euclid step is exactly this one."""
    _check_coprime(c, d)
    jn = join((0, c), (k, d))
    return jn.alpha, jn.beta


class Join(TupleValue, namedtuple("Join", "l lcm alpha beta a_prime b_prime")):
    """Least common upper bound (l, lcm) of (m, a) and (n, b), with the
    complement data a^-1 * (join) = (alpha, b_prime), b^-1 * (join) = (beta, a_prime).

    An immutable tuple of six ints, built by `join` without re-validation.
    """

    __slots__ = ()


# looked up once: join builds its result on the rewriter's hot path
_tuple_new = tuple.__new__


def join(p: SemigroupElement, q: SemigroupElement) -> Join | None:
    """Least upper bound of p and q, or None when they have no common upper bound.

    (m, a) and (n, b) have an upper bound iff the progressions m + aN and
    n + bN meet, i.e. gcd(a, b) | m - n; the join is then (l, lcm(a, b))
    where l = m + a*alpha = n + b*beta is the least common value.

    (alpha, beta) is the smallest non-negative solution of
    (n - m)/g = alpha*a' - beta*b' with g = gcd(a, b), a' = a/g, b' = b/g,
    lifted by `_lift` from the modular inverse of a' mod b' in O(log b') steps,
    with no coprimality check: a' and b' are coprime and positive by construction.
    Plain (m, a) pairs are accepted, and a multiplicative part below 1 raises
    ValueError as SemigroupElement does.
    """
    m, a = p
    n, b = q
    if a < 1 or b < 1:
        raise ValueError(f"multiplicative part must be >= 1, got {a if a < 1 else b}")
    g = gcd(a, b)
    if (m - n) % g:
        return None
    if g == 1:  # coprime parts, the rewriter's common case, need no division
        a1, b1, k = a, b, n - m
    else:
        a1, b1, k = a // g, b // g, (n - m) // g
    alpha = _lift(k, a1, b1, pow(a1, -1, b1))
    return _tuple_new(Join, (m + a * alpha, a * b1, alpha, (alpha * a1 - k) // b1, a1, b1))


def _lift(k: int, a1: int, b1: int, inv: int) -> int:
    """Join's euclid step: the least alpha >= 0 with alpha*a1 >= k and
    alpha*a1 = k mod b1, for coprime a1, b1 >= 1 and inv = a1^-1 mod b1.

    alpha is the least residue of k/a1 mod b1 (pow(a1, -1, 1) is 0), lifted
    by multiples of b1 until alpha*a1 >= k.  The non-negative solutions of
    k = alpha*a1 - beta*b1 form one chain (alpha + t*b1, beta + t*a1), t >= 0,
    and for k < 0 the least residue is already its least element: neither
    sign needs a role swap.
    """
    alpha = k % b1 * inv % b1
    if alpha * a1 < k:
        alpha += b1 * (-(-(k - alpha * a1) // (a1 * b1)))
    return alpha


def joins_within(a: int, ms: list[int], b: int, ns: list[int], bound: int, members: set) -> bool:
    """Whether every pair (m, a), (n, b) with m in the nonempty list ms and
    n in the nonempty list ns has a join, and each join inside the window
    l, lcm <= bound lies in `members`.

    `members` holds (m, a) pairs and contains every (m, a) and (n, b) given.
    The gcd, the inverse and the lcm depend on (a, b) alone, so they are
    found once for all the pairs; `join`'s lift then gives each join's l.
    Two members with one multiplicative part (a == b) join at the larger
    of the two when they meet, and only the meeting test is run.
    """
    g = gcd(a, b)
    # every pair meets iff all of ms and ns lie in one class mod g
    if g > 1:
        r = ms[0] % g
        if any(m % g != r for m in ms) or any(n % g != r for n in ns):
            return False
    a1, b1 = a // g, b // g
    lcm = a * b1
    if a == b or lcm > bound:
        return True
    inv = pow(a1, -1, b1)
    for m in ms:
        for n in ns:
            l = m + a * _lift((n - m) // g, a1, b1, inv)
            if l <= bound and (l, lcm) not in members:
                return False
    return True
