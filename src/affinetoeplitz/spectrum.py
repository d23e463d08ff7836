"""Parametrised character space of the diagonal subalgebra, and its boundary.

The nonempty hereditary directed subsets of the monoid come in two families:

* A(k, N): elements (m, a) with a | N and (k - m)/a a natural number -- the
  sets with a finite additive cap k;
* B(r, N): elements (m, a) with a | N and m congruent to r mod a, for a
  coherent residue family r over the divisors of the (possibly supernatural)
  modulus N -- the sets lying at additive infinity.

A residue family is one (value, level) pair: an integer family a -> value
mod a (level None, defined at every level) or a residue at a declared finite
level; queries beyond the declared level raise `LevelExceededError` rather
than guess.  It is the one residue type: `decompose` splits a B-point into
families at the prime powers of N and `recompose` rejoins them by the
Chinese remainder theorem.  The boundary consists of the B-points with
every exponent infinite, where the monoid acts by (m, a) . r = m + a r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .numtheory import (
    NABLA,
    SupernaturalNumber,
    factorize,
    int_divides_sn,
    json_number,
    sn_divides,
)
from .semigroup import SemigroupElement, join

__all__ = [
    "LevelExceededError",
    "ResidueFamily",
    "APoint",
    "BPoint",
    "SpectrumPoint",
    "contains",
    "includes",
    "boundary_act",
    "decompose",
    "recompose",
    "verify_hereditary_directed",
    "point_from_json",
    "point_to_json",
]


class LevelExceededError(ValueError):
    """A residue family was queried beyond its declared level."""


@dataclass(frozen=True)
class ResidueFamily:
    """A coherent family of residues, one for each finite level.

    With `level` None this is the integer family a -> value mod a, defined at
    every level; otherwise `value` is a residue mod `level` (reduced on
    construction), which determines the family exactly at the divisors of
    `level`.
    """

    value: int
    level: int | None = None

    def __post_init__(self) -> None:
        if self.level is not None:
            if self.level < 1:
                raise ValueError(f"level must be >= 1, got {self.level}")
            object.__setattr__(self, "value", self.value % self.level)

    @classmethod
    def from_int(cls, g: int) -> "ResidueFamily":
        return cls(g)

    @classmethod
    def from_residue(cls, value: int, level: int) -> "ResidueFamily":
        return cls(value, level)

    def at(self, a: int) -> int:
        """The residue mod a; raises LevelExceededError when undetermined."""
        if a < 1:
            raise ValueError("level must be positive")
        if self.level is not None and self.level % a != 0:
            raise LevelExceededError(
                f"residue mod {a} is not determined by a table at level {self.level}"
            )
        return self.value % a


@dataclass(frozen=True)
class APoint:
    """The hereditary directed set A(k, N) of elements below the additive cap k."""

    k: int
    N: SupernaturalNumber

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("cap must be >= 0")


@dataclass(frozen=True)
class BPoint:
    """The hereditary directed set B(r, N) cut out by a residue family."""

    r: ResidueFamily
    N: SupernaturalNumber


SpectrumPoint = Union[APoint, BPoint]


def contains(w: SpectrumPoint, x: SemigroupElement) -> bool:
    """Membership of (m, a): divisibility of a into N plus the additive condition."""
    return int_divides_sn(x.a, w.N) and x.m in _level_members(w, x.a, x.m)


def _level_members(w: SpectrumPoint, a: int, top: int) -> range:
    """The m <= top meeting w's additive condition at a level a dividing N:
    m <= k and a | k - m for A(k, N), and m = r mod a for B(r, N)."""
    if isinstance(w, APoint):
        return range(w.k % a, min(w.k, top) + 1, a)
    return range(w.r.at(a), top + 1, a)


def includes(w1: SpectrumPoint, w2: SpectrumPoint, level: int) -> bool:
    """Whether w2 is a subset of w1, testing divisor conditions up to `level`.

    The characterisations: B(t, N) sits inside B(r, M) iff N | M and the
    families agree at every a | N; A(k, N) sits inside B(r, M) under the same
    divisibility with k in the residue class at each a | N; A(l, N) sits
    inside A(k, M) iff N | M and k - l is a non-negative multiple of every
    a | N (which for infinite N forces k = l); and a B-point is never
    contained in an A-point.  The divisor quantifiers run over a <= level;
    raises on level < 1, which would test no divisor.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if isinstance(w2, BPoint) and isinstance(w1, APoint):
        return False
    if not sn_divides(w2.N, w1.N):
        return False
    divisors_w2 = [a for a in range(1, level + 1) if int_divides_sn(a, w2.N)]
    if isinstance(w2, APoint) and isinstance(w1, APoint):
        if not w2.N.is_finite:
            return w2.k == w1.k
        diff = w1.k - w2.k
        return diff >= 0 and all(diff % a == 0 for a in divisors_w2)
    if isinstance(w2, APoint):  # A inside B
        return all(w2.k % a == w1.r.at(a) % a for a in divisors_w2)
    return all(w2.r.at(a) % a == w1.r.at(a) % a for a in divisors_w2)


def boundary_act(x: SemigroupElement, point: BPoint) -> BPoint:
    """The action (m, a) . r = m + a r on boundary points, those with N = NABLA.

    The level is kept: an integer family stays an integer family, and a
    level-L family yields a level-L family, since m + a r mod l is
    determined by r mod l for every l | L.  Off the boundary the image of
    B(r, N) also changes N (to a N), so a point with N != NABLA raises ValueError.
    """
    if point.N != NABLA:
        raise ValueError("the action applies to boundary points, whose N has every exponent infinite")
    return BPoint(ResidueFamily(x.m + x.a * point.r.value, point.r.level), point.N)


def decompose(point: BPoint, level: int | None = None) -> dict[int, ResidueFamily]:
    """Split a B-point into its prime-power residue components.

    For a finite modulus the components are the residues at the exact prime
    powers of N; for an infinite modulus a finite `level` (dividing the
    available data) selects the truncation.  Each component is keyed by p.
    """
    if level is None:
        if not point.N.is_finite:
            raise ValueError("infinite modulus: pass an explicit level")
        level = point.N.to_int()
    elif level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if not int_divides_sn(level, point.N):
        raise ValueError(f"{level} does not divide the modulus")
    value = point.r.at(level)
    return {p: ResidueFamily(value, p**e) for p, e in factorize(level)}


def recompose(parts: Mapping[int, ResidueFamily]) -> BPoint:
    """Inverse of `decompose`: the Chinese remainder theorem over finite,
    pairwise coprime levels, whose product is the modulus."""
    levels = [part.level for part in parts.values()]
    if None in levels or math.prod(levels) != math.lcm(*levels):
        raise ValueError(f"levels {levels} must be finite and pairwise coprime")
    level, value = math.prod(levels), 0
    for part in parts.values():
        other = level // part.level
        value += part.value * other * pow(other, -1, part.level)
    return BPoint(ResidueFamily(value, level), SupernaturalNumber.from_int(level))


# A point's window has about bound*ln(bound) members on at most bound levels:
# the fold makes one join per level, on an lcm that grows to about 1.44*bound
# bits, and the comparison reduces l and L mod each level once, so one check
# grows about threefold per doubling of the bound: B(1, NABLA) takes
# 0.0018 s at bound 512 and 0.005-0.008 s at the ceiling, 1024 (in-process,
# one core of a shared 2-vCPU host).
_BOUND_CEILING = 2**10


def verify_hereditary_directed(
    members: SpectrumPoint | Iterable[SemigroupElement], bound: int
) -> bool:
    """Finite-window check that a set is the window of a hereditary directed set.

    The window W holds the elements with m <= bound and a <= bound, and level
    a of a set is its members in W with multiplicative part a.  A nonempty
    set S inside W is H & W for a hereditary directed H exactly when
    S = down(J) & W, where J = (l, L) is the join of the level tops of S and
    down(J), the set of elements below J, is hereditary and directed.  For
    S = H & W, the tops have an upper bound in H, so J lies in H and
    down(J) & W in S; two members of one level meet in H only when they agree
    mod the level, so each lies below its level's top, and S in down(J).

    So the tops are folded by `join` from (0, 1), a None fails, and level c of
    the window must be l mod c, l mod c + c, ..., min(l, bound) when c | L,
    and empty otherwise.  The identity (0, 1) lies in every such window, so a
    set whose window is empty fails.  Raises ValueError on bound < 1, whose
    window is empty, and on a bound past _BOUND_CEILING (1024), before any
    window is built.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > _BOUND_CEILING:
        raise ValueError(f"bound must be <= {_BOUND_CEILING}, got {bound}")
    levels: dict[int, list[int]] = {}
    if isinstance(members, (APoint, BPoint)):
        for a in range(1, bound + 1):
            if int_divides_sn(a, members.N):
                levels[a] = list(_level_members(members, a, bound))
    else:
        for m, a in sorted(set(members)):
            if m <= bound and a <= bound:
                levels.setdefault(a, []).append(m)
    l, L = 0, 1
    for a, ms in levels.items():
        if (jn := join((l, L), (ms[-1], a))) is None:
            return False
        l, L = jn.l, jn.lcm
    return all(
        levels.get(c, []) == list(range(l % c, min(l, bound) + 1, c) if L % c == 0 else ())
        for c in range(1, bound + 1)
    )


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def point_to_json(point: SpectrumPoint) -> dict:
    """{"kind":"A","k":..,"N":..} or {"kind":"B","generator":..,"N":..[,"level":..]}.

    A B-point writes its family's value as "generator", plus the level when
    one is declared; an integer family (defined everywhere) omits it.
    """
    if isinstance(point, APoint):
        return {"kind": "A", "k": point.k, "N": point.N.to_json()}
    obj = {"kind": "B", "generator": point.r.value, "N": point.N.to_json()}
    if point.r.level is not None:
        obj["level"] = point.r.level
    return obj


def point_from_json(obj: dict) -> SpectrumPoint:
    if not isinstance(obj, dict):
        raise ValueError(f"a spectrum point is a JSON object, got {obj!r}")
    N = SupernaturalNumber.from_json(obj["N"])
    if obj["kind"] == "A":
        return APoint(json_number(obj["k"]), N)
    if obj["kind"] == "B":
        level = json_number(obj["level"]) if "level" in obj else None
        return BPoint(ResidueFamily(json_number(obj["generator"]), level), N)
    raise ValueError(f"unknown spectrum point kind {obj.get('kind')!r}")
