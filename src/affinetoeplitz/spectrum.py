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
than guess.  The boundary consists of the B-points with every exponent
infinite, where the monoid acts by (m, a) . r = m + a r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .numtheory import (
    ResidueClass,
    SupernaturalNumber,
    crt_combine,
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
    if not int_divides_sn(x.a, w.N):
        return False
    if isinstance(w, APoint):
        return x.m <= w.k and (w.k - x.m) % x.a == 0
    return x.m % x.a == w.r.at(x.a) % x.a


def includes(w1: SpectrumPoint, w2: SpectrumPoint, level: int) -> bool:
    """Whether w2 is a subset of w1, testing divisor conditions up to `level`.

    The characterisations: B(t, N) sits inside B(r, M) iff N | M and the
    families agree at every a | N; A(k, N) sits inside B(r, M) under the same
    divisibility with k in the residue class at each a | N; A(l, N) sits
    inside A(k, M) iff N | M and k - l is a non-negative multiple of every
    a | N (which for infinite N forces k = l); and a B-point is never
    contained in an A-point.  The divisor quantifiers run over a <= level.
    """
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
    """The action (m, a) . r = m + a r on boundary points.

    The level is kept: an integer family stays an integer family, and a
    level-L family yields a level-L family, since m + a r mod l is
    determined by r mod l for every l | L.
    """
    return BPoint(ResidueFamily(x.m + x.a * point.r.value, point.r.level), point.N)


def decompose(point: BPoint, level: int | None = None) -> dict[int, ResidueClass]:
    """Split a B-point into its prime-power residue components.

    For a finite modulus the components are the residues at the exact prime
    powers of N; for an infinite modulus a finite `level` (dividing the
    available data) selects the truncation.
    """
    if level is None:
        if not point.N.is_finite:
            raise ValueError("infinite modulus: pass an explicit level")
        level = point.N.to_int()
    if not int_divides_sn(level, point.N):
        raise ValueError(f"{level} does not divide the modulus")
    residue = ResidueClass(level, point.r.at(level))
    return {p: residue.reduce(p**e) for p, e in factorize(level)}


def recompose(parts: Mapping[int, ResidueClass], N: SupernaturalNumber | None = None) -> BPoint:
    """Inverse of `decompose` via the Chinese remainder theorem."""
    combined = crt_combine(parts.values())
    modulus = N if N is not None else SupernaturalNumber.from_int(combined.modulus)
    return BPoint(ResidueFamily.from_residue(combined.value, combined.modulus), modulus)


def verify_hereditary_directed(
    members: SpectrumPoint | Iterable[SemigroupElement], bound: int
) -> bool:
    """Finite-window check that a set is hereditary and directed.

    Enumerates elements with m <= bound and a <= bound.  Hereditary: every
    window element below a member is a member.  Directed: every pair of
    members has a finite join, and the join is a member whenever its
    coordinates fall inside the window.  Raises on bound < 1, whose window
    is empty.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if isinstance(members, (APoint, BPoint)):
        point = members
        window = [
            x
            for a in range(1, bound + 1)
            for m in range(0, bound + 1)
            if contains(point, x := SemigroupElement(m, a))
        ]
        member_set = set(window)
    else:
        member_set = set(members)
        window = [x for x in member_set if x.m <= bound and x.a <= bound]

    for x in window:
        for b in range(1, x.a + 1):
            if x.a % b != 0:
                continue
            # (m, b) lies below x: b divides x.a and x.m - m
            for m in range(x.m, -1, -b):
                if SemigroupElement(m, b) not in member_set:
                    return False
    for x in window:
        for y in window:
            jn = join(x, y)
            if jn is None:
                return False
            if jn.l <= bound and jn.lcm <= bound and jn.element() not in member_set:
                return False
    return True


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
