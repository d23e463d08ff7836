"""Dirichlet characters, partial Euler products, and the invariance mechanism.

The Hecke-algebra uniqueness argument rests on a single computation: for a
nontrivial character chi and a growing window E of primes away from chi's
modulus, the character-twisted Euler product stays bounded while the plain
partial zeta value zeta_E(beta) diverges for beta <= 1, so the ratio tends
to zero.  This module makes that mechanism numerical: exact character
tables, the twisted sums, the ratio sequence, and the reconstruction
identity for the model equilibrium values n -> n^-beta on the supported
projection family.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd

from .numtheory import PrimeWindow, factorize, first_primes, float_power, iter_smooth, json_number, zeta_e

__all__ = [
    "DirichletCharacter",
    "char_euler_sum",
    "EulerSumResult",
    "invariance_ratio",
    "bc_reconstruct_check",
    "character_from_json",
]


def _unit_count(m: int) -> int:
    """Euler's phi(m), the number of units mod m, from the factorization of m."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(m))


def _generators(units: list[int], m: int) -> list[int]:
    """A generating set of the units mod m, chosen greedily.

    Each unit not yet in the subgroup generated so far joins the set, and
    the subgroup is closed under it; no factorization or primitive root is
    needed, and the set has at most log2(phi(m)) elements.
    """
    one = 1 % m or m
    subgroup = {one}
    gens = []
    for u in units:
        if u in subgroup:
            continue
        gens.append(u)
        coset = list(subgroup)
        power = u
        while power not in subgroup:  # add the coset subgroup * u^j until u^j lies in the subgroup
            subgroup.update([(h * power) % m or m for h in coset])
            power = (power * u) % m or m
    return gens


@dataclass(frozen=True)
class DirichletCharacter:
    """A character of the units mod m, stored as an explicit angle table.

    `values` maps each unit u in (Z/m)* to the rational angle t with
    chi(u) = exp(2*pi*i*t).  The table must be completely multiplicative on
    units with chi(1) = 1; that is checked as chi(u g) = chi(u) chi(g) for
    every unit u and every g in a generating set, which implies it for all
    pairs by induction on the length of a product of generators.  Each phase
    exp(2*pi*i*t) is computed once, when the table is checked, so a call is
    a residue reduction and a lookup.
    """

    modulus: int
    values: tuple[tuple[int, Fraction], ...]
    _table: dict[int, Fraction] = field(init=False, repr=False, compare=False)
    _phases: dict[int, complex] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.modulus
        if m < 1:
            raise ValueError("modulus must be positive")
        table = dict(self.values)
        # phi(m) >= sqrt(m/2): a shorter table is refused before m is factored
        if 2 * len(table) ** 2 < m:
            raise ValueError("character table must cover exactly the units")
        units = sorted(table)
        if len(units) != _unit_count(m) or not all(1 <= u <= m and gcd(u, m) == 1 for u in units):
            raise ValueError("character table must cover exactly the units")
        if table[1 % m or m] % 1 != 0:
            raise ValueError("chi(1) must be 1")
        for g in _generators(units, m):
            t = table[g]
            for u in units:
                if (table[(u * g) % m or m] - table[u] - t) % 1 != 0:
                    raise ValueError(f"table is not multiplicative at ({u}, {g})")
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_phases", {u: cmath.exp(2j * math.pi * float(t)) for u, t in table.items()})

    @classmethod
    def from_angles(cls, modulus: int, angles: dict[int, Fraction | int | str]) -> "DirichletCharacter":
        vals = tuple(sorted((u, Fraction(t) % 1) for u, t in angles.items()))
        return cls(modulus, vals)

    @classmethod
    def trivial(cls, modulus: int) -> "DirichletCharacter":
        units = [u for u in range(1, modulus + 1) if gcd(u, modulus) == 1]
        return cls(modulus, tuple((u, Fraction(0)) for u in units))

    @classmethod
    def from_generator(cls, modulus: int, generator: int, angle: Fraction | str) -> "DirichletCharacter":
        """Character on a cyclic unit group: chi(generator^j) = exp(2*pi*i*j*angle).

        Requires `generator` to generate the units mod `modulus`, and the
        angle's order to divide the group order.
        """
        if gcd(generator, modulus) != 1:
            raise ValueError(f"{generator} does not generate the units mod {modulus}")
        angle = Fraction(angle)
        angles: dict[int, Fraction] = {}
        power = 1 % modulus or modulus
        while power not in angles:  # a unit's powers come back to 1
            angles[power] = (len(angles) * angle) % 1
            power = (power * generator) % modulus or modulus
        if len(angles) != _unit_count(modulus):
            raise ValueError(f"{generator} does not generate the units mod {modulus}")
        return cls.from_angles(modulus, angles)

    @classmethod
    def quadratic_mod4(cls) -> "DirichletCharacter":
        """The unique nontrivial character mod 4 (value -1 at 3)."""
        return cls.from_angles(4, {1: 0, 3: Fraction(1, 2)})

    def _unit(self, u: int) -> int:
        """The residue of u in [1, m]; a ValueError when it is not a unit."""
        u = u % self.modulus or self.modulus
        if u not in self._table:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        return u

    def angle(self, u: int) -> Fraction:
        return self._table[self._unit(u)]

    def __call__(self, u: int) -> complex:
        return self._phases[self._unit(u)]


@dataclass(frozen=True)
class EulerSumResult:
    series: complex
    product: complex
    tail_bound: float
    terms: int
    largest: int


def char_euler_sum(
    chi: DirichletCharacter, primes: list[int], beta: float, truncation: int
) -> EulerSumResult:
    """Twisted partial zeta sum against its Euler product.

    series  = sum of n^-beta chi(u_n) over the first `truncation` integers
              supported on `primes` (in increasing order);
    product = prod_{p} (1 - p^-beta chi(u_p))^-1.

    The geometric expansion of each factor makes the two agree in the limit;
    the reported tail bound is the absolute remainder zeta_E(beta) minus the
    untwisted partial sum, which dominates the twisted one term by term.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    window = PrimeWindow.of(primes)
    for p in window.primes:
        if chi.modulus % p == 0:
            raise ValueError(
                f"{p} shares a prime with the character modulus {chi.modulus}; "
                "the unit embedding is only evaluated off that support"
            )
    ns = list(islice(iter_smooth(window.primes), truncation))
    abs_terms = [float_power(n, -beta) for n in ns]
    # support of n lies in the window, already checked disjoint, so n is a unit and
    # chi(u_n) is the table's phase at n mod m, read without a unit check
    m, phases = chi.modulus, chi._phases
    terms = [weight * phases[n % m or m] for weight, n in zip(abs_terms, ns)]
    series = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    product = 1.0 + 0j
    for p in window.primes:
        product /= 1.0 - float_power(p, -beta) * phases[p % m or m]
    tail = zeta_e(beta, window) - math.fsum(abs_terms)
    return EulerSumResult(series, product, max(tail, 0.0), len(ns), ns[-1])


def invariance_ratio(
    chi: DirichletCharacter, beta: float, k_max: int
) -> list[float]:
    """|twisted Euler product| / zeta_E(beta) over growing admissible windows.

    E runs through the first k admissible primes (those away from the
    character's modulus) for k = 1..k_max, k_max >= 1.  For the trivial
    character the ratio is identically 1; for a nontrivial one at beta <= 1
    the numerator converges while the denominator diverges, so the sequence
    decays to 0.
    """
    if not (0 < beta <= 1):
        raise ValueError(f"invariance ratio applies to beta in (0, 1], got {beta}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    support = {p for p, _ in factorize(chi.modulus)}
    # removing the support leaves at least k_max of these primes
    admissible = [p for p in first_primes(k_max + len(support)) if p not in support][:k_max]
    out: list[float] = []
    numerator = 1.0 + 0j
    denominator = 1.0
    for p in admissible:
        weight = float_power(p, -beta)
        numerator /= 1.0 - weight * chi(p)
        denominator *= 1.0 / (1.0 - weight)
        out.append(abs(numerator) / denominator)
    return out


_RECONSTRUCT_TERMS = 10**5

# inclusion-exclusion terms one reconstruction check may sum, 2^|E| for each distinct
# k': a few tenths of a second, and at |E| = 18 about 40 MB of subsets (19 primes pass it).
_RECONSTRUCT_SUBSET_TERMS = 1 << 18


def bc_reconstruct_check(primes: list[int], beta: float, k: int) -> tuple[float, float]:
    """Reconstruction defect for the model equilibrium values on mu_k mu_k*.

    The model state assigns phi(mu_k mu_k*) = k^-beta (and phi(1) = 1 at
    k = 1).  Conjugation resolves inside the commutative projection family:
    mu_n* (mu_k mu_k*) mu_n = mu_k' mu_k'* with k' = k / gcd(k, n), and the
    compression by Q_E = prod (1 - mu_p mu_p*) has values computed by
    inclusion-exclusion over subsets S of E:
        phi(Q_E mu_k' mu_k'*) = sum_S (-1)^|S| lcm(prod S, k')^-beta.
    Each distinct k' costs 2^|E| subset terms, counted against
    `_RECONSTRUCT_SUBSET_TERMS`: ValueError before the subsets are built
    when 2^|E| alone passes it, and before any k' whose terms would.
    The check sums the window-supported n in increasing order, stopping at
    `_RECONSTRUCT_TERMS` terms or at a weight n^-beta below 1e-18, and returns
    (defect, tail_bound): the defect is |phi(mu_k mu_k*) - sum_n (n^-beta /
    zeta_E(beta)) phi_{Q_E}(...)|, and the tail bound is the dropped weight
    share (zeta_E(beta) - sum_kept n^-beta) / zeta_E(beta), clamped at 0.  It
    bounds the dropped terms, since phi(Q_E mu_k' mu_k'*) <= phi(Q_E) =
    1/zeta_E(beta) makes each at most n^-beta / zeta_E(beta).
    """
    if beta <= 1:
        raise ValueError("the model state values need beta > 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    window = PrimeWindow.of(primes)
    zeta_window = zeta_e(beta, window)

    size, budget = 1 << len(window.primes), _RECONSTRUCT_SUBSET_TERMS
    if size > budget:
        raise ValueError(f"{size} subsets of {len(window.primes)} primes pass the {budget}-term budget")
    subsets = [[]]
    for p in window.primes:
        subsets += [s + [p] for s in subsets]
    summed = 0

    @functools.cache  # k' = k / gcd(k, n) runs over divisors of k, each met many times
    def q_compressed(kp: int) -> float:
        nonlocal summed
        summed += size
        if summed > budget:
            raise ValueError(f"k = {k} passes the {budget}-term budget at {size} terms per k / gcd(k, n)")
        total = 0.0
        for s in subsets:
            ns = math.prod(s)
            l = ns * kp // gcd(ns, kp)
            total += (-1.0) ** len(s) * float_power(l, -beta)
        return total * zeta_window  # conditional state: normalised compression

    lhs = float_power(k, -beta)
    terms, weights = [], []
    for count, n in enumerate(iter_smooth(window.primes)):
        weight = float_power(n, -beta)
        if count >= _RECONSTRUCT_TERMS or weight < 1e-18:
            break
        terms.append(weight / zeta_window * q_compressed(k // gcd(k, n)))
        weights.append(weight)
    tail = (zeta_window - math.fsum(weights)) / zeta_window
    return abs(lhs - math.fsum(terms)), max(tail, 0.0)


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def character_from_json(obj: dict) -> DirichletCharacter:
    if not isinstance(obj, dict):
        raise ValueError(f"a character is a JSON object, got {obj!r}")
    values = obj["values"]
    if not isinstance(values, dict):
        raise ValueError(f"a character is {{'modulus': int, 'values': {{unit: angle}}}}, got {obj!r}")
    angles = {int(u): json_number(t, Fraction) for u, t in values.items()}
    return DirichletCharacter.from_angles(json_number(obj["modulus"]), angles)
