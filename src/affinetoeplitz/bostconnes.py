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
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .numtheory import factorize, first_primes, float_power, is_prime, iter_smooth, json_number, zeta_e

__all__ = [
    "DirichletCharacter",
    "char_euler_sum",
    "EulerSumResult",
    "invariance_ratio",
    "bc_reconstruct_check",
    "character_from_json",
    "character_to_json",
]


@dataclass(frozen=True)
class DirichletCharacter:
    """A character of the units mod m, stored as an explicit angle table.

    `values` maps each unit u in (Z/m)* to the rational angle t with
    chi(u) = exp(2*pi*i*t).  The table must be completely multiplicative on
    units with chi(1) = 1.
    """

    modulus: int
    values: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        table = dict(self.values)
        # phi(m) >= sqrt(m/2): a shorter table is refused before the units are listed
        if 2 * len(table) ** 2 < self.modulus:
            raise ValueError("character table must cover exactly the units")
        units = [u for u in range(1, self.modulus + 1) if gcd(u, self.modulus) == 1]
        if sorted(table) != units:
            raise ValueError("character table must cover exactly the units")
        if table[1 % self.modulus or self.modulus] % 1 != 0:
            raise ValueError("chi(1) must be 1")
        for u in units:
            for v in units:
                lhs = table[(u * v) % self.modulus or self.modulus]
                if (lhs - table[u] - table[v]) % 1 != 0:
                    raise ValueError(f"table is not multiplicative at ({u}, {v})")

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
        units = {u for u in range(1, modulus + 1) if gcd(u, modulus) == 1}
        angle = Fraction(angle)
        angles: dict[int, Fraction] = {}
        power = 1 % modulus or modulus
        for j in range(len(units)):
            angles[power] = (j * angle) % 1
            power = (power * generator) % modulus or modulus
        if set(angles) != units:
            raise ValueError(f"{generator} does not generate the units mod {modulus}")
        return cls.from_angles(modulus, angles)

    @classmethod
    def quadratic_mod4(cls) -> "DirichletCharacter":
        """The unique nontrivial character mod 4 (value -1 at 3)."""
        return cls.from_angles(4, {1: 0, 3: Fraction(1, 2)})

    def angle(self, u: int) -> Fraction:
        u %= self.modulus
        u = u or self.modulus
        for unit, t in self.values:
            if unit == u:
                return t
        raise ValueError(f"{u} is not a unit mod {self.modulus}")

    def __call__(self, u: int) -> complex:
        return cmath.exp(2j * math.pi * float(self.angle(u)))


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
    ps = sorted(set(primes))
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if chi.modulus % p == 0:
            raise ValueError(
                f"{p} shares a prime with the character modulus {chi.modulus}; "
                "the unit embedding is only evaluated off that support"
            )
    ns = list(islice(iter_smooth(ps), truncation))
    terms = []
    abs_terms = []
    for n in ns:
        # support of n lies in ps, already checked disjoint, so chi(u_n) = chi(n mod m)
        weight = float_power(n, -beta)
        terms.append(weight * chi(n))
        abs_terms.append(weight)
    series = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    product = 1.0 + 0j
    for p in ps:
        product /= 1.0 - float_power(p, -beta) * chi(p)
    tail = zeta_e(beta, ps) - math.fsum(abs_terms)
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


def bc_reconstruct_check(primes: list[int], beta: float, k: int) -> float:
    """Reconstruction defect for the model equilibrium values on mu_k mu_k*.

    The model state assigns phi(mu_k mu_k*) = k^-beta (and phi(1) = 1 at
    k = 1).  Conjugation resolves inside the commutative projection family:
    mu_n* (mu_k mu_k*) mu_n = mu_k' mu_k'* with k' = k / gcd(k, n), and the
    compression by Q_E = prod (1 - mu_p mu_p*) has values computed by
    inclusion-exclusion over subsets S of E:
        phi(Q_E mu_k' mu_k'*) = sum_S (-1)^|S| lcm(prod S, k')^-beta.
    The check sums the first `_RECONSTRUCT_TERMS` window-supported n and returns
    |phi(mu_k mu_k*) - sum_n (n^-beta / zeta_E(beta)) phi_{Q_E}(...)| plus
    nothing else; the dropped tail is geometric and far below the comparison
    tolerances for beta > 1.
    """
    if beta <= 1:
        raise ValueError("the model state values need beta > 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    ps = sorted(set(primes))
    zeta_window = zeta_e(beta, ps)

    subsets = [[]]
    for p in ps:
        subsets += [s + [p] for s in subsets]

    def q_compressed(kp: int) -> float:
        total = 0.0
        for s in subsets:
            ns = math.prod(s)
            l = ns * kp // gcd(ns, kp)
            total += (-1.0) ** len(s) * float_power(l, -beta)
        return total * zeta_window  # conditional state: normalised compression

    lhs = float_power(k, -beta)
    terms = []
    for count, n in enumerate(iter_smooth(ps)):
        weight = float_power(n, -beta)
        if count >= _RECONSTRUCT_TERMS or weight < 1e-18:
            break  # |conditional values| <= zeta_window, so the tail is negligible
        kp = k // gcd(k, n)
        terms.append(weight / zeta_window * q_compressed(kp))
    return abs(lhs - math.fsum(terms))


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def character_to_json(chi: DirichletCharacter) -> dict:
    return {
        "modulus": chi.modulus,
        "values": {str(u): (0 if t == 0 else str(t)) for u, t in chi.values},
    }


def character_from_json(obj: dict) -> DirichletCharacter:
    if not isinstance(obj, dict):
        raise ValueError(f"a character is a JSON object, got {obj!r}")
    values = obj["values"]
    if not isinstance(values, dict):
        raise ValueError(f"a character is {{'modulus': int, 'values': {{unit: angle}}}}, got {obj!r}")
    angles = {int(u): json_number(t, Fraction) for u, t in values.items()}
    return DirichletCharacter.from_angles(json_number(obj["modulus"]), angles)
