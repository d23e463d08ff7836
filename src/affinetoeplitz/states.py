"""Closed-form evaluation of the equilibrium states and their verification hooks.

The time evolution fixes the additive isometry and scales v_p by p^(it), so
equilibrium at inverse temperature beta is governed by monomial weights
(a/b)^(-beta).  The state families:

* psi_beta for beta in [1, inf]: supported on the diagonal monomials
  (a = b, m = n) with value a^-beta; the unique equilibrium state for
  beta in [1, 2].
* psi_{beta,mu} for beta in (2, inf] and a probability measure mu on the
  circle: supported on a = b with m = n mod a, with a divisor sum over the
  moments of mu weighted by x^(1-beta)/zeta(beta-1).
* ground states, one per state omega of the one-isometry Toeplitz algebra:
  supported on a = b = 1 with value omega(s^m s*^n).

Float comparisons target 1e-9 absolute; psi_beta with integer beta can also
be evaluated exactly (Fractions).  The infinite-temperature conventions are
a^-inf = 0 for a >= 2, 1^-inf = 1, zeta(inf) = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Sequence

import numpy as np

from .algebra import Monomial, adjoint, monomial_mul, product_table
from .numtheory import divisors, factorize, float_power, is_prime, json_number, zeta, zeta_e

__all__ = [
    "CircleMeasure",
    "VectorState",
    "Evaluation",
    "ToeplitzState",
    "PsiBeta",
    "PsiBetaMu",
    "Ground",
    "StateSpec",
    "PrimeWindow",
    "moment",
    "evaluate",
    "evaluate_exact",
    "evaluate_batch",
    "kms_defect",
    "kms_characterisation_check",
    "kms_grid",
    "ground_check",
    "no_kms_witness",
    "measure_cylinder",
    "conditional_mass",
    "conditional_moment",
    "reconstruct_sn",
    "gram_matrix",
    "partition_sum",
    "moments_from_state",
    "state_from_json",
    "state_to_json",
    "measure_from_json",
    "measure_to_json",
]


# --------------------------------------------------------------------------
# circle measures and Toeplitz states
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleMeasure:
    """A probability measure on the circle: finitely many atoms, or Lebesgue.

    Atoms are (angle, weight) pairs with rational angles in [0, 1) and
    positive rational weights summing to 1.  `atoms` is None for Lebesgue.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...] | None

    def __post_init__(self) -> None:
        if self.atoms is None:
            return
        total = Fraction(0)
        seen = set()
        for theta, weight in self.atoms:
            if not 0 <= theta < 1:
                raise ValueError(f"angle {theta} outside [0, 1)")
            if weight <= 0:
                raise ValueError("atom weights must be positive")
            if theta in seen:
                raise ValueError(f"duplicate atom at angle {theta}")
            seen.add(theta)
            total += weight
        if total != 1:
            raise ValueError(f"atom weights sum to {total}, not 1")

    @classmethod
    def lebesgue(cls) -> "CircleMeasure":
        return cls(None)

    @classmethod
    def point(cls, theta: Fraction | int | str) -> "CircleMeasure":
        return cls(((Fraction(theta), Fraction(1)),))

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Fraction | str, Fraction | str]]) -> "CircleMeasure":
        return cls(tuple((Fraction(t), Fraction(w)) for t, w in pairs))

    @property
    def is_lebesgue(self) -> bool:
        return self.atoms is None


def moment(mu: CircleMeasure, k: int) -> complex:
    """k-th moment: the integral of z^k.  Lebesgue kills every k != 0."""
    if mu.is_lebesgue:
        return 1.0 + 0j if k == 0 else 0j
    total = 0j
    for theta, weight in mu.atoms:
        # k * theta reduced mod 1 in exact arithmetic before the float
        den = theta.denominator
        total += float(weight) * cmath.exp(2j * math.pi * (k * theta.numerator % den / den))
    return total


@dataclass(frozen=True)
class VectorState:
    """omega = <. e_k, e_k> in the one-isometry shift model: omega(s^m s*^n) = [m=n][k>=n]."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("basis index must be >= 0")

    def shift_moment(self, m: int, n: int) -> complex:
        return 1.0 + 0j if m == n and self.k >= n else 0j


@dataclass(frozen=True)
class Evaluation:
    """omega lifted from evaluation at z on the circle: omega(s^m s*^n) = z^(m-n)."""

    angle: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", Fraction(self.angle))
        if not 0 <= self.angle < 1:
            raise ValueError("angle must lie in [0, 1)")

    def shift_moment(self, m: int, n: int) -> complex:
        den = self.angle.denominator
        return cmath.exp(2j * math.pi * ((m - n) * self.angle.numerator % den / den))


ToeplitzState = VectorState | Evaluation


# --------------------------------------------------------------------------
# state specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiBeta:
    """The diagonal equilibrium state at inverse temperature beta in [1, inf]."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta >= 1):
            raise ValueError(f"psi_beta requires beta >= 1, got {self.beta}")


@dataclass(frozen=True)
class PsiBetaMu:
    """The equilibrium state at beta in (2, inf] attached to a circle measure."""

    beta: float
    mu: CircleMeasure

    def __post_init__(self) -> None:
        if not (self.beta > 2):
            raise ValueError(f"psi_beta_mu requires beta > 2, got {self.beta}")


@dataclass(frozen=True)
class Ground:
    """A ground state, parametrised by a state of the one-isometry algebra."""

    omega: ToeplitzState


StateSpec = PsiBeta | PsiBetaMu | Ground


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


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _divisor_sum(phi: PsiBetaMu, k: int, ds: Iterable[int]) -> complex:
    """Sum of d^(1-beta) moment(mu, k/d) over the divisors ds of k, in the order
    given: the divisor sum behind psi_{beta,mu}."""
    s = 1.0 - phi.beta
    total = 0j
    for d in ds:
        total += float_power(d, s) * moment(phi.mu, k // d)
    return total


def evaluate(phi: StateSpec, x: Monomial) -> complex:
    """Value of the state on a monomial; a state is linear, so ZERO reads 0.

    psi_beta vanishes off the diagonal (a = b, m = n) and gives a^-beta on
    it.  psi_{beta,mu} at finite beta vanishes unless a = b and m = n mod a,
    and otherwise sums x^(1-beta) moment(mu, (m-n)/x) over a | x | (m-n),
    normalised by a*zeta(beta-1); for m = n the divisor sum is geometric and
    collapses to a^-beta exactly, which is the branch used here.  At
    beta = inf only a = b = 1 survives with value moment(mu, m - n).  Ground
    states vanish unless a = b = 1, where they restrict to omega.
    """
    if x.is_zero:
        return 0j
    if isinstance(phi, PsiBeta):
        if x.a != x.b or x.m != x.n:
            return 0j
        return complex(float_power(x.a, -phi.beta))
    if isinstance(phi, PsiBetaMu):
        if phi.beta == inf:
            if x.a != 1 or x.b != 1:
                return 0j
            return moment(phi.mu, x.m - x.n)
        if x.a != x.b or (x.m - x.n) % x.a != 0:
            return 0j
        k = x.m - x.n
        if k == 0:
            return complex(float_power(x.a, -phi.beta))
        try:
            norm = x.a * zeta(phi.beta - 1)
        except OverflowError:
            return 0j  # a >= 2^1024: the value is at most a^-beta, below every double
        return _divisor_sum(phi, k, [x.a * e for e in divisors(abs(k) // x.a)]) / norm
    if isinstance(phi, Ground):
        if x.a != 1 or x.b != 1:
            return 0j
        return phi.omega.shift_moment(x.m, x.n)
    raise TypeError(f"not a state specification: {phi!r}")


def evaluate_batch(phi: StateSpec, distinct: Sequence[Monomial], index: np.ndarray) -> np.ndarray:
    """`evaluate` over a table of monomials given as `algebra.product_table`'s
    (distinct, index): each distinct monomial is evaluated once and entry
    [i, j] is the value of distinct[index[i, j]]."""
    values = np.array([evaluate(phi, x) for x in distinct], dtype=complex)
    return values[index]


def evaluate_exact(phi: StateSpec, x: Monomial) -> Fraction:
    """Exact rational value where one exists: psi_beta at integer (or infinite)
    beta, and ground states over a shift-model vector state; ZERO reads 0."""
    if x.is_zero:
        return Fraction(0)
    if isinstance(phi, PsiBeta):
        if x.a != x.b or x.m != x.n:
            return Fraction(0)
        if phi.beta == inf:
            return Fraction(1) if x.a == 1 else Fraction(0)
        if phi.beta != int(phi.beta):
            raise ValueError("exact evaluation needs an integer beta")
        return Fraction(1, x.a ** int(phi.beta))
    if isinstance(phi, Ground) and isinstance(phi.omega, VectorState):
        if x.a != 1 or x.b != 1:
            return Fraction(0)
        return Fraction(1) if (x.m == x.n and phi.omega.k >= x.n) else Fraction(0)
    raise ValueError(f"no exact mode for {phi!r}")


def _beta_of(phi: StateSpec) -> float:
    if isinstance(phi, (PsiBeta, PsiBetaMu)):
        return phi.beta
    raise ValueError("ground states have no inverse temperature")


def kms_defect(phi: StateSpec, x: Monomial, y: Monomial, beta: float | None = None) -> float:
    """|a^beta phi(x y) - b^beta phi(y x)| for x = s^m v_a v_b* s*^n.

    Zero (up to roundoff) for every pair exactly when phi satisfies the
    equilibrium condition at beta.
    """
    if x.is_zero or y.is_zero:
        raise ValueError("zero monomial")
    if beta is None:
        beta = _beta_of(phi)
    xy = monomial_mul(x, y)
    yx = monomial_mul(y, x)
    left = 0j if xy.is_zero else evaluate(phi, xy)
    right = 0j if yx.is_zero else evaluate(phi, yx)
    return abs(float_power(x.a, beta) * left - float_power(x.b, beta) * right)


def kms_characterisation_check(phi: StateSpec, x: Monomial, beta: float | None = None) -> float:
    """Defect of the one-monomial equilibrium characterisation.

    The state must vanish unless a = b and m = n mod a, and on the surviving
    monomials equal a^-beta times its value on the signed power s^((m-n)/a)
    (positive powers of s, negative of s*).
    """
    if x.is_zero:
        raise ValueError("zero monomial")
    if beta is None:
        beta = _beta_of(phi)
    value = evaluate(phi, x)
    if x.a != x.b or (x.m - x.n) % x.a != 0:
        rhs = 0j
    else:
        power = Monomial.s_power((x.m - x.n) // x.a)
        rhs = float_power(x.a, -beta) * evaluate(phi, power)
    return abs(value - rhs)


def kms_grid(phi: StateSpec, monos: Sequence[Monomial], table: tuple, beta: float | None = None) -> tuple:
    """`kms_defect` over every pair (x, y) and `kms_characterisation_check` over
    every x of a grid, at a finite beta (the state's own by default).

    `table` is `algebra.product_table(monos, monos)`: the x y products are its
    entries and the y x products its transpose.  Returns (worst pair defect,
    its (x, y), worst characterisation defect, its x), each witness the first
    maximum in x-major order.
    """
    if beta is None:
        beta = _beta_of(phi)
    if not math.isfinite(beta):
        raise ValueError(f"the equilibrium condition is checked at a finite beta, got {beta}")
    values = evaluate_batch(phi, *table)
    weight_a = np.array([float_power(x.a, beta) for x in monos])[:, None]
    weight_b = np.array([float_power(x.b, beta) for x in monos])[:, None]
    defects = np.abs(weight_a * values - weight_b * values.T)
    i, j = np.unravel_index(np.argmax(defects), defects.shape)
    chars = [kms_characterisation_check(phi, x, beta) for x in monos]
    k = chars.index(max(chars))
    return float(defects[i, j]), (monos[i], monos[j]), chars[k], monos[k]


def ground_check(phi: StateSpec, x: Monomial, tol: float = 1e-9) -> bool:
    """True when the state kills x, as every ground state must for a != 1 or b != 1.

    Monomials with a = b = 1 carry no constraint and pass vacuously.
    """
    if x.a == 1 and x.b == 1:
        return True
    return abs(evaluate(phi, x)) <= tol


def no_kms_witness(beta: float, a: int) -> float:
    """Excess mass a * a^-beta - 1 of the orthogonal family {s^k v_a v_a* s*^k}.

    For beta < 1 and a >= 2 the output is strictly positive: the a orthogonal
    projections would carry total mass a^(1-beta) > 1, contradicting
    positivity, so no equilibrium state exists below inverse temperature 1.
    """
    if not 0 <= beta < 1:
        raise ValueError(f"witness applies to beta in [0, 1), got {beta}")
    if a < 2:
        raise ValueError("a must be >= 2")
    return a ** (1.0 - beta) - 1.0


# --------------------------------------------------------------------------
# cylinder measure, conditional states, reconstruction
# --------------------------------------------------------------------------


_CYLINDER_TOL = 1e-12  # target truncation error of each per-prime series


def measure_cylinder(beta: float, m: int, a: int) -> tuple[float, float]:
    """Mass of the cylinder m + a*(completed integers) under the product measure.

    Returns (series_value, tail_bound).  For beta > 1 the value is computed
    as the per-prime truncated series
    prod_{p | a} (1 - p^(1-beta)) sum_{k >= e_p(a)} p^((1-beta)k - e_p(a)),
    whose closed form is a^-beta (the oracle used by the tests); at beta = 1
    the measure is the Haar measure, with exact cylinder value 1/a and no
    truncation.
    """
    if beta < 1:
        raise ValueError(f"cylinder measure requires beta >= 1, got {beta}")
    if a < 1 or m < 0:
        raise ValueError("need a >= 1 and m >= 0")
    if beta == 1:
        return 1 / a, 0.0
    if beta == inf:
        return (1.0 if a == 1 else 0.0), 0.0
    value = 1.0
    tail = 0.0
    for p, e in factorize(a):
        ratio = p ** (1.0 - beta)
        cutoff = e + max(8, math.ceil((math.log(_CYLINDER_TOL) - math.log(10)) / math.log(ratio)))
        partial = math.fsum(ratio**k for k in range(e, cutoff + 1))
        factor = (1.0 - ratio) * partial * p ** (-float(e))
        # dropped terms of the geometric series, per factor
        tail += ratio ** (cutoff + 1) * p ** (-float(e))
        value *= factor
    return value, tail


def conditional_mass(beta: float, window: PrimeWindow) -> float:
    """Mass prod_{p in E} (1 - p^(1-beta)) of the compression that removes the
    ranges of the shifted isometries over the window primes."""
    if not (beta > 1):
        raise ValueError(f"conditional mass requires beta > 1, got {beta}")
    if beta == inf:
        return 1.0
    out = 1.0
    for p in window.primes:
        out *= 1.0 - p ** (1.0 - beta)
    return out


def conditional_moment(phi: StateSpec, window: PrimeWindow, k: int) -> complex:
    """Value of the conditional state on s^k (s*^|k| for k < 0).

    The compression by the window projection keeps exactly the fibered basis
    vectors whose level is coprime to the window, so for psi_{beta,mu} the
    conditional moments are
        (zeta_E(beta-1)/zeta(beta-1)) *
            sum_{x | k, gcd(x, E) = 1} x^(1-beta) moment(mu, k/x)
    (equal to 1 at k = 0 by the Euler product).  For psi_beta they collapse
    to [k = 0].  In the limit where the window exhausts the primes these are
    the plain moments of mu.
    """
    beta = _beta_of(phi)
    if not (beta > 1):
        raise ValueError("conditional state needs beta > 1")
    if isinstance(phi, PsiBeta):
        return 1.0 + 0j if k == 0 else 0j
    if k == 0:
        return 1.0 + 0j
    if phi.beta == inf:
        return moment(phi.mu, k)
    scale = zeta_e(beta - 1.0, window.primes) / zeta(beta - 1.0)
    radical = math.prod(window.primes)
    return scale * _divisor_sum(phi, k, [d for d in divisors(abs(k)) if math.gcd(d, radical) == 1])


def reconstruct_sn(phi: StateSpec, window: PrimeWindow, n: int) -> float:
    """Defect of the reconstruction of phi(s^n) from its conditional state.

    The identity:  phi(s^n) = (1/zeta_E(beta-1)) *
        sum over window-supported divisors a of n of a^(1-beta) times the
        conditional moment at n/a
    holds exactly for every finite window, because each divisor of n factors
    uniquely into a window-supported part and a window-coprime part.  For
    n = 0 both sides are 1 by the Euler product.  Returns |rhs - phi(s^n)|.
    """
    beta = _beta_of(phi)
    if not (beta > 1):
        raise ValueError("reconstruction requires beta > 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs = evaluate(phi, Monomial.s_power(n))
    if n == 0:
        return abs(1.0 - lhs)
    rhs = 0j
    for a in divisors(n):
        if window.supports(a):
            rhs += float_power(a, 1.0 - beta) * conditional_moment(phi, window, n // a)
    rhs /= zeta_e(beta - 1.0, window.primes)
    return abs(rhs - lhs)


# --------------------------------------------------------------------------
# positivity, partition function, moment recovery
# --------------------------------------------------------------------------


def gram_matrix(phi: StateSpec, xs: Sequence[Monomial]) -> tuple[np.ndarray, float]:
    """Gram matrix G[i][j] = phi(x_i* x_j) and its least eigenvalue.

    Positive semidefiniteness of G certifies positivity of the state formula
    on the span of the chosen monomials.
    """
    if not xs or len(xs) > 64:
        raise ValueError("need between 1 and 64 monomials")
    if any(x.is_zero for x in xs):
        raise ValueError("zero monomial in family")
    gram = evaluate_batch(phi, *product_table([adjoint(x) for x in xs], xs))
    eigs = np.linalg.eigvalsh(gram)
    return gram, float(eigs[0])


def partition_sum(beta: float, n_max: int) -> tuple[float, float]:
    """Truncated partition function sum_{x <= N} x * x^-beta and its tail bound.

    The eigenvalue log x of the generator has multiplicity x, so the full sum
    is zeta(beta - 1); the dropped tail is below the integral bound
    N^(2-beta)/(beta-2).
    """
    if beta <= 2:
        raise ValueError("partition function converges only for beta > 2")
    value = math.fsum(x ** (1.0 - beta) for x in range(1, n_max + 1))
    return value, n_max ** (2.0 - beta) / (beta - 2.0)


def moments_from_state(phi: StateSpec, k_max: int) -> list[complex]:
    """Recover the circle-measure moments from the state's values on powers of s.

    The divisor system zeta(beta-1) phi(s^k) = sum_{x | k} x^(1-beta) m(k/x)
    is triangular in k and solves for m(1), ..., m(k_max) by back-substitution.
    """
    beta = _beta_of(phi)
    if not (2 < beta < inf):
        raise ValueError("moment recovery applies to finite beta > 2")
    norm = zeta(beta - 1.0)
    moments: dict[int, complex] = {0: 1.0 + 0j}
    for k in range(1, k_max + 1):
        total = norm * evaluate(phi, Monomial.s_power(k))
        for d in divisors(k):
            if d > 1:
                total -= float_power(d, 1.0 - beta) * moments[k // d]
        moments[k] = total
    return [moments[k] for k in range(1, k_max + 1)]


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def measure_to_json(mu: CircleMeasure) -> dict:
    if mu.is_lebesgue:
        return {"lebesgue": True}
    return {"atoms": [[str(t), str(w)] for t, w in mu.atoms]}


def measure_from_json(obj: dict) -> CircleMeasure:
    if not isinstance(obj, dict):
        raise ValueError(f"a circle measure is a JSON object, got {obj!r}")
    if obj.get("lebesgue"):
        return CircleMeasure.lebesgue()
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in atoms):
        raise ValueError(f"atoms are a JSON list of [angle, weight] pairs, got {atoms!r}")
    return CircleMeasure.from_atoms((json_number(t, Fraction), json_number(w, Fraction)) for t, w in atoms)


def state_to_json(phi: StateSpec) -> dict:
    if isinstance(phi, PsiBeta):
        return {"variant": "psi_beta", "beta": "inf" if phi.beta == inf else phi.beta}
    if isinstance(phi, PsiBetaMu):
        return {
            "variant": "psi_beta_mu",
            "beta": "inf" if phi.beta == inf else phi.beta,
            "mu": measure_to_json(phi.mu),
        }
    if isinstance(phi, Ground):
        omega = (
            {"vector": phi.omega.k}
            if isinstance(phi.omega, VectorState)
            else {"evaluation": str(phi.omega.angle)}
        )
        return {"variant": "ground", "omega": omega}
    raise TypeError(f"not a state: {phi!r}")


def state_from_json(obj: dict) -> StateSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"a state is a JSON object, got {obj!r}")
    variant = obj.get("variant")
    if variant == "psi_beta":
        return PsiBeta(json_number(obj["beta"], float))
    if variant == "psi_beta_mu":
        return PsiBetaMu(json_number(obj["beta"], float), measure_from_json(obj["mu"]))
    if variant == "ground":
        omega = obj["omega"]
        if not isinstance(omega, dict):
            raise ValueError(f"omega is a JSON object, got {omega!r}")
        if "vector" in omega:
            return Ground(VectorState(json_number(omega["vector"])))
        return Ground(Evaluation(json_number(omega["evaluation"], Fraction)))
    raise ValueError(f"unknown state variant {variant!r}")
