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
  supported on a = b = 1 with value omega(s^m s*^n), for omega a vector
  state of the shift model or a circle measure mu lifted through C(T);
  Ground(mu) equals the KMS_inf state psi_{inf,mu}.

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

from .algebra import Monomial, monomial_mul
from .numtheory import PrimeWindow, divisors, factorize, float_power, json_number, zeta, zeta_e

__all__ = [
    "CircleMeasure",
    "VectorState",
    "PsiBeta",
    "PsiBetaMu",
    "Ground",
    "StateSpec",
    "PrimeWindow",
    "moment",
    "evaluate",
    "evaluate_exact",
    "kms_defect",
    "kms_characterisation_check",
    "kms_grid",
    "ground_check",
    "no_kms_witness",
    "measure_cylinder",
    "conditional_mass",
    "conditional_moment",
    "reconstruct_sn",
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

    Atoms are (angle, weight) Fraction pairs with angles in [0, 1) and positive
    weights summing to 1; `atoms` is None for Lebesgue.  As the state of the
    one-isometry algebra lifted from C(T), omega(s^m s*^n) = moment(mu, m - n).
    """

    atoms: tuple[tuple[Fraction, Fraction], ...] | None

    def __post_init__(self) -> None:
        if self.atoms is None:
            return
        object.__setattr__(self, "atoms", tuple((Fraction(t), Fraction(w)) for t, w in self.atoms))
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
        return cls(((theta, 1),))

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Fraction | str, Fraction | str]]) -> "CircleMeasure":
        return cls(tuple(pairs))

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

    def shift_moment(self, m: int, n: int) -> int:
        return int(m == n and self.k >= n)


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
    """A ground state, parametrised by a state of the one-isometry algebra: a
    vector state, or a circle measure lifted through C(T)."""

    omega: VectorState | CircleMeasure

    def __post_init__(self) -> None:
        if not isinstance(self.omega, (VectorState, CircleMeasure)):
            raise TypeError(f"omega is a VectorState or a CircleMeasure, got {self.omega!r}")


StateSpec = PsiBeta | PsiBetaMu | Ground
_THERMAL = (PsiBeta, PsiBetaMu)  # the families with an inverse temperature of their own


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
    states vanish unless a = b = 1, where they restrict to omega.  Every
    family vanishes for a != b, which is tested first; anything that is not
    a state specification raises TypeError.
    """
    m, a, b, n = x
    if a != b or not a:  # off the support of every family; ZERO is (0, 0, 0, 0)
        if isinstance(phi, StateSpec):
            return 0j
    elif isinstance(phi, PsiBeta):
        return complex(float_power(a, -phi.beta)) if m == n else 0j
    elif isinstance(phi, PsiBetaMu):
        k = m - n
        if phi.beta == inf:
            return moment(phi.mu, k) if a == 1 else 0j
        if k % a:
            return 0j
        if not k:
            return complex(float_power(a, -phi.beta))
        if phi.mu.is_lebesgue:
            return 0j  # every Lebesgue moment at k/d != 0 vanishes: no divisor is listed
        try:
            norm = a * zeta(phi.beta - 1)
        except OverflowError:
            return 0j  # a >= 2^1024: the value is at most a^-beta, below every double
        return _divisor_sum(phi, k, [a * e for e in divisors(abs(k) // a)]) / norm
    elif isinstance(phi, Ground):
        if a != 1:
            return 0j
        omega = phi.omega
        return moment(omega, m - n) if isinstance(omega, CircleMeasure) else complex(omega.shift_moment(m, n))
    raise TypeError(f"not a state specification: {phi!r}")


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
        return Fraction(phi.omega.shift_moment(x.m, x.n) if x.a == x.b == 1 else 0)
    raise ValueError(f"no exact mode for {phi!r}")


def _beta_of(phi: StateSpec) -> float:
    if isinstance(phi, _THERMAL):
        return phi.beta
    raise ValueError("ground states have no inverse temperature")


def _finite_beta(phi: StateSpec, beta: float | None) -> float:
    """The beta at which the equilibrium condition is checked: the state's own by
    default, and finite either way."""
    if beta is None:
        beta = _beta_of(phi)
    if not math.isfinite(beta):
        raise ValueError(f"the equilibrium condition is checked at a finite beta, got {beta}")
    return beta


def kms_defect(phi: StateSpec, x: Monomial, y: Monomial, beta: float | None = None) -> float:
    """|a^beta phi(x y) - b^beta phi(y x)| for x = s^m v_a v_b* s*^n, at a finite beta.

    Zero (up to roundoff) for every pair exactly when phi satisfies the
    equilibrium condition at beta.  The dynamics grades a monomial by the
    ratio of its indices, and for y = s^q v_c v_d* s*^r both x y and y x have
    ratio a c / (b d) or are zero; every state vanishes off ratio 1.  So a
    pair with a c != b d returns 0.0 without rewriting either product, even
    where a^beta would overflow a double.
    """
    _, a, b, _ = x
    _, c, d, _ = y
    if not a or not c:  # ZERO is the only monomial with a vanishing index
        raise ValueError("zero monomial")
    # a finite beta, given or the state's own, needs no call; _finite_beta resolves or rejects the rest
    if beta is None and isinstance(phi, _THERMAL):
        beta = phi.beta
    if beta is None or not math.isfinite(beta):
        beta = _finite_beta(phi, beta)
    if a * c != b * d:
        return 0.0
    xy = monomial_mul(x, y)
    yx = monomial_mul(y, x)
    # evaluate reads ZERO as 0 too; skipping the call is cheaper on the products that vanish
    left = evaluate(phi, xy) if xy[1] else 0j
    right = evaluate(phi, yx) if yx[1] else 0j
    return abs(float_power(a, beta) * left - float_power(b, beta) * right)


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


def kms_grid(phi: StateSpec, monos: Sequence[Monomial], beta: float | None = None) -> tuple:
    """`kms_defect` over every pair (x, y) and `kms_characterisation_check` over every
    x of a grid, at a finite beta (the state's own by default); each x meets only
    the y of inverse ratio, since no other pair has a defect.  Returns (worst pair
    defect, its (x, y), worst characterisation defect, its x), each witness the
    first maximum in x-major order, and (monos[0], monos[0]) when no pair has one."""
    beta = _finite_beta(phi, beta)
    chars = [kms_characterisation_check(phi, x, beta) for x in monos]
    k = chars.index(max(chars))
    by_ratio: dict[Fraction, list[Monomial]] = {}
    for y in monos:
        by_ratio.setdefault(Fraction(y.b, y.a), []).append(y)
    worst, pair = 0.0, (monos[0], monos[0])
    for x in monos:
        for y in by_ratio.get(Fraction(x.a, x.b), ()):
            defect = kms_defect(phi, x, y, beta)
            if defect > worst:
                worst, pair = defect, (x, y)
    return worst, pair, chars[k], monos[k]


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
_CYLINDER_MAX_TERMS = 10**7  # series terms summed over all primes of a, about 2 s


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
    # every prime's term count before any summing: the counts grow like 1/(beta - 1),
    # a ratio of 1.0 never reaches the tolerance, and one of 0.0 makes every term 0
    series = []
    for p, e in factorize(a):
        ratio = p ** (1.0 - beta)
        if 0.0 < ratio < 1.0:
            extra = max(8, math.ceil((math.log(_CYLINDER_TOL) - math.log(10)) / math.log(ratio)))
        else:
            extra = inf if ratio else 0
        series.append((p, e, ratio, extra))
    if sum(extra + 1 for *_, extra in series) > _CYLINDER_MAX_TERMS:
        raise ValueError(f"the cylinder series at beta = {beta} and a = {a} needs more than {_CYLINDER_MAX_TERMS} terms")
    value = 1.0
    tail = 0.0
    for p, e, ratio, extra in series:
        cutoff = e + extra
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
    if phi.mu.is_lebesgue:
        return 0j  # every Lebesgue moment at k/x != 0 vanishes: no divisor is listed
    scale = zeta_e(beta - 1.0, window) / zeta(beta - 1.0)
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
    # n // a != 0, where the conditional moments of psi_beta and of Lebesgue
    # psi_{beta,mu} vanish: each term is exactly 0, and n need not be factored
    if not (isinstance(phi, PsiBeta) or phi.mu.is_lebesgue):
        for a in divisors(n):
            if window.supports(a):
                rhs += float_power(a, 1.0 - beta) * conditional_moment(phi, window, n // a)
    rhs /= zeta_e(beta - 1.0, window)
    return abs(rhs - lhs)


# --------------------------------------------------------------------------
# partition function, moment recovery
# --------------------------------------------------------------------------


def partition_sum(beta: float, n_max: int) -> tuple[float, float]:
    """Truncated partition function sum_{x <= N} x * x^-beta and its tail bound.

    The eigenvalue log x of the generator has multiplicity x, so the full sum
    is zeta(beta - 1); the dropped tail is below the integral bound
    N^(2-beta)/(beta-2).
    """
    if beta <= 2:
        raise ValueError("partition function converges only for beta > 2")
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be an int >= 1, got {n_max!r}")
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
    lebesgue = obj.get("lebesgue", False)
    if not isinstance(lebesgue, bool):
        raise ValueError(f"lebesgue is a JSON boolean, got {lebesgue!r}")
    if lebesgue:
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
        if isinstance(phi.omega, VectorState):
            return {"variant": "ground", "omega": {"vector": phi.omega.k}}
        if len(phi.omega.atoms or ()) == 1:  # a point of the circle keeps its one-angle form
            return {"variant": "ground", "omega": {"evaluation": str(phi.omega.atoms[0][0])}}
        return {"variant": "ground", "omega": {"mu": measure_to_json(phi.omega)}}
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
        if "mu" in omega:
            return Ground(measure_from_json(omega["mu"]))
        return Ground(CircleMeasure.point(json_number(omega["evaluation"], Fraction)))
    raise ValueError(f"unknown state variant {variant!r}")
