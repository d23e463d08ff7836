"""Exact basis-level actions of three concrete models of the generator relations.

Every generator acts as a weighted partial permutation of basis vectors, so
operators are never materialised as matrices; an application either moves a
basis vector to another one (possibly picking up an integer power of the
model's unit parameter z) or annihilates it.  The three models:

* the left-regular model on basis {e_(j,c)} indexed by the monoid itself,
  defined by `toeplitz_apply`,
* the fibered model on X = {(r, x) : x >= 1, r in Z/x}, where the additive
  generator cycles each fiber and multiplies by z at the wraparound,
* the two-sided shift model on Z, where the additive generator is unitary.

The fibered and shift models each have one stepper (`_x_step`, `_z_step`)
that applies one generator power to a whole array of basis vectors, from that
generator's own definition, and one word runner (`_run_word`) drives either.
The arrays hold Python integers (dtype=object), so indices stay exact at any
size.  `relation_suite`, `q_projector_check` and `monomial_apply` all run on
these steppers.  Independently of them, the batch appliers evaluate closed
per-generator-block formulas for a whole spanning monomial over int64 arrays,
for the big verification sweeps and the `trace_state` profile; the test suite
checks the two paths against each other.  Phases are tracked as integer
exponents of z, so all comparisons are exact in the cyclotomic field;
conversion to complex happens only at the edge (`trace_state`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .algebra import GeneratorToken, Monomial
from .numtheory import factorize, zeta
from .semigroup import SemigroupElement, join

__all__ = [
    "XBasis",
    "WeightedBasis",
    "NULL",
    "toeplitz_apply",
    "monomial_apply",
    "x_monomial_apply_batch",
    "toeplitz_monomial_apply_batch",
    "relation_suite",
    "trace_state",
    "TraceResult",
    "q_projector_check",
    "nica_covariance_rhs",
]


@dataclass(frozen=True)
class XBasis:
    """Basis vector e_(r, x): level x >= 1 and residue representative r in [0, x)."""

    r: int
    x: int

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ValueError("level must be >= 1")
        if not 0 <= self.r < self.x:
            raise ValueError(f"representative {self.r} outside [0, {self.x})")


Basis = Union[SemigroupElement, XBasis, int]


@dataclass(frozen=True)
class WeightedBasis:
    """z^z_power times a basis vector, or the annihilated vector (basis None)."""

    z_power: int
    basis: Basis | None

    @property
    def is_null(self) -> bool:
        return self.basis is None

    def scaled(self, dz: int) -> "WeightedBasis":
        if self.is_null:
            return NULL
        return WeightedBasis(self.z_power + dz, self.basis)


NULL = WeightedBasis(0, None)


# --------------------------------------------------------------------------
# one generator power at a time
# --------------------------------------------------------------------------


def toeplitz_apply(y: SemigroupElement, e: SemigroupElement, star: bool = False) -> WeightedBasis:
    """Left translation e_x -> e_(y x); the adjoint moves back when y <= x, else kills."""
    if not star:
        return WeightedBasis(0, y * e)
    dm = e.m - y.m
    if dm < 0 or dm % y.a != 0 or e.a % y.a != 0:
        return NULL
    return WeightedBasis(0, SemigroupElement(dm // y.a, e.a // y.a))


def _x_step(tok: GeneratorToken, null, r, x, w):
    """One generator power on fibered basis vectors held in object arrays (null, r, x, w).

    s sends e_(r, x) to e_(r+1, x), picking up one z when it wraps from x-1
    to 0, and s* is its inverse; v_p sends e_(r, x) to e_(pr, px), and v_p*
    undoes that where p divides both r and x and kills the vector elsewhere.
    Killed lanes keep their last (valid) values.
    """
    if tok.kind == "s":
        moved = r - tok.power if tok.star else r + tok.power
        return null, moved % x, x, w + moved // x
    q = tok.index**tok.power
    if not tok.star:
        return null, r * q, x * q, w
    ok = (r % q == 0) & (x % q == 0)
    return null | ~ok, np.where(ok, r // q, r), np.where(ok, x // q, x), w


def _z_step(tok: GeneratorToken, null, n):
    """One generator power on shift-model basis vectors held in object arrays (null, n).

    s sends e_n to e_(n+1) and is unitary; v_p sends e_n to e_(pn), and v_p*
    undoes that where p divides n and kills the vector elsewhere.  No phases.
    """
    if tok.kind == "s":
        return null, n - tok.power if tok.star else n + tok.power
    q = tok.index**tok.power
    if not tok.star:
        return null, n * q
    ok = n % q == 0
    return null | ~ok, np.where(ok, n // q, n)


def _run_word(step, word: list[GeneratorToken], *basis):
    """(null, *basis) after a word in operator order (rightmost token first) acts
    through a model's stepper on basis vectors held in object arrays."""
    state = (np.zeros(basis[0].shape, bool), *basis)
    for tok in reversed(word):
        state = step(tok, *state)
    return state


def _monomial_word(mono: Monomial) -> list[GeneratorToken]:
    """s^m, v_a prime by prime, v_b* prime by prime, s*^n, in operator order."""
    word = [GeneratorToken("s", power=mono.m)]
    word += [GeneratorToken("v", p, e) for p, e in factorize(mono.a)]
    word += [GeneratorToken("v", p, e, star=True) for p, e in factorize(mono.b)]
    word.append(GeneratorToken("s", power=mono.n, star=True))
    return [tok for tok in word if tok.power]


def monomial_apply(mono: Monomial, e: Basis) -> WeightedBasis:
    """Apply a monomial generator-by-generator to one basis vector; the zero element kills everything."""
    if mono.is_zero:
        return NULL
    word = _monomial_word(mono)
    if isinstance(e, SemigroupElement):
        for tok in reversed(word):
            y = SemigroupElement(tok.power, 1) if tok.kind == "s" else SemigroupElement(0, tok.index**tok.power)
            out = toeplitz_apply(y, e, star=tok.star)
            if out.is_null:
                return NULL
            e = out.basis
        return WeightedBasis(0, e)
    if isinstance(e, XBasis):
        null, r, x, w = _run_word(_x_step, word, *(np.array([v], dtype=object) for v in (e.r, e.x, 0)))
        return NULL if null[0] else WeightedBasis(w[0], XBasis(r[0], x[0]))
    null, n = _run_word(_z_step, word, np.array([e], dtype=object))
    return NULL if null[0] else WeightedBasis(0, n[0])


# --------------------------------------------------------------------------
# batch application (closed per-block formulas over int64 arrays)
# --------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _peak(*values) -> int:
    """Largest absolute entry among the arguments, as a Python int."""
    return max(int(np.asarray(np.abs(v)).max(initial=0)) for v in values)


def _check_int64(bound: int) -> None:
    if bound > _INT64_MAX:
        raise ValueError(f"an index could reach {bound}, past int64; use monomial_apply for exact results")


def x_monomial_apply_batch(m, a, b, n, null, r, x, w):
    """Vectorised action of s^m v_a v_b* s*^n on fibered basis vectors.

    Parameters broadcast against the state arrays (null, r, x, w), where w is
    the accumulated z-exponent.  Requires a, b >= 1 (a vanished monomial is a
    mask, not a parameter row).  Killed lanes come back canonicalised to
    r = 0, x = 1, w = 0 with the null flag set, so the level stays a valid
    divisor and the arrays remain safe to feed back in.  Raises ValueError
    when an index or z-exponent could leave int64.
    """
    _check_int64(_peak(x) * _peak(a) + _peak(m) + _peak(n) + _peak(w) + 2)
    null = np.asarray(null, dtype=bool)
    r = np.asarray(r)
    x = np.asarray(x)
    w = np.asarray(w)
    # s*^n: walk down n steps; one zbar per crossing of 0
    w = w - np.maximum((n - 1 - r) // x + 1, 0)
    r = (r - n) % x
    # v_b*: defined when b | x and b | r
    ok = ((x % b) | (r % b)) == 0
    null = null | ~ok
    r = np.where(ok, r // b, 0)
    x = np.where(ok, x // b, 1)
    # v_a scales the fiber, then s^m walks up with one z per crossing of 0
    r = r * a
    x = x * a
    w = w + (r + m) // x
    r = (r + m) % x
    r = np.where(null, 0, r)
    x = np.where(null, 1, x)
    w = np.where(null, 0, w)
    return null, r, x, w


def toeplitz_monomial_apply_batch(m, a, b, n, null, j, c):
    """Vectorised action of s^m v_a v_b* s*^n on left-regular basis vectors e_(j, c).

    Requires a, b >= 1; killed lanes are canonicalised to j = 0, c = 1.
    Raises ValueError when an index could leave int64.
    """
    _check_int64(_peak(j, c) * _peak(a) + _peak(m))
    null = np.asarray(null, dtype=bool)
    j = np.asarray(j)
    c = np.asarray(c)
    # s*^n
    ok = j >= n
    null = null | ~ok
    j = np.where(ok, j - n, 0)
    # v_b*
    ok = ((j % b) | (c % b)) == 0
    null = null | ~ok
    j = np.where(ok, j // b, 0)
    c = np.where(ok, c // b, 1)
    # v_a then s^m
    j = a * j + m
    c = a * c
    j = np.where(null, 0, j)
    c = np.where(null, 1, c)
    return null, j, c


# --------------------------------------------------------------------------
# relation reports
# --------------------------------------------------------------------------


def _fibered_window(window: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and levels of every e_(r, x) with x <= window, level by level."""
    sizes = np.arange(1, window + 1, dtype=np.int64)
    levels = np.repeat(sizes, sizes)
    reps = np.arange(levels.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return reps, levels


def _check_window(primes: list[int], window: int) -> None:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not primes:
        raise ValueError("prime list is empty")
    if min(primes) < 1:
        raise ValueError(f"generator indices must be >= 1, got {min(primes)}")


def _projection_word(p: int, k: int) -> list[GeneratorToken]:
    """s^k v_p v_p* s*^k, the range projection of s^k v_p."""
    return [GeneratorToken("s", power=k), GeneratorToken("v", p), GeneratorToken("v", p, star=True),
            GeneratorToken("s", power=k, star=True)]


def relation_suite(model: str, primes: list[int], window: int) -> dict:
    """Check the defining relations on every window basis vector.

    For the fibered model the five isometry relations are verified on all
    e_(r, x) with x <= window; for the shift model the unitary additive
    relations hold on |n| <= window, and the range-partition property is
    checked vector by vector: each e_n lies in the range of exactly one
    s^k v_p v_p* s*^k with 0 <= k < p.

    Returns a JSON-compatible report with the first counterexample (in window
    order) per failed relation.  Token lists below are written in operator
    order: the leftmost factor acts last.
    """
    if model not in ("x", "z"):
        raise ValueError(f"unknown model {model!r}")
    _check_window(primes, window)
    report: dict = {"model": model, "window": window, "relations": {}}

    def record(name: str, bad: np.ndarray, counterexample) -> None:
        hits = np.flatnonzero(bad)
        entry: dict = {"pass": not hits.size}
        if hits.size:
            entry["counterexample"] = counterexample(int(hits[0]))
        report["relations"][name] = entry

    # each model: its stepper, its window basis, and where a window index points
    if model == "x":
        r, x = (a.astype(object) for a in _fibered_window(window))
        step, basis = _x_step, (r, x, np.zeros(r.shape, dtype=object))
        locate = lambda i: {"r": r[i], "x": x[i]}
    else:
        n = np.arange(-window, window + 1).astype(object)
        step, basis = _z_step, (n,)
        locate = lambda i: {"n": n[i]}

    def check(name: str, lhs: list[GeneratorToken], rhs: list[GeneratorToken] | None) -> None:
        """lhs and rhs act alike on every window vector; rhs None means lhs kills them all."""
        null, *out = _run_word(step, lhs, *basis)
        if rhs is None:
            bad = ~null
        else:
            null2, *out2 = _run_word(step, rhs, *basis)
            moved = np.logical_or.reduce([got != want for got, want in zip(out, out2)])
            bad = (null != null2) | (~null & moved)
        record(name, bad, locate)

    s, s_star = GeneratorToken("s"), GeneratorToken("s", star=True)
    v = {p: GeneratorToken("v", p) for p in primes}
    v_star = {p: GeneratorToken("v", p, star=True) for p in primes}
    if model == "x":
        for p in primes:
            check(f"T1[p={p}]", [v[p], s], [GeneratorToken("s", power=p), v[p]])
            check(f"T4[p={p}]", [s_star, v[p]], [GeneratorToken("s", power=p - 1), v[p], s_star])
            for k in range(1, p):
                check(f"T5[p={p},k={k}]", [v_star[p], GeneratorToken("s", power=k), v[p]], None)
        for p in primes:
            for q in primes:
                if p < q:
                    check(f"T2[p={p},q={q}]", [v[p], v[q]], [v[q], v[p]])
                if p != q:
                    check(f"T3[p={p},q={q}]", [v_star[p], v[q]], [v[q], v_star[p]])
        return report

    for p in primes:
        check(f"Q1[p={p}]", [v[p], s], [GeneratorToken("s", power=p), v[p]])
    for p in primes:
        for q in primes:
            if p < q:
                check(f"Q2[p={p},q={q}]", [v[p], v[q]], [v[q], v[p]])
    check("Q6", [s, s_star], [])
    for p in primes:
        hits = np.zeros(n.shape, dtype=np.int64)
        for k in range(p):
            null, moved = _run_word(step, _projection_word(p, k), *basis)
            hits += ~null & (moved == n)
        record(f"Q5[p={p}]", hits != 1, lambda i: {"n": n[i], "hits": int(hits[i])})
    return report


def nica_covariance_rhs(x: SemigroupElement, y: SemigroupElement, e: SemigroupElement) -> WeightedBasis:
    """Right side of the covariance identity for T_x* T_y, via the join.

    T_x* T_y = T_u T_v* with u = x^-1 (x v y), v = y^-1 (x v y) when the join
    is finite, and 0 otherwise.
    """
    jn = join(x, y)
    if jn is None:
        return NULL
    u = SemigroupElement((jn.l - x.m) // x.a, jn.lcm // x.a)
    v = SemigroupElement((jn.l - y.m) // y.a, jn.lcm // y.a)
    inner = toeplitz_apply(v, e, star=True)
    if inner.is_null:
        return NULL
    return toeplitz_apply(u, inner.basis)


# --------------------------------------------------------------------------
# Gibbs-weight diagonal sums on the fibered model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceResult:
    value: complex
    tail: float


@lru_cache(maxsize=8192)
def _diagonal_profile(mono: Monomial, n_max: int) -> tuple[tuple[int, int, int], ...]:
    """Aggregate diagonal matrix elements of a monomial over all e_(r, x), x <= n_max.

    Returns (x, z_exponent, count) triples: `count` vectors at level x each
    contribute z^z_exponent to the diagonal.  Computed by batch application of
    the monomial to every basis vector, not from any closed formula.
    """
    reps, levels = _fibered_window(n_max)
    null, r2, x2, w2 = x_monomial_apply_batch(
        mono.m, mono.a, mono.b, mono.n, np.zeros(levels.shape, bool), reps, levels, np.zeros_like(levels)
    )
    diag = ~null & (r2 == reps) & (x2 == levels)
    # tally (x, w) pairs through one integer key: x * (number of distinct w) + rank of w
    w_vals, w_rank = np.unique(w2[diag], return_inverse=True)
    width = w_vals.size
    keys, counts = np.unique(levels[diag] * width + w_rank, return_counts=True)
    return tuple(zip((keys // width).tolist(), w_vals[keys % width].tolist(), counts.tolist()))


def trace_state(mono: Monomial, beta: float, z_angle: Fraction, n_max: int) -> TraceResult:
    """Normalised Gibbs-weight diagonal sum over the fibered model, truncated at x <= n_max.

    value = (1/zeta(beta-1)) * sum_{x <= n_max} sum_r x^-beta <T e_(r,x), e_(r,x)>
    for the point-parameter z = exp(2*pi*i*z_angle).  The reported tail bounds
    the discarded levels: sum_{x > N} x^(1-beta) <= N^(2-beta)/(beta-2), all
    divided by the same normaliser.
    """
    if beta <= 2:
        raise ValueError(f"trace normalisation requires beta > 2, got {beta}")
    if mono.is_zero:
        raise ValueError("zero monomial")
    norm = zeta(beta - 1)
    total = 0j
    num, den = Fraction(z_angle).as_integer_ratio()
    for x, w, count in _diagonal_profile(mono, n_max):
        # w * z_angle reduced mod 1 in exact arithmetic before the float
        total += count * x ** (-beta) * cmath.exp(2j * math.pi * (w * num % den / den))
    tail = n_max ** (2.0 - beta) / (beta - 2.0) / norm
    return TraceResult(total / norm, tail)


def q_projector_check(primes: list[int], window: int, z_angle: Fraction = Fraction(0)) -> bool:
    """Finite product of the complements of the range projections s^j v_p v_p* s*^j.

    Applied to every fibered window vector at once: it must fix e_(0,1) and
    kill every e_(r, x) with x != 1 supported on `primes`.  Other vectors are
    unconstrained.  The z-exponent bookkeeping is formal, so the verdict is
    the same for every unit parameter; `z_angle` is accepted so callers can
    name the fiber they have in mind.
    """
    _check_window(primes, window)
    reps, levels = _fibered_window(window)
    r, x, w = reps.astype(object), levels.astype(object), np.zeros(reps.shape, dtype=object)
    alive = np.ones(r.shape, bool)
    for p in primes:
        for j in range(p):
            null, r2, x2, w2 = _run_word(_x_step, _projection_word(p, j), r, x, w)
            fixed = ~null & (r2 == r) & (x2 == x) & (w2 == 0)
            # (1 - P) on a basis vector: either untouched or annihilated
            if np.any(alive & ~null & ~fixed):
                raise AssertionError("range projection did not act as a projection on a basis vector")
            alive &= ~fixed
    support = set(primes)
    must_die = np.array([False] + [all(p in support for p, _ in factorize(v)) for v in range(2, window + 1)])
    return bool(alive[0]) and not np.any(alive & must_die[levels - 1])
