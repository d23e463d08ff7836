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
generator's own definition, and one word runner (`_run_word`) drives either;
both work on arrays of any one integer dtype.  `relation_suite`,
`q_projector_check` and `monomial_apply` (off the monoid model) run on these
steppers, with one token per monoid generator: a monomial is the word
[s^m, v_a, v_b*, s*^n], no index factored.  `monomial_apply` steps one vector
held in Python integers (dtype=object), so its indices stay exact at any
size; the two relation oracles step their whole window in int64 lanes, under
a bound on every value their words reach that `_check_window` checks before
any array is built, and run each relation family (T5, Q5, the projector) on
a k axis, an int64 column of shifts, a block at a time.
Independently of them, the batch appliers apply a whole spanning monomial in
one closed step over the narrowest exact lanes (int16, int32 or int64, as the
indices need), on the fibered model one affine lift of the representative and
one carry into the z-exponent per lane, dividing by arrays in a float unit
(`_floor_divide`), for the big verification sweeps and the `trace_state`
profile; the tests check the two paths against each other.  Phases are
integer exponents of z, so all comparisons are exact in the cyclotomic field;
conversion to complex happens only at the edge (`trace_state`).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .algebra import GeneratorToken, Monomial
from .numtheory import factorize, zeta
from .semigroup import SemigroupElement

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
    """One generator power on fibered basis vectors held in integer arrays (null, r, x, w).

    s sends e_(r, x) to e_(r+1, x), picking up one z when it wraps from x-1
    to 0, and s* is its inverse; v_p sends e_(r, x) to e_(pr, px), and v_p*
    undoes that where p divides both r and x and kills the vector elsewhere.
    Killed lanes keep their last (valid) values.  Any one integer dtype will
    do: object arrays stay exact at any size, and int64 ones are exact while
    the caller keeps every value inside int64.  A power may be an int64
    column, one shift per row, which broadcasts against the lanes.
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
    """One generator power on shift-model basis vectors held in integer arrays (null, n).

    s sends e_n to e_(n+1) and is unitary; v_p sends e_n to e_(pn), and v_p*
    undoes that where p divides n and kills the vector elsewhere.  No phases.
    Dtype-agnostic, and broadcasting a power column, as `_x_step` is.
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
    through a model's stepper on basis vectors held in arrays of one integer
    dtype, which every step keeps."""
    state = (np.zeros(basis[0].shape, bool), *basis)
    for tok in reversed(word):
        state = step(tok, *state)
    return state


def _monomial_word(mono: Monomial) -> list[GeneratorToken]:
    """s^m, v_a, v_b*, s*^n in operator order, one token per monoid generator: a stepper
    applies v_q for any q in one step, so no index is factored, and s^0 and v_1 are identities."""
    return [GeneratorToken("s", power=mono.m), GeneratorToken("v", mono.a),
            GeneratorToken("v", mono.b, star=True), GeneratorToken("s", power=mono.n, star=True)]


def monomial_apply(mono: Monomial, e: Basis) -> WeightedBasis:
    """Apply a monomial to one basis vector, on the monoid model as T_(m,a) T_(n,b)*; the zero
    element kills everything."""
    if mono.is_zero:
        return NULL
    if isinstance(e, SemigroupElement):
        inner = toeplitz_apply(SemigroupElement(mono.n, mono.b), e, star=True)
        return inner if inner.is_null else toeplitz_apply(SemigroupElement(mono.m, mono.a), inner.basis)
    word = _monomial_word(mono)
    if isinstance(e, XBasis):
        null, r, x, w = _run_word(_x_step, word, *(np.array([v], dtype=object) for v in (e.r, e.x, 0)))
        return NULL if null[0] else WeightedBasis(w[0], XBasis(r[0], x[0]))
    null, n = _run_word(_z_step, word, np.array([e], dtype=object))
    return NULL if null[0] else WeightedBasis(0, n[0])


# --------------------------------------------------------------------------
# batch application (one closed step per lane, over int16, int32 or int64 lanes)
# --------------------------------------------------------------------------

_LANE_DTYPES = tuple((int(np.iinfo(dtype).max), dtype) for dtype in (np.int16, np.int32, np.int64))


def _peak(*values: np.ndarray) -> int:
    """Largest absolute entry among the arguments, as a Python int.

    Read off the extremes as Python ints, not through np.abs, which maps
    -2^63 to itself."""
    peak = 0
    for v in values:
        if v.ndim == 0:
            peak = max(peak, abs(int(v)))
        else:
            peak = max(peak, int(v.max(initial=0)), -int(v.min(initial=0)))
    return peak


def _lane_dtype(bound: int) -> type:
    """Lane dtype for values of absolute size at most `bound`: the narrowest of
    int16, int32 and int64 that holds them; past int64 a ValueError.

    Narrower lanes are exact under the same bound and cheaper: NumPy's
    elementwise integer kernels take twice the int16 lanes per SIMD
    instruction that they take int32 ones, and move half the bytes.  Lacking SIMD integer
    division by an array, int16/int32 lanes divide in float32/float64, only a division unit (`_floor_divide`)."""
    for top, dtype in _LANE_DTYPES:
        if bound <= top:
            return dtype
    raise ValueError(f"an index could reach {bound}, past int64; use monomial_apply for exact results")


def _floor_divide(t, d, out):
    """(floor(t / d) in `out`, the lanes where d divides t), for divisors d >= 1 and out not t.

    On int16 and int32 lanes an array divisor takes NumPy's SIMD float32 and float64 division, truncated into
    `out` in the ufunc's small buffers: exact, as the lane bound keeps |t| under 2^15 and 2^31, inside the 24- and
    53-bit mantissas p, so where d does not divide t the quotient lies 1/d or more from an integer and rounds by
    less than |t/d| 2^-p < 1/d.  One product q d gives the floor (q d > t only for t < 0, d not dividing t) and the
    divisibility: no value leaves the integers.  int64 lanes and 0-d divisors (one multiplier) keep np.floor_divide."""
    if d.ndim == 0 or out.dtype == np.int64:
        return np.floor_divide(t, d, out=out), out * d == t
    unit = np.float32 if out.dtype == np.int16 else np.float64
    # a broadcast divisor is cast once, not once per lane it meets
    np.divide(t, d if d.shape == out.shape else d.astype(unit), out=out, dtype=unit, casting="unsafe")
    product = out * d
    if t.min(initial=0) < 0:  # a quotient >= 0 truncates to its floor
        out -= product > t
    return out, product == t


def _index_peaks(*indices: np.ndarray) -> list[int]:
    """`_peak` of a and of b, after refusing an index below 1 (v_0 is no isometry) before any lane is built."""
    low = min(int(v) if v.ndim == 0 else int(v.min(initial=1)) for v in indices)
    if low < 1:
        raise ValueError(f"indices a and b must be >= 1, got {low}")
    return [int(v) if v.ndim == 0 else int(v.max(initial=0)) for v in indices]


def x_monomial_apply_batch(m, a, b, n, null, r, x, w):
    """Vectorised action of s^m v_a v_b* s*^n on fibered basis vectors.

    Parameters broadcast against the state arrays (null, r, x, w), where w is
    the accumulated z-exponent.  Requires a, b >= 1 (a vanished monomial is a
    mask, not a parameter row), else ValueError.  One affine step on the lift
    of r: a lane survives iff b | x and b | (r - n); then, with k = (r - n)/b,
    it moves to level X = a x / b with representative (a k + m) mod X, and w
    grows by floor((a k + m) / X), one carry for s*^n and s^m together.
    Killed lanes come back canonicalised to r = 0, x = 1, w = 0 with the null
    flag set, so the level stays a valid divisor and the arrays remain safe
    to feed back in.  The lanes are the narrowest of int16, int32 and int64
    that holds the bound (max|x| + max|n|) max|a| + max|m| + max|w| + 2 (the
    lift a k reaches -a n / b); the results come back in the dtype of r, x
    and w, widened only when the lanes needed more.  Raises ValueError, never
    wrapping, when that bound passes int64, as it does wherever a n alone does.
    """
    m, a, b, n, r, x, w = map(np.asarray, (m, a, b, n, r, x, w))
    peak_a, peak_b = _index_peaks(a, b)
    lane = _lane_dtype(max((_peak(x) + _peak(n)) * peak_a + _peak(m) + _peak(w) + 2, peak_b))
    out = np.promote_types(np.result_type(r, x, w), lane)
    m, a, b, n, r, x, w = (v.astype(lane, copy=False) for v in (m, a, b, n, r, x, w))
    # t, k and level get the full broadcast shape (at least 1-d) and are
    # updated in place: few lane arrays stay alive
    shape = np.broadcast(m, a, b, n, null, r, x, w).shape
    # v_b* s*^n: defined when b | x and b | (r - n), on the lift k = (r - n)/b;
    # a killed lane keeps a level >= 1 until the end
    t = np.subtract(r, n, out=np.empty(shape or (1,), lane))
    k, live = _floor_divide(t, b, np.empty_like(t))
    level, divides_x = _floor_divide(x, b, np.empty_like(t))
    live &= divides_x & ~np.asarray(null, dtype=bool)
    level += level == 0
    # s^m v_a: the lift a k + m on the level X = a x / b; its floor carries
    # one z per crossing of 0 for the walk down and the walk up together
    level *= a
    k *= a
    k += m
    _floor_divide(k, level, t)
    w = w + t
    t *= level
    k -= t
    # killed lanes to r = 0, x = 1, w = 0
    null = ~live
    k *= live
    level *= live
    level += null
    w *= live
    r, x, w = (v.astype(out, copy=False).reshape(shape) for v in (k, level, w))
    return null.reshape(shape), r, x, w


def toeplitz_monomial_apply_batch(m, a, b, n, null, j, c):
    """Vectorised action of s^m v_a v_b* s*^n on left-regular basis vectors e_(j, c).

    Requires a, b >= 1, else ValueError; killed lanes come back as j = 0, c = 1.
    The lanes are the narrowest of int16, int32 and int64 that holds every
    index; the results come back in the dtype of j and c, widened only when
    the lanes needed more.  Raises ValueError when an index could leave int64.
    """
    m, a, b, n, j, c = map(np.asarray, (m, a, b, n, j, c))
    peak_a, peak_b = _index_peaks(a, b)
    lane = _lane_dtype(max(_peak(j, c) * peak_a + _peak(m), _peak(n), peak_b))
    out = np.promote_types(np.result_type(j, c), lane)
    m, a, b, n, j, c = (v.astype(lane, copy=False) for v in (m, a, b, n, j, c))
    # full-shape lane arrays (at least 1-d), as in x_monomial_apply_batch
    shape = np.broadcast(m, a, b, n, null, j, c).shape
    # s*^n: defined when j >= n
    j = np.subtract(j, n, out=np.empty(shape or (1,), lane))
    live = j >= 0
    j *= live  # killed lanes to j = 0, so that a j / b + m stays inside the lanes
    # v_b*: defined when b | j and b | c
    q, divides_j = _floor_divide(j, b, np.empty_like(j))
    t, divides_c = _floor_divide(c, b, np.empty_like(j))
    live &= divides_j & divides_c & ~np.asarray(null, dtype=bool)
    # v_a then s^m; killed lanes to j = 0, c = 1
    q *= a
    q += m
    t *= a
    null = ~live
    q *= live
    t *= live
    t += null
    j, c = (v.astype(out, copy=False).reshape(shape) for v in (q, t))
    return null.reshape(shape), j, c


# --------------------------------------------------------------------------
# relation reports
# --------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _fibered_window(first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and levels of every e_(r, x) with first <= x <= last, level by level.

    Both arrays are in the lane dtype of their largest value, `last` (int16
    through level 32,767), so a profile block runs on the narrowest lanes
    with no cast.  Cached and read-only: the arrays depend on (first, last)
    alone, so every cold `_diagonal_profile` at one n_max shares its level
    blocks (4 blocks, about 0.5 MB in all, at n_max = 500) instead of
    rebuilding them."""
    lanes = (first + last) * (last - first + 1) // 2
    # built on lanes that hold the offsets, up to `lanes`, then narrowed to hold the values, up to `last`
    wide = _lane_dtype(lanes)
    sizes = np.arange(first, last + 1, dtype=wide)
    levels = np.repeat(sizes, sizes)
    reps = np.arange(lanes, dtype=wide) - np.repeat(np.cumsum(sizes, dtype=wide) - sizes, sizes)
    reps, levels = (v.astype(_lane_dtype(last), copy=False) for v in (reps, levels))
    reps.flags.writeable = levels.flags.writeable = False
    return reps, levels


_BLOCK_LANES = 1 << 15
"""Most lanes in a block of whole levels (`_diagonal_profile`) or of k-rows (`_k_blocks`); at least one level or k.

One pass over all of a profile's lanes (125,250 at n_max = 500) makes
temporaries of a quarter MB or more each, which the allocator maps for the
call and hands back to the system after it, so every cold profile faults
them in again.  A block's temporaries (64 KB per int16 lane array, the
windows' dtype through level 32,767) stay in the heap and in cache from one
block to the next.  The blocks' windows depend on n_max alone and come from
`_fibered_window`'s cache, so cold profiles at one n_max build them once.
A relation family in one block would ask for about 10 GiB at p = 65521 and window 200."""


# largest generator index a relation oracle takes.  A family's k runs as an
# int64 column, so p = 65521 takes a few hundredths of a second on a small
# window, but T5 still writes p - 1 report entries per index p (65,520 at
# 65521), and p near 10^9 would build a report of 10^9 entries.
_MAX_GENERATOR_INDEX = 1 << 16

_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_window(primes: list[int], window: int) -> None:
    """Refuse an empty relation window, an index whose relation families run
    too long, or a window whose words could leave int64 lanes; called before
    any array is built.

    With P the largest index, no value a relation word reaches on the window
    passes (window + P) P^2.  A word either multiplies by two indices <= P
    and shifts nothing (T2, Q2), or multiplies by at most one index <= P
    with at most one shift of at most P before it and one after it (T1,
    T3-T5, Q1, Q5, Q6 and the projector words s^k v_p v_p* s*^k).  A representative,
    level or shift-model index starts at most `window` in size, so it ends
    within max(window P^2, (window + P) P + P), and that is at most
    (window + P) P^2 (for P = 1 each word shifts by at most 1 in all).
    Killed lanes keep their values and are still multiplied, under the same
    count.  A z-exponent moves by at most P + 1 a step.  So the int64
    windows are exact wherever that product fits int64.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not primes:
        raise ValueError("prime list is empty")
    if min(primes) < 1:
        raise ValueError(f"generator indices must be >= 1, got {min(primes)}")
    top = max(primes)
    if top > _MAX_GENERATOR_INDEX:
        raise ValueError(f"generator index {top} is past {_MAX_GENERATOR_INDEX}, the largest a relation check takes")
    bound = (window + top) * top * top
    if bound > _INT64_MAX:
        raise ValueError(f"(window + largest index) * largest index^2 = {bound} passes {_INT64_MAX}")


def _k_blocks(ks: range, lanes: int):
    """The shifts ks as int64 columns of at most `_BLOCK_LANES` // lanes rows each, one at least."""
    rows = max(1, _BLOCK_LANES // lanes)
    for first in range(ks.start, ks.stop, rows):
        yield np.arange(first, min(first + rows, ks.stop), dtype=np.int64)[:, None]


def _projections(step, basis: tuple, p: int):
    """(killed, fixed), k by lanes, of s^k v_p v_p* s*^k on the window vectors, over k < p a block at a time."""
    v, v_star = GeneratorToken("v", p), GeneratorToken("v", p, star=True)
    for k in _k_blocks(range(p), basis[0].size):
        shift, unshift = GeneratorToken("s", power=k), GeneratorToken("s", power=k, star=True)
        null, *out = _run_word(step, [shift, v, v_star, unshift], *basis)
        yield null, functools.reduce(np.logical_and, (got == want for got, want in zip(out, basis)), ~null)


def relation_suite(model: str, primes: list[int], window: int) -> dict:
    """Check the defining relations on every window basis vector.

    For the fibered model the five isometry relations are verified on all
    e_(r, x) with x <= window; for the shift model the unitary additive
    relations hold on |n| <= window, and the range-partition property is
    checked vector by vector: each e_n lies in the range of exactly one
    s^k v_p v_p* s*^k with 0 <= k < p.  Each relation is written once, with
    its name on each model it holds on.  A repeated index counts once, where
    it first occurs: T3 and the pair relations are stated only for p != q.

    The window is stepped in int64 lanes, and a family's k (T5's 0 < k < p,
    Q5's k < p) as an int64 column the steppers broadcast against them, in
    blocks of at most `_BLOCK_LANES` k-rows times lanes.  `_check_window`
    raises ValueError, before any array is built, for an index past
    `_MAX_GENERATOR_INDEX` and where (window + P) P^2 passes int64, P the largest index.

    Returns a JSON-compatible report with the first counterexample (in window
    order) per failed relation, its values Python ints.  Token lists below
    are written in operator order: the leftmost factor acts last.
    """
    if model not in ("x", "z"):
        raise ValueError(f"unknown model {model!r}")
    _check_window(primes, window)
    primes = list(dict.fromkeys(primes))
    report: dict = {"model": model, "window": window, "relations": {}}

    # each model: its stepper, its window basis, and where a window index points
    if model == "x":
        r, x = (a.astype(np.int64) for a in _fibered_window(1, window))
        step, basis = _x_step, (r, x, np.zeros(r.shape, dtype=np.int64))
        locate = lambda i: {"r": int(r[i]), "x": int(x[i])}
    else:
        n = np.arange(-window, window + 1, dtype=np.int64)
        step, basis = _z_step, (n,)
        locate = lambda i: {"n": int(n[i])}

    def record(names: list[str], bad: np.ndarray, counterexample=locate) -> None:
        """One entry per name, from its row of bad (lanes in window order)."""
        bad = bad.reshape(len(names), basis[0].size)
        for name, hit, i in zip(names, bad.any(axis=1).tolist(), bad.argmax(axis=1).tolist()):
            report["relations"][name] = {"pass": False, "counterexample": counterexample(i)} if hit else {"pass": True}

    def check(names: tuple, words, ks: range | None = None) -> None:
        """words(k) = (lhs, rhs) act alike on every window vector (rhs None: the zero operator), at k None or at
        each k of a family's ks, an int64 column.  names: fibered and shift name, {k} filled in; None off a model."""
        if (name := names[model == "z"]) is None:
            return
        for k in (None,) if ks is None else _k_blocks(ks, basis[0].size):
            lhs, rhs = words(k)
            null, *out = _run_word(step, lhs, *basis)
            if rhs is None:
                bad = ~null
            else:
                null2, *out2 = _run_word(step, rhs, *basis)
                moved = functools.reduce(np.logical_or, (got != want for got, want in zip(out, out2)))
                bad = (null != null2) | (~null & moved)
            record([name] if k is None else [name.format(k=j) for j in k[:, 0].tolist()], bad)

    s, s_star = GeneratorToken("s"), GeneratorToken("s", star=True)
    v, v_star = ({p: GeneratorToken("v", p, star=star) for p in primes} for star in (False, True))
    for p in primes:
        check((f"T1[p={p}]", f"Q1[p={p}]"), lambda k: ([v[p], s], [s._replace(power=p), v[p]]))
        check((f"T4[p={p}]", None), lambda k: ([s_star, v[p]], [s._replace(power=p - 1), v[p], s_star]))
        check((f"T5[p={p},k={{k}}]", None), lambda k: ([v_star[p], s._replace(power=k), v[p]], None), range(1, p))
    for p, q in itertools.permutations(primes, 2):
        if p < q:
            check((f"T2[p={p},q={q}]", f"Q2[p={p},q={q}]"), lambda k: ([v[p], v[q]], [v[q], v[p]]))
        check((f"T3[p={p},q={q}]", None), lambda k: ([v_star[p], v[q]], [v[q], v_star[p]]))
    check((None, "Q6"), lambda k: ([s, s_star], []))
    for p in primes:
        if model == "z":  # Q5: the ranges of s^k v_p v_p* s*^k, k < p, partition the basis
            hits = sum(fixed.sum(axis=0) for _, fixed in _projections(step, basis, p))
            record([f"Q5[p={p}]"], hits != 1, lambda i: {"n": int(n[i]), "hits": int(hits[i])})
    return report


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
    the monomial to every basis vector, not from any closed formula.  The
    window is applied in blocks of whole levels (`_BLOCK_LANES`), so
    that a cold profile reuses small temporaries instead of mapping and
    faulting in large ones; the blocks are `_fibered_window`'s cached
    read-only windows, shared by every profile at the same n_max.  Each
    block keeps only its diagonal hits, and the hits are tallied once at the
    end; with no hit at all the profile is () without a tally.
    """
    hit_levels, hit_ws = [], []
    first = 1
    while first <= n_max:
        # the largest last >= first with (first + last)(last - first + 1)/2 <= block lanes
        last = (math.isqrt(8 * _BLOCK_LANES + 4 * first * (first - 1) + 1) - 1) // 2
        last = min(max(last, first), n_max)
        reps, levels = _fibered_window(first, last)
        # no lane starts killed or with a phase: scalars, not arrays, and the
        # zero in the lane dtype so that the output dtypes stay those of the window
        zero = levels.dtype.type(0)
        null, r2, x2, w2 = x_monomial_apply_batch(mono.m, mono.a, mono.b, mono.n, False, reps, levels, zero)
        diag = ~null & (r2 == reps) & (x2 == levels)
        if diag.any():
            hit_levels.append(levels[diag])
            hit_ws.append(w2[diag])
        first = last + 1
    if not hit_levels:
        return ()
    # tally (x, w) pairs through one integer key: x * (number of distinct w) + rank of w
    w_vals, w_rank = np.unique(np.concatenate(hit_ws), return_inverse=True)
    width = w_vals.size
    keys, counts = np.unique(np.concatenate(hit_levels).astype(np.int64) * width + w_rank, return_counts=True)
    return tuple(zip((keys // width).tolist(), w_vals[keys % width].tolist(), counts.tolist()))


def trace_state(mono: Monomial, beta: float, z_angle: Fraction, n_max: int) -> TraceResult:
    """Normalised Gibbs-weight diagonal sum over the fibered model, truncated at x <= n_max.

    value = (1/zeta(beta-1)) * sum_{x <= n_max} sum_r x^-beta <T e_(r,x), e_(r,x)>
    for the point-parameter z = exp(2*pi*i*z_angle).  The reported tail bounds
    the discarded levels: sum_{x > N} x^(1-beta) <= N^(2-beta)/(beta-2), all
    divided by the same normaliser.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be an int >= 1, got {n_max!r}")
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
    name the fiber they have in mind.  The window is stepped in int64 lanes
    under the same `_check_window` and k axis as `relation_suite`.
    """
    _check_window(primes, window)
    reps, levels = _fibered_window(1, window)
    basis = reps.astype(np.int64), levels.astype(np.int64), np.zeros(reps.shape, dtype=np.int64)
    alive = np.ones(reps.shape, bool)
    for p in primes:
        for killed, fixed in _projections(_x_step, basis, p):
            # (1 - P) on a basis vector: either untouched or annihilated
            if np.any(~killed & ~fixed):
                raise AssertionError("range projection did not act as a projection on a basis vector")
            alive &= ~fixed.any(axis=0)
    support = set(primes)
    must_die = np.array([False] + [all(p in support for p, _ in factorize(v)) for v in range(2, window + 1)])
    return bool(alive[0]) and not np.any(alive & must_die[levels - 1])
