"""The three benchmark workloads: seeded inputs, the timed queries, and their oracles.

A workload is a fixed list of queries generated from the seed.  Each query
has a `run` thunk (the timed call into the package), an independent `check`
of its output (run outside the timed section), and an item count.  Inputs
are drawn in fixed proportions over the properties that set their cost --
index magnitude, the position of the euclid solution, point types, window
sizes -- so that two seeds give the same amount of work and only the values
differ.

* rewrite-deep: words over v_p (p <= 13, powered and starred) and s^k with
  coprime cores stratified over magnitudes 10^1..10^6, plus direct euclid
  and join calls and a CLI slice; `covariance_reduce` is cleared before
  every batch (cold cache).
* grid-sweep: one (state, left monomial) row of the acceptance grid per
  query: the KMS defect against all 900 right factors, and the row's
  products checked against composed batch actions on small windows (hot
  cache).
* oracle-sweep: the scalar representation oracles, trace_state with a cold
  profile cache, spectrum points, divisors across magnitudes, the
  reconstruction identity, character Euler sums and a CLI slice.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Any, Callable

import numpy as np

from affinetoeplitz import algebra, bostconnes, cli, numtheory, representation, semigroup, spectrum, states
from affinetoeplitz.algebra import Monomial
from affinetoeplitz.numtheory import NABLA, SupernaturalNumber
from affinetoeplitz.representation import NULL, WeightedBasis, XBasis
from affinetoeplitz.semigroup import SemigroupElement
from affinetoeplitz.spectrum import APoint, BPoint, ResidueFamily

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_MULTS = (1, 2, 3, 4, 6)
GRID = [Monomial(m, a, b, n) for m in range(6) for a in GRID_MULTS for b in GRID_MULTS for n in range(6)]
KMS_TOL = 1e-9


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    items: int = 1


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = tiny
        self.queries: list[Query] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def cold_caches(self) -> list:
        """Caches cleared before every batch."""
        return []

    def add(self, kind: str, run, check, items: int = 1) -> None:
        self.queries.append(Query(kind, run, check, items))

    def count(self, full: int) -> int:
        return max(1, full // 8) if self.tiny else full


def cache_of(module, name: str):
    """The lru_cache wrapper behind module.name, or None once the cache is gone."""
    fn = getattr(module, name, None)
    return fn if hasattr(fn, "cache_info") else None


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def cli_ok(out) -> bool:
    code, text = out
    if code != 0:
        return False
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


# --------------------------------------------------------------------------
# stratified generation helpers (stdlib only: the package gets the results)
# --------------------------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def chunks(seq: list, size: int) -> list[list]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def stratified(count: int) -> list[float]:
    """Fixed quantile positions (i + 1/2)/count in (0, 1)."""
    return [(i + 0.5) / count for i in range(count)]


def prime_powers(lo: float, hi: float) -> list[tuple[int, int]]:
    """(p, e) with p <= 13 and lo <= p^e < hi."""
    out = []
    for p in SMALL_PRIMES:
        e = 1
        while p**e < hi:
            if p**e >= lo:
                out.append((p, e))
            e += 1
    return out


def coprime_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    """Coprime c < d drawn from [lo, hi)."""
    while True:
        c, d = sorted(rng.sample(range(lo, hi), 2))
        if gcd(c, d) == 1:
            return c, d


def euclid_instance(rng: random.Random, decade_: int, u: float) -> tuple[int, int, int]:
    """(c, d, k) with coprime 10^decade <= c < d < 10^(decade + 1/4) and the
    smallest solution of k = alpha*c - beta*d at beta = u * 10^decade.

    With c < d the alternating scheme runs beta + 1 rounds, so the fixed
    quantile u fixes the cost while c, d and the slack in alpha stay random.
    """
    c, d = coprime_pair(rng, 10**decade_, round(10 ** (decade_ + 0.25)))
    beta = max(1, round(u * 10**decade_))
    alpha = -(-beta * d // c) + rng.randrange(0, 4)
    return c, d, alpha * c - beta * d


# --------------------------------------------------------------------------
# rewrite-deep
# --------------------------------------------------------------------------

# decade of the cores -> calls per batch; the median query is a 10^3 word, whose
# cost is mostly the euclid loop rather than parsing
WORD_STRATA = {1: 40, 2: 60, 3: 100, 4: 80, 5: 12, 6: 3}
EUCLID_STRATA = {2: 40, 4: 60, 6: 2}
JOIN_STRATA = {2: 20, 4: 30}


def _core_shift(A: int, B: int, target: int, kmax: int = 10**4) -> int:
    """The shift k in [1, kmax] for which v_A* s^k v_B costs closest to `target` rounds.

    The middle reduces through the smallest (x, y) with x*B - y*A = (-k mod A);
    the alternating scheme runs y + 1 rounds when B < A and x - ceil(rhs/B) + 1
    when B > A, the smaller of the two in either case.
    """
    k = np.arange(1, kmax + 1, dtype=np.int64)
    rhs = -k % A  # s^k after v_A* leaves s*^rhs in front of v_B
    x = rhs * pow(B, -1, A) % A
    low = -(-rhs // B)
    x = np.where(x < low, x + A * (-(-(low - x) // A)), x)
    y = (x * B - rhs) // A
    rounds = np.minimum(x - low, y) + 1
    return int(k[np.argmin(np.abs(rounds - target))])


def _cheap_term(rng: random.Random, prefix: bool) -> str:
    p = rng.choice(SMALL_PRIMES)
    if prefix:
        return rng.choice([f"s^{rng.randrange(1, 10**4)}", f"v{p}", f"v{p}^{rng.randrange(2, 4)}"])
    return rng.choice(["s", "s*", f"s^{rng.randrange(2, 50)}*", f"v{p}", f"v{p}*", f"s^{rng.randrange(2, 10**4)}"])


def _word_vectors(rng: random.Random, mono: Monomial) -> list[SemigroupElement]:
    """Left-regular basis vectors on which the result acts (if nonzero), and ones
    just below its support, where a result with too large an s*-power kills
    what the word itself does not."""
    out = [SemigroupElement(rng.randrange(0, 60), rng.randrange(1, 13)) for _ in range(2)]
    if not mono.is_zero:
        out += [SemigroupElement(mono.n + mono.b * t, mono.b * w) for t, w in ((0, 1), (1, 2), (3, 1))]
        out += [SemigroupElement(mono.n - mono.b * t, mono.b) for t in (1, 2) if mono.n >= mono.b * t]
    return out


def _token_apply(word: str, e: SemigroupElement) -> WeightedBasis:
    """The word acting token by token on the left-regular model (rightmost first)."""
    out = WeightedBasis(0, e)
    for tok in reversed(algebra.parse_word(word)):
        if out.is_null:
            return NULL
        y = SemigroupElement(tok.power, 1) if tok.kind == "s" else SemigroupElement(0, tok.index**tok.power)
        out = representation.toeplitz_apply(y, out.basis, star=tok.star)
    return out


def check_word(word: str, vectors_rng: random.Random):
    def check(mono) -> bool:
        if not isinstance(mono, Monomial):
            return False
        return all(
            _token_apply(word, e) == representation.monomial_apply(mono, e)
            for e in _word_vectors(vectors_rng, mono)
        )

    return check


def check_euclid(c: int, d: int, k: int):
    def check(out) -> bool:
        if not (isinstance(out, tuple) and len(out) == 2):
            return False
        alpha, beta = out
        if alpha < 0 or beta < 0 or alpha * c - beta * d != k:
            return False
        if out != semigroup.euclid_smallest_direct(c, d, k):
            return False
        if max(c, d) <= 200:  # exhaustive: no smaller alpha (k >= 0) or beta (k < 0) solves it
            if k >= 0:
                return all((a * c - k) % d or a * c < k for a in range(alpha))
            return all((b * d + k) % c or b * d < -k for b in range(beta))
        return True

    return check


def check_join(m: int, a: int, n: int, b: int):
    def check(out) -> bool:
        g = gcd(a, b)
        if (m - n) % g:
            return out is None
        if out is None:
            return False
        lcm = a * b // g
        l = out.l
        return (
            out.lcm == lcm
            and l >= max(m, n)
            and (l - m) % a == 0
            and (l - n) % b == 0
            and l - lcm < max(m, n)  # every common value is l + t*lcm
            and (out.alpha, out.beta) == ((l - m) // a, (l - n) // b)
        )

    return check


class RewriteDeep(Workload):
    name = "rewrite-deep"

    def cold_caches(self) -> list:
        cache = cache_of(algebra, "covariance_reduce")
        return [cache.cache_clear] if cache is not None else []

    def build(self) -> None:
        rng = self.rng
        for decade_, full in WORD_STRATA.items():
            candidates = prime_powers(10**decade_, 10 ** (decade_ + 0.5))
            for i, u in enumerate(stratified(self.count(full))):
                (p, e), (q, f) = rng.sample(candidates, 2)
                while p == q:
                    (p, e), (q, f) = rng.sample(candidates, 2)
                A, B = p**e, q**f
                k = _core_shift(A, B, max(1, round(u * 10**decade_)))
                terms = [_cheap_term(rng, True) for _ in range(i % 3)]
                terms += [f"v{p}^{e}*", f"s^{k}", f"v{q}^{f}"]
                terms += [_cheap_term(rng, False) for _ in range(i % 4)]
                word = " ".join(terms)
                self.add("word", lambda w=word: algebra.reduce_word(w), check_word(word, random.Random(rng.random())))
        for decade_, full in EUCLID_STRATA.items():
            for u in stratified(self.count(full)):
                c, d, k = euclid_instance(rng, decade_, u)
                if rng.random() < 0.5:
                    c, d, k = d, c, -k  # same rounds, the k < 0 branch
                self.add("euclid", lambda c=c, d=d, k=k: semigroup.euclid_smallest(c, d, k), check_euclid(c, d, k))
        for decade_, full in JOIN_STRATA.items():
            for u in stratified(self.count(full)):
                g = rng.randrange(1, 13)
                c, d, k = euclid_instance(rng, decade_, u)
                m = rng.randrange(0, 1000)
                args = (m, g * c, m + g * k, g * d)
                if rng.random() < 0.5:
                    args = (args[2], args[3], args[0], args[1])
                self.add("join", self._join(*args), check_join(*args))
            for _ in range(self.count(full // 4)):  # progressions that never meet
                g = rng.randrange(2, 13)
                m, n = rng.randrange(0, 1000), rng.randrange(0, 1000)
                n += 0 if (m - n) % g else 1
                args = (m, g * rng.randrange(1, 100), n, g * rng.randrange(1, 100))
                self.add("join", self._join(*args), check_join(*args))
        for _ in range(self.count(10)):
            p, q = rng.sample(SMALL_PRIMES, 2)
            word = f"v{p}^{rng.randrange(1, 4)}* s^{rng.randrange(1, 200)} v{q}^{rng.randrange(1, 4)} s*"
            self.add("cli", lambda w=word: run_cli(["reduce", w]), cli_ok)
            c, d = coprime_pair(rng, 10, 200)
            k = rng.randrange(-10**4, 10**4)
            self.add("cli", lambda c=c, d=d, k=k: run_cli(["euclid", str(c), str(d), str(k)]), cli_ok)
            args = [str(rng.randrange(0, 500)), str(rng.randrange(1, 200)), str(rng.randrange(0, 500)), str(rng.randrange(1, 200))]
            self.add("cli", lambda a=args: run_cli(["join", *a]), cli_ok)

    @staticmethod
    def _join(m: int, a: int, n: int, b: int):
        return lambda: semigroup.join(SemigroupElement(m, a), SemigroupElement(n, b))


# --------------------------------------------------------------------------
# grid-sweep
# --------------------------------------------------------------------------

MEASURES = {
    "delta_1": states.CircleMeasure.point(0),
    "delta_i": states.CircleMeasure.point(Fraction(1, 4)),
    "delta_omega": states.CircleMeasure.point(Fraction(1, 3)),
    "lebesgue": states.CircleMeasure.lebesgue(),
    "two_atom": states.CircleMeasure.from_atoms([(Fraction(1, 8), Fraction(1, 4)), (Fraction(2, 3), Fraction(3, 4))]),
}
KMS_STATES = [states.PsiBeta(1.0), states.PsiBeta(1.5), states.PsiBeta(2.0)] + [
    states.PsiBetaMu(beta, mu) for beta in (2.5, 3.0) for mu in MEASURES.values()
]
X_WINDOW = 10  # fibered vectors e_(r, x) with x <= 10: 55 lanes
T_WINDOW = (6, 5)  # left-regular vectors e_(j, c) with j <= 6, c <= 5: 35 lanes
GRID_PARAMS = tuple(np.array([getattr(y, f) for y in GRID], dtype=np.int64)[:, None] for f in "mabn")


def _x_codes(null, r, x, w):
    return np.where(null, -1, ((w + 1024) << 40) | (x << 20) | r)


def _t_codes(null, j, c):
    return np.where(null, -1, (c << 32) | j)


def _windows() -> tuple:
    xr = np.concatenate([np.arange(x) for x in range(1, X_WINDOW + 1)]).astype(np.int64)
    xx = np.concatenate([np.full(x, x) for x in range(1, X_WINDOW + 1)]).astype(np.int64)
    tj = np.repeat(np.arange(T_WINDOW[0] + 1, dtype=np.int64), T_WINDOW[1])
    tc = np.tile(np.arange(1, T_WINDOW[1] + 1, dtype=np.int64), T_WINDOW[0] + 1)
    return (
        (representation.x_monomial_apply_batch, _x_codes, (np.zeros(xr.shape, bool), xr, xx, np.zeros_like(xr))),
        (representation.toeplitz_monomial_apply_batch, _t_codes, (np.zeros(tj.shape, bool), tj, tc)),
    )


def window_tables() -> list[tuple]:
    """Every grid factor y on both windows, deduplicated as the acceptance sweep does.

    Per window: the start vectors, the distinct intermediate vectors y e, and
    for each (y, e) the index of its intermediate.
    """
    tables = []
    for batch, codes, start in _windows():
        mid = batch(*GRID_PARAMS, *start)
        mid_codes = codes(*mid)
        uniq, inverse = np.unique(mid_codes, return_inverse=True)
        first = np.zeros(uniq.shape[0], dtype=np.int64)
        first[inverse.reshape(-1)] = np.arange(mid_codes.size)
        distinct = tuple(np.asarray(a).reshape(-1)[first] for a in mid)
        tables.append((batch, codes, start, distinct, inverse.reshape(mid_codes.shape)))
    return tables


def window_mismatches(x: Monomial, prods: list[Monomial], tables: list[tuple]) -> int:
    """Lanes where a product's batch action differs from y's then x's, on both windows.

    Distinct products act on the window; x acts on the distinct intermediates.
    """
    zero = np.array([p.is_zero for p in prods])
    keys = np.array([((p.m * 64 + p.a) * 64 + p.b) * 64 + p.n for p in prods], dtype=np.int64)
    keys[zero] = (1 << 12) | (1 << 6)  # the identity (0, 1, 1, 0) stands in; the mask decides
    uniq, pinv = np.unique(keys, return_inverse=True)
    params = (uniq >> 18, (uniq >> 12) & 63, (uniq >> 6) & 63, uniq & 63)
    params = tuple(p[:, None] for p in params)
    bad = 0
    for batch, codes, start, distinct, inverse in tables:
        lhs = codes(*batch(*params, *start))[pinv.reshape(-1)]
        lhs[zero] = -1
        rhs = codes(*batch(x.m, x.a, x.b, x.n, *distinct))[inverse]
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


def _scalar_compose(x: Monomial, y: Monomial, e: XBasis) -> WeightedBasis:
    inner = representation.monomial_apply(y, e)
    if inner.is_null:
        return NULL
    return representation.monomial_apply(x, inner.basis).scaled(inner.z_power)


def check_row(phi, x: Monomial, sample: list[tuple[Monomial, XBasis]]):
    def check(out) -> bool:
        if not (isinstance(out, tuple) and len(out) == 2):
            return False
        defects, mismatches = out
        if mismatches != 0 or len(defects) != len(GRID) or max(defects) > KMS_TOL:
            return False
        for y, e in sample:  # scalar stepper, independent of the batch appliers
            if representation.monomial_apply(algebra.monomial_mul(x, y), e) != _scalar_compose(x, y, e):
                return False
        return True

    return check


def grid_row(workload: "GridSweep", phi, x: Monomial):
    def run():
        defects = tuple(states.kms_defect(phi, x, y) for y in GRID)
        prods = [algebra.monomial_mul(x, y) for y in GRID]
        return defects, window_mismatches(x, prods, workload.tables)

    return run


class GridSweep(Workload):
    name = "grid-sweep"

    def build(self) -> None:
        rng = self.rng
        self.tables: list[tuple] = []

        def build_tables():
            self.tables = window_tables()
            return len(self.tables)

        self.add("tables", build_tables, lambda out: out == 2, items=len(GRID))
        rows = []
        for phi in KMS_STATES:
            combos = [(a, b) for a in GRID_MULTS for b in GRID_MULTS]
            for a, b in combos[:2] if self.tiny else combos:
                rows.append((phi, Monomial(rng.randrange(6), a, b, rng.randrange(6))))
        rng.shuffle(rows)
        for phi, x in rows:
            sample = []
            for _ in range(3):
                level = rng.randrange(1, 40)
                sample.append((rng.choice(GRID), XBasis(rng.randrange(level), level)))
            self.add("row", grid_row(self, phi, x), check_row(phi, x, sample), items=len(GRID))
        for _ in range(self.count(3)):
            mults = sorted({1, *rng.sample(GRID_MULTS[1:], 3)})
            if rng.random() < 0.5:
                state = ["--state", "psi_beta", "--beta", rng.choice(["1", "1.5", "2"])]
            else:
                mu = states.measure_to_json(rng.choice(list(MEASURES.values())))
                state = ["--state", "psi_beta_mu", "--beta", rng.choice(["2.5", "3"]), "--mu", json.dumps(mu)]
            argv = ["kms-check", *state, "--grid", "1", "--mults", ",".join(map(str, mults))]
            self.add("cli", lambda a=argv: run_cli(a), cli_ok, items=(4 * len(mults) ** 2) ** 2)


# --------------------------------------------------------------------------
# oracle-sweep
# --------------------------------------------------------------------------

X_SUITES = [([2, 3, 5], 10), ([2, 3], 14), ([5, 7], 8), ([2, 3, 5, 7], 6)]
Z_SUITES = [([2, 3, 5], 60), ([2, 3, 5, 7, 11, 13], 30), ([2, 3], 120), ([7, 11], 50)]
Q_CHECKS = [([2], 20), ([2, 3], 24), ([2, 3, 5], 16)]
TRACE_RUNS = [(2.5, Fraction(0)), (3.0, Fraction(1, 4)), (4.0, Fraction(1, 3))]
TRACE_NMAX = 500
POINT_KINDS = ("A-finite", "A-infinite", "B-generator", "B-level")
HD_SLOTS = [  # (kind, modulus exponents or level, bound): fixed moduli fix the window sizes
    ("A", {2: 2, 3: 1}, 14), ("A", {2: inf, 3: 1}, 14), ("B-generator", None, 10), ("B-level", 12, 14),
    ("A", {2: 3, 5: 1}, 14), ("A", {3: inf, 5: 1}, 14), ("B-generator", None, 10), ("B-level", 8, 14),
    ("A", {2: 1, 3: 2}, 14), ("A", {2: inf, 7: 1}, 14), ("B-generator", None, 10), ("B-level", 6, 14),
    ("A", {5: 1, 7: 1}, 14), ("A", {2: 1, 3: inf}, 14), ("B-generator", None, 10), ("B-level", 10, 14),
]
INCLUDES_PER_KIND_PAIR = 12
DIVISOR_DECADES = {3: 30, 6: 30, 9: 30}
GROUP = {"includes": 6, "divisors": 5}  # calls per query: a query is a small table, not one call
RECONSTRUCT_SHAPES = [  # (decade, exponents of 2, 3, 5) of n = 2^i 3^j 5^k P
    (2, (1, 1, 0)), (2, (2, 0, 1)), (4, (2, 1, 1)), (4, (3, 2, 0)), (4, (1, 1, 1)),
    (6, (3, 1, 1)), (6, (2, 2, 1)), (6, (4, 1, 0)), (6, (1, 0, 2)), (4, (0, 2, 1)),
]
EULER_SUMS = [(1.0, 500), (1.5, 1000), (2.0, 2000), (1.0, 1000)]


def random_point(rng: random.Random, kind: str):
    if kind == "A-finite":
        exps = {p: rng.randrange(0, 4) for p in (2, 3, 5)}
        return APoint(rng.randrange(0, 16), SupernaturalNumber.from_exponents(exps))
    if kind == "A-infinite":
        exps = {p: rng.randrange(0, 4) for p in (2, 3, 5)}
        exps[rng.choice((2, 3, 5))] = inf
        return APoint(rng.randrange(12, 20), SupernaturalNumber.from_exponents(exps))
    if kind == "B-generator":
        return BPoint(ResidueFamily.from_int(rng.randrange(0, 48)), NABLA)
    modulus = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
    return BPoint(ResidueFamily.from_residue(rng.randrange(modulus), modulus), SupernaturalNumber.from_int(modulus))


def hereditary_point(rng: random.Random, kind: str, modulus, bound: int):
    if kind == "A":
        return APoint(rng.randrange(bound, bound + 12), SupernaturalNumber.from_exponents(modulus))
    if kind == "B-generator":
        return BPoint(ResidueFamily.from_int(rng.randrange(0, 48)), NABLA)
    return BPoint(ResidueFamily.from_residue(rng.randrange(modulus), modulus), SupernaturalNumber.from_int(modulus))


def modulus_divides(w2, w1) -> bool:
    """Whether w2's modulus divides w1's, read off the exponents the generator chose."""
    n2, n1 = w2.N, w1.N
    e1 = dict(n1.listed)
    if n2.default > n1.default:
        return False
    return all(e <= e1.get(p, n1.default) for p, e in n2.listed) and all(
        n2.default <= e for p, e in n1.listed if p not in dict(n2.listed)
    )


def includes_pair(rng: random.Random, k1: str, k2: str, full: bool):
    """A random (w1, w2) of the given kinds; `full` asks for w2's modulus to divide
    w1's, so that `includes` runs its divisor quantifiers instead of stopping early.
    Kinds that cannot meet the request give the last draw."""
    for _ in range(64):
        w1, w2 = random_point(rng, k1), random_point(rng, k2)
        if modulus_divides(w2, w1) == full:
            break
    return w1, w2


def check_trace(mono: Monomial, beta: float, angle: Fraction):
    def check(out) -> bool:
        closed = states.evaluate(states.PsiBetaMu(beta, states.CircleMeasure.point(angle)), mono)
        return abs(out.value - closed) <= out.tail + 1e-12

    return check


def members(point, bound: int) -> set:
    return {
        SemigroupElement(m, a)
        for m in range(bound + 1)
        for a in range(1, bound + 1)
        if spectrum.contains(point, SemigroupElement(m, a))
    }


def check_includes(pairs: list[tuple]):
    def check(out) -> bool:
        if not (isinstance(out, tuple) and len(out) == len(pairs)):
            return False
        return all(
            isinstance(v, bool) and (not v or members(w2, 12) <= members(w1, 12)) for v, (w1, w2) in zip(out, pairs)
        )

    return check


def smooth_times_prime(rng: random.Random, decade_: int, v: float) -> tuple[int, dict[int, int]]:
    """n ~ 10^decade = s * P, P a prime near n^v and s a product of primes <= 13."""
    target = 10**decade_
    P = next_prime(max(17, round(target**v * (1 + rng.random()))))
    s, exps = 1, {}
    while s * 2 * P <= target:
        p = rng.choice([q for q in SMALL_PRIMES if s * q * P <= 2 * target] or [2])
        s *= p
        exps[p] = exps.get(p, 0) + 1
    exps[P] = exps.get(P, 0) + 1
    return s * P, exps


def check_divisors(numbers: list[tuple[int, dict[int, int]]]):
    def one(n, exps, out) -> bool:
        count = 1
        for e in exps.values():
            count *= e + 1
        return isinstance(out, list) and len(out) == count and out == sorted(set(out)) and all(n % d == 0 for d in out)

    def check(out) -> bool:
        return len(out) == len(numbers) and all(one(n, exps, o) for (n, exps), o in zip(numbers, out))

    return check


class OracleSweep(Workload):
    name = "oracle-sweep"

    def cold_caches(self) -> list:
        cache = cache_of(representation, "_diagonal_profile")
        return [cache.cache_clear] if cache is not None else []

    def build(self) -> None:
        rng = self.rng
        tiny = self.tiny
        suites = [(m, ps, max(3, w // 4) if tiny else w) for m, items in (("x", X_SUITES), ("z", Z_SUITES)) for ps, w in items]
        for model, primes, window in suites[::4] if tiny else suites:
            self.add(
                "relations",
                lambda m=model, ps=primes, w=window: representation.relation_suite(m, ps, w),
                lambda out: isinstance(out, dict) and all(e["pass"] for e in out["relations"].values()),
                items=2 * window + 1 if model == "z" else window * (window + 1) // 2,
            )
        for primes, window in Q_CHECKS[:1] if tiny else Q_CHECKS:
            window = max(4, window // 4) if tiny else window
            angle = Fraction(rng.randrange(8), 8)
            self.add(
                "q-projector",
                lambda ps=primes, w=window, t=angle: representation.q_projector_check(ps, w, t),
                lambda out: out is True,
                items=window * (window + 1) // 2,
            )
        n_max = 60 if tiny else TRACE_NMAX
        for mono in rng.sample(GRID, self.count(8)):
            for beta, angle in TRACE_RUNS:
                self.add(
                    "trace",
                    lambda x=mono, b=beta, t=angle: representation.trace_state(x, b, t, n_max),
                    check_trace(mono, beta, angle),
                    items=n_max,
                )
        for kind, modulus, bound in HD_SLOTS[:1] if tiny else HD_SLOTS:
            bound = 6 if tiny else bound
            point = hereditary_point(rng, kind, modulus, bound)
            self.add(
                "hereditary",
                lambda p=point, b=bound: spectrum.verify_hereditary_directed(p, b),
                lambda out: out is True,
                items=bound * (bound + 1),
            )
        for k1 in POINT_KINDS:
            for k2 in POINT_KINDS:
                pairs = [includes_pair(rng, k1, k2, full=i % 2 == 0) for i in range(self.count(INCLUDES_PER_KIND_PAIR))]
                for group in chunks(pairs, GROUP["includes"]):
                    self.add(
                        "includes",
                        lambda g=group: tuple(spectrum.includes(w1, w2, 24) for w1, w2 in g),
                        check_includes(group),
                        items=2 * len(group),
                    )
        for decade_, full in DIVISOR_DECADES.items():
            numbers = [smooth_times_prime(rng, decade_, 0.4 + 0.6 * u) for u in stratified(self.count(full))]
            for group in chunks(numbers, GROUP["divisors"]):
                self.add(
                    "divisors",
                    lambda g=group: [numtheory.divisors(n) for n, _exps in g],
                    check_divisors(group),
                    items=len(group),
                )
        for decade_, (i, j, k) in RECONSTRUCT_SHAPES[: self.count(len(RECONSTRUCT_SHAPES))]:
            smooth = 2**i * 3**j * 5**k
            n = smooth * next_prime(max(7, round(10**decade_ / smooth * (1 + rng.random()))))
            phi = states.PsiBetaMu(rng.choice([2.5, 3.0]), rng.choice(list(MEASURES.values())))
            window = states.PrimeWindow.of(rng.choice([[2, 3], [2, 3, 5], [2, 5, 7]]))
            self.add(
                "reconstruct",
                lambda p=phi, w=window, n=n: states.reconstruct_sn(p, w, n),
                lambda out: out <= KMS_TOL,
            )
        characters = [
            bostconnes.DirichletCharacter.quadratic_mod4(),
            bostconnes.DirichletCharacter.from_generator(5, 2, Fraction(1, 4)),
            bostconnes.DirichletCharacter.from_generator(7, 3, Fraction(1, 3)),
        ]
        for beta, truncation in EULER_SUMS[: self.count(len(EULER_SUMS))]:
            truncation = truncation // 10 if tiny else truncation
            chi = rng.choice(characters)
            primes = sorted(rng.sample([p for p in (3, 5, 7, 11, 13, 17, 19, 23) if chi.modulus % p], 4))
            self.add(
                "euler",
                lambda c=chi, ps=primes, b=beta, t=truncation: bostconnes.char_euler_sum(c, ps, b, t),
                lambda out: abs(out.series - out.product) <= out.tail_bound + 1e-9,
                items=truncation,
            )
        self._cli_slice(rng)

    def _cli_slice(self, rng: random.Random) -> None:
        argvs = [["rep-check", "--model", "x", "--primes", ",".join(map(str, sorted(rng.sample([2, 3, 5, 7], 2)))), "--window", "8"]]
        for kind in POINT_KINDS[:: 2 if self.tiny else 1]:
            point = json.dumps(spectrum.point_to_json(random_point(rng, kind)))
            argvs.append(["spectrum", "--point", point, "--contains", str(rng.randrange(30)), str(rng.randrange(1, 13))])
        point = json.dumps(spectrum.point_to_json(random_point(rng, "A-finite")))
        argvs.append(["spectrum", "--point", point, "--bound", "10"])
        argvs.append(["bc", "--mode", "euler", "--truncation", str(rng.randrange(500, 1500)), "--primes", "3,5,7,11"])
        argvs.append(["bc", "--mode", "invariance", "--kmax", str(rng.randrange(20, 40))])
        argvs.append(["bc", "--mode", "reconstruct", "--beta", rng.choice(["2", "3"]), "--k", str(rng.choice([2, 3, 6])), "--primes", "2,3"])
        for argv in argvs:
            self.add("cli", lambda a=argv: run_cli(a), cli_ok)


WORKLOADS = {cls.name: cls for cls in (RewriteDeep, GridSweep, OracleSweep)}
