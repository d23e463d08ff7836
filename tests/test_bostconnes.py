import cmath
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from affinetoeplitz.bostconnes import (
    _RECONSTRUCT_TERMS,
    DirichletCharacter,
    bc_reconstruct_check,
    char_euler_sum,
    character_from_json,
    invariance_ratio,
)
from affinetoeplitz.numtheory import PrimeWindow, first_primes, float_power, iter_smooth, zeta_e

CHI4 = DirichletCharacter.quadratic_mod4()


def multiplicative_all_pairs(m, table):
    """The multiplicativity oracle: chi(1) = 1 and chi(uv) = chi(u) chi(v) over all pairs of
    units, on the angles scaled to integers over their common denominator."""
    den = math.lcm(*(Fraction(t).denominator for t in table.values()))
    num = {u: Fraction(t).numerator * (den // Fraction(t).denominator) for u, t in table.items()}
    if num[1 % m or m] % den != 0:
        return False
    return all((num[(u * v) % m or m] - num[u] - num[v]) % den == 0 for u in num for v in num)


def multiplicative_along(m, units, h, rng):
    """A table with chi(u h) = chi(u) chi(h) for every unit u, random on the other cosets of <h>:
    multiplicative when h generates the units, and otherwise only by chance."""
    order = next(k for k in range(1, m + 1) if pow(h, k, m) == 1 % m)
    step = Fraction(rng.randrange(order), order)
    table = {}
    for u in units:  # 1 comes first, so chi(h^j) = j * step
        base = Fraction(0) if u == 1 else Fraction(rng.randrange(12), 12)
        j, w = 0, u
        while w not in table:
            table[w] = (base + j * step) % 1
            j, w = j + 1, (w * h) % m or m
    return table


def character_blocks(m, units):
    """(order, angle table) of characters mod m pulled back from moduli q | m with known
    structure: a primitive root's discrete log mod each odd prime q, and the two
    characters mod 4 and mod 8 when those divide m."""
    blocks = []
    for q in (p for p in range(3, m + 1, 2) if m % p == 0 and all(p % d for d in range(2, p))):
        root = next(r for r in range(2, q) if len({pow(r, j, q) for j in range(q - 1)}) == q - 1)
        log = {pow(root, j, q): j for j in range(q - 1)}
        blocks.append((q - 1, {u: Fraction(log[u % q], q - 1) for u in units}))
    if m % 4 == 0:
        blocks.append((2, {u: Fraction(u % 4 == 3, 2) for u in units}))
    if m % 8 == 0:
        blocks.append((2, {u: Fraction(u % 8 in (3, 5), 2) for u in units}))
    return blocks


class TestCharacter:
    def test_values(self):
        assert abs(CHI4(3) + 1) < 1e-15
        assert CHI4(1) == 1
        assert abs(CHI4(9) - 1) < 1e-15

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DirichletCharacter.from_angles(4, {1: 0})  # missing unit
        with pytest.raises(ValueError):
            DirichletCharacter.from_angles(4, {1: Fraction(1, 2), 3: 0})  # chi(1) != 1
        with pytest.raises(ValueError):
            DirichletCharacter.from_angles(5, {1: 0, 2: Fraction(1, 3), 3: 0, 4: 0})

    def test_mod5_character(self):
        # order-4 character mod 5 generated by chi(2) = i
        chi = DirichletCharacter.from_angles(
            5, {1: 0, 2: Fraction(1, 4), 3: Fraction(3, 4), 4: Fraction(1, 2)}
        )
        assert abs(chi(2) - 1j) < 1e-15
        assert abs(chi(4) + 1) < 1e-15
        assert any(abs(chi(u) - 1) > 0.5 for u in range(1, 5))  # nontrivial
        assert DirichletCharacter.from_generator(5, 2, Fraction(1, 4)) == chi
        assert DirichletCharacter.from_generator(4, 3, Fraction(1, 2)) == CHI4
        with pytest.raises(ValueError):
            DirichletCharacter.from_generator(5, 4, Fraction(1, 2))  # 4 has order 2
        for modulus, generator in ((4, 2), (10, 5), (9, 0)):
            with pytest.raises(ValueError, match="does not generate"):
                DirichletCharacter.from_generator(modulus, generator, 0)  # not a unit

    def test_short_table_refused_before_the_units_are_listed(self):
        # a complete table has phi(m) >= sqrt(m/2) entries ...
        assert all(2 * sum(math.gcd(u, m) == 1 for u in range(1, m + 1)) ** 2 >= m for m in range(1, 400))
        # ... so a shorter one is refused without listing the units mod m (about 180 MB at 10^7)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cover exactly the units"):
                DirichletCharacter(10**7, ((1, Fraction(0)),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_table_refused_in_time_bounded_by_its_size(self):
        # 1000 units pass the size guard at 2 * 10^6, but phi(2 * 10^6) = 800000:
        # the count is read off the factorization, not off a list of the units
        modulus = 2 * 10**6
        values = tuple((u, Fraction(0)) for u in range(1, 5000, 2) if u % 5)[:1000]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cover exactly the units"):
                DirichletCharacter(modulus, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_multiplicative_random(self):
        rng = random.Random(3)
        admissible = [n for n in range(1, 4000) if n % 2 == 1]
        for _ in range(1000):
            a, b = rng.choice(admissible), rng.choice(admissible)
            lhs = CHI4(a * b)
            rhs = CHI4(a) * CHI4(b)
            assert abs(lhs - rhs) < 1e-14

    def test_generator_check_agrees_with_all_pairs(self):
        rng = random.Random(60)
        verdicts = []
        for m in range(1, 61):
            units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
            blocks = character_blocks(m, units)
            exponents = [rng.randrange(order) for order, _ in blocks]
            valid = {u: sum((k * table[u] for k, (_, table) in zip(exponents, blocks)), Fraction(0)) % 1 for u in units}
            tables = [valid, {u: Fraction(rng.randrange(2), 2) for u in units}]
            tables += [multiplicative_along(m, units, h, rng) for h in units]
            if len(units) > 1:
                tables.append({**valid, rng.choice(units[1:]): Fraction(rng.randrange(1, 6), 6)})
            for table in tables:
                want = multiplicative_all_pairs(m, table)
                try:
                    DirichletCharacter.from_angles(m, table)
                    got = True
                except ValueError as exc:
                    assert "multiplicative" in str(exc) or "chi(1)" in str(exc)
                    got = False
                assert got == want, (m, table)
                verdicts.append(got)
        assert verdicts.count(True) > 60 and verdicts.count(False) > 60

    def test_large_trivial_character_is_fast(self):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            chi = DirichletCharacter.trivial(2003)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1
        assert chi.angle(2003 * 5 + 7) == 0
        with pytest.raises(ValueError, match="not a unit"):
            chi.angle(2003)

    def test_json_documents(self):
        chi4 = {"modulus": 4, "values": {"1": 0, "3": "1/2"}}
        for obj, chi in ((chi4, CHI4), ({"modulus": 6, "values": {"1": 0, "5": 0}}, DirichletCharacter.trivial(6))):
            assert character_from_json(obj) == chi, obj
        for modulus in (4.5, None, [4]):
            with pytest.raises(ValueError):
                character_from_json({**chi4, "modulus": modulus})


LOG2_MOD5 = {1: 0, 2: 1, 4: 2, 3: 3}
# one character of each unit-group shape in use, and a non-cyclic one: (Z/15)* = Z/2 x Z/4,
# the quadratic character mod 3 times the order-4 character mod 5
PHASE_CHARACTERS = [
    CHI4,
    DirichletCharacter.from_generator(5, 2, Fraction(1, 4)),
    DirichletCharacter.from_generator(7, 3, Fraction(1, 3)),
    DirichletCharacter.trivial(2003),
    DirichletCharacter.from_angles(
        15, {u: (Fraction(u % 3 == 2, 2) + Fraction(LOG2_MOD5[u % 5], 4)) % 1 for u in (1, 2, 4, 7, 8, 11, 13, 14)}
    ),
]


class PerCallPhases:
    """A character whose phase is computed afresh on every call, the formula before the phase table."""

    def __init__(self, chi):
        self.chi, self.modulus = chi, chi.modulus

    def __call__(self, u):
        return cmath.exp(2j * math.pi * float(self.chi.angle(u)))

    # char_euler_sum reads its phases off the table by residue; here each lookup computes one afresh
    __getitem__ = __call__

    @property
    def _phases(self):
        return self


def reconstruct_per_n(primes, beta, k):
    """bc_reconstruct_check with the compression recomputed for every smooth n: (defect, tail_bound)."""
    window = PrimeWindow.of(primes)
    zeta_window = zeta_e(beta, window)
    subsets = [[]]
    for p in window.primes:
        subsets += [s + [p] for s in subsets]

    def q_compressed(kp):
        total = 0.0
        for s in subsets:
            ns = math.prod(s)
            total += (-1.0) ** len(s) * float_power(ns * kp // math.gcd(ns, kp), -beta)
        return total * zeta_window

    terms, weights = [], []
    for count, n in enumerate(iter_smooth(window.primes)):
        weight = float_power(n, -beta)
        if count >= _RECONSTRUCT_TERMS or weight < 1e-18:
            break
        terms.append(weight / zeta_window * q_compressed(k // math.gcd(k, n)))
        weights.append(weight)
    tail = max((zeta_window - math.fsum(weights)) / zeta_window, 0.0)
    return abs(float_power(k, -beta) - math.fsum(terms)), tail


class TestPhaseTable:
    @pytest.mark.parametrize("chi", PHASE_CHARACTERS, ids=lambda chi: f"mod{chi.modulus}")
    def test_phases_are_the_per_call_formula_bit_for_bit(self, chi):
        m = chi.modulus
        for u, _ in chi.values:
            for v in (u, u + m, u + 7 * m, u - 3 * m, u + 10**30 * m, -u):
                assert chi(v) == cmath.exp(2j * math.pi * float(chi.angle(v))), (m, v)

    @pytest.mark.parametrize("chi", PHASE_CHARACTERS, ids=lambda chi: f"mod{chi.modulus}")
    def test_non_units_refused_with_the_same_message(self, chi):
        m = chi.modulus
        prime = next(p for p in range(2, m + 1) if m % p == 0)
        for v, residue in ((0, m), (m, m), (-m, m), (prime, prime), (5 * m + prime, prime)):
            message = f"^{residue} is not a unit mod {m}$"
            with pytest.raises(ValueError, match=message):
                chi(v)
            with pytest.raises(ValueError, match=message):
                chi.angle(v)

    def test_equality_hash_and_repr_read_the_table_only(self):
        mod5 = DirichletCharacter.from_angles(5, {1: 0, 2: "1/4", 4: "1/2", 3: "3/4"})
        assert mod5 == PHASE_CHARACTERS[1] and hash(mod5) == hash(PHASE_CHARACTERS[1])
        assert hash(mod5) == hash((5, mod5.values))
        assert repr(mod5) == f"DirichletCharacter(modulus=5, values={mod5.values!r})"
        assert len(set(PHASE_CHARACTERS + [mod5, DirichletCharacter.quadratic_mod4()])) == len(PHASE_CHARACTERS)
        assert DirichletCharacter.trivial(4) != CHI4

    def test_checks_equal_the_per_call_reference(self):
        # criterion 13's inputs, and the other characters on shorter sums
        assert char_euler_sum(CHI4, [3, 5, 7, 11, 13], 1.0, 10**5) == char_euler_sum(
            PerCallPhases(CHI4), [3, 5, 7, 11, 13], 1.0, 10**5
        )
        assert invariance_ratio(CHI4, 1.0, 40) == invariance_ratio(PerCallPhases(CHI4), 1.0, 40)
        for chi in PHASE_CHARACTERS[1:]:
            primes = [p for p in first_primes(8) if chi.modulus % p][:5]
            assert char_euler_sum(chi, primes, 0.5, 2000) == char_euler_sum(PerCallPhases(chi), primes, 0.5, 2000)
            assert invariance_ratio(chi, 0.75, 30) == invariance_ratio(PerCallPhases(chi), 0.75, 30)
        for primes, ks in (([2], (1, 2, 3, 4, 8)), ([2, 3], (6, 12)), ([2, 3, 5], (30,))):
            for beta in (2.0, 3.0):
                for k in ks:
                    pair = bc_reconstruct_check(primes, beta, k)
                    # these windows stop at the 1e-18 weight cutoff before the term cap: only rounding is left
                    assert pair == reconstruct_per_n(primes, beta, k) and pair[1] < 1e-15, (primes, k)


class TestEulerSum:
    def test_single_factor(self):
        res = char_euler_sum(CHI4, [3], 1.0, 500)
        assert abs(res.product - 0.75) < 1e-15

    def test_trivial_reduces_to_partial_zeta(self):
        triv = DirichletCharacter.trivial(4)
        res = char_euler_sum(triv, [3, 5], 2.0, 4000)
        assert abs(res.product - zeta_e(2, PrimeWindow.of([3, 5]))) < 1e-12
        assert abs(res.series - res.product) <= res.tail_bound + 1e-12

    def test_three_prime_example(self):
        res = char_euler_sum(CHI4, [3, 5, 7], 1.0, 10**4)
        assert abs(res.series - res.product) < 1e-6

    def test_agreement_within_tail(self):
        for beta in (0.5, 1.0, 2.0):
            res = char_euler_sum(CHI4, [3, 5, 7, 11, 13], beta, 10**5)
            assert abs(res.series - res.product) <= res.tail_bound + 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            char_euler_sum(CHI4, [2, 3], 1.0, 100)
        with pytest.raises(ValueError):
            char_euler_sum(CHI4, [3], 0.0, 100)


class TestInvarianceRatio:
    def test_trivial_character_is_flat(self):
        triv = DirichletCharacter.trivial(4)
        assert all(abs(r - 1) < 1e-12 for r in invariance_ratio(triv, 1.0, 25))

    def test_nontrivial_decays(self):
        ratios = invariance_ratio(CHI4, 1.0, 40)
        assert ratios[39] < 0.2
        assert ratios[39] < ratios[4]
        # frozen value of the K = 40 ratio, computed from the partial products
        assert ratios[39] == pytest.approx(0.16818996, abs=1e-6)

    def test_decreasing_at_half(self):
        ratios = invariance_ratio(CHI4, 0.5, 40)
        assert all(ratios[i + 1] <= ratios[i] + 1e-15 for i in range(10, 39))

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            invariance_ratio(CHI4, 1.5, 10)

    def test_rejects_empty_window(self):
        for k_max in (0, -1):
            with pytest.raises(ValueError):
                invariance_ratio(CHI4, 1.0, k_max)

    def test_support_prime_beyond_the_window(self):
        # modulus 2 * 97: 2 is among the first primes, 97 is not, and exactly k_max ratios come back
        units = {u: 0 for u in range(1, 194) if u % 2 and u % 97}
        chi = DirichletCharacter.from_angles(194, units)
        assert len(invariance_ratio(chi, 1.0, 5)) == 5

    def test_partial_zeta_growth(self):
        # the denominator driving the decay: past 4 by the 40th prime
        assert zeta_e(1, PrimeWindow.of(first_primes(40))) > 4


class TestReconstruction:
    def test_identity_element(self):
        assert bc_reconstruct_check([2], 2.0, 1)[0] < 1e-12

    def test_single_prime_powers(self):
        for k in (2, 4, 8):
            assert bc_reconstruct_check([2], 2.0, k)[0] < 1e-12

    def test_coprime_passthrough(self):
        # conjugation by window-supported isometries commutes past mu_3
        assert bc_reconstruct_check([2], 2.0, 3)[0] < 1e-12

    def test_mixed_windows(self):
        for primes, k in (([2, 3], 12), ([2, 3, 5], 30), ([2, 3], 7)):
            for beta in (1.5, 2.5):
                assert bc_reconstruct_check(primes, beta, k)[0] < 1e-9

    def test_capped_windows_stay_within_the_tail_bound(self):
        # each window reaches _RECONSTRUCT_TERMS terms before the 1e-18 weight cutoff
        for primes, beta, k in (
            ([2, 3, 5, 7, 11, 13], 1.01, 2),
            ([2, 3, 5, 7, 11, 13], 1.5, 2),
            ([2, 3, 5, 7, 11], 1.2, 2),
            (first_primes(10), 1.05, 30),
        ):
            defect, tail_bound = bc_reconstruct_check(primes, beta, k)
            assert defect <= tail_bound and tail_bound > 1e-15, (primes, beta, defect, tail_bound)

    def test_rejects_low_beta(self):
        with pytest.raises(ValueError):
            bc_reconstruct_check([2], 1.0, 2)


def test_smooth_enumeration_is_sorted_and_complete():
    want = sorted(n for n in range(1, 101) if all(p in (3, 5) for p in _factors(n)))
    assert list(islice(iter_smooth([3, 5]), len(want))) == want


def _factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (DirichletCharacter, (0, ()), "modulus must be positive"),
        (bc_reconstruct_check, ([2], 2.0, 0), "k must be >= 1"),
    ],
)
def test_error_branches(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
