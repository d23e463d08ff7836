import heapq
import math
import random
import tracemalloc
from collections import Counter
from itertools import islice
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz import numtheory
from affinetoeplitz.numtheory import (
    NABLA,
    _strong_lucas_probable_prime,
    PrimeWindow,
    SupernaturalNumber,
    divisors,
    factorize,
    first_primes,
    float_power,
    int_divides_sn,
    is_prime,
    iter_smooth,
    json_number,
    sn_divides,
    zeta,
    zeta_e,
)
from affinetoeplitz.spectrum import BPoint, ResidueFamily, decompose, recompose


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_primes_against_brute_force():
    brute = [n for n in range(500) if brute_is_prime(n)]
    assert [n for n in range(500) if is_prime(n)] == brute


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def twelve_base_miller_rabin(n, k=12):
    """The strong test to the first k of the twelve prime bases up to 37 at every
    size: with all twelve, exact below PSI_12."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:k]:
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


class TestIsPrime:
    def test_matches_sieve_below_1e6(self):
        limit = 10**6
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, math.isqrt(limit - 1) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def test_matches_miller_rabin_on_64_bit(self):
        rng = random.Random(64)
        for _ in range(1000):
            n = rng.getrandbits(64)
            assert is_prime(n) == twelve_base_miller_rabin(n)
            n |= 1
            while not twelve_base_miller_rabin(n):  # and the next prime above it
                n += 2
            assert is_prime(n)

    def test_base_prefixes_at_their_thresholds(self):
        # psi_k: the least strong pseudoprime to the first k prime bases (OEIS A014233)
        psi = [
            2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
            341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051, PSI_12,
        ]
        for k, bound in enumerate(psi, 1):
            assert twelve_base_miller_rabin(bound, k) and not is_prime(bound)
            for n in range(bound - 2, bound + 3):
                if n != PSI_12:
                    assert is_prime(n) == twelve_base_miller_rabin(n), n

    def test_psi_12_and_psi_13_are_composite(self):
        # both pass the strong test to every base up to 37; the Lucas half refuses them
        assert twelve_base_miller_rabin(PSI_12) and twelve_base_miller_rabin(PSI_13)
        assert PSI_12 == 399165290221 * 798330580441 and is_prime(399165290221) and is_prime(798330580441)
        assert not is_prime(PSI_12)
        assert not is_prime(PSI_13)

    def test_large_primes_and_composites(self):
        for k in (89, 107, 127, 521, 607):  # Mersenne primes
            assert is_prime(2**k - 1)
        for k in (83, 97, 101, 103, 109, 113):  # composite Mersenne numbers
            assert not is_prime(2**k - 1)
        assert not is_prime((2**89 - 1) ** 2)
        assert not is_prime((2**61 - 1) * (2**89 - 1))

    def test_matches_miller_rabin_past_psi_12(self):
        # no composite is known to pass both halves of Baillie-PSW, and a random one
        # passes the twelve strong tests with negligible probability
        rng = random.Random(100)
        for _ in range(400):
            n = rng.getrandbits(100) | 1 << 99
            assert is_prime(n) == twelve_base_miller_rabin(n)
        window = range(10**30, 10**30 + 2000)
        assert [n for n in window if is_prime(n)] == [n for n in window if twelve_base_miller_rabin(n)]

    def test_strong_lucas_pseudoprimes(self):
        # the odd composites below 10^5 that pass the strong Lucas test with
        # Selfridge's parameters (OEIS A217255); every prime passes it
        pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        passing = [n for n in range(15, 10**5, 2) if _strong_lucas_probable_prime(n)]
        assert passing == sorted([n for n in range(15, 10**5, 2) if is_prime(n)] + pseudoprimes)


def test_first_primes():
    primes = [n for n in range(1001) if brute_is_prime(n)]
    for k in range(0, len(primes) + 1):
        assert first_primes(k) == primes[:k]
    assert first_primes(-3) == []


def trial_division(n):
    """Factor n >= 1 by trial division by 2, 3 and every 6k +- 1 up to the square
    root of what is left: the factorizer's oracle, exact at every size but
    O(sqrt n)."""
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_of_product(*factors):
    """The oracle's factorization of a product, merged from the factors' own, so
    that a product too large for trial division is still checked by it."""
    exponents = Counter()
    for factor in factors:
        exponents.update(dict(trial_division(factor)))
    return tuple(sorted(exponents.items()))


def prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


class TestFactorize:
    def test_across_the_trial_bound(self):
        # prime powers and products around the 1000 of the trial primes and the
        # 10^6 below which a cofactor is prime without a test
        for factors in ([1009, 1009], [1009] * 3, [997, 1009], [10**6 + 3] * 2, [10**9 + 7] * 2, [1009, 1009, 1013]):
            assert factorize(math.prod(factors)) == oracle_of_product(*factors), factors

    def test_balanced_semiprimes(self):
        assert factorize(PSI_12) == oracle_of_product(399165290221, 798330580441)
        assert factorize(PSI_13) == oracle_of_product(1287836182261, 2575672364521)
        assert PSI_13 == 1287836182261 * 2575672364521
        # a least prime factor near 10^12 splits within the rho step budget
        assert factorize(1000000000039 * 10000000000037) == oracle_of_product(1000000000039, 10000000000037)

    def test_rho_step_budget(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_RHO_STEPS", 1 << 12)
        n = 1000000000039 * 10000000000037
        with pytest.raises(ValueError, match=f"no factor of a {n.bit_length()}-bit cofactor within 4096 rho steps"):
            factorize(n)
        # small factors never reach rho, and a cofactor that splits within the budget still does
        assert factorize(2**10 * 1009 * 1013) == ((2, 10), (1009, 1), (1013, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(2, 10**8).map(prime_at_most), max_size=3),
        st.one_of(st.none(), st.integers(2, 10**8).map(prime_at_most), st.integers(2, 10**12).map(prime_at_most)),
    )
    def test_round_trip_on_products_of_primes(self, primes, last):
        # at most one factor above 10^8: rho costs about sqrt of the second largest prime
        primes = primes + [last] * (last is not None)
        assert factorize(math.prod(primes)) == tuple(sorted(Counter(primes).items()))


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    # oracle: trial division from scratch plus primality of every factor
    assert dict(factorize(97)) == {97: 1}
    assert brute_is_prime(97)


def _product(pairs):
    out = 1
    for p, e in pairs:
        out *= p**e
    return out


def test_factorize_round_trip_and_errors():
    for n in range(1, 10**5):
        assert factorize(n) == trial_division(n), n
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-3)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# integers up to 10^12: uniform ones (mostly with a large prime factor) and
# products of small prime powers times a small cofactor (mostly smooth)
big_ints = st.one_of(
    st.integers(1, 10**12),
    st.builds(
        lambda exps, c: _product(zip(SMALL_PRIMES, exps)) * c,
        st.lists(st.integers(0, 6), min_size=len(SMALL_PRIMES), max_size=len(SMALL_PRIMES)),
        st.sampled_from([1, 1, 1, 17, 19, 10**6 + 3]),
    ),
)

supernaturals = st.builds(
    SupernaturalNumber.from_exponents,
    st.dictionaries(st.sampled_from(SMALL_PRIMES), st.sampled_from([0, 1, 2, 3, 5, inf])),
    st.sampled_from([0, inf]),
)


@settings(max_examples=300, deadline=None)
@given(big_ints)
def test_factorize_property(n):
    fac = factorize(n)
    primes = [p for p, _ in fac]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in fac)
    assert _product(fac) == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in range(1, 300):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_smooth_numbers():
    assert list(islice(iter_smooth([2, 3]), 10)) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    first = list(islice(iter_smooth([2]), 5))
    assert first == [1, 2, 4, 8, 16]
    assert list(islice(iter_smooth([2]), 0)) == []


def smooth_by_seen_set(primes):
    """Smooth numbers by a heap and a set of every value pushed: the reference."""
    heap, seen = [1], {1}
    while heap:
        n = heapq.heappop(heap)
        yield n
        for p in sorted(set(primes)):
            if n * p not in seen:
                seen.add(n * p)
                heapq.heappush(heap, n * p)


@pytest.mark.parametrize("primes", [[2], [3, 2], [2, 3, 5], [5, 7, 7, 11], first_primes(6), first_primes(13)[1:], [1000003, 2]])
def test_smooth_numbers_against_seen_set(primes):
    assert list(islice(iter_smooth(primes), 3000)) == list(islice(smooth_by_seen_set(primes), 3000))


def test_smooth_numbers_keep_no_seen_set():
    # 2 * 10^4 terms over the 12 odd primes to 41 peak at about 2.3 MB; a set of
    # every value pushed took 4.9 MB
    tracemalloc.start()
    try:
        last = sum(1 for _ in islice(iter_smooth(first_primes(13)[1:]), 2 * 10**4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == 2 * 10**4
    assert peak < 3.5 * 2**20


@pytest.mark.parametrize("primes, bad", [([2, 4], 4), ([1, 3], 1), ([6], 6)])
def test_smooth_numbers_refuse_non_primes(primes, bad):
    # a composite generator would make some n twice, 8 = 2 * 4 = 4 * 2
    with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
        iter_smooth(primes)


class TestSupernatural:
    def test_divides_examples(self):
        two_inf = SupernaturalNumber.from_exponents({2: inf})
        assert sn_divides(two_inf, NABLA)
        twelve = SupernaturalNumber.from_int(12)
        mixed = SupernaturalNumber.from_exponents({2: 2, 3: inf})
        assert sn_divides(twelve, mixed)
        assert not sn_divides(mixed, twelve)

    @settings(max_examples=300, deadline=None)
    @given(supernaturals, supernaturals)
    def test_divides_matches_exponents(self, m, n):
        # reference: compare every exponent up to 17, one prime past the listed ones
        assert sn_divides(m, n) == all(m.exponent(p) <= n.exponent(p) for p in first_primes(7))

    def test_json_rejects_inexact_exponents(self):
        for bad in (1.5, "1.5", None, [2], True):
            with pytest.raises(ValueError):
                SupernaturalNumber.from_json({"factors": {"2": bad}})
        for default in (5, None, "nabla"):
            with pytest.raises(ValueError):
                SupernaturalNumber.from_json({"factors": {}, "default": default})

    def test_finite_round_trip(self):
        for n in (1, 2, 360, 97):
            sn = SupernaturalNumber.from_int(n)
            assert sn.is_finite and sn.to_int() == n
        assert not NABLA.is_finite

    @settings(max_examples=300, deadline=None)
    @given(big_ints, supernaturals)
    def test_int_divides_matches_factorization(self, a, n):
        # reference: the definition by factorization
        assert int_divides_sn(a, n) == all(e <= n.exponent(p) for p, e in factorize(a))

    def test_int_divides_huge_exponent_costs_nothing(self):
        # membership must not build 2^(e+1); with e = 10^8 that integer alone is 12.5 MB
        n = SupernaturalNumber.from_exponents({2: 10**8, 3: 1})
        tracemalloc.start()
        try:
            verdicts = [int_divides_sn(a, n) for a in (1, 2**40 * 3, 9, 5)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdicts == [True, True, False, False]
        assert peak < 1 << 20

    def test_int_divides_rejects_nonpositive(self):
        for a in (0, -4):
            with pytest.raises(ValueError):
                int_divides_sn(a, NABLA)

    def test_int_divides(self):
        n = SupernaturalNumber.from_exponents({2: 2, 3: inf})
        assert int_divides_sn(12, n)
        assert int_divides_sn(36, n)
        assert not int_divides_sn(8, n)
        assert not int_divides_sn(5, n)
        assert all(int_divides_sn(a, NABLA) for a in range(1, 50))

    def test_canonical_form_rejected(self):
        with pytest.raises(ValueError):
            SupernaturalNumber(((2, 0),), 0)

    def test_json_round_trip(self):
        for sn in (NABLA, SupernaturalNumber.from_int(12), SupernaturalNumber.from_exponents({2: inf, 7: 3})):
            assert SupernaturalNumber.from_json(sn.to_json()) == sn


class TestResidues:
    """Chinese remainder split and recombination of finite residue classes."""

    @staticmethod
    def point(value, modulus):
        return BPoint(ResidueFamily.from_residue(value, modulus), SupernaturalNumber.from_int(modulus))

    def test_crt_split_values(self):
        parts = decompose(self.point(7, 12))
        assert sorted((t.value, t.level) for t in parts.values()) == [(1, 3), (3, 4)]
        assert recompose(parts) == self.point(7, 12)
        # exhaustive oracle over 0..11 for the [1 mod 4, 1 mod 3] data
        matches = [v for v in range(12) if v % 4 == 1 and v % 3 == 1]
        assert matches == [1]
        assert recompose({2: ResidueFamily(1, 4), 3: ResidueFamily(1, 3)}).r.at(12) == 1

    def test_crt_zero(self):
        parts = decompose(self.point(0, 360))
        assert all(t.value == 0 for t in parts.values())
        assert decompose(self.point(0, 1)) == {}
        assert recompose({}) == self.point(0, 1)


class TestPrimeWindow:
    def test_of_sorts_and_deduplicates(self):
        assert PrimeWindow.of([5, 2, 5, 3]).primes == (2, 3, 5)
        assert PrimeWindow.of(iter([7])).primes == (7,)

    def test_refusals(self):
        for primes, message in (([], "nonempty"), ([2, 9], "9 is not prime"), ([1], "1 is not prime"), ([-2], "-2")):
            with pytest.raises(ValueError, match=message):
                PrimeWindow.of(primes)
        for primes in ((3, 2), (2, 2)):
            with pytest.raises(ValueError, match="distinct and sorted"):
                PrimeWindow(primes)


class TestPowers:
    def test_float_power_matches_pow(self):
        for n in (1, 2, 3, 10**6, 2**60):
            for exponent in (-3.5, -1.0, 0.0, 2.0):
                assert float_power(n, exponent) == float(n) ** exponent

    def test_float_power_conventions(self):
        assert float_power(1, -inf) == 1.0
        assert float_power(2, -inf) == 0.0
        with pytest.raises(OverflowError, match=r"^6\*\*1000\.0 is past the largest double$"):
            float_power(6, 1000.0)

    def test_float_power_beyond_doubles(self):
        big = 2**1100
        assert float_power(big, -2.0) == 0.0
        assert float_power(big, -inf) == 0.0
        assert float_power(big, 0.0) == 1.0
        assert math.isclose(float_power(big, -0.5), 2.0**-550)
        with pytest.raises(OverflowError, match=r"^\(a 1101-bit integer\)\*\*1\.0 is past"):
            float_power(big, 1.0)

    def test_json_number(self):
        assert json_number(3) == 3 and json_number(2.0) == 2 and json_number("7") == 7
        assert json_number(2, float) == 2.0 and json_number("inf", float) == inf
        for bad in (0.5, "0.5", None, [1], {}, True, "x"):
            with pytest.raises(ValueError):
                json_number(bad)
        for bad in (None, [2], False, "x", math.nan):
            with pytest.raises(ValueError):
                json_number(bad, float)


class TestZeta:
    def test_zeta_two(self):
        assert abs(zeta(2) - math.pi**2 / 6) < 1e-12

    def test_zeta_rejects_bad_s(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.5)
        with pytest.raises(ValueError):
            zeta_e(0, PrimeWindow.of([2]))

    def test_zeta_infinite_temperature_convention(self):
        from math import inf

        assert zeta(inf) == 1.0
        assert zeta_e(inf, PrimeWindow.of([2, 3])) == 1.0

    def test_zeta_truncation_agreement(self):
        # the series stays within its 1e-12 truncation bound of known values
        known = {1.5: 2.612375348685488, 2.0: math.pi**2 / 6, 3.0: 1.2020569031595942}
        for s, value in known.items():
            assert abs(zeta(s) - value) < 1e-12

    def test_zeta_e_examples(self):
        assert zeta_e(1, PrimeWindow.of([2])) == 2.0
        assert abs(zeta_e(2, PrimeWindow.of([2, 3])) - 1.5) < 1e-15

    def test_zeta_e_monotone_and_below_zeta(self):
        primes = first_primes(40)
        prev = 0.0
        for k in range(1, 41):
            val = zeta_e(2, PrimeWindow.of(primes[:k]))
            assert val >= prev
            prev = val
        assert prev < zeta(2)

    def test_zeta_e_divergence_at_one(self):
        # the partial Euler products at s = 1 grow without bound: the first
        # 40 primes give 9.32, and 10 is passed by the 60th prime
        val40 = zeta_e(1, PrimeWindow.of(first_primes(40)))
        assert 9.3 < val40 < 9.35
        assert zeta_e(1, PrimeWindow.of(first_primes(60))) > 10


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (SupernaturalNumber, (((3, 1), (2, 1)),), "primes must increase"),
        (SupernaturalNumber, (((2, 1.5),),), "exponent at 2 must be a natural number or inf"),
        (NABLA.to_int, (), "supernatural number is infinite"),
    ],
)
def test_error_branches(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
