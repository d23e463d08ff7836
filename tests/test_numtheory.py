import math
import random
import tracemalloc
from itertools import islice
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz.numtheory import (
    NABLA,
    ResidueClass,
    SupernaturalNumber,
    crt_combine,
    crt_split,
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


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_primes_against_brute_force():
    brute = [n for n in range(500) if brute_is_prime(n)]
    assert [n for n in range(500) if is_prime(n)] == brute


def test_first_primes():
    primes = [n for n in range(1001) if brute_is_prime(n)]
    for k in range(0, len(primes) + 1):
        assert first_primes(k) == primes[:k]
    assert first_primes(-3) == []


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
    for n in range(1, 2000):
        fac = factorize(n)
        assert _product(fac) == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        assert all(brute_is_prime(p) and e >= 1 for p, e in fac)
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
    def test_residue_validation(self):
        with pytest.raises(ValueError):
            ResidueClass(3, 3)
        with pytest.raises(ValueError):
            ResidueClass(0, 0)

    def test_crt_split_values(self):
        parts = crt_split(ResidueClass(12, 7))
        assert [(t.value, t.modulus) for t in parts] == [(3, 4), (1, 3)]
        assert crt_combine(parts) == ResidueClass(12, 7)
        # exhaustive oracle over 0..11 for the [1 mod 4, 1 mod 3] data
        matches = [v for v in range(12) if v % 4 == 1 and v % 3 == 1]
        assert matches == [1]
        assert crt_combine([ResidueClass(4, 1), ResidueClass(3, 1)]).value == 1

    def test_crt_zero(self):
        parts = crt_split(ResidueClass(360, 0))
        assert all(t.value == 0 for t in parts)
        assert crt_split(ResidueClass(1, 0)) == []
        assert crt_combine([]) == ResidueClass(1, 0)

    def test_crt_round_trip_all_moduli_to_1e4(self):
        rng = random.Random(1)
        for n in range(1, 10_001):
            for v in {0, n - 1, rng.randrange(n)}:
                r = ResidueClass(n, v)
                assert crt_combine(crt_split(r)) == r

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**8).flatmap(lambda n: st.builds(ResidueClass, st.just(n), st.integers(0, n - 1))))
    def test_crt_round_trip_property(self, r):
        parts = crt_split(r)
        assert math.prod(t.modulus for t in parts) == r.modulus
        assert all(t.value == r.value % t.modulus for t in parts)
        assert crt_combine(parts) == r

    def test_crt_combine_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine([ResidueClass(4, 1), ResidueClass(6, 1)])
        # a shared factor between non-neighbours, and a repeated modulus
        for moduli in ((3, 5, 9), (7, 7)):
            with pytest.raises(ValueError):
                crt_combine([ResidueClass(m, 0) for m in moduli])


class TestPowers:
    def test_float_power_matches_pow(self):
        for n in (1, 2, 3, 10**6, 2**60):
            for exponent in (-3.5, -1.0, 0.0, 2.0):
                assert float_power(n, exponent) == float(n) ** exponent

    def test_float_power_conventions(self):
        assert float_power(1, -inf) == 1.0
        assert float_power(2, -inf) == 0.0
        with pytest.raises(OverflowError):
            float_power(6, 1000.0)

    def test_float_power_beyond_doubles(self):
        big = 2**1100
        assert float_power(big, -2.0) == 0.0
        assert float_power(big, -inf) == 0.0
        assert float_power(big, 0.0) == 1.0
        assert math.isclose(float_power(big, -0.5), 2.0**-550)
        with pytest.raises(OverflowError):
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
            zeta_e(0, [2])

    def test_zeta_infinite_temperature_convention(self):
        from math import inf

        assert zeta(inf) == 1.0
        assert zeta_e(inf, [2, 3]) == 1.0

    def test_zeta_truncation_agreement(self):
        # the series stays within its 1e-12 truncation bound of known values
        known = {1.5: 2.612375348685488, 2.0: math.pi**2 / 6, 3.0: 1.2020569031595942}
        for s, value in known.items():
            assert abs(zeta(s) - value) < 1e-12

    def test_zeta_e_examples(self):
        assert zeta_e(1, [2]) == 2.0
        assert abs(zeta_e(2, [2, 3]) - 1.5) < 1e-15

    def test_zeta_e_monotone_and_below_zeta(self):
        primes = first_primes(40)
        prev = 0.0
        for k in range(1, 41):
            val = zeta_e(2, primes[:k])
            assert val >= prev
            prev = val
        assert prev < zeta(2)

    def test_zeta_e_divergence_at_one(self):
        # the partial Euler products at s = 1 grow without bound: the first
        # 40 primes give 9.32, and 10 is passed by the 60th prime
        val40 = zeta_e(1, first_primes(40))
        assert 9.3 < val40 < 9.35
        assert zeta_e(1, first_primes(60)) > 10
