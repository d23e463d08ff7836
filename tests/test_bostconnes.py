import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from affinetoeplitz.bostconnes import (
    DirichletCharacter,
    bc_reconstruct_check,
    char_euler_sum,
    character_from_json,
    character_to_json,
    invariance_ratio,
)
from affinetoeplitz.numtheory import first_primes, iter_smooth, zeta_e

CHI4 = DirichletCharacter.quadratic_mod4()


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

    def test_multiplicative_random(self):
        rng = random.Random(3)
        admissible = [n for n in range(1, 4000) if n % 2 == 1]
        for _ in range(1000):
            a, b = rng.choice(admissible), rng.choice(admissible)
            lhs = CHI4(a * b)
            rhs = CHI4(a) * CHI4(b)
            assert abs(lhs - rhs) < 1e-14

    def test_json_round_trip(self):
        for chi in (CHI4, DirichletCharacter.trivial(6)):
            assert character_from_json(character_to_json(chi)) == chi
        obj = character_to_json(CHI4)
        assert obj == {"modulus": 4, "values": {"1": 0, "3": "1/2"}}
        for modulus in (4.5, None, [4]):
            with pytest.raises(ValueError):
                character_from_json({**obj, "modulus": modulus})


class TestEulerSum:
    def test_single_factor(self):
        res = char_euler_sum(CHI4, [3], 1.0, 500)
        assert abs(res.product - 0.75) < 1e-15

    def test_trivial_reduces_to_partial_zeta(self):
        triv = DirichletCharacter.trivial(4)
        res = char_euler_sum(triv, [3, 5], 2.0, 4000)
        assert abs(res.product - zeta_e(2, [3, 5])) < 1e-12
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
        assert zeta_e(1, first_primes(40)) > 4


class TestReconstruction:
    def test_identity_element(self):
        assert bc_reconstruct_check([2], 2.0, 1) < 1e-12

    def test_single_prime_powers(self):
        for k in (2, 4, 8):
            assert bc_reconstruct_check([2], 2.0, k) < 1e-12

    def test_coprime_passthrough(self):
        # conjugation by window-supported isometries commutes past mu_3
        assert bc_reconstruct_check([2], 2.0, 3) < 1e-12

    def test_mixed_windows(self):
        for primes, k in (([2, 3], 12), ([2, 3, 5], 30), ([2, 3], 7)):
            for beta in (1.5, 2.5):
                assert bc_reconstruct_check(primes, beta, k) < 1e-9

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
