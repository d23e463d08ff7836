import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinetoeplitz.algebra import ZERO, Monomial, covariance_reduce, monomial_mul
from affinetoeplitz.semigroup import (
    GroupElement,
    Join,
    SemigroupElement,
    euclid_smallest,
    euclid_smallest_direct,
    join,
    joins_within,
    leq,
)


def brute_euclid(c, d, k):
    """Exhaustive-search oracle for the smallest non-negative solution."""
    if k >= 0:
        alpha = 0
        while (alpha * c - k) % d != 0 or alpha * c < k:
            alpha += 1
        return alpha, (alpha * c - k) // d
    beta = 0
    while (beta * d + k) % c != 0 or beta * d < -k:
        beta += 1
    return (k + beta * d) // c, beta


def euclid_join(p, q):
    """The Join assembled from the alternating scheme: join's oracle."""
    (m, a), (n, b) = p, q
    g = gcd(a, b)
    if (m - n) % g:
        return None
    alpha, beta = euclid_smallest(a // g, b // g, (n - m) // g)
    return Join(m + a * alpha, a * b // g, alpha, beta, a // g, b // g)


def brute_join(p, q, slack=3):
    """Smallest element of (m + aN) intersect (n + bN) by direct scan."""
    m, a, n, b = p.m, p.a, q.m, q.a
    top = max(m, n) + slack * a * b + 1
    common = set(range(m, top, a)) & set(range(n, top, b))
    return min(common) if common else None


class TestGroup:
    def test_mul_examples(self):
        e1 = GroupElement(Fraction(1), Fraction(1))
        e2 = GroupElement(Fraction(0), Fraction(2))
        assert e1 * e2 == GroupElement(Fraction(1), Fraction(2))
        assert e2 * e1 == GroupElement(Fraction(2), Fraction(2))

    def test_inverse(self):
        g = GroupElement(Fraction(1), Fraction(2))
        assert g.inverse() == GroupElement(Fraction(-1, 2), Fraction(1, 2))
        assert g * g.inverse() == GroupElement.identity()

    def test_group_axioms_random(self):
        rng = random.Random(3)

        def rand():
            return GroupElement(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)),
                Fraction(rng.randrange(1, 12), rng.randrange(1, 12)),
            )

        for _ in range(200):
            g, h, k = rand(), rand(), rand()
            assert (g * h) * k == g * (h * k)
            assert g * g.inverse() == GroupElement.identity()
            assert g.inverse() * g == GroupElement.identity()

    def test_semigroup_embeds(self):
        x, y = SemigroupElement(1, 2), SemigroupElement(3, 4)
        assert (x * y).to_group() == x.to_group() * y.to_group()


elements = st.builds(SemigroupElement, st.integers(0, 10**30), st.integers(1, 10**30))
multiplicative_at_scale = st.one_of(
    st.tuples(st.integers(1, 10**18), st.integers(1, 10**18)),
    # a shared factor, so that a gcd that does not divide m - n is common
    st.builds(lambda g, u, w: (g * u, g * w), st.integers(1, 10**6), st.integers(1, 10**12), st.integers(1, 10**12)),
)


class TestSemigroupElement:
    def test_constructor_validates(self):
        with pytest.raises(ValueError, match=r"additive part must be >= 0, got -1"):
            SemigroupElement(-1, 2)
        with pytest.raises(ValueError, match=r"multiplicative part must be >= 1, got 0"):
            SemigroupElement(0, 0)

    @given(elements, elements)
    def test_product_formula(self, e, f):
        (m, a), (n, b) = e, f
        product = e * f
        assert type(product) is SemigroupElement
        assert product == (m + a * n, a * b)

    def test_tuple_behaviour(self):
        e = SemigroupElement(2, 3)
        assert repr(e) == "SemigroupElement(m=2, a=3)"
        assert e == (2, 3) and hash(e) == hash((2, 3))
        assert (e.m, e.a) == (2, 3)
        for left in (2, [1], (1, 2)):
            with pytest.raises(TypeError):
                left * e  # tuple repetition must not leak through
        for right in (2, (1, 2), (-5, 0)):
            with pytest.raises(TypeError):
                e * right  # a plain pair would skip validation
        for right in (e, (1, 2), 2):
            with pytest.raises(TypeError, match="SemigroupElement"):
                e + right  # no tuple concatenation either

    def test_join_repr(self):
        j = join(SemigroupElement(0, 2), SemigroupElement(1, 3))
        assert type(j) is Join
        assert repr(j) == "Join(l=4, lcm=6, alpha=2, beta=1, a_prime=2, b_prime=3)"
        assert j._asdict() == {"l": 4, "lcm": 6, "alpha": 2, "beta": 1, "a_prime": 2, "b_prime": 3}
        assert SemigroupElement(j.l, j.lcm) == (4, 6)
        for op in (lambda: j + j, lambda: j * 2, lambda: 2 * j):
            with pytest.raises(TypeError, match="Join"):
                op()


class TestOrder:
    def test_examples(self):
        assert leq(SemigroupElement(0, 2), SemigroupElement(4, 6))
        assert not leq(SemigroupElement(1, 1), SemigroupElement(0, 2))
        g = GroupElement(Fraction(3, 2), Fraction(5, 7))
        assert leq(g, g)

    def test_partial_order_random(self):
        rng = random.Random(11)

        def rand():
            return SemigroupElement(rng.randrange(0, 12), rng.randrange(1, 10))

        for _ in range(1000):
            x, u, v = rand(), rand(), rand()
            assert leq(x, x)
            if leq(u, v) and leq(v, u):
                assert u == v
            # chains y = x*w1, z = y*w2 exercise transitivity
            y = x * rand()
            z = y * rand()
            assert leq(x, y) and leq(y, z) and leq(x, z)


class TestEuclid:
    def test_examples(self):
        assert euclid_smallest(3, 5, 1) == (2, 1)
        assert euclid_smallest(3, 5, 0) == (0, 0)
        assert euclid_smallest(5, 3, -2) == (2, 4)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            euclid_smallest(4, 6, 1)
        with pytest.raises(ValueError):
            euclid_smallest_direct(4, 6, 1)

    def test_against_exhaustive_search(self):
        for c in range(1, 13):
            for d in range(1, 13):
                if gcd(c, d) != 1:
                    continue
                for k in range(-40, 41):
                    expected = brute_euclid(c, d, k)
                    got = euclid_smallest(c, d, k)
                    assert got == expected, (c, d, k)
                    assert got[0] * c - got[1] * d == k
                    assert euclid_smallest_direct(c, d, k) == expected
                    # join holds the modular formula: its complement data, for either sign of k
                    jn = join((0, c), (k, d))
                    assert (jn.alpha, jn.beta) == expected, (c, d, k)


class TestJoin:
    def test_examples(self):
        j = join(SemigroupElement(0, 2), SemigroupElement(1, 3))
        assert (j.l, j.lcm) == (4, 6)
        assert join(SemigroupElement(0, 2), SemigroupElement(1, 2)) is None
        j = join(SemigroupElement(1, 1), SemigroupElement(0, 2))
        assert (j.l, j.lcm) == (2, 2)

    def test_complement_data(self):
        p, q = SemigroupElement(3, 4), SemigroupElement(1, 6)
        j = join(p, q)
        assert j is not None
        lub = SemigroupElement(j.l, j.lcm)
        # p * (alpha, b') = join and q * (beta, a') = join
        assert p * SemigroupElement(j.alpha, j.b_prime) == lub
        assert q * SemigroupElement(j.beta, j.a_prime) == lub

    def test_against_progression_scan(self):
        for m in range(0, 9):
            for n in range(0, 9):
                for a in range(1, 8):
                    for b in range(1, 8):
                        p, q = SemigroupElement(m, a), SemigroupElement(n, b)
                        expected = brute_join(p, q)
                        j = join(p, q)
                        if expected is None:
                            assert j is None
                        else:
                            assert j is not None and j.l == expected
                            assert j.lcm == a * b // gcd(a, b)

    def test_symmetry_idempotence_upper_bound(self):
        rng = random.Random(5)
        for _ in range(400):
            p = SemigroupElement(rng.randrange(0, 12), rng.randrange(1, 9))
            q = SemigroupElement(rng.randrange(0, 12), rng.randrange(1, 9))
            jp = join(p, q)
            jq = join(q, p)
            if jp is None:
                assert jq is None
                continue
            assert (jp.l, jp.lcm) == (jq.l, jq.lcm)
            lub = SemigroupElement(jp.l, jp.lcm)
            assert leq(p, lub) and leq(q, lub)
            ido = join(p, p)
            assert (ido.l, ido.lcm) == (p.m, p.a)

    @given(st.integers(0, 10**6), st.integers(1, 10**4), st.integers(0, 10**6), st.integers(1, 10**4))
    def test_swapped_arguments(self, m, a, n, b):
        # the same least upper bound, with the complement data swapped
        p, q = SemigroupElement(m, a), SemigroupElement(n, b)
        jp, jq = join(p, q), join(q, p)
        if jp is None:
            assert jq is None
        else:
            assert (jq.l, jq.lcm) == (jp.l, jp.lcm)
            assert (jq.alpha, jq.beta, jq.a_prime, jq.b_prime) == (jp.beta, jp.alpha, jp.b_prime, jp.a_prime)

    @given(st.integers(0, 10**6), st.integers(1, 10**4), st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_alternating_scheme(self, m, a, n, b):
        # the modular route against the reference scheme, at most about 10^4 rounds each
        p, q = SemigroupElement(m, a), SemigroupElement(n, b)
        for x, y in ((p, q), (q, p)):
            got = join(x, y)
            assert got == euclid_join(x, y)
            assert got is None or type(got) is Join

    @given(st.integers(0, 10**30), st.integers(0, 10**30), multiplicative_at_scale)
    def test_least_common_value_at_scale(self, m, n, ab):
        a, b = ab
        j = join(SemigroupElement(m, a), SemigroupElement(n, b))
        g = gcd(a, b)
        if (m - n) % g:
            assert j is None
            return
        lcm = a * b // g
        assert j is not None and j.lcm == lcm
        assert j.l >= max(m, n)
        assert (j.l - m) % a == 0 and (j.l - n) % b == 0
        assert j.l - lcm < max(m, n)  # every common value is j.l + t*lcm
        assert (j.alpha, j.beta) == ((j.l - m) // a, (j.l - n) // b)
        assert (j.a_prime, j.b_prime) == (a // g, b // g)

    def test_large_cores_in_bounded_time(self):
        # coprime cores near 10^12: the alternating scheme would run about 10^12 rounds
        j = join(SemigroupElement(0, 10**12), SemigroupElement(5, 10**12 + 1))
        assert j.l == 10**12 * j.alpha == 5 + (10**12 + 1) * j.beta
        assert (j.alpha, j.beta) == (10**12 - 4, 10**12 - 5)

    def test_rejects_multiplicative_part_below_one(self):
        # plain pairs skip SemigroupElement's constructor; join checks them itself
        for p, q, bad in (((0, 0), (1, 2), 0), ((0, 0), (2, 2), 0), ((1, 2), (0, 0), 0), ((3, 1), (3, -2), -2)):
            with pytest.raises(ValueError, match=rf"^multiplicative part must be >= 1, got {bad}$"):
                join(p, q)
        with pytest.raises(ValueError, match=r"^multiplicative part must be >= 1, got 0$"):
            covariance_reduce(0, 0, 1, 2)
        # valid plain pairs and elements agree, and the rewriter filters ZERO before any join
        assert join((0, 2), (1, 3)) == join(SemigroupElement(0, 2), SemigroupElement(1, 3))
        assert monomial_mul(ZERO, Monomial(1, 2, 3, 4)) == ZERO == monomial_mul(Monomial(1, 2, 3, 4), ZERO)

    def test_least_upper_bound_property(self):
        # every common upper bound with entries <= 200 dominates the join
        samples = [
            (SemigroupElement(0, 2), SemigroupElement(1, 3)),
            (SemigroupElement(2, 6), SemigroupElement(5, 9)),
            (SemigroupElement(1, 4), SemigroupElement(3, 10)),
        ]
        for p, q in samples:
            j = join(p, q)
            assert j is not None
            for m in range(0, 201):
                for a in (1, 2, 3, 4, 6, 12, 18, 36, 60, 180):
                    u = SemigroupElement(m, a)
                    if leq(p, u) and leq(q, u):
                        assert leq(SemigroupElement(j.l, j.lcm), u)


class TestJoinsWithin:
    """One case per branch of the grouped check, each against its per-pair reading."""

    def test_pair_that_never_meets(self):
        # gcd(2, 4) = 2 does not divide 0 - 1; lcm 4 lies past bound 3, and the meeting test still runs
        assert join((0, 2), (1, 4)) is None
        assert not joins_within(2, [0], 4, [1], 3, {(0, 2), (1, 4)})
        assert not joins_within(2, [0, 2], 4, [2, 1], 8, {(0, 2), (2, 2), (2, 4), (1, 4)})

    def test_missing_join_inside_the_window(self):
        # (0, 2) v (0, 3) = (0, 6), with lcm equal to the bound
        members = {(0, 2), (0, 3)}
        assert not joins_within(2, [0], 3, [0], 6, members)
        assert joins_within(2, [0], 3, [0], 6, members | {(0, 6)})
        # (3, 1) v (0, 2) = (4, 2), with l equal to the bound
        assert not joins_within(1, [3], 2, [0], 4, {(3, 1), (0, 2)})
        assert joins_within(1, [3], 2, [0], 4, {(3, 1), (0, 2), (4, 2)})

    def test_join_past_the_window(self):
        # lcm 6 past bound 5, and l = 4 past bound 3: neither join is looked up
        assert joins_within(2, [0], 3, [0], 5, {(0, 2), (0, 3)})
        assert joins_within(1, [3], 2, [0], 3, {(3, 1), (0, 2)})

    def test_one_multiplicative_part(self):
        # members of one level join at the larger of the two when they meet
        assert not joins_within(2, [0, 1], 2, [0, 1], 4, {(0, 2), (1, 2)})
        assert joins_within(2, [0, 2, 4], 2, [0, 2, 4], 4, {(0, 2), (2, 2), (4, 2)})

    def test_against_join(self):
        rng = random.Random(3)
        for _ in range(300):
            bound = rng.randint(1, 12)
            a, b = rng.randint(1, bound), rng.randint(1, bound)
            ms = rng.sample(range(bound + 1), rng.randint(1, 2))
            ns = rng.sample(range(bound + 1), rng.randint(1, 2))
            members = {(m, a) for m in ms} | {(n, b) for n in ns}
            members |= {(rng.randint(0, bound), rng.randint(1, bound)) for _ in range(rng.randint(0, 40))}
            joins = [join((m, a), (n, b)) for m in ms for n in ns]
            want = all(
                j is not None and (j.l > bound or j.lcm > bound or (j.l, j.lcm) in members) for j in joins
            )
            assert joins_within(a, ms, b, ns, bound, members) == want


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (GroupElement, (0, 0), "multiplicative part must be positive"),
        (euclid_smallest, (0, 1, 1), "c and d must be positive"),
    ],
)
def test_error_branches(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
