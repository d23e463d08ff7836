import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz.algebra import (
    ZERO,
    Monomial,
    WordSyntaxError,
    adjoint,
    covariance_reduce,
    monomial_grid,
    monomial_mul,
    parse_word,
    product_table,
    reduce_word,
)
from affinetoeplitz.numtheory import first_primes
from affinetoeplitz.representation import XBasis, monomial_apply
from affinetoeplitz.semigroup import SemigroupElement

PRIMES_SMALL = first_primes(6)


@st.composite
def monomial_pairs(draw):
    """(x, y) with shifts up to 10^15 and indices up to 10^12.

    The middle indices x.b, y.a share a factor g, so their cofactors stay
    below 100 and the euclid loop of x*y stays short, and the middle shifts
    x.n, y.m differ by a multiple of g, so that x*y is mostly not zero.
    """
    shift, index = st.integers(0, 10**15), st.integers(1, 10**12)
    g = draw(st.integers(1, 10**10))
    near = draw(st.integers(0, 10**15 // 2))
    far = near + g * draw(st.integers(0, 10**15 // 2 // g))
    n, q = (near, far) if draw(st.booleans()) else (far, near)
    x = Monomial(draw(shift), draw(index), g * draw(st.integers(1, 100)), n)
    y = Monomial(q, g * draw(st.integers(1, 100)), draw(index), draw(shift))
    return x, y


class TestMonomialType:
    def test_constructor_validates(self):
        for bad in ((-1, 1, 1, 0), (0, 1, 1, -1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError):
                Monomial(*bad)
        assert Monomial(0, 0, 0, 0) == ZERO and ZERO.is_zero

    def test_tuple_semantics(self):
        x = Monomial(1, 2, 3, 4)
        assert x == (1, 2, 3, 4) and hash(x) == hash((1, 2, 3, 4))
        assert repr(x) == "Monomial(m=1, a=2, b=3, n=4)" and str(x) == "s v2 v3* s*^4"
        assert Monomial.from_json(x.to_json()) == x and ZERO.to_json() == {"kind": "zero"}
        with pytest.raises(AttributeError):
            x.m = 5

    @settings(max_examples=300, deadline=None)
    @given(pair=monomial_pairs())
    def test_unvalidated_builders_pass_validation(self, pair):
        x, y = pair
        for r in (monomial_mul(x, y), adjoint(x), adjoint(y)):
            assert type(r) is Monomial and all(type(c) is int for c in r)
            assert Monomial(*r) == r
            assert hash(r) == hash(tuple(r))
            for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
                assert type(twin) is Monomial and twin == r


class TestCovarianceReduce:
    def test_examples(self):
        assert covariance_reduce(2, 0, 1, 2) == ZERO
        assert covariance_reduce(2, 0, 0, 3) == Monomial(0, 3, 2, 0)
        assert covariance_reduce(2, 1, 2, 3) == Monomial(2, 3, 2, 1)

    def test_coprime_zero_shift(self):
        for a in (2, 3, 5, 8, 9):
            for b in (2, 3, 5, 8, 9):
                if gcd(a, b) == 1:
                    assert covariance_reduce(a, 0, 0, b) == Monomial(0, b, a, 0)

    def test_matches_join_complements(self):
        # the reduction data is exactly the complement pair of the join
        from affinetoeplitz.semigroup import join

        for a in (1, 2, 3, 4, 6, 12):
            for b in (1, 2, 3, 4, 6, 12):
                for m in range(6):
                    for n in range(6):
                        jn = join(SemigroupElement(m, a), SemigroupElement(n, b))
                        got = covariance_reduce(a, m, n, b)
                        if jn is None:
                            assert got == ZERO
                        else:
                            assert got == Monomial(jn.alpha, jn.b_prime, jn.a_prime, jn.beta)

    def test_matches_oracle_on_basis(self):
        # apply v_a* s*^m s^n v_b and its normal form to left-regular vectors
        for a in (1, 2, 3, 4, 6):
            for b in (1, 2, 3, 4, 6):
                for m in range(4):
                    for n in range(4):
                        normal = covariance_reduce(a, m, n, b)
                        word = monomial_mul(
                            monomial_mul(Monomial.v_star(a), Monomial.s_power(-m)),
                            monomial_mul(Monomial.s_power(n), Monomial.v(b)),
                        )
                        assert word == normal
                        for j in range(8):
                            for c in (1, 2, 3, 4, 6):
                                e = SemigroupElement(j, c)
                                lhs = monomial_apply(normal, e) if not normal.is_zero else None
                                # stepwise: v_a* s*^m s^n v_b applied right-to-left
                                out = monomial_apply(Monomial.v(b), e)
                                if not out.is_null:
                                    out = monomial_apply(Monomial.s_power(n), out.basis)
                                if not out.is_null:
                                    out = monomial_apply(Monomial.s_power(-m), out.basis)
                                if not out.is_null:
                                    out = monomial_apply(Monomial.v_star(a), out.basis)
                                if normal.is_zero:
                                    assert out.is_null
                                else:
                                    assert out == lhs


class TestMonomialMul:
    def test_relation_examples(self):
        assert monomial_mul(Monomial.v(2), Monomial.s_power(1)) == Monomial(2, 2, 1, 0)
        assert monomial_mul(Monomial.s_power(-1), Monomial.v(2)) == Monomial(1, 2, 1, 1)
        assert monomial_mul(Monomial.v_star(2), Monomial(1, 3, 1, 0)) == Monomial(2, 3, 2, 1)

    def test_zero_absorbs(self):
        x = Monomial(1, 2, 3, 4)
        assert monomial_mul(ZERO, x) == ZERO
        assert monomial_mul(x, ZERO) == ZERO

    def test_identity(self):
        one = Monomial.identity()
        x = Monomial(2, 6, 5, 1)
        assert monomial_mul(one, x) == x
        assert monomial_mul(x, one) == x

    def test_associativity_random(self):
        rng = random.Random(17)

        def rand():
            return Monomial(rng.randrange(0, 9), rng.randrange(1, 13), rng.randrange(1, 13), rng.randrange(0, 9))

        for _ in range(10_000):
            x, y, z = rand(), rand(), rand()
            assert monomial_mul(monomial_mul(x, y), z) == monomial_mul(x, monomial_mul(y, z))

    def test_star_antihomomorphism(self):
        rng = random.Random(23)

        def rand():
            return Monomial(rng.randrange(0, 9), rng.randrange(1, 13), rng.randrange(1, 13), rng.randrange(0, 9))

        for _ in range(5000):
            x, y = rand(), rand()
            assert adjoint(monomial_mul(x, y)) == monomial_mul(adjoint(y), adjoint(x))

    def test_adjoint_examples(self):
        assert adjoint(Monomial(2, 2, 1, 0)) == Monomial(0, 1, 2, 2)
        assert adjoint(ZERO) == ZERO
        assert adjoint(adjoint(Monomial(1, 2, 3, 4))) == Monomial(1, 2, 3, 4)

    def test_grid_order_and_contract(self):
        head = [Monomial(0, 1, 1, 0), Monomial(0, 1, 2, 0), Monomial(0, 2, 1, 0), Monomial(0, 2, 2, 0)]
        assert monomial_grid(1, (1, 2))[:5] == head + [Monomial(0, 1, 1, 1)]
        assert len(monomial_grid(2, (1, 2, 3))) == 81
        assert monomial_grid(-1, (1, 2)) == [] and monomial_grid(2, ()) == []
        with pytest.raises(ValueError):
            monomial_grid(0, (0, 1))

    def test_product_table_matches_monomial_mul(self):
        left = monomial_grid(1, (1, 2, 3, 6))
        right = left[::3]
        # a shift past int64 is held exactly; identity rows give no vanishing product
        for rows in (left, left + [Monomial(2**63, 2, 3, 5)], [Monomial.identity()]):
            distinct, index = product_table(rows, right)
            assert index.dtype == np.intp and index.shape == (len(rows), len(right))
            products = [[monomial_mul(x, y) for y in right] for x in rows]
            assert [[distinct[k] for k in row] for row in index.tolist()] == products
            assert len(set(distinct)) == len(distinct)
            assert (ZERO in distinct) == any(p.is_zero for row in products for p in row)
        assert ZERO in product_table(left, right)[0]
        for rows, cols in (([], right), (left, [])):
            distinct, index = product_table(rows, cols)
            assert distinct == [] and index.shape == (len(rows), len(cols))


class TestRelations:
    @pytest.mark.parametrize("p", PRIMES_SMALL)
    def test_t1_t4(self, p):
        assert reduce_word(f"v{p} s") == reduce_word(f"s^{p} v{p}")
        assert reduce_word(f"s* v{p}") == reduce_word(f"s^{p-1} v{p} s*")

    def test_t2_t3(self):
        for p in PRIMES_SMALL:
            for q in PRIMES_SMALL:
                if p != q:
                    assert reduce_word(f"v{p} v{q}") == reduce_word(f"v{q} v{p}")
                    assert reduce_word(f"v{p}* v{q}") == reduce_word(f"v{q} v{p}*")

    @pytest.mark.parametrize("p", PRIMES_SMALL)
    def test_t5(self, p):
        for k in range(1, p):
            assert reduce_word(f"v{p}* s^{k} v{p}") == ZERO
        assert reduce_word(f"v{p}* s^{p} v{p}") == Monomial.s_power(1)

    def test_composite_extensions(self):
        for a in range(2, 13):
            assert reduce_word(f"v{a} s", True) == reduce_word(f"s^{a} v{a}", True)
            assert reduce_word(f"s* v{a}", True) == reduce_word(f"s^{a-1} v{a} s*", True)
            for k in range(1, a):
                assert reduce_word(f"v{a}* s^{k} v{a}", True) == ZERO
            for b in range(2, 13):
                assert reduce_word(f"v{a} v{b}", True) == reduce_word(f"v{b} v{a}", True)
                if gcd(a, b) == 1:
                    assert reduce_word(f"v{a}* v{b}", True) == reduce_word(f"v{b} v{a}*", True)

    def test_composite_equals_prime_product(self):
        assert reduce_word("v12", True) == reduce_word("v2^2 v3")
        assert reduce_word("v12", True) == Monomial.v(12)


class TestParser:
    def test_examples(self):
        assert reduce_word("v2 s") == Monomial(2, 2, 1, 0)
        assert reduce_word("v2* s v2") == ZERO
        assert reduce_word("s^2 v3 v2* s*") == Monomial(2, 3, 2, 1)

    def test_token_shapes(self):
        toks = parse_word("s^2 v3 v2* s*")
        assert [(t.kind, t.index, t.power, t.star) for t in toks] == [
            ("s", None, 2, False),
            ("v", 3, 1, False),
            ("v", 2, 1, True),
            ("s", None, 1, True),
        ]

    def test_star_applies_to_powered_term(self):
        assert reduce_word("v2^3*") == Monomial.v_star(8)
        assert reduce_word("s^3*") == Monomial.s_power(-3)

    def test_errors_carry_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("s^2 x3")
        assert err.value.position == 4
        with pytest.raises(WordSyntaxError):
            parse_word("")
        with pytest.raises(WordSyntaxError):
            parse_word("v")
        with pytest.raises(WordSyntaxError):
            parse_word("s^")

    def test_oversized_index_rejected_before_it_is_built(self):
        # v2^(10^20) would need 10^20 bits; the parser refuses the term where it starts
        with pytest.raises(WordSyntaxError) as err:
            parse_word("s v3 v2^99999999999999999999 s*")
        assert err.value.position == 5
        assert parse_word("v2^1100")[0].power == 1100

    def test_composite_rejected_without_flag(self):
        with pytest.raises(WordSyntaxError):
            parse_word("v6")
        assert parse_word("v6", expand_composite=True)[0].index == 6


class TestDynamics:
    def test_multiplicative_on_products(self):
        # the time evolution scales x by (a/b)^(it), so a/b must multiply exactly
        rng = random.Random(29)
        for _ in range(2000):
            x = Monomial(rng.randrange(0, 6), rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 6))
            y = Monomial(rng.randrange(0, 6), rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 6))
            xy = monomial_mul(x, y)
            if not xy.is_zero:
                assert Fraction(xy.a, xy.b) == Fraction(x.a, x.b) * Fraction(y.a, y.b)
