import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from affinetoeplitz.algebra import (
    ZERO,
    AlgebraElement,
    GaussianRational,
    Monomial,
    WordSyntaxError,
    adjoint,
    covariance_reduce,
    expectation_coaction,
    expectation_dual_action,
    monomial_grid,
    monomial_mul,
    parse_word,
    product_table,
    reduce_word,
    sigma_analytic_factor,
    sigma_phase,
)
from affinetoeplitz.numtheory import primes_upto
from affinetoeplitz.representation import XBasis, monomial_apply
from affinetoeplitz.semigroup import SemigroupElement

PRIMES_SMALL = primes_upto(13)


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

    def test_composite_rejected_without_flag(self):
        with pytest.raises(WordSyntaxError):
            parse_word("v6")
        assert parse_word("v6", expand_composite=True)[0].index == 6


class TestDynamics:
    def test_phase_examples(self):
        import cmath

        for t in (0.0, 0.7, -2.3):
            assert abs(sigma_phase(Monomial.v(2), t) - cmath.exp(1j * t * cmath.log(2))) < 1e-15
        assert sigma_phase(Monomial(3, 1, 1, 2), 1.23) == 1
        assert abs(sigma_analytic_factor(Monomial(0, 2, 3, 0), 2) - 9 / 4) < 1e-15

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sigma_phase(ZERO, 1.0)
        with pytest.raises(ValueError):
            sigma_analytic_factor(ZERO, 1.0)

    def test_multiplicative_on_products(self):
        rng = random.Random(29)
        for _ in range(2000):
            x = Monomial(rng.randrange(0, 6), rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 6))
            y = Monomial(rng.randrange(0, 6), rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 6))
            xy = monomial_mul(x, y)
            if not xy.is_zero:
                t = 0.37
                assert abs(sigma_phase(xy, t) - sigma_phase(x, t) * sigma_phase(y, t)) < 1e-12


class TestElements:
    def test_scalar_arithmetic(self):
        i = GaussianRational(0, 1)
        half = GaussianRational(Fraction(1, 2))
        assert i * i == GaussianRational(-1)
        assert (i + half).conjugate() == half - i
        assert complex(half + half) == 1 + 0j

    def test_scalar_float_mode_mixing(self):
        half = GaussianRational(Fraction(1, 2))
        assert half + 0.25 == 0.75
        assert half * 2j == 1j
        mix = AlgebraElement({Monomial.s_power(1): half}) + AlgebraElement({Monomial.s_power(1): 0.5 + 0j})
        ((mono, coeff),) = mix.terms()
        assert coeff == 1.0 + 0j

    def test_element_ops(self):
        s = AlgebraElement.from_monomial(Monomial.s_power(1))
        s_star = AlgebraElement.from_monomial(Monomial.s_power(-1))
        ss_star = s * s_star
        assert ss_star.terms() == [(Monomial(1, 1, 1, 1), GaussianRational(1))]
        assert (s + s.scaled(-1)).is_zero
        # products of spanning monomials never leave the 0/1 coefficient range
        v2 = AlgebraElement.from_monomial(Monomial.v(2))
        killed = AlgebraElement.from_monomial(Monomial.v_star(2)) * AlgebraElement.from_monomial(
            Monomial.s_power(1)
        ) * v2
        assert killed.is_zero

    def test_adjoint_antilinear(self):
        i = GaussianRational(0, 1)
        x = AlgebraElement.from_monomial(Monomial.s_power(2), i)
        assert x.adjoint().terms() == [(Monomial.s_power(-2), GaussianRational(0, -1))]

    def test_expectations(self):
        fixed = AlgebraElement.from_monomial(Monomial(1, 2, 2, 1))
        assert expectation_coaction(fixed) == fixed
        s = AlgebraElement.from_monomial(Monomial.s_power(1))
        assert expectation_coaction(s).is_zero
        skew = AlgebraElement.from_monomial(Monomial(2, 2, 2, 1))
        assert expectation_dual_action(skew) == skew
        assert expectation_coaction(skew).is_zero
        # idempotent linear projections
        mix = fixed + s.scaled(GaussianRational(0, 1)) + skew.scaled(3)
        for proj in (expectation_coaction, expectation_dual_action):
            once = proj(mix)
            assert proj(once) == once
