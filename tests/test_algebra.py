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
    _MAX_INDEX_BITS,
    ZERO,
    GeneratorToken,
    Monomial,
    WordSyntaxError,
    adjoint,
    covariance_reduce,
    monomial_grid,
    monomial_mul,
    parse_word,
    reduce_word,
)
from affinetoeplitz.numtheory import first_primes
from affinetoeplitz.representation import XBasis, monomial_apply, toeplitz_apply
from affinetoeplitz.semigroup import SemigroupElement
from conftest import graded_pairs, tabulate_products

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


def reference_reduce(word, expand_composite=False):
    """The fold reduce_word is checked against: one validated Monomial per term,
    `adjoint` for a starred term, and `monomial_mul` from the identity."""
    out = Monomial.identity()
    for tok in parse_word(word, expand_composite):
        shift, index = (tok.power, 1) if tok.kind == "s" else (0, tok.index**tok.power)
        term = Monomial(shift, index, 1, 0)
        out = monomial_mul(out, adjoint(term) if tok.star else term)
        if out.is_zero:
            return ZERO
    return out


@st.composite
def words(draw):
    """(text, expand_composite): up to 8 terms s^k and v_c^k, each starred or not.

    Powers run to 10^3 and shifts to 10^18; c is a prime up to 47, or with
    composite expansion any index up to 10^3.  A third of the words carry a
    zero v_p* s^k v_p (p not dividing k) at a random place, so the fold meets
    a zero junction with terms after it; with composite expansion another
    third carry a starred v2^k with 2k, the parser's measure of its index,
    within 64 of `_MAX_INDEX_BITS`.
    """
    expand = draw(st.booleans())
    index = st.integers(1, 10**3) if expand else st.sampled_from(first_primes(15))
    shift = st.integers(0, 10**3) | st.integers(0, 10**18)
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        base = "s" if draw(st.booleans()) else f"v{draw(index)}"
        power = draw(shift if base == "s" else st.integers(0, 10**3))
        terms.append(f"{base}^{power}{'*' if draw(st.booleans()) else ''}")
    at = draw(st.integers(0, len(terms)))
    extra = draw(st.sampled_from(("", "zero", "wide") if expand else ("", "zero")))
    if extra == "zero":
        p = draw(st.sampled_from(first_primes(15)))
        terms[at:at] = [f"v{p}*", f"s^{draw(shift.filter(lambda k: k % p))}", f"v{p}"]
    elif extra == "wide":
        terms[at:at] = [f"v2^{(_MAX_INDEX_BITS - draw(st.integers(0, 64))) // 2}*"]
    return " ".join(terms), expand


class TestMonomialType:
    def test_constructor_validates(self):
        for bad in ((-1, 1, 1, 0), (0, 1, 1, -1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError):
                Monomial(*bad)
        assert Monomial(0, 0, 0, 0) == ZERO and ZERO.is_zero

    def test_tuple_semantics(self):
        x = Monomial(1, 2, 3, 4)
        assert x == (1, 2, 3, 4) and hash(x) == hash((1, 2, 3, 4))
        assert repr(x) == "Monomial(m=1, a=2, b=3, n=4)" and str(x) == "s v2 v3* s^4*"
        assert Monomial.from_json(x.to_json()) == x and ZERO.to_json() == {"kind": "zero"}
        assert str(ZERO) == "0" and Monomial.from_json({"kind": "zero"}) is ZERO
        with pytest.raises(AttributeError):
            x.m = 5

    def test_tuple_operators_refused(self):
        # + and * would otherwise concatenate or repeat the underlying tuple
        x = Monomial.identity()
        for op in (lambda: x + Monomial.s_power(1), lambda: x + ZERO, lambda: x * 2, lambda: 2 * x, lambda: x * x):
            with pytest.raises(TypeError, match="Monomial"):
                op()

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

    def test_grid_counts_a_repeated_mult_once(self):
        # first-occurrence order: a duplicate-free list gives the same grid, in the same order
        assert monomial_grid(1, (2, 1, 2, 1)) == monomial_grid(1, (2, 1))
        assert monomial_grid(2, (1, 1)) == monomial_grid(2, (1,)) and len(monomial_grid(2, (1, 1))) == 9
        assert monomial_grid(1, (3, 1, 2)) == [Monomial(m, a, b, n) for m in (0, 1) for n in (0, 1)
                                               for a in (3, 1, 2) for b in (3, 1, 2)]

    def test_product_table_matches_monomial_mul(self):
        left = monomial_grid(1, (1, 2, 3, 6))
        right = left[::3]
        # a shift past int64 is held exactly; identity rows give no vanishing product
        for rows in (left, left + [Monomial(2**63, 2, 3, 5)], [Monomial.identity()]):
            distinct, index = tabulate_products(rows, right)
            assert index.dtype == np.intp and index.shape == (len(rows), len(right))
            products = [[monomial_mul(x, y) for y in right] for x in rows]
            assert [[distinct[k] for k in row] for row in index.tolist()] == products
            assert len(set(distinct)) == len(distinct)
            assert (ZERO in distinct) == any(p.is_zero for row in products for p in row)
        assert ZERO in tabulate_products(left, right)[0]
        for rows, cols in (([], right), (left, [])):
            distinct, index = tabulate_products(rows, cols)
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


def largest_exponent(p, bound):
    e = 0
    while p ** (e + 1) <= bound:
        e += 1
    return e


class TestLargeIndices:
    @staticmethod
    def covariance_word(p, e, k, q, f, x):
        """v_p^e* s^k v_q^f applied to e_x token by token, rightmost first."""
        out = toeplitz_apply(SemigroupElement(0, q**f), x)
        out = toeplitz_apply(SemigroupElement(k, 1), out.basis)
        return toeplitz_apply(SemigroupElement(0, p**e), out.basis, star=True)

    @settings(max_examples=60, deadline=None)
    @given(pq=st.permutations((2, 3, 5, 7, 11, 13)).map(lambda ps: ps[:2]), data=st.data())
    def test_covariance_word_on_left_regular_vectors(self, pq, data):
        # p^e, q^f and k up to 10^12: the join behind the rewrite solves its euclid step
        # by the modular inverse, where the alternating scheme ran up to min(p^e, q^f) rounds
        p, q = pq
        e = data.draw(st.integers(1, largest_exponent(p, 10**12)))
        f = data.draw(st.integers(1, largest_exponent(q, 10**12)))
        k = data.draw(st.integers(0, 10**12))
        normal = reduce_word(f"v{p}^{e}* s^{k} v{q}^{f}")
        assert not normal.is_zero  # p^e and q^f are coprime, so the join exists
        shift, b = normal.n, normal.b
        draw = data.draw
        vectors = [SemigroupElement(draw(st.integers(0, 10**14)), draw(st.integers(1, 10**14))) for _ in range(4)]
        # the support of s*^n v_b* is (n + b*t, b*c); probe it and the vectors just below
        t, c = draw(st.integers(0, 10**6)), draw(st.integers(1, 10**6))
        for m in (shift - 1, shift, shift + b * t - 1, shift + b * t, shift + b * t + 1):
            vectors += [SemigroupElement(m, a) for a in (b, b * c, b * c // p) if m >= 0]
        for x in vectors:
            assert monomial_apply(normal, x) == self.covariance_word(p, e, k, q, f, x), x


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

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic three and two: int() reads them, the grammar's uint does not
        for text, position in (("v\u0663", 1), ("s^\u0662", 2)):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(text)
            assert err.value.position == position

    def test_oversized_index_rejected_before_it_is_built(self):
        # v2^(10^20) would need 10^20 bits; the parser refuses the term where it starts
        with pytest.raises(WordSyntaxError) as err:
            parse_word("s v3 v2^99999999999999999999 s*")
        assert err.value.position == 5
        assert parse_word("v2^1100")[0].power == 1100

    def test_digit_runs_past_the_int_limit_raise_with_a_position(self):
        # int() refuses a run of more than 4300 digits; the parser says where the run starts
        run = "7" * 4301
        for text, position in ((f"v{run}", 1), (f"s v2^{run}*", 5), (f"s^{run}", 2), (f"v3 v{run}^2", 4)):
            with pytest.raises(WordSyntaxError, match="4301 digits") as err:
                parse_word(text, expand_composite=True)
            assert err.value.position == position

    def test_token_tuple_semantics(self):
        tok = GeneratorToken("v", 3, 2, True)
        assert tok == ("v", 3, 2, True) and hash(tok) == hash(("v", 3, 2, True))
        assert GeneratorToken("s") == ("s", None, 1, False)
        assert parse_word("v3^2* s") == [tok, GeneratorToken("s")]
        assert all(type(t) is GeneratorToken for t in parse_word("v3^2* s"))
        with pytest.raises(AttributeError):
            tok.power = 5

    def test_token_tuple_operators_refused(self):
        tok = GeneratorToken("s")
        for op in (lambda: tok + tok, lambda: tok + ("s",), lambda: tok * 2, lambda: 2 * tok):
            with pytest.raises(TypeError, match="GeneratorToken"):
                op()

    @settings(max_examples=300, deadline=None)
    @given(word=words())
    def test_reduce_word_matches_reference_fold(self, word):
        text, expand = word
        out = reduce_word(text, expand)
        assert out == reference_reduce(text, expand)
        assert type(out) is Monomial and all(type(c) is int for c in out)

    def test_covariance_steps_only_at_junctions(self):
        # a starred term, or an unstarred one before any star, grows the normal
        # form in closed form; each unstarred term after the first star is one
        # covariance step
        for word, calls in (("s^3 v2 v3^2 v5* s^4* v7*", 0), ("v2^3* s^5 v3", 2), ("v2* s v3 v5* s^2 v7", 4)):
            covariance_reduce.cache_clear()
            out = reduce_word(word)
            info = covariance_reduce.cache_info()
            assert info.hits + info.misses == calls, word
            assert out == reference_reduce(word) != ZERO

    def test_pinned_words(self):
        # closed-form growth on both sides of two junctions; v2* s v2 = 0 by (T5),
        # and the terms after a zero junction do not bring the word back
        assert reduce_word("s^2 v3 v2* s* v5 s^4 v2*") == Monomial(38, 15, 4, 2)
        assert reduce_word("v3* s v3 s^2*") is ZERO
        assert reduce_word("v2* s v2 s^5 v3* v7") is ZERO

    def test_composite_rejected_without_flag(self):
        with pytest.raises(WordSyntaxError):
            parse_word("v6")
        assert parse_word("v6", expand_composite=True)[0].index == 6

    @settings(max_examples=300, deadline=None)
    @given(
        tokens=st.lists(
            st.builds(
                GeneratorToken,
                kind=st.just("v"),
                index=st.sampled_from(first_primes(15)),
                power=st.integers(0, 10**3),
                star=st.booleans(),
            )
            | st.builds(GeneratorToken, kind=st.just("s"), power=st.integers(0, 10**3), star=st.booleans()),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_rendered_tokens_parse_back(self, tokens, data):
        # s and v_p for p <= 47, separated by any mix of spaces, tabs and newlines
        space = st.text(" \t\n", min_size=1, max_size=3)
        text = data.draw(st.text(" \t\n", max_size=2))
        for tok in tokens:
            text += f"{tok.kind}{tok.index or ''}^{tok.power}{'*' if tok.star else ''}" + data.draw(space)
        assert parse_word(text) == tokens

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text(st.sampled_from(list("sv^*0123456789 \t\nx_-+\u0663\u00b2")), max_size=200),
        expand=st.booleans(),
    )
    def test_any_text_parses_or_raises_with_a_position(self, text, expand):
        # digit runs stay far below int()'s 4300-digit limit; a non-decimal digit
        # such as the superscript two is refused where it stands
        try:
            parse_word(text, expand)
        except WordSyntaxError as err:
            assert 0 <= err.position <= len(text)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.builds(
            Monomial,
            st.integers(0, 10**6),
            st.integers(1, 400),
            st.integers(1, 400),
            st.integers(0, 10**6),
        ).filter(lambda x: x != Monomial.identity())
    )
    def test_str_reads_back(self, x):
        assert reduce_word(str(x), expand_composite=True) == x


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

    @settings(max_examples=300, deadline=None)
    @given(pair=graded_pairs(10**15, 31))
    def test_products_balance_exactly_when_the_factors_do(self, pair):
        # both x y and y x have index ratio a c / (b d): every state, being
        # invariant under the dynamics, can see them only when a c = b d
        x, y = pair
        balanced = x.a * y.a == x.b * y.b
        for product in (monomial_mul(x, y), monomial_mul(y, x)):
            if not product.is_zero:
                assert (product.a == product.b) == balanced
