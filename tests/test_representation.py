import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz.algebra import ZERO, GeneratorToken, Monomial, covariance_reduce, monomial_grid, monomial_mul
from affinetoeplitz.numtheory import factorize, zeta
from affinetoeplitz.representation import (
    _MAX_GENERATOR_INDEX,
    _BLOCK_LANES,
    NULL,
    WeightedBasis,
    XBasis,
    _check_window,
    _diagonal_profile,
    _fibered_window,
    _floor_divide,
    _k_blocks,
    _monomial_word,
    _peak,
    _run_word,
    _x_step,
    _z_step,
    monomial_apply,
    q_projector_check,
    relation_suite,
    toeplitz_apply,
    toeplitz_monomial_apply_batch,
    trace_state,
    x_monomial_apply_batch,
)
from affinetoeplitz.semigroup import SemigroupElement, leq
from affinetoeplitz.states import CircleMeasure, PsiBetaMu, evaluate
from conftest import GRID_MULTS

INT16_MAX = 2**15 - 1
INT32_MAX = 2**31 - 1
S = Monomial.s_power(1)
S_STAR = Monomial.s_power(-1)


def V(p, star=False):
    return Monomial.v_star(p) if star else Monomial.v(p)


def stepper_on_window(mono, rs, xs):
    """The token stepper's (null, r, x, w) for a monomial on whole arrays of fibered vectors."""
    rs, xs = np.asarray(rs).astype(object), np.asarray(xs).astype(object)
    return _run_word(_x_step, _monomial_word(mono), rs, xs, np.zeros(rs.shape, dtype=object))


def assert_same_action(batch, stepped):
    """Batch and stepper agree on which lanes die, and on (r, x, w) of every surviving lane."""
    null, r, x, w = batch
    s_null, s_r, s_x, s_w = stepped
    assert np.array_equal(null, s_null)
    live = ~null
    for got, want in ((r, s_r), (x, s_x), (w, s_w)):
        assert np.array_equal(np.asarray(got)[live].astype(object), want[live])


class TestToeplitzModel:
    def test_examples(self):
        out = toeplitz_apply(SemigroupElement(1, 2), SemigroupElement(0, 3))
        assert out == WeightedBasis(0, SemigroupElement(1, 6))
        e = SemigroupElement(4, 9)
        assert toeplitz_apply(SemigroupElement(0, 1), e) == WeightedBasis(0, e)
        assert toeplitz_apply(SemigroupElement(0, 2), SemigroupElement(1, 2), star=True).is_null

    def test_adjoint_matches_order(self):
        for y in (SemigroupElement(1, 2), SemigroupElement(0, 3), SemigroupElement(2, 1)):
            for m in range(8):
                for a in (1, 2, 3, 4, 6, 12):
                    e = SemigroupElement(m, a)
                    out = toeplitz_apply(y, e, star=True)
                    if leq(y, e):
                        assert not out.is_null
                        assert toeplitz_apply(y, out.basis) == WeightedBasis(0, e)
                    else:
                        assert out.is_null

    def test_isometry(self):
        for y in (SemigroupElement(1, 1), SemigroupElement(0, 2), SemigroupElement(3, 5)):
            for m in range(6):
                for a in (1, 2, 3, 5, 6):
                    e = SemigroupElement(m, a)
                    forward = toeplitz_apply(y, e)
                    back = toeplitz_apply(y, forward.basis, star=True)
                    assert back == WeightedBasis(0, e)

    def test_nica_covariance_against_join(self):
        # T_x* T_y = T_u T_v* read off the join x v y: the model checks the rewriter's own Nica step
        vectors = [SemigroupElement(j, c) for j in range(6) for c in (1, 2, 3, 4, 6)]
        for xm, xa in itertools.product(range(0, 11, 2), (1, 2, 3, 5, 10)):
            for ym, ya in itertools.product(range(0, 11, 3), (1, 2, 4, 9)):
                x, y = SemigroupElement(xm, xa), SemigroupElement(ym, ya)
                for e in vectors:
                    lhs = toeplitz_apply(y, e)
                    lhs = toeplitz_apply(x, lhs.basis, star=True)
                    assert lhs == monomial_apply(covariance_reduce(x.a, x.m, y.m, y.a), e)


class TestXModel:
    def test_shift_examples(self):
        assert monomial_apply(S, XBasis(1, 3)) == WeightedBasis(0, XBasis(2, 3))
        assert monomial_apply(S, XBasis(2, 3)) == WeightedBasis(1, XBasis(0, 3))
        assert monomial_apply(V(2), XBasis(1, 3)) == WeightedBasis(0, XBasis(2, 6))

    def test_adjoint_shift(self):
        assert monomial_apply(S_STAR, XBasis(0, 3)) == WeightedBasis(-1, XBasis(2, 3))
        assert monomial_apply(S_STAR, XBasis(2, 3)) == WeightedBasis(0, XBasis(1, 3))

    def test_v_star(self):
        assert monomial_apply(V(2, star=True), XBasis(2, 6)) == WeightedBasis(0, XBasis(1, 3))
        assert monomial_apply(V(2, star=True), XBasis(1, 6)).is_null
        assert monomial_apply(V(2, star=True), XBasis(1, 3)).is_null

    def test_isometries(self):
        for x in range(1, 13):
            for r in range(x):
                e = XBasis(r, x)
                up = monomial_apply(S, e)
                assert monomial_apply(S_STAR, up.basis).scaled(up.z_power) == WeightedBasis(0, e)
                for p in (2, 3, 5):
                    vp = monomial_apply(V(p), e)
                    assert monomial_apply(V(p, star=True), vp.basis) == WeightedBasis(0, e)

    def test_monomial_apply_example(self):
        assert monomial_apply(Monomial(2, 3, 2, 1), XBasis(1, 2)) == WeightedBasis(0, XBasis(2, 3))
        assert monomial_apply(Monomial(0, 2, 2, 0), XBasis(1, 2)).is_null
        assert monomial_apply(ZERO, XBasis(0, 1)).is_null

    def test_relation_suite(self):
        report = relation_suite("x", [2, 3, 5], 12)
        assert all(entry["pass"] for entry in report["relations"].values())
        names = set(report["relations"])
        assert "T5[p=5,k=4]" in names and "T3[p=2,q=3]" in names

    def test_relation_suite_index_one(self):
        # v_1 is the identity, so T4 at p = 1 reads s* = s^0 v_1 s*, with no special case
        report = relation_suite("x", [1, 2], 4)
        assert "T4[p=1]" in report["relations"]
        assert all(entry["pass"] for entry in report["relations"].values())

    def test_relation_suite_counterexamples_for_composite_indices(self):
        # v_2 and v_4 are not doubly commuting: T3 fails at the first vector each way
        report = relation_suite("x", [2, 4], 5)
        failed = {name: entry["counterexample"] for name, entry in report["relations"].items() if not entry["pass"]}
        assert failed == {"T3[p=2,q=4]": {"r": 0, "x": 1}, "T3[p=4,q=2]": {"r": 0, "x": 2}}
        # read off the int64 window as Python ints, which JSON takes
        assert all(type(v) is int for c in failed.values() for v in c.values())
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("model", ["x", "z"])
    def test_relation_suite_repeated_index_counts_once(self, model):
        # T3 and the pair relations are stated for p != q: a repeated index is the index once, in first-occurrence order
        for window in (3, 8):
            assert relation_suite(model, [2, 2], window) == relation_suite(model, [2], window)
            report = relation_suite(model, [3, 2, 3, 5, 2], window)
            assert report == relation_suite(model, [3, 2, 5], window)
            assert list(report["relations"]) == list(relation_suite(model, [3, 2, 5], window)["relations"])

    @pytest.mark.parametrize("model", ["x", "z"])
    @pytest.mark.parametrize("primes, window", [([2, 3], 0), ([2, 3], -1), ([], 5), ([0, 2], 5)])
    def test_relation_suite_rejects_empty_or_invalid_input(self, model, primes, window):
        with pytest.raises(ValueError):
            relation_suite(model, primes, window)


class TestZModel:
    def test_examples(self):
        assert monomial_apply(S, 4) == WeightedBasis(0, 5)
        assert monomial_apply(V(2), -3) == WeightedBasis(0, -6)
        assert monomial_apply(V(2, star=True), -6) == WeightedBasis(0, -3)
        assert monomial_apply(V(2, star=True), 5).is_null
        assert monomial_apply(S_STAR, 0) == WeightedBasis(0, -1)

    def test_q5_partition_membership(self):
        # e_4 sits in the k=0 branch for p=2, e_5 in the k=1 branch
        for n, expected_k in ((4, 0), (5, 1)):
            hits = [k for k in range(2) if monomial_apply(Monomial(k, 2, 2, k), n) == WeightedBasis(0, n)]
            assert hits == [expected_k]

    def test_relation_suite(self):
        report = relation_suite("z", [2, 3, 5, 7, 11, 13], 200)
        assert all(entry["pass"] for entry in report["relations"].values())


def _random_monomial(rng):
    return Monomial(rng.randrange(0, 7), rng.randrange(1, 13), rng.randrange(1, 13), rng.randrange(0, 7))


class TestBatchAppliers:
    def test_x_batch_matches_stepwise(self):
        rng = random.Random(41)
        vectors = [(r, x) for x in range(1, 20) for r in range(x)]
        rs = np.array([v[0] for v in vectors])
        xs = np.array([v[1] for v in vectors])
        zero = np.zeros(len(vectors), dtype=np.int64)
        false = np.zeros(len(vectors), dtype=bool)
        for _ in range(150):
            mono = _random_monomial(rng)
            batch = x_monomial_apply_batch(mono.m, mono.a, mono.b, mono.n, false, rs, xs, zero)
            assert_same_action(batch, stepper_on_window(mono, rs, xs))

    def test_toeplitz_batch_matches_stepwise(self):
        rng = random.Random(43)
        vectors = [(j, c) for j in range(12) for c in range(1, 13)]
        js = np.array([v[0] for v in vectors])
        cs = np.array([v[1] for v in vectors])
        false = np.zeros(len(vectors), dtype=bool)
        for _ in range(150):
            mono = _random_monomial(rng)
            null, j2, c2 = toeplitz_monomial_apply_batch(mono.m, mono.a, mono.b, mono.n, false, js, cs)
            for i, (j, c) in enumerate(vectors):
                step = monomial_apply(mono, SemigroupElement(j, c))
                if step.is_null:
                    assert null[i]
                else:
                    assert not null[i]
                    assert (step.basis.m, step.basis.a) == (int(j2[i]), int(c2[i]))

    def test_batch_broadcasts_parameters(self):
        monos = [Monomial(m, a, 1, 0) for m in range(3) for a in (1, 2, 3)]
        ms = np.array([[x.m] for x in monos])
        as_ = np.array([[x.a] for x in monos])
        bs = np.array([[x.b] for x in monos])
        ns = np.array([[x.n] for x in monos])
        vectors = [(r, x) for x in range(1, 6) for r in range(x)]
        rs = np.array([v[0] for v in vectors])
        xs = np.array([v[1] for v in vectors])
        batch = x_monomial_apply_batch(
            ms, as_, bs, ns, np.zeros(len(vectors), bool), rs, xs, np.zeros(len(vectors), np.int64)
        )
        assert batch[1].shape == (len(monos), len(vectors))
        for i, mono in enumerate(monos):
            assert_same_action(tuple(a[i] for a in batch), stepper_on_window(mono, rs, xs))

    def test_batch_refuses_int64_overflow(self):
        with pytest.raises(ValueError):
            x_monomial_apply_batch(0, 2**40, 1, 0, [False], [0], [2**30], [0])
        with pytest.raises(ValueError):
            x_monomial_apply_batch(2**62, 1, 1, 2**62, [False], [0], [1], [0])
        with pytest.raises(ValueError):
            toeplitz_monomial_apply_batch(0, 2**40, 1, 0, [False], [0], [2**30])
        # np.abs maps -2^63 to itself, which once read as a bound of 0 and picked int32 lanes
        with pytest.raises(ValueError):
            x_monomial_apply_batch(0, 1, 1, 1, np.zeros(1, bool), np.array([0]), np.array([1]), np.array([-(2**63)]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1])),
                     max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(-(2**63), 2**63 - 1),
    )
    def test_peak_is_the_exact_largest_absolute_value(self, rows, scalar):
        arrays = [np.array(row, dtype=np.int64) for row in rows] + [np.asarray(np.int64(scalar))]
        want = max([abs(scalar)] + [abs(v) for row in rows for v in row])
        assert _peak(*arrays) == want
        assert _peak(*(a.astype(object) for a in arrays)) == want

    @settings(max_examples=200, deadline=None)
    @given(
        mono=st.builds(
            Monomial,
            st.integers(0, 10**6),
            st.integers(1, 720),
            st.integers(1, 720),
            st.integers(0, 10**6),
        ),
        vectors=st.lists(
            st.integers(1, 10**6).flatmap(lambda x: st.tuples(st.integers(0, x - 1), st.just(x))),
            min_size=1,
            max_size=20,
        ),
    )
    def test_stepper_matches_batch_on_random_input(self, mono, vectors):
        rs = np.array([v[0] for v in vectors], dtype=np.int64)
        xs = np.array([v[1] for v in vectors], dtype=np.int64)
        batch = x_monomial_apply_batch(
            mono.m, mono.a, mono.b, mono.n, np.zeros(rs.shape, bool), rs, xs, np.zeros_like(rs)
        )
        assert_same_action(batch, stepper_on_window(mono, rs, xs))

    @settings(max_examples=100, deadline=None)
    @given(
        mono=st.builds(Monomial, st.integers(0, 10**30), st.integers(1, 720), st.integers(1, 720), st.integers(0, 10**30)),
        level=st.integers(2**70, 2**90),
        k=st.integers(min_value=0),
    )
    def test_stepper_exact_past_int64(self, mono, level, k):
        # a vector the monomial does not kill: after s*^n its representative and level are multiples of b
        x = level * mono.b
        r = ((k % level) * mono.b + mono.n) % x
        with pytest.raises(ValueError):
            x_monomial_apply_batch(mono.m, mono.a, mono.b, mono.n, [False], [r], [x], [0])
        null, r2, x2, w2 = stepper_on_window(mono, [r], [x])
        assert not null[0]
        assert x2[0] == x // mono.b * mono.a and 0 <= r2[0] < x2[0]
        # the adjoint monomial undoes the action exactly, phase included
        back = stepper_on_window(Monomial(mono.n, mono.b, mono.a, mono.m), r2, x2)
        assert (bool(back[0][0]), back[1][0], back[2][0], back[3][0] + w2[0]) == (False, r, x, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        params=st.lists(
            st.tuples(st.integers(0, 10**4), st.integers(1, 720), st.integers(1, 720), st.integers(0, 10**4)),
            min_size=1,
            max_size=4,
        ),
        offset=st.integers(-(2**16), 2**16),
    )
    def test_x_batch_across_the_int32_boundary(self, data, params, offset):
        monos = [Monomial(*p) for p in params]
        m, a, b, n = (np.array([[getattr(y, f)] for y in monos], dtype=np.int64) for f in "mabn")
        # the level `top` puts the lane bound (x + n)*a + m + w + 2 within 2^16 of int32's top
        top = (INT32_MAX + offset - int(m.max()) - 2) // int(a.max()) - int(n.max())
        vectors = [(0, top)]
        for y in monos:  # vectors that y does not kill: after s*^n, b divides r and x
            for level in (top // y.b, data.draw(st.integers(1, top // y.b)), data.draw(st.integers(1, top // y.b))):
                r = (data.draw(st.integers(0, level - 1)) * y.b + y.n) % (level * y.b)
                vectors.append((r, level * y.b))
        for dtype in (np.int64, np.int32) if top <= INT32_MAX else (np.int64,):
            rs = np.array([v[0] for v in vectors], dtype=dtype)
            xs = np.array([v[1] for v in vectors], dtype=dtype)
            batch = x_monomial_apply_batch(m, a, b, n, np.zeros(rs.shape, bool), rs, xs, np.zeros_like(rs))
            widened = (top + int(n.max())) * int(a.max()) + int(m.max()) + 2 > INT32_MAX
            assert all(arr.dtype == (np.int64 if widened else dtype) for arr in batch[1:])
            assert batch[1].shape == (len(monos), len(vectors))
            for i, y in enumerate(monos):
                row = tuple(arr[i] for arr in batch)
                assert_same_action(row, stepper_on_window(y, rs, xs))
                assert (row[1][row[0]] == 0).all() and (row[2][row[0]] == 1).all() and (row[3][row[0]] == 0).all()
                assert not row[0][1 + 3 * i : 4 + 3 * i].any()

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        params=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 12), st.integers(1, 12), st.integers(0, 200)),
            min_size=1,
            max_size=4,
        ),
        offset=st.integers(-(2**8), 2**8),
    )
    def test_x_batch_across_the_int16_boundary(self, data, params, offset):
        monos = [Monomial(*p) for p in params]
        m_top, a_top, _, n_top = (max(column) for column in zip(*params))
        # the level `top` puts the lane bound (x + n)*a + m + w + 2 within 2^8 of int16's top
        top = (INT16_MAX + offset - m_top - 2) // a_top - n_top
        vectors = [(0, top)]
        for y in monos:  # vectors that y does not kill: after s*^n, b divides r and x
            for level in (top // y.b, data.draw(st.integers(1, top // y.b)), data.draw(st.integers(1, top // y.b))):
                r = (data.draw(st.integers(0, level - 1)) * y.b + y.n) % (level * y.b)
                vectors.append((r, level * y.b))
        widened = (top + n_top) * a_top + m_top + 2 > INT16_MAX
        first = None
        for dtype in (np.int64, np.int32, np.int16) if top <= INT16_MAX else (np.int64, np.int32):
            m, a, b, n = (np.array([[getattr(y, f)] for y in monos], dtype=dtype) for f in "mabn")
            rs = np.array([v[0] for v in vectors], dtype=dtype)
            xs = np.array([v[1] for v in vectors], dtype=dtype)
            batch = x_monomial_apply_batch(m, a, b, n, np.zeros(rs.shape, bool), rs, xs, np.zeros_like(rs))
            # the caller's dtype, widened only past the int16 rung
            assert all(arr.dtype == (np.int32 if widened and dtype == np.int16 else dtype) for arr in batch[1:])
            first = first or batch
            assert all(np.array_equal(got, want) for got, want in zip(batch, first))
            for i, y in enumerate(monos):
                row = tuple(arr[i] for arr in batch)
                assert_same_action(row, stepper_on_window(y, rs, xs))
                assert (row[1][row[0]] == 0).all() and (row[2][row[0]] == 1).all() and (row[3][row[0]] == 0).all()
                assert not row[0][1 + 3 * i : 4 + 3 * i].any()

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        a=st.integers(2, 720),
        b=st.integers(1, 720),
        m=st.integers(0, 10**4),
        levels=st.lists(st.integers(1, 1000), min_size=1, max_size=8),
    )
    def test_x_batch_widens_for_the_lift_of_a_long_walk_down(self, data, a, b, m, levels):
        # n >> x: the lift a (r - n)/b reaches -a n/b, so the lanes widen once
        # (x + n)*a passes int32, even where x*a + m + n stays inside it
        top = max(levels) * b
        n = data.draw(st.integers((INT32_MAX - m - 2) // a - top + 1, INT32_MAX - top * a - m - 2))
        xs = np.array([level * b for level in levels], dtype=np.int32)
        # vectors that survive (b divides r - n) and vectors that b kills
        rs = np.array([(data.draw(st.integers(0, level - 1)) * b + n) % (level * b) for level in levels]
                      + [data.draw(st.integers(0, x - 1)) for x in xs], dtype=np.int32)
        xs = np.concatenate([xs, xs])
        batch = x_monomial_apply_batch(m, a, b, n, np.zeros(rs.shape, bool), rs, xs, np.zeros_like(rs))
        assert all(arr.dtype == np.int64 for arr in batch[1:])
        assert not batch[0][: len(levels)].any()
        assert_same_action(batch, stepper_on_window(Monomial(m, a, b, n), rs, xs))

    def test_x_batch_refuses_a_lift_past_int64(self):
        # x*a + m + n + w + 2 fits int64 and only a n passes it: the lift would wrap, so it raises
        n = 2**62
        with pytest.raises(ValueError):
            x_monomial_apply_batch(0, 4, 1, n, np.zeros(1, bool), np.array([0]), np.array([1]), np.array([0]))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        params=st.lists(
            st.tuples(st.integers(0, 10**4), st.integers(1, 720), st.integers(1, 720), st.integers(0, 10**4)),
            min_size=1,
            max_size=4,
        ),
        offset=st.integers(-(2**16), 2**16),
    )
    def test_toeplitz_batch_across_the_int32_boundary(self, data, params, offset):
        monos = [Monomial(*p) for p in params]
        m, a, b, n = (np.array([[getattr(y, f)] for y in monos], dtype=np.int64) for f in "mabn")
        # the component `top` puts the overflow bound max(j, c)*a + m within 2^16 of int32's top
        top = (INT32_MAX + offset - int(m.max())) // int(a.max())
        vectors = [(top, 1)]
        for y in monos:  # vectors that y does not kill: j >= n, and b divides j - n and c
            vectors.append((y.n + (top - y.n) // y.b * y.b, top // y.b * y.b))  # the largest such
            for _ in range(2):
                j = y.n + y.b * data.draw(st.integers(0, (top - y.n) // y.b))
                vectors.append((j, y.b * data.draw(st.integers(1, top // y.b))))
        js = np.array([v[0] for v in vectors], dtype=np.int64)
        cs = np.array([v[1] for v in vectors], dtype=np.int64)
        null, j2, c2 = toeplitz_monomial_apply_batch(m, a, b, n, np.zeros(js.shape, bool), js, cs)
        assert j2.dtype == c2.dtype == np.int64 and j2.shape == (len(monos), len(vectors))
        for i, y in enumerate(monos):
            assert not null[i, 1 + 3 * i : 4 + 3 * i].any()
            for k, (j, c) in enumerate(vectors):
                step = monomial_apply(y, SemigroupElement(j, c))
                if step.is_null:
                    assert null[i, k] and (j2[i, k], c2[i, k]) == (0, 1)
                else:
                    assert not null[i, k] and (step.basis.m, step.basis.a) == (j2[i, k], c2[i, k])

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        params=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 12), st.integers(1, 12), st.integers(0, 200)),
            min_size=1,
            max_size=4,
        ),
        offset=st.integers(-(2**8), 2**8),
    )
    def test_toeplitz_batch_across_the_int16_boundary(self, data, params, offset):
        monos = [Monomial(*p) for p in params]
        m_top, a_top, _, _ = (max(column) for column in zip(*params))
        # the component `top` puts the overflow bound max(j, c)*a + m within 2^8 of int16's top
        top = (INT16_MAX + offset - m_top) // a_top
        vectors = [(top, 1)]
        for y in monos:  # vectors that y does not kill: j >= n, and b divides j - n and c
            vectors.append((y.n + (top - y.n) // y.b * y.b, top // y.b * y.b))  # the largest such
            for _ in range(2):
                j = y.n + y.b * data.draw(st.integers(0, (top - y.n) // y.b))
                vectors.append((j, y.b * data.draw(st.integers(1, top // y.b))))
        widened = top * a_top + m_top > INT16_MAX
        first = None
        for dtype in (np.int64, np.int32, np.int16) if top <= INT16_MAX else (np.int64, np.int32):
            m, a, b, n = (np.array([[getattr(y, f)] for y in monos], dtype=dtype) for f in "mabn")
            js = np.array([v[0] for v in vectors], dtype=dtype)
            cs = np.array([v[1] for v in vectors], dtype=dtype)
            batch = toeplitz_monomial_apply_batch(m, a, b, n, np.zeros(js.shape, bool), js, cs)
            null, j2, c2 = batch
            # the caller's dtype, widened only past the int16 rung
            assert j2.dtype == c2.dtype == (np.int32 if widened and dtype == np.int16 else dtype)
            assert j2.shape == (len(monos), len(vectors))
            first = first or batch
            assert all(np.array_equal(got, want) for got, want in zip(batch, first))
        for i, y in enumerate(monos):
            assert not null[i, 1 + 3 * i : 4 + 3 * i].any()
            for k, (j, c) in enumerate(vectors):
                step = monomial_apply(y, SemigroupElement(j, c))
                if step.is_null:
                    assert null[i, k] and (j2[i, k], c2[i, k]) == (0, 1)
                else:
                    assert not null[i, k] and (step.basis.m, step.basis.a) == (j2[i, k], c2[i, k])


def assert_floor_divides(t, d, dtype):
    """_floor_divide on `dtype` lanes agrees with np.floor_divide in int64, quotient and divisibility."""
    t, d = np.asarray(t, np.int64), np.asarray(d, np.int64)
    want = np.floor_divide(t, d)
    got, divides = _floor_divide(t.astype(dtype), d.astype(dtype), np.empty(want.shape, dtype))
    assert got.dtype == dtype and np.array_equal(got.astype(np.int64), want)
    assert np.array_equal(divides, want * d == t)


class TestFloorDivide:
    def test_every_int16_dividend(self):
        # float32 quotients: every dividend against the smallest and the largest divisors, two
        # divisors by 2^14 dividends a call into buffers made once, so that no call maps fresh pages
        t = np.arange(-(2**15), 2**15).reshape(4, 1, 2**14)
        want, product = np.empty((2, 2**14), np.int64), np.empty((2, 2**14), np.int64)
        got = np.empty((2, 2**14), np.int16)
        for divisors in (np.arange(1, 513), np.arange(32512, 32768)):
            for pair in divisors.reshape(-1, 2, 1):
                for part, lanes in zip(t, t.astype(np.int16)):
                    quotient, divides = _floor_divide(lanes, pair.astype(np.int16), got)
                    np.floor_divide(part, pair, out=want)
                    assert np.array_equal(quotient, want)
                    assert np.array_equal(divides, np.multiply(want, pair, out=product) == part)

    def test_int32_dividends(self):
        # float64 quotients: seeded pairs, the int32 extremes, and 2^24 + 1, past float32's mantissa
        rng = np.random.default_rng(7)
        edges = [INT32_MAX, -INT32_MAX, INT32_MAX - 1, -INT32_MAX + 1, 2**24 + 1, -(2**24) - 1]
        t = np.concatenate([rng.integers(-INT32_MAX, INT32_MAX, 100_000, endpoint=True), edges])
        d = np.concatenate([rng.integers(1, INT32_MAX, 100_000, endpoint=True), [1, 1, 2, 3, 1, 1]])
        for divisor in (d, d[::-1], rng.integers(1, 1000, t.size)):
            assert_floor_divides(t, divisor, np.int32)
        for divisor in (1, 3, INT32_MAX - 1, INT32_MAX):
            assert_floor_divides(t, np.full((1, 1), divisor), np.int32)

    def test_int64_lanes_and_scalar_divisors_divide_as_integers(self, monkeypatch):
        floor_divide, calls = np.floor_divide, []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return floor_divide(*args, **kwargs)

        monkeypatch.setattr(np, "floor_divide", counted)
        monkeypatch.setattr(np, "divide", lambda *args, **kwargs: pytest.fail("an integer path took the float unit"))
        # past float64's mantissa only the integer division is exact
        t, d = [2**62 + 1, -(2**62) - 1, 2**53 + 1, -7], [3, 3, 1, 2]
        got, divides = _floor_divide(np.array(t), np.array(d), np.empty(4, np.int64))
        assert got.tolist() == [u // v for u, v in zip(t, d)] and divides.tolist() == [False, False, True, False]
        for dtype in (np.int16, np.int32, np.int64):
            lanes = np.arange(-300, 300, dtype=dtype)
            got, divides = _floor_divide(lanes, np.asarray(7, dtype), np.empty_like(lanes))
            assert got.tolist() == [u // 7 for u in range(-300, 300)]
            assert divides.tolist() == [u % 7 == 0 for u in range(-300, 300)]
        assert calls == [(4,), (), (), ()]


class TestIndexRefusal:
    @pytest.mark.parametrize("a, b, low", [(0, 1, 0), (1, 0, 0), (-2, 3, -2), (2, -1, -1),
                                           ([[1], [0]], 1, 0), (1, [[2], [-5]], -5), ([[3], [2]], [[0], [1]], 0)])
    def test_an_index_below_one_is_refused(self, a, b, low):
        # once a lane at level 0, live, and a divide-by-zero warning
        with pytest.raises(ValueError, match=f"indices a and b must be >= 1, got {low}$"):
            x_monomial_apply_batch(0, a, b, 0, [False], [0], [1], [0])
        with pytest.raises(ValueError, match=f"indices a and b must be >= 1, got {low}$"):
            toeplitz_monomial_apply_batch(0, a, b, 0, [False], [0], [1])

    def test_indices_at_one_are_admitted(self):
        assert x_monomial_apply_batch(0, [[1], [2]], 1, 0, [False], [0], [1], [0])[2].tolist() == [[1], [2]]
        assert toeplitz_monomial_apply_batch(0, 1, [[1], [2]], 0, [False], [0], [2])[2].tolist() == [[2], [1]]


def prime_by_prime_word(mono):
    """s^m, v_a prime by prime, v_b* prime by prime, s*^n, zero powers dropped: the
    factored word that `_monomial_word`'s one token per generator must act like."""
    word = [GeneratorToken("s", power=mono.m)]
    word += [GeneratorToken("v", p, e) for p, e in factorize(mono.a)]
    word += [GeneratorToken("v", p, e, star=True) for p, e in factorize(mono.b)]
    word.append(GeneratorToken("s", power=mono.n, star=True))
    return [tok for tok in word if tok.power]


def assert_same_vectors(one, other):
    """Two runs of `_run_word` kill the same lanes and agree on every surviving lane;
    a killed lane's leftover values are not part of the action."""
    null, *out = one
    null2, *out2 = other
    assert np.array_equal(null, null2)
    for got, want in zip(out, out2):
        assert np.array_equal(got[~null], want[~null])


SMOOTH = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=8).map(math.prod)


class TestMonomialWord:
    def test_one_token_per_generator(self):
        assert _monomial_word(Monomial(2, 12, 1, 0)) == [
            GeneratorToken("s", power=2),
            GeneratorToken("v", 12),
            GeneratorToken("v", 1, star=True),
            GeneratorToken("s", power=0, star=True),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        mono=st.builds(Monomial, st.integers(0, 10**6), SMOOTH, SMOOTH, st.integers(0, 10**6)),
        data=st.data(),
    )
    def test_composite_index_acts_as_its_prime_factors(self, mono, data):
        b, n = mono.b, mono.n
        word, factored = _monomial_word(mono), prime_by_prime_word(mono)
        # fibered vectors, half of them ones the monomial does not kill: b | x and b | (r - n)
        levels = data.draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=12))
        ks = data.draw(st.lists(st.integers(0, 10**6), min_size=len(levels), max_size=len(levels)))
        xs = [level * b if i % 2 else level for i, level in enumerate(levels)]
        rs = [(k * b + n) % x if i % 2 else k % x for i, (k, x) in enumerate(zip(ks, xs))]
        basis = (np.array(rs, dtype=object), np.array(xs, dtype=object), np.zeros(len(xs), dtype=object))
        assert_same_vectors(_run_word(_x_step, word, *basis), _run_word(_x_step, factored, *basis))
        # shift vectors, again half of them surviving: b | (t - n)
        ts = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12))
        ts = np.array([t * b + n if i % 2 else t for i, t in enumerate(ts)], dtype=object)
        assert_same_vectors(_run_word(_z_step, word, ts), _run_word(_z_step, factored, ts))

    def test_semiprime_index_past_rho(self):
        # (10^14 + 31)(10^14 + 67): factoring it would stop at rho's step budget, and
        # acting by it is one multiplication on every model
        q = 100000000000031 * 100000000000067
        start = time.perf_counter()
        up, down = Monomial(0, q, 1, 0), Monomial(0, 1, q, 0)
        assert monomial_apply(up, SemigroupElement(3, 5)) == WeightedBasis(0, SemigroupElement(3 * q, 5 * q))
        assert monomial_apply(up, XBasis(3, 5)) == WeightedBasis(0, XBasis(3 * q, 5 * q))
        assert monomial_apply(up, -3) == WeightedBasis(0, -3 * q)
        assert monomial_apply(down, SemigroupElement(3 * q, 5 * q)) == WeightedBasis(0, SemigroupElement(3, 5))
        assert monomial_apply(down, XBasis(3 * q, 5 * q)) == WeightedBasis(0, XBasis(3, 5))
        assert monomial_apply(down, -3 * q) == WeightedBasis(0, -3)
        assert monomial_apply(down, XBasis(3, 5 * q)).is_null
        assert time.perf_counter() - start < 1.0


class TestOracleEquivalence:
    def test_product_matches_composition_sampled(self):
        rng = random.Random(47)
        monos = monomial_grid(2, (1, 2, 3, 4, 6))
        x_vectors = [XBasis(r, x) for x in range(1, 13) for r in range(x)]
        t_vectors = [SemigroupElement(j, c) for j in range(8) for c in (1, 2, 3, 4, 6)]
        for _ in range(400):
            left, right = rng.choice(monos), rng.choice(monos)
            product = monomial_mul(left, right)
            for e in (rng.choice(x_vectors), rng.choice(t_vectors)):
                inner = monomial_apply(right, e)
                if inner.is_null:
                    composed = NULL
                else:
                    composed = monomial_apply(left, inner.basis).scaled(inner.z_power)
                direct = monomial_apply(product, e) if not product.is_zero else NULL
                assert composed == direct, (left, right, e)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.builds(Monomial, st.integers(0, 10**15), st.integers(1, 10**3), st.integers(1, 10**3), st.integers(0, 10**15)),
        y=st.builds(Monomial, st.integers(0, 10**15), st.integers(1, 10**3), st.integers(1, 10**3), st.integers(0, 10**15)),
        t=st.integers(0, 10**15),
        u=st.integers(1, 10**3),
    )
    def test_product_matches_composition_property(self, x, y, t, u):
        product = monomial_mul(x, y)
        # vectors that w does not kill: after s*^n both components are multiples of b
        w = y if product.is_zero else product
        level = u * w.b
        for e in (XBasis((t * w.b + w.n) % level, level), SemigroupElement(w.n + t * w.b, level)):
            inner = monomial_apply(y, e)
            composed = NULL if inner.is_null else monomial_apply(x, inner.basis).scaled(inner.z_power)
            assert monomial_apply(product, e) == composed, (x, y, e)


def one_pass_profile(mono, n_max):
    """`_diagonal_profile` in one batch pass over the whole window, without level blocks."""
    reps, levels = _fibered_window(1, n_max)
    null, r2, x2, w2 = x_monomial_apply_batch(
        mono.m, mono.a, mono.b, mono.n, np.zeros(levels.shape, bool), reps, levels, np.zeros_like(levels)
    )
    diag = ~null & (r2 == reps) & (x2 == levels)
    w_vals, w_rank = np.unique(w2[diag], return_inverse=True)
    width = w_vals.size
    keys, counts = np.unique(levels[diag].astype(np.int64) * width + w_rank, return_counts=True)
    return tuple(zip((keys // width).tolist(), w_vals[keys % width].tolist(), counts.tolist()))


def block_boundaries(count):
    """The last level of each of the first `count` profile blocks: whole levels are
    added while a block holds at most _BLOCK_LANES lanes."""
    bounds, level = [], 0
    for _ in range(count):
        lanes = level + 1
        level += 1
        while lanes + level + 1 <= _BLOCK_LANES:
            level += 1
            lanes += level
        bounds.append(level)
    return bounds


class TestDiagonalProfile:
    def test_window_range_is_a_slice_of_the_whole(self):
        reps, levels = _fibered_window(1, 40)
        for first, last in ((1, 1), (1, 40), (7, 7), (12, 31), (40, 40)):
            part = slice((first - 1) * first // 2, last * (last + 1) // 2)
            got_reps, got_levels = _fibered_window(first, last)
            assert np.array_equal(got_reps, reps[part]) and np.array_equal(got_levels, levels[part])

    @pytest.mark.parametrize(
        "first, last, dtype",
        [(32766, 32767, np.int16), (32767, 32767, np.int16), (32767, 32768, np.int32), (32768, 32768, np.int32)],
    )
    def test_window_dtype_is_the_lane_dtype_of_its_last_level(self, first, last, dtype):
        reps, levels = _fibered_window(first, last)
        want_reps = np.concatenate([np.arange(x, dtype=np.int64) for x in range(first, last + 1)])
        want_levels = np.concatenate([np.full(x, x, dtype=np.int64) for x in range(first, last + 1)])
        assert reps.dtype == levels.dtype == dtype
        assert np.array_equal(reps, want_reps) and np.array_equal(levels, want_levels)
        for array in (reps, levels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("mono", [Monomial(2, 3, 3, 5), Monomial(0, 1, 1, 0), Monomial(5, 6, 6, 5)])
    def test_nonempty_profiles(self, mono):
        profile = _diagonal_profile.__wrapped__(mono, 500)
        assert profile and profile == one_pass_profile(mono, 500)

    def test_grid_sample(self):
        grid = monomial_grid(5, GRID_MULTS)
        assert len(grid) == 900
        for mono in random.Random(61).sample(grid, 60):
            assert _diagonal_profile.__wrapped__(mono, 500) == one_pass_profile(mono, 500), mono

    def test_around_block_boundaries(self):
        # 2^15-lane blocks at n_max = 500: whole levels 1-255, 256-361, 362-442 and 443-500
        bounds = block_boundaries(4)
        assert bounds == [255, 361, 442, 510]
        n_maxes = {1, 2, 500} | {n for last in bounds for n in (last - 1, last, last + 1) if n <= 500}
        for mono in (Monomial(2, 3, 3, 5), Monomial(0, 1, 1, 0), Monomial(1, 2, 2, 0), Monomial(3, 1, 1, 1)):
            for n_max in sorted(n_maxes):
                assert _diagonal_profile.__wrapped__(mono, n_max) == one_pass_profile(mono, n_max), (mono, n_max)

    @settings(max_examples=60, deadline=None)
    @given(
        mono=st.builds(Monomial, st.integers(0, 8), st.integers(1, 12), st.integers(1, 12), st.integers(0, 8)),
        n_max=st.integers(1, 400),
    )
    def test_matches_one_pass_property(self, mono, n_max):
        assert _diagonal_profile.__wrapped__(mono, n_max) == one_pass_profile(mono, n_max)


    def test_window_is_cached_and_read_only(self):
        _fibered_window.cache_clear()
        _diagonal_profile.__wrapped__(Monomial(2, 3, 3, 5), 500)
        cold = _fibered_window.cache_info()
        _diagonal_profile.__wrapped__(Monomial(0, 1, 1, 0), 500)
        warm = _fibered_window.cache_info()
        # the second cold profile at one n_max builds no window: one hit per block
        blocks = 1 + sum(last < 500 for last in block_boundaries(9))
        assert cold.misses == blocks == 4 and cold.hits == 0
        assert (warm.misses, warm.hits) == (cold.misses, cold.misses)
        for array in _fibered_window(1, 40):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("n_max", [1, 40, 500])
    def test_no_diagonal_hit(self, n_max):
        # a != b moves every vector to another level
        for mono in (Monomial(0, 2, 1, 0), Monomial(3, 1, 6, 2)):
            assert _diagonal_profile.__wrapped__(mono, n_max) == () == one_pass_profile(mono, n_max)

    @settings(max_examples=60, deadline=None)
    @given(
        mono=st.builds(Monomial, st.integers(0, 8), st.integers(1, 12), st.integers(1, 12), st.integers(0, 8)),
        first=st.integers(1, 60),
        width=st.integers(0, 20),
        wide=st.booleans(),
    )
    def test_scalar_null_and_w_match_arrays(self, mono, first, width, wide):
        """The profile's scalar null flag and zero z-exponent give the arrays and dtypes of the array form."""
        reps, levels = _fibered_window(first, first + width)
        # a shift past int32 puts the step on int64 lanes
        m = mono.m + (INT32_MAX if wide else 0)
        zero = levels.dtype.type(0)
        scalar = x_monomial_apply_batch(m, mono.a, mono.b, mono.n, False, reps, levels, zero)
        arrays = x_monomial_apply_batch(m, mono.a, mono.b, mono.n, np.zeros(levels.shape, bool), reps, levels,
                                        np.zeros_like(levels))
        assert scalar[1].dtype == (np.int64 if wide else levels.dtype)
        for got, want in zip(scalar, arrays):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


class TestTrace:
    def test_normalisation(self):
        res = trace_state(Monomial.identity(), 3.0, Fraction(0), 400)
        assert abs(res.value - 1.0) <= res.tail

    def test_diagonal_value(self):
        res = trace_state(Monomial(0, 2, 2, 0), 3.0, Fraction(0), 200)
        assert abs(res.value - 0.125) <= res.tail

    def test_shift_value(self):
        for angle in (Fraction(0), Fraction(1, 4), Fraction(1, 3)):
            import cmath, math

            z = cmath.exp(2j * math.pi * float(angle))
            res = trace_state(Monomial.s_power(1), 3.0, angle, 200)
            assert abs(res.value - z / zeta(2)) <= res.tail + 1e-12

    def test_exact_phase_at_large_shift(self):
        mono = Monomial.s_power(10**17)
        res = trace_state(mono, 3.0, Fraction(1, 2), 100)
        closed = evaluate(PsiBetaMu(3.0, CircleMeasure.point(Fraction(1, 2))), mono)
        assert abs(res.value - closed) <= res.tail + 1e-12
        assert abs(res.value.imag) < 1e-12  # every phase is +-1

    @pytest.mark.parametrize("n_max", [0, -3, 2.5])
    def test_rejects_bad_n_max(self, n_max):
        before = _diagonal_profile.cache_info()
        with pytest.raises(ValueError, match="n_max"):
            trace_state(Monomial.identity(), 3.0, Fraction(0), n_max)
        assert _diagonal_profile.cache_info() == before

    def test_rejects_low_beta(self):
        with pytest.raises(ValueError):
            trace_state(Monomial.identity(), 2.0, Fraction(0), 10)
        with pytest.raises(ValueError):
            trace_state(ZERO, 3.0, Fraction(0), 10)


class TestQProjector:
    def test_fixes_vacuum_and_kills_supported(self):
        assert q_projector_check([2], 8)
        assert q_projector_check([2, 3], 12)

    def test_examples(self):
        # e_(1 mod 2, 2) dies for E = {2}; e_(0 mod 3, 3) survives
        factors_report = q_projector_check([2], 6)
        assert factors_report is True

    @pytest.mark.parametrize("primes, window", [([2], 0), ([2], -3), ([], 8)])
    def test_rejects_empty_input(self, primes, window):
        with pytest.raises(ValueError):
            q_projector_check(primes, window)

    def test_a_stepper_that_is_no_projection_raises(self, monkeypatch):
        # a mutant v_p* that leaves the level undivided: s^k v_p v_p* s*^k sends
        # e_(0, p) to e_(0, p^2), which it neither fixes nor kills
        def keeps_level(tok, null, r, x, w):
            killed, r2, x2, w2 = _x_step(tok, null, r, x, w)
            return killed, r2, x if tok.kind == "v" and tok.star else x2, w2

        monkeypatch.setattr("affinetoeplitz.representation._x_step", keeps_level)
        with pytest.raises(AssertionError, match="did not act as a projection"):
            q_projector_check([2], 4)


def object_relation_suite(model, primes, window):
    """`relation_suite` stepped on object arrays of Python ints, exact at any size:
    the reference the int64 windows must reproduce, report for report."""
    report = {"model": model, "window": window, "relations": {}}

    def record(name, bad, counterexample):
        hits = np.flatnonzero(bad)
        entry = {"pass": not hits.size}
        if hits.size:
            entry["counterexample"] = counterexample(int(hits[0]))
        report["relations"][name] = entry

    if model == "x":
        r, x = (a.astype(object) for a in _fibered_window(1, window))
        step, basis = _x_step, (r, x, np.zeros(r.shape, dtype=object))
        locate = lambda i: {"r": r[i], "x": x[i]}
    else:
        n = np.arange(-window, window + 1).astype(object)
        step, basis = _z_step, (n,)
        locate = lambda i: {"n": n[i]}

    def check(name, lhs, rhs):
        null, *out = _run_word(step, lhs, *basis)
        if rhs is None:
            bad = ~null
        else:
            null2, *out2 = _run_word(step, rhs, *basis)
            moved = np.logical_or.reduce([got != want for got, want in zip(out, out2)])
            bad = (null != null2) | (~null & moved)
        record(name, bad, locate)

    s, s_star = GeneratorToken("s"), GeneratorToken("s", star=True)
    v = {p: GeneratorToken("v", p) for p in primes}
    v_star = {p: GeneratorToken("v", p, star=True) for p in primes}
    if model == "x":
        for p in primes:
            check(f"T1[p={p}]", [v[p], s], [GeneratorToken("s", power=p), v[p]])
            check(f"T4[p={p}]", [s_star, v[p]], [GeneratorToken("s", power=p - 1), v[p], s_star])
            for k in range(1, p):
                check(f"T5[p={p},k={k}]", [v_star[p], GeneratorToken("s", power=k), v[p]], None)
        for p in primes:
            for q in primes:
                if p < q:
                    check(f"T2[p={p},q={q}]", [v[p], v[q]], [v[q], v[p]])
                if p != q:
                    check(f"T3[p={p},q={q}]", [v_star[p], v[q]], [v[q], v_star[p]])
        return report

    for p in primes:
        check(f"Q1[p={p}]", [v[p], s], [GeneratorToken("s", power=p), v[p]])
    for p in primes:
        for q in primes:
            if p < q:
                check(f"Q2[p={p},q={q}]", [v[p], v[q]], [v[q], v[p]])
    check("Q6", [s, s_star], [])
    for p in primes:
        hits = np.zeros(n.shape, dtype=np.int64)
        for k in range(p):
            null, moved = _run_word(step, _monomial_word(Monomial(k, p, p, k)), *basis)
            hits += ~null & (moved == n)
        record(f"Q5[p={p}]", hits != 1, lambda i: {"n": n[i], "hits": int(hits[i])})
    return report


def object_q_projector_check(primes, window):
    """`q_projector_check` stepped on object arrays of Python ints, the reference for its int64 window."""
    reps, levels = _fibered_window(1, window)
    r, x, w = reps.astype(object), levels.astype(object), np.zeros(reps.shape, dtype=object)
    alive = np.ones(r.shape, bool)
    for p in primes:
        for j in range(p):
            null, r2, x2, w2 = _run_word(_x_step, _monomial_word(Monomial(j, p, p, j)), r, x, w)
            fixed = ~null & (r2 == r) & (x2 == x) & (w2 == 0)
            if np.any(alive & ~null & ~fixed):
                raise AssertionError("range projection did not act as a projection on a basis vector")
            alive &= ~fixed
    support = set(primes)
    must_die = np.array([False] + [all(p in support for p, _ in factorize(v)) for v in range(2, window + 1)])
    return bool(alive[0]) and not np.any(alive & must_die[levels - 1])


# index sets over the composite indices 1, 2, 4, 6 and 9 and the primes up to 13
INDEX_SETS = [[1], [2], [4], [6], [9], [1, 2], [2, 4], [4, 6, 9], [1, 2, 4, 6, 9], [2, 3, 5, 7, 11, 13], [2, 9, 13]]


def assert_same_report(got, want):
    assert got == want
    assert repr(got) == repr(want)


class TestInt64RelationWindows:
    @pytest.mark.parametrize("primes", INDEX_SETS, ids=lambda primes: "-".join(map(str, primes)))
    def test_reports_equal_the_object_reference_on_the_grid(self, primes):
        for window in range(1, 21):
            assert_same_report(relation_suite("x", primes, window), object_relation_suite("x", primes, window))
            assert q_projector_check(primes, window) is object_q_projector_check(primes, window)
        for window in [*range(1, 41), *range(41, 200, 8), 200]:
            assert_same_report(relation_suite("z", primes, window), object_relation_suite("z", primes, window))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 13), min_size=1, max_size=4, unique=True), st.data())
    def test_reports_equal_the_object_reference_property(self, primes, data):
        window = data.draw(st.integers(1, 20))
        assert_same_report(relation_suite("x", primes, window), object_relation_suite("x", primes, window))
        assert q_projector_check(primes, window) is object_q_projector_check(primes, window)
        window = data.draw(st.integers(1, 200))
        assert_same_report(relation_suite("z", primes, window), object_relation_suite("z", primes, window))

    def test_bound_is_refused_before_any_allocation(self):
        # (2^32 + 65521) * 65521^2 passes int64: refused at once, with no window built
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="passes 9223372036854775807"):
                relation_suite("z", [65521], 2**32)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 1 << 16
        with pytest.raises(ValueError, match="passes"):
            q_projector_check([65521], 2**32)

    def test_largest_window_under_the_bound_is_admitted(self):
        top = _MAX_GENERATOR_INDEX
        largest = (2**63 - 1) // top**2 - top
        _check_window([top], largest)
        with pytest.raises(ValueError, match="passes"):
            _check_window([top], largest + 1)

    @pytest.mark.parametrize("fn, args", [(relation_suite, ("x", [2, 65537], 3)), (relation_suite, ("z", [10**9 + 7], 3)),
                                          (q_projector_check, ([65537], 3))])
    def test_index_past_the_cap_is_refused(self, fn, args):
        with pytest.raises(ValueError, match=f"generator index {max(args[-2])} is past 65536"):
            fn(*args)

    @pytest.mark.parametrize("budget", [1, 10, 25])
    def test_reports_equal_the_object_reference_across_k_blocks(self, monkeypatch, budget):
        # a lane budget of a few k-rows: T5, Q5 and the projector product span
        # several blocks, the last one partial (at budget 25, window 3: 11 k in 4, 4, 3)
        monkeypatch.setattr("affinetoeplitz.representation._BLOCK_LANES", budget)
        assert [len(k) for k in _k_blocks(range(11), 6)] == {1: [1] * 11, 10: [1] * 11, 25: [4, 4, 3]}[budget]
        for primes in ([2, 9, 11, 13], [4, 7]):
            for window in range(1, 7):
                assert_same_report(relation_suite("x", primes, window), object_relation_suite("x", primes, window))
                assert q_projector_check(primes, window) is object_q_projector_check(primes, window)
                assert_same_report(relation_suite("z", primes, window), object_relation_suite("z", primes, window))

    def test_index_at_the_cap_is_admitted(self):
        _check_window([_MAX_GENERATOR_INDEX], 1)
        # the largest prime under the cap, each family's k < 65521 run in blocks of
        # _BLOCK_LANES lanes (256 KB an int64 array): the shift model and the
        # projector stay under 4 MB, and the fibered report, T1, T4 and 65,520 T5
        # entries, adds under 400 B an entry
        for window in (2, 20):
            for fn, args, want, bound in [(relation_suite, ("x", [65521], window), 65522, (4 << 20) + 400 * 65522),
                                          (relation_suite, ("z", [65521], window), 3, 4 << 20),
                                          (q_projector_check, ([65521], window), None, 4 << 20)]:
                tracemalloc.start()
                try:
                    got = fn(*args)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < bound, (fn.__name__, args, peak)
                if want is None:
                    assert got is True
                else:
                    assert len(got["relations"]) == want and all(entry["pass"] for entry in got["relations"].values())


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (XBasis, (0, 0), "level must be >= 1"),
        (XBasis, (3, 2), "representative 3 outside"),
        (relation_suite, ("y", [2], 3), "unknown model 'y'"),
    ],
)
def test_error_branches(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
