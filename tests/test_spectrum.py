import math
import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz import spectrum
from affinetoeplitz.numtheory import NABLA, SupernaturalNumber
from affinetoeplitz.semigroup import SemigroupElement, join
from affinetoeplitz.spectrum import (
    APoint,
    BPoint,
    LevelExceededError,
    ResidueFamily,
    boundary_act,
    contains,
    decompose,
    includes,
    point_from_json,
    point_to_json,
    recompose,
    verify_hereditary_directed,
)
from conftest import enumerate_members
from test_acceptance import _random_point


def sn(n):
    return SupernaturalNumber.from_int(n)


class TestContains:
    def test_a_point(self):
        w = APoint(4, sn(12))
        assert contains(w, SemigroupElement(0, 2))
        assert not contains(w, SemigroupElement(5, 2))
        assert not contains(w, SemigroupElement(0, 5))  # 5 does not divide 12
        assert contains(w, SemigroupElement(4, 4))

    def test_b_point_on_boundary(self):
        w = BPoint(ResidueFamily.from_int(1), NABLA)
        assert contains(w, SemigroupElement(3, 2))
        assert not contains(w, SemigroupElement(2, 2))
        assert contains(w, SemigroupElement(7, 6))

    def test_level_exceeded(self):
        w = BPoint(ResidueFamily.from_residue(1, 4), SupernaturalNumber.from_exponents({2: inf}))
        assert contains(w, SemigroupElement(5, 4))
        with pytest.raises(LevelExceededError):
            contains(w, SemigroupElement(1, 8))

    def test_family_level_bookkeeping(self):
        table = ResidueFamily.from_residue(17, 12)
        assert table == ResidueFamily(5, 12)
        assert table.at(6) == 5
        with pytest.raises(LevelExceededError):
            table.at(8)
        generated = ResidueFamily.from_int(5)
        assert generated.level is None and generated.at(8) == 5
        with pytest.raises(ValueError):
            ResidueFamily.from_int(5).at(0)
        with pytest.raises(ValueError):
            ResidueFamily.from_residue(1, 0)


class TestIncludes:
    def test_b_in_b(self):
        small = BPoint(ResidueFamily.from_int(1), SupernaturalNumber.from_exponents({2: inf}))
        big = BPoint(ResidueFamily.from_int(1), NABLA)
        assert includes(big, small, 64)
        assert not includes(small, big, 64)

    def test_b_never_in_a(self):
        a = APoint(10, NABLA)
        b = BPoint(ResidueFamily.from_int(0), NABLA)
        assert not includes(a, b, 20)
        assert includes(b, APoint(0, sn(1)), 20)  # A(0,1) = {(0,1)} sits in everything containing (0,1)

    def test_a_in_a_finite(self):
        assert includes(APoint(9, sn(12)), APoint(3, sn(6)), 12)
        assert not includes(APoint(8, sn(12)), APoint(3, sn(6)), 12)  # 8-3 not divisible by 6
        assert not includes(APoint(3, sn(6)), APoint(9, sn(12)), 12)  # 12 does not divide 6

    def test_a_in_a_infinite_needs_equal_caps(self):
        n2 = SupernaturalNumber.from_exponents({2: inf})
        assert includes(APoint(5, NABLA), APoint(5, n2), 32)
        assert not includes(APoint(7, NABLA), APoint(5, n2), 32)

    def test_membership_consistency_random(self):
        rng = random.Random(13)
        pool = []
        for _ in range(60):
            modulus = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
            pool.append(APoint(rng.randrange(0, 15), sn(rng.choice([1, 2, 4, 6, 12, 24, 36]))))
            pool.append(BPoint(ResidueFamily.from_int(rng.randrange(0, 24)), sn(rng.choice([1, 2, 4, 6, 12, 24]))))
            pool.append(BPoint(ResidueFamily.from_residue(rng.randrange(modulus), modulus), sn(modulus)))
        bound = 12
        for _ in range(1000):
            w1, w2 = rng.choice(pool), rng.choice(pool)
            try:
                verdict = includes(w1, w2, bound)
            except LevelExceededError:
                continue
            members = enumerate_members(w2, bound)
            if verdict:
                assert all(contains(w1, x) for x in members)

    def test_distinctness(self):
        # A- and B-points with matching parameters still differ as sets
        a = APoint(6, sn(6))
        b = BPoint(ResidueFamily.from_int(6), sn(6))
        assert enumerate_members(a, 8) != enumerate_members(b, 8)
        assert not includes(a, b, 8)


class TestBoundaryAction:
    def test_identity_and_example(self):
        r = BPoint(ResidueFamily.from_int(5), NABLA)
        assert boundary_act(SemigroupElement(0, 1), r) == r
        moved = boundary_act(SemigroupElement(1, 2), BPoint(ResidueFamily.from_int(0), NABLA))
        assert all(moved.r.at(level) == 1 % level for level in range(1, 20))

    def test_action_axiom(self):
        r = BPoint(ResidueFamily.from_int(3), NABLA)
        two = SemigroupElement(0, 2)
        four = SemigroupElement(0, 4)
        assert boundary_act(two, boundary_act(two, r)) == boundary_act(four, r)

    def test_composition_exact_to_level_50(self):
        rng = random.Random(19)
        for _ in range(200):
            x = SemigroupElement(rng.randrange(0, 11), rng.randrange(1, 11))
            y = SemigroupElement(rng.randrange(0, 11), rng.randrange(1, 11))
            r = BPoint(ResidueFamily.from_int(rng.randrange(0, 1000)), NABLA)
            lhs = boundary_act(x, boundary_act(y, r))
            rhs = boundary_act(x * y, r)
            assert all(lhs.r.at(level) == rhs.r.at(level) for level in range(1, 51))

    def test_table_level_is_preserved(self):
        r = BPoint(ResidueFamily.from_residue(7, 12), NABLA)
        moved = boundary_act(SemigroupElement(5, 7), r)
        assert moved.r.level == 12
        assert moved.r.at(12) == (5 + 7 * 7) % 12

    @pytest.mark.parametrize(
        "N",
        [sn(2), SupernaturalNumber.from_exponents({2: inf}), SupernaturalNumber.from_exponents({3: 2}, default=inf)],
    )
    def test_refused_off_the_boundary(self, N):
        # the image of B(1, 2) under (0, 3) is B(3, 6), not B(3, 2): off N = NABLA the modulus moves too
        for r in (ResidueFamily.from_int(1), ResidueFamily.from_residue(1, 2)):
            with pytest.raises(ValueError, match="boundary points"):
                boundary_act(SemigroupElement(0, 3), BPoint(r, N))


class TestDecompose:
    def test_example(self):
        b = BPoint(ResidueFamily.from_residue(7, 12), sn(12))
        parts = decompose(b)
        assert {(p, t.value, t.level) for p, t in parts.items()} == {(2, 3, 4), (3, 1, 3)}
        back = recompose(parts)
        assert back.r.at(12) == 7

    def test_trivial(self):
        b = BPoint(ResidueFamily.from_residue(0, 1), sn(1))
        assert decompose(b) == {}
        assert recompose({}) == BPoint(ResidueFamily(0, 1), sn(1))
        parts = decompose(BPoint(ResidueFamily.from_residue(0, 360), sn(360)))
        assert sorted((p, t.level) for p, t in parts.items()) == [(2, 8), (3, 9), (5, 5)]
        assert all(t.value == 0 for t in parts.values())

    def test_crt_search_oracle(self):
        parts = {2: ResidueFamily(1, 4), 3: ResidueFamily(1, 3)}
        matches = [v for v in range(12) if v % 4 == 1 and v % 3 == 1]
        assert matches == [1]
        assert recompose(parts).r.at(12) == 1

    def test_error_paths(self):
        infinite = BPoint(ResidueFamily.from_int(3), NABLA)
        with pytest.raises(ValueError):
            decompose(infinite)  # needs an explicit level
        assert decompose(infinite, level=12)[2].value == 3 % 4
        finite = BPoint(ResidueFamily.from_residue(1, 4), sn(4))
        with pytest.raises(ValueError):
            decompose(finite, level=3)  # 3 does not divide the modulus

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(1000):
            modulus = rng.randrange(1, 10_001)
            value = rng.randrange(modulus)
            b = BPoint(ResidueFamily.from_residue(value, modulus), sn(modulus))
            back = recompose(decompose(b))
            assert back.r.at(modulus) == value

    def test_round_trip_all_moduli_to_1e4(self):
        rng = random.Random(1)
        for n in range(1, 10_001):
            for v in {0, n - 1, rng.randrange(n)}:
                b = BPoint(ResidueFamily(v, n), sn(n))
                assert recompose(decompose(b)) == b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    def test_round_trip_property(self, case):
        n, v = case
        b = BPoint(ResidueFamily(v, n), sn(n))
        parts = decompose(b)
        assert math.prod(t.level for t in parts.values()) == n
        assert all(t.value == v % t.level for t in parts.values())
        assert recompose(parts) == b

    def test_recompose_rejects_non_coprime(self):
        # a shared factor between neighbours and between non-neighbours, and a repeated level
        for levels in ((4, 6), (3, 5, 9), (7, 7)):
            with pytest.raises(ValueError, match="pairwise coprime"):
                recompose(dict(enumerate(ResidueFamily(1, level) for level in levels)))

    def test_recompose_rejects_unleveled(self):
        # an integer family has no finite level to combine at
        with pytest.raises(ValueError, match="finite"):
            recompose({2: ResidueFamily(1, 4), 3: ResidueFamily.from_int(1)})


class TestHereditaryDirected:
    def test_examples(self):
        assert verify_hereditary_directed(APoint(4, sn(12)), 12)
        assert verify_hereditary_directed(BPoint(ResidueFamily.from_int(1), NABLA), 10)
        adhoc = {SemigroupElement(0, 1), SemigroupElement(1, 1), SemigroupElement(0, 2), SemigroupElement(1, 2)}
        assert not verify_hereditary_directed(adhoc, 2)

    def test_non_hereditary_set(self):
        # (2,2) present but (0,2) below it missing
        broken = {SemigroupElement(0, 1), SemigroupElement(1, 1), SemigroupElement(2, 1), SemigroupElement(2, 2)}
        assert not verify_hereditary_directed(broken, 2)

    def test_missing_join(self):
        # hereditary, and every pair has a join, but the join (0, 6) of (0, 2)
        # and (0, 3) lies in the window and is missing
        members = {SemigroupElement(0, 1), SemigroupElement(0, 2), SemigroupElement(0, 3)}
        assert not verify_hereditary_directed(members, 6)
        assert verify_hereditary_directed(members | {SemigroupElement(0, 6)}, 6)
        # at bound 5 that join lies past the window, and the set passes
        assert verify_hereditary_directed(members, 5)

    def test_joinless_pair(self):
        # the full window is hereditary, but (0, 2) and (1, 2) have no common upper bound
        window = {SemigroupElement(m, a) for m in range(3) for a in (1, 2)}
        assert not verify_hereditary_directed(window, 2)
        assert verify_hereditary_directed({x for x in window if x.m % 2 == 0 or x.a == 1}, 2)

    def test_join_on_the_window_edge(self):
        # every join is present but (0, 2) v (3, 1) = (4, 2), whose l is the bound itself
        below = {SemigroupElement(m, 1) for m in range(4)} | {SemigroupElement(0, 2), SemigroupElement(2, 2)}
        assert not verify_hereditary_directed(below, 4)
        assert verify_hereditary_directed(below | {SemigroupElement(4, 1), SemigroupElement(4, 2)}, 4)
        # with bound 3 that join lies past the window, and the set passes
        assert verify_hereditary_directed(below, 3)

    def test_empty_window_fails(self):
        # (0, 1) lies below every element and in every window: a nonempty
        # hereditary set always meets the window
        assert not verify_hereditary_directed(set(), 3)
        assert not verify_hereditary_directed({SemigroupElement(100, 1)}, 5)
        assert not verify_hereditary_directed({SemigroupElement(0, 7)}, 6)

    def test_bound_ceiling(self, monkeypatch):
        point = BPoint(ResidueFamily.from_int(1), NABLA)
        with pytest.raises(ValueError, match="^bound must be <= 1024, got 1025$"):
            verify_hereditary_directed(point, 1025)
        with pytest.raises(ValueError, match="^bound must be <= 1024, got 1000000000$"):
            verify_hereditary_directed(set(), 10**9)
        # refused before any window is built: a point whose window would raise is refused the same way
        monkeypatch.setattr(spectrum, "_BOUND_CEILING", 4)
        assert verify_hereditary_directed(point, 4)
        with pytest.raises(ValueError, match="^bound must be <= 4, got 5$"):
            verify_hereditary_directed(BPoint(ResidueFamily(1, 2), NABLA), 5)

    def test_random_points(self):
        rng = random.Random(29)
        for _ in range(60):
            if rng.random() < 0.5:
                point = APoint(rng.randrange(0, 30), sn(rng.choice([1, 2, 6, 12, 24, 36, 60])))
            else:
                point = BPoint(ResidueFamily.from_int(rng.randrange(0, 60)), rng.choice([NABLA, sn(12), sn(36)]))
            assert verify_hereditary_directed(point, 12)


def hereditary_directed_by_pairs(members, bound):
    """The check by one `join` call per pair of window members: the oracle
    for the check grouped by pairs of multiplicative parts."""
    member_set = set(members)
    window = [x for x in member_set if x.m <= bound and x.a <= bound]
    for xm, xa in window:
        for b in range(1, xa + 1):
            if xa % b == 0 and any((m, b) not in member_set for m in range(xm, -1, -b)):
                return False
    for i, x in enumerate(window):
        for y in window[i + 1 :]:
            jn = join(x, y)
            if jn is None:
                return False
            if jn.l <= bound and jn.lcm <= bound and (jn.l, jn.lcm) not in member_set:
                return False
    return True


def down_closure(elements):
    return {
        SemigroupElement(m, b)
        for xm, xa in elements
        for b in range(1, xa + 1)
        if xa % b == 0
        for m in range(xm, -1, -b)
    }


@st.composite
def member_sets(draw):
    bound = draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, bound + 2), st.integers(1, bound + 2))
    if draw(st.booleans()):
        members = down_closure(draw(st.lists(cell, max_size=4)))
    else:
        members = {SemigroupElement(m, a) for m, a in draw(st.sets(cell, max_size=3 * bound))}
    return frozenset(members), bound


class TestHereditaryDirectedOracle:
    """`verify_hereditary_directed` against one `join` call per pair."""

    @settings(max_examples=400, deadline=None)
    @given(member_sets())
    def test_matches_pairwise_joins(self, case):
        members, bound = case
        window_empty = all(x.m > bound or x.a > bound for x in members)
        want = not window_empty and hereditary_directed_by_pairs(members, bound)
        assert verify_hereditary_directed(members, bound) == want

    def test_criterion_12_points(self):
        rng = random.Random(99)
        for _ in range(100):
            point = _random_point(rng)
            assert hereditary_directed_by_pairs(enumerate_members(point, 20), 20)
            assert verify_hereditary_directed(point, 20)
            assert verify_hereditary_directed(enumerate_members(point, 20), 20)


class TestJson:
    def test_round_trip(self):
        points = [
            APoint(4, sn(12)),
            BPoint(ResidueFamily.from_int(7), NABLA),
            BPoint(ResidueFamily.from_residue(7, 12), sn(12)),
        ]
        for point in points:
            assert point_from_json(point_to_json(point)) == point

    def test_spec_shapes(self):
        obj = point_to_json(APoint(4, sn(12)))
        assert obj == {"kind": "A", "k": 4, "N": {"factors": {"2": 2, "3": 1}, "default": 0}}
        obj = point_to_json(BPoint(ResidueFamily.from_residue(7, 12), sn(12)))
        assert obj["kind"] == "B" and obj["generator"] == 7 and obj["level"] == 12
        obj = point_to_json(BPoint(ResidueFamily.from_int(-3), NABLA))
        assert obj == {"kind": "B", "generator": -3, "N": {"factors": {}, "default": "inf"}}

    def test_rejects_inexact_leaves(self):
        n = {"factors": {}, "default": "inf"}
        for obj in (
            {"kind": "A", "k": [1], "N": n},
            {"kind": "A", "k": 0.5, "N": n},
            {"kind": "B", "generator": None, "N": n},
            {"kind": "B", "generator": 1, "level": 1.5, "N": n},
            {"kind": "B", "generator": 1, "level": 0, "N": n},
        ):
            with pytest.raises(ValueError):
                point_from_json(obj)


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (APoint, (-1, NABLA), "cap must be >= 0"),
        # a level below 1 would test no divisor, so two different sets would pass as nested
        (includes, (BPoint(ResidueFamily(1), NABLA), BPoint(ResidueFamily(0), NABLA), 0), "^level must be >= 1, got 0$"),
        (decompose, (BPoint(ResidueFamily(1), sn(12)), 0), "^level must be >= 1, got 0$"),
    ],
)
def test_error_branches(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
