import random
from math import inf

import pytest

from affinetoeplitz.numtheory import NABLA, ResidueClass, SupernaturalNumber
from affinetoeplitz.semigroup import SemigroupElement
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


class TestDecompose:
    def test_example(self):
        b = BPoint(ResidueFamily.from_residue(7, 12), sn(12))
        parts = decompose(b)
        assert {(p, t.value, t.modulus) for p, t in parts.items()} == {(2, 3, 4), (3, 1, 3)}
        back = recompose(parts)
        assert back.r.at(12) == 7

    def test_trivial(self):
        b = BPoint(ResidueFamily.from_residue(0, 1), sn(1))
        assert decompose(b) == {}
        assert recompose({}).r.at(1) == 0

    def test_crt_search_oracle(self):
        parts = {2: ResidueClass(4, 1), 3: ResidueClass(3, 1)}
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
            back = recompose(decompose(b), b.N)
            assert back.r.at(modulus) == value


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

    def test_random_points(self):
        rng = random.Random(29)
        for _ in range(60):
            if rng.random() < 0.5:
                point = APoint(rng.randrange(0, 30), sn(rng.choice([1, 2, 6, 12, 24, 36, 60])))
            else:
                point = BPoint(ResidueFamily.from_int(rng.randrange(0, 60)), rng.choice([NABLA, sn(12), sn(36)]))
            assert verify_hereditary_directed(point, 12)


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
