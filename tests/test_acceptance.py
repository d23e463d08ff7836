"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines
and timings.  Tolerances and grids are fixed here, not configurable.
"""

import functools
import math
import random
import time
from fractions import Fraction
from math import gcd, inf

import numpy as np

from affinetoeplitz.algebra import ZERO, Monomial, adjoint, monomial_mul, reduce_word
from affinetoeplitz.bostconnes import (
    DirichletCharacter,
    bc_reconstruct_check,
    char_euler_sum,
    invariance_ratio,
)
from affinetoeplitz.numtheory import NABLA, SupernaturalNumber, first_primes, float_power, zeta
from affinetoeplitz.representation import (
    relation_suite,
    toeplitz_monomial_apply_batch,
    trace_state,
    x_monomial_apply_batch,
)
from affinetoeplitz.semigroup import SemigroupElement, euclid_smallest, join
from affinetoeplitz.spectrum import (
    APoint,
    BPoint,
    ResidueFamily,
    boundary_act,
    includes,
    verify_hereditary_directed,
)
from affinetoeplitz.states import (
    CircleMeasure,
    Ground,
    PrimeWindow,
    PsiBeta,
    PsiBetaMu,
    VectorState,
    conditional_mass,
    evaluate,
    evaluate_exact,
    ground_check,
    kms_characterisation_check,
    measure_cylinder,
    moment,
    no_kms_witness,
    partition_sum,
    reconstruct_sn,
)
from conftest import enumerate_members, gram_matrix, tabulate_products

MEASURES = {
    "delta_1": CircleMeasure.point(0),
    "delta_i": CircleMeasure.point(Fraction(1, 4)),
    "delta_omega": CircleMeasure.point(Fraction(1, 3)),
    "lebesgue": CircleMeasure.lebesgue(),
    "two_atom": CircleMeasure.from_atoms(
        [(Fraction(1, 8), Fraction(1, 4)), (Fraction(2, 3), Fraction(3, 4))]
    ),
}

KMS_STATES = [PsiBeta(1.0), PsiBeta(1.5), PsiBeta(2.0)] + [
    PsiBetaMu(beta, mu) for beta in (2.5, 3.0) for mu in MEASURES.values()
]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


# --------------------------------------------------------------------------
# 1. relation suite through the rewriter
# --------------------------------------------------------------------------


def test_criterion_01_relation_suite():
    start = time.monotonic()
    failures = []

    def same(lhs: str, rhs: str, tag: str) -> None:
        if reduce_word(lhs, True) != reduce_word(rhs, True):
            failures.append(tag)

    def dead(word: str, tag: str) -> None:
        if reduce_word(word, True) != ZERO:
            failures.append(tag)

    primes = first_primes(15)
    for p in primes:
        same(f"v{p} s", f"s^{p} v{p}", f"T1[{p}]")
        same(f"s* v{p}", f"s^{p - 1} v{p} s*", f"T4[{p}]")
        for k in range(1, p):
            dead(f"v{p}* s^{k} v{p}", f"T5[{p},{k}]")
        for q in primes:
            if p != q:
                same(f"v{p} v{q}", f"v{q} v{p}", f"T2[{p},{q}]")
                same(f"v{p}* v{q}", f"v{q} v{p}*", f"T3[{p},{q}]")
    for a in range(2, 31):
        same(f"v{a} s", f"s^{a} v{a}", f"T1'[{a}]")
        same(f"s* v{a}", f"s^{a - 1} v{a} s*", f"T4'[{a}]")
        for k in range(1, a):
            dead(f"v{a}* s^{k} v{a}", f"T5'[{a},{k}]")
        for b in range(2, 31):
            same(f"v{a} v{b}", f"v{b} v{a}", f"T2'[{a},{b}]")
            if gcd(a, b) == 1:
                same(f"v{a}* v{b}", f"v{b} v{a}*", f"T3'[{a},{b}]")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(1, "relation suite", ok, f"{elapsed:.2f}s, failures={failures[:3]}")


# --------------------------------------------------------------------------
# 2. euclid and join against exhaustive search
# --------------------------------------------------------------------------


def test_criterion_02_euclid_join_oracle():
    start = time.monotonic()
    bad = None
    for c in range(1, 21):
        for d in range(1, 21):
            if gcd(c, d) != 1:
                continue
            for k in range(-100, 101):
                alpha, beta = euclid_smallest(c, d, k)
                if alpha * c - beta * d != k:
                    bad = ("identity", c, d, k)
                    break
                if k >= 0:
                    brute = 0
                    while (brute * c - k) % d != 0 or brute * c < k:
                        brute += 1
                    if alpha != brute:
                        bad = ("alpha", c, d, k)
                        break
                else:
                    brute = 0
                    while (brute * d + k) % c != 0 or brute * d < -k:
                        brute += 1
                    if beta != brute:
                        bad = ("beta", c, d, k)
                        break
            if bad:
                break
        if bad:
            break

    if bad is None:
        for m in range(30):
            for n in range(30):
                for a in range(1, 13):
                    for b in range(1, 13):
                        expected = None
                        for t in range(max(m, n), max(m, n) + a * b + 1):
                            if t >= m and (t - m) % a == 0 and t >= n and (t - n) % b == 0:
                                expected = t
                                break
                        got = join(SemigroupElement(m, a), SemigroupElement(n, b))
                        if expected is None:
                            if got is not None:
                                bad = ("join-extra", m, a, n, b)
                        elif got is None or got.l != expected or got.lcm != a * b // gcd(a, b):
                            bad = ("join", m, a, n, b)
                    if bad:
                        break
    elapsed = time.monotonic() - start
    report(2, "euclid/join oracle", bad is None and elapsed < 5.0, f"{elapsed:.2f}s, bad={bad}")


# --------------------------------------------------------------------------
# 3. rewriter against the basis-level models
# --------------------------------------------------------------------------


def _pack_x(null, r, x, w):
    """One int32 code per fibered result; -1 encodes the annihilated vector."""
    code = ((w.astype(np.int32) + 64) << 24) | (x.astype(np.int32) << 12) | r.astype(np.int32)
    return np.where(null, np.int32(-1), code)


def _pack_t(null, j, c):
    code = (c.astype(np.int32) << 12) | j.astype(np.int32)
    return np.where(null, np.int32(-1), code)


def test_criterion_03_rewriter_vs_representation(grid_monomials, product_table):
    """Product monomials act exactly as composed actions, on both models.

    Both sides of every pair comparison are deduplicated: the left side over
    distinct product monomials, the right over distinct intermediate vectors,
    with packed integer codes standing for (possibly annihilated) weighted
    basis vectors.  The codes are exact, including the formal z-exponent.
    """
    start = time.monotonic()
    build_seconds, distinct, pinv = product_table
    size = len(grid_monomials)
    params = {
        name: np.array([[getattr(x, name)] for x in grid_monomials], dtype=np.int32)
        for name in ("m", "a", "b", "n")
    }

    # fibered window: every (r, x) with x <= 36, exact formal phases
    xr = np.concatenate([np.arange(x) for x in range(1, 37)]).astype(np.int32)
    xx = np.concatenate([np.full(x, x) for x in range(1, 37)]).astype(np.int32)
    # left-regular window: components <= (20, 12)
    tj = np.repeat(np.arange(21, dtype=np.int32), 12)
    tc = np.tile(np.arange(1, 13, dtype=np.int32), 21)

    def x_apply_codes(m, a, b, n, null, r, x, w):
        return _pack_x(*x_monomial_apply_batch(m, a, b, n, null, r, x, w))

    def t_apply_codes(m, a, b, n, null, j, c):
        return _pack_t(*toeplitz_monomial_apply_batch(m, a, b, n, null, j, c))

    # act with each distinct product once; ZERO acts as the identity here and
    # its rows are overwritten with the annihilated code below
    uz = np.array([p.is_zero for p in distinct])
    products = np.array([(p.m, p.a or 1, p.b or 1, p.n) for p in distinct], dtype=np.int32)

    mismatch = None
    for window, apply_codes, rest in (
        ((xr, xx), x_apply_codes, True),
        ((tj, tc), t_apply_codes, False),
    ):
        if rest:
            base = (np.zeros(xr.shape, bool), xr, xx, np.zeros(xr.shape, np.int32))
        else:
            base = (np.zeros(tj.shape, bool), tj, tc)
        nvec = base[1].shape[0]

        # left side: distinct products applied to the window
        lhs_table = apply_codes(*products.T[:, :, None], *base)
        lhs_table[uz.nonzero()[0], :] = -1

        # right side: distinct intermediates, then every left factor on them
        if rest:
            un, ur, ux, uw = x_monomial_apply_batch(
                params["m"], params["a"], params["b"], params["n"], *base
            )
            ucode = _pack_x(un, ur, ux, uw)
        else:
            un, uj, uc = toeplitz_monomial_apply_batch(
                params["m"], params["a"], params["b"], params["n"], *base
            )
            ucode = _pack_t(un, uj, uc)
        uniq_u, uinv = np.unique(ucode, return_inverse=True)
        uinv = uinv.reshape(size, nvec)
        null_u = uniq_u == -1
        if rest:
            wu = np.where(null_u, 0, (uniq_u >> 24) - 64).astype(np.int32)
            xu = np.where(null_u, 1, (uniq_u >> 12) & 0xFFF).astype(np.int32)
            ru = np.where(null_u, 0, uniq_u & 0xFFF).astype(np.int32)
            rhs_table = x_apply_codes(
                params["m"], params["a"], params["b"], params["n"], null_u, ru, xu, wu
            )
        else:
            cu = np.where(null_u, 1, uniq_u >> 12).astype(np.int32)
            ju = np.where(null_u, 0, uniq_u & 0xFFF).astype(np.int32)
            rhs_table = t_apply_codes(
                params["m"], params["a"], params["b"], params["n"], null_u, ju, cu
            )
        rhs_table[:, null_u.nonzero()[0]] = -1

        for j in range(size):
            lhs = lhs_table[pinv[:, j], :]
            rhs = rhs_table[:, uinv[j]]
            if not np.array_equal(lhs, rhs):
                i, v = np.argwhere(lhs != rhs)[0]
                mismatch = (
                    "x-model" if rest else "toeplitz",
                    grid_monomials[i],
                    grid_monomials[j],
                    int(base[1][v]),
                    int(base[2][v]),
                )
                break
        if mismatch:
            break
    elapsed = time.monotonic() - start + build_seconds
    report(
        3,
        "rewriter vs representation",
        mismatch is None and elapsed < 60.0,
        f"{elapsed:.1f}s incl. products, {size * size} pairs x (666 + 252) vectors, mismatch={mismatch}",
    )


# --------------------------------------------------------------------------
# 4. equilibrium identity grid
# --------------------------------------------------------------------------


def test_criterion_04_kms_identity_grid(grid_monomials, product_table):
    # every pair of the grid, without the degree lemma that `states.kms_grid` relies
    # on: each distinct product evaluated once, weighted, and set against the transpose
    start = time.monotonic()
    build_seconds, distinct, index = product_table
    worst_defect = 0.0
    worst_char = 0.0
    for phi in KMS_STATES:
        values = np.array([evaluate(phi, p) for p in distinct], dtype=complex)[index]
        weight_a = np.array([float_power(x.a, phi.beta) for x in grid_monomials])[:, None]
        weight_b = np.array([float_power(x.b, phi.beta) for x in grid_monomials])[:, None]
        defect = float(np.abs(weight_a * values - weight_b * values.T).max())
        char = max(kms_characterisation_check(phi, x) for x in grid_monomials)
        worst_defect = max(worst_defect, defect)
        worst_char = max(worst_char, char)
    elapsed = time.monotonic() - start + build_seconds
    ok = worst_defect <= 1e-9 and worst_char <= 1e-9 and elapsed < 120.0
    report(
        4,
        "KMS identity grid",
        ok,
        f"{elapsed:.1f}s, max defect {worst_defect:.2e}, max characterisation {worst_char:.2e}",
    )


# --------------------------------------------------------------------------
# 5. diagonal values and the cylinder series
# --------------------------------------------------------------------------


def test_criterion_05_diagonal_values_and_cylinder():
    worst_float = 0.0
    exact_ok = True
    for a in range(1, 31):
        for k in (0, 1, 2, 5, 10):
            mono = Monomial(k, a, a, k)
            for beta in (2, 3):
                exact_ok = exact_ok and evaluate_exact(PsiBeta(beta), mono) == Fraction(1, a**beta)
            worst_float = max(worst_float, abs(evaluate(PsiBeta(1.5), mono) - a ** (-1.5)))
    series_ok = True
    for beta in (1.5, 2.0, 3.0):
        for a in range(1, 31):
            value, tail = measure_cylinder(beta, 0, a)
            if abs(value - a ** (-beta)) > tail + 1e-12:
                series_ok = False
    ok = exact_ok and worst_float <= 1e-12 and series_ok
    report(5, "diagonal state values", ok, f"float defect {worst_float:.2e}")


# --------------------------------------------------------------------------
# 6. Gibbs-weight trace against the closed formula
# --------------------------------------------------------------------------


def test_criterion_06_trace_formula(grid_monomials):
    start = time.monotonic()
    worst_ratio = 0.0
    bad = None
    angles = (Fraction(0), Fraction(1, 4), Fraction(1, 3))
    for beta in (2.5, 3.0, 4.0):
        for angle in angles:
            phi = PsiBetaMu(beta, CircleMeasure.point(angle))
            for mono in grid_monomials:
                res = trace_state(mono, beta, angle, 500)
                closed = evaluate(phi, mono)
                gap = abs(res.value - closed)
                if gap > res.tail + 1e-12:
                    bad = (beta, angle, mono, gap, res.tail)
                worst_ratio = max(worst_ratio, gap / (res.tail + 1e-300) if res.tail else 0.0)
    value, tail = partition_sum(3.0, 10**4)
    partition_ok = abs(value - zeta(2)) <= tail and abs(zeta(2) - math.pi**2 / 6) < 1e-6
    elapsed = time.monotonic() - start
    ok = bad is None and partition_ok
    report(6, "trace formula", ok, f"{elapsed:.1f}s, worst gap/tail {worst_ratio:.3f}, bad={bad}")


# --------------------------------------------------------------------------
# 7. positivity certificates
# --------------------------------------------------------------------------


def gram_families(grid_monomials):
    """20 random families of 2 to 12 grid monomials."""
    rng = random.Random(2024)
    return [rng.sample(grid_monomials, rng.randrange(2, 13)) for _ in range(20)]


def test_criterion_07_gram_positivity(grid_monomials):
    least_seen = inf
    for family in gram_families(grid_monomials):
        for phi in KMS_STATES:
            _, least = gram_matrix(phi, family)
            least_seen = min(least_seen, least)
    report(7, "gram positivity", least_seen >= -1e-8, f"least eigenvalue {least_seen:.2e}")


def test_gram_matrix_matches_product_table_route(grid_monomials):
    # the oracle: a product table of the adjoints against the family, and one
    # `evaluate` per distinct product
    for family in gram_families(grid_monomials):
        distinct, index = tabulate_products([adjoint(x) for x in family], family)
        for phi in KMS_STATES:
            want = np.array([evaluate(phi, p) for p in distinct], dtype=complex)[index]
            gram, least = gram_matrix(phi, family)
            assert np.array_equal(gram, want), (phi, family)
            assert least == float(np.linalg.eigvalsh(want)[0]), (phi, family)


# --------------------------------------------------------------------------
# 8. reconstruction from the conditional state
# --------------------------------------------------------------------------


def test_criterion_08_reconstruction():
    window = PrimeWindow.of(first_primes(15))
    worst = 0.0
    for beta in (3.0, 4.0):
        for mu in MEASURES.values():
            phi = PsiBetaMu(beta, mu)
            for n in range(0, 61):
                worst = max(worst, reconstruct_sn(phi, window, n))
        expected = 1.0
        for p in window.primes:
            expected *= 1.0 - p ** (1.0 - beta)
        if conditional_mass(beta, window) != expected:
            worst = inf
    report(8, "conditional reconstruction", worst <= 1e-9, f"max defect {worst:.2e}")


# --------------------------------------------------------------------------
# 9. no equilibrium below inverse temperature 1
# --------------------------------------------------------------------------


def test_criterion_09_low_beta_obstruction():
    margin = min(no_kms_witness(beta, a) for beta in (0, 0.25, 0.5, 0.9) for a in (2, 3, 5))
    report(9, "low-beta obstruction", margin > 0, f"min excess mass {margin:.4f}")


# --------------------------------------------------------------------------
# 10. ground states and the infinite-temperature limit
# --------------------------------------------------------------------------


def test_criterion_10_ground_states(grid_monomials):
    omegas = [Ground(VectorState(k)) for k in range(6)] + [
        Ground(CircleMeasure.point(theta)) for theta in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(5, 8))
    ]
    off_diag = [x for x in grid_monomials if x.a != 1 or x.b != 1]
    ground_ok = all(ground_check(phi, x) for phi in omegas for x in off_diag)

    # weak* limit along beta = 3, 5, 10, 20; every measure converges, and the
    # Lebesgue limit meets the 1e-6 bar at beta = 20 (point masses sit at the
    # exact correction zeta(19) - 1 ~ 1.9e-6, outside any smaller tolerance)
    converged = True
    lebesgue_gap = 0.0
    for name, mu in MEASURES.items():
        infinite = PsiBetaMu(inf, mu)
        gaps = []
        for beta in (3.0, 5.0, 10.0, 20.0):
            phi = PsiBetaMu(beta, mu)
            gaps.append(max(abs(evaluate(phi, x) - evaluate(infinite, x)) for x in grid_monomials))
        converged = converged and gaps[-1] < gaps[0] and gaps[-1] < 4e-6
        if name == "lebesgue":
            lebesgue_gap = gaps[-1]
    ss_star = Monomial(1, 1, 1, 1)
    unit_ok = all(abs(evaluate(PsiBetaMu(inf, mu), ss_star) - 1) < 1e-15 for mu in MEASURES.values())
    ok = ground_ok and converged and lebesgue_gap <= 1e-6 and unit_ok
    report(
        10,
        "ground states / infinite limit",
        ok,
        f"lebesgue gap at beta=20: {lebesgue_gap:.2e}",
    )


# --------------------------------------------------------------------------
# 11. the two-sided shift model
# --------------------------------------------------------------------------


def test_criterion_11_shift_model():
    start = time.monotonic()
    result = relation_suite("z", first_primes(6), 10_000)
    failures = [name for name, entry in result["relations"].items() if not entry["pass"]]
    elapsed = time.monotonic() - start
    report(11, "two-sided shift model", not failures, f"{elapsed:.1f}s, failures={failures[:3]}")


# --------------------------------------------------------------------------
# 12. spectrum checks
# --------------------------------------------------------------------------


def _random_point(rng):
    if rng.random() < 0.5:
        n = SupernaturalNumber.from_exponents(
            {p: rng.choice([0, 1, 2, 3, inf]) for p in (2, 3, 5)}
        )
        return APoint(rng.randrange(0, 16), n)
    if rng.random() < 0.5:
        return BPoint(ResidueFamily.from_int(rng.randrange(0, 48)), rng.choice([NABLA]))
    modulus = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
    return BPoint(
        ResidueFamily.from_residue(rng.randrange(modulus), modulus),
        SupernaturalNumber.from_int(modulus),
    )


def test_criterion_12_spectrum():
    rng = random.Random(99)
    hereditary_ok = all(verify_hereditary_directed(_random_point(rng), 20) for _ in range(100))

    # inclusion table: soundness on 1000 random pairs, and exact equivalence
    # with windowed subsets on an all-finite family where the window decides
    sound = True
    for _ in range(1000):
        w1, w2 = _random_point(rng), _random_point(rng)
        try:
            verdict = includes(w1, w2, 24)
        except Exception:
            sound = False
            break
        if verdict and not enumerate_members(w2, 12) <= enumerate_members(w1, 12):
            sound = False
            break
    equivalence = True
    finite_pool = [APoint(k, SupernaturalNumber.from_int(n)) for k in range(0, 13) for n in (1, 2, 3, 4, 6, 12, 24)]
    finite_pool += [
        BPoint(ResidueFamily.from_residue(r, n), SupernaturalNumber.from_int(n))
        for n in (1, 2, 3, 4, 6, 12)
        for r in range(n)
    ]
    for _ in range(1000):
        w1, w2 = rng.choice(finite_pool), rng.choice(finite_pool)
        verdict = includes(w1, w2, 48)
        subset = enumerate_members(w2, 48) <= enumerate_members(w1, 48)
        if verdict != subset:
            equivalence = False
            break

    composition = True
    for _ in range(200):
        x = SemigroupElement(rng.randrange(0, 11), rng.randrange(1, 11))
        y = SemigroupElement(rng.randrange(0, 11), rng.randrange(1, 11))
        r = BPoint(ResidueFamily.from_int(rng.randrange(0, 2500)), NABLA)
        lhs = boundary_act(x, boundary_act(y, r))
        rhs = boundary_act(x * y, r)
        if any(lhs.r.at(level) != rhs.r.at(level) for level in range(1, 51)):
            composition = False
            break
    ok = hereditary_ok and sound and equivalence and composition
    report(
        12,
        "spectrum",
        ok,
        f"hereditary={hereditary_ok} sound={sound} table={equivalence} action={composition}",
    )


# --------------------------------------------------------------------------
# 13. character Euler machinery
# --------------------------------------------------------------------------


def test_criterion_13_character_machinery():
    chi = DirichletCharacter.quadratic_mod4()
    res = char_euler_sum(chi, [3, 5, 7, 11, 13], 1.0, 10**5)
    euler_gap = abs(res.series - res.product)
    ratios = invariance_ratio(chi, 1.0, 40)
    worst_rec = 0.0
    for primes, ks in (([2], (1, 2, 3, 4, 8)), ([2, 3], (6, 12)), ([2, 3, 5], (30,))):
        for beta in (2.0, 3.0):
            for k in ks:
                worst_rec = max(worst_rec, bc_reconstruct_check(primes, beta, k)[0])
    ok = euler_gap <= 1e-6 and ratios[39] < 0.2 and worst_rec <= 1e-9
    report(
        13,
        "character Euler machinery",
        ok,
        f"euler gap {euler_gap:.2e}, ratio(40) {ratios[39]:.3f}, reconstruct {worst_rec:.2e}",
    )


# --------------------------------------------------------------------------
# 14. the KMS_1 state factors through Cuntz's Q_N
# --------------------------------------------------------------------------


def test_criterion_14_kms1_factors_through_qn():
    # e_p = 1 - sum_{k<p} s^k v_p v_p* s*^k is the defect of the Q_N relation at p.
    # Its summands are pairwise orthogonal projections (by T5), so e_p is a
    # projection; psi_1(e_p) = 1 - p * p^-1 = 0 exactly, so psi_1 factors
    # through Q_N, while every state with beta > 1 charges e_p.
    ranges = {p: [reduce_word(f"s^{k} v{p} v{p}* s^{k}*") for k in range(p)] for p in first_primes(15)}
    bad = None
    for p, proj in ranges.items():
        for j, x in enumerate(proj):
            if adjoint(x) != x or monomial_mul(x, x) != x:
                bad = bad or ("not a projection", p, j)
            for k in range(j + 1, p):
                if monomial_mul(x, proj[k]) != ZERO or monomial_mul(proj[k], x) != ZERO:
                    bad = bad or ("not orthogonal", p, j, k)

    def charge(value, p):
        """value(e_p) for a linear functional given on monomials."""
        return value(Monomial.identity()) - sum(value(x) for x in ranges[p])

    at_1 = [charge(functools.partial(evaluate_exact, PsiBeta(1)), p) for p in ranges]
    at_2 = [charge(functools.partial(evaluate_exact, PsiBeta(2)), p) for p in ranges]
    above_1 = [phi for phi in KMS_STATES if phi.beta > 1]
    floats = [charge(functools.partial(evaluate, phi), p).real for phi in above_1 for p in ranges]
    ok = bad is None and not any(at_1) and min(at_2) > 0 and min(floats) > 0
    report(
        14,
        "KMS_1 factors through Q_N",
        ok,
        f"{len(ranges)} primes, max |psi_1(e_p)| {max(map(abs, at_1))}, min psi_2(e_p) {min(at_2)}, "
        f"min over {len(above_1)} states above beta=1 {min(floats):.3f}, bad={bad}",
    )


# --------------------------------------------------------------------------
# 15. the phase transition at beta = 2
# --------------------------------------------------------------------------


def test_criterion_15_phase_transition_at_2(grid_monomials):
    # Every psi_{beta,mu} carries the normalisation 1/zeta(beta - 1) ~ beta - 2
    # off the diagonal, so as beta decreases to 2 the states merge into psi_beta
    # at rate O(beta - 2): the largest gap over the grid and the measures,
    # divided by beta - 2, stays bounded and settles.
    start = time.monotonic()
    ratios = []
    for j in range(1, 7):
        beta = 2 + 10.0**-j
        psi = PsiBeta(beta)
        gap = max(
            abs(evaluate(PsiBetaMu(beta, mu), x) - evaluate(psi, x))
            for mu in MEASURES.values()
            for x in grid_monomials
        )
        ratios.append(gap / (beta - 2))
    merges = max(ratios) < 2.0 and abs(ratios[-1] - ratios[-2]) < 1e-3

    # above 2 the measures stay apart: psi_{beta,mu}(s) = moment(mu, 1)/zeta(beta - 1)
    s = Monomial.s_power(1)
    closed_ok = True
    least_gaps = []
    for beta in (2.5, 3.0):
        values = [evaluate(PsiBetaMu(beta, mu), s) for mu in MEASURES.values()]
        closed = [moment(mu, 1) / zeta(beta - 1) for mu in MEASURES.values()]
        closed_ok = closed_ok and all(abs(v - c) < 1e-12 for v, c in zip(values, closed))
        least_gaps.append(min(abs(u - v) for i, u in enumerate(values) for v in values[i + 1 :]))
    elapsed = time.monotonic() - start
    ok = merges and closed_ok and min(least_gaps) > 0.1
    report(
        15,
        "phase transition at beta = 2",
        ok,
        f"{elapsed:.2f}s, max |psi_beta_mu - psi_beta| / (beta - 2) at beta = 2 + 10^-j, j = 1..6: "
        + " ".join(f"{r:.3f}" for r in ratios)
        + f", least gap of psi_beta_mu(s) at beta = 2.5, 3: {least_gaps[0]:.3f}, {least_gaps[1]:.3f}",
    )


# --------------------------------------------------------------------------
# 19. the window check accepts exactly the windows of spectrum points
# --------------------------------------------------------------------------


def _window_sets(bound):
    """Every set inside the window m, a <= bound with one class per level and
    heredity over divisors: level a is empty or r, r + a, ..., t with r < a,
    and each member (m, a) puts (m, b) in the set for every b | a.  Built
    level by level, so a level is chosen only inside its divisors' levels."""
    sets = [{}]
    for a in range(1, bound + 1):
        divs = [b for b in range(1, a) if a % b == 0]
        grown = []
        for levels in sets:
            grown.append(levels)
            for r in range(a):
                for t in range(r, bound + 1, a):
                    if all(b in levels and (r - levels[b][0]) % b == 0 and t <= levels[b][1] for b in divs):
                        grown.append({**levels, a: (r, t)})
        sets = grown
    return [frozenset((m, a) for a, (r, t) in levels.items() for m in range(r, t + 1, a)) for levels in sets]


def _point_windows(bound):
    """The windows of A(k, N) and B(r, N) from the definitions: a | N, and
    (k - m)/a a natural number or m = r mod a.  A level a <= bound divides N
    exactly when it divides gcd(N, lcm(1..bound)), so N runs over the divisors
    of lcm(1..bound); there r acts through r mod N, and a cap k >= bound
    through k mod N."""
    cells = [(m, a) for m in range(bound + 1) for a in range(1, bound + 1)]
    top = math.lcm(*range(1, bound + 1))
    windows = set()
    for n in (d for d in range(1, top + 1) if top % d == 0):
        for r in range(n):
            windows.add(frozenset((m, a) for m, a in cells if n % a == 0 and (m - r) % a == 0))
        for k in range(bound + n):
            windows.add(frozenset((m, a) for m, a in cells if n % a == 0 and m <= k and (k - m) % a == 0))
    return windows


def test_criterion_19_window_check_is_exact():
    # Nica's spectrum is the hereditary directed subsets of the whole monoid, so
    # the check must refuse a window set that passes every test inside the
    # window while a join past it lies above a missing window element
    start = time.monotonic()
    ok, counts = True, []
    for bound in (4, 5, 6):
        candidates = _window_sets(bound)
        accepted = {s for s in candidates if verify_hereditary_directed(s, bound)}
        windows = _point_windows(bound)
        ok = ok and accepted == windows
        counts.append(f"bound {bound}: {len(accepted)} of {len(candidates)} accepted, {len(windows)} point windows")
    elapsed = time.monotonic() - start
    report(19, "window check is exact", ok, f"{elapsed:.2f}s, " + "; ".join(counts))
