import cmath
import math
import random
import time
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetoeplitz.algebra import ZERO, Monomial, adjoint, monomial_grid, monomial_mul
from affinetoeplitz.numtheory import divisors, factorize, first_primes, float_power, zeta, zeta_e
from affinetoeplitz.states import (
    CircleMeasure,
    Ground,
    PrimeWindow,
    PsiBeta,
    PsiBetaMu,
    VectorState,
    conditional_mass,
    conditional_moment,
    evaluate,
    evaluate_exact,
    ground_check,
    kms_characterisation_check,
    kms_defect,
    kms_grid,
    measure_cylinder,
    measure_from_json,
    moment,
    moments_from_state,
    no_kms_witness,
    partition_sum,
    reconstruct_sn,
    state_from_json,
    state_to_json,
)
from conftest import GRID_MULTS, graded_pairs, gram_matrix

POINT_ONE = CircleMeasure.point(0)
POINT_I = CircleMeasure.point(Fraction(1, 4))
POINT_OMEGA = CircleMeasure.point(Fraction(1, 3))
TWO_ATOM = CircleMeasure.from_atoms([(Fraction(1, 8), Fraction(1, 4)), (Fraction(2, 3), Fraction(3, 4))])
LEBESGUE = CircleMeasure.lebesgue()
MEASURES = (POINT_ONE, POINT_I, POINT_OMEGA, LEBESGUE, TWO_ATOM)


def finite_states():
    """Every state family at a finite beta; ground states over both kinds of omega,
    every test measure among them."""
    return st.one_of(
        st.builds(PsiBeta, st.floats(1, 12)),
        st.builds(PsiBetaMu, st.floats(2, 12, exclude_min=True), st.sampled_from(MEASURES)),
        st.builds(Ground, st.builds(VectorState, st.integers(0, 20))),
        st.builds(
            Ground, st.builds(CircleMeasure.point, st.fractions(0, 1, max_denominator=12).filter(lambda t: t < 1))
        ),
        st.builds(Ground, st.sampled_from(MEASURES)),
    )

def brute_psi_beta_mu(beta, mu, mono, cutoff=10**5):
    """Independent divisor-sum evaluation of the measure state.

    Returns (value, tail): the diagonal case truncates its geometric series
    at `cutoff`, with the dropped mass bounded by the usual integral.
    """
    if mono.a != mono.b or (mono.m - mono.n) % mono.a != 0:
        return 0j, 0.0
    k = mono.m - mono.n
    norm = mono.a * zeta(beta - 1)
    if k == 0:
        total = math.fsum(x ** (1.0 - beta) for x in range(mono.a, cutoff + 1, mono.a))
        return total / norm, cutoff ** (2.0 - beta) / (beta - 2.0) / norm
    total = 0j
    for x in range(1, abs(k) + 1):
        if x % mono.a == 0 and abs(k) % x == 0:
            total += x ** (1.0 - beta) * moment(mu, k // x)
    return total / norm, 0.0


RATIONAL_ANGLES = st.builds(lambda p, q: Fraction(p % q, q), st.integers(0, 10**6), st.integers(1, 1000))
CIRCLE_MEASURES = st.one_of(
    st.builds(CircleMeasure.point, RATIONAL_ANGLES),
    st.builds(
        lambda t, shift, w: CircleMeasure.from_atoms([(t, w), ((t + shift) % 1, 1 - w)]),
        RATIONAL_ANGLES,
        RATIONAL_ANGLES.filter(bool),
        st.builds(Fraction, st.integers(1, 99), st.just(100)),
    ),
    st.just(LEBESGUE),
)


class TestMoments:
    def test_point_mass(self):
        assert moment(CircleMeasure.point(0), 5) == 1
        assert abs(moment(POINT_I, 1) - 1j) < 1e-15

    def test_lebesgue(self):
        assert moment(LEBESGUE, 3) == 0
        assert moment(LEBESGUE, 0) == 1

    def test_two_atom_plus_minus(self):
        pm = CircleMeasure.from_atoms([(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
        assert abs(moment(pm, 1)) < 1e-15
        assert abs(moment(pm, 2) - 1) < 1e-15

    def test_conjugate_symmetry(self):
        for mu in (POINT_I, TWO_ATOM):
            for k in range(6):
                assert abs(moment(mu, -k) - moment(mu, k).conjugate()) < 1e-15

    def test_phase_exact_at_large_exponents(self):
        omega = cmath.exp(2j * math.pi / 3)
        assert moment(CircleMeasure.point(Fraction(1, 2)), 10**15) == 1
        assert abs(moment(POINT_OMEGA, 3 * 10**17 + 1) - omega) < 1e-15
        assert abs(evaluate(Ground(POINT_OMEGA), Monomial.s_power(3 * 10**17 + 1)) - omega) < 1e-15
        value = evaluate(PsiBetaMu(3, CircleMeasure.point(Fraction(1, 2))), Monomial.s_power(10**17))
        assert abs(value.imag) < 1e-15

    def test_raw_atoms_become_fractions(self):
        raw = CircleMeasure(((0.25, 1),))
        assert raw == POINT_I and all(type(value) is Fraction for atom in raw.atoms for value in atom)
        for k in (-3, 0, 1, 2, 5, 10**17 + 1):
            assert moment(raw, k) == moment(POINT_I, k)

    def test_invalid_measures(self):
        with pytest.raises(ValueError):
            CircleMeasure.from_atoms([(0, Fraction(1, 2))])
        with pytest.raises(ValueError):
            CircleMeasure.from_atoms([(0, Fraction(1, 2)), (0, Fraction(1, 2))])


class TestEvaluate:
    def test_psi_beta(self):
        assert evaluate(PsiBeta(2), Monomial(1, 3, 3, 1)) == pytest.approx(1 / 9)
        assert evaluate(PsiBeta(2), Monomial.s_power(1)) == 0
        assert evaluate(PsiBeta(2), Monomial(0, 2, 3, 0)) == 0
        assert evaluate_exact(PsiBeta(2), Monomial(1, 3, 3, 1)) == Fraction(1, 9)
        assert evaluate_exact(PsiBeta(3), Monomial(0, 30, 30, 0)) == Fraction(1, 27000)

    def test_psi_beta_infinite(self):
        phi = PsiBeta(inf)
        assert evaluate(phi, Monomial.identity()) == 1
        assert evaluate(phi, Monomial(1, 1, 1, 1)) == 1
        assert evaluate(phi, Monomial(0, 2, 2, 0)) == 0

    def test_large_prime_shifts(self):
        # the divisor sum of a prime shift k has two terms once k is factored,
        # and factoring costs about k^(1/4)
        phi = PsiBetaMu(3, POINT_ONE)
        start = time.perf_counter()
        value = evaluate(phi, Monomial.s_power(10**18 + 3))
        assert time.perf_counter() - start < 0.1
        assert value == pytest.approx((1 + (10**18 + 3) ** -2) / zeta(2), rel=1e-15)
        assert abs(evaluate(phi, Monomial.s_power(1000000000000037)) - 0.6079271018538) < 1e-12

    def test_lebesgue_semiprime_shift(self):
        # (10^20 + 39)(10^21 + 117): rho would need about 10^10 steps, but every
        # Lebesgue moment at k/d != 0 vanishes, so no divisor is listed
        k = (10**20 + 39) * (10**21 + 117)
        phi = PsiBetaMu(3, LEBESGUE)
        window = PrimeWindow.of(first_primes(15))
        start = time.perf_counter()
        value = evaluate(phi, Monomial.s_power(k))
        moment_k = conditional_moment(phi, window, k)
        defect = reconstruct_sn(phi, window, k)
        assert time.perf_counter() - start < 0.1
        assert (value, moment_k, defect) == (0j, 0j, 0.0)

    @pytest.mark.parametrize("beta", [2.5, 3.0, 4.0])
    def test_lebesgue_matches_fine_uniform_atoms(self, beta):
        # the uniform measure on the N-th roots of unity has the Lebesgue moments
        # at every |k| < N, so it checks the Lebesgue shortcut through the divisor sums
        uniform = CircleMeasure.from_atoms([(Fraction(j, 64), Fraction(1, 64)) for j in range(64)])
        lebesgue, atoms = PsiBetaMu(beta, LEBESGUE), PsiBetaMu(beta, uniform)
        window = PrimeWindow.of([2, 3, 5])
        for mono in monomial_grid(5, GRID_MULTS):
            assert abs(evaluate(lebesgue, mono) - evaluate(atoms, mono)) < 1e-12, mono
        for k in range(-40, 41):
            assert abs(conditional_moment(lebesgue, window, k) - conditional_moment(atoms, window, k)) < 1e-12, k
        for n in range(0, 41):
            assert abs(reconstruct_sn(lebesgue, window, n) - reconstruct_sn(atoms, window, n)) < 1e-12, n

    def test_psi_beta_mu_examples(self):
        z2 = zeta(2)
        assert evaluate(PsiBetaMu(3, POINT_ONE), Monomial.s_power(1)) == pytest.approx(1 / z2)
        got = evaluate(PsiBetaMu(3, POINT_I), Monomial.s_power(1))
        assert abs(got - 1j / z2) < 1e-12
        assert evaluate(PsiBetaMu(3, POINT_ONE), Monomial(2, 2, 2, 0)) == pytest.approx(1 / (8 * z2))
        assert evaluate(PsiBetaMu(3, POINT_ONE), Monomial(1, 2, 2, 0)) == 0

    def test_psi_beta_mu_against_brute_divisor_sum(self):
        for mu in (POINT_ONE, POINT_I, TWO_ATOM, LEBESGUE):
            for beta in (2.5, 3.0):
                phi = PsiBetaMu(beta, mu)
                for mono in monomial_grid(3, GRID_MULTS):
                    want, tail = brute_psi_beta_mu(beta, mu, mono)
                    assert abs(evaluate(phi, mono) - want) <= tail + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(2, 6, exclude_min=True),
        CIRCLE_MEASURES,
        st.integers(1, 60),
        st.integers(-2 * 10**4, 2 * 10**4),
        st.booleans(),
        st.integers(0, 50),
    )
    def test_psi_beta_mu_against_brute_property(self, beta, mu, a, k, multiple, base):
        # half the draws round m - n to a multiple of a, where the divisor sum is not empty
        if multiple:
            k = a * (k // a)
        mono = Monomial(base + max(k, 0), a, a, base + max(-k, 0))
        want, tail = brute_psi_beta_mu(beta, mu, mono)
        assert abs(evaluate(PsiBetaMu(beta, mu), mono) - want) <= tail + 1e-9

    def test_psi_infinity_mu(self):
        phi = PsiBetaMu(inf, POINT_I)
        assert evaluate(phi, Monomial(0, 2, 2, 0)) == 0
        assert abs(evaluate(phi, Monomial.s_power(2)) - (-1)) < 1e-15
        assert evaluate(phi, Monomial(1, 1, 1, 1)) == 1

    def test_ground(self):
        assert evaluate(Ground(CircleMeasure.point(Fraction(1, 4))), Monomial(0, 2, 2, 0)) == 0
        got = evaluate(Ground(CircleMeasure.point(Fraction(1, 4))), Monomial.s_power(3))
        assert abs(got - cmath.exp(3j * math.pi / 2)) < 1e-15
        omega = Ground(VectorState(2))
        assert evaluate(omega, Monomial(1, 1, 1, 1)) == 1
        assert evaluate(omega, Monomial(3, 1, 1, 3)) == 0
        assert evaluate(omega, Monomial(1, 1, 1, 2)) == 0
        assert evaluate_exact(omega, Monomial(2, 1, 1, 2)) == 1

    def test_rejects(self):
        assert evaluate(PsiBeta(2), ZERO) == 0 and evaluate_exact(PsiBeta(2), ZERO) == 0
        with pytest.raises(TypeError):
            evaluate("not a state", Monomial.identity())
        with pytest.raises(ValueError):
            PsiBeta(0.5)
        with pytest.raises(ValueError):
            PsiBetaMu(2.0, POINT_ONE)
        for omega in (5, None, Fraction(1, 4), PsiBeta(2)):
            with pytest.raises(TypeError):
                Ground(omega)

    def test_zero_and_off_support_contract(self):
        # each family with the predicate of its support
        families = [(PsiBeta(beta), lambda m, a, b, n: a == b and m == n) for beta in (1.0, 2.5, inf)]
        families += [(PsiBetaMu(beta, mu), lambda m, a, b, n: a == b and (m - n) % a == 0)
                     for beta in (2.5, 4.0) for mu in MEASURES]
        families += [(PsiBetaMu(inf, mu), lambda m, a, b, n: a == b == 1) for mu in (POINT_I, LEBESGUE)]
        families += [(Ground(omega), lambda m, a, b, n: a == b == 1)
                     for omega in (VectorState(0), VectorState(3), *MEASURES)]
        monos = monomial_grid(4, (1, 2, 3, 4, 6, 12))
        for phi, supported in families:
            assert evaluate(phi, ZERO) == 0
            off = [x for x in monos if not supported(*x)]
            assert off and len(off) < len(monos)
            for x in off:
                value = evaluate(phi, x)
                assert type(value) is complex and value == 0j, (phi, x)

    @pytest.mark.parametrize("phi", ["psi_beta", None, 2.5, VectorState(0), LEBESGUE, POINT_ONE])
    def test_non_state_raises_type_error(self, phi):
        # monomials in the support of every family, of some, and of none
        every = [Monomial.identity(), Monomial(1, 1, 1, 1)]
        some = [Monomial(0, 2, 2, 0)]
        none = [Monomial(1, 2, 2, 0), Monomial(0, 2, 3, 0)]
        for x in every + some + none:
            with pytest.raises(TypeError):
                evaluate(phi, x)

    def test_lebesgue_matches_psi_beta(self):
        for beta in (2.5, 3.0, 5.0):
            for mono in monomial_grid(3, GRID_MULTS):
                lhs = evaluate(PsiBetaMu(beta, LEBESGUE), mono)
                rhs = evaluate(PsiBeta(beta), mono)
                assert abs(lhs - rhs) < 1e-12

    def test_infinite_lebesgue_matches_psi_infinity(self):
        for mono in monomial_grid(3, GRID_MULTS):
            assert evaluate(PsiBetaMu(inf, LEBESGUE), mono) == evaluate(PsiBeta(inf), mono)


class TestKms:
    def test_defect_examples(self):
        assert kms_defect(PsiBeta(1.5), Monomial.v(2), Monomial.v_star(2)) < 1e-15
        assert kms_defect(PsiBeta(2), Monomial.s_power(1), Monomial.s_power(-1)) < 1e-15
        assert no_kms_witness(0.9, 2) == pytest.approx(2**0.1 - 1)
        assert no_kms_witness(0, 2) == 1
        assert no_kms_witness(0.5, 4) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            no_kms_witness(1.0, 2)

    def test_defect_rejects_zero(self):
        for phi in (PsiBeta(1.5), PsiBetaMu(3.0, TWO_ATOM)):
            for x, y in ((ZERO, Monomial.v(2)), (Monomial.v(2), ZERO), (ZERO, ZERO)):
                with pytest.raises(ValueError):
                    kms_defect(phi, x, y)
                with pytest.raises(ValueError):
                    kms_defect(phi, x, y, beta=2.0)

    def test_characterisation_examples(self):
        assert kms_characterisation_check(PsiBeta(1.5), Monomial(1, 3, 3, 1)) < 1e-15
        assert kms_characterisation_check(PsiBetaMu(3, POINT_I), Monomial(2, 2, 2, 0)) < 1e-15
        # states violating the characterisation show up: a ground state
        # kills v2 v2*, but the equilibrium identity demands 2^-beta there
        bad = kms_characterisation_check(Ground(CircleMeasure.point(Fraction(0))), Monomial(0, 2, 2, 0), beta=2.0)
        assert bad == pytest.approx(0.25)

    def test_kms_grid_small(self):
        monos = monomial_grid(2, GRID_MULTS)
        for phi in (PsiBeta(1), PsiBeta(1.5), PsiBetaMu(2.5, TWO_ATOM)):
            for x in monos[:: 7]:
                for y in monos[:: 11]:
                    assert kms_defect(phi, x, y) < 1e-9
                assert kms_characterisation_check(phi, x) < 1e-9

    @pytest.mark.parametrize(
        "phi, beta",
        [
            (PsiBeta(1.5), None),
            (PsiBetaMu(2.5, TWO_ATOM), None),
            (PsiBetaMu(3.0, POINT_I), None),
            (PsiBeta(2.0), 1.5),
            (Ground(VectorState(0)), 3.0),
            (PsiBeta(1.0), None),
            (PsiBeta(inf), 2.0),
            *[(PsiBetaMu(2.5, mu), None) for mu in (POINT_ONE, POINT_OMEGA, LEBESGUE)],
            *[(PsiBetaMu(inf, mu), 3.0) for mu in MEASURES],
            (Ground(VectorState(1)), 3.0),
            (Ground(VectorState(2)), 3.0),
            (Ground(CircleMeasure.point(Fraction(1, 3))), 2.0),
            (Ground(CircleMeasure.point(Fraction(1, 4))), 2.0),
            # every pair defect is exactly 1, and np.abs would round a later one up: the
            # first witness holds only with a correctly rounded modulus
            (Ground(CircleMeasure.point(Fraction(3, 8))), 2.0),
        ],
    )
    def test_kms_grid_matches_scalar_loop(self, phi, beta):
        monos = monomial_grid(1, (1, 2, 3, 6))
        # rows with shifts past int64, and s^2, s*^2: the vector states at e_1 and
        # e_2 tell s^2 s*^2 apart, so only the second passes on that pair
        far = [Monomial(2**64, 3, 3, 2**64 + 6), Monomial(2**70, 1, 1, 2**70)]
        families = (monos, monomial_grid(1, GRID_MULTS), monos + far, [Monomial.s_power(2), Monomial.s_power(-2)])
        w = phi.beta if beta is None else beta
        for family in families:
            # the oracle rewrites and evaluates every pair, the degree lemma unused
            pairs = [
                (abs(float_power(x.a, w) * evaluate(phi, monomial_mul(x, y))
                     - float_power(x.b, w) * evaluate(phi, monomial_mul(y, x))), (x, y))
                for x in family
                for y in family
            ]
            chars = [(kms_characterisation_check(phi, x, beta), x) for x in family]
            # max keeps the first of equal maxima: the witnesses come first in x-major order
            worst, pair = max(pairs, key=lambda t: t[0])
            worst_char, at = max(chars, key=lambda t: t[0])
            assert kms_grid(phi, family, beta) == (worst, pair, worst_char, at)
            if family == monos:
                # the states checked at a temperature not their own fail
                assert (worst > 0.1) == (beta is not None)
        if phi in (Ground(VectorState(1)), Ground(VectorState(2))):
            assert worst == (phi.omega.k == 1)

    def test_kms_grid_rejects_zero_and_empty(self):
        for monos in ([Monomial.v(2), ZERO], [ZERO], []):
            with pytest.raises(ValueError):
                kms_grid(PsiBeta(2.0), monos)

    NO_FINITE_BETA = [(PsiBeta(inf), None), (PsiBeta(2), inf), (PsiBeta(2), math.nan), (Ground(VectorState(0)), None)]

    def test_kms_grid_needs_finite_beta(self):
        monos = monomial_grid(0, (1, 2))
        for phi, beta in self.NO_FINITE_BETA:
            with pytest.raises(ValueError):
                kms_grid(phi, monos, beta)

    def test_defect_needs_finite_beta(self):
        # an unbalanced pair too: a NaN defect would pass every `defect > tol` gate
        for phi, beta in self.NO_FINITE_BETA:
            for x, y in ((Monomial.v(2), Monomial.v(3)), (Monomial.v(2), Monomial.v_star(2))):
                with pytest.raises(ValueError):
                    kms_defect(phi, x, y, beta)

    @settings(max_examples=300, deadline=None)
    @given(pair=graded_pairs(10**4, 12), phi=finite_states(), beta=st.none() | st.floats(1, 12), data=st.data())
    def test_defect_matches_both_products(self, pair, phi, beta, data):
        # the reference forms both products and weights whatever the indices
        x, y = pair
        if beta is None and isinstance(phi, Ground):
            beta = data.draw(st.floats(1, 12))
        at = phi.beta if beta is None else beta
        left = float_power(x.a, at) * evaluate(phi, monomial_mul(x, y))
        right = float_power(x.b, at) * evaluate(phi, monomial_mul(y, x))
        assert repr(kms_defect(phi, x, y, beta)) == repr(abs(left - right))

    # one state per family; pairs off ratio (a c != b d), on the diagonal, and
    # balanced with a shift, with the defect at the state's own beta and at 2.5
    DEFECT_PAIRS = {
        "off": (Monomial(2, 2, 1, 0), Monomial(0, 3, 1, 1)),
        "diagonal": (Monomial(1, 2, 1, 0), Monomial(0, 1, 2, 1)),
        "shifted": (Monomial(2, 2, 1, 0), Monomial(0, 1, 2, 0)),
    }

    @pytest.mark.parametrize(
        "phi, pair, own, at_2_5",
        [
            (PsiBeta(2.0), "off", "0.0", "0.0"),
            (PsiBeta(2.0), "diagonal", "0.0", "0.41421356237309515"),
            (PsiBeta(2.0), "shifted", "0.0", "0.0"),
            (PsiBetaMu(3.0, POINT_I), "off", "0.0", "0.0"),
            (PsiBetaMu(3.0, POINT_I), "diagonal", "0.0", "0.2928932188134524"),
            (PsiBetaMu(3.0, POINT_I), "shifted", "0.0", "0.17805772566590683"),
            (Ground(CircleMeasure.point(Fraction(1, 3))), "off", None, "0.0"),
            (Ground(CircleMeasure.point(Fraction(1, 3))), "diagonal", None, "1.0"),
            (Ground(CircleMeasure.point(Fraction(1, 3))), "shifted", None, "0.9999999999999999"),
        ],
    )
    def test_defect_examples_per_family(self, phi, pair, own, at_2_5):
        x, y = self.DEFECT_PAIRS[pair]
        assert repr(kms_defect(phi, x, y, 2.5)) == at_2_5
        if own is None:  # a ground state has no beta of its own
            with pytest.raises(ValueError):
                kms_defect(phi, x, y)
        else:
            assert repr(kms_defect(phi, x, y)) == own

    @pytest.mark.parametrize("pair", sorted(DEFECT_PAIRS))
    def test_defect_of_a_non_state_raises(self, pair):
        # without a beta there is nothing to resolve it from, off ratio too
        x, y = self.DEFECT_PAIRS[pair]
        for obj in (object(), "psi_beta", 3.0):
            with pytest.raises(ValueError):
                kms_defect(obj, x, y)

    def test_unbalanced_defect_past_double_range(self):
        # 2^1100 overflows a double; v2 v3 and v3 v2 lie off every state's support,
        # and only the balanced pair still needs the weight
        assert kms_defect(PsiBeta(2), Monomial.v(2), Monomial.v(3), beta=1100) == 0.0
        with pytest.raises(OverflowError):
            kms_defect(PsiBeta(2), Monomial.v(2), Monomial.v_star(2), beta=1100)


class TestGround:
    def test_examples(self):
        assert ground_check(Ground(VectorState(0)), Monomial.v(2))
        assert ground_check(PsiBetaMu(inf, POINT_I), Monomial(1, 2, 2, 1))
        assert not ground_check(PsiBeta(1.5), Monomial(0, 2, 2, 0))

    def test_ground_is_not_equilibrium(self):
        # the equilibrium defect has teeth: a vector-state ground state sees
        # phi(s s*) = 0 but phi(s* s) = 1
        defect = kms_defect(Ground(VectorState(0)), Monomial.s_power(1), Monomial.s_power(-1), beta=3.0)
        assert defect == pytest.approx(1.0)

    def test_ground_states_strictly_contain_kms_infinity(self, grid_monomials):
        # every KMS_inf state is a ground state with phi(s s*) = 1; the ground
        # state of the vacuum vector gives phi(s s*) = 0, so it is no KMS_inf state
        ss_star = Monomial(1, 1, 1, 1)
        for mu in MEASURES:
            phi = PsiBetaMu(inf, mu)
            assert evaluate(phi, ss_star) == 1
            assert all(ground_check(phi, x) for x in grid_monomials)
            # the ground state over mu lifted through C(T) is that KMS_inf state, value for value
            ground = Ground(mu)
            assert all(evaluate(ground, x) == evaluate(phi, x) for x in grid_monomials)
            assert all(ground_check(ground, x) for x in grid_monomials)
        vacuum = Ground(VectorState(0))
        assert all(ground_check(vacuum, x) for x in grid_monomials)
        assert evaluate(vacuum, ss_star) == 0

    def test_boundedness_surrogate(self):
        # phi(Y X) = 0 whenever X's multiplicative parts satisfy a < b
        rng = random.Random(31)
        grounds = [Ground(VectorState(k)) for k in range(4)] + [Ground(CircleMeasure.point(Fraction(1, 3)))]
        monos = monomial_grid(2, GRID_MULTS)
        for _ in range(3000):
            x, y = rng.choice(monos), rng.choice(monos)
            if x.a < x.b:
                prod = monomial_mul(y, x)
                if not prod.is_zero:
                    for phi in grounds:
                        assert abs(evaluate(phi, prod)) == 0


class TestMeasureAndConditional:
    def test_cylinder_examples(self):
        value, tail = measure_cylinder(2.0, 0, 1)
        assert value == 1.0 and tail == 0.0
        value, tail = measure_cylinder(2.0, 0, 2)
        assert abs(value - 0.25) <= tail + 1e-13
        value, tail = measure_cylinder(1.0, 3, 6)
        assert value == pytest.approx(1 / 6) and tail == 0.0

    def test_cylinder_matches_closed_form(self):
        for beta in (1.5, 2.0, 3.0):
            for a in range(1, 31):
                value, tail = measure_cylinder(beta, 0, a)
                assert abs(value - a ** (-beta)) <= tail + 1e-12

    # (series, tail) at a = 6 and a = 360 to the last bit: the term bound must change no sum at these betas
    CYLINDERS = {
        (1.0, 6): (0.16666666666666666, 0.0),
        (1.0, 360): (0.002777777777777778, 0.0),
        (1.5, 6): (0.06804138174397034, 2.850964295858991e-14),
        (1.5, 360): (0.00014640174352629573, 6.228278517100335e-15),
        (2.0, 6): (0.027777777777776583, 8.724405940807286e-15),
        (2.0, 360): (7.716049382715638e-06, 1.0434061190952058e-15),
        (3.0, 6): (0.004629629629629541, 1.956243348645393e-15),
        (3.0, 360): (2.1433470507544162e-08, 3.7773482121004576e-17),
    }

    def test_cylinder_values_kept(self):
        for (beta, a), want in self.CYLINDERS.items():
            assert measure_cylinder(beta, 0, a) == want

    def test_cylinder_near_beta_one(self):
        # about 7 M terms, under the bound
        value, tail = measure_cylinder(1.00001, 0, 6)
        assert abs(value - 6**-1.00001) <= tail + 1e-12
        # the term count grows like 1/(beta - 1), and the second beta is the least double above 1:
        # both are refused before any summing
        for beta in (1.0000001, 1.0000000000000002):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="needs more than 10000000 terms"):
                measure_cylinder(beta, 0, 6)
            assert time.perf_counter() - start < 1.0

    def test_conditional_mass(self):
        assert conditional_mass(2.0, PrimeWindow.of([2])) == pytest.approx(0.5)
        assert conditional_mass(3.0, PrimeWindow.of([2, 3])) == pytest.approx(2 / 3)
        assert conditional_mass(inf, PrimeWindow.of([7])) == 1.0
        with pytest.raises(ValueError):
            conditional_mass(1.0, PrimeWindow.of([2]))
        with pytest.raises(ValueError):
            PrimeWindow.of([])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1),
        st.lists(st.integers(0, 5), min_size=6, max_size=6),
        st.sampled_from([1, 1, 5, 17, 10**6 + 3]),
    )
    def test_window_supports_matches_factorization(self, primes, exps, cofactor):
        window = PrimeWindow.of(primes)
        n = cofactor * math.prod(p**e for p, e in zip([2, 3, 5, 7, 11, 13], exps))
        # reference: the definition by factorization
        assert window.supports(n) == all(p in window.primes for p, _ in factorize(n))

    def test_window_supports_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                PrimeWindow.of([2, 3]).supports(n)

    def test_conditional_moment_limit(self):
        # with every relevant prime in the window, the conditional moments
        # reduce to the plain measure moments
        window = PrimeWindow.of(first_primes(15))
        phi = PsiBetaMu(3.0, TWO_ATOM)
        for k in range(0, 8):
            got = conditional_moment(phi, window, k)
            want = moment(TWO_ATOM, k) if k else 1.0
            # k <= 7 has all divisors window-supported, so only the correction
            # factor zeta_E/zeta distinguishes the two
            scale = zeta_e(2.0, window) / zeta(2.0)
            assert abs(got - want * (scale if k else 1.0)) < 1e-12


class TestReconstruction:
    def test_examples(self):
        window = PrimeWindow.of(first_primes(15))
        assert reconstruct_sn(PsiBetaMu(3, POINT_ONE), window, 1) < 1e-12
        assert reconstruct_sn(PsiBeta(2), window, 0) < 1e-15

    def test_divisor_split_oracle(self):
        # every divisor splits uniquely into window and co-window parts, which
        # is why the identity is exact; verify against a direct two-sided sum
        window = PrimeWindow.of([2])
        beta = 4.0
        phi = PsiBetaMu(beta, POINT_I)
        for n in (1, 2, 4, 6, 8, 12, 24):
            rhs = 0j
            for a in divisors(n):
                if window.supports(a):
                    rhs += a ** (1.0 - beta) * conditional_moment(phi, window, n // a)
            rhs /= zeta_e(beta - 1.0, window)
            assert abs(rhs - evaluate(phi, Monomial.s_power(n))) < 1e-15

    def test_defects_small(self):
        for beta in (3.0, 4.0):
            for mu in (POINT_ONE, POINT_I, TWO_ATOM, LEBESGUE):
                phi = PsiBetaMu(beta, mu)
                for n in range(0, 30):
                    assert reconstruct_sn(phi, PrimeWindow.of(first_primes(15)), n) < 1e-9


class TestGramAndPartition:
    def test_gram_identity(self):
        xs = [Monomial.identity(), Monomial.s_power(1), Monomial.v(2)]
        gram, least = gram_matrix(PsiBeta(2), xs)
        assert abs(gram - [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).max() < 1e-15
        assert least == pytest.approx(1.0)

    def test_gram_two_by_two(self):
        z2 = zeta(2)
        gram, least = gram_matrix(PsiBetaMu(3, POINT_ONE), [Monomial.identity(), Monomial.s_power(1)])
        assert gram[0][1] == pytest.approx(1 / z2)
        assert least == pytest.approx(1 - 1 / z2)

    def test_gram_unital(self):
        for phi in (PsiBeta(1), Ground(VectorState(1)), PsiBetaMu(2.5, TWO_ATOM)):
            gram, least = gram_matrix(phi, [Monomial.identity()])
            assert gram[0][0] == 1 and least == pytest.approx(1.0)

    def test_gram_matches_entrywise_loop(self):
        rng = random.Random(5)
        monos = monomial_grid(3, GRID_MULTS)
        phis = (PsiBeta(1.5), PsiBetaMu(2.5, TWO_ATOM), PsiBetaMu(inf, POINT_I), Ground(VectorState(1)))
        for phi in phis + (Ground(CircleMeasure.point(Fraction(1, 4))),):
            xs = rng.sample(monos, 12)
            products = ((monomial_mul(adjoint(xi), xj) for xj in xs) for xi in xs)
            want = np.array([[evaluate(phi, p) for p in row] for row in products])
            gram, least = gram_matrix(phi, xs)
            assert np.array_equal(gram, want)
            assert least == np.linalg.eigvalsh(want)[0]

    def test_partition_function(self):
        value, tail = partition_sum(3.0, 10**4)
        assert abs(value - zeta(2)) <= tail
        assert abs(zeta(2) - math.pi**2 / 6) < 1e-6
        # an empty or negative truncation has no sum and no tail bound to report
        for beta, n_max in ((3.0, -1), (2.5, -1), (3.0, 0), (3.0, True), (3.0, 10.0)):
            with pytest.raises(ValueError):
                partition_sum(beta, n_max)

    def test_moment_recovery(self):
        got = moments_from_state(PsiBetaMu(3.0, TWO_ATOM), 12)
        for k in range(1, 13):
            assert abs(got[k - 1] - moment(TWO_ATOM, k)) < 1e-9


class TestWeakStarLimit:
    def test_convergence_to_infinite_temperature(self):
        monos = monomial_grid(3, GRID_MULTS)
        for mu in (POINT_ONE, POINT_I, TWO_ATOM, LEBESGUE):
            infinite = PsiBetaMu(inf, mu)
            defects = []
            for beta in (3.0, 5.0, 10.0, 20.0):
                phi = PsiBetaMu(beta, mu)
                defects.append(max(abs(evaluate(phi, x) - evaluate(infinite, x)) for x in monos))
            assert defects[-1] < 1e-5
            assert defects[-1] < defects[0]
        # Lebesgue reaches the stated 1e-6 already at beta = 20; point masses
        # sit at the exact correction 1 - 1/zeta(19) ~ 1.9e-6
        phi = PsiBetaMu(20.0, LEBESGUE)
        infinite = PsiBetaMu(inf, LEBESGUE)
        assert max(abs(evaluate(phi, x) - evaluate(infinite, x)) for x in monos) < 1e-6
        gap = abs(evaluate(PsiBetaMu(20.0, POINT_ONE), Monomial.s_power(1)) - 1)
        assert gap == pytest.approx(1 - 1 / zeta(19), abs=1e-12)


class TestJson:
    def test_round_trip(self):
        for phi in (
            PsiBeta(1.5),
            PsiBeta(inf),
            PsiBetaMu(3, TWO_ATOM),
            PsiBetaMu(inf, LEBESGUE),
            Ground(VectorState(4)),
            Ground(CircleMeasure.point(Fraction(1, 4))),
            Ground(LEBESGUE),
            Ground(TWO_ATOM),
        ):
            assert state_from_json(state_to_json(phi)) == phi

    def test_spec_shapes(self):
        assert state_to_json(PsiBeta(1.5)) == {"variant": "psi_beta", "beta": 1.5}
        obj = state_to_json(Ground(CircleMeasure.point(Fraction(1, 4))))
        assert obj == {"variant": "ground", "omega": {"evaluation": "1/4"}}
        assert state_to_json(Ground(LEBESGUE)) == {"variant": "ground", "omega": {"mu": {"lebesgue": True}}}
        phi = state_from_json({"variant": "psi_beta_mu", "beta": 3, "mu": {"atoms": [["0", "1"]]}})
        assert phi == PsiBetaMu(3.0, CircleMeasure.point(0))

    def test_float_angles_read_by_their_decimal_text(self):
        # 0.1 is the angle 1/10, not the binary double nearest to it
        assert measure_from_json({"atoms": [[0.1, 1]]}) == measure_from_json({"atoms": [["1/10", 1]]})
        assert measure_from_json({"atoms": [[0.1, 1]]}) == CircleMeasure.point(Fraction(1, 10))
        ground = state_from_json({"variant": "ground", "omega": {"evaluation": 0.1}})
        assert ground == Ground(CircleMeasure.point(Fraction(1, 10)))
        for bad in (True, None, [0], {"t": 0}):
            with pytest.raises(ValueError):
                measure_from_json({"atoms": [[0, bad]]})
            with pytest.raises(ValueError):
                measure_from_json({"atoms": [[bad, 1]]})
