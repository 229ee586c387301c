import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fixsettle import (
    FixedTimeGains,
    LemmaPreconditionError,
    ParameterDomainError,
    analyze_settling,
    example_bound,
    gains_from_example,
    measure_first_entry,
    measure_settling,
    phase1_bound,
    phase2_bound,
    q_sequence,
    s_sequence,
    settling_bound,
    settling_vs_epsilon,
    simulate,
)
from fixsettle import settling
from conftest import CASE1


def _exact_decimal(x: float, value: Fraction) -> float:
    """``x``, after checking that its shortest decimal is ``value``."""
    assert Fraction(repr(x)) == value
    return x


class TestExactFloor:
    def test_large_exact_integer_is_not_lost(self):
        # 0.0001^-2 = 1e8 exactly, but float64 gives 99999999.99999999.
        assert phase2_bound(0.0001, 0.5) == 100000001
        assert phase2_bound(2e-05, 0.5) == 2500000001

    def test_value_just_below_an_integer_is_not_pulled_up(self):
        # The argument is 15.9999999995..., within 1e-9 of 16.
        assert phase2_bound(0.25000000000390626, 0.5) == 16

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, 30), j=st.integers(0, 20))
    def test_phase2_exact_integer_arguments(self, i, j):
        # alpha = 2^-i 5^-j has at most 15 significant digits, so its float
        # reads back as that decimal; alpha^-2 = 4^i 25^j exactly.
        assume(i + j > 0 and i - j <= 21)
        exact = Fraction(1, 2 ** i * 5 ** j)
        alpha = _exact_decimal(float(exact), exact)
        assert phase2_bound(alpha, 0.5) == 4 ** i * 25 ** j + 1

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, 20), j=st.integers(0, 12))
    def test_phase1_exact_integer_arguments(self, i, j):
        # beta = 1/m^2 with r2 = 3: beta^(1/(1-3)) = m, so the argument is
        # (m - 1) m^2 exactly.
        m = 2 ** i * 5 ** j
        assume(m > 1 and i - j <= 10)
        exact = Fraction(1, m * m)
        beta = _exact_decimal(float(exact), exact)
        assert phase1_bound(beta, 3.0) == (m - 1) * m * m + 1

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.integers(1, 9999),
        b=st.integers(1, 9999),
        r1=st.integers(1, 999),
        r2=st.integers(1001, 4000),
    )
    def test_matches_mpmath_on_short_literals(self, a, b, r1, r2):
        import mpmath as mp

        alpha, beta = f"0.{a:04d}", f"0.{b:04d}"
        r1s, r2s = f"0.{r1:03d}", f"{r2 // 1000}.{r2 % 1000:03d}"
        with mp.workdps(100):
            am, bm, r1m, r2m = (mp.mpf(v) for v in (alpha, beta, r1s, r2s))
            args = ((bm ** (1 / (1 - r2m)) - 1) / bm, am ** (1 / (r1m - 1)))
            # 100 digits cannot tell on which side of an integer an argument
            # within 1e-80 relative lies; the exact-integer tests cover those.
            floors = [
                int(mp.floor(v)) if abs(v - mp.nint(v)) > v * mp.mpf(10) ** -80 else None
                for v in args
            ]
        for bound, gain, r, arg, floor in (
            (phase1_bound, beta, r2s, args[0], floors[0]),
            (phase2_bound, alpha, r1s, args[1], floors[1]),
        ):
            if arg > sys.float_info.max:
                with pytest.raises(ParameterDomainError):
                    bound(float(gain), float(r))
            elif floor is not None:
                assert bound(float(gain), float(r)) == floor + 1

    def test_irrational_argument_near_an_integer(self, monkeypatch):
        # alpha^(1/(0.6-1)) = alpha^(-5/2) for alpha = float(17^-0.4) lies
        # within 3e-15 below 17, too close for the float shortcut; alpha's
        # numerator is no perfect square, so the decimal branch decides.
        import mpmath as mp

        alpha = float(17.0 ** -0.4)
        with mp.workdps(60):
            arg = mp.mpf(repr(alpha)) ** (1 / (mp.mpf("0.6") - 1))
        assert 0 < 17 - arg < 1e-14
        original, roots = settling._int_root, []

        def spy(n, q):
            roots.append(original(n, q))
            return roots[-1]

        monkeypatch.setattr(settling, "_int_root", spy)
        assert phase2_bound(alpha, 0.6) == 17
        assert None in roots

    def test_exponent_sensitivity_widens_the_margin(self):
        # With r2 = 1.001 the float exponent 1/(1 - r2) carries r2's rounding
        # amplified 1000 times: the float argument is 202422309839.13, the
        # exact one 202422309838.54 (mpmath).  A margin without the
        # 1/|1 - r| term would accept the float floor.
        b = 0.974327670679
        assert math.floor((b ** (1.0 / (1.0 - 1.001)) - 1.0) / b) == 202422309839
        assert phase1_bound(b, 1.001) == 202422309838 + 1

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ParameterDomainError, match="overflows"):
            phase1_bound(0.25, 1.0000001)
        with pytest.raises(ParameterDomainError, match="overflows"):
            phase2_bound(0.01, 0.9999999)

    def test_numpy_scalars_read_as_their_decimal(self):
        assert phase2_bound(np.float64(0.0001), np.float64(0.5)) == 100000001


class TestPhaseBounds:
    @pytest.mark.parametrize(
        "beta,r2,expected",
        [(0.25, 2.2, 9), (0.25, 2.0, 13), (0.99, 2.0, 1)],
    )
    def test_phase1_values(self, beta, r2, expected):
        assert phase1_bound(beta, r2) == expected

    @pytest.mark.parametrize(
        "alpha,r1,expected",
        [(0.64, 0.8, 10), (0.25, 0.5, 17), (0.5, 0.5, 5)],
    )
    def test_phase2_values(self, alpha, r1, expected):
        assert phase2_bound(alpha, r1) == expected

    def test_phase1_domain(self):
        with pytest.raises(ParameterDomainError):
            phase1_bound(1.0, 2.0)
        with pytest.raises(ParameterDomainError):
            phase1_bound(0.5, 1.0)

    def test_phase2_domain(self):
        with pytest.raises(ParameterDomainError):
            phase2_bound(0.5, 1.0)
        with pytest.raises(ParameterDomainError):
            phase2_bound(0.0, 0.5)


class TestSettlingBound:
    def test_mapped_case1_value(self):
        assert settling_bound(FixedTimeGains(0.64, 0.25, 0.8, 2.2)) == 19

    def test_exact_rational_powers(self):
        # 0.25^(1/(0.5-1)) = 16 and 4*(4-1) = 12 are exact; 16 + 12 + 2 = 30.
        assert settling_bound(FixedTimeGains(0.25, 0.25, 0.5, 2.0)) == 30

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            beta = rng.uniform(0.05, 0.95)
            r1 = rng.uniform(0.05, 0.95)
            r2 = rng.uniform(1.05, 4.0)
            a_small, a_big = sorted(rng.uniform(0.05, 0.95, size=2))
            if a_small == a_big:
                continue
            low = settling_bound(FixedTimeGains(a_big, beta, r1, r2))
            high = settling_bound(FixedTimeGains(a_small, beta, r1, r2))
            assert low <= high

    def test_composition_identity_spot(self):
        g = FixedTimeGains(0.64, 0.25, 0.8, 2.2)
        assert settling_bound(g) == phase1_bound(g.beta, g.r2) + phase2_bound(g.alpha, g.r1)


class TestExampleBound:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((0.8, 0.5, 0.4, 1.1), 19),
            ((0.5, 0.2, 0.3, 1.2), 258),
            ((0.1, 0.1, 0.05, 1.4), 1359),
            ((0.2, 0.05, 0.2, 1.5), 7815),
        ],
    )
    def test_benchmark_values(self, params, expected):
        assert example_bound(*params) == expected

    def test_fourth_case_floor_sensitivity(self):
        # In exact arithmetic the superlinear piece is 400 * 19 = 7600; the
        # plain float64 floor loses one, which is where the published 7814
        # vs recomputed 7815 gap comes from.
        a, b, r1, r2 = 0.2, 0.05, 0.2, 1.5
        plain = (
            math.floor(a ** (2.0 / (2.0 * r1 - 1.0)))
            + math.floor((b ** (2.0 / (1.0 - 2.0 * r2)) - 1.0) / b ** 2)
            + 2
        )
        assert plain == 7814
        assert example_bound(a, b, r1, r2) == 7815

    def test_matches_mapped_gains_route(self):
        for params in [(0.8, 0.5, 0.4, 1.1), (0.45, 0.3, 0.22, 1.6), (0.2, 0.05, 0.2, 1.5)]:
            assert example_bound(*params) == settling_bound(gains_from_example(*params))

    def test_mapped_gains_are_rounded_squares_of_the_decimals(self):
        # 0.8 * 0.8 and 0.05 * 0.05 give 0.6400000000000001 and
        # 0.0025000000000000005 in float64.
        gains = gains_from_example(0.8, 0.05, 0.4, 1.1)
        assert (gains.alpha, gains.beta) == (0.64, 0.0025)

    def test_parameter_domain(self):
        with pytest.raises(ParameterDomainError):
            example_bound(0.8, 0.5, 0.5, 1.1)


class TestMeasureSettling:
    def test_zero_trajectory(self, case1_system):
        traj = simulate(case1_system, 0.0, 10)
        assert measure_settling(traj, 0.0) == 0
        assert measure_settling(traj, 5.0) == 0

    def test_case1_from_1500_at_unit_epsilon(self, case1_system):
        traj = simulate(case1_system, 1500.0, 200)
        assert measure_settling(traj, 1.0) == 5

    def test_case1_tiny_epsilon_never_settles(self, case1_system):
        # The orbit converges to a period-2 cycle near (a'/2)^(1/(1-r1')),
        # about 0.2172, so a 1e-6 band is never entered.
        traj = simulate(case1_system, 1500.0, 400)
        assert measure_settling(traj, 1e-6) is None
        amp = (CASE1[0] / 2.0) ** (1.0 / (1.0 - CASE1[2]))
        assert amp == pytest.approx(0.2172, abs=5e-5)
        tail = np.abs(traj.states[50:, 0])
        assert np.all(np.abs(tail - amp) < 0.01)

    def test_monotone_in_epsilon(self, case1_system):
        traj = simulate(case1_system, 1500.0, 300)
        epsilons = [10.0, 1.0, 0.5, 0.25, 0.23]
        settlings = [measure_settling(traj, e) for e in epsilons]
        assert None not in settlings
        assert settlings == sorted(settlings)

    def test_entry_and_stay_vs_first_entry(self, case1_system):
        # At epsilon 0.2 the orbit dips inside at k = 6 but the cycle's other
        # leg (~0.217 amplitude, approached from outside) keeps leaving.
        traj = simulate(case1_system, 1500.0, 100)
        assert measure_first_entry(traj, 0.2) == 6
        stay = measure_settling(traj, 0.2)
        assert stay is None or stay > 6

    def test_last_state_outside_gives_none(self, halving_system):
        traj = simulate(halving_system, 8.0, 2)  # states 8, 4, 2
        assert measure_settling(traj, 1.0) is None
        assert measure_settling(traj, 2.0) == 2

    def test_curve_helper(self, case1_system):
        traj = simulate(case1_system, 1500.0, 200)
        curve = settling_vs_epsilon(traj, [10.0, 1.0])
        assert curve == ((10.0, 3, 3), (1.0, 5, 5))

    def test_negative_epsilon_rejected(self, case1_system):
        traj = simulate(case1_system, 1.0, 2)
        with pytest.raises(ParameterDomainError):
            measure_settling(traj, -0.5)


class TestAnalyzeSettling:
    def test_report_composition(self, case1_system):
        gains = gains_from_example(*CASE1)
        traj = simulate(case1_system, 1500.0, 100)
        report = analyze_settling(gains, traj, epsilon=1.0)
        assert report.bound_K_star == 19
        assert report.bound_K1 + report.bound_K2_gap == 19
        assert report.empirical_settling == 5
        assert report.satisfied

    def test_without_trajectory(self):
        report = analyze_settling(FixedTimeGains(0.25, 0.25, 0.5, 2.0))
        assert report.bound_K_star == 30
        assert report.empirical_settling is None
        assert not report.satisfied

    def test_roundtrip(self):
        report = analyze_settling(FixedTimeGains(0.25, 0.25, 0.5, 2.0))
        from fixsettle.settling import SettlingReport

        assert SettlingReport.from_dict(report.to_dict()) == report


class TestQSequence:
    def test_single_level(self):
        qs = q_sequence([2.0], beta=0.25, r2=2.0)
        assert qs.q == (8.0,)
        assert qs.lower == 4.0
        assert qs.upper == 16.0
        assert qs.out_of_bounds == ()

    def test_inversion_roundtrip_exact(self):
        beta, r2 = 0.25, 2.0
        for q in (4.5, 5.3, 9.0, 15.9):
            v = q * beta ** (1.0 / (r2 - 1.0))
            qs = q_sequence([v], beta, r2)
            assert qs.q[0] == q

    def test_generated_run_stays_in_bounds(self):
        beta, r2 = 0.05, 1.5
        v = 0.9 * beta ** (1.0 / (1.0 - r2))
        vs = [v]
        while True:
            nxt = vs[-1] - beta * vs[-1] ** r2
            if not nxt > 1.0:
                break
            vs.append(nxt)
        assert len(vs) > 5
        qs = q_sequence(vs, beta, r2)
        assert qs.out_of_bounds == ()
        assert len(qs.q) == len(vs)

    def test_level_at_most_one_rejected(self):
        with pytest.raises(LemmaPreconditionError) as err:
            q_sequence([2.0, 1.0], beta=0.25, r2=2.0)
        assert err.value.index == 1

    def test_decrement_violation_rejected(self):
        # 2 - 0.25 * 4 = 1, so a successor of 1.9 breaks the decrement.
        with pytest.raises(LemmaPreconditionError) as err:
            q_sequence([2.0, 1.9], beta=0.25, r2=2.0)
        assert err.value.index == 1

    def test_empty_rejected(self):
        with pytest.raises(LemmaPreconditionError):
            q_sequence([], beta=0.25, r2=2.0)

    def test_parameter_domain(self):
        with pytest.raises(ParameterDomainError):
            q_sequence([2.0], beta=1.5, r2=2.0)
        with pytest.raises(ParameterDomainError):
            q_sequence([2.0], beta=0.25, r2=0.9)

    def test_overflowing_power_is_a_domain_error(self):
        # beta ** (-1 / (r2 - 1)) = 4 ** 1e7 exceeds float64.
        with pytest.raises(ParameterDomainError, match="overflow"):
            q_sequence([2.0], 0.25, 1.0000001)
        # So does the precondition power (1e200) ** 2.
        with pytest.raises(ParameterDomainError, match="overflow"):
            q_sequence([1e200, 2.0], 0.25, 2.0)

    def test_bounds_ordering_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            beta = rng.uniform(0.05, 0.95)
            r2 = rng.uniform(1.05, 5.0)
            qs = q_sequence([1.0 + 1e-6], beta, r2)
            assert qs.lower < qs.upper


class TestSSequence:
    @pytest.mark.parametrize("r1", [0.1, 0.5, 0.9])
    def test_unit_start_extinguishes_exactly(self, r1):
        seq = s_sequence(1.0, r1, max_steps=10)
        assert seq.s == (1.0, 0.0)
        assert seq.clamped_at is None

    def test_negative_excursion_clamped_and_annotated(self):
        # 0.25 * (1 - 0.25^-0.5) = 0.25 * (1 - 2) = -0.25, clamped to 0.
        seq = s_sequence(0.25, 0.5, max_steps=10)
        assert seq.s == (0.25, 0.0)
        assert seq.clamped_at == 1
        assert seq.clamp_raw == pytest.approx(-0.25)

    def test_near_unit_start(self):
        seq = s_sequence(0.9999, 0.9, max_steps=10)
        assert seq.s[0] == 0.9999
        assert all(a > b for a, b in zip(seq.s, seq.s[1:]))
        assert seq.clamped_at == 1
        assert seq.clamp_raw < 0

    def test_no_negative_values_ever_emitted(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s0 = rng.uniform(1e-6, 1.0)
            r1 = rng.uniform(0.01, 0.99)
            seq = s_sequence(s0, r1, max_steps=20)
            assert all(v >= 0.0 for v in seq.s)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            s_sequence(0.0, 0.5, 5)
        with pytest.raises(ParameterDomainError):
            s_sequence(1.1, 0.5, 5)
        with pytest.raises(ParameterDomainError):
            s_sequence(0.5, 1.0, 5)
        with pytest.raises(ParameterDomainError):
            s_sequence(0.5, 0.5, 0)


class TestPhase1EmpiricalProperty:
    def test_first_drop_below_one_within_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            beta = rng.uniform(0.05, 0.95)
            r2 = rng.uniform(1.1, 5.0)
            cap = beta ** (1.0 / (1.0 - r2))
            v = 1.0 + (cap - 1.0) * rng.uniform(0.001, 0.999)
            bound = phase1_bound(beta, r2)
            k = 0
            while v > 1.0:
                v = v - beta * v ** r2
                k += 1
                assert k <= bound


class TestBoundsAgainstHighPrecision:
    """Independent 50-digit evaluation of every benchmark bound piece."""

    @pytest.mark.parametrize(
        "params",
        [
            (0.8, 0.5, 0.4, 1.1),
            (0.5, 0.2, 0.3, 1.2),
            (0.1, 0.1, 0.05, 1.4),
            (0.2, 0.05, 0.2, 1.5),
        ],
    )
    def test_example_bound_matches_exact_arithmetic(self, params):
        import mpmath as mp

        with mp.workdps(50):
            a, b, r1, r2 = (mp.mpf(repr(p)) for p in params)
            low_piece = mp.floor(a ** (2 / (2 * r1 - 1)))
            high_piece = mp.floor((b ** (2 / (1 - 2 * r2)) - 1) / b ** 2)
            exact = int(low_piece + high_piece + 2)
        assert example_bound(*params) == exact

    def test_phase_pieces_match_exact_arithmetic(self):
        import mpmath as mp

        cases = [(0.64, 0.25, 0.8, 2.2), (0.25, 0.25, 0.5, 2.0), (0.04, 0.0025, 0.4, 3.0)]
        for alpha, beta, r1, r2 in cases:
            with mp.workdps(50):
                am, bm, r1m, r2m = (mp.mpf(repr(v)) for v in (alpha, beta, r1, r2))
                exact_p2 = int(mp.floor(am ** (1 / (r1m - 1)))) + 1
                exact_p1 = int(mp.floor((bm ** (1 / (1 - r2m)) - 1) / bm)) + 1
            assert phase2_bound(alpha, r1) == exact_p2
            assert phase1_bound(beta, r2) == exact_p1
