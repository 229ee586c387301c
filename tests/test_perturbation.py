import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fixsettle import (
    BRANCH_HIGH,
    BRANCH_LOW,
    AttractivenessConfig,
    EmptyDomainError,
    FixedTimeGains,
    LyapunovCandidate,
    ParameterDomainError,
    Trajectory,
    abs_candidate,
    analyze_attractiveness,
    attractive_level,
    choose_branch,
    feasibility_residual,
    gains_from_example,
    measure_settling,
    perturbed_settling_bound,
    phase1_bound,
    remark_tradeoff_table,
    simulate,
    verify_attractiveness,
)
from conftest import CASE1


def cfg_high(m1=2.0, lv=2.0, delta0=0.1, beta=0.25, r2=2.0, alpha=0.64, r1=0.8):
    return AttractivenessConfig(
        gains=FixedTimeGains(alpha, beta, r1, r2),
        lipschitz_lv=lv,
        delta0=delta0,
        m=m1,
        branch=BRANCH_HIGH,
    )


def cfg_low(m2=2.0, lv=1.0, delta0=0.08, alpha=0.64, r1=0.8, beta=0.25, r2=2.0):
    return AttractivenessConfig(
        gains=FixedTimeGains(alpha, beta, r1, r2),
        lipschitz_lv=lv,
        delta0=delta0,
        m=m2,
        branch=BRANCH_LOW,
    )


class TestConfig:
    def test_m_constants_must_exceed_one(self):
        with pytest.raises(ParameterDomainError):
            cfg_high(m1=1.0)
        with pytest.raises(ParameterDomainError):
            cfg_low(m2=0.5)

    def test_delta0_nonnegative(self):
        with pytest.raises(ParameterDomainError):
            cfg_high(delta0=-0.1)

    @pytest.mark.parametrize("lv", [0.0, -1.0, math.inf, math.nan])
    def test_lipschitz_finite_and_positive(self, lv):
        # An infinite L_V would give B = inf and a NaN feasibility residual.
        with pytest.raises(ParameterDomainError, match="lipschitz_lv"):
            cfg_high(lv=lv)

    def test_branch_names(self):
        with pytest.raises(ParameterDomainError):
            AttractivenessConfig(
                gains=FixedTimeGains(0.5, 0.5, 0.5, 2.0),
                lipschitz_lv=1.0,
                delta0=0.1,
                branch="sideways",
            )

    def test_choose_branch(self):
        assert choose_branch(1.5) == BRANCH_HIGH
        assert choose_branch(1.0) == BRANCH_LOW
        assert choose_branch(0.2) == BRANCH_LOW


class TestAttractiveLevel:
    def test_high_branch_value(self):
        # (2 * 2 * 0.1 / 0.25)^(1/2) = 1.6^0.5
        assert attractive_level(cfg_high()) == pytest.approx(1.2649, abs=5e-5)

    def test_low_branch_value(self):
        # (2 * 1 * 0.08 / 0.64)^(1/0.8) = 0.25^1.25
        assert attractive_level(cfg_low()) == pytest.approx(0.1768, abs=5e-5)

    def test_unperturbed_limit_collapses(self):
        assert attractive_level(cfg_high(delta0=0.0)) == 0.0
        assert attractive_level(cfg_low(delta0=0.0)) == 0.0

    def test_overflowing_level_is_a_domain_error(self):
        # (2 * 1 * 0.1 / 0.01)^(1/0.001) = 20^1000 exceeds float64.
        with pytest.raises(ParameterDomainError, match="attractive level B"):
            attractive_level(cfg_low(alpha=0.01, r1=0.001, delta0=0.1))


class TestFeasibilityResidual:
    def test_zero_at_the_computed_level(self):
        cfg = cfg_high()
        level = attractive_level(cfg)
        scale = cfg.m * cfg.lipschitz_lv * cfg.delta0
        assert abs(feasibility_residual(cfg, level)) <= 1e-12 * scale

    def test_doubled_level_with_square_exponent(self):
        cfg = cfg_high(r2=2.0)
        level = attractive_level(cfg)
        expected = 3.0 * cfg.m * cfg.lipschitz_lv * cfg.delta0
        assert feasibility_residual(cfg, 2.0 * level) == pytest.approx(expected, rel=1e-12)

    def test_zero_perturbation_leaves_pure_power(self):
        cfg = cfg_high(delta0=0.0)
        assert feasibility_residual(cfg, 3.0) == pytest.approx(0.25 * 9.0)

    def test_target_must_be_positive(self):
        with pytest.raises(ParameterDomainError):
            feasibility_residual(cfg_high(), 0.0)

    def test_overflowing_power_is_a_domain_error(self):
        # b_target ** r2 with r2 > 1 exceeds float64 at 1e300.
        with pytest.raises(ParameterDomainError, match="feasibility residual"):
            feasibility_residual(cfg_high(), 1e300)


class TestPerturbedSettlingBound:
    def test_high_branch_value(self):
        # beta_d = 0.125, floor(8 * (8 - 1)) + 1 = 57
        assert perturbed_settling_bound(cfg_high()) == 57

    def test_low_branch_value(self):
        # alpha_d = 0.32, floor(0.32^-5) + 1 = 299
        assert perturbed_settling_bound(cfg_low()) == 299

    def test_large_m_approaches_nominal_phase_bound(self):
        nominal = phase1_bound(0.25, 2.0)
        softened = perturbed_settling_bound(cfg_high(m1=1e6))
        assert abs(softened - nominal) <= 1

    def test_bound_reuses_phase_kernels(self):
        # The slackened gain is exact: (1 - 1/3) 0.25 = 1/6, so the argument
        # is (6 - 1) 6 = 30.  Its float64 value, 0.16666666666666669, lies
        # above 1/6 and would give 29 + 1.
        cfg = cfg_high(m1=3.0)
        beta_d = (1 - Fraction(1, 3)) * Fraction(1, 4)
        assert perturbed_settling_bound(cfg) == phase1_bound(beta_d, 2.0) == 31
        assert phase1_bound((1.0 - 1.0 / 3.0) * 0.25, 2.0) == 30


class TestRemarkTradeoff:
    def test_values_and_monotonicity(self):
        rows = remark_tradeoff_table(cfg_high(), [1.5, 2.0, 4.0])
        ms, bs, ks = zip(*rows)
        assert bs == pytest.approx((1.0954, 1.2649, 1.7889), abs=5e-4)
        assert ks == (133, 57, 24)
        assert list(bs) == sorted(bs)
        assert list(ks) == sorted(ks, reverse=True)

    def test_single_row(self):
        rows = remark_tradeoff_table(cfg_high(), [2.0])
        assert len(rows) == 1

    def test_duplicate_m_rows_equal(self):
        rows = remark_tradeoff_table(cfg_high(), [2.0, 2.0])
        assert rows[0][1:] == rows[1][1:]

    def test_low_branch_uses_m2(self):
        rows = remark_tradeoff_table(cfg_low(), [2.0, 8.0])
        assert rows[0][1] < rows[1][1]
        assert rows[0][2] >= rows[1][2]

    def test_empty_grid(self):
        with pytest.raises(EmptyDomainError):
            remark_tradeoff_table(cfg_high(), [])

    def test_randomized_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cfg = AttractivenessConfig(
                gains=FixedTimeGains(
                    rng.uniform(0.05, 0.95),
                    rng.uniform(0.05, 0.95),
                    rng.uniform(0.05, 0.95),
                    rng.uniform(1.05, 4.0),
                ),
                lipschitz_lv=rng.uniform(0.1, 5.0),
                delta0=rng.uniform(1e-4, 0.5),
                branch=BRANCH_HIGH if rng.random() < 0.5 else BRANCH_LOW,
            )
            ms = np.sort(rng.uniform(1.0 + 1e-3, 50.0, size=5))
            rows = remark_tradeoff_table(cfg, ms)
            bs = [r[1] for r in rows]
            ks = [r[2] for r in rows]
            assert all(b2 >= b1 for b1, b2 in zip(bs, bs[1:]))
            assert all(k2 <= k1 for k1, k2 in zip(ks, ks[1:]))


def synthetic_trajectory(values):
    states = np.asarray(values, dtype=float).reshape(-1, 1)
    return Trajectory(states, truncated=True)


class TestVerifyAttractiveness:
    def test_zero_trajectory(self):
        traj = synthetic_trajectory([0.0, 0.0, 0.0])
        entry, remained = verify_attractiveness(traj, abs_candidate(), 0.0)
        assert entry == 0
        assert remained

    def test_nominal_case1_orbit(self, case1_system):
        traj = simulate(case1_system, 1500.0, 100)
        entry, remained = verify_attractiveness(traj, abs_candidate(), 1.0)
        assert entry == 5
        assert remained

    def test_exit_and_reentry(self):
        traj = synthetic_trajectory([5.0, 0.5, 5.0, 0.4, 0.3, 0.2])
        entry, remained = verify_attractiveness(traj, abs_candidate(), 1.0)
        assert entry == 3
        assert not remained  # it left the set after first entering at k = 1

    def test_never_stays(self):
        traj = synthetic_trajectory([5.0, 0.5, 5.0])
        entry, remained = verify_attractiveness(traj, abs_candidate(), 1.0)
        assert entry is None
        assert not remained

    def test_negative_level_rejected(self):
        with pytest.raises(ParameterDomainError):
            verify_attractiveness(synthetic_trajectory([1.0]), abs_candidate(), -1.0)


class TestAnalyzeAttractiveness:
    def test_report_fields_and_roundtrip(self, case1_system):
        gains = gains_from_example(*CASE1)
        cfg = AttractivenessConfig(
            gains=gains, lipschitz_lv=1.0, delta0=0.05, m=2.0, branch=BRANCH_HIGH
        )
        traj = simulate(case1_system, 1500.0, 80)
        report = analyze_attractiveness(cfg, traj, abs_candidate())
        assert report.branch == BRANCH_HIGH
        assert report.B == pytest.approx((2 * 0.05 / 0.25) ** (1 / 2.2))
        assert report.gain_d == pytest.approx(0.125)
        assert abs(report.feasibility_residual) <= 1e-13
        assert report.empirical_entry is not None
        assert report.remained_inside
        assert report.v_crossing_index == 5  # first dip of |x| to 1 or below
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_unperturbed_degeneracy_matches_settling(self, case1_system):
        # With delta0 = 0 the level collapses to 0 and entry into {V <= 0}
        # is exactly zero-band settling for the norm candidate.
        gains = gains_from_example(*CASE1)
        cfg = AttractivenessConfig(
            gains=gains, lipschitz_lv=1.0, delta0=0.0, m=2.0, branch=BRANCH_HIGH
        )
        for x0 in (0.0, 1500.0):
            traj = simulate(case1_system, x0, 60)
            report = analyze_attractiveness(cfg, traj, abs_candidate())
            assert report.B == 0.0
            assert report.empirical_entry == measure_settling(traj, 0.0)

    def test_candidate_evaluated_once_per_state(self, case1_system):
        rows = []
        base = abs_candidate()
        v = LyapunovCandidate("counted", lambda s: rows.append(len(s)) or base.values(s))
        cfg = AttractivenessConfig(
            gains=gains_from_example(*CASE1), lipschitz_lv=1.0, delta0=0.05
        )
        traj = simulate(case1_system, 1500.0, 40)
        rows.clear()  # the constructor's origin check evaluates V once
        report = analyze_attractiveness(cfg, traj, v)
        assert sum(rows) == len(traj)
        assert report == analyze_attractiveness(cfg, traj, base)

    def test_orbit_requires_candidate(self, case1_system):
        cfg = AttractivenessConfig(
            gains=gains_from_example(*CASE1),
            lipschitz_lv=1.0,
            delta0=0.1,
        )
        traj = simulate(case1_system, 10.0, 5)
        with pytest.raises(ParameterDomainError):
            analyze_attractiveness(cfg, traj, None)
