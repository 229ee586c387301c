import math

import numpy as np
import pytest

from fixsettle import (
    EmptyDomainError,
    LemmaPreconditionError,
    ParameterDomainError,
    SimulationDivergedError,
    SystemMap,
    affine_system,
    SweepResult,
    Table1Case,
    Table1Row,
    TABLE1_CASES,
    divergence_threshold,
    example_bound,
    lemma1_randomized_trial,
    settling_vs_epsilon,
    simulate,
    sweep_grid,
    sweep_settling,
    table1_reproduce,
)
import fixsettle.oracle
from fixsettle.oracle import DEFAULT_EPSILONS, generate_level_run
from fixsettle.settling import q_sequence


class TestDivergenceThreshold:
    def test_case_thresholds(self):
        # (2 / b')^(1/(r2'-1)): 4^10, 10^5, 20^2.5, 40^2
        expected = [4.0 ** 10, 1e5, 20.0 ** 2.5, 1600.0]
        for case, want in zip(TABLE1_CASES, expected):
            assert divergence_threshold(case.bprime, case.r2prime) == pytest.approx(want)

    def test_orbit_flips_outward_beyond_threshold(self):
        case = TABLE1_CASES[3]
        thresh = divergence_threshold(case.bprime, case.r2prime)
        system = case.system()
        above = system.apply([thresh * 1.05])
        assert abs(above[0]) > thresh * 1.05
        below = system.apply([thresh * 0.95])
        assert abs(below[0]) < thresh * 0.95

    def test_threshold_beyond_float64_is_infinite(self):
        # (2 / 0.5)^(1 / 1e-7) = 4^(1e7) overflows; the grid then caps at high.
        assert divergence_threshold(0.5, 1.0000001) == math.inf
        case = Table1Case("near_linear", 0.8, 0.5, 0.4, 1.0000001, 0, 0)
        assert sweep_grid(case, high=1e4)[-1] == pytest.approx(1e4)


class TestSweep:
    def test_grid_caps_below_threshold(self):
        grid1 = sweep_grid(TABLE1_CASES[0])
        assert len(grid1) == 101
        assert grid1[0] == pytest.approx(2.0)
        assert grid1[-1] == pytest.approx(min(1e6, 0.5 * 4.0 ** 10))
        grid4 = sweep_grid(TABLE1_CASES[3])
        assert grid4[-1] == pytest.approx(800.0)

    def test_single_zero_initial_condition(self):
        case = TABLE1_CASES[0]
        result = sweep_settling(
            case.system(), [0.0], example_bound(*case.params()), epsilon=1.0, k_max=30
        )
        assert result.worst_settling == 0
        assert result.all_within_bound
        assert result.bound == 19

    def test_case1_capped_sweep_within_bound(self):
        case = TABLE1_CASES[0]
        result = sweep_settling(
            case.system(),
            sweep_grid(case, points=31),
            example_bound(*case.params()),
            epsilon=1.0,
        )
        assert result.all_within_bound
        assert result.worst_settling <= 19
        assert result.epsilon == 1.0
        assert "31 initial conditions" in result.grid_description

    def test_case1_from_1e6_exceeds_bound(self):
        # Near the sign-flip threshold the per-step contraction degenerates,
        # so the local bound genuinely fails from the top of [2, 1e6].
        case = TABLE1_CASES[0]
        result = sweep_settling(
            case.system(), [1e6], example_bound(*case.params()), epsilon=1.0, k_max=200
        )
        assert result.worst_settling is not None
        assert result.worst_settling > 19
        assert not result.all_within_bound

    def test_divergence_carries_offending_x0(self):
        case = TABLE1_CASES[1]
        with pytest.raises(SimulationDivergedError) as err:
            sweep_settling(
                case.system(), [2e5], example_bound(*case.params()), epsilon=1.0, k_max=400
            )
        assert err.value.x0 == 2e5

    def test_negative_bound_rejected(self):
        with pytest.raises(ParameterDomainError, match="bound must be nonnegative"):
            sweep_settling(TABLE1_CASES[0].system(), [10.0], -1)

    def test_empty_grid(self):
        case = TABLE1_CASES[0]
        with pytest.raises(EmptyDomainError):
            sweep_settling(case.system(), [], example_bound(*case.params()))

    def test_multidimensional_system_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the dimension")

        monkeypatch.setattr(fixsettle.oracle, "simulate", no_simulation)
        monkeypatch.setattr(SystemMap, "apply_batch", no_simulation)
        system = affine_system([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ParameterDomainError, match="dimension 2"):
            sweep_settling(
                system, [[1.0, 2.0], [3.0, 4.0]], example_bound(*TABLE1_CASES[0].params())
            )

    def test_roundtrip(self):
        case = TABLE1_CASES[0]
        result = sweep_settling(
            case.system(), [10.0, 1500.0], example_bound(*case.params())
        )
        assert SweepResult.from_dict(result.to_dict()) == result

    def test_first_diverged_x0_in_grid_order_is_raised(self):
        # Case 2 diverges above |x0| = 1e5; the orbit from far above it
        # leaves the guard sooner than the one from just above it.
        case = TABLE1_CASES[1]
        system = case.system()
        near, far = 1.01e5, 1e7
        last_finite = {}
        for x0 in (near, far):
            with pytest.raises(SimulationDivergedError) as err, np.errstate(over="ignore"):
                simulate(system, x0, 400)
            last_finite[x0] = err.value.last_finite_index
        assert last_finite[far] < last_finite[near]
        with pytest.raises(SimulationDivergedError) as err:
            sweep_settling(
                system, [10.0, near, far], example_bound(*case.params()), k_max=400
            )
        k = last_finite[near]
        assert err.value.x0 == near
        assert err.value.last_finite_index == k
        assert str(err.value) == (
            f"sweep orbit from x0={near!r} diverged: state diverged at step "
            f"{k + 1} of '{system.name}' (last finite index {k})"
        )

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_divergence_index_equals_simulate(self, case):
        # Both loops stop at the first norm above DIVERGENCE_LIMIT.
        x0 = 1.01 * divergence_threshold(case.bprime, case.r2prime)
        with pytest.raises(SimulationDivergedError) as orbit:
            simulate(case.system(), x0, 200)
        with pytest.raises(SimulationDivergedError) as sweep:
            sweep_settling(case.system(), [x0], example_bound(*case.params()), k_max=200)
        assert sweep.value.last_finite_index == orbit.value.last_finite_index

    def test_non_finite_initial_condition_diverges_at_first_step(self):
        case = TABLE1_CASES[0]
        for x0 in (float("nan"), float("inf")):
            with pytest.raises(SimulationDivergedError) as err:
                sweep_settling(
                    case.system(), [2.0, x0], example_bound(*case.params()), k_max=30
                )
            assert err.value.last_finite_index == 0
            assert repr(err.value.x0) == repr(x0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"k_max": 0}, {"epsilon": -1.0}, {"epsilons": (1.0, -0.5)}],
        ids=["k_max", "epsilon", "epsilons"],
    )
    def test_parameters_checked(self, kwargs):
        case = TABLE1_CASES[0]
        with pytest.raises(ParameterDomainError):
            sweep_settling(case.system(), [10.0], example_bound(*case.params()), **kwargs)

    def test_batch_shape_checked(self):
        case = TABLE1_CASES[0]
        system = SystemMap("flat", 1, lambda s: s, step_batch=lambda states: states[:, 0])
        with pytest.raises(ParameterDomainError, match=r"returned shape \(2,\), expected \(2, 1\)"):
            sweep_settling(system, [1.0, 2.0], example_bound(*case.params()))


SWEEP_EPSILONS = (10.0, 1.0, 0.5, 0.25, 0.1, 1e-3, 0.0)


def _lane_rows(system, x0s, steps, epsilon=1.0, epsilons=SWEEP_EPSILONS):
    """settling_vs_epsilon of one scalar ``simulate`` per initial condition."""
    return [settling_vs_epsilon(simulate(system, x0, steps), (epsilon, *epsilons))
            for x0 in x0s]


def _expected(rows, x0s, bound):
    """The sweep result over these lanes, from their own settling rows."""
    settle = [row[0][1] for row in rows]
    keys = [np.inf if s is None else s for s in settle]
    worst = keys.index(max(keys))
    return {
        "worst_settling": settle[worst],
        "worst_x0": float(x0s[worst]),
        "all_within_bound": all(s is not None and s <= bound for s in settle),
        "settling_vs_epsilon": rows[worst][1:],
    }


def _got(result, want):
    return {key: getattr(result, key) for key in want}


class TestLockstepSweep:
    """Every orbit of a lockstep sweep agrees with its own scalar simulation."""

    STEPS = 80

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_every_lane_matches_simulate_for_every_batch_size(self, case):
        system = case.system()
        grid = sweep_grid(case)
        bound = example_bound(*case.params())
        rows = _lane_rows(system, grid, self.STEPS)
        for size in (1, 7, 101):
            for start in range(0, len(grid), size):
                x0s = grid[start:start + size]
                result = sweep_settling(
                    system, x0s, bound, k_max=self.STEPS,
                    epsilons=SWEEP_EPSILONS,
                )
                want = _expected(rows[start:start + size], x0s, bound)
                assert _got(result, want) == want, (size, start)

    def test_full_sweep_matches_simulate(self):
        case = TABLE1_CASES[1]
        system = case.system()
        grid = sweep_grid(case, points=41)
        bound = example_bound(*case.params())
        result = sweep_settling(system, grid, bound)
        rows = _lane_rows(system, grid, bound + 50, epsilons=DEFAULT_EPSILONS)
        want = _expected(rows, grid, bound)
        assert _got(result, want) == want

    def test_map_without_batch_body(self, halving_system):
        assert halving_system.step_batch is None
        x0s = [-8.0, 0.0, 3.0, 1e6, 0.75]
        result = sweep_settling(halving_system, x0s, 19, k_max=40, epsilons=SWEEP_EPSILONS)
        assert result.worst_x0 == 1e6
        assert result.worst_settling == 20  # 1e6 / 2^20 < 1 <= 1e6 / 2^19
        want = _expected(_lane_rows(halving_system, x0s, 40), x0s, result.bound)
        assert _got(result, want) == want

    def test_orbit_that_never_settles_is_worst(self, identity_system):
        result = sweep_settling(identity_system, [0.5, 2.0, 3.0], 19, k_max=10, epsilons=(1.0,))
        assert result.worst_settling is None
        assert result.worst_x0 == 2.0
        assert not result.all_within_bound
        assert result.settling_vs_epsilon == ((1.0, None, None),)


class TestTable1:
    def test_recomputed_bounds(self):
        rows = table1_reproduce()
        got = {r.case_id: r.k_star_recomputed for r in rows}
        assert got["case1"] == 19
        assert got["case2"] == 258
        assert got["case3"] == 1359
        assert got["case4"] in (7814, 7815)

    def test_discrepancy_flags(self):
        rows = table1_reproduce()
        flags = {r.case_id: r.discrepancy for r in rows}
        assert flags == {"case1": False, "case2": False, "case3": False, "case4": True}

    def test_case1_settling_curve(self):
        rows = table1_reproduce(epsilon_list=[10.0, 1.0])
        row = rows[0]
        assert row.x0 == 1500.0
        assert row.settling == ((10.0, 3, 3), (1.0, 5, 5))

    def test_settling_from_1500_within_every_recomputed_bound(self):
        for row in table1_reproduce(epsilon_list=[1.0]):
            _, stay, _ = row.settling[0]
            assert stay is not None
            assert stay <= row.k_star_recomputed

    def test_deterministic(self):
        assert table1_reproduce() == table1_reproduce()

    def test_roundtrip(self):
        row = table1_reproduce(epsilon_list=[1.0, 1e-6])[0]
        assert row.settling[1][1] is None  # never inside the 1e-6 band
        assert Table1Row.from_dict(row.to_dict()) == row


class TestLemma1Trials:
    def test_small_batch_passes(self):
        summary = lemma1_randomized_trial(200, seed=1)
        assert summary.passed
        assert summary.invalid_inputs == 0
        assert summary.max_sequence_length >= 1

    def test_boundary_head_just_above_one(self):
        run = generate_level_run(1.0 + 1e-9, beta=0.5, r2=2.0)
        assert 1 <= len(run) <= 2
        qs = q_sequence(run, 0.5, 2.0)
        assert qs.out_of_bounds == ()

    def test_overflowing_level_is_a_domain_error(self):
        # (1e200) ** 2 exceeds float64.
        with pytest.raises(ParameterDomainError, match="overflow"):
            generate_level_run(1e200, 0.5, 2.0)

    def test_adversarial_input_is_rejected_not_a_failure(self):
        # A level at or below 1 violates the preconditions outright.
        with pytest.raises(LemmaPreconditionError):
            q_sequence([2.0, 0.5], beta=0.25, r2=2.0)

    def test_trial_count_validated(self):
        with pytest.raises(ParameterDomainError):
            lemma1_randomized_trial(0, seed=1)

    def test_deterministic_for_fixed_seed(self):
        assert lemma1_randomized_trial(50, seed=9) == lemma1_randomized_trial(50, seed=9)
