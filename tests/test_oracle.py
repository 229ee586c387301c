import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fixsettle import (
    EmptyDomainError,
    LemmaPreconditionError,
    ParameterDomainError,
    SimulationDivergedError,
    SystemMap,
    affine_system,
    Table1Case,
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
from fixsettle.oracle import (
    _CHUNK,
    DEFAULT_EPSILONS,
    _settling_curves,
    generate_level_run,
)
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

    def test_multidimensional_system_rejected_before_simulating(self):
        def no_steps(states):
            raise AssertionError("stepped before checking the dimension")

        system = SystemMap("no_steps", 2, no_steps)
        with pytest.raises(ParameterDomainError, match="dimension 2"):
            sweep_settling(
                system, [[1.0, 2.0], [3.0, 4.0]], example_bound(*TABLE1_CASES[0].params())
            )

    def test_roundtrip(self):
        case = TABLE1_CASES[0]
        result = sweep_settling(
            case.system(), [10.0, 1500.0], example_bound(*case.params())
        )
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()

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

    @pytest.mark.parametrize(
        "kwargs", [{"epsilon": math.nan}, {"epsilons": (1.0, math.nan)}], ids=["epsilon", "epsilons"]
    )
    def test_nan_level_rejected(self, kwargs):
        # A NaN level used to give worst_settling 0 and all_within_bound.
        case = TABLE1_CASES[0]
        grid = np.geomspace(2.0, 1000.0, 5)
        with pytest.raises(ParameterDomainError, match="got nan"):
            sweep_settling(case.system(), grid, example_bound(*case.params()), **kwargs)

    def test_grid_description_ranges_over_magnitudes(self):
        case = TABLE1_CASES[0]
        bound = example_bound(*case.params())
        signed = sweep_settling(case.system(), [-1000.0, -2.0, 2.0, 1000.0], bound)
        assert signed.grid_description == "4 initial conditions, |x0| in [2, 1000]"
        mixed = sweep_settling(case.system(), [-5.0, 0.0, 3.0], bound)
        assert mixed.grid_description == "3 initial conditions, |x0| in [0, 5]"

    @pytest.mark.parametrize("k_max", [3, 20, 30, 40])
    @pytest.mark.parametrize(
        "grid",
        [
            [1.0, 1e290, 1e299, 1e300],
            [1e300, 1e299, 1e290, 1.0],
            [1e299, 1.0, 1e300, 1e290],
            [1e290, 1e300, 1.0, 1e299, 3e289],
        ],
    )
    def test_first_row_in_grid_order_to_diverge_within_k_max(self, doubling_system, grid, k_max):
        # Doubling from 1e300 / 2^j leaves the guard at step j + 1; each row
        # runs as if alone, so the raised row is the first one in grid order
        # whose own simulate orbit diverges within k_max.
        want = None
        for x0 in grid:
            try:
                simulate(doubling_system, x0, k_max)
            except SimulationDivergedError as err:
                want = (x0, err.last_finite_index, str(err))
                break
        assert want is not None
        with pytest.raises(SimulationDivergedError) as err:
            sweep_settling(doubling_system, grid, 19, k_max=k_max)
        x0, k, message = want
        assert (err.value.x0, err.value.last_finite_index) == (x0, k)
        assert str(err.value) == f"sweep orbit from x0={x0!r} diverged: {message}"

    def test_batch_shape_checked(self):
        case = TABLE1_CASES[0]
        system = SystemMap("flat", 1, lambda states: states[..., 0])
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


def _counted(system):
    """``system`` with a body that records each call; returns it and the record."""
    calls = []

    def body(states):
        calls.append(states.shape)
        return system.body(states)

    return SystemMap(system.name, system.dimension, body), calls


def _body_calls_for_lanes(system, x0s, steps, levels):
    """Check every lane of one settling run against its own ``simulate`` and
    ``settling_vs_epsilon``, and return the number of body calls it made."""
    counted, calls = _counted(system)
    x = np.array(x0s, dtype=float).reshape(-1, 1)
    curves = _settling_curves(counted, x, steps, np.array(levels, dtype=float))
    for x0, curve in zip(x0s, curves):
        assert curve == settling_vs_epsilon(simulate(system, x0, steps), levels), (x0, steps)
    return len(calls)


def _count_to_seventy(states):
    return np.where(states >= 69.0, 0.0, states + 1.0)


def _zeros_apart(states):
    """+0.0 -> -0.0 -> 1 -> 2 -> ... -> 63 -> +0.0: period 65, and -0.0 and
    +0.0 go to different states."""
    out = np.where(states >= 63.0, 0.0, states + 1.0)
    return np.where(states == 0.0, np.where(np.signbit(states), 1.0, -0.0), out)


class TestCycleExit:
    """A settling run stops once every orbit has closed an exact cycle, and
    each lane still equals its own full-length simulation."""

    LEVELS = (10.0, 1.0, 0.5, 0.25, 0.1, 1e-3, 0.0)

    def test_fixed_point_zero(self, case1_system):
        # -0.0 steps to +0.0, which the map keeps.
        calls = _body_calls_for_lanes(case1_system, [0.0, -0.0], 500, self.LEVELS)
        assert calls == _CHUNK

    def test_halving_underflows_to_zero(self, halving_system):
        # 1e300 reaches the smallest subnormal after about 2 070 halvings.
        x0s = [1.0, -3.0, 1e300, 0.0, 5e-324]
        levels = (1.0, 1e-300, 5e-324, 0.0)
        calls = _body_calls_for_lanes(halving_system, x0s, 3000, levels)
        assert calls == 33 * _CHUNK

    def test_period_two_outside_the_smallest_levels(self):
        # Case 1 ends on a period-2 orbit of amplitude 0.217: inside 0.25,
        # never inside 0.1.
        case = TABLE1_CASES[0]
        grid = sweep_grid(case, points=21)
        calls = _body_calls_for_lanes(case.system(), grid, 200, self.LEVELS)
        assert calls <= 2 * _CHUNK
        counted, _ = _counted(case.system())
        result = sweep_settling(counted, grid, 19, epsilon=0.1, epsilons=(0.25, 0.1))
        assert result.worst_settling is None and not result.all_within_bound
        assert result.settling_vs_epsilon[1][1:] == (None, None)
        assert result.settling_vs_epsilon[0][1] is not None

    @pytest.mark.parametrize(
        "steps", [1, 2, 5, 63, 64, 65, 66, 127, 128, 129, 130, 131, 1000, 1001]
    )
    def test_every_k_max_phase(self, steps):
        # Long runs end on each phase of the cycle; short ones never reach
        # the end of a chunk.
        case = TABLE1_CASES[0]
        x0s = [2.0, -7.5, 1500.0, 3e5, 0.0]
        calls = _body_calls_for_lanes(case.system(), x0s, steps, self.LEVELS)
        assert calls == min(steps, _CHUNK)

    @pytest.mark.parametrize("steps", [64, 65, 66, 67, 200, 201, 202])
    def test_cycle_phases_of_different_norms(self, steps):
        # x -> 1 - x cycles 3, -2, 3, ... and 0.25, 0.75, ...; the 3-cycle
        # 1 -> 2 -> 5 -> 1 has three norms. Each level lies between them.
        flip = affine_system([[-1.0]], [1.0])
        calls = _body_calls_for_lanes(flip, [3.0, 0.25, 0.5], steps, (2.5, 0.6, 0.5, 0.3))
        assert calls == _CHUNK
        turn = SystemMap("turn", 1, lambda x: np.where(x == 1.0, 2.0, np.where(x == 2.0, 5.0, 1.0)))
        calls = _body_calls_for_lanes(turn, [1.0, 2.0, 5.0], steps, (4.0, 1.5, 1.0))
        assert calls == _CHUNK

    def test_level_equal_to_a_cycle_norm(self):
        case = TABLE1_CASES[1]
        norms = simulate(case.system(), 1500.0, 300).norms()
        cycle = sorted(set(norms[-4:].tolist()))
        levels = []
        for c in cycle:
            levels += [np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)]
        calls = _body_calls_for_lanes(case.system(), [1500.0, 40.0, -2.0], 300, tuple(levels))
        assert calls < 300

    def test_period_of_a_chunk_or_more_steps_to_the_end(self):
        system = SystemMap("count70", 1, _count_to_seventy)
        calls = _body_calls_for_lanes(system, [0.0, 5.0, 30.0], 500, (10.0, 50.0, 0.5))
        assert calls == 500

    def test_orbit_that_never_repeats_steps_to_the_end(self):
        system = affine_system([[-0.999]])
        calls = _body_calls_for_lanes(system, np.linspace(1.0, 100.0, 11), 300, self.LEVELS)
        assert calls == 300

    def test_one_lane_still_moving_keeps_every_lane_stepping(self):
        system = affine_system([[-0.999]])
        counted, calls = _counted(system)
        _settling_curves(counted, np.array([[0.0], [1.0]]), 300, np.array([0.5]))
        assert len(calls) == 300

    def test_states_are_compared_bit_for_bit(self):
        # From 1.0 the orbit sits at +0.0 at index 63 and at -0.0 at index
        # 64, the end of the first chunk; == would call that a fixed point.
        system = SystemMap("zeros_apart", 1, _zeros_apart)
        states = simulate(system, 1.0, 64).states[:, 0]
        assert states[63] == states[64] == 0.0
        assert np.signbit(states[64]) and not np.signbit(states[63])
        calls = _body_calls_for_lanes(system, [1.0], 200, (10.0, 0.5))
        assert calls == 200

    def test_case4_log_sweep_stops_within_two_chunks(self):
        # Without the exit the sweep would make bound + 50 = 7 865 calls.
        case = TABLE1_CASES[3]
        counted, calls = _counted(case.system())
        grid = np.geomspace(2.0, 800.0, 7)
        bound = example_bound(*case.params())
        result = sweep_settling(counted, grid, bound)
        assert len(calls) <= 2 * _CHUNK
        rows = _lane_rows(case.system(), grid, bound + 50, epsilons=DEFAULT_EPSILONS)
        want = _expected(rows, grid, bound)
        assert _got(result, want) == want

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_default_k_max_sweep_matches_simulate(self, case):
        system = case.system()
        grid = sweep_grid(case, points=9)
        bound = example_bound(*case.params())
        result = sweep_settling(system, grid, bound, epsilons=SWEEP_EPSILONS)
        want = _expected(_lane_rows(system, grid, bound + 50), grid, bound)
        assert _got(result, want) == want

    def test_oracle_measures_without_scalar_orbits(self):
        """Sweeps and ``table1`` step through ``_settling_curves``, which
        folds with ``settling.fold_entries`` and reads the curves through
        ``settling.entry_curves``; the scalar ``simulate`` +
        ``settling_vs_epsilon`` pair is not used."""
        source = Path(fixsettle.oracle.__file__).read_text()
        called = {
            node.func.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert not called & {"simulate", "settling_vs_epsilon", "entry_curve"}
        assert {"_settling_curves", "fold_entries", "entry_curves"} <= called


_ONE_ROW_SYSTEMS = [case.system() for case in TABLE1_CASES] + [
    affine_system([[0.5]], name="halving"),
    affine_system([[-1.0]], [1.0], name="flip"),
    SystemMap("zeros_apart", 1, _zeros_apart),
]


class TestOneRowRuns:
    """A one-row settling run steps its one state on the single-state lane
    of ``systems._steps``: the curves of its lane in a stack, from as many
    ``body`` calls as the stack makes, each on a state of shape (1,)."""

    LEVELS = (10.0, 1.0, 0.5, 0.25, 0.1, 1e-3, 0.0)

    @pytest.mark.parametrize("system", _ONE_ROW_SYSTEMS, ids=lambda s: s.name)
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 300])
    def test_equals_its_lane_of_a_stack(self, system, steps):
        levels = np.array(self.LEVELS)
        for x0 in (1500.0, -3.0, 1.0, 0.0, -0.0, 5e-324):
            one, one_calls = _counted(system)
            curves = _settling_curves(one, np.array([[x0]]), steps, levels)
            # Twin lanes close their cycles when the one lane does.
            twin, twin_calls = _counted(system)
            twins = _settling_curves(twin, np.array([[x0], [x0]]), steps, levels)
            mixed = _settling_curves(system, np.array([[x0], [0.75]]), steps, levels)
            assert curves == twins[:1] == mixed[:1], x0
            assert set(one_calls) == {(1,)} and set(twin_calls) == {(2, 1)}
            assert len(one_calls) == len(twin_calls), x0

    @pytest.mark.parametrize("x0", [1e7, -3e6, math.inf, -math.inf, math.nan])
    def test_diverging_single_x0_sweep_keeps_its_message(self, x0):
        # Case 1 diverges above 4^10.
        system = TABLE1_CASES[0].system()
        bound = example_bound(*TABLE1_CASES[0].params())
        with pytest.raises(SimulationDivergedError) as one:
            sweep_settling(system, [x0], bound)
        with pytest.raises(SimulationDivergedError) as twins:
            sweep_settling(system, [x0, x0], bound)
        with pytest.raises(SimulationDivergedError) as orbit, \
                np.errstate(over="ignore", invalid="ignore"):
            simulate(system, x0, bound + 50)
        assert str(one.value) == str(twins.value) == f"sweep orbit from x0={x0!r} diverged: {orbit.value}"
        assert one.value.last_finite_index == twins.value.last_finite_index \
            == orbit.value.last_finite_index
        assert repr(one.value.x0) == repr(twins.value.x0) == repr(x0)


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

    @pytest.mark.parametrize("x0, extra_steps", [(1500.0, 100), (-3.0, 7), (0.0, 1), (1000.0, 0)])
    def test_equals_scalar_orbits(self, x0, extra_steps):
        epsilons = (10.0, 1.0, 0.5, 0.2, 0.1, 0.0)
        for row, case in zip(table1_reproduce(epsilons, x0, extra_steps), TABLE1_CASES):
            traj = simulate(case.system(), x0, row.k_star_recomputed + extra_steps)
            assert row.settling == settling_vs_epsilon(traj, epsilons)

    def test_divergence_keeps_the_orbit_message(self):
        # Case 1 diverges above 4^10; 1e7 leaves the guard within its run.
        steps = example_bound(*TABLE1_CASES[0].params()) + 100
        with pytest.raises(SimulationDivergedError) as orbit, np.errstate(over="ignore"):
            simulate(TABLE1_CASES[0].system(), 1e7, steps)
        with pytest.raises(SimulationDivergedError) as table:
            table1_reproduce(x0=1e7)
        assert str(table.value) == str(orbit.value)
        assert table.value.last_finite_index == orbit.value.last_finite_index
        assert table.value.x0.tolist() == [1e7]

    def test_roundtrip(self):
        row = table1_reproduce(epsilon_list=[1.0, 1e-6])[0]
        assert row.settling[1][1] is None  # never inside the 1e-6 band
        assert json.loads(json.dumps(row.to_dict())) == row.to_dict()


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
