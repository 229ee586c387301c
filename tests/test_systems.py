import numpy as np
import pytest

from fixsettle import (
    TABLE1_CASES,
    ParameterDomainError,
    PerturbationBoundError,
    SimulationDivergedError,
    Trajectory,
    affine_system,
    constant_perturbation,
    divergence_threshold,
    example_step,
    example_system,
    radial_perturbation,
    simulate,
    simulate_perturbed,
    uniform_ball_perturbation,
)
from conftest import CASE1, mp_example_orbit


class TestExampleStep:
    def test_origin_is_fixed_point(self):
        assert example_step(0.0, *CASE1) == 0.0

    def test_value_at_two_against_high_precision(self):
        # max(0.8 * 2^0.4, 0.5 * 2^1.1) = max(1.0556, 1.0718), step ~ 0.9282
        ref = mp_example_orbit(2.0, CASE1, 1)[1]
        got = example_step(2.0, *CASE1)
        assert got == pytest.approx(ref, rel=1e-14)
        assert got == pytest.approx(0.9282, abs=5e-5)

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(rng.uniform(-1e5, 1e5))
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 0.95)
            r1 = rng.uniform(0.01, 0.49)
            r2 = rng.uniform(1.01, 3.0)
            assert example_step(-x, a, b, r1, r2) == -example_step(x, a, b, r1, r2)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(aprime=0.0),
            dict(aprime=1.0),
            dict(bprime=1.2),
            dict(r1prime=0.5),
            dict(r1prime=0.0),
            dict(r2prime=1.0),
        ],
    )
    def test_parameter_domain(self, bad):
        params = dict(aprime=0.8, bprime=0.5, r1prime=0.4, r2prime=1.1)
        params.update(bad)
        with pytest.raises(ParameterDomainError):
            example_step(2.0, **params)

    @pytest.mark.filterwarnings("error")
    def test_overflow_gives_what_the_map_step_gives(self):
        # |1e300|^1.1 overflows: the step is -inf, with no error or warning.
        system = example_system(*CASE1)
        with np.errstate(over="ignore"):
            want = system.step(np.array([1e300]))[0]
        assert want == -np.inf
        assert example_step(1e300, *CASE1) == want
        assert example_step(-1e300, *CASE1) == np.inf
        assert type(example_step(1e300, *CASE1)) is float

    def test_max_branch_switches_exactly_once(self):
        # The two branches cross at (a'/b')^(1/(r2'-r1')); a scan around it
        # must pick the sublinear branch below and the superlinear one above.
        a, b, r1, r2 = CASE1
        crossover = (a / b) ** (1.0 / (r2 - r1))
        xs = np.logspace(-1, 1, 401)
        beta_wins = [b * x ** r2 >= a * x ** r1 for x in xs]
        switches = [i for i in range(len(xs) - 1) if beta_wins[i] != beta_wins[i + 1]]
        assert len(switches) == 1
        i = switches[0]
        assert xs[i] <= crossover <= xs[i + 1]


class TestSimulate:
    def test_zero_initial_state_stays_zero(self, case1_system):
        traj = simulate(case1_system, 0.0, 10)
        assert len(traj) == 11
        assert np.all(traj.states == 0.0)
        assert traj.truncated

    def test_zero_orbit_for_random_admissible_params(self):
        from fixsettle import example_system

        rng = np.random.default_rng(77)
        for _ in range(50):
            system = example_system(
                rng.uniform(0.01, 0.99),
                rng.uniform(0.01, 0.99),
                rng.uniform(0.01, 0.49),
                rng.uniform(1.01, 4.0),
            )
            traj = simulate(system, 0.0, 5)
            assert np.all(traj.states == 0.0)

    def test_case1_first_step_from_1500(self, case1_system):
        ref = mp_example_orbit(1500.0, CASE1, 1)[1]
        traj = simulate(case1_system, 1500.0, 1)
        assert traj.states[1, 0] == pytest.approx(ref, rel=1e-12)
        assert traj.states[1, 0] == pytest.approx(-58.4, abs=0.05)

    def test_case1_orbit_prefix_matches_high_precision(self, case1_system):
        refs = mp_example_orbit(1500.0, CASE1, 6)
        traj = simulate(case1_system, 1500.0, 6)
        for k, ref in enumerate(refs):
            assert traj.states[k, 0] == pytest.approx(ref, rel=1e-9)
        assert abs(traj.states[4, 0]) > 1.0
        assert abs(traj.states[5, 0]) < 1.0

    def test_geometric_orbit(self, halving_system):
        traj = simulate(halving_system, 8.0, 3)
        assert traj.states[:, 0].tolist() == [8.0, 4.0, 2.0, 1.0]
        assert traj.truncated

    def test_early_stop_records_index(self, halving_system):
        traj = simulate(halving_system, 8.0, 10, stop_epsilon=2.5)
        assert traj.states[:, 0].tolist() == [8.0, 4.0, 2.0]
        assert not traj.truncated

    def test_stop_epsilon_zero_only_exact_zero(self, case1_system):
        traj = simulate(case1_system, 0.0, 10, stop_epsilon=0.0)
        assert len(traj) == 1
        assert not traj.truncated
        # A nonzero oscillating orbit never triggers the exact-zero stop.
        traj = simulate(case1_system, 1500.0, 50, stop_epsilon=0.0)
        assert len(traj) == 51
        assert traj.truncated

    def test_divergence_guard(self):
        from fixsettle import SystemMap

        power = SystemMap("square", 1, lambda s: s * s)
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationDivergedError) as err:
                simulate(power, 1e200, 5)
        assert err.value.last_finite_index == 0

    def test_reproducible_bit_for_bit(self, case1_system):
        a = simulate(case1_system, 1500.0, 30)
        b = simulate(case1_system, 1500.0, 30)
        assert np.array_equal(a.states, b.states)

    def test_bad_kmax(self, case1_system):
        with pytest.raises(ParameterDomainError):
            simulate(case1_system, 1.0, 0)

    def test_initial_state_is_the_first_row(self, case1_system):
        traj = simulate(case1_system, 1500.0, 3)
        assert np.array_equal(traj.initial_state, [1500.0])
        assert np.array_equal(traj.initial_state, traj.states[0])
        # The head is stored once: there is no initial_state argument.
        with pytest.raises(TypeError):
            Trajectory(traj.states, traj.states[0], truncated=True)


class TestSimulatePerturbed:
    def test_zero_bound_reduces_to_nominal(self, case1_system):
        pert = uniform_ball_perturbation(0.0, 1, seed=3)
        nominal = simulate(case1_system, 1500.0, 25)
        perturbed = simulate_perturbed(case1_system, pert, 1500.0, 25)
        assert np.array_equal(nominal.states, perturbed.states)

    def test_injections_bounded_and_seeded(self, case1_system):
        pert = uniform_ball_perturbation(0.05, 1, seed=7)
        traj = simulate_perturbed(case1_system, pert, 1500.0, 40)
        again = simulate_perturbed(case1_system, pert, 1500.0, 40)
        assert np.array_equal(traj.states, again.states)
        # The injected perturbation is the gap to the nominal one-step image.
        injected = []
        for k in range(len(traj) - 1):
            nominal_next = case1_system.apply(traj.states[k])
            injected.append(float(np.linalg.norm(traj.states[k + 1] - nominal_next)))
        assert all(g < 0.05 for g in injected)
        assert any(g > 0.0 for g in injected)
        other = simulate_perturbed(
            case1_system, uniform_ball_perturbation(0.05, 1, seed=8), 1500.0, 40
        )
        assert not np.array_equal(traj.states, other.states)

    def test_constant_accumulation_on_identity(self, identity_system):
        pert = constant_perturbation([0.04], delta0=0.05)
        traj = simulate_perturbed(identity_system, pert, 0.0, 3)
        expected = [0.0]
        for _ in range(3):
            expected.append(expected[-1] + 0.04)
        assert traj.states[:, 0].tolist() == expected

    def test_norm_bound_violation_raises(self, identity_system):
        pert = constant_perturbation([0.06], delta0=0.05)
        with pytest.raises(PerturbationBoundError):
            simulate_perturbed(identity_system, pert, 0.0, 3)

    def test_radial_points_away_from_origin(self, identity_system):
        pert = radial_perturbation(0.1, 1, fraction=0.5)
        traj = simulate_perturbed(identity_system, pert, 1.0, 4)
        assert np.all(np.diff(traj.states[:, 0]) == pytest.approx(0.05))

    def test_delta0_must_be_finite(self):
        with pytest.raises(ParameterDomainError):
            constant_perturbation([0.0], delta0=float("inf"))


class TestSystemMap:
    def test_dimension_validation(self):
        from fixsettle import SystemMap

        with pytest.raises(ParameterDomainError):
            SystemMap("bad", 0, lambda s: s)

    def test_apply_checks_shapes(self, case1_system):
        with pytest.raises(ParameterDomainError):
            case1_system.apply([1.0, 2.0])

    def test_affine_requires_square_matrix(self):
        with pytest.raises(ParameterDomainError):
            affine_system([[1.0, 2.0]])

    def test_params_recorded(self, case1_system):
        assert case1_system.params["aprime"] == 0.8
        assert case1_system.params["r2prime"] == 1.1


def _batch_inputs(case, count=100_000):
    """Inputs over the float range whose powers stay finite, plus the map's
    delicate regions: zeros, subnormals, values near 1 and near the
    divergence threshold."""
    rng = np.random.default_rng(17)
    threshold = divergence_threshold(case.bprime, case.r2prime)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
               1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
               threshold, -threshold]
    n = (count - len(special)) // 4
    spread = 10.0 ** rng.uniform(-323, 200, 2 * n) * rng.choice([-1.0, 1.0], 2 * n)
    near_one = 1.0 + rng.uniform(-1e-6, 1e-6, n)
    near_threshold = threshold * (1.0 + rng.uniform(-1e-3, 1e-3, n))
    return np.concatenate([special, spread, near_one, -near_threshold])


class TestBatchedStep:
    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_matches_example_step_bit_for_bit(self, case):
        xs = _batch_inputs(case)
        got = case.system().apply_batch(xs.reshape(-1, 1))[:, 0]
        want = np.array([example_step(x, *case.params()) for x in xs])
        # Compare the bit patterns, so -0.0 against 0.0 counts too.
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_matches_scalar_step_where_powers_overflow(self, case):
        system = case.system()
        xs = np.array([1e250, -1e300, 1e305, 1.7e308, np.inf, -np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            got = system.apply_batch(xs.reshape(-1, 1))[:, 0]
            want = np.array([system.step(np.array([x]))[0] for x in xs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_every_batch_size_gives_the_same_rows(self, case1_system):
        xs = _batch_inputs(TABLE1_CASES[0], count=1001).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            whole = case1_system.apply_batch(xs)
            for size in (1, 7, 101):
                for start in range(0, len(xs), size):
                    part = case1_system.apply_batch(xs[start:start + size])
                    assert np.array_equal(part, whole[start:start + size], equal_nan=True)

    def test_map_without_batch_body_steps_row_by_row(self):
        from fixsettle import SystemMap

        calls = []

        def step(state):
            calls.append(state.copy())
            return state * 0.5

        system = SystemMap("halving", 1, step)
        states = np.array([[4.0], [-1.0], [0.0]])
        assert np.array_equal(system.apply_batch(states), [[2.0], [-0.5], [0.0]])
        assert len(calls) == 3

    def test_batch_shape_checked(self):
        from fixsettle import SystemMap

        system = SystemMap("flat", 1, lambda s: s, step_batch=lambda states: states[:, 0])
        with pytest.raises(ParameterDomainError, match=r"returned shape \(3,\), expected \(3, 1\)"):
            system.apply_batch(np.ones((3, 1)))

    def test_row_shape_checked_without_batch_body(self):
        from fixsettle import SystemMap

        system = SystemMap("widening", 1, lambda s: np.array([s[0], s[0]]))
        with pytest.raises(ParameterDomainError, match=r"returned shape \(2,\), expected \(1,\)"):
            system.apply_batch(np.ones((3, 1)))


class TestSeedValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterDomainError):
            uniform_ball_perturbation(0.1, 1, seed=-1)
