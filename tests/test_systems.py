import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from fixsettle._pcg64 import seed_states
from fixsettle.systems import (
    DIVERGENCE_LIMIT,
    PerturbationSpec,
    _SEED_BLOCK,
    norm,
    row_dots,
    row_norms,
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

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(TABLE1_CASES), share=st.floats(-0.5, 0.5))
    @example(case=TABLE1_CASES[2], share=1e-320)
    @example(case=TABLE1_CASES[3], share=-0.5)
    def test_one_step_within_rounding_of_the_60_digit_step(self, case, share):
        """|example_step(x) - y| <= 2 ulp(M) + ulp(y) for |x| below half the
        divergence threshold, where y is the 60-digit step rounded to float
        and M the larger exact power term.

        The float step is x - sign(x) max(p1, p2) with p_i = c_i pow(|x|, r_i).
        glibc's ``pow`` (2.28 on) errs by under 0.52 ulp; times c, that is
        under 1.6 ulp of c |x|^r, as every c here has a mantissa of at most
        1.6, and the product's rounding adds 1/2 ulp.  So each term, and so
        their max, is within 1.34 ulp(M) of its exact value.  The subtraction
        and the rounding of y add at most 1/2 ulp of their results each, 1 ulp
        of y in all unless the two straddle a power of two.  Then either
        ulp(M) is at least ulp(y) and the spare 0.66 ulp(M) covers the wider
        half ulp, or the gap of under 1.34 ulp(M) is below half the wider ulp
        and the float step rounds onto the power of two itself.  The 60-digit
        step's own error, about 1e-60 relative, is far below the spare.
        """
        import mpmath as mp

        params = case.params()
        x0 = share * divergence_threshold(case.bprime, case.r2prime)
        want = mp_example_orbit(x0, params, 1)[1]
        a, b, r1, r2 = params
        with mp.workdps(60):
            mag = abs(mp.mpf(x0))
            big = float(max(a * mag ** r1, b * mag ** r2))
        tolerance = 2 * np.spacing(big) + np.spacing(abs(want))
        assert abs(example_step(x0, *params) - want) <= tolerance

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


class TestDivergenceGuard:
    """An orbit diverges at its first state whose ``norm`` is not <= the limit."""

    def test_norm_above_the_limit_diverges_with_every_component_below(self):
        # ||(8e299, 8e299)|| = 1.13e300.
        with pytest.raises(SimulationDivergedError) as err:
            simulate(affine_system(np.eye(2)), [8e299, 8e299], 1)
        assert err.value.last_finite_index == 0

    def test_norm_below_the_limit_does_not_diverge(self):
        # ||(7e299, 7e299)|| = 9.9e299.
        traj = simulate(affine_system(np.eye(2)), [7e299, 7e299], 1)
        assert traj.states[1].tolist() == [7e299, 7e299]

    @pytest.mark.filterwarnings("error")
    def test_one_dimensional_orbit_whose_square_overflows(self, doubling_system, halving_system):
        # Above 1.4e154 the square x * x overflows, but the norm stays |x|.
        traj = simulate(doubling_system, 1e200, 10, stop_epsilon=1e150)
        assert traj.truncated and traj.states[-1, 0] == 1e200 * 2.0 ** 10
        with pytest.raises(SimulationDivergedError) as err:
            simulate(doubling_system, 3e299, 5)  # 3e299, 6e299, 1.2e300
        assert err.value.last_finite_index == 1
        # 1e299 / 2^163 <= 1e250 < 1e299 / 2^162
        traj = simulate(halving_system, -1e299, 400, stop_epsilon=1e250)
        assert len(traj) == 164 and not traj.truncated

    def test_limit_read_only_by_the_two_orbit_loops(self):
        """Only ``systems._run`` and ``oracle.sweep_settling`` read the limit,
        so a further orbit loop must share their rule, not restate it."""
        package = Path(__file__).resolve().parent.parent / "src" / "fixsettle"
        readers = set()
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    if name == "DIVERGENCE_LIMIT" and isinstance(node.ctx, ast.Load):
                        readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert readers == {"systems._run", "oracle.sweep_settling"}


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

    def test_nan_draw_breaks_the_bound(self, identity_system):
        pert = constant_perturbation([math.nan], delta0=0.05)
        with pytest.raises(PerturbationBoundError, match="norm nan"):
            simulate_perturbed(identity_system, pert, 0.0, 3)

    def test_draw_of_the_wrong_shape_rejected(self, identity_system):
        plane = affine_system(np.eye(2))
        with pytest.raises(ParameterDomainError, match=r"shape \(1,\), expected \(2,\)"):
            simulate_perturbed(plane, constant_perturbation([0.01], 0.05), [1.0, 1.0], 3)
        with pytest.raises(ParameterDomainError, match=r"shape \(2,\), expected \(1,\)"):
            simulate_perturbed(
                identity_system, constant_perturbation([0.01, 0.0], 0.05), 1.0, 3
            )

    def test_scalar_draw_counts_as_a_vector_in_one_dimension(self, identity_system):
        pert = PerturbationSpec(delta0=0.05, generator=lambda k, x: 0.01)
        traj = simulate_perturbed(identity_system, pert, 0.0, 2)
        assert traj.states[:, 0].tolist() == [0.0, 0.01, 0.02]


def _reference_ball(delta0, n, seed, k):
    """The documented ``uniform_ball`` draw: a fresh default_rng((seed, k))."""
    rng = np.random.default_rng((seed, k))
    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    radius = delta0 * rng.random() ** (1.0 / n)
    return direction / norm * radius


def _reference_orbit(system, generator, delta0, seed, x0, k_max):
    """A perturbed orbit stepped with a fresh RNG per step, and with the
    radial push along x / |x|; returns its states, or the last finite index
    of a diverged orbit."""
    x = np.array([x0])
    states = [x]
    for k in range(k_max):
        nxt = np.atleast_1d(np.asarray(system.step(x), dtype=float))
        if generator == "uniform_ball":
            g = _reference_ball(delta0, 1, seed, k)
        else:
            norm = math.hypot(*x)  # |x|, whose square may underflow
            direction = x / norm if norm != 0.0 else np.array([1.0])
            g = direction * (0.999 * delta0)
        assert float(np.linalg.norm(g)) < delta0
        nxt = nxt + g
        if not np.all(np.isfinite(nxt)) or np.any(np.abs(nxt) > DIVERGENCE_LIMIT):
            return k
        states.append(nxt)
        x = nxt
    return np.array(states)


class TestUniformBallStream:
    """Step k of ``uniform_ball`` draws from default_rng((seed, k)), bit for bit."""

    SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1]
    STEPS = [0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 1, 7,
             2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_states_equal_default_rng(self, seed):
        for k0 in (0, _SEED_BLOCK - 2, 2**32 - 3, 2**32, 2**64 - 1, 2**64):
            states = seed_states(seed, k0, 5)
            # A block stops where the low word of k would wrap.
            assert len(states) == (3 if k0 == 2**32 - 3 else 1 if k0 == 2**64 - 1 else 5)
            for j, (state, inc) in enumerate(states):
                want = np.random.default_rng((seed, k0 + j)).bit_generator.state["state"]
                assert want == {"state": state, "inc": inc}

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_draws_equal_default_rng(self, seed, n):
        gen = uniform_ball_perturbation(0.05, n, seed).generator
        for k in self.STEPS:
            got = gen(k, np.zeros(n))
            assert got.tobytes() == _reference_ball(0.05, n, seed, k).tobytes(), k

    def test_negative_step_rejected(self):
        # default_rng((seed, k)) rejects a negative k; the low 32-bit word of
        # k must not stand in for it.
        gen = uniform_ball_perturbation(0.05, 1, 3).generator
        for k in (-1, -(2**32), -(2**64) - 5):
            with pytest.raises(ParameterDomainError, match="nonnegative"):
                gen(k, np.zeros(1))
            with pytest.raises(ValueError):
                np.random.default_rng((3, k))
        assert gen(2**32 - 1, np.zeros(1)).tobytes() == _reference_ball(0.05, 1, 3, 2**32 - 1).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(TABLE1_CASES),
        generator=st.sampled_from(["uniform_ball", "radial"]),
        x0_share=st.floats(-2.0, 2.0),
        delta0=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**70),
        k_max=st.integers(1, 60),
    )
    # x0 is about -1e-305, whose square underflows: the push is still outward.
    @example(case=TABLE1_CASES[0], generator="radial", x0_share=-1e-311, delta0=0.5,
             seed=0, k_max=3)
    def test_orbits_equal_the_per_step_rng_loop(self, case, generator, x0_share, delta0, seed, k_max):
        system = case.system()
        x0 = x0_share * divergence_threshold(case.bprime, case.r2prime)
        if generator == "uniform_ball":
            pert = uniform_ball_perturbation(delta0, 1, seed)
        else:
            pert = radial_perturbation(delta0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_orbit(system, generator, delta0, seed, x0, k_max)
        if isinstance(want, int):
            with pytest.raises(SimulationDivergedError) as err:
                simulate_perturbed(system, pert, x0, k_max)
            assert err.value.last_finite_index == want
        else:
            got = simulate_perturbed(system, pert, x0, k_max)
            assert got.states.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_below_one_rejected(self, dimension):
        with pytest.raises(ParameterDomainError, match="dimension"):
            uniform_ball_perturbation(0.1, dimension, 1)
        with pytest.raises(ParameterDomainError, match="dimension"):
            radial_perturbation(0.1, dimension)

    def test_seed_knob_is_gone(self):
        # Only uniform_ball draws from a seed, and its generator keeps it.
        with pytest.raises(TypeError):
            PerturbationSpec(delta0=0.1, generator=lambda k, x: x * 0.0, seed=1)
        with pytest.raises(TypeError):
            radial_perturbation(0.1, 1, seed=1)
        assert not hasattr(constant_perturbation([0.0], 0.1), "seed")


# -- the state norm ------------------------------------------------------------------

# Finite components of every kind: zeros of both signs, subnormals, and
# magnitudes whose squares overflow or underflow.
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e-170, -1e-160,
                     1e154, 1e200, -1.7e308]),
)


def _in_range(row: np.ndarray) -> bool:
    """Whether the row's squared norm is a finite normal float."""
    with np.errstate(over="ignore"):
        dot = row.dot(row)
    return 2.0 ** -1022 <= dot < math.inf


class TestStateNorm:
    """``norm`` and ``row_norms``: np.linalg.norm's bits wherever the squared
    norm is in range, and the rescued norm everywhere else."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_finite, min_size=1, max_size=4))
    def test_contract(self, components):
        row = np.array(components)
        with np.errstate(over="ignore"):
            one = norm(row)
            batch = row_norms(row[None, :])
            plain = np.linalg.norm(row)
        assert type(one) is float and batch.shape == (1,)
        assert np.float64(one).tobytes() == batch[0].tobytes()
        if _in_range(row):
            assert batch[0].tobytes() == plain.tobytes()
        else:
            assert one == pytest.approx(math.hypot(*components), rel=1e-15)
        if row.any():
            assert one > 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_finite, st.sampled_from([math.inf, -math.inf, math.nan])),
                    min_size=1, max_size=4))
    def test_rows_with_inf_or_nan(self, components):
        row = np.array(components)
        with np.errstate(over="ignore", invalid="ignore"):
            got = [norm(row), float(row_norms(row[None, :])[0])]
        for value in got:
            if np.isnan(row).any():
                assert math.isnan(value)
            elif np.isinf(row).any():
                assert value == math.inf
            else:
                assert value == pytest.approx(math.hypot(*components), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batch_equals_rows_one_at_a_time(self, n):
        rng = np.random.default_rng(43)
        rows = rng.standard_normal((600, n)) * 10.0 ** rng.uniform(-320, 308, (600, 1))
        rows[:4] = np.array([0.0, -0.0, np.inf, np.nan])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            got = row_norms(rows)
            want = np.array([norm(row) for row in rows])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_component_is_the_magnitude(self):
        xs = np.array([0.0, -0.0, 5e-324, -1e-170, 1.5, -1e200, 1.7e308, -np.inf])
        assert row_norms(xs[:, None]).tobytes() == np.abs(xs).tobytes()
        with np.errstate(over="ignore"):
            assert [norm(np.array([x])) for x in xs] == np.abs(xs).tolist()

    def test_row_dots_equal_np_dot(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8):
            rows = rng.standard_normal((300, n))
            assert row_dots(rows).tobytes() == np.array([np.dot(r, r) for r in rows]).tobytes()

    def test_stop_test_and_settling_index_agree(self):
        # The stop test and the settling measurements read the same norm:
        # a plain sum of squares put ||x_5|| just above this epsilon.
        from fixsettle import measure_first_entry, measure_settling

        system = affine_system([[0.5, 0.1], [0.0, 0.4]])
        epsilon = 0.060891203288981684
        traj = simulate(system, [-3.4053656700181563, 5.7685740685680855], 40,
                        stop_epsilon=epsilon)
        assert len(traj) == 6 and not traj.truncated
        assert traj.norms()[-1] <= epsilon
        assert measure_settling(traj, epsilon) == 5
        assert measure_first_entry(traj, epsilon) == 5

    def test_radial_push_where_the_square_leaves_range(self):
        # From x = -1e-170 the push is outward (negative), and from x = 1e200
        # it has its full size: the zero map shows the push alone.
        zero = affine_system([[0.0]])
        pert = radial_perturbation(0.5, 1)
        assert simulate_perturbed(zero, pert, -1e-170, 1).states[1, 0] == -0.4995
        assert simulate_perturbed(zero, pert, 1e200, 1).states[1, 0] == 0.4995
        plane = affine_system(np.zeros((2, 2)))
        pushed = simulate_perturbed(plane, radial_perturbation(0.5, 2), [3e-170, -4e-170], 1)
        assert pushed.states[1] == pytest.approx([0.2997, -0.3996], rel=1e-15)


_NORM_FORMULA = re.compile(r"linalg\.norm|\.dot\(|hypot")
_NORM_HELPERS = ("norm", "row_norms", "row_dots")


def test_norm_formulas_live_only_in_the_systems_helpers():
    """No module computes a state norm by hand: every ``linalg.norm``,
    ``.dot(`` and ``hypot`` in the package sits in one of the helpers."""
    package = Path(__file__).resolve().parent.parent / "src" / "fixsettle"
    allowed = set()
    tree = ast.parse((package / "systems.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in _NORM_HELPERS:
            allowed.update(range(node.lineno, node.end_lineno + 1))
    assert len(allowed) > 0
    stray = []
    for path in sorted(package.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if _NORM_FORMULA.search(line) and not (path.name == "systems.py" and number in allowed):
                stray.append(f"{path.name}:{number}: {line.strip()}")
    assert stray == []
