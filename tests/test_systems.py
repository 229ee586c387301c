import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
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
from fixsettle import _pcg64
from fixsettle.systems import (
    DIVERGENCE_LIMIT,
    PerturbationSpec,
    _SEED_BLOCK,
    _steps,
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
            want = system.body(np.array([1e300]))[0]
            assert system.body(np.array([[1e300]]))[0, 0] == want
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

    @pytest.mark.parametrize("stop_epsilon", [-0.5, math.nan])
    def test_stop_epsilon_must_be_a_nonnegative_number(self, case1_system, stop_epsilon):
        # A NaN level used to be taken and never stopped the orbit.
        with pytest.raises(ParameterDomainError, match="stop_epsilon must be nonnegative"):
            simulate(case1_system, 1500.0, 50, stop_epsilon=stop_epsilon)

    def test_stopped_orbit_leaves_the_callers_errstate(self, halving_system):
        # The orbit loop is left suspended at the stop; closing it must not
        # restore an errstate out of order.
        before = np.geterr()
        with np.errstate(all="raise"):
            inner = np.geterr()
            traj = simulate(halving_system, 8.0, 10, stop_epsilon=2.5)
            assert not traj.truncated
            assert np.geterr() == inner
        assert np.geterr() == before

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

    def test_limit_read_only_by_the_one_orbit_loop(self):
        """Only ``systems._steps`` reads the limit, and the sweep steps
        through it rather than calling the map itself, so a further orbit
        loop must share its rule, not restate it."""
        package = Path(__file__).resolve().parent.parent / "src" / "fixsettle"
        oracle = (package / "oracle.py").read_text()
        assert "divergence_error" not in oracle and "apply_batch" not in oracle
        readers = set()
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    if name == "DIVERGENCE_LIMIT" and isinstance(node.ctx, ast.Load):
                        readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert readers == {"systems._steps"}


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
        with pytest.raises(ParameterDomainError,
                           match=r"block at step 0 has shape \(3, 1\), expected \(3, 2\)"):
            simulate_perturbed(plane, constant_perturbation([0.01], 0.05), [1.0, 1.0], 3)
        with pytest.raises(ParameterDomainError,
                           match=r"block at step 0 has shape \(3, 2\), expected \(3, 1\)"):
            simulate_perturbed(
                identity_system, constant_perturbation([0.01, 0.0], 0.05), 1.0, 3
            )
        per_step = PerturbationSpec(delta0=0.05, generator=lambda k, x: np.zeros(2))
        with pytest.raises(ParameterDomainError, match=r"step 0 has shape \(2,\), expected \(1,\)"):
            simulate_perturbed(identity_system, per_step, 1.0, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radial_works_row_wise_on_a_stack(self, n):
        """Each row of a stack's radial draw is that state's own draw, bit for
        bit: zero rows along the first axis, NaN rows NaN."""
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-200, 200, (40, 1))
        rows[0], rows[1], rows[2] = 0.0, -0.0, 5e-324
        rows[3, 0], rows[4, -1], rows[5] = math.nan, math.inf, -1e-170
        for delta0 in (0.1, 0.0):
            pert = radial_perturbation(delta0, n)
            with np.errstate(over="ignore", invalid="ignore"):  # squares past range, inf / inf
                got = pert.generator(0, rows)
                singles = [np.atleast_1d(pert.generator(0, row)) for row in rows]
                # Each state over its own ``norm``, the first axis at the origin.
                want = [(row / norm(row) if norm(row) != 0.0 else np.eye(n)[0]) * (0.999 * delta0)
                        for row in rows] if delta0 else np.zeros(rows.shape)
            assert got.shape == rows.shape
            assert got.tobytes() == np.array(singles, dtype=float).tobytes()
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
        stack = np.array([[1.0, 1.0], [0.0, 0.0], [-3.0, 4.0]])
        pert = radial_perturbation(0.1, 2)
        want = [pert.sample(0, row) for row in stack]
        assert pert.sample(0, stack).tobytes() == np.array(want).tobytes()
        with pytest.raises(PerturbationBoundError, match="at step 3 has norm nan"):
            pert.sample(3, np.array([[1.0, 1.0], [math.nan, 0.0]]))

    def test_scalar_draw_counts_as_a_vector_in_one_dimension(self, identity_system):
        pert = PerturbationSpec(delta0=0.05, generator=lambda k, x: 0.01)
        traj = simulate_perturbed(identity_system, pert, 0.0, 2)
        assert traj.states[:, 0].tolist() == [0.0, 0.01, 0.02]


def _block_spec(draw, delta0=0.05, n=1, block=True):
    """A state-free spec whose step-k draw is ``draw(k)``, given a block at a
    time or, with ``block=False``, only step by step."""
    def rows(k0, count):
        return np.array([draw(k) for k in range(k0, k0 + count)], dtype=float).reshape(count, n)

    return PerturbationSpec(delta0=delta0, generator=lambda k, x: rows(k, 1)[0], name="rows",
                            block=rows if block else None)


class TestPerturbationBlocks:
    """State-free perturbations reach the orbit a block at a time and keep
    every shape, bound and divergence check of the per-step ``sample``."""

    @staticmethod
    def _raised(system, spec, x0, k_max):
        with pytest.raises(Exception) as err:
            simulate_perturbed(system, spec, x0, k_max)
        return err.value

    @pytest.mark.parametrize("bad_step", [0, 50, _SEED_BLOCK - 1, _SEED_BLOCK + 3])
    def test_bad_row_raises_at_its_own_step(self, identity_system, bad_step):
        def draw(k):
            return 0.06 if k == bad_step else 0.01

        # Past the second block edge, so every bad step is reached.
        k_max = _SEED_BLOCK + 72
        per_block = self._raised(identity_system, _block_spec(draw), 0.0, k_max)
        per_step = self._raised(identity_system, _block_spec(draw, block=False), 0.0, k_max)
        assert isinstance(per_block, PerturbationBoundError)
        assert str(per_block) == str(per_step) == (
            f"perturbation at step {bad_step} has norm 0.06, "
            "which is not strictly below delta0=0.05"
        )

    def test_stack_needs_a_block(self):
        """Per-step draws for a stack would raise row 1's bound error at step
        2 before row 0's divergence at step 11, so a stack without a block
        is refused; with one, row 0 diverges first."""
        tenfold = affine_system([[10.0]])
        stack = np.array([[1e290], [1.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(ParameterDomainError, match="perturbation 'rows' has no block"):
                next(_steps(tenfold, stack, 20, _block_spec(lambda k: 0.01, block=False)))
            with pytest.raises(SimulationDivergedError) as err:
                list(_steps(tenfold, stack, 20, _block_spec(lambda k: 0.01)))
        assert err.value.last_finite_index == 10
        assert err.value.x0.tolist() == [1e290]

    def test_bad_row_after_the_orbit_stops_is_never_reached(self, identity_system):
        spec = _block_spec(lambda k: 0.06 if k == 60 else 0.03125)
        traj = simulate_perturbed(identity_system, spec, 0.0, 60)
        assert len(traj) == 61 and traj.truncated
        traj = simulate_perturbed(identity_system, spec, -1.0, 200, stop_epsilon=0.5)
        assert len(traj) == 17 and not traj.truncated

    def test_divergence_before_the_bad_step_is_the_error(self):
        # x -> 1e100 x overflows the guard at step 4; the bad draw is at step 50.
        blowup = affine_system([[1e100]])

        def draw(k):
            return 0.06 if k == 50 else 0.01

        per_block = self._raised(blowup, _block_spec(draw), 1.0, 200)
        per_step = self._raised(blowup, _block_spec(draw, block=False), 1.0, 200)
        assert isinstance(per_block, SimulationDivergedError)
        assert isinstance(per_step, SimulationDivergedError)
        assert per_block.last_finite_index == per_step.last_finite_index == 3
        assert str(per_block) == str(per_step)

    def test_block_of_the_wrong_shape_names_step_and_shapes(self, identity_system):
        def rows(k0, count):
            # Right for the first block, one row too many for the second.
            return np.full((count + (k0 > 0), 1), 0.01)

        spec = PerturbationSpec(delta0=0.05, generator=lambda k, x: 0.01, block=rows)
        with pytest.raises(ParameterDomainError,
                           match=rf"'custom' block at step {_SEED_BLOCK} has shape "
                                 rf"\(73, 1\), expected \(72, 1\)"):
            simulate_perturbed(identity_system, spec, 0.0, _SEED_BLOCK + 72)
        flat = PerturbationSpec(delta0=0.05, generator=lambda k, x: 0.01,
                                block=lambda k0, count: np.full(count, 0.01))
        with pytest.raises(ParameterDomainError,
                           match=r"block at step 0 has shape \(5,\), expected \(5, 1\)"):
            simulate_perturbed(identity_system, flat, 0.0, 5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_row_fails_the_bound(self, n):
        plane = affine_system(np.eye(n))
        spec = _block_spec(lambda k: [math.nan] + [0.0] * (n - 1) if k == 7 else [0.0] * n, n=n)
        with pytest.raises(PerturbationBoundError, match="at step 7 has norm nan"):
            simulate_perturbed(plane, spec, [0.0] * n, 20)

    def test_constant_block_is_never_mutated_by_stepping(self):
        vec = np.array([0.01, -0.02])
        pert = constant_perturbation(vec, delta0=0.05)
        plane = affine_system(np.eye(2))
        traj = simulate_perturbed(plane, pert, [0.0, 0.0], 300)
        assert vec.tolist() == [0.01, -0.02]
        rows = pert.block(5, 3)
        assert not rows.flags.writeable
        assert rows.tolist() == [[0.01, -0.02]] * 3
        want = np.zeros(2)
        for k in range(300):
            want = want + vec
            assert traj.states[k + 1].tobytes() == want.tobytes()

    def test_orbit_draws_each_step_once_and_never_past_k_max(self, case1_system, monkeypatch):
        def no_sample(self, k, state):
            raise AssertionError("a block spec must not be sampled step by step")

        monkeypatch.setattr(PerturbationSpec, "sample", no_sample)
        spec = uniform_ball_perturbation(0.05, 1, 7)
        asked = []

        def spy(k0, count):
            asked.append((k0, count))
            return spec.block(k0, count)

        k_max = _SEED_BLOCK + 72
        traj = simulate_perturbed(case1_system, replace(spec, block=spy), 1500.0, k_max)
        assert asked == [(0, _SEED_BLOCK), (_SEED_BLOCK, 72)]
        assert len(traj) == k_max + 1
        # The same orbit as the per-step generator gives.
        per_step = replace(spec, block=None)
        monkeypatch.undo()
        assert traj.states.tobytes() == simulate_perturbed(
            case1_system, per_step, 1500.0, k_max).states.tobytes()

    def test_stopped_orbit_draws_no_more_than_whole_blocks(self):
        # |x| shrinks by 0.975 a step from 1000, so the orbit stops near step
        # 273, inside the second block.
        shrink = affine_system([[0.975]])
        spec = uniform_ball_perturbation(1e-3, 1, 3)
        asked = []

        def spy(k0, count):
            asked.append((k0, count))
            return spec.block(k0, count)

        traj = simulate_perturbed(shrink, replace(spec, block=spy), 1000.0, 1000, stop_epsilon=1.0)
        s = len(traj) - 1
        assert _SEED_BLOCK < s < 2 * _SEED_BLOCK and not traj.truncated
        assert asked == [(0, _SEED_BLOCK), (_SEED_BLOCK, _SEED_BLOCK)]
        assert sum(count for _, count in asked) <= _SEED_BLOCK * math.ceil(s / _SEED_BLOCK)

    def test_state_reading_generators_are_sampled_every_step(self, case1_system, monkeypatch):
        # A 1-D orbit calls the generator once a step and takes its draw as
        # a float; other orbits call ``sample`` once a step.
        pert = radial_perturbation(0.05, 1)
        assert pert.block is None
        drawn = []

        def counted_generator(k, state):
            drawn.append(k)
            return pert.generator(k, state)

        simulate_perturbed(case1_system, replace(pert, generator=counted_generator), 1500.0, 200)
        assert drawn == list(range(200))
        sampled = []
        sample = PerturbationSpec.sample

        def counted_sample(self, k, state):
            sampled.append(k)
            return sample(self, k, state)

        monkeypatch.setattr(PerturbationSpec, "sample", counted_sample)
        plane = affine_system([[0.5, 0.1], [0.0, 0.4]])
        simulate_perturbed(plane, radial_perturbation(0.05, 2), [3.0, 4.0], 200)
        assert sampled == list(range(200))


def _reference_ball(delta0, n, seed, k):
    """The documented ``uniform_ball`` draw: a fresh default_rng((seed, k))."""
    rng = np.random.default_rng((seed, k))
    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    radius = delta0 * rng.random() ** (1.0 / n)
    return direction / norm * radius


def _reference_orbit(system, generator, delta0, seed, x0, k_max, push=0.0):
    """A perturbed orbit stepped with a fresh RNG per step, the map applied
    to a stack of one state, with the radial push along x / |x|, and with
    the constant push ``push * delta0``; returns its states, or the last
    finite index of a diverged orbit."""
    x = np.array([x0])
    states = [x]
    for k in range(k_max):
        nxt = system.body(x[None, :])[0]
        if generator == "uniform_ball":
            g = _reference_ball(delta0, 1, seed, k)
        elif generator == "constant":
            g = np.array([push * delta0])
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
    def test_step_words_equal_default_rng(self, seed):
        # Blocks from k across the wraps of k's low 32-bit word and of 2^64,
        # where the seed hash runs in two parts.
        for k0 in (0, _SEED_BLOCK - 2, 2**32 - 3, 2**32, 2**64 - 1, 2**64):
            for n in (1, 3):
                words = _pcg64.raw_words(seed, k0, 5, n + 1)
                assert words.shape == (5, n + 1) and words.dtype == np.uint64
                for j, row in enumerate(words):
                    want = np.random.default_rng((seed, k0 + j)).bit_generator.random_raw(n + 1)
                    assert row.tobytes() == want.tobytes(), (k0, j)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_draws_equal_default_rng(self, seed, n):
        gen = uniform_ball_perturbation(0.05, n, seed).generator
        for k in self.STEPS:
            got = gen(k, np.zeros(n))
            assert got.tobytes() == _reference_ball(0.05, n, seed, k).tobytes(), k

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_draws_equal_default_rng(self, n):
        # A run across two block edges, then a block that starts at a k that
        # is not a multiple of the block, read up to and past its far edge.
        gen = uniform_ball_perturbation(0.05, n, 9).generator
        start = 3 * _SEED_BLOCK + 45
        ks = [*range(_SEED_BLOCK - 3, 2 * _SEED_BLOCK + 3),
              *range(start, start + 5), start + _SEED_BLOCK - 1, start + _SEED_BLOCK, start + 2]
        for k in ks:
            assert gen(k, np.zeros(n)).tobytes() == _reference_ball(0.05, n, 9, k).tobytes(), k
        # One block across the wrap of k's low 32-bit word, where the seed
        # states come in two runs.
        block = uniform_ball_perturbation(0.05, n, 9).block
        k0 = 2**32 - 3
        want = [_reference_ball(0.05, n, 9, k) for k in range(k0, k0 + 8)]
        assert block(k0, 8).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_block(self, n):
        block = uniform_ball_perturbation(0.05, n, 7).block(2**32 - 1, 0)
        assert block.shape == (0, n) and block.dtype == np.float64

    def test_returned_draw_is_the_callers(self):
        gen = uniform_ball_perturbation(0.05, 2, 4).generator
        first = gen(5, np.zeros(2))
        want = first.copy()
        first[:] = 7.0
        assert gen(5, np.zeros(2)).tobytes() == want.tobytes()
        assert want.tobytes() == _reference_ball(0.05, 2, 4, 5).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_radius_draws_zero(self, n, case1_system):
        gen = uniform_ball_perturbation(0.0, n, 4).generator
        for k in (0, _SEED_BLOCK, 2**64):
            g = gen(k, np.zeros(n))
            assert g.tobytes() == np.zeros(n).tobytes()
            g[:] = 1.0
        assert gen(0, np.zeros(n)).tobytes() == np.zeros(n).tobytes()
        pert = uniform_ball_perturbation(0.0, 1, 4)
        got = simulate_perturbed(case1_system, pert, 1500.0, 300)
        assert got.states.tobytes() == simulate(case1_system, 1500.0, 300).states.tobytes()

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

    @settings(max_examples=60, deadline=None)
    @given(
        # Seeds of one, two and three 32-bit words; k0 near the wraps of k's
        # low word and of 2^64, where k gains an entropy word mid-block.
        seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1) | st.integers(2**64, 2**96 - 1),
        k0=st.integers(0, 2**20) | st.integers(2**32 - 300, 2**32 + 5) | st.integers(2**64 - 300, 2**64 + 5),
        count=st.integers(1, 300),
        n=st.integers(1, 4),
    )
    def test_blocks_equal_fresh_generators(self, seed, k0, count, n):
        normals, u = _pcg64.normals_and_uniforms(seed, k0, count, n)
        block = uniform_ball_perturbation(0.05, n, seed).block(k0, count)
        assert normals.shape == (count, n) and u.shape == (count,)
        for j in range(count):
            rng = np.random.default_rng((seed, k0 + j))
            assert normals[j].tobytes() == rng.standard_normal(n).tobytes(), j
            assert u[j:j + 1].tobytes() == np.float64(rng.random()).tobytes(), j
            assert block[j].tobytes() == _reference_ball(0.05, n, seed, k0 + j).tobytes(), j

    def test_steps_off_the_fast_path_equal_default_rng(self, monkeypatch):
        # Steps whose normal words leave the certified fast path, found by
        # scanning the words of one seed: a layer-0 word in numpy's tail, a
        # layer-1 word (that layer has no fast region), a word of a higher
        # layer with rabs past the layer's limit, and a 3-D step with only
        # its second normal off the path.  Each takes the fallback.
        seed = 12
        fresh = []
        fresh_draws = _pcg64.fresh_draws

        def spy(seed, k, n):
            fresh.append(k)
            return fresh_draws(seed, k, n)

        monkeypatch.setattr(_pcg64, "fresh_draws", spy)
        _, limit = _pcg64._ziggurat()
        words = _pcg64.raw_words(seed, 0, 40_000, 3)
        layer = (words & np.uint64(0xFF)).astype(np.intp)
        off = words >> np.uint64(9) & np.uint64(2**52 - 1) >= limit[layer]
        cases = {
            "layer-0 tail": (1, off[:, 0] & (layer[:, 0] == 0)),
            "layer 1": (1, layer[:, 0] == 1),
            "rabs past the limit": (1, off[:, 0] & (layer[:, 0] >= 2)),
            "second of three": (3, ~off[:, 0] & off[:, 1] & ~off[:, 2]),
        }
        for name, (n, hits) in cases.items():
            assert hits.any(), name
            k = int(np.flatnonzero(hits)[0])
            k0 = max(0, k - 2)
            fresh.clear()
            normals, u = _pcg64.normals_and_uniforms(seed, k0, 5, n)
            assert k in fresh, name
            block = uniform_ball_perturbation(0.05, n, seed).block(k0, 5)
            gen = uniform_ball_perturbation(0.05, n, seed).generator
            for j in range(5):
                rng = np.random.default_rng((seed, k0 + j))
                assert normals[j].tobytes() == rng.standard_normal(n).tobytes(), (name, j)
                assert u[j] == rng.random(), (name, j)
                want = _reference_ball(0.05, n, seed, k0 + j).tobytes()
                assert block[j].tobytes() == want and gen(k0 + j, None).tobytes() == want, (name, j)

    def test_fast_path_ends_where_numpys_does_or_before(self, monkeypatch):
        # Each layer's largest rabs treated as fast (the sign bit set on odd
        # layers) gives numpy's own normal for that word, one word each; the
        # next rabs up goes to the fallback.  Such words are too rare for
        # PCG64 output to reach, so chosen words stand in for a block's.
        _, limit = _pcg64._ziggurat()
        layers = np.flatnonzero(limit)
        top = _pcg64._normal_word(layers, layers % 2, limit[layers] - np.uint64(1))
        past = _pcg64._normal_word(layers, 0, limit[layers])
        words = np.stack([np.concatenate([top, past]), np.full(2 * len(layers), 2**63, np.uint64)], 1)
        monkeypatch.setattr(_pcg64, "raw_words", lambda seed, k0, count, per_step: words)
        fresh = []

        def fallback(seed, k, n):
            fresh.append(k)
            return np.array([np.nan]), 0.5

        monkeypatch.setattr(_pcg64, "fresh_draws", fallback)
        normals, u = _pcg64.normals_and_uniforms(0, 0, len(words), 1)
        assert fresh == list(range(len(layers), 2 * len(layers)))
        want, took = _pcg64.fed_normals(np.random.MT19937(0), top, len(top))
        assert took == len(top)
        assert normals[:len(layers), 0].tobytes() == want.tobytes()
        assert (u[:len(layers)] == 0.5).all()

    def test_failed_certification_draws_every_step_from_default_rng(self, monkeypatch):
        k0, count = 2**32 - 40, 80
        want = _pcg64.normals_and_uniforms(5, k0, count, 2)
        want_block = uniform_ball_perturbation(0.05, 2, 5).block(k0, count)
        seeded = []
        default_rng = np.random.default_rng

        def counted(seed):
            seeded.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(_pcg64, "_ziggurat", lambda: None)
        monkeypatch.setattr(np.random, "default_rng", counted)
        got = _pcg64.normals_and_uniforms(5, k0, count, 2)
        assert seeded == [(5, k) for k in range(k0, k0 + count)]
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        block = uniform_ball_perturbation(0.05, 2, 5).block(k0, count)
        assert block.tobytes() == want_block.tobytes()

    def test_ziggurat_probe_leaves_only_layer_1_without_a_fast_region(self):
        # numpy's layer 1, the top of its ziggurat, has no fast region; each
        # other layer's width must be read and its limit certified, or that
        # layer's normals would all take the slow fallback.
        wi, limit = _pcg64._ziggurat()
        assert np.flatnonzero(limit == 0).tolist() == [1]
        assert (wi > 0.0).all() and limit.max() < 2**52
        assert not wi.flags.writeable and not limit.flags.writeable  # shared by every draw

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(TABLE1_CASES),
        generator=st.sampled_from(["uniform_ball", "radial", "constant"]),
        x0_share=st.floats(-2.0, 2.0),
        delta0=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**70),
        # Orbits up to and past the second block edge.
        k_max=st.integers(1, 2 * _SEED_BLOCK + 44),
        push=st.floats(-0.999, 0.999),
    )
    # x0 is about -1e-305, whose square underflows: the push is still outward.
    @example(case=TABLE1_CASES[0], generator="radial", x0_share=-1e-311, delta0=0.5,
             seed=0, k_max=3, push=0.0)
    @example(case=TABLE1_CASES[1], generator="uniform_ball", x0_share=0.3, delta0=0.05,
             seed=2**64 + 3, k_max=2 * _SEED_BLOCK + 1, push=0.0)
    @example(case=TABLE1_CASES[2], generator="constant", x0_share=-0.3, delta0=0.05,
             seed=0, k_max=2 * _SEED_BLOCK + 44, push=0.9)
    def test_orbits_equal_the_per_step_rng_loop(self, case, generator, x0_share, delta0, seed,
                                                 k_max, push):
        system = case.system()
        x0 = x0_share * divergence_threshold(case.bprime, case.r2prime)
        if generator == "uniform_ball":
            pert = uniform_ball_perturbation(delta0, 1, seed)
        elif generator == "constant":
            pert = constant_perturbation([push * delta0], delta0)
        else:
            pert = radial_perturbation(delta0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_orbit(system, generator, delta0, seed, x0, k_max, push)
        if isinstance(want, int):
            with pytest.raises(SimulationDivergedError) as err:
                simulate_perturbed(system, pert, x0, k_max)
            assert err.value.last_finite_index == want
        else:
            got = simulate_perturbed(system, pert, x0, k_max)
            assert got.states.tobytes() == want.tobytes()


def _array_orbit(system, pert, x0, k_max, stop_epsilon=None):
    """The orbit stepped as a state array: ``apply``, then ``+ sample(k, x)``
    or the block row, then the ``norm`` guard; returns (states, truncated)."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    start = x.copy()
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        if stop_epsilon is not None and norm(x) <= stop_epsilon:
            return np.array(states), False
        for k in range(k_max):
            nxt = system.apply(x)
            if pert is not None and pert.block is not None:
                j = k % _SEED_BLOCK
                if j == 0:
                    draws, sizes, bad = pert._checked_block(k, min(_SEED_BLOCK, k_max - k), 1)
                if k == bad:
                    pert._check_norm(k, float(sizes[j]))
                nxt = nxt + draws[j]
            elif pert is not None:
                nxt = nxt + pert.sample(k, x)
            size = norm(nxt)
            if not size <= DIVERGENCE_LIMIT:
                raise SimulationDivergedError(
                    f"state diverged at step {k + 1} of '{system.name}' (last finite index {k})",
                    last_finite_index=k, x0=start,
                )
            states.append(nxt)
            if stop_epsilon is not None and size <= stop_epsilon:
                return np.array(states), False
            x = nxt
    return np.array(states), True


def _outcome(run):
    """What ``run()`` gives, in bits: its states and ``truncated``, or its
    error's type, message, last finite index and initial state."""
    try:
        states, truncated = run()
    except Exception as err:  # every field of the error is compared
        x0 = getattr(err, "x0", None)
        return (type(err), str(err), getattr(err, "last_finite_index", None),
                None if x0 is None else np.asarray(x0).tobytes())
    return states.tobytes(), states.shape, truncated


def _simulated(system, pert, x0, k_max, stop_epsilon=None):
    if pert is None:
        traj = simulate(system, x0, k_max, stop_epsilon)
    else:
        traj = simulate_perturbed(system, pert, x0, k_max, stop_epsilon)
    return traj.states, traj.truncated


def _same_as_the_array_loop(system, pert, x0, k_max, stop_epsilon=None):
    want = _outcome(lambda: _array_orbit(system, pert, x0, k_max, stop_epsilon))
    assert _outcome(lambda: _simulated(system, pert, x0, k_max, stop_epsilon)) == want
    return want


@st.composite
def _one_dimensional_systems(draw):
    """A 1-D map and a scale for its initial states: a table 1 case or random
    admissible constants of the benchmark map (scaled by the divergence
    threshold), a 1x1 affine map or a cubic custom body."""
    kind = draw(st.sampled_from(["case", "example", "affine", "custom"]))
    if kind == "case":
        case = draw(st.sampled_from(TABLE1_CASES))
        return case.system(), divergence_threshold(case.bprime, case.r2prime)
    if kind == "example":
        a, b = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
        r1, r2 = draw(st.floats(0.01, 0.49)), draw(st.floats(1.01, 3.0))
        return example_system(a, b, r1, r2), divergence_threshold(b, r2)
    if kind == "affine":
        a = draw(st.floats(-1.5, 1.5) | st.sampled_from([0.0, -0.0, 1e100, -1e150]))
        offset = draw(st.floats(-1.0, 1.0))
        return affine_system([[a]], [offset]), draw(st.sampled_from([1.0, 1e3, 1e300]))
    from fixsettle import SystemMap

    c = draw(st.floats(1e-6, 0.5))
    return SystemMap("cubic", 1, lambda s: s * (1.0 - c * s * s)), draw(st.sampled_from([1.0, 10.0]))


def _wobble(delta0, share):
    """A custom per-step generator that reads the state; its draws reach
    ``share * delta0``, past the bound when ``share >= 1``."""
    def gen(k, state):
        return np.array([share * delta0 * math.sin(0.7 * k + state[0])])

    return PerturbationSpec(delta0=delta0, generator=gen, name="wobble")


class TestFloatLane:
    """A 1-D single orbit runs on a float between ``body`` calls and gives
    what the state-array loop gives, bit for bit: states, ``truncated``,
    and every error with its message, index and initial state."""

    @settings(max_examples=250, deadline=None)
    @given(
        system=_one_dimensional_systems(),
        x0_share=st.floats(-2.0, 2.0) | st.sampled_from(
            [0.0, -0.0, 1.0, -1.0, 0.999999, -1.000001, 5e-324, 1e-200]),
        generator=st.sampled_from([None, "constant", "uniform_ball", "radial", "custom"]),
        delta0=st.floats(1e-6, 1.0),
        share=st.floats(-1.2, 1.2),
        seed=st.integers(0, 2**70),
        # Orbits across the first and second block edge.
        k_max=st.integers(1, 300),
        stop_epsilon=st.none() | st.floats(0.0, 10.0) | st.just(0.0),
    )
    @example(system=(TABLE1_CASES[0].system(), 1.0), x0_share=-0.0, generator=None,
             delta0=0.05, share=0.0, seed=0, k_max=3, stop_epsilon=0.0)
    @example(system=(TABLE1_CASES[1].system(), divergence_threshold(0.5, 1.5)),
             x0_share=1.000001, generator="uniform_ball", delta0=0.05, share=0.0, seed=3,
             k_max=2 * _SEED_BLOCK + 1, stop_epsilon=None)
    @example(system=(affine_system([[1.0]]), 1.0), x0_share=0.0, generator="constant",
             delta0=0.05, share=1.1, seed=0, k_max=300, stop_epsilon=None)
    def test_orbits_equal_the_state_array_loop(self, system, x0_share, generator, delta0,
                                              share, seed, k_max, stop_epsilon):
        system, scale = system
        pert = {
            None: None,
            "constant": constant_perturbation([share * delta0], delta0),
            "uniform_ball": uniform_ball_perturbation(delta0, 1, seed),
            "radial": radial_perturbation(delta0, 1),
            "custom": _wobble(delta0, share),
        }[generator]
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = x0_share * scale
        _same_as_the_array_loop(system, pert, x0, k_max, stop_epsilon)

    @pytest.mark.parametrize("pert", [None, constant_perturbation([0.01], 0.05),
                                      uniform_ball_perturbation(0.05, 1, 5),
                                      radial_perturbation(0.05, 1), _wobble(0.05, 0.5)],
                             ids=["none", "constant", "uniform_ball", "radial", "custom"])
    @pytest.mark.parametrize("body", [
        lambda s: s,                                  # the input array itself
        lambda s: np.array([int(s[0]) // 2]),         # an integer array
        lambda s: [0.5 * s[0]],                       # a list
    ], ids=["input", "int", "list"])
    def test_bodies_returning_their_input_an_int_array_or_a_list(self, body, pert):
        from fixsettle import SystemMap

        system = SystemMap("edge", 1, body)
        for x0 in (7.25, -3.0, 0.0, -0.0):
            got = _same_as_the_array_loop(system, pert, x0, 2 * _SEED_BLOCK + 5)
            assert got[1] == (2 * _SEED_BLOCK + 6, 1)

    @pytest.mark.parametrize("pert", [None, constant_perturbation([0.01], 0.05),
                                      radial_perturbation(0.05, 1)])
    def test_scalar_body_output_rejected(self, pert):
        from fixsettle import SystemMap

        scalar = SystemMap("scalar", 1, lambda s: 0.5 * s[0])
        error = _same_as_the_array_loop(scalar, pert, 1.0, 3)
        assert error[:2] == (ParameterDomainError,
                             "map 'scalar' returned shape (), expected (1,)")

    @pytest.mark.parametrize("bad_step, error", [
        (2, PerturbationBoundError),    # before the divergence
        (3, PerturbationBoundError),    # at its step: the bound is checked first
        (4, SimulationDivergedError),   # after it: never reached
    ])
    @pytest.mark.parametrize("bad", [math.nan, 0.06])
    def test_bad_row_and_divergence_keep_their_order(self, bad_step, error, bad):
        # x -> 1e100 x from 1 leaves the guard at step 4 (index 3 is 1e300).
        blowup = affine_system([[1e100]])
        for block in (True, False):
            spec = _block_spec(lambda k: bad if k == bad_step else 0.0, block=block)
            got = _same_as_the_array_loop(blowup, spec, 1.0, 200)
            assert got[0] is error

    @pytest.mark.parametrize("x0", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])
    @pytest.mark.parametrize("system", [affine_system([[1.0]]), affine_system([[0.0]]),
                                        TABLE1_CASES[0].system()], ids=["identity", "zero", "case1"])
    @pytest.mark.parametrize("delta0", [0.05, 0.0])
    def test_radial_from_zeros_nan_inf_and_subnormals(self, system, x0, delta0):
        _same_as_the_array_loop(system, radial_perturbation(delta0, 1), x0, 5)

    @pytest.mark.parametrize("x", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                                   -1e-170, 1e200, 2.5, -1.0])
    @pytest.mark.parametrize("delta0", [0.05, 0.0])
    def test_radial_float_draw_is_the_state_over_its_norm(self, x, delta0):
        """The 1-D draw is the float ``x / |x| * magnitude``, bit for bit the
        state array divided by its ``norm`` (the first axis at the origin)
        and scaled."""
        state = np.array([x])
        with np.errstate(over="ignore", invalid="ignore"):  # 1e200 squared, inf / inf
            got = radial_perturbation(delta0, 1).generator(0, state)
            size = norm(state)
            want = (state / size if size != 0.0 else np.array([1.0])) * (0.999 * delta0)
        if delta0 == 0.0:
            want = np.zeros(1)
        assert type(got) is float
        assert np.array([got]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["float", "0-d", "list", "int"])
    def test_state_reading_draws_of_every_scalar_kind(self, kind):
        def gen(k, state):
            g = 0.01 * math.sin(0.7 * k + state[0])
            return {"float": g, "0-d": np.array(g), "list": [g], "int": 0}[kind]

        pert = PerturbationSpec(delta0=0.05, generator=gen, name="kinds")
        for system in (TABLE1_CASES[1].system(), affine_system([[0.9]], [0.1])):
            got = _same_as_the_array_loop(system, pert, 3.0, 2 * _SEED_BLOCK + 5)
            assert got[1] == (2 * _SEED_BLOCK + 6, 1)

    def test_state_reading_draw_of_the_wrong_shape(self):
        pert = PerturbationSpec(delta0=0.05, name="wide",
                                generator=lambda k, x: np.zeros(2) if k == 7 else 0.0)
        error = _same_as_the_array_loop(affine_system([[0.5]]), pert, 1.0, 20)
        assert error[:2] == (ParameterDomainError,
                             "perturbation 'wide' at step 7 has shape (2,), expected (1,)")

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (0.05, "0.05"), (-0.05, "0.05")])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_state_reading_draw_that_breaks_the_bound(self, bad, shown, as_array):
        def gen(k, state):
            g = bad if k == 9 else 0.01
            return np.array([g]) if as_array else g

        pert = PerturbationSpec(delta0=0.05, generator=gen)
        error = _same_as_the_array_loop(affine_system([[0.5]]), pert, 1.0, 20)
        assert error[:2] == (PerturbationBoundError,
                             f"perturbation at step 9 has norm {shown}, "
                             "which is not strictly below delta0=0.05")


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

    def test_one_body_and_no_second_map_callable(self):
        """A map is one ``body`` for a state and for a stack of states; no
        second callable for stacks comes back into the package."""
        from dataclasses import fields

        from fixsettle import SystemMap

        assert tuple(f.name for f in fields(SystemMap)) == ("name", "dimension", "body")
        package = Path(__file__).resolve().parent.parent / "src" / "fixsettle"
        stray = [f"{path.name}:{number}"
                 for path in sorted(package.glob("*.py"))
                 for number, line in enumerate(path.read_text().splitlines(), start=1)
                 if "step_batch" in line]
        assert stray == []


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


def _one_state_at_a_time(system, xs):
    """The example body's rank-1 branch, one state per call."""
    return np.array([system.body(np.array([x]))[0] for x in xs])


class TestBatchedStep:
    """The example body's two branches, a single state and a stack of
    states, agree bit for bit."""

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_matches_example_step_bit_for_bit(self, case):
        system = case.system()
        xs = _batch_inputs(case)
        got = system.apply_batch(xs.reshape(-1, 1))[:, 0]
        one = _one_state_at_a_time(system, xs)
        want = np.array([example_step(x, *case.params()) for x in xs])
        # Compare the bit patterns, so -0.0 against 0.0 counts too.
        assert np.array_equal(got.view(np.int64), one.view(np.int64))
        assert np.array_equal(one.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_matches_scalar_step_where_powers_overflow(self, case):
        system = case.system()
        xs = np.array([1e250, -1e300, 1e305, 1.7e308, np.inf, -np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            got = system.apply_batch(xs.reshape(-1, 1))[:, 0]
            want = _one_state_at_a_time(system, xs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_zeros_take_the_plain_formula(self, case):
        # x - sign(x) max(a |x|^r1, b |x|^r2) needs no special case at 0:
        # both powers are 0 there and -0.0 - (-0.0) is +0.0.
        a, b, r1, r2 = case.params()
        xs = np.array([0.0, -0.0, 5e-324, -5e-324])
        mag = np.abs(xs)
        plain = xs - np.copysign(
            np.maximum(a * np.float_power(mag, r1), b * np.float_power(mag, r2)), xs
        )
        system = case.system()
        for got in (system.body(xs[:, None])[:, 0], _one_state_at_a_time(system, xs)):
            assert np.array_equal(got.view(np.int64), plain.view(np.int64))
            assert np.array_equal(got[:2].view(np.int64), [0, 0])  # +0.0 from either zero

    def test_every_batch_size_gives_the_same_rows(self, case1_system):
        xs = _batch_inputs(TABLE1_CASES[0], count=1001).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            whole = case1_system.apply_batch(xs)
            for size in (1, 7, 101):
                for start in range(0, len(xs), size):
                    part = case1_system.apply_batch(xs[start:start + size])
                    assert np.array_equal(part, whole[start:start + size], equal_nan=True)

    def test_custom_body_takes_the_whole_stack(self):
        from fixsettle import SystemMap

        calls = []

        def body(states):
            calls.append(states.shape)
            return states * 0.5

        system = SystemMap("halving", 1, body)
        states = np.array([[4.0], [-1.0], [0.0]])
        assert np.array_equal(system.apply_batch(states), [[2.0], [-0.5], [0.0]])
        assert np.array_equal(system.apply([4.0]), [2.0])
        assert calls == [(3, 1), (1,)]

    def test_batch_shape_checked(self):
        from fixsettle import SystemMap

        system = SystemMap("flat", 1, lambda states: states[..., 0])
        with pytest.raises(ParameterDomainError, match=r"returned shape \(3,\), expected \(3, 1\)"):
            system.apply_batch(np.ones((3, 1)))

    def test_single_state_shape_checked(self):
        from fixsettle import SystemMap

        widening = SystemMap("widening", 1, lambda s: np.array([s[0], s[0]]))
        with pytest.raises(ParameterDomainError, match=r"returned shape \(2,\), expected \(1,\)"):
            widening.apply([1.0])
        # A scalar is not a state: the body must keep the input's shape.
        scalar = SystemMap("scalar", 1, lambda s: 0.5 * s[0])
        for run in (lambda: scalar.apply([1.0]), lambda: simulate(scalar, 1.0, 3)):
            with pytest.raises(ParameterDomainError, match=r"returned shape \(\), expected \(1,\)"):
                run()

    def test_single_orbits_take_the_module_scalar_step(self, monkeypatch, case1_system):
        """``simulate`` steps the example map through ``systems._example_step_raw``,
        looked up at every call, so patching it changes the orbit."""
        import fixsettle.systems

        assert simulate(case1_system, 2.0, 1).states[1, 0] == example_step(2.0, *CASE1)
        monkeypatch.setattr(fixsettle.systems, "_example_step_raw", lambda x, *params: x * 0.5)
        assert simulate(case1_system, 2.0, 3).states[:, 0].tolist() == [2.0, 1.0, 0.5, 0.25]


def _whole_range_inputs(count=100_000):
    """Inputs over the whole float range, of both signs: log-uniform
    magnitudes from the smallest subnormal to 1.78e308, subnormals, values
    near 1, and 1e280 up to the largest float, where the powers overflow;
    plus zeros, the largest float, infinities and NaN."""
    rng = np.random.default_rng(41)
    huge = np.finfo(float).max
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
               1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
               huge, -huge, np.inf, -np.inf, np.nan, -np.nan]
    n = (count - len(special)) // 4
    log10 = np.concatenate([
        rng.uniform(-323.3, 308.25, n),
        rng.uniform(-323.3, -307.7, n),
        np.zeros(n),
        rng.uniform(280.0, 308.25, n),
    ])
    magnitudes = 10.0 ** log10
    magnitudes[2 * n:3 * n] += rng.uniform(-1e-6, 1e-6, n)
    return np.concatenate([special, magnitudes * rng.choice([-1.0, 1.0], 4 * n)])


class TestScalarStep:
    """The example body steps a single state on a Python float, and takes
    a step whose power ``**`` cannot hold in numpy scalars.  Over the whole
    float range it equals the step in numpy scalars and the stack's row,
    bit for bit."""

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    def test_equals_numpy_scalars_and_the_stack(self, case):
        from fixsettle.systems import _example_step_raw

        system, params = case.system(), case.params()
        xs = _whole_range_inputs()
        with np.errstate(over="ignore", invalid="ignore"):
            one = _one_state_at_a_time(system, xs)
            scalars = np.array([_example_step_raw(np.float64(x), *params) for x in xs])
            stack = system.apply_batch(xs[:, None])[:, 0]
        assert np.array_equal(one.view(np.int64), scalars.view(np.int64))
        assert np.array_equal(one.view(np.int64), stack.view(np.int64))
        assert np.isnan(one[np.isnan(xs)]).all()

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.case_id)
    @pytest.mark.filterwarnings("error")
    def test_overflowing_power_gives_inf(self, case):
        from fixsettle.systems import _example_step_raw

        system, params = case.system(), case.params()
        for x in (1e290, -1e300, 1.7e308, -np.finfo(float).max):
            with pytest.raises(OverflowError):
                _example_step_raw(float(x), *params)  # Python's ** raises
            with np.errstate(over="ignore"):
                got = system.body(np.array([x]))
            assert got.tolist() == [-math.copysign(math.inf, x)]
            assert example_step(x, *params) == got[0]


class _Tagged(np.ndarray):
    """An ndarray subclass, which the orbit loop turns into a plain array."""


# What a body may return, from the float64 array it computed.
_OUTPUT_KINDS = {
    "list": lambda y: y.tolist(),
    "int": lambda y: y.astype(np.int64),
    "float32": lambda y: y.astype(np.float32),
    "swapped": lambda y: y.astype(y.dtype.newbyteorder()),
    "0-d": lambda y: np.array(y.flat[0]),
    "subclass": lambda y: y.view(_Tagged),
}


def _converting_loop(system, x, k_max):
    """The orbit loop that converts every ``body`` output with
    ``np.asarray(..., dtype=float)`` and then checks its shape: its states,
    or the shape error's message."""
    states = [x]
    for _ in range(k_max):
        out = np.asarray(system.body(x), dtype=float)
        if out.shape != x.shape:
            return f"map '{system.name}' returned shape {out.shape}, expected {x.shape}"
        states.append(out)
        x = out
    return np.array(states)


def _stepped_loop(system, x, k_max):
    """``_steps``' states, each as an array of ``x``'s shape, or its error's
    message.  Every state comes out a float or a plain native float64 array."""
    try:
        states = [s for _, s, _ in _steps(system, x, k_max)]
    except ParameterDomainError as err:
        return str(err)
    for s in states:
        assert type(s) is float or (type(s) is np.ndarray and s.dtype == np.dtype(float)), s
    return np.array([x, *(np.reshape(s, x.shape) for s in states)])


class TestBodyOutputs:
    """Both lanes of the orbit loop take a plain float64 output of the right
    shape as it is, and convert any other as ``np.asarray(..., dtype=float)``
    does: the same orbit, or the same shape error."""

    @pytest.mark.parametrize("kind", _OUTPUT_KINDS)
    @pytest.mark.parametrize("x", [[7.75], [-3.5, 12.25], [[7.75], [-3.5], [0.0]],
                                   [[7.75, 1.0], [-3.5, 0.0], [0.0, -2.25]]],
                             ids=["float-lane", "single", "stack-1", "stack-2"])
    def test_orbit_or_error_of_every_output_kind(self, kind, x):
        from fixsettle import SystemMap

        x = np.array(x)
        convert = _OUTPUT_KINDS[kind]
        system = SystemMap(kind, x.shape[-1], lambda s: convert(0.5 * s + 1.0))
        want = _converting_loop(system, x, 5)
        got = _stepped_loop(system, x, 5)
        if kind == "0-d":
            assert got == want == f"map '0-d' returned shape (), expected {x.shape}"
        else:
            assert got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nan_step, far_step", [
        (2, 3), (3, 2), (2, 2), (3, None), (None, 3), (None, None)])
    def test_first_diverged_row_in_row_order(self, nan_step, far_step):
        """Row 1 turns NaN at ``nan_step`` and row 2 passes 1e300 at
        ``far_step`` (None: never within the run).  The stack yields up to
        the first divergence and raises the first row in row order that
        diverges at all, as that row's own orbit raises it."""
        from fixsettle import SystemMap

        # Positive states double; a negative one counts up to -1, then NaN.
        system = SystemMap("split", 1, lambda s: np.where(
            s > 0.0, 2.0 * s, np.where(s < -1.0, s + 1.0, np.nan)))
        k_max = 6
        x = np.array([[1.0], [-float(nan_step or 100)], [2.0 ** (997 - (far_step or 100))], [0.75]])
        alone = []
        for row in x:
            try:
                with np.errstate(invalid="ignore"):
                    simulate(system, row, k_max)
                alone.append(None)
            except SimulationDivergedError as err:
                alone.append(err)
        assert (alone[1] is not None, alone[2] is not None) == (bool(nan_step), bool(far_step))
        yielded = []
        orbit = _steps(system, x, k_max)
        if not nan_step and not far_step:
            assert [k for k, _, _ in orbit] == list(range(1, k_max + 1))
            return
        with pytest.raises(SimulationDivergedError) as err:
            for k, _, _ in orbit:
                yielded.append(k)
        want = next(e for e in alone if e is not None)
        assert (str(err.value), err.value.last_finite_index) == (str(want), want.last_finite_index)
        assert err.value.x0.tolist() == want.x0.tolist()
        assert yielded == list(range(1, min(nan_step or k_max, far_step or k_max)))


# Checks the affine body against ``a @ x + b`` row by row, bit for bit, and
# prints the (n, batch size, start) of every block that differs.
_AFFINE_GATE = """
import numpy as np
from fixsettle import affine_system

rng = np.random.default_rng(29)
bad = []
with np.errstate(all="ignore"):
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 16, 64):
        a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-30, 30, (n, n)))
        b = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
        body = affine_system(a, b).body
        rows = rng.standard_normal((101, n)) * np.exp(rng.uniform(-30, 30, (101, n)))
        rows[3, 0] = np.inf
        rows[5, -1] = np.nan
        rows[8] = -np.inf
        rows[9] = 0.0
        want = np.array([a @ x + b for x in rows])
        for i, x in enumerate(rows):
            if body(x).tobytes() != want[i].tobytes():
                bad.append((n, 0, i))
        for size in (1, 7, 101):
            for start in range(0, len(rows), size):
                if body(rows[start:start + size]).tobytes() != want[start:start + size].tobytes():
                    bad.append((n, size, start))
print(bad)
"""


class TestAffineBody:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_equals_row_wise_product_bit_for_bit(self, threads):
        """One state and stacks of 1, 7 and 101 rows, with inf, NaN and zero
        rows, for n = 1..8, 16 and 64; the BLAS thread count may not change
        a bit, so each count runs in a fresh interpreter."""
        import fixsettle

        src = Path(fixsettle.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _AFFINE_GATE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           row=st.integers(0, 11))
    def test_single_state_equals_its_row_of_the_stack(self, n, m, seed, row):
        """A state of shape (n,) takes ``a @ x + b``, a stack the stacked
        products; the state's image is its row of the stack's, bit for bit.
        Every entry has its own scale in 1e-3..1e3."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

        a, b, states = draw(n, n), draw(n), draw(m, n)
        body = affine_system(a, b).body
        x = states[row % m]
        assert body(x).tobytes() == body(states)[row % m].tobytes()
        assert body(x).tobytes() == (a @ x + b).tobytes()


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_row_dots_do_not_depend_on_layout(self, n):
        # Strided rows once took matmul's other summation order: a
        # Fortran-ordered stack of four or more components differed from
        # np.dot in the last bit on about a third of its rows.
        rng = np.random.default_rng(53)
        rows = rng.standard_normal((2000, n)) * 10.0 ** rng.uniform(-3, 3, (2000, 1))
        want = np.array([np.dot(r, r) for r in rows]).tobytes()
        wide = np.hstack([rows, rows])
        for stack in (np.asfortranarray(rows), wide[:, n:], np.asfortranarray(wide)[:, :n]):
            assert row_dots(stack).tobytes() == want
            assert row_norms(stack).tobytes() == row_norms(rows).tobytes()

    def test_strided_start_state_has_the_contiguous_norm(self):
        # The stop test at k = 0 reads the start state's norm as given.
        rng = np.random.default_rng(57)
        rows = rng.standard_normal((200, 4)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
        system = affine_system(0.5 * np.eye(4))
        for row, strided in zip(rows, np.asfortranarray(rows)):
            assert len(simulate(system, strided, 3, stop_epsilon=norm(row))) == 1

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
