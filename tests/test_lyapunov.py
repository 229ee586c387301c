import ast
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixsettle import (
    TABLE1_CASES,
    ConditionId,
    ConditionReport,
    ConfigurationError,
    DegenerateDomainError,
    EmptyDomainError,
    FixedTimeGains,
    LyapunovCandidate,
    OriginError,
    ParameterDomainError,
    Trajectory,
    Violation,
    abs_candidate,
    affine_system,
    decrement_residual,
    estimate_lipschitz,
    polynomial_candidate,
    scan_conditions,
    scan_trajectory,
    simulate,
    square_candidate,
)
from fixsettle import lyapunov
from fixsettle.lyapunov import _at_origin
from fixsettle.record import encode
from fixsettle.systems import norm, row_norms
from conftest import CASE1


def mp_residual_case1_square(x, gains, dps=60):
    """High-precision single-candidate residual for the benchmark map, V = x^2."""
    import mpmath as mp

    with mp.workdps(dps):
        a, b, r1, r2 = (mp.mpf(repr(p)) for p in CASE1)
        al, be, e1, e2 = (mp.mpf(repr(g)) for g in gains)
        xm = mp.mpf(repr(x))
        m = max(a * abs(xm) ** r1, b * abs(xm) ** r2)
        fx = xm - mp.sign(xm) * m
        v, vf = xm ** 2, fx ** 2
        return float((vf - v) + max(al * v ** e1, be * v ** e2))


def mp_residual_case1_mixed(x, gains, dps=60):
    """High-precision mixed residual: difference in x^2, max in |x|."""
    import mpmath as mp

    with mp.workdps(dps):
        a, b, r1, r2 = (mp.mpf(repr(p)) for p in CASE1)
        al, be, e1, e2 = (mp.mpf(repr(g)) for g in gains)
        xm = mp.mpf(repr(x))
        m = max(a * abs(xm) ** r1, b * abs(xm) ** r2)
        fx = xm - mp.sign(xm) * m
        return float((fx ** 2 - xm ** 2) + max(al * abs(xm) ** e1, be * abs(xm) ** e2))


MAPPED_GAINS = (0.64, 0.25, 0.8, 2.2)

# V = x^2 (x - 1)^2 vanishes at the origin and at x = 1.
_DIP = LyapunovCandidate("dip", lambda s: s[:, 0] ** 2 * (s[:, 0] - 1.0) ** 2)


class TestGains:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(beta=-0.1),
            dict(beta=1.0),
            dict(r1=0.0),
            dict(r1=1.0),
            dict(r2=1.0),
        ],
    )
    def test_admissibility(self, kw):
        base = dict(alpha=0.5, beta=0.5, r1=0.5, r2=2.0)
        base.update(kw)
        with pytest.raises(ParameterDomainError):
            FixedTimeGains(**base)


class TestCandidates:
    def test_origin_value_checked(self):
        with pytest.raises(ParameterDomainError):
            LyapunovCandidate("offset", lambda s: s[:, 0] + 1.0)

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_custom_body_nonzero_at_the_origin_keeps_its_message(self, dimension):
        # Only the builtin bodies skip the check; a custom body, even one
        # that wraps a builtin, is still evaluated at the origin.
        with pytest.raises(ParameterDomainError) as err:
            LyapunovCandidate("shifted", lambda s: row_norms(s) + 0.5, dimension=dimension)
        assert str(err.value) == (
            "candidate 'shifted' has value 0.5 at the origin; "
            "a Lyapunov candidate must vanish there"
        )

    @pytest.mark.parametrize("make", [
        abs_candidate,
        square_candidate,
        lambda d: LyapunovCandidate("custom", lambda s: row_norms(s), dimension=d),
    ])
    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_must_be_positive(self, make, dimension):
        # Checked before the origin value, which builtin bodies skip.
        with pytest.raises(ParameterDomainError, match="dimension must be a positive integer"):
            make(dimension)

    @pytest.mark.parametrize("make", [abs_candidate, square_candidate])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_builtin_bodies_skip_the_origin_evaluation(self, monkeypatch, make, dimension):
        calls = []
        monkeypatch.setattr(
            LyapunovCandidate, "values", lambda self, s: calls.append(s) or self.body(s)
        )
        V = make(dimension)
        assert calls == []
        assert V(np.zeros(dimension)) == 0.0

    def test_lipschitz_positive(self):
        with pytest.raises(ParameterDomainError):
            abs_candidate(lipschitz=0.0)

    def test_polynomial_has_no_constant_term(self):
        v = polynomial_candidate([2.0, 3.0])
        assert v(np.array([0.0])) == 0.0
        assert v(np.array([2.0])) == pytest.approx(2.0 * 2 + 3.0 * 4)


class TestDecrementResidual:
    def test_case1_square_candidate_fails_at_two(self, case1_system):
        # With V = x^2 the strict single-candidate inequality does not hold
        # at x = 2 for the mapped gains; the mixed form is the one that does.
        gains = FixedTimeGains(*MAPPED_GAINS)
        r = decrement_residual(case1_system, square_candidate(), gains, 2.0)
        assert r == pytest.approx(mp_residual_case1_square(2.0, MAPPED_GAINS), rel=1e-10)
        assert r == pytest.approx(2.14, abs=0.005)
        assert r > 0

    def test_halving_map_holds(self, halving_system):
        gains = FixedTimeGains(0.1, 0.1, 0.5, 2.0)
        r = decrement_residual(halving_system, square_candidate(), gains, 1.0)
        assert r == pytest.approx(-0.65, abs=1e-12)

    def test_identity_map_never_satisfies_decrement(self, identity_system):
        gains = FixedTimeGains(0.3, 0.2, 0.5, 2.0)
        for x in (0.5, 1.0, 7.0):
            v = x * x
            expected = max(0.3 * v ** 0.5, 0.2 * v ** 2.0)
            r = decrement_residual(identity_system, square_candidate(), gains, x)
            assert r == pytest.approx(expected, rel=1e-14)
            assert r > 0

    def test_origin_excluded(self, case1_system):
        with pytest.raises(OriginError):
            decrement_residual(
                case1_system, square_candidate(), FixedTimeGains(*MAPPED_GAINS), 0.0
            )


class TestMixedResidual:
    def test_case1_mixed_holds_at_two(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        r = decrement_residual(
            case1_system, square_candidate(), gains, 2.0, V_rhs=abs_candidate()
        )
        assert r == pytest.approx(mp_residual_case1_mixed(2.0, MAPPED_GAINS), rel=1e-10)
        assert r == pytest.approx(-1.99, abs=0.005)

    def test_reduces_to_single_form(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        v = square_candidate()
        for x in (0.3, 2.0, 100.0):
            assert decrement_residual(
                case1_system, v, gains, x, V_rhs=v
            ) == decrement_residual(case1_system, v, gains, x)

    def test_inner_region_fails(self, case1_system):
        # Below a'^(1/(1-r1')) ~ 0.6894 the sublinear branch overshoots.
        gains = FixedTimeGains(*MAPPED_GAINS)
        inner = CASE1[0] ** (1.0 / (1.0 - CASE1[2]))
        assert inner == pytest.approx(0.6894, abs=5e-5)
        r_in = decrement_residual(
            case1_system, square_candidate(), gains, 0.5, V_rhs=abs_candidate()
        )
        assert r_in > 0
        r_out = decrement_residual(
            case1_system, square_candidate(), gains, inner * 1.01, V_rhs=abs_candidate()
        )
        assert r_out <= 0


class TestPerturbedResidual:
    def test_zero_norm_equals_nominal(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        v = abs_candidate(lipschitz=1.0)
        assert decrement_residual(
            case1_system, v, gains, 2.0, slack=v.lipschitz_LV * 0.0
        ) == decrement_residual(case1_system, v, gains, 2.0)
        perturbed = scan_conditions(case1_system, v, gains, [2.0], g_norm=0.0)
        assert perturbed.condition_id is ConditionId.PERTURBED_DECREMENT
        assert perturbed.max_residual == decrement_residual(case1_system, v, gains, 2.0)

    def test_slack_absorbs_violation(self, identity_system):
        # Nominal residual +0.5; slack L_V * g = 2 * 1 flips it to -1.5.
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        v = square_candidate(lipschitz=2.0)
        x = 1.0  # V = 1, max(0.5, 0.5) = 0.5, identity gives dV = 0
        nominal = decrement_residual(identity_system, v, gains, x)
        assert nominal == pytest.approx(0.5)
        assert decrement_residual(
            identity_system, v, gains, x, slack=v.lipschitz_LV * 1.0
        ) == pytest.approx(-1.5)
        # The scan derives the slack itself: g alone would give -0.5, the
        # wrong sign +2.5.
        report = scan_conditions(identity_system, v, gains, [x], g_norm=1.0)
        assert report.condition_id is ConditionId.PERTURBED_DECREMENT
        assert report.max_residual == pytest.approx(-1.5)
        assert report.holds_everywhere

    def test_nonnegative_slack_only_helps(self, halving_system):
        gains = FixedTimeGains(0.1, 0.1, 0.5, 2.0)
        v = square_candidate(lipschitz=3.0)
        nominal = decrement_residual(halving_system, v, gains, 1.0)
        assert nominal < 0
        traj = simulate(halving_system, 1.0, 6)
        for g in (0.0, 0.2, 5.0):
            assert decrement_residual(
                halving_system, v, gains, 1.0, slack=v.lipschitz_LV * g
            ) <= nominal
            report = scan_trajectory(halving_system, v, gains, traj, g_norm=g)
            assert report.condition_id is ConditionId.PERTURBED_DECREMENT
            assert report.max_residual == max(
                decrement_residual(
                    halving_system, v, gains, traj.states[k], slack=v.lipschitz_LV * g
                )
                for k in range(len(traj) - 1)
            )

    def test_missing_lipschitz_rejected(self, halving_system):
        # The slack L_V * g_norm is derived where a scan picks its condition.
        with pytest.raises(ConfigurationError):
            scan_conditions(
                halving_system, square_candidate(), FixedTimeGains(0.1, 0.1, 0.5, 2.0),
                [1.0], g_norm=0.1,
            )

    def test_negative_norm_rejected(self, halving_system):
        with pytest.raises(ParameterDomainError):
            scan_trajectory(
                halving_system,
                square_candidate(lipschitz=1.0),
                FixedTimeGains(0.1, 0.1, 0.5, 2.0),
                simulate(halving_system, 1.0, 3),
                g_norm=-1.0,
            )

    def test_mixed_and_perturbed_together_rejected(self, halving_system):
        with pytest.raises(ConfigurationError):
            scan_conditions(
                halving_system,
                square_candidate(lipschitz=1.0),
                FixedTimeGains(0.1, 0.1, 0.5, 2.0),
                [1.0],
                v_rhs=abs_candidate(),
                g_norm=0.1,
            )


class TestReportCodec:
    def written(self, report):
        return json.loads(json.dumps(report.to_dict()))

    def test_grid_report(self, doubling_system):
        # V = x^2 (x - 1)^2 vanishes at x = 1, a nonzero grid point.
        v = LyapunovCandidate("dip", lambda s: s[:, 0] ** 2 * (s[:, 0] - 1.0) ** 2)
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        report = scan_conditions(doubling_system, v, gains, [-2.0, 0.5, 1.0, 2.0])
        assert report.value_zero_points == ((1.0,),)
        assert report.violation_intervals == ((-2.0, 2.0),)
        assert report.violations[0].where == (-2.0,)
        d = self.written(report)
        assert d["condition_id"] == "FT_DECREMENT"
        assert d["violations"][0] == {
            "where": [-2.0], "residual": report.violations[0].residual, "check": "decrement"
        }
        assert d["violation_intervals"] == [[-2.0, 2.0]]
        assert d["value_zero_points"] == [[1.0]]

    def test_orbit_report(self, doubling_system):
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        traj = simulate(doubling_system, 1.0, 3)
        report = scan_trajectory(doubling_system, square_candidate(), gains, traj)
        assert report.violation_intervals is None
        d = self.written(report)
        assert [w["where"] for w in d["violations"]] == [0, 1, 2]
        assert d["violation_intervals"] is None
        assert d["value_zero_points"] == []

    def test_violation_records_built_from_columns(self, doubling_system):
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        # x = -1: 4 - 1 + max(0.5, 0.5); x = 2: 16 - 4 + max(0.5 * 2, 0.5 * 16).
        report = scan_conditions(doubling_system, square_candidate(), gains, [-1.0, 2.0])
        assert report.violations == (Violation((-1.0,), 3.5), Violation((2.0,), 20.0))
        assert [type(v.where[0]) for v in report.violations] == [float, float]
        traj = simulate(doubling_system, 1.0, 2)
        orbit = scan_trajectory(doubling_system, square_candidate(), gains, traj)
        assert [type(v.where) for v in orbit.violations] == [int, int]

    def test_columns_are_read_only(self, doubling_system):
        report = scan_conditions(
            doubling_system, square_candidate(), FixedTimeGains(0.5, 0.5, 0.5, 2.0), [-1.0, 2.0]
        )
        for column in (report.where, report.residual):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_equality_ignores_the_shape_of_empty_columns(self, halving_system):
        gains = FixedTimeGains(0.05, 0.005, 0.5, 2.0)
        report = scan_conditions(halving_system, square_candidate(), gains, [1.0])
        assert report.where.shape == (0, 1)
        assert self.written(report)["violations"] == []
        flat = ConditionReport(
            report.condition_id, report.checked_points, [], [],
            report.max_residual, report.tolerance, report.violation_intervals,
            report.value_zero_points,
        )
        assert flat.where.shape == (0,)
        assert flat == report
        assert report != scan_conditions(halving_system, square_candidate(), gains, [1.0, 2.0])

    def test_equality_holds_with_nan_residuals(self):
        # V overflows on this grid: residuals [inf, nan, nan, nan, nan].
        def scan():
            return scan_conditions(
                TABLE1_CASES[0].system(), square_candidate(),
                FixedTimeGains(0.64, 0.25, 0.8, 2.2), np.logspace(150, 200, 5),
            )

        report = scan()
        assert np.isnan(report.residual[1:]).all() and math.isnan(report.max_residual)
        assert report == report
        assert report == scan()
        changed = report.residual.copy()
        changed[2] = 1.0
        assert report != dataclasses.replace(report, residual=changed)
        # Equal exactly when the JSON is: the sign of a zero is written.
        assert dataclasses.replace(report, tolerance=0.0) != dataclasses.replace(
            report, tolerance=-0.0
        )

    @pytest.mark.parametrize(
        "where, residual",
        [
            ([0, 1], [1.0]),                # columns of different lengths
            ([0.5, 1.5], [1.0, 2.0]),       # float step indices
            (np.zeros((1, 1, 1)), [1.0]),
        ],
        ids=["unequal-lengths", "float-step-indices", "three-axes"],
    )
    def test_malformed_columns_rejected(self, where, residual):
        with pytest.raises(ParameterDomainError):
            ConditionReport(
                ConditionId.FT_DECREMENT, 2, where, residual, max_residual=2.0, tolerance=0.0
            )

    @pytest.mark.parametrize("where", ["0", [True], [["0.5"]], [[0.5, "x"]], [[True]]])
    def test_non_numeric_place_is_rejected(self, where):
        # Neither a string nor a bool is cast to a step index or a coordinate.
        with pytest.raises(ParameterDomainError, match="violation places must be"):
            ConditionReport(ConditionId.FT_DECREMENT, 1, where, [1.0], 1.0, 0.0)

    def test_float_step_index_is_rejected(self):
        # A flat float column is not read as step indices: 0.5 never becomes 0.
        with pytest.raises(ParameterDomainError, match="got a float64 array of shape \\(1,\\)"):
            ConditionReport(ConditionId.FT_DECREMENT, 2, [0.5], [1.0], 1.0, 0.0)

    @pytest.mark.parametrize(
        "where, residual, dtype, shape",
        [
            ([0, 3], [1, 2], np.int64, (2,)),       # step indices stay integers
            ([[1, 2]], [1], np.float64, (1, 2)),    # integer states become floats
            ([[0.5], [-1.5]], [1.0, 2.0], np.float64, (2, 1)),
            ([], [], np.int64, (0,)),               # no violations at all
        ],
        ids=["steps", "int-states", "float-states", "empty"],
    )
    def test_constructor_types_plain_columns(self, where, residual, dtype, shape):
        report = ConditionReport(ConditionId.FT_DECREMENT, 2, where, residual, 2.0, 0.0)
        assert report.where.dtype == dtype and report.where.shape == shape
        assert report.residual.dtype == np.float64
        assert report.residual.tolist() == [float(r) for r in residual]
        assert [v["check"] for v in report.to_dict()["violations"]] == ["decrement"] * len(residual)
        assert report.holds_everywhere is (not residual)

    @pytest.mark.parametrize("kind", ["grid-1d", "grid-2d", "orbit", "overflow"])
    def test_written_violations_are_typed_objects(self, kind, doubling_system):
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        if kind == "grid-1d":
            report = scan_conditions(doubling_system, square_candidate(), gains, [-2.0, 1.0])
        elif kind == "grid-2d":
            system = affine_system([[2.0, 0.0], [0.0, 0.5]])
            report = scan_conditions(system, abs_candidate(2), gains, [[1.0, 0.0], [-1.5, 2.5]])
        elif kind == "orbit":
            traj = simulate(doubling_system, 1.0, 3)
            report = scan_trajectory(doubling_system, square_candidate(), gains, traj)
        else:
            report = scan_conditions(
                TABLE1_CASES[0].system(), square_candidate(),
                FixedTimeGains(0.64, 0.25, 0.8, 2.2), np.logspace(150, 200, 5),
            )
        written = self.written(report)["violations"]
        assert len(written) == len(report.residual) > 0
        for entry, place, residual in zip(written, report.where.tolist(), report.residual.tolist()):
            assert list(entry) == ["where", "residual", "check"]
            # A residual that is NaN or infinite is written as its string.
            assert type(entry["residual"]) is (float if math.isfinite(residual) else str)
            assert entry["check"] == "decrement"
            if kind == "orbit":
                assert type(entry["where"]) is int
            else:
                assert [type(c) for c in entry["where"]] == [float] * report.where.shape[1]
            assert entry["where"] == place
            assert entry["residual"] == encode(residual)

    @pytest.mark.parametrize(
        "condition_id, where, residual",
        [
            ("NOPE", [0], [1.0]),                    # unknown condition
            ("FT_DECREMENT", [[1.0], [1.0, 2.0]], [1.0, 2.0]),  # ragged states
            ("FT_DECREMENT", [0], ["x"]),            # non-numeric residual
        ],
    )
    def test_malformed_input_is_a_domain_error(self, condition_id, where, residual):
        # Each of these used to escape as a bare ValueError.
        with pytest.raises(ParameterDomainError, match="malformed condition report"):
            ConditionReport(condition_id, 1, where, residual, 1.0, 0.0)

    def test_string_condition_id_becomes_the_enum(self):
        # A str condition_id used to build, and then to_dict raised AttributeError.
        report = ConditionReport("FT_MIXED", 1, [], [], max_residual=0.0, tolerance=0.0)
        assert report.condition_id is ConditionId.FT_MIXED
        assert report.to_dict()["condition_id"] == "FT_MIXED"


def test_one_routine_builds_every_condition_report():
    """Every producer reports through ``lyapunov._report``: it is the one
    place in the package that calls ``ConditionReport``."""
    package = Path(lyapunov.__file__).resolve().parent
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers += [
                    (path.stem, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConditionReport"
                ]
    assert callers == [("lyapunov", "_report")]
    for name in ("_violating", "_first_max"):
        assert not hasattr(lyapunov, name)


class TestScanConditions:
    def test_fortran_ordered_grid_gives_the_same_report(self):
        # Before the squared norm took contiguous rows, 139 of these 500
        # residuals differed in the last bit between the two layouts.
        grid = np.random.default_rng(59).standard_normal((500, 4))
        system = affine_system(1.1 * np.eye(4))
        gains = FixedTimeGains(*MAPPED_GAINS)
        report = scan_conditions(system, square_candidate(4), gains, grid)
        assert not report.holds_everywhere
        fortran = scan_conditions(system, square_candidate(4), gains, np.asfortranarray(grid))
        assert fortran == report

    def test_halving_map_small_gains_clean(self, halving_system):
        # alpha V^r1 <= 0.75 V on [0.01, 100] needs alpha <= 0.075 at the low
        # end and beta <= 0.0075 at the top; (0.05, 0.005) clears both.
        gains = FixedTimeGains(0.05, 0.005, 0.5, 2.0)
        grid = np.linspace(0.1, 10, 100)
        report = scan_conditions(halving_system, square_candidate(), gains, grid)
        assert report.holds_everywhere
        assert report.checked_points == 100

    def test_halving_map_larger_gains_violate(self, halving_system):
        # (0.1, 0.1) fails near both ends of the same grid: the residual is
        # positive at x = 0.1 (sublinear branch) and at x = 10 (superlinear).
        gains = FixedTimeGains(0.1, 0.1, 0.5, 2.0)
        grid = np.linspace(0.1, 10, 100)
        report = scan_conditions(halving_system, square_candidate(), gains, grid)
        assert not report.holds_everywhere
        violating = {v.where[0] for v in report.violations}
        assert 0.1 in violating
        assert 10.0 in violating

    def test_infinite_tolerance(self, doubling_system):
        # inf would pass every finite residual and NaN flag every point.
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        for tol in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="tolerance must be a finite number"):
                scan_conditions(doubling_system, square_candidate(), gains, [1.0, 2.0], tolerance=tol)
        report = scan_conditions(
            doubling_system, square_candidate(), gains, [1.0, 2.0], tolerance=sys.float_info.max
        )
        assert report.holds_everywhere

    def test_mixed_scan_brackets_boundaries(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        grid = np.logspace(-3, 4, 2001)
        report = scan_conditions(
            case1_system,
            square_candidate(),
            gains,
            grid,
            v_rhs=abs_candidate(),
        )
        assert report.condition_id is ConditionId.FT_MIXED
        inner = CASE1[0] ** (1.0 / (1.0 - CASE1[2]))
        outer = CASE1[1] ** (1.0 / (1.0 - CASE1[3]))
        assert report.violation_intervals is not None
        assert len(report.violation_intervals) == 2
        low_iv, high_iv = report.violation_intervals
        assert low_iv[0] == grid[0]
        assert low_iv[1] <= inner
        assert high_iv[0] >= outer
        assert high_iv[1] == grid[-1]

    def test_origin_in_grid_rejected(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        with pytest.raises(OriginError):
            scan_conditions(case1_system, square_candidate(), gains, [0.0, 1.0])

    def test_empty_grid_rejected(self, case1_system):
        with pytest.raises(EmptyDomainError):
            scan_conditions(
                case1_system, square_candidate(), FixedTimeGains(*MAPPED_GAINS), []
            )

    def test_candidate_zero_at_nonzero_point_is_reported_not_an_error(self):
        # V that ignores the second coordinate vanishes on a whole axis.
        system = affine_system([[0.5, 0.0], [0.0, 0.5]])
        v = LyapunovCandidate("first-coord", lambda s: s[:, 0] ** 2, dimension=2)
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        report = scan_conditions(system, v, gains, [[0.0, 1.0], [1.0, 1.0]], v_rhs=None)
        assert (0.0, 1.0) in report.value_zero_points

    def test_overflowing_candidate_is_not_certified(self, case1_system):
        # ||x||^3 overflows at 1e120 and 1e150, so V(x) = V(F(x)) = inf there
        # and the residual is inf - inf: those points cannot be shown to hold.
        V = polynomial_candidate([1.0, 1.0, 1.0])
        report = scan_conditions(
            case1_system, V, FixedTimeGains(*MAPPED_GAINS), [0.5, 1e120, 1e150, 0.25],
            tolerance=sys.float_info.max,
        )
        assert [v.where for v in report.violations] == [(1e120,), (1e150,)]
        assert all(math.isnan(v.residual) for v in report.violations)
        assert math.isnan(report.max_residual)
        assert report.violation_intervals == ((1e120, 1e150),)

    def test_residual_sign_matches_violation_membership(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        grid = np.logspace(-2, 3, 300)
        tol = 1e-12
        report = scan_conditions(
            case1_system, square_candidate(), gains, grid,
            v_rhs=abs_candidate(), tolerance=tol,
        )
        flagged = {v.where[0] for v in report.violations}
        for x in grid:
            r = decrement_residual(
                case1_system, square_candidate(), gains, x, V_rhs=abs_candidate()
            )
            assert (r > tol) == (float(x) in flagged)


class TestScanTrajectory:
    def test_violations_keyed_by_step(self, doubling_system):
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        traj = simulate(doubling_system, 1.0, 5)
        report = scan_trajectory(doubling_system, square_candidate(), gains, traj)
        assert report.checked_points == 5
        assert [v.where for v in report.violations] == [0, 1, 2, 3, 4]

    def test_overflowing_orbit_is_not_certified(self, doubling_system):
        # Beyond |x| ~ 1.3e154 both V(x) = x^2 and V(2x) are inf.
        gains = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
        traj = simulate(doubling_system, 1e160, 3)
        report = scan_trajectory(
            doubling_system, square_candidate(), gains, traj, tolerance=sys.float_info.max
        )
        assert [v.where for v in report.violations] == [0, 1, 2]
        assert math.isnan(report.max_residual)

    def test_non_finite_tolerance(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        traj = simulate(case1_system, 800.0, 10)
        for tol in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="tolerance must be a finite number"):
                scan_trajectory(case1_system, abs_candidate(), gains, traj, tolerance=tol)

    def test_origin_states_skipped(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        traj = simulate(case1_system, 0.0, 4)
        report = scan_trajectory(case1_system, square_candidate(), gains, traj)
        assert report.checked_points == 0
        assert report.holds_everywhere
        # Nothing was checked: no largest residual, and no place where V = 0.
        assert report.max_residual == -math.inf
        assert report.value_zero_points == ()

    def test_candidate_zero_at_nonzero_state_is_listed(self, identity_system):
        # V vanishes at every state of the fixed orbit x = 1, and the
        # decrement residual there is 0, no violation.
        traj = simulate(identity_system, 1.0, 3)
        report = scan_trajectory(identity_system, _DIP, FixedTimeGains(0.5, 0.5, 0.5, 2.0), traj)
        assert report.holds_everywhere
        assert report.value_zero_points == (0, 1, 2)

    def test_origin_state_is_not_a_value_zero_point(self):
        # [[0.0]] sends x0 = 1 to the origin, where the orbit stays.
        system = affine_system([[0.0]])
        report = scan_trajectory(
            system, square_candidate(), FixedTimeGains(0.5, 0.5, 0.5, 2.0), simulate(system, 1.0, 4)
        )
        assert report.checked_points == 1
        assert report.value_zero_points == ()


class TestEstimateLipschitz:
    def test_linear_map_exact(self):
        assert estimate_lipschitz(lambda x: 3.0 * x, [0.0, 1.0, 2.0]) == pytest.approx(3.0)

    def test_square_on_small_grid(self):
        # Pairs give slopes 1 (0-1), 2 (0-2), 3 (1-2); the max is 3.
        assert estimate_lipschitz(lambda x: x * x, [0.0, 1.0, 2.0]) == pytest.approx(3.0)

    def test_constant_map(self):
        assert estimate_lipschitz(lambda x: np.zeros_like(x) + 5.0, [0.0, 2.0, 7.0]) == 0.0

    def test_monotone_in_grid(self):
        rng = np.random.default_rng(11)
        f = lambda x: np.sin(3.0 * x)
        grid = list(rng.uniform(-2, 2, size=4))
        prev = estimate_lipschitz(f, grid)
        for _ in range(5):
            grid.append(float(rng.uniform(-2, 2)))
            cur = estimate_lipschitz(f, grid)
            assert cur >= prev
            prev = cur

    def test_overflowing_images_give_inf_without_warnings(self):
        # ||x||^3 overflows at 1e103, so the slope to it is inf; at 1e200
        # and 1e250 both images are inf and the NaN slope between them is
        # skipped.  The suite turns a leaked RuntimeWarning into an error.
        cube = polynomial_candidate([0.0, 0.0, 1.0]).values
        assert estimate_lipschitz(cube, [1.0, 1e103, 2.0]) == math.inf
        assert estimate_lipschitz(square_candidate().values, [1e200, 1e250]) == 0.0

    def test_differences_whose_squares_overflow_keep_their_slope(self):
        # A difference above about 1.34e154 overflows when squared; the
        # norm is then taken scaled by the difference's largest component.
        assert estimate_lipschitz(lambda s: s[:, 0] * 1e160, [1.0, 2.0]) == 1e160
        assert estimate_lipschitz(square_candidate().values, [1.0, 1e100]) == pytest.approx(1e100)
        assert estimate_lipschitz(lambda s: s, [1e300, -1e300, 0.0]) == pytest.approx(1.0)
        plane = np.array([[0.0, 0.0], [3e200, 4e200]])
        assert estimate_lipschitz(lambda s: s[:, :1] * 2.0, plane) == pytest.approx(1.2)

    def test_rescue_keeps_the_bits_of_rows_that_fit(self):
        # The differences are measured by ``row_norms``.  Rows whose squared
        # norm overflows or underflows sit in the same batch as rows that
        # fit; only the former are rescued, and inf or NaN rows stay as
        # np.linalg.norm has them.
        rng = np.random.default_rng(37)
        for n in (1, 2, 3):
            rows = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-300, 300, (400, 1))
            rows[0, 0] = math.inf
            rows[1, -1] = math.nan
            rows[2], rows[3] = 1e300, -1e300
            rows[4], rows[5] = 1e-300, -1e-170
            with np.errstate(over="ignore", invalid="ignore"):
                dots = np.array([row.dot(row) for row in rows])
                plain = np.array([np.linalg.norm(row) for row in rows])
                rescued = row_norms(rows)
            fits = ((dots >= 2.0 ** -1022) & (dots < math.inf)) | ~np.isfinite(rows).all(axis=1)
            assert 0 < fits.sum() < len(rows)
            nan = np.isnan(plain)
            assert np.array_equal(np.isnan(rescued), nan)
            assert rescued[fits & ~nan].tobytes() == plain[fits & ~nan].tobytes()
            big = ~fits
            assert big[[2, 3, 4, 5]].all()
            want = [math.hypot(*row) for row in rows[big]]
            assert rescued[big] == pytest.approx(want, rel=1e-15)

    def test_duplicate_only_grid(self):
        with pytest.raises(DegenerateDomainError):
            estimate_lipschitz(lambda x: x, [1.0, 1.0, 1.0])

    @staticmethod
    def _pairwise(f, grid):
        """The definition: the largest slope over all pairs of distinct points,
        with ``f`` evaluated one row at a time."""
        pts = np.asarray(grid, dtype=float).reshape(len(grid), -1)
        images = [np.atleast_1d(np.asarray(f(p[None, :])[0], dtype=float)) for p in pts]
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dx = float(np.linalg.norm(pts[i] - pts[j]))
                if dx != 0.0:
                    best = max(best, float(np.linalg.norm(images[i] - images[j])) / dx)
        return best

    def test_matches_pairwise_definition_bit_for_bit(self):
        rng = np.random.default_rng(29)
        candidates = (abs_candidate().values, square_candidate().values, lambda x: np.sin(3.0 * x))
        for trial in range(60):
            n = int(rng.integers(4, 40))
            if trial % 2:
                grid = rng.uniform(-5.0, 5.0, n)
            else:
                grid = np.logspace(-3.0, 3.0, n)
            grid[rng.integers(0, n, 3)] = grid[int(rng.integers(0, n))]  # duplicates
            for f in candidates:
                assert estimate_lipschitz(f, grid) == self._pairwise(f, grid)

    def test_matches_pairwise_definition_in_higher_dimensions(self):
        # A plain sum of squares differs from the norm's dot product in the
        # last bit on some distances; many small grids expose that.
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = 2 + trial % 3
            grid = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
            grid[-1] = grid[0]
            for f in (square_candidate(dimension=n).values, lambda x: x[:, ::-1] * x[:, :1]):
                assert estimate_lipschitz(f, grid) == self._pairwise(f, grid)

    def test_too_few_points(self):
        with pytest.raises(EmptyDomainError):
            estimate_lipschitz(lambda x: x, [1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3),
        k=st.integers(1, 2),
        data=st.data(),
        # Chunks of one row up to the whole grid in one chunk.
        chunk=st.integers(1, 200) | st.just(lyapunov._PAIR_CHUNK),
    )
    def test_matches_pairwise_definition_across_chunk_edges(self, n, k, data, chunk):
        """Duplicate points, NaN and infinite images, and chunks that end
        anywhere in the grid: the estimate is the all-pairs definition, bit
        for bit."""
        value = st.integers(-10**6, 10**6).map(lambda i: i / 997)
        m = data.draw(st.integers(2, 24))
        pts = [tuple(data.draw(value) for _ in range(n)) for _ in range(m)]
        for _ in range(data.draw(st.integers(0, 3))):  # duplicates
            pts[data.draw(st.integers(0, m - 1))] = pts[data.draw(st.integers(0, m - 1))]
        image = value | st.sampled_from([math.nan, math.inf, -math.inf])
        table = {p: [data.draw(image) for _ in range(k)] for p in pts}

        def f(states):
            return np.array([table[tuple(row)] for row in states.tolist()])

        grid = np.array(pts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lyapunov, "_PAIR_CHUNK", chunk)
            if len(set(pts)) == 1:
                with pytest.raises(DegenerateDomainError):
                    estimate_lipschitz(f, grid)
            else:
                with np.errstate(invalid="ignore"):  # inf - inf
                    want = self._pairwise(f, grid)
                assert estimate_lipschitz(f, grid) == want

    def test_memory_stays_bounded_per_chunk(self):
        """All 2 * 10^8 pairs of a 20 001-point grid, where one array of
        every pair would take gigabytes."""
        import tracemalloc

        grid = np.linspace(-1.0, 1.0, 20_001)
        tracemalloc.start()
        try:
            est = estimate_lipschitz(lambda s: np.sin(s[:, 0]), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # The steepest pair is the adjacent one across 0: sin(h) / h, h = 1e-4.
        assert est == pytest.approx(math.sin(1e-4) / 1e-4, rel=1e-12)


class TestTwoDimensionalSystems:
    """The stack is dimension-generic; exercise it on a planar contraction."""

    def _system(self):
        return affine_system([[0.5, 0.1], [0.0, 0.4]], name="planar")

    def test_scan_has_no_intervals_in_higher_dimensions(self):
        system = self._system()
        gains = FixedTimeGains(0.05, 0.005, 0.5, 2.0)
        grid = [[x, y] for x in (0.5, 1.0, 2.0) for y in (-1.0, 1.0)]
        report = scan_conditions(system, square_candidate(dimension=2), gains, grid)
        assert report.violation_intervals is None
        assert report.checked_points == 6

    def test_simulated_orbit_contracts(self):
        system = self._system()
        traj = simulate(system, [4.0, -3.0], 50)
        norms = traj.norms()
        assert norms[-1] < 1e-6
        assert all(b <= a for a, b in zip(norms[:10], norms[1:11]))

    def test_lipschitz_estimate_brackets_operator_norm(self):
        system = self._system()
        rng = np.random.default_rng(23)
        grid = rng.uniform(-2, 2, size=(40, 2))
        est = estimate_lipschitz(system.apply_batch, grid)
        operator_norm = np.linalg.norm([[0.5, 0.1], [0.0, 0.4]], ord=2)
        assert est <= operator_norm + 1e-12
        assert est > 0.4


# -- batched scans against the per-point loop they replace ---------------------------


# The reference loop models two choices that depart from a plain Python
# loop: a power that overflows gives inf (Python's ``**`` raises
# OverflowError there), and a NaN residual, which cannot be shown to hold,
# is a violation and makes ``max_residual`` NaN.  It takes every norm one
# point at a time through ``systems.norm`` and calls a state the origin
# when all its components are zero.


def _pow(v, r):
    """``v ** r``, with +inf where the power overflows."""
    try:
        return v ** r
    except OverflowError:
        return math.inf


def _poly_reference(coefficients):
    def value(s):
        m = norm(s)
        total = 0.0
        for i, c in enumerate(coefficients):
            total += c * _pow(m, i + 1)
        return total

    return value


def _reference_residual(system, V, gains, x, V_rhs, slack):
    """One point of the per-point loop: V and V_rhs are reference functions."""
    if not np.any(x):
        raise OriginError("the decrement condition excludes the origin")
    vx = V(x)
    vfx = V(system.apply(x))
    v = vx if V_rhs is None else V_rhs(x)
    if vx < 0.0 or v < 0.0:  # V itself must be nonnegative in the mixed form too
        raise ParameterDomainError("candidate values must be nonnegative")
    dmax = max(gains.alpha * _pow(v, gains.r1), gains.beta * _pow(v, gains.r2))
    return ((vfx - vx) + dmax) - slack


def _is_violation(r, tolerance):
    return not r <= tolerance


def _keep_max(best, r):
    """A running ``max`` in which a NaN, once seen, stays."""
    if math.isnan(best) or math.isnan(r):
        return math.nan
    return max(best, r)


def _reference_intervals(xs_unsorted, flags_unsorted):
    order = np.argsort(xs_unsorted, kind="stable")
    xs, flags = xs_unsorted[order], np.asarray(flags_unsorted)[order]
    intervals, start, prev = [], None, None
    for x, bad in zip(xs, flags):
        if bad and start is None:
            start = x
        elif not bad and start is not None:
            intervals.append((float(start), float(prev)))
            start = None
        prev = x
    if start is not None:
        intervals.append((float(start), float(xs[-1])))
    return tuple(intervals)


def _columns(violations):
    """The report columns of a list of ``Violation`` records."""
    return {
        "where": np.array([v.where for v in violations]),
        "residual": np.array([v.residual for v in violations], dtype=float),
    }


def _reference_scan(system, V, gains, pts, V_rhs, slack, tolerance, condition_id):
    violations, flags, zeros, best = [], [], [], -math.inf
    for p in pts:
        if V(p) == 0.0:
            zeros.append(tuple(p))
        r = _reference_residual(system, V, gains, p, V_rhs, slack)
        best = _keep_max(best, r)
        flags.append(_is_violation(r, tolerance))
        if _is_violation(r, tolerance):
            violations.append(Violation(tuple(p), r))
    return ConditionReport(
        condition_id=condition_id,
        checked_points=len(pts),
        **_columns(violations),
        max_residual=best,
        tolerance=tolerance,
        violation_intervals=(
            _reference_intervals(pts[:, 0], flags) if system.dimension == 1 else None
        ),
        value_zero_points=tuple(zeros),
    )


def _reference_orbit_scan(system, V, gains, states, V_rhs, slack, tolerance, condition_id):
    violations, zeros, best, checked = [], [], -math.inf, 0
    for k in range(len(states) - 1):
        if not np.any(states[k]):
            continue
        checked += 1
        if V(states[k]) == 0.0:
            zeros.append(k)
        r = _reference_residual(system, V, gains, states[k], V_rhs, slack)
        best = _keep_max(best, r)
        if _is_violation(r, tolerance):
            violations.append(Violation(k, r))
    return ConditionReport(
        condition_id=condition_id,
        checked_points=checked,
        **_columns(violations),
        max_residual=best,
        tolerance=tolerance,
        value_zero_points=tuple(zeros),
    )


def _bits(obj):
    """JSON-ready data with every float as its hex form: -0.0 and NaN count."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_bits(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    return obj


def _outcome(fn):
    """A result bit for bit (a report by its fields), or the error it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = fn()
        except (OriginError, ParameterDomainError) as err:
            return type(err).__name__, str(err)
    return _bits(result.to_dict() if isinstance(result, ConditionReport) else result)


# Hypothesis picks the structure: dimension, system, candidates, form,
# sizes and where an origin sits.  The numbers come from a numpy generator
# it seeds, because the last-bit differences these tests look for show on
# a few percent of arbitrary doubles and hardly ever on the simple values
# Hypothesis prefers (powers of ten, small integers).


@st.composite
def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


@st.composite
def _candidate(draw, dimension, rng):
    """A candidate with its per-point reference value function."""
    kind = draw(st.sampled_from(("abs", "square", "poly", "dip") if dimension == 1
                                else ("abs", "square", "poly")))
    if kind == "abs":
        return abs_candidate(dimension), norm
    if kind == "square":
        return square_candidate(dimension, 2.0), lambda s: float(np.dot(s, s))
    if kind == "poly":
        # Negative coefficients make V negative somewhere.
        coeffs = rng.uniform(-2.0, 2.0, draw(st.integers(1, 3))).tolist()
        return polynomial_candidate(coeffs, dimension, 1.5), _poly_reference(coeffs)
    # A custom candidate with its own batched body; it vanishes at x = 1.
    # Products, not ``** 2``: numpy's array and scalar ``** 2`` differ in
    # the last bit on some inputs, and products agree with Python floats.
    def dip(x, y):
        return x * x * (y * y)

    V = LyapunovCandidate(
        "dip", lambda s: dip(s[:, 0], s[:, 0] - 1.0), lipschitz_LV=3.0
    )
    return V, lambda s: dip(float(s[0]), float(s[0]) - 1.0)


@st.composite
def _system(draw, dimension, rng):
    if dimension == 1 and draw(st.booleans()):
        return draw(st.sampled_from(TABLE1_CASES)).system()
    return affine_system(rng.uniform(-1.2, 1.2, (dimension, dimension)))


@st.composite
def _states(draw, dimension, min_size, rng):
    """States in order: mostly moderate magnitudes, some whose squares or
    powers overflow, some whose squares underflow, and now and then an
    origin or unit point mid-way."""
    m = draw(st.integers(min_size, 30))
    exponents = np.where(rng.random((m, 1)) < 0.15, rng.uniform(5.0, 300.0, (m, 1)),
                         rng.uniform(-4.0, 5.0, (m, 1)))
    rows = rng.standard_normal((m, dimension)) * 10.0 ** exponents
    tiny = rng.standard_normal((m, dimension)) * 10.0 ** rng.uniform(-320.0, -150.0, (m, 1))
    rows = list(np.where(rng.random((m, 1)) < 0.1, tiny, rows))
    if draw(st.integers(0, 5)) == 3:
        rows.insert(draw(st.integers(0, m)), np.full(dimension, draw(st.sampled_from((0.0, -0.0)))))
    if draw(st.integers(0, 2)) == 1:
        rows.insert(draw(st.integers(0, len(rows))), np.eye(dimension)[0])
    return np.array(rows, dtype=float).reshape(-1, dimension)


@st.composite
def _scan_case(draw, min_size=1):
    """System, candidates (plain, mixed or perturbed form), states, tolerance."""
    rng = draw(_rng())
    dimension = draw(st.sampled_from((1, 1, 2, 3)))
    system = draw(_system(dimension, rng))
    V, V_ref = draw(_candidate(dimension, rng))
    form = draw(st.sampled_from(("plain", "mixed", "perturbed")))
    rhs, rhs_ref, g_norm = None, None, None
    if form == "mixed":
        rhs, rhs_ref = draw(_candidate(dimension, rng))
    elif form == "perturbed":
        g_norm = float(rng.uniform(0.0, 1.0))
    tolerance = draw(st.sampled_from((_EVERY, 0.0, 1e-12, 1.0)))
    states = draw(_states(dimension, min_size, rng))
    return system, (V, V_ref), (rhs, rhs_ref), g_norm, tolerance, states


def _form(V, rhs, g_norm):
    if g_norm is not None:
        return ConditionId.PERTURBED_DECREMENT, V.lipschitz_LV * g_norm
    return (ConditionId.FT_DECREMENT if rhs is None else ConditionId.FT_MIXED), 0.0


# The lowest finite tolerance: every residual above it is listed.
_EVERY = -sys.float_info.max
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestBatchedScansMatchPerPointLoop:
    """The batched kernel against the per-point loop it replaced.

    Compared bit for bit: every residual (a tolerance of ``_EVERY`` lists
    them all), ``max_residual`` down to the sign of zero, the order of the
    violations, ``value_zero_points``, the intervals, and the first error.
    """

    @PROPERTY_SETTINGS
    @given(_scan_case())
    def test_grid_scan(self, case):
        system, (V, V_ref), (rhs, rhs_ref), g_norm, tolerance, pts = case
        condition_id, slack = _form(V, rhs, g_norm)
        for tol in (tolerance, _EVERY):
            got = _outcome(lambda: scan_conditions(
                system, V, FixedTimeGains(*MAPPED_GAINS), pts, v_rhs=rhs,
                g_norm=g_norm, tolerance=tol))
            want = _outcome(lambda: _reference_scan(
                system, V_ref, FixedTimeGains(*MAPPED_GAINS), pts, rhs_ref, slack,
                tol, condition_id))
            assert got == want

    @PROPERTY_SETTINGS
    @given(_scan_case(min_size=2))
    def test_orbit_scan(self, case):
        system, (V, V_ref), (rhs, rhs_ref), g_norm, tolerance, states = case
        condition_id, slack = _form(V, rhs, g_norm)
        traj = Trajectory(states, truncated=False)
        gains = FixedTimeGains(0.01, 0.001, 0.5, 2.0)
        for tol in (tolerance, _EVERY):
            got = _outcome(lambda: scan_trajectory(
                system, V, gains, traj, v_rhs=rhs, g_norm=g_norm, tolerance=tol))
            want = _outcome(lambda: _reference_orbit_scan(
                system, V_ref, gains, states, rhs_ref, slack, tol, condition_id))
            assert got == want

    @PROPERTY_SETTINGS
    @given(_scan_case())
    def test_single_point_residual(self, case):
        system, (V, V_ref), (rhs, rhs_ref), g_norm, _, pts = case
        slack = _form(V, rhs, g_norm)[1]
        gains = FixedTimeGains(*MAPPED_GAINS)
        for p in pts:
            got = _outcome(lambda: decrement_residual(system, V, gains, p, rhs, slack))
            want = _outcome(lambda: _reference_residual(system, V_ref, gains, p, rhs_ref, slack))
            assert got == want

    def test_states_whose_squares_underflow_are_not_the_origin(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        report = scan_conditions(case1_system, abs_candidate(), gains, [1e-170, 1.0])
        assert report.checked_points == 2
        assert report.value_zero_points == ()
        assert math.isfinite(decrement_residual(case1_system, abs_candidate(), gains, -1e-170))
        states = np.array([[0.0, -0.0], [-0.0, -0.0], [np.nan, 0.0], [0.0, -np.inf],
                           [1e-170, 0.0], [0.0, 5e-324]])
        assert _at_origin(states).tolist() == [True, True, False, False, False, False]

    def test_first_offending_point_in_grid_order_raises(self, case1_system):
        gains = FixedTimeGains(*MAPPED_GAINS)
        negative_rhs = polynomial_candidate([1.0, -2.0])  # V < 0 above |x| = 0.5
        with pytest.raises(OriginError):
            scan_conditions(case1_system, abs_candidate(), gains, [0.1, 0.0, 3.0], v_rhs=negative_rhs)
        with pytest.raises(ParameterDomainError, match="nonnegative"):
            scan_conditions(case1_system, abs_candidate(), gains, [0.1, 3.0, 0.0], v_rhs=negative_rhs)


class TestBatchedValues:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 7])
    def test_matches_value_bit_for_bit(self, dimension):
        rng = np.random.default_rng(41)
        states = rng.standard_normal((500, dimension)) * 10.0 ** rng.uniform(-200, 200, (500, 1))
        states[:3] = np.array([0.0, np.inf, np.nan])[:, None]
        for V in (abs_candidate(dimension), square_candidate(dimension),
                  polynomial_candidate([0.5, -1.0, 2.0], dimension)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = V.values(states)
                want = np.array([V(s) for s in states])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), V.name

    def test_custom_body_sees_the_whole_batch(self):
        batches = []

        def body(states):
            batches.append(states.shape)
            return np.abs(states[:, 0])

        V = LyapunovCandidate("custom", body)
        assert batches == [(1, 1)]  # the origin check is a batch of one
        assert np.array_equal(V.values(np.array([[2.0], [-3.0]])), [2.0, 3.0])
        assert V(-4.0) == 4.0
        assert batches == [(1, 1), (2, 1), (1, 1)]

    @pytest.mark.parametrize(
        "body",
        [
            lambda s: 0.0,  # a scalar, not one value per row
            lambda s: s * 0.0,  # (m, 1) rather than (m,)
            lambda s: np.zeros(len(s) + 1),
        ],
    )
    def test_wrong_shape_rejected_at_construction(self, body):
        with pytest.raises(ParameterDomainError, match=r"returned shape .*expected \(1,\)"):
            LyapunovCandidate("bad", body)

    def test_wrong_shape_rejected_in_values(self):
        # Right for a batch of one, wrong for any other batch.
        V = LyapunovCandidate("first-row", lambda s: np.abs(s[:1, 0]))
        assert V(-2.0) == 2.0
        with pytest.raises(ParameterDomainError, match=r"returned shape \(1,\), expected \(3,\)"):
            V.values(np.array([[1.0], [2.0], [3.0]]))

    @pytest.mark.parametrize("states", [np.ones(3), np.ones((3, 1)), np.ones((2, 3, 2))])
    def test_states_of_the_wrong_dimension_rejected(self, states):
        # A 2-D candidate given a flat grid, a column, or a stack of grids.
        V = square_candidate(2)
        with pytest.raises(ParameterDomainError, match=r"takes states of shape \(m, 2\)"):
            V.values(states)

    def test_norm_candidates_finite_where_the_square_leaves_range(self):
        # ||x|| is in range at 1e200 and 1e-170 though its square is not;
        # the suite turns a leaked overflow warning into an error.
        line = np.array([[1e200], [1e-170]])
        assert abs_candidate().values(line).tolist() == [1e200, 1e-170]
        assert polynomial_candidate([2.0]).values(line).tolist() == [2e200, 2e-170]
        plane = np.array([[3e200, 4e200], [3e-170, -4e-170]])
        assert abs_candidate(2).values(plane) == pytest.approx([5e200, 5e-170], rel=1e-15)
        assert polynomial_candidate([2.0], 2).values(plane) == pytest.approx(
            [1e201, 1e-169], rel=1e-15)

    def test_overflowing_value_is_inf_without_a_warning(self):
        # V = x^2 and V = x + x^2 leave float64 at x = 1e200; the suite turns
        # numpy's overflow warning into an error.
        far = np.array([[1e200]])
        assert square_candidate().values(far).tolist() == [math.inf]
        assert polynomial_candidate([1.0, 1.0]).values(far).tolist() == [math.inf]
        assert square_candidate(2).values(np.array([[1e200, -1e200]])).tolist() == [math.inf]

    def test_zero_coefficient_adds_nothing_where_its_power_overflows(self):
        # 0 * inf is NaN, so a zero term must be left out, not added; the
        # suite turns numpy's invalid-value warning into an error.
        far = np.array([[1e200], [-3.0], [0.0]])
        assert polynomial_candidate([1.0, 0.0]).values(far).tolist() == [1e200, 3.0, 0.0]
        assert polynomial_candidate([0.0, 1.0, 0.0]).values(far).tolist() == [math.inf, 9.0, 0.0]
        zero = polynomial_candidate([0.0, 0.0]).values(far)
        assert zero.shape == (3,) and zero.tolist() == [0.0, 0.0, 0.0]

    def test_value_keyword_is_gone(self):
        with pytest.raises(TypeError):
            LyapunovCandidate("old", value=lambda s: float(abs(s[0])))
