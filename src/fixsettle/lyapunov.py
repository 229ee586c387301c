"""Lyapunov candidates and pointwise/grid checks of decrement conditions.

The central object is the residual of a one-step decrement inequality: for
a candidate V, gains (alpha, beta, r1, r2) and a state x != 0,

    r(x) = [V(F(x)) - V(x)] + max(alpha * V(x)^r1, beta * V(x)^r2) - slack

The inequality holds at x exactly when r(x) <= 0.  The mixed form uses one
function for the left-hand difference and another inside the max, which is
how the benchmark map's quadratic difference is bounded by powers of |x|;
the perturbed form sets the slack to L_V * delta0.
Grid scans report every violating point, so they double as a falsification
harness for candidate certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDomainError,
    EmptyDomainError,
    OriginError,
    ParameterDomainError,
)
from .record import Record, encode
from .systems import SystemMap, Trajectory, as_state, as_state_grid, row_dots, row_norms

DEFAULT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FixedTimeGains:
    """The gain quadruple of the fixed-time decrement inequality.

    Admissibility: 0 < alpha < 1, 0 < beta < 1, 0 < r1 < 1, r2 > 1.
    """

    alpha: float
    beta: float
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterDomainError(
                f"alpha={self.alpha!r} must lie in (0, 1): low-level decrement gain"
            )
        if not 0.0 < self.beta < 1.0:
            raise ParameterDomainError(
                f"beta={self.beta!r} must lie in (0, 1): high-level decrement gain"
            )
        if not 0.0 < self.r1 < 1.0:
            raise ParameterDomainError(
                f"r1={self.r1!r} must lie in (0, 1): sublinear exponent of the "
                "low-level branch"
            )
        if not self.r2 > 1.0:
            raise ParameterDomainError(
                f"r2={self.r2!r} must exceed 1: superlinear exponent of the "
                "high-level branch"
            )


@dataclass(frozen=True)
class LyapunovCandidate:
    """A scalar-valued candidate V with optional Lipschitz constant.

    ``body`` maps an (m, dimension) array of states to the m values of V in
    one call; ``V(x)`` is a batch of one through it.  V must vanish at the
    origin (checked at construction, which also checks the body's output
    shape).  ``lipschitz_LV`` is required only by the perturbed decrement
    check.
    """

    name: str
    body: Callable[[np.ndarray], np.ndarray]
    lipschitz_LV: Optional[float] = None
    dimension: int = 1

    def __post_init__(self):
        if self.lipschitz_LV is not None and not self.lipschitz_LV > 0.0:
            raise ParameterDomainError("lipschitz_LV must be positive when given")
        v0 = self(np.zeros(self.dimension))
        if v0 != 0.0:
            raise ParameterDomainError(
                f"candidate '{self.name}' has value {v0!r} at the origin; "
                "a Lyapunov candidate must vanish there"
            )

    def __call__(self, x) -> float:
        return float(self.values(as_state(x, self.dimension)[None, :])[0])

    def values(self, states: np.ndarray) -> np.ndarray:
        """V of every row of an (m, dimension) state array.

        A value that overflows is inf, without numpy's overflow warning.
        """
        if np.ndim(states) != 2 or np.shape(states)[1] != self.dimension:
            raise ParameterDomainError(
                f"candidate '{self.name}' takes states of shape (m, {self.dimension}), "
                f"got {np.shape(states)}"
            )
        with np.errstate(over="ignore"):
            out = np.asarray(self.body(states), dtype=float)
        if out.shape != (len(states),):
            raise ParameterDomainError(
                f"candidate '{self.name}' returned shape {out.shape}, expected {(len(states),)}"
            )
        return out


def abs_candidate(dimension: int = 1, lipschitz: Optional[float] = 1.0) -> LyapunovCandidate:
    """V(x) = ||x||.  Its exact Lipschitz constant is 1."""
    return LyapunovCandidate("abs", row_norms, lipschitz, dimension)


def square_candidate(dimension: int = 1, lipschitz: Optional[float] = None) -> LyapunovCandidate:
    """V(x) = ||x||^2.  Lipschitz only on bounded domains, so none by default."""
    return LyapunovCandidate("square", row_dots, lipschitz, dimension)


def polynomial_candidate(
    coefficients: Sequence[float],
    dimension: int = 1,
    lipschitz: Optional[float] = None,
) -> LyapunovCandidate:
    """V(x) = sum_i c_i * ||x||^i with powers starting at 1.

    The missing constant term makes V(0) = 0 by construction.  The terms
    are added in order from 0.0; a power that overflows gives inf.  Terms
    with a zero coefficient are left out, as they add only 0.0 to a finite
    sum and would turn an overflowing power into NaN.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ParameterDomainError("polynomial candidate needs at least one coefficient")
    terms = [(c, i + 1) for i, c in enumerate(coeffs) if c != 0.0]

    def body(states: np.ndarray) -> np.ndarray:
        m = row_norms(states)
        total = np.zeros(len(m))
        for c, power in terms:
            total = total + c * np.float_power(m, power)
        return total

    return LyapunovCandidate("poly", body, lipschitz, dimension)


class ConditionId(str, Enum):
    LYAP_BASIC = "LYAP_BASIC"
    FT_DECREMENT = "FT_DECREMENT"
    FT_MIXED = "FT_MIXED"
    PERTURBED_DECREMENT = "PERTURBED_DECREMENT"


# ``where`` is a step index for along-trajectory checks and a state tuple
# for grid checks.
Where = Union[int, Tuple[float, ...]]


@dataclass(frozen=True)
class Violation(Record):
    where: Where
    residual: float
    check: str = "decrement"


_COLUMNS = ("where", "residual", "check")  # ConditionReport fields kept as arrays


@dataclass(frozen=True, eq=False)
class ConditionReport(Record):
    """Outcome of a pointwise condition check over a grid or trajectory.

    The violations are kept as three columns, in order: ``where``, a (k,)
    array of step indices or a (k, n) array of states; ``residual``, a (k,)
    float array; and ``check``, the kind of each.  ``violations`` builds
    the ``Violation`` records from them on demand, and ``to_dict`` lists
    them under ``"violations"``.  Equality compares the ``to_dict`` forms.

    ``holds_everywhere`` is derived: true exactly when there are no
    violations.  Every listed violation has residual above the tolerance,
    or NaN where the residual cannot be evaluated (inf - inf once V
    overflows, say), and ``max_residual`` is then NaN too.  For 1-D grids,
    ``violation_intervals`` groups contiguous violating grid points.
    ``value_zero_points`` lists, for a grid scan, the nonzero grid points
    where V vanished, which breaks strict positivity even though the
    residual arithmetic stays well-defined; for an orbit scan, the step
    indices of the origin states it skipped.  Malformed input raises
    ``ParameterDomainError``.
    """

    condition_id: ConditionId
    checked_points: int
    where: np.ndarray
    residual: np.ndarray
    check: Tuple[str, ...]
    max_residual: float
    holds_everywhere: bool = field(init=False)
    tolerance: float
    violation_intervals: Optional[Tuple[Tuple[float, float], ...]] = None
    value_zero_points: Tuple[Where, ...] = ()

    def __post_init__(self):
        try:
            condition_id = ConditionId(self.condition_id)
            where = np.asarray(self.where)
            if where.ndim == 2:
                where = where.astype(float, copy=False)
            residual = np.asarray(self.residual, dtype=float)
            check = tuple(self.check)
        except (TypeError, ValueError) as err:
            raise ParameterDomainError(f"malformed condition report: {err}") from None
        if where.ndim == 1 and (where.dtype.kind in "iu" or len(where) == 0):
            where = where.astype(np.int64, copy=False)
        elif where.ndim != 2:
            raise ParameterDomainError(
                "violation places must be a (k,) array of integer step indices "
                f"or a (k, n) array of states, got a {where.dtype} array of "
                f"shape {where.shape}"
            )
        if not len(where) == len(residual) == len(check):
            raise ParameterDomainError("violation columns differ in length")
        object.__setattr__(self, "condition_id", condition_id)
        object.__setattr__(self, "where", _read_only(where))
        object.__setattr__(self, "residual", _read_only(residual))
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "holds_everywhere", not check)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def violations(self) -> Tuple[Violation, ...]:
        where = self.where.tolist()
        if self.where.ndim == 2:
            where = map(tuple, where)
        return tuple(map(Violation, where, self.residual.tolist(), self.check))

    def to_dict(self, violations: bool = True) -> dict:
        """The JSON form; ``violations=False`` leaves that list out."""
        out = {k: encode(v) for k, v in self.__dict__.items() if k not in _COLUMNS}
        if violations:
            out["violations"] = [
                {"where": w, "residual": r, "check": c}
                for w, r, c in zip(self.where.tolist(), self.residual.tolist(), self.check)
            ]
        return out

    @classmethod
    def from_dict(cls, d: dict):
        """Rebuild from ``to_dict`` output; the constructor types the columns."""
        rows = d["violations"]
        return super().from_dict(d, **{k: [r[k] for r in rows] for k in _COLUMNS})


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


_AT_ORIGIN = "the decrement condition excludes the origin"


def _step_values(
    system: SystemMap, V: LyapunovCandidate, states: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """V(x) and the one-step difference V(F(x)) - V(x) of every row.

    Overflow yields inf and NaN, not warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vx = V.values(states)
        return vx, V.values(system.apply_batch(states)) - vx


def _residuals(
    system: SystemMap,
    V: LyapunovCandidate,
    gains: FixedTimeGains,
    states: np.ndarray,
    V_rhs: Optional[LyapunovCandidate],
    slack: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """V(x) and the decrement residual of every row of an (m, n) array of
    nonzero states; the caller decides what an origin row means.

    The max is evaluated directly rather than through the v <> 1 branch
    split used in convergence proofs; the two agree only when alpha = beta,
    and the direct form is the actual pointwise condition.  It picks the
    low branch unless the high one is larger, as Python's ``max`` does, and
    ``np.float_power`` matches ``**`` bit for bit, so a batch of one gives
    the scalar residual.  A negative level raises.  Overflow yields inf and
    NaN, not warnings.
    """
    vx, difference = _step_values(system, V, states)
    with np.errstate(over="ignore", invalid="ignore"):
        v_max = vx if V_rhs is None else V_rhs.values(states)
        if (v_max < 0.0).any():
            raise ParameterDomainError("candidate values must be nonnegative")
        low = gains.alpha * np.float_power(v_max, gains.r1)
        high = gains.beta * np.float_power(v_max, gains.r2)
        return vx, (difference + np.where(high > low, high, low)) - slack


def _violating(residuals: np.ndarray, tolerance: float) -> np.ndarray:
    """Residuals above the tolerance, and NaN ones, which cannot be shown to hold."""
    if not math.isfinite(tolerance):  # NaN would flag every point, inf none
        raise ParameterDomainError(f"tolerance must be a finite number, got {tolerance!r}")
    return ~(residuals <= tolerance)


def _first_max(residuals: np.ndarray) -> float:
    """The first largest residual in order: NaN if any is NaN, -inf for none.

    Apart from NaN this is what a running ``max`` from -inf keeps, down to
    the sign of a zero that ties with the other one.
    """
    return float(residuals[np.argmax(residuals)]) if len(residuals) else -math.inf


def decrement_residual(
    system: SystemMap,
    V: LyapunovCandidate,
    gains: FixedTimeGains,
    x,
    V_rhs: Optional[LyapunovCandidate] = None,
    slack: float = 0.0,
) -> float:
    """Residual of the fixed-time decrement inequality at x != 0.

    The difference is taken in ``V`` and the max in ``V_rhs`` (default
    ``V``), which is the mixed form when they differ.  The perturbed form
    subtracts the slack ``lipschitz_LV * g_norm``; the difference term is
    still computed along the nominal step.  A batch of one through the
    scans' kernel.
    """
    state = as_state(x, system.dimension)[None, :]
    if _at_origin(state)[0]:
        raise OriginError(_AT_ORIGIN)
    return float(_residuals(system, V, gains, state, V_rhs, slack)[1][0])


def check_basic_lyapunov(
    system: SystemMap,
    V: LyapunovCandidate,
    domain_grid,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionReport:
    """Plain Lyapunov stability conditions on a grid.

    Checks V > 0 and the nonstrict decrement V(F(x)) - V(x) <= 0 at each
    nonzero grid point (``LyapunovCandidate`` checks V(0) = 0), listing a
    point's positivity violation before its decrement one; a NaN residual
    counts as a violation, as in the scans.  ``max_residual`` is taken over
    the nonzero points, -inf if none; ``checked_points`` counts the grid.
    """
    grid = as_state_grid(domain_grid, system.dimension)
    if len(grid) == 0:
        raise EmptyDomainError("domain grid is empty")
    points = grid[~_at_origin(grid)]
    vx, difference = _step_values(system, V, points)
    # Row i holds point i's positivity and decrement residuals.
    residuals = np.stack([-vx, difference], axis=1)
    rows, cols = np.nonzero(_violating(residuals, tolerance))
    return ConditionReport(
        condition_id=ConditionId.LYAP_BASIC,
        checked_points=len(grid),
        where=points[rows],
        residual=residuals[rows, cols],
        check=tuple(("positivity", "decrement")[j] for j in cols.tolist()),
        max_residual=_first_max(residuals.ravel()),
        tolerance=tolerance,
    )


def _condition(
    V: LyapunovCandidate,
    v_rhs: Optional[LyapunovCandidate],
    g_norm: Optional[float],
) -> Tuple[ConditionId, float]:
    """The condition a scan checks, and the slack of its residual."""
    if g_norm is None:
        return (ConditionId.FT_DECREMENT if v_rhs is None else ConditionId.FT_MIXED), 0.0
    if v_rhs is not None:
        raise ConfigurationError(
            "perturbed scans use a single candidate; drop v_rhs or g_norm"
        )
    if V.lipschitz_LV is None:
        raise ConfigurationError(
            "perturbed decrement needs a candidate with lipschitz_LV set"
        )
    if g_norm < 0.0:
        raise ParameterDomainError("g_norm must be nonnegative")
    return ConditionId.PERTURBED_DECREMENT, V.lipschitz_LV * g_norm


def _violation_intervals(grid: np.ndarray, violating: np.ndarray):
    """Contiguous violating runs of a 1-D grid, as (lo, hi) value pairs."""
    order = np.argsort(grid[:, 0], kind="stable")
    xs = grid[order, 0]
    edges = np.diff(np.concatenate([[0], violating[order].astype(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return tuple(zip(xs[starts].tolist(), xs[ends].tolist()))


def scan_conditions(
    system: SystemMap,
    V: LyapunovCandidate,
    gains: FixedTimeGains,
    grid,
    v_rhs: Optional[LyapunovCandidate] = None,
    g_norm: Optional[float] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionReport:
    """Evaluate a decrement residual over a grid and report every violation.

    Pass ``v_rhs`` for the mixed form, or ``g_norm`` for the perturbed one.
    The grid must be nonempty and exclude the origin.  Violations are listed
    in grid order; for 1-D systems the report also carries the contiguous
    violation intervals on the value axis.
    """
    pts = as_state_grid(grid, system.dimension)
    if len(pts) == 0:
        raise EmptyDomainError("scan grid is empty")
    condition_id, slack = _condition(V, v_rhs, g_norm)
    origin = np.flatnonzero(_at_origin(pts))
    if len(origin):
        # The first offending point raises: a negative level before it wins.
        _residuals(system, V, gains, pts[: origin[0]], v_rhs, slack)
        raise OriginError(_AT_ORIGIN)
    vx, residuals = _residuals(system, V, gains, pts, v_rhs, slack)
    violating = _violating(residuals, tolerance)

    intervals = (
        _violation_intervals(pts, violating) if system.dimension == 1 else None
    )
    return ConditionReport(
        condition_id=condition_id,
        checked_points=len(pts),
        where=pts[violating],
        residual=residuals[violating],
        check=("decrement",) * int(violating.sum()),
        max_residual=_first_max(residuals),
        tolerance=tolerance,
        violation_intervals=intervals,
        value_zero_points=tuple(map(tuple, pts[vx == 0.0].tolist())),
    )


def scan_trajectory(
    system: SystemMap,
    V: LyapunovCandidate,
    gains: FixedTimeGains,
    traj: Trajectory,
    v_rhs: Optional[LyapunovCandidate] = None,
    g_norm: Optional[float] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionReport:
    """Evaluate the decrement residual along a recorded orbit.

    States are checked at k = 0 .. len-2; exact-zero states are skipped
    (the condition excludes the origin) and recorded in
    ``value_zero_points`` by index.  Violations are keyed by step index.
    """
    if len(traj) < 2:
        raise EmptyDomainError("trajectory scan needs at least one transition")
    condition_id, slack = _condition(V, v_rhs, g_norm)
    states = traj.states[:-1]
    nonzero = ~_at_origin(states)
    steps = np.flatnonzero(nonzero)
    residuals = _residuals(system, V, gains, states[nonzero], v_rhs, slack)[1]
    violating = _violating(residuals, tolerance)

    return ConditionReport(
        condition_id=condition_id,
        checked_points=len(steps),
        where=steps[violating],
        residual=residuals[violating],
        check=("decrement",) * int(violating.sum()),
        # An orbit pinned at the origin checks nothing; report a neutral 0.
        max_residual=_first_max(residuals) if len(steps) else 0.0,
        tolerance=tolerance,
        value_zero_points=tuple(np.flatnonzero(~nonzero).tolist()),
    )


def estimate_lipschitz(f, domain_grid) -> float:
    """Largest difference quotient of ``f`` over all grid pairs.

    ``f`` maps the (m, n) array of grid points to their m images in one
    call.  This is a lower bound on the true local Lipschitz constant, an
    estimate rather than a certificate.  The grid needs at least two
    distinct points.
    """
    pts = np.asarray(domain_grid, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if len(pts) < 2:
        raise EmptyDomainError("lipschitz estimation needs at least two grid points")
    best = 0.0
    seen_distinct = False
    # Overflow gives inf and NaN slopes, not warnings; NaN ones are skipped.
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.asarray(f(pts), dtype=float).reshape(len(pts), -1)
        for i in range(len(pts) - 1):
            dx = row_norms(pts[i + 1:] - pts[i])
            distinct = dx != 0.0
            if not distinct.any():
                continue
            seen_distinct = True
            slopes = row_norms(images[i + 1:][distinct] - images[i]) / dx[distinct]
            steeper = slopes[slopes > best]  # skips NaN slopes, as max() did
            if len(steeper):
                best = float(steeper.max())
    if not seen_distinct:
        raise DegenerateDomainError("all grid points coincide; slopes are undefined")
    return best


def _at_origin(states: np.ndarray) -> np.ndarray:
    """Which rows are the origin: every component is zero, of either sign."""
    return ~states.any(axis=1)
