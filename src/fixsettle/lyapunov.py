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
from dataclasses import dataclass
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
from .record import Record
from .systems import SystemMap, Trajectory, as_state, as_state_grid

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

    ``value`` maps a state vector to a nonnegative real and must vanish at
    the origin (checked at construction).  ``lipschitz_LV`` is required only
    by the perturbed decrement check.
    """

    name: str
    value: Callable[[np.ndarray], float]
    lipschitz_LV: Optional[float] = None
    dimension: int = 1

    def __post_init__(self):
        if self.lipschitz_LV is not None and not self.lipschitz_LV > 0.0:
            raise ParameterDomainError("lipschitz_LV must be positive when given")
        v0 = float(self.value(np.zeros(self.dimension)))
        if v0 != 0.0:
            raise ParameterDomainError(
                f"candidate '{self.name}' has value {v0!r} at the origin; "
                "a Lyapunov candidate must vanish there"
            )

    def __call__(self, x) -> float:
        return float(self.value(as_state(x, self.dimension)))


def abs_candidate(dimension: int = 1, lipschitz: Optional[float] = 1.0) -> LyapunovCandidate:
    """V(x) = ||x||.  Its exact Lipschitz constant is 1."""
    return LyapunovCandidate(
        name="abs",
        value=lambda s: float(np.linalg.norm(s)),
        lipschitz_LV=lipschitz,
        dimension=dimension,
    )


def square_candidate(dimension: int = 1, lipschitz: Optional[float] = None) -> LyapunovCandidate:
    """V(x) = ||x||^2.  Lipschitz only on bounded domains, so none by default."""
    return LyapunovCandidate(
        name="square",
        value=lambda s: float(np.dot(s, s)),
        lipschitz_LV=lipschitz,
        dimension=dimension,
    )


def polynomial_candidate(
    coefficients: Sequence[float],
    dimension: int = 1,
    lipschitz: Optional[float] = None,
) -> LyapunovCandidate:
    """V(x) = sum_i c_i * ||x||^i with powers starting at 1.

    The missing constant term makes V(0) = 0 by construction.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ParameterDomainError("polynomial candidate needs at least one coefficient")

    def value(s: np.ndarray) -> float:
        m = float(np.linalg.norm(s))
        return sum(c * m ** (i + 1) for i, c in enumerate(coeffs))

    return LyapunovCandidate(
        name="poly", value=value, lipschitz_LV=lipschitz, dimension=dimension
    )


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


@dataclass(frozen=True)
class ConditionReport(Record):
    """Outcome of a pointwise condition check over a grid or trajectory.

    ``holds_everywhere`` is true exactly when ``violations`` is empty; every
    listed violation has residual above the tolerance.  For 1-D grids,
    ``violation_intervals`` groups contiguous violating grid points.
    ``value_zero_points`` lists nonzero grid points where V vanished, which
    breaks strict positivity even though the residual arithmetic stays
    well-defined.
    """

    condition_id: ConditionId
    checked_points: int
    violations: Tuple[Violation, ...]
    max_residual: float
    holds_everywhere: bool
    tolerance: float
    violation_intervals: Optional[Tuple[Tuple[float, float], ...]] = None
    value_zero_points: Tuple[Where, ...] = ()

    def __post_init__(self):
        if self.holds_everywhere != (len(self.violations) == 0):
            raise ParameterDomainError(
                "holds_everywhere must mirror emptiness of the violation list"
            )


def decrement_max(v: float, gains: FixedTimeGains) -> float:
    """max(alpha * v^r1, beta * v^r2) for a nonnegative level v.

    The max is evaluated directly rather than through the v <> 1 branch
    split used in convergence proofs; the two agree only when alpha = beta,
    and the direct form is the actual pointwise condition.
    """
    if v < 0.0:
        raise ParameterDomainError("candidate values must be nonnegative")
    return max(gains.alpha * v ** gains.r1, gains.beta * v ** gains.r2)


def _require_nonzero(x: np.ndarray):
    if float(np.linalg.norm(x)) == 0.0:
        raise OriginError("the decrement condition excludes the origin")


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
    still computed along the nominal step.
    """
    state = as_state(x, system.dimension)
    _require_nonzero(state)
    vx = float(V.value(state))
    vfx = float(V.value(system.apply(state)))
    v_max = vx if V_rhs is None else float(V_rhs.value(state))
    return ((vfx - vx) + decrement_max(v_max, gains)) - slack


def check_basic_lyapunov(
    system: SystemMap,
    V: LyapunovCandidate,
    domain_grid,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionReport:
    """Plain Lyapunov stability conditions on a grid.

    Checks V = 0 at the origin, V > 0 at each (nonzero) grid point, and the
    nonstrict decrement V(F(x)) - V(x) <= 0 at each grid point.
    """
    grid = as_state_grid(domain_grid, system.dimension)
    if len(grid) == 0:
        raise EmptyDomainError("domain grid is empty")
    violations = []
    max_residual = -math.inf

    origin = np.zeros(system.dimension)
    origin_residual = abs(float(V.value(origin)))
    max_residual = max(max_residual, origin_residual)
    if origin_residual > tolerance:
        violations.append(
            Violation(tuple(origin), origin_residual, check="origin")
        )

    for point in grid:
        if float(np.linalg.norm(point)) == 0.0:
            continue  # positivity and decrement are posed away from the origin
        vx = float(V.value(point))
        pos_residual = -vx
        max_residual = max(max_residual, pos_residual)
        if pos_residual > tolerance:
            violations.append(Violation(tuple(point), pos_residual, check="positivity"))
        dec_residual = float(V.value(system.apply(point))) - vx
        max_residual = max(max_residual, dec_residual)
        if dec_residual > tolerance:
            violations.append(Violation(tuple(point), dec_residual, check="decrement"))

    return ConditionReport(
        condition_id=ConditionId.LYAP_BASIC,
        checked_points=len(grid),
        violations=tuple(violations),
        max_residual=max_residual,
        holds_everywhere=not violations,
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


def _violation_intervals(grid: np.ndarray, violating: Sequence[bool]):
    """Contiguous violating runs of a 1-D grid, as (lo, hi) value pairs."""
    order = np.argsort(grid[:, 0], kind="stable")
    xs = grid[order, 0]
    flags = np.asarray(violating)[order]
    intervals = []
    start = None
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

    violations = []
    violating_flags = []
    zero_points = []
    max_residual = -math.inf
    for point in pts:
        if float(V.value(point)) == 0.0:
            zero_points.append(tuple(point))
        residual = decrement_residual(system, V, gains, point, v_rhs, slack)
        max_residual = max(max_residual, residual)
        bad = residual > tolerance
        violating_flags.append(bad)
        if bad:
            violations.append(Violation(tuple(point), residual))

    intervals = (
        _violation_intervals(pts, violating_flags) if system.dimension == 1 else None
    )
    return ConditionReport(
        condition_id=condition_id,
        checked_points=len(pts),
        violations=tuple(violations),
        max_residual=max_residual,
        holds_everywhere=not violations,
        tolerance=tolerance,
        violation_intervals=intervals,
        value_zero_points=tuple(zero_points),
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

    violations = []
    zero_points = []
    max_residual = -math.inf
    checked = 0
    for k in range(len(traj) - 1):
        state = traj.states[k]
        if float(np.linalg.norm(state)) == 0.0:
            zero_points.append(k)
            continue
        checked += 1
        residual = decrement_residual(system, V, gains, state, v_rhs, slack)
        max_residual = max(max_residual, residual)
        if residual > tolerance:
            violations.append(Violation(k, residual))

    return ConditionReport(
        condition_id=condition_id,
        checked_points=checked,
        violations=tuple(violations),
        # An orbit pinned at the origin checks nothing; report a neutral 0.
        max_residual=max_residual if checked else 0.0,
        holds_everywhere=not violations,
        tolerance=tolerance,
        value_zero_points=tuple(zero_points),
    )


def estimate_lipschitz(f, domain_grid) -> float:
    """Largest difference quotient of ``f`` over all grid pairs.

    This is a lower bound on the true local Lipschitz constant, an
    estimate rather than a certificate.  The grid needs at least two
    distinct points.
    """
    pts = np.asarray(domain_grid, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if len(pts) < 2:
        raise EmptyDomainError("lipschitz estimation needs at least two grid points")
    images = np.array([np.atleast_1d(np.asarray(f(p), dtype=float)) for p in pts])
    best = 0.0
    seen_distinct = False
    for i in range(len(pts) - 1):
        dx = _distances(pts[i + 1:], pts[i])
        distinct = dx != 0.0
        if not distinct.any():
            continue
        seen_distinct = True
        slopes = _distances(images[i + 1:][distinct], images[i]) / dx[distinct]
        steeper = slopes[slopes > best]  # skips NaN slopes, as max() did
        if len(steeper):
            best = float(steeper.max())
    if not seen_distinct:
        raise DegenerateDomainError("all grid points coincide; slopes are undefined")
    return best


def _distances(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row from ``point``.

    Each row's squared length is a vector dot product, the sum
    ``np.linalg.norm`` takes for a single vector, so every distance equals
    ``np.linalg.norm(row - point)`` bit for bit; a plain sum of squares
    differs in the last bit on some rows of two or more components.
    """
    d = rows - point
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
