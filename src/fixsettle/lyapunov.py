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

import json
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
    shape; the builtin bodies ``row_norms`` and ``row_dots`` vanish there
    by construction and skip it).  ``lipschitz_LV`` is required only by the
    perturbed decrement check.
    """

    name: str
    body: Callable[[np.ndarray], np.ndarray]
    lipschitz_LV: Optional[float] = None
    dimension: int = 1

    def __post_init__(self):
        if self.lipschitz_LV is not None and not self.lipschitz_LV > 0.0:
            raise ParameterDomainError("lipschitz_LV must be positive when given")
        if self.dimension < 1:
            raise ParameterDomainError("candidate dimension must be a positive integer")
        if self.body in (row_norms, row_dots):
            return  # ||0|| and 0 . 0 are 0.0, in rows of any length
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


_COLUMNS = ("where", "residual")  # ConditionReport fields kept as arrays


@dataclass(frozen=True, eq=False)
class ConditionReport(Record):
    """Outcome of a pointwise condition check over a grid or trajectory.

    The violations are kept as two columns: ``where``, a (k,) array of
    step indices or a (k, n) array of states, and ``residual``, a (k,)
    float array.  ``violations`` builds the ``Violation`` records from them
    on demand, and ``to_dict`` lists them under ``"violations"``, each
    record with ``"check": "decrement"``.  Two reports are equal exactly
    when they write the same JSON: a NaN residual equals NaN, and ``-0.0``
    differs from ``0.0``.

    A check evaluates places, nonzero grid points or the step indices of
    nonzero orbit states, never the origin; ``checked_points`` counts them.
    Violations come in place order, each with a residual above the
    tolerance, or NaN where it cannot be evaluated (inf - inf once V
    overflows, say).  ``max_residual`` is the first largest residual: NaN
    if any is NaN, -inf if nothing was checked.  ``value_zero_points``
    lists the places where V = 0, which breaks strict positivity though the
    residual arithmetic stays well-defined.  ``holds_everywhere`` is true
    exactly when there are no residuals.  For 1-D grid scans,
    ``violation_intervals`` groups contiguous violating grid points.
    Malformed input raises ``ParameterDomainError``.
    """

    condition_id: ConditionId
    checked_points: int
    where: np.ndarray
    residual: np.ndarray
    max_residual: float
    holds_everywhere: bool = field(init=False)
    tolerance: float
    violation_intervals: Optional[Tuple[Tuple[float, float], ...]] = None
    value_zero_points: Tuple[Where, ...] = ()

    def __post_init__(self):
        try:
            condition_id = ConditionId(self.condition_id)
            where = np.asarray(self.where)
            if where.ndim == 2 and where.dtype.kind in "iuf":  # states, not strings
                where = where.astype(float, copy=False)
            residual = np.asarray(self.residual, dtype=float)
        except (TypeError, ValueError) as err:
            raise ParameterDomainError(f"malformed condition report: {err}") from None
        if where.ndim == 1 and (where.dtype.kind in "iu" or len(where) == 0):
            where = where.astype(np.int64, copy=False)
        elif where.ndim != 2 or where.dtype != float:
            raise ParameterDomainError(
                "violation places must be a (k,) array of integer step indices "
                f"or a (k, n) array of states, got a {where.dtype} array of "
                f"shape {where.shape}"
            )
        if len(where) != len(residual):
            raise ParameterDomainError("violation columns differ in length")
        object.__setattr__(self, "condition_id", condition_id)
        object.__setattr__(self, "where", _read_only(where))
        object.__setattr__(self, "residual", _read_only(residual))
        object.__setattr__(self, "holds_everywhere", not len(residual))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = (json.dumps(r.to_dict(), sort_keys=True) for r in (self, other))
        return mine == theirs

    @property
    def violations(self) -> Tuple[Violation, ...]:
        where = self.where.tolist()
        if self.where.ndim == 2:
            where = map(tuple, where)
        return tuple(map(Violation, where, self.residual.tolist()))

    def to_dict(self, violations: bool = True) -> dict:
        """The JSON form; ``violations=False`` leaves that list out."""
        out = {k: encode(v) for k, v in self.__dict__.items() if k not in _COLUMNS}
        if violations:
            out["violations"] = [
                {"where": w, "residual": r, "check": "decrement"}
                for w, r in zip(encode(self.where.tolist()), encode(self.residual.tolist()))
            ]
        return out


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


_AT_ORIGIN = "the decrement condition excludes the origin"


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
    the scalar residual.  A negative V, or a negative V_rhs in the mixed
    form, raises: V > 0 away from the origin is part of every certificate.
    Overflow yields inf and NaN, not warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vx = V.values(states)
        difference = V.values(system.apply_batch(states)) - vx
        v_max = vx if V_rhs is None else V_rhs.values(states)
        if (vx < 0.0).any() or (V_rhs is not None and (v_max < 0.0).any()):
            raise ParameterDomainError("candidate values must be nonnegative")
        low = gains.alpha * np.float_power(v_max, gains.r1)
        high = gains.beta * np.float_power(v_max, gains.r2)
        return vx, (difference + np.where(high > low, high, low)) - slack


def _report(
    condition_id: ConditionId,
    places: np.ndarray,
    values: np.ndarray,
    residuals: np.ndarray,
    tolerance: float,
    intervals: bool = False,
) -> ConditionReport:
    """The report of a check that evaluated ``places`` in order.

    ``places`` holds step indices (m,) or nonzero states (m, n), and
    ``values`` and ``residuals`` V and the residual at each.  A residual
    above the tolerance is a violation, and so is a NaN one, which cannot
    be shown to hold.  ``intervals`` adds the violating runs of a 1-D grid.
    """
    if not math.isfinite(tolerance):  # NaN would flag every point, inf none
        raise ParameterDomainError(f"tolerance must be a finite number, got {tolerance!r}")
    violating = ~(residuals <= tolerance)
    zeros = places[values == 0.0].tolist()
    return ConditionReport(
        condition_id=condition_id,
        checked_points=len(places),
        where=places[violating],
        residual=residuals[violating],
        max_residual=float(residuals[np.argmax(residuals)]) if len(residuals) else -math.inf,
        tolerance=tolerance,
        violation_intervals=_violation_intervals(places, violating) if intervals else None,
        value_zero_points=tuple(map(tuple, zeros) if places.ndim == 2 else zeros),
    )


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
    The mixed form fixes no scale: V -> cV scales the difference but not
    the ``v_rhs`` side, so any V that strictly decreases along F passes
    once c is large enough.  The grid must be nonempty and exclude the
    origin.  Violations are listed in grid order; for 1-D systems the
    report also carries the contiguous violation intervals.
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
    return _report(condition_id, pts, vx, residuals, tolerance, intervals=system.dimension == 1)


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

    States are checked at k = 0 .. len-2; origin states are skipped, as
    the condition excludes the origin.  Violations and
    ``value_zero_points`` are keyed by step index.
    """
    if len(traj) < 2:
        raise EmptyDomainError("trajectory scan needs at least one transition")
    condition_id, slack = _condition(V, v_rhs, g_norm)
    states = traj.states[:-1]
    steps = np.flatnonzero(~_at_origin(states))
    vx, residuals = _residuals(system, V, gains, states[steps], v_rhs, slack)
    return _report(condition_id, steps, vx, residuals, tolerance)


# ``estimate_lipschitz`` takes its pairs in chunks of about this many
# array elements (pairs times components) per temporary, at least one grid
# row: 32 KiB, which bounds its memory whatever the grid size.  Chunks of
# 2 MiB ran a 20 001-point grid in about half the time but left the peak
# memory of a process that estimates on 120-point grids 0.1 MiB higher.
_PAIR_CHUNK = 1 << 12


def estimate_lipschitz(f, domain_grid) -> float:
    """Largest difference quotient of ``f`` over all grid pairs.

    ``f`` maps the (m, n) array of grid points to their m images in one
    call.  This is a lower bound on the true local Lipschitz constant, an
    estimate rather than a certificate.  The grid needs at least two
    distinct points.

    The pairs are taken a chunk of grid rows at a time, each row against
    every later point, so memory stays bounded per chunk.  Each pair's
    distance and image distance are ``row_norms`` of its differences; a
    pair of coincident points gives no slope, a NaN slope is skipped and
    an infinite one counts.
    """
    pts = np.asarray(domain_grid, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    m = len(pts)
    if m < 2:
        raise EmptyDomainError("lipschitz estimation needs at least two grid points")
    best = 0.0
    seen_distinct = False
    # Overflow gives inf and NaN slopes, not warnings; NaN ones are skipped.
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.asarray(f(pts), dtype=float).reshape(m, -1)
        width = max(pts.shape[1], images.shape[1], 1)
        a = 0
        while a < m - 1:
            # Rows a..b-1 against points a+1..m-1: a pair inside the chunk
            # comes twice, once each way, with the same slope, and a point
            # against itself is a coincident pair.
            later = m - a - 1
            b = min(m - 1, a + max(1, _PAIR_CHUNK // (later * width)))
            dx = row_norms((pts[None, a + 1:] - pts[a:b, None]).reshape(-1, pts.shape[1]))
            coincident = dx == 0.0
            if not coincident.all():
                seen_distinct = True
                dx[coincident] = math.nan  # no slope
                rise = row_norms((images[None, a + 1:] - images[a:b, None]).reshape(-1, images.shape[1]))
                steepest = float(np.fmax.reduce(rise / dx))  # NaN only when every slope is
                if steepest > best:
                    best = steepest
            a = b
    if not seen_distinct:
        raise DegenerateDomainError("all grid points coincide; slopes are undefined")
    return best


def _at_origin(states: np.ndarray) -> np.ndarray:
    """Which rows are the origin: every component is zero, of either sign."""
    return ~states.any(axis=1)
