"""Closed-form settling-time bounds and empirical settling measurement.

The two-phase convergence argument behind the fixed-time decrement yields
integer step bounds:

    phase 1 (level above 1, superlinear branch):
        K1 <= floor((beta^(1/(1-r2)) - 1) / beta) + 1
    phase 2 (level at most 1, sublinear branch):
        K2 - K1 <= floor(alpha^(1/(r1-1))) + 1

and their sum, the initial-condition-independent settling bound.  The
module also provides the normalized q-sequence and the extinction
S-sequence those proofs rest on, implemented as independently checkable
constructs, plus entry-and-stay settling measurement on recorded orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import LemmaPreconditionError, ParameterDomainError
from .lyapunov import FixedTimeGains
from .record import Record
from .systems import Trajectory, validate_example_params

# Floor arguments that are exact integers in real arithmetic (for instance
# 0.25^-2 = 16) may land just below the integer in float64; pulling values
# within this distance up before flooring keeps such cases stable.
FLOOR_GUARD = 1e-9


def guarded_floor(x: float, guard: float = FLOOR_GUARD) -> int:
    """floor(x), except values within ``guard`` below an integer round up."""
    if not math.isfinite(x):
        raise ParameterDomainError(f"floor argument must be finite, got {x!r}")
    c = math.ceil(x)
    if 0.0 <= c - x <= guard:
        return c
    return math.floor(x)


def phase1_bound(beta: float, r2: float, guard: float = FLOOR_GUARD) -> int:
    """Step bound for driving the candidate level from above 1 down to 1."""
    if not 0.0 < beta < 1.0:
        raise ParameterDomainError(f"beta={beta!r} must lie in (0, 1)")
    if not r2 > 1.0:
        raise ParameterDomainError(f"r2={r2!r} must exceed 1")
    return guarded_floor((beta ** (1.0 / (1.0 - r2)) - 1.0) / beta, guard) + 1


def phase2_bound(alpha: float, r1: float, guard: float = FLOOR_GUARD) -> int:
    """Step bound for extinguishing a candidate level of at most 1."""
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha={alpha!r} must lie in (0, 1)")
    if not 0.0 < r1 < 1.0:
        raise ParameterDomainError(f"r1={r1!r} must lie in (0, 1)")
    return guarded_floor(alpha ** (1.0 / (r1 - 1.0)), guard) + 1


def settling_bound(gains: FixedTimeGains, guard: float = FLOOR_GUARD) -> int:
    """Combined fixed-time settling bound.

    Evaluated directly from the combined formula; it must coincide with
    phase1_bound + phase2_bound, which the test suite asserts over random
    admissible gains.
    """
    alpha, beta, r1, r2 = gains.alpha, gains.beta, gains.r1, gains.r2
    return (
        guarded_floor(alpha ** (1.0 / (r1 - 1.0)), guard)
        + guarded_floor((beta ** (1.0 / (1.0 - r2)) - 1.0) / beta, guard)
        + 2
    )


def gains_from_example(
    aprime: float, bprime: float, r1prime: float, r2prime: float
) -> FixedTimeGains:
    """The gain quadruple induced by the benchmark map's derivation.

    The quadratic candidate's difference is bounded by squared powers of
    |x|, which matches the decrement inequality for V = |x| with
    alpha = aprime^2, beta = bprime^2, r1 = 2 r1prime, r2 = 2 r2prime.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    return FixedTimeGains(
        alpha=aprime ** 2, beta=bprime ** 2, r1=2.0 * r1prime, r2=2.0 * r2prime
    )


def example_bound(
    aprime: float,
    bprime: float,
    r1prime: float,
    r2prime: float,
    guard: float = FLOOR_GUARD,
) -> int:
    """Settling bound of the benchmark map in its native parameters.

    Algebraically equal to ``settling_bound(gains_from_example(...))``; kept
    as an independent evaluation route so the identity is a real check.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    return (
        guarded_floor(aprime ** (2.0 / (2.0 * r1prime - 1.0)), guard)
        + guarded_floor(
            (bprime ** (2.0 / (1.0 - 2.0 * r2prime)) - 1.0) / bprime ** 2, guard
        )
        + 2
    )


def check_level(level: float) -> float:
    """``level`` itself, or ParameterDomainError when it is negative."""
    if level < 0.0:
        raise ParameterDomainError(f"level must be nonnegative, got {level!r}")
    return level


def entry_and_stay(values, level: float) -> Tuple[Optional[int], Optional[int]]:
    """Entry of a recorded value sequence into the sublevel set {v <= level}.

    Returns ``(stay, first)``: ``stay`` is the smallest k such that every
    value from k on is <= level (None when the last value is outside), and
    ``first`` is the first k with a value <= level (None if there is none).
    Entry-and-stay matches equilibria that must be reached and kept;
    oscillating tails would make first entry report spuriously early
    settling.
    """
    check_level(level)
    outside = np.nonzero(values > level)[0]
    inside = np.nonzero(values <= level)[0]
    stay = int(outside[-1]) + 1 if len(outside) else 0
    if stay == len(values):
        stay = None  # the last recorded value is outside
    return stay, int(inside[0]) if len(inside) else None


def measure_settling(traj: Trajectory, epsilon: float) -> Optional[int]:
    """Entry-and-stay settling index of a recorded orbit into ||x|| <= epsilon."""
    return entry_and_stay(traj.norms(), epsilon)[0]


def measure_first_entry(traj: Trajectory, epsilon: float) -> Optional[int]:
    """First index whose state norm is <= epsilon, or None."""
    return entry_and_stay(traj.norms(), epsilon)[1]


def settling_vs_epsilon(
    traj: Trajectory, epsilons: Sequence[float]
) -> Tuple[Tuple[float, Optional[int], Optional[int]], ...]:
    """(epsilon, entry-and-stay index, first-entry index) for each epsilon."""
    norms = traj.norms()
    return tuple((float(eps), *entry_and_stay(norms, eps)) for eps in epsilons)


@dataclass(frozen=True)
class SettlingReport(Record):
    """Bounds and (optionally) measured settling for one scenario."""

    bound_K_star: int
    bound_K1: int
    bound_K2_gap: int
    epsilon_used: float
    empirical_settling: Optional[int] = None
    satisfied: bool = False

    def __post_init__(self):
        if self.bound_K_star != self.bound_K1 + self.bound_K2_gap:
            raise ParameterDomainError(
                "combined bound must equal the sum of the phase bounds"
            )


def analyze_settling(
    gains: FixedTimeGains,
    traj: Optional[Trajectory] = None,
    epsilon: float = 0.0,
    guard: float = FLOOR_GUARD,
) -> SettlingReport:
    """Evaluate all bounds for ``gains`` and measure settling of ``traj``."""
    k1 = phase1_bound(gains.beta, gains.r2, guard)
    k2 = phase2_bound(gains.alpha, gains.r1, guard)
    k_star = settling_bound(gains, guard)
    empirical = measure_settling(traj, epsilon) if traj is not None else None
    return SettlingReport(
        bound_K_star=k_star,
        bound_K1=k1,
        bound_K2_gap=k2,
        epsilon_used=float(epsilon),
        empirical_settling=empirical,
        satisfied=empirical is not None and empirical <= k_star,
    )


@dataclass(frozen=True)
class QSequence:
    """Normalized representation q_k = V_k * beta^(-1/(r2-1)) of a level run.

    For any sequence with all levels above 1 and the superlinear decrement
    holding between consecutive entries, every q_k must lie strictly inside
    (lower, upper) = (beta^(1/(1-r2)), beta^(2/(1-r2))).  ``out_of_bounds``
    lists indices where that fails; it stays empty for any sequence
    realizable by a nonnegative candidate.
    """

    q: Tuple[float, ...]
    beta: float
    r2: float
    lower: float
    upper: float
    out_of_bounds: Tuple[int, ...] = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ParameterDomainError("q bounds must satisfy lower < upper")


def q_sequence(v_values: Sequence[float], beta: float, r2: float) -> QSequence:
    """Build the q-sequence of a level run and check its two-sided bounds.

    Preconditions (violations are rejected with the offending index): every
    level exceeds 1, and consecutive levels satisfy the superlinear
    decrement V_{k+1} <= V_k - beta * V_k^r2.

    Note that a single-entry sequence constrains its head only from below;
    its q value can exceed the upper bound without violating any stated
    precondition.  Runs produced by actual (nonnegative) candidate values
    cannot do that, and the randomized trials draw from that regime.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterDomainError(f"beta={beta!r} must lie in (0, 1)")
    if not r2 > 1.0:
        raise ParameterDomainError(f"r2={r2!r} must exceed 1")
    vs = [float(v) for v in v_values]
    if not vs:
        raise LemmaPreconditionError("level sequence is empty", index=0)
    for k, v in enumerate(vs):
        if not v > 1.0:
            raise LemmaPreconditionError(
                f"level at index {k} is {v!r}, but every level must exceed 1",
                index=k,
            )
    # Tiny relative slack so sequences generated with the exact decrement do
    # not get rejected over last-bit rounding.
    for k in range(len(vs) - 1):
        allowed = vs[k] - beta * vs[k] ** r2
        if vs[k + 1] > allowed + 1e-12 * max(1.0, abs(allowed)):
            raise LemmaPreconditionError(
                f"levels at indices {k}->{k + 1} violate the superlinear "
                f"decrement ({vs[k + 1]!r} > {allowed!r})",
                index=k + 1,
            )
    scale = beta ** (-1.0 / (r2 - 1.0))
    lower = beta ** (1.0 / (1.0 - r2))
    upper = beta ** (2.0 / (1.0 - r2))
    q = tuple(v * scale for v in vs)
    out = tuple(k for k, qk in enumerate(q) if not lower < qk < upper)
    return QSequence(q=q, beta=beta, r2=r2, lower=lower, upper=upper, out_of_bounds=out)


@dataclass(frozen=True)
class SSequence:
    """The extinction recursion s <- s * (1 - s^(r1-1)) with clamping.

    From any start strictly below 1 the raw recursion goes negative in one
    step; such excursions are clamped to 0 and annotated rather than
    emitted.  Zero is absorbing, so iteration stops there.
    """

    s: Tuple[float, ...]
    r1: float
    clamped_at: Optional[int] = None
    clamp_raw: Optional[float] = None


def s_sequence(s0: float, r1: float, max_steps: int) -> SSequence:
    """Iterate the extinction recursion from ``s0`` in (0, 1].

    A start of exactly 1 produces the exact sequence (1, 0).
    """
    if not 0.0 < s0 <= 1.0:
        raise ParameterDomainError(f"s0={s0!r} must lie in (0, 1]")
    if not 0.0 < r1 < 1.0:
        raise ParameterDomainError(f"r1={r1!r} must lie in (0, 1)")
    if max_steps < 1:
        raise ParameterDomainError("max_steps must be at least 1")
    seq = [float(s0)]
    clamped_at = None
    clamp_raw = None
    cur = float(s0)
    for _ in range(max_steps):
        raw = cur * (1.0 - cur ** (r1 - 1.0))
        if raw < 0.0:
            clamped_at = len(seq)
            clamp_raw = raw
            seq.append(0.0)
            break
        seq.append(raw)
        cur = raw
        if cur == 0.0:
            break
    return SSequence(s=tuple(seq), r1=r1, clamped_at=clamped_at, clamp_raw=clamp_raw)
