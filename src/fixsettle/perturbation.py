"""Fixed-time attractiveness of bounded-perturbation orbits.

When the nominal map admits a fixed-time decrement certificate with a
Lipschitz candidate (constant L_V) and the per-step perturbation norm stays
below delta0, orbits are drawn into the sublevel set {V <= B} within a
fixed number of steps.  The level and the step bound trade off through the
free slack constant m > 1 of the active branch (m1 or m2 below):

    branch "level above 1":  B = (m1 L_V delta0 / beta)^(1/r2),
                             steps from phase-1 kernel with
                             beta_d = (1 - 1/m1) beta
    branch "level at most 1": B = (m2 L_V delta0 / alpha)^(1/r1),
                             steps from phase-2 kernel with
                             alpha_d = (1 - 1/m2) alpha

Substituting B back into the feasibility inequality gives exactly zero, so
feasibility at the computed level holds with equality; strict feasibility
is a statement about levels outside the attractive set, which is why the
feasibility check takes an explicit target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from .errors import EmptyDomainError, ParameterDomainError
from .lyapunov import FixedTimeGains, LyapunovCandidate
from .record import Record
from .settling import decimal_ratio, entry_curve, phase1_floor, phase2_floor
from .systems import Trajectory

BRANCH_HIGH = "V0_GT_1"
BRANCH_LOW = "V0_LE_1"
_BRANCHES = (BRANCH_HIGH, BRANCH_LOW)


@dataclass(frozen=True)
class AttractivenessConfig:
    """Inputs of the perturbed-attractiveness analysis.

    ``m`` is the slack constant of ``branch``.  ``lv_source`` records whether
    the Lipschitz constant was user-supplied or produced by a grid estimate.
    """

    gains: FixedTimeGains
    lipschitz_lv: float
    delta0: float
    m: float = 2.0
    branch: str = BRANCH_HIGH
    lv_source: str = "user"

    def __post_init__(self):
        if not self.m > 1.0:
            raise ParameterDomainError(
                f"m={self.m!r} must exceed 1 so the slackened gain "
                "(1 - 1/m) times alpha or beta stays positive"
            )
        if not (math.isfinite(self.lipschitz_lv) and self.lipschitz_lv > 0.0):
            raise ParameterDomainError(
                f"lipschitz_lv={self.lipschitz_lv!r} must be finite and positive"
            )
        if not (math.isfinite(self.delta0) and self.delta0 >= 0.0):
            raise ParameterDomainError("delta0 must be finite and nonnegative")
        if self.branch not in _BRANCHES:
            raise ParameterDomainError(
                f"branch must be one of {_BRANCHES}, got {self.branch!r}"
            )


def choose_branch(v0: float) -> str:
    """Branch selection from the initial candidate level."""
    return BRANCH_HIGH if v0 > 1.0 else BRANCH_LOW


def _branch(gains: FixedTimeGains, branch: str):
    """The gain, exponent r and phase-floor kernel of ``branch``."""
    if branch == BRANCH_HIGH:
        return gains.beta, gains.r2, phase1_floor
    return gains.alpha, gains.r1, phase2_floor


def attractive_level(cfg: AttractivenessConfig) -> float:
    """The sublevel threshold B of the attractive set {V <= B}.

    Collapses to 0 in the unperturbed limit delta0 = 0.
    """
    gain, r, _ = _branch(cfg.gains, cfg.branch)
    lv_delta = cfg.lipschitz_lv * cfg.delta0
    try:
        return (cfg.m * lv_delta / gain) ** (1.0 / r)
    except OverflowError:  # float ** raises where * and / return inf
        raise ParameterDomainError(
            f"attractive level B overflows float64 on branch {cfg.branch}"
        ) from None


def feasibility_residual(cfg: AttractivenessConfig, b_target: float) -> float:
    """Left side of the slack feasibility inequality at an arbitrary level.

    Positive means the slack condition holds strictly at ``b_target``; at
    ``b_target = attractive_level(cfg)`` the result is exactly 0, because
    the level formula is the inequality's algebraic inverse.
    """
    if not b_target > 0.0:
        raise ParameterDomainError("b_target must be positive")
    gain, r, _ = _branch(cfg.gains, cfg.branch)
    lv_delta = cfg.lipschitz_lv * cfg.delta0
    try:
        return gain * b_target ** r - cfg.m * lv_delta
    except OverflowError:  # float ** raises where * and / return inf
        raise ParameterDomainError(
            f"feasibility residual at b_target={b_target!r} overflows float64"
        ) from None


def slackened_gain(cfg: AttractivenessConfig) -> float:
    """beta_d or alpha_d, the decrement gain left after perturbation slack."""
    return (1.0 - 1.0 / cfg.m) * _branch(cfg.gains, cfg.branch)[0]


def perturbed_settling_bound(cfg: AttractivenessConfig) -> int:
    """Fixed step bound for reaching the attractive set under perturbation.

    ``branch_settling_bound`` of the config's gains, slack and branch.
    """
    return branch_settling_bound(cfg.gains, cfg.m, cfg.branch)


def branch_settling_bound(gains: FixedTimeGains, m: float, branch: str) -> int:
    """K*, the fixed step bound of ``branch`` with slack constant ``m``.

    Reuses the phase-bound kernels with the slackened gain of the branch,
    evaluated exactly from the decimals of m and the gain: m = 1.5 and
    beta = 0.25 give exactly 1/12, where float64 gives a value above it.
    The slackened gain lies in (0, 1) whenever m > 1 and the gains are
    admissible, so the kernels need no domain checks.  K* reads neither
    L_V nor delta0.
    """
    if not m > 1.0:
        raise ParameterDomainError(f"m={m!r} must exceed 1")
    gain, r, phase_floor = _branch(gains, branch)
    gain_d = (1.0 - 1.0 / m) * gain
    if not 0.0 < gain_d < 1.0:
        raise ParameterDomainError(
            f"slackened gain {gain_d!r} left (0, 1); check m and the gains"
        )
    (mn, md), (gn, gd) = decimal_ratio(m), decimal_ratio(gain)
    # (1 - md/mn) gn/gd, with mn > md > 0.
    return phase_floor(((mn - md) * gn, mn * gd), decimal_ratio(r))


def verify_attractiveness(
    traj: Trajectory, V: LyapunovCandidate, B: float
) -> Tuple[Optional[int], bool]:
    """Empirical entry into {V <= B} on a recorded orbit.

    Returns ``(entry, remained)`` where ``entry`` is the smallest k with
    V(y(j)) <= B for every recorded j >= k (None if the orbit never enters
    and stays), and ``remained`` is True exactly when the orbit never left
    the set again after first reaching it.
    """
    return _attraction(V.values(traj.states), B)[:2]


def _attraction(values, B: float) -> Tuple[Optional[int], bool, Optional[int]]:
    """``verify_attractiveness`` of a value sequence, and for one started
    above 1 its first index at or below 1, from one fold."""
    (_, entry, first), (_, _, below_one) = entry_curve(values, (B, 1.0))
    crossing = below_one if choose_branch(values[0]) == BRANCH_HIGH else None
    return entry, first is not None and entry == first, crossing


def remark_tradeoff_table(
    cfg: AttractivenessConfig, m_values: Sequence[float]
) -> Tuple[Tuple[float, float, int], ...]:
    """(m, B, K*) rows for a sweep of the active branch's slack constant.

    Enlarging m grows the attractive set and shrinks the step bound, so B
    is nondecreasing and K* nonincreasing along any increasing m grid.
    """
    if len(m_values) == 0:
        raise EmptyDomainError("m grid is empty")
    rows = []
    for m in m_values:
        cfg_m = replace(cfg, m=m)
        rows.append(
            (float(m), attractive_level(cfg_m), perturbed_settling_bound(cfg_m))
        )
    return tuple(rows)


@dataclass(frozen=True)
class AttractivenessReport(Record):
    """Outcome of one attractiveness analysis.

    ``feasibility_residual`` is evaluated at the computed level B (zero by
    the inverse identity, recorded for visibility).  ``v_crossing_index``
    reports, for orbits started above level 1, the first index at which the
    candidate dropped to 1 or below.
    """

    branch: str
    B: float
    K_star: int
    gain_d: float
    feasibility_residual: float
    lv_source: str
    empirical_entry: Optional[int] = None
    remained_inside: bool = False
    v_crossing_index: Optional[int] = None


def analyze_attractiveness(
    cfg: AttractivenessConfig,
    traj: Optional[Trajectory] = None,
    V: Optional[LyapunovCandidate] = None,
) -> AttractivenessReport:
    """Compute level, bound and feasibility, and verify a recorded orbit.

    Mixed orbits (candidate starting above 1 and ending below) are analyzed
    with the high branch; the index of the crossing below level 1 is
    reported alongside.
    """
    b_level = attractive_level(cfg)
    k_star = perturbed_settling_bound(cfg)
    gain_d = slackened_gain(cfg)
    residual = feasibility_residual(cfg, b_level) if b_level > 0.0 else 0.0

    entry, remained, crossing = None, False, None
    if traj is not None:
        if V is None:
            raise ParameterDomainError("orbit verification needs a candidate V")
        entry, remained, crossing = _attraction(V.values(traj.states), b_level)
    return AttractivenessReport(
        branch=cfg.branch,
        B=b_level,
        K_star=k_star,
        gain_d=gain_d,
        feasibility_residual=residual,
        lv_source=cfg.lv_source,
        empirical_entry=entry,
        remained_inside=remained,
        v_crossing_index=crossing,
    )
