"""Desk-scale brute-force verification: sweeps, table reproduction, trials.

Everything here is an independent check of the closed-form machinery:
initial-condition sweeps compare measured settling against the bound,
``table1_reproduce`` recomputes the benchmark table, and
``lemma1_randomized_trial`` stress-tests the q-sequence bounds on random
level runs.  All randomness is seeded and all aggregation is ordered, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyDomainError, ParameterDomainError, SimulationDivergedError
from .record import Record
from .settling import (
    check_level,
    example_bound,
    q_sequence,
    settling_vs_epsilon,
)
from .systems import (
    DIVERGENCE_LIMIT,
    SystemMap,
    as_state_grid,
    divergence_error,
    example_system,
    row_norms,
    simulate,
)

DEFAULT_EPSILONS = (10.0, 1.0, 0.5, 0.25, 0.1)


@dataclass(frozen=True)
class Table1Case:
    case_id: str
    aprime: float
    bprime: float
    r1prime: float
    r2prime: float
    published_k_star: int
    published_atc: int

    def system(self) -> SystemMap:
        return example_system(
            self.aprime, self.bprime, self.r1prime, self.r2prime, name=self.case_id
        )

    def params(self) -> Tuple[float, float, float, float]:
        return (self.aprime, self.bprime, self.r1prime, self.r2prime)


# Benchmark parameter sets with their published bound and published "actual
# time of convergence" (threshold unstated, so ATC is reported, not asserted).
TABLE1_CASES: Tuple[Table1Case, ...] = (
    Table1Case("case1", 0.8, 0.5, 0.4, 1.1, 19, 6),
    Table1Case("case2", 0.5, 0.2, 0.3, 1.2, 258, 15),
    Table1Case("case3", 0.1, 0.1, 0.05, 1.4, 1359, 30),
    Table1Case("case4", 0.2, 0.05, 0.2, 1.5, 7814, 33),
)

TABLE1_X0 = 1500.0


def divergence_threshold(bprime: float, r2prime: float) -> float:
    """Magnitude at which the benchmark map's superlinear branch flips sign
    without contracting.

    For |x| above (2/b')^(1/(r2'-1)) the step magnitude exceeds 2|x|, so the
    orbit alternates outward and diverges: the fixed-time statement is local
    and sweeps must stay below this threshold.
    """
    if not 0.0 < bprime < 1.0 or not r2prime > 1.0:
        raise ParameterDomainError("benchmark parameters outside their ranges")
    try:
        return (2.0 / bprime) ** (1.0 / (r2prime - 1.0))
    except OverflowError:  # beyond float64: no finite magnitude diverges
        return math.inf


def sweep_grid(case: Table1Case, points: int = 101, low: float = 2.0,
               high: float = 1e6, safety: float = 0.5) -> np.ndarray:
    """Log-spaced initial conditions for one benchmark case.

    The top of the grid is capped at ``safety`` times the divergence
    threshold: near the threshold the per-step contraction degenerates and
    the local fixed-time bound genuinely stops holding, well before actual
    divergence.
    """
    cap = min(high, safety * divergence_threshold(case.bprime, case.r2prime))
    if cap <= low:
        raise ParameterDomainError(
            f"{case.case_id}: usable sweep range [{low}, {cap}] is empty"
        )
    return np.logspace(np.log10(low), np.log10(cap), points)


@dataclass(frozen=True)
class SweepResult(Record):
    """Worst-case settling over a grid of initial conditions vs the bound."""

    case_id: str
    grid_description: str
    epsilon: float
    bound: int
    worst_settling: Optional[int]
    worst_x0: Optional[float]
    all_within_bound: bool
    settling_vs_epsilon: Tuple[Tuple[float, Optional[int], Optional[int]], ...]


def sweep_settling(
    system: SystemMap,
    x0_grid,
    bound: int,
    epsilon: float = 1.0,
    k_max: Optional[int] = None,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    case_id: str = "",
) -> SweepResult:
    """Simulate every initial condition and compare settling to ``bound``.

    ``k_max`` defaults to ``bound + 50`` steps.  All initial conditions
    advance together, one ``system.apply_batch`` call per step, and each
    keeps only its last-outside and first-inside index for ``epsilon`` and
    every entry of ``epsilons``.  The settling-vs-epsilon curve is reported
    for the worst-settling orbit (ties broken by grid order).  An orbit
    diverges by ``simulate``'s rule, a norm not <= ``DIVERGENCE_LIMIT``,
    and stops; the first one in grid order is raised with its initial
    condition attached.  Initial conditions are scalars, so the system must
    be one-dimensional.
    """
    if system.dimension != 1:
        raise ParameterDomainError(
            f"sweeps take scalar initial conditions, but system '{system.name}' "
            f"has dimension {system.dimension}"
        )
    x = as_state_grid(np.atleast_1d(x0_grid), 1)
    x0s = x[:, 0].tolist()
    if not x0s:
        raise EmptyDomainError("x0 grid is empty")
    if bound < 0:
        raise ParameterDomainError(f"bound must be nonnegative, got {bound!r}")
    steps = bound + 50 if k_max is None else k_max
    if steps < 1:
        raise ParameterDomainError("k_max must be at least 1")
    epsilons = tuple(epsilons)
    levels = np.array([check_level(level) for level in (epsilon, *epsilons)], dtype=float)

    # Per orbit and level: last index outside {||x|| <= level}, first inside.
    norms = row_norms(x)[:, None]
    last_out = np.where(norms > levels, 0, -1)
    first_in = np.where(norms <= levels, 0, -1)
    lanes = np.arange(len(x0s))  # grid index of every orbit still running
    diverged = None  # (grid index, last finite index) of the first diverged orbit
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            x = system.apply_batch(x)
            norms = row_norms(x)[:, None]
            guarded = norms[:, 0] <= DIVERGENCE_LIMIT  # False for inf and NaN too
            if not guarded.all():
                # Every running orbit sits earlier in the grid than the one
                # diverged so far, so only they can still change the outcome.
                diverged = (int(lanes[~guarded][0]), k - 1)
                keep = lanes < diverged[0]
                lanes, x = lanes[keep], x[keep]
                if not len(lanes):
                    break
            if diverged is None:
                last_out[norms > levels] = k
                first_in[(norms <= levels) & (first_in < 0)] = k
    if diverged is not None:
        i, k = diverged
        err = divergence_error(system, k, [x0s[i]])
        raise SimulationDivergedError(
            f"sweep orbit from x0={x0s[i]!r} diverged: {err}",
            last_finite_index=k,
            x0=x0s[i],
        ) from err

    # Entry-and-stay index, or None (-1 here) when the last state is outside.
    stay = np.where(last_out < steps, last_out + 1, -1)
    settle = stay[:, 0]
    # argmax keeps the earliest x0 among equally slow ones.
    worst = int(np.argmax(np.where(settle < 0, np.inf, settle)))
    return SweepResult(
        case_id=case_id,
        grid_description=(
            f"{len(x0s)} initial conditions, |x0| in "
            f"[{min(x0s):.6g}, {max(x0s):.6g}]"
        ),
        epsilon=float(epsilon),
        bound=bound,
        worst_settling=_index(settle[worst]),
        worst_x0=x0s[worst],
        all_within_bound=bool(np.all((settle >= 0) & (settle <= bound))),
        settling_vs_epsilon=tuple(
            (float(eps), _index(stay[worst, j]), _index(first_in[worst, j]))
            for j, eps in enumerate(epsilons, start=1)
        ),
    )


def _index(k) -> Optional[int]:
    return None if k < 0 else int(k)


@dataclass(frozen=True)
class Table1Row(Record):
    """One recomputed benchmark row plus measured settling curves."""

    case_id: str
    aprime: float
    bprime: float
    r1prime: float
    r2prime: float
    k_star_recomputed: int
    k_star_published: int
    discrepancy: bool
    atc_published: int
    x0: float
    settling: Tuple[Tuple[float, Optional[int], Optional[int]], ...]


def table1_reproduce(
    epsilon_list: Optional[Sequence[float]] = None,
    x0: float = TABLE1_X0,
    extra_steps: int = 100,
) -> Tuple[Table1Row, ...]:
    """Recompute every benchmark bound and measure settling-vs-epsilon.

    Published bounds are carried alongside the recomputation; a row's
    ``discrepancy`` flag marks any mismatch (the fourth case differs by one
    from careful evaluation, see the published value).  Settling entries are
    (epsilon, entry-and-stay, first-entry); the published convergence times
    had no stated threshold, so they are reported, never asserted.
    """
    epsilons = DEFAULT_EPSILONS if epsilon_list is None else tuple(epsilon_list)
    rows = []
    for case in TABLE1_CASES:
        recomputed = example_bound(*case.params())
        traj = simulate(case.system(), x0, recomputed + extra_steps)
        rows.append(
            Table1Row(
                case_id=case.case_id,
                aprime=case.aprime,
                bprime=case.bprime,
                r1prime=case.r1prime,
                r2prime=case.r2prime,
                k_star_recomputed=recomputed,
                k_star_published=case.published_k_star,
                discrepancy=recomputed != case.published_k_star,
                atc_published=case.published_atc,
                x0=float(x0),
                settling=settling_vs_epsilon(traj, epsilons),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class Lemma1TrialSummary(Record):
    """Outcome of the randomized q-sequence bound trials."""

    n_trials: int
    failures: Tuple[Tuple[int, str], ...]
    invalid_inputs: int
    max_sequence_length: int
    seed: int

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "passed": self.passed}


def generate_level_run(
    v0: float, beta: float, r2: float, extra_fraction: float = 0.0
) -> list:
    """Iterate V <- V - beta V^r2 (optionally with extra decrement) while V > 1.

    This produces exactly the level runs covered by the q-sequence bounds:
    all entries above 1 and consecutive entries satisfying the superlinear
    decrement, the inequality being strict when ``extra_fraction`` > 0.
    """
    if not v0 > 1.0:
        raise ParameterDomainError("v0 must exceed 1")
    vs = [float(v0)]
    v = float(v0)
    while True:
        try:
            nxt = v - (1.0 + extra_fraction) * beta * v ** r2
        except OverflowError:  # float ** raises where * and / return inf
            raise ParameterDomainError(f"level {v!r} ** r2={r2!r} overflows float64") from None
        if not nxt > 1.0:
            return vs
        vs.append(nxt)
        v = nxt


def lemma1_randomized_trial(n_trials: int, seed: int) -> Lemma1TrialSummary:
    """Randomized check that generated level runs keep q inside its bounds.

    Each trial draws (beta, r2, V0), builds the tight-decrement run and a
    strictly-decremented variant, and validates both through
    ``q_sequence``.  V0 is drawn strictly below beta^(1/(1-r2)): above that
    value the very first step would land below zero, which no nonnegative
    candidate level can do, so such heads are outside the covered regime.
    Draw ranges are bounded away from the open endpoints to keep run
    lengths and powers finite.
    """
    if n_trials < 1:
        raise ParameterDomainError("n_trials must be at least 1")
    rng = np.random.default_rng(seed)
    failures = []
    invalid = 0
    longest = 0
    for trial in range(n_trials):
        beta = rng.uniform(0.05, 0.95)
        r2 = rng.uniform(1.1, 5.0)
        v_cap = beta ** (1.0 / (1.0 - r2))
        u = rng.random() or 0.5
        v0 = 1.0 + (v_cap - 1.0) * u
        extra = rng.uniform(0.0, 0.5)
        for kind, fraction in (("tight", 0.0), ("slack", extra)):
            run = generate_level_run(v0, beta, r2, fraction)
            longest = max(longest, len(run))
            try:
                qs = q_sequence(run, beta, r2)
            except Exception as err:  # generator bug, not a bound failure
                invalid += 1
                failures.append((trial, f"{kind}: rejected ({err})"))
                continue
            if qs.out_of_bounds:
                failures.append(
                    (trial, f"{kind}: q out of bounds at {qs.out_of_bounds}")
                )
    return Lemma1TrialSummary(
        n_trials=n_trials,
        failures=tuple(failures),
        invalid_inputs=invalid,
        max_sequence_length=longest,
        seed=seed,
    )
