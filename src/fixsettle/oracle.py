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
from contextlib import closing
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyDomainError, ParameterDomainError, SimulationDivergedError
from .record import Record
from .settling import check_levels, entry_curves, example_bound, fold_entries, q_sequence
from .systems import SystemMap, _steps, as_state, as_state_grid, example_system, row_norms

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
    all_within_bound: bool = field(init=False)
    settling_vs_epsilon: Tuple[Tuple[float, Optional[int], Optional[int]], ...]

    def __post_init__(self):
        within = self.worst_settling is not None and self.worst_settling <= self.bound
        object.__setattr__(self, "all_within_bound", within)


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
    advance as one stack through ``simulate``'s orbit loop and divergence
    rule, and each keeps only its last-outside and first-inside index for
    ``epsilon`` and every entry of ``epsilons``; stepping stops early once
    every orbit has closed an exact cycle (see ``_settling_curves``).  The
    settling-vs-epsilon curve is reported for the worst-settling orbit
    (ties broken by grid order).  The first diverged orbit in grid order is
    raised with its initial condition attached.  Initial conditions are
    scalars, so the system must be one-dimensional.
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
    levels = check_levels((epsilon, *epsilons))

    try:
        curves = _settling_curves(system, x, steps, levels)
    except SimulationDivergedError as err:
        x0 = float(err.x0[0])
        raise SimulationDivergedError(
            f"sweep orbit from x0={x0!r} diverged: {err}", err.last_finite_index, x0
        ) from err

    settle = [curve[0][1] for curve in curves]
    # The first x0 that never settles, else the first of the slowest.
    worst = settle.index(None) if None in settle else settle.index(max(settle))
    return SweepResult(
        case_id=case_id,
        grid_description=(
            f"{len(x0s)} initial conditions, |x0| in "
            f"[{min(map(abs, x0s)):.6g}, {max(map(abs, x0s)):.6g}]"
        ),
        epsilon=float(epsilon),
        bound=bound,
        worst_settling=settle[worst],
        worst_x0=x0s[worst],
        settling_vs_epsilon=curves[worst][1:],
    )


# Steps a settling run buffers before it folds them into its indices and
# looks for closed cycles.
_CHUNK = 64


def _settling_curves(system: SystemMap, x: np.ndarray, steps: int, levels: np.ndarray):
    """``settling.entry_curves`` of every orbit of the (m, n) stack ``x``:
    the ``fold_entries`` of its ``row_norms`` at k = 0..steps, stepped
    through ``systems._steps``, whose divergence error passes through.  A
    one-row run steps as its one state, on ``_steps``' single-state lane.

    States and norms are buffered ``_CHUNK`` steps at a time and folded
    per chunk.  At the end of each full chunk, every orbit's last state K
    is compared bit for bit with its earlier states in the chunk (bits,
    since ``==`` equates -0.0 and +0.0, which a map may send apart).
    ``body`` is pure and row-wise, so a match at K - lam proves that the
    orbit repeats with period lam from K - lam on.  Once every orbit has
    matched, the norm at every later index is that of a slot of the chunk,
    so the last ``_CHUNK`` indices up to ``steps`` are read off the chunk
    and folded, and stepping stops.  A cycling orbit cannot diverge, so
    stopping never hides a divergence.
    """
    if steps < 1:
        raise ParameterDomainError("k_max must be at least 1")
    indices = fold_entries(row_norms(x)[None, :], levels)
    states = np.empty((_CHUNK, *x.shape))
    norms = np.empty((_CHUNK, len(x)))
    bits = states.view(np.int64)
    slots = np.arange(_CHUNK)[:, None]
    orbit = _steps(system, x[0] if len(x) == 1 else x, steps)
    with np.errstate(over="ignore", invalid="ignore"), closing(orbit):
        for k, state, size in orbit:
            i = (k - 1) % _CHUNK
            states[i], norms[i] = state, size
            if i < _CHUNK - 1:
                continue
            first = k - _CHUNK + 1  # the index in slot 0
            fold_entries(norms, levels, first, indices)
            # same[j, r]: orbit r's state in slot j equals its state at k.
            same = (bits[:-1] == bits[-1]).all(axis=2)
            if not same.any(axis=0).all():
                continue
            period = np.argmax(same[::-1], axis=0) + 1  # the shortest match
            # Slots from start = _CHUNK - period on hold one cycle, and index
            # first + j >= first + start the slot in its phase.  The last
            # _CHUNK indices up to steps fold as those slots: the last period
            # of them are exact and hold every state of the cycle, and an
            # earlier one, already folded, only repeats one of them.
            start = _CHUNK - period
            slot = start + (steps - _CHUNK + 1 - first + slots - start) % period
            fold_entries(np.take_along_axis(norms, slot, axis=0), levels, steps - _CHUNK + 1, indices)
            break
        else:
            rest = steps % _CHUNK
            fold_entries(norms[:rest], levels, steps - rest + 1, indices)
    return entry_curves(levels, *indices, steps)


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
    discrepancy: bool = field(init=False)
    atc_published: int
    x0: float
    settling: Tuple[Tuple[float, Optional[int], Optional[int]], ...]

    def __post_init__(self):
        differs = self.k_star_recomputed != self.k_star_published
        object.__setattr__(self, "discrepancy", differs)


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
    levels = check_levels(DEFAULT_EPSILONS if epsilon_list is None else epsilon_list)
    x = as_state(x0, 1)[None, :]
    rows = []
    for case in TABLE1_CASES:
        recomputed = example_bound(*case.params())
        rows.append(
            Table1Row(
                case_id=case.case_id,
                aprime=case.aprime,
                bprime=case.bprime,
                r1prime=case.r1prime,
                r2prime=case.r2prime,
                k_star_recomputed=recomputed,
                k_star_published=case.published_k_star,
                atc_published=case.published_atc,
                x0=float(x0),
                settling=_settling_curves(case.system(), x, recomputed + extra_steps, levels)[0],
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
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", not self.failures)


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
