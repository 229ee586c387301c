"""Discrete-time autonomous maps and trajectory simulation.

A system is a pure state-transition map ``x -> F(x)`` on real vectors in
double precision.  The module ships the scalar power-law benchmark map

    x(k+1) = x(k) - sign(x(k)) * max(a' |x(k)|^r1', b' |x(k)|^r2')

used throughout the test harness, plus nominal and perturbed orbit
simulators and a small family of bounded perturbation generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    ParameterDomainError,
    PerturbationBoundError,
    SimulationDivergedError,
)

# Power-law maps overflow within a handful of steps once they leave the
# basin of attraction; abort well before float64 infinity.
DIVERGENCE_LIMIT = 1e300


def as_state(x, dimension: int) -> np.ndarray:
    """Coerce a scalar or sequence into a float64 state vector of length ``dimension``."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dimension:
        raise ParameterDomainError(
            f"state has shape {np.asarray(x).shape}, expected a vector of length {dimension}"
        )
    return arr


def as_state_grid(grid, dimension: int) -> np.ndarray:
    """Coerce a list of states (scalars for 1-D systems) into shape (m, dimension)."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim == 1:
        if dimension != 1:
            raise ParameterDomainError(
                f"flat grid given for a {dimension}-dimensional system"
            )
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise ParameterDomainError(
            f"grid has shape {arr.shape}, expected (m, {dimension})"
        )
    return arr


@dataclass(frozen=True)
class SystemMap:
    """A deterministic discrete-time autonomous map.

    ``step`` must be a pure function from a state vector of length
    ``dimension`` to a state vector of the same length.  ``params`` records
    the constants the map was built from, for reporting.  ``step_batch``,
    when given, maps an (m, dimension) array of states row by row in one
    call and must agree with ``step`` bit for bit on every row.
    """

    name: str
    dimension: int
    step: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, float] = field(default_factory=dict)
    step_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ParameterDomainError("system dimension must be a positive integer")

    def apply(self, x) -> np.ndarray:
        """One application of the map, with dimension checking."""
        state = as_state(x, self.dimension)
        out = np.atleast_1d(np.asarray(self.step(state), dtype=float))
        _check_shape(self, out, state.shape)
        return out

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        """One application of the map to every row of an (m, dimension) array.

        Uses ``step_batch`` when the map has one, and ``apply`` row by row
        otherwise.
        """
        if self.step_batch is None:
            out = np.empty_like(states, dtype=float)
            for i, state in enumerate(states):
                out[i] = self.apply(state)
            return out
        out = np.asarray(self.step_batch(states), dtype=float)
        _check_shape(self, out, states.shape)
        return out


def _check_shape(system: SystemMap, out: np.ndarray, shape) -> None:
    if out.shape != shape:
        raise ParameterDomainError(
            f"map '{system.name}' returned shape {out.shape}, expected {shape}"
        )


def divergence_error(system: SystemMap, k: int, x0) -> SimulationDivergedError:
    """The error for an orbit whose state at step k + 1 left the guard."""
    return SimulationDivergedError(
        f"state diverged at step {k + 1} of '{system.name}' "
        f"(last finite index {k})",
        last_finite_index=k,
        x0=np.array(x0),
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An orbit x(0..k) of a map, stored as an array of shape (k+1, n).

    ``truncated`` is True when the run reached its step budget without
    meeting a stop criterion.
    """

    states: np.ndarray
    truncated: bool

    def __post_init__(self):
        if self.states.ndim != 2 or len(self.states) == 0:
            raise ParameterDomainError("trajectory needs at least the initial state")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0]

    def norms(self) -> np.ndarray:
        """Euclidean norm of every recorded state."""
        return np.linalg.norm(self.states, axis=1)


@dataclass(frozen=True)
class PerturbationSpec:
    """A seeded bounded perturbation source for perturbed simulation.

    ``generator(k, state)`` must be deterministic in ``(k, state)`` for a
    fixed ``seed``; every generated vector must have Euclidean norm strictly
    below ``delta0`` (exact zero is always admissible, it reduces the
    perturbed map to the nominal one).
    """

    delta0: float
    generator: Callable[[int, np.ndarray], np.ndarray]
    seed: int = 0
    name: str = "custom"

    def __post_init__(self):
        if not (math.isfinite(self.delta0) and self.delta0 >= 0.0):
            raise ParameterDomainError(
                "delta0 must be a finite nonnegative perturbation bound"
            )
        if self.seed < 0:
            raise ParameterDomainError("seed must be a nonnegative integer")

    def sample(self, k: int, state: np.ndarray) -> np.ndarray:
        """Generate the step-``k`` perturbation and enforce the norm bound."""
        g = np.atleast_1d(np.asarray(self.generator(k, state), dtype=float))
        norm = float(np.linalg.norm(g))
        if norm > 0.0 and norm >= self.delta0:
            raise PerturbationBoundError(
                f"perturbation at step {k} has norm {norm:.6g}, "
                f"which is not strictly below delta0={self.delta0:.6g}"
            )
        return g


def constant_perturbation(vector, delta0: float, name: str = "constant") -> PerturbationSpec:
    """A fixed additive offset applied at every step."""
    vec = np.atleast_1d(np.asarray(vector, dtype=float))
    return PerturbationSpec(delta0=delta0, generator=lambda k, x: vec, seed=0, name=name)


def uniform_ball_perturbation(delta0: float, dimension: int, seed: int) -> PerturbationSpec:
    """Per-step draw uniform in the open ball of radius ``delta0``.

    Each step uses an independent generator keyed by ``(seed, k)``, so the
    sequence is reproducible and the generator itself is a pure function.
    """

    def gen(k: int, state: np.ndarray) -> np.ndarray:
        if delta0 == 0.0:
            return np.zeros(dimension)
        rng = np.random.default_rng((seed, k))
        direction = rng.standard_normal(dimension)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.zeros(dimension)
            direction[0] = 1.0
            norm = 1.0
        # u in [0, 1) keeps the radius strictly below delta0.
        radius = delta0 * rng.random() ** (1.0 / dimension)
        return direction / norm * radius

    return PerturbationSpec(delta0=delta0, generator=gen, seed=seed, name="uniform_ball")


def radial_perturbation(
    delta0: float, dimension: int, fraction: float = 0.999, seed: int = 0
) -> PerturbationSpec:
    """Worst-case-style push directly away from the origin.

    The magnitude is ``fraction * delta0`` (fraction < 1 keeps the bound
    strict).  At the origin, where "away" is undefined, the first axis is
    used.
    """
    if not 0.0 <= fraction < 1.0:
        raise ParameterDomainError("fraction must lie in [0, 1) to keep the bound strict")

    def gen(k: int, state: np.ndarray) -> np.ndarray:
        if delta0 == 0.0:
            return np.zeros(dimension)
        norm = np.linalg.norm(state)
        if norm == 0.0:
            direction = np.zeros(dimension)
            direction[0] = 1.0
        else:
            direction = state / norm
        return direction * (fraction * delta0)

    return PerturbationSpec(delta0=delta0, generator=gen, seed=seed, name="radial")


def _run(
    system: SystemMap,
    x0,
    k_max: int,
    stop_epsilon: Optional[float],
    pert: Optional[PerturbationSpec],
) -> Trajectory:
    if k_max < 1:
        raise ParameterDomainError("k_max must be at least 1")
    if stop_epsilon is not None and stop_epsilon < 0.0:
        raise ParameterDomainError("stop_epsilon must be nonnegative")
    x = as_state(x0, system.dimension)
    step = system.step
    shape = x.shape
    states = [x]
    truncated = True
    if stop_epsilon is not None and float(np.linalg.norm(x)) <= stop_epsilon:
        return Trajectory(np.array(states), truncated=False)
    # A diverging orbit overflows to inf, which the guard reports; numpy's
    # overflow warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            nxt = np.atleast_1d(np.asarray(step(x), dtype=float))
            _check_shape(system, nxt, shape)
            if pert is not None:
                nxt = nxt + pert.sample(k, x)
            if not np.all(np.isfinite(nxt)) or np.any(np.abs(nxt) > DIVERGENCE_LIMIT):
                raise divergence_error(system, k, states[0])
            states.append(nxt)
            x = nxt
            if stop_epsilon is not None and float(np.linalg.norm(x)) <= stop_epsilon:
                truncated = False
                break
    return Trajectory(np.array(states), truncated=truncated)


def simulate(
    system: SystemMap, x0, k_max: int, stop_epsilon: Optional[float] = None
) -> Trajectory:
    """Iterate the nominal map from ``x0``.

    Stops early at the first index whose state norm is <= ``stop_epsilon``
    (when given); otherwise records k_max + 1 states and marks the
    trajectory truncated.  Raises SimulationDivergedError when a state
    overflows the divergence guard.
    """
    return _run(system, x0, k_max, stop_epsilon, None)


def simulate_perturbed(
    system: SystemMap,
    pert: PerturbationSpec,
    x0,
    k_max: int,
    stop_epsilon: Optional[float] = None,
) -> Trajectory:
    """Iterate the perturbed map ``x -> F(x) + g(k, x)``.

    Reproducible for a fixed generator seed; every injected perturbation is
    checked against the declared norm bound at generation time.
    """
    return _run(system, x0, k_max, stop_epsilon, pert)


def validate_example_params(aprime: float, bprime: float, r1prime: float, r2prime: float):
    """Admissibility of the benchmark map's constants."""
    if not 0.0 < aprime < 1.0:
        raise ParameterDomainError(
            f"aprime={aprime!r} must lie in (0, 1) for the benchmark map"
        )
    if not 0.0 < bprime < 1.0:
        raise ParameterDomainError(
            f"bprime={bprime!r} must lie in (0, 1) for the benchmark map"
        )
    if not 0.0 < r1prime < 0.5:
        raise ParameterDomainError(
            f"r1prime={r1prime!r} must lie in (0, 0.5) so the mapped low-level "
            "exponent 2*r1prime stays below 1"
        )
    if not r2prime > 1.0:
        raise ParameterDomainError(f"r2prime={r2prime!r} must exceed 1")


def _example_step_raw(x: float, aprime: float, bprime: float, r1prime: float, r2prime: float) -> float:
    if x == 0.0:
        return 0.0
    mag = abs(x)
    m = max(aprime * mag ** r1prime, bprime * mag ** r2prime)
    return x - math.copysign(m, x)


def example_step(x: float, aprime: float, bprime: float, r1prime: float, r2prime: float) -> float:
    """One step of the scalar benchmark map.

    sign(0) is taken as 0, making the origin an exact fixed point.  The
    step is taken in numpy scalars, as ``example_system`` takes it, so a
    power that overflows gives inf rather than raising.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_example_step_raw(np.float64(x), aprime, bprime, r1prime, r2prime))


def example_system(
    aprime: float, bprime: float, r1prime: float, r2prime: float, name: str = "example"
) -> SystemMap:
    """The benchmark map packaged as a 1-D SystemMap."""
    validate_example_params(aprime, bprime, r1prime, r2prime)

    def step(state: np.ndarray) -> np.ndarray:
        # Parameters were validated at construction; skip the per-step check.
        return np.array([_example_step_raw(state[0], aprime, bprime, r1prime, r2prime)])

    def step_batch(states: np.ndarray) -> np.ndarray:
        # np.float_power calls libm pow like Python's **, so every row
        # matches ``step`` bit for bit; np.power does not on some inputs.
        mag = np.abs(states)
        low = aprime * np.float_power(mag, r1prime)
        high = bprime * np.float_power(mag, r2prime)
        m = np.copysign(np.maximum(low, high), states)
        return np.where(states == 0.0, 0.0, states - m)

    return SystemMap(
        name=name,
        dimension=1,
        step=step,
        params={
            "aprime": aprime,
            "bprime": bprime,
            "r1prime": r1prime,
            "r2prime": r2prime,
        },
        step_batch=step_batch,
    )


def affine_system(matrix, offset=None, name: str = "affine") -> SystemMap:
    """The map ``x -> A x + b`` for a square matrix A."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("matrix must be square")
    n = a.shape[0]
    b = np.zeros(n) if offset is None else as_state(offset, n)

    def step(state: np.ndarray) -> np.ndarray:
        return a @ state + b

    return SystemMap(name=name, dimension=n, step=step, params={})
