"""Discrete-time autonomous maps and trajectory simulation.

A system is a pure state-transition map ``x -> F(x)`` on real vectors in
double precision.  The module ships the scalar power-law benchmark map

    x(k+1) = x(k) - sign(x(k)) * max(a' |x(k)|^r1', b' |x(k)|^r2')

used throughout the test harness, plus nominal and perturbed orbit
simulators and a small family of bounded perturbation generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ParameterDomainError,
    PerturbationBoundError,
    SimulationDivergedError,
)

# Power-law maps overflow within a handful of steps once they leave the
# basin of attraction; abort well before float64 infinity.  An orbit has
# diverged at its first state whose ``norm`` is not <= this limit, which a
# NaN or inf norm is not.
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
    ``dimension`` to a state vector of the same length.  ``step_batch``,
    when given, maps an (m, dimension) array of states row by row in one
    call and must agree with ``step`` bit for bit on every row.
    """

    name: str
    dimension: int
    step: Callable[[np.ndarray], np.ndarray]
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


# The root of the smallest normal float 2**-1022: a squared norm is a
# finite normal float exactly when its correctly rounded root lies in
# [_ROOT_TINY, inf).
_ROOT_TINY = 2.0 ** -511


def row_dots(rows: np.ndarray) -> np.ndarray:
    """Every row's dot product with itself, as ``np.dot`` takes it.

    Each row goes through the vector dot product that ``np.dot`` and
    ``np.linalg.norm`` use for a single vector, so the result equals
    ``np.dot(row, row)`` bit for bit; a plain sum of squares differs in the
    last bit on some rows of two or more components.
    """
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def norm(v: np.ndarray) -> float:
    """Euclidean norm of one state vector: ``row_norms`` of a batch of one.

    Takes one dot product and one square root wherever the squared norm is
    in range, and leaves the rest to ``row_norms``.  A square that
    overflows may raise numpy's overflow warning, as ``np.linalg.norm``
    does; the result is still the rescued norm.
    """
    r = math.sqrt(v.dot(v))
    if _ROOT_TINY <= r < math.inf:
        return r
    return float(row_norms(v[None, :])[0])


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (m, n) array.

    Where a row's squared norm is a finite normal float, the norm is
    sqrt(row . row), equal to ``np.linalg.norm(row)`` bit for bit.  A
    finite nonzero row whose square overflows or falls below 2**-1022 is
    scaled by its largest |component| first, which keeps its norm to a few
    ulps instead of inf or a lost (even zero) result.  A row holding NaN
    gives NaN; one holding inf and no NaN gives inf.  One-component rows
    give |x|, which sqrt(x * x) equals wherever the square is in range.
    """
    if rows.shape[1] == 1:
        return np.abs(rows[:, 0])
    with np.errstate(over="ignore"):
        out = np.sqrt(row_dots(rows))
        off = np.flatnonzero(~((out >= _ROOT_TINY) & (out < math.inf)))
        if len(off):
            scale = np.abs(rows[off]).max(axis=1)
            finite = (scale > 0.0) & (scale < math.inf)  # zero, inf and NaN rows stay
            off, scale = off[finite], scale[finite]
            out[off] = scale * np.sqrt(row_dots(rows[off] / scale[:, None]))
    return out


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
        """Euclidean norm of every recorded state, as ``row_norms`` takes it."""
        return row_norms(self.states)


@dataclass(frozen=True)
class PerturbationSpec:
    """A bounded perturbation source for perturbed simulation.

    ``generator(k, state)`` must be deterministic in ``(k, state)``; a
    seeded generator closes over its own seed.  Every generated vector must
    have the state's shape and a ``norm`` strictly below ``delta0`` (exact
    zero is always admissible, it reduces the perturbed map to the nominal
    one).
    """

    delta0: float
    generator: Callable[[int, np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        if not (math.isfinite(self.delta0) and self.delta0 >= 0.0):
            raise ParameterDomainError(
                "delta0 must be a finite nonnegative perturbation bound"
            )

    def sample(self, k: int, state: np.ndarray) -> np.ndarray:
        """Generate the step-``k`` perturbation and enforce its shape and norm bound.

        A NaN draw fails the bound; a scalar draw counts as a 1-vector.
        """
        g = np.asarray(self.generator(k, state), dtype=float)
        if g.shape != state.shape:
            g = np.atleast_1d(g)
            if g.shape != state.shape:
                raise ParameterDomainError(
                    f"perturbation '{self.name}' at step {k} has shape {g.shape}, "
                    f"expected {state.shape}"
                )
        size = norm(g)
        if size != 0.0 and not size < self.delta0:
            raise PerturbationBoundError(
                f"perturbation at step {k} has norm {size:.6g}, "
                f"which is not strictly below delta0={self.delta0:.6g}"
            )
        return g


def constant_perturbation(vector, delta0: float, name: str = "constant") -> PerturbationSpec:
    """A fixed additive offset applied at every step."""
    vec = np.atleast_1d(np.asarray(vector, dtype=float))
    return PerturbationSpec(delta0=delta0, generator=lambda k, x: vec, name=name)


# Steps whose PCG64 states ``uniform_ball`` computes in one pass.
_SEED_BLOCK = 128


def uniform_ball_perturbation(delta0: float, dimension: int, seed: int) -> PerturbationSpec:
    """Per-step draw uniform in the open ball of radius ``delta0``.

    Step k (k >= 0) draws ``standard_normal(dimension)`` and then
    ``random()`` from ``np.random.default_rng((seed, k))``, so the draw
    depends on ``(seed, k)`` alone and the sequence is reproducible.  The
    generator keeps internal state to get there cheaply: one PCG64, whose
    state is set to that of ``default_rng((seed, k))`` before each draw,
    and the states of a block of consecutive steps, computed in one pass.
    A negative seed or k raises ``ParameterDomainError``.
    """
    if dimension < 1:
        raise ParameterDomainError("dimension must be a positive integer")
    if seed < 0:
        raise ParameterDomainError("seed must be a nonnegative integer")
    exponent = 1.0 / dimension
    bitgen = rng = None
    k0, states = 0, []

    def gen(k: int, state: np.ndarray) -> np.ndarray:
        nonlocal bitgen, rng, k0, states
        if delta0 == 0.0:
            return np.zeros(dimension)
        if k < 0:
            raise ParameterDomainError(f"uniform_ball step must be nonnegative, got {k}")
        # numpy imports numpy.random on first use, and importing it or
        # ._pcg64 is a large share of a CLI call's set-up; only a draw pays.
        if rng is None:
            from numpy.random import PCG64, Generator

            bitgen = PCG64(0)
            rng = Generator(bitgen)
        if not 0 <= k - k0 < len(states):
            from ._pcg64 import seed_states

            k0, states = k, seed_states(seed, k, _SEED_BLOCK)
        pcg_state, inc = states[k - k0]
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": pcg_state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        direction = rng.standard_normal(dimension)
        size = norm(direction)
        if size == 0.0:
            direction = np.zeros(dimension)
            direction[0] = 1.0
            size = 1.0
        # u in [0, 1) keeps the radius strictly below delta0.
        radius = delta0 * rng.random() ** exponent
        return direction / size * radius

    return PerturbationSpec(delta0=delta0, generator=gen, name="uniform_ball")


def radial_perturbation(
    delta0: float, dimension: int, fraction: float = 0.999
) -> PerturbationSpec:
    """Worst-case-style push directly away from the origin.

    The magnitude is ``fraction * delta0`` (fraction < 1 keeps the bound
    strict).  At the origin, where "away" is undefined, the first axis is
    used.
    """
    if dimension < 1:
        raise ParameterDomainError("dimension must be a positive integer")
    if not 0.0 <= fraction < 1.0:
        raise ParameterDomainError("fraction must lie in [0, 1) to keep the bound strict")
    magnitude = fraction * delta0

    def gen(k: int, state: np.ndarray) -> np.ndarray:
        if delta0 == 0.0:
            return np.zeros(dimension)
        size = norm(state)
        if size == 0.0:
            direction = np.zeros(dimension)
            direction[0] = 1.0
        else:
            direction = state / size
        return direction * magnitude

    return PerturbationSpec(delta0=delta0, generator=gen, name="radial")


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
    # A diverging orbit overflows to inf, which the guard reports; numpy's
    # overflow warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        if stop_epsilon is not None and norm(x) <= stop_epsilon:
            return Trajectory(np.array(states), truncated=False)
        for k in range(k_max):
            nxt = np.asarray(step(x), dtype=float)
            if nxt.shape != shape:
                nxt = np.atleast_1d(nxt)
                _check_shape(system, nxt, shape)
            if pert is not None:
                nxt = nxt + pert.sample(k, x)
            # One norm decides both tests; a NaN or inf norm fails the guard.
            size = norm(nxt)
            if not size <= DIVERGENCE_LIMIT:
                raise divergence_error(system, k, states[0])
            states.append(nxt)
            x = nxt
            if stop_epsilon is not None and size <= stop_epsilon:
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

    return SystemMap(name=name, dimension=1, step=step, step_batch=step_batch)


def affine_system(matrix, offset=None, name: str = "affine") -> SystemMap:
    """The map ``x -> A x + b`` for a square matrix A."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("matrix must be square")
    n = a.shape[0]
    b = np.zeros(n) if offset is None else as_state(offset, n)

    def step(state: np.ndarray) -> np.ndarray:
        return a @ state + b

    return SystemMap(name=name, dimension=n, step=step)
