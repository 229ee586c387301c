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
    """Coerce a scalar or sequence into a contiguous float64 state vector of length ``dimension``."""
    arr = np.atleast_1d(np.ascontiguousarray(x, dtype=float))
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

    ``body`` must be a pure function that maps an (m, dimension) stack of
    states to an (m, dimension) stack, each row bit for bit what that row
    gives as a one-row stack.  It is handed nothing but stacks: a single
    orbit hands it a one-row stack per step, and ``apply`` is a batch of
    one.  Sweeps rely on that purity: once every orbit of a stack repeats a
    state bit for bit, they finish the run in closed form.
    Stacks step a chunk of steps at a time and test for divergence at the
    chunk's end, so ``body`` may be given rows that diverged earlier in the
    chunk.  Their outputs are discarded, and ``body`` must not raise on
    inf or NaN rows.
    """

    name: str
    dimension: int
    body: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dimension < 1:
            raise ParameterDomainError("system dimension must be a positive integer")

    def apply(self, x) -> np.ndarray:
        """One application of the map to one state, with dimension checking:
        ``apply_batch`` of a batch of one."""
        return self.apply_batch(as_state(x, self.dimension)[None, :])[0]

    def apply_batch(self, states) -> np.ndarray:
        """One application of the map to every row of an (m, dimension)
        array, taken as float64 as ``apply`` takes its state."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != self.dimension:
            raise ParameterDomainError(
                f"states have shape {states.shape}, expected (m, {self.dimension})"
            )
        return _checked(self, self.body(states), states.shape)


_FLOAT64 = np.dtype(np.float64)


def _checked(system: SystemMap, out, shape) -> np.ndarray:
    """``out`` as a float array, which must have the input's shape.

    A plain native float64 array of that shape is taken as it is, which is
    what ``np.asarray(out, dtype=float)`` gives for it.
    """
    if type(out) is np.ndarray and out.dtype is _FLOAT64 and out.shape == shape:
        return out
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ParameterDomainError(
            f"map '{system.name}' returned shape {out.shape}, expected {shape}"
        )
    return out


# The root of the smallest normal float 2**-1022: a squared norm is a
# finite normal float exactly when its correctly rounded root lies in
# [_ROOT_TINY, inf).
_ROOT_TINY = 2.0 ** -511


def row_dots(rows: np.ndarray) -> np.ndarray:
    """Every row's dot product with itself, as ``np.dot`` takes it.

    Each row goes through the vector dot product that ``np.dot`` and
    ``np.linalg.norm`` use for a single vector, so the result equals
    ``np.dot(row, row)`` bit for bit; a plain sum of squares differs in the
    last bit on some rows of two or more components.  Strided rows are
    made contiguous first: matmul sums them in another order.
    """
    rows = np.ascontiguousarray(rows)
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
    one).  For a state of shape (1,) a scalar draw, such as a Python float,
    counts as the 1-vector.

    A generator that does not read the state may also supply
    ``block(k0, count)``: the ``(count, n)`` array of the draws for steps
    k0 .. k0 + count - 1, each row equal to ``generator(k, state)``.  The
    simulators then take their draws a block at a time: they check each
    block's shape once, and raise a draw's bound error when the orbit
    reaches its step.  Without ``block`` they draw every step, a 1-D orbit
    as one float and any other single state through ``sample``, and a
    stack of states needs ``block``.  The simulators never write to a
    block.
    """

    delta0: float
    generator: Callable[[int, np.ndarray], np.ndarray]
    name: str = "custom"
    block: Optional[Callable[[int, int], np.ndarray]] = None

    def __post_init__(self):
        if not (math.isfinite(self.delta0) and self.delta0 >= 0.0):
            raise ParameterDomainError(
                "delta0 must be a finite nonnegative perturbation bound"
            )

    def sample(self, k: int, state: np.ndarray) -> np.ndarray:
        """Generate the step-``k`` perturbation and enforce its shape and norm bound.

        A NaN draw fails the bound; a scalar draw counts as a 1-vector.  A
        stack of states gets a stack of draws, each row checked; the first
        row that breaks the bound is the error.
        """
        g = self._shaped(k, self.generator(k, state), state.shape)
        sizes = row_norms(g.reshape(-1, g.shape[-1]))  # a state as a stack of one
        bad = self._first_bad(sizes)
        if bad is not None:
            self._check_norm(k, float(sizes[bad]))
        return g

    def _sample_float(self, k: int, state: np.ndarray) -> float:
        """``sample`` for the one-state array of a 1-D orbit, as a float.

        A draw that is already a Python float skips the array conversion;
        any other draw is shaped as ``sample`` shapes it.  ``abs`` of the
        float is the norm ``sample`` checks, bit for bit.
        """
        g = self.generator(k, state)
        if type(g) is not float:
            g = self._shaped(k, g, state.shape).item()
        self._check_norm(k, abs(g))
        return g

    def _shaped(self, k: int, g, shape) -> np.ndarray:
        """Draw ``g`` as a float array of ``shape``; a scalar may stand for a 1-vector."""
        g = np.asarray(g, dtype=float)
        if g.shape != shape:
            g = np.atleast_1d(g)
            if g.shape != shape:
                raise ParameterDomainError(
                    f"perturbation '{self.name}' at step {k} has shape {g.shape}, "
                    f"expected {shape}"
                )
        return g

    def _checked_block(self, k0: int, count: int, n: int) -> np.ndarray:
        """``block(k0, count)`` with its shape checked, cut before its first
        draw that breaks the bound.

        When that draw is the block's first, its bound error is raised: an
        orbit that reaches the cut asks for a block from that step, so the
        error comes at the step of the draw and no earlier.
        """
        draws = np.asarray(self.block(k0, count), dtype=float)
        if draws.shape != (count, n):
            raise ParameterDomainError(
                f"perturbation '{self.name}' block at step {k0} has shape {draws.shape}, "
                f"expected {(count, n)}"
            )
        sizes = row_norms(draws)
        bad = self._first_bad(sizes)
        if bad == 0:
            self._check_norm(k0, float(sizes[0]))
        return draws if bad is None else draws[:bad]

    def _first_bad(self, sizes: np.ndarray) -> Optional[int]:
        """Index of the first norm in ``sizes`` that breaks the bound, or None."""
        bad = np.flatnonzero((sizes != 0.0) & ~(sizes < self.delta0))
        return int(bad[0]) if len(bad) else None

    def _check_norm(self, k: int, size: float) -> None:
        if size != 0.0 and not size < self.delta0:
            raise PerturbationBoundError(
                f"perturbation at step {k} has norm {size:.6g}, "
                f"which is not strictly below delta0={self.delta0:.6g}"
            )


def constant_perturbation(vector, delta0: float, name: str = "constant") -> PerturbationSpec:
    """A fixed additive offset applied at every step."""
    vec = np.atleast_1d(np.asarray(vector, dtype=float))
    return PerturbationSpec(
        delta0=delta0,
        generator=lambda k, x: vec,
        name=name,
        block=lambda k0, count: np.broadcast_to(vec, (count, *vec.shape)),
    )


# The most steps whose draws the simulators ask a ``block`` for at once.
_SEED_BLOCK = 256


def uniform_ball_perturbation(delta0: float, dimension: int, seed: int) -> PerturbationSpec:
    """Per-step draw uniform in the open ball of radius ``delta0``.

    Step k (k >= 0) draws ``standard_normal(dimension)`` and then
    ``random()`` from ``np.random.default_rng((seed, k))``, so the draw
    depends on ``(seed, k)`` alone and the sequence is reproducible.
    ``block`` makes the draws of all its steps in one pass, with no
    generator per step (``_pcg64.normals_and_uniforms``), and scales the
    whole block at once; ``generator`` is a block of one step.
    A negative seed or k raises ``ParameterDomainError``.
    """
    if dimension < 1:
        raise ParameterDomainError("dimension must be a positive integer")
    if seed < 0:
        raise ParameterDomainError("seed must be a nonnegative integer")

    def block(k0: int, count: int) -> np.ndarray:
        if delta0 == 0.0:
            return np.zeros((count, dimension))
        if k0 < 0:
            raise ParameterDomainError(f"uniform_ball step must be nonnegative, got {k0}")
        # numpy imports numpy.random on first use, and importing it or
        # ._pcg64 is a large share of a CLI call's set-up; only a draw pays.
        from ._pcg64 import normals_and_uniforms

        normals, u = normals_and_uniforms(seed, k0, count, dimension)
        # Each row of ``normals`` scaled to length ``delta0 * u ** (1 / n)``.
        sizes = row_norms(normals)
        zero = sizes == 0.0
        if zero.any():
            normals[zero] = 0.0
            normals[zero, 0] = 1.0
            sizes[zero] = 1.0
        # u in [0, 1) keeps the radius strictly below delta0; float_power
        # calls libm pow as the per-draw ``u ** (1 / n)`` would.
        radii = delta0 * np.float_power(u, 1.0 / dimension)
        return normals / sizes[:, None] * radii[:, None]

    return PerturbationSpec(
        delta0=delta0,
        generator=lambda k, state: block(k, 1)[0],
        name="uniform_ball",
        block=block,
    )


def radial_perturbation(
    delta0: float, dimension: int, fraction: float = 0.999
) -> PerturbationSpec:
    """Worst-case-style push directly away from the origin.

    The magnitude is ``fraction * delta0`` (fraction < 1 keeps the bound
    strict).  At the origin, where "away" is undefined, the first axis is
    used.  The generator works row-wise on an (m, n) stack, each row as
    that state alone gives, and gives the draw for a one-state array of
    shape (1,) as the float ``x / |x| * magnitude``: ±magnitude,
    +magnitude at ±0, and NaN for a NaN or infinite state, as the state
    divided by its ``norm`` gives.
    """
    if dimension < 1:
        raise ParameterDomainError("dimension must be a positive integer")
    if not 0.0 <= fraction < 1.0:
        raise ParameterDomainError("fraction must lie in [0, 1) to keep the bound strict")
    magnitude = fraction * delta0

    def gen(k: int, state: np.ndarray):
        if delta0 == 0.0:
            return 0.0 if state.shape == (1,) else np.zeros(state.shape)
        if state.shape == (1,):
            x = state.item()
            return x / abs(x) * magnitude if x != 0.0 else magnitude
        rows = state.reshape(-1, state.shape[-1])  # a state as a stack of one
        sizes = row_norms(rows)
        zero = sizes == 0.0
        direction = rows / np.where(zero, 1.0, sizes)[:, None]
        direction[zero] = 0.0
        direction[zero, 0] = 1.0
        return (direction * magnitude).reshape(state.shape)

    return PerturbationSpec(delta0=delta0, generator=gen, name="radial")


# The most steps a stack takes between two divergence checks; each chunk's
# states come out as one array.
_CHUNK = 64


def _steps(system: SystemMap, x: np.ndarray, k_max: int, pert: Optional[PerturbationSpec] = None):
    """Step one state of shape (n,) or an (m, n) stack ``k_max`` times.

    ``body`` is handed stacks only: a single state steps as a one-row
    stack.  A single state yields ``(k, state, norm)`` for k = 1..k_max:
    the state at index k and its ``norm``.  A single state of shape (1,)
    is kept as a Python float between steps and yielded as one, with
    ``abs`` of it as its norm, which equals ``norm`` of the 1-vector bit
    for bit (both zeros, NaN and inf included); every step refills one
    (1, 1) stack with it for ``body``.  One of dimension 2 or more is kept
    as the (1, n) stack ``body`` returns and yielded as its (n,) row.  A
    stack steps a chunk at a time and checks for divergence once per
    chunk: it yields ``(k, states, norms, error)``, the freshly allocated
    (c, m, n) array of its states at indices k..k + c - 1, their (c, m)
    ``row_norms`` and the divergence error pending so far (below), for
    chunks of c = ``_CHUNK`` steps, fewer at the end and never past
    ``k_max``.  Each step calls ``body`` once and checks the output's
    shape; when ``pert`` is given it adds the step-(k - 1) perturbation.
    A spec with a ``block`` gives its draws a block at a time through
    ``_checked_block``: at most ``_SEED_BLOCK`` steps per call and never a
    step past ``k_max``; a stack adds each row to all its states, and a
    float its row's one component, read once per block as a list of
    floats.  A block ends before its first draw that breaks the bound, a
    stack's chunk ends with its block, and the block asked for from that
    step raises the bound error, so an earlier divergence is the error
    raised.  A spec without ``block`` reads the state, and each step draws
    for step k - 1 from the state's (n,) row: an array state through
    ``pert.sample(k - 1, row)``, a float through ``generator(k - 1, row)``,
    its draw taken as one float with ``sample``'s shape check and messages
    and ``abs`` as its norm.  A stack with such a spec raises
    ``ParameterDomainError``: its per-step draws would raise a later row's
    bound error before an earlier row's divergence.

    A state has diverged when its norm is not <= ``DIVERGENCE_LIMIT``.
    Rows run as if each ran alone, in row order, and the first row that
    diverges within ``k_max`` steps is raised with its initial state and
    its own last finite index.  A single state stops at its divergence.  A
    stack steps every row to the end of the chunk, so ``body`` may be
    given rows that diverged earlier in it, whose outputs are discarded.
    The chunk is then cut before its first diverged row in row order, and
    from there on the stack is its rows before that one: each later chunk
    holds only them, none once no row is left, and a later divergence among
    them is the error instead.  Each chunk carries the error pending so
    far, or None, which the run raises at its end; a caller that stops
    stepping the rows still there, having seen that they never diverge,
    raises it itself.  Callers hold ``np.errstate`` around their loop; none
    is held across a ``yield``.
    """
    body = system.body
    start = x
    by_block = pert is not None and pert.block is not None
    k0, draws = 0, ()  # the draws of steps k0..
    error = None  # the divergence of the first diverged row
    if x.ndim == 2 and pert is not None and not by_block:
        raise ParameterDomainError(
            f"perturbation '{pert.name}' has no block, which a stack of states needs"
        )
    if x.shape == (1,):
        y = x.item()
        # The (1, 1) stack ``body`` gets and its row, which the generator
        # gets, refilled every step; what they return is read before the
        # next refill, so an output that is this array itself is safe.
        state = np.empty((1, 1))
        row = state[0]
        for k in range(k_max):
            state[0, 0] = y
            y = _checked(system, body(state), (1, 1)).item()
            if by_block:
                if k - k0 == len(draws):
                    k0 = k
                    draws = pert._checked_block(k, min(_SEED_BLOCK, k_max - k), 1)[:, 0].tolist()
                y = y + draws[k - k0]
            elif pert is not None:
                y = y + pert._sample_float(k, row)
            size = abs(y)
            if not size <= DIVERGENCE_LIMIT:
                error = _diverged(system, start, 0, k)
                break
            yield k + 1, y, size
    elif x.ndim == 1:
        row, x = x, x[None, :]
        for k in range(k_max):
            nxt = _checked(system, body(x), x.shape)
            if by_block:
                if k - k0 == len(draws):
                    k0 = k
                    # Rows of shape (1, n), which add to the state unbroadcast.
                    draws = pert._checked_block(k, min(_SEED_BLOCK, k_max - k), x.shape[1])[:, None]
                nxt = nxt + draws[k - k0]
            elif pert is not None:
                nxt = nxt + pert.sample(k, row)
            x = nxt
            row = x[0]
            size = norm(row)
            if not size <= DIVERGENCE_LIMIT:
                error = _diverged(system, start, 0, k)
                break
            yield k + 1, row, size
    else:
        n = x.shape[1]
        k = 0
        while k < k_max:
            c = min(_CHUNK, k_max - k)
            if by_block:
                if k - k0 == len(draws):
                    k0 = k
                    draws = pert._checked_block(k, min(_SEED_BLOCK, k_max - k), n)
                c = min(c, k0 + len(draws) - k)
            chunk = np.empty((c, *x.shape))
            for j in range(c):
                x = _checked(system, body(x), x.shape)
                if by_block:
                    x = x + draws[k + j - k0]
                chunk[j] = x
            sizes = row_norms(chunk.reshape(-1, n)).reshape(c, -1)
            # max propagates NaN: one comparison clears a whole chunk.
            if not sizes.max() <= DIVERGENCE_LIMIT:
                within = sizes <= DIVERGENCE_LIMIT
                row = int(np.argmin(within.all(axis=0)))
                error = _diverged(system, start, row, k + int(np.argmin(within[:, row])))
                if not row:
                    break
                chunk, sizes = chunk[:, :row], sizes[:, :row]
                x = chunk[-1]
            yield k + 1, chunk, sizes, error
            k += c
    if error is not None:
        raise error


def _diverged(system: SystemMap, start: np.ndarray, row: int, k: int) -> SimulationDivergedError:
    """The error of row ``row`` of the states ``start``, whose orbit diverged
    at index k + 1."""
    return SimulationDivergedError(
        f"state diverged at step {k + 1} of '{system.name}' (last finite index {k})",
        last_finite_index=k,
        x0=np.array(np.atleast_2d(start)[row]),
    )


def _run(
    system: SystemMap,
    x0,
    k_max: int,
    stop_epsilon: Optional[float],
    pert: Optional[PerturbationSpec],
) -> Trajectory:
    if k_max < 1:
        raise ParameterDomainError("k_max must be at least 1")
    if stop_epsilon is not None and not stop_epsilon >= 0.0:
        raise ParameterDomainError("stop_epsilon must be nonnegative")
    x = as_state(x0, system.dimension)
    # ``_steps`` yields a state of shape (1,) as a float, so a 1-D orbit is
    # a list of floats until it becomes one array.
    states = [x.item() if x.shape == (1,) else x]
    truncated = True
    # A diverging orbit overflows to inf, which the guard reports; numpy's
    # overflow warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        if stop_epsilon is not None and norm(x) <= stop_epsilon:
            return Trajectory(np.array([x]), truncated=False)
        for _, state, size in _steps(system, x, k_max, pert):
            states.append(state)
            if stop_epsilon is not None and size <= stop_epsilon:
                truncated = False
                break
    return Trajectory(np.array(states).reshape(len(states), -1), truncated=truncated)


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
    # At ±0 both powers are 0, so the step gives +0.0 with no special case.
    mag = abs(x)
    m = max(aprime * mag ** r1prime, bprime * mag ** r2prime)
    return x - math.copysign(m, x)


def _example_step_float(x: float, aprime: float, bprime: float, r1prime: float, r2prime: float) -> float:
    """``_example_step_raw`` on the Python float ``x``.

    Python's ``**`` raises ``OverflowError`` where numpy's gives inf; such a
    step is taken again in numpy scalars.  Otherwise both call libm ``pow``
    and round every other operation alike, so the two agree bit for bit.
    """
    try:
        return _example_step_raw(x, aprime, bprime, r1prime, r2prime)
    except OverflowError:
        return float(_example_step_raw(np.float64(x), aprime, bprime, r1prime, r2prime))


def example_step(x: float, aprime: float, bprime: float, r1prime: float, r2prime: float) -> float:
    """One step of the scalar benchmark map.

    sign(0) is taken as 0, making the origin an exact fixed point.  The
    step is ``example_system``'s single-state step, so a power that
    overflows gives inf rather than raising.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    with np.errstate(over="ignore", invalid="ignore"):
        return _example_step_float(float(x), aprime, bprime, r1prime, r2prime)


def example_system(
    aprime: float, bprime: float, r1prime: float, r2prime: float, name: str = "example"
) -> SystemMap:
    """The benchmark map packaged as a 1-D SystemMap."""
    validate_example_params(aprime, bprime, r1prime, r2prime)

    def body(states: np.ndarray) -> np.ndarray:
        # Parameters were validated at construction; skip the per-step check.
        # A one-row stack takes the scalar step on a Python float, far cheaper
        # per call than the array path; np.float_power calls libm pow like
        # Python's **, so a stack's rows match it bit for bit, where np.power
        # does not.  The stack path writes into its own temporaries: a *= b
        # rounds as b * a does.
        if len(states) == 1:
            out = np.empty((1, 1))
            out[0, 0] = _example_step_float(states.item(), aprime, bprime, r1prime, r2prime)
            return out
        mag = np.abs(states)
        low = np.float_power(mag, r1prime)
        low *= aprime
        high = np.float_power(mag, r2prime)
        high *= bprime
        np.maximum(low, high, out=low)
        np.copysign(low, states, out=low)
        return np.subtract(states, low, out=low)

    return SystemMap(name=name, dimension=1, body=body)


def affine_system(matrix, offset=None, name: str = "affine") -> SystemMap:
    """The map ``x -> A x + b`` for a square matrix A."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("matrix must be square")
    n = a.shape[0]
    b = np.zeros(n) if offset is None else as_state(offset, n)

    def body(states: np.ndarray) -> np.ndarray:
        # Stacked matrix-vector products equal ``a @ x + b`` row by row, bit
        # for bit; the plain product ``states @ a.T`` differs in the last bit.
        return np.matmul(a, states[..., None])[..., 0] + b

    return SystemMap(name=name, dimension=n, body=body)
