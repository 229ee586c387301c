"""Reference values computed apart from the program.

Nothing here imports ``fixsettle``.  Integer bounds are decided exactly
with ``fractions`` and ``mpmath``; orbits are iterated one scalar at a
time with Python floats; grid residuals are evaluated in closed form with
numpy.  Where a reference quantity depends on comparing a float against a
threshold, the comparison is repeated with the threshold moved by
``REL_BAND`` either way, and every outcome of the three counts as correct:
an implementation that differs from this one in the last bits (numpy
``pow`` against Python ``**``, a different summation order) is not failed.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Callable, List, Optional, Sequence, Set

import mpmath
import numpy as np

REL_BAND = 1e-9

_ctx = mpmath.MPContext()
_ctx.dps = 60

# The paper's benchmark table: a', b', r1', r2' as decimal literals, the
# published bound and the published "actual time of convergence".
CASES = (
    ("0.8", "0.5", "0.4", "1.1", 19, 6),
    ("0.5", "0.2", "0.3", "1.2", 258, 15),
    ("0.1", "0.1", "0.05", "1.4", 1359, 30),
    ("0.2", "0.05", "0.2", "1.5", 7814, 33),
)
TABLE1_X0 = 1500.0
DEFAULT_EPSILONS = (10.0, 1.0, 0.5, 0.25, 0.1)


def case_params(case: int) -> tuple:
    """Exact (a', b', r1', r2') of benchmark case 1..4."""
    return tuple(Q(s) for s in CASES[case - 1][:4])


def case_floats(case: int) -> tuple:
    return tuple(float(p) for p in case_params(case))


def example_gains(case: int) -> tuple:
    """Exact (alpha, beta, r1, r2) = (a'^2, b'^2, 2 r1', 2 r2')."""
    a, b, r1, r2 = case_params(case)
    return (a * a, b * b, 2 * r1, 2 * r2)


def divergence_cap(case: int) -> float:
    """Half the magnitude above which the benchmark map diverges."""
    _, b, _, r2 = case_floats(case)
    return 0.5 * (2.0 / b) ** (1.0 / (r2 - 1.0))


def _mpf(q: Q):
    return _ctx.mpf(q.numerator) / q.denominator


def power_floor(base: Q, expo: Q, minus: Q = Q(0), over: Q = Q(1)) -> int:
    """floor((base**expo - minus) / over), decided exactly.

    The value is evaluated at 60 digits.  When it lies within 1e-40 of an
    integer k, equality is decided in rationals: base**(n/d) equals
    c = k*over + minus exactly when base**n == c**d.
    """
    y = (_ctx.power(_mpf(base), _mpf(expo)) - _mpf(minus)) / _mpf(over)
    k = int(_ctx.nint(y))
    if abs(y - k) > _ctx.mpf(10) ** -40:
        return int(_ctx.floor(y))
    c = k * over + minus
    if c > 0 and base ** expo.numerator == c ** expo.denominator:
        return k
    return int(_ctx.floor(y))


def phase1(beta: Q, r2: Q) -> int:
    """floor((beta^(1/(1-r2)) - 1) / beta) + 1."""
    return power_floor(beta, 1 / (1 - r2), Q(1), beta) + 1


def phase2(alpha: Q, r1: Q) -> int:
    """floor(alpha^(1/(r1-1))) + 1."""
    return power_floor(alpha, 1 / (r1 - 1)) + 1


def settling_bound(alpha: Q, beta: Q, r1: Q, r2: Q) -> int:
    return phase1(beta, r2) + phase2(alpha, r1)


def example_bound(case: int) -> int:
    """The benchmark map's bound, exactly (19 / 258 / 1359 / 7815)."""
    return settling_bound(*example_gains(case))


def slackened(gain: Q, m: Q) -> Q:
    return (1 - 1 / m) * gain


def perturbed_bound(gains: tuple, branch_high: bool, m: Q) -> int:
    """Step bound to reach {V <= B}, from the slackened gain of the branch."""
    alpha, beta, r1, r2 = gains
    if branch_high:
        return phase1(slackened(beta, m), r2)
    return phase2(slackened(alpha, m), r1)


def attractive_level(gains: tuple, branch_high: bool, m: Q, lv, delta0) -> float:
    """B = (m L_V delta0 / beta)^(1/r2) above level 1, (m L_V delta0 / alpha)^(1/r1) below."""
    alpha, beta, r1, r2 = gains
    gain, r = (beta, r2) if branch_high else (alpha, r1)
    lvd = _ctx.mpf(lv) * _ctx.mpf(delta0) * _mpf(m)
    return float(_ctx.power(lvd / _mpf(gain), 1 / _mpf(r)))


# -- orbits ----------------------------------------------------------------


def example_step(x: float, a: float, b: float, r1: float, r2: float) -> float:
    """x - sign(x) max(a'|x|^r1', b'|x|^r2'), with sign(0) = 0."""
    if x == 0.0:
        return 0.0
    mag = abs(x)
    return x - math.copysign(max(a * mag ** r1, b * mag ** r2), x)


def uniform_ball_draw(seed: int, k: int, delta0: float) -> float:
    """The documented 1-D draw: sign of a normal, radius delta0 * U[0, 1),
    from a generator keyed by (seed, k)."""
    rng = np.random.default_rng((seed, k))
    direction = float(rng.standard_normal(1)[0])
    radius = delta0 * float(rng.random())
    return -radius if direction < 0.0 else radius


def radial_draw(x: float, delta0: float) -> float:
    """A push of 0.999 * delta0 away from the origin (+ at the origin)."""
    return -(0.999 * delta0) if x < 0.0 else 0.999 * delta0


def example_orbit(case: int, x0: float, steps: int,
                  perturbation: Optional[Callable[[int, float], float]] = None) -> List[float]:
    """x(0..steps) of the benchmark map, optionally plus g(k, x(k))."""
    a, b, r1, r2 = case_floats(case)
    xs = [float(x0)]
    x = float(x0)
    for k in range(steps):
        nxt = example_step(x, a, b, r1, r2)
        if perturbation is not None:
            nxt = nxt + perturbation(k, x)
        xs.append(nxt)
        x = nxt
    return xs


def perturbation_fn(generator: str, delta0: float, seed: int):
    if generator == "uniform_ball":
        return lambda k, x: uniform_ball_draw(seed, k, delta0)
    if generator == "radial":
        return lambda k, x: radial_draw(x, delta0)
    raise ValueError(f"no reference for generator {generator!r}")


# -- threshold indices with an ambiguity band --------------------------------


def stay_index(values: Sequence[float], thr: float) -> Optional[int]:
    """Smallest k with values[j] <= thr for every j >= k; None if the last is above."""
    for j in range(len(values) - 1, -1, -1):
        if values[j] > thr:
            return j + 1 if j + 1 < len(values) else None
    return 0


def first_index(values: Sequence[float], thr: float) -> Optional[int]:
    for j, v in enumerate(values):
        if v <= thr:
            return j
    return None


def banded(fn, values: Sequence[float], thr: float) -> Set:
    """Outcomes of ``fn(values, t)`` for t = thr and thr moved by ``REL_BAND`` either way."""
    return {fn(values, thr * (1.0 - REL_BAND)), fn(values, thr), fn(values, thr * (1.0 + REL_BAND))}


def settling_rows(norms: Sequence[float]):
    """Per epsilon of DEFAULT_EPSILONS: (epsilon, accepted entry-and-stay
    indices, accepted first-entry indices)."""
    return [(float(e), banded(stay_index, norms, e), banded(first_index, norms, e))
            for e in DEFAULT_EPSILONS]


# -- grid residuals ------------------------------------------------------------


def log_grid(low: float, high: float, points: int, signed: bool = False) -> np.ndarray:
    """``points`` log-spaced values in [low, high]; mirrored into the negatives
    when signed, in ascending order."""
    xs = np.logspace(np.log10(low), np.log10(high), points)
    return np.concatenate([-xs[::-1], xs]) if signed else xs


def mixed_radii(case: int) -> tuple:
    """|x| below a'^(1/(1-r1')) or above b'^(1/(1-r2')) violates the mixed form."""
    a, b, r1, r2 = case_params(case)
    inner = _ctx.power(_mpf(a), 1 / (1 - _mpf(r1)))
    outer = _ctx.power(_mpf(b), 1 / (1 - _mpf(r2)))
    return float(inner), float(outer)


def _example_map_np(xs: np.ndarray, case: int):
    a, b, r1, r2 = case_floats(case)
    mag = np.abs(xs)
    m = np.maximum(a * mag ** r1, b * mag ** r2)
    return xs - np.sign(xs) * m, m


def mixed_reference(case: int, xs: np.ndarray, tolerance: float):
    """(violating, ambiguous, residual, scale) for the mixed form on a 1-D grid.

    With V_lhs = x^2, V_rhs = |x| and the example gains the residual is
    2 m (m - |x|), m = max(a'|x|^r1', b'|x|^r2'), so violations are the
    points outside the two radii.
    """
    inner, outer = mixed_radii(case)
    mag = np.abs(xs)
    violating = (mag < inner) | (mag > outer)
    ambiguous = (np.abs(mag - inner) <= REL_BAND * inner) | (np.abs(mag - outer) <= REL_BAND * outer)
    fx, m = _example_map_np(xs, case)
    residual = 2.0 * m * (m - mag)
    scale = xs * xs + fx * fx + m * m
    ambiguous |= np.abs(residual - tolerance) <= REL_BAND * scale
    return violating, ambiguous, residual, scale


def perturbed_reference(case: int, xs: np.ndarray, delta0: float, tolerance: float):
    """(violating, ambiguous, residual, scale) of the perturbation-slackened
    decrement for V = |x| (L_V = 1) with the example gains."""
    alpha, beta, r1, r2 = (float(g) for g in example_gains(case))
    fx, _ = _example_map_np(xs, case)
    mag = np.abs(xs)
    bound = np.maximum(alpha * mag ** r1, beta * mag ** r2)
    residual = np.abs(fx) - mag + bound - delta0
    scale = np.abs(fx) + mag + bound + delta0
    violating = residual > tolerance
    ambiguous = np.abs(residual - tolerance) <= REL_BAND * scale
    return violating, ambiguous, residual, scale


def contraction_reference(rho: float, norm0: float, steps: int, gains: tuple, tolerance: float):
    """(violating, ambiguous, residual, scale) along the orbit of rho * R, R orthogonal.

    ||x_k|| = rho^k ||x0||, and V = ||x|| violates the decrement exactly
    when ||x_k|| < (alpha/(1-rho))^(1/(1-r1)) or > ((1-rho)/beta)^(1/(r2-1)),
    for k = 0 .. steps-1 (the last state has no successor to check).
    """
    alpha, beta, r1, r2 = (float(g) for g in gains)
    low = (alpha / (1.0 - rho)) ** (1.0 / (1.0 - r1))
    high = ((1.0 - rho) / beta) ** (1.0 / (r2 - 1.0))
    s = norm0 * rho ** np.arange(steps, dtype=float)
    violating = (s < low) | (s > high)
    ambiguous = (np.abs(s - low) <= REL_BAND * low) | (np.abs(s - high) <= REL_BAND * high)
    bound = np.maximum(alpha * s ** r1, beta * s ** r2)
    residual = (rho - 1.0) * s + bound
    scale = s + bound
    ambiguous |= np.abs(residual - tolerance) <= REL_BAND * scale
    return violating, ambiguous, residual, scale
